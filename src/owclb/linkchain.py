"""Link-stage frequency responses, noise spectra, and the cascaded GNR.

Each stage of an optical wireless link (modulator, LED or laser, phosphor,
propagation path, fiber fronthaul, beam-steering array, photodiode front
end) is described here by its magnitude-squared frequency response.  A
chain of stages over a colored noise spectrum yields the spectral
gain-to-noise ratio

    GNR(f) = |H(f)|^2 / S_N(f),

which is the only channel quantity the spectrum optimizers consume.
Chains built purely from flat, first-order and rational pole-zero stages
reduce to a canonical M-zero / N-pole form (``MagSqPoleZeroGnr``); other
stage kinds must go through the ``fit`` module instead.

The channel classes check their fields from their declared types
(``_Checked``), and the JSON reader parses a document by the same types.
One number rule, ``_fault``, serves both: a real number, not a bool, in
(0, largest float], and for a count also whole; text, None, lists,
``Decimal``, nan, inf and ints past the float range are refused.  A new
stage kind is a frozen ``_Checked`` dataclass with typed fields, listed in
``ComponentResponse``: a rational kind derives from ``_PoleZeroStage`` and
gives ``polezero``, its (dc gain, zeros, poles), which its ``magsq`` and
``reduce_to_polezero`` both read; any other kind gives ``magsq``.

All algebra is carried out on magnitude-squared quantities; phase is never
modeled.  A gain or corner whose square passes the largest float squares to
+inf (``_square``), never to an ``OverflowError``.  Every type is immutable
after construction and every operation is a pure function, so shared
concurrent use is safe.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import sys
from collections.abc import Iterable, Mapping, Set
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Union, get_args

import numpy as np

SPEED_OF_LIGHT_M_S = 299792458.0

# A pole and a zero closer than this (relative) are treated as an exact
# cancelling pair during reduction; near-cancellations are kept.
CANCEL_RTOL = 1e-9


class TableRangeError(ValueError):
    """Requested frequency falls outside a tabulated response's support."""


class NotReducibleError(ValueError):
    """Chain contains a stage with no exact pole-zero representation."""


class ChannelFormatError(ValueError):
    """Malformed channel file; the message starts with where the fault is.

    That is the JSON path of a bad entry (``stages[0].params.corner``), or
    the file name for a file that does not parse, followed by the row number
    for a bad response-table CSV row.
    """


_FLOAT_MAX = sys.float_info.max


def _fault(value, count: bool = False) -> str | None:
    """The end of the message refusing ``value`` as a positive finite number
    (with ``count``, a positive integer: equal to its ``int``), or None.

    A ``numbers.Real`` other than bool in (0, largest float] passes.
    """
    if type(value) is float:  # what JSON gives; subclasses take the general test
        if 0.0 < value <= _FLOAT_MAX and not (count and value != int(value)):
            return None
    elif (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and 0 < value <= _FLOAT_MAX
        and not (count and value != int(value))
    ):
        return None
    return f"must be a positive {'integer' if count else 'finite number'}, got {value!r}"


def _is_integer(value) -> bool:  # what an index, size or order argument must be
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_positive(name: str, value, count: bool = False) -> float:
    """``value`` as a float; a ValueError starting with ``name`` if ``_fault`` refuses it."""
    if isinstance(value, float):  # the hot case; np.float64 is shown as a plain float
        value = float(value)
        if 0.0 < value <= _FLOAT_MAX and not count:
            return value
    fault = _fault(value, count)
    if fault:
        raise ValueError(f"{name} {fault}")
    return float(value)


def _freq_tuple(name: str, values) -> tuple[float, ...]:
    # text iterates into its characters, and a mapping or a set into its keys
    # in no order the caller wrote, so each is refused whole; a plain list or
    # tuple, what JSON and the library give, needs neither test
    if type(values) not in (list, tuple) and (
        isinstance(values, (str, bytes, bytearray, Mapping, Set))
        or not isinstance(values, Iterable)
    ):
        raise ValueError(f"{name} must be a sequence of positive finite numbers, got {values!r}")
    entry = f"{name} entry"
    return tuple([_check_positive(entry, v) for v in values])


_F_LIMIT = math.sqrt(_FLOAT_MAX)  # the largest frequency whose square is a finite float
_F_FAULT = f"frequency must be finite and non-negative, at most {_F_LIMIT:.6g} Hz"


def _as_f(f):
    """Coerce a frequency argument to float or float ndarray, checking range."""
    if isinstance(f, float):
        if not 0.0 <= f <= _F_LIMIT:  # nan fails too
            raise ValueError(_F_FAULT)
        return float(f)
    arr = np.asarray(f, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= _F_LIMIT)):
        raise ValueError(_F_FAULT)
    return arr if arr.ndim else float(arr)


def _square(x) -> float:
    """x**2 as a float, or +inf where that passes the largest float (``**``
    on a float, or the conversion of an int's exact square, raises there)."""
    try:
        return float(x**2)
    except OverflowError:
        return math.inf


_FLOAT_TINY = sys.float_info.min  # the smallest normal float


def _corner_factor(f, u, corner: float):
    """1 + f^2/corner^2 as 1 + u/corner^2, u = f^2, or, for a corner whose
    square is below the smallest normal float, as 1 + (f/corner)^2, which
    divides by no underflowed square; a factor past the float range is inf.
    A corner whose square overflows gives a factor of exactly 1."""
    c2 = _square(corner)
    if c2 < _FLOAT_TINY:
        r = f / corner
        return 1.0 + r * r
    return 1.0 + u / c2


def _polezero(gain: float, zeros, poles, f, log_gain: float | None = None):
    """gain * prod(1 + f^2/fz^2) / prod(1 + f^2/fp^2), zeros first, in list
    order; a factor past the float range is inf, without a warning.  Where
    a zero's and a pole's factors both pass it, inf/inf is nan, and so is
    0*inf or inf/inf after a gain of 0 or inf (a squared dc_gain past the
    float range): there the product is taken in logarithms instead
    (``_log_polezero``), from log(gain), or ``log_gain`` for such a gain."""
    f = _as_f(f)
    u = np.square(f)
    out = gain + 0.0 * u
    with np.errstate(over="ignore", invalid="ignore"):
        for fz in zeros:
            out = out * _corner_factor(f, u, fz)
        for fp in poles:
            out = out / _corner_factor(f, u, fp)
    # one check over the result: a max, since a sum may overflow
    if math.isnan(out.max(initial=0.0) if out.ndim else out):
        if 0.0 < gain < math.inf:
            log_gain = math.log(gain)
        if not out.ndim:
            return _log_polezero(log_gain, zeros, poles, f)
        bad = np.isnan(out)
        out[bad] = _log_polezero(log_gain, zeros, poles, f[bad])
    return out


def _log_polezero(log_gain: float, zeros, poles, f):
    """``_polezero``'s product at f > 0 as exp of a sum of logarithms, each
    factor log(1 + (f/corner)^2) = logaddexp(0, 2 (log f - log corner));
    inf where the product passes the float range."""
    log_f = np.log(f)
    total = log_gain
    for fz in zeros:
        total = total + np.logaddexp(0.0, 2.0 * (log_f - math.log(fz)))
    for fp in poles:
        total = total - np.logaddexp(0.0, 2.0 * (log_f - math.log(fp)))
    with np.errstate(over="ignore"):
        return np.exp(total)


class _Checked:
    """Base of the channel dataclasses: each field is checked from its declared type.

    In declaration order, by ``_fault``: ``float`` must be a positive finite
    number, ``float | None`` that or None, ``tuple[float, ...]`` an iterable
    of such numbers (stored as a tuple) and ``int`` a positive integer
    (stored as ``int``).  ``_from_params`` reads JSON by the same types.
    """

    def __post_init__(self):
        for fld in fields(self):
            name, value = fld.name, getattr(self, fld.name)
            if fld.type == "int":
                _check_positive(name, value, count=True)
                object.__setattr__(self, name, int(value))
            elif fld.type.startswith("tuple"):
                object.__setattr__(self, name, _freq_tuple(name, value))
            elif value is not None or "None" not in fld.type:
                _check_positive(name, value)


class _PoleZeroStage(_Checked):
    """Base of the rational stage kinds.  Each gives ``polezero``, its
    (dc gain, zeros, poles); ``magsq`` takes |H(f)|^2 from it through the
    one pole-zero product, and ``reduce_to_polezero`` reads it as well."""

    def magsq(self, f):
        gain, zeros, poles = self.polezero
        return _polezero(_square(gain), zeros, poles, f, 2.0 * math.log(gain))


@dataclass(frozen=True)
class FlatGain(_PoleZeroStage):
    """Frequency-flat stage, e.g. line-of-sight propagation loss."""

    gain: float

    @property
    def polezero(self):
        return self.gain, (), ()


@dataclass(frozen=True)
class FirstOrderLowPass(_PoleZeroStage):
    """Single-pole low pass: |H(f)|^2 = dc_gain^2 / (1 + f^2/corner^2).

    Covers carrier-lifetime-limited LEDs, phosphor photoluminescence,
    diffuse multipath and RC-limited photodiodes.
    """

    dc_gain: float
    corner: float

    @property
    def polezero(self):
        return self.dc_gain, (), (self.corner,)


@dataclass(frozen=True)
class RationalPoleZero(_PoleZeroStage):
    """General stage with real corner zeros and poles.

    |H(f)|^2 = dc_gain^2 * prod(1 + f^2/fz^2) / prod(1 + f^2/fp^2).
    Covers high-order LED equivalent circuits, modulator/driver networks
    and multi-pole PD-TIA front ends.  Corners may repeat.
    """

    dc_gain: float
    zeros: tuple[float, ...] = ()
    poles: tuple[float, ...] = ()

    @property
    def polezero(self):
        return self.dc_gain, self.zeros, self.poles


@dataclass(frozen=True)
class LaserSecondOrder(_Checked):
    """Directly modulated laser with relaxation-oscillation dynamics.

    |H(f)|^2 = dc_gain^2 * f_R^4 / ((f_R^2 - f^2)^2 + damping^2 f^2).
    The response has a resonant peak whenever relaxation_freq exceeds
    damping/sqrt(2); such a stage is non-monotone and never reducible to
    real corners, so the numeric water-level machinery must be used.
    """

    dc_gain: float
    relaxation_freq: float
    damping: float

    def magsq(self, f):
        f = _as_f(f)
        u = np.square(f)
        fr2 = _square(self.relaxation_freq)
        return _square(self.dc_gain) * _square(fr2) / ((fr2 - u) ** 2 + _square(self.damping) * u)


@dataclass(frozen=True)
class GaussianLowPass(_Checked):
    """Gaussian low pass, the usual plastic-optical-fiber model.

    |H(f)|^2 = dc_gain^2 * exp(-2 (f/corner)^2).
    """

    dc_gain: float
    corner: float

    def magsq(self, f):
        r = _as_f(f) / self.corner
        with np.errstate(over="ignore"):  # (f/corner)^2 past the float range is inf
            return _square(self.dc_gain) * np.exp(-2.0 * (r * r))


@dataclass(frozen=True)
class BeamSquintSinc(_Checked):
    """Beam squint of an X-element steered array or reflective surface.

    spacing_delay is the per-element compensation delay in seconds (the
    inter-element path difference divided by the speed of light); the
    unit bookkeeping of the underlying geometry is absorbed into this one
    parameter by convention.  With tau = spacing_delay,

        |H(f)|^2 = (element_gain * X * c * tau)^2 * sinc^2(pi f X tau),

    where sinc(x) = sin(x)/x.  The first null sits at f = 1/(X*tau).
    """

    element_gain: float
    elements: int
    spacing_delay: float

    @property
    def dc_amplitude(self) -> float:
        return self.element_gain * self.elements * SPEED_OF_LIGHT_M_S * self.spacing_delay

    def magsq(self, f):
        f = _as_f(f)
        # np.sinc(x) = sin(pi x)/(pi x), so pass f*X*tau directly.
        return _square(self.dc_amplitude) * np.sinc(f * self.elements * self.spacing_delay) ** 2


@dataclass(frozen=True, eq=False)
class ResponseTable:
    """Sampled magnitude-squared (or PSD) data on a strictly increasing grid."""

    frequencies: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if freqs.ndim != 1 or freqs.shape != vals.shape or freqs.size < 2:
            raise ValueError("table needs matching 1-d frequency/value arrays with >= 2 rows")
        if not np.all(np.isfinite(freqs)) or not np.all(np.isfinite(vals)):
            raise ValueError("table entries must be finite")
        if np.any(freqs <= 0.0):
            raise ValueError("table frequencies must be positive")
        if np.any(np.diff(freqs) <= 0.0):
            raise ValueError("table frequencies must be strictly increasing")
        if np.any(vals <= 0.0):
            raise ValueError("table values must be positive")
        freqs.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_rows(cls, rows) -> "ResponseTable":
        frequencies, values = np.array(rows, dtype=float).reshape(-1, 2).T
        return cls(frequencies=frequencies, values=values)

    @property
    def rows(self) -> list[tuple[float, float]]:
        return [(float(f), float(v)) for f, v in zip(self.frequencies, self.values)]

    def interpolate(self, f):
        """Log-frequency, log-value linear interpolation; no extrapolation."""
        f = _as_f(f)
        lo, hi = float(self.frequencies[0]), float(self.frequencies[-1])
        if np.any(np.asarray(f) < lo) or np.any(np.asarray(f) > hi):
            raise TableRangeError(
                f"frequency outside table range [{lo:g}, {hi:g}] Hz"
            )
        logv = np.interp(np.log(f), np.log(self.frequencies), np.log(self.values))
        return np.exp(logv)


@dataclass(frozen=True, eq=False)
class Tabulated:
    """Stage defined by measured or simulated magnitude-squared samples."""

    table: ResponseTable

    def magsq(self, f):
        return self.table.interpolate(f)


ComponentResponse = Union[
    FlatGain,
    FirstOrderLowPass,
    RationalPoleZero,
    LaserSecondOrder,
    GaussianLowPass,
    BeamSquintSinc,
    Tabulated,
]

@dataclass(frozen=True)
class NoiseSpectrum(_Checked):
    """Receiver output noise PSD with one uplift zero and roll-off poles.

        S_N(f) = floor * (1 + f^2/uplift_zero^2)
                       * prod(1 + f^2/extra_zero^2)
                       / prod(1 + f^2/rolloff_pole^2)

    ``uplift_zero`` marks where amplifier noise starts to be boosted; it
    may be omitted for a white floor.  ``extra_zeros`` carries any copy of
    the receiver's own response riding on the noise (the amplifier shapes
    its noise with the same roll-off it applies to the signal), so that
    the copy is represented explicitly and cancels against the receiver
    stage when the chain is reduced.
    """

    floor: float
    uplift_zero: float | None = None
    rolloff_poles: tuple[float, ...] = ()
    extra_zeros: tuple[float, ...] = ()

    def psd(self, f):
        uplift = () if self.uplift_zero is None else (self.uplift_zero,)
        return _polezero(self.floor, uplift + self.extra_zeros, self.rolloff_poles, f)


@dataclass(frozen=True, eq=False)
class LinkChain:
    """Ordered cascade of component stages over one noise spectrum."""

    stages: tuple[ComponentResponse, ...]
    noise: NoiseSpectrum

    def __post_init__(self):
        stages = tuple(self.stages)
        if not stages:
            raise ValueError("chain needs at least one stage")
        object.__setattr__(self, "stages", stages)


@dataclass(frozen=True)
class MagSqPoleZeroGnr(_Checked):
    """Canonical spectral GNR: gnr0 * prod(1+f^2/fz^2) / prod(1+f^2/fp^2).

    Corner lists are stored sorted ascending.  Instances are hashable and
    callable; ``model(f)`` evaluates the linear GNR at f (scalar or array).
    """

    gnr0: float
    zeros: tuple[float, ...] = ()
    poles: tuple[float, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "zeros", tuple(sorted(self.zeros)))
        object.__setattr__(self, "poles", tuple(sorted(self.poles)))

    def __call__(self, f):
        return _polezero(self.gnr0, self.zeros, self.poles, f)


# ---------------------------------------------------------------------------
# operations


def eval_noise_psd(noise: NoiseSpectrum, f):
    """Noise PSD in V^2/Hz at frequency f."""
    return noise.psd(f)


def gnr_eval(chain: LinkChain, f):
    """Spectral GNR of the chain: product of stage |H|^2 over noise PSD."""
    out = chain_magsq(chain, f) / chain.noise.psd(f)
    return out if np.ndim(out) else float(out)


def chain_magsq(chain: LinkChain, f):
    """Product of stage magnitude-squared responses, without the noise."""
    f = _as_f(f)
    out = 1.0 + 0.0 * np.asarray(f, dtype=float)
    for stage in chain.stages:
        out = out * stage.magsq(f)
    return out if np.ndim(out) else float(out)


def _cancel_pairs(zeros: list[float], poles: list[float]) -> tuple[list[float], list[float]]:
    """Remove pole/zero pairs equal to within CANCEL_RTOL (sorted merge)."""
    zs = sorted(zeros)
    ps = sorted(poles)
    keep_z: list[float] = []
    keep_p: list[float] = []
    i = j = 0
    while i < len(zs) and j < len(ps):
        fz, fp = zs[i], ps[j]
        if abs(fz - fp) <= CANCEL_RTOL * max(fz, fp):
            i += 1
            j += 1
        elif fz < fp:
            keep_z.append(fz)
            i += 1
        else:
            keep_p.append(fp)
            j += 1
    keep_z.extend(zs[i:])
    keep_p.extend(ps[j:])
    return keep_z, keep_p


def reduce_to_polezero(chain: LinkChain) -> MagSqPoleZeroGnr:
    """Collapse a chain of rational stages into the canonical GNR form.

    Each stage's ``polezero`` enters directly, its squared gain into gnr0
    and its zeros and poles as they are; the noise floor divides the DC gain,
    noise zeros become GNR poles and noise poles become GNR zeros.
    Exactly-equal pole/zero pairs (relative tolerance 1e-9) cancel, which
    reproduces the analytic cancellation of a receiver response that also
    shapes its own noise.  A gnr0 that is not a positive finite float is refused.
    """
    zeros: list[float] = []
    poles: list[float] = []
    gnr0 = 1.0
    for stage in chain.stages:
        if not isinstance(stage, _PoleZeroStage):
            raise NotReducibleError(
                f"stage {type(stage).__name__} has no exact pole-zero form; "
                "not reducible; use the fit module to approximate it"
            )
        gain, stage_zeros, stage_poles = stage.polezero
        gnr0 *= _square(gain)
        zeros.extend(stage_zeros)
        poles.extend(stage_poles)
    noise = chain.noise
    gnr0 /= noise.floor
    if not 0.0 < gnr0 < math.inf:  # nan is 0 * inf
        fault = {0.0: "underflows to 0", math.inf: "overflows to inf"}.get(
            gnr0, "has a factor that underflows to 0 and one that overflows to inf")
        raise ValueError(f"gnr0, the product of the squared stage gains over the noise floor, {fault}")
    if noise.uplift_zero is not None:
        poles.append(noise.uplift_zero)
    poles.extend(noise.extra_zeros)
    zeros.extend(noise.rolloff_poles)
    zeros, poles = _cancel_pairs(zeros, poles)
    return MagSqPoleZeroGnr(gnr0=gnr0, zeros=tuple(zeros), poles=tuple(poles))


# A rise of d(log GNR)/d(f^2) up to this fraction of its summed terms'
# magnitudes counts as flat: it absorbs rounding, and a slope that merely
# touches zero does not end a decreasing range.
RISE_RTOL = 1e-12


def _product_poly(c2: list[float]) -> tuple[list[float], list[float]]:
    """prod(u + c) over c2 and its derivative, highest power first, same length."""
    q = [1.0]
    for c in c2:
        q = [a + c * b for a, b in zip(q + [0.0], [0.0] + q)]
    n = len(q) - 1
    return q, [0.0] + [a * (n - i) for i, a in enumerate(q[:-1])]


def _rise(z2: list[float], p2: list[float], u: float) -> tuple[float, float]:
    """pos - RISE_RTOL*mag for d(log GNR)/du at u, and its derivative in u."""
    tz = [1.0 / (c + u) for c in z2]
    tp = [1.0 / (c + u) for c in p2]
    h = (1.0 - RISE_RTOL) * sum(tz) - (1.0 + RISE_RTOL) * sum(tp)
    dh = (1.0 + RISE_RTOL) * sum(t * t for t in tp) - (1.0 - RISE_RTOL) * sum(t * t for t in tz)
    return h, dh


@lru_cache(maxsize=512)
def monotone_limit(g: MagSqPoleZeroGnr) -> float:
    """Largest f such that GNR is non-increasing on (0, f]; inf if it never rises.

    With u = f^2, d(log GNR)/du = pos(u) = sum_m 1/(fz_m^2+u) - sum_n
    1/(fp_n^2+u), and mag(u) is the same sum with every term added.  The
    GNR rises where pos > RISE_RTOL*mag.  Over the common denominator that
    difference has the sign of the polynomial

        (1 - RISE_RTOL) Qz'(u) Qp(u) - (1 + RISE_RTOL) Qz(u) Qp'(u),

    Qz and Qp being prod(fz_m^2+u) and prod(fp_n^2+u), of degree <= M+N-1.
    The real parts of its roots with positive real part split u >= 0 into
    intervals of constant sign (a spurious split point only makes them
    finer); one probe inside each interval finds the first rising one, and
    Newton steps on the sum form polish its left end, since the polynomial
    coefficients carry the cancellation of near pole-zero pairs.  Corners
    are scaled by the largest one to keep the coefficients in range.
    """
    scale = max(g.zeros + g.poles, default=1.0)
    z2 = [(fz / scale) ** 2 for fz in g.zeros]
    p2 = [(fp / scale) ** 2 for fp in g.poles]
    qz, dqz = _product_poly(z2)
    qp, dqp = _product_poly(p2)
    roots = np.roots(
        (1.0 - RISE_RTOL) * np.convolve(dqz, qp) - (1.0 + RISE_RTOL) * np.convolve(qz, dqp)
    )
    edges = [0.0] + sorted(r.real for r in roots if r.real > 0.0)
    probes = [0.5 * (a + b) for a, b in zip(edges, edges[1:])] + [2.0 * edges[-1] + 1.0]
    k = next((i for i, u in enumerate(probes) if _rise(z2, p2, u)[0] > 0.0), None)
    if k is None:
        return math.inf
    if k == 0:
        return 0.0
    lo, hi, u = probes[k - 1], probes[k], edges[k]
    for _ in range(4):
        h, dh = _rise(z2, p2, u)
        step = u - h / dh
        if not lo < step < hi:
            break
        u = step
    return scale * math.sqrt(u)


@lru_cache(maxsize=512)
def is_monotone_decreasing(g: MagSqPoleZeroGnr, f_hi: float) -> bool:
    """True iff GNR(f) is non-increasing on (0, f_hi], i.e. f_hi <= monotone_limit(g)."""
    f_hi = _check_positive("f_hi", f_hi)
    return f_hi <= monotone_limit(g)


# ---------------------------------------------------------------------------
# channel-chain JSON interface

_STAGE_KINDS: dict[str, type] = {cls.__name__: cls for cls in get_args(ComponentResponse)}


def _stage_params(stage) -> dict:
    if isinstance(stage, Tabulated):
        return {"rows": [[f, v] for f, v in stage.table.rows]}
    out = {}
    for fld in fields(stage):
        value = getattr(stage, fld.name)
        out[fld.name] = list(value) if isinstance(value, tuple) else value
    return out


def _object(path: str, obj) -> dict:
    if not isinstance(obj, dict):
        raise ChannelFormatError(f"{path}: must be an object, got {obj!r}")
    return obj


def _json_number(where: str, value, count: bool = False) -> None:
    fault = _fault(value, count)
    if fault:
        raise ChannelFormatError(f"{where}: {fault}")


def _from_params(cls: type, obj, path: str):
    """Build a stage or noise spectrum from its JSON params object.

    Checked here: an object, no unknown or missing key, a list for a
    list-typed field; every number goes through ``_fault``, the classes'
    own rule, and is reported at its JSON path.
    """
    params = _object(path, obj)
    known = {fld.name: fld for fld in fields(cls)}
    for key in params:
        if key not in known:
            raise ChannelFormatError(
                f"{path}.{key}: unknown parameter of {cls.__name__}; "
                f"expected one of {sorted(known)}"
            )
    for name, fld in known.items():
        where = f"{path}.{name}"
        if name not in params:
            if fld.default is MISSING:
                raise ChannelFormatError(f"{where}: missing")
            continue
        value = params[name]
        if fld.type.startswith("tuple"):
            if not isinstance(value, (list, tuple)):
                raise ChannelFormatError(f"{where}: must be a list of numbers, got {value!r}")
            for j, v in enumerate(value):
                _json_number(f"{where}[{j}]", v)
        elif value is not None or "None" not in fld.type:
            _json_number(where, value, count=fld.type == "int")
    return cls(**params)  # the class's rule is the one just applied


def _tabulated_from_params(obj, path: str) -> Tabulated:
    params = _object(path, obj)
    for key in params:
        if key != "rows":
            raise ChannelFormatError(f"{path}.{key}: unknown parameter of Tabulated; expected ['rows']")
    rows = params.get("rows")
    if not isinstance(rows, (list, tuple)):
        raise ChannelFormatError(f"{path}.rows: must be a list of [frequency_hz, value] rows, got {rows!r}")
    for j, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != 2:
            raise ChannelFormatError(f"{path}.rows[{j}]: must be a [frequency_hz, value] pair, got {row!r}")
        _json_number(f"{path}.rows[{j}][0]", row[0])
        _json_number(f"{path}.rows[{j}][1]", row[1])
    try:
        return Tabulated(table=ResponseTable.from_rows(rows))
    except ValueError as exc:
        raise ChannelFormatError(f"{path}.rows: {exc}") from exc


def _stage_from_dict(obj, path: str) -> ComponentResponse:
    entry = _object(path, obj)
    kind = entry.get("kind")
    cls = _STAGE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ChannelFormatError(
            f"{path}.kind: unknown stage kind {kind!r}; expected one of {sorted(_STAGE_KINDS)}"
        )
    params = entry.get("params", {})
    if cls is Tabulated:
        return _tabulated_from_params(params, f"{path}.params")
    return _from_params(cls, params, f"{path}.params")


def chain_to_dict(chain: LinkChain) -> dict:
    """The JSON document of a chain; the noise object omits unset optional fields."""
    return {
        "stages": [
            {"kind": type(stage).__name__, "params": _stage_params(stage)}
            for stage in chain.stages
        ],
        "noise": {k: v for k, v in _stage_params(chain.noise).items() if v not in (None, [])},
    }


def chain_from_dict(obj: dict) -> LinkChain:
    """Build a chain from its JSON document.

    Malformed documents raise ``ChannelFormatError``, whose message starts
    with the JSON path of the offending entry, e.g. ``stages[0].params.corner``.
    """
    doc = _object("channel", obj)
    for key in ("stages", "noise"):
        if key not in doc:
            raise ChannelFormatError(f"{key}: missing from the channel document")
    if not isinstance(doc["stages"], (list, tuple)) or not doc["stages"]:
        raise ChannelFormatError(f"stages: must be a non-empty list, got {doc['stages']!r}")
    stages = tuple(_stage_from_dict(s, f"stages[{i}]") for i, s in enumerate(doc["stages"]))
    noise = _from_params(NoiseSpectrum, doc["noise"], "noise")
    return LinkChain(stages=stages, noise=noise)


def save_chain(chain: LinkChain, path) -> None:
    Path(path).write_text(json.dumps(chain_to_dict(chain), indent=2) + "\n")


def _read_text(path) -> str:
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ChannelFormatError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None


def load_chain(path) -> LinkChain:
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ChannelFormatError(
            f"{path}: not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    return chain_from_dict(doc)


# ---------------------------------------------------------------------------
# CSV files: an optional "# key=value ..." line, a header row, numeric rows


def _cells(values) -> list[str]:
    """One column's text: integers (bools included) as integers, strings as
    they are and every other value as ``repr(float(x))``, by the kind of the
    column's first value."""
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    if not values or isinstance(values[0], str):
        return values
    if isinstance(values[0], (int, np.integer)):
        return list(map(str, map(int, values)))
    return list(map(repr, map(float, values)))


def _write_csv(path, header, columns, meta: dict | None = None) -> None:
    """Write the ``# key=value ...`` line (when ``meta`` is given), header and rows.

    ``columns`` holds one sequence or array per header name, each formatted
    by ``_cells``, so floats read back exactly.  Lines end in LF.  With
    ``path`` None the text goes to stdout.
    """
    lines = []
    if meta is not None:
        lines.append("# " + " ".join(f"{key}={_cells([v])[0]}" for key, v in meta.items()))
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*map(_cells, columns))))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _read_csv(path, header=None, meta=None, columns=None):
    """Parse a ``_write_csv`` file into (meta values, column names, float rows).

    ``header`` lists the expected column names (None accepts any header);
    ``meta`` maps each key the ``#`` line must carry to its parser; ``columns``
    gives one cell parser per column (default ``float``), whose ValueError
    marks a non-number and whose OverflowError says what is out of range.
    Blank lines are skipped.  Every fault raises ``ChannelFormatError`` naming
    the file and, for a row, its line number (the first line is 1).
    """
    lines = _read_text(path).splitlines()
    comment = ""
    if lines and lines[0].startswith("#"):
        comment, lines[0] = lines[0][1:], ""  # a blank line keeps the numbering
    found = dict(kv.split("=", 1) for kv in comment.split() if "=" in kv)
    values = {}
    for key, parse in (meta or {}).items():
        if key not in found:
            raise ChannelFormatError(f"{path}: the # line has no {key}=")
        try:
            values[key] = parse(found[key])
        except ValueError:
            raise ChannelFormatError(f"{path}: # {key}={found[key]!r} is not valid") from None
    reader = csv.reader(lines)
    names = None
    rows = []
    try:
        for cells in reader:
            where = f"{path}: row {reader.line_num}"
            if not cells:
                continue
            if names is None:
                names = [c.strip() for c in cells]
                if header is not None and names != header:
                    raise ChannelFormatError(
                        f"{path}: expected header {','.join(header)!r}, got {','.join(cells)!r}"
                    )
                parsers = columns or [float] * len(names)
                continue
            if len(cells) != len(names):
                raise ChannelFormatError(
                    f"{where}: expected {len(names)} columns, got {len(cells)}: {cells!r}"
                )
            try:
                rows.append([parse(c) for parse, c in zip(parsers, cells)])
            except ValueError:
                raise ChannelFormatError(f"{where}: cells must be numbers, got {cells!r}") from None
            except OverflowError as exc:
                raise ChannelFormatError(f"{where}: {exc}") from None
    except csv.Error as exc:
        raise ChannelFormatError(f"{path}: row {reader.line_num}: {exc}") from None
    if names is None:
        raise ChannelFormatError(f"{path}: no header row")
    return values, names, np.array(rows, dtype=float).reshape(len(rows), len(names))


_TABLE_HEADER = ["frequency_hz", "value"]


def _db_to_linear(text: str) -> float:
    try:
        return 10.0 ** (float(text) / 10.0)
    except OverflowError:
        raise OverflowError(f"{text} dB is out of range") from None


def read_response_table(path, *, values_in_db: bool = False) -> ResponseTable:
    """Read a two-column CSV ``frequency_hz,value`` (header row required).

    With ``values_in_db`` the value column is 10*log10 of the stored
    quantity and is converted to linear before validation.  A malformed
    file raises ``ChannelFormatError`` naming the file and, for a bad data
    row, its row number.
    """
    _, _, rows = _read_csv(
        path, _TABLE_HEADER, columns=(float, _db_to_linear if values_in_db else float)
    )
    try:
        return ResponseTable(frequencies=rows[:, 0], values=rows[:, 1])
    except ValueError as exc:
        raise ChannelFormatError(f"{path}: {exc}") from exc


def write_response_table(table: ResponseTable, path) -> None:
    _write_csv(path, _TABLE_HEADER, (table.frequencies, table.values))
