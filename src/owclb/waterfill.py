"""Continuous-spectrum throughput optimization over a low-pass GNR.

Under a total-power constraint the optimal transmit PSD is the classic
waterfilling shape S(f) = [v - Gamma/GNR(f)]^+.  For a monotonically
decreasing GNR the continuous water level is pinned by the highest
occupied frequency, v = Gamma/GNR(f_max), which collapses the
optimization to a one-dimensional search over f_max:

* ``sigma2_of_fmax``   total signal power as a function of f_max, by
                       fixed Gauss-Legendre on octave panels
* ``rate_closed_form`` throughput in bit/s, closed form in f_max; the gap
                       cancels out of it, so it takes none; a number or
                       an array of f_max, checked in one pass, and a
                       rate past the float range is refused
* ``dsigma2_dfmax``    analytic derivative of the power w.r.t. f_max
* ``SubcarrierGrid``   the DCO-OFDM subcarriers f_k = k * Delta_B with the
                       GNR sampled once on them; the Newton search, the
                       exact water level and the bit loaders in
                       ``bitload`` all run on it
* ``newton_fmax``      grid-snapped Newton search for f_max given a budget,
                       one bracketed loop over the grid's power curve that
                       takes the curve's exact count once Newton is unusable,
                       then ``waterlevel_solve``'s exact water level
* ``waterlevel_solve`` exact water level for arbitrary (also
                       non-monotone) GNR samples on the grid's equal
                       Delta_B cells, with island reporting
* ``waterlevel_sweep`` ``waterlevel_solve``'s rate for a batch of budgets
                       on any grid (the ``rate-curve`` power sweep)

All three read one core (``_levels``): each budget's count on the power
curve of the cells in stable-sorted cost order, and the level's rate over
those cells; they give the same rate bits on any grid.

When the GNR is flat the f_max parameterization degenerates (S is zero
for every f_max); ``waterlevel_solve`` is the designated path for flat or
non-monotone channels.

Newton stop rule: the textbook "the update no longer crosses a subcarrier
boundary with the power within budget" mixes a grid quantity with a
continuous one, so the search iterates until the snapped index n is
pinned between a within-budget point of the power curve (``_power_curve``,
nondecreasing in floating point) and its over-budget successor; once
Newton is unusable it takes the curve's count of values within budget,
the one index the bracket can end at.  It then ends at the exact level
over the stably sorted cells (on a nondecreasing Gamma/GNR_k, those n
cells), which spends the rest of the budget: w_n <= v < w_(n+1).
``iterations`` counts Newton attempts.

All power budgets are signal variances in V^2.  Every ``gap`` argument is
the modulation gap Gamma as a plain linear number >= 1, 10**(dB/10).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .linkchain import (
    _FLOAT_MAX,
    MagSqPoleZeroGnr,
    _check_positive,
    _is_integer,
    _read_csv,
    _write_csv,
    is_monotone_decreasing,
    monotone_limit,
)

_LN2 = math.log(2.0)


class NonMonotoneGnrError(ValueError):
    """Operation requires a monotonically decreasing GNR."""


def _gamma_value(gap) -> float:
    """The linear modulation gap Gamma as a float: a real number other than
    bool (as ``_fault`` reads a number), finite and >= 1."""
    if isinstance(gap, numbers.Real) and not isinstance(gap, bool) and 1.0 <= gap <= _FLOAT_MAX:
        return float(gap)
    raise ValueError(f"modulation gap must be >= 1 linear, got {gap!r}")


@dataclass(frozen=True, eq=False)
class WaterfillSolution:
    """Optimal PSD description returned by the spectrum solvers.

    ``psd`` holds samples of S_opt on the ``f_hz`` grid (V^2/Hz), ``gnr``
    the matching linear GNR samples.  ``island`` lists (f_lo, f_hi)
    intervals below f_max where complementary slackness forces S = 0.
    """

    f_max: float
    water_level: float
    f_hz: np.ndarray
    psd: np.ndarray
    gnr: np.ndarray
    sigma2: float
    rate: float
    island: tuple[tuple[float, float], ...] = ()
    saturated: bool = False
    iterations: int = 0


def _require_monotone(g: MagSqPoleZeroGnr, f_hi: float, op: str) -> None:
    if not is_monotone_decreasing(g, f_hi):
        raise NonMonotoneGnrError(
            f"{op} requires GNR non-increasing up to {f_hi:g} Hz; "
            "use waterlevel_solve for non-monotone channels"
        )


def _gnr_at_fmax(g: MagSqPoleZeroGnr, gamma: float, f_max: float) -> tuple[float, float]:
    """GNR(f_max) and the water level Gamma/GNR(f_max) it pins.

    Refused before anything uses them unless the GNR is > 0 and the level
    finite: a subnormal GNR passes the first test but overflows the level.
    """
    gnr = float(g(f_max))
    if not gnr > 0.0:
        raise ValueError(f"GNR at f_max={f_max:g} Hz is {gnr!r}, not > 0 (underflow)")
    level = gamma / gnr
    if not math.isfinite(level):
        raise ValueError(f"Gamma/GNR at f_max={f_max:g} Hz overflows: GNR is {gnr!r}")
    return gnr, level


# ---------------------------------------------------------------------------
# transmit power integral

# sigma2(F) = F*W(F) - int_0^F W df with W = Gamma/GNR is computed as
# W(F) * int_0^F -expm1(L(f)) df, where L = log(W(f)/W(F)) <= 0 is summed
# term by term through log1p, so nothing cancels.  W(f)/W(F) is rational
# in f with poles only at +-i*fz.  On the octave panels [F/2^(i+1), F/2^i]
# down to the lowest zero corner, and one panel [0, edge] below them, those
# poles lie outside a Bernstein ellipse with rho >= 4.6, so fixed 20-node
# Gauss-Legendre leaves only rounding error, for any corner layout.


def _gauss_legendre(n: int):
    """Nodes and weights on [-1, 1] from the Jacobi matrix (Golub-Welsch)."""
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return nodes, 2.0 * vecs[0] ** 2


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(20)


def sigma2_of_fmax(g: MagSqPoleZeroGnr, gap, f_max: float) -> float:
    """Transmit power f_max*Gamma/GNR(f_max) - int_0^f_max Gamma/GNR df.

    One path for every model: 20-node Gauss-Legendre on octave panels of
    W(f_max) - W(f), evaluated as W(f_max) * -expm1(log(W(f)/W(f_max))).
    A power that is no finite float is refused with ``ValueError``.
    """
    gamma = _gamma_value(gap)
    if f_max == 0.0:
        return 0.0
    f_max = _check_positive("f_max", f_max)
    _require_monotone(g, f_max, "sigma2_of_fmax")
    edges, lowest_zero = [f_max], min(g.zeros, default=f_max)
    while edges[-1] > lowest_zero:
        edges.append(0.5 * edges[-1])
    hi = np.array(edges)[:, None]
    lo = np.append(hi[1:], 0.0)[:, None]
    half = 0.5 * (hi - lo)
    f = 0.5 * (hi + lo) + half * _GL_NODES
    r = f / f_max  # (F^2 - f^2) / (c^2 + f^2) in units of F: no 0/0 far below 1 Hz
    dist = (1.0 - r) * (1.0 + r)
    log_ratio = np.zeros_like(f)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for fz in g.zeros:
            log_ratio += _log1p_ratio(dist, fz / f_max, r)
        for fp in g.poles:
            log_ratio -= _log1p_ratio(dist, fp / f_max, r)
        integral = np.sum(half * _GL_WEIGHTS * -np.expm1(log_ratio))
        sigma2 = float(_gnr_at_fmax(g, gamma, f_max)[1] * integral)
    if not math.isfinite(sigma2):
        raise ValueError(f"sigma2 at f_max={f_max:g} Hz is not finite in floating point")
    return sigma2


def _log1p_ratio(dist: np.ndarray, c: float, r: np.ndarray) -> np.ndarray:
    """log1p(dist / (c^2 + r^2)), as log(dist) - 2 log(hypot(c, r)) where the ratio overflows."""
    ratio = dist / (np.square(c) + r * r)
    out, over = np.log1p(ratio), np.isinf(ratio)
    out[over] = np.log(dist[over]) - 2.0 * np.log(np.hypot(c, r[over]))
    return out


def dsigma2_dfmax(g: MagSqPoleZeroGnr, gap, f_max: float) -> float:
    """Analytic d(sigma2)/d(f_max); strictly positive for decreasing GNR.

    A term 1/(corner^2 + f_max^2) whose denominator underflows to 0 is
    past the float range, +inf, so the derivative is then inf or nan, which
    ``newton_fmax`` takes as an unusable step.
    """
    gamma = _gamma_value(gap)
    f_max = _check_positive("f_max", f_max)
    bracket = 0.0
    u = f_max * f_max
    for fp in g.poles:
        d = fp * fp + u
        bracket += 1.0 / d if d else math.inf
    for fz in g.zeros:
        d = fz * fz + u
        bracket -= 1.0 / d if d else math.inf
    return 2.0 * gamma * u * bracket / _gnr_at_fmax(g, gamma, f_max)[0]


def rate_closed_form(g: MagSqPoleZeroGnr, f_max):
    """Waterfilling-optimal throughput in bit/s for the given f_max.

        R = (2/ln 2) * [ (N-M) f_max
                         + sum_m fz_m atan(f_max/fz_m)
                         - sum_n fp_n atan(f_max/fp_n) ]

    The modulation gap and gnr0 cancel out of the optimal rate, so the
    result depends only on the corner frequencies and no gap is taken.

    ``f_max`` may also be a 1-D array of frequencies (an f_max sweep); a
    number is checked by ``_check_positive`` (0 passes) and taken as a
    one-point array, whose rate comes back as a float.  The points are
    checked at once, with one monotone check at the largest point; the
    first point that is not finite and >= 0, or lies above
    ``monotone_limit(g)``, is refused, and so is the first rate that passes
    the float range.
    """
    scalar = not np.ndim(f_max)
    if scalar and f_max != 0.0:
        f_max = _check_positive("f_max", f_max)
    points = np.array(f_max, dtype=float, ndmin=1)
    if points.ndim != 1:
        raise ValueError(f"f_max must be a number or a 1-D array, got shape {points.shape}")
    finite = np.isfinite(points) & (points >= 0.0)
    top = float(points.max(initial=0.0))
    if not (finite.all() and (top == 0.0 or is_monotone_decreasing(g, top))):
        first = float(points[np.argmax(~finite | (points > monotone_limit(g)))])
        _check_positive("f_max", first)
        _require_monotone(g, first, "rate_closed_form")
    rates = _closed_form(g, points)
    rates[points == 0.0] = 0.0
    over = np.flatnonzero(~np.isfinite(rates))
    if over.size:
        raise ValueError(f"rate at f_max={points[over[0]]:g} Hz passes the float range")
    return float(rates[0]) if scalar else rates


def _closed_form(g: MagSqPoleZeroGnr, f: np.ndarray) -> np.ndarray:
    """``rate_closed_form``'s sum at each point, term by term in the scalar
    order: zeros first, then poles, each arctangent from ``math.atan``.  A
    ratio f/corner past the float range is inf, whose arctangent pi/2 is the
    exact limit, and a sum past it is inf, both without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = (len(g.poles) - len(g.zeros)) * f
        for fz in g.zeros:
            total += fz * np.array(list(map(math.atan, (f / fz).tolist())))
        for fp in g.poles:
            total -= fp * np.array(list(map(math.atan, (f / fp).tolist())))
        return (2.0 / _LN2) * total


# ---------------------------------------------------------------------------
# Newton search on the subcarrier grid


def _check_size(K: int, f_chip: float) -> float:
    """Refuse a K that is not a positive integer; f_chip as a positive finite float."""
    if not (_is_integer(K) and K >= 1):
        raise ValueError(f"K must be a positive integer, got {K!r}")
    return _check_positive("f_chip", f_chip)


@dataclass(frozen=True, eq=False)
class SubcarrierGrid:
    """K subcarriers at f_k = k * delta_b, k = 1..K, with GNR samples."""

    K: int
    f_chip: float
    gnr_k: np.ndarray
    delta_b: float = field(init=False)  # f_chip / K

    def __post_init__(self):
        _check_size(self.K, self.f_chip)
        gnr = np.asarray(self.gnr_k, dtype=float)
        if gnr.shape != (self.K,):
            raise ValueError(f"gnr_k must have length K={self.K}")
        if np.any(~np.isfinite(gnr)) or np.any(gnr <= 0.0):
            raise ValueError("gnr_k entries must be positive and finite")
        gnr.flags.writeable = False
        object.__setattr__(self, "gnr_k", gnr)
        object.__setattr__(self, "delta_b", float(self.f_chip / self.K))

    @property
    def f_k(self) -> np.ndarray:
        return self.delta_b * np.arange(1, self.K + 1)

    @classmethod
    def from_model(cls, g, K: int, f_chip: float) -> "SubcarrierGrid":
        """Sample a GNR function of an array of frequencies on the grid."""
        f_chip = _check_size(K, f_chip)
        return cls(K=K, f_chip=f_chip, gnr_k=g(f_chip / K * np.arange(1, K + 1)))


def _gamma_over_gnr(grid: SubcarrierGrid, gamma: float) -> np.ndarray:
    """Gamma/GNR_k per subcarrier; the first one that overflows is refused."""
    with np.errstate(over="ignore"):
        w = gamma / grid.gnr_k
    over = np.flatnonzero(np.isinf(w))
    if over.size:
        k = int(over[0]) + 1
        raise ValueError(
            f"Gamma/GNR at subcarrier k={k} overflows: GNR is {float(grid.gnr_k[k - 1])!r}"
        )
    return w


def _check_budget(sigma2_budget: float) -> None:
    if not math.isfinite(sigma2_budget) or sigma2_budget <= 0.0:
        raise ValueError(f"sigma2_budget must be > 0, got {float(sigma2_budget)!r}")


def _power_curve(w: np.ndarray, delta: float) -> np.ndarray:
    """The discrete power curve of the cell costs w, in their order.

    power[n-1] fills the first n cells up to w_n: power(1) = 0 and
    power(n+1) = power(n) + Delta_B * n * max(0, w_n+1 - w_n).  A running
    sum of nonnegative terms, it is nondecreasing in floating point; a
    tail that overflows is +inf, above every finite budget.
    """
    with np.errstate(over="ignore"):
        steps = delta * np.arange(1, w.size) * np.maximum(0.0, np.diff(w))
        return np.concatenate(([0.0], np.cumsum(steps)))


# The most terms one elementwise pass of _exact_rates holds, unless a single
# budget loads more: 8192 doubles keep each temporary at 64 KiB, in cache,
# and the memory a sweep takes O(K) for any number of budgets.
_SWEEP_PASS = 8192


def _exact_rates(w: np.ndarray, gnr: np.ndarray, gamma: float, delta: float, n, budgets):
    """Per budget, the exact level's lift above w_(n), the n cheapest cells
    active (``w``, ``gnr`` in nondecreasing cost), and its rate.  With
    power(n) = Delta_B * sum_i max(0, w_(n) - w_(i)) summed pairwise, lift =
    (budget - power(n)) / n / Delta_B and, as log2(v / w_(i)) = log2(w_(n) /
    w_(i)) + log2(1 + lift / w_(n)), rate = Delta_B * [sum_i log2(1 + max(0,
    w_(n) - w_(i)) GNR_(i) / Gamma) + n log2(1 + lift / w_(n))], with log2 of
    its parts where 1 + x overflows.  ``_SWEEP_PASS // K`` budgets a pass."""
    sums = []
    run = max(1, _SWEEP_PASS // w.size)
    for start in range(0, n.size, run):
        batch = n[start : start + run].tolist()
        t = np.empty((2, sum(batch)))
        depth, terms = t
        top = np.repeat(w[n[start : start + run] - 1], batch)
        np.maximum(0.0, top - np.concatenate([w[:c] for c in batch]), out=depth)
        np.multiply(depth, np.concatenate([gnr[:c] for c in batch]), out=terms)
        np.log2(terms / gamma + 1.0, out=terms)
        end = 0
        for c in batch:  # each row the same pairwise sum as np.sum, bit for bit
            sums.append(t[:, end : end + c].sum(axis=1))
            end += c
    spent, pinned = np.array(sums).T
    power, top = delta * spent, w[n - 1]
    with np.errstate(over="ignore"):
        lift = (budgets - power) / n / delta
        part = np.log2(1.0 + lift / top)
    over = np.flatnonzero(np.isinf(part))
    if over.size:
        part[over] = (np.log2(budgets[over] - power[over]) - np.log2(n[over])
                      - math.log2(delta) - np.log2(top[over]))
    return lift, delta * (pinned + n * part)


def _levels(grid: SubcarrierGrid, gamma: float, w: np.ndarray, order, budgets: np.ndarray):
    """Per budget, the count n of power curve values within it of the
    grid's cells taken in ``order``, nondecreasing cost w, and the exact
    level's lift and rate with the first n active (``_exact_rates``)."""
    w, gnr, delta = w[order], grid.gnr_k[order], grid.delta_b
    n = np.searchsorted(_power_curve(w, delta), budgets, "right")  # power[0] = 0 < b, so n >= 1
    return (n, *_exact_rates(w, gnr, gamma, delta, n, budgets))


def _finish(grid: SubcarrierGrid, gamma: float, w: np.ndarray, order, budget: float):
    """(level, psd, sigma2, rate) of the exact water level over the grid's
    cells taken in ``order``, nondecreasing cost w: ``_levels``' level,
    rounded down until Delta_B * sum_k S_k <= budget, S_k = max(0, v - w_k)
    on its active cells.  A level or power past the float range is refused."""
    delta = grid.delta_b
    n, lift, rate = _levels(grid, gamma, w, order, np.array([budget]))
    cells = order[: int(n[0])]
    v = float(w[cells[-1]]) + float(lift[0])
    psd = np.zeros(grid.K)
    while True:
        psd[cells] = np.maximum(0.0, v - w[cells])
        sigma2 = delta * float(np.sum(psd))
        if not (math.isfinite(v) and math.isfinite(sigma2)):
            raise ValueError(f"water level overflows: budget {budget:g} V^2 "
                             f"over {cells.size} cells of {delta:g} Hz")
        if sigma2 <= budget:
            return v, psd, sigma2, float(rate[0])
        v = math.nextafter(v, -math.inf)


def _nearest_index(f: float, delta: float, k_max: int) -> int:
    """Nearest grid index to f, ties broken toward the lower index."""
    kf = f / delta
    lo = math.floor(kf)
    k = lo if (kf - lo) <= 0.5 else lo + 1
    return min(max(k, 1), k_max)


# Newton attempts before the search takes the power curve's exact count.
_NEWTON_MAX_ITERS = 100


def newton_fmax(
    g: MagSqPoleZeroGnr, gap, sigma2_budget: float, grid: SubcarrierGrid
) -> WaterfillSolution:
    """Find the grid-snapped f_max whose waterfilling PSD meets the budget.

    ``grid`` holds g sampled on the K subcarriers, whose power curve
    (``_power_curve``) the search reads; g gives the monotone check and the
    derivative.  One bracketed loop over the subcarrier index: ``lo`` is feasible (the
    curve's power(lo), with f_max at subcarrier lo, is within budget;
    power(1) = 0) and ``hi`` is not.  Each round probes one index strictly
    between them and moves ``lo`` or ``hi`` to it.  The probe is a Newton
    update of the continuous power curve from the last probe (starting at
    f_chip), snapped to the nearest subcarrier k*Delta_B (ties toward the
    lower index) and clamped into the bracket.  Once Newton is unusable (a
    non-finite or non-positive derivative, a non-finite step, or
    ``_NEWTON_MAX_ITERS`` attempts), lo is the curve's count of values
    within budget, the one index the bracket can end at, and the loop
    stops.  ``iterations`` counts Newton attempts, a failed one included.
    A budget larger than the full-band power saturates at f_chip (flagged
    on the returned solution).  On the curve, power(lo) <= budget and one
    more grid step would exceed it.  ``f_max``, ``saturated`` and
    ``iterations`` come from that bracket.  The PSD, level and rate are
    ``_finish``'s exact level over the stable cost order (sigma2 <=
    budget), ``waterlevel_solve``'s bit for bit: on a grid whose
    Gamma/GNR_k falls by an ulp in places, as the monotone check's
    tolerance allows, that is not the subcarrier order.
    """
    gamma = _gamma_value(gap)
    K, delta = grid.K, grid.delta_b
    if K < 2:
        raise ValueError(f"K must be an integer >= 2, got {K!r}")
    _check_budget(sigma2_budget)
    _require_monotone(g, grid.f_chip, "newton_fmax")
    w_k = _gamma_over_gnr(grid, gamma)
    power = _power_curve(w_k, delta)
    lo, hi = 1, K
    f_cur, p_cur = grid.f_chip, float(power[K - 1])
    if p_cur <= sigma2_budget:
        lo = K
    iters = 0
    while hi - lo > 1:
        f_next = math.nan
        if iters < _NEWTON_MAX_ITERS:
            iters += 1
            deriv = dsigma2_dfmax(g, gamma, f_cur)
            if 0.0 < deriv < math.inf:
                f_next = f_cur - (p_cur - sigma2_budget) / deriv
        if not math.isfinite(f_next):
            lo = int(np.searchsorted(power, sigma2_budget, "right"))
            break
        ks = min(max(_nearest_index(f_next, delta, K), lo + 1), hi - 1)
        p_cur = float(power[ks - 1])
        if p_cur <= sigma2_budget:
            lo = ks
        else:
            hi = ks
        f_cur = ks * delta
    level, psd, sigma2, rate = _finish(grid, gamma, w_k, np.argsort(w_k, kind="stable"),
                                       sigma2_budget)
    return WaterfillSolution(f_max=float(grid.f_k[lo - 1]), water_level=level, f_hz=grid.f_k,
                             psd=psd, gnr=grid.gnr_k, sigma2=sigma2, rate=rate,
                             saturated=lo == K, iterations=iters)


# ---------------------------------------------------------------------------
# exact water level (general GNR shapes)


def waterlevel_solve(grid: SubcarrierGrid, gap, sigma2_budget: float) -> WaterfillSolution:
    """Solve the water level exactly so the allocated power meets the budget.

    ``grid`` holds the GNR sampled on K equal cells of width Delta_B; no
    monotonicity is assumed.  With w = Gamma/GNR sorted (stably), the j
    cheapest cells are active (Palomar & Fonollosa, IEEE TSP 2005), j the
    count of the sorted w's power curve values within budget, and
    ``_finish`` spends the rest evenly over them: S_k = max(0, v - w_k),
    v = w_(j) + (budget - power(j)) / j / Delta_B, Delta_B * sum_k S_k <=
    budget.  On a nondecreasing w this is ``newton_fmax``'s solution, bit
    for bit.  Zero-power intervals below f_max are reported as islands.
    """
    gamma = _gamma_value(gap)
    _check_budget(sigma2_budget)
    delta = grid.delta_b
    w = _gamma_over_gnr(grid, gamma)
    level, psd, sigma2, rate = _finish(grid, gamma, w, np.argsort(w, kind="stable"), sigma2_budget)
    active = np.flatnonzero(psd)
    if active.size == 0:
        raise RuntimeError("no active frequencies at the water level: budget too small")
    last = int(active[-1])
    # runs of zero power below f_max: [start, stop) between the mask's edges,
    # reported as the frequencies of subcarriers start+1 and stop
    edges = np.flatnonzero(np.diff(np.concatenate(([0], psd[:last] == 0.0, [0])))).tolist()
    islands = tuple((delta * (a + 1), delta * b) for a, b in zip(edges[::2], edges[1::2]))
    return WaterfillSolution(f_max=float(grid.f_k[last]), water_level=level, f_hz=grid.f_k,
                             psd=psd, gnr=grid.gnr_k, sigma2=sigma2, rate=rate, island=islands)


def waterlevel_sweep(grid: SubcarrierGrid, gap, budgets):
    """``(n_active, rates)``: per budget, the cells the exact level loads
    and ``waterlevel_solve``'s rate, on any grid, from one stable sort of
    the costs.  On a nondecreasing Gamma/GNR_k, n_active * Delta_B and the
    rate are ``newton_fmax``'s f_max and rate."""
    gamma = _gamma_value(gap)
    budgets = np.array(budgets, dtype=float, ndmin=1)
    for b in budgets.tolist():
        _check_budget(b)
    w = _gamma_over_gnr(grid, gamma)
    n, _, rates = _levels(grid, gamma, w, np.argsort(w, kind="stable"), budgets)
    return n, rates


# ---------------------------------------------------------------------------
# CSV interface

_SOLUTION_HEADER = ["f_hz", "psd_v2_per_hz", "gnr_linear"]


def _parse_islands(text: str) -> tuple[tuple[float, float], ...]:
    return tuple(
        (float(a), float(b)) for a, b in (pair.split(":") for pair in text.split(";") if pair)
    )


_SOLUTION_META = {
    "f_max_hz": float,
    "water_level_v2_per_hz": float,
    "sigma2_v2": float,
    "rate_bit_s": float,
    "saturated": lambda text: bool(int(text)),
    "iterations": int,
    "island": _parse_islands,
}


def write_solution_csv(sol: WaterfillSolution, path) -> None:
    """Serialize a solution: one comment line with the scalars, then rows."""
    island = ";".join(f"{repr(a)}:{repr(b)}" for a, b in sol.island)
    scalars = (sol.f_max, sol.water_level, sol.sigma2, sol.rate, sol.saturated,
               sol.iterations, island)
    columns = (sol.f_hz, sol.psd, sol.gnr)
    _write_csv(path, _SOLUTION_HEADER, columns, dict(zip(_SOLUTION_META, scalars)))


def read_solution_csv(path) -> WaterfillSolution:
    meta, _, rows = _read_csv(path, _SOLUTION_HEADER, _SOLUTION_META)
    return WaterfillSolution(
        f_max=meta["f_max_hz"],
        water_level=meta["water_level_v2_per_hz"],
        f_hz=rows[:, 0],
        psd=rows[:, 1],
        gnr=rows[:, 2],
        sigma2=meta["sigma2_v2"],
        rate=meta["rate_bit_s"],
        island=meta["island"],
        saturated=meta["saturated"],
        iterations=meta["iterations"],
    )
