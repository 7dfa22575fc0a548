"""Continuous-spectrum throughput optimization over a low-pass GNR.

Under a total-power constraint the optimal transmit PSD is the classic
waterfilling shape S(f) = [v - Gamma/GNR(f)]^+.  For a monotonically
decreasing GNR the water level is pinned by the highest occupied
frequency, v = Gamma/GNR(f_max), which collapses the optimization to a
one-dimensional search over f_max:

* ``psd_opt``          optimal PSD at one frequency for a given f_max
* ``sigma2_of_fmax``   total signal power as a function of f_max, by
                       fixed Gauss-Legendre on octave panels
* ``rate_closed_form`` throughput in bit/s, closed form in f_max
* ``dsigma2_dfmax``    analytic derivative of the power w.r.t. f_max
* ``SubcarrierGrid``   the DCO-OFDM subcarriers f_k = k * Delta_B with the
                       GNR sampled once on them; the Newton search, the
                       exact water level and the bit loaders in
                       ``bitload`` all run on it
* ``newton_fmax``      grid-snapped Newton search for f_max given a budget,
                       one bracketed loop that takes bracket midpoints
                       once Newton is unusable
* ``waterlevel_solve`` exact water level for arbitrary (also
                       non-monotone) GNR samples on the grid's equal
                       Delta_B cells, with island reporting

When the GNR is flat the f_max parameterization degenerates (S is zero
for every f_max); ``waterlevel_solve`` is the designated path for flat or
non-monotone channels.

Newton stop rule: the textbook formulation stops once the update no
longer moves the snapped frequency across a subcarrier boundary while the
accumulated discrete power stays within budget.  That mixes a grid
quantity with a continuous one, so it is interpreted here as: iterate
until the snapped index is pinned between a within-budget grid point and
its over-budget successor (a one-cell feasibility bracket).  Every probe,
Newton or midpoint, lies strictly inside the bracket, so the loop ends
with the exact contract: sigma2 <= budget, and loading one more grid step
would exceed it.  ``iterations`` counts Newton attempts only.

All power budgets are signal variances in V^2.  If the hardware power
draw is a nonlinear monotone function of the variance, invert it with
``sigma2_from_power`` first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linkchain import (
    MagSqPoleZeroGnr,
    _check_positive,
    _read_csv,
    _write_csv,
    is_monotone_decreasing,
)

_LN2 = math.log(2.0)


class NonMonotoneGnrError(ValueError):
    """Operation requires a monotonically decreasing GNR."""


@dataclass(frozen=True)
class ModulationGap:
    """SNR penalty factor (BER target, clipping, DC bias); >= 1 linear."""

    gamma_linear: float

    def __post_init__(self):
        _gamma_value(self.gamma_linear)

    @classmethod
    def from_db(cls, gamma_db: float) -> "ModulationGap":
        try:
            return cls(10.0 ** (float(gamma_db) / 10.0))
        except OverflowError:  # above about 3082 dB
            raise ValueError(f"modulation gap of {gamma_db!r} dB overflows a float") from None


def _gamma_value(gap) -> float:
    """The linear gap of a ``ModulationGap`` or a plain number; finite and >= 1."""
    gamma = float(getattr(gap, "gamma_linear", gap))
    if not math.isfinite(gamma) or gamma < 1.0:
        raise ValueError(f"modulation gap must be >= 1 linear, got {gamma!r}")
    return gamma


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


def _gnr_at_fmax(g: MagSqPoleZeroGnr, f_max: float):
    """GNR(f_max), refused before anything divides by it if it is not > 0."""
    gnr = g.evaluate(f_max)
    if not gnr > 0.0:
        raise ValueError(f"GNR at f_max={f_max:g} Hz is {float(gnr)!r}, not > 0 (underflow)")
    return gnr


def _inv_gnr(g: MagSqPoleZeroGnr, gamma: float, f_max: float):
    """Gamma / GNR(f_max), the water level that f_max pins."""
    return gamma / _gnr_at_fmax(g, f_max)


def psd_opt(g: MagSqPoleZeroGnr, gap, f_max: float, f) -> float:
    """Optimal PSD Gamma/GNR(f_max) - Gamma/GNR(f) for f < f_max, else 0.

    For a flat GNR this is identically zero (the f_max parameterization is
    degenerate there); use waterlevel_solve to spread a budget over a flat
    channel.
    """
    gamma = _gamma_value(gap)
    f_max = _check_positive("f_max", f_max)
    _require_monotone(g, f_max, "psd_opt")
    f_arr = np.asarray(f, dtype=float)
    level = _inv_gnr(g, gamma, f_max)
    s = np.where(f_arr < f_max, np.maximum(0.0, level - gamma / g.evaluate(f_arr)), 0.0)
    return s if f_arr.ndim else float(s)


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
    dist = (f_max - f) * (f_max + f)  # F^2 - f^2 without cancellation
    log_ratio = np.zeros_like(f)
    for fz in g.zeros:
        log_ratio += np.log1p(dist / (fz * fz + f * f))
    for fp in g.poles:
        log_ratio -= np.log1p(dist / (fp * fp + f * f))
    integral = np.sum(half * _GL_WEIGHTS * -np.expm1(log_ratio))
    return float(_inv_gnr(g, gamma, f_max) * integral)


def dsigma2_dfmax(g: MagSqPoleZeroGnr, gap, f_max: float) -> float:
    """Analytic d(sigma2)/d(f_max); strictly positive for decreasing GNR."""
    gamma = _gamma_value(gap)
    f_max = _check_positive("f_max", f_max)
    bracket = 0.0
    u = f_max * f_max
    for fp in g.poles:
        bracket += 1.0 / (fp * fp + u)
    for fz in g.zeros:
        bracket -= 1.0 / (fz * fz + u)
    return 2.0 * gamma * u * bracket / float(_gnr_at_fmax(g, f_max))


def rate_closed_form(g: MagSqPoleZeroGnr, gap, f_max: float) -> float:
    """Waterfilling-optimal throughput in bit/s for the given f_max.

        R = (2/ln 2) * [ (N-M) f_max
                         + sum_m fz_m atan(f_max/fz_m)
                         - sum_n fp_n atan(f_max/fp_n) ]

    The modulation gap and gnr0 cancel out of the optimal rate, so the
    result depends only on the corner frequencies; the ``gap`` argument is
    accepted for signature symmetry with the power expressions.
    """
    _gamma_value(gap)
    if f_max == 0.0:
        return 0.0
    f_max = _check_positive("f_max", f_max)
    _require_monotone(g, f_max, "rate_closed_form")
    total = (len(g.poles) - len(g.zeros)) * f_max
    for fz in g.zeros:
        total += fz * math.atan(f_max / fz)
    for fp in g.poles:
        total -= fp * math.atan(f_max / fp)
    return (2.0 / _LN2) * total


# ---------------------------------------------------------------------------
# Newton search on the subcarrier grid


@dataclass(frozen=True, eq=False)
class SubcarrierGrid:
    """K subcarriers at f_k = k * delta_b, k = 1..K, with GNR samples."""

    K: int
    f_chip: float
    gnr_k: np.ndarray
    delta_b: float = field(init=False)  # f_chip / K

    def __post_init__(self):
        if not (isinstance(self.K, int) and self.K >= 1):
            raise ValueError(f"K must be a positive integer, got {self.K!r}")
        _check_positive("f_chip", self.f_chip)
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
        delta = f_chip / K
        return cls(K=K, f_chip=float(f_chip), gnr_k=g(delta * np.arange(1, K + 1)))

    def is_monotone_nonincreasing(self) -> bool:
        g = self.gnr_k
        return bool(np.all(g[1:] <= g[:-1] * (1.0 + 1e-12)))


def _check_budget(sigma2_budget: float) -> None:
    if not math.isfinite(sigma2_budget) or sigma2_budget <= 0.0:
        raise ValueError(f"sigma2_budget must be > 0, got {float(sigma2_budget)!r}")


def _solution(
    grid: SubcarrierGrid, gamma: float, level: float, psd, n: int, sigma2: float, **extra
) -> WaterfillSolution:
    """The solution whose PSD loads the first n subcarriers of the grid."""
    f_k, gnr_k = grid.f_k, grid.gnr_k
    return WaterfillSolution(
        f_max=float(f_k[n - 1]),
        water_level=level,
        f_hz=f_k,
        psd=psd,
        gnr=gnr_k,
        sigma2=sigma2,
        rate=grid.delta_b * float(np.sum(np.log2(1.0 + psd[:n] * gnr_k[:n] / gamma))),
        **extra,
    )


def _nearest_index(f: float, delta: float, k_max: int) -> int:
    """Nearest grid index to f, ties broken toward the lower index."""
    kf = f / delta
    lo = math.floor(kf)
    k = lo if (kf - lo) <= 0.5 else lo + 1
    return min(max(k, 1), k_max)


# Newton attempts before every further round takes the bracket midpoint.
_NEWTON_MAX_ITERS = 100


def newton_fmax(
    g: MagSqPoleZeroGnr, gap, sigma2_budget: float, grid: SubcarrierGrid
) -> WaterfillSolution:
    """Find the grid-snapped f_max whose waterfilling PSD meets the budget.

    ``grid`` holds g sampled on the K subcarriers
    (``SubcarrierGrid.from_model(g, K, f_chip)``); the discrete power is
    summed over its samples, and g itself gives the monotonicity check and
    the derivative.

    One bracketed loop over the subcarrier index: ``lo`` is feasible (the
    discrete power Delta_B * sum_k max(0, S(f_k)) is within budget; it is
    0 at k = 1) and ``hi`` is not.  Each round probes one index strictly
    between them and moves ``lo`` or ``hi`` to it.  The probe is a Newton
    update of the continuous power curve from the last probe (starting at
    f_chip), snapped to the nearest subcarrier k*Delta_B (ties toward the
    lower index) and clamped into the bracket.  Once Newton is unusable (a
    non-finite or non-positive derivative, a non-finite step, or
    ``_NEWTON_MAX_ITERS`` attempts), every further round takes the bracket
    midpoint.  ``iterations`` counts Newton attempts, a failed one
    included, and not the midpoint rounds.  A budget larger than the
    full-band power saturates at f_chip (flagged on the returned solution).
    The loop ends with hi = lo + 1, so the exit contract holds: sigma2 <=
    budget, and loading one more grid step would exceed the budget.
    """
    gamma = _gamma_value(gap)
    K, delta, f_chip = grid.K, grid.delta_b, grid.f_chip
    if K < 2:
        raise ValueError(f"K must be an integer >= 2, got {K!r}")
    _check_budget(sigma2_budget)
    _require_monotone(g, f_chip, "newton_fmax")

    w_k = gamma / grid.gnr_k

    def power(ks: int) -> float:
        return delta * float(np.sum(np.maximum(0.0, w_k[ks - 1] - w_k[:ks])))

    lo, p_lo, hi = 1, 0.0, K
    f_cur, p_cur = f_chip, power(K)
    saturated = bool(p_cur <= sigma2_budget)
    if saturated:
        lo, p_lo = K, p_cur
    iters, newton = 0, True
    while hi - lo > 1:
        ks = (lo + hi) // 2
        if newton and iters < _NEWTON_MAX_ITERS:
            iters += 1
            deriv = dsigma2_dfmax(g, gamma, f_cur)
            usable = 0.0 < deriv < math.inf
            f_next = f_cur - (p_cur - sigma2_budget) / deriv if usable else math.nan
            newton = math.isfinite(f_next)
            if newton:
                ks = min(max(_nearest_index(f_next, delta, K), lo + 1), hi - 1)
        p_cur = power(ks)
        if p_cur <= sigma2_budget:
            lo, p_lo = ks, p_cur
        else:
            hi = ks
        f_cur = ks * delta

    level = float(w_k[lo - 1])
    psd = np.maximum(0.0, level - w_k)
    psd[lo:] = 0.0
    return _solution(grid, gamma, level, psd, lo, p_lo, saturated=saturated, iterations=iters)


# ---------------------------------------------------------------------------
# exact water level (general GNR shapes)


def waterlevel_solve(grid: SubcarrierGrid, gap, sigma2_budget: float) -> WaterfillSolution:
    """Solve the water level exactly so the allocated power meets the budget.

    ``grid`` holds the GNR sampled on the K subcarriers; no monotonicity is
    assumed.  The PSD is S_k = max(0, v - Gamma/GNR_k) on K equal cells of
    width Delta_B, so power and rate are the same discrete sums
    ``newton_fmax`` takes.  The level comes from the active set (Palomar &
    Fonollosa, IEEE TSP 2005): with w = Gamma/GNR sorted,
    v_j = (budget/Delta_B + w_(1) + ... + w_(j)) / j over the j cheapest
    cells, at the largest j with v_j > w_(j).  Zero-power intervals below
    f_max are reported as islands.
    """
    gamma = _gamma_value(gap)
    _check_budget(sigma2_budget)
    delta = grid.delta_b
    w = gamma / grid.gnr_k

    w_sorted = np.sort(w)
    levels = (sigma2_budget / delta + np.cumsum(w_sorted)) / np.arange(1, grid.K + 1)
    lifted = np.flatnonzero(levels > w_sorted)
    if lifted.size == 0:
        raise RuntimeError("no active frequencies at the water level: budget too small")
    v = float(levels[lifted[-1]])

    psd = np.maximum(0.0, v - w)
    last = int(np.flatnonzero(psd)[-1])
    # runs of zero power below f_max: [start, stop) between the mask's edges,
    # reported as the frequencies of subcarriers start+1 and stop
    edges = np.flatnonzero(np.diff(np.concatenate(([0], psd[:last] == 0.0, [0])))).tolist()
    islands = tuple((delta * (a + 1), delta * b) for a, b in zip(edges[::2], edges[1::2]))
    sigma2 = delta * float(np.sum(psd))
    return _solution(grid, gamma, v, psd, last + 1, sigma2, island=islands)


def sigma2_from_power(power_budget: float, power_map=None) -> float:
    """Invert a monotone power-draw map P_T = g(sigma2) to a variance budget.

    The identity map is the default (budgets already are variances).  Any
    strictly increasing callable works; the inverse is found by bracketed
    bisection.
    """
    if power_map is None:
        return float(power_budget)
    if power_budget <= 0.0:
        raise ValueError("power_budget must be > 0")
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if power_map(hi) >= power_budget:
            break
        hi *= 2.0
    else:
        raise ValueError("power_map never reaches the requested budget")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if power_map(mid) < power_budget:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    rows = zip(sol.f_hz, sol.psd, sol.gnr)
    _write_csv(path, _SOLUTION_HEADER, rows, dict(zip(_SOLUTION_META, scalars)))


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
