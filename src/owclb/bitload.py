"""Greedy per-subcarrier integer bit loading (Hughes-Hartogs style).

``hh_naive`` scans every subcarrier each round for the cheapest next bit.
``hh_accelerated`` exploits the grouping property of monotone channels —
subcarriers carrying equal bit counts form contiguous blocks — to search
only a lookup table of block heads, one per populated bit level, instead
of all K subcarriers.  Both produce identical allocations on monotone
grids; only the instrumented work differs.

``hh_sorted_prefix`` loads for a whole batch of budgets at once: greedy
loading grants the longest prefix of all (subcarrier, bit) increments,
sorted stably by (cost, subcarrier), whose running sum fits the budget.
One sort serves every budget, and the allocations equal ``hh_naive``'s
bit for bit on any grid.  The CLI uses ``hh_sorted_prefix`` for the
``rate-curve`` power sweep, ``hh_accelerated`` for ``optimize-hh`` and
``compare`` (whose outputs report its FLOPs and iterations), and
``hh_naive`` for ``optimize-hh --naive`` and as the reference in
``compare``.

Power bookkeeping uses the closed form

    sigma2_k = Delta_B * Gamma * (2^b(k) - 1) / GNR(f_k)

rather than accumulated increments, so the two algorithms cannot drift
apart in floating point.  ``BitLoadPlan.total_power`` is the plain
left-to-right sum of these per-subcarrier terms in subcarrier order.

FLOP counting convention (used by both algorithms and by ``flop_report``):
every floating-point add, multiply, divide, comparison and
exponentiation-by-squaring step counts as one FLOP; table lookups and
index bookkeeping are free.  Concretely: marginal-power setup costs
K + 1 (one multiply for Delta_B*Gamma, one divide per subcarrier); each
search round costs (candidates - 1) comparisons plus 2 for the budget
check (one add, one compare); each accepted bit costs 6 (marginal
doubling, closed-form power refresh, running-total add).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linkchain import ChannelFormatError, _check_positive, _read_csv, _write_csv
from .waterfill import _gamma_value

DEFAULT_BIT_CAP = 12

_SETUP_FLOPS_PER_K = 1
_LOAD_FLOPS = 6
_BUDGET_CHECK_FLOPS = 2


@dataclass(frozen=True, eq=False)
class SubcarrierGrid:
    """K subcarriers at f_k = k * delta_b, k = 1..K, with GNR samples."""

    K: int
    f_chip: float
    gnr_k: np.ndarray
    delta_b: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.K, int) and self.K >= 1):
            raise ValueError(f"K must be a positive integer, got {self.K!r}")
        _check_positive("f_chip", self.f_chip)
        delta = self.delta_b if self.delta_b else self.f_chip / self.K
        if abs(delta * self.K - self.f_chip) > 1e-9 * self.f_chip:
            raise ValueError("delta_b * K must equal f_chip")
        gnr = np.asarray(self.gnr_k, dtype=float)
        if gnr.shape != (self.K,):
            raise ValueError(f"gnr_k must have length K={self.K}")
        if np.any(~np.isfinite(gnr)) or np.any(gnr <= 0.0):
            raise ValueError("gnr_k entries must be positive and finite")
        gnr.flags.writeable = False
        object.__setattr__(self, "gnr_k", gnr)
        object.__setattr__(self, "delta_b", float(delta))

    @property
    def f_k(self) -> np.ndarray:
        return self.delta_b * np.arange(1, self.K + 1)

    @classmethod
    def from_model(cls, g, K: int, f_chip: float) -> "SubcarrierGrid":
        """Sample any frequency -> GNR callable on the subcarrier grid."""
        delta = f_chip / K
        freqs = delta * np.arange(1, K + 1)
        gnr = np.asarray(g(freqs), dtype=float)
        if gnr.shape != freqs.shape:
            gnr = np.array([float(g(f)) for f in freqs])
        return cls(K=K, f_chip=float(f_chip), gnr_k=gnr)

    def is_monotone_nonincreasing(self) -> bool:
        g = self.gnr_k
        return bool(np.all(g[1:] <= g[:-1] * (1.0 + 1e-12)))


@dataclass(frozen=True)
class GroupTable:
    """Dense lookup table: levels[b] is the lowest-index subcarrier
    (1-based) carrying exactly b bits, or 0 when no subcarrier does.
    Level 0 tracks the first still-unloaded subcarrier."""

    levels: tuple[int, ...]

    @property
    def bit_cap(self) -> int:
        return len(self.levels) - 1

    def lookup(self, b: int) -> int:
        return self.levels[b]


@dataclass(frozen=True, eq=False)
class BitLoadPlan:
    """Result of one bit-loading run.

    ``bits`` and ``power_k`` are indexed 0..K-1 for subcarriers 1..K.
    ``rate`` is delta_b * sum(bits) in bit/s.  ``iterations`` counts
    search rounds including the final rejecting one; ``flops`` follows the
    convention documented in the module docstring.
    """

    bits: np.ndarray
    power_k: np.ndarray
    total_power: float
    rate: float
    flops: int
    iterations: int
    algorithm: str
    grid: SubcarrierGrid
    gamma: float
    sigma2_budget: float
    group_table: GroupTable | None = None


def marginal_power(grid: SubcarrierGrid, gap, k: int, b_current: int) -> float:
    """Power needed to raise subcarrier k (1-based) from b to b+1 bits:
    Delta_B * Gamma * 2^b / GNR(f_k)."""
    gamma = _gamma_value(gap)
    if not 1 <= k <= grid.K:
        raise ValueError(f"k must be in 1..{grid.K}, got {k}")
    if b_current < 0:
        raise ValueError("b_current must be >= 0")
    return grid.delta_b * gamma * 2.0**b_current / float(grid.gnr_k[k - 1])


class _LoadState:
    """Shared bookkeeping for both greedy variants (identical arithmetic)."""

    def __init__(self, grid: SubcarrierGrid, gamma: float):
        self.grid = grid
        self.gamma = gamma
        self.bits = np.zeros(grid.K, dtype=np.int64)
        self.power = np.zeros(grid.K, dtype=float)
        self.marginal = np.empty(grid.K, dtype=float)
        base = grid.delta_b * gamma
        self.marginal[:] = base / grid.gnr_k
        self.running = 0.0
        self.flops = grid.K + _SETUP_FLOPS_PER_K

    def load(self, idx: int) -> None:
        """Grant one bit to 0-based subcarrier idx."""
        m = float(self.marginal[idx])
        self.running += m
        self.bits[idx] += 1
        b = int(self.bits[idx])
        self.power[idx] = (
            self.grid.delta_b * self.gamma * (2.0**b - 1.0) / float(self.grid.gnr_k[idx])
        )
        self.marginal[idx] = 2.0 * m
        self.flops += _LOAD_FLOPS


def _finish(
    state: _LoadState | None,
    grid: SubcarrierGrid,
    gamma: float,
    budget: float,
    flops: int,
    iterations: int,
    algorithm: str,
    table: GroupTable | None,
) -> BitLoadPlan:
    if state is None:
        bits = np.zeros(grid.K, dtype=np.int64)
        power = np.zeros(grid.K, dtype=float)
    else:
        bits, power = state.bits, state.power
    bits.flags.writeable = False
    power.flags.writeable = False
    total = 0.0
    for p in power.tolist():  # documented order: ascending subcarrier index
        total += p
    return BitLoadPlan(
        bits=bits,
        power_k=power,
        total_power=total,
        rate=grid.delta_b * float(np.sum(bits)),
        flops=flops,
        iterations=iterations,
        algorithm=algorithm,
        grid=grid,
        gamma=gamma,
        sigma2_budget=float(budget),
        group_table=table,
    )


def hh_naive(
    grid: SubcarrierGrid,
    gap,
    sigma2_budget: float,
    *,
    bit_cap: int = DEFAULT_BIT_CAP,
    on_load=None,
) -> BitLoadPlan:
    """Reference greedy loader: full scan of all K subcarriers per round.

    Ties in marginal power break toward the lowest subcarrier index.
    Stops when the cheapest next bit would exceed the budget (or every
    subcarrier sits at the bit cap).  A non-positive budget yields the
    all-zero plan at setup cost only.
    """
    gamma = _gamma_value(gap)
    if not sigma2_budget >= 0.0:  # NaN too; inf loads every carrier to the cap
        raise ValueError(f"sigma2_budget must be >= 0, got {sigma2_budget!r}")
    if sigma2_budget == 0.0:
        return _finish(None, grid, gamma, 0.0, 0, 0, "hh_naive", None)

    state = _LoadState(grid, gamma)
    iterations = 0
    while True:
        iterations += 1
        candidates = np.where(state.bits < bit_cap, state.marginal, np.inf)
        idx = int(np.argmin(candidates))  # first minimum = lowest index
        state.flops += grid.K - 1
        if not np.isfinite(candidates[idx]):
            break
        state.flops += _BUDGET_CHECK_FLOPS
        if state.running + candidates[idx] > sigma2_budget:
            break
        state.load(idx)
        if on_load is not None:
            on_load(idx + 1, state.bits)
    return _finish(state, grid, gamma, sigma2_budget, state.flops, iterations, "hh_naive", None)


def require_monotone_grid(grid: SubcarrierGrid) -> None:
    """Refuse a grid whose GNR rises somewhere, as ``hh_accelerated`` does."""
    if not grid.is_monotone_nonincreasing():
        raise ValueError(
            "hh_accelerated requires gnr_k non-increasing in k; "
            "sort the grid or use hh_naive"
        )


def hh_accelerated(
    grid: SubcarrierGrid,
    gap,
    sigma2_budget: float,
    *,
    bit_cap: int = DEFAULT_BIT_CAP,
    on_load=None,
) -> BitLoadPlan:
    """Lookup-table-accelerated greedy loader for monotone channels.

    Requires gnr_k non-increasing in k, which guarantees the grouping
    property: per bit level only the block head can be the cheapest
    candidate, so each round searches at most bit_cap entries instead of
    K.  Produces exactly the same bits and powers as ``hh_naive``.
    Subcarriers that reach the bit cap leave the candidate set.
    """
    gamma = _gamma_value(gap)
    if not sigma2_budget >= 0.0:  # NaN too; inf loads every carrier to the cap
        raise ValueError(f"sigma2_budget must be >= 0, got {sigma2_budget!r}")
    require_monotone_grid(grid)
    if sigma2_budget == 0.0:
        empty = GroupTable(tuple([1] + [0] * bit_cap))  # level 0 heads the grid
        return _finish(None, grid, gamma, 0.0, 0, 0, "hh_accelerated", empty)

    state = _LoadState(grid, gamma)
    levels = [0] * (bit_cap + 1)
    levels[0] = 1
    iterations = 0
    while True:
        iterations += 1
        # Scan populated levels from highest b to lowest so candidates come
        # out in ascending subcarrier order; strict < keeps ties on the
        # lowest index, matching the naive scan.
        best_k = 0
        best_m = math.inf
        n_candidates = 0
        for b in range(bit_cap - 1, -1, -1):
            head = levels[b]
            if head == 0:
                continue
            n_candidates += 1
            m = float(state.marginal[head - 1])
            if m < best_m:
                best_m = m
                best_k = head
        if n_candidates:
            state.flops += n_candidates - 1
        if best_k == 0:
            break
        state.flops += _BUDGET_CHECK_FLOPS
        if state.running + best_m > sigma2_budget:
            break

        idx = best_k - 1
        b_old = int(state.bits[idx])
        state.load(idx)
        b_new = b_old + 1
        if levels[b_new] == 0:
            levels[b_new] = best_k  # new bit level
        if best_k < grid.K and int(state.bits[idx + 1]) == b_old:
            levels[b_old] = best_k + 1  # shift old level to the successor
        else:
            levels[b_old] = 0  # old level emptied
        if on_load is not None:
            on_load(best_k, state.bits)
    return _finish(
        state,
        grid,
        gamma,
        sigma2_budget,
        state.flops,
        iterations,
        "hh_accelerated",
        GroupTable(tuple(levels)),
    )


@dataclass(frozen=True, eq=False)
class PrefixSweep:
    """Greedy loading for a batch of budgets, from one sorted increment list.

    ``order`` holds the 0-based subcarrier of every affordable (subcarrier,
    bit) increment in the order the greedy grants them; ``loaded[i]`` is
    how many of them fit the i-th budget.
    """

    grid: SubcarrierGrid
    order: np.ndarray
    loaded: np.ndarray

    @property
    def rates(self) -> np.ndarray:
        """delta_b * total bits per budget, in bit/s."""
        return self.grid.delta_b * self.loaded.astype(float)

    def bits(self, i: int) -> np.ndarray:
        """Bits per subcarrier granted under the i-th budget."""
        return np.bincount(self.order[: self.loaded[i]], minlength=self.grid.K)


def hh_sorted_prefix(
    grid: SubcarrierGrid,
    gap,
    budgets,
    *,
    bit_cap: int = DEFAULT_BIT_CAP,
) -> PrefixSweep:
    """Greedy loading for every budget at once; equals ``hh_naive`` exactly.

    Each subcarrier's increment costs (delta_b*gamma/gnr_k) * 2^b double,
    so the greedy grants increments in the order of a stable sort by
    (cost, subcarrier), and it stops at the first one whose running sum
    exceeds the budget.  The costs use ``_LoadState``'s arithmetic (one
    multiply, one divide, then exact doublings) and ``np.cumsum`` adds in
    the greedy's order, so every partial sum is bit-identical to the
    greedy's running total.  Costs that overflow to infinity are never
    granted.  Works on any grid, monotone or not.
    """
    gamma = _gamma_value(gap)
    budgets = np.atleast_1d(np.asarray(budgets, dtype=float))
    if not np.all(budgets >= 0.0):
        raise ValueError(f"sigma2_budget must be >= 0, got {budgets[~(budgets >= 0.0)][0]!r}")
    marginal = grid.delta_b * gamma / grid.gnr_k
    costs = (marginal[:, None] * 2.0 ** np.arange(bit_cap)).ravel()  # subcarrier-major
    order = np.argsort(costs, kind="stable")
    sorted_costs = costs[order]
    finite = int(np.count_nonzero(np.isfinite(sorted_costs)))
    loaded = np.searchsorted(np.cumsum(sorted_costs[:finite]), budgets, side="right")
    loaded[budgets == 0.0] = 0  # a zero budget loads nothing, even a zero-cost bit
    return PrefixSweep(grid=grid, order=order[:finite] // bit_cap, loaded=loaded)


@dataclass(frozen=True)
class FlopComparison:
    """Instrumented-cost comparison of two plans from identical inputs.

    ``populated_levels`` counts the populated lookup-table entries of the
    accelerated plan at termination (the paper-symbol clash with the table
    itself is avoided on purpose).  See the module docstring for the
    counting convention.
    """

    flops_a: int
    flops_b: int
    algorithm_a: str
    algorithm_b: str
    iterations: int
    flops_saved: int
    savings_per_iteration: float
    populated_levels: int | None


def flop_report(plan_a: BitLoadPlan, plan_b: BitLoadPlan) -> FlopComparison:
    """Compare instrumented FLOPs of two plans built from identical inputs."""
    ga, gb = plan_a.grid, plan_b.grid
    same = (
        ga.K == gb.K
        and ga.f_chip == gb.f_chip
        and np.array_equal(ga.gnr_k, gb.gnr_k)
        and plan_a.gamma == plan_b.gamma
        and plan_a.sigma2_budget == plan_b.sigma2_budget
    )
    if not same:
        raise ValueError("plans were not produced on identical inputs")
    if not np.array_equal(plan_a.bits, plan_b.bits):
        raise ValueError("plans disagree on the allocation; inputs cannot match")
    table = plan_a.group_table or plan_b.group_table
    populated = sum(1 for v in table.levels if v != 0) if table is not None else None
    iterations = plan_a.iterations
    saved = plan_a.flops - plan_b.flops
    return FlopComparison(
        flops_a=plan_a.flops,
        flops_b=plan_b.flops,
        algorithm_a=plan_a.algorithm,
        algorithm_b=plan_b.algorithm,
        iterations=iterations,
        flops_saved=saved,
        savings_per_iteration=saved / iterations if iterations else 0.0,
        populated_levels=populated,
    )


# ---------------------------------------------------------------------------
# CSV interface

_PLAN_HEADER = ["k", "f_hz", "bits", "power_v2"]
_PLAN_META = {
    "total_power_v2": float,
    "rate_bit_s": float,
    "flops": int,
    "iterations": int,
    "algorithm": str,
    "budget_v2": float,
    "gamma_linear": float,
    "f_chip_hz": float,
}


def write_plan_csv(plan: BitLoadPlan, path) -> None:
    scalars = (plan.total_power, plan.rate, plan.flops, plan.iterations, plan.algorithm,
               plan.sigma2_budget, plan.gamma, plan.grid.f_chip)
    rows = zip(range(1, plan.grid.K + 1), plan.grid.f_k, plan.bits, plan.power_k)
    _write_csv(path, _PLAN_HEADER, rows, dict(zip(_PLAN_META, scalars)))


def read_plan_csv(path) -> dict:
    """Parse a plan CSV back into its metadata and per-subcarrier arrays."""
    meta, _, rows = _read_csv(path, _PLAN_HEADER, _PLAN_META)
    counts = rows[:, [0, 2]]
    if not np.all((counts == np.round(counts)) & (np.abs(counts) < 2.0**53)):
        raise ChannelFormatError(f"{path}: k and bits must be integers")
    return {
        **meta,
        "k": rows[:, 0].astype(np.int64),
        "f_hz": rows[:, 1],
        "bits": rows[:, 2].astype(np.int64),
        "power_v2": rows[:, 3],
    }
