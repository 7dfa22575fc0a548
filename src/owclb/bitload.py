"""Greedy per-subcarrier integer bit loading (Hughes-Hartogs style).

The greedy grants the cheapest next bit until the budget runs out.  A
subcarrier's next bit costs Delta_B * Gamma * 2^b / GNR(f_k), which
doubles with every bit, so the greedy grants the (subcarrier, bit)
increments in the order of one stable sort by (cost, subcarrier) and stops
at the first one whose running sum exceeds the budget (cf. Campello,
"Practical bit loading for DMT", ICC 1999).  All three loaders run on the
``waterfill.SubcarrierGrid`` that ``newton_fmax`` also solves on, so a
command samples its channel once:

``hh_sorted_prefix`` gives the total bits the greedy grants for each of a
whole batch of budgets; the CLI uses it for the ``rate-curve`` power sweep.
A count needs only the sorted cost values and their running sums, not
which subcarrier each bit goes to, so it sorts the values alone.
``hh_naive`` and ``hh_accelerated`` load for one budget.  They take the
same sort of values and count, n grants, and then build the grant order
of only those n: every increment cheaper than the n-th smallest cost, then
the lowest-numbered ones that cost exactly that, stably sorted by cost.
Both report the FLOPs and search rounds of the two
Hughes-Hartogs searches the paper compares: a scan of all K subcarriers
per round, and a search of a lookup table of block heads, one per
populated bit level.  The table search is exact only on
monotone channels, where subcarriers carrying equal bit counts form
contiguous blocks, so ``hh_accelerated`` refuses a grid whose GNR rises.
Both give the same bits on any grid they accept.  The CLI uses
``hh_accelerated`` for ``optimize-hh`` and ``compare`` and ``hh_naive`` for
``optimize-hh --naive`` and as the reference in ``compare``.

Power bookkeeping uses the closed form

    sigma2_k = Delta_B * Gamma * (2^b(k) - 1) / GNR(f_k)

rather than accumulated increments.  ``BitLoadPlan.total_power`` is the
plain left-to-right sum of these per-subcarrier terms in subcarrier order.

FLOP counting convention (used by both searches), computed from the grant
order rather than counted in a loop: every floating-point add, multiply,
divide, comparison and exponentiation-by-squaring step counts as one
FLOP; table lookups and index bookkeeping are free.  Concretely:
marginal-power setup costs K + 1 (one multiply for Delta_B*Gamma, one
divide per subcarrier); each search round costs (candidates - 1)
comparisons, plus 2 for the budget check (one add, one compare) when a
finite candidate is left; each accepted bit costs 6 (marginal doubling,
closed-form power refresh, running-total add).  L grants take L + 1
rounds, the last one rejecting.  The scan has K candidates per round, the
table one per populated level below the cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linkchain import ChannelFormatError, _read_csv, _write_csv
from .waterfill import SubcarrierGrid, _gamma_value

DEFAULT_BIT_CAP = 12

_SETUP_FLOPS_PER_K = 1
_LOAD_FLOPS = 6
_BUDGET_CHECK_FLOPS = 2


@dataclass(frozen=True, eq=False)
class BitLoadPlan:
    """Result of one bit-loading run.

    ``bits`` and ``power_k`` are indexed 0..K-1 for subcarriers 1..K.
    ``rate`` is delta_b * sum(bits) in bit/s.  ``iterations`` counts
    search rounds including the final rejecting one; ``flops`` follows the
    convention documented in the module docstring.  ``hh_accelerated``
    sets ``group_table[b]`` to the lowest-index subcarrier (1-based)
    carrying exactly b bits, or 0 when none does; level 0 heads the still
    unloaded subcarriers.
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
    group_table: tuple[int, ...] | None = None


def _costs(grid: SubcarrierGrid, gamma: float, budgets, bit_cap: int):
    """The checked budgets and every (subcarrier, bit) increment's cost.

    Increments are numbered subcarrier-major, k * bit_cap + b for 0-based
    subcarrier k raised from b to b+1 bits, and each costs
    (delta_b*gamma/gnr_k) * 2^b: one multiply, one divide and then exact
    doublings.  A cost past the largest float is inf, as in scalar code.
    """
    budgets = np.atleast_1d(np.asarray(budgets, dtype=float))
    bad = budgets[~(budgets >= 0.0)]  # NaN too; inf loads every carrier to the cap
    if bad.size:
        raise ValueError(f"sigma2_budget must be >= 0, got {float(bad[0])!r}")
    with np.errstate(over="ignore"):
        marginal = grid.delta_b * gamma / grid.gnr_k
        return budgets, (marginal[:, None] * 2.0 ** np.arange(bit_cap)).ravel()


def _sorted_counts(grid: SubcarrierGrid, gamma: float, budgets, bit_cap: int):
    """Every increment's cost (numbered as in ``_costs``), how many of the
    costs are finite, and how many increments each budget affords.

    The greedy grants in ascending cost order, so each budget's count needs
    only the sorted cost values, not which increment each one is: equal
    costs are indistinguishable.  ``np.cumsum`` adds in the greedy's order,
    so every partial sum is bit-identical to the greedy's running total.
    Costs that overflow to infinity are never granted, and a zero budget
    loads nothing, even a zero-cost bit.
    """
    budgets, costs = _costs(grid, gamma, budgets, bit_cap)
    values = np.sort(costs)
    finite = int(values.searchsorted(np.inf))  # no cost is NaN
    with np.errstate(over="ignore"):
        loaded = np.searchsorted(np.cumsum(values[:finite]), budgets, side="right")
    loaded[budgets == 0.0] = 0
    return costs, values, finite, loaded


def _greedy(grid: SubcarrierGrid, gamma: float, sigma2_budget, bit_cap: int):
    """The increments (numbered as in ``_costs``) the greedy grants for one
    budget, in grant order, and how many increments are finite.

    The greedy grants in the order of a stable sort by (cost, increment)
    and stops at the first grant whose running sum exceeds the budget.  Its
    first n grants are therefore every increment cheaper than c, the n-th
    smallest cost, and then the lowest-numbered increments that cost
    exactly c until n are taken.  Only those n are put in order, by a
    stable sort of their costs taken in increment order.
    """
    costs, values, finite, loaded = _sorted_counts(grid, gamma, sigma2_budget, bit_cap)
    n = int(loaded[0])
    if n == 0:
        return np.zeros(0, dtype=np.intp), finite
    cut = values[n - 1]
    chosen = np.flatnonzero(costs <= cut)
    if chosen.size > n:  # drop the highest-numbered increments that cost exactly cut
        at_cut = costs[chosen] == cut
        chosen = chosen[~at_cut | (np.cumsum(at_cut) <= n - (chosen.size - int(at_cut.sum())))]
    return chosen[np.argsort(costs[chosen], kind="stable")], finite


def _table_search_flops(old_levels: np.ndarray, K: int, bit_cap: int) -> int:
    """Comparisons the lookup-table search makes over every round.

    A round compares the heads of the populated levels below the cap, so
    it costs their count minus one; it sees at least one unless every
    carrier sits at the cap.  Grant i moves a carrier from level
    ``old_levels[i]`` to the next one, so the departures from level b-1
    are the arrivals at level b, and all K carriers arrive at level 0 at
    index -1.  A level holds a carrier from its first arrival on, except
    after its j-th departure until its (j+1)-th arrival, or until the last
    round L (the grant count) when no arrival is left.  All levels are
    counted in one pass over the grants grouped by level.
    """
    L = old_levels.size
    # grant indices by old level, ascending within a level (levels fit a
    # small integer type, which numpy sorts stably by radix)
    by_level = np.argsort(old_levels.astype(np.min_scalar_type(bit_cap)), kind="stable")
    level = old_levels[by_level]
    # group b of ``arrivals`` holds the arrivals at level b, and starts at
    # bounds[b]: the K at -1 for level 0, then the departures from b-1
    arrivals = np.concatenate((np.full(K, -1), by_level))
    bounds = np.concatenate(([0], K + np.searchsorted(level, np.arange(bit_cap + 1))))
    lo, hi = bounds[level], bounds[level + 1]  # the arrivals at each departure's level
    nxt = lo + (K + np.arange(L) - hi) + 1  # departure j pairs with arrival j+1
    paired = np.where(nxt < hi, arrivals[np.minimum(nxt, K + L - 1)], L)
    gaps = int(np.maximum(paired - by_level, 0).sum())
    first = arrivals[bounds[1:-2][bounds[1:-2] < bounds[2:-1]]]  # of each level b >= 1 reached
    return int((L - first).sum()) - gaps + (L == K * bit_cap)


def _plan(grid, gamma, sigma2_budget, bits, finite_left, search_flops, algorithm, table=None):
    """A plan from its final bits, costed by the module's FLOP convention;
    the rejecting round checks the budget only if a finite bit is left."""
    flops = iterations = 0
    if sigma2_budget > 0.0:
        loads = int(np.sum(bits))
        flops = grid.K + _SETUP_FLOPS_PER_K + search_flops
        flops += (_BUDGET_CHECK_FLOPS + _LOAD_FLOPS) * loads
        flops += _BUDGET_CHECK_FLOPS * finite_left
        iterations = loads + 1
    power = np.zeros(grid.K, dtype=float)
    on = bits > 0  # unloaded carriers stay 0.0 even when delta_b*gamma overflows
    with np.errstate(over="ignore"):
        steps = 2.0 ** bits[on] - 1.0
        numer = grid.delta_b * gamma * steps
        # divide first only where the numerator overflows; finite powers keep their bits
        power[on] = np.where(
            np.isinf(numer), grid.delta_b * gamma / grid.gnr_k[on] * steps, numer / grid.gnr_k[on]
        )
        total = float(np.cumsum(power)[-1])  # adds in the documented, ascending-k order
    bits.flags.writeable = False
    power.flags.writeable = False
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
        sigma2_budget=float(sigma2_budget),
        group_table=table,
    )


def hh_naive(
    grid: SubcarrierGrid,
    gap,
    sigma2_budget: float,
    *,
    bit_cap: int = DEFAULT_BIT_CAP,
) -> BitLoadPlan:
    """Greedy loader, costed as a full scan of all K subcarriers per round.

    Ties in marginal power break toward the lowest subcarrier index.
    Stops when the cheapest next bit would exceed the budget (or every
    subcarrier sits at the bit cap).  A zero budget yields the all-zero
    plan at no cost.  Works on any grid.
    """
    gamma = _gamma_value(gap)
    grants, finite = _greedy(grid, gamma, sigma2_budget, bit_cap)
    loads = grants.size
    bits = np.bincount(grants // bit_cap, minlength=grid.K)
    search = (loads + 1) * (grid.K - 1)
    return _plan(grid, gamma, sigma2_budget, bits, loads < finite, search, "hh_naive")


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
) -> BitLoadPlan:
    """Greedy loader, costed as a lookup-table search, for monotone channels.

    Requires gnr_k non-increasing in k, which guarantees the grouping
    property: per bit level only the block head can be the cheapest
    candidate, so each round searches at most bit_cap entries instead of
    K.  Produces exactly the same bits and powers as ``hh_naive``, and
    ``group_table`` holds the block heads at the end.  Subcarriers that
    reach the bit cap leave the candidate set.
    """
    gamma = _gamma_value(gap)
    grants, finite = _greedy(grid, gamma, sigma2_budget, bit_cap)
    require_monotone_grid(grid)
    carrier, old_level = np.divmod(grants, bit_cap)
    bits = np.bincount(carrier, minlength=grid.K)
    search = _table_search_flops(old_level, grid.K, bit_cap)
    heads = np.zeros(bit_cap + 1, dtype=np.int64)
    held, first = np.unique(bits, return_index=True)
    heads[held] = first + 1  # 1-based first carrier holding exactly b bits
    table = tuple(heads.tolist())
    finite_left = grants.size < finite
    return _plan(grid, gamma, sigma2_budget, bits, finite_left, search, "hh_accelerated", table)


def hh_sorted_prefix(
    grid: SubcarrierGrid,
    gap,
    budgets,
    *,
    bit_cap: int = DEFAULT_BIT_CAP,
) -> np.ndarray:
    """Total bits the greedy grants for each budget in a batch, on any grid,
    monotone or not; each equals ``hh_naive``'s bit count for that budget.

    The count needs the ascending cost values, not the grant order, so one
    plain sort of the costs serves every budget (``_sorted_counts``).
    """
    return _sorted_counts(grid, _gamma_value(gap), budgets, bit_cap)[3]


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
    columns = (range(1, plan.grid.K + 1), plan.grid.f_k, plan.bits, plan.power_k)
    _write_csv(path, _PLAN_HEADER, columns, dict(zip(_PLAN_META, scalars)))


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
