"""Independent numeric oracles: brute-force and multiprecision quadrature,
finite differences, exhaustive enumeration, per-bit greedy loops, the
first Newton search with its bisection fallback, the discrete power curve
as an in-order scalar loop, the exact water level in rationals, and the
per-start fit loop.  These never call the closed-form, sorted,
single-loop or lockstep paths they are used to check."""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.integrate import quad

import owclb
from owclb import waterfill
from owclb.waterfill import _gamma_value


def _interior_corners(g, f_max):
    pts = sorted(c for c in list(g.zeros) + list(g.poles) if 0.0 < c < f_max)
    return pts or None


def mp_sigma2(g, gamma: float, f_max: float) -> float:
    """The waterfilling power integral int_0^f_max (W(f_max) - W(f)) df,
    W = gamma/GNR, by mpmath quadrature at 40 digits with breakpoints at
    the corners; the subtraction keeps ~25 digits where double precision
    quadrature cancels."""
    with mpmath.workdps(40):
        inv_p2 = [1 / mpmath.mpf(fp) ** 2 for fp in g.poles]
        inv_z2 = [1 / mpmath.mpf(fz) ** 2 for fz in g.zeros]
        scale = mpmath.mpf(gamma) / g.gnr0

        def w(f):
            u = f * f
            num, den = scale, 1
            for a in inv_p2:
                num *= 1 + u * a
            for a in inv_z2:
                den *= 1 + u * a
            return num / den

        level = w(mpmath.mpf(f_max))
        points = [0.0] + (_interior_corners(g, f_max) or []) + [f_max]
        return float(mpmath.quad(lambda f: level - w(f), points))


def quad_rate(g, f_max: float) -> float:
    """Adaptive quadrature of the optimized spectral-efficiency integrand
    log2(1 + S_opt GNR / Gamma) = log2(GNR(f) / GNR(f_max))."""
    log_gnr_fmax = _log_gnr(g, f_max)

    def integrand(f):
        return (_log_gnr(g, f) - log_gnr_fmax) / math.log(2.0)

    val, _ = quad(
        integrand,
        0.0,
        f_max,
        points=_interior_corners(g, f_max),
        limit=300,
        epsabs=0.0,
        epsrel=1e-9,
    )
    return val


def rate_closed_form_scalar(g, f_max: float) -> float:
    """The closed-form rate at one f_max in plain Python floats, as first
    written: zeros first, then poles, each arctangent from ``math.atan``."""
    if f_max == 0.0:
        return 0.0
    total = (len(g.poles) - len(g.zeros)) * f_max
    for fz in g.zeros:
        total += fz * math.atan(f_max / fz)
    for fp in g.poles:
        total -= fp * math.atan(f_max / fp)
    return (2.0 / math.log(2.0)) * total


def _log_gnr(g, f: float) -> float:
    u = float(f) * float(f)
    out = math.log(g.gnr0)
    for fz in g.zeros:
        out += math.log1p(u / (fz * fz))
    for fp in g.poles:
        out -= math.log1p(u / (fp * fp))
    return out


def sampled_monotone(g, f_hi: float) -> bool:
    """Whether GNR is non-increasing on (0, f_hi], by sampling the sign of
    d(log GNR)/d(f^2) = sum_m 1/(fz_m^2+u) - sum_n 1/(fp_n^2+u) on a dense
    log grid in u = f^2 plus both endpoints."""
    if not g.zeros and not g.poles:
        return True
    corners = list(g.zeros) + list(g.poles)
    u_min = (min(corners) * 1e-4) ** 2
    u_grid = np.concatenate([[0.0], np.geomspace(u_min, f_hi**2, 4096), [f_hi**2]])
    pos = np.zeros_like(u_grid)
    mag = np.zeros_like(u_grid)
    for fz in g.zeros:
        t = 1.0 / (fz**2 + u_grid)
        pos += t
        mag += t
    for fp in g.poles:
        t = 1.0 / (fp**2 + u_grid)
        pos -= t
        mag += t
    return bool(np.all(pos <= 1e-12 * mag))


def central_diff(fn, x: float, h: float) -> float:
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def best_rate_exhaustive(grid, gamma: float, budget: float, bit_cap: int) -> float:
    """Maximum achievable rate over every feasible integer allocation.

    Feasibility uses the same closed-form powers and the same ascending
    index summation order as the plans under test.
    """
    delta = grid.delta_b
    best_bits = -1
    for alloc in itertools.product(range(bit_cap + 1), repeat=grid.K):
        total = 0.0
        for k, b in enumerate(alloc):
            total += delta * gamma * (2.0**b - 1.0) / float(grid.gnr_k[k])
        if total <= budget:
            best_bits = max(best_bits, sum(alloc))
    return delta * best_bits


def exhaustive_table(grid, gamma: float, bit_cap: int):
    """Every integer allocation's (total power, total bits), precomputed so a
    budget sweep only needs a masked max."""
    delta = grid.delta_b
    allocs = np.array(
        list(itertools.product(range(bit_cap + 1), repeat=grid.K)), dtype=float
    )
    cost_per_bitlevel = delta * gamma * (2.0**allocs - 1.0)  # elementwise 2^b - 1
    totals = (cost_per_bitlevel / np.asarray(grid.gnr_k)).sum(axis=1)
    bits = allocs.sum(axis=1)
    return totals, bits


# ---------------------------------------------------------------------------
# Per-bit greedy loops: the Hughes-Hartogs loaders as first written, one
# search round per granted bit, counting FLOPs as they go.  The library's
# loaders derive the same plans from one sort; these check them field by
# field.  ``on_load(k, bits)`` sees the bits after each grant (k is 1-based).

_SETUP_FLOPS_PER_K = 1
_LOAD_FLOPS = 6
_BUDGET_CHECK_FLOPS = 2


class _LoadState:
    """Shared bookkeeping for both greedy variants (identical arithmetic)."""

    def __init__(self, grid, gamma: float):
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


def _loop_plan(state, grid, gamma, budget, flops, iterations, algorithm, table):
    if state is None:
        bits = np.zeros(grid.K, dtype=np.int64)
        power = np.zeros(grid.K, dtype=float)
    else:
        bits, power = state.bits, state.power
    total = 0.0
    for p in power.tolist():  # ascending subcarrier index
        total += p
    return owclb.BitLoadPlan(
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


def _check_budget(sigma2_budget):
    if not sigma2_budget >= 0.0:
        raise ValueError(f"sigma2_budget must be >= 0, got {sigma2_budget!r}")


def hh_naive_loop(grid, gap, sigma2_budget, *, bit_cap=owclb.DEFAULT_BIT_CAP, on_load=None):
    """Full scan of all K subcarriers per round; ties go to the lowest index."""
    gamma = _gamma_value(gap)
    _check_budget(sigma2_budget)
    if sigma2_budget == 0.0:
        return _loop_plan(None, grid, gamma, 0.0, 0, 0, "hh_naive", None)

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
    return _loop_plan(state, grid, gamma, sigma2_budget, state.flops, iterations, "hh_naive", None)


def hh_accelerated_loop(
    grid, gap, sigma2_budget, *, bit_cap=owclb.DEFAULT_BIT_CAP, on_load=None
):
    """Search only the head of each populated bit level (a lookup table).

    The carriers are walked in the stable order of their first-bit costs,
    a Python sort; where that is not the subcarrier order, sorting is
    charged K * ceil(log2 K) comparisons.  In that order the carriers at
    one bit level form a block, and the block's head is its cheapest
    carrier, so the loop grants what the full scan grants.  Ties between
    heads go to the lowest subcarrier index, as in the full scan.
    """
    gamma = _gamma_value(gap)
    _check_budget(sigma2_budget)
    state = _LoadState(grid, gamma)
    order = sorted(range(grid.K), key=lambda k: float(state.marginal[k]))
    rank = {k: pos for pos, k in enumerate(order)}
    if sigma2_budget == 0.0:
        empty = tuple([order[0] + 1] + [0] * bit_cap)  # level 0 heads the grid
        return _loop_plan(None, grid, gamma, 0.0, 0, 0, "hh_accelerated", empty)

    if order != list(range(grid.K)):
        state.flops += grid.K * math.ceil(math.log2(grid.K))
    levels = [0] * (bit_cap + 1)
    levels[0] = order[0] + 1
    iterations = 0
    while True:
        iterations += 1
        best_k = 0
        best_m = math.inf
        n_candidates = 0
        for b in range(bit_cap):
            head = levels[b]
            if head == 0:
                continue
            n_candidates += 1
            m = float(state.marginal[head - 1])
            if m < best_m or (m == best_m and head < best_k):
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
        pos = rank[idx] + 1
        if pos < grid.K and int(state.bits[order[pos]]) == b_old:
            levels[b_old] = order[pos] + 1  # shift old level to the successor
        else:
            levels[b_old] = 0  # old level emptied
        if on_load is not None:
            on_load(best_k, state.bits)
    return _loop_plan(
        state, grid, gamma, sigma2_budget, state.flops, iterations, "hh_accelerated",
        tuple(levels),
    )


def greedy_argsort(grid, gamma: float, sigma2_budget: float, bit_cap: int):
    """The greedy's grants as first derived from one sort: a stable argsort
    of every (subcarrier, bit) increment's cost, numbered k * bit_cap + b,
    cut at the first running sum above the budget.  Returns the granted
    increments in grant order and the count of finite costs."""
    with np.errstate(over="ignore"):
        marginal = grid.delta_b * gamma / grid.gnr_k
        costs = (marginal[:, None] * 2.0 ** np.arange(bit_cap)).ravel()
    order = np.argsort(costs, kind="stable")
    finite = int(np.sum(np.isfinite(costs)))
    if sigma2_budget == 0.0:
        return order[:0], finite
    with np.errstate(over="ignore"):
        sums = np.cumsum(costs[order][:finite])
    return order[: int(np.searchsorted(sums, sigma2_budget, side="right"))], finite


def table_search_flops_loop(old_levels: np.ndarray, K: int, bit_cap: int) -> int:
    """The lookup-table search's comparisons, one level at a time: level b
    gains a carrier at each grant from b-1 (all K start at level 0) and
    loses one at each grant from b; it is empty before its first arrival,
    and after each departure that leaves no carrier behind until the next
    arrival."""
    rounds = old_levels.size + 1
    held = 0  # (round, level) pairs in which the level holds a carrier
    arrived = np.full(K, -1)  # grant that brought each carrier to level b
    for b in range(bit_cap):
        if not arrived.size:
            break  # no carrier reaches this level or any above it
        left = np.flatnonzero(old_levels == b)  # grant that moved it on
        nxt = np.append(arrived, rounds - 1)  # next arrival after each departure
        empty = nxt[0] + 1 + np.maximum(nxt[1 : left.size + 1] - left, 0).sum()
        held += rounds - empty
        arrived = left
    return int(held - rounds + (rounds - 1 == K * bit_cap))


def newton_fmax_search(g, gap, sigma2_budget, K, f_chip):
    """The Newton search as first written: Newton probes clamped into the
    index bracket, a separate bisection on divergence or at the iteration
    cap, a memo of discrete powers, and walks to the budget boundary after
    the loop.  Reads ``waterfill._NEWTON_MAX_ITERS`` and calls
    ``waterfill.dsigma2_dfmax`` at call time, so a test that patches either
    sees the same search as ``newton_fmax``."""
    gamma = _gamma_value(gap)
    if not (isinstance(K, int) and K >= 2):
        raise ValueError(f"K must be an integer >= 2, got {K!r}")
    f_chip = waterfill._check_positive("f_chip", f_chip)
    if not math.isfinite(sigma2_budget) or sigma2_budget <= 0.0:
        raise ValueError(f"sigma2_budget must be > 0, got {sigma2_budget!r}")
    waterfill._require_monotone(g, f_chip, "newton_fmax")

    delta = f_chip / K
    f_k = delta * np.arange(1, K + 1)
    gnr_k = np.asarray(g(f_k), dtype=float)
    w_k = gamma / gnr_k

    cache: dict[int, float] = {}

    def power(ks: int) -> float:
        if ks not in cache:
            cache[ks] = delta * float(np.sum(np.maximum(0.0, w_k[ks - 1] - w_k[:ks])))
        return cache[ks]

    def build(ks: int, iters: int, saturated: bool = False):
        level = float(w_k[ks - 1])
        psd = np.maximum(0.0, level - w_k)
        psd[ks:] = 0.0
        rate = delta * float(np.sum(np.log2(1.0 + psd[:ks] * gnr_k[:ks] / gamma)))
        return waterfill.WaterfillSolution(
            f_max=float(f_k[ks - 1]),
            water_level=level,
            f_hz=f_k,
            psd=psd,
            gnr=gnr_k,
            sigma2=power(ks),
            rate=rate,
            island=(),
            saturated=saturated,
            iterations=iters,
        )

    if power(K) <= sigma2_budget:
        return build(K, 0, saturated=True)

    def bisect_index(lo: int, hi: int) -> int:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if power(mid) <= sigma2_budget:
                lo = mid
            else:
                hi = mid
        return lo

    lo, hi = 1, K
    f_cur = f_chip
    sigma_cur = power(K)
    iters = 0
    while hi - lo > 1:
        if iters >= waterfill._NEWTON_MAX_ITERS:
            lo = bisect_index(lo, hi)
            break
        iters += 1
        deriv = waterfill.dsigma2_dfmax(g, gamma, f_cur)
        if not math.isfinite(deriv) or deriv <= 0.0:
            lo = bisect_index(lo, hi)
            break
        f_next = f_cur - (sigma_cur - sigma2_budget) / deriv
        if not math.isfinite(f_next):
            lo = bisect_index(lo, hi)
            break
        ks = waterfill._nearest_index(f_next, delta, K)
        if ks <= lo:
            ks = lo + 1
        elif ks >= hi:
            ks = hi - 1
        p = power(ks)
        if p <= sigma2_budget:
            lo = ks
        else:
            hi = ks
        f_cur = ks * delta
        sigma_cur = p

    k_star = lo
    while k_star > 1 and power(k_star) > sigma2_budget:
        k_star -= 1
    while k_star < K and power(k_star + 1) <= sigma2_budget:
        k_star += 1
    return build(k_star, iters)


def power_curve_in_order(grid, gamma: float) -> list[float]:
    """The discrete power with f_max at each subcarrier n = 1..K as one
    scalar loop: power(1) = 0, then the increments
    Delta_B * n * max(0, w_(n+1) - w_n), w = Gamma/GNR_k, added one at a
    time in order.  The direct sums of the first search above take a fresh
    O(n) sum per n instead."""
    delta = grid.delta_b
    w = [gamma / x for x in grid.gnr_k.tolist()]
    power, total = [0.0], 0.0
    for n in range(1, grid.K):
        total += delta * n * max(0.0, w[n] - w[n - 1])
        power.append(total)
    return power


def waterlevel_exact(grid, gamma: float, budget: float) -> tuple[int, Fraction]:
    """The active count and water level of the budget, exactly, in
    ``Fraction``s of the cell costs w = Gamma/GNR_k as floats: with w
    sorted, the largest j whose level (b/Delta_B + w_(1) + ... + w_(j))/j
    lies above w_(j), and that level.  Every j is tested, each with its own
    comparison (multiplied through by j*Delta_B); no power curve is built."""
    w = [Fraction(c) for c in sorted(gamma / x for x in grid.gnr_k.tolist())]
    b, delta = Fraction(budget), Fraction(grid.delta_b)
    count, total, active_total = 0, Fraction(0), None
    for j, w_j in enumerate(w, start=1):
        total += w_j
        if b + delta * total > delta * j * w_j:
            count, active_total = j, total
    return count, (b / delta + active_total) / count


def island_scan(sol):
    """Zero-power runs below f_max by a per-sample scan of ``sol.psd``,
    each as (first, last) frequency of the run."""
    last = int(np.nonzero(sol.psd > 0.0)[0][-1])
    islands = []
    idx = 0
    while idx < last:
        if sol.psd[idx] == 0.0:
            start = idx
            while idx < last and sol.psd[idx] == 0.0:
                idx += 1
            islands.append((float(sol.f_hz[start]), float(sol.f_hz[idx - 1])))
        else:
            idx += 1
    return tuple(islands)


_FIT_Q10 = 10.0 / math.log(10.0)  # dB per natural-log unit


def _serial_model_db(c: float, log_z: np.ndarray, log_p: np.ndarray, u: np.ndarray) -> np.ndarray:
    y = np.full_like(u, c)
    for l in log_z:
        y += _FIT_Q10 * np.log1p(u / math.exp(2.0 * l))
    for l in log_p:
        y -= _FIT_Q10 * np.log1p(u / math.exp(2.0 * l))
    return y


def _serial_jacobian(log_z: np.ndarray, log_p: np.ndarray, u: np.ndarray) -> np.ndarray:
    n = u.size
    cols = [np.ones(n)]
    for l in log_z:
        w = math.exp(2.0 * l)
        cols.append(-2.0 * _FIT_Q10 * u / (w + u))
    for l in log_p:
        w = math.exp(2.0 * l)
        cols.append(2.0 * _FIT_Q10 * u / (w + u))
    return np.column_stack(cols)


def gauss_newton_serial(u, y_data, log_z0, log_p0, l_bounds, max_iters):
    """The per-start damped Gauss-Newton loop the lockstep fit replaced:
    one start at a time, (cost, offset, log zeros, log poles, residuals).
    The damping follows Nielsen's gain-ratio rule; a start stops after 25
    rejected trials in a row, or after an accepted step below 1e-13 or
    lowering the cost by at most 1e-12 of it."""
    m = log_z0.size
    log_z = log_z0.copy()
    log_p = log_p0.copy()
    # offset is linear in the residual: start it at its optimum
    c = float(np.mean(y_data - _serial_model_db(0.0, log_z, log_p, u)))
    r = _serial_model_db(c, log_z, log_p, u) - y_data
    cost = float(r @ r)
    lam, nu = 1e-3, 2.0
    for _ in range(max_iters):
        jac = _serial_jacobian(log_z, log_p, u)
        a = jac.T @ jac
        gvec = jac.T @ r
        diag = np.diag(a).copy()
        diag[diag <= 0.0] = 1.0
        accepted = converged = False
        for _damp in range(25):
            try:
                step = np.linalg.solve(a + lam * np.diag(diag), -gvec)
            except np.linalg.LinAlgError:
                lam, nu = min(lam * nu, 1e12), 2.0 * nu
                continue
            c_t = c + step[0]
            log_z_t = np.clip(log_z + step[1 : 1 + m], *l_bounds)
            log_p_t = np.clip(log_p + step[1 + m :], *l_bounds)
            r_t = _serial_model_db(c_t, log_z_t, log_p_t, u) - y_data
            cost_t = float(r_t @ r_t)
            if math.isfinite(cost_t) and cost_t <= cost:
                # predicted fall h^T (lam D h - J^T r), summed exactly
                terms = zip(step.tolist(), diag.tolist(), (-gvec).tolist())
                pred = math.fsum(h * (lam * d * h + g) for h, d, g in terms)
                rho = (cost - cost_t) / pred if pred > 0.0 else 0.0
                t = 2.0 * rho - 1.0
                lam = max(lam * max(1.0 / 3.0, 1.0 - t * t * t), 1e-14)
                nu = 2.0
                converged = cost - cost_t <= 1e-12 * cost
                c, log_z, log_p, r, cost = c_t, log_z_t, log_p_t, r_t, cost_t
                accepted = True
                break
            lam, nu = min(lam * nu, 1e12), 2.0 * nu
        if not accepted or converged or float(np.max(np.abs(step))) < 1e-13:
            break
    return cost, c, log_z, log_p, r
