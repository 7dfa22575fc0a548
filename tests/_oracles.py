"""Independent numeric oracles: brute-force quadrature, finite differences,
and exhaustive enumeration.  These never call the closed-form paths they are
used to check."""

import itertools
import math

import numpy as np
from scipy.integrate import quad


def _interior_corners(g, f_max):
    pts = sorted(c for c in list(g.zeros) + list(g.poles) if 0.0 < c < f_max)
    return pts or None


def quad_sigma2(g, gamma: float, f_max: float) -> float:
    """Adaptive quadrature of the waterfilling power integral."""
    level = gamma / float(g.evaluate(f_max))

    def integrand(f):
        return level - gamma / float(g.evaluate(f))

    val, _ = quad(
        integrand,
        0.0,
        f_max,
        points=_interior_corners(g, f_max),
        limit=300,
        epsabs=0.0,
        epsrel=1e-12,
    )
    return val


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
