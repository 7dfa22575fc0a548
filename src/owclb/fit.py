"""Fit the canonical M-zero/N-pole GNR model to tabulated magnitude data.

Measured or circuit-simulated responses (and non-rational stages such as
Gaussian fiber or sinc beam-squint models) enter the closed-form
optimizers through this module: a damped Gauss-Newton solve minimizes the
dB-domain squared error

    sum_i ( 10*log10(model(f_i)) - 10*log10(data_i) )^2

over {log gnr0, log fz_m, log fp_n}.  Working in dB with log parameters
keeps every corner positive without explicit constraints and weights the
decades of a wideband response evenly.  The damping factor follows the
usual Levenberg schedule: start 1e-3, x10 on a rejected step, /10 on an
accepted one.  The landscape is nonconvex with permutation symmetry, so
the solve is multistarted from seed-controlled log-uniform corner draws
and the best start wins; corners are reported sorted ascending.

The starts run in lockstep on (starts, rows) arrays: each round makes one
damped trial per live start, with its own damping factor and accept test,
and a start drops out where a loop over that start alone would stop.  The
per-start arithmetic is the same as such a loop's (stacked matmul and
solve, corner weights through math.exp, the offset's mean row by row), so
every start ends on the same bytes; ``tests/_oracles.gauss_newton_serial``
is that loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linkchain import (
    LinkChain,
    MagSqPoleZeroGnr,
    NoiseSpectrum,
    RationalPoleZero,
    ResponseTable,
    chain_to_dict,
)

_Q10 = 10.0 / math.log(10.0)  # dB per natural-log unit
_DAMP_TRIES = 25  # rejected damped trials in a row before a start stops


@dataclass(frozen=True)
class FitConfig:
    """Model order, fitted frequency window and solver controls."""

    n_zeros: int
    n_poles: int
    f_range: tuple[float, float]
    max_iters: int = 200
    multistarts: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.n_zeros < 0:
            raise ValueError("n_zeros must be >= 0")
        if self.n_poles < 1:
            raise ValueError("n_poles must be >= 1")
        if self.n_poles < self.n_zeros:
            raise ValueError("n_poles must be >= n_zeros for a low-pass target")
        lo, hi = (float(self.f_range[0]), float(self.f_range[1]))
        if not (0.0 < lo < hi) or not math.isfinite(hi):
            raise ValueError(f"f_range must be ascending positive, got {self.f_range!r}")
        object.__setattr__(self, "f_range", (lo, hi))
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.multistarts < 1:
            raise ValueError("multistarts must be >= 1")


@dataclass(frozen=True, eq=False)
class FitResult:
    model: MagSqPoleZeroGnr
    rms_db_error: float
    per_point_residuals: np.ndarray
    notes: tuple[str, ...] = ()


def _weights(logs: np.ndarray) -> np.ndarray:
    """Corner weights exp(2*l) through math.exp, which np.exp may not match
    to the last bit."""
    return np.array([math.exp(2.0 * l) for l in logs.ravel().tolist()]).reshape(logs.shape)


def _model_db(c: np.ndarray, w: np.ndarray, m: int, u: np.ndarray) -> np.ndarray:
    """Model in dB, one row per start: offset c, plus the M zero terms, minus
    the pole terms, for corner weights w (S, M+N) with the zeros first."""
    y = np.empty((c.size, u.size))
    y[:] = c[:, None]
    for j in range(w.shape[1]):
        term = _Q10 * np.log1p(u / w[:, j, None])
        if j < m:
            y += term
        else:
            y -= term
    return y


def _row_dots(r: np.ndarray) -> np.ndarray:
    """r @ r per row, as one stacked matmul (sum and einsum add in another order)."""
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def _normal_equations(w: np.ndarray, m: int, u: np.ndarray, r: np.ndarray):
    """J^T J, J^T r and the damping diagonal per start, J = d(model)/d(c, log corners)."""
    jac = np.empty((w.shape[0], u.size, w.shape[1] + 1))
    jac[:, :, 0] = 1.0
    corners = jac[:, :, 1:]  # filled in place: (S, rows, M+N) temporaries raise peak memory
    np.add(w[:, None, :], u[:, None], out=corners)
    np.divide((2.0 * _Q10 * u)[:, None], corners, out=corners)
    corners[:, :, :m] *= -1.0
    jt = jac.transpose(0, 2, 1)
    a = jt @ jac
    g = (jt @ r[:, :, None])[:, :, 0]
    diag = np.diagonal(a, axis1=1, axis2=2).copy()
    diag[diag <= 0.0] = 1.0
    return a, g, diag


def _damped_steps(lhs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve lhs @ step = -g per start.  A singular system's step is NaN,
    so its trial cost is not finite and the trial counts as rejected."""
    rhs = -g[..., None]
    try:
        return np.linalg.solve(lhs, rhs)[..., 0]
    except np.linalg.LinAlgError:
        pass
    step = np.full(g.shape, np.nan)
    for i in range(g.shape[0]):
        try:
            step[i] = np.linalg.solve(lhs[i], rhs[i])[:, 0]
        except np.linalg.LinAlgError:
            pass
    return step


def _lockstep_lm(u, y_data, logs0, m, l_bounds, max_iters):
    """Levenberg-Marquardt from every start at once.

    logs0 holds one start per row: M log zero corners, then N log pole
    corners.  Each round makes one damped trial per live start.  A start
    leaves after _DAMP_TRIES rejected trials in a row, after an accepted
    step below 1e-13, or after max_iters accepted steps.  Returns per
    start the cost, the offset, the log corners and the residuals.
    """
    s = logs0.shape[0]
    w = _weights(logs0)
    # offset is linear in the residual: start it at its optimum
    y0 = y_data - _model_db(np.zeros(s), w, m, u)
    x = np.column_stack([[np.mean(row) for row in y0], logs0])
    r = _model_db(x[:, 0], w, m, u) - y_data
    cost = _row_dots(r)
    a, g, diag = _normal_equations(w, m, u, r)
    lam = np.full(s, 1e-3)
    tries = np.zeros(s, dtype=int)
    iters = np.zeros(s, dtype=int)
    live = np.arange(s)
    out_cost, out_x, out_r = np.empty(s), np.empty_like(x), np.empty_like(r)
    on_diag = np.arange(x.shape[1])
    while live.size:
        damping = np.zeros_like(a)
        damping[:, on_diag, on_diag] = diag
        step = _damped_steps(a + lam[:, None, None] * damping, g)
        x_t = x + step
        x_t[:, 1:] = np.clip(x_t[:, 1:], *l_bounds)
        w_t = _weights(x_t[:, 1:])
        r_t = _model_db(x_t[:, 0], w_t, m, u) - y_data
        cost_t = _row_dots(r_t)
        ok = np.isfinite(cost_t) & (cost_t <= cost)
        x[ok], r[ok], cost[ok] = x_t[ok], r_t[ok], cost_t[ok]
        lam = np.where(ok, np.maximum(lam / 10.0, 1e-14), np.minimum(lam * 10.0, 1e12))
        tries = np.where(ok, 0, tries + 1)
        iters += ok
        small = np.max(np.abs(step), axis=1) < 1e-13
        done = (tries == _DAMP_TRIES) | (ok & (small | (iters == max_iters)))
        moved = ok & ~done
        if moved.any():
            a[moved], g[moved], diag[moved] = _normal_equations(w_t[moved], m, u, r[moved])
        if done.any():
            out_cost[live[done]], out_x[live[done]], out_r[live[done]] = cost[done], x[done], r[done]
            keep = ~done
            live, x, r, cost, a, g, diag, lam, tries, iters = (
                v[keep] for v in (live, x, r, cost, a, g, diag, lam, tries, iters)
            )
    return out_cost, out_x[:, 0], out_x[:, 1:], out_r


def fit_polezero(data: ResponseTable, cfg: FitConfig) -> FitResult:
    """Fit gnr0 and corner frequencies to the table rows inside f_range.

    Raises ValueError when fewer than 2*(M+N+1) rows fall in the window
    and RuntimeError when every start ends with a non-finite cost, so
    that no start has an rms to report.
    """
    lo, hi = cfg.f_range
    mask = (data.frequencies >= lo) & (data.frequencies <= hi)
    f = data.frequencies[mask]
    v = data.values[mask]
    needed = 2 * (cfg.n_zeros + cfg.n_poles + 1)
    if f.size < needed:
        raise ValueError(
            f"need at least {needed} rows inside f_range, found {f.size}"
        )
    u = np.square(f)
    y_data = 10.0 * np.log10(v)
    l_bounds = (math.log(lo) - 16.0, math.log(hi) + 16.0)

    m = cfg.n_zeros
    rng = np.random.default_rng(cfg.seed)
    # row by row: the start's zeros, then its poles
    logs0 = rng.uniform(math.log(lo), math.log(hi), (cfg.multistarts, m + cfg.n_poles))
    cost, cs, logs, rs = _lockstep_lm(u, y_data, logs0, m, l_bounds, cfg.max_iters)
    finite = np.flatnonzero(np.isfinite(cost))
    if not finite.size:
        raise RuntimeError("all fit starts diverged")

    best = finite[np.argmin(cost[finite])]
    c, log_z, log_p, r = cs[best], logs[best, :m], logs[best, m:], rs[best].copy()
    model = MagSqPoleZeroGnr(
        gnr0=10.0 ** (c / 10.0),
        zeros=tuple(float(np.exp(l)) for l in np.sort(log_z)),
        poles=tuple(float(np.exp(l)) for l in np.sort(log_p)),
    )
    notes = []
    for name, corners in (("zero", model.zeros), ("pole", model.poles)):
        for fc in corners:
            if fc > hi:
                notes.append(f"{name} at {fc:.6g} Hz lies above the fitted range")
            elif fc < lo:
                notes.append(f"{name} at {fc:.6g} Hz lies below the fitted range")
    rms = float(np.sqrt(np.mean(np.square(r))))
    return FitResult(
        model=model,
        rms_db_error=rms,
        per_point_residuals=r,
        notes=tuple(notes),
    )


def residual_scan(data: ResponseTable, model: MagSqPoleZeroGnr) -> np.ndarray:
    """Per-row residual 10*log10(model) - 10*log10(data) in dB."""
    return 10.0 * np.log10(model.evaluate(data.frequencies)) - 10.0 * np.log10(data.values)


def scan_orders(data: ResponseTable, cfg: FitConfig):
    """Refit over the (M, N) grid up to the configured order, the configured
    order last; yields (n_zeros, n_poles, FitResult) for model-order
    inspection and skips orders with too few rows."""
    for m in range(cfg.n_zeros + 1):
        for n in range(max(1, m), cfg.n_poles + 1):
            try:
                res = fit_polezero(data, replace(cfg, n_zeros=m, n_poles=n))
            except ValueError:
                continue
            yield m, n, res


def model_to_channel_dict(model: MagSqPoleZeroGnr) -> dict:
    """Channel-chain JSON fragment whose reduced GNR equals the model.

    The fitted GNR is packed as a single rational stage with amplitude
    sqrt(gnr0) over a unit white-noise floor, so it loads back through the
    normal chain reader.
    """
    stage = RationalPoleZero(dc_gain=math.sqrt(model.gnr0), zeros=model.zeros, poles=model.poles)
    return chain_to_dict(LinkChain((stage,), NoiseSpectrum(floor=1.0)))
