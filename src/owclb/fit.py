"""Fit the canonical M-zero/N-pole GNR model to tabulated magnitude data.

Measured or circuit-simulated responses (and non-rational stages such as
Gaussian fiber or sinc beam-squint models) enter the closed-form
optimizers through this module: a damped Gauss-Newton solve minimizes the
dB-domain squared error

    sum_i ( 10*log10(model(f_i)) - 10*log10(data_i) )^2

over {log gnr0, log fz_m, log fp_n}.  Working in dB with log parameters
keeps every corner positive without explicit constraints and weights the
decades of a wideband response evenly.  The damping factor starts at 1e-3
and follows Nielsen's gain-ratio rule (Madsen, Nielsen & Tingleff 2004,
Alg. 3.16): x nu on a rejected trial, then nu doubles (from 2); on an
accepted one x max(1/3, 1 - (2 rho - 1)^3), rho being the cost's fall over
the damped linear model's, and nu is 2 again.  As with MINPACK's ftol
(More 1978), a start also stops once a step lowers its cost by at most
1e-12 of it.  The landscape is nonconvex with permutation symmetry, so
the solve is multistarted from seed-controlled log-uniform corner draws,
in two phases (Rinnooy Kan & Timmer, Math. Programming 39, 1987):

* screen: every draw runs for at most _SCREEN_ITERS accepted steps;
* polish: the _POLISHED draws of lowest screened cost (ranked stably in
  draw order, non-finite costs last) run on from their screened corners
  to the full stop rule, with the damping and the offset started afresh.

The best polished start wins; corners are reported sorted ascending.
Starts that crawl toward the step cap along a near-cancelling corner pair
rank low after the screen and cost no further rounds.

Each phase runs its starts in lockstep on (starts, rows) arrays: each
round makes one damped trial per live start, with its own damping factor
and accept test, and a start drops out where a loop over that start alone
would stop.  The per-start arithmetic is the same as such a loop's
(stacked matmul and solve, corner weights through math.exp, the offset's
mean row by row), so every start ends on the same bytes;
``tests/_oracles.gauss_newton_serial`` is that loop.

Layout: elementwise work runs corner-major, on (starts, M+N, rows) arrays,
so every ufunc's inner loop walks a contiguous row of the table.  The
Jacobian itself stays (rows, 1+M+N) per start, C order, because the bits
of the BLAS products J^T J and J^T r depend on the layout they are handed.
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
    _FLOAT_MAX,
    _FLOAT_TINY,
    _is_integer,
    chain_to_dict,
)

_Q10 = 10.0 / math.log(10.0)  # dB per natural-log unit
_DAMP_TRIES = 25  # rejected damped trials in a row before a start stops
_MAX_ITERS = 200  # accepted steps before a start stops
_FTOL = 1e-12  # an accepted step that lowers the cost by at most this share stops a start
_SCREEN_ITERS = 10  # accepted steps every draw gets before the ranking
_POLISHED = 4  # best-ranked draws run on to _MAX_ITERS
_MARGIN = 16.0  # a corner may leave f_range by this many nepers
# so the solve's corner weights exp(2 l) and ratios f^2/weight are normal
# floats for an f_range inside these limits, spanning at most _F_FIT_MAX
_F_FIT_MIN = math.exp(math.log(_FLOAT_TINY) / 2.0 + _MARGIN)  # ~1.33e-147 Hz
_F_FIT_MAX = math.exp(math.log(_FLOAT_MAX) / 2.0 - _MARGIN)  # ~1.51e147 Hz


@dataclass(frozen=True)
class FitConfig:
    """Model order, fitted frequency window and solver controls."""

    n_zeros: int
    n_poles: int
    f_range: tuple[float, float]
    multistarts: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("n_zeros", "n_poles", "multistarts", "seed"):
            if not _is_integer(value := getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_zeros < 0:
            raise ValueError("n_zeros must be >= 0")
        if self.n_poles < 1:
            raise ValueError("n_poles must be >= 1")
        if self.n_poles < self.n_zeros:
            raise ValueError("n_poles must be >= n_zeros for a low-pass target")
        lo, hi = (float(self.f_range[0]), float(self.f_range[1]))
        if not (0.0 < lo < hi) or not math.isfinite(hi):
            raise ValueError(f"f_range must be ascending positive, got {self.f_range!r}")
        if lo < _F_FIT_MIN or hi > _F_FIT_MAX or hi / lo > _F_FIT_MAX:
            raise ValueError(
                f"f_range must lie in [{_F_FIT_MIN:.3g}, {_F_FIT_MAX:.3g}] Hz and span at most "
                f"a factor of {_F_FIT_MAX:.3g}, got {self.f_range!r}"
            )
        object.__setattr__(self, "f_range", (lo, hi))
        if self.multistarts < 1:
            raise ValueError("multistarts must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


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
    terms = u / w[:, :, None]
    np.log1p(terms, out=terms)
    terms *= _Q10
    y = (np.add if m else np.subtract)(c[:, None], terms[:, 0])
    for j in range(1, w.shape[1]):
        (np.add if j < m else np.subtract)(y, terms[:, j], out=y)
    return y


def _row_dots(r: np.ndarray) -> np.ndarray:
    """r @ r per row, as one stacked matmul (sum and einsum add in another order)."""
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def _normal_equations(w: np.ndarray, m: int, u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The damped system's parts per start, J = d(model)/d(c, log corners)
    with P = 1+M+N columns: one (S, P, P+2) array holding J^T J, then
    -J^T r, then the damping diagonal (J^T J's, 1.0 where it is <= 0)."""
    s, k = w.shape
    # corner column j is +-2*Q10*u/(w_j + u); the sum w_j + u is formed
    # corner-major, a (S, M+N, rows) temporary (~190 KB at S=16, 300 rows),
    # and negated for the zeros, then the divide writes through into J
    cols = np.add(w[:, :, None], u)
    cols[:, :m] *= -1.0
    jac = np.empty((s, u.size, k + 1))
    jac[:, :, 0] = 1.0
    np.divide(2.0 * _Q10 * u, cols, out=jac[:, :, 1:].transpose(0, 2, 1))
    jt = jac.transpose(0, 2, 1)
    out = np.empty((s, k + 1, k + 3))
    out[:, :, : k + 1] = jt @ jac
    np.negative(jt @ r[:, :, None], out=out[:, :, k + 1 : k + 2])
    diag = out[:, :, k + 2]
    diag[:] = np.diagonal(out, axis1=1, axis2=2)
    np.copyto(diag, 1.0, where=diag <= 0.0)
    return out


def _damped_steps(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve lhs @ step = rhs per start, rhs (S, P, 1).  A singular system's
    step is NaN, so its trial cost is not finite and the trial counts as
    rejected."""
    try:
        return np.linalg.solve(lhs, rhs)[..., 0]
    except np.linalg.LinAlgError:
        pass
    step = np.full(rhs.shape[:2], np.nan)
    for i in range(rhs.shape[0]):
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
    step below 1e-13 or lowering the cost by at most _FTOL of it, or after
    max_iters accepted steps.  Returns per start the cost, the offset, the
    log corners and the residuals.
    """
    s, p = logs0.shape[0], logs0.shape[1] + 1
    lo, hi = l_bounds
    w = _weights(logs0)
    # offset is linear in the residual: start it at its optimum
    y0 = y_data - _model_db(np.zeros(s), w, m, u)
    x = np.column_stack([[np.mean(row) for row in y0], logs0])
    r = _model_db(x[:, 0], w, m, u) - y_data
    cost = _row_dots(r)
    eqs = _normal_equations(w, m, u, r)
    # x, r, cost and eqs hold the live starts' rows, in the order of
    # `live`.  Damping factor, its growth nu, rejections in a row and
    # accepted steps are Python numbers per start: at a few live starts, a
    # numpy call per update would cost more than the update.
    live = list(range(s))
    lam, nu, tries, iters = [1e-3] * s, [2.0] * s, [0] * s, [0] * s
    out_cost, out_x, out_r = np.empty(s), np.empty_like(x), np.empty_like(r)
    while live:
        lhs = eqs[:, :, :p].copy()
        damping = np.array([lam[i] for i in live])[:, None] * eqs[:, :, p + 1]
        lhs.reshape(len(live), -1)[:, :: p + 1] += damping  # onto the diagonal
        step = _damped_steps(lhs, eqs[:, :, p : p + 1])
        x_t = x + step
        logs_t = x_t[:, 1:]
        np.maximum(logs_t, lo, out=logs_t)
        np.minimum(logs_t, hi, out=logs_t)
        w_t = _weights(logs_t)
        r_t = _model_db(x_t[:, 0], w_t, m, u) - y_data
        cost_t = _row_dots(r_t)
        ok, moved, done = [], [], []
        trials = zip(live, cost_t.tolist(), cost.tolist(), step.tolist(),
                     eqs[:, :, p].tolist(), eqs[:, :, p + 1].tolist())
        for k, (i, c_t, c, st, g, d) in enumerate(trials):
            ok.append(math.isfinite(c_t) and c_t <= c)
            if ok[k]:
                # gain ratio: the cost's fall over the fall the damped
                # linear model predicts, h^T (lam D h - J^T r)
                pred = math.fsum(h * (lam[i] * dj * h + gj) for h, dj, gj in zip(st, d, g))
                rho = (c - c_t) / pred if pred > 0.0 else 0.0
                t = 2.0 * rho - 1.0
                lam[i] = max(lam[i] * max(1.0 / 3.0, 1.0 - t * t * t), 1e-14)
                nu[i], tries[i], iters[i] = 2.0, 0, iters[i] + 1
                stop = (iters[i] == max_iters or max(map(abs, st)) < 1e-13
                        or c - c_t <= _FTOL * c)
                (done if stop else moved).append(k)
            else:
                lam[i], nu[i], tries[i] = min(lam[i] * nu[i], 1e12), 2.0 * nu[i], tries[i] + 1
                if tries[i] == _DAMP_TRIES:
                    done.append(k)
        if any(ok):
            mask = np.array(ok)
            np.copyto(x, x_t, where=mask[:, None])
            np.copyto(r, r_t, where=mask[:, None])
            np.copyto(cost, cost_t, where=mask)
        if moved:
            eqs[moved] = _normal_equations(w_t[moved], m, u, r[moved])
        if done:
            ids = [live[k] for k in done]
            out_cost[ids], out_x[ids], out_r[ids] = cost[done], x[done], r[done]
            keep = [k for k in range(len(live)) if k not in done]
            live = [live[k] for k in keep]
            x, r, cost, eqs = x[keep], r[keep], cost[keep], eqs[keep]
    return out_cost, out_x[:, 0], out_x[:, 1:], out_r


def fit_polezero(data: ResponseTable, cfg: FitConfig) -> FitResult:
    """Fit gnr0 and corner frequencies to the table rows inside f_range.

    Raises ValueError when fewer than 2*(M+N+1) rows fall in the window
    and RuntimeError when every start ends with a non-finite cost, so
    that no start has an rms to report, or when the best start's gnr0 is
    past the float range.
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
    l_bounds = (math.log(lo) - _MARGIN, math.log(hi) + _MARGIN)

    m = cfg.n_zeros
    rng = np.random.default_rng(cfg.seed)
    # row by row: the draw's zeros, then its poles
    logs0 = rng.uniform(math.log(lo), math.log(hi), (cfg.multistarts, m + cfg.n_poles))
    cost, _, logs, _ = _lockstep_lm(u, y_data, logs0, m, l_bounds, _SCREEN_ITERS)
    # stable in draw order; a NaN cost sorts last, so map +inf there too
    ranked = np.argsort(np.where(np.isfinite(cost), cost, np.nan), kind="stable")
    cost, cs, logs, rs = _lockstep_lm(u, y_data, logs[ranked[:_POLISHED]], m, l_bounds, _MAX_ITERS)
    finite = np.flatnonzero(np.isfinite(cost))
    if not finite.size:
        raise RuntimeError("all fit starts diverged")

    best = finite[np.argmin(cost[finite])]
    c, log_z, log_p, r = cs[best], logs[best, :m], logs[best, m:], rs[best].copy()
    with np.errstate(over="ignore"):
        gnr0 = 10.0 ** (c / 10.0)
    if not 0.0 < gnr0 < math.inf:
        raise RuntimeError(f"fitted gnr0 of {c:.6g} dB is past the float range")
    model = MagSqPoleZeroGnr(
        gnr0=gnr0,
        zeros=tuple(map(math.exp, np.sort(log_z).tolist())),
        poles=tuple(map(math.exp, np.sort(log_p).tolist())),
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
