import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import _oracles
import owclb
from owclb import fit

from conftest import REF_GNR0, REF_POLES, REF_ZEROS


def synth_table(model: owclb.MagSqPoleZeroGnr, lo=1e3, hi=1e9, n=240) -> owclb.ResponseTable:
    freqs = np.geomspace(lo, hi, n)
    return owclb.ResponseTable(frequencies=freqs, values=model(freqs))


class TestFitRoundTrip:
    def test_two_pole_noiseless(self):
        true = owclb.MagSqPoleZeroGnr(gnr0=250.0, poles=(2e6, 80e6))
        res = owclb.fit_polezero(
            synth_table(true), owclb.FitConfig(n_zeros=0, n_poles=2, f_range=(1e3, 1e9), seed=3)
        )
        assert res.rms_db_error < 1e-6
        for got, want in zip(res.model.poles, true.poles):
            assert got == pytest.approx(want, rel=1e-3)

    def test_reference_channel_recovery(self):
        true = owclb.MagSqPoleZeroGnr(gnr0=REF_GNR0, zeros=REF_ZEROS, poles=REF_POLES)
        res = owclb.fit_polezero(
            synth_table(true), owclb.FitConfig(n_zeros=1, n_poles=4, f_range=(1e3, 1e9), seed=0)
        )
        assert res.rms_db_error < 0.01
        assert res.model.zeros[0] == pytest.approx(REF_ZEROS[0], rel=0.01)
        for got, want in zip(res.model.poles, REF_POLES):
            assert got == pytest.approx(want, rel=0.01)
        assert res.model.gnr0 == pytest.approx(REF_GNR0, rel=0.005)

    def test_well_separated_corners_random(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            n = int(rng.integers(1, 4))
            # adjacent corners at least a factor 3 apart
            corners = np.sort(10.0 ** (6 + np.cumsum(rng.uniform(0.5, 1.0, n))))
            true = owclb.MagSqPoleZeroGnr(gnr0=10.0 ** rng.uniform(0, 8), poles=tuple(corners))
            res = owclb.fit_polezero(
                synth_table(true, 1e4, 1e11),
                owclb.FitConfig(n_zeros=0, n_poles=n, f_range=(1e4, 1e11), seed=int(rng.integers(1e6))),
            )
            for got, want in zip(res.model.poles, true.poles):
                assert got == pytest.approx(want, rel=0.01)


class TestFitEquivariance:
    def test_value_scale_moves_gnr0_only(self):
        true = owclb.MagSqPoleZeroGnr(gnr0=40.0, zeros=(30e6,), poles=(3e6, 90e6))
        table = synth_table(true)
        cfg = owclb.FitConfig(n_zeros=1, n_poles=2, f_range=(1e3, 1e9), seed=5)
        base = owclb.fit_polezero(table, cfg)
        scaled_table = owclb.ResponseTable(
            frequencies=table.frequencies, values=table.values * 64.0
        )
        scaled = owclb.fit_polezero(scaled_table, cfg)
        assert scaled.model.gnr0 == pytest.approx(64.0 * base.model.gnr0, rel=1e-6)
        for a, b in zip(scaled.model.poles, base.model.poles):
            assert a == pytest.approx(b, rel=1e-6)

    def test_frequency_scale_moves_corners(self):
        true = owclb.MagSqPoleZeroGnr(gnr0=7.0, poles=(4e6, 60e6))
        table = synth_table(true)
        cfg = owclb.FitConfig(n_zeros=0, n_poles=2, f_range=(1e3, 1e9), seed=9)
        base = owclb.fit_polezero(table, cfg)
        c = 10.0
        stretched = owclb.ResponseTable(
            frequencies=table.frequencies * c, values=table.values
        )
        cfg_c = owclb.FitConfig(n_zeros=0, n_poles=2, f_range=(1e3 * c, 1e9 * c), seed=9)
        res = owclb.fit_polezero(stretched, cfg_c)
        for a, b in zip(res.model.poles, base.model.poles):
            assert a == pytest.approx(c * b, rel=1e-6)


class TestFitEdgeCases:
    def test_flat_data_pushes_pole_out_and_notes_it(self):
        freqs = np.geomspace(1e4, 1e8, 60)
        table = owclb.ResponseTable(frequencies=freqs, values=np.full(60, 5.0))
        res = owclb.fit_polezero(
            table, owclb.FitConfig(n_zeros=0, n_poles=1, f_range=(1e4, 1e8), seed=1)
        )
        assert res.model.poles[0] > 1e8
        assert any("above the fitted range" in n for n in res.notes)
        assert res.rms_db_error < 0.01

    def test_insufficient_rows_rejected(self):
        freqs = np.geomspace(1e4, 1e6, 6)
        table = owclb.ResponseTable(frequencies=freqs, values=np.ones(6))
        with pytest.raises(ValueError, match="rows"):
            owclb.fit_polezero(
                table, owclb.FitConfig(n_zeros=1, n_poles=3, f_range=(1e4, 1e6))
            )

    def test_order_validation(self):
        with pytest.raises(ValueError):
            owclb.FitConfig(n_zeros=3, n_poles=2, f_range=(1e3, 1e9))
        with pytest.raises(ValueError):
            owclb.FitConfig(n_zeros=0, n_poles=0, f_range=(1e3, 1e9))
        with pytest.raises(ValueError):
            owclb.FitConfig(n_zeros=0, n_poles=1, f_range=(1e9, 1e3))
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            owclb.FitConfig(n_zeros=0, n_poles=1, f_range=(1e3, 1e9), seed=-1)

    @pytest.mark.parametrize(
        "f_range", [(1e-300, 1e-290), (1e-150, 1e-140), (1e140, 1e150), (1e-100, 1e100)],
        ids=["tiny", "below", "above", "wide"],
    )
    def test_window_whose_corner_weights_leave_the_float_range(self, f_range):
        # weights exp(2 l) with l within 16 nepers of the window, and f^2 over
        # them, would underflow or overflow inside the solve
        with pytest.raises(ValueError, match=r"^f_range must lie in \[1\.33e-147, 1\.51e\+147\] Hz"):
            owclb.FitConfig(n_zeros=0, n_poles=1, f_range=f_range)

    @pytest.mark.parametrize("f_range", [(fit._F_FIT_MIN, 1e-140), (1e140, fit._F_FIT_MAX), (1.0, fit._F_FIT_MAX),
                                         (1e-70, 1e70)])
    def test_window_at_the_float_range_fits_silently(self, f_range):
        f = np.geomspace(*f_range, 8)
        table = owclb.ResponseTable(frequencies=f, values=1.0 / (1.0 + (f / f[3]) ** 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted = owclb.fit_polezero(table, owclb.FitConfig(n_zeros=0, n_poles=1, f_range=f_range))
        assert math.isfinite(fitted.rms_db_error)

    def test_gnr0_past_the_float_range_is_refused(self):
        # data falling as f^-2 from 1.7e308 at 1e-60 Hz: a pole below the
        # window puts gnr0 past the largest float
        f = np.geomspace(1e-60, 1e60, 8)
        table = owclb.ResponseTable(frequencies=f, values=1.7e308 * (1e-60 / f) ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match=r"^fitted gnr0 of [0-9.]+ dB is past the float range$"):
                owclb.fit_polezero(table, owclb.FitConfig(n_zeros=0, n_poles=1, f_range=(1e-60, 1e60)))

    @pytest.mark.parametrize(
        "name, value", [("n_zeros", 0.5), ("n_zeros", True), ("n_poles", 2.0), ("multistarts", 1.5),
                        ("multistarts", False), ("n_poles", "3"), ("seed", 1.5), ("seed", True),
                        ("seed", "7")],
    )
    def test_orders_and_starts_must_be_integers(self, name, value):
        kwargs = {"n_zeros": 1, "n_poles": 3, "f_range": (1e3, 1e9), name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
            owclb.FitConfig(**kwargs)

    def test_numpy_integer_orders_are_accepted(self):
        cfg = owclb.FitConfig(n_zeros=np.int64(1), n_poles=np.int64(3), f_range=(1e3, 1e9))
        assert cfg.n_zeros == 1 and cfg.n_poles == 3

    def test_iteration_cap_is_not_a_setting(self):
        # a non-integer cap never equals the step counter and would switch itself off
        assert "max_iters" not in {f.name for f in dataclasses.fields(owclb.FitConfig)}

    def test_scan_orders_prefers_true_order(self):
        true = owclb.MagSqPoleZeroGnr(gnr0=3.0, poles=(2e6, 70e6))
        table = synth_table(true, 1e4, 1e9, 120)
        cfg = owclb.FitConfig(n_zeros=1, n_poles=3, f_range=(1e4, 1e9), seed=2, multistarts=8)
        rows = [(m, n, res.rms_db_error) for m, n, res in owclb.scan_orders(table, cfg)]
        best = min(rows, key=lambda r: r[2])
        assert best[2] < 1e-5
        # the true order (0,2) must be essentially exact
        rms_true = next(r[2] for r in rows if r[0] == 0 and r[1] == 2)
        assert rms_true < 1e-5


class TestNonRationalBridge:
    def test_gaussian_stage_fits_as_repeated_poles(self):
        # the classic cascade-of-identical-first-order approximation of a
        # Gaussian roll-off emerges from the generic fit path
        f0 = 1e9
        chain = owclb.LinkChain(
            stages=(owclb.GaussianLowPass(dc_gain=1.0, corner=f0),),
            noise=owclb.NoiseSpectrum(floor=1e-18),
        )
        freqs = np.geomspace(f0 / 30, 1.6 * f0, 160)
        table = owclb.ResponseTable(
            frequencies=freqs, values=np.asarray(owclb.gnr_eval(chain, freqs))
        )
        res = owclb.fit_polezero(
            table, owclb.FitConfig(n_zeros=0, n_poles=4, f_range=(f0 / 30, 1.6 * f0), seed=0)
        )
        assert res.rms_db_error < 0.75
        spread = max(res.model.poles) / min(res.model.poles)
        assert spread < 1.05  # poles collapse onto one repeated corner

    def test_fitted_repeated_poles_feed_closed_forms(self):
        # repeated poles are fine for the power integral and the rate closed form
        g = owclb.MagSqPoleZeroGnr(gnr0=1e18, poles=(1.1e9,) * 4)
        assert owclb.is_monotone_decreasing(g, 1e10)
        import _oracles

        got = owclb.sigma2_of_fmax(g, 1.0, 2e9)
        assert got == pytest.approx(_oracles.mp_sigma2(g, 1.0, 2e9), rel=1e-9)


class TestFitResiduals:
    def test_reference_fit_residuals_small(self):
        true = owclb.MagSqPoleZeroGnr(gnr0=REF_GNR0, zeros=REF_ZEROS, poles=REF_POLES)
        fitted = owclb.fit_polezero(
            synth_table(true), owclb.FitConfig(n_zeros=1, n_poles=4, f_range=(1e3, 1e9), seed=0)
        )
        assert np.max(np.abs(fitted.per_point_residuals)) < 0.1


class TestChannelFragment:
    def test_fragment_loads_and_reduces_back(self):
        model = owclb.MagSqPoleZeroGnr(gnr0=1.5e4, zeros=(2e7,), poles=(1e6, 4e6))
        chain = owclb.chain_from_dict(owclb.model_to_channel_dict(model))
        back = owclb.reduce_to_polezero(chain)
        assert back.gnr0 == pytest.approx(model.gnr0, rel=1e-12)
        assert back.zeros == pytest.approx(model.zeros)
        assert back.poles == pytest.approx(model.poles)


# ---------------------------------------------------------------------------
# the lockstep solver against the per-start loop it replaced

_LO, _HI = 1e5, 1e9
_L_BOUNDS = (math.log(_LO) - 16.0, math.log(_HI) + 16.0)
# every (M, N) with 0 <= M <= 3, max(1, M) <= N <= 4
_ORDERS = [(m, n) for m in range(4) for n in range(max(1, m), 5)]


def _noisy_problem(rng, m, n, rows, starts):
    """Random model of order (m, n) on `rows` log-spaced points with 0.1 dB
    noise: (u, y_data in dB, start log corners (starts, m + n))."""
    model = owclb.MagSqPoleZeroGnr(
        gnr0=10.0 ** rng.uniform(2, 10),
        zeros=tuple(10.0 ** rng.uniform(5.5, 8.5, m)),
        poles=tuple(10.0 ** rng.uniform(5.5, 8.5, n)),
    )
    freqs = np.geomspace(_LO, _HI, rows)
    y_data = 10.0 * np.log10(model(freqs)) + rng.normal(0.0, 0.1, rows)
    logs0 = rng.uniform(math.log(_LO), math.log(_HI), (starts, m + n))
    return np.square(freqs), y_data, logs0


def _serial_results(u, y_data, logs0, m, max_iters, l_bounds=_L_BOUNDS):
    return [
        _oracles.gauss_newton_serial(u, y_data, start[:m], start[m:], l_bounds, max_iters)
        for start in logs0
    ]


def _assert_same(got, want, m):
    """Every start's cost, offset, log corners and residuals equal the serial
    loop's to the byte."""
    cost, c, logs, r = got
    assert cost.shape == c.shape == (len(want),)
    assert logs.shape[0] == r.shape[0] == len(want)
    for i, start in enumerate(want):
        mine = (cost[i], c[i], logs[i, :m], logs[i, m:], r[i])
        for name, a, b in zip(("cost", "offset", "log_z", "log_p", "residuals"), mine, start):
            assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes(), (
                f"start {i}: {name} differs"
            )


def _assert_matches_serial(u, y_data, logs0, m, max_iters, l_bounds=_L_BOUNDS):
    got = fit._lockstep_lm(u, y_data, logs0, m, l_bounds, max_iters)
    _assert_same(got, _serial_results(u, y_data, logs0, m, max_iters, l_bounds), m)
    return got


class _PoisonedSolve:
    """np.linalg.solve that misbehaves on the systems of one start's first
    point (matched by their off-diagonal, which damping leaves alone) while
    the damping factor is below `lam_below`: it raises LinAlgError (only on
    the first `limit` such single-matrix calls, if given), or with `scale`
    returns the step times `scale`.  A stacked call fails if any matrix
    would; only single-matrix calls are counted, so that the serial loop
    and the lockstep solver's per-start fallback count alike.  Use one
    instance per run."""

    def __init__(self, real, a0, lam_below, scale=None, limit=None):
        self.real, self.a0, self.scale, self.limit = real, a0, scale, limit
        self.off = ~np.eye(a0.shape[0], dtype=bool)
        self.d0, self.lam_below = np.diag(a0), lam_below
        self.hits = 0

    def _hit(self, mat):
        return np.allclose(mat[self.off], self.a0[self.off], rtol=1e-12, atol=0.0) and bool(
            np.all(np.diag(mat) < self.d0 * (1.0 + self.lam_below))
        )

    def __call__(self, a, b):
        mats = np.reshape(a, (-1,) + np.shape(a)[-2:])
        bad = np.array([self._hit(x) for x in mats])
        if self.limit is not None and self.hits >= self.limit:
            bad[:] = False
        if np.ndim(a) == 2:
            self.hits += int(bad.sum())
        if bad.any() and self.scale is None:
            raise np.linalg.LinAlgError("Singular matrix")
        out = np.array(self.real(a, b))
        with np.errstate(over="ignore"):
            out.reshape(len(mats), -1)[bad] *= self.scale or 1.0
        return out


class TestLockstepMatchesSerial:
    @pytest.mark.parametrize("m,n", _ORDERS)
    def test_random_problems(self, m, n):
        rng = np.random.default_rng(1000 + 10 * m + n)
        for k, max_iters in enumerate((1, 2, 5, 200)):
            # the first problem of an order has 1 or 16 starts, the rest 1-16
            starts = int(rng.integers(1, 17)) if k else 16 if n % 2 else 1
            rows = int(rng.choice((40, 120, 300)))
            u, y_data, logs0 = _noisy_problem(rng, m, n, rows, starts)
            _assert_matches_serial(u, y_data, logs0, m, max_iters)

    def test_fit_pipeline_shape(self):
        # the benchmark's orders, row count and start count
        rng = np.random.default_rng(77)
        for m in (1, 0):
            u, y_data, logs0 = _noisy_problem(rng, m, 4, 300, 16)
            _assert_matches_serial(u, y_data, logs0, m, 200)

    def test_corners_clipped_at_bounds(self):
        # flat data drives the pole up to the bound; a 1/f^2 roll-off drives
        # it down, onto the lower bound once that is the window edge
        freqs = np.geomspace(_LO, _HI, 80)
        u = np.square(freqs)
        rng = np.random.default_rng(5)
        logs0 = rng.uniform(math.log(_LO), math.log(_HI), (6, 1))
        _, _, logs, _ = _assert_matches_serial(u, np.full(80, 7.0), logs0, 0, 200)
        assert np.any(logs == _L_BOUNDS[1])
        edges = (math.log(_LO), math.log(_HI))
        _, _, logs, _ = _assert_matches_serial(u, -10.0 * np.log10(u), logs0, 0, 200, edges)
        assert np.any(logs == edges[0])

    def _poison_setup(self, seed):
        rng = np.random.default_rng(seed)
        u, y_data, logs0 = _noisy_problem(rng, 1, 3, 120, 8)
        jac = _oracles._serial_jacobian(logs0[3, :1], logs0[3, 1:], u)
        return u, y_data, logs0, jac.T @ jac

    @pytest.mark.parametrize(
        "lam_below, limit, hits",
        [(2e-3, None, 1), (1e13, 24, 24), (1e13, None, 25)],
        ids=["first-trial", "24-then-solved", "all-25"],
    )
    def test_singular_solve_fails_one_start(self, monkeypatch, lam_below, limit, hits):
        # start 3's first trial fails, or its first 24 (the 25th, at the
        # damping cap, solves), or all 25 and start 3 stops where it began
        u, y_data, logs0, a0 = self._poison_setup(21)
        clean = fit._lockstep_lm(u, y_data, logs0, 1, _L_BOUNDS, 200)
        poisons = [_PoisonedSolve(np.linalg.solve, a0, lam_below, limit=limit) for _ in "ls"]
        monkeypatch.setattr(np.linalg, "solve", poisons[0])
        got = fit._lockstep_lm(u, y_data, logs0, 1, _L_BOUNDS, 200)
        monkeypatch.setattr(np.linalg, "solve", poisons[1])
        _assert_same(got, _serial_results(u, y_data, logs0, 1, 200), 1)
        assert [p.hits for p in poisons] == [hits, hits]
        cost, logs = got[0], got[2]
        assert cost[3] != clean[0][3]
        np.testing.assert_array_equal(np.delete(cost, 3), np.delete(clean[0], 3))
        assert np.array_equal(logs[3], logs0[3]) == (limit is None and lam_below > 1e12)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_trial_cost_is_rejected(self, monkeypatch):
        u, y_data, logs0, a0 = self._poison_setup(22)
        clean = fit._lockstep_lm(u, y_data, logs0, 1, _L_BOUNDS, 200)
        poison = _PoisonedSolve(np.linalg.solve, a0, 2e-3, scale=1e300)
        monkeypatch.setattr(np.linalg, "solve", poison)
        cost, _, _, _ = _assert_matches_serial(u, y_data, logs0, 1, 200)
        assert poison.hits > 0
        assert np.all(np.isfinite(cost))
        assert cost[3] != clean[0][3]


# ---------------------------------------------------------------------------
# the lockstep kernels, start by start, against the serial loop's pieces

_KERNEL_CASES = [(s, m, rows) for s in (1, 2, 16) for m in (0, 1, 3) for rows in (40, 300)]


class TestKernelsMatchSerial:
    @pytest.mark.parametrize("s,m,rows", _KERNEL_CASES)
    def test_model_db_rows(self, s, m, rows):
        rng = np.random.default_rng(2000 + 100 * s + 10 * m + rows)
        u, _, logs = _noisy_problem(rng, m, 4, rows, s)
        c = rng.uniform(-50.0, 150.0, s)
        got = fit._model_db(c, fit._weights(logs), m, u)
        assert got.shape == (s, rows)
        for i in range(s):
            want = _oracles._serial_model_db(float(c[i]), logs[i, :m], logs[i, m:], u)
            assert got[i].tobytes() == want.tobytes(), f"start {i}"

    @pytest.mark.parametrize("s,m,rows", _KERNEL_CASES)
    def test_normal_equations_per_start(self, s, m, rows):
        rng = np.random.default_rng(3000 + 100 * s + 10 * m + rows)
        u, _, logs = _noisy_problem(rng, m, 4, rows, s)
        r = rng.normal(0.0, 3.0, (s, rows))
        p = m + 5
        eqs = fit._normal_equations(fit._weights(logs), m, u, r)
        assert eqs.shape == (s, p, p + 2)
        for i in range(s):
            jac = _oracles._serial_jacobian(logs[i, :m], logs[i, m:], u)
            a, g = jac.T @ jac, jac.T @ r[i]
            assert eqs[i, :, :p].tobytes() == a.tobytes(), f"start {i}: J^T J"
            assert (-eqs[i, :, p]).tobytes() == g.tobytes(), f"start {i}: J^T r"
            diag = np.diag(a).copy()
            diag[diag <= 0.0] = 1.0
            assert eqs[i, :, p + 1].tobytes() == diag.tobytes(), f"start {i}: damping"

    @pytest.mark.parametrize("m", (0, 1, 3))
    def test_copies_of_one_start_agree(self, m):
        rng = np.random.default_rng(4000 + m)
        u, y_data, logs0 = _noisy_problem(rng, m, 4, 300, 1)
        alone = fit._lockstep_lm(u, y_data, logs0, m, _L_BOUNDS, 200)
        copies = fit._lockstep_lm(u, y_data, np.repeat(logs0, 16, axis=0), m, _L_BOUNDS, 200)
        for got, want in zip(copies, alone):
            assert got.shape[0] == 16
            for row in got:
                assert np.asarray(row).tobytes() == np.asarray(want[0]).tobytes()


# ---------------------------------------------------------------------------
# the two-phase multistart against a serial composition of the per-start loop


def _serial_fit(table, cfg):
    """fit_polezero as plain loops over gauss_newton_serial: every draw for
    _SCREEN_ITERS accepted steps, a stable ranking by cost with non-finite
    costs last, then the best _POLISHED draws from their screened corners
    for _MAX_ITERS steps.  Returns the polished starts' first corners, one
    row each, and (cost, offset, log zeros, log poles, residuals) of the
    first polished start of least cost."""
    lo, hi = cfg.f_range
    u = np.square(table.frequencies)
    y_data = 10.0 * np.log10(table.values)
    l_bounds = (math.log(lo) - 16.0, math.log(hi) + 16.0)
    m = cfg.n_zeros
    draws = np.random.default_rng(cfg.seed).uniform(
        math.log(lo), math.log(hi), (cfg.multistarts, m + cfg.n_poles)
    )
    screened = [
        _oracles.gauss_newton_serial(u, y_data, d[:m], d[m:], l_bounds, 10) for d in draws
    ]
    costs = [s[0] for s in screened]
    ranked = sorted(range(len(costs)), key=lambda i: (
        not math.isfinite(costs[i]), costs[i] if math.isfinite(costs[i]) else 0.0))
    starts = np.array([np.concatenate(screened[i][2:4]) for i in ranked[:4]])
    polished = [
        _oracles.gauss_newton_serial(u, y_data, s[:m], s[m:], l_bounds, 200) for s in starts
    ]
    return starts, min((p for p in polished if math.isfinite(p[0])), key=lambda p: p[0])


@pytest.fixture
def lm_calls(monkeypatch):
    """(max_iters, start corners) of every _lockstep_lm call, in order."""
    calls = []
    real = fit._lockstep_lm

    def spy(u, y_data, logs0, m, l_bounds, max_iters):
        calls.append((max_iters, logs0.copy()))
        return real(u, y_data, logs0, m, l_bounds, max_iters)

    monkeypatch.setattr(fit, "_lockstep_lm", spy)
    return calls


class TestTwoPhaseMatchesSerial:
    def test_phase_sizes(self):
        assert (fit._SCREEN_ITERS, fit._POLISHED, fit._MAX_ITERS) == (10, 4, 200)
        assert owclb.FitConfig(n_zeros=0, n_poles=1, f_range=(1.0, 2.0)).multistarts == 32

    @pytest.mark.parametrize("multistarts", [1, 3, 32])
    @pytest.mark.parametrize("m, n", [(0, 4), (1, 4), (2, 3)])
    def test_fit_is_the_serial_composition(self, lm_calls, m, n, multistarts):
        rng = np.random.default_rng(5000 + 10 * m + n)
        model = owclb.MagSqPoleZeroGnr(
            gnr0=10.0 ** rng.uniform(2, 10),
            zeros=tuple(10.0 ** rng.uniform(5.5, 8.5, m)),
            poles=tuple(10.0 ** rng.uniform(5.5, 8.5, n)),
        )
        freqs = np.geomspace(_LO, _HI, 300)
        table = owclb.ResponseTable(
            frequencies=freqs, values=model(freqs) * 10.0 ** (rng.normal(0.0, 0.1, 300) / 10.0)
        )
        cfg = owclb.FitConfig(n_zeros=m, n_poles=n, f_range=(_LO, _HI), multistarts=multistarts,
                              seed=int(rng.integers(1000)))
        got = owclb.fit_polezero(table, cfg)
        starts, (cost, c, log_z, log_p, r) = _serial_fit(table, cfg)
        # the polish starts from the ranked draws' screened corners
        assert [k for k, _ in lm_calls] == [10, 200]
        assert lm_calls[1][1].tobytes() == starts.tobytes()
        assert got.per_point_residuals.tobytes() == r.tobytes()
        assert got.rms_db_error == float(np.sqrt(np.mean(np.square(r))))
        assert got.model.gnr0 == 10.0 ** (c / 10.0)
        assert got.model.zeros == tuple(float(np.exp(l)) for l in np.sort(log_z))
        assert got.model.poles == tuple(float(np.exp(l)) for l in np.sort(log_p))

    def test_first_16_of_32_draws_are_the_16_draws(self, lm_calls):
        # the screen is handed the generator's draws row by row, so 32 draws
        # extend 16 and a fit can only gain from the added ones
        table = owclb.read_response_table(Path(__file__).parent / "data" / "fit_table_ref300.csv")
        for starts in (16, 32):
            cfg = owclb.FitConfig(n_zeros=1, n_poles=4, f_range=(1e5, 1e9), multistarts=starts, seed=150)
            owclb.fit_polezero(table, cfg)
        screens = [logs0 for k, logs0 in lm_calls if k == fit._SCREEN_ITERS]
        assert [s.shape for s in screens] == [(16, 5), (32, 5)]
        assert screens[1][:16].tobytes() == screens[0].tobytes()
