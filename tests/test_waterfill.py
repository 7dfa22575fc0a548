import math

import numpy as np
import pytest
from scipy.optimize import brentq

import owclb

import _oracles
from conftest import random_monotone_model


def uniform_grid(f_chip: float, k: int) -> np.ndarray:
    return (f_chip / k) * np.arange(1, k + 1)


def subcarriers(g, k, f_chip: float) -> owclb.SubcarrierGrid:
    """g sampled on the k subcarriers that newton_fmax solves on."""
    return owclb.SubcarrierGrid.from_model(g, k, f_chip)


class TestPsdOpt:
    def test_zero_at_fmax(self, ref_model, gap):
        assert owclb.psd_opt(ref_model, gap, 30e6, 30e6) == 0.0

    def test_single_pole_at_dc(self):
        g = owclb.MagSqPoleZeroGnr(gnr0=5e8, poles=(4e6,))
        gamma = 2.0
        # water level at f_max = f_p is twice the DC inverse-GNR
        assert owclb.psd_opt(g, gamma, 4e6, 0.0) == pytest.approx(gamma / 5e8, rel=1e-12)

    def test_flat_model_degenerates_to_zero(self):
        g = owclb.MagSqPoleZeroGnr(gnr0=1e9)
        for f in (0.0, 1e6, 5e7):
            assert owclb.psd_opt(g, 1.0, 1e8, f) == 0.0

    def test_never_negative(self, ref_model, gap):
        f = np.linspace(0.0, 250e6, 500)
        s = owclb.psd_opt(ref_model, gap, 120e6, f)
        assert np.all(s >= 0.0)
        assert np.all(s[f >= 120e6] == 0.0)

    def test_non_monotone_rejected(self, bump_model):
        with pytest.raises(owclb.NonMonotoneGnrError, match="waterlevel_solve"):
            owclb.psd_opt(bump_model, 1.0, 500e6, 1e6)

    def test_array_matches_scalar(self, ref_model, gap):
        freqs = np.linspace(0.0, 80e6, 33)
        vec = owclb.psd_opt(ref_model, gap, 60e6, freqs)
        for f, v in zip(freqs, vec):
            assert owclb.psd_opt(ref_model, gap, 60e6, float(f)) == v


class TestSigma2:
    def test_single_pole_closed_form(self):
        g = owclb.MagSqPoleZeroGnr(gnr0=3e9, poles=(7e6,))
        gamma = 4.0
        expect = (2.0 / 3.0) * (gamma / 3e9) * 7e6
        assert owclb.sigma2_of_fmax(g, gamma, 7e6) == pytest.approx(expect, rel=1e-12)

    def test_zero_bandwidth(self, ref_model, gap):
        assert owclb.sigma2_of_fmax(ref_model, gap, 0.0) == 0.0

    def test_reference_against_quadrature(self, ref_model, gap):
        got = owclb.sigma2_of_fmax(ref_model, gap, 50e6)
        want = _oracles.mp_sigma2(ref_model, gap.gamma_linear, 50e6)
        assert got == pytest.approx(want, rel=1e-9)

    def test_repeated_zero_matches_oracle(self):
        g = owclb.MagSqPoleZeroGnr(
            gnr0=1e9, zeros=(20e6, 20e6), poles=(1e6, 2e6, 5e6, 8e6)
        )
        assert owclb.is_monotone_decreasing(g, 1e8)
        got = owclb.sigma2_of_fmax(g, 1.0, 6e7)
        want = _oracles.mp_sigma2(g, 1.0, 6e7)
        assert got == pytest.approx(want, rel=1e-12)

    def test_scales_linearly_in_gap_over_gnr0(self, ref_model):
        base = owclb.sigma2_of_fmax(ref_model, 2.0, 40e6)
        assert owclb.sigma2_of_fmax(ref_model, 6.0, 40e6) == pytest.approx(
            3.0 * base, rel=1e-12
        )
        half_gain = owclb.MagSqPoleZeroGnr(
            gnr0=ref_model.gnr0 / 2.0, zeros=ref_model.zeros, poles=ref_model.poles
        )
        assert owclb.sigma2_of_fmax(half_gain, 2.0, 40e6) == pytest.approx(
            2.0 * base, rel=1e-12
        )

    def test_strictly_increasing_in_fmax(self, ref_model, gap):
        fmaxes = np.geomspace(1e5, 2e8, 30)
        vals = [owclb.sigma2_of_fmax(ref_model, gap, f) for f in fmaxes]
        assert np.all(np.diff(vals) > 0.0)


# Corners spread over four decades: the partial-fraction closed form this
# integral replaced returned -2194 V^2 here at Gamma = 1.
SPREAD_MODEL = owclb.MagSqPoleZeroGnr(
    gnr0=15450.707620194267,
    zeros=(27361097.031306818, 221626771.02612427),
    poles=(103494.54251754828, 430201.5334753852, 628500.0848039133,
           706663.1171422418, 1387216.535175772, 109617949.22905576),
)


def _with_pairs(g, zeros, poles):
    """g times one decreasing factor (1+f^2/z^2)/(1+f^2/p^2) per pair, p <= z."""
    return owclb.MagSqPoleZeroGnr(
        gnr0=g.gnr0, zeros=g.zeros + tuple(zeros), poles=g.poles + tuple(poles)
    )


def _sigma2_case(rng, kind):
    g = random_monotone_model(rng)
    z = 10.0 ** rng.uniform(5, 9)
    if kind in ("repeated", "near-repeated"):
        copies = int(rng.integers(2, 4))
        poles = z * 10.0 ** rng.uniform(-2, 0, copies)
        if kind == "repeated":
            zeros = (z,) * copies
        else:
            zeros = z * (1.0 + np.append(0.0, 10.0 ** rng.uniform(-12, -6, copies - 1)))
        g = _with_pairs(g, zeros, poles)
    elif kind == "cancelling":
        g = _with_pairs(g, [z * (1.0 + 10.0 ** rng.uniform(-8, -2))], [z])
    return g, 10.0 ** rng.uniform(3, 10)


class TestSigma2Oracle:
    @pytest.mark.parametrize(
        "kind, cases, rel",
        [("random", 25, 1e-12), ("repeated", 12, 1e-12),
         ("near-repeated", 12, 1e-12), ("cancelling", 12, 1e-9)],
    )
    def test_matches_multiprecision(self, kind, cases, rel):
        rng = np.random.default_rng(8)
        for _ in range(cases):
            g, f_max = _sigma2_case(rng, kind)
            assert owclb.is_monotone_decreasing(g, f_max)
            got = owclb.sigma2_of_fmax(g, 1.0, f_max)
            assert got == pytest.approx(_oracles.mp_sigma2(g, 1.0, f_max), rel=rel), (g, f_max)

    def test_corners_spread_over_decades(self):
        for f_max in (1e3, 72477.97, 1e6, 3e7):
            got = owclb.sigma2_of_fmax(SPREAD_MODEL, 1.0, f_max)
            want = _oracles.mp_sigma2(SPREAD_MODEL, 1.0, f_max)
            assert got == pytest.approx(want, rel=1e-12)
        assert owclb.sigma2_of_fmax(SPREAD_MODEL, 1.0, 72477.97) == pytest.approx(1.8121, rel=1e-4)


class TestRateClosedForm:
    def test_flat_model_zero_rate(self):
        g = owclb.MagSqPoleZeroGnr(gnr0=123.0)
        assert owclb.rate_closed_form(g, 1.0, 5e7) == 0.0

    def test_single_pole_value(self):
        g = owclb.MagSqPoleZeroGnr(gnr0=1e7, poles=(6e6,))
        expect = (2.0 / math.log(2.0)) * 6e6 * (1.0 - math.pi / 4.0)
        got = owclb.rate_closed_form(g, 1.0, 6e6)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(0.61924 * 6e6, rel=1e-4)

    def test_reference_against_quadrature(self, ref_model, gap):
        got = owclb.rate_closed_form(ref_model, gap, 30e6)
        want = _oracles.quad_rate(ref_model, 30e6)
        assert got == pytest.approx(want, rel=1e-6)

    def test_independent_of_gap_and_gnr0(self, ref_model):
        base = owclb.rate_closed_form(ref_model, 1.0, 45e6)
        rescaled = owclb.MagSqPoleZeroGnr(
            gnr0=ref_model.gnr0 * 7.3e4, zeros=ref_model.zeros, poles=ref_model.poles
        )
        assert owclb.rate_closed_form(rescaled, 9.9, 45e6) == base  # bitwise

    def test_strictly_increasing_in_fmax(self, ref_model, gap):
        fmaxes = np.geomspace(1e5, 2e8, 30)
        vals = [owclb.rate_closed_form(ref_model, gap, f) for f in fmaxes]
        assert np.all(np.diff(vals) > 0.0)

    def test_non_monotone_rejected(self, bump_model):
        with pytest.raises(owclb.NonMonotoneGnrError):
            owclb.rate_closed_form(bump_model, 1.0, 500e6)

    def test_random_models_match_quadrature(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            g = random_monotone_model(rng)
            f_max = 10.0 ** rng.uniform(
                math.log10(min(g.poles) / 3.0), math.log10(3.0 * max(g.poles + g.zeros))
            )
            got = owclb.rate_closed_form(g, 1.0, f_max)
            want = _oracles.quad_rate(g, f_max)
            assert got == pytest.approx(want, rel=1e-6)


class TestDerivative:
    def test_single_pole_expression(self):
        g = owclb.MagSqPoleZeroGnr(gnr0=2e9, poles=(5e6,))
        gamma = 3.0
        f = 2e6
        expect = 2.0 * gamma * f**2 / (2e9 * (5e6) ** 2)
        assert owclb.dsigma2_dfmax(g, gamma, f) == pytest.approx(expect, rel=1e-12)

    def test_vanishes_quadratically_at_origin(self, ref_model, gap):
        d1 = owclb.dsigma2_dfmax(ref_model, gap, 1e2)
        d2 = owclb.dsigma2_dfmax(ref_model, gap, 2e2)
        assert d2 == pytest.approx(4.0 * d1, rel=1e-6)

    def test_matches_finite_differences(self, ref_model, gap):
        f = 10e6
        fd = _oracles.central_diff(
            lambda x: owclb.sigma2_of_fmax(ref_model, gap, x), f, 1e3
        )
        assert owclb.dsigma2_dfmax(ref_model, gap, f) == pytest.approx(fd, rel=1e-6)

    def test_log_grid_finite_differences(self, ref_model, gap):
        for f in np.geomspace(3e5, 1.5e8, 20):
            fd = _oracles.central_diff(
                lambda x: owclb.sigma2_of_fmax(ref_model, gap, x), f, f * 1e-4
            )
            assert owclb.dsigma2_dfmax(ref_model, gap, f) == pytest.approx(fd, rel=1e-6)

    def test_positive_for_strictly_decreasing_gnr(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_monotone_model(rng)
            for f in np.geomspace(1e4, 5e9, 12):
                assert owclb.dsigma2_dfmax(g, 1.0, f) >= 0.0


SOLUTION_FIELDS = ("f_max", "water_level", "f_hz", "psd", "gnr", "sigma2", "rate",
                   "island", "saturated", "iterations")


def assert_same_solution(sol, ref):
    for name in SOLUTION_FIELDS:
        got, want = getattr(sol, name), getattr(ref, name)
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes(), name
        else:
            assert type(got) is type(want) and got == want, name


def _newton_case(rng):
    """A random monotone model, K, f_chip and budget: half the budgets
    absolute in 1e-20..1e20, half relative to the full-band grid power."""
    while True:
        g = random_monotone_model(rng)
        k = int(rng.choice([2, 3, 8, 64, 256, 1024]))
        f_chip = float(10.0 ** rng.uniform(6.0, 9.5))
        if owclb.is_monotone_decreasing(g, f_chip):
            break
    gamma = float(10.0 ** rng.uniform(0.0, 1.0))
    if rng.random() < 0.5:
        return g, gamma, float(10.0 ** rng.uniform(-20.0, 20.0)), k, f_chip
    w = gamma / g.evaluate(uniform_grid(f_chip, k))
    full = (f_chip / k) * float(np.sum(w[-1] - w))
    return g, gamma, full * float(10.0 ** rng.uniform(-9.0, 0.3)), k, f_chip


class TestNewton:
    def test_single_pole_budget_inverse(self):
        g = owclb.MagSqPoleZeroGnr(gnr0=1e9, poles=(10e6,))
        gamma = 2.0
        budget = (2.0 / 3.0) * (gamma / 1e9) * 10e6
        sol = owclb.newton_fmax(g, gamma, budget, subcarriers(g, 512, 200e6))
        delta = 200e6 / 512
        assert abs(sol.f_max - 10e6) <= delta
        assert sol.sigma2 <= budget

    def test_tiny_budget_snaps_to_first_subcarrier(self, ref_model, gap):
        sol = owclb.newton_fmax(ref_model, gap, 1e-30, subcarriers(ref_model, 64, 200e6))
        assert sol.f_max == 200e6 / 64
        assert sol.sigma2 == 0.0
        assert not sol.saturated

    def test_saturation_clamped_at_chip(self, ref_model, gap):
        sol = owclb.newton_fmax(ref_model, gap, 1e30, subcarriers(ref_model, 64, 200e6))
        assert sol.saturated
        assert sol.f_max == 200e6
        assert sol.sigma2 <= 1e30

    def test_exit_contract(self, ref_model, gap):
        k, f_chip = 64, 200e6
        delta = f_chip / k
        w = gap.gamma_linear / ref_model.evaluate(uniform_grid(f_chip, k))

        def power(ks):
            return delta * float(np.sum(np.maximum(0.0, w[ks - 1] - w[:ks])))

        grid = subcarriers(ref_model, k, f_chip)
        for budget in np.geomspace(1e2, 3e9, 15):
            sol = owclb.newton_fmax(ref_model, gap, float(budget), grid)
            ks = int(round(sol.f_max / delta))
            assert sol.sigma2 <= budget
            assert sol.sigma2 == pytest.approx(power(ks), rel=1e-12, abs=0.0)
            if ks < k and not sol.saturated:
                assert power(ks + 1) > budget

    def test_iteration_count_stays_small(self, ref_model, gap):
        full = owclb.sigma2_of_fmax(ref_model, gap, 200e6)
        grid = subcarriers(ref_model, 64, 200e6)
        for frac in np.geomspace(1e-6, 0.99, 25):
            sol = owclb.newton_fmax(ref_model, gap, full * float(frac), grid)
            assert sol.iterations <= 20

    def test_kkt_conditions(self, ref_model, gap):
        sol = owclb.newton_fmax(ref_model, gap, 1e7, subcarriers(ref_model, 64, 200e6))
        w = gap.gamma_linear / ref_model.evaluate(sol.f_hz)
        assert np.all(sol.psd >= 0.0)
        support = sol.psd > 0.0
        np.testing.assert_allclose(
            sol.psd[support] + w[support], sol.water_level, rtol=1e-12
        )
        slack = sol.psd * (sol.water_level - w - sol.psd)
        assert np.all(np.abs(slack) <= 1e-12 * sol.water_level**2)

    def test_sigma2_consistent_with_psd_samples(self, ref_model, gap):
        sol = owclb.newton_fmax(ref_model, gap, 2e8, subcarriers(ref_model, 64, 200e6))
        delta = sol.f_hz[1] - sol.f_hz[0]
        assert sol.sigma2 == pytest.approx(delta * float(np.sum(sol.psd)), rel=1e-12)

    def test_rate_sweep_monotone_and_tracks_continuous_curve(self, ref_model, gap):
        full = owclb.sigma2_of_fmax(ref_model, gap, 200e6)
        budgets = np.geomspace(full * 1e-5, full * 0.9, 25)
        grid = subcarriers(ref_model, 512, 200e6)
        rates = np.array([owclb.newton_fmax(ref_model, gap, float(b), grid).rate for b in budgets])
        assert np.all(np.diff(rates) >= 0.0)
        # continuous counterpart: invert sigma2(f_max) = budget, then the
        # closed-form rate; the grid solution sits below it (right-endpoint
        # sums of a decreasing integrand) but tracks it
        cont = []
        for b in budgets:
            f_star = brentq(
                lambda f: owclb.sigma2_of_fmax(ref_model, gap, f) - b, 1e3, 200e6
            )
            cont.append(owclb.rate_closed_form(ref_model, gap, f_star))
        cont = np.array(cont)
        assert np.all(rates <= cont * (1.0 + 1e-12))
        assert np.all(cont - rates <= 0.06 * cont)
        # rate versus power is concave on the continuous curve
        lin_budgets = np.linspace(full * 1e-3, full * 0.9, 20)
        lin_rates = []
        for b in lin_budgets:
            f_star = brentq(
                lambda f: owclb.sigma2_of_fmax(ref_model, gap, f) - b, 1e3, 200e6
            )
            lin_rates.append(owclb.rate_closed_form(ref_model, gap, f_star))
        curv = np.diff(lin_rates, 2)
        assert np.all(curv <= 1e-9 * max(lin_rates))

    def test_non_monotone_rejected(self, bump_model):
        with pytest.raises(owclb.NonMonotoneGnrError):
            owclb.newton_fmax(bump_model, 1.0, 1e6, subcarriers(bump_model, 64, 1e9))

    @pytest.mark.parametrize("cap", [0, 1, 2, 3, None])
    def test_matches_first_search(self, monkeypatch, cap):
        # caps 0-3 hand the search to the bracket midpoints early
        if cap is not None:
            monkeypatch.setattr(owclb.waterfill, "_NEWTON_MAX_ITERS", cap)
        rng = np.random.default_rng(2024 + (cap or 0))
        for _ in range(80):
            case = _newton_case(rng)
            g, gamma, budget, k, f_chip = case
            sol = owclb.newton_fmax(g, gamma, budget, subcarriers(g, k, f_chip))
            assert_same_solution(sol, _oracles.newton_fmax_search(*case))
            if cap is not None:
                assert sol.iterations <= cap

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf, 5e-324])
    @pytest.mark.parametrize("fails_at", [1, 2, 4])
    def test_unusable_derivative_hands_off_to_midpoints(self, monkeypatch, ref_model, gap,
                                                        bad, fails_at):
        # 5e-324 makes the Newton step overflow to a non-finite f_max
        calls = []
        exact = owclb.waterfill.dsigma2_dfmax

        def flaky(g, gamma, f_max):
            calls.append(f_max)
            return bad if len(calls) >= fails_at else exact(g, gamma, f_max)

        monkeypatch.setattr(owclb.waterfill, "dsigma2_dfmax", flaky)
        for budget in (3e5, 1e7, 2e8):
            for k in (64, 1024):
                calls.clear()
                sol = owclb.newton_fmax(ref_model, gap, budget, subcarriers(ref_model, k, 200e6))
                attempts = len(calls)
                calls.clear()
                ref = _oracles.newton_fmax_search(ref_model, gap, budget, k, 200e6)
                assert_same_solution(sol, ref)
                assert sol.iterations == attempts <= fails_at

    def test_invalid_budget(self, ref_model, gap):
        with pytest.raises(ValueError):
            owclb.newton_fmax(ref_model, gap, 0.0, subcarriers(ref_model, 64, 200e6))

    def test_invalid_k(self, ref_model, gap):
        with pytest.raises(ValueError, match="K must be an integer >= 2, got 1"):
            owclb.newton_fmax(ref_model, gap, 1.0, subcarriers(ref_model, 1, 200e6))
        with pytest.raises(ValueError):
            owclb.newton_fmax(ref_model, gap, 1.0, subcarriers(ref_model, 64.0, 200e6))


class TestWaterlevel:
    def test_matches_newton_at_same_realized_power(self, ref_model, gap):
        k, f_chip = 64, 200e6
        grid = subcarriers(ref_model, k, f_chip)
        for budget in (1e4, 1e6, 1e8):
            sol_n = owclb.newton_fmax(ref_model, gap, budget, grid)
            if sol_n.sigma2 == 0.0:
                continue
            sol_w = owclb.waterlevel_solve(grid, gap, sol_n.sigma2)
            assert sol_w.rate == pytest.approx(sol_n.rate, rel=1e-6)
            # f_max bookkeeping may differ by one cell: the Newton solution
            # reports the snapped water-level frequency, where S is exactly 0
            assert abs(sol_w.f_max - sol_n.f_max) <= f_chip / k + 1e-9
            np.testing.assert_allclose(sol_w.psd, sol_n.psd, rtol=1e-6, atol=1e-9 * sol_n.water_level)

    def test_power_converges_to_budget(self, ref_model, gap):
        grid = subcarriers(ref_model, 256, 200e6)
        sol = owclb.waterlevel_solve(grid, gap, 5e7)
        assert sol.sigma2 == pytest.approx(5e7, rel=1e-9)

    def test_bump_model_mid_budget_has_island(self, bump_model):
        grid = subcarriers(bump_model, 4096, 1e9)
        sol = owclb.waterlevel_solve(grid, 1.0, 4.85e9)
        assert sol.island
        lo, hi = sol.island[0]
        assert 0.0 < lo < hi < sol.f_max
        inside = (sol.f_hz >= lo) & (sol.f_hz <= hi)
        assert np.all(sol.psd[inside] == 0.0)
        # both shores of the island carry power
        assert np.any(sol.psd[sol.f_hz < lo] > 0.0)
        assert np.any(sol.psd[sol.f_hz > hi] > 0.0)

    def test_islands_match_scan(self):
        # rough random GNR tables give many islands, at either end and one
        # sample wide
        rng = np.random.default_rng(11)
        found = 0
        for _ in range(300):
            n = int(rng.integers(2, 40))
            grid = owclb.SubcarrierGrid(K=n, f_chip=float(n), gnr_k=10.0 ** rng.uniform(-3.0, 3.0, n))
            w_span = grid.f_chip / float(np.min(grid.gnr_k))
            budget = w_span * float(10.0 ** rng.uniform(-4.0, 0.0))
            sol = owclb.waterlevel_solve(grid, 1.0, budget)
            assert sol.island == _oracles.island_scan(sol)
            found += len(sol.island) > 1
        assert found > 50

    def test_bump_model_large_budget_island_empty(self, bump_model):
        grid = subcarriers(bump_model, 4096, 1e9)
        sol = owclb.waterlevel_solve(grid, 1.0, 1.6e11)
        assert sol.island == ()
        assert np.all(sol.psd[sol.f_hz < sol.f_max] > 0.0)

    def test_kkt_pointwise(self, bump_model):
        grid = subcarriers(bump_model, 2048, 1e9)
        sol = owclb.waterlevel_solve(grid, 1.0, 4.85e9)
        w = 1.0 / bump_model.evaluate(sol.f_hz)
        assert np.all(sol.psd >= 0.0)
        slack = sol.psd * (sol.water_level - w - sol.psd)
        assert np.all(np.abs(slack) <= 1e-12 * sol.water_level**2)
        support = sol.psd > 0.0
        np.testing.assert_allclose(
            sol.psd[support] + w[support], sol.water_level, rtol=1e-12
        )

    def test_flat_channel_uniform_spread(self):
        g = owclb.MagSqPoleZeroGnr(gnr0=1e6)
        for k in (100, 1):  # K = 1: the one cell takes the whole budget
            sol = owclb.waterlevel_solve(subcarriers(g, k, 1e8), 1.0, 1.0)
            np.testing.assert_allclose(sol.psd, 1.0 / 1e8, rtol=1e-9)

    def test_small_budget_lifts_the_cheapest_cell(self):
        # a bisection to a power tolerance gave up here; the exact level does not
        g = owclb.MagSqPoleZeroGnr(gnr0=1e6, poles=(1e7,))
        grid = subcarriers(g, 64, 200e6)
        sol = owclb.waterlevel_solve(grid, 1.0, 1e-9)
        assert sol.f_max == grid.f_k[0]
        assert sol.island == ()
        assert sol.iterations == 0
        assert sol.water_level > 1.0 / float(g.evaluate(grid.f_k[0]))
        assert sol.sigma2 == pytest.approx(1e-9, rel=1e-6)

    def test_budget_lost_in_rounding_has_no_active_cell(self):
        g = owclb.MagSqPoleZeroGnr(gnr0=1e6, poles=(1e7,))
        with pytest.raises(RuntimeError, match="no active frequencies"):
            owclb.waterlevel_solve(subcarriers(g, 64, 200e6), 1.0, 1e-30)

    def test_budget_must_be_positive(self, ref_model, gap):
        with pytest.raises(ValueError):
            owclb.waterlevel_solve(subcarriers(ref_model, 16, 1e8), gap, 0.0)
        with pytest.raises(ValueError):
            owclb.waterlevel_solve(subcarriers(ref_model, 16, 1e8), gap, -1.0)

    def test_budget_message_prints_a_plain_float(self, ref_model, gap):
        grid = subcarriers(ref_model, 16, 1e8)
        for solve in (
            lambda b: owclb.waterlevel_solve(grid, gap, b),
            lambda b: owclb.newton_fmax(ref_model, gap, b, grid),
        ):
            with pytest.raises(ValueError, match=r"^sigma2_budget must be > 0, got -1\.0$"):
                solve(np.float64(-1.0))

    def test_accepts_plain_callable(self, gap):
        grid = owclb.SubcarrierGrid.from_model(lambda f: 1e9 / (1.0 + (f / 1e7) ** 2), 64, 1e8)
        sol = owclb.waterlevel_solve(grid, gap, 1.0)
        assert sol.sigma2 == pytest.approx(1.0, rel=1e-9)

    def test_non_reducible_chain_beats_greedy_loading_on_one_grid(self):
        # a Gaussian fiber stage has no pole-zero form: sample it once and
        # give the same grid and budget to the exact level and to the loader
        chain = owclb.LinkChain(
            stages=(
                owclb.FirstOrderLowPass(dc_gain=1.0, corner=20e6),
                owclb.GaussianLowPass(dc_gain=1.0, corner=80e6),
            ),
            noise=owclb.NoiseSpectrum(floor=1e-12),
        )
        grid = owclb.SubcarrierGrid.from_model(lambda f: owclb.gnr_eval(chain, f), 256, 200e6)
        for budget in (1e-4, 1e-2, 1.0):
            sol = owclb.waterlevel_solve(grid, 1.0, budget)
            assert sol.sigma2 == pytest.approx(budget, rel=1e-9)
            assert owclb.hh_naive(grid, 1.0, budget).rate <= sol.rate

    def test_resonant_laser_gets_leading_island(self):
        # a peaked laser lifts the GNR around its relaxation frequency; at a
        # water level below the DC inverse-GNR, power concentrates around
        # the resonance and the low band is excluded entirely
        chain = owclb.LinkChain(
            stages=(owclb.LaserSecondOrder(dc_gain=1.0, relaxation_freq=2e9, damping=1e9),),
            noise=owclb.NoiseSpectrum(floor=1e-18),
        )

        def gnr_fn(f):
            return np.asarray(owclb.gnr_eval(chain, f))

        grid = owclb.SubcarrierGrid.from_model(gnr_fn, 2048, 4e9)
        f = grid.f_k
        w = 1.0 / grid.gnr_k
        level = 0.5 * float(w[0])
        budget = grid.delta_b * float(np.sum(np.maximum(0.0, level - w)))
        sol = owclb.waterlevel_solve(grid, 1.0, budget)
        assert sol.island, "low band should be forced to zero power"
        lead_lo, lead_hi = sol.island[0]
        assert lead_lo == f[0]
        active = f[sol.psd > 0.0]
        # the resonance peak (just below f_R) carries power
        f_peak = f[np.argmax(grid.gnr_k)]
        assert active[0] <= f_peak <= active[-1]


def test_gap_from_db_overflow_is_value_error():
    assert owclb.ModulationGap.from_db(3000.0).gamma_linear == 1e300
    with pytest.raises(ValueError, match="modulation gap of 4000.0 dB overflows a float"):
        owclb.ModulationGap.from_db(4000.0)


def test_gnr_underflow_at_fmax_is_value_error():
    # GNR(2e8) = 1e-280 / (1 + (2e5)^2)^5 lies below the smallest subnormal
    g = owclb.MagSqPoleZeroGnr(gnr0=1e-280, poles=(1e3,) * 5)
    for call in (
        owclb.sigma2_of_fmax,
        lambda g, gap, f_max: owclb.psd_opt(g, gap, f_max, 1e6),
        owclb.dsigma2_dfmax,
    ):
        with pytest.raises(ValueError, match=r"^GNR at f_max=2e\+08 Hz is 0\.0, not > 0"):
            call(g, 1.0, 2e8)


class TestPowerMap:
    def test_identity_default(self):
        assert owclb.sigma2_from_power(3.5) == 3.5

    def test_monotone_map_inverted(self):
        sigma2 = owclb.sigma2_from_power(8.0, power_map=lambda s: 2.0 * s**2)
        assert sigma2 == pytest.approx(2.0, rel=1e-9)


class TestSolutionCsv:
    def test_round_trip(self, ref_model, gap, tmp_path):
        sol = owclb.newton_fmax(ref_model, gap, 3e7, subcarriers(ref_model, 64, 200e6))
        path = tmp_path / "sol.csv"
        owclb.write_solution_csv(sol, path)
        loaded = owclb.read_solution_csv(path)
        assert loaded.f_max == sol.f_max
        assert loaded.water_level == sol.water_level
        assert loaded.sigma2 == sol.sigma2
        assert loaded.rate == sol.rate
        assert loaded.saturated == sol.saturated
        np.testing.assert_array_equal(loaded.f_hz, sol.f_hz)
        np.testing.assert_array_equal(loaded.psd, sol.psd)
        np.testing.assert_array_equal(loaded.gnr, sol.gnr)

    def test_island_round_trip(self, bump_model, tmp_path):
        sol = owclb.waterlevel_solve(subcarriers(bump_model, 512, 1e9), 1.0, 4.85e9)
        path = tmp_path / "sol.csv"
        owclb.write_solution_csv(sol, path)
        loaded = owclb.read_solution_csv(path)
        assert loaded.island == sol.island


class TestRandomModelProperties:
    def test_closed_forms_agree_with_quadrature(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            g = random_monotone_model(rng)
            f_max = 2.0 * min(g.poles)
            sig = owclb.sigma2_of_fmax(g, 1.0, f_max)
            assert sig == pytest.approx(_oracles.mp_sigma2(g, 1.0, f_max), rel=1e-8)
