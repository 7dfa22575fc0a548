import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

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
        want = _oracles.mp_sigma2(ref_model, gap, 50e6)
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

    @pytest.mark.parametrize("f_max", [1e-300, 5e-301, 3e-299])
    def test_corners_whose_squares_underflow(self, f_max):
        # (F - f)(F + f) and fp^2 + f^2 both underflow to 0 here; the power is
        # homogeneous of degree 1 in the frequencies, so the oracle runs at 1e300 times them
        g = owclb.MagSqPoleZeroGnr(gnr0=1.0, poles=(1e-300, 1e-299, 1e6))
        scaled = owclb.MagSqPoleZeroGnr(gnr0=1.0, poles=(1.0, 10.0, 1e306))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = owclb.sigma2_of_fmax(g, 1.0, f_max)
        want = 1e-300 * _oracles.mp_sigma2(scaled, 1.0, f_max * 1e300)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_and_pole_far_below_every_node(self):
        # (c/F)^2 + r^2 underflows to 0 for both corners, so each log1p of
        # dist / 0 is inf; the terms are taken as log(dist) - 2 log(hypot(c/F, r))
        g = owclb.MagSqPoleZeroGnr(gnr0=1.0, zeros=(1e-200,), poles=(1e-210, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = owclb.sigma2_of_fmax(g, 1.0, 1e6)
        assert got == pytest.approx(_oracles.mp_sigma2(g, 1.0, 1e6), rel=1e-12)

    def test_corners_spread_over_decades(self):
        for f_max in (1e3, 72477.97, 1e6, 3e7):
            got = owclb.sigma2_of_fmax(SPREAD_MODEL, 1.0, f_max)
            want = _oracles.mp_sigma2(SPREAD_MODEL, 1.0, f_max)
            assert got == pytest.approx(want, rel=1e-12)
        assert owclb.sigma2_of_fmax(SPREAD_MODEL, 1.0, 72477.97) == pytest.approx(1.8121, rel=1e-4)


class TestRateClosedForm:
    def test_flat_model_zero_rate(self):
        g = owclb.MagSqPoleZeroGnr(gnr0=123.0)
        assert owclb.rate_closed_form(g, 5e7) == 0.0

    def test_single_pole_value(self):
        g = owclb.MagSqPoleZeroGnr(gnr0=1e7, poles=(6e6,))
        expect = (2.0 / math.log(2.0)) * 6e6 * (1.0 - math.pi / 4.0)
        got = owclb.rate_closed_form(g, 6e6)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(0.61924 * 6e6, rel=1e-4)

    def test_reference_against_quadrature(self, ref_model):
        got = owclb.rate_closed_form(ref_model, 30e6)
        want = _oracles.quad_rate(ref_model, 30e6)
        assert got == pytest.approx(want, rel=1e-6)

    def test_independent_of_gap_and_gnr0(self, ref_model):
        base = owclb.rate_closed_form(ref_model, 45e6)
        rescaled = owclb.MagSqPoleZeroGnr(
            gnr0=ref_model.gnr0 * 7.3e4, zeros=ref_model.zeros, poles=ref_model.poles
        )
        assert owclb.rate_closed_form(rescaled, 45e6) == base  # bitwise

    def test_strictly_increasing_in_fmax(self, ref_model):
        fmaxes = np.geomspace(1e5, 2e8, 30)
        vals = [owclb.rate_closed_form(ref_model, f) for f in fmaxes]
        assert np.all(np.diff(vals) > 0.0)

    def test_non_monotone_rejected(self, bump_model):
        with pytest.raises(owclb.NonMonotoneGnrError):
            owclb.rate_closed_form(bump_model, 500e6)

    def test_random_models_match_quadrature(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            g = random_monotone_model(rng)
            f_max = 10.0 ** rng.uniform(
                math.log10(min(g.poles) / 3.0), math.log10(3.0 * max(g.poles + g.zeros))
            )
            got = owclb.rate_closed_form(g, f_max)
            want = _oracles.quad_rate(g, f_max)
            assert got == pytest.approx(want, rel=1e-6)


class TestRateClosedFormArray:
    """``rate_closed_form`` on a 1-D array of f_max: the scalar calls' rates."""

    @staticmethod
    def points(rng):
        return np.concatenate(([0.0, -0.0], np.geomspace(1e3, 2e8, 40), np.linspace(0.0, 3e8, 9),
                               10.0 ** rng.uniform(3, 9, 10)))

    def test_equals_the_scalar_calls_bit_for_bit(self, ref_model, gap):
        rng = np.random.default_rng(31)
        models = [ref_model, owclb.MagSqPoleZeroGnr(gnr0=5.0)]
        models += [random_monotone_model(rng) for _ in range(20)]
        for g in models:
            f = self.points(rng)
            rates = owclb.rate_closed_form(g, f)
            assert isinstance(rates, np.ndarray) and rates.shape == f.shape
            scalar = [owclb.rate_closed_form(g, x) for x in f.tolist()]
            assert all(type(r) is float for r in scalar)
            assert rates.tobytes() == np.array(scalar).tobytes()
            ref = [_oracles.rate_closed_form_scalar(g, x) for x in f.tolist()]
            assert rates.tobytes() == np.array(ref).tobytes()
            assert rates[f == 0.0].tobytes() == np.zeros(np.sum(f == 0.0)).tobytes()

    def test_a_list_and_an_empty_array(self, ref_model):
        f = [0.0, 1e6, 3e7]
        assert owclb.rate_closed_form(ref_model, f).tolist() == [
            owclb.rate_closed_form(ref_model, x) for x in f
        ]
        assert owclb.rate_closed_form(ref_model, np.array([])).shape == (0,)
        with pytest.raises(ValueError, match=r"^f_max must be a number or a 1-D array, got shape \(2, 1\)$"):
            owclb.rate_closed_form(ref_model, np.ones((2, 1)))

    def test_one_monotone_check_at_the_largest_point(self, ref_model, monkeypatch):
        seen = []
        check = owclb.waterfill.is_monotone_decreasing
        monkeypatch.setattr(owclb.waterfill, "is_monotone_decreasing",
                            lambda g, f: seen.append(f) or check(g, f))
        owclb.rate_closed_form(ref_model, np.array([3e6, 0.0, 2e8, 1e5]))
        assert seen == [2e8]
        owclb.rate_closed_form(ref_model, np.zeros(3))
        assert seen == [2e8]

    @pytest.mark.parametrize("f", [
        [1e6, 5e8, 2e8, 9e8],  # rising from about 2.5e7 Hz: the first failing point is 5e8
        [1e6, -1.0, 5e8],
        [1e6, 5e8, math.nan],
        [0.0, math.inf, 5e8],
    ], ids=["rising", "negative", "rising-then-nan", "inf"])
    def test_raises_the_first_failing_scalar_call(self, bump_model, f):
        with pytest.raises(ValueError) as scalar:
            for x in f:
                owclb.rate_closed_form(bump_model, x)
        with pytest.raises(type(scalar.value)) as batch:
            owclb.rate_closed_form(bump_model, np.array(f))
        assert str(batch.value) == str(scalar.value)

    @pytest.mark.parametrize("f", [1e308, [1e300, 1e304, 1e308, 0.0]], ids=["scalar", "array"])
    def test_rate_past_the_float_range_is_refused(self, ref_model, f):
        # (N - M) f_max * 2/ln 2 passes the largest float: a ValueError naming f_max, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^rate at f_max=1e\+308 Hz passes the float range$"):
                owclb.rate_closed_form(ref_model, f)

    @pytest.mark.parametrize("zeros", [(), (1e-250,)], ids=["pole", "zero-and-pole"])
    def test_corner_far_below_1_hz_warns_nothing(self, zeros):
        # f/corner passes the float range, and atan(inf) = pi/2 is its exact limit
        g = owclb.MagSqPoleZeroGnr(gnr0=1.0, zeros=zeros, poles=(1e-300, 1e6))
        f = np.geomspace(1e5, 2e8, 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rates = owclb.rate_closed_form(g, f)
        ref = [_oracles.rate_closed_form_scalar(g, x) for x in f.tolist()]
        assert rates.tobytes() == np.array(ref).tobytes()



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

    @pytest.mark.parametrize("zeros", [(), (1e-300,)], ids=["pole", "zero-and-pole"])
    def test_denominator_that_underflows_is_no_zero_division(self, zeros):
        # 1e-300^2 + f_max^2 is 0 at f_max = 1e-300: the term is inf, the derivative no number
        g = owclb.MagSqPoleZeroGnr(gnr0=1.0, zeros=zeros, poles=(1e-300, 1e-299, 1e6))
        assert math.isnan(owclb.dsigma2_dfmax(g, 1.0, 1e-300))
        # which Newton takes as unusable: it ends at the power curve's exact count
        grid = owclb.SubcarrierGrid.from_model(g, 64, 1e-300)
        sol = owclb.newton_fmax(g, 1.0, 1e-303, grid)
        n = owclb.waterlevel_sweep(grid, 1.0, [1e-303])[0]
        assert sol.iterations == 1 and n[0] > 1 and sol.f_max == grid.f_k[n[0] - 1]

    def test_positive_for_strictly_decreasing_gnr(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_monotone_model(rng)
            for f in np.geomspace(1e4, 5e9, 12):
                assert owclb.dsigma2_dfmax(g, 1.0, f) >= 0.0


def assert_finishes_like_waterlevel(sol, grid, gamma, budget):
    """sigma2 within the budget, and on a nondecreasing w = Gamma/GNR_k the
    level, PSD, sigma2 and rate bit-equal to ``waterlevel_solve``'s; a
    budget lost in rounding next to w_1 loads nothing on either."""
    assert type(sol.sigma2) is float and sol.sigma2 <= budget
    w = gamma / grid.gnr_k
    if not np.all(np.diff(w) >= 0.0):
        return
    try:
        ref = owclb.waterlevel_solve(grid, gamma, budget)
    except RuntimeError:
        assert not sol.psd.any()
        return
    assert sol.water_level == ref.water_level and sol.rate == ref.rate
    assert sol.sigma2 == ref.sigma2 and sol.psd.tobytes() == ref.psd.tobytes()


def assert_matches_first_search(sol, ref, grid, gamma, budget):
    """f_max, the grid, ``saturated`` and ``iterations`` bit-equal to the
    first search's; the level, PSD, sigma2 and rate those of the exact level
    over the same cells (``assert_finishes_like_waterlevel``)."""
    for name in ("f_max", "f_hz", "gnr", "island", "saturated", "iterations"):
        got, want = getattr(sol, name), getattr(ref, name)
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes(), name
        else:
            assert type(got) is type(want) and got == want, name
    assert_finishes_like_waterlevel(sol, grid, gamma, budget)


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
    w = gamma / g(uniform_grid(f_chip, k))
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
        w = gap / ref_model(uniform_grid(f_chip, k))

        def power(ks):
            return delta * float(np.sum(np.maximum(0.0, w[ks - 1] - w[:ks])))

        grid = subcarriers(ref_model, k, f_chip)
        for budget in np.geomspace(1e2, 3e9, 15):
            sol = owclb.newton_fmax(ref_model, gap, float(budget), grid)
            ks = int(round(sol.f_max / delta))
            assert power(ks) <= budget
            assert_finishes_like_waterlevel(sol, grid, gap, float(budget))
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
        w = gap / ref_model(sol.f_hz)
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
            cont.append(owclb.rate_closed_form(ref_model, f_star))
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
            lin_rates.append(owclb.rate_closed_form(ref_model, f_star))
        curv = np.diff(lin_rates, 2)
        assert np.all(curv <= 1e-9 * max(lin_rates))

    def test_non_monotone_rejected(self, bump_model):
        with pytest.raises(owclb.NonMonotoneGnrError):
            owclb.newton_fmax(bump_model, 1.0, 1e6, subcarriers(bump_model, 64, 1e9))

    @pytest.mark.parametrize("cap", [0, 1, 2, 3, None])
    def test_matches_first_search(self, monkeypatch, cap):
        # caps 0-3 hand the search to the power curve's exact count early
        if cap is not None:
            monkeypatch.setattr(owclb.waterfill, "_NEWTON_MAX_ITERS", cap)
        rng = np.random.default_rng(2024 + (cap or 0))
        for _ in range(80):
            case = _newton_case(rng)
            g, gamma, budget, k, f_chip = case
            grid = subcarriers(g, k, f_chip)
            sol = owclb.newton_fmax(g, gamma, budget, grid)
            assert_matches_first_search(sol, _oracles.newton_fmax_search(*case), grid, gamma, budget)
            if cap is not None:
                assert sol.iterations <= cap

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf, 5e-324])
    @pytest.mark.parametrize("fails_at", [1, 2, 4])
    def test_unusable_derivative_takes_the_exact_count(self, monkeypatch, ref_model, gap,
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
                grid = subcarriers(ref_model, k, 200e6)
                sol = owclb.newton_fmax(ref_model, gap, budget, grid)
                attempts = len(calls)
                calls.clear()
                ref = _oracles.newton_fmax_search(ref_model, gap, budget, k, 200e6)
                assert_matches_first_search(sol, ref, grid, gap, budget)
                assert sol.iterations == attempts <= fails_at

    @pytest.mark.parametrize("k", [2, 64, 1024])
    def test_exact_count_on_the_curve(self, monkeypatch, ref_model, gap, k):
        # no Newton attempt: the count alone ends the search, also at budgets
        # equal to a curve value, where a count of values below it is one short
        monkeypatch.setattr(owclb.waterfill, "_NEWTON_MAX_ITERS", 0)
        grid = subcarriers(ref_model, k, 200e6)
        curve = np.array(_oracles.power_curve_in_order(grid, gap))
        for b in sweep_budgets(np.random.default_rng(k), curve):
            sol = owclb.newton_fmax(ref_model, gap, b, grid)
            n = round(sol.f_max / grid.delta_b)
            assert sol.iterations == 0 and curve[n - 1] <= b
            assert n == k or curve[n] > b
            assert_finishes_like_waterlevel(sol, grid, gap, b)

    def test_invalid_budget(self, ref_model, gap):
        with pytest.raises(ValueError):
            owclb.newton_fmax(ref_model, gap, 0.0, subcarriers(ref_model, 64, 200e6))

    def test_invalid_k(self, ref_model, gap):
        with pytest.raises(ValueError, match="K must be an integer >= 2, got 1"):
            owclb.newton_fmax(ref_model, gap, 1.0, subcarriers(ref_model, 1, 200e6))
        with pytest.raises(ValueError):
            owclb.newton_fmax(ref_model, gap, 1.0, subcarriers(ref_model, 64.0, 200e6))


def power_curve(grid, gamma):
    """The direct sums Delta_B * sum_k max(0, w_n - w_k), w = Gamma/GNR_k,
    with f_max at each subcarrier n = 1..K, one fresh sum per n."""
    w = gamma / grid.gnr_k
    d = grid.delta_b
    return np.array([d * float(np.sum(np.maximum(0.0, w[n - 1] - w[:n]))) for n in range(1, grid.K + 1)])


def crossings(power, budget):
    """How many n < K have power(n) <= budget < power(n + 1) (n 1-based)."""
    return int(np.sum((power[:-1] <= budget) & (power[1:] > budget)))


def sweep_budgets(rng, power, exact_count=48):
    """Log-spread budgets up to 2x the full band, plus up to ``exact_count``
    of the positive values power(n) and their two float neighbours."""
    exact = np.unique(power[power > 0.0])
    if exact.size > exact_count:
        exact = rng.choice(exact, exact_count, replace=False)
    budgets = [float(10.0 ** e) for e in rng.uniform(-30.0, 10.0, 8)]
    if exact.size:
        budgets += list(power[-1] * 10.0 ** rng.uniform(-9.0, math.log10(2.0), 24))
    budgets += list(exact) + list(np.nextafter(exact, 0.0)) + list(np.nextafter(exact, np.inf))
    return [float(b) for b in budgets if b > 0.0]


class TestWaterlevelSweep:
    @staticmethod
    def assert_matches_newton(g, gamma, budgets, grid):
        # on a nondecreasing Gamma/GNR_k the sweep's stable sort keeps the subcarrier order
        assert np.all(np.diff(gamma / grid.gnr_k) >= 0.0)
        n, rates = owclb.waterlevel_sweep(grid, gamma, budgets)
        curve = np.array(_oracles.power_curve_in_order(grid, gamma))
        assert np.all(np.diff(curve) >= 0.0)
        for b, lo, rate in zip(budgets, n.tolist(), rates.tolist()):
            sol = owclb.newton_fmax(g, gamma, b, grid)
            assert rate == sol.rate, b
            assert lo * grid.delta_b == sol.f_max
            # newton_fmax's exit contract on the power curve
            assert curve[lo - 1] <= b
            assert lo == grid.K or curve[lo] > b
        return n

    @pytest.mark.parametrize("k", [64, 1024])
    def test_reference_model(self, ref_model, gap, k):
        grid = subcarriers(ref_model, k, 200e6)
        budgets = sweep_budgets(np.random.default_rng(k), power_curve(grid, gap))
        self.assert_matches_newton(ref_model, gap, budgets, grid)

    def test_two_subcarriers(self, ref_model, gap):
        grid = subcarriers(ref_model, 2, 200e6)
        power = power_curve(grid, gap)
        budgets = [power[1] * f for f in (1e-9, 0.5, 1.0 - 1e-16, 1.0, 1.5)]
        n = self.assert_matches_newton(ref_model, gap, budgets, grid)
        assert n.tolist() == [1, 1, 1, 2, 2]

    def test_saturation(self, ref_model, gap):
        grid = subcarriers(ref_model, 64, 200e6)
        full = float(power_curve(grid, gap)[-1])
        budgets = [full, float(np.nextafter(full, np.inf)), 2.0 * full, 1e30]
        n = self.assert_matches_newton(ref_model, gap, budgets, grid)
        assert n.tolist() == [64] * 4

    @pytest.mark.parametrize(
        "g, k, f_chip",
        [
            (owclb.MagSqPoleZeroGnr(gnr0=5e6, zeros=(1.2e7,), poles=(7e6, 6e7)), 256, 1.0),
            (owclb.MagSqPoleZeroGnr(gnr0=1e6, zeros=(1.4e7,), poles=(2.3e6, 3.1e6, 3.5e6, 9.4e6)),
             1024, 1.0),
        ],
        ids=["two-pole", "reference-corners"],
    )
    def test_plateaus_of_equal_w(self, g, k, f_chip):
        # corners far above f_chip: runs of equal Gamma/GNR_k, and direct
        # sums that rise by less than their rounding error, so some budgets
        # cross them more than once; the curve crosses each budget once
        grid = subcarriers(g, k, f_chip)
        w = 2.0 / grid.gnr_k
        assert np.sum(np.diff(w) == 0.0) > 100
        power = power_curve(grid, 2.0)
        budgets = sweep_budgets(np.random.default_rng(k), power, exact_count=k)
        assert any(crossings(power, b) > 1 for b in budgets)
        # the triangle inequality: the curve bounds the direct sums from
        # above, up to the rounding of two sums of K nonnegative terms
        curve = np.array(_oracles.power_curve_in_order(grid, 2.0))
        assert np.all(curve >= power * (1.0 - 2.0 * (k + 4) * 2.0**-52))
        # w also falls by an ulp here and there, so the sweep's cost order is
        # not the subcarrier order: its rates are waterlevel_solve's, and
        # newton_fmax keeps its exit contract on the subcarrier-order curve
        assert np.any(np.diff(w) < 0.0)
        rates = owclb.waterlevel_sweep(grid, 2.0, budgets)[1]
        for b, rate in zip(budgets, rates.tolist()):
            lo = round(owclb.newton_fmax(g, 2.0, b, grid).f_max / grid.delta_b)
            assert curve[lo - 1] <= b and (lo == k or curve[lo] > b)
            try:
                assert rate == owclb.waterlevel_solve(grid, 2.0, b).rate
            except RuntimeError:  # the budget is lost in rounding next to w_(1)
                pass

    def test_newton_finishes_on_the_stable_cost_order(self):
        # w falls by an ulp at 17 places, inside the monotone check's
        # tolerance; Newton's level, PSD and rate are still the exact level's
        # over the stably sorted cells, at the plateau test's budgets and on
        # and just above every point of the sorted power curve
        g = owclb.MagSqPoleZeroGnr(gnr0=5e6, zeros=(1.2e7,), poles=(7e6, 6e7))
        grid = subcarriers(g, 256, 1.0)
        w = 2.0 / grid.gnr_k
        assert np.sum(np.diff(w) < 0.0) == 17
        budgets = sweep_budgets(np.random.default_rng(256), power_curve(grid, 2.0), exact_count=256)
        points = np.unique(owclb.waterfill._power_curve(np.sort(w, kind="stable"), grid.delta_b))
        points = points[points > 0.0]
        budgets += points.tolist() + np.nextafter(points, np.inf).tolist()
        rates = owclb.waterlevel_sweep(grid, 2.0, budgets)[1]
        for b, rate in zip(budgets, rates.tolist()):
            sol = owclb.newton_fmax(g, 2.0, b, grid)
            assert sol.rate == rate, b
            try:
                want = owclb.waterlevel_solve(grid, 2.0, b)
            except RuntimeError:  # the budget is lost in rounding next to w_(1)
                assert not np.any(sol.psd)
                continue
            assert sol.rate == want.rate, b
            assert (sol.water_level, sol.sigma2) == (want.water_level, want.sigma2)
            assert sol.psd.tobytes() == want.psd.tobytes()

    def test_random_models(self):
        rng = np.random.default_rng(1407)
        for _ in range(40):
            g, gamma, _, k, f_chip = _newton_case(rng)
            grid = subcarriers(g, k, f_chip)
            budgets = sweep_budgets(rng, power_curve(grid, gamma))
            self.assert_matches_newton(g, gamma, budgets, grid)

    @pytest.mark.parametrize("k", [2, 1024, 8193, 20000])
    def test_rates_byte_equal_across_passes(self, ref_model, gap, k):
        # K=1024 with ten saturating budgets needs two elementwise passes;
        # from K=8193 on, a saturating budget loads more than one pass holds
        grid = subcarriers(ref_model, k, 200e6)
        full = float(power_curve(grid, gap)[-1])
        budgets = [full * f for f in np.geomspace(1e-6, 0.9, 6)] + [2.0 * full] * 10
        n, rates = owclb.waterlevel_sweep(grid, gap, budgets)
        if k == 1024:
            assert int(n.sum()) > owclb.waterfill._SWEEP_PASS
        if k > owclb.waterfill._SWEEP_PASS:
            assert int(n.max()) > owclb.waterfill._SWEEP_PASS
        for b, lo, rate in zip(budgets, n.tolist(), rates):
            sol = owclb.newton_fmax(ref_model, gap, b, grid)
            assert lo * grid.delta_b == sol.f_max
            assert rate.tobytes() == np.float64(sol.rate).tobytes()

    def test_refuses_a_budget_that_is_not_positive(self, ref_model, gap):
        # the gap and an overflowing Gamma/GNR_k are refused as by every solver (below)
        grid = subcarriers(ref_model, 64, 200e6)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"^sigma2_budget must be > 0, got {bad!r}$"):
                owclb.waterlevel_sweep(grid, gap, [1.0, bad])

    @pytest.mark.parametrize("kind", ["monotone", "bump", "shuffled", "plateau"])
    def test_rates_are_waterlevel_solve_ones(self, bump_model, kind):
        # any grid, K 1 to 1024: each rate is waterlevel_solve's, and on a
        # nondecreasing Gamma/GNR_k of a monotone model f_max and rate are newton_fmax's
        rng = np.random.default_rng(["monotone", "bump", "shuffled", "plateau"].index(kind) + 29)
        solved = newton = 0
        for _ in range(30):
            k = int(rng.choice([1, 2, 3, 8, 64, 256, 1024]))
            f_chip = float(10.0 ** rng.uniform(6.0, 9.5))
            g = random_monotone_model(rng) if kind != "bump" else bump_model
            grid = subcarriers(g, k, f_chip if kind != "bump" else 1e9)
            if kind == "shuffled":
                grid = owclb.SubcarrierGrid(K=k, f_chip=f_chip, gnr_k=rng.permutation(grid.gnr_k))
            elif kind == "plateau":
                values = 10.0 ** rng.uniform(-3.0, 3.0, int(rng.integers(1, 5)))
                grid = owclb.SubcarrierGrid(K=k, f_chip=f_chip, gnr_k=rng.choice(values, k))
            gamma = float(10.0 ** rng.uniform(0.0, 1.0))
            budgets = level_budgets(rng, grid, gamma)
            n, rates = owclb.waterlevel_sweep(grid, gamma, budgets)
            monotone = (kind == "monotone" and k >= 2 and owclb.is_monotone_decreasing(g, f_chip)
                        and np.all(np.diff(gamma / grid.gnr_k) >= 0.0))
            for b, lo, rate in zip(budgets, n.tolist(), rates):
                try:
                    sol = owclb.waterlevel_solve(grid, gamma, b)
                except RuntimeError:  # the budget is lost in rounding next to w_(1)
                    continue
                solved += 1
                assert rate.tobytes() == np.float64(sol.rate).tobytes(), (kind, k, b)
                if monotone:
                    newton += 1
                    sol = owclb.newton_fmax(g, gamma, b, grid)
                    assert lo * grid.delta_b == sol.f_max
                    assert rate.tobytes() == np.float64(sol.rate).tobytes(), (k, b)
        assert solved > 200
        assert (newton > 100) == (kind == "monotone")


def level_grid(rng, kind: str) -> owclb.SubcarrierGrid:
    """A seeded grid of K 2..1024: a random monotone model's samples
    ("monotone"), the same samples shuffled ("shuffled"), or a few distinct
    GNR values repeated in runs of equal cell costs ("plateau")."""
    k = int(rng.choice([2, 3, 8, 64, 256, 1024]))
    f_chip = float(10.0 ** rng.uniform(6.0, 9.5))
    if kind == "plateau":
        values = 10.0 ** rng.uniform(-3.0, 3.0, int(rng.integers(1, 5)))
        return owclb.SubcarrierGrid(K=k, f_chip=f_chip, gnr_k=rng.choice(values, k))
    grid = subcarriers(random_monotone_model(rng), k, f_chip)
    if kind == "shuffled":
        grid = owclb.SubcarrierGrid(K=k, f_chip=f_chip, gnr_k=rng.permutation(grid.gnr_k))
    return grid


def level_budgets(rng, grid, gamma):
    """Log-spread budgets up to 2x the full fill, plus points of the sorted
    cells' power curve and their two float neighbours."""
    by_cost = owclb.SubcarrierGrid(K=grid.K, f_chip=grid.f_chip, gnr_k=np.sort(grid.gnr_k)[::-1])
    curve = np.array(_oracles.power_curve_in_order(by_cost, gamma))
    exact = np.unique(curve[curve > 0.0])
    if exact.size > 4:
        exact = rng.choice(exact, 4, replace=False)
    full = float(curve[-1]) or grid.delta_b * gamma / float(grid.gnr_k.max())
    budgets = list(full * 10.0 ** rng.uniform(-9.0, math.log10(2.0), 4))
    budgets += list(exact) + list(np.nextafter(exact, 0.0)) + list(np.nextafter(exact, np.inf))
    return [float(b) for b in budgets]


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

    @pytest.mark.parametrize("kind", ["monotone", "shuffled", "plateau"])
    def test_level_within_4_ulp_of_exact(self, kind):
        rng = np.random.default_rng(["monotone", "shuffled", "plateau"].index(kind) + 77)
        for _ in range(40):
            grid = level_grid(rng, kind)
            gamma = float(10.0 ** rng.uniform(0.0, 1.0))
            w = gamma / grid.gnr_k
            for budget in level_budgets(rng, grid, gamma):
                count, level = _oracles.waterlevel_exact(grid, gamma, budget)
                try:
                    sol = owclb.waterlevel_solve(grid, gamma, budget)
                except RuntimeError:  # the budget is lost in rounding next to w_(1)
                    assert float(level) == w.min()
                    continue
                ulp = Fraction(math.ulp(float(level)))
                assert abs(Fraction(sol.water_level) - level) <= 4 * ulp, (grid.K, budget)
                # away from ulp-level ties with the level, the active cells are the exact count
                if not np.any(np.abs(w - float(level)) <= 8 * math.ulp(float(level))):
                    assert np.count_nonzero(sol.psd) == count

    def test_level_past_a_cumulative_sum_stays_finite(self):
        # the costs 1e307 sum past the float range, the level 1.0000001e307 does not
        grid = owclb.SubcarrierGrid(K=1024, f_chip=1.0, gnr_k=np.full(1024, 1e-307))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = owclb.waterlevel_solve(grid, 1.0, 1e300)
        assert math.isfinite(sol.water_level) and math.isfinite(sol.rate)
        assert sol.water_level == pytest.approx(1.0000001e307, rel=1e-15)
        assert sol.sigma2 <= 1e300 * (1.0 + 1e-15)

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
        w = 1.0 / bump_model(sol.f_hz)
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
        assert sol.water_level > 1.0 / float(g(grid.f_k[0]))
        assert sol.sigma2 == pytest.approx(1e-9, rel=1e-6)

    def test_level_past_the_float_range_is_refused(self):
        # (budget - power(j)) / j / Delta_B = 1e10 / 2 / 5e-301 passes the largest float
        grid = owclb.SubcarrierGrid(K=2, f_chip=1e-300, gnr_k=np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match=r"^water level overflows: budget 1e\+10 V\^2 over 2 cells of 5e-301 Hz$"):
            owclb.waterlevel_solve(grid, 1.0, 1e10)

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


# every function that takes a gap, each reduced to one number of its result
GAP_CALLS = {
    "sigma2_of_fmax": lambda g, grid, gap: owclb.sigma2_of_fmax(g, gap, 5e7),
    "dsigma2_dfmax": lambda g, grid, gap: owclb.dsigma2_dfmax(g, gap, 5e7),
    "newton_fmax": lambda g, grid, gap: owclb.newton_fmax(g, gap, 1e7, grid).rate,
    "waterlevel_solve": lambda g, grid, gap: owclb.waterlevel_solve(grid, gap, 1e7).rate,
    "waterlevel_sweep": lambda g, grid, gap: owclb.waterlevel_sweep(grid, gap, [1e7])[1][0],
    "hh_naive": lambda g, grid, gap: owclb.hh_naive(grid, gap, 1e7).rate,
    "hh_accelerated": lambda g, grid, gap: owclb.hh_accelerated(grid, gap, 1e7).rate,
    "hh_sorted_prefix": lambda g, grid, gap: owclb.hh_sorted_prefix(grid, gap, [1e7])[0],
}


@pytest.mark.parametrize("call", GAP_CALLS.values(), ids=GAP_CALLS)
def test_gap_is_one_real_number(ref_model, call):
    # a real number other than bool, finite and >= 1, as the channel's number rule reads one
    grid = subcarriers(ref_model, 64, 200e6)
    want = call(ref_model, grid, 2.0)
    for gap in (2, np.float64(2.0), np.int64(2), Fraction(2)):
        assert call(ref_model, grid, gap) == want, repr(gap)
    for gap in ("2", True, None, [2.0], Decimal("2"), 0.5, 0, math.nan, math.inf, 10**400):
        message = f"^modulation gap must be >= 1 linear, got {re.escape(repr(gap))}$"
        with pytest.raises(ValueError, match=message):
            call(ref_model, grid, gap)


def test_gnr_underflow_at_fmax_is_value_error():
    # GNR(2e8) = 1e-280 / (1 + (2e5)^2)^5 lies below the smallest subnormal
    g = owclb.MagSqPoleZeroGnr(gnr0=1e-280, poles=(1e3,) * 5)
    for call in (owclb.sigma2_of_fmax, owclb.dsigma2_dfmax):
        with pytest.raises(ValueError, match=r"^GNR at f_max=2e\+08 Hz is 0\.0, not > 0"):
            call(g, 1.0, 2e8)


# GNR(1e7) = 1e-280 / (1 + 1e8)^5 = 1e-320 is subnormal: > 0, but 1/GNR overflows
OVERFLOW_MODEL = owclb.MagSqPoleZeroGnr(gnr0=1e-280, poles=(1e3,) * 5)


def test_gamma_over_gnr_overflow_at_fmax_is_value_error():
    for call in (owclb.sigma2_of_fmax, owclb.dsigma2_dfmax):
        with pytest.raises(
            ValueError, match=r"^Gamma/GNR at f_max=1e\+07 Hz overflows: GNR is 1e-320$"
        ):
            call(OVERFLOW_MODEL, 1.0, 1e7)


@pytest.mark.parametrize(
    "solve",
    [
        lambda grid: owclb.newton_fmax(OVERFLOW_MODEL, 1.0, 1.0, grid),
        lambda grid: owclb.waterlevel_solve(grid, 1.0, 1.0),
        lambda grid: owclb.waterlevel_sweep(grid, 1.0, [1.0, 2.0]),
    ],
    ids=["newton_fmax", "waterlevel_solve", "waterlevel_sweep"],
)
def test_gamma_over_gnr_overflow_on_grid_names_the_subcarrier(solve):
    grid = subcarriers(OVERFLOW_MODEL, 64, 1e7)
    k = int(np.argmax(grid.gnr_k < 1.0 / np.finfo(float).max)) + 1
    with pytest.raises(ValueError) as info:
        solve(grid)
    gnr = float(grid.gnr_k[k - 1])
    assert str(info.value) == f"Gamma/GNR at subcarrier k={k} overflows: GNR is {gnr!r}"
    # the bit loaders never grant a bit whose cost overflows, and load nothing here
    assert not owclb.hh_naive(grid, 1.0, 1.0).bits.any()


def test_power_curve_overflow_is_above_every_budget():
    # Gamma/GNR_k = 1e300 * (1 + (f/1e6)^2) is finite on every subcarrier,
    # but the power curve overflows to +inf past the first few; no warning
    g = owclb.MagSqPoleZeroGnr(gnr0=1e-300, poles=(1e6,))
    grid = subcarriers(g, 1024, 200e6)
    budgets = np.geomspace(1e4, 1e9, 4).tolist()
    for b in budgets:
        sol = owclb.newton_fmax(g, 1.0, b, grid)
        assert sol.f_max == grid.delta_b and sol.sigma2 == 0.0 and sol.rate == 0.0
    n, rates = owclb.waterlevel_sweep(grid, 1.0, budgets)
    assert n.tolist() == [1] * 4 and rates.tolist() == [0.0] * 4
    assert np.isinf(owclb.waterfill._power_curve(1.0 / grid.gnr_k, grid.delta_b)[-1])


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
