"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
even on success).  Budgets everywhere are signal variances in V^2.
"""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

import owclb

import _oracles
from conftest import (
    GAMMA_DB,
    REF_GNR0,
    REF_POLES,
    REF_ZEROS,
    build_reference_chain,
    random_monotone_model,
)

REF_MODEL = owclb.MagSqPoleZeroGnr(gnr0=REF_GNR0, zeros=REF_ZEROS, poles=REF_POLES)
BUMP_MODEL = owclb.MagSqPoleZeroGnr(
    gnr0=1.0, zeros=(10e6, 50e6), poles=(1e6, 100e6, 1000e6)
)
GAP = owclb.ModulationGap.from_db(GAMMA_DB)


@contextlib.contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {label}")
        raise
    print(f"PASS criterion {num}: {label}")


def continuous_budget_for_rate(rate_bit_s: float) -> float:
    f_star = brentq(
        lambda f: owclb.rate_closed_form(REF_MODEL, GAP, f) - rate_bit_s, 1e3, 200e6
    )
    return owclb.sigma2_of_fmax(REF_MODEL, GAP, f_star)


def test_criterion_1_closed_form_rate_oracle():
    with criterion(1, "closed-form rate matches adaptive quadrature to 1e-6"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        models = [REF_MODEL] + [random_monotone_model(rng) for _ in range(100)]
        for g in models:
            top = max(g.poles + g.zeros)
            f_max = float(10.0 ** rng.uniform(math.log10(min(g.poles) / 3.0), math.log10(3.0 * top)))
            got = owclb.rate_closed_form(g, GAP, f_max)
            want = _oracles.quad_rate(g, f_max)
            assert got == pytest.approx(want, rel=1e-6), (g, f_max)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_derivative_check():
    with criterion(2, "analytic power derivative matches central differences to 1e-6"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        models = [REF_MODEL] + [random_monotone_model(rng) for _ in range(5)]
        for g in models:
            lo = min(g.poles) / 10.0
            hi = 10.0 * max(g.poles + g.zeros)
            for f in np.geomspace(lo, hi, 20):
                fd = _oracles.central_diff(
                    lambda x: owclb.sigma2_of_fmax(g, GAP, x), float(f), float(f) * 1e-4
                )
                assert owclb.dsigma2_dfmax(g, GAP, float(f)) == pytest.approx(fd, rel=1e-6)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_newton_convergence():
    with criterion(3, "Newton terminates in <= 20 iterations across 6 budget decades"):
        t0 = time.perf_counter()
        k, f_chip = 64, 200e6
        delta = f_chip / k
        full = owclb.sigma2_of_fmax(REF_MODEL, GAP, f_chip)
        w = GAP.gamma_linear / REF_MODEL.evaluate(delta * np.arange(1, k + 1))

        def grid_power(ks):
            return delta * float(np.sum(np.maximum(0.0, w[ks - 1] - w[:ks])))

        for budget in np.geomspace(full * 1e-6, full * 0.99, 30):
            sol = owclb.newton_fmax(
                REF_MODEL, GAP, float(budget), owclb.SubcarrierGrid.from_model(REF_MODEL, k, f_chip)
            )
            assert sol.iterations <= 20
            assert sol.sigma2 <= budget
            ks = int(round(sol.f_max / delta))
            if ks < k:
                step_power = grid_power(ks + 1) - grid_power(ks)
                assert budget - sol.sigma2 < step_power
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_4_cross_validation_and_islands():
    with criterion(4, "Newton/water-level agreement plus island regimes with KKT"):
        # monotone channels: the two solvers must agree on the rate at the
        # same realized power (Newton stops within one grid step of the
        # budget, so its achieved sigma2 is what the exact water level must match)
        rng = np.random.default_rng(99)
        k, f_chip = 64, 200e6
        models = [REF_MODEL] + [random_monotone_model(rng) for _ in range(5)]
        for g in models:
            full_g = owclb.sigma2_of_fmax(g, GAP, f_chip)
            grid = owclb.SubcarrierGrid.from_model(g, k, f_chip)
            for frac in (1e-3, 0.3):
                sol_n = owclb.newton_fmax(g, GAP, full_g * frac, grid)
                if sol_n.sigma2 <= 0.0:
                    continue
                sol_w = owclb.waterlevel_solve(grid, GAP, sol_n.sigma2)
                assert sol_w.rate == pytest.approx(sol_n.rate, rel=1e-6)

        fine = owclb.SubcarrierGrid.from_model(BUMP_MODEL, 4096, 1e9)
        w = 1.0 / fine.gnr_k
        widths = fine.delta_b

        def power_at_level(v):
            return float(np.sum(widths * np.maximum(0.0, v - w)))

        # mid budget: the water level sits below the local inverse-GNR bump
        mid = owclb.waterlevel_solve(fine, 1.0, power_at_level(40.0))
        assert mid.island, "expected a forced zero-power island"
        lo, hi = mid.island[0]
        inside = (mid.f_hz >= lo) & (mid.f_hz <= hi)
        assert np.all(mid.psd[inside] == 0.0)
        assert np.any(mid.psd[mid.f_hz < lo] > 0.0)
        assert np.any(mid.psd[mid.f_hz > hi] > 0.0)
        for sol in (mid,):
            wv = 1.0 / BUMP_MODEL.evaluate(sol.f_hz)
            assert np.all(sol.psd >= 0.0)
            slack = sol.psd * (sol.water_level - wv - sol.psd)
            assert np.all(np.abs(slack) <= 1e-12 * sol.water_level**2)
            support = sol.psd > 0.0
            np.testing.assert_allclose(
                sol.psd[support] + wv[support], sol.water_level, rtol=1e-12
            )

        # large budget: the level tops the bump and the island vanishes
        big = owclb.waterlevel_solve(fine, 1.0, power_at_level(200.0))
        assert big.island == ()
        assert np.all(big.psd[big.f_hz < big.f_max] > 0.0)


def test_criterion_5_hh_equivalence_and_optimality():
    with criterion(5, "accelerated HH equals naive HH; naive matches exhaustive search"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(31)
        # 100 randomized monotone grids split across K in {8, 64, 512}
        for trial in range(100):
            k = (8, 64, 512)[trial % 3]
            gnr = 10.0 ** rng.uniform(2, 6) * 10.0 ** (
                -np.cumsum(rng.uniform(0.0, 0.06, k))
            )
            grid = owclb.SubcarrierGrid(K=k, f_chip=2e8, gnr_k=gnr)
            budget = float(rng.uniform(0.05, 1.0)) * float(
                np.sum(grid.delta_b * GAP.gamma_linear * (2.0**2 - 1.0) / gnr)
            )
            a = owclb.hh_naive(grid, GAP, budget)
            b = owclb.hh_accelerated(grid, GAP, budget)
            np.testing.assert_array_equal(a.bits, b.bits)

        # exhaustive optimality: every K <= 4 instance, bit cap 3, 50 budgets
        for k in (2, 3, 4):
            for _ in range(3):
                gnr = np.sort(10.0 ** rng.uniform(0.0, 2.0, k))[::-1]
                grid = owclb.SubcarrierGrid(K=k, f_chip=float(k), gnr_k=gnr)
                totals, bits = _oracles.exhaustive_table(grid, 1.0, bit_cap=3)
                max_power = float(np.max(totals))
                for _ in range(50):
                    budget = float(rng.uniform(0.0, 1.1 * max_power))
                    plan = owclb.hh_naive(grid, 1.0, budget, bit_cap=3)
                    feasible = totals <= budget
                    best = grid.delta_b * float(np.max(bits[feasible]))
                    assert plan.rate == best
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_6_discretization_sandwich():
    with criterion(6, "integer rate sandwiched under the continuous optimum"):
        # bit cap lifted to 50 so the modulation-order ceiling cannot bind:
        # the criterion measures flooring, one lost bit per active carrier
        grid = owclb.SubcarrierGrid.from_model(REF_MODEL, 256, 200e6)
        full = owclb.sigma2_of_fmax(REF_MODEL, GAP, 200e6)
        for frac in np.geomspace(1e-5, 0.6, 10):
            budget = full * float(frac)
            plan = owclb.hh_accelerated(grid, GAP, budget, bit_cap=50)
            f_star = brentq(
                lambda f: owclb.sigma2_of_fmax(REF_MODEL, GAP, f) - budget, 1e3, 200e6
            )
            r_cont = owclb.rate_closed_form(REF_MODEL, GAP, f_star)
            active = int(np.sum(plan.bits > 0))
            assert plan.rate <= r_cont * (1.0 + 1e-12)
            assert r_cont - plan.rate <= active * grid.delta_b


def test_criterion_7_flop_trend():
    with criterion(7, "accelerated HH saves FLOPs, gap widening with K"):
        for target_rate in (100e6, 1e9):
            budget = continuous_budget_for_rate(target_rate)
            gaps = []
            for k in (64, 128, 256, 512):
                grid = owclb.SubcarrierGrid.from_model(REF_MODEL, k, 200e6)
                naive = owclb.hh_naive(grid, GAP, budget)
                accel = owclb.hh_accelerated(grid, GAP, budget)
                report = owclb.flop_report(naive, accel)
                assert report.flops_b < report.flops_a, (target_rate, k)
                gaps.append(report.flops_saved)
            assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:])), (target_rate, gaps)


def test_criterion_8_fit_round_trip():
    with criterion(8, "synthetic channel fit recovers corners to 1% and gnr0 to 0.5%"):
        t0 = time.perf_counter()
        freqs = np.geomspace(1e3, 1e9, 240)
        table = owclb.ResponseTable(frequencies=freqs, values=REF_MODEL.evaluate(freqs))
        res = owclb.fit_polezero(
            table,
            owclb.FitConfig(n_zeros=1, n_poles=4, f_range=(1e3, 1e9), multistarts=16, seed=0),
        )
        assert res.rms_db_error < 0.01
        assert res.model.zeros[0] == pytest.approx(REF_ZEROS[0], rel=0.01)
        for got, want in zip(res.model.poles, REF_POLES):
            assert got == pytest.approx(want, rel=0.01)
        assert res.model.gnr0 == pytest.approx(REF_GNR0, rel=0.005)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_9_figure5_qualitative():
    with criterion(9, "rate curve shape and full-chain/transmitter-only ordering"):
        from owclb.linkchain import chain_magsq

        # rate versus f_max: increasing everywhere, concave beyond the knee
        wide = np.geomspace(1e5, 2e8, 60)
        rates_full = np.array([owclb.rate_closed_form(REF_MODEL, GAP, f) for f in wide])
        assert np.all(np.diff(rates_full) > 0.0)
        band = np.linspace(30e6, 200e6, 40)
        full_band = np.array([owclb.rate_closed_form(REF_MODEL, GAP, f) for f in band])
        assert np.all(np.diff(full_band, 2) <= 1e-9 * full_band.max())

        # ordering property: the full chain's response departs from the
        # transmitter-only response around 30 MHz and decays with higher
        # order beyond it (the receiver front end starts to roll off there)
        full_chain = build_reference_chain()
        tx_chain = owclb.LinkChain(stages=full_chain.stages[:2], noise=full_chain.noise)
        probe = np.geomspace(30e6, 2e9, 50)
        # DC gains unified so only the frequency characteristics compare
        resp_full = np.asarray(chain_magsq(full_chain, probe)) / chain_magsq(full_chain, 0.0)
        resp_tx = np.asarray(chain_magsq(tx_chain, probe)) / chain_magsq(tx_chain, 0.0)
        assert np.all(resp_full < resp_tx)
        low = np.geomspace(1e5, 3e6, 20)
        np.testing.assert_allclose(
            np.asarray(chain_magsq(full_chain, low)) / chain_magsq(full_chain, 0.0),
            np.asarray(chain_magsq(tx_chain, low)) / chain_magsq(tx_chain, 0.0),
            rtol=0.01,
        )
        # higher-order decay: steeper log-log slope at high frequency
        slope_full = np.diff(np.log(resp_full)) / np.diff(np.log(probe))
        slope_tx = np.diff(np.log(resp_tx)) / np.diff(np.log(probe))
        assert slope_full[-1] < slope_tx[-1] - 1.0

        # an extra modeled pole also means a fixed f_max costs more power and
        # yields more throughput, so a transmitter-only analysis estimates
        # too little rate at a given f_max
        tx_model = owclb.MagSqPoleZeroGnr(
            gnr0=REF_GNR0, zeros=REF_ZEROS, poles=(2.3e6, 3.1e6, 9.4e6)
        )
        tx_band = np.array([owclb.rate_closed_form(tx_model, GAP, f) for f in band])
        assert np.all(tx_band < full_band)
