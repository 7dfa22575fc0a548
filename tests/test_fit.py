import numpy as np
import pytest

import owclb

from conftest import REF_GNR0, REF_POLES, REF_ZEROS


def synth_table(model: owclb.MagSqPoleZeroGnr, lo=1e3, hi=1e9, n=240) -> owclb.ResponseTable:
    freqs = np.geomspace(lo, hi, n)
    return owclb.ResponseTable(frequencies=freqs, values=model.evaluate(freqs))


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

    def test_scan_orders_prefers_true_order(self):
        true = owclb.MagSqPoleZeroGnr(gnr0=3.0, poles=(2e6, 70e6))
        table = synth_table(true, 1e4, 1e9, 120)
        rows = owclb.scan_orders(
            table, owclb.FitConfig(n_zeros=1, n_poles=3, f_range=(1e4, 1e9), seed=2, multistarts=8)
        )
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


class TestResidualScan:
    def test_zero_for_generator(self):
        true = owclb.MagSqPoleZeroGnr(gnr0=2.0, poles=(5e6,))
        table = synth_table(true)
        res = owclb.residual_scan(table, true)
        assert np.max(np.abs(res)) < 1e-9

    def test_level_shift(self):
        true = owclb.MagSqPoleZeroGnr(gnr0=2.0, poles=(5e6,))
        table = synth_table(true)
        doubled = owclb.MagSqPoleZeroGnr(gnr0=4.0, poles=(5e6,))
        res = owclb.residual_scan(table, doubled)
        np.testing.assert_allclose(res, 10.0 * np.log10(2.0), rtol=1e-9)

    def test_reference_fit_residuals_small(self):
        true = owclb.MagSqPoleZeroGnr(gnr0=REF_GNR0, zeros=REF_ZEROS, poles=REF_POLES)
        fitted = owclb.fit_polezero(
            synth_table(true), owclb.FitConfig(n_zeros=1, n_poles=4, f_range=(1e3, 1e9), seed=0)
        )
        res = owclb.residual_scan(synth_table(true), fitted.model)
        assert np.max(np.abs(res)) < 0.1


class TestChannelFragment:
    def test_fragment_loads_and_reduces_back(self):
        model = owclb.MagSqPoleZeroGnr(gnr0=1.5e4, zeros=(2e7,), poles=(1e6, 4e6))
        chain = owclb.chain_from_dict(owclb.model_to_channel_dict(model))
        back = owclb.reduce_to_polezero(chain)
        assert back.gnr0 == pytest.approx(model.gnr0, rel=1e-12)
        assert back.zeros == pytest.approx(model.zeros)
        assert back.poles == pytest.approx(model.poles)
