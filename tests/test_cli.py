import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import owclb
from owclb import cli
from owclb.cli import COMMANDS, main
from owclb.linkchain import _read_csv

from conftest import build_reference_chain

DATA = Path(__file__).parent / "data"


@pytest.fixture
def channel_path(tmp_path):
    path = tmp_path / "channel.json"
    owclb.save_chain(build_reference_chain(), path)
    return str(path)


def run_cli(*argv) -> int:
    return main(list(argv))


def _src_env(env=os.environ) -> dict:
    return {**env, "PYTHONPATH": os.pathsep.join(
        [str(Path(owclb.__file__).parent.parent), env.get("PYTHONPATH", "")])}


def _without_log_env() -> dict:
    return {k: v for k, v in os.environ.items() if k != "OWCLB_LOG"}


def run_cli_process(argv, env=os.environ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "owclb.cli", *argv], env=_src_env(env), capture_output=True, text=True
    )


class TestGnrEval:
    def test_writes_readable_csv(self, channel_path, tmp_path):
        out = tmp_path / "gnr.csv"
        assert run_cli("gnr-eval", "--channel", channel_path, "--out", str(out)) == 0
        header, rows = _read_csv(out)[1:]
        assert header == ["f_hz", "gain_magsq", "noise_psd_v2_per_hz", "gnr_linear"]
        np.testing.assert_allclose(rows[:, 3], rows[:, 1] / rows[:, 2], rtol=1e-12)
        assert rows[0, 3] == pytest.approx(4.602e10, rel=1e-3)

    def test_custom_sweep(self, channel_path, tmp_path):
        out = tmp_path / "gnr.csv"
        assert (
            run_cli(
                "gnr-eval", "--channel", channel_path, "--out", str(out),
                "--sweep", "fmax:1e6:1e8:11:log",
            )
            == 0
        )
        _, rows = _read_csv(out)[1:]
        assert rows.shape[0] == 11
        assert rows[0, 0] == 1e6 and rows[-1, 0] == pytest.approx(1e8)


class TestRateCurve:
    def test_fmax_sweep_is_monotone(self, channel_path, tmp_path):
        out = tmp_path / "rate.csv"
        assert (
            run_cli(
                "rate-curve", "--channel", channel_path, "--gamma-db", "6.06",
                "--sweep", "fmax:1e6:2e8:25:log", "--out", str(out),
            )
            == 0
        )
        header, rows = _read_csv(out)[1:]
        assert header == ["f_max_hz", "rate_mbit_s"]
        assert np.all(np.diff(rows[:, 1]) > 0.0)

    def test_power_sweep_columns_and_ordering(self, channel_path, tmp_path):
        out = tmp_path / "rp.csv"
        assert (
            run_cli(
                "rate-curve", "--channel", channel_path, "--gamma-db", "6.06",
                "--sweep", "power:1e4:1e9:6:log", "--k", "64", "--fchip", "2e8",
                "--out", str(out),
            )
            == 0
        )
        header, rows = _read_csv(out)[1:]
        assert header == [
            "sigma2_v2",
            "rate_newton_mbit_s",
            "rate_hh_mbit_s",
            "rate_flat_mbit_s",
        ]
        assert np.all(np.diff(rows[:, 1]) >= 0.0)
        # optimized spectra beat the flat baseline once power is plentiful
        assert rows[-1, 1] > rows[-1, 3]
        assert rows[-1, 2] > rows[-1, 3]

    @pytest.mark.parametrize(
        "model",
        [owclb.MagSqPoleZeroGnr(gnr0=1e9, poles=(1e3,)),
         owclb.MagSqPoleZeroGnr(gnr0=1e9, zeros=(14.5e6,), poles=(2.3e6, 3.1e6, 3.5e6, 9.4e6))],
        ids=["pole-1khz", "reference"],
    )
    def test_flat_baseline_stays_within_budget(self, model):
        # at K=64 over 200 MHz both first poles lie below delta_b = 3.125 MHz,
        # yet subcarrier 1 is loaded
        grid = owclb.SubcarrierGrid.from_model(model, 64, 2e8)
        budgets = np.geomspace(1e4, 1e9, 6)
        psd, n_flat, _ = cli._flat_band_psd(model, grid, budgets)
        assert n_flat == 1
        assert np.all(psd * grid.delta_b * n_flat <= budgets * (1.0 + 1e-15))


    def test_fmax_sweep_matches_golden_csv(self, channel_path, tmp_path):
        # recorded with the sampled monotonicity scan that monotone_limit replaced
        out = tmp_path / "rate.csv"
        assert (
            run_cli(
                "rate-curve", "--channel", channel_path,
                "--sweep", "fmax:1e5:2e8:200:log", "--out", str(out),
            )
            == 0
        )
        assert out.read_bytes() == (DATA / "fmax_sweep_ref.csv").read_bytes()

    def test_power_sweep_matches_golden_csv(self, channel_path, tmp_path):
        # recorded from the per-budget hh_accelerated sweep this replaced
        out = tmp_path / "rp.csv"
        assert (
            run_cli(
                "rate-curve", "--channel", channel_path,
                "--sweep", "power:1e4:1e9:24:log", "--k", "1024", "--fchip", "2e8",
                "--out", str(out),
            )
            == 0
        )
        assert out.read_bytes() == (DATA / "power_sweep_ref_k1024.csv").read_bytes()

    def test_power_sweep_samples_the_model_once(self, channel_path, monkeypatch):
        # Newton and the bit loaders share one grid, so every budget reuses its samples
        sampled = []
        call = owclb.MagSqPoleZeroGnr.__call__

        def counted(model, f):
            if np.ndim(f):
                sampled.append(np.size(f))
            return call(model, f)

        monkeypatch.setattr(owclb.MagSqPoleZeroGnr, "__call__", counted)
        rc = run_cli(
            "rate-curve", "--channel", channel_path, "--sweep", "power:1e4:1e9:24:log",
            "--k", "256", "--fchip", "2e8",
        )
        assert rc == 0
        assert sampled == [256]

    def test_power_sweep_reads_one_power_curve(self, channel_path, monkeypatch):
        # every budget is read off the sorted cells' power curve: no Newton
        # search, and no monotone check, since the water level needs none
        counts = {"newton_fmax": 0, "is_monotone_decreasing": 0}

        def counted(name):
            inner = getattr(owclb.waterfill, name)

            def wrapper(*args):
                counts[name] += 1
                return inner(*args)

            monkeypatch.setattr(owclb.waterfill, name, wrapper)

        counted("newton_fmax")
        counted("is_monotone_decreasing")
        rc = run_cli(
            "rate-curve", "--channel", channel_path, "--sweep", "power:1e4:1e9:24:log",
            "--k", "256", "--fchip", "2e8",
        )
        assert rc == 0
        assert counts == {"newton_fmax": 0, "is_monotone_decreasing": 0}

    def test_power_sweep_fills_rising_channel(self, tmp_path, capsys):
        # the exact column is the water level on any grid, the GNR's rise included
        chain = owclb.LinkChain(
            stages=(owclb.RationalPoleZero(dc_gain=1.0, zeros=(10e6, 50e6), poles=(1e6, 100e6, 1e9)),),
            noise=owclb.NoiseSpectrum(floor=1e-15),
        )
        path, out = tmp_path / "bump.json", tmp_path / "rp.csv"
        owclb.save_chain(chain, path)
        rc = run_cli(
            "rate-curve", "--channel", str(path), "--sweep", "power:1e4:1e9:6:log",
            "--k", "64", "--fchip", "2e8", "--out", str(out),
        )
        assert rc == 0
        assert capsys.readouterr().err == ""
        grid = owclb.SubcarrierGrid.from_model(owclb.reduce_to_polezero(chain), 64, 2e8)
        assert not grid.is_monotone_nonincreasing()
        rows = _read_csv(out)[2]
        for b, exact in rows[:, :2].tolist():
            assert exact == owclb.waterlevel_solve(grid, 1.0, b).rate / 1e6

    def test_power_sweep_overflowing_curve_is_silent(self, tmp_path, capsys):
        # Gamma/GNR_k = 1e300 * (1 + (f/1e6)^2) is finite on every subcarrier,
        # but the power curve overflows past the first few: no budget fits
        path = tmp_path / "steep.json"
        path.write_text(json.dumps({
            "stages": [{"kind": "RationalPoleZero",
                        "params": {"dc_gain": 1e-150, "zeros": [], "poles": [1e6]}}],
            "noise": {"floor": 1.0},
        }))
        rc = run_cli(
            "rate-curve", "--channel", str(path), "--sweep", "power:1e4:1e9:4:log",
            "--k", "1024",
        )
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["0.0"] * 4


    def test_power_sweep_flat_snr_past_the_float_range(self, tmp_path):
        # GNR about 1e308 below 1 MHz: psd * GNR passes the largest float from
        # the 12th budget on, where 1 + snr rounds to snr and logarithms add
        path = tmp_path / "loud.json"
        doc = {"stages": [{"kind": "RationalPoleZero", "params": {"dc_gain": 1e154, "poles": [1e6]}}],
               "noise": {"floor": 1.0}}
        path.write_text(json.dumps(doc))
        out = tmp_path / "sweep.csv"
        proc = run_cli_process(["rate-curve", "--channel", str(path), "--sweep",
                                "power:1e4:1e9:24:log", "--k", "1024", "--out", str(out)])
        assert proc.returncode == 0
        assert "Warning" not in proc.stderr and proc.stderr == ""
        assert "inf" not in out.read_text()
        budgets, flat = _read_csv(out)[2][:, [0, 3]].T
        g = owclb.reduce_to_polezero(owclb.load_chain(path))
        grid = owclb.SubcarrierGrid.from_model(g, 1024, 200e6)
        psd, n_flat, _ = cli._flat_band_psd(g, grid, budgets)
        with mpmath.workdps(30):
            want = [grid.delta_b * float(mpmath.fsum(
                mpmath.log(1 + mpmath.mpf(p) * mpmath.mpf(x), 2) for x in grid.gnr_k[:n_flat]
            )) / 1e6 for p in psd]
        np.testing.assert_allclose(flat, want, rtol=1e-13)
        # the budgets whose SNR stays finite keep the plain log2(1 + snr) sum
        with np.errstate(over="ignore"):
            snr = psd[:, None] * grid.gnr_k[:n_flat]
        finite = np.isfinite(snr).all(axis=1)
        assert finite.sum() == 11 and finite[:11].all()
        plain = grid.delta_b * np.sum(np.log2(1.0 + snr[finite]), axis=1) / 1e6
        assert flat[finite].tobytes() == plain.tobytes()

    def test_power_sweep_flat_psd_past_the_float_range(self, tmp_path):
        # budget / f_chip passes the largest float from the second budget on;
        # there log2(psd) is log2(budget) - log2(f_chip)
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"stages": [{"kind": "FlatGain", "params": {"gain": 1.0}}],
                                    "noise": {"floor": 1.0}}))
        out = tmp_path / "sweep.csv"
        proc = run_cli_process(["rate-curve", "--channel", str(path), "--sweep", "power:1:1.7e308:3:log",
                                "--fchip", "1e-300", "--k", "2", "--out", str(out)])
        assert proc.returncode == 0 and proc.stderr == ""
        assert "inf" not in out.read_text()
        budgets, flat = _read_csv(out)[2][:, [0, 3]].T
        # GNR 1 on both subcarriers: the rate is f_chip * log2(1 + budget / f_chip)
        with mpmath.workdps(30):
            want = [float(mpmath.mpf(1e-300) * mpmath.log(1 + mpmath.mpf(b) / mpmath.mpf(1e-300), 2)) / 1e6
                    for b in budgets.tolist()]
        np.testing.assert_allclose(flat, want, rtol=1e-13)
        # the first budget's PSD 1e300 is finite and keeps the plain log2(1 + snr) sum
        assert flat[0] == 5e-301 * float(np.sum(np.log2(1.0 + np.full(2, 1e300)))) / 1e6

    def test_fmax_sweep_rate_past_the_float_range_is_refused(self, tmp_path):
        out = tmp_path / "fmax.csv"
        proc = run_cli_process(["rate-curve", "--channel", str(DATA / "fit_ref.json"),
                                "--sweep", "fmax:1e300:1e308:3:log", "--out", str(out)])
        assert proc.returncode == 1
        assert proc.stderr == "owclb: rate-curve failed: rate at f_max=1e+308 Hz passes the float range\n"
        assert not out.exists()

    def test_fmax_sweep_does_not_depend_on_the_gap(self, channel_path, tmp_path):
        # the gap cancels out of the closed-form rate
        outs = [tmp_path / "g0.csv", tmp_path / "g606.csv"]
        for gamma_db, out in zip(("0", "6.06"), outs):
            assert run_cli("rate-curve", "--channel", channel_path, "--gamma-db", gamma_db,
                           "--sweep", "fmax:1e5:2e8:200:log", "--out", str(out)) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_fmax_sweep_makes_one_closed_form_call(self, channel_path, monkeypatch, tmp_path):
        counts = {"rate_closed_form": 0, "is_monotone_decreasing": 0}

        def counted(name):
            inner = getattr(owclb.waterfill, name)

            def wrapper(*args):
                counts[name] += 1
                return inner(*args)

            monkeypatch.setattr(owclb.waterfill, name, wrapper)

        counted("rate_closed_form")
        counted("is_monotone_decreasing")
        out = tmp_path / "fmax.csv"
        rc = run_cli("rate-curve", "--channel", channel_path, "--sweep", "fmax:1e5:2e8:200:log",
                     "--out", str(out))
        assert rc == 0
        assert counts == {"rate_closed_form": 1, "is_monotone_decreasing": 1}
        assert _read_csv(out)[2].shape == (200, 2)


class TestOptimize:
    def test_newton_solution_round_trips(self, channel_path, tmp_path):
        out = tmp_path / "wf.csv"
        assert (
            run_cli(
                "optimize-newton", "--channel", channel_path, "--gamma-db", "6.06",
                "--budget", "3.5e7", "--k", "64", "--fchip", "2e8", "--out", str(out),
            )
            == 0
        )
        sol = owclb.read_solution_csv(out)
        assert sol.sigma2 <= 3.5e7
        assert sol.f_max > 0

    def test_hh_at_the_largest_gap(self, channel_path, tmp_path):
        # --gamma-db 3000 is the largest the flags take; its linear gap is finite
        out = tmp_path / "hh.csv"
        assert run_cli("optimize-hh", "--channel", channel_path, "--gamma-db", "3000",
                       "--budget", "1", "--out", str(out)) == 0
        assert "gamma_linear=1e+300" in out.read_text().splitlines()[0].split()

    def test_hh_zero_budget_all_zero_exit_0(self, channel_path, tmp_path):
        out = tmp_path / "hh.csv"
        assert (
            run_cli(
                "optimize-hh", "--channel", channel_path, "--gamma-db", "6.06",
                "--budget", "0", "--k", "16", "--fchip", "2e8", "--out", str(out),
            )
            == 0
        )
        plan = owclb.read_plan_csv(out)
        assert plan["bits"].tolist() == [0] * 16
        assert plan["rate_bit_s"] == 0.0

    def test_hh_naive_flag(self, channel_path, tmp_path):
        out = tmp_path / "hh.csv"
        assert (
            run_cli(
                "optimize-hh", "--channel", channel_path, "--gamma-db", "6.06",
                "--budget", "1e7", "--k", "32", "--fchip", "2e8", "--naive",
                "--out", str(out),
            )
            == 0
        )
        assert owclb.read_plan_csv(out)["algorithm"] == "hh_naive"


    def test_hh_power_stays_finite_near_overflow(self, channel_path, tmp_path, capsys):
        # delta_b * gamma * (2^b - 1) overflows before the divide by the GNR
        out = tmp_path / "hh.csv"
        assert run_cli(
            "optimize-hh", "--channel", channel_path, "--gamma-db", "2990",
            "--budget", "1e300", "--k", "64", "--out", str(out),
        ) == 0
        assert "power=inf" not in capsys.readouterr().out
        plan = owclb.read_plan_csv(out)
        assert np.all(np.isfinite(plan["power_v2"]))
        assert np.sum(plan["bits"]) > 0
        assert plan["total_power_v2"] <= 1e300 * (1.0 + 1e-12)

class TestCompare:
    def test_savings_positive(self, channel_path, tmp_path):
        out = tmp_path / "cmp.csv"
        assert (
            run_cli(
                "compare", "--channel", channel_path, "--gamma-db", "6.06",
                "--budget", "1e7", "--k", "512", "--fchip", "2e8", "--out", str(out),
            )
            == 0
        )
        header, rows = _read_csv(out)[1:]
        saved = rows[0, header.index("flops_saved")]
        assert saved > 0
        assert rows[0, header.index("naive_flops")] > rows[0, header.index("accel_flops")]

    def test_grid_rising_below_tolerance(self, tmp_path, capsys):
        # the pole-zero pair 3.7e-9 apart (just outside the cancellation
        # tolerance) lifts the GNR by less than 1e-12 between subcarriers,
        # so the grid passes the monotone check without being monotone
        path = tmp_path / "rise.json"
        path.write_text(json.dumps({
            "stages": [{"kind": "RationalPoleZero", "params": {
                "dc_gain": 1000.0, "zeros": [83856138.06264794],
                "poles": [83856138.37441848, 1e12]}}],
            "noise": {"floor": 1.0},
        }))
        argv = ["--channel", str(path), "--budget", "1.0", "--k", "256"]
        assert run_cli("compare", *argv) == 0
        assert capsys.readouterr().err == ""
        plans = []
        for extra in ([], ["--naive"]):
            out = tmp_path / "plan.csv"
            assert run_cli("optimize-hh", *argv, *extra, "--out", str(out)) == 0
            plans.append(owclb.read_plan_csv(out))
        np.testing.assert_array_equal(plans[0]["bits"], plans[1]["bits"])
        np.testing.assert_array_equal(plans[0]["power_v2"], plans[1]["power_v2"])

    def test_zero_budget(self, channel_path, tmp_path):
        out = tmp_path / "cmp.csv"
        assert run_cli("compare", "--channel", channel_path, "--budget", "0", "--out", str(out)) == 0
        header, rows = _read_csv(out)[1:]
        row = dict(zip(header, rows[0]))
        assert row["iterations"] == 0.0
        assert row["naive_flops"] == row["accel_flops"] and row["flops_saved"] == 0.0
        assert row["savings_per_iteration"] == 0.0
        assert row["populated_levels"] == 1.0  # level 0 heads every carrier


class TestTinyCorners:
    TINY = {"stages": [{"kind": "RationalPoleZero", "params": {"dc_gain": 1.0, "poles": [1e-300]}}],
            "noise": {"floor": 1e-17}}

    @pytest.mark.parametrize("argv", [
        ["optimize-hh", "--budget", "1"],
        ["optimize-newton", "--budget", "1"],
        ["compare", "--budget", "1"],
        ["rate-curve", "--sweep", "power:1e4:1e9:4:log"],
    ], ids=lambda a: a[0])
    def test_grid_commands_print_one_line_and_no_warning(self, tmp_path, argv):
        # (f/1e-300)^2 is past the float range on every subcarrier: GNR 0
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(self.TINY))
        proc = run_cli_process([*argv, "--channel", str(path)])
        assert proc.returncode == 1
        assert proc.stderr == f"owclb: {argv[0]} failed: gnr_k entries must be positive and finite\n"

    def test_gnr_eval_from_zero_hz(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(self.TINY))
        out = tmp_path / "gnr.csv"
        proc = run_cli_process(["gnr-eval", "--channel", str(path), "--sweep", "fmax:0:1e6:3",
                                "--out", str(out)])
        assert proc.returncode == 0 and proc.stderr == ""
        assert _read_csv(out)[2][:, 3].tolist() == [1e17, 0.0, 0.0]


    def test_fmax_sweep_warns_nothing(self, tmp_path):
        # f/1e-300 passes the float range; atan(inf) = pi/2 is its exact limit
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(self.TINY))
        out = tmp_path / "rate.csv"
        proc = run_cli_process(["rate-curve", "--sweep", "fmax:1e5:2e8:20:log", "--channel", str(path),
                                "--out", str(out)])
        assert proc.returncode == 0 and proc.stderr == ""
        points, rates = _read_csv(out)[2].T
        assert rates.tolist() == (2.0 / math.log(2.0) * points / 1e6).tolist()

    def test_zero_and_pole_far_below_1_hz_load(self, tmp_path, capsys):
        # both factors are inf on every subcarrier, their ratio 1e-100 is not
        path = tmp_path / "pair.json"
        params = self.TINY["stages"][0]["params"]
        path.write_text(json.dumps({**self.TINY, "stages": [
            {"kind": "RationalPoleZero", "params": {**params, "zeros": [1e-250]}}]}))
        for argv, head in ((["optimize-hh", "--naive"], "optimize-hh[hh_naive]: 0 bits"),
                           (["optimize-hh"], "optimize-hh[hh_accelerated]: 0 bits"),
                           (["compare"], "# rate_mbit_s=0.0\n")):
            assert run_cli(*argv, "--budget", "1", "--channel", str(path)) == 0
            out, err = capsys.readouterr()
            assert err == "" and out.startswith(head) and "nan" not in out


    def test_gain_whose_square_underflows_over_a_tiny_zero(self, tmp_path):
        # dc_gain^2 = 0 and the zero's factor is inf, but |H|^2 is finite
        path = tmp_path / "quiet.json"
        path.write_text(json.dumps({"stages": [{"kind": "RationalPoleZero", "params": {
            "dc_gain": 1e-200, "zeros": [1e-250], "poles": [1e6, 1e7]}}], "noise": {"floor": 1e-17}}))
        out = tmp_path / "gnr.csv"
        proc = run_cli_process(["gnr-eval", "--channel", str(path), "--out", str(out)])
        assert proc.returncode == 0 and proc.stderr == ""
        assert "nan" not in out.read_text()
        f, gain = _read_csv(out)[2][:, :2].T
        assert f[0] == 1e3
        assert gain[0] == pytest.approx(1e106 / (1.0 + 1e-6) / (1.0 + 1e-8), rel=1e-12)


class TestHugeFrequencies:
    @pytest.mark.parametrize("argv", [
        ["optimize-newton", "--budget", "1e-3"],
        ["optimize-hh", "--budget", "1e-3"],
        ["compare", "--budget", "1e-3"],
        ["rate-curve", "--sweep", "power:1e-6:1e-2:4:log"],
        ["gnr-eval"],
    ], ids=lambda a: a[0])
    def test_corner_whose_square_overflows(self, tmp_path, capsys, argv):
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "stages": [{"kind": "RationalPoleZero",
                        "params": {"dc_gain": 1.0, "zeros": [], "poles": [1e6, 1e200]}}],
            "noise": {"floor": 1e-17},
        }))
        near = tmp_path / "near.json"
        near.write_text(path.read_text().replace(", 1e200", ""))
        outputs = []
        for channel in (path, near):
            assert run_cli(*argv, "--channel", str(channel)) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].err == ""
        assert outputs[0].out == outputs[1].out  # the far pole is a factor of 1

    @pytest.mark.parametrize("argv", [
        ["gnr-eval", "--sweep", "fmax:1e150:1e200:3:log"],
        ["optimize-hh", "--budget", "1", "--fchip", "1e160"],
    ], ids=lambda a: a[0])
    def test_frequency_whose_square_overflows_refused(self, capsys, argv):
        rc = run_cli(argv[0], "--channel", str(DATA / "fit_ref.json"), *argv[1:])
        assert rc == 1
        out, err = capsys.readouterr()
        assert "nan" not in out
        assert err == (
            f"owclb: {argv[0]} failed: "
            "frequency must be finite and non-negative, at most 1.34078e+154 Hz\n"
        )

    def test_fmax_rate_curve_needs_no_square(self, capsys):
        argv = ["--channel", str(DATA / "fit_ref.json"), "--sweep", "fmax:1e150:1e200:3:log"]
        assert run_cli("rate-curve", *argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and "nan" not in out and out.count("\n") == 4


GNR0 = "gnr0, the product of the squared stage gains over the noise floor, "
GNR0_INF = GNR0 + "overflows to inf"


class TestHugeGains:
    @pytest.mark.parametrize("argv, message", [
        (["gnr-eval"], "gain_magsq is inf at f=1000 Hz"),
        (["rate-curve", "--sweep", "power:1e4:1e9:4:log"], GNR0_INF),
        (["rate-curve", "--sweep", "fmax:1e6:1e8:4"], GNR0_INF),
        (["optimize-newton", "--budget", "1"], GNR0_INF),
        (["optimize-hh", "--budget", "1"], GNR0_INF),
        (["compare", "--budget", "1"], GNR0_INF),
    ], ids=["gnr-eval", "power-sweep", "fmax-sweep", "optimize-newton", "optimize-hh", "compare"])
    @pytest.mark.parametrize("gain", ["1e200", "1" + "0" * 200], ids=["float", "int"])
    def test_gain_whose_square_overflows_is_refused(self, tmp_path, capsys, argv, message, gain):
        # the square is inf, not an OverflowError; the GNR it gives is refused
        path = tmp_path / "loud.json"
        path.write_text(
            '{"stages": [{"kind": "FlatGain", "params": {"gain": %s}}], "noise": {"floor": 1e-17}}'
            % gain
        )
        out = tmp_path / "out.csv"
        rc = run_cli(*argv, "--channel", str(path), "--out", str(out))
        assert rc == 1
        assert capsys.readouterr().err == f"owclb: {argv[0]} failed: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["optimize-newton", "--budget", "1"],
        ["rate-curve", "--sweep", "fmax:1e5:2e8:20:log"],
        ["optimize-hh", "--budget", "1"],
    ], ids=["optimize-newton", "fmax-sweep", "optimize-hh"])
    def test_gain_whose_square_underflows_is_refused(self, tmp_path, capsys, argv):
        # |H|^2 is finite on the grid, but gnr0 = 1e-400 / 1e-17 is no float
        path = tmp_path / "quiet.json"
        path.write_text(
            '{"stages": [{"kind": "RationalPoleZero", "params": {"dc_gain": 1e-200, '
            '"zeros": [1e-250], "poles": [1e6, 1e7]}}], "noise": {"floor": 1e-17}}'
        )
        out = tmp_path / "out.csv"
        assert run_cli(*argv, "--channel", str(path), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"owclb: {argv[0]} failed: {GNR0}underflows to 0\n"
        assert not out.exists()

    def test_fit_refuses_the_channel_as_a_table(self, tmp_path, capsys):
        # the sixth command reads a table, so the same file is a format error
        path = tmp_path / "loud.json"
        path.write_text('{"stages": [{"kind": "FlatGain", "params": {"gain": 1e200}}]}')
        out = tmp_path / "out.json"
        assert run_cli("fit", "--channel", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"owclb: {path}: expected header") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("stage, message", [
        ('{"kind": "LaserSecondOrder", "params": {"dc_gain": 1.0, "relaxation_freq": 1e100, '
         '"damping": 1e6}}', "gain_magsq is nan at f=1000 Hz"),
        ('{"kind": "BeamSquintSinc", "params": {"element_gain": 1e200, "elements": 4, '
         '"spacing_delay": 1e-12}}', "gain_magsq is inf at f=1000 Hz"),
        ('{"kind": "FlatGain", "params": {"gain": 1e150}}', "gnr_linear is inf at f=1000 Hz"),
    ], ids=["laser-resonance", "beam-gain", "gnr"])
    def test_gnr_eval_refuses_columns_past_the_float_range(self, tmp_path, capsys, stage, message):
        path = tmp_path / "loud.json"
        path.write_text('{"stages": [%s], "noise": {"floor": 1e-17}}' % stage)
        out = tmp_path / "out.csv"
        assert run_cli("gnr-eval", "--channel", str(path), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"owclb: gnr-eval failed: {message}\n"
        assert not out.exists()


class TestFitCommand:
    def test_fit_writes_loadable_fragment(self, tmp_path):
        model = owclb.MagSqPoleZeroGnr(gnr0=1e4, zeros=(3e7,), poles=(2e6, 8e6))
        freqs = np.geomspace(1e4, 1e9, 120)
        table = owclb.ResponseTable(frequencies=freqs, values=model(freqs))
        table_path = tmp_path / "meas.csv"
        owclb.write_response_table(table, table_path)
        out = tmp_path / "fit.json"
        assert (
            run_cli(
                "fit", "--channel", str(table_path), "--zeros", "1", "--poles", "2",
                "--seed", "4", "--out", str(out),
            )
            == 0
        )
        chain = owclb.chain_from_dict(json.loads(out.read_text()))
        back = owclb.reduce_to_polezero(chain)
        assert back.poles == pytest.approx(model.poles, rel=1e-3)

    # two reducible fit-pipeline benchmark tables (run seeds 907 and 9, jobs
    # 150 and 530) whose best 16 draws stopped in a local minimum at 0.178
    # and 0.154 dB, above the benchmark's 0.13 dB bound for 0.1 dB noise
    @pytest.mark.parametrize("table, seed", [("fit_table_s907_j150.csv", "150"),
                                             ("fit_table_s9_j530.csv", "530")])
    def test_fit_escapes_the_local_minimum(self, capsys, table, seed):
        argv = ["fit", "--channel", str(DATA / table), "--zeros", "1", "--poles", "4", "--seed", seed]
        assert run_cli(*argv) == 0
        rms = float(re.search(r"rms=(\S+) dB", capsys.readouterr().out).group(1))
        assert rms <= 0.13

    def test_fit_db_input(self, tmp_path):
        model = owclb.MagSqPoleZeroGnr(gnr0=50.0, poles=(5e6,))
        freqs = np.geomspace(1e4, 1e9, 80)
        db_vals = 10.0 * np.log10(model(freqs))
        table_path = tmp_path / "meas_db.csv"
        table_path.write_text(
            "frequency_hz,value\n"
            + "\n".join(f"{repr(float(f))},{repr(float(v))}" for f, v in zip(freqs, db_vals))
            + "\n"
        )
        out = tmp_path / "fit.json"
        assert (
            run_cli(
                "fit", "--channel", str(table_path), "--zeros", "0", "--poles", "1",
                "--db", "--out", str(out),
            )
            == 0
        )
        back = owclb.reduce_to_polezero(owclb.chain_from_dict(json.loads(out.read_text())))
        assert back.poles[0] == pytest.approx(5e6, rel=1e-3)
        assert back.gnr0 == pytest.approx(50.0, rel=1e-3)

    def test_scan_orders_runs(self, tmp_path, capsys):
        model = owclb.MagSqPoleZeroGnr(gnr0=5.0, poles=(4e6, 60e6))
        freqs = np.geomspace(1e4, 1e9, 100)
        table = owclb.ResponseTable(frequencies=freqs, values=model(freqs))
        table_path = tmp_path / "meas.csv"
        owclb.write_response_table(table, table_path)
        assert (
            run_cli(
                "fit", "--channel", str(table_path), "--zeros", "1", "--poles", "2",
                "--scan-orders",
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "order M=0 N=2" in printed

    def test_scan_orders_fits_each_order_once(self, monkeypatch, capsys):
        # the scan's (1, 2) row is the requested fit; it is not run again
        calls = []
        real = owclb.fit.fit_polezero
        monkeypatch.setattr(
            owclb.fit, "fit_polezero", lambda t, c: calls.append((c.n_zeros, c.n_poles)) or real(t, c)
        )
        argv = ["--zeros", "1", "--poles", "2", "--seed", "4", "--scan-orders"]
        assert run_cli("fit", "--channel", str(DATA / "fit_table.csv"), *argv) == 0
        assert calls == [(0, 1), (0, 2), (1, 1), (1, 2)]
        assert capsys.readouterr().out.endswith("poles MHz [1.9995, 7.9977]\n")

    def test_scan_orders_short_table_still_fails(self, tmp_path, capsys):
        # 7 rows fit the orders that need at most 6; the requested (1, 3) needs 10
        freqs = np.geomspace(1e4, 1e8, 7)
        table_path = tmp_path / "short.csv"
        owclb.write_response_table(
            owclb.ResponseTable(frequencies=freqs, values=1.0 / (1.0 + (freqs / 1e6) ** 2)),
            table_path,
        )
        argv = ["--zeros", "1", "--poles", "3", "--scan-orders"]
        assert run_cli("fit", "--channel", str(table_path), *argv) == 1
        out, err = capsys.readouterr()
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "order M=0 N=1", "order M=0 N=2", "order M=1 N=1"
        ]
        assert err == "owclb: fit failed: need at least 10 rows inside f_range, found 7\n"


class TestValidationAndDeterminism:
    def test_missing_channel_names_field(self, capsys):
        assert run_cli("gnr-eval", "--channel", "/nope/missing.json") == 2
        assert "channel" in capsys.readouterr().err

    def test_negative_gamma_names_field(self, channel_path, capsys):
        rc = run_cli(
            "rate-curve", "--channel", channel_path, "--gamma-db", "-1",
            "--sweep", "fmax:1e6:1e8:5",
        )
        assert rc == 2
        assert "gamma_db" in capsys.readouterr().err

    def test_descending_sweep_rejected(self, channel_path, capsys):
        rc = run_cli(
            "rate-curve", "--channel", channel_path, "--sweep", "fmax:1e8:1e6:5"
        )
        assert rc == 2
        assert "sweep" in capsys.readouterr().err

    def test_missing_budget_named(self, channel_path, capsys):
        rc = run_cli(
            "optimize-newton", "--channel", channel_path, "--gamma-db", "6.06",
            "--k", "64", "--fchip", "2e8",
        )
        assert rc == 2
        assert "budget" in capsys.readouterr().err

    def test_non_reducible_channel_fails_cleanly(self, tmp_path, capsys):
        chain = owclb.LinkChain(
            stages=(owclb.GaussianLowPass(dc_gain=1.0, corner=1e9),),
            noise=owclb.NoiseSpectrum(floor=1e-17),
        )
        path = tmp_path / "gauss.json"
        owclb.save_chain(chain, path)
        rc = run_cli(
            "rate-curve", "--channel", str(path), "--sweep", "fmax:1e6:1e8:5"
        )
        assert rc == 1
        assert "fit" in capsys.readouterr().err

    def test_gnr_underflowing_on_grid_fails_cleanly(self, tmp_path, capsys):
        # 1e-280 / (2e5)^10 at f_chip underflows to 0; Newton once divided by it
        chain = owclb.LinkChain(
            stages=(owclb.RationalPoleZero(dc_gain=1e-140, poles=(1e3,) * 5),),
            noise=owclb.NoiseSpectrum(floor=1.0),
        )
        path = tmp_path / "under.json"
        owclb.save_chain(chain, path)
        rc = run_cli("optimize-newton", "--channel", str(path), "--budget", "1e-300")
        assert rc == 1
        assert capsys.readouterr().err == (
            "owclb: optimize-newton failed: gnr_k entries must be positive and finite\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [["optimize-newton", "--budget", "1"], ["rate-curve", "--sweep", "power:1e-3:1:4"]],
        ids=["optimize-newton", "power-sweep"],
    )
    def test_gamma_over_gnr_overflow_exits_1_without_warning(self, tmp_path, argv):
        # 1e-280 / (1 + (f/1e3)^2)^5 is subnormal from subcarrier 5 on, where 1/GNR overflows
        path = tmp_path / "over.json"
        path.write_text(json.dumps({
            "stages": [
                {"kind": "FlatGain", "params": {"gain": 1e-140}},
                {"kind": "RationalPoleZero", "params": {"dc_gain": 1.0, "poles": [1e3] * 5}},
            ],
            "noise": {"floor": 1.0},
        }))
        proc = run_cli_process([*argv, "--channel", str(path), "--k", "64", "--fchip", "1e7"])
        assert proc.returncode == 1
        assert "Warning" not in proc.stderr
        assert proc.stderr.startswith(
            f"owclb: {argv[0]} failed: Gamma/GNR at subcarrier k=5 overflows: GNR is "
        )

    @pytest.mark.parametrize(
        "sweep, message",
        [
            (["--sweep", "power:0:1e9:4"], "sweep budgets must be > 0 V^2, got 0.0"),
            (["--sweep", "power:1e4:1e9:4:log", "--k", "0"], "k must be >= 1, got 0"),
        ],
        ids=["budget", "k"],
    )
    def test_power_sweep_checks_flags_before_the_channel(self, tmp_path, capsys, sweep, message):
        # the channel is not reducible, which fails with exit 1 once it is read
        chain = owclb.LinkChain(
            stages=(owclb.GaussianLowPass(dc_gain=1.0, corner=1e9),),
            noise=owclb.NoiseSpectrum(floor=1e-17),
        )
        path = tmp_path / "gauss.json"
        owclb.save_chain(chain, path)
        assert run_cli("rate-curve", "--channel", str(path), *sweep) == 2
        assert capsys.readouterr().err == f"owclb: {message}\n"

    @pytest.mark.parametrize(
        "stage, noise, where",
        [
            ({"kind": "FirstOrderLowPass", "params": {"dc_gain": 1.0, "cornr": 1e6}},
             {"floor": 1e-17}, "stages[0].params.cornr"),
            ({"kind": "FlatGain", "params": {"gain": 1.0}},
             {"flor": 1e-17}, "noise.flor"),
            ({"kind": "Tabulated", "params": {}},
             {"floor": 1e-17}, "stages[0].params.rows"),
            ({"kind": "FirstOrderLowPass", "params": {"dc_gain": 1.0, "corner": -1e6}},
             {"floor": 1e-17}, "stages[0].params.corner"),
            ({"kind": "BeamSquintSinc",
              "params": {"element_gain": 1.0, "elements": 2.5, "spacing_delay": 1e-12}},
             {"floor": 1e-17}, "stages[0].params.elements"),
        ],
        ids=["stage-param-key", "noise-key", "tabulated-rows", "negative-corner", "fractional-count"],
    )
    def test_malformed_channel_names_json_path(self, tmp_path, capsys, stage, noise, where):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"stages": [stage], "noise": noise}))
        rc = run_cli("rate-curve", "--channel", str(path), "--sweep", "fmax:1e6:1e8:5")
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"owclb: {where}: ")

    def test_invalid_json_names_file_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "cut.json"
        path.write_text('{"stages": [\n')
        assert run_cli("gnr-eval", "--channel", str(path)) == 2
        assert capsys.readouterr().err == (
            f"owclb: {path}: not valid JSON: Expecting value at line 2 column 1\n"
        )

    @pytest.mark.parametrize(
        "row, flags, message",
        [
            ("2e6", [], "expected 2 columns, got 1"),
            ("2e6,abc", [], "cells must be numbers"),
            ("2e6,5000", ["--db"], "5000 dB is out of range"),
        ],
        ids=["one-column", "non-numeric", "db-overflow"],
    )
    def test_bad_table_row_names_row(self, tmp_path, capsys, row, flags, message):
        path = tmp_path / "meas.csv"
        path.write_text(f"frequency_hz,value\n1e6,1.0\n{row}\n3e6,0.5\n")
        assert run_cli("fit", "--channel", str(path), *flags) == 2
        assert capsys.readouterr().err.startswith(f"owclb: {path}: row 3: {message}")

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize-newton", "--budget", "1e6"],
        ],
        ids=["optimize-newton"],
    )
    def test_k_below_2_is_flag_error_for_newton(self, channel_path, capsys, argv):
        assert run_cli(*argv, "--channel", channel_path, "--k", "1") == 2
        assert capsys.readouterr().err == (
            "owclb: k must be >= 2 for the Newton search, got 1\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize-hh", "--budget", "1e6"],
            ["compare", "--budget", "1e6"],
            ["rate-curve", "--sweep", "fmax:1e6:1e8:4:log"],
            ["rate-curve", "--sweep", "power:1e4:1e9:4:log"],
        ],
        ids=["optimize-hh", "compare", "fmax-sweep", "power-sweep"],
    )
    def test_k_1_still_accepted_without_newton(self, channel_path, argv):
        assert run_cli(*argv, "--channel", channel_path, "--k", "1") == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize-newton", "--budget", "1e6"],
            ["optimize-hh", "--budget", "1e6"],
            ["compare", "--budget", "1e6"],
            ["rate-curve", "--sweep", "power:1e4:1e9:4:log"],
        ],
        ids=["optimize-newton", "optimize-hh", "compare", "power-sweep"],
    )
    def test_allocation_failure_exits_1_without_traceback(self, channel_path, capsys,
                                                          monkeypatch, argv):
        # an absurd --k fails to allocate its grid; the patch raises that error
        # without allocating anything
        def no_memory(cls, g, K, f_chip):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(owclb.SubcarrierGrid, "from_model", classmethod(no_memory))
        assert run_cli(*argv, "--channel", channel_path, "--k", "64") == 1
        err = capsys.readouterr().err
        assert err == f"owclb: {argv[0]} failed: Unable to allocate 72.8 TiB for an array\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rate-curve", "--sweep", "fmax:1e5:1e8:5", "--gamma-db", "nan"],
             "gamma_db must be finite, got nan"),
            (["optimize-hh", "--k", "16", "--budget", "nan"], "budget must be finite, got nan"),
            (["optimize-hh", "--k", "16", "--budget", "inf"], "budget must be finite, got inf"),
            (["compare", "--budget", "1e7", "--fchip", "nan"], "fchip must be finite, got nan"),
            (["optimize-newton", "--budget", "1e7", "--fchip", "inf"],
             "fchip must be finite, got inf"),
            (["rate-curve", "--sweep", "fmax:1e5:inf:5"],
             "sweep bounds must be finite, got 'fmax:1e5:inf:5'"),
        ],
        ids=["gamma-db-nan", "budget-nan", "budget-inf", "fchip-nan", "fchip-inf", "sweep-inf"],
    )
    def test_non_finite_flag_is_flag_error(self, channel_path, capsys, argv, message):
        assert run_cli(*argv, "--channel", channel_path) == 2
        assert capsys.readouterr().err == f"owclb: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rate-curve", "--gamma-db", "4000", "--sweep", "fmax:1e5:1e8:5"],
             "gamma_db must be <= 3000 dB, got 4000.0"),
            (["rate-curve", "--sweep", "power:0:1e9:5"], "sweep budgets must be > 0 V^2, got 0.0"),
            (["gnr-eval", "--sweep", "power:1e4:1e9:3"],
             "sweep variable must be 'fmax' for gnr-eval, got 'power'"),
        ],
        ids=["gamma-db-overflow", "power-sweep-zero-budget", "gnr-eval-power-sweep"],
    )
    def test_out_of_range_flag_is_flag_error(self, channel_path, capsys, argv, message):
        assert run_cli(*argv, "--channel", channel_path) == 2
        assert capsys.readouterr().err == f"owclb: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [(["--zeros", "-1"], "zeros must be >= 0, got -1"),
         (["--poles", "0"], "poles must be >= 1, got 0"),
         (["--zeros", "3", "--poles", "1"],
          "poles must be >= zeros for a low-pass fit, got --zeros 3 --poles 1"),
         (["--seed", "-1"], "seed must be >= 0, got -1")],
        ids=["zeros", "poles", "zeros-above-poles", "seed"],
    )
    def test_fit_order_is_flag_error(self, capsys, argv, message):
        assert run_cli("fit", "--channel", str(DATA / "fit_table.csv"), *argv) == 2
        assert capsys.readouterr().err == f"owclb: {message}\n"

    @pytest.mark.parametrize("command", ["gnr-eval", "fit"])
    def test_non_utf8_input_names_file(self, tmp_path, capsys, command):
        path = tmp_path / "input"
        path.write_bytes(b"\xff\xfe")
        assert run_cli(command, "--channel", str(path)) == 2
        assert capsys.readouterr().err == (
            f"owclb: {path}: not UTF-8: invalid start byte at byte 0\n"
        )

    def test_flag_of_another_command_rejected(self, channel_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("gnr-eval", "--channel", channel_path, "--gamma-db", "6")
        assert exc.value.code == 2
        assert "unrecognized arguments: --gamma-db 6" in capsys.readouterr().err

    def test_help_lists_only_own_flags(self, capsys):
        settable = set()
        for command in COMMANDS:
            with pytest.raises(SystemExit):
                run_cli(command, "--help")
            flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
            assert flags == {"--" + f.replace("_", "-") for f in COMMANDS[command]}, command
            settable |= {(command, flag) for flag in flags}
        assert len(settable) == 35

    def test_every_subcommand_reruns_byte_identical(self, channel_path, tmp_path, capsys):
        model = owclb.MagSqPoleZeroGnr(gnr0=9.0, poles=(3e6, 50e6))
        freqs = np.geomspace(1e4, 1e9, 40)
        table_path = tmp_path / "meas.csv"
        owclb.write_response_table(
            owclb.ResponseTable(frequencies=freqs, values=model(freqs)), table_path
        )
        ch = ["--channel", channel_path, "--gamma-db", "6.06", "--fchip", "2e8"]
        cases = [
            ["gnr-eval", "--channel", channel_path, "--sweep", "fmax:1e6:1e8:7:log"],
            ["rate-curve", *ch, "--sweep", "fmax:1e5:2e8:9:log"],
            ["rate-curve", *ch, "--sweep", "power:1e4:1e9:5:log", "--k", "32"],
            ["optimize-newton", *ch, "--budget", "1e7", "--k", "32"],
            ["optimize-hh", *ch, "--budget", "1e7", "--k", "32"],
            ["optimize-hh", *ch, "--budget", "1e7", "--k", "32", "--naive"],
            ["compare", *ch, "--budget", "1e7", "--k", "32"],
            ["fit", "--channel", str(table_path), "--zeros", "0", "--poles", "2", "--seed", "3"],
            ["optimize-newton", *ch, "--k", "32"],
        ]
        for argv in cases:
            runs = []
            for i in range(2):
                out = tmp_path / f"out{i}"
                out.unlink(missing_ok=True)
                rc = run_cli(*argv, "--out", str(out))
                captured = capsys.readouterr()
                written = out.read_bytes() if out.exists() else None
                runs.append((rc, captured.out, captured.err, written))
            assert runs[0] == runs[1], argv
        # a flag the parser rejects exits the same way twice
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run_cli("optimize-hh", "--channel", channel_path, "--k", "many")
            assert exc.value.code == 2
            assert "argument --k: invalid int value: 'many'" in capsys.readouterr().err

    def test_byte_identical_reruns(self, channel_path, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            assert (
                run_cli(
                    "rate-curve", "--channel", channel_path, "--gamma-db", "6.06",
                    "--sweep", "power:1e4:1e8:5:log", "--k", "32", "--fchip", "2e8",
                    "--out", str(out),
                )
                == 0
            )
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_csv_is_clean(self, channel_path, capsys):
        assert run_cli("gnr-eval", "--channel", channel_path, "--sweep", "fmax:1e6:1e8:5:log") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "f_hz,gain_magsq,noise_psd_v2_per_hz,gnr_linear"
        assert len(lines) == 6

    def test_log_env_var_accepted(self, channel_path, tmp_path, monkeypatch):
        monkeypatch.setenv("OWCLB_LOG", "debug")
        out = tmp_path / "gnr.csv"
        assert run_cli("gnr-eval", "--channel", channel_path, "--out", str(out)) == 0
        # a failing command still logs its detail, in a process of its own
        # so that the test runner's log capture does not take it
        argv = ["optimize-hh", "--channel", channel_path, "--budget", "1", "--fchip", "1e160"]
        for env, detail in ((os.environ, True), (_without_log_env(), False)):
            proc = run_cli_process(argv, env)
            assert proc.returncode == 1
            assert proc.stderr.startswith("owclb: optimize-hh failed: frequency must be")
            assert ("DEBUG:owclb:failure detail\nTraceback" in proc.stderr) == detail

    def test_fit_reruns_byte_identical(self, tmp_path):
        model = owclb.MagSqPoleZeroGnr(gnr0=9.0, poles=(3e6, 50e6))
        freqs = np.geomspace(1e4, 1e9, 90)
        table = owclb.ResponseTable(frequencies=freqs, values=model(freqs))
        table_path = tmp_path / "meas.csv"
        owclb.write_response_table(table, table_path)
        outs = []
        for name in ("f1.json", "f2.json"):
            out = tmp_path / name
            assert (
                run_cli(
                    "fit", "--channel", str(table_path), "--zeros", "0", "--poles", "2",
                    "--seed", "12", "--out", str(out),
                )
                == 0
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# Recorded with the code before the CSV codec, gap validator and per-command
# flags were merged; every output file and stdout must match byte for byte.
# Field values from the smallest to the largest a channel may hold: fixed
# extremes around the limits of f^2, plus seeded log-uniform draws.
PROPERTY_VALUES = [1e-300, 1e-250, 1.5e-154, 1.0, 1.4e154, 1e200, 1.7e308] + (
    10.0 ** np.random.default_rng(7).uniform(-300, 308, 3)
).tolist()
PROPERTY_FLOORS = [1e-300, 1e-17, 1.0, 1.7e308]
# one chain per stage kind (and one for the noise spectrum): stages, noise fields
PROPERTY_CHAINS = {
    "FlatGain": lambda x: ({"gain": x}, {}),
    "FirstOrderLowPass": lambda x: ({"dc_gain": 1.0, "corner": x}, {}),
    "RationalPoleZero": lambda x: ({"dc_gain": x, "zeros": [x], "poles": [1e-300, 1e6]}, {}),
    # at a tiny dc_gain, its square is 0 while the zero's factor is inf
    "RationalPoleZero/tiny-zero": lambda x: (
        {"dc_gain": x, "zeros": [1e-250], "poles": [1e6, 1e7]}, {}),
    "LaserSecondOrder": lambda x: ({"dc_gain": 1.0, "relaxation_freq": x, "damping": x}, {}),
    "GaussianLowPass": lambda x: ({"dc_gain": x, "corner": x}, {}),
    "BeamSquintSinc": lambda x: ({"element_gain": 1.0, "elements": 4, "spacing_delay": x}, {}),
    "Tabulated": lambda x: ({"rows": [[1.0, 1.0], [1e6, x], [1e11, x]]}, {}),
    "NoiseSpectrum": lambda x: ({"gain": 1.0}, {"uplift_zero": x, "rolloff_poles": [x, 1e7]}),
}
PROPERTY_ARGVS = [
    ["gnr-eval"],
    ["rate-curve", "--sweep", "fmax:1e5:2e8:20:log"],
    ["rate-curve", "--sweep", "power:1e-6:1e9:6:log"],
    ["optimize-newton", "--budget", "1"],
    ["optimize-hh", "--budget", "1"],
    ["optimize-hh", "--naive", "--budget", "1"],
    ["compare", "--budget", "1"],
    # the ends of the flags' range: rates and PSDs past the float range,
    # corners and frequencies whose squares underflow together
    ["rate-curve", "--sweep", "fmax:1e300:1.7e308:3:log"],
    ["rate-curve", "--sweep", "power:1:1.7e308:3:log", "--fchip", "1e-300", "--k", "2"],
    ["optimize-newton", "--budget", "1", "--fchip", "1e-300"],
    ["compare", "--budget", "1", "--fchip", "1e-300"],
    ["rate-curve", "--sweep", "power:1e-300:1.7e308:5:log", "--fchip", "1e150"],
    ["optimize-newton", "--budget", "1.7e308", "--fchip", "1e150"],
    ["compare", "--budget", "1.7e308", "--fchip", "1e150"],
]
PROPERTY_FIT_FLAGS = [[], ["--db"], ["--zeros", "1", "--poles", "2"], ["--scan-orders", "--poles", "2"]]


def _property_faults(capsys, argv, out) -> list[str]:
    """Run one command in-process and name every property it breaks: exit
    0, 1 or 2, no exception, no warning, no nan in stdout or the output
    file, no inf in the output file, one stderr line on a failure and none
    on success."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except Exception as exc:
            raise AssertionError(f"{argv} raised") from exc
    stdout, stderr = capsys.readouterr()
    written = out.read_text() if out.exists() else ""
    out.unlink(missing_ok=True)
    faults = [f"warning: {w.message}" for w in caught]
    if rc not in (0, 1, 2):
        faults.append(f"exit {rc}")
    if "nan" in (stdout + written).lower():
        faults.append("nan in the output")
    if "inf" in written.lower():
        faults.append("inf in the output file")
    if stderr.count("\n") != (0 if rc == 0 else 1) or "Traceback" in stderr:
        faults.append(f"stderr {stderr!r}")
    return [f"{argv[:-4]} {fault}" for fault in faults]


class TestProperty:
    """Seeded channels and tables at the ends of the float range, through
    every command: each run ends in a clean exit code and message."""

    @pytest.mark.parametrize("kind", sorted(PROPERTY_CHAINS))
    def test_every_command_on_extreme_channels(self, tmp_path, capsys, kind):
        path, out = tmp_path / "channel.json", tmp_path / "out.csv"
        faults = []
        for x in PROPERTY_VALUES:
            params, noise = PROPERTY_CHAINS[kind](x)
            stage = "FlatGain" if kind == "NoiseSpectrum" else kind.split("/")[0]
            for floor in PROPERTY_FLOORS:
                path.write_text(json.dumps({"stages": [{"kind": stage, "params": params}],
                                            "noise": {"floor": floor, **noise}}))
                for argv in PROPERTY_ARGVS:
                    argv = [*argv, "--channel", str(path), "--out", str(out)]
                    faults += [f"x={x!r} floor={floor!r} {f}" for f in _property_faults(capsys, argv, out)]
        assert faults == []

    def test_fit_on_extreme_tables(self, tmp_path, capsys):
        tables = [
            # data falling as f^-2 from 1.7e308: the fitted gnr0 passes the float range
            [(f, 1.7e308 * (1e-60 / f) ** 2) for f in np.geomspace(1e-60, 1e60, 8).tolist()],
        ]
        for x in PROPERTY_VALUES:
            tables.append([(f, x / (1.0 + (f / 1e6) ** 2)) for f in np.geomspace(1e3, 1e9, 8).tolist()])
            tables.append([(x * 2.0**i, 1.0 / (1 + i)) for i in range(8)])
        path, out = tmp_path / "table.csv", tmp_path / "out.json"
        faults = []
        for rows in tables:
            path.write_text("frequency_hz,value\n" + "".join(f"{f!r},{v!r}\n" for f, v in rows))
            for flags in PROPERTY_FIT_FLAGS:
                argv = ["fit", *flags, "--channel", str(path), "--out", str(out)]
                faults += [f"{rows[0]} {f}" for f in _property_faults(capsys, argv, out)]
        assert faults == []


_REF = ["--gamma-db", "6.06", "--fchip", "2e8"]
GOLDEN_CASES = {
    "gnr_eval_ref.csv": ["gnr-eval"],
    "newton_ref_k64.csv": ["optimize-newton", *_REF, "--budget", "3.5e7", "--k", "64"],
    "hh_accel_ref_k64.csv": ["optimize-hh", *_REF, "--budget", "3.5e7", "--k", "64"],
    "hh_naive_ref_k64.csv": ["optimize-hh", *_REF, "--budget", "3.5e7", "--k", "64", "--naive"],
    "compare_ref_k512.csv": ["compare", *_REF, "--budget", "1e7", "--k", "512"],
    "fit_ref.json": ["fit", "--zeros", "1", "--poles", "2", "--seed", "4", "--scan-orders"],
    # no --out: the CSV itself goes to stdout
    "compare_stdout_k64": ["compare", *_REF, "--budget", "1e7", "--k", "64"],
    # recorded with the per-bit greedy loops, before both loaders became one
    # sorted pass: at 1e14 every carrier ends at the 12-bit cap (the last
    # round has no budget check), at 1e12 789 of them do
    "compare_ref_k1024_b1e8.csv": ["compare", *_REF, "--budget", "1e8", "--k", "1024"],
    "compare_ref_k1024_b1e14.csv": ["compare", *_REF, "--budget", "1e14", "--k", "1024"],
    "hh_accel_ref_k1024_b1e12.csv": ["optimize-hh", *_REF, "--budget", "1e12", "--k", "1024"],
    # the fit-pipeline benchmark's orders on a noisy 300-row table
    "fit_ref300_z1p4_s150.json": ["fit", "--zeros", "1", "--poles", "4", "--seed", "150"],
    "fit_ref300_z0p4_s7.json": ["fit", "--zeros", "0", "--poles", "4", "--seed", "7"],
}
# Response tables the fit cases read; the default is fit_table.csv.
# fit_table_ref300.csv is the reference chain's GNR at np.geomspace(1e5, 1e9,
# 300) times 10**(n/10), n ~ normal(0, 0.1 dB) from np.random.default_rng(300).
GOLDEN_TABLES = {
    "fit_ref300_z1p4_s150.json": "fit_table_ref300.csv",
    "fit_ref300_z0p4_s7.json": "fit_table_ref300.csv",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_matches_golden_output(channel_path, tmp_path, capsys, name):
    argv = list(GOLDEN_CASES[name])
    table = GOLDEN_TABLES.get(name, "fit_table.csv")
    channel = str(DATA / table) if argv[0] == "fit" else channel_path
    argv[1:1] = ["--channel", channel]
    out = tmp_path / name
    if "." in name:
        argv += ["--out", str(out)]
    assert run_cli(*argv) == 0
    stdout = json.loads((DATA / "cli_stdout_ref.json").read_text())[name]
    assert capsys.readouterr().out == stdout
    if "." in name:
        assert out.read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("prefix", ["scipy", "logging"])
def test_cli_import_loads_no_module(prefix):
    # logging is imported only under OWCLB_LOG or to log a failure's detail
    code = f"import sys, owclb.cli; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(_without_log_env()), capture_output=True,
        text=True, check=True,
    )
    assert proc.stdout == "[]\n"


def test_every_public_name_resolves():
    missing = [name for name in owclb.__all__ if not hasattr(owclb, name)]
    assert missing == []
