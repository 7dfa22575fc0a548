import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import owclb
from owclb import cli
from owclb.cli import COMMANDS, main, read_table

from conftest import build_reference_chain

DATA = Path(__file__).parent / "data"


@pytest.fixture
def channel_path(tmp_path):
    path = tmp_path / "channel.json"
    owclb.save_chain(build_reference_chain(), path)
    return str(path)


def run_cli(*argv) -> int:
    return main(list(argv))


class TestGnrEval:
    def test_writes_readable_csv(self, channel_path, tmp_path):
        out = tmp_path / "gnr.csv"
        assert run_cli("gnr-eval", "--channel", channel_path, "--out", str(out)) == 0
        header, rows = read_table(out)
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
        _, rows = read_table(out)
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
        header, rows = read_table(out)
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
        header, rows = read_table(out)
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
        psd, n_flat = cli._flat_band_psd(model, grid, budgets)
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

    def test_power_sweep_refuses_rising_channel(self, tmp_path, capsys):
        chain = owclb.LinkChain(
            stages=(owclb.RationalPoleZero(dc_gain=1.0, zeros=(10e6, 50e6), poles=(1e6, 100e6, 1e9)),),
            noise=owclb.NoiseSpectrum(floor=1e-15),
        )
        path = tmp_path / "bump.json"
        owclb.save_chain(chain, path)
        rc = run_cli(
            "rate-curve", "--channel", str(path), "--sweep", "power:1e4:1e9:6:log",
            "--k", "64", "--fchip", "2e8",
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            "owclb: rate-curve failed: newton_fmax requires GNR non-increasing up to "
            "2e+08 Hz; use waterlevel_solve for non-monotone channels\n"
        )


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
        header, rows = read_table(out)
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


class TestFitCommand:
    def test_fit_writes_loadable_fragment(self, tmp_path):
        model = owclb.MagSqPoleZeroGnr(gnr0=1e4, zeros=(3e7,), poles=(2e6, 8e6))
        freqs = np.geomspace(1e4, 1e9, 120)
        table = owclb.ResponseTable(frequencies=freqs, values=model.evaluate(freqs))
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

    def test_fit_db_input(self, tmp_path):
        model = owclb.MagSqPoleZeroGnr(gnr0=50.0, poles=(5e6,))
        freqs = np.geomspace(1e4, 1e9, 80)
        db_vals = 10.0 * np.log10(model.evaluate(freqs))
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
        table = owclb.ResponseTable(frequencies=freqs, values=model.evaluate(freqs))
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
        ],
        ids=["stage-param-key", "noise-key", "tabulated-rows", "negative-corner"],
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
            ["rate-curve", "--sweep", "power:1e4:1e9:4:log"],
        ],
        ids=["optimize-newton", "power-sweep"],
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
        ],
        ids=["optimize-hh", "compare", "fmax-sweep"],
    )
    def test_k_1_still_accepted_without_newton(self, channel_path, argv):
        assert run_cli(*argv, "--channel", channel_path, "--k", "1") == 0

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
          "poles must be >= zeros for a low-pass fit, got --zeros 3 --poles 1")],
        ids=["zeros", "poles", "zeros-above-poles"],
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
            owclb.ResponseTable(frequencies=freqs, values=model.evaluate(freqs)), table_path
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

    def test_fit_reruns_byte_identical(self, tmp_path):
        model = owclb.MagSqPoleZeroGnr(gnr0=9.0, poles=(3e6, 50e6))
        freqs = np.geomspace(1e4, 1e9, 90)
        table = owclb.ResponseTable(frequencies=freqs, values=model.evaluate(freqs))
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


def test_cli_import_loads_no_scipy():
    code = "import sys, owclb.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(owclb.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"

