"""Seeded optimizer invariants: the exact water level bounds every integer
plan from above, Newton finishes at that level on monotone grids, every
power stays within its budget, and the CLI's power sweep, single-budget
commands and ``compare`` agree on the same rates."""

import json
import math

import numpy as np
import pytest

import owclb
from owclb.cli import main
from owclb.linkchain import _read_csv

from conftest import random_monotone_model

GAMMAS_DB = (0.0, 6.06, 20.0)
BUMP = owclb.MagSqPoleZeroGnr(gnr0=1e9, zeros=(10e6, 50e6), poles=(1e6, 100e6, 1000e6))


def grids(rng):
    """(model or None, grid, kind): random monotone models, the bump model,
    and shuffled monotone samples, K from 1 to 1024."""
    for k in (1, 2, 3, 8, 64, 256, 1024):
        f_chip = float(10.0 ** rng.uniform(7.0, 9.5))
        g = random_monotone_model(rng)
        mono = owclb.SubcarrierGrid.from_model(g, k, f_chip)
        yield g, mono, "monotone"
        yield None, owclb.SubcarrierGrid.from_model(BUMP, k, 1e9), "bump"
        yield None, owclb.SubcarrierGrid(K=k, f_chip=f_chip, gnr_k=rng.permutation(mono.gnr_k)), "shuffled"


def budgets(grid, gamma):
    """A tiny budget, power(2) of the sorted cell costs and its two float
    neighbours, the full-band power and ten times it."""
    w = np.sort(gamma / grid.gnr_k)
    full = grid.delta_b * float(np.sum(w[-1] - w)) or grid.delta_b * float(w[0])
    out = [full * 1e-12, full, 10.0 * full]
    if grid.K >= 2 and w[1] > w[0]:
        p2 = grid.delta_b * float(w[1] - w[0])
        out += [float(np.nextafter(p2, 0.0)), p2, float(np.nextafter(p2, np.inf))]
    return out


def test_library_invariants():
    rng = np.random.default_rng(2028)
    cases = 0
    for g, grid, kind in grids(rng):
        for gamma_db in GAMMAS_DB:
            gamma = 10.0 ** (gamma_db / 10.0)
            for b in budgets(grid, gamma):
                hh = owclb.hh_naive(grid, gamma, b)
                wide = owclb.hh_naive(grid, gamma, b, bit_cap=50)
                assert hh.total_power <= b and wide.total_power <= b
                try:
                    exact = owclb.waterlevel_solve(grid, gamma, b)
                except RuntimeError:  # the budget is lost in rounding next to w_(1)
                    assert wide.rate == 0.0
                    continue
                cases += 1
                assert exact.sigma2 <= b, (kind, grid.K, gamma_db, b)
                assert wide.rate <= exact.rate * (1.0 + 1e-12), (kind, grid.K, gamma_db, b)
                # criterion 6's sandwich, with the bit cap lifted: flooring each
                # active cell's rate of the exact level is an integer plan
                active = int(np.count_nonzero(exact.psd))
                assert exact.rate - wide.rate <= active * grid.delta_b * (1.0 + 1e-12)
                if g is None or grid.K < 2:
                    continue
                sol = owclb.newton_fmax(g, gamma, b, grid)
                assert sol.sigma2 <= b
                assert sol.water_level == exact.water_level and sol.rate == exact.rate
                assert sol.sigma2 == exact.sigma2
    assert cases > 250


def test_sigma2_within_the_budget_on_the_reference_chain(ref_model, gap):
    # at the parent the level was not rounded down: 1e9 came back 3.58e-7 over
    for k in (64, 256, 1024):
        grid = owclb.SubcarrierGrid.from_model(ref_model, k, 2e8)
        for b in np.geomspace(1e4, 1e9, 24).tolist():
            assert owclb.waterlevel_solve(grid, gap, b).sigma2 <= b
            assert owclb.newton_fmax(ref_model, gap, b, grid).sigma2 <= b


def _channel(path, g):
    doc = {"stages": [{"kind": "RationalPoleZero",
                       "params": {"dc_gain": math.sqrt(g.gnr0), "zeros": list(g.zeros),
                                  "poles": list(g.poles)}}],
           "noise": {"floor": 1.0}}
    path.write_text(json.dumps(doc))
    return str(path)


def _meta(path, key):
    return float(_read_csv(path, meta={key: float})[0][key])


@pytest.mark.parametrize("k", [2, 64, 1024])
def test_cli_power_sweep_agrees_with_single_commands(tmp_path, capsys, k):
    rng = np.random.default_rng(k)
    out = tmp_path / "out.csv"
    for g in (random_monotone_model(rng), random_monotone_model(rng), BUMP):
        channel = _channel(tmp_path / "ch.json", g)
        for gamma_db in GAMMAS_DB:
            flags = ["--channel", channel, "--gamma-db", repr(gamma_db), "--k", str(k), "--fchip", "2e8"]
            assert main(["rate-curve", *flags, "--sweep", "power:1e-12:1e9:7:log", "--out", str(out)]) == 0
            rows = _read_csv(out)[2]
            assert np.all(np.diff(rows[:, 1:], axis=0) >= 0.0)
            if g is BUMP:
                # a rising GNR: no Newton search, so the exact column is
                # checked against waterlevel_solve on the same grid
                gamma = 10.0 ** (gamma_db / 10.0)
                grid = owclb.SubcarrierGrid.from_model(
                    owclb.reduce_to_polezero(owclb.load_chain(channel)), k, 2e8)
                assert np.any(np.diff(grid.gnr_k) > 0.0)
                for b, exact, hh in rows[:, :3].tolist():
                    assert exact == owclb.waterlevel_solve(grid, gamma, b).rate / 1e6
                    assert main(["optimize-hh", *flags, "--naive", "--budget", repr(b), "--out", str(out)]) == 0
                    assert _meta(out, "rate_bit_s") / 1e6 == hh
                    assert hh <= exact * (1.0 + 1e-12)
                continue
            for b, newton, hh in rows[:, :3].tolist():
                single = ["--budget", repr(b), "--out", str(out)]
                assert main(["optimize-newton", *flags, *single]) == 0
                assert _meta(out, "rate_bit_s") / 1e6 == newton
                assert _meta(out, "sigma2_v2") <= b
                assert main(["optimize-hh", *flags, *single]) == 0
                assert _meta(out, "rate_bit_s") / 1e6 == hh
                assert _meta(out, "total_power_v2") <= b
                assert hh <= newton * (1.0 + 1e-12)
                hh_rate = _meta(out, "rate_bit_s")
                assert main(["compare", *flags, *single]) == 0
                assert _meta(out, "rate_mbit_s") == hh_rate / 1e6
    capsys.readouterr()
