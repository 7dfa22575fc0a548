"""Command-line front end: channel evaluation, optimization, fitting, sweeps.

Every command reads a channel (or response table) from disk, runs the
library, and writes plot-ready CSV; nothing is rendered.  Outputs are
deterministic: identical inputs, including the seed, produce byte-identical
files.  Rates inside CSV payloads are labeled with their unit in the
column name; the human-readable summary printed to stdout uses Mbit/s.
Each command takes only its own flags (``COMMANDS``); every one takes
``--channel`` (a response-table CSV for ``fit``) and ``--out``:

    owclb gnr-eval        [--sweep VAR:FROM:TO:POINTS[:log]]
    owclb rate-curve      [--gamma-db G] --sweep fmax:... | --sweep power:... [--k K] [--fchip F]
    owclb optimize-newton [--gamma-db G] --budget B [--k K] [--fchip F]
    owclb optimize-hh     [--gamma-db G] --budget B [--k K] [--fchip F] [--naive]
    owclb compare         [--gamma-db G] --budget B [--k K] [--fchip F]
    owclb fit             [--zeros M] [--poles N] [--seed S] [--db] [--scan-orders]

Without ``--out``, gnr-eval, rate-curve and compare write their CSV to stdout.
Set OWCLB_LOG=debug (or info/warning) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import bitload, fit, linkchain, waterfill

log = logging.getLogger("owclb")

_BUDGET_FLAGS = ("channel", "out", "gamma_db", "budget", "k", "fchip")
COMMANDS = {
    "gnr-eval": ("channel", "out", "sweep"),
    "rate-curve": ("channel", "out", "sweep", "gamma_db", "k", "fchip"),
    "optimize-newton": _BUDGET_FLAGS,
    "optimize-hh": _BUDGET_FLAGS + ("naive",),
    "fit": ("channel", "out", "zeros", "poles", "seed", "db", "scan_orders"),
    "compare": _BUDGET_FLAGS,
}

# Every flag's argparse options; COMMANDS says which command takes which.
_FLAGS = {
    "channel": dict(required=True, help="channel JSON (or table CSV for fit)"),
    "out": dict(default=None, help="output CSV/JSON path"),
    "gamma_db": dict(type=float, default=0.0, help="modulation gap in dB"),
    "k": dict(type=int, default=64, help="subcarrier count"),
    "fchip": dict(type=float, default=200e6, help="chip bandwidth in Hz"),
    "budget": dict(type=float, default=None, help="signal variance budget in V^2"),
    "sweep": dict(default=None, help="VAR:FROM:TO:POINTS[:log]"),
    "naive": dict(action="store_true", help="use the non-accelerated loader"),
    "zeros": dict(type=int, default=0, help="number of zeros"),
    "poles": dict(type=int, default=1, help="number of poles"),
    "seed": dict(type=int, default=0, help="multistart seed"),
    "db": dict(action="store_true", help="table values are in dB"),
    "scan_orders": dict(action="store_true", help="report rms over the (M,N) grid"),
}
# Numeric flags in the order they are checked, with the test that rejects a
# value and the rule its message states; non-finite values are refused next.
# The linear gap overflows a float above about 3082 dB.
_RANGES = (
    ("gamma_db", lambda v: v < 0.0, ">= 0 dB"),
    ("gamma_db", lambda v: v > 3000.0, "<= 3000 dB"),
    ("k", lambda v: v < 1, ">= 1"),
    ("fchip", lambda v: v <= 0.0, "> 0 Hz"),
    ("budget", lambda v: v < 0.0, ">= 0 V^2"),
    ("zeros", lambda v: v < 0, ">= 0"),
    ("poles", lambda v: v < 1, ">= 1"),
)


class CliError(Exception):
    """Validation failure; the message names the offending field."""


@dataclass(frozen=True)
class Sweep:
    variable: str
    start: float
    stop: float
    points: int
    log_spaced: bool

    def values(self) -> np.ndarray:
        if self.log_spaced:
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


def _parse_sweep(text: str) -> Sweep:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise CliError(f"sweep must be VAR:FROM:TO:POINTS[:log], got {text!r}")
    var = parts[0]
    if var not in ("fmax", "power"):
        raise CliError(f"sweep variable must be 'fmax' or 'power', got {var!r}")
    try:
        start, stop = float(parts[1]), float(parts[2])
        points = int(parts[3])
    except ValueError as exc:
        raise CliError(f"sweep bounds/points not numeric in {text!r}") from exc
    log_spaced = len(parts) == 5
    if log_spaced and parts[4] != "log":
        raise CliError(f"sweep trailing flag must be 'log', got {parts[4]!r}")
    if not (0.0 <= start < stop):
        raise CliError(f"sweep range must be ascending, got {start} .. {stop}")
    if math.isinf(stop):
        raise CliError(f"sweep bounds must be finite, got {text!r}")
    if log_spaced and start <= 0.0:
        raise CliError("sweep log spacing needs a positive start")
    if points < 2:
        raise CliError(f"sweep points must be >= 2, got {points}")
    return Sweep(var, start, stop, points, log_spaced)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="owclb", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument("--" + flag.replace("_", "-"), **_FLAGS[flag])
    return parser


def _check_flags(args: argparse.Namespace) -> None:
    """Check the channel file and the numeric flags the command has."""
    if not Path(args.channel).is_file():
        raise CliError(f"channel: file not found: {args.channel}")
    for name, rejects, text in _RANGES:
        value = getattr(args, name, None)
        if value is None:
            continue
        if rejects(value):
            raise CliError(f"{name} must be {text}, got {value}")
        if not math.isfinite(value):
            raise CliError(f"{name} must be finite, got {value}")


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Read back any CSV this CLI emits: (column names, value matrix)."""
    return linkchain._read_csv(path)[1:]


def _load_reduced(args) -> linkchain.MagSqPoleZeroGnr:
    return linkchain.reduce_to_polezero(linkchain.load_chain(args.channel))


def _flat_band_psd(g, grid: waterfill.SubcarrierGrid, budgets: np.ndarray):
    """Baseline: each budget spread uniformly over [0, first pole corner].

    Returns the PSD per budget and the number of subcarriers it loads, at
    least one; subcarriers beyond the first pole carry nothing.  The PSD
    is budget / max(f_edge, delta_b), so that one subcarrier above a pole
    below delta_b gets no more than the budget.
    """
    f_edge = min(g.poles) if g.poles else grid.f_chip
    n_flat = max(1, int(np.sum(grid.f_k <= f_edge)))
    return budgets / max(f_edge, grid.delta_b), n_flat


def _require_newton_k(k: int) -> None:
    if k < 2:
        raise CliError(f"k must be >= 2 for the Newton search, got {k}")


def cmd_gnr_eval(args) -> int:
    sweep = _parse_sweep(args.sweep) if args.sweep else Sweep("fmax", 1e3, 1e10, 481, True)
    if sweep.variable != "fmax":
        raise CliError(f"sweep variable must be 'fmax' for gnr-eval, got {sweep.variable!r}")
    chain = linkchain.load_chain(args.channel)
    freqs = sweep.values()
    gain = np.asarray(linkchain.chain_magsq(chain, freqs), dtype=float)
    noise = np.asarray(linkchain.eval_noise_psd(chain.noise, freqs), dtype=float)
    gnr = gain / noise
    linkchain._write_csv(
        args.out,
        ["f_hz", "gain_magsq", "noise_psd_v2_per_hz", "gnr_linear"],
        zip(freqs, gain, noise, gnr),
    )
    if args.out:
        print(f"gnr-eval: {freqs.size} points, GNR(f_min)={gnr[0]:.6g} linear")
    return 0


def cmd_rate_curve(args) -> int:
    if not args.sweep:
        raise CliError("sweep is required for rate-curve")
    sweep = _parse_sweep(args.sweep)
    g = _load_reduced(args)
    gamma = waterfill.ModulationGap.from_db(args.gamma_db)

    if sweep.variable == "fmax":
        fmaxes = sweep.values()
        rates = [waterfill.rate_closed_form(g, gamma, fm) for fm in fmaxes]
        linkchain._write_csv(
            args.out,
            ["f_max_hz", "rate_mbit_s"],
            zip(fmaxes, [r / 1e6 for r in rates]),
        )
        if args.out:
            print(f"rate-curve: {len(rates)} points, peak {max(rates) / 1e6:.3f} Mbit/s")
        return 0

    _require_newton_k(args.k)
    if sweep.start <= 0.0:
        raise CliError(f"sweep budgets must be > 0 V^2, got {sweep.start}")
    budgets = sweep.values()
    grid = waterfill.SubcarrierGrid.from_model(g, args.k, args.fchip)
    newton = [waterfill.newton_fmax(g, gamma, b, grid).rate for b in budgets]
    # the sorted pass needs no monotone grid, but the sweep keeps the refusal
    # hh_accelerated made; a rising model has already failed Newton above
    bitload.require_monotone_grid(grid)
    hh = bitload.hh_sorted_prefix(grid, gamma, budgets).rates
    psd, n_flat = _flat_band_psd(g, grid, budgets)
    snr = psd[:, None] * grid.gnr_k[:n_flat] / gamma.gamma_linear
    flat = grid.delta_b * np.sum(np.log2(1.0 + snr), axis=1)
    linkchain._write_csv(
        args.out,
        ["sigma2_v2", "rate_newton_mbit_s", "rate_hh_mbit_s", "rate_flat_mbit_s"],
        zip(budgets, (r / 1e6 for r in newton), hh / 1e6, flat / 1e6),
    )
    if args.out:
        print(
            f"rate-curve: {len(budgets)} budgets, at max budget "
            f"newton={newton[-1] / 1e6:.3f} hh={hh[-1] / 1e6:.3f} flat={flat[-1] / 1e6:.3f} Mbit/s"
        )
    return 0


def cmd_optimize_newton(args) -> int:
    if args.budget is None or args.budget <= 0.0:
        raise CliError("budget must be a positive V^2 value for optimize-newton")
    _require_newton_k(args.k)
    g = _load_reduced(args)
    gamma = waterfill.ModulationGap.from_db(args.gamma_db)
    grid = waterfill.SubcarrierGrid.from_model(g, args.k, args.fchip)
    sol = waterfill.newton_fmax(g, gamma, args.budget, grid)
    if args.out:
        waterfill.write_solution_csv(sol, args.out)
    print(
        f"optimize-newton: f_max={sol.f_max / 1e6:.4f} MHz, "
        f"rate={sol.rate / 1e6:.3f} Mbit/s, sigma2={sol.sigma2:.6g} V^2"
        + (" (saturated)" if sol.saturated else "")
    )
    return 0


def cmd_optimize_hh(args) -> int:
    if args.budget is None:
        raise CliError("budget is required for optimize-hh")
    g = _load_reduced(args)
    gamma = waterfill.ModulationGap.from_db(args.gamma_db)
    grid = waterfill.SubcarrierGrid.from_model(g, args.k, args.fchip)
    loader = bitload.hh_naive if args.naive else bitload.hh_accelerated
    plan = loader(grid, gamma, args.budget)
    if args.out:
        bitload.write_plan_csv(plan, args.out)
    print(
        f"optimize-hh[{plan.algorithm}]: {int(np.sum(plan.bits))} bits, "
        f"rate={plan.rate / 1e6:.3f} Mbit/s, power={plan.total_power:.6g} V^2, "
        f"flops={plan.flops}"
    )
    return 0


def cmd_fit(args) -> int:
    if args.poles < args.zeros:
        raise CliError(
            f"poles must be >= zeros for a low-pass fit, got --zeros {args.zeros} --poles {args.poles}"
        )
    table = linkchain.read_response_table(args.channel, values_in_db=args.db)
    f_range = (float(table.frequencies[0]), float(table.frequencies[-1]))
    fcfg = fit.FitConfig(
        n_zeros=args.zeros,
        n_poles=args.poles,
        f_range=f_range,
        multistarts=16,
        seed=args.seed,
    )
    fits = {}
    if args.scan_orders:
        for m, n, res in fit.scan_orders(table, fcfg):
            print(f"order M={m} N={n}: rms={res.rms_db_error:.4f} dB")
            fits[m, n] = res
    # the scan's last row is the requested order; refit only if it was skipped
    result = fits.get((args.zeros, args.poles)) or fit.fit_polezero(table, fcfg)
    if args.out:
        Path(args.out).write_text(
            json.dumps(fit.model_to_channel_dict(result.model), indent=2) + "\n"
        )
    corners = ", ".join(f"{z / 1e6:.4f}" for z in result.model.zeros) or "-"
    poles = ", ".join(f"{p / 1e6:.4f}" for p in result.model.poles)
    print(
        f"fit: rms={result.rms_db_error:.6f} dB, zeros MHz [{corners}], poles MHz [{poles}]"
    )
    for note in result.notes:
        print(f"fit note: {note}")
    return 0


def cmd_compare(args) -> int:
    if args.budget is None:
        raise CliError("budget is required for compare")
    g = _load_reduced(args)
    gamma = waterfill.ModulationGap.from_db(args.gamma_db)
    grid = waterfill.SubcarrierGrid.from_model(g, args.k, args.fchip)
    naive = bitload.hh_naive(grid, gamma, args.budget)
    accel = bitload.hh_accelerated(grid, gamma, args.budget)
    report = bitload.flop_report(naive, accel)
    row = (
        args.k,
        report.iterations,
        report.flops_a,
        report.flops_b,
        report.flops_saved,
        report.savings_per_iteration,
        report.populated_levels or 0,
    )
    linkchain._write_csv(
        args.out,
        [
            "k_subcarriers",
            "iterations",
            "naive_flops",
            "accel_flops",
            "flops_saved",
            "savings_per_iteration",
            "populated_levels",
        ],
        [[float(x) for x in row]],
        {"rate_mbit_s": naive.rate / 1e6},
    )
    if args.out:
        print(
            f"compare: K={args.k}, naive={report.flops_a} accel={report.flops_b} FLOPs, "
            f"saved {report.flops_saved} ({report.savings_per_iteration:.1f}/iteration)"
        )
    return 0


_HANDLERS = {
    "gnr-eval": cmd_gnr_eval,
    "rate-curve": cmd_rate_curve,
    "optimize-newton": cmd_optimize_newton,
    "optimize-hh": cmd_optimize_hh,
    "fit": cmd_fit,
    "compare": cmd_compare,
}


def run(argv: list[str]) -> int:
    level = os.environ.get("OWCLB_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return _HANDLERS[args.command](args)
    except (CliError, linkchain.ChannelFormatError) as exc:
        print(f"owclb: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"owclb: {args.command} failed: {exc}", file=sys.stderr)
        log.debug("failure detail", exc_info=True)
        return 1


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
