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

``--gamma-db`` is the modulation gap in dB, 0 to 3000; the library takes it
as the plain linear number 10**(G/10).  The ``fmax`` sweep's closed-form
rate does not depend on it.  The ``power`` sweep's ``rate_newton_mbit_s``
column is the exact water level's rate on any grid (on a monotone one,
``optimize-newton``'s rate).
Without ``--out``, gnr-eval, rate-curve and compare write their CSV to stdout.
Set OWCLB_LOG=debug (or info/warning) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import bitload, fit, linkchain, waterfill

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
    ("seed", lambda v: v < 0, ">= 0"),
)


class CliError(Exception):
    """Validation failure; the message names the offending field."""


def _parse_sweep(text: str) -> tuple[str, np.ndarray]:
    """The sweep's variable and its points, linearly or log spaced."""
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
    spacing = np.geomspace if log_spaced else np.linspace
    return var, spacing(start, stop, points)


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


def _load_reduced(args) -> linkchain.MagSqPoleZeroGnr:
    return linkchain.reduce_to_polezero(linkchain.load_chain(args.channel))


def _load_grid(args):
    """The reduced channel, the linear modulation gap, and the channel on the subcarrier grid."""
    g = _load_reduced(args)
    gamma = 10.0 ** (args.gamma_db / 10.0)  # finite: _RANGES caps --gamma-db at 3000
    return g, gamma, waterfill.SubcarrierGrid.from_model(g, args.k, args.fchip)


def _flat_band_psd(g, grid: waterfill.SubcarrierGrid, budgets: np.ndarray):
    """Baseline: each budget spread uniformly over [0, first pole corner].

    Returns the PSD per budget, the number of subcarriers it loads, at
    least one, and the band width it is spread over; subcarriers beyond the
    first pole carry nothing.  The width is max(f_edge, delta_b), so that
    one subcarrier above a pole below delta_b gets no more than the budget.
    A PSD past the float range is inf, without a warning.
    """
    f_edge = min(g.poles) if g.poles else grid.f_chip
    n_flat = max(1, int(np.sum(grid.f_k <= f_edge)))
    width = max(f_edge, grid.delta_b)
    with np.errstate(over="ignore"):
        return budgets / width, n_flat, width


def cmd_gnr_eval(args) -> int:
    variable, freqs = _parse_sweep(args.sweep or "fmax:1e3:1e10:481:log")
    if variable != "fmax":
        raise CliError(f"sweep variable must be 'fmax' for gnr-eval, got {variable!r}")
    chain = linkchain.load_chain(args.channel)
    header = ["f_hz", "gain_magsq", "noise_psd_v2_per_hz", "gnr_linear"]
    # past the float range a column is inf or nan: refused below, not warned
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gain = np.asarray(linkchain.chain_magsq(chain, freqs), dtype=float)
        noise = np.asarray(linkchain.eval_noise_psd(chain.noise, freqs), dtype=float)
        gnr = gain / noise
    for name, column in zip(header[1:], (gain, noise, gnr)):
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"{name} is {float(column[i])!r} at f={freqs[i]:g} Hz")
    linkchain._write_csv(args.out, header, (freqs, gain, noise, gnr))
    if args.out:
        print(f"gnr-eval: {freqs.size} points, GNR(f_min)={gnr[0]:.6g} linear")
    return 0


def cmd_rate_curve(args) -> int:
    if not args.sweep:
        raise CliError("sweep is required for rate-curve")
    variable, points = _parse_sweep(args.sweep)
    if variable == "fmax":
        rates = waterfill.rate_closed_form(_load_reduced(args), points)
        linkchain._write_csv(args.out, ["f_max_hz", "rate_mbit_s"], (points, rates / 1e6))
        if args.out:
            print(f"rate-curve: {rates.size} points, peak {rates.max() / 1e6:.3f} Mbit/s")
        return 0

    budgets = points
    if budgets[0] <= 0.0:
        raise CliError(f"sweep budgets must be > 0 V^2, got {float(budgets[0])}")
    g, gamma, grid = _load_grid(args)
    newton = waterfill.waterlevel_sweep(grid, gamma, budgets)[1]
    hh = grid.delta_b * bitload.hh_sorted_prefix(grid, gamma, budgets).astype(float)
    psd, n_flat, width = _flat_band_psd(g, grid, budgets)
    gnr = grid.gnr_k[:n_flat]
    with np.errstate(over="ignore"):
        snr = psd[:, None] * gnr / gamma
    spectral = np.log2(1.0 + snr)
    over = np.isinf(snr)
    if over.any():  # past the float range 1 + snr rounds to snr: add the logarithms instead
        rows, cols = np.nonzero(over)
        log_psd = np.log2(psd[rows])
        huge = np.isinf(log_psd)  # the PSD itself past it: log2(budget / width)
        log_psd[huge] = np.log2(budgets[rows[huge]]) - math.log2(width)
        spectral[rows, cols] = log_psd + np.log2(gnr[cols]) - math.log2(gamma)
    flat = grid.delta_b * np.sum(spectral, axis=1)
    linkchain._write_csv(
        args.out,
        ["sigma2_v2", "rate_newton_mbit_s", "rate_hh_mbit_s", "rate_flat_mbit_s"],
        (budgets, newton / 1e6, hh / 1e6, flat / 1e6),
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
    if args.k < 2:
        raise CliError(f"k must be >= 2 for the Newton search, got {args.k}")
    g, gamma, grid = _load_grid(args)
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
    _, gamma, grid = _load_grid(args)
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
        multistarts=32,
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
    _, gamma, grid = _load_grid(args)
    naive = bitload.hh_naive(grid, gamma, args.budget)
    accel = bitload.hh_accelerated(grid, gamma, args.budget)
    saved = naive.flops - accel.flops
    per_iteration = saved / naive.iterations if naive.iterations else 0.0
    populated = sum(1 for head in accel.group_table if head != 0)
    row = (args.k, naive.iterations, naive.flops, accel.flops, saved, per_iteration, populated)
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
        [[float(x)] for x in row],
        {"rate_mbit_s": naive.rate / 1e6},
    )
    if args.out:
        print(
            f"compare: K={args.k}, naive={naive.flops} accel={accel.flops} FLOPs, "
            f"saved {saved} ({per_iteration:.1f}/iteration)"
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
    level = os.environ.get("OWCLB_LOG")
    if level:
        import logging

        logging.basicConfig(level=getattr(logging, level.upper(), logging.WARNING))
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
        import logging  # only here and under OWCLB_LOG: a plain run never loads it

        logging.getLogger("owclb").debug("failure detail", exc_info=True)
        return 1


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
