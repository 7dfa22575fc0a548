"""Command-line front end: channel evaluation, optimization, fitting, sweeps.

Every command reads a channel (or response table) from disk, runs the
library, and writes plot-ready CSV; nothing is rendered.  Outputs are
deterministic: identical inputs, including the seed, produce byte-identical
files.  Rates inside CSV payloads are labeled with their unit in the
column name; the human-readable summary printed to stdout uses Mbit/s.

    owclb gnr-eval        --channel ch.json --out gnr.csv [--sweep ...]
    owclb rate-curve      --channel ch.json --gamma-db G --sweep fmax:...:log
    owclb rate-curve      --channel ch.json --gamma-db G --sweep power:... \
                          --k 64 --fchip 200e6
    owclb optimize-newton --channel ch.json --gamma-db G --budget B --k K --fchip F
    owclb optimize-hh     --channel ch.json --gamma-db G --budget B --k K --fchip F [--naive]
    owclb fit             --channel table.csv --zeros M --poles N [--db] [--scan-orders]
    owclb compare         --channel ch.json --gamma-db G --budget B --k K --fchip F

Set OWCLB_LOG=debug (or info/warning) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import bitload, fit, linkchain, waterfill

log = logging.getLogger("owclb")

COMMANDS = ("gnr-eval", "rate-curve", "optimize-newton", "optimize-hh", "fit", "compare")


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


@dataclass(frozen=True)
class RunConfig:
    command: str
    channel_path: str
    output_path: str | None
    sweep: Sweep | None
    k: int
    f_chip: float
    gamma_db: float
    budget: float | None
    naive: bool
    n_zeros: int
    n_poles: int
    seed: int
    values_in_db: bool
    scan_orders: bool


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
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--channel", required=True, help="channel JSON (or table CSV for fit)")
        p.add_argument("--out", default=None, help="output CSV/JSON path")
        p.add_argument("--k", type=int, default=64, help="subcarrier count")
        p.add_argument("--fchip", type=float, default=200e6, help="chip bandwidth in Hz")
        p.add_argument("--gamma-db", type=float, default=0.0, help="modulation gap in dB")
        p.add_argument("--budget", type=float, default=None, help="signal variance budget in V^2")
        p.add_argument("--sweep", default=None, help="VAR:FROM:TO:POINTS[:log]")
        p.add_argument("--naive", action="store_true", help="use the non-accelerated loader")
        p.add_argument("--zeros", type=int, default=0, help="fit: number of zeros")
        p.add_argument("--poles", type=int, default=1, help="fit: number of poles")
        p.add_argument("--seed", type=int, default=0, help="fit: multistart seed")
        p.add_argument("--db", action="store_true", help="fit: table values are in dB")
        p.add_argument("--scan-orders", action="store_true", help="fit: report rms over the (M,N) grid")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if not Path(args.channel).is_file():
        raise CliError(f"channel: file not found: {args.channel}")
    if args.gamma_db < 0.0:
        raise CliError(f"gamma_db must be >= 0 dB, got {args.gamma_db}")
    if args.k < 1:
        raise CliError(f"k must be >= 1, got {args.k}")
    if args.fchip <= 0.0:
        raise CliError(f"fchip must be > 0 Hz, got {args.fchip}")
    if args.budget is not None and args.budget < 0.0:
        raise CliError(f"budget must be >= 0 V^2, got {args.budget}")
    sweep = _parse_sweep(args.sweep) if args.sweep else None
    return RunConfig(
        command=args.command,
        channel_path=args.channel,
        output_path=args.out,
        sweep=sweep,
        k=args.k,
        f_chip=args.fchip,
        gamma_db=args.gamma_db,
        budget=args.budget,
        naive=args.naive,
        n_zeros=args.zeros,
        n_poles=args.poles,
        seed=args.seed,
        values_in_db=args.db,
        scan_orders=args.scan_orders,
    )


def _write_csv(path: str | None, header: list[str], rows, comment: str | None = None) -> None:
    lines = []
    if comment:
        lines.append("# " + comment)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Read back any CSV this CLI emits: (column names, value matrix)."""
    lines = Path(path).read_text().strip().splitlines()
    lines = [ln for ln in lines if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, rows


def _load_reduced(cfg: RunConfig) -> linkchain.MagSqPoleZeroGnr:
    chain = linkchain.load_chain(cfg.channel_path)
    return linkchain.reduce_to_polezero(chain)


def _flat_band_rate(g, gamma: float, budget: float, k: int, f_chip: float) -> float:
    """Baseline: the budget spread uniformly over [0, first pole corner].

    Evaluated on the same subcarrier grid as the optimizers; subcarriers
    beyond the first pole carry nothing.
    """
    if not g.poles:
        f_edge = f_chip
    else:
        f_edge = min(g.poles)
    delta = f_chip / k
    f_k = delta * np.arange(1, k + 1)
    n_flat = max(1, int(np.sum(f_k <= f_edge)))
    psd = budget / f_edge
    gnr = g.evaluate(f_k[:n_flat])
    return delta * float(np.sum(np.log2(1.0 + psd * gnr / gamma)))


def _require_newton_k(cfg: RunConfig) -> None:
    if cfg.k < 2:
        raise CliError(f"k must be >= 2 for the Newton search, got {cfg.k}")


def cmd_gnr_eval(cfg: RunConfig) -> int:
    chain = linkchain.load_chain(cfg.channel_path)
    sweep = cfg.sweep or Sweep("fmax", 1e3, 1e10, 481, True)
    freqs = sweep.values()
    gain = np.asarray(linkchain.chain_magsq(chain, freqs), dtype=float)
    noise = np.asarray(linkchain.eval_noise_psd(chain.noise, freqs), dtype=float)
    gnr = gain / noise
    _write_csv(
        cfg.output_path,
        ["f_hz", "gain_magsq", "noise_psd_v2_per_hz", "gnr_linear"],
        zip(freqs, gain, noise, gnr),
    )
    if cfg.output_path:
        print(f"gnr-eval: {freqs.size} points, GNR(f_min)={gnr[0]:.6g} linear")
    return 0


def cmd_rate_curve(cfg: RunConfig) -> int:
    if cfg.sweep is None:
        raise CliError("sweep is required for rate-curve")
    g = _load_reduced(cfg)
    gamma = waterfill.ModulationGap.from_db(cfg.gamma_db)

    if cfg.sweep.variable == "fmax":
        fmaxes = cfg.sweep.values()
        rates = [waterfill.rate_closed_form(g, gamma, fm) for fm in fmaxes]
        _write_csv(
            cfg.output_path,
            ["f_max_hz", "rate_mbit_s"],
            zip(fmaxes, [r / 1e6 for r in rates]),
        )
        if cfg.output_path:
            print(f"rate-curve: {len(rates)} points, peak {max(rates) / 1e6:.3f} Mbit/s")
        return 0

    _require_newton_k(cfg)
    budgets = cfg.sweep.values()
    grid = bitload.SubcarrierGrid.from_model(g, cfg.k, cfg.f_chip)
    newton, flat = [], []
    for i, budget in enumerate(budgets):
        newton.append(waterfill.newton_fmax(g, gamma, budget, cfg.k, cfg.f_chip).rate)
        if i == 0:
            # the sorted pass needs no monotone grid, but the sweep keeps the
            # refusal hh_accelerated made here, so errors stay as they were
            bitload.require_monotone_grid(grid)
        flat.append(_flat_band_rate(g, gamma.gamma_linear, budget, cfg.k, cfg.f_chip))
    hh = bitload.hh_sorted_prefix(grid, gamma, budgets).rates
    _write_csv(
        cfg.output_path,
        ["sigma2_v2", "rate_newton_mbit_s", "rate_hh_mbit_s", "rate_flat_mbit_s"],
        zip(budgets, (r / 1e6 for r in newton), hh / 1e6, (r / 1e6 for r in flat)),
    )
    if cfg.output_path:
        print(
            f"rate-curve: {len(budgets)} budgets, at max budget "
            f"newton={newton[-1] / 1e6:.3f} hh={hh[-1] / 1e6:.3f} flat={flat[-1] / 1e6:.3f} Mbit/s"
        )
    return 0


def cmd_optimize_newton(cfg: RunConfig) -> int:
    if cfg.budget is None or cfg.budget <= 0.0:
        raise CliError("budget must be a positive V^2 value for optimize-newton")
    _require_newton_k(cfg)
    g = _load_reduced(cfg)
    gamma = waterfill.ModulationGap.from_db(cfg.gamma_db)
    sol = waterfill.newton_fmax(g, gamma, cfg.budget, cfg.k, cfg.f_chip)
    if cfg.output_path:
        waterfill.write_solution_csv(sol, cfg.output_path)
    print(
        f"optimize-newton: f_max={sol.f_max / 1e6:.4f} MHz, "
        f"rate={sol.rate / 1e6:.3f} Mbit/s, sigma2={sol.sigma2:.6g} V^2"
        + (" (saturated)" if sol.saturated else "")
    )
    return 0


def cmd_optimize_hh(cfg: RunConfig) -> int:
    if cfg.budget is None:
        raise CliError("budget is required for optimize-hh")
    g = _load_reduced(cfg)
    gamma = waterfill.ModulationGap.from_db(cfg.gamma_db)
    grid = bitload.SubcarrierGrid.from_model(g, cfg.k, cfg.f_chip)
    loader = bitload.hh_naive if cfg.naive else bitload.hh_accelerated
    plan = loader(grid, gamma, cfg.budget)
    if cfg.output_path:
        bitload.write_plan_csv(plan, cfg.output_path)
    print(
        f"optimize-hh[{plan.algorithm}]: {int(np.sum(plan.bits))} bits, "
        f"rate={plan.rate / 1e6:.3f} Mbit/s, power={plan.total_power:.6g} V^2, "
        f"flops={plan.flops}"
    )
    return 0


def cmd_fit(cfg: RunConfig) -> int:
    table = linkchain.read_response_table(cfg.channel_path, values_in_db=cfg.values_in_db)
    f_range = (float(table.frequencies[0]), float(table.frequencies[-1]))
    fcfg = fit.FitConfig(
        n_zeros=cfg.n_zeros,
        n_poles=cfg.n_poles,
        f_range=f_range,
        multistarts=16,
        seed=cfg.seed,
    )
    if cfg.scan_orders:
        for m, n, rms in fit.scan_orders(table, fcfg):
            print(f"order M={m} N={n}: rms={rms:.4f} dB")
    result = fit.fit_polezero(table, fcfg)
    if cfg.output_path:
        Path(cfg.output_path).write_text(
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


def cmd_compare(cfg: RunConfig) -> int:
    if cfg.budget is None:
        raise CliError("budget is required for compare")
    g = _load_reduced(cfg)
    gamma = waterfill.ModulationGap.from_db(cfg.gamma_db)
    grid = bitload.SubcarrierGrid.from_model(g, cfg.k, cfg.f_chip)
    naive = bitload.hh_naive(grid, gamma, cfg.budget)
    accel = bitload.hh_accelerated(grid, gamma, cfg.budget)
    report = bitload.flop_report(naive, accel)
    _write_csv(
        cfg.output_path,
        [
            "k_subcarriers",
            "iterations",
            "naive_flops",
            "accel_flops",
            "flops_saved",
            "savings_per_iteration",
            "populated_levels",
        ],
        [
            (
                cfg.k,
                report.iterations,
                report.flops_a,
                report.flops_b,
                report.flops_saved,
                report.savings_per_iteration,
                report.populated_levels or 0,
            )
        ],
        comment=f"rate_mbit_s={repr(naive.rate / 1e6)}",
    )
    if cfg.output_path:
        print(
            f"compare: K={cfg.k}, naive={report.flops_a} accel={report.flops_b} FLOPs, "
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
        cfg = _config_from_args(args)
    except CliError as exc:
        print(f"owclb: {exc}", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[cfg.command](cfg)
    except (CliError, linkchain.ChannelFormatError) as exc:
        print(f"owclb: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"owclb: {cfg.command} failed: {exc}", file=sys.stderr)
        log.debug("failure detail", exc_info=True)
        return 1


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
