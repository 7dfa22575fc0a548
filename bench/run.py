"""owclb benchmark: one client, closed loop, whole CLI jobs on seeded inputs.

    python3 bench/run.py --workload design-point --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from anywhere; the program is imported from ``src/`` next to this
directory and from nowhere else.  A job is a short script of
``owclb.cli.main(argv)`` calls made in-process, one at a time; the next job
starts when the previous one has been checked (see ``workloads.py``).  Jobs
run until ``--seconds`` have passed, and at least ``PREFIX_JOBS`` of them.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (fresh
interpreter to the end of ``import owclb.cli``, median of several spawns),
``jobs_per_s``, ``job_p50_ms``, ``job_p90_ms`` and ``peak_rss_mb``.  A job's
time is the sum of its CLI calls; generating inputs and checking outputs
is not timed.  Failed jobs are the result's ``failed`` out of
``attempted``.  ``--trace 1`` wraps the library calls in spans and prints
the per-layer metrics instead, per job; counts (``.calls``,
``.iterations``, ``.flops``, ``hit_ratio``, ``fit.rms_db``) cover the first
``PREFIX_JOBS`` jobs so they repeat exactly for a seed, times cover every
job.  ``--workload all`` runs every workload untraced and traced, and
reports the tracing overhead and whether both runs wrote the same bytes.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A report with the machine, the
output digest, any failures and (traced) the spans of the first
``PREFIX_JOBS`` jobs is written to ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
from workloads import ALPHAS, WORKLOADS  # noqa: E402

PREFIX_JOBS = 30
WARMUP_SPAWNS = 2
SETUP_SPAWNS = 9
IMPORTTIME_SPAWNS = 5
CHILD = "import owclb.cli\nimport time\nprint(time.monotonic_ns())"

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


# ---------------------------------------------------------------------------
# set-up time


def _spawn_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn_import(*flags: str) -> tuple[float, str]:
    """Seconds from spawning a fresh interpreter to the end of the import."""
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", CHILD],
        env=_spawn_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"import owclb.cli failed in a fresh interpreter:\n{proc.stderr}")
    return (int(proc.stdout.split()[-1]) - t0) / 1e9, proc.stderr


def measure_setup_s() -> float:
    for _ in range(WARMUP_SPAWNS):
        spawn_import()
    return statistics.median(spawn_import()[0] for _ in range(SETUP_SPAWNS))


def _importtime_self_ms(stderr: str) -> dict[str, float]:
    """Self import time per top-level package, from ``-X importtime``."""
    out = {"numpy": 0.0, "scipy": 0.0, "owclb": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        package = name.strip().split(".")[0]
        if package in out and self_us.strip().isdigit():
            out[package] += int(self_us) / 1000.0
    return out


def measure_import_breakdown() -> dict[str, float]:
    spawn_import("-X", "importtime")
    runs = [_importtime_self_ms(spawn_import("-X", "importtime")[1])
            for _ in range(IMPORTTIME_SPAWNS)]
    return {
        "setup.scipy_ms": statistics.median(r["scipy"] for r in runs),
        "setup.numpy_ms": statistics.median(r["numpy"] for r in runs),
        "setup.owclb_self_ms": statistics.median(r["owclb"] for r in runs),
    }


# ---------------------------------------------------------------------------
# the job loop


@dataclass
class CallResult:
    command: str
    code: int
    stdout: str  # stdout and stderr of the call
    output: str = ""  # text of its --out file


@dataclass
class JobRecord:
    ns: int = 0
    failed: bool = False
    calls: list = field(default_factory=list)  # span ids of its CLI calls (traced)
    cache_hits: int = 0
    cache_misses: int = 0


class JobContext:
    """What a job script sees: its inputs' generator, a work directory and
    ``call``, the timed entry into the CLI."""

    def __init__(self, run: "Run", index: int):
        self.run = run
        self.index = index
        self.rng = np.random.default_rng([run.seed, run.workload_id, index])
        self.phases = run.phases
        self.workdir = run.workdir
        self.fit_rms = run.fit_rms.setdefault(index, [])
        self.problems: list[str] = []
        self.record = JobRecord()

    def u(self, d: int) -> float:
        """Coordinate d of this job's point in the run's Kronecker sequence."""
        return float((self.phases[d] + self.index * ALPHAS[d]) % 1.0)

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def write(self, name: str, text: str) -> str:
        (self.workdir / name).write_text(text)
        return self.path(name)

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def note(self, message: str) -> None:
        """An expected refusal: reported, but the job passes."""
        self.run.notes.append(f"job {self.index}: {message}")

    def call(self, *argv: str, ok_codes=(0,)) -> CallResult:
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        if out is not None:
            out.unlink(missing_ok=True)
        result = self.run.invoke(self.record, list(argv))
        output = out.read_text() if out is not None and out.is_file() else ""
        if result.code not in ok_codes:
            last = result.stdout.strip().splitlines()[-1:] or [""]
            self.fail(f"{result.command}: exit {result.code}: {last[0]}")
        result.output = output
        if self.index < PREFIX_JOBS:
            self.run.digest.update(
                f"{result.command}\0{result.code}\0{result.stdout}\0{output}\0".encode()
            )
        return result


class Run:
    def __init__(self, workload: str, seed: int, tracer: spans.Tracer | None, cli, cache):
        self.workload = WORKLOADS[workload]
        self.workload_id = list(WORKLOADS).index(workload)
        self.seed = seed
        self.phases = np.random.default_rng([seed, self.workload_id]).uniform(size=len(ALPHAS))
        self.tracer = tracer
        self.cli = cli
        self.cache = cache
        self.workdir = BUILD / f"work-{os.getpid()}"
        self.digest = hashlib.sha256()
        self.fit_rms: dict[int, list] = {}
        self.jobs: list[JobRecord] = []
        self.failures: list[str] = []
        self.notes: list[str] = []

    def invoke(self, record: JobRecord, argv: list[str]) -> CallResult:
        buf = io.StringIO()
        tracer = self.tracer
        rec = None
        if tracer is not None:
            rec = tracer.open("cli." + argv[0])
            tracer.root = rec[0]
            record.calls.append(rec[0])
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = time.perf_counter_ns()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback out of the CLI fails the job, not the run
                traceback.print_exc()
                code = -1
            t1 = time.perf_counter_ns()
        if rec is not None:
            tracer.close(rec, start=t0, end=t1)
        record.ns += t1 - t0
        return CallResult(argv[0], code, buf.getvalue())

    def run_job(self, index: int) -> None:
        ctx = JobContext(self, index)
        tracer = self.tracer
        job_rec = None
        if tracer is not None:
            tracer.job = index
            job_rec = tracer.open("job")
        info0 = self.cache.cache_info()
        try:
            problems = self.workload.job(ctx)
        except Exception as exc:  # glue choked on an output: the job failed
            problems = ctx.problems + [f"job raised {type(exc).__name__}: {exc}"]
        info1 = self.cache.cache_info()
        if job_rec is not None:
            tracer.close(job_rec)
        ctx.record.cache_hits = info1.hits - info0.hits
        ctx.record.cache_misses = info1.misses - info0.misses
        ctx.record.failed = bool(problems)
        self.failures += [f"job {index}: {p}" for p in problems]
        self.jobs.append(ctx.record)

    def loop(self, seconds: float) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            deadline = time.perf_counter() + seconds
            index = 0
            while index < PREFIX_JOBS or time.perf_counter() < deadline:
                self.run_job(index)
                index += 1
        finally:
            for p in self.workdir.iterdir():
                p.unlink()
            self.workdir.rmdir()


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(run: Run, setup_s: float) -> dict[str, float]:
    ms = np.array([j.ns for j in run.jobs], dtype=float) / 1e6
    ok = sum(not j.failed for j in run.jobs)
    p50, p90 = np.percentile(ms, [50, 90])
    return {
        "setup_s": setup_s,
        "jobs_per_s": ok / (ms.sum() / 1e3),
        "job_p50_ms": float(p50),
        "job_p90_ms": float(p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(run: Run, tracer: spans.Tracer) -> tuple[dict[str, float], float]:
    """Per-layer metrics per job, and the share of job time they account for.

    The share is (layer self times + cli.self_ms) / job time.  It is 1 when
    every call runs on one thread; worker-thread spans are summed, so a pool
    pushes it towards its overlap.
    """
    layer = set(spans.LAYER_NAMES)
    recs = [s for s in tracer.spans if s.name in layer]
    by_id = {s.id: s for s in tracer.spans}
    own = spans.self_times(tracer.spans)
    n_jobs = len(run.jobs)
    n_prefix = min(PREFIX_JOBS, n_jobs)
    job_ns = sum(j.ns for j in run.jobs)

    self_ns = dict.fromkeys(spans.LAYER_NAMES, 0)
    counts = dict.fromkeys([f"{n}.calls" for n in spans.LAYER_NAMES] + list(spans.COUNTER_NAMES), 0)
    intervals: dict[int, list] = defaultdict(list)  # CLI call -> its library spans
    worker_ns = worker_cpu = 0
    pooled_calls = set()
    for s in recs:
        self_ns[s.name] += own[s.id]
        intervals[s.call].append((s.start_ns, s.end_ns))
        if s.job < PREFIX_JOBS:
            counts[f"{s.name}.calls"] += 1
            for key, value in (s.counters or {}).items():
                if key != "cpu_ns":
                    counts[f"{s.name}.{key}"] += value
        if s.thread != tracer.main_thread and s.parent == s.call:
            worker_ns += s.end_ns - s.start_ns
            worker_cpu += s.counters["cpu_ns"]
            pooled_calls.add(s.call)
    cli_self = sum(
        (by_id[c].end_ns - by_id[c].start_ns) - spans.covered_ns(intervals[c])
        for job in run.jobs for c in job.calls
    )
    pooled_wall = sum(by_id[c].end_ns - by_id[c].start_ns for c in pooled_calls)

    per_job = 1e6 * n_jobs
    out = {
        "cli.self_ms": cli_self / per_job,
        "cli.pool_overlap": worker_ns / pooled_wall if pooled_wall else 0.0,
        "cli.pool_cpu_ratio": worker_cpu / pooled_wall if pooled_wall else 0.0,
    }
    for name in spans.LAYER_NAMES:
        out[f"{name}.calls"] = counts[f"{name}.calls"] / n_prefix
        out[f"{name}.ms"] = self_ns[name] / per_job
    prefix = run.jobs[:n_prefix]
    lookups = sum(j.cache_hits + j.cache_misses for j in prefix)
    out["linkchain.is_monotone_decreasing.hit_ratio"] = (
        sum(j.cache_hits for j in prefix) / lookups if lookups else 0.0
    )
    for key in spans.COUNTER_NAMES:
        out[key] = counts[key] / n_prefix
    rms = [r for i in range(n_prefix) for r in run.fit_rms.get(i, [])]
    out["fit.rms_db"] = statistics.median(rms) if rms else 0.0
    out["trace.jobs_per_s"] = sum(not j.failed for j in run.jobs) / (job_ns / 1e9)
    accounted = (cli_self + sum(self_ns.values())) / job_ns
    return out, accounted


PER_LAYER_UNITS = {"cli.self_ms": "ms", "fit.rms_db": "dB", "trace.jobs_per_s": "1/s"}


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name.endswith(".ms") or name.endswith("_ms"):
        return "ms"
    if name.endswith((".calls", ".iterations", ".flops")):
        return "count"
    return "ratio"


# ---------------------------------------------------------------------------
# entry points


def machine() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cli_pool_threads": min(8, os.cpu_count() or 1),
        "platform": platform.platform(),
    }


def import_program():
    if not (SRC / "owclb" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'owclb' / 'cli.py'} is missing")
    sys.path.insert(0, str(SRC))
    import owclb.cli

    if SRC.resolve() not in Path(owclb.__file__).resolve().parents:
        raise BenchError(f"owclb was imported from {owclb.__file__}, not from {SRC}")
    return owclb


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> int:
    owclb = import_program()
    mods = {m: getattr(owclb, m) for m in ("linkchain", "waterfill", "bitload", "fit")}
    if traced:
        setup = measure_import_breakdown()
    else:
        setup_s = measure_setup_s()
    tracer = spans.Tracer() if traced else None
    run = Run(workload, seed, tracer, owclb.cli, mods["linkchain"].is_monotone_decreasing)
    if tracer is not None:
        tracer.install(mods)
    try:
        run.loop(seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()

    if traced:
        layers, accounted = per_layer_metrics(run, tracer)
        metrics = {**layers, **setup}
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end_metrics(run, setup_s)
        units = END_TO_END_UNITS
    failed = sum(j.failed for j in run.jobs)
    n = len(run.jobs)
    digest = run.digest.hexdigest()
    info = machine()

    print(f"owclb benchmark: workload={workload} seed={seed} seconds={seconds} "
          f"trace={int(traced)}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"why: {run.workload.why}")
    print(f"jobs: {n} attempted, {failed} failed (failed_frac {failed}/{n}), "
          f"{n - int(np.ceil(0.9 * n))} beyond p90")
    print(f"digest: {digest} (outputs of the first {min(n, PREFIX_JOBS)} jobs)")
    if traced:
        print(f"accounted: layer self times + cli.self_ms = {accounted:.4f} x job time")
    for message in run.notes:
        print(f"NOTE {message}")
    for message in run.failures:
        print(f"FAILED {message}")
    width = max(len(k) for k in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {units[name]}")

    BUILD.mkdir(exist_ok=True)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "machine": info, "attempted": n, "failed": failed, "failures": run.failures,
        "notes": run.notes,
        "digest": digest, "digest_jobs": min(n, PREFIX_JOBS),
        "job_ms": [j.ns / 1e6 for j in run.jobs], "metrics": metrics,
    }
    if traced:
        # The first PREFIX_JOBS jobs, as for the counts: all of them would
        # take tens of MB on design-point.
        report["spans"] = {"fields": spans.Span._fields,
                           "rows": [s for s in tracer.spans if s.job < PREFIX_JOBS]}
    path = BUILD / f"report-{workload}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(report) + "\n")
    print(f"report: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a fresh interpreter."""
    combined: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for workload in WORKLOADS:
        results = {}
        for traced in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)],
                capture_output=True, text=True, timeout=600,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise BenchError(f"{workload} trace={traced} exited {proc.returncode}")
            lines = proc.stdout.splitlines()
            digest = next(ln.split()[1] for ln in lines if ln.startswith("digest: "))
            results[traced] = (json.loads(lines[-1]), digest)
        (plain, d0), (traced_res, d1) = results[0], results[1]
        for res in (plain, traced_res):
            attempted += res["attempted"]
            failed += res["failed"]
            correct = correct and res["correct"]
        if d0 != d1:
            correct = False
        for name, m in {**plain["metrics"], **traced_res["metrics"]}.items():
            combined[f"{workload}.{name}"] = m
        overhead = plain["metrics"]["jobs_per_s"]["value"] / traced_res["metrics"][
            "trace.jobs_per_s"]["value"]
        combined[f"{workload}.trace.overhead"] = {"value": overhead, "unit": "ratio"}
        print(f"== {workload}: tracing overhead {overhead:.3f}x untraced/traced jobs_per_s; "
              f"digests {'match' if d0 == d1 else 'DIFFER'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
