"""In-memory spans around the calls into each owclb module.

``Tracer.install`` replaces a module attribute with a wrapper that records
one span per call, a ``Span`` tuple.  The wrapper goes into the namespace
the call is looked up in, e.g. ``owclb.waterfill.is_monotone_decreasing``,
which is the name the closed forms call, not
``owclb.linkchain.is_monotone_decreasing``.  Spans stay in a list until
the run ends; ``uninstall`` restores the originals.

Each thread keeps its own stack of open spans.  A span opened on a thread
with an empty stack (a worker of the CLI's thread pool) takes as parent
the span the main thread marked as ``root``: the current CLI call, which
itself sits under the job span.  Every span also records that call.  A
span's self time is its duration minus that of its children on the same
thread.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from time import perf_counter_ns, thread_time_ns
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    thread: int
    job: int
    call: int
    start_ns: int
    end_ns: int
    # Counters read off the return value; root spans of pool workers add
    # "cpu_ns", their thread CPU time, which tells real overlap from GIL
    # hand-offs.
    counters: dict | None


# (module, attribute, span name, counters read off the return value)
TARGETS = (
    ("linkchain", "load_chain", "linkchain.load_chain", ()),
    ("linkchain", "reduce_to_polezero", "linkchain.reduce_to_polezero", ()),
    ("linkchain", "chain_magsq", "linkchain.chain_magsq", ()),
    ("linkchain", "eval_noise_psd", "linkchain.eval_noise_psd", ()),
    ("linkchain", "read_response_table", "linkchain.read_response_table", ()),
    ("waterfill", "is_monotone_decreasing", "linkchain.is_monotone_decreasing", ()),
    ("waterfill", "rate_closed_form", "waterfill.rate_closed_form", ()),
    ("waterfill", "newton_fmax", "waterfill.newton_fmax", ("iterations",)),
    ("waterfill", "dsigma2_dfmax", "waterfill.dsigma2_dfmax", ()),
    ("waterfill", "write_solution_csv", "waterfill.write_solution_csv", ()),
    ("bitload", "hh_accelerated", "bitload.hh_accelerated", ("iterations", "flops")),
    ("bitload", "hh_naive", "bitload.hh_naive", ("iterations", "flops")),
    ("bitload", "write_plan_csv", "bitload.write_plan_csv", ()),
    ("fit", "fit_polezero", "fit.fit_polezero", ()),
)
LAYER_NAMES = tuple(t[2] for t in TARGETS)
COUNTER_NAMES = tuple(f"{t[2]}.{key}" for t in TARGETS for key in t[3])


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self.root = 0
        self.main_thread = threading.get_ident()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        """Open a span on this thread; pass the result to ``close``."""
        stack = self._stack()
        sid = next(self._ids)
        rec = [sid, stack[-1] if stack else self.root, name, threading.get_ident(),
               self.job, self.root, perf_counter_ns(), 0, None]
        stack.append(sid)
        return rec

    def close(self, rec: list, start: int | None = None, end: int | None = None) -> None:
        """Close a span from ``open``; ``start``/``end`` override its times."""
        if start is not None:
            rec[6] = start
        rec[7] = perf_counter_ns() if end is None else end
        self._stack().pop()
        self.spans.append(Span(*rec))

    def wrap(self, name: str, fn, counters=()):
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else self.root
            worker_root = not stack and threading.get_ident() != self.main_thread
            cpu0 = thread_time_ns() if worker_root else 0
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
            extra = {key: getattr(result, key) for key in counters} or None
            if worker_root:
                extra = dict(extra or {}, cpu_ns=thread_time_ns() - cpu0)
            self.spans.append(Span(sid, parent, name, threading.get_ident(), self.job,
                                   self.root, t0, t1, extra))
            return result

        return traced

    def install(self, owclb_modules: dict) -> None:
        for module, attr, name, counters in TARGETS:
            mod = owclb_modules[module]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, counters))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus its same-thread children, in ns."""
    child_ns: dict[int, int] = defaultdict(int)
    thread_of = {s.id: s.thread for s in spans}
    for s in spans:
        if thread_of.get(s.parent) == s.thread:
            child_ns[s.parent] += s.end_ns - s.start_ns
    return {s.id: (s.end_ns - s.start_ns) - child_ns[s.id] for s in spans}


def covered_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    end = None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total
