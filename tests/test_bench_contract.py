"""The names and counters the benchmark reads off the library.

``bench/spans.py`` wraps every ``(module, attribute)`` in its ``TARGETS``
and reads the listed counters off each call's return value; ``bench/run.py``
reads the monotone check's ``lru_cache`` statistics on every job.  A
refactor that renames one of these breaks the benchmark, so it is checked
here.  ``bench/spans.py`` is imported read-only by path.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import owclb

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize("module, attr", [t[:2] for t in TARGETS], ids=[t[2] for t in TARGETS])
def test_target_resolves_to_callable(module, attr):
    assert callable(getattr(importlib.import_module(f"owclb.{module}"), attr))


def test_monotone_check_keeps_cache_statistics():
    info = owclb.linkchain.is_monotone_decreasing.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_results_carry_the_counters_traced(ref_model, gap):
    grid = owclb.SubcarrierGrid.from_model(ref_model, 64, 200e6)
    calls = {
        "newton_fmax": lambda: owclb.waterfill.newton_fmax(ref_model, gap, 1e7, grid),
        "hh_naive": lambda: owclb.bitload.hh_naive(grid, gap, 1e7),
        "hh_accelerated": lambda: owclb.bitload.hh_accelerated(grid, gap, 1e7),
    }
    counted = {attr: counters for _, attr, _, counters in TARGETS if counters}
    assert set(counted) == set(calls)
    for attr, counters in counted.items():
        result = calls[attr]()
        for key in counters:
            assert isinstance(getattr(result, key), (int, np.integer)), f"{attr}.{key}"
