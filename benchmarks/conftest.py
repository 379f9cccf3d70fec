"""Shared configuration for the benchmark/experiment harness.

Each ``bench_*.py`` module regenerates its experiments (E1–E22): it renders
the experiment's table (printed and saved under ``results/``), writes its
``BENCH_<experiment>.json`` trajectory at the repo root and, in most
modules, registers a pytest-benchmark timing of a representative run.  Run

    pytest benchmarks/ --benchmark-disable

to regenerate everything; the tables land in ``results/E*.txt``.
"""

from __future__ import annotations

import os
import resource
import sys
import time

import pytest

# Allow `from bench_common import ...` within the benchmarks directory.
sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def _bench_trajectory(request):
    """Stamp a ``BENCH_<exp>.json`` trajectory file for every experiment a
    bench test emits: the test's wall-clock, the process's peak RSS, and
    which test produced it.  Benches with richer per-rep timings merge
    them into the same file via :func:`bench_common.trajectory_note`.
    """
    import bench_common

    start = len(bench_common.EMITTED_EXPERIMENTS)
    t0 = time.perf_counter()
    yield
    wall = time.perf_counter() - t0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for exp in bench_common.EMITTED_EXPERIMENTS[start:]:
        bench_common.trajectory_note(
            exp,
            config={"module": request.module.__name__, "test": request.node.name},
            wall_clock_s=round(wall, 3),
            peak_rss_mib=round(peak_rss_mib, 1),
        )
