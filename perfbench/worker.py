"""One benchmark process: set up one workload, check it, then time or trace it.

Started by ``run.py`` (never imported by it) as::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|timed|traced --spawned T [--spans PATH]

Set-up covers interpreter start, imports, configuration, the first
network build and buffer growth, up to the end of one untimed warm-up:
``setup_cpu_s`` is the process's CPU time by then, and ``setup_wall_s``
the wall time since ``--spawned``, the parent's ``time.monotonic()``
just before it started this process.  The last line of standard output
is one JSON object with this process's measurements; the exit code is 1
when a replication raised.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from time import perf_counter, process_time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
from sampling import (  # noqa: E402
    chunk_samples,
    percentile,
    row_util,
    samples_needed,
    sim_stats,
)
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    PHASE_PAIR,
    PUSH_SUM_TOL,
    CROSS_CHECK_REPS,
    WORKLOADS,
    Workload,
)

#: Benchmark phase names; the sequential engine records ``phase:<name>``
#: spans and calls the merge phase ``merge-all``.
PHASES = ("grow", "square", "merge", "bounded-push", "pull", "share")
PHASE_ALIASES = {"merge-all": "merge"}

#: Replications per engine in the traced run's phase comparison.
PHASE_PAIR_REPS = 8

class Reference:
    """A fixed numpy-and-Python kernel, timed after every replication of
    the timed run.

    A shared virtual machine slows down and speeds up by up to 2x for
    seconds at a time as other tenants load it, and CPU time slows with
    it.  A replication's time divided by the reference time measured
    next to it cancels most of that drift.  The kernel mixes a scatter,
    a gather, a sort and a Python loop, as the simulator does, and takes
    about half a millisecond.  It must never change: costs measured
    with different kernels do not compare.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._idx = np.random.default_rng(0).integers(0, 1 << 16, 1 << 15)

    def run(self) -> Tuple[float, float]:
        """Run the kernel once; returns its wall and CPU seconds."""
        np = self._np
        wall0, cpu0 = perf_counter(), process_time()
        counts = np.bincount(self._idx, minlength=1 << 16)
        np.cumsum(np.sort(counts[self._idx][:8192]))
        acc = 0
        for i in range(3000):
            acc += i & 3
        return perf_counter() - wall0, process_time() - cpu0


class Pass:
    """What one sequence of blocks produced: replication records, one
    wall-time sample per chunk, and the wall and CPU time of the blocks
    without the reference kernel's.  With a reference, also one cost
    sample per chunk (its time per replication over the block's mean
    reference time) and the total reference wall and CPU time."""

    def __init__(self) -> None:
        self.rows: List[dict] = []
        self.samples: List[float] = []
        self.costs: List[float] = []
        self.chunks: List[int] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.ref_s = 0.0
        self.ref_cpu_s = 0.0


class Loop:
    """Closed-loop runner: block ``k`` is one ``run_replications`` call of
    ``block_reps`` replications on the seeds of block ``k``."""

    def __init__(self, repro, wl: Workload, seed: int, kwargs: dict) -> None:
        self.repro = repro
        self.wl = wl
        self.seed = seed
        self.kwargs = kwargs
        # Replications handed to run_replications, and those it returned.
        self.attempted = 0
        self.consumed = 0
        from repro.sim.batch import DEFAULT_BATCH_ELEMS, batch_size

        # The engine's chunk plan for one block.
        self.plan = [1] * wl.block_reps
        if wl.vector:
            self.plan, left = [], wl.block_reps
            while left:
                self.plan.append(batch_size(wl.n, left, DEFAULT_BATCH_ELEMS))
                left -= self.plan[-1]

    def block(
        self,
        index: int,
        into: Pass,
        tracer: Optional[Tracer] = None,
        phases: Optional[Dict[str, float]] = None,
        reference: Optional[Reference] = None,
    ) -> None:
        stamps: List[float] = []
        refs: List[float] = []
        ref_cpu = [0.0]
        rows = into.rows

        def consume(row: dict) -> None:
            # Stamps run on a clock that stops while the reference runs.
            stamps.append(perf_counter() - sum(refs))
            rows.append(row)
            self.consumed += 1
            if tracer is not None:
                tracer.rep = len(rows)
            if reference is not None:
                wall, cpu = reference.run()
                refs.append(wall)
                ref_cpu[0] += cpu

        extra = {}
        if phases is not None:
            extra["telemetry"] = _telemetry()
        if tracer is not None:
            tracer.rep = len(rows)
        self.attempted += self.wl.block_reps
        wall0, cpu0 = perf_counter(), process_time()
        self.repro.run_replications(
            reps=self.wl.block_reps,
            base_seed=self.wl.block_seed(self.seed, index),
            consume=consume,
            **self.kwargs,
            **extra,
        )
        into.cpu_s += process_time() - cpu0 - ref_cpu[0]
        into.wall_s += perf_counter() - wall0 - sum(refs)
        samples = chunk_samples(stamps, self.plan, wall0)
        into.samples += samples
        into.chunks += self.plan
        if reference is not None:
            # One reference per block: averaging its runs smooths their
            # own jitter, and a block is shorter than the load swings.
            ref_mean = sum(refs) / len(refs)
            into.ref_s += sum(refs)
            into.ref_cpu_s += ref_cpu[0]
            into.costs += [sample / ref_mean for sample in samples]
        if phases is not None:
            _add_phases(phases, extra["telemetry"])

    def timed(self, seconds: float) -> Pass:
        """Blocks until ``seconds`` have passed, the p90 has enough
        samples and the first ``sim_reps`` replications are done."""
        run, index, start = Pass(), 0, perf_counter()
        need = samples_needed(90)
        reference = Reference()
        reference.run()
        while (
            index < self.wl.sim_blocks
            or perf_counter() - start < seconds
            or len(run.samples) < need
        ):
            self.block(index, run, reference=reference)
            index += 1
        return run

    def paired(self, seconds: float, tracer: Tracer, phases: Dict[str, float]):
        """Each block untraced and traced, until ``seconds`` have passed
        and ``sim_reps`` replications ran both ways.  Interleaving exposes
        both passes to the same machine load, and alternating which goes
        first cancels any advantage of running second.  The tracer is
        installed for the traced block only; returns both passes, the
        exact counters after ``sim_reps`` traced replications, the wrapped
        site count and the sites that failed to restore."""
        plain, traced = Pass(), Pass()
        counters, installed, unrestored = {}, 0, []
        index, start = 0, perf_counter()
        while index < self.wl.sim_blocks or perf_counter() - start < seconds:
            for with_trace in (index % 2 == 1, index % 2 == 0):
                if not with_trace:
                    self.block(index, plain)
                    continue
                layers.install(tracer)
                installed = tracer.installed
                try:
                    self.block(index, traced, tracer, phases)
                finally:
                    unrestored += tracer.restore()
            index += 1
            if index == self.wl.sim_blocks:
                counters = _counters(tracer)
        return plain, traced, counters, installed, unrestored


def _telemetry():
    from repro.obs.telemetry import Telemetry

    # Phase spans only: sample the per-round series as rarely as allowed.
    return Telemetry(probe_every=1 << 30, series_cap=8, collect_events=False)


def _add_phases(acc: Dict[str, float], telemetry) -> None:
    for run in telemetry.runs:
        for name, (_count, wall_ms) in run.spans.wall_ms_by_name().items():
            phase = name[len("phase:") :] if name.startswith("phase:") else name
            phase = PHASE_ALIASES.get(phase, phase)
            if phase in PHASES:
                acc[phase] = acc.get(phase, 0.0) + wall_ms


def _counters(tracer: Tracer) -> Dict[str, int]:
    out = {name: tracer.call_count(name) for name in layers.CALL_COUNTERS}
    out[layers.CONTACTS] = tracer.counts.get(layers.CONTACTS, 0)
    return out


def check_rows(wl: Workload, rows: List[dict]) -> List[str]:
    """Output check: every broadcast informed all live nodes (``success``),
    every push-sum replication converged within its tolerance."""
    bad = []
    for i, row in enumerate(rows):
        if not row.get("success"):
            bad.append(f"replication {i}: success=False ({row})")
        elif wl.task == "push-sum" and not row.get("task_error", float("inf")) <= PUSH_SUM_TOL:
            bad.append(f"replication {i}: task_error {row.get('task_error')} > tol {PUSH_SUM_TOL}")
    return bad


def _figures(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in ("rep", "seed")}


def cross_check(repro, wl: Workload, seed: int, kwargs: dict):
    """Reset-engine replications must equal independent ``broadcast``
    runs of the same seeds bit for bit.  Returns the ``broadcast`` rows
    (``None`` on the vector engine, whose RNG stream is different by
    design) and the mismatches."""
    if wl.vector:
        return None, []
    base = wl.block_seed(seed, 0)
    streamed: List[dict] = []
    repro.run_replications(
        reps=CROSS_CHECK_REPS, base_seed=base, consume=streamed.append, **kwargs
    )
    from repro.core.broadcast import report_scalars

    single = {k: v for k, v in kwargs.items() if k not in ("engine", "workers")}
    expected, bad = [], []
    for i, row in enumerate(streamed):
        ref = report_scalars(repro.broadcast(seed=base + i, **single))
        expected.append(ref)
        if _figures(row) != ref:
            bad.append(f"seed {base + i}: run_replications {_figures(row)} != broadcast {ref}")
    return expected, bad


def recheck(expected, rows: List[dict]) -> List[str]:
    """The measured run's first replications equal the cross-checked rows."""
    if expected is None:
        return []
    return [
        f"measured replication {i} differs from its broadcast cross-check"
        for i, ref in enumerate(expected)
        if _figures(rows[i]) != ref
    ]


def timed_metrics(wl: Workload, run: Pass) -> dict:
    reps = len(run.rows)
    return {
        "reps": reps,
        "samples": len(run.samples),
        "rep_cost_mean": run.wall_s / run.ref_s,
        "rep_cost_p50": percentile(run.costs, 50),
        "rep_cost_p90": percentile(run.costs, 90),
        "ref_ms_mean": run.ref_s / reps * 1e3,
        "ref_cpu_ms_mean": run.ref_cpu_s / reps * 1e3,
        "reps_per_s": reps / run.wall_s,
        "reps_per_cpu_s": reps / run.cpu_s,
        "rep_ms_p50": percentile(run.samples, 50) * 1e3,
        "rep_ms_p90": percentile(run.samples, 90) * 1e3,
        "sim": sim_stats(run.rows[: wl.sim_reps], wl.task),
    }


def phase_pair(repro, seed: int) -> Dict[str, Dict[str, float]]:
    """Per-phase ms per replication of both cluster2 engines, untraced."""
    out = {}
    for name in PHASE_PAIR:
        wl = WORKLOADS[name]
        acc: Dict[str, float] = {}
        telemetry = _telemetry()
        repro.run_replications(
            reps=PHASE_PAIR_REPS,
            base_seed=wl.block_seed(seed, 0),
            telemetry=telemetry,
            **wl.run_kwargs(),
        )
        _add_phases(acc, telemetry)
        out[wl.engine] = {p: acc.get(p, 0.0) / PHASE_PAIR_REPS for p in PHASES}
    return out


def traced(repro, wl: Workload, loop: Loop, seed: int, seconds: float, spans_path) -> dict:
    """The paired untraced/traced loop; returns the per-layer metrics and
    the checks that tie the two passes together."""
    pair = phase_pair(repro, seed) if wl.name in PHASE_PAIR else None
    tracer = Tracer()
    phases: Dict[str, float] = {}
    plain, run, counters, installed, unrestored = loop.paired(seconds, tracer, phases)

    failures = []
    sim_plain = sim_stats(plain.rows[: wl.sim_reps], wl.task)
    sim_traced = sim_stats(run.rows[: wl.sim_reps], wl.task)
    if sim_plain != sim_traced:
        failures.append(f"simulated statistics differ: untraced {sim_plain} != traced {sim_traced}")
    if unrestored:
        failures.append(f"wrapped functions not restored: {sorted(set(unrestored))}")

    reps = len(run.rows)
    metrics: Dict[str, float] = {}
    for name in layers.self_ms_names():
        metrics[f"{name}.self_ms"] = tracer.self_ms(name) / reps
    for name in layers.CALL_COUNTERS:
        metrics[f"{name}.calls"] = counters[name] / wl.sim_reps
    metrics[layers.CONTACTS] = counters[layers.CONTACTS] / wl.sim_reps
    for phase in PHASES:
        metrics[f"core.phase.{phase}.ms"] = phases.get(phase, 0.0) / reps
        ratio = 0.0
        if pair is not None and pair["reset"][phase] > 0:
            ratio = pair["vector"][phase] / pair["reset"][phase]
        metrics[f"core.phase.{phase}.vec_over_seq"] = ratio
    metrics["sim.batch.row_util"] = (
        row_util([r["rounds"] for r in run.rows], run.chunks) if wl.vector else 0.0
    )
    layer_s = sum(s for name, s in zip(tracer.names, tracer.self_s) if name != layers.ROOT)
    metrics["host.wait_frac"] = 1.0 - plain.cpu_s / plain.wall_s
    metrics["trace.coverage"] = layer_s / run.wall_s
    metrics["trace.overhead"] = (len(plain.rows) / plain.cpu_s) / (reps / run.cpu_s)
    written = 0
    if spans_path:
        written = tracer.write(spans_path, {"workload": wl.name, "seed": seed})
    return {
        "layers": metrics,
        "reps": reps,
        "reps_untraced": len(plain.rows),
        "rows": plain.rows + run.rows,
        "failures": failures,
        "sim": sim_traced,
        "wrapped_sites": installed,
        "spans": written,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    import repro

    kwargs = wl.run_kwargs()
    repro.run_replications(
        reps=wl.warmup_reps, base_seed=wl.warmup_seed(args.seed), **kwargs
    )
    # CPU time since the process started: waiting for a busy host
    # stretches wall time but not this.
    out: dict = {
        "setup_cpu_s": process_time(),
        "setup_wall_s": time.monotonic() - args.spawned,
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    import numpy

    out["stamp"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
    }
    loop = Loop(repro, wl, args.seed, kwargs)
    expected = None
    try:
        expected, failures = cross_check(repro, wl, args.seed, kwargs)
        if args.mode == "timed":
            run = loop.timed(args.seconds)
            rows = run.rows
            out.update(timed_metrics(wl, run))
            out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            result = traced(repro, wl, loop, args.seed, args.seconds, args.spans)
            rows = result.pop("rows")
            failures += result.pop("failures")
            out.update(result)
    except Exception as exc:
        # A replication raised.  That ends its block, so every replication
        # of the block not yet returned counts as failed; no metrics.
        traceback.print_exc()
        checked = len(expected) if expected else 0
        out["attempted"] = max(1, checked + loop.attempted)
        out["failed"] = max(1, loop.attempted - loop.consumed)
        out["failures"] = [f"a replication raised {type(exc).__name__}: {exc}"]
        print(json.dumps(out))
        return 1
    failures += recheck(expected, rows)
    bad_rows = check_rows(wl, rows)
    # Each failing replication, cross-check mismatch and failed run-level
    # check counts once against everything attempted.
    out["attempted"] = len(rows) + (len(expected) if expected else 0)
    out["failed"] = len(bad_rows) + len(failures)
    out["failures"] = bad_rows[:10] + failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
