"""Experiment sweeps: grids expand into flat jobs, jobs run on N cores.

Every bench builds on :func:`sweep`: a grid is expanded by
:func:`expand_grid` into picklable :class:`RunSpec` jobs, and
:func:`execute` runs them either serially or on a
``concurrent.futures.ProcessPoolExecutor`` (``workers=``).  Each job
derives every random stream from its own seed, so records are
**bit-identical regardless of worker count or completion order** —
results are always reassembled in deterministic grid order.  Records are
plain dataclasses so tables, fits and tests consume them without pandas.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.analysis.stats import ReplicationSummary, Summary, summarize
from repro.core.broadcast import RunConfig, replicate_config, run_config
from repro.core.result import AlgorithmReport
from repro.obs.telemetry import Telemetry, TelemetryConfig


@dataclass(frozen=True)
class RunSpec:
    """One flat, picklable job: a :class:`~repro.core.broadcast.RunConfig`
    plus where and how often to run it.

    The unit of work the sweep executor ships to worker processes;
    scenario suites (:mod:`repro.workloads.scenarios`) compile to these
    too, so every grid in the library runs through one executor.  The
    config is frozen and already validated, so jobs fan out with the
    same bit-identical-for-any-worker-count guarantee whatever it holds.

    ``reps`` makes the job a *replication suite*: executed via
    :func:`replicate_spec`, it fans ``seed .. seed + reps - 1`` through
    :func:`repro.core.broadcast.replicate_config` on the ``engine`` of
    choice and returns a streamed
    :class:`~repro.analysis.stats.ReplicationSummary` instead of one
    record per seed.
    """

    config: RunConfig
    seed: int = 0
    reps: int = 1
    engine: str = "auto"
    #: Optional frozen telemetry knobs: the job builds a collector inside
    #: its worker process, threads it through the engines, and hands it
    #: back on the result (``report.extras["telemetry"]`` /
    #: ``summary.telemetry``) for the parent to merge and export.
    telemetry: Optional[TelemetryConfig] = None

    def _collector(self) -> Optional[Telemetry]:
        if self.telemetry is None:
            return None
        return Telemetry.from_config(self.telemetry)

    def run(self) -> AlgorithmReport:
        """Execute this job once (at ``seed``), returning the full report."""
        collector = self._collector()
        report = run_config(self.config, self.seed, telemetry=collector)
        if collector is not None:
            report.extras["telemetry"] = collector
        return report

    def replicate(self) -> ReplicationSummary:
        """Execute this job as a ``reps``-seed streamed replication suite."""
        collector = self._collector()
        summary = replicate_config(
            self.config,
            self.reps,
            base_seed=self.seed,
            engine=self.engine,
            telemetry=collector,
        )
        if collector is not None:
            summary.telemetry = collector
        return summary

    def describe(self) -> str:
        tail = f" x{self.reps}" if self.reps > 1 else f" seed={self.seed}"
        return f"{self.config.describe()}{tail}"


@dataclass(frozen=True)
class RunRecord:
    """One execution's headline figures."""

    algorithm: str
    n: int
    seed: int
    rounds: int
    spread_rounds: int
    messages: int
    messages_per_node: float
    bits: int
    max_fanin: int
    informed_fraction: float
    success: bool
    extras: Dict[str, Any] = field(default_factory=dict)


def record_from_report(report: AlgorithmReport, spec: RunSpec) -> RunRecord:
    """Flatten a report into the picklable record the executor returns."""
    keep_extras = {
        k: v
        for k, v in report.extras.items()
        if isinstance(v, (int, float, str, bool))
    }
    return RunRecord(
        algorithm=spec.config.algorithm,
        n=spec.config.n,
        seed=spec.seed,
        rounds=report.rounds,
        spread_rounds=report.spread_rounds,
        messages=report.messages,
        messages_per_node=report.messages_per_node,
        bits=report.bits,
        max_fanin=report.max_fanin,
        informed_fraction=report.informed_fraction,
        success=report.success,
        extras=keep_extras,
    )


def run_spec(spec: RunSpec) -> RunRecord:
    """Top-level worker entry point (must stay module-level: it is
    pickled by name into pool processes)."""
    return record_from_report(spec.run(), spec)


def run_spec_report(spec: RunSpec) -> AlgorithmReport:
    """Worker entry point for report-shaped execution (benches that need
    clusterings, phase metrics, or ``uninformed_survivors``)."""
    return spec.run()


def replicate_spec(spec: RunSpec) -> ReplicationSummary:
    """Worker entry point for replication suites: one job = one streamed
    ``reps``-seed aggregate (``ReplicationSummary`` is picklable, so these
    fan out over the process pool like any other job)."""
    return spec.replicate()


def run_once(algorithm: str, n: int, seed: int, **config: Any) -> RunRecord:
    """Run one configuration through :func:`repro.core.broadcast.run_config`
    (``config``: :func:`~repro.core.broadcast.broadcast`'s keywords)."""
    return run_spec(RunSpec(RunConfig.build(n, algorithm, **config), seed))


def expand_grid(
    algorithms: Sequence[str],
    ns: Sequence[int],
    seeds: Sequence[int],
    **config: Any,
) -> List[RunSpec]:
    """Flatten an ``algorithm x n x seed`` grid into jobs, algorithm-major
    (the historical serial-loop order, which fixes the output order).
    Each ``(algorithm, n)`` cell builds one
    :class:`~repro.core.broadcast.RunConfig`, shared by its seeds."""
    return [
        RunSpec(cfg, seed)
        for cfg in _configs(algorithms, ns, config)
        for seed in seeds
    ]


def _configs(
    algorithms: Sequence[str], ns: Sequence[int], config: Dict[str, Any]
) -> List[RunConfig]:
    """One validated config per ``(algorithm, n)`` cell, algorithm-major."""
    return [
        RunConfig.build(n, algorithm, **config) for algorithm in algorithms for n in ns
    ]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` knob: None/0/negative mean 'auto' = one per
    available core; 1 means serial."""
    if workers is None or workers <= 0:
        return max(1, os.cpu_count() or 1)
    return int(workers)


def execute(
    specs: Sequence[RunSpec],
    *,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    job: Callable[[RunSpec], Any] = run_spec,
) -> List[Any]:
    """Run jobs and return their results **in input order**.

    ``workers=1`` (default) runs in-process; ``workers>1`` fans jobs out
    to a process pool, ``workers<=0``/None one worker per core.  Each
    job's randomness derives from its own :class:`RunSpec` seed, so the
    result list is identical for every worker count.  ``job`` selects the
    execution shape: :func:`run_spec` (flat records, the default) or
    :func:`run_spec_report` (full reports).
    """
    workers = resolve_workers(workers)
    if workers == 1 or len(specs) <= 1:
        results = []
        for spec in specs:
            results.append(job(spec))
            if progress is not None:
                progress(f"{spec.describe()} done")
        return results

    results: List[Any] = [None] * len(specs)
    with ProcessPoolExecutor(max_workers=min(workers, len(specs))) as pool:
        pending = {pool.submit(job, spec): i for i, spec in enumerate(specs)}
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                i = pending.pop(fut)
                results[i] = fut.result()
                if progress is not None:
                    progress(f"{specs[i].describe()} done")
    return results


def sweep(
    algorithms: Sequence[str],
    ns: Sequence[int],
    seeds: Sequence[int],
    *,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    **config: Any,
) -> List[RunRecord]:
    """Full grid sweep; deterministic given the seed list, bit-identical
    for every ``workers`` value."""
    specs = expand_grid(algorithms, ns, seeds, **config)
    return execute(specs, workers=workers, progress=progress)


def replication_sweep(
    algorithms: Sequence[str],
    ns: Sequence[int],
    reps: int,
    *,
    base_seed: int = 0,
    engine: str = "auto",
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    **config: Any,
) -> List[ReplicationSummary]:
    """An ``algorithm x n`` grid where every cell is a ``reps``-seed
    streamed replication suite (cells fan out over ``workers`` processes;
    within a cell the replications stream through one engine)."""
    specs = [
        RunSpec(cfg, base_seed, reps=reps, engine=engine)
        for cfg in _configs(algorithms, ns, config)
    ]
    return execute(specs, workers=workers, progress=progress, job=replicate_spec)


def sweep_reports(
    specs: Sequence[RunSpec],
    *,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> List[AlgorithmReport]:
    """Execute jobs returning full :class:`AlgorithmReport` objects
    (still in input order; reports are picklable, just heavier)."""
    return execute(specs, workers=workers, progress=progress, job=run_spec_report)


@dataclass(frozen=True)
class AggregateRow:
    """Per-(algorithm, n) summary across seeds."""

    algorithm: str
    n: int
    runs: int
    spread_rounds: Summary
    messages_per_node: Summary
    bits_per_node: Summary
    max_fanin: int
    success_rate: float


def aggregate(records: Iterable[RunRecord]) -> List[AggregateRow]:
    """Group records by (algorithm, n), summarising across seeds."""
    groups: Dict[tuple, List[RunRecord]] = {}
    for rec in records:
        groups.setdefault((rec.algorithm, rec.n), []).append(rec)
    rows: List[AggregateRow] = []
    for (algorithm, n), recs in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        rows.append(
            AggregateRow(
                algorithm=algorithm,
                n=n,
                runs=len(recs),
                spread_rounds=summarize([r.spread_rounds for r in recs]),
                messages_per_node=summarize([r.messages_per_node for r in recs]),
                bits_per_node=summarize([r.bits / r.n for r in recs]),
                max_fanin=max(r.max_fanin for r in recs),
                success_rate=sum(r.success for r in recs) / len(recs),
            )
        )
    return rows


def series(
    rows: Iterable[AggregateRow], algorithm: str, value: str = "spread_rounds"
) -> "tuple[list[int], list[float]]":
    """Extract the (ns, means) curve of one algorithm from aggregates."""
    pts = [
        (row.n, getattr(row, value).mean)
        for row in rows
        if row.algorithm == algorithm
    ]
    pts.sort()
    return [p[0] for p in pts], [p[1] for p in pts]
