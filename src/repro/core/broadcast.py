"""One-call public API: build a network, run an algorithm, get a report.

    >>> from repro import broadcast
    >>> result = broadcast(n=4096, algorithm="cluster2", seed=7)
    >>> result.success, result.rounds, round(result.messages_per_node, 1)
    (True, ..., ...)

Every run is described by one frozen :class:`RunConfig` — network size,
algorithm, adversity, task, topology, scheduler — validated and resolved
once on construction.  :func:`broadcast` and :func:`run_replications`
are thin keyword wrappers that build one; :func:`run_config` and
:func:`replicate_config` execute an existing config, and :func:`plan`
(a pure function) decides which replication engine will run it.

Dispatch is a thin lookup in :mod:`repro.registry`: every algorithm —
the paper's and every baseline — self-registers an
:class:`~repro.registry.AlgorithmSpec`, so sweeps in
:mod:`repro.analysis.runner` iterate the same catalogue uniformly and
third-party algorithms plug in without touching this module.

``task`` selects the workload semantics (:mod:`repro.tasks`): the
default ``"broadcast"`` is the paper's single-rumor setting on the
untouched legacy path (bit-identical output for a fixed seed); any other
registered task — ``"k-rumor"``, ``"push-sum"``, ``"min-max"`` — builds
a :class:`~repro.tasks.state.TaskState` from its own seed stream and
runs it through the algorithm's registered task transport::

    >>> broadcast(n=4096, algorithm="cluster2", task="push-sum",
    ...           schedule="churn-light", seed=7)   # doctest: +SKIP
"""

from __future__ import annotations

import logging
from dataclasses import InitVar, dataclass, field, fields
from dataclasses import replace as _dc_replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.core.constants import LAPTOP, Profile, get_profile
from repro.core.result import AlgorithmReport
from repro.registry import (
    BROADCAST_TASK,
    AlgorithmSpec,
    IncompatibleTaskError,
    IncompatibleTopologyError,
    algorithm_names,
    compatible_algorithms,
    compatible_topologies,
    get_algorithm,
    get_task,
)
from repro.obs.spans import maybe_span
from repro.sim.batch import DEFAULT_BATCH_ELEMS, batch_size
from repro.sim.dynamics import AdversitySchedule, resolve_schedule
from repro.sim.schedule import (
    EventSchedulerSpec,
    make_batch_overlay,
    resolve_scheduler,
)
from repro.sim.topology import ADDRESSING_MODES, Topology, resolve_topology
from repro.sim.engine import BufferPool, Simulator
from repro.sim.failures import apply_pattern
from repro.sim.metrics import Metrics
from repro.sim.network import Network
from repro.sim.rng import derive_seed, make_rng
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.stats import ReplicationSummary
    from repro.obs.telemetry import Telemetry

#: Re-exported so ``from repro import BroadcastResult`` reads naturally.
BroadcastResult = AlgorithmReport

_log = logging.getLogger(__name__)

__all__ = [
    "BroadcastResult",
    "EnginePlan",
    "ReplicationEngine",
    "RunConfig",
    "algorithm_names",
    "broadcast",
    "plan",
    "replicate_config",
    "run_config",
    "run_replications",
]


@dataclass(frozen=True)
class RunConfig:
    """One run description, validated and resolved once on construction.

    Frozen and picklable: the same instance drives single runs
    (:func:`run_config`), replication suites (:func:`replicate_config`),
    sweep jobs (:class:`~repro.analysis.runner.RunSpec`) and scenario
    presets (:class:`~repro.workloads.scenarios.Scenario`), in this
    process or a worker's.  Construction checks the (algorithm, task)
    and (algorithm, topology) pairs, the addressing mode, the task's
    knobs, the source index, the topology's size rule and per-edge
    delays against the graph, and normalises ``topology``,
    ``schedule``, ``scheduler`` and ``profile`` to their frozen specs —
    so a bad configuration fails before any network is built, with a
    one-line ``ValueError``, and no consumer re-checks.

    Fields
    ------
    n:
        Network size.
    algorithm:
        One of :func:`repro.registry.algorithm_names` (default the
        paper's Cluster2).
    source:
        Index of the initially informed node, or None for a uniformly
        random *surviving* node (Theorem 19's setting: the rumor starts at
        some live node).
    message_bits:
        Rumor size ``b`` (must be positive; the paper assumes
        ``b = Omega(log n)``).
    failures:
        Number of nodes an oblivious adversary fails before the start
        (Section 8); with ``failure_pattern="fraction"`` it is instead the
        fraction in [0, 1) of nodes to fail.
    failure_pattern:
        ``"random"``, ``"prefix"``, ``"smallest-uids"`` or ``"fraction"``.
    schedule:
        Optional dynamic-adversity timeline
        (:class:`repro.sim.dynamics.AdversitySchedule`, a preset name, or
        a ``parse_schedule`` spec string): mid-run crashes, revivals,
        blackouts and message loss applied at round boundaries.  ``None``
        or an empty schedule leaves the engine on the untouched static
        path (bit-identical output for a fixed seed).
    task:
        Workload semantics (:func:`repro.registry.task_names`): the
        default ``"broadcast"`` is the legacy single-rumor path; other
        tasks run through the algorithm's registered task transport and
        must be compatible (:func:`repro.registry.supports_task`).
    task_kwargs:
        Extra knobs for the task's state factory (e.g. ``{"k": 8}`` for
        ``k-rumor``, ``{"tol": 1e-4}`` for ``push-sum``).
    topology:
        Contact topology (:mod:`repro.sim.topology`): a frozen
        :class:`~repro.sim.topology.Topology` spec, a registered name
        (:func:`repro.registry.topology_names`), or ``None`` for the
        paper's complete graph — the default, bit-identical to the
        pre-topology engine.  Random topologies are re-sampled per seed
        from the network's own stream.
    direct_addressing:
        ``"global"`` (the paper's model, default): learned addresses are
        routable regardless of the contact graph.  ``"topology"``:
        direct calls only connect along contact-graph edges — the
        experiment that measures what direct addressing is worth once
        the complete graph is gone.
    scheduler:
        Execution tier (:mod:`repro.sim.schedule`): ``None`` or
        ``"round"`` (default) keeps the synchronous round clock on the
        untouched engine path; ``"event"`` or an
        :class:`~repro.sim.schedule.EventSchedulerSpec` overlays
        per-node clocks and contact latencies on the same logical
        rounds — metrics stay bit-identical, and the report gains
        ``extras["sim_time"]`` (the simulated completion time).  Delay
        resolution: explicit spec delay > topology ``delay=``
        annotation > unit constant.
    profile:
        Constant-resolution profile or its name.
    check_model:
        Enable the engine's one-initiation-per-round validation.
    algorithm_kwargs:
        Extra knobs forwarded to the algorithm (its
        :class:`~repro.registry.AlgorithmSpec` lists the accepted names,
        e.g. ``{"delta": 64}`` for ``cluster3``).
    trace:
        Init-only.  ``True`` switches on contact-level causal tracing:
        the scheduler (upgraded to the event tier when none was
        requested) fills a :class:`~repro.obs.trace.ContactTrace`, and
        each report gains ``extras["contact_trace"]`` /
        ``extras["critical_path"]`` / ``extras["critical_path_len"]`` /
        ``extras["dilation"]``.
    """

    n: int
    algorithm: str = "cluster2"
    source: Optional[int] = 0
    message_bits: int = 256
    failures: float = 0
    failure_pattern: str = "random"
    schedule: "AdversitySchedule | str | None" = None
    task: str = BROADCAST_TASK
    task_kwargs: Dict[str, Any] = field(default_factory=dict)
    topology: "Topology | str | None" = None
    direct_addressing: str = "global"
    scheduler: "EventSchedulerSpec | str | None" = None
    profile: "Profile | str" = LAPTOP
    check_model: bool = True
    algorithm_kwargs: Dict[str, Any] = field(default_factory=dict)
    trace: InitVar[bool] = False

    def __post_init__(self, trace: bool) -> None:
        spec = get_algorithm(self.algorithm)
        task = get_task(self.task)  # raises UnknownTaskError on a miss
        # The implicit broadcast task is exempt: its (historical) gate is
        # AlgorithmSpec.run's broadcastable check, with its own message.
        if task.name != BROADCAST_TASK:
            if not spec.supports_task(task.name):
                raise IncompatibleTaskError(
                    f"algorithm {spec.name!r} has no registered task transport "
                    f"for task {task.name!r}; compatible algorithms: "
                    f"{compatible_algorithms(task.name)}"
                )
            # The vector path calls a batch runner directly (never
            # TaskSpec.build), so the task's knobs are checked here.
            task.validate_kwargs(self.task_kwargs)
        if self.direct_addressing not in ADDRESSING_MODES:
            raise ValueError(
                f"direct_addressing must be one of {ADDRESSING_MODES}, "
                f"got {self.direct_addressing!r}"
            )
        topology = resolve_topology(self.topology)
        if not spec.supports_topology(topology):
            raise IncompatibleTopologyError(
                f"algorithm {spec.name!r} only runs on the complete contact "
                f"graph, not on {topology.describe()!r}; compatible topologies: "
                f"{compatible_topologies(spec.name)}"
            )
        topology.check_size(self.n)
        if self.source is not None and not 0 <= self.source < self.n:
            raise ValueError(f"source {self.source} out of range for n={self.n}")
        scheduler = resolve_scheduler(self.scheduler)
        if trace:
            # Contact tracing implies the event tier.
            scheduler = (
                EventSchedulerSpec(trace=True)
                if scheduler is None
                else _dc_replace(scheduler, trace=True)
            )
        if scheduler is not None:
            scheduler.resolve_delay(topology).check_topology(topology)
        profile = self.profile
        resolved = {
            "topology": topology,
            "schedule": resolve_schedule(self.schedule),
            "scheduler": scheduler,
            "profile": get_profile(profile) if isinstance(profile, str) else profile,
            "task_kwargs": dict(self.task_kwargs or {}),
            "algorithm_kwargs": dict(self.algorithm_kwargs),
        }
        for name, value in resolved.items():
            object.__setattr__(self, name, value)

    @classmethod
    def build(
        cls, n: int, algorithm: str = "cluster2", *, trace: bool = False, **knobs: Any
    ) -> "RunConfig":
        """Build from one flat keyword set, the calling shape of
        :func:`broadcast`: keywords naming a field are run knobs, every
        other keyword is an algorithm knob (``delta=64``)."""
        own = _run_knobs(knobs)
        return cls(n, algorithm, trace=trace, algorithm_kwargs=knobs, **own)

    def patch(self, **knobs: Any) -> "RunConfig":
        """A re-validated copy with ``knobs`` (flat, as for :meth:`build`)
        overriding this config's values."""
        own = _run_knobs(knobs)
        algorithm_kwargs = {**self.algorithm_kwargs, **knobs}
        return _dc_replace(self, algorithm_kwargs=algorithm_kwargs, **own)

    @property
    def spec(self) -> AlgorithmSpec:
        """The algorithm's registry entry."""
        return get_algorithm(self.algorithm)

    def describe(self) -> str:
        """One-line label, e.g. ``push-pull task=push-sum @ring(k=4) n=512``."""
        task = "" if self.task == BROADCAST_TASK else f" task={self.task}"
        where = "" if self.topology.complete else f" @{self.topology.describe()}"
        tier = "" if self.scheduler is None else f" [{self.scheduler.describe()}]"
        return f"{self.algorithm}{task}{where}{tier} n={self.n}"


#: The flat keywords that name :class:`RunConfig` fields.
_RUN_KNOBS = frozenset(f.name for f in fields(RunConfig)) - {"algorithm_kwargs"}


def _run_knobs(knobs: Dict[str, Any]) -> Dict[str, Any]:
    """Pop the run knobs out of a flat keyword set, leaving the
    algorithm's knobs behind."""
    return {name: knobs.pop(name) for name in _RUN_KNOBS & knobs.keys()}


def broadcast(
    n: int,
    algorithm: str = "cluster2",
    *,
    seed: int = 0,
    trace: "Trace | bool | None" = None,
    telemetry: "Optional[Telemetry]" = None,
    **config: Any,
) -> AlgorithmReport:
    """Broadcast a ``message_bits``-bit rumor from ``source`` to all nodes.

    ``config`` holds the run knobs — every :class:`RunConfig` field
    (``source``, ``message_bits``, ``failures``, ``schedule``, ``task``,
    ``topology``, ``scheduler``, ...) — plus any extra algorithm knobs
    (e.g. ``delta=64`` for ``cluster3``).

    Parameters
    ----------
    seed:
        Master seed; network addressing, failures and the algorithm's coins
        all derive deterministic substreams from it.
    trace:
        ``Trace`` instance for round-level event capture (the legacy
        knob), or ``True`` as shorthand for contact-level causal
        tracing on the event tier (:class:`RunConfig`'s ``trace``).
    telemetry:
        Optional :class:`repro.obs.telemetry.Telemetry` collector.  When
        given, the run records wall-clock phase spans, a per-round probe
        series and (unless event collection is off) the trace events into
        a run handle on the collector; export with
        :meth:`~repro.obs.telemetry.Telemetry.write`.  ``None`` (default)
        leaves the engine on the untouched zero-overhead path.
    """
    cfg = RunConfig.build(n, algorithm, trace=trace is True, **config)
    legacy = None if isinstance(trace, bool) else trace
    return run_config(cfg, seed, trace=legacy, telemetry=telemetry)


def run_config(
    cfg: RunConfig,
    seed: int = 0,
    *,
    trace: Optional[Trace] = None,
    telemetry: "Optional[Telemetry]" = None,
) -> AlgorithmReport:
    """Execute ``cfg`` once at ``seed`` on a freshly built network."""
    net = Network(
        cfg.n,
        rng=derive_seed(seed, "net"),
        rumor_bits=cfg.message_bits,
        topology=cfg.topology,
        direct_addressing=cfg.direct_addressing,
    )
    return _run_on_network(net, cfg, seed, pool=None, trace=trace, telemetry=telemetry)


def _run_on_network(
    net: Network,
    cfg: RunConfig,
    seed: int,
    *,
    pool: Optional["BufferPool"],
    trace: Optional[Trace],
    telemetry: "Optional[Telemetry]",
) -> AlgorithmReport:
    """Execute one seeded run of ``cfg`` on an already-built network.

    The single execution path behind both :func:`run_config` (fresh
    network, no pool) and :class:`ReplicationEngine` (reset network,
    shared pool): every seed-derived stream is identical in both shapes,
    which is what makes reset-engine replications bit-identical to
    independent :func:`broadcast` calls.  Non-broadcast tasks derive
    their initial state from the dedicated ``"task"`` seed stream — the
    legacy streams are untouched, so the default task stays bit-identical
    to the pre-task-layer engine.
    """
    spec = cfg.spec
    if cfg.failures:
        apply_pattern(net, cfg.failure_pattern, cfg.failures, derive_seed(seed, "fail"))
    source = cfg.source
    if source is None:
        alive = net.alive_indices()
        source = int(alive[make_rng(derive_seed(seed, "source")).integers(len(alive))])
    dynamics = (
        cfg.schedule.bind(net, make_rng(derive_seed(seed, "dynamics")))
        if cfg.schedule is not None
        else None
    )
    # The event tier binds from the dedicated "delay" stream: straggler
    # sets, per-edge weights and per-message jitter never consume
    # algorithm coins, so event runs stay bit-identical to round runs.
    sched = (
        cfg.scheduler.bind(net, make_rng(derive_seed(seed, "delay")))
        if cfg.scheduler is not None
        else None
    )
    sim = Simulator(
        net,
        make_rng(derive_seed(seed, "algo")),
        Metrics(net.n),
        check_model=cfg.check_model,
        dynamics=dynamics,
        pool=pool,
        scheduler=sched,
    )
    tel_run = None
    if telemetry is not None:
        tel_run = telemetry.begin_run(
            {
                "kind": "sequential",
                "algorithm": spec.name,
                "task": cfg.task,
                "n": net.n,
                "seed": seed,
                "source": int(source),
                "message_bits": net.sizes.rumor_bits,
            }
        )
        if trace is None and telemetry.collect_events:
            trace = Trace()
        # All sequential telemetry rides pre-existing attachment points
        # (commit hooks, Metrics.span_recorder): the engine's hot paths
        # are byte-identical whether telemetry is on or off.
        sim.telemetry = tel_run
        sim.metrics.span_recorder = tel_run.spans
        sim.add_commit_hook(tel_run.on_round)
        tel_run.sample(sim)  # round-0 baseline
    if cfg.task == BROADCAST_TASK:
        report = spec.run(sim, source, cfg.profile, trace, **cfg.algorithm_kwargs)
    else:
        state = get_task(cfg.task).build(
            net,
            make_rng(derive_seed(seed, "task")),
            message_bits=net.sizes.rumor_bits,
            source=source,
            **cfg.task_kwargs,
        )
        report = spec.run_task(sim, state, cfg.profile, trace, **cfg.algorithm_kwargs)
    # Causal-trace extras must land before finish_run so the telemetry
    # collector can serialise them into the schema v2 trace/path records.
    if (
        sched is not None
        and getattr(sched, "contacts", None) is not None
        and len(sched.contacts)
    ):
        path = sched.contacts.critical_path()
        report.extras.setdefault("contact_trace", sched.contacts)
        report.extras.setdefault("critical_path", path)
        report.extras.setdefault("critical_path_len", int(path.length))
        report.extras.setdefault(
            "dilation", float(sched.sim_time) / max(report.rounds, 1)
        )
    if tel_run is not None:
        telemetry.finish_run(tel_run, sim=sim, report=report)
    report.extras.setdefault("seed", seed)
    report.extras.setdefault("failures", cfg.failures)
    report.extras.setdefault("source", int(source))
    # Whether the initial rumor holder survived the run: under a dynamics
    # timeline it may crash mid-broadcast, and an execution whose only
    # copy of the rumor died is a model outcome, not a harness failure.
    report.extras.setdefault("source_alive", bool(net.alive[source]))
    if net.topology_restricted:
        report.extras.setdefault("topology", net.topology.describe())
        report.extras.setdefault("direct_addressing", net.direct_addressing)
    if sched is not None:
        report.extras.setdefault("scheduler", sched.describe())
        report.extras.setdefault("sim_time", float(sched.sim_time))
    if dynamics is not None:
        report.extras.setdefault("schedule", cfg.schedule.describe())
        for key, value in dynamics.summary().items():
            report.extras.setdefault(key, value)
    return report


class ReplicationEngine:
    """A reusable broadcast context: construction cost paid once, not per seed.

    Holds one :class:`~repro.sim.network.Network` (reset in place per
    seed, reusing its O(n) allocations) and one
    :class:`~repro.sim.engine.BufferPool` (reused across rounds *and*
    replications), so a replication suite stops paying network
    construction and per-round scratch allocation for every seed.  Index
    arrays narrow to int32 below ``n = 2**31`` (``index_dtype="auto"``),
    and every seed's report is **bit-identical** to an independent
    ``broadcast(seed=...)`` call (pinned by the fingerprint corpus in
    ``tests/test_fingerprints.py``): random draws are dtype-invariant and
    pooling only moves intermediates.

    >>> eng = ReplicationEngine(RunConfig(4096, "cluster2"))
    >>> reports = [eng.run(seed) for seed in range(100)]   # doctest: +SKIP
    """

    def __init__(self, cfg: RunConfig) -> None:
        self.cfg = cfg
        self._net: Optional[Network] = None
        self._pool = BufferPool()

    @property
    def pool(self) -> BufferPool:
        """The shared per-round scratch pool (exposed for tests)."""
        return self._pool

    def run(
        self,
        seed: int,
        trace: Optional[Trace] = None,
        telemetry: "Optional[Telemetry]" = None,
    ) -> AlgorithmReport:
        """Execute one replication, bit-identical to ``broadcast(seed=seed)``."""
        net_seed = derive_seed(seed, "net")
        if self._net is None:
            cfg = self.cfg
            self._net = Network(
                cfg.n,
                rng=net_seed,
                rumor_bits=cfg.message_bits,
                index_dtype="auto",
                topology=cfg.topology,
                direct_addressing=cfg.direct_addressing,
            )
        else:
            self._net.reset(net_seed)
        return _run_on_network(
            self._net,
            self.cfg,
            seed,
            pool=self._pool,
            trace=trace,
            telemetry=telemetry,
        )


#: Replication execution engines; ``auto`` resolves to one of the others.
REPLICATION_ENGINES = ("auto", "vector", "reset")


@dataclass(frozen=True)
class EnginePlan:
    """How a replication suite of one :class:`RunConfig` will execute.

    ``engine`` is the resolved executor (``"vector"`` or ``"reset"``);
    ``batch_runner`` the vector engine's registered runner (None on the
    reset engine); ``elements_per_node`` the runner's per-node work
    weight, which bounds the chunk plan (k-rumor arrays are
    ``(R, n, k)``-shaped); ``fallback_reason`` says why ``engine="auto"``
    left the vector engine for an event-tier configuration.
    """

    engine: str
    batch_runner: Optional[Callable[..., Any]] = None
    elements_per_node: int = 1
    fallback_reason: Optional[str] = None


def _scheduler_reason(cfg: RunConfig, batch_runner) -> Optional[str]:
    """Why the event tier of ``cfg`` cannot ride the vector engine, or
    None.  It can when the runner folds its contacts into the batched
    clock overlay (:class:`repro.sim.schedule.BatchClockOverlay`);
    tracing stays sequential."""
    if cfg.scheduler is None:
        return None
    if not getattr(batch_runner, "supports_overlay", False):
        return (
            f"the batch runner for {cfg.algorithm!r} (task {cfg.task!r}) does "
            "not fold contacts into the batched clock overlay"
        )
    if cfg.scheduler.trace:
        return "contact tracing needs the sequential event scheduler"
    return None


def plan(cfg: RunConfig, engine: str = "auto") -> EnginePlan:
    """Choose the replication engine for ``cfg``.

    Pure: it reads the registry and the resolved config and never runs
    a simulation.  ``"vector"`` (the batched ``(R, n)`` executor) needs
    a batch runner registered for the task, no adversity and no
    failures, ``n >= 2``, and the complete graph or a topology-capable
    runner under global addressing; ``engine="vector"`` raises
    ``ValueError`` otherwise, ``engine="auto"`` falls back to
    ``"reset"``.
    """
    if engine not in REPLICATION_ENGINES:
        raise ValueError(
            f"unknown replication engine {engine!r}; choose from {REPLICATION_ENGINES}"
        )
    if engine == "reset":
        return EnginePlan("reset")
    batch_runner = cfg.spec.batch_runner_for(cfg.task)
    # Restricted topologies ride the vector engine when the runner
    # advertises batched neighbor sampling (global direct addressing
    # only — the batched relays deliver without a reachability check).
    topology_ok = cfg.topology.complete or (
        getattr(batch_runner, "supports_topology", False)
        and cfg.direct_addressing == "global"
    )
    scheduler_reason = _scheduler_reason(cfg, batch_runner)
    # The (R, n) executors assume at least one other node to dial;
    # single-node runs fall back to the sequential reset engine.
    if (
        batch_runner is not None
        and cfg.schedule is None
        and scheduler_reason is None
        and not cfg.failures
        and cfg.n > 1
        and topology_ok
    ):
        weigh = getattr(batch_runner, "elements_per_node", None)
        weight = weigh(dict(cfg.task_kwargs)) if weigh else 1
        return EnginePlan("vector", batch_runner, weight)
    if engine == "vector":
        if scheduler_reason is not None:
            raise ValueError(
                f"vector engine unavailable with scheduler=event: "
                f"{scheduler_reason}; run it on the sequential tier with "
                "engine='reset'"
            )
        raise ValueError(
            f"vector engine unavailable for {cfg.algorithm!r} (task {cfg.task!r}) "
            "here: it needs a registered batch runner for the task and a "
            "zero-adversity, zero-failure configuration with n >= 2 on "
            "the complete graph (or a topology-capable runner under "
            "global addressing)"
        )
    if scheduler_reason is not None:
        _log.info(
            "engine=auto: falling back to the sequential reset engine (%s)",
            scheduler_reason,
        )
    return EnginePlan("reset", fallback_reason=scheduler_reason)


def run_replications(
    n: int,
    algorithm: str = "cluster2",
    reps: int = 1,
    *,
    base_seed: int = 0,
    engine: str = "auto",
    batch_elems: int = DEFAULT_BATCH_ELEMS,
    workers: Optional[int] = None,
    telemetry: "Optional[Telemetry]" = None,
    trace: bool = False,
    consume: Optional[Callable[[dict], None]] = None,
    **config: Any,
) -> ReplicationSummary:
    """Fan one configuration across ``reps`` seeds, aggregating as a stream.

    ``config`` holds the run knobs (every :class:`RunConfig` field) and
    any extra algorithm knobs, exactly as for :func:`broadcast`;
    ``trace=True`` is :class:`RunConfig`'s contact-tracing switch.  The
    rest is :func:`replicate_config`'s.
    """
    cfg = RunConfig.build(n, algorithm, trace=trace, **config)
    return replicate_config(
        cfg,
        reps,
        base_seed=base_seed,
        engine=engine,
        batch_elems=batch_elems,
        workers=workers,
        telemetry=telemetry,
        consume=consume,
    )


def replicate_config(
    cfg: RunConfig,
    reps: int = 1,
    *,
    base_seed: int = 0,
    engine: str = "auto",
    batch_elems: int = DEFAULT_BATCH_ELEMS,
    workers: Optional[int] = None,
    telemetry: "Optional[Telemetry]" = None,
    consume: Optional[Callable[[dict], None]] = None,
) -> ReplicationSummary:
    """Run ``cfg`` for ``reps`` seeds, aggregating as a stream.

    Each replication is reduced to its headline scalars the moment it
    finishes and folded into a
    :class:`~repro.analysis.stats.ReplicationSummary` (Welford
    mean/variance, min/max, compact quantile buffer, Wilson success
    interval) — a 500-seed suite holds a handful of floats, never 500
    records.  ``consume`` (optional) additionally receives each
    replication's scalar dict as it streams past, e.g. for live CLI
    output or custom sinks.

    Engines
    -------
    ``"reset"``
        The memory-lean sequential engine (:class:`ReplicationEngine`):
        any algorithm, any schedule; replication ``i`` runs seed
        ``base_seed + i`` and is bit-identical to
        ``broadcast(seed=base_seed + i)``.
    ``"vector"``
        The batched ``(R, n)`` executor (:mod:`repro.sim.batch`) for
        algorithms that registered a batch runner *for the requested
        task* (push-pull has one for ``"broadcast"`` and ``"push-sum"``);
        zero-adversity only.  Statistically equivalent to (not
        stream-identical with) the sequential engine; chunked so no
        work array exceeds ``batch_elems`` elements regardless of
        ``reps``.  The event tier rides along through the batched clock
        overlay (:class:`repro.sim.schedule.BatchClockOverlay`) when the
        runner folds contacts — the summary then carries per-rep
        ``sim_time`` streams.
    ``"auto"``
        ``vector`` when eligible, else ``reset``; :func:`plan` decides,
        and an event-tier fallback is recorded in
        ``summary.extras["engine_fallback"]``.

    Sharding
    --------
    ``workers`` switches on sharded execution: the replications are cut
    into contiguous ``(R_shard, n)`` blocks — the vector engine's own
    chunk plan, or up to 16 balanced blocks for the sequential engine —
    each shard streams its own summary (in a ``ProcessPoolExecutor``
    when ``workers > 1``), and the shard summaries merge in shard order
    via :meth:`~repro.analysis.stats.ReplicationSummary.merge`.  The
    shard plan and merge order depend only on the configuration, never
    on the worker count, so ``workers=1`` and ``workers=8`` produce
    identical summaries (exact mean/variance/extremes combine; quantile
    buffers merge approximately).  ``consume`` streaming is unavailable
    when sharding.

    Telemetry
    ---------
    ``telemetry`` (a :class:`repro.obs.telemetry.Telemetry`) records one
    run handle per sequential replication, or one per vector chunk (the
    chunk is the vector engine's unit of execution — its spans time the
    phase drivers, its series carries batch-aggregate samples).  Sharded
    runs give each shard a fresh collector and merge them back in shard
    order, so the exported run ids are worker-count independent.

    A traced ``cfg`` extracts every replication's critical path, and the
    summary gains ``critical_path_len`` / ``dilation`` streams.
    """
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps}")
    chosen = plan(cfg, engine)
    if workers is None:
        summary = _replicate(
            cfg,
            chosen,
            reps,
            base_seed=base_seed,
            batch_elems=batch_elems,
            telemetry=telemetry,
            consume=consume,
        )
    else:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if consume is not None:
            raise ValueError(
                "workers= shards the replications across summaries; "
                "per-replication consume streaming is only available serially"
            )
        summary = _run_sharded(
            cfg,
            chosen,
            reps,
            base_seed=base_seed,
            batch_elems=batch_elems,
            workers=workers,
            telemetry=telemetry,
        )
    if chosen.fallback_reason is not None:
        summary.extras["engine_fallback"] = chosen.fallback_reason
    return summary


def _replicate(
    cfg: RunConfig,
    chosen: EnginePlan,
    reps: int,
    *,
    base_seed: int,
    batch_elems: int,
    telemetry: "Optional[Telemetry]",
    consume: Optional[Callable[[dict], None]] = None,
    seed_offset: int = 0,
) -> "ReplicationSummary":
    """One serial replication stream on the planned engine.

    ``seed_offset`` keeps a vector shard's per-chunk seed derivation
    aligned with the serial chunk sequence.
    """
    # Imported here, not at module top: repro.analysis.runner imports this
    # module, so a top-level import of repro.analysis would be circular.
    from repro.analysis.stats import ReplicationSummary

    summary = ReplicationSummary(
        algorithm=cfg.algorithm, n=cfg.n, engine=chosen.engine, task=cfg.task
    )

    def feed(rep: int, seed: Optional[int], scalars: dict) -> None:
        summary.observe(**scalars)
        if consume is not None:
            consume({"rep": rep, "seed": seed, **scalars})

    if chosen.engine == "reset":
        replication = ReplicationEngine(cfg)
        for rep in range(reps):
            seed = base_seed + rep
            report = replication.run(seed, telemetry=telemetry)
            feed(rep, seed, report_scalars(report))
        return summary

    n, topology, batch_runner = cfg.n, cfg.topology, chosen.batch_runner
    runner_kwargs = {**cfg.task_kwargs, **cfg.algorithm_kwargs}
    if getattr(batch_runner, "uses_profile", False):
        runner_kwargs.setdefault("profile", cfg.profile)
    graph = None
    if not topology.complete and topology.deterministic:
        # Deterministic graphs are identical across replications and
        # chunks; bind once (the rng is required but unconsumed).
        graph = topology.bind(n, make_rng(derive_seed(base_seed, "net")))
    for done, take in _chunks(n, reps, batch_elems, chosen.elements_per_node):
        first_rep = seed_offset + done
        rng = make_rng(derive_seed(base_seed, "vector", first_rep))
        if not topology.complete and not topology.deterministic:
            # Random graphs resample per chunk: replications within a
            # chunk share one instance (documented approximation of
            # the sequential engine's per-seed graphs).
            graph = topology.bind(
                n, make_rng(derive_seed(base_seed, "vector-topo", first_rep))
            )
        chunk_kwargs = dict(runner_kwargs)
        if graph is not None:
            chunk_kwargs["graph"] = graph
        if cfg.scheduler is not None:
            # One overlay per chunk: rep i's delay stream is derived
            # from base_seed + (global rep index) exactly as the
            # sequential bind's, so the chunk plan (and the worker
            # count) never moves a replication's draws.
            chunk_kwargs["overlay"] = make_batch_overlay(
                cfg.scheduler,
                topology,
                n,
                take,
                graph,
                base_seed=base_seed,
                first_rep=first_rep,
            )
        tel_run = None
        if telemetry is not None:
            tel_run = telemetry.begin_run(
                {
                    "kind": "vector",
                    "algorithm": cfg.algorithm,
                    "task": cfg.task,
                    "n": n,
                    "reps": take,
                    "first_rep": first_rep,
                    "base_seed": base_seed,
                    "message_bits": cfg.message_bits,
                }
            )
            if getattr(batch_runner, "supports_telemetry", False):
                chunk_kwargs["telemetry"] = tel_run
        with maybe_span(tel_run, "chunk"):
            outcome = batch_runner(
                n,
                take,
                rng,
                message_bits=cfg.message_bits,
                source=cfg.source,
                **chunk_kwargs,
            )
        if tel_run is not None:
            telemetry.finish_run(tel_run, outcome=outcome)
        for i in range(outcome.reps):
            feed(done + i, None, outcome.rep_scalars(i))
    return summary


def _chunks(n: int, reps: int, batch_elems: int, elements_per_node: int):
    """The vector engine's contiguous ``(start, count)`` chunk sequence."""
    done = 0
    while done < reps:
        take = batch_size(n, reps - done, batch_elems, elements_per_node)
        yield done, take
        done += take


#: Sequential-engine shard count cap: enough blocks to feed any sane
#: worker pool while keeping per-shard engine setup amortised.
MAX_SEQUENTIAL_SHARDS = 16


def _replication_shard(payload: tuple):
    """Process-pool entry point: one shard of a sharded run (top-level so
    it pickles).  The payload is ``(cfg, engine, shard kwargs)``; the
    engine is re-planned in the worker so no runner callable travels.
    Returns ``(summary, shard_telemetry_or_None)`` — the shard's
    collector mutates in the worker process, so it must travel back
    with the summary."""
    cfg, engine, kwargs = payload
    return _replicate(cfg, plan(cfg, engine), **kwargs), kwargs["telemetry"]


def _shard_plan(
    engine: str,
    n: int,
    reps: int,
    batch_elems: int,
    elements_per_node: int,
) -> list:
    """Contiguous ``(start, count)`` shard blocks.

    The plan is a pure function of the configuration (never the worker
    count): vector shards are exactly the serial engine's chunk
    sequence, sequential shards are balanced blocks, so any ``workers``
    value yields the same shard summaries in the same merge order.
    """
    if engine == "vector":
        return list(_chunks(n, reps, batch_elems, elements_per_node))
    shards = min(reps, MAX_SEQUENTIAL_SHARDS)
    sizes = [reps // shards + (1 if i < reps % shards else 0) for i in range(shards)]
    starts = [sum(sizes[:i]) for i in range(shards)]
    return list(zip(starts, sizes))


def _run_sharded(
    cfg: RunConfig,
    chosen: EnginePlan,
    reps: int,
    *,
    base_seed: int,
    batch_elems: int,
    workers: int,
    telemetry: "Optional[Telemetry]",
) -> "ReplicationSummary":
    """Split ``reps`` into shard blocks, run each as its own serial
    stream, merge the shard summaries (and shard telemetry collectors)
    in shard order."""
    from repro.analysis.stats import ReplicationSummary

    payloads = []
    for start, count in _shard_plan(
        chosen.engine, cfg.n, reps, batch_elems, chosen.elements_per_node
    ):
        if chosen.engine == "vector":
            # Vector shards replay the serial chunk sequence: same base
            # seed, chunk-aligned derivation offset.
            offsets = dict(base_seed=base_seed, seed_offset=start)
        else:
            # Sequential shards: replication i still runs seed
            # base_seed + i, exactly as the serial loop would.
            offsets = dict(base_seed=base_seed + start)
        # Fresh per-shard collector; merged back below in shard order,
        # so run ids never depend on the worker count.
        shard_telemetry = telemetry.spawn() if telemetry is not None else None
        kwargs = dict(
            reps=count, batch_elems=batch_elems, telemetry=shard_telemetry, **offsets
        )
        payloads.append((cfg, chosen.engine, kwargs))

    if workers == 1 or len(payloads) == 1:
        shard_results = [_replication_shard(p) for p in payloads]
    else:
        # Imported lazily: the serial path stays free of executor setup.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
            shard_results = list(pool.map(_replication_shard, payloads))

    merged = ReplicationSummary(
        algorithm=cfg.algorithm, n=cfg.n, engine=chosen.engine, task=cfg.task
    )
    for shard, shard_telemetry in shard_results:
        merged.merge(shard)
        if telemetry is not None and shard_telemetry is not None:
            telemetry.merge(shard_telemetry)
    return merged


def report_scalars(report: AlgorithmReport) -> dict:
    """One report's figures in :meth:`ReplicationSummary.observe` shape."""
    scalars = {
        "rounds": report.rounds,
        "spread_rounds": report.spread_rounds,
        "messages_per_node": report.messages_per_node,
        "bits_per_node": report.bits_per_node,
        "max_fanin": report.max_fanin,
        "success": report.success,
    }
    if "task_error" in report.extras:
        scalars["task_error"] = float(report.extras["task_error"])
    if "task_error_repaired" in report.extras:
        scalars["task_error_repaired"] = float(report.extras["task_error_repaired"])
    if "sim_time" in report.extras:
        scalars["sim_time"] = float(report.extras["sim_time"])
    if "critical_path_len" in report.extras:
        scalars["critical_path_len"] = int(report.extras["critical_path_len"])
    if "dilation" in report.extras:
        scalars["dilation"] = float(report.extras["dilation"])
    return scalars
