"""The run description (``RunConfig``) and the engine planner (``plan``).

``plan`` is pure: the table below pins every engine decision and error
text without running a simulation, and a Hypothesis fuzzer walks the
whole configuration space to check that every draw either builds and
plans or fails with a one-line config error — and that what builds
pickles unchanged and runs.
"""

from __future__ import annotations

import importlib
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.broadcast import (
    REPLICATION_ENGINES,
    EnginePlan,
    RunConfig,
    plan,
    run_replications,
)
from repro.registry import (
    AlgorithmSpec,
    algorithm_names,
    get_algorithm,
    register_spec,
    task_names,
    topology_names,
    unregister_algorithm,
)
from repro.sim.dynamics import AdversitySchedule, schedule_names
from repro.sim.schedule import EventSchedulerSpec, parse_delay
from repro.sim.topology import ADDRESSING_MODES, Ring


def _no_overlay_runner(n, reps, rng, **knobs):  # pragma: no cover - never run
    raise AssertionError("plan() must not run a batch runner")


@pytest.fixture
def no_overlay_algorithm():
    """A broadcastable algorithm whose batch runner does not fold
    contacts into the batched clock overlay."""
    name = "plan-no-overlay"
    register_spec(
        AlgorithmSpec(
            name=name,
            runner=get_algorithm("push-pull").runner,
            batch_runner=_no_overlay_runner,
        )
    )
    yield name
    unregister_algorithm(name)


class TestRunConfig:
    def test_resolves_names_to_frozen_specs(self):
        cfg = RunConfig(64, "push-pull", topology="ring", schedule="churn-light",
                        scheduler="event", profile="paper")
        assert cfg.topology == Ring()
        assert isinstance(cfg.schedule, AdversitySchedule)
        assert cfg.scheduler == EventSchedulerSpec()
        assert cfg.profile.name == "paper"

    def test_round_scheduler_and_empty_schedule_resolve_to_none(self):
        cfg = RunConfig(64, "push-pull", scheduler="round", schedule="")
        assert cfg.scheduler is None and cfg.schedule is None

    def test_trace_folds_into_the_scheduler(self):
        assert RunConfig(64, "push-pull", trace=True).scheduler == EventSchedulerSpec(
            trace=True
        )
        delay = parse_delay("jitter:0.5,1.5")
        cfg = RunConfig(64, "push-pull", trace=True,
                        scheduler=EventSchedulerSpec(delay=delay))
        assert cfg.scheduler == EventSchedulerSpec(delay=delay, trace=True)

    def test_build_routes_algorithm_knobs(self):
        cfg = RunConfig.build(4096, "cluster3", failures=3, delta=64)
        assert cfg.failures == 3
        assert cfg.algorithm_kwargs == {"delta": 64}

    def test_patch_revalidates(self):
        cfg = RunConfig.build(4096, "cluster3", delta=64).patch(n=2048, failures=5)
        assert (cfg.n, cfg.failures, cfg.algorithm_kwargs) == (2048, 5, {"delta": 64})
        with pytest.raises(ValueError, match="source 9 out of range"):
            RunConfig(16, "push-pull", source=9).patch(n=8)

    def test_pickle_round_trip(self):
        cfg = RunConfig.build(256, "cluster3", topology="torus", delta=64,
                              schedule="loss:0.1", trace=True)
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    @pytest.mark.parametrize(
        "config,match",
        [
            (dict(source=64), "source 64 out of range for n=64"),
            (dict(direct_addressing="nearby"), "direct_addressing must be one of"),
            (dict(task="push-sum", task_kwargs={"k": 2}), "does not accept"),
            (dict(algorithm="median-counter", topology="ring"), "complete contact graph"),
            (dict(algorithm="cluster3", task="push-sum"), "no registered task transport"),
            (dict(topology="torus", n=8), "torus needs a rows x cols"),
            (
                dict(scheduler=EventSchedulerSpec(delay=parse_delay("wan"))),
                "needs a materialised contact graph",
            ),
        ],
    )
    def test_bad_configurations_fail_on_construction(self, config, match):
        config = {"n": 64, "algorithm": "push-pull", **config}
        with pytest.raises(ValueError, match=match):
            RunConfig(**config)


# ----------------------------------------------------------------------
# plan(): one row per engine decision
# ----------------------------------------------------------------------

_NO_OVERLAY_REASON = (
    "the batch runner for 'plan-no-overlay' (task 'broadcast') does not fold "
    "contacts into the batched clock overlay"
)
_TRACE_REASON = "contact tracing needs the sequential event scheduler"


def _generic_error(algorithm: str, task: str = "broadcast") -> str:
    return (
        f"vector engine unavailable for {algorithm!r} (task {task!r}) here: it "
        "needs a registered batch runner for the task and a zero-adversity, "
        "zero-failure configuration with n >= 2 on the complete graph (or a "
        "topology-capable runner under global addressing)"
    )


def _scheduler_error(reason: str) -> str:
    return (
        f"vector engine unavailable with scheduler=event: {reason}; run it on "
        "the sequential tier with engine='reset'"
    )


#: (id, config, auto plan (engine, fallback_reason), engine="vector" error or None)
PLAN_TABLE = [
    ("vector-eligible", dict(algorithm="push-pull"), ("vector", None), None),
    ("cluster2-vector", dict(algorithm="cluster2"), ("vector", None), None),
    (
        "event-tier-rides-vector",
        dict(algorithm="push-pull", scheduler="event"),
        ("vector", None),
        None,
    ),
    ("no-batch-runner", dict(algorithm="push"), ("reset", None), _generic_error("push")),
    (
        "no-task-batch-runner",
        dict(algorithm="cluster2", task="push-sum"),
        ("reset", None),
        _generic_error("cluster2", "push-sum"),
    ),
    (
        "fallback-no-overlay-fold",
        dict(algorithm="plan-no-overlay", scheduler="event"),
        ("reset", _NO_OVERLAY_REASON),
        _scheduler_error(_NO_OVERLAY_REASON),
    ),
    (
        "fallback-tracing",
        dict(algorithm="push-pull", trace=True),
        ("reset", _TRACE_REASON),
        _scheduler_error(_TRACE_REASON),
    ),
    ("one-node", dict(n=1, algorithm="push-pull"), ("reset", None), _generic_error("push-pull")),
    (
        "adversity-schedule",
        dict(algorithm="push-pull", schedule="loss:0.1"),
        ("reset", None),
        _generic_error("push-pull"),
    ),
    (
        "failures",
        dict(algorithm="cluster2", failures=4),
        ("reset", None),
        _generic_error("cluster2"),
    ),
    (
        "restricted-topology-global-addressing",
        dict(algorithm="push-pull", topology=Ring(k=2)),
        ("vector", None),
        None,
    ),
    (
        "restricted-topology-topology-addressing",
        dict(algorithm="push-pull", topology=Ring(k=2), direct_addressing="topology"),
        ("reset", None),
        _generic_error("push-pull"),
    ),
    (
        "restricted-topology-task-runner",
        dict(algorithm="push-pull", task="min-max", topology=Ring(k=2)),
        ("reset", None),
        _generic_error("push-pull", "min-max"),
    ),
]


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail loudly if anything builds a network or a simulator."""

    def forbidden(*args, **kwargs):
        raise AssertionError("plan() must not run a simulation")

    module = importlib.import_module("repro.core.broadcast")
    monkeypatch.setattr(module, "Network", forbidden)
    monkeypatch.setattr(module, "Simulator", forbidden)


@pytest.mark.usefixtures("no_overlay_algorithm", "no_simulation")
class TestPlan:
    @pytest.mark.parametrize(
        "config,auto,vector_error",
        [row[1:] for row in PLAN_TABLE],
        ids=[row[0] for row in PLAN_TABLE],
    )
    def test_table(self, config, auto, vector_error):
        cfg = RunConfig.build(**{"n": 64, **config})
        chosen = plan(cfg)
        assert (chosen.engine, chosen.fallback_reason) == auto
        if chosen.engine == "vector":
            assert chosen.batch_runner is cfg.spec.batch_runner_for(cfg.task)
        else:
            assert chosen.batch_runner is None
        assert plan(cfg, "reset") == EnginePlan("reset")
        if vector_error is None:
            assert plan(cfg, "vector") == chosen
        else:
            with pytest.raises(ValueError) as info:
                plan(cfg, "vector")
            assert str(info.value) == vector_error

    def test_k_rumor_weighs_the_chunk_plan(self):
        cfg = RunConfig(64, "push-pull", task="k-rumor", task_kwargs={"k": 8})
        assert plan(cfg).elements_per_node == 8
        assert plan(RunConfig(64, "push-pull")).elements_per_node == 1

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown replication engine 'rebuild'"):
            plan(RunConfig(64, "push-pull"), "rebuild")


def test_replications_record_the_plan():
    summary = run_replications(64, "push-pull", reps=2, trace=True)
    assert summary.engine == "reset"
    assert summary.extras["engine_fallback"] == _TRACE_REASON


# ----------------------------------------------------------------------
# Config fuzzer
# ----------------------------------------------------------------------

_SCHEDULERS = [None, "round", "event"] + [
    EventSchedulerSpec(delay=parse_delay(text))
    for text in ("constant:0", "jitter:0.5,1.5", "straggler:fraction=0.25,factor=4", "wan")
]


#: Size rules only a bound run checks: k-rumor's k sources against the
#: (alive) nodes, Cluster3's default Δ against n.
_RUN_TIME_RULES = re.compile(r"^k=\d+ sources exceed \d+ (alive )?nodes$|too large for n=")


def _one_line(exc: ValueError) -> bool:
    text = str(exc)
    return bool(text) and "\n" not in text


@given(
    n=st.integers(min_value=1, max_value=64),
    algorithm=st.sampled_from(algorithm_names()),
    task=st.sampled_from(task_names()),
    topology=st.sampled_from(topology_names()),
    addressing=st.sampled_from(ADDRESSING_MODES),
    scheduler=st.sampled_from(_SCHEDULERS),
    schedule=st.sampled_from([None, *schedule_names()]),
    engine=st.sampled_from(REPLICATION_ENGINES),
)
@settings(max_examples=150, deadline=None)
def test_config_fuzzer(n, algorithm, task, topology, addressing, scheduler, schedule, engine):
    """Every draw builds and plans or fails with a one-line config
    error; what builds pickles unchanged, and at n <= 8 two replications
    finish — or stop on a one-line ``ValueError`` from a size rule only
    the bound run can check (k-rumor's ``k`` sources, Cluster3's Δ)."""
    knobs = dict(
        task=task,
        topology=topology,
        direct_addressing=addressing,
        scheduler=scheduler,
        schedule=schedule,
    )
    try:
        cfg = RunConfig(n, algorithm, **knobs)
        plan(cfg, engine)
    except ValueError as exc:
        assert _one_line(exc), repr(exc)
        return
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    if n > 8:
        return
    try:
        summary = run_replications(n, algorithm, reps=2, engine=engine, **knobs)
    except ValueError as exc:
        assert _one_line(exc) and _RUN_TIME_RULES.search(str(exc)), repr(exc)
        return
    assert summary.reps == 2
