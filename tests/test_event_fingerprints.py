"""Replay the sequential event-tier corpus (tests/fingerprints/event/).

The engine corpus (``tests/test_fingerprints.py``) pins round-tier
broadcasts and the task corpus pins the task layer; this one pins the
sequential event tier: the reset engine (a reused
:class:`repro.core.broadcast.ReplicationEngine`) × every built-in delay
model (``constant:2``, ``jitter:0.5,1.5``, ``straggler`` on the complete
graph; ``wan`` and ``rate-limited`` on ``random-regular d=8``) ×
{push-pull, cluster2} × {static, ``churn-light``}.  Each case pins
``rounds``, ``messages``, ``bits`` and ``sim_time`` as an exact float
repr, so any change to the clock fold or to a delay sampler's draw
order shows up here.  Traced cases also pin the contact count, the
critical-path length and the critical path's ``sim_time``.

The corpus lives in a subdirectory so the engine corpus's ``*.json``
glob does not load it; ``pytest tests/test_event_fingerprints.py
--update-fingerprints`` rewrites it after an intentional change to
event-tier output.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.broadcast import ReplicationEngine, RunConfig
from repro.registry import make_topology
from repro.sim.schedule import EventSchedulerSpec, parse_delay

CORPUS = Path(__file__).parent / "fingerprints" / "event" / "event.json"

INT_FIELDS = ("rounds", "messages", "bits")
TRACE_FIELDS = ("contacts", "critical_path_len", "critical_path_sim_time")


def _load() -> dict:
    with open(CORPUS) as fh:
        return json.load(fh)


def _case_id(case: dict) -> str:
    topology = case.get("topology") or "complete"
    args = ",".join(f"{k}={v}" for k, v in sorted(case.get("topology_args", {}).items()))
    parts = [case["algorithm"], case["delay"], f"{topology}({args})" if args else topology]
    parts.append(case.get("schedule") or "static")
    if case.get("trace"):
        parts.append("traced")
    return ":".join(parts)


_CORPUS = _load()
_CASES = [
    pytest.param(index, id=_case_id(case))
    for index, case in enumerate(_CORPUS["cases"])
]


def _config(case: dict) -> RunConfig:
    topology = None
    if case.get("topology"):
        topology = make_topology(case["topology"], **case.get("topology_args", {}))
    return RunConfig(
        case["n"],
        case["algorithm"],
        schedule=case.get("schedule"),
        topology=topology,
        scheduler=EventSchedulerSpec(
            delay=parse_delay(case["delay"]), trace=bool(case.get("trace"))
        ),
    )


def _fingerprint(report, traced: bool) -> dict:
    out = {name: int(getattr(report, name)) for name in INT_FIELDS}
    out["sim_time"] = repr(float(report.extras["sim_time"]))
    if traced:
        path = report.extras["critical_path"]
        out["contacts"] = len(report.extras["contact_trace"])
        out["critical_path_len"] = int(report.extras["critical_path_len"])
        out["critical_path_sim_time"] = repr(float(path.sim_time))
    return out


def _replay(case: dict) -> dict:
    """Run every pinned seed of ``case`` in order on one reset engine."""
    engine = ReplicationEngine(_config(case))
    traced = bool(case.get("trace"))
    return {
        str(seed): _fingerprint(engine.run(seed), traced) for seed in case["seeds"]
    }


@pytest.fixture(scope="module")
def corpus(request):
    """The corpus — regenerated in place first under --update-fingerprints."""
    if request.config.getoption("--update-fingerprints"):
        for case in _CORPUS["cases"]:
            case["fingerprints"] = _replay(case)
        with open(CORPUS, "w") as fh:
            json.dump(_CORPUS, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return _CORPUS


@pytest.mark.parametrize("index", _CASES)
def test_event_fingerprint(corpus, index):
    case = corpus["cases"][index]
    expected = case["fingerprints"]
    assert set(expected) == {str(seed) for seed in case["seeds"]}
    actual = _replay(case)
    assert actual == expected, (
        f"{_case_id(case)} diverged from the pinned event-tier corpus; "
        "if this change to event-tier output is intentional, regenerate "
        "with --update-fingerprints and review the diff"
    )


def test_event_corpus_covers_the_grid():
    cases = _CORPUS["cases"]
    untraced = {
        (c["algorithm"], c["delay"], c.get("schedule"))
        for c in cases
        if not c.get("trace")
    }
    delays = {"constant:2", "jitter:0.5,1.5", "straggler", "wan", "rate-limited"}
    assert untraced == {
        (algorithm, delay, schedule)
        for algorithm in ("push-pull", "cluster2")
        for delay in delays
        for schedule in (None, "churn-light")
    }
    for c in cases:
        graph_delay = c["delay"] in ("wan", "rate-limited")
        on_graph = (c.get("topology"), c.get("topology_args")) == (
            "random-regular",
            {"d": 8},
        )
        assert on_graph == graph_delay
    traced = [c for c in cases if c.get("trace")]
    assert traced, "no traced event-tier case"
    for c in traced:
        for pins in c["fingerprints"].values():
            assert set(pins) == set(INT_FIELDS) | {"sim_time"} | set(TRACE_FIELDS)
