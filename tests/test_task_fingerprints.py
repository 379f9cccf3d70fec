"""Replay the task fingerprint corpus (tests/fingerprints/tasks/).

The engine corpus (``tests/test_fingerprints.py``) pins broadcast runs;
this one pins the task layer: push-sum on the uniform transport (static,
churn, churn plus stragglers, message loss, pre-run failures), push-sum
over the cluster2 transport (with and without mass restoration), and the
uniform k-rumor and min-max tasks.  Each case pins the headline costs
plus the task's own figures — ``task_error``, ``task_error_repaired``
and, on the event tier, ``sim_time`` — as exact float reprs, so any
reordering of the task layer's floating-point bookkeeping shows up here.

Every case replays through ``broadcast`` and through a reused
:class:`repro.core.broadcast.ReplicationEngine` network.  The corpus
lives in a subdirectory so the engine corpus's ``*.json`` glob does not
load it; ``pytest tests/test_task_fingerprints.py --update-fingerprints``
rewrites it after an intentional change to task output.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.broadcast import ReplicationEngine, RunConfig, broadcast
from repro.sim.schedule import EventSchedulerSpec, parse_delay

CORPUS = Path(__file__).parent / "fingerprints" / "tasks" / "tasks.json"

#: Integer figures, then float figures pinned as ``repr`` strings (or
#: null when the run does not produce them).
INT_FIELDS = ("rounds", "messages", "bits", "max_fanin")
FLOAT_FIELDS = ("task_error", "task_error_repaired", "sim_time")


def _load() -> dict:
    with open(CORPUS) as fh:
        return json.load(fh)


def _case_id(case: dict) -> str:
    parts = [case["algorithm"], case["task"], f"n={case['n']}", f"seed={case['seed']}"]
    parts.append(case.get("schedule") or "static")
    if case.get("delay"):
        parts.append(case["delay"])
    if case.get("failures"):
        parts.append(f"failures={case['failures']}")
    if case.get("task_kwargs"):
        parts.append(",".join(f"{k}={v}" for k, v in sorted(case["task_kwargs"].items())))
    return ":".join(parts)


_CORPUS = _load()
_CASES = [
    pytest.param(index, id=_case_id(case))
    for index, case in enumerate(_CORPUS["cases"])
]


def _run_knobs(case: dict) -> dict:
    knobs = dict(
        task=case["task"],
        task_kwargs=case.get("task_kwargs") or {},
        schedule=case.get("schedule"),
        failures=case.get("failures", 0),
    )
    if case.get("delay"):
        knobs["scheduler"] = EventSchedulerSpec(delay=parse_delay(case["delay"]))
    return knobs


def _execute(case: dict, shape: str):
    knobs = _run_knobs(case)
    if shape == "broadcast":
        return broadcast(case["n"], case["algorithm"], seed=case["seed"], **knobs)
    engine = ReplicationEngine(RunConfig(case["n"], case["algorithm"], **knobs))
    # A throwaway neighbouring seed first: the pinned seed must replay on
    # a reset network and a warm buffer pool.
    engine.run(case["seed"] + 1)
    return engine.run(case["seed"])


def _fingerprint(report) -> dict:
    out = {name: int(getattr(report, name)) for name in INT_FIELDS}
    for name in FLOAT_FIELDS:
        value = report.extras.get(name)
        out[name] = None if value is None else repr(float(value))
    return out


@pytest.fixture(scope="module")
def corpus(request):
    """The corpus — regenerated in place first under --update-fingerprints."""
    if request.config.getoption("--update-fingerprints"):
        for case in _CORPUS["cases"]:
            case["fingerprint"] = _fingerprint(_execute(case, "broadcast"))
        with open(CORPUS, "w") as fh:
            json.dump(_CORPUS, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return _CORPUS


@pytest.mark.parametrize("shape", ["broadcast", "lean-replication"])
@pytest.mark.parametrize("index", _CASES)
def test_task_fingerprint(corpus, index, shape):
    case = corpus["cases"][index]
    expected = case["fingerprint"]
    assert set(expected) == set(INT_FIELDS + FLOAT_FIELDS), "corpus fields drifted"
    actual = _fingerprint(_execute(case, shape))
    assert actual == expected, (
        f"{_case_id(case)} [{shape}] diverged from the pinned task corpus; "
        "if this change to task output is intentional, regenerate with "
        "--update-fingerprints and review the diff"
    )


def test_task_corpus_covers_the_task_layer():
    cases = _CORPUS["cases"]
    push_sum = [c for c in cases if c["task"] == "push-sum"]
    assert {c["algorithm"] for c in push_sum} >= {"push-pull", "cluster2"}
    assert {c["task"] for c in cases} >= {"push-sum", "k-rumor", "min-max"}
    assert any(c.get("delay") for c in push_sum), "no event-tier push-sum case"
    assert any(c.get("failures") for c in push_sum), "no dead-target push-sum case"
    assert any(
        (c.get("task_kwargs") or {}).get("restore_mass") for c in push_sum
    ), "no mass-restoration case"
    # The event-tier cases really pin a simulated time.
    assert all(
        c["fingerprint"]["sim_time"] is not None for c in cases if c.get("delay")
    )
