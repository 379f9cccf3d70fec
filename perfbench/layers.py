"""Which program functions the traced run wraps, and under what names.

Each layer boundary is a public function or method of a ``repro``
module.  A module-level function is swapped at every loaded ``repro``
module that holds it, so names re-imported elsewhere (``core.grow``,
``core.square``, ``core.merge_phase`` and ``core.pull_phase`` import the
cluster primitives by name) are traced and restored too; a vectorised
runner is also swapped in the algorithm registry, through the public
``register_batch_runner``, because the vector engine looks it up there.

Metric names are the defining module without its ``repro.`` prefix plus
the qualified name, e.g. ``sim.engine.Round.commit``.
"""

from __future__ import annotations

import importlib
import sys
from typing import List, Tuple

from tracer import Site, Tracer

#: Module-level functions: (module, function).
FUNCTIONS: Tuple[Tuple[str, str], ...] = (
    ("repro.core.broadcast", "run_replications"),
    ("repro.core.primitives", "cluster_resize"),
    ("repro.core.primitives", "cluster_push"),
    ("repro.core.primitives", "cluster_merge"),
    ("repro.core.primitives", "cluster_size"),
    ("repro.core.primitives", "grow_push_round"),
    ("repro.sim.batch", "random_targets_batch"),
    ("repro.sim.batch", "per_rep_max_fanin"),
    ("repro.baselines.push_pull", "batched_push_pull"),
    ("repro.tasks.transports", "run_uniform_task"),
)

#: Methods: (module, class, methods).
METHODS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("repro.core.clustering", "Clustering", ("members_of",)),
    (
        "repro.sim.batch_cluster",
        "ClusterBatch",
        (
            "cluster_resize",
            "cluster_push",
            "cluster_merge",
            "grow_push_round",
            "unclustered_pull_round",
            "cluster_share",
        ),
    ),
    ("repro.sim.engine", "Round", ("commit", "push", "pull")),
    ("repro.sim.schedule", "BatchClockOverlay", ("full_round", "fold")),
    ("repro.sim.schedule", "EventScheduler", ("on_commit",)),
    ("repro.sim.network", "Network", ("reset", "random_targets", "connection_mask")),
    (
        "repro.sim.dynamics",
        "DynamicsDriver",
        ("begin_round", "push_survival", "pull_survival"),
    ),
    (
        "repro.tasks.state",
        "PushSumState",
        ("begin_push", "finish_push", "deliver_pull", "end_round", "error", "done"),
    ),
    ("repro.analysis.stats", "ReplicationSummary", ("observe",)),
)

#: Every delay sampler (sequential ``delays``, batched ``sample_full`` /
#: ``complete_full``) of every bound delay class reports as one layer.
DELAY_LAYER = "sim.topology.delay"
DELAY_METHODS = ("delays", "sample_full", "complete_full")

#: The dispatcher every replication runs under; the other names are the
#: layers ``trace.coverage`` credits.
ROOT = "core.broadcast.run_replications"

#: Counters that must repeat exactly for a seed.
CALL_COUNTERS = (
    "core.clustering.Clustering.members_of",
    "sim.engine.Round.commit",
)
CONTACTS = "sim.engine.contacts"


def _metric(module: str, qualname: str) -> str:
    return f"{module[len('repro.'):]}.{qualname}"


def _initiators(args: tuple, kwargs: dict) -> int:
    """Initiators a ``Round.push``/``Round.pull`` call declares; a push
    riding a channel its source already opened initiates nothing."""
    if not kwargs.get("counts_initiation", True):
        return 0
    srcs = args[1] if len(args) > 1 else kwargs["srcs"]
    return len(srcs)


def _function_sites(fn) -> List[Site]:
    """Every loaded ``repro`` module attribute and registry slot holding ``fn``."""
    sites = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                sites.append(Site.attr(module, attr))
    from repro.registry import algorithm_names, get_algorithm, register_batch_runner

    for algo in algorithm_names():
        spec = get_algorithm(algo)
        slots = [("broadcast", spec.batch_runner), *spec.task_batch_runners]
        for task, runner in slots:
            if runner is fn:
                sites.append(
                    Site(
                        f"registry[{algo!r}, {task!r}]",
                        lambda a=algo, t=task: get_algorithm(a).batch_runner_for(t),
                        lambda value, a=algo, t=task: register_batch_runner(a, t)(value),
                    )
                )
    return sites


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; :meth:`Tracer.restore` undoes it."""
    for module_name, fn_name in FUNCTIONS:
        fn = getattr(importlib.import_module(module_name), fn_name)
        wrapper = tracer.wrap(fn, _metric(module_name, fn_name))
        tracer.install(_function_sites(fn), wrapper)
    for module_name, cls_name, methods in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        for method in methods:
            count = (CONTACTS, _initiators) if cls_name == "Round" and method != "commit" else None
            name = _metric(module_name, f"{cls_name}.{method}")
            wrapper = tracer.wrap(getattr(cls, method), name, count)
            tracer.install([Site.attr(cls, method)], wrapper)
    topology = importlib.import_module("repro.sim.topology")
    bases = (topology.BoundDelay, topology.BatchBoundDelay)
    for cls in vars(topology).values():
        if isinstance(cls, type) and issubclass(cls, bases):
            for method in DELAY_METHODS:
                if method in vars(cls):
                    wrapper = tracer.wrap(vars(cls)[method], DELAY_LAYER)
                    tracer.install([Site.attr(cls, method)], wrapper)


def self_ms_names() -> List[str]:
    """Every span name :func:`install` can record."""
    names = [_metric(m, f) for m, f in FUNCTIONS]
    for module_name, cls_name, methods in METHODS:
        names += [_metric(module_name, f"{cls_name}.{m}") for m in methods]
    return names + [DELAY_LAYER]
