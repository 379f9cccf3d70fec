"""The tracer: span accounting, and that every wrapped site is restored."""

import sys
import types

import pytest

import layers
from tracer import MISSING, Site, Tracer


class Base:
    def inherited(self):
        return "base"


class Child(Base):
    def own(self, x):
        return x + 1


def _toy_module():
    mod = types.ModuleType("toy")

    def inner(x):
        return x * 2

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    return mod


def test_install_and_restore_are_symmetric():
    mod = _toy_module()
    originals = dict(vars(mod))
    own, tracer = Child.own, Tracer()
    tracer.install([Site.attr(mod, "inner")], tracer.wrap(mod.inner, "toy.inner"))
    tracer.install([Site.attr(Child, "own")], tracer.wrap(Child.own, "Child.own"))
    tracer.install(
        [Site.attr(Child, "inherited")], tracer.wrap(Child.inherited, "Child.inherited")
    )
    assert mod.inner is not originals["inner"]
    assert "inherited" in vars(Child)
    assert Child().inherited() == "base" and Child().own(1) == 2
    assert tracer.installed == 3

    assert tracer.restore() == []
    assert mod.inner is originals["inner"]
    assert Child.own is own
    assert "inherited" not in vars(Child)
    assert Site.attr(Child, "inherited").get() is MISSING
    assert tracer.installed == 0


def test_self_time_subtracts_wrapped_children_and_spans_link_parents():
    mod, tracer = _toy_module(), Tracer()
    for name in ("inner", "outer"):
        tracer.install([Site.attr(mod, name)], tracer.wrap(getattr(mod, name), f"toy.{name}"))
    tracer.rep = 4
    assert mod.outer(3) == 12
    tracer.restore()

    assert tracer.call_count("toy.outer") == 1
    assert tracer.call_count("toy.inner") == 2
    outer, first, second = tracer.spans
    assert outer[3] == -1 and first[3] == 0 and second[3] == 0
    assert {span[4] for span in tracer.spans} == {4}
    outer_wall = outer[2] - outer[1]
    children = (first[2] - first[1]) + (second[2] - second[1])
    assert tracer.self_ms("toy.outer") == pytest.approx((outer_wall - children) * 1e3)
    assert tracer.self_ms("toy.inner") == pytest.approx(children * 1e3)
    assert tracer.self_ms("never.called") == 0.0


def test_span_survives_an_exception():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap(boom, "boom")
    with pytest.raises(KeyError):
        wrapped()
    assert tracer.call_count("boom") == 1 and tracer.spans[0] is not None
    assert tracer._open == []


def test_count_hook_adds_work_units():
    tracer = Tracer()
    wrapped = tracer.wrap(lambda xs: len(xs), "f", count=("units", lambda a, k: len(a[0])))
    wrapped([1, 2, 3])
    wrapped([4])
    assert tracer.counts["units"] == 4


def test_layers_wrap_reimported_names_and_restore_them_all():
    import repro
    import repro.core.grow
    import repro.core.merge_phase
    import repro.core.primitives as primitives
    import repro.core.pull_phase
    import repro.core.square
    from repro.registry import get_algorithm

    importers = [
        sys.modules[f"repro.core.{m}"] for m in ("grow", "square", "merge_phase", "pull_phase")
    ]
    before = {
        (mod.__name__, attr): value
        for mod in [primitives, repro, *importers]
        for attr, value in vars(mod).items()
        if callable(value)
    }
    runner = get_algorithm("push-pull").batch_runner_for("broadcast")
    members_of = repro.Clustering.members_of

    tracer = Tracer()
    layers.install(tracer)
    try:
        assert repro.core.grow.grow_push_round is primitives.grow_push_round
        assert repro.core.grow.grow_push_round is not before[("repro.core.grow", "grow_push_round")]
        assert repro.core.square.cluster_resize is not before[("repro.core.square", "cluster_resize")]
        assert repro.core.merge_phase.cluster_merge is not before[("repro.core.merge_phase", "cluster_merge")]
        assert repro.core.pull_phase.cluster_size is not before[("repro.core.pull_phase", "cluster_size")]
        assert repro.run_replications is not before[("repro", "run_replications")]
        assert get_algorithm("push-pull").batch_runner_for("broadcast") is not runner
        traced = repro.broadcast(512, "cluster2", seed=3)
    finally:
        unrestored = tracer.restore()

    assert unrestored == []
    after = {
        (mod.__name__, attr): value
        for mod in [primitives, repro, *importers]
        for attr, value in vars(mod).items()
        if callable(value)
    }
    assert after == before
    assert get_algorithm("push-pull").batch_runner_for("broadcast") is runner
    assert repro.Clustering.members_of is members_of
    assert tracer.call_count("core.primitives.cluster_resize") > 0
    assert tracer.call_count("core.clustering.Clustering.members_of") > 0

    untraced = repro.broadcast(512, "cluster2", seed=3)
    assert (traced.rounds, traced.messages, traced.bits) == (
        untraced.rounds,
        untraced.messages,
        untraced.bits,
    )


def test_every_per_layer_self_time_names_a_traced_span():
    import json
    import os

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    traced = {f"{name}.self_ms" for name in layers.self_ms_names()}
    wanted = {m["name"] for m in spec["per_layer"] if m["name"].endswith(".self_ms")}
    assert wanted <= traced
