"""The batched event tier (repro.sim.schedule.BatchClockOverlay).

The contract under test: ``run_replications(engine="vector",
scheduler=event)`` runs the event tier *on* the (R, n) executors — a
per-rep clock overlay folds every round's contacts into completion
times, so ``sim_time`` streams into the summary without leaving the
scale tier.  The overlay draws only from its own delay streams, so the
batch's rounds/messages/bits stay bit-identical with the overlay on or
off; ``sim_time`` itself is *statistically* equivalent to the
sequential event scheduler (the batched executors are never
stream-identical with the sequential engines).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.broadcast import run_replications
from repro.sim.rng import derive_seed, make_rng
from repro.sim.schedule import (
    BatchClockOverlay,
    EventSchedulerSpec,
    make_batch_overlay,
)
from repro.sim.topology import (
    CompleteGraph,
    ConstantDelay,
    EdgeWeightedDelay,
    NodeSlowdownDelay,
    RandomRegular,
    RateLimitedEdgeDelay,
    Ring,
    Torus2D,
    UniformJitterDelay,
    resolve_topology,
)

#: One entry per delay model: (scheduler spec or name, topology or None).
#: The per-edge models need a bound graph, so they ride a sparse
#: random-regular overlay; the per-node models run on the complete graph.
DELAY_CONFIGS = {
    "constant": (EventSchedulerSpec(delay=ConstantDelay(1.0)), None),
    "jitter": (EventSchedulerSpec(delay=UniformJitterDelay(low=0.5, high=1.5)), None),
    "straggler": (
        EventSchedulerSpec(delay=NodeSlowdownDelay(base=1.0, fraction=0.1, factor=5.0)),
        None,
    ),
    "edge-weighted": (
        "event",
        RandomRegular(d=8, delay=EdgeWeightedDelay(scale=1.0, sigma=1.0)),
    ),
    "rate-limited": (
        "event",
        RandomRegular(d=8, delay=RateLimitedEdgeDelay(base=1.0, fraction=0.1, factor=10.0)),
    ),
}


def _non_time_rows(summary) -> dict:
    return {k: v for k, v in summary.row().items() if not k.startswith("sim_time")}


# ----------------------------------------------------------------------
# sim_time agreement with the sequential event scheduler
# ----------------------------------------------------------------------


#: Family-wise false-alarm rate of the agreement test, split evenly
#: (Bonferroni) over the five delay models.
KS_ALPHA = 0.01
KS_REPS = 64


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov–Smirnov statistic ``sup |F_a - F_b|``."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def _ks_critical(m: int, k: int, alpha: float) -> float:
    """Asymptotic two-sample KS rejection threshold at level ``alpha``
    (conservative under the ties of the discrete delay models)."""
    return float(np.sqrt(-np.log(alpha / 2) / 2) * np.sqrt((m + k) / (m * k)))


def _sim_times(engine: str, scheduler, topology, reps: int = KS_REPS) -> np.ndarray:
    """Per-rep ``sim_time`` of push-pull at n=128, streamed via ``consume``."""
    out = []
    run_replications(
        128,
        "push-pull",
        reps=reps,
        base_seed=11,
        engine=engine,
        scheduler=scheduler,
        topology=topology,
        consume=lambda rec: out.append(rec["sim_time"]),
    )
    assert len(out) == reps
    return np.asarray(out)


def _distributions_differ(a: np.ndarray, b: np.ndarray) -> bool:
    alpha = KS_ALPHA / len(DELAY_CONFIGS)
    return _ks_distance(a, b) > _ks_critical(len(a), len(b), alpha)


class TestSimTimeAgreement:
    @pytest.mark.parametrize("name", sorted(DELAY_CONFIGS))
    def test_vector_matches_sequential_statistically(self, name):
        # Two-sample KS over per-rep sim_time, Bonferroni over the five
        # models; the seeds are fixed, so the verdict never flakes.
        scheduler, topology = DELAY_CONFIGS[name]
        seq = _sim_times("reset", scheduler, topology)
        vec = _sim_times("vector", scheduler, topology)
        assert not _distributions_differ(seq, vec)

    @pytest.mark.parametrize(
        "planted",
        [
            EventSchedulerSpec(
                delay=NodeSlowdownDelay(base=1.0, fraction=0.1, factor=6.0)
            ),
            EventSchedulerSpec(delay=UniformJitterDelay(low=0.55, high=1.65)),
        ],
        ids=["straggler-factor-6", "jitter-shifted-10pct"],
    )
    def test_agreement_test_flags_a_planted_shift(self, planted):
        # The vector run times a perturbed model (straggler factor 5 ->
        # 6, jitter bounds +10%) against the sequential reference.
        scheduler, topology = DELAY_CONFIGS[planted.delay.name]
        seq = _sim_times("reset", scheduler, topology)
        vec = _sim_times("vector", planted, topology)
        assert _distributions_differ(seq, vec)

    def test_constant_delay_equals_sequential_exactly(self):
        kwargs = dict(reps=8, base_seed=3, scheduler="event")
        seq = run_replications(128, "push-pull", engine="reset", **kwargs)
        vec = run_replications(128, "push-pull", engine="vector", **kwargs)
        a, b = seq.metrics["sim_time"], vec.metrics["sim_time"]
        assert a.mean == b.mean and a.maximum == b.maximum


# ----------------------------------------------------------------------
# the overlay never touches the batch's own randomness
# ----------------------------------------------------------------------


class TestOverlayIsPure:
    @pytest.mark.parametrize(
        "algorithm,task",
        [
            ("push-pull", "broadcast"),
            ("push-pull", "push-sum"),
            ("push-pull", "k-rumor"),
            ("push-pull", "min-max"),
            ("cluster1", "broadcast"),
            ("cluster2", "broadcast"),
        ],
    )
    def test_zero_latency_is_bit_identical_to_round_tier(self, algorithm, task):
        kwargs = dict(reps=6, base_seed=5, engine="vector", task=task)
        plain = run_replications(128, algorithm, **kwargs)
        timed = run_replications(
            128,
            algorithm,
            scheduler=EventSchedulerSpec(delay=ConstantDelay(0.0)),
            **kwargs,
        )
        assert _non_time_rows(plain) == _non_time_rows(timed)

    def test_nonzero_latency_keeps_logical_metrics(self):
        kwargs = dict(reps=6, base_seed=5, engine="vector")
        plain = run_replications(128, "push-pull", **kwargs)
        timed = run_replications(
            128,
            "push-pull",
            scheduler=EventSchedulerSpec(
                delay=UniformJitterDelay(low=0.5, high=1.5)
            ),
            **kwargs,
        )
        assert _non_time_rows(plain) == _non_time_rows(timed)
        assert timed.metrics["sim_time"].mean > 0


# ----------------------------------------------------------------------
# sharding: worker-count invariance
# ----------------------------------------------------------------------


class TestSharding:
    @pytest.mark.parametrize(
        "algorithm,task", [("cluster2", "broadcast"), ("push-pull", "push-sum")]
    )
    def test_workers_do_not_move_sim_time(self, algorithm, task):
        spec = EventSchedulerSpec(
            delay=NodeSlowdownDelay(base=1.0, fraction=0.05, factor=8.0)
        )
        kwargs = dict(
            reps=10,
            base_seed=7,
            engine="vector",
            scheduler=spec,
            task=task,
            batch_elems=256 * 4,  # forces several chunks/shards
        )
        one = run_replications(256, algorithm, workers=1, **kwargs)
        two = run_replications(256, algorithm, workers=2, **kwargs)
        assert one.row() == two.row()


# ----------------------------------------------------------------------
# engine selection and the config-error contract
# ----------------------------------------------------------------------


class TestEngineSelection:
    def test_auto_selects_vector_for_batchable_event_runs(self):
        summary = run_replications(
            128, "push-pull", reps=4, base_seed=1, engine="auto", scheduler="event"
        )
        assert summary.engine == "vector"
        assert "engine_fallback" not in summary.extras
        assert "sim_time" in summary.metrics

    def test_auto_records_the_fallback_reason(self):
        summary = run_replications(
            128,
            "push-pull",
            reps=2,
            base_seed=1,
            engine="auto",
            scheduler="event",
            trace=True,
        )
        assert summary.engine == "reset"
        assert "sequential" in summary.extras["engine_fallback"]

    def test_vector_with_trace_raises_one_line(self):
        with pytest.raises(ValueError, match="scheduler=event"):
            run_replications(
                128,
                "push-pull",
                reps=2,
                engine="vector",
                scheduler="event",
                trace=True,
            )

    def test_cli_exits_2_on_unbatchable_event_vector(self, capsys, tmp_path):
        rc = main(
            [
                "run",
                "--n",
                "256",
                "--algorithm",
                "push-pull",
                "--reps",
                "2",
                "--engine",
                "vector",
                "--scheduler",
                "event",
                "--trace",
                str(tmp_path / "trace.jsonl"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_cli_event_vector_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "run.json"
        rc = main(
            [
                "run",
                "--n",
                "256",
                "--algorithm",
                "push-pull",
                "--reps",
                "3",
                "--engine",
                "vector",
                "--scheduler",
                "event",
                "--json",
                str(path),
            ]
        )
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["engine"] == "vector"
        assert payload["summary"]["sim_time_mean"] > 0


# ----------------------------------------------------------------------
# the batched delay samplers
# ----------------------------------------------------------------------


def _overlay_for(model_name: str, n: int, reps: int, base_seed: int):
    scheduler, topology = DELAY_CONFIGS[model_name]
    spec = (
        scheduler
        if isinstance(scheduler, EventSchedulerSpec)
        else EventSchedulerSpec()
    )
    resolved = resolve_topology(topology)
    graph = (
        None
        if resolved.complete
        else resolved.bind(n, make_rng(derive_seed(base_seed, "net")))
    )
    return make_batch_overlay(
        spec, resolved, n, reps, graph, base_seed=base_seed, first_rep=0
    )


class TestBatchedSamplers:
    @settings(max_examples=20, deadline=None)
    @given(
        model=st.sampled_from(sorted(DELAY_CONFIGS)),
        base_seed=st.integers(min_value=0, max_value=2**31),
        contacts=st.integers(min_value=1, max_value=64),
    )
    def test_draws_are_nonnegative_finite_and_seed_deterministic(
        self, model, base_seed, contacts
    ):
        n, reps = 32, 3
        rng = np.random.default_rng(base_seed)
        rows = rng.integers(0, reps, size=contacts)
        srcs = rng.integers(0, n, size=contacts)
        dsts = rng.integers(0, n, size=contacts)

        def draw():
            overlay = _overlay_for(model, n, reps, base_seed)
            overlay.fold(rows * n + srcs, rows * n + dsts)
            return overlay.sim_time.copy()

        first, second = draw(), draw()
        assert np.isfinite(first).all()
        assert (first >= 0).all()
        # Same seed, same construction order -> identical draws.
        np.testing.assert_array_equal(first, second)

    def test_overlay_matches_sequential_per_rep_streams(self):
        # Rep r of a vector chunk at first_rep=f draws its node-slowdown
        # mask from derive_seed(base_seed + f + r, "delay") — the
        # sequential bind's stream for seed base_seed + f + r.
        n, base_seed = 64, 9
        model = NodeSlowdownDelay(base=1.0, fraction=0.25, factor=4.0)
        overlay = make_batch_overlay(
            EventSchedulerSpec(delay=model),
            resolve_topology(None),
            n,
            3,
            None,
            base_seed=base_seed,
            first_rep=2,
        )
        slow = overlay._delay._slow
        for i in range(3):
            rep_rng = make_rng(derive_seed(base_seed + 2 + i, "delay"))
            expected = rep_rng.random(n) < model.fraction
            if not expected.any():
                expected[int(rep_rng.integers(0, n))] = True
            np.testing.assert_array_equal(slow[i], expected)


# ----------------------------------------------------------------------
# the overlay itself
# ----------------------------------------------------------------------


class TestBatchClockOverlay:
    def test_constant_fast_path_equals_general_fold(self):
        n, reps = 8, 4
        fast = make_batch_overlay(
            EventSchedulerSpec(delay=ConstantDelay(2.0)),
            resolve_topology(None),
            n,
            reps,
            None,
            base_seed=1,
            first_rep=0,
        )
        slow = make_batch_overlay(
            EventSchedulerSpec(delay=ConstantDelay(2.0)),
            resolve_topology(None),
            n,
            reps,
            None,
            base_seed=1,
            first_rep=0,
        )
        slow._materialise()  # force the general (R, n) fold path
        rng = np.random.default_rng(0)
        for _ in range(3):
            targets = rng.integers(0, n, size=(reps, n))
            act = np.arange(reps)
            fast.full_round(act, targets)
            slow.full_round(act, targets)
        np.testing.assert_array_equal(fast.sim_time, slow.sim_time)

    def test_idle_reps_take_no_time(self):
        overlay = make_batch_overlay(
            EventSchedulerSpec(delay=ConstantDelay(1.0)),
            resolve_topology(None),
            4,
            3,
            None,
            base_seed=0,
            first_rep=0,
        )
        targets = np.zeros((1, 4), dtype=np.int64)
        overlay.full_round(np.array([1]), targets)  # only rep 1 acts
        assert overlay.sim_time.tolist() == [0.0, 1.0, 0.0]

    def test_zero_delay_folds_nothing(self):
        overlay = make_batch_overlay(
            EventSchedulerSpec(delay=ConstantDelay(0.0)),
            resolve_topology(None),
            4,
            2,
            None,
            base_seed=0,
            first_rep=0,
        )
        overlay.full_round(np.arange(2), np.zeros((2, 4), dtype=np.int64))
        assert overlay.zero
        assert overlay.sim_time.tolist() == [0.0, 0.0]


# ----------------------------------------------------------------------
# the flat-key fold: R rows at once == R one-row folds
# ----------------------------------------------------------------------

#: The deterministic delay models (no per-message draws), bound on a
#: ring so the per-edge models see both on-graph and off-graph contacts.
DETERMINISTIC_MODELS = {
    "constant": ConstantDelay(2.0),
    "straggler": NodeSlowdownDelay(base=1.0, fraction=0.25, factor=4.0),
    "wan": EdgeWeightedDelay(scale=1.0, sigma=1.0),
    "rate-limited": RateLimitedEdgeDelay(base=1.0, fraction=0.3, factor=5.0),
}


def _bound_overlay(model, n, graph, seeds):
    """An overlay with one row per seed, each row's fabric from its seed."""
    rep_rngs = [make_rng(seed) for seed in seeds]
    bound = model.bind(n, len(seeds), graph, rep_rngs, make_rng(0))
    return BatchClockOverlay(bound, make_rng(0), len(seeds), n, model=model)


def _round_contacts(rng, n, count):
    """One row's contacts: ring neighbours, random nodes and void -1
    destinations, each delivered or not at random."""
    srcs = rng.integers(0, n, size=count)
    kind = rng.integers(0, 3, size=count)
    dsts = np.where(
        kind == 0,
        (srcs + rng.choice([-1, 1], size=count)) % n,
        np.where(kind == 1, rng.integers(0, n, size=count), -1),
    )
    return srcs, dsts, rng.random(count) < 0.7


class TestFlatKeyFold:
    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(sorted(DETERMINISTIC_MODELS)),
        n=st.integers(min_value=3, max_value=24),
        reps=st.integers(min_value=1, max_value=4),
        rounds=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_batched_fold_equals_per_row_folds(self, model, n, reps, rounds, seed):
        model = DETERMINISTIC_MODELS[model]
        graph = Ring(k=1).bind(n, make_rng(seed)) if model.requires_graph else None
        seeds = [seed + 1 + r for r in range(reps)]
        batched = _bound_overlay(model, n, graph, seeds)
        single = [_bound_overlay(model, n, graph, [s]) for s in seeds]
        rng = np.random.default_rng(seed)
        for _ in range(rounds):
            keys, dst_keys, arrived = [], [], []
            for r, overlay in enumerate(single):
                srcs, dsts, got = _round_contacts(rng, n, int(rng.integers(1, 2 * n)))
                overlay.fold(srcs, dsts, got)  # one row: keys are node ids
                row = np.full(len(srcs), r)
                keys.append(batched.keys(row, srcs))
                dst_keys.append(batched.keys(row, dsts))
                arrived.append(got)
            # Interleave the rows: a fold is order-free within a round.
            order = rng.permutation(sum(len(k) for k in keys))
            batched.fold(
                np.concatenate(keys)[order],
                np.concatenate(dst_keys)[order],
                np.concatenate(arrived)[order],
            )
            clocks = batched.clocks()
            for r, overlay in enumerate(single):
                np.testing.assert_array_equal(clocks[r], overlay.clocks()[0])
            np.testing.assert_array_equal(
                batched.sim_time, [o.sim_time[0] for o in single]
            )


# ----------------------------------------------------------------------
# diameter hints and the horizon-bounded event queue
# ----------------------------------------------------------------------


class TestDiameterHints:
    def test_hints_scale_with_the_topology(self):
        assert CompleteGraph().diameter_hint(2**10) == 10
        assert Ring(k=4).diameter_hint(2**9) == 64  # ceil(n / 2k)
        assert Torus2D().diameter_hint(64 * 64) == 64  # rows/2 + cols/2
        hint = RandomRegular(d=8).diameter_hint(2**12)
        assert 1 <= hint <= 12  # O(log n / log(d-1)) + slack
        # A 2-regular "ring in disguise" cannot pretend to be shallow.
        assert RandomRegular(d=2).diameter_hint(100) == 50

    def test_hint_is_monotone_in_n(self):
        for topo in (CompleteGraph(), Ring(k=2), RandomRegular(d=8)):
            hints = [topo.diameter_hint(n) for n in (2**6, 2**9, 2**12)]
            assert hints == sorted(hints)

    def test_ring_presets_derive_round_budget_from_hint(self):
        from repro.workloads.scenarios import SCENARIOS, _diameter_round_budget

        for name in ("ring-broadcast", "rate-limited-edge"):
            cfg = SCENARIOS[name].config
            assert cfg.algorithm_kwargs["max_rounds"] == _diameter_round_budget(
                Ring(k=4), cfg.n
            )
            # Exactly the historical hand-tuned budget, now derived.
            assert cfg.algorithm_kwargs["max_rounds"] == 200
