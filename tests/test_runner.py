"""Tests for the experiment sweep runner."""

from repro.analysis.runner import (
    RunRecord,
    RunSpec,
    aggregate,
    execute,
    expand_grid,
    run_once,
    series,
    sweep,
    sweep_reports,
)
from repro.core.broadcast import RunConfig


class TestRunOnce:
    def test_record_fields(self):
        rec = run_once("push", 256, 0)
        assert rec.algorithm == "push"
        assert rec.n == 256
        assert rec.success
        assert rec.spread_rounds <= rec.rounds
        assert rec.messages_per_node == rec.messages / 256

    def test_extras_flattened(self):
        rec = run_once("avin-elsasser", 256, 0)
        assert isinstance(rec.extras.get("message_capacity"), int)

    def test_failures_forwarded(self):
        rec = run_once("cluster2", 1024, 0, failures=64)
        assert 0.0 <= rec.informed_fraction <= 1.0

    def test_source_forwarded(self):
        # source routes into the RunSpec field, not algorithm kwargs
        # (source=None worked in v1.0's run_once and must keep working)
        rec = run_once("push", 256, 3, source=None)
        assert rec == run_once("push", 256, 3, source=None)
        assert sweep(["push"], [256], [0], source=None)[0].success


class TestSweep:
    def test_grid_size(self):
        records = sweep(["push", "pull"], [256, 512], [0, 1, 2])
        assert len(records) == 12

    def test_progress_callback(self):
        seen = []
        sweep(["push"], [256], [0], progress=seen.append)
        assert len(seen) == 1 and "push" in seen[0]

    def test_deterministic(self):
        a = sweep(["push"], [256], [0, 1])
        b = sweep(["push"], [256], [0, 1])
        assert [r.messages for r in a] == [r.messages for r in b]


class TestExecutor:
    def test_expand_grid_order(self):
        specs = expand_grid(["push", "pull"], [256, 512], [0, 1])
        assert len(specs) == 8
        # algorithm-major, then n, then seed — the historical loop order
        assert [(s.config.algorithm, s.config.n, s.seed) for s in specs[:3]] == [
            ("push", 256, 0),
            ("push", 256, 1),
            ("push", 512, 0),
        ]

    def test_specs_carry_knobs(self):
        (spec,) = expand_grid(["cluster3"], [4096], [0], delta=256)
        assert spec.config.algorithm_kwargs == {"delta": 256}
        rec = execute([spec])[0]
        assert rec.extras["delta"] == 256

    def test_parallel_records_identical_to_serial(self):
        grid = (["push", "pull", "cluster2"], [256, 512], [0, 1])
        serial = sweep(*grid, workers=1)
        parallel = sweep(*grid, workers=2)
        assert serial == parallel

    def test_parallel_progress_covers_all_jobs(self):
        seen = []
        sweep(["push"], [256], [0, 1, 2], workers=2, progress=seen.append)
        assert len(seen) == 3

    def test_workers_auto(self):
        # workers=0 means one per core; records stay identical
        assert sweep(["push"], [256], [0], workers=0) == sweep(
            ["push"], [256], [0], workers=1
        )

    def test_sweep_reports_full_shape(self):
        specs = [
            RunSpec(RunConfig(1024, "cluster2", failures=64), seed=s)
            for s in (0, 1)
        ]
        reports = sweep_reports(specs, workers=2)
        assert [r.extras["seed"] for r in reports] == [0, 1]
        for report in reports:
            assert report.uninformed_survivors >= 0
            assert report.metrics.rounds == report.rounds

    def test_source_none_forwarded(self):
        spec = RunSpec(RunConfig(256, "push", source=None), seed=3)
        a, b = execute([spec, spec], workers=2)
        assert a == b  # random source derives from the spec's seed


class TestAggregate:
    def test_groups_by_algo_and_n(self):
        records = sweep(["push"], [256, 512], [0, 1, 2])
        rows = aggregate(records)
        assert len(rows) == 2
        assert all(row.runs == 3 for row in rows)

    def test_success_rate(self):
        records = sweep(["push"], [512], [0, 1])
        rows = aggregate(records)
        assert rows[0].success_rate == 1.0

    def test_series_extraction(self):
        # several seeds: single-run round counts at adjacent small n are
        # within each other's noise, mean spread is what grows with n
        records = sweep(["push"], [256, 1024, 4096], [0, 1, 2, 3])
        rows = aggregate(records)
        ns, ys = series(rows, "push", "spread_rounds")
        assert ns == [256, 1024, 4096]
        assert ys == sorted(ys)  # spread grows with n

    def test_series_missing_algo_empty(self):
        rows = aggregate(sweep(["push"], [256], [0]))
        ns, ys = series(rows, "pull")
        assert ns == [] and ys == []
