"""The metric helpers: percentile refusal, per-chunk samples, row_util."""

import numpy as np
import pytest

from sampling import (
    chunk_samples,
    median,
    percentile,
    row_util,
    samples_needed,
    sim_stats,
    tail_count,
)


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(7)
    xs = list(rng.exponential(size=137))
    for q in (50, 90):
        assert percentile(xs, q) == pytest.approx(float(np.percentile(xs, q)), rel=1e-12)


def test_p90_refused_with_fewer_than_ten_samples_beyond_it():
    assert tail_count(100, 90) == 10
    assert tail_count(99, 90) == 9
    percentile(list(range(100)), 90)
    with pytest.raises(ValueError, match="at least 10 samples beyond"):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_samples_needed_is_the_smallest_accepted_count():
    for q in (50, 90, 99):
        n = samples_needed(q)
        percentile(list(range(n)), q)
        with pytest.raises(ValueError):
            percentile(list(range(n - 1)), q)
    assert samples_needed(50) == 20
    assert samples_needed(90) == 100
    assert samples_needed(99) == 1000


def test_vector_chunk_sample_is_chunk_time_over_its_replications():
    # Two chunks of four: every replication of a chunk reaches consume=
    # at the chunk's end.
    stamps = [1.0] * 4 + [3.0] * 4
    assert chunk_samples(stamps, [4, 4], start=0.2) == pytest.approx([0.2, 0.5])


def test_sequential_samples_are_gaps_between_replications():
    assert chunk_samples([0.5, 0.75, 1.5], [1, 1, 1], start=0.0) == pytest.approx(
        [0.5, 0.25, 0.75]
    )


def test_uneven_last_chunk_and_mismatched_plans():
    assert chunk_samples([1.0, 1.0, 1.0, 1.6], [3, 1], start=0.4) == pytest.approx([0.2, 0.6])
    with pytest.raises(ValueError):
        chunk_samples([1.0, 2.0], [1], start=0.0)
    with pytest.raises(ValueError):
        row_util([3, 4], [3])


def test_row_util_counts_rows_idling_behind_the_slowest_replication():
    assert row_util([5, 5, 5, 5], [4]) == 1.0
    # One chunk of two: 2 + 4 useful of 2 * 4 spent.
    assert row_util([2, 4], [2]) == 0.75
    # Chunk-wise, not global: (3+3 + 1+5) / (2*3 + 2*5).
    assert row_util([3, 3, 1, 5], [2, 2]) == pytest.approx(12 / 16)
    assert row_util([7, 2, 9], [1, 1, 1]) == 1.0


def test_sim_stats_picks_the_task_rounds_and_skips_absent_figures():
    rows = [
        {"rounds": 10, "spread_rounds": 8, "messages_per_node": 2.0, "bits_per_node": 4.0},
        {"rounds": 12, "spread_rounds": 9, "messages_per_node": 4.0, "bits_per_node": 8.0},
    ]
    assert sim_stats(rows, None) == {
        "rounds_mean": 8.5,
        "msgs_per_node_mean": 3.0,
        "bits_per_node_mean": 6.0,
    }
    rows = [dict(r, task_error=1e-4, sim_time=5.0) for r in rows]
    stats = sim_stats(rows, "push-sum")
    assert stats["rounds_mean"] == 11.0
    assert stats["task_error_mean"] == pytest.approx(1e-4)
    assert stats["sim_time_mean"] == 5.0


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_benchmark_json_lists_exactly_the_defined_workloads():
    import json
    import os

    from workloads import WORKLOADS

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for wl in WORKLOADS.values():
        assert wl.sim_reps % wl.block_reps == 0
