"""Unit tests for the Clustering state structure (paper §3.1)."""

import numpy as np
import pytest

from repro.core.clustering import UNCLUSTERED, Clustering, chunk_runs
from repro.sim.network import Network

from helpers import build_sim, manual_clustering


class TestBasics:
    def test_initially_all_unclustered(self):
        sim = build_sim(20)
        cl = Clustering(sim.net)
        assert cl.clustered_count() == 0
        assert cl.cluster_count() == 0
        assert len(cl.unclustered()) == 20

    def test_seed_singletons(self):
        sim = build_sim(20)
        cl = Clustering(sim.net)
        cl.seed_singletons(np.array([2, 5]))
        assert cl.cluster_count() == 2
        assert cl.leader_mask()[2] and cl.leader_mask()[5]
        assert cl.clustered_count() == 2

    def test_seed_skips_dead(self):
        sim = build_sim(20)
        sim.net.fail([2])
        cl = Clustering(sim.net)
        cl.seed_singletons(np.array([2, 5]))
        assert cl.cluster_count() == 1

    def test_masks_partition_alive_nodes(self):
        sim = build_sim(40)
        cl = manual_clustering(sim, 8)
        total = cl.leader_mask().sum() + cl.follower_mask().sum() + cl.unclustered_mask().sum()
        assert total == sim.net.alive_count

    def test_sizes(self):
        sim = build_sim(40)
        cl = manual_clustering(sim, 8)
        sizes = cl.sizes()
        for leader in cl.leaders():
            assert sizes[leader] == 8
        assert sizes[cl.followers()].sum() == 0

    def test_members_of(self):
        sim = build_sim(32)
        cl = manual_clustering(sim, 8)
        members = cl.members_of(8)
        assert sorted(members.tolist()) == list(range(8, 16))

    def test_summary_text(self):
        sim = build_sim(32)
        cl = manual_clustering(sim, 8)
        assert "4 clusters" in cl.summary()
        assert "no clusters" in Clustering(sim.net).summary()


class TestActive:
    def test_active_member_mask(self):
        sim = build_sim(32)
        cl = manual_clustering(sim, 8)
        cl.active[8] = True  # cluster led by 8
        mask = cl.active_member_mask()
        assert mask[8:16].all()
        assert not mask[:8].any() and not mask[16:].any()


class TestDisband:
    def test_disband_unclusters_members(self):
        sim = build_sim(32)
        cl = manual_clustering(sim, 8)
        cl.disband(np.array([0]))
        assert (cl.follow[:8] == UNCLUSTERED).all()
        assert cl.cluster_count() == 3

    def test_disband_empty(self):
        sim = build_sim(16)
        cl = manual_clustering(sim, 4)
        cl.disband(np.array([], dtype=np.int64))
        assert cl.cluster_count() == 4


class TestCompress:
    def test_chain_resolution(self):
        sim = build_sim(16)
        cl = Clustering(sim.net)
        cl.follow[0] = 0
        cl.follow[1] = 0
        cl.follow[2] = 1  # chain 2 -> 1 -> 0
        cl.compress()
        assert cl.follow[2] == 0
        cl.check_invariants()

    def test_cycle_detected(self):
        # A 3-cycle never resolves under pointer jumping (odd permutation
        # cycles square to cycles); compress must give up loudly.
        sim = build_sim(16)
        cl = Clustering(sim.net)
        cl.follow[0] = 1
        cl.follow[1] = 2
        cl.follow[2] = 0
        with pytest.raises(RuntimeError):
            cl.compress()

    def test_two_cycle_degenerates_to_singletons(self):
        # Documented quirk: a 2-cycle's pointer jump makes both nodes
        # self-leaders (harmless — merge rules never create cycles).
        sim = build_sim(16)
        cl = Clustering(sim.net)
        cl.follow[0] = 1
        cl.follow[1] = 0
        cl.compress()
        assert cl.follow[0] == 0 and cl.follow[1] == 1

    def test_chain_to_unclustered_detected(self):
        sim = build_sim(16)
        cl = Clustering(sim.net)
        cl.follow[2] = 1  # 1 is unclustered
        with pytest.raises(RuntimeError):
            cl.compress()


class TestInvariants:
    def test_follower_of_non_leader_caught(self):
        sim = build_sim(16)
        cl = Clustering(sim.net)
        cl.follow[3] = 7  # 7 does not follow itself
        with pytest.raises(AssertionError):
            cl.check_invariants()

    def test_single_cluster_detection(self):
        sim = build_sim(16)
        cl = manual_clustering(sim, 16)
        assert cl.single_cluster() == 0
        cl2 = manual_clustering(sim, 8)
        assert cl2.single_cluster() is None

    def test_dead_nodes_not_counted(self):
        sim = build_sim(16)
        cl = manual_clustering(sim, 4)
        sim.net.fail([1])  # follower of cluster 0
        assert cl.clustered_count() == 15
        assert cl.sizes()[0] == 3


class TestChunkRuns:
    """The segment arithmetic shared by both engines' ClusterResize."""

    def test_empty(self):
        run_id, run_bounds, n_segments = chunk_runs(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert len(run_id) == 0
        assert run_bounds.tolist() == [0]
        assert n_segments == 0

    def test_single_segment(self):
        # 10 members, k = 3: chunk = rank * 3 // 10 -> sizes 4, 3, 3.
        run_id, run_bounds, n_segments = chunk_runs(
            np.full(10, 7), np.full(10, 3)
        )
        assert run_id.tolist() == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert run_bounds.tolist() == [0, 4, 7, 10]
        assert n_segments == 1

    def test_k_equal_to_segment_size(self):
        # Every member becomes its own chunk (and its own leader).
        run_id, run_bounds, n_segments = chunk_runs(
            np.array([2, 2, 2, 5, 5]), np.array([3, 3, 3, 2, 2])
        )
        assert run_id.tolist() == [0, 1, 2, 3, 4]
        assert run_bounds.tolist() == [0, 1, 2, 3, 4, 5]
        assert n_segments == 2

    def test_runs_never_cross_segments(self):
        # Two segments of 5 with k = 2 each: 3 + 2 and 3 + 2.
        run_id, run_bounds, n_segments = chunk_runs(
            np.array([1] * 5 + [4] * 5), np.full(10, 2)
        )
        assert run_id.tolist() == [0, 0, 0, 1, 1, 2, 2, 2, 3, 3]
        assert run_bounds.tolist() == [0, 3, 5, 8, 10]
        assert n_segments == 2
