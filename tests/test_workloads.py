"""Tests for the named workload scenarios."""

import pytest

from repro.workloads.scenarios import (
    SCENARIOS,
    Scenario,
    get_scenario,
    register_scenario,
    run_scenario,
    run_suite,
    scenario_names,
)


class TestScenarioTable:
    def test_all_have_descriptions(self):
        for name, sc in SCENARIOS.items():
            assert sc.name == name
            assert len(sc.description) > 10

    def test_lookup(self):
        assert get_scenario("membership-update").config.algorithm == "cluster2"
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("nope")


class TestScenarioRuns:
    def test_membership_update(self):
        report = run_scenario("membership-update", seed=0, n=2048)
        assert report.success

    def test_failure_storm_tolerates(self):
        report = run_scenario("failure-storm", seed=0, n=2048, failures=200)
        assert report.informed_fraction >= 0.97

    def test_bounded_fanin(self):
        report = run_scenario("bounded-fanin-datacenter", seed=0, n=2048, delta=128)
        assert report.max_fanin <= 128
        assert report.success

    def test_config_fanout_payload_dominates(self):
        report = run_scenario("config-fanout", seed=0, n=1024)
        assert report.success
        # the 8 KiB payload dominates the bit count: >= half the bits are
        # rumor transfers
        assert report.bits >= 1024 * 8 * 8192 / 2

    def test_overrides_apply(self):
        report = run_scenario("low-latency-smalljob", seed=0, n=512)
        assert report.n == 512


class TestRegistryValidation:
    def test_unknown_algorithm_rejected_at_definition(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            Scenario(
                name="bogus",
                description="scenario with a typo'd algorithm",
                n=256,
                algorithm="clutser2",
                message_bits=64,
            )

    def test_undeclared_knob_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            Scenario(
                name="bogus",
                description="cluster2 has no delta knob",
                n=256,
                algorithm="cluster2",
                message_bits=64,
                delta=64,
            )

    def test_non_broadcast_algorithm_rejected(self):
        with pytest.raises(ValueError, match="not a broadcast algorithm"):
            Scenario(
                name="bogus",
                description="discovery protocols are not scenarios",
                n=256,
                algorithm="name-dropper",
                message_bits=64,
            )

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(SCENARIOS["membership-update"])


class TestSuite:
    def test_runs_whole_catalogue_order(self):
        results = run_suite(seeds=[0])
        # The default catalogue sweep excludes the heavy scale-tier
        # presets (those run by name through the replication layer).
        assert [cell.scenario for cell in results] == scenario_names(
            include_heavy=False
        )
        assert "planet-scale" in scenario_names()
        for cell in results:
            assert cell.record.informed_fraction > 0.9

    def test_parallel_identical_to_serial(self):
        names = ["low-latency-smalljob"]
        serial = run_suite(names, seeds=[0, 1], workers=1)
        parallel = run_suite(names, seeds=[0, 1], workers=2)
        assert serial == parallel

    def test_run_spec_round_trip(self):
        sc = get_scenario("bounded-fanin-datacenter")
        spec = sc.run_spec(seed=5)
        assert spec.config.algorithm == "cluster3"
        assert spec.config.algorithm_kwargs == {"delta": 128}
        assert spec.seed == 5
