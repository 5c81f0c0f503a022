"""Fleet simulator semantics: routing, conservation, rollups, guards."""

import pytest

from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSchedule, TransientFaults
from repro.fleet import simulate_fleet
from repro.fleet.router import FleetRouter
from repro.telemetry import Telemetry

FAST = dict(
    model="opt-6.7b",
    host="CXL-ASIC",
    placement="helm",
    arrival="poisson",
    rate_rps=1.0,
    num_requests=16,
    seed=5,
    max_batch=4,
)


class TestFleetRun:
    def test_requests_conserved_across_replicas(self):
        fleet = simulate_fleet(replicas=3, **FAST)
        summary = fleet.summary()
        assert summary["completed"] + summary["shed_requests"] == 16
        assert sum(summary["per_replica_routed"]) == 16
        assert len(fleet.assignments) == 16

    def test_assignments_match_replica_records(self):
        fleet = simulate_fleet(replicas=2, router="round-robin", **FAST)
        for replica in fleet.replicas:
            for record in replica.result.records:
                assert fleet.assignments[record.request_id] == replica.index

    def test_round_robin_splits_evenly(self):
        fleet = simulate_fleet(replicas=2, router="round-robin", **FAST)
        assert fleet.summary()["per_replica_routed"] == [8, 8]

    def test_records_are_globally_sorted(self):
        fleet = simulate_fleet(replicas=3, **FAST)
        keys = [(r.arrival_s, r.request_id) for r in fleet.records]
        assert keys == sorted(keys)

    def test_registry_labels_every_replica(self):
        telemetry = Telemetry.create()
        fleet = simulate_fleet(replicas=2, telemetry=telemetry, **FAST)
        labels = {
            entry["labels"].get("replica")
            for section in fleet.registry.snapshot().values()
            for entry in section
        }
        assert labels == {"0", "1"}
        # The caller's registry received the same fold.
        caller_labels = {
            entry["labels"].get("replica")
            for section in telemetry.registry.snapshot().values()
            for entry in section
        }
        assert caller_labels == {"0", "1"}

    def test_growing_the_fleet_reroutes_the_same_stream(self):
        """The arrival draws are sampled once; fleet size only changes
        who serves each request, never what arrives."""
        one = simulate_fleet(replicas=1, **FAST)
        three = simulate_fleet(replicas=3, **FAST)
        def arrivals(fleet):
            return [
                (r.request_id, r.arrival_s, r.prompt_len, r.gen_len)
                for r in fleet.records
            ]
        assert arrivals(one) == arrivals(three)

    def test_prefix_groups_tag_the_stream(self):
        fleet = simulate_fleet(
            replicas=2,
            router="prefix-affinity",
            prefix_groups=4,
            prefix_len=64,
            prefix_cache_size=2,
            **FAST,
        )
        for replica in fleet.replicas:
            cache = replica.result.setup.get("prefix_cache")
            assert cache is not None
            assert cache["capacity"] == 2


class TestGuards:
    def test_zero_replicas_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_fleet(replicas=0, **FAST)

    def test_shared_injector_instance_rejected_for_fleets(self):
        schedule = FaultSchedule(
            faults=(TransientFaults(target="host", probability=0.01),)
        )
        injector = FaultInjector(schedule, seed=1)
        with pytest.raises(ConfigurationError, match="couple replica RNG"):
            simulate_fleet(replicas=2, faults=injector, **FAST)

    def test_schedule_is_fine_for_fleets(self):
        schedule = FaultSchedule(
            faults=(TransientFaults(target="host", probability=0.01),)
        )
        fleet = simulate_fleet(
            replicas=2, faults=schedule, fault_seed=9, **FAST
        )
        assert fleet.summary()["faults"] == "schedule"
        assert fleet.summary()["fault_seed"] == 9

    def test_shared_sanitizer_object_rejected_for_fleets(self):
        class FakeSanitizer:
            pass

        with pytest.raises(ConfigurationError, match="sanitizer"):
            simulate_fleet(replicas=2, sanitize=FakeSanitizer(), **FAST)

    def test_iteration_fault_pricing_needs_event_backend(self):
        with pytest.raises(ConfigurationError, match="event"):
            simulate_fleet(
                replicas=2, iteration_fault_pricing=True, **FAST
            )

    def test_out_of_range_router_index_rejected(self):
        class BrokenRouter(FleetRouter):
            name = "broken"

            def route(self, spec, replicas):
                return len(replicas)

        with pytest.raises(ConfigurationError, match="returned replica"):
            simulate_fleet(replicas=2, router=BrokenRouter(), **FAST)


class TestShardedFleet:
    def test_tp_fleet_serves_and_reports_degrees(self):
        fleet = simulate_fleet(replicas=2, tensor_parallel=2, **FAST)
        summary = fleet.summary()
        assert summary["tensor_parallel"] == 2
        assert summary["completed"] + summary["shed_requests"] == 16

    def test_degree_one_summary_omits_shard_keys(self):
        fleet = simulate_fleet(replicas=2, **FAST)
        assert "tensor_parallel" not in fleet.summary()
        assert "pipeline_parallel" not in fleet.summary()
