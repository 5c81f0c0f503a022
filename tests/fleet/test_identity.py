"""The refactor's inertness guard: a 1-replica, degree-1 fleet IS
``simulate_serving`` — summary, records, shed list, and telemetry
snapshot all compare equal, across models and placements.

This is the machine check behind the multi-layer refactor: the fleet
wiring (SchedulerDrive, Replica, FleetSimulator) must collapse to the
single-engine object graph when nothing is actually fleet-shaped.
"""

import pytest

from repro.faults.models import DegradationWindow, FaultSchedule, LinkOutage
from repro.fleet import simulate_fleet
from repro.serve.resilience import ResiliencePolicy
from repro.serve.simulator import simulate_serving
from repro.telemetry import Telemetry

HOST = "CXL-ASIC"


def run_both(**kwargs):
    """Run simulate_serving and a 1-replica fleet on identical knobs;
    their span trees must already agree."""
    solo_telemetry = Telemetry.create()
    fleet_telemetry = Telemetry.create()
    solo = simulate_serving(telemetry=solo_telemetry, **kwargs)
    fleet = simulate_fleet(telemetry=fleet_telemetry, replicas=1, **kwargs)
    assert (
        fleet_telemetry.tracer.to_dicts() == solo_telemetry.tracer.to_dicts()
    )
    return solo, solo_telemetry, fleet, fleet_telemetry


@pytest.mark.parametrize("model", ["opt-6.7b", "opt-13b"])
@pytest.mark.parametrize("placement", ["helm", "baseline"])
def test_single_replica_fleet_is_simulate_serving(model, placement):
    solo, solo_tel, fleet, fleet_tel = run_both(
        model=model,
        host=HOST,
        placement=placement,
        arrival="poisson",
        rate_rps=0.5,
        num_requests=12,
        seed=7,
        max_batch=8,
    )
    replica = fleet.replicas[0].result
    assert replica.summary() == solo.summary()
    assert replica.records == solo.records
    assert replica.shed == solo.shed
    assert fleet_tel.registry.snapshot() == solo_tel.registry.snapshot()


def test_identity_survives_the_full_stack():
    """Faults + KV policy + sanitizer + SLO observer + bursty arrivals
    all thread through the replica unchanged: the scheduler's one-pass
    ``run`` and the fleet's incremental drive agree with every
    optional component in the loop."""
    schedule = FaultSchedule(
        faults=(
            DegradationWindow(
                target="host", slowdown=1.5, start_s=2.0, duration_s=18.0
            ),
        )
    )
    solo, solo_tel, fleet, fleet_tel = run_both(
        model="opt-6.7b",
        host="NVDRAM",
        placement="baseline",
        arrival="bursty",
        rate_rps=0.4,
        burst_rate_rps=2.0,
        num_requests=10,
        seed=11,
        max_batch=4,
        faults=schedule,
        fault_seed=5,
        kv_policy="hotness",
        sanitize=True,
        slo=True,
    )
    replica = fleet.replicas[0].result
    assert replica.summary() == solo.summary()
    assert replica.records == solo.records
    assert "slo" in solo.setup
    assert fleet_tel.registry.snapshot() == solo_tel.registry.snapshot()


def test_fleet_summary_adds_only_fleet_keys():
    solo, _, fleet, _ = run_both(
        model="opt-6.7b",
        host=HOST,
        placement="helm",
        rate_rps=0.5,
        num_requests=8,
        seed=1,
        max_batch=4,
    )
    summary = fleet.summary()
    assert summary["replicas"] == 1
    assert summary["router"] == "round-robin"
    # The single replica serves the whole stream.
    assert summary["completed"] == len(solo.records)
    assert fleet.records == solo.records


#: A host link that goes down at 5 s and never returns: every replica
#: stalls out its budget and aborts while arrivals keep coming.
PERMANENT_OUTAGE = dict(
    model="opt-6.7b",
    host=HOST,
    placement="helm",
    rate_rps=0.005,
    num_requests=30,
    seed=1,
    max_batch=4,
    faults=FaultSchedule(faults=(LinkOutage(target="host", start_s=5.0),)),
)


def test_aborted_replica_sheds_later_arrivals_like_simulate_serving():
    """After a permanent-outage abort, arrivals still routed to the
    replica are shed as ``outage`` exactly as the one-pass run sheds
    its unabsorbed tail."""
    solo, solo_tel, fleet, fleet_tel = run_both(**PERMANENT_OUTAGE)
    replica = fleet.replicas[0].result
    assert replica.summary() == solo.summary()
    assert replica.records == solo.records
    assert replica.shed == solo.shed
    assert {shed.reason for shed in solo.shed} == {"outage"}
    assert fleet_tel.registry.snapshot() == solo_tel.registry.snapshot()


def test_aborted_fleet_conserves_every_request():
    fleet = simulate_fleet(replicas=2, **PERMANENT_OUTAGE)
    assert fleet.summary()["shed_requests"] == 30
    assert fleet.summary()["completed"] == 0
    routed = sum(replica.routed for replica in fleet.replicas)
    accounted = sum(
        len(replica.result.records) + len(replica.result.shed)
        for replica in fleet.replicas
    )
    assert routed == accounted == 30


def test_client_retries_leave_the_run_span_request_count_alone():
    """Shed-and-retry re-enters requests into the stream; the run span
    still counts the offered requests, on both paths."""
    schedule = FaultSchedule(
        faults=(
            DegradationWindow(
                target="host", slowdown=4.0, start_s=5.0, duration_s=30.0
            ),
        )
    )
    solo, solo_tel, fleet, fleet_tel = run_both(
        model="opt-6.7b",
        host=HOST,
        placement="helm",
        rate_rps=4.0,
        num_requests=40,
        seed=3,
        max_batch=2,
        faults=schedule,
        resilience=ResiliencePolicy(queue_deadline_s=3.0, retry_shed=True),
    )
    assert solo.metrics.faults.client_retries > 0
    replica = fleet.replicas[0].result
    assert replica.summary() == solo.summary()
    assert replica.records == solo.records
    assert replica.shed == solo.shed
    assert fleet_tel.registry.snapshot() == solo_tel.registry.snapshot()
    (run_span,) = [
        span
        for span in solo_tel.tracer.to_dicts()
        if span["name"] == "serve run"
    ]
    assert run_span["attrs"]["requests"] == 40
