"""The benchmark's workloads: one seeded input set and one entry-point call each.

Every workload samples its request stream here, from the benchmark's
``--seed``, and hands the simulator only the finished list (as a
:class:`~repro.serve.arrivals.TraceReplay`), so the inputs do not
depend on the code under test.  Each function returns
``(specs, result)``: the generated requests, for the conservation
check, and the entry point's return value.

Why each workload exists, and which layer it stresses, is recorded
in ``BENCHMARK.json``.  The request counts are sized so that one call
takes about one to three host seconds, which gives several calls per
measured run.
"""

from __future__ import annotations

from repro.faults.models import DegradationWindow, FaultSchedule, TransientFaults
from repro.fleet import simulate_fleet
from repro.serve import simulate_serving
from repro.serve.arrivals import (
    MmppProcess,
    PoissonProcess,
    TraceReplay,
    assign_prefix_groups,
    generate_requests,
)
from repro.telemetry import Telemetry
from repro.workloads.lengths import LengthDistribution

STEADY_REQUESTS = 400
#: ``simulate_serving``'s default arrival rate.
STEADY_RATE_RPS = 0.01

FLEET_REQUESTS = 600
FLEET_REPLICAS = 4
FLEET_RATE_RPS = 0.1
FLEET_PREFIX_GROUPS = 8
FLEET_PREFIX_CACHE = 4

DEGRADED_REQUESTS = 1000
DEGRADED_RATE_RPS = 0.004
#: Prompts stay below OPT's 2048-token window with room for the
#: default 21 generated tokens.
DEGRADED_PROMPTS = LengthDistribution.lognormal(1024, sigma=0.6, high=2000)


def _bursty(rate_rps: float) -> MmppProcess:
    """``repro-serve --arrival bursty``'s shape: 5x bursts, 50/10 dwell."""
    return MmppProcess(
        base_rate_rps=rate_rps,
        burst_rate_rps=rate_rps * 5.0,
        mean_base_s=50.0 / rate_rps,
        mean_burst_s=10.0 / rate_rps,
    )


def _steady_specs(seed: int):
    return generate_requests(
        PoissonProcess(rate_rps=STEADY_RATE_RPS), STEADY_REQUESTS, seed=seed
    )


def serve_steady(seed: int):
    """The default ``repro-serve`` run: OPT-175B / NVDRAM / helm."""
    specs = _steady_specs(seed)
    result = simulate_serving(
        arrival=TraceReplay(specs), num_requests=len(specs)
    )
    return specs, result


def serve_observed(seed: int):
    """``serve_steady``'s exact stream with SLO monitoring and telemetry on."""
    specs = _steady_specs(seed)
    result = simulate_serving(
        arrival=TraceReplay(specs),
        num_requests=len(specs),
        slo=True,
        telemetry=Telemetry.create(),
    )
    return specs, result


def fleet_prefix(seed: int):
    """Shared-prefix tenants routed by affinity onto several replicas."""
    specs = generate_requests(
        _bursty(FLEET_RATE_RPS), FLEET_REQUESTS, seed=seed
    )
    specs = assign_prefix_groups(
        specs, num_groups=FLEET_PREFIX_GROUPS, prefix_len=64, seed=seed
    )
    result = simulate_fleet(
        model="opt-6.7b",
        host="CXL-ASIC",
        placement="helm",
        arrival=TraceReplay(specs),
        num_requests=len(specs),
        replicas=FLEET_REPLICAS,
        router="prefix-affinity",
        prefix_cache_size=FLEET_PREFIX_CACHE,
    )
    return specs, result


def serve_degraded(seed: int):
    """Long prompts, tiered KV and a host degradation window with retries."""
    specs = generate_requests(
        _bursty(DEGRADED_RATE_RPS),
        DEGRADED_REQUESTS,
        prompt_lengths=DEGRADED_PROMPTS,
        seed=seed,
    )
    # The window sits inside the stream's own span, so it always
    # fires, whatever the seed stretches the arrivals to.
    span_s = specs[-1].arrival_s
    schedule = FaultSchedule(
        faults=(
            DegradationWindow(
                target="host",
                slowdown=8.0,
                start_s=0.25 * span_s,
                duration_s=0.25 * span_s,
            ),
            TransientFaults(target="host", probability=0.01),
        ),
        seed=seed,
    )
    result = simulate_serving(
        arrival=TraceReplay(specs),
        num_requests=len(specs),
        faults=schedule,
        kv_policy="hotness",
    )
    return specs, result


WORKLOADS = {
    "serve_steady": serve_steady,
    "serve_observed": serve_observed,
    "fleet_prefix": fleet_prefix,
    "serve_degraded": serve_degraded,
}
