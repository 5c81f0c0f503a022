"""One serving replica: the single-engine serve stack.

:func:`build_replica` is the one place a serve stack is wired —
engine construction, cost model, telemetry binding, fault injector,
replanner, KV manager, sanitizer, SLO observer, scheduler — with
replica-stable RNG streams derived via
:func:`repro.faults.seed_stream`.  :func:`repro.serve.simulate_serving`
builds replica 0 and serves it in one pass (:meth:`Replica.run`); a
one-replica fleet at shard degree 1 builds the same object graph and
drives it incrementally.  Replica 0 draws from the root seeds
unchanged, so the two agree bit for bit, which
``tests/fleet/test_identity.py`` pins.

The replica also exposes the scheduler's incremental
:class:`~repro.serve.scheduler.SchedulerDrive` so the
:class:`~repro.fleet.simulator.FleetSimulator` can interleave many
replicas in one virtual timeline: advance to an arrival, route, push,
repeat.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.core.engine import OffloadEngine
from repro.core.placement.sharding import ShardedPlacement
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector, make_injector
from repro.faults.models import FaultSchedule
from repro.faults.retry import RetryPolicy
from repro.faults.seeds import seed_stream
from repro.fleet.costs import ShardedCostModel
from repro.fleet.prefix import PrefixCache
from repro.serve.metrics import build_metrics
from repro.serve.request import QosClass, RequestSpec
from repro.serve.resilience import Replanner, ResiliencePolicy
from repro.serve.scheduler import (
    ContinuousBatchingScheduler,
    SchedulerDrive,
    SchedulerRun,
)
from repro.serve.simulator import ServingResult
from repro.telemetry import NULL_TELEMETRY, Telemetry


@dataclass
class Replica:
    """A fully wired serving replica and its live drive handle."""

    index: int
    engine: OffloadEngine
    costs: object
    scheduler: ContinuousBatchingScheduler
    telemetry: Telemetry
    classes: Tuple[QosClass, ...] = ()
    sharded: Optional[ShardedPlacement] = None
    prefix_cache: Optional[PrefixCache] = None
    sanitizer: Optional[object] = None
    observer: Optional[object] = None
    prewarm: bool = True
    drive: Optional[SchedulerDrive] = None
    routed: int = 0
    #: Autoscale lifecycle: when this replica was provisioned (virtual
    #: seconds; 0 for the initial fleet), whether it is draining (no
    #: new work, finishes its queue, then retires), and when the
    #: drain was ordered.  Untouched in static fleets.
    activated_s: float = 0.0
    draining: bool = False
    drain_mark_s: Optional[float] = None
    _prewarmed: int = field(default=0, repr=False)

    @property
    def queue_depth(self) -> int:
        """Exact queued-plus-running occupancy at the drive's clock."""
        return 0 if self.drive is None else self.drive.queue_depth

    def _prewarm_prices(self, specs: Sequence[RequestSpec]) -> None:
        """Pre-price the batch ladder over ``specs``' prompt lengths.

        Never changes a priced value, only the cache hit/miss split;
        a no-op for cost models without a grid.
        """
        self._prewarmed = 0
        if self.prewarm and hasattr(self.costs, "prewarm"):
            top = self.scheduler.max_batch
            ladder = sorted(
                {
                    min(1 << power, top)
                    for power in range(max(1, top).bit_length())
                }
                | {top}
            )
            self._prewarmed = self.costs.prewarm(
                ladder, prompt_lens=[spec.prompt_len for spec in specs]
            )

    def start(self, specs: Sequence[RequestSpec]) -> None:
        """Prewarm the price cache and park the scheduler at time 0.

        ``specs`` is the *global* stream (routing is not known yet);
        prewarming over it is a superset of what this replica will
        serve and never changes a priced value.
        """
        self._prewarm_prices(specs)
        self.drive = self.scheduler.drive()

    def run(
        self,
        specs: Sequence[RequestSpec],
        setup: Optional[Dict[str, object]] = None,
        checkpoint=None,
        restore: Optional[Dict[str, object]] = None,
    ) -> ServingResult:
        """Serve the whole stream in one pass and reduce it.

        The unrouted path: the scheduler takes the closed stream at
        once, which keeps its checkpoint/restore support
        (``checkpoint`` / ``restore`` as in
        :meth:`~repro.serve.scheduler.ContinuousBatchingScheduler.run`).
        """
        self._prewarm_prices(specs)
        outcome = self.scheduler.run(
            specs, checkpoint=checkpoint, restore=restore
        )
        return self.finalize(outcome, specs, setup=setup)

    def push(self, spec: RequestSpec) -> None:
        self.routed += 1
        self.drive.push(spec)

    def advance(self, until: float) -> None:
        self.drive.advance(until)

    def finish(self) -> SchedulerRun:
        return self.drive.finish()

    def finalize(
        self,
        outcome: SchedulerRun,
        all_specs: Sequence[RequestSpec],
        setup: Optional[Dict[str, object]] = None,
    ) -> ServingResult:
        """Reduce one finished run to a :class:`ServingResult`.

        ``all_specs`` is the stream the run was offered (the global
        stream in a fleet); ``setup`` is the caller's configuration
        echo, merged last.
        """
        service_ref = self.costs.reference_service_time(
            prompt_len=int(
                statistics.fmean(spec.prompt_len for spec in all_specs)
            )
            or 1,
            gen_len=max(
                1,
                int(statistics.fmean(spec.gen_len for spec in all_specs)),
            ),
            batch=self.scheduler.max_batch,
        )
        metrics = build_metrics(outcome, self.classes, service_ref)
        info: Dict[str, object] = {
            "max_batch": self.scheduler.max_batch,
            "service_ref_s": service_ref,
            "prefill_iterations": outcome.prefill_iterations,
            "decode_iterations": outcome.decode_iterations,
        }
        if self.scheduler.injector is not None:
            info["fault_stats"] = self.scheduler.injector.stats.as_dict()
        backend_name = getattr(self.costs, "backend_name", None)
        if backend_name is not None:
            info["pricing_backend"] = backend_name
        cache_stats = getattr(self.costs, "cache_stats", None)
        if cache_stats is not None:
            info["price_cache"] = cache_stats
        if self.scheduler.kv is not None:
            info["kv"] = self.scheduler.kv.snapshot()
        if self.sanitizer is not None:
            info["sanitize"] = self.sanitizer.report()
        if self.observer is not None:
            slo_report = self.observer.report()
            if slo_report is not None:
                info["slo"] = slo_report
        if self._prewarmed:
            info["prewarmed_prices"] = self._prewarmed
        backend_memo = getattr(
            getattr(self.costs, "backend", None), "cache_info", None
        )
        if backend_memo is not None:
            info["backend_memo"] = backend_memo
        if self.prefix_cache is not None:
            info["prefix_cache"] = self.prefix_cache.snapshot()
        if setup:
            info.update(setup)
        telemetry = self.telemetry
        if telemetry.enabled and backend_memo is not None:
            memo_scope = telemetry.scoped("pricing/backend")
            memo_scope.gauge("entries").set(backend_memo["entries"])
            memo_scope.gauge("evictions").set(backend_memo["evictions"])
        if telemetry.enabled:
            scope = telemetry.scoped("serve")
            scope.gauge("max_batch").set(self.scheduler.max_batch)
            scope.gauge("throughput_rps").set(metrics.throughput_rps)
            scope.gauge("goodput_rps").set(metrics.goodput_rps)
            scope.gauge("slo_attainment").set(metrics.slo_attainment)
            scope.gauge("utilization").set(metrics.utilization)
            scope.gauge("saturated").set(float(metrics.saturated))
        return ServingResult(
            setup=info,
            metrics=metrics,
            records=outcome.records,
            timeline=outcome.timeline,
            trace=outcome.trace,
            shed=outcome.shed,
        )


def build_replica(
    index: int,
    *,
    model: str = "opt-175b",
    host: str = "NVDRAM",
    placement: str = "helm",
    compress_weights: bool = True,
    tensor_parallel: int = 1,
    pipeline_parallel: int = 1,
    classes: Sequence[QosClass],
    max_batch: Optional[int] = None,
    overlap: bool = True,
    faults: Optional[Union[FaultSchedule, FaultInjector, str]] = None,
    fault_seed: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    resilience: Optional[ResiliencePolicy] = None,
    pricing_backend: str = "analytic",
    telemetry: Optional[Telemetry] = None,
    prewarm: bool = True,
    kv_policy: Optional[str] = None,
    sanitize: Optional[Union[bool, object]] = None,
    iteration_fault_pricing: bool = False,
    prefix_cache_size: int = 0,
    slo=None,
) -> Replica:
    """Wire one replica's serve stack.

    ``fault_seed`` is the fleet root: replica 0 draws from it
    unchanged, siblings from :func:`seed_stream` — so growing the
    fleet never perturbs an existing replica's fault draws.  ``slo``
    is a resolved :class:`~repro.obs.SloSpec` (or ``None``); each
    replica gets its own observer over it.
    """
    if iteration_fault_pricing and pricing_backend != "event":
        raise ConfigurationError(
            "iteration_fault_pricing needs pricing_backend='event' — "
            "only the event backend walks the per-layer schedule"
        )
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    engine = OffloadEngine(
        model=model,
        host=host,
        placement=placement,
        compress_weights=compress_weights,
        batch_size=1,
        pricing_backend=pricing_backend,
    )
    sharded: Optional[ShardedPlacement] = None
    if tensor_parallel > 1 or pipeline_parallel > 1:
        sharded = ShardedPlacement.plan(
            engine.placement_result,
            tensor_parallel=tensor_parallel,
            pipeline_parallel=pipeline_parallel,
        )
        costs: object = ShardedCostModel(engine, sharded, overlap=overlap)
    else:
        costs = engine.cost_model(overlap=overlap)
    if telemetry.enabled:
        if sharded is None:
            engine.price_cache.bind_telemetry(telemetry.registry)
        else:
            for shard_engine in costs.engines:
                shard_engine.price_cache.bind_telemetry(telemetry.registry)
        scope = telemetry.scoped("engine")
        scope.gauge("spilled_layers").set(len(engine.spill_log))
        scope.gauge("host_oversubscribed").set(
            float(engine.host_oversubscribed)
        )
    injector = make_injector(
        faults, seed=seed_stream(fault_seed, index, "faults")
    )
    replanner: Optional[Replanner] = None
    fault_targets: Optional[Tuple[str, ...]] = None
    if injector is not None:
        from repro.faults.models import HOST_TARGET, PCIE_TARGET
        from repro.serve.resilience import engine_replanner

        if telemetry.enabled:
            injector.bind_telemetry(telemetry.registry)
        fault_targets = (
            HOST_TARGET,
            PCIE_TARGET,
            engine.host.host_region.name,
            engine.host.label,
        )
        if sharded is None:
            # Re-planning swaps in a degraded *single-engine* cost
            # model; a sharded replica rides out degradation with
            # shedding and batch shrink instead.
            replanner = engine_replanner(engine, overlap=overlap)
    sanitizer = None
    if sanitize is None:
        sanitize = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
    if sanitize:
        if isinstance(sanitize, bool):
            from repro.chaos import SanitizerHarness

            sanitizer = SanitizerHarness()
        else:
            sanitizer = sanitize
    kv = None
    if kv_policy is not None:
        from repro.kv import KvCacheManager
        from repro.kv import kv_policy as resolve_kv_policy

        kv = KvCacheManager(
            engine, resolve_kv_policy(kv_policy), telemetry=telemetry
        )
    prefix_cache = (
        PrefixCache(prefix_cache_size) if prefix_cache_size else None
    )
    observer = None
    if slo is not None:
        from repro.obs import ServeObserver

        # Replicas share the (immutable) spec but each gets its own
        # observer instance — windowed state is per replica, rolled
        # up by the fleet through mergeable snapshots.
        observer = ServeObserver(spec=slo)
    scheduler_kwargs: Dict[str, object] = {}
    if fault_targets is not None:
        scheduler_kwargs["fault_targets"] = fault_targets
    scheduler = ContinuousBatchingScheduler(
        costs,
        tuple(classes),
        max_batch=max_batch,
        injector=injector,
        retry=retry,
        resilience=resilience,
        replanner=replanner,
        telemetry=telemetry,
        kv=kv,
        iteration_fault_pricing=iteration_fault_pricing,
        sanitizer=sanitizer,
        prefix_cache=prefix_cache,
        observer=observer,
        **scheduler_kwargs,
    )
    return Replica(
        index=index,
        engine=engine,
        costs=costs,
        scheduler=scheduler,
        telemetry=telemetry,
        classes=tuple(classes),
        sharded=sharded,
        prefix_cache=prefix_cache,
        sanitizer=sanitizer,
        observer=observer,
        prewarm=prewarm,
    )
