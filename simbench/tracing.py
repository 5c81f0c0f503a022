"""Wall-clock spans around the simulator's layers, installed from outside.

Nothing under ``src/`` knows it is traced: :meth:`Tracer.install`
replaces the public functions listed in :data:`SPANS` with wrappers
that record one span per call.  The run is single-threaded, so calls
nest strictly and a span's parent is the innermost open span.

A layer's *self time* is its span's duration minus the durations of
its direct children.  Every span descends from one root span around
the whole timed call, so the self times of all spans sum to the
root's duration: the traced wall time.

:class:`SetupMarker` is the one hook into the simulator left on in
untraced runs.  It notes the first moment a request reaches a
scheduler, which ends the set-up phase, and then removes itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Dict, List, Sequence, Tuple

#: Span name -> the functions it wraps, as ``(module, qualified name)``.
#: A qualified name with a dot is a method, patched on its class.
#: Several functions may share one name when they are one layer's
#: alternative ways in (the three router policies, the three
#: instrument kinds, the scheduler's run and its incremental drive).
SPANS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "entry.simulate": (
        ("repro.serve.simulator", "simulate_serving"),
        ("repro.fleet.simulator", "simulate_fleet"),
    ),
    "serve.arrivals.generate": (
        ("repro.serve.arrivals", "generate_requests"),
        ("repro.serve.arrivals", "assign_prefix_groups"),
    ),
    "core.engine.init": (("repro.core.engine", "OffloadEngine.__init__"),),
    "core.engine.run_spec": (("repro.core.engine", "OffloadEngine.run_spec"),),
    "core.batching.gpu_memory_plan": (
        ("repro.core.batching", "gpu_memory_plan"),
    ),
    "pricing.prewarm": (("repro.serve.costs", "IterationCostModel.prewarm"),),
    "pricing.prefill_time": (
        ("repro.serve.costs", "IterationCostModel.prefill_time"),
    ),
    "pricing.decode_time": (
        ("repro.serve.costs", "IterationCostModel.decode_time"),
    ),
    "pricing.prefill_parts": (
        ("repro.serve.costs", "IterationCostModel.prefill_parts"),
    ),
    "pricing.decode_parts": (
        ("repro.serve.costs", "IterationCostModel.decode_parts"),
    ),
    "pricing.parts.total_s": (("repro.pricing.parts", "IterationParts.total_s"),),
    "pricing.cache.lookup": (("repro.pricing.cache", "PriceCache.get_or_compute"),),
    "pricing.backend_miss": (
        ("repro.pricing.backends", "AnalyticBackend.iteration_parts"),
    ),
    "serve.scheduler.init": (
        ("repro.serve.scheduler", "ContinuousBatchingScheduler.__init__"),
    ),
    "serve.scheduler": (
        ("repro.serve.scheduler", "ContinuousBatchingScheduler.run"),
        ("repro.serve.scheduler", "SchedulerDrive.__init__"),
        ("repro.serve.scheduler", "SchedulerDrive.advance"),
        ("repro.serve.scheduler", "SchedulerDrive.finish"),
    ),
    "serve.resilience.replan": (
        ("repro.core.engine", "OffloadEngine.replan_for_degradation"),
    ),
    "serve.metrics.build": (("repro.serve.metrics", "build_metrics"),),
    "fleet.build_replica": (("repro.fleet.replica", "build_replica"),),
    "fleet.run": (("repro.fleet.simulator", "FleetSimulator.run"),),
    "fleet.advance": (("repro.fleet.replica", "Replica.advance"),),
    "fleet.route": (
        ("repro.fleet.router", "RoundRobinRouter.route"),
        ("repro.fleet.router", "LeastLoadedRouter.route"),
        ("repro.fleet.router", "PrefixAffinityRouter.route"),
    ),
    "obs.on_boundary": (("repro.obs.monitor", "ServeObserver.on_boundary"),),
    "obs.on_finish": (("repro.obs.monitor", "ServeObserver.on_finish"),),
    "obs.slo_evaluate": (("repro.obs.slo", "SloMonitor.evaluate"),),
    "telemetry.instrument": (
        ("repro.telemetry.registry", "MetricsRegistry.counter"),
        ("repro.telemetry.registry", "MetricsRegistry.gauge"),
        ("repro.telemetry.registry", "MetricsRegistry.histogram"),
    ),
    "kv.try_admit": (("repro.kv.manager", "KvCacheManager.try_admit"),),
    "kv.on_decode": (("repro.kv.manager", "KvCacheManager.on_decode"),),
    "faults.price_transfer": (
        ("repro.faults.injector", "FaultInjector.price_transfer"),
    ),
}

#: The span around the whole timed call; its self time is the
#: benchmark's own glue between the layers above.
ROOT = "run"


def _resolve(module_name: str, qualname: str):
    """``(owner, attribute, function)`` for one :data:`SPANS` entry."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    function = owner.__dict__[attr]
    if not callable(function):
        raise TypeError(f"{module_name}.{qualname} is not a plain function")
    return owner, attr, function


def _rebind(owner, attr: str, original, replacement) -> None:
    """Point every reference to ``original`` at ``replacement``.

    A module-level function is also bound by name in every module
    that did ``from ... import`` it, so each of those is rebound too.
    """
    setattr(owner, attr, replacement)
    if isinstance(owner, type):
        return
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


class Tracer:
    """In-memory span recorder; spans are written out once, at the end."""

    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        #: ``[name, start, end, parent index]``; parent -1 for the root.
        self.spans: List[list] = []
        self._stack: List[int] = []

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, function):
        open_, close = self._open, self._close

        @functools.wraps(function)
        def traced(*args, **kwargs):
            record = open_(name)
            try:
                return function(*args, **kwargs)
            finally:
                close(record)

        return traced

    def install(self) -> None:
        """Wrap every function in :data:`SPANS`.

        Call it before importing code outside ``repro`` that binds
        these functions by name (the benchmark's ``workloads``), so
        that code binds the wrappers.
        """
        for name, targets in SPANS.items():
            for module_name, qualname in targets:
                owner, attr, function = _resolve(module_name, qualname)
                _rebind(owner, attr, function, self.wrap(name, function))

    def run(self, function, *args):
        """Call ``function`` under the root span."""
        return self.wrap(ROOT, function)(*args)

    def wall_s(self) -> float:
        """Duration of the root span (the traced wall time)."""
        root = next(span for span in self.spans if span[0] == ROOT)
        return root[2] - root[1]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps([name, start, end, parent, self.run_id]))
                out.write("\n")


def read_spans(path: str) -> List[list]:
    with open(path, encoding="utf-8") as spans:
        return [json.loads(line) for line in spans]


def self_times(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls`` and ``self_s`` (duration minus children).

    ``spans`` rows are ``[name, start, end, parent index, ...]`` in
    the order they were opened, as :meth:`Tracer.write` stores them.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child_s[parent] += span[2] - span[1]
    totals: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(span[0], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (span[2] - span[1]) - child_s[index]
    return totals


class SetupMarker:
    """Notes when the first request reaches a scheduler, then unhooks.

    A single-replica run hands its whole stream to
    ``ContinuousBatchingScheduler.run``; a fleet pushes requests one
    at a time through ``Replica.push``.  Whichever is called first
    ends set-up: request generation, engine and cost-model
    construction, prewarming and every replica build lie before it.
    """

    def __init__(self) -> None:
        self.at = None

    def install(self) -> None:
        from repro.fleet.replica import Replica
        from repro.serve.scheduler import ContinuousBatchingScheduler

        for owner, attr in (
            (ContinuousBatchingScheduler, "run"),
            (Replica, "push"),
        ):
            self._hook(owner, attr)

    def _hook(self, owner, attr: str) -> None:
        original = owner.__dict__[attr]

        def first_call(*args, **kwargs):
            if self.at is None:
                self.at = time.perf_counter()
            setattr(owner, attr, original)
            return original(*args, **kwargs)

        setattr(owner, attr, first_call)
