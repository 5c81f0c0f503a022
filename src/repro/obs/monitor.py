"""The serve-time observer: windowed signals + SLO evaluation.

:class:`ServeObserver` is the single object the scheduler talks to.
It owns the windowed instruments (per-QoS TTFT/TBT/E2E histograms,
arrival/completion/shed/token rolling counters) and, when an
:class:`~repro.obs.slo.SloSpec` is attached, an
:class:`~repro.obs.slo.SloMonitor`.  The scheduler calls the hooks at
natural points of its loop:

* ``on_arrival`` as each request is absorbed from the stream,
* ``on_finish`` / ``on_shed`` as requests complete or are rejected,
* ``on_iteration`` after each priced prefill/decode pass,
* ``on_boundary`` once per iteration boundary — this is where burn
  rates are re-evaluated and the ``obs/`` gauges are published, when
  an event or the window index changed since the last boundary, and
* ``finalize`` at run end.

Every hook is a plain method call guarded at the call sites by
``observer is not None``: a run without an observer executes exactly
the pre-observer instruction stream, which is what keeps the off-mode
bit-identity acceptance check honest.  All timestamps are virtual.

Gauges published under ``obs/`` (and ``slo/`` via the monitor) land
in the run's ordinary :class:`~repro.telemetry.MetricsRegistry`, so
fleet runs roll replicas up through ``MetricsRegistry.merge`` with
``replica`` labels exactly like every other metric, and
``repro-telemetry dash`` reads them from the exported JSONL stream.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.slo import SloMonitor, SloSpec
from repro.obs.window import RollingCounter, WindowConfig, WindowedHistogram

#: Quantiles published as ``obs/<metric>_p<q>_s`` gauges.
GAUGE_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p99", 0.99),
)

#: Rolling counter -> (rate gauge name, help text).
RATE_GAUGES: Dict[str, Tuple[str, str]] = {
    "arrivals": ("arrival_rate_rps", "windowed arrival rate"),
    "completions": ("completion_rate_rps", "windowed completion rate"),
    "sheds": ("shed_rate_rps", "windowed shed rate"),
    "tokens": ("token_rate_tps", "windowed generated-token rate"),
}


class ServeObserver:
    """Streaming observability for one scheduler run.

    ``recent_windows`` controls how many trailing windows the
    published rate/quantile gauges aggregate over (burn rules manage
    their own windows through the spec).

    Every published value is a function of the instruments and the
    boundary's window index, so a boundary where neither moved re-sets
    only the token-rate gauge (``on_iteration`` feeds it every pass).
    """

    def __init__(
        self,
        spec: Optional[SloSpec] = None,
        window: Optional[WindowConfig] = None,
        recent_windows: int = 4,
    ) -> None:
        if window is None:
            window = spec.window if spec is not None else WindowConfig()
        if recent_windows < 1:
            raise ConfigurationError(
                f"recent_windows must be at least 1, got {recent_windows}"
            )
        self.spec = spec
        self.window = window
        self.recent_windows = min(recent_windows, window.windows)
        self._latency: Dict[Tuple[str, str], WindowedHistogram] = {}
        self._counters = {
            name: RollingCounter(name, window) for name in RATE_GAUGES
        }
        self.slo: Optional[SloMonitor] = None
        self._obs = None  #: ``obs/``-scoped registry once bound.
        #: (gauge name, qos) -> handle, resolved once per binding.
        self._gauges: Dict[Tuple[str, str], object] = {}
        self._last_now = 0.0
        #: Whether an event or merge arrived since the last publish,
        #: and the window indices that publish read.
        self._changed = True
        self._published_at: Optional[Tuple[int, int]] = None

    # -- binding --------------------------------------------------------

    def bind_run(self, telemetry, run_span) -> None:
        """Attach the run's telemetry; called once by the scheduler."""
        self._obs = telemetry.scoped("obs")
        self._gauges = {}
        self._changed = True
        if self.spec is not None:
            if self.slo is None:
                self.slo = SloMonitor(self.spec)
            # Re-binding preserves accumulated state (fleet rollup
            # observers merge replica snapshots before binding).
            self.slo.bind(telemetry.registry, run_span)

    def _histogram(self, metric: str, qos: str) -> WindowedHistogram:
        key = (metric, qos)
        instrument = self._latency.get(key)
        if instrument is None:
            instrument = WindowedHistogram(
                f"{metric}_s:{qos}", config=self.window
            )
            self._latency[key] = instrument
        return instrument

    # -- scheduler hooks ------------------------------------------------

    def on_arrival(self, spec) -> None:
        self._changed = True
        self._counters["arrivals"].inc(spec.arrival_s)

    def on_finish(self, record) -> None:
        self._changed = True
        when = record.finished_s
        self._counters["completions"].inc(when)
        qos = record.qos_class
        self._histogram("ttft", qos).observe(record.ttft_s, when)
        self._histogram("tbt", qos).observe(record.tbt_s, when)
        self._histogram("e2e", qos).observe(record.e2e_s, when)
        if self.slo is not None:
            self.slo.observe(record)

    def on_shed(self, shed) -> None:
        self._changed = True
        self._counters["sheds"].inc(shed.shed_s)
        if self.slo is not None:
            self.slo.observe_shed(shed)

    def on_iteration(self, kind: str, batch: int, done_at: float) -> None:
        # Every iteration emits one token per batched sequence
        # (prefill: the first token of each admitted prompt).
        self._counters["tokens"].inc(done_at, batch)

    def on_boundary(self, now: float) -> None:
        self._last_now = max(self._last_now, now)
        at = (
            self.window.index(now),
            self.spec.window.index(now) if self.spec is not None else 0,
        )
        changed = self._changed or at != self._published_at
        if changed:
            self._changed, self._published_at = False, at
            if self.slo is not None:
                self.slo.evaluate(now)
        self._publish(now, everything=changed)

    def finalize(self, now: float) -> None:
        """Last evaluation at run end, so gauges reflect the full run."""
        self.on_boundary(now)

    # -- publishing -----------------------------------------------------

    def _publish(self, now: float, everything: bool = True) -> None:
        if self._obs is None:
            return
        k = self.recent_windows
        for name in RATE_GAUGES if everything else ("tokens",):
            gauge, help_text = RATE_GAUGES[name]
            rate = self._counters[name].rate(k, now=now)
            self._gauge(gauge, "", help_text).set(rate)
        if not everything:
            return
        for (metric, qos) in sorted(self._latency):
            instrument = self._latency[(metric, qos)]
            for suffix, q in GAUGE_QUANTILES:
                self._gauge(
                    f"{metric}_{suffix}_s", qos, f"windowed {metric} {suffix}"
                ).set(instrument.quantile(q, windows=k, now=now))

    def _gauge(self, name: str, qos: str, help_text: str):
        gauge = self._gauges.get((name, qos))
        if gauge is None:
            gauge = self._gauges[(name, qos)] = self._obs.gauge(
                name,
                labels={"qos": qos} if qos else None,
                help_text=help_text,
            )
        return gauge

    # -- rollups --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Windowed state as a JSON-able dict, mergeable per replica."""
        slo = self.slo.snapshot() if self.slo is not None else None
        return {
            **({"slo": slo} if slo is not None else {}),
            "window": self.window.to_dict(),
            "latency": {
                f"{metric}:{qos}": self._latency[(metric, qos)].snapshot()
                for (metric, qos) in sorted(self._latency)
            },
            "counters": {
                name: counter.snapshot()
                for name, counter in self._counters.items()
            },
            "last_now": self._last_now,
        }

    def merge(self, snapshot: Mapping) -> None:
        """Fold one replica's :meth:`snapshot` into this observer.

        Window indices are absolute, so merging replicas that served
        disjoint slices of one stream reproduces the single-observer
        state exactly (pinned in ``tests/obs/test_window.py``).
        """
        for key, entry in snapshot.get("latency", {}).items():
            metric, _, qos = key.partition(":")
            self._histogram(metric, qos).merge(entry)
        if "slo" in snapshot:
            if self.slo is None and self.spec is not None:
                self.slo = SloMonitor(self.spec)
            if self.slo is not None:
                self.slo.merge(snapshot["slo"])
        for name, entry in snapshot.get("counters", {}).items():
            if name in self._counters:
                self._counters[name].merge(entry)
        self._changed = True
        self._last_now = max(
            self._last_now, float(snapshot.get("last_now", 0.0))
        )

    def report(self) -> Optional[Dict[str, object]]:
        """The SLO monitor's end-of-run report, if one is attached."""
        if self.slo is None:
            return None
        return self.slo.report()
