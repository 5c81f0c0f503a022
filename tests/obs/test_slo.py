"""SLO specs, burn-rate evaluation, alert edges, and rollups."""

import json
import os
from dataclasses import dataclass

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    BurnRule,
    DEFAULT_BURN_RULES,
    SloMonitor,
    SloObjective,
    SloSpec,
    WindowConfig,
)
from repro.core.qos import QosTarget
from repro.serve.request import QosClass
from repro.telemetry import MetricsRegistry


@dataclass
class FakeRecord:
    qos_class: str = "standard"
    ttft_s: float = 1.0
    tbt_s: float = 0.1
    e2e_s: float = 2.0
    finished_s: float = 10.0
    slo_met: bool = True


@dataclass
class FakeShed:
    qos_class: str = "standard"
    shed_s: float = 5.0


def ttft_spec(target: float = 0.9, threshold_s: float = 2.0) -> SloSpec:
    return SloSpec(
        objectives=(
            SloObjective(
                name="fast-ttft",
                qos="*",
                metric="ttft",
                target=target,
                threshold_s=threshold_s,
            ),
        ),
        window=WindowConfig(width_s=10.0, windows=16),
        burn_rules=(BurnRule(factor=2.0, long_windows=4, short_windows=1),),
    )


class TestSpecValidation:
    def test_objective_needs_known_metric(self):
        with pytest.raises(ConfigurationError):
            SloObjective(
                name="x", qos="*", metric="p99", target=0.9,
                threshold_s=1.0,
            )

    def test_target_must_be_open_interval(self):
        for target in (0.0, 1.0, 1.5):
            with pytest.raises(ConfigurationError):
                SloObjective(
                    name="x", qos="*", metric="ttft", target=target,
                    threshold_s=1.0,
                )

    def test_latency_metric_needs_threshold(self):
        with pytest.raises(ConfigurationError):
            SloObjective(name="x", qos="*", metric="ttft", target=0.9)

    def test_slo_metric_rejects_threshold(self):
        with pytest.raises(ConfigurationError):
            SloObjective(
                name="x", qos="*", metric="slo", target=0.9,
                threshold_s=1.0,
            )

    def test_duplicate_objective_names(self):
        objective = SloObjective(
            name="x", qos="*", metric="slo", target=0.9
        )
        with pytest.raises(ConfigurationError):
            SloSpec(objectives=(objective, objective))

    def test_burn_rule_must_fit_ring(self):
        with pytest.raises(ConfigurationError):
            SloSpec(
                objectives=(
                    SloObjective(
                        name="x", qos="*", metric="slo", target=0.9
                    ),
                ),
                window=WindowConfig(windows=2),
                burn_rules=(
                    BurnRule(factor=2.0, long_windows=4, short_windows=1),
                ),
            )


class TestSpecRoundTrip:
    def test_json_file_round_trip(self, tmp_path):
        spec = ttft_spec()
        path = tmp_path / "slo.json"
        spec.save(str(path))
        assert SloSpec.load(str(path)) == spec
        # And the on-disk form is plain JSON.
        data = json.loads(path.read_text())
        assert data["objectives"][0]["name"] == "fast-ttft"

    def test_load_rejects_non_spec(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError):
            SloSpec.load(str(path))
        path.write_text("{nope")
        with pytest.raises(ConfigurationError):
            SloSpec.load(str(path))

    def test_for_classes_derives_composite_objectives(self):
        classes = (
            QosClass(
                name="interactive", priority=0,
                target=QosTarget(max_ttft_s=1.0),
            ),
            QosClass(
                name="batch", priority=1,
                target=QosTarget(max_tbt_s=60.0),
            ),
        )
        spec = SloSpec.for_classes(classes, target=0.95)
        assert [o.name for o in spec.objectives] == [
            "interactive-slo", "batch-slo",
        ]
        assert all(o.metric == "slo" for o in spec.objectives)
        assert spec.burn_rules == DEFAULT_BURN_RULES


class TestBurnRateAlerts:
    def test_alert_fires_and_resolves_edge_triggered(self):
        monitor = SloMonitor(ttft_spec())
        # Healthy traffic: no alert.
        for i in range(8):
            monitor.observe(
                FakeRecord(ttft_s=1.0, finished_s=float(i))
            )
        assert monitor.evaluate(8.0) == []
        # A burst of violations: burn = (bad/total)/0.1 >> 2.
        for i in range(6):
            monitor.observe(
                FakeRecord(ttft_s=9.0, finished_s=10.0 + i)
            )
        edges = monitor.evaluate(16.0)
        assert [e.firing for e in edges] == [True]
        assert monitor.first_alert_s == 16.0
        # Still firing: edge-triggered means no repeat alert.
        assert monitor.evaluate(17.0) == []
        # Windows age out; good traffic resumes -> resolve edge.
        for i in range(10):
            monitor.observe(
                FakeRecord(ttft_s=1.0, finished_s=100.0 + i)
            )
        edges = monitor.evaluate(110.0)
        assert [e.firing for e in edges] == [False]
        assert len(monitor.alerts) == 2

    def test_short_window_guard_suppresses_stale_alerts(self):
        """Old violations outside the short window do not fire."""
        monitor = SloMonitor(ttft_spec())
        for i in range(4):
            monitor.observe(
                FakeRecord(ttft_s=9.0, finished_s=float(i))
            )
        # Long window (40 s) still sees them, short (10 s) does not.
        assert monitor.evaluate(25.0) == []

    def test_sheds_burn_budget(self):
        monitor = SloMonitor(ttft_spec())
        for i in range(4):
            monitor.observe_shed(FakeShed(shed_s=float(i)))
        edges = monitor.evaluate(5.0)
        assert edges and edges[0].firing

    def test_qos_scoping(self):
        spec = SloSpec(
            objectives=(
                SloObjective(
                    name="batch-only", qos="batch", metric="ttft",
                    target=0.9, threshold_s=2.0,
                ),
            ),
            window=WindowConfig(width_s=10.0, windows=16),
            burn_rules=(
                BurnRule(factor=2.0, long_windows=4, short_windows=1),
            ),
        )
        monitor = SloMonitor(spec)
        for i in range(5):
            monitor.observe(
                FakeRecord(
                    qos_class="interactive", ttft_s=9.0,
                    finished_s=float(i),
                )
            )
        assert monitor.evaluate(6.0) == []

    def test_gauges_and_span_events_published(self):
        registry = MetricsRegistry()

        class SpanSpy:
            events = []

            def event(self, name, time_s, **attrs):
                self.events.append((name, time_s, attrs))

        monitor = SloMonitor(
            ttft_spec(), registry=registry, span=SpanSpy()
        )
        for i in range(5):
            monitor.observe(FakeRecord(ttft_s=9.0, finished_s=float(i)))
        monitor.evaluate(6.0)
        snapshot = registry.snapshot()
        names = {
            (entry["name"], tuple(sorted(entry["labels"].items())))
            for entry in snapshot["gauges"]
        }
        labels = (("objective", "fast-ttft"), ("qos", "*"))
        assert ("slo/attainment", labels) in names
        assert ("slo/burn_rate", labels) in names
        assert ("slo/firing", labels) in names
        assert SpanSpy.events and SpanSpy.events[0][0] == "slo_alert"
        assert SpanSpy.events[0][2]["state"] == "firing"

    def test_report_shape(self):
        monitor = SloMonitor(ttft_spec())
        monitor.observe(FakeRecord(ttft_s=1.0, finished_s=1.0))
        monitor.observe(FakeRecord(ttft_s=9.0, finished_s=2.0))
        monitor.evaluate(3.0)
        report = monitor.report()
        objective = report["objectives"][0]
        assert objective["good"] == 1 and objective["bad"] == 1
        assert objective["attainment"] == pytest.approx(0.5)
        assert not objective["met"]
        assert report["spec"] == ttft_spec().to_dict()


class TestMonitorMerge:
    def test_replica_rollup_reconstructs_attainment(self):
        spec = ttft_spec()
        replicas = [SloMonitor(spec) for _ in range(2)]
        single = SloMonitor(spec)
        for index in range(10):
            record = FakeRecord(
                ttft_s=9.0 if index % 5 == 0 else 1.0,
                finished_s=float(index),
            )
            replicas[index % 2].observe(record)
            single.observe(record)
        rollup = SloMonitor(spec)
        for replica in replicas:
            rollup.merge(replica.snapshot())
        assert rollup.report()["objectives"] == (
            single.report()["objectives"]
        )

    def test_merge_ignores_unknown_objectives(self):
        monitor = SloMonitor(ttft_spec())
        monitor.merge({"objectives": {"other": {}}})
        assert monitor.report()["objectives"][0]["good"] == 0


class TestGoldenReport:
    """The ``ablation_obs --quick`` degradation run, pinned exactly.

    ``golden_slo_report.json`` holds the SLO report (alert edges with
    their times and burn rates) and the final ``obs/`` and ``slo/``
    gauges, recorded before boundary skipping and memoized window
    reads existed; both must reproduce it float for float.
    """

    GOLDEN = os.path.join(os.path.dirname(__file__), "golden_slo_report.json")

    def test_degradation_run_matches_golden(self, monkeypatch):
        from repro.experiments import ablation_obs
        from repro.experiments.common import pricing_backend
        from repro.serve.arrivals import TraceReplay
        from repro.serve.simulator import simulate_serving
        from repro.telemetry import Telemetry

        monkeypatch.setenv("REPRO_QUICK", "1")
        telemetry = Telemetry.create(tool="test")
        result = simulate_serving(
            model=ablation_obs.MODEL,
            host=ablation_obs.HOST,
            placement=ablation_obs.PLACEMENT,
            compress_weights=True,
            arrival=TraceReplay(specs=ablation_obs._specs()),
            num_requests=0,
            seed=ablation_obs.SEED,
            pricing_backend=pricing_backend("analytic"),
            slo=ablation_obs._spec(),
            telemetry=telemetry,
        )
        gauges = [
            {key: entry[key] for key in ("name", "labels", "value")}
            for entry in telemetry.registry.snapshot()["gauges"]
            if entry["name"].startswith(("obs/", "slo/"))
        ]
        actual = json.loads(
            json.dumps({"report": result.setup["slo"], "gauges": gauges})
        )
        with open(self.GOLDEN) as handle:
            golden = json.load(handle)
        assert golden["report"]["alerts"]
        assert actual == golden
