"""Windowed instruments: quantiles, rotation, replica mergeability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs import RollingCounter, WindowConfig, WindowedHistogram
from repro.telemetry.registry import Histogram, bucket_quantile


class TestHistogramQuantile:
    """``Histogram.quantile`` against ``numpy.percentile`` ground truth.

    Bucket interpolation can only be as sharp as its bucket edges, so
    the agreement bound is one bucket width.
    """

    BUCKETS = tuple(np.linspace(0.1, 10.0, 100))

    def _histogram(self, samples):
        histogram = Histogram("h", buckets=self.BUCKETS)
        for value in samples:
            histogram.observe(float(value))
        return histogram

    def test_uniform(self):
        rng = np.random.default_rng(0)
        samples = rng.uniform(0.5, 9.5, size=4000)
        histogram = self._histogram(samples)
        for q in (0.5, 0.9, 0.99):
            assert histogram.quantile(q) == pytest.approx(
                np.percentile(samples, q * 100), abs=0.2
            )

    def test_bimodal(self):
        rng = np.random.default_rng(1)
        samples = np.concatenate(
            [
                rng.normal(1.0, 0.05, size=2000),
                rng.normal(8.0, 0.05, size=2000),
            ]
        ).clip(0.2, 9.8)
        histogram = self._histogram(samples)
        for q in (0.25, 0.4, 0.75, 0.99):
            assert histogram.quantile(q) == pytest.approx(
                np.percentile(samples, q * 100), abs=0.2
            )
        # The median of an exactly split bimodal is any point of the
        # inter-mode gap; the estimator must stay inside it.
        assert samples[samples < 4].max() <= histogram.quantile(
            0.5
        ) + 0.2 and histogram.quantile(0.5) <= samples[samples > 4].min()

    def test_single_bucket_mass(self):
        """All mass in one bucket degrades to the observed extrema,
        not the bucket edges."""
        histogram = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for _ in range(50):
            histogram.observe(4.2)
        assert histogram.quantile(0.0) == pytest.approx(4.2)
        assert histogram.quantile(0.5) == pytest.approx(4.2)
        assert histogram.quantile(1.0) == pytest.approx(4.2)

    def test_empty_is_zero(self):
        assert Histogram("h").quantile(0.99) == 0.0

    def test_overflow_bucket_answers_max(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(5.0)
        histogram.observe(7.0)
        assert histogram.quantile(1.0) == pytest.approx(7.0)


class TestWindowConfig:
    def test_absolute_indexing(self):
        config = WindowConfig(width_s=60.0)
        assert config.index(0.0) == 0
        assert config.index(59.999) == 0
        assert config.index(60.0) == 1
        assert config.index(3600.0) == 60

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WindowConfig(width_s=0.0)
        with pytest.raises(ConfigurationError):
            WindowConfig(windows=1)


class TestWindowedHistogram:
    def test_recent_merges_trailing_windows(self):
        instrument = WindowedHistogram(
            "ttft", config=WindowConfig(width_s=10.0, windows=4)
        )
        instrument.observe(1.0, time_s=5.0)
        instrument.observe(2.0, time_s=15.0)
        instrument.observe(3.0, time_s=25.0)
        assert instrument.recent(1, now=25.0)["count"] == 1
        assert instrument.recent(3, now=25.0)["count"] == 3
        # A later now leaves old windows out of the aggregate.
        assert instrument.recent(1, now=45.0)["count"] == 0

    def test_rotation_evicts_and_counts_drops(self):
        instrument = WindowedHistogram(
            "ttft", config=WindowConfig(width_s=10.0, windows=2)
        )
        instrument.observe(1.0, time_s=5.0)
        instrument.observe(2.0, time_s=95.0)  # rotates window 0 away
        instrument.observe(3.0, time_s=5.0)  # older than the ring
        assert instrument.dropped == 1
        assert instrument.recent(2, now=95.0)["count"] == 1

    def test_merge_disjoint_replicas_equals_single_stream(self):
        """Two replicas observing disjoint slices of one stream merge
        to exactly the instrument the full stream produces."""
        config = WindowConfig(width_s=10.0, windows=8)
        stream = [(0.5 * i, 12.0 + i) for i in range(20)]
        single = WindowedHistogram("ttft", config=config)
        a = WindowedHistogram("ttft", config=config)
        b = WindowedHistogram("ttft", config=config)
        for index, (value, time_s) in enumerate(stream):
            single.observe(value, time_s)
            (a if index % 2 else b).observe(value, time_s)
        a.merge(b.snapshot())
        assert a.snapshot() == single.snapshot()
        for q in (0.5, 0.99):
            assert a.quantile(q, windows=8, now=31.0) == single.quantile(
                q, windows=8, now=31.0
            )

    def test_merge_is_order_insensitive(self):
        config = WindowConfig(width_s=10.0, windows=8)
        parts = []
        for seed in (0, 1, 2):
            part = WindowedHistogram("ttft", config=config)
            for i in range(5):
                part.observe(seed + 0.1 * i, time_s=10.0 * seed + i)
            parts.append(part)
        forward = WindowedHistogram("ttft", config=config)
        for part in parts:
            forward.merge(part.snapshot())
        backward = WindowedHistogram("ttft", config=config)
        for part in reversed(parts):
            backward.merge(part.snapshot())
        assert forward.snapshot() == backward.snapshot()

    def test_merge_rejects_mismatched_shape(self):
        a = WindowedHistogram("ttft", buckets=(1.0, 2.0))
        b = WindowedHistogram("ttft", buckets=(1.0, 3.0))
        with pytest.raises(ConfigurationError):
            a.merge(b.snapshot())
        c = WindowedHistogram(
            "ttft", config=WindowConfig(width_s=30.0)
        )
        with pytest.raises(ConfigurationError):
            WindowedHistogram("ttft").merge(c.snapshot())

    def test_snapshot_round_trip(self):
        instrument = WindowedHistogram("ttft")
        instrument.observe(1.5, time_s=10.0)
        instrument.observe(2.5, time_s=70.0)
        clone = WindowedHistogram.from_snapshot(instrument.snapshot())
        assert clone.snapshot() == instrument.snapshot()


class TestRollingCounter:
    def test_windowed_counts_and_rates(self):
        counter = RollingCounter(
            "arrivals", WindowConfig(width_s=10.0, windows=4)
        )
        for time_s in (1.0, 2.0, 11.0, 21.0):
            counter.inc(time_s)
        assert counter.count(1, now=21.0) == 1
        assert counter.count(3, now=21.0) == 4
        assert counter.rate(2, now=21.0) == pytest.approx(2 / 20.0)
        assert counter.total == 4

    def test_merge_preserves_rotated_out_totals(self):
        """The cumulative total survives a merge even when the source
        ring already rotated its early windows away."""
        config = WindowConfig(width_s=10.0, windows=2)
        source = RollingCounter("completions", config)
        for time_s in (5.0, 15.0, 95.0):
            source.inc(time_s)
        assert source.total == 3  # ring only retains the last window
        target = RollingCounter("completions", config)
        target.inc(96.0)
        target.merge(source.snapshot())
        assert target.total == 4
        assert target.count(1, now=96.0) == 2

    def test_merge_disjoint_equals_single(self):
        config = WindowConfig(width_s=10.0, windows=8)
        single = RollingCounter("arrivals", config)
        a = RollingCounter("arrivals", config)
        b = RollingCounter("arrivals", config)
        for i in range(12):
            single.inc(i * 3.0)
            (a if i % 2 else b).inc(i * 3.0)
        a.merge(b.snapshot())
        assert a.snapshot() == single.snapshot()

    def test_late_event_counts_in_total_only(self):
        """An event older than the ring is counted but not stored, so
        a snapshot merged into a fresh counter reproduces it."""
        config = WindowConfig(width_s=1.0, windows=2)
        counter = RollingCounter("arrivals", config)
        counter.inc(10.0)
        counter.inc(0.5)
        snapshot = counter.snapshot()
        assert snapshot["windows"] == {"10": 1.0}
        assert counter.total == 2.0
        clone = RollingCounter("arrivals", config)
        clone.merge(snapshot)
        assert clone.snapshot() == snapshot
        assert clone.count(2, now=10.0) == counter.count(2, now=10.0) == 1.0


class TestMemoizedReadings:
    """Memoized readings equal a recomputation, whatever came before.

    Instruments are driven through random interleavings of events (in
    the ring and older than it), merges and readings at random times;
    every reading, first a miss and then a hit, must be float-equal to
    the same reading from a fresh instrument rebuilt from
    ``snapshot()``.
    """

    BUCKETS = (1.0, 2.0, 5.0, 10.0)
    #: 4 windows of 10 s over a 60 s span: a time 40 s back is late.
    CONFIG = WindowConfig(width_s=10.0, windows=4)
    TIMES = st.integers(0, 24).map(lambda i: i * 2.5)
    EVENTS = st.tuples(st.floats(0.0, 20.0), TIMES)
    OPS = st.lists(
        st.one_of(
            st.tuples(st.just("event"), EVENTS),
            st.tuples(st.just("merge"), st.lists(EVENTS, max_size=6)),
            st.tuples(st.just("read"), st.one_of(st.none(), TIMES)),
        ),
        max_size=40,
    )

    def _instruments(self, events=()):
        histogram = WindowedHistogram("h", self.CONFIG, self.BUCKETS)
        counter = RollingCounter("c", self.CONFIG)
        for value, time_s in events:
            histogram.observe(value, time_s)
            counter.inc(time_s, value)
        return histogram, counter

    def _check(self, histogram, counter, now):
        fresh = WindowedHistogram.from_snapshot(histogram.snapshot())
        fresh_counter = RollingCounter("c", self.CONFIG)
        fresh_counter.merge(counter.snapshot())
        for _ in range(2):  # misses, then hits
            for k in (1, 3, 6):
                merged = fresh.recent(k, now=now)
                assert histogram.recent(k, now=now) == merged
                for q in (0.0, 0.5, 0.99, 1.0):
                    quantile = histogram.quantile(q, windows=k, now=now)
                    assert quantile == fresh.quantile(q, windows=k, now=now)
                    assert quantile == bucket_quantile(
                        self.BUCKETS,
                        merged["counts"],
                        q,
                        count=merged["count"],
                        min_value=merged["min"],
                        max_value=merged["max"],
                    )
                assert histogram.rate(k, now=now) == fresh.rate(k, now=now)
                assert counter.count(k, now=now) == fresh_counter.count(
                    k, now=now
                )
                assert counter.rate(k, now=now) == fresh_counter.rate(
                    k, now=now
                )

    @settings(max_examples=200, deadline=None)
    @given(OPS)
    def test_fast_path_equals_rebuilt_instrument(self, ops):
        histogram, counter = self._instruments()
        for op, arg in ops:
            if op == "event":
                value, time_s = arg
                histogram.observe(value, time_s)
                counter.inc(time_s, value)
            elif op == "merge":
                other, other_counter = self._instruments(arg)
                histogram.merge(other.snapshot())
                counter.merge(other_counter.snapshot())
            else:
                self._check(histogram, counter, arg)
