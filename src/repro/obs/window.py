"""Windowed instruments: histograms and rates over virtual time.

The plain :class:`~repro.telemetry.registry.Histogram` accumulates
over a whole run — good for post-hoc percentiles, useless for "what
is TTFT p99 *right now*".  :class:`WindowedHistogram` keeps a ring of
per-window bucket snapshots keyed by virtual time: window ``i``
covers ``[i * width_s, (i + 1) * width_s)``, observations land in the
window their timestamp selects, and only the most recent ``windows``
windows are retained.  Percentiles over "the last K windows" are then
pure arithmetic over bucket counts — no raw samples are ever stored.

Everything here follows the telemetry design rules: virtual-time
timestamps supplied by the caller, no wall-clock reads, deterministic
snapshots, and replica mergeability — windows align on their absolute
index (``floor(time / width)``), so per-replica instruments observing
disjoint request streams fold into exactly the instrument one merged
stream would have produced (``tests/obs/test_window.py`` pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, TelemetryError
from repro.telemetry.registry import (
    DEFAULT_TIME_BUCKETS,
    bucket_quantile,
)


@dataclass(frozen=True)
class WindowConfig:
    """Shape of one windowed instrument family.

    ``width_s`` is the window width in *virtual* seconds; ``windows``
    is the ring size (how many trailing windows stay addressable).
    """

    width_s: float = 60.0
    windows: int = 16

    def __post_init__(self) -> None:
        if self.width_s <= 0:
            raise ConfigurationError(
                f"window width must be positive, got {self.width_s}"
            )
        if self.windows < 2:
            raise ConfigurationError(
                f"need at least 2 ring windows, got {self.windows}"
            )

    def index(self, time_s: float) -> int:
        """The absolute window index containing virtual time."""
        return int(time_s // self.width_s)

    def to_dict(self) -> Dict[str, object]:
        return {"width_s": self.width_s, "windows": self.windows}

    @classmethod
    def from_dict(cls, data: Mapping) -> "WindowConfig":
        return cls(
            width_s=float(data.get("width_s", 60.0)),
            windows=int(data.get("windows", 16)),
        )


@dataclass
class _Window:
    """One live window's histogram state."""

    index: int
    counts: List[int]
    sum: float = 0.0
    count: int = 0
    min: float = 0.0
    max: float = 0.0

    def observe(self, value: float, bucket: int) -> None:
        self.counts[bucket] += 1
        self.sum += value
        if self.count == 0:
            self.min = self.max = value
        else:
            self.min = min(self.min, value)
            self.max = max(self.max, value)
        self.count += 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }


class _Ring:
    """Eviction and memoized readings, shared by both instruments.

    A reading is a function of the retained windows and its end index,
    so it is cached by key for the current end index only, and every
    mutation drops the cache: a hit is always the value a
    recomputation would give.
    """

    _memo_end: Optional[int] = None

    def _end(self, now: Optional[float]) -> int:
        return self._latest if now is None else self.config.index(now)

    def _evict(self) -> None:
        """Drop the cache and every window off the trailing edge."""
        self._memo_end = None
        floor = self._latest - self.config.windows + 1
        for stale in [i for i in self._windows if i < floor]:
            del self._windows[stale]

    def _reading(self, end: int, key, compute: Callable[[], object]):
        if end != self._memo_end:
            self._memo_end, self._readings = end, {}
        value = self._readings.get(key)
        if value is None:
            value = self._readings[key] = compute()
        return value


class WindowedHistogram(_Ring):
    """Ring of per-window explicit-bucket histograms over virtual time.

    Observations may arrive for any *retained* window (the scheduler
    finishes requests at iteration boundaries, slightly after their
    logical event times); anything older than the ring falls off the
    trailing edge and is counted in :attr:`dropped` rather than
    silently lost.
    """

    def __init__(
        self,
        name: str,
        config: WindowConfig = WindowConfig(),
        buckets: Tuple[float, ...] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise TelemetryError(
                f"windowed histogram {name!r}: buckets must be a "
                f"strictly increasing non-empty sequence"
            )
        self.name = name
        self.config = config
        self.buckets = tuple(float(b) for b in buckets)
        #: index -> window, only the trailing ``config.windows`` kept.
        self._windows: Dict[int, _Window] = {}
        self._latest: int = -1
        self.dropped: int = 0

    # -- recording ------------------------------------------------------

    def _bucket(self, value: float) -> int:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                return i
        return len(self.buckets)

    def rotate(self, time_s: float) -> None:
        """Advance the ring so ``time_s`` has a live window; evict
        windows that fell off the trailing edge."""
        index = self.config.index(time_s)
        if index > self._latest:
            self._latest = index
        self._evict()

    def observe(self, value: float, time_s: float) -> None:
        value = float(value)
        self.rotate(time_s)
        index = self.config.index(time_s)
        if index <= self._latest - self.config.windows:
            self.dropped += 1
            return
        self._window(index).observe(value, self._bucket(value))

    def _window(self, index: int) -> _Window:
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = _Window(
                index=index, counts=[0] * (len(self.buckets) + 1)
            )
        return window

    # -- reading --------------------------------------------------------

    def recent(self, k: int, now: Optional[float] = None) -> Dict[str, object]:
        """The last ``k`` windows (ending at ``now``'s window, or the
        latest observed) merged into one histogram-shaped dict."""
        merged = self._merged(k, self._end(now))
        return dict(
            merged, buckets=list(self.buckets), counts=list(merged["counts"])
        )

    def _merged(self, k: int, end: int) -> Dict[str, object]:
        """:meth:`recent`'s memoized reading; callers never mutate it."""
        return self._reading(end, k, lambda: self._merge_windows(k, end))

    def _merge_windows(self, k: int, end: int) -> Dict[str, object]:
        if k < 1:
            raise ConfigurationError("need at least one window")
        counts = [0] * (len(self.buckets) + 1)
        total = 0
        total_sum = 0.0
        lo = 0.0
        hi = 0.0
        for index in range(end - k + 1, end + 1):
            window = self._windows.get(index)
            if window is None or not window.count:
                continue
            for i, c in enumerate(window.counts):
                counts[i] += c
            if total == 0:
                lo, hi = window.min, window.max
            else:
                lo = min(lo, window.min)
                hi = max(hi, window.max)
            total += window.count
            total_sum += window.sum
        return {
            "buckets": self.buckets,
            "counts": counts,
            "count": total,
            "sum": total_sum,
            "min": lo,
            "max": hi,
        }

    def quantile(
        self, q: float, windows: int = 1, now: Optional[float] = None
    ) -> float:
        """Bucket-interpolated quantile over the last ``windows``."""
        end = self._end(now)

        def estimate() -> float:
            merged = self._merged(windows, end)
            return bucket_quantile(
                self.buckets,
                merged["counts"],
                q,
                count=merged["count"],
                min_value=merged["min"],
                max_value=merged["max"],
            )

        return self._reading(end, (q, windows), estimate)

    def rate(self, windows: int = 1, now: Optional[float] = None) -> float:
        """Observations per virtual second over the last ``windows``."""
        count = self._merged(windows, self._end(now))["count"]
        return count / (windows * self.config.width_s)

    # -- snapshots / merge ---------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "config": self.config.to_dict(),
            "buckets": list(self.buckets),
            "latest": self._latest,
            "dropped": self.dropped,
            "windows": [
                self._windows[index].as_dict()
                for index in sorted(self._windows)
            ],
        }

    def merge(self, snapshot: Mapping) -> None:
        """Fold another instrument's snapshot into this one.

        Windows align on their absolute index, so merging replicas
        that observed disjoint slices of one stream reproduces the
        single-instrument result exactly.  Mismatched buckets or
        window width are configuration errors, as in
        :meth:`repro.telemetry.MetricsRegistry.merge`.
        """
        if tuple(snapshot["buckets"]) != self.buckets:
            raise ConfigurationError(
                f"windowed histogram {self.name!r}: cannot merge "
                f"mismatched buckets"
            )
        other = WindowConfig.from_dict(snapshot["config"])
        if other.width_s != self.config.width_s:
            raise ConfigurationError(
                f"windowed histogram {self.name!r}: cannot merge "
                f"window width {other.width_s} into {self.config.width_s}"
            )
        self.dropped += int(snapshot.get("dropped", 0))
        self._latest = max(self._latest, int(snapshot.get("latest", -1)))
        for entry in snapshot.get("windows", ()):
            window = self._window(int(entry["index"]))
            for i, c in enumerate(entry["counts"]):
                window.counts[i] += c
            if entry["count"]:
                if window.count == 0:
                    window.min = entry["min"]
                    window.max = entry["max"]
                else:
                    window.min = min(window.min, entry["min"])
                    window.max = max(window.max, entry["max"])
            window.sum += entry["sum"]
            window.count += entry["count"]
        self._evict()

    @classmethod
    def from_snapshot(cls, snapshot: Mapping) -> "WindowedHistogram":
        instrument = cls(
            snapshot.get("name", ""),
            config=WindowConfig.from_dict(snapshot["config"]),
            buckets=tuple(snapshot["buckets"]),
        )
        instrument.merge(snapshot)
        return instrument


class RollingCounter(_Ring):
    """Per-window event counts: the arrival-rate gauge's backbone.

    A degenerate :class:`WindowedHistogram` would do, but a plain
    ``Dict[int, float]`` ring is cheaper on the per-arrival hot path.
    An event older than the ring counts in :attr:`total` only.
    """

    def __init__(
        self, name: str, config: WindowConfig = WindowConfig()
    ) -> None:
        self.name = name
        self.config = config
        self._windows: Dict[int, float] = {}
        self._latest: int = -1
        self.total: float = 0.0

    def inc(self, time_s: float, amount: float = 1.0) -> None:
        self._memo_end = None
        self.total += amount
        index = self.config.index(time_s)
        if index > self._latest:
            self._latest = index
            self._evict()
        elif index <= self._latest - self.config.windows:
            return
        self._windows[index] = self._windows.get(index, 0.0) + amount

    def count(self, windows: int = 1, now: Optional[float] = None) -> float:
        end = self._end(now)
        return self._reading(end, windows, lambda: self._sum(windows, end))

    def _sum(self, windows: int, end: int) -> float:
        return sum(
            self._windows.get(index, 0.0)
            for index in range(end - windows + 1, end + 1)
        )

    def rate(self, windows: int = 1, now: Optional[float] = None) -> float:
        """Events per virtual second over the last ``windows``."""
        return self.count(windows, now=now) / (
            windows * self.config.width_s
        )

    def snapshot(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "config": self.config.to_dict(),
            "latest": self._latest,
            "total": self.total,
            "windows": {
                str(index): self._windows[index]
                for index in sorted(self._windows)
            },
        }

    def merge(self, snapshot: Mapping) -> None:
        other = WindowConfig.from_dict(snapshot["config"])
        if other.width_s != self.config.width_s:
            raise ConfigurationError(
                f"rolling counter {self.name!r}: cannot merge window "
                f"width {other.width_s} into {self.config.width_s}"
            )
        self._latest = max(self._latest, int(snapshot.get("latest", -1)))
        windows = snapshot.get("windows", {})
        # The cumulative total includes what already rotated out of the
        # remote ring; fold it whole, not just the retained windows.
        self.total += float(
            snapshot.get("total", sum(windows.values()))
        )
        for key, value in windows.items():
            index = int(key)
            self._windows[index] = self._windows.get(index, 0.0) + value
        self._evict()
