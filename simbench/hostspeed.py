"""Host speed, sampled on the same core while a run executes.

On a shared machine the speed of the core swings by tens of percent
within a second, and it slows the simulator and any other Python code
alike.  :class:`SpeedSampler` interrupts the run every
:data:`PERIOD_S` seconds of wall time (``SIGALRM``) and times one
fixed :class:`Probe`.  Each phase of a run is then reported net of the
probes' own time and scaled by ``REFERENCE_S / median probe time``
over the probes taken during the phase and :data:`MARGIN_S` around
it: it reads as seconds on a host where the probe takes
:data:`REFERENCE_S`.

The probe uses no code from ``src/``, but it runs in the simulator's
process: it shares the core's caches, the allocator and the heap with
the simulator, so a change to the simulator's working set or
allocation pattern can move the probe, and with it every reported
time.  On a 2-vCPU Xeon VM, ten seeds of the four workloads run
interleaved gave median same-seed scale ratios to ``serve_steady`` of
0.99 (``serve_observed``), 1.01 (``fleet_prefix``) and 1.01
(``serve_degraded``), with quartiles between 0.91 and 1.15, although
the workloads' peak RSS ranges from 59 to 75 MB.  The runner prints
the median scale and the unscaled wall time to standard error: a
change whose scale differs from its parent's by more than that noise
is moving the probe, and its unscaled times are the ones to compare.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

PERIOD_S = 0.02
#: The probe walks a table of this many small objects (a few MB, more
#: than a core's private caches), so that it feels contention for the
#: shared cache as the simulator does, not only for the core.  The
#: table adds the same few MB to every untraced run's peak RSS.
TABLE_ITEMS = 32768
PROBE_LOOKUPS = 600
#: Probes this close to a phase also estimate its speed, so that a
#: phase shorter than a few periods still has a dozen samples.
MARGIN_S = 0.25
#: Median probe time on the host the benchmark was written on (a
#: 2-vCPU Xeon VM with CPython 3.11).
REFERENCE_S = 0.0004


class _Part:
    """A small object like the simulator's per-layer cost parts."""

    def __init__(self, transfer: float, compute: float) -> None:
        self.transfer = transfer
        self.compute = compute

    def total(self, scale: float) -> float:
        return max(self.transfer * scale, self.compute)


class Probe:
    """Fixed work in the simulator's mix: dict lookups, method calls,
    float arithmetic, object creation and a keyed sort."""

    def __init__(self) -> None:
        self.table = {
            key: _Part(key * 0.5, (key * 40503 % 7) * 1.0)
            for key in range(TABLE_ITEMS)
        }
        self.offset = 0

    def __call__(self) -> float:
        # Each call starts elsewhere in the table, so successive
        # probes touch different cache lines.
        start = self.offset
        self.offset = (start + 7919) % TABLE_ITEMS
        total = 0.0
        for step in range(PROBE_LOOKUPS):
            total += self.table[(start + step * 97) % TABLE_ITEMS].total(1.5)
        fresh = [_Part(index * 0.5, 1.0) for index in range(100)]
        fresh.sort(key=lambda part: (part.compute, part.transfer))
        return total


class SpeedSampler:
    """Times a :class:`Probe` every :data:`PERIOD_S` until stopped."""

    def __init__(self) -> None:
        self.probe = Probe()
        #: ``(start, duration)`` of every probe, in ``perf_counter`` time.
        self.samples: List[Tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        self.probe()
        self.samples.append((started, time.perf_counter() - started))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def net_s(self, start: float, end: float) -> float:
        """``end - start`` less the probes that started in between."""
        busy = sum(length for at, length in self.samples if start <= at < end)
        return end - start - busy

    def reference_s(self, start: float, end: float) -> float:
        """The phase ``[start, end)`` in reference seconds."""
        local = [
            length
            for at, length in self.samples
            if start - MARGIN_S <= at < end + MARGIN_S
        ]
        return self.net_s(start, end) * REFERENCE_S / statistics.median(local)

    def scale(self) -> float:
        """Factor from the whole run's host seconds to reference seconds."""
        return REFERENCE_S / statistics.median(
            length for _, length in self.samples
        )
