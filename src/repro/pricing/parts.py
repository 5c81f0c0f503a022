"""Per-iteration cost decomposition shared by every pricing backend."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple


@dataclass(frozen=True)
class IterationParts:
    """One iteration's per-layer transfer/compute decomposition.

    The fault layer needs the split because faults act on *transfers*
    (bandwidth degradation, retries) while kernels keep running at
    nominal speed; with FlexGen overlap the slowdown only shows once a
    layer's (slowed) transfer outruns its compute, which is why
    :meth:`total_s` re-applies the per-layer ``max`` instead of
    scaling the summed total.
    """

    transfers: Tuple[float, ...]
    computes: Tuple[float, ...]
    overlap: bool

    #: Memos of :attr:`transfer_s` and the nominal :meth:`total_s`,
    #: filled on first read.  Not dataclass fields, so ``==``,
    #: ``hash`` and ``repr`` never see them.  Lazy on purpose:
    #: ``prewarm`` writes thousands of cells that are never read.
    _transfer_s: ClassVar[Optional[float]] = None
    _nominal_total_s: ClassVar[Optional[float]] = None

    @property
    def transfer_s(self) -> float:
        total = self._transfer_s
        if total is None:
            total = sum(self.transfers)
            object.__setattr__(self, "_transfer_s", total)
        return total

    @property
    def compute_s(self) -> float:
        return sum(self.computes)

    def total_s(self, transfer_scale: float = 1.0) -> float:
        """Iteration seconds with every transfer scaled by
        ``transfer_scale``; the nominal (``1.0``) total is summed
        once and then read back."""
        if transfer_scale != 1.0:
            return self._sum_layers(transfer_scale)
        total = self._nominal_total_s
        if total is None:
            total = self._sum_layers(1.0)
            object.__setattr__(self, "_nominal_total_s", total)
        return total

    def _sum_layers(self, transfer_scale: float) -> float:
        if self.overlap:
            return sum(
                max(transfer * transfer_scale, compute)
                for transfer, compute in zip(self.transfers, self.computes)
            )
        return sum(
            transfer * transfer_scale + compute
            for transfer, compute in zip(self.transfers, self.computes)
        )


@dataclass(frozen=True)
class KvParts:
    """One MHA layer's (load, store) times for the host-resident KV
    share of one iteration.

    Produced by the shared
    :func:`~repro.core.layercosts.kv_transfer_parts` arithmetic via
    ``kv_parts`` on either backend; ``repro.kv`` prices tier-resident
    reads/writes and migrations through the same solver paths.
    """

    read_s: float
    write_s: float

    @property
    def total_s(self) -> float:
        return self.read_s + self.write_s


@dataclass(frozen=True)
class FaultedIterationParts:
    """One iteration priced *through* the fault injector.

    ``parts`` carries the per-layer decomposition with every transfer
    already priced at its estimated virtual start time (slowdowns,
    retries, backoffs included); computes stay nominal — faults act on
    data movement, not kernels.
    """

    parts: IterationParts
    #: Layers whose transfer needed at least one retry.
    retried_layers: int = 0
    #: Virtual time spent in backoffs and wasted (failed) attempts.
    retry_overhead_s: float = 0.0

    def total_s(self) -> float:
        return self.parts.total_s()
