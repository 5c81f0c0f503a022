"""GPU memory accounting and maximum-batch-size search (Section V-C).

FlexGen's GPU footprint during a run is:

* the GPU-resident weights (at their on-wire size — compressed
  weights stay compressed at rest);
* double-buffered staging space for the streamed layers (Listing 1
  prefetches layer ``j+1`` while computing layer ``j``);
* fp16 scratch for on-the-fly dequantization when compression is on;
* the pre-allocated KV cache for ``prompt_len + gen_len`` tokens;
* hidden-state working buffers (dominated by the prefill FFN
  intermediate).

Maximizing the batch means maximizing what is left for the KV cache —
which is exactly why the All-CPU placement (weights: 0 bytes resident)
lifts OPT-175B's maximum batch from 8 to ~44.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.placement.base import PlacementResult, spill_to_fit
from repro.core.policy import Policy
from repro.devices.device import DeviceKind
from repro.devices.gpu import A100_SPEC, GpuSpec
from repro.errors import ConfigurationError
from repro.models.hidden import workspace_hidden_bytes
from repro.models.kv_cache import KvCachePlan


@dataclass(frozen=True)
class GpuMemoryPlan:
    """Byte-level budget of one run's GPU memory."""

    weights_bytes: int
    staging_bytes: int
    dequant_bytes: int
    kv_bytes: int
    hidden_bytes: int
    usable_bytes: int

    @property
    def total_bytes(self) -> int:
        return (
            self.weights_bytes
            + self.staging_bytes
            + self.dequant_bytes
            + self.kv_bytes
            + self.hidden_bytes
        )

    @property
    def fits(self) -> bool:
        return self.total_bytes <= self.usable_bytes

    @property
    def free_bytes(self) -> int:
        return self.usable_bytes - self.total_bytes


def _weight_terms(
    placement: PlacementResult, policy: Policy
) -> Tuple[int, int, int]:
    """The batch-independent part of a GPU plan: resident weights,
    staging and dequant scratch bytes."""
    ratio = policy.compression.ratio
    max_layer = max(layer.total_bytes for layer in placement.layers)
    return (
        int(placement.tier_total_bytes(DeviceKind.GPU) * ratio),
        int(2 * max_layer * ratio),
        2 * max_layer if policy.compress_weights else 0,
    )


def _kv_plan(
    config, policy: Policy, batch_size: int, prompt_len: int, gen_len: int
) -> KvCachePlan:
    # The KV cache covers every micro-batch of the zig-zag block.
    return KvCachePlan(
        config=config,
        batch_size=batch_size * policy.num_gpu_batches,
        prompt_len=prompt_len,
        gen_len=gen_len,
        dtype_bytes=policy.kv_dtype_bytes,
    )


def _plan_at(
    config,
    policy: Policy,
    weight_terms: Tuple[int, int, int],
    batch_size: int,
    prompt_len: int,
    gen_len: int,
    gpu_spec: GpuSpec,
) -> GpuMemoryPlan:
    """One batch's plan on top of precomputed :func:`_weight_terms`."""
    weights, staging, dequant = weight_terms
    # Only the KV cache's GPU share is resident in HBM.
    kv_plan = _kv_plan(config, policy, batch_size, prompt_len, gen_len)
    kv = int(kv_plan.total_bytes * (policy.kv_gpu_percent / 100.0))
    hidden = (
        workspace_hidden_bytes(config, batch_size, prompt_len)
        if policy.hidden_device is DeviceKind.GPU
        else 0
    )
    return GpuMemoryPlan(
        weights_bytes=weights,
        staging_bytes=staging,
        dequant_bytes=dequant,
        kv_bytes=kv,
        hidden_bytes=hidden,
        usable_bytes=gpu_spec.usable_bytes,
    )


def gpu_memory_plan(
    placement: PlacementResult,
    policy: Policy,
    batch_size: int,
    prompt_len: int,
    gen_len: int,
    gpu_spec: GpuSpec = A100_SPEC,
) -> GpuMemoryPlan:
    """Budget for one run with a *fixed* placement."""
    if batch_size <= 0:
        raise ConfigurationError("batch size must be positive")
    return _plan_at(
        placement.config,
        policy,
        _weight_terms(placement, policy),
        batch_size,
        prompt_len,
        gen_len,
        gpu_spec,
    )


def _host_bytes_at(
    config,
    policy: Policy,
    cpu_weight_bytes: float,
    batch_size: int,
    prompt_len: int,
    gen_len: int,
) -> int:
    """One batch's host footprint on top of the (on-wire) host-resident
    weight bytes."""
    kv_plan = _kv_plan(config, policy, batch_size, prompt_len, gen_len)
    kv = kv_plan.total_bytes * policy.kv_cpu_fraction
    return int(cpu_weight_bytes + kv)


def host_memory_bytes(
    placement: PlacementResult,
    policy: Policy,
    batch_size: int,
    prompt_len: int,
    gen_len: int,
) -> int:
    """Host-memory footprint of one run: resident weight shares plus
    the host-resident KV share."""
    ratio = policy.compression.ratio
    return _host_bytes_at(
        placement.config,
        policy,
        placement.tier_total_bytes(DeviceKind.CPU) * ratio,
        batch_size,
        prompt_len,
        gen_len,
    )


def max_batch_size(
    placement: PlacementResult,
    policy: Policy,
    prompt_len: int,
    gen_len: int,
    gpu_spec: GpuSpec = A100_SPEC,
    limit: int = 512,
    host_capacity_bytes: int = None,
) -> int:
    """Largest batch a fixed placement supports (0 if even batch 1
    does not fit).

    GPU memory is always the binding constraint for the paper's
    configurations; ``host_capacity_bytes`` additionally bounds runs
    that offload the KV cache to host memory.

    The placement-only terms (tier totals, largest layer) are summed
    once per search; only the KV and hidden terms vary with the batch.
    """
    config = placement.config
    weight_terms = _weight_terms(placement, policy)
    if host_capacity_bytes is not None:
        cpu_weight_bytes = (
            placement.tier_total_bytes(DeviceKind.CPU)
            * policy.compression.ratio
        )
    best = 0
    for batch in range(1, limit + 1):
        plan = _plan_at(
            config, policy, weight_terms, batch, prompt_len, gen_len,
            gpu_spec,
        )
        if not plan.fits:
            break
        if host_capacity_bytes is not None:
            host = _host_bytes_at(
                config, policy, cpu_weight_bytes, batch, prompt_len,
                gen_len,
            )
            if host > host_capacity_bytes:
                break
        best = batch
    return best


def fit_placement_for_batch(
    placement: PlacementResult,
    policy: Policy,
    batch_size: int,
    prompt_len: int,
    gen_len: int,
    gpu_spec: GpuSpec = A100_SPEC,
):
    """Spill GPU weight classes until the run fits at ``batch_size``.

    Mutates ``placement`` and returns the spill log (empty when the
    placement already fits).  Raises
    :class:`~repro.errors.PlacementError` via ``spill_to_fit`` if even
    an all-host placement cannot fit (KV cache alone too large).
    """
    plan = gpu_memory_plan(
        placement, policy, batch_size, prompt_len, gen_len, gpu_spec
    )
    if plan.fits:
        return []
    ratio = policy.compression.ratio
    non_weight = (
        plan.staging_bytes + plan.dequant_bytes + plan.kv_bytes + plan.hidden_bytes
    )
    budget_onwire = gpu_spec.usable_bytes - non_weight
    # spill_to_fit compares against fp16 totals; convert the on-wire
    # budget back to fp16-equivalent bytes.
    budget_fp16 = int(budget_onwire / ratio) if budget_onwire > 0 else -1
    return spill_to_fit(placement, budget_fp16)
