"""The batch-size search sums placement bytes once per search, and
finds exactly the batch the per-batch plan loop finds."""

import pytest

from repro.core.batching import max_batch_size
from repro.core.placement.allcpu import AllCpuPlacement
from repro.core.placement.base import PlacementResult
from repro.core.placement.baseline import BaselinePlacement
from repro.core.placement.helm import HelmPlacement
from repro.core.policy import HOST_GPU_POLICY, OPT30B_POLICY
from repro.devices.device import DeviceKind
from repro.devices.gpu import A100_SPEC
from repro.models.config import opt_config
from repro.models.hidden import workspace_hidden_bytes
from repro.models.kv_cache import KvCachePlan

PLACEMENTS = {
    "helm": HelmPlacement,
    "allcpu": AllCpuPlacement,
    "baseline": BaselinePlacement,
}

POLICIES = {
    "fp16": HOST_GPU_POLICY,
    "compressed": HOST_GPU_POLICY.with_compression(True),
    "kv-offload": HOST_GPU_POLICY.with_kv(gpu_percent=25),
    "kv-offload-compressed": (
        OPT30B_POLICY.with_compression(True)
        .with_kv(gpu_percent=50, compress=True)
        .with_gpu_batches(2)
    ),
}


def _kv_total(placement, policy, batch, prompt_len, gen_len):
    return KvCachePlan(
        config=placement.config,
        batch_size=batch * policy.num_gpu_batches,
        prompt_len=prompt_len,
        gen_len=gen_len,
        dtype_bytes=policy.kv_dtype_bytes,
    ).total_bytes


def reference_fits(placement, policy, batch, prompt_len, gen_len):
    """The per-batch GPU plan, summed from the placement every time."""
    ratio = policy.compression.ratio
    max_layer = max(layer.total_bytes for layer in placement.layers)
    total = (
        int(placement.tier_total_bytes(DeviceKind.GPU) * ratio)
        + int(2 * max_layer * ratio)
        + (2 * max_layer if policy.compress_weights else 0)
        + int(
            _kv_total(placement, policy, batch, prompt_len, gen_len)
            * (policy.kv_gpu_percent / 100.0)
        )
        + (
            workspace_hidden_bytes(placement.config, batch, prompt_len)
            if policy.hidden_device is DeviceKind.GPU
            else 0
        )
    )
    return total <= A100_SPEC.usable_bytes


def reference_host_bytes(placement, policy, batch, prompt_len, gen_len):
    weights = (
        placement.tier_total_bytes(DeviceKind.CPU) * policy.compression.ratio
    )
    kv = (
        _kv_total(placement, policy, batch, prompt_len, gen_len)
        * policy.kv_cpu_fraction
    )
    return int(weights + kv)


def reference_max_batch(
    placement, policy, prompt_len, gen_len, limit=512,
    host_capacity_bytes=None,
):
    best = 0
    for batch in range(1, limit + 1):
        if not reference_fits(placement, policy, batch, prompt_len, gen_len):
            break
        if host_capacity_bytes is not None and (
            reference_host_bytes(placement, policy, batch, prompt_len, gen_len)
            > host_capacity_bytes
        ):
            break
        best = batch
    return best


@pytest.fixture(scope="module", params=["opt-6.7b", "opt-30b", "opt-175b"])
def placements(request):
    config = opt_config(request.param)
    return {
        (name, policy_name): (
            algorithm().place_model(config, policy),
            policy,
        )
        for name, algorithm in PLACEMENTS.items()
        for policy_name, policy in POLICIES.items()
    }


@pytest.mark.parametrize("placement_name", sorted(PLACEMENTS))
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_matches_per_batch_loop(placements, placement_name, policy_name):
    placement, policy = placements[(placement_name, policy_name)]
    for prompt_len, gen_len in ((128, 21), (512, 32)):
        assert max_batch_size(
            placement, policy, prompt_len, gen_len
        ) == reference_max_batch(placement, policy, prompt_len, gen_len)


@pytest.mark.parametrize("placement_name", sorted(PLACEMENTS))
def test_binding_host_capacity(placements, placement_name):
    bound = 0
    for policy_name in ("kv-offload", "kv-offload-compressed"):
        placement, policy = placements[(placement_name, policy_name)]
        unbounded = reference_max_batch(placement, policy, 128, 21)
        if unbounded < 2:
            continue
        # A host one byte short of the footprint at half the GPU-bound
        # batch: the host, not the GPU, must stop the search.
        target = unbounded // 2
        capacity = (
            reference_host_bytes(placement, policy, target, 128, 21) - 1
        )
        expected = reference_max_batch(
            placement, policy, 128, 21, host_capacity_bytes=capacity
        )
        assert expected == target - 1
        assert max_batch_size(
            placement, policy, 128, 21, host_capacity_bytes=capacity
        ) == expected
        # A roomy host changes nothing.
        assert max_batch_size(
            placement, policy, 128, 21, host_capacity_bytes=2 ** 60
        ) == unbounded
        bound += 1
    assert bound >= 1


def test_placement_totals_read_once_per_search(placements, monkeypatch):
    placement, policy = placements[("allcpu", "kv-offload")]
    reads = []
    original = PlacementResult.tier_total_bytes

    def counting(self, tier):
        reads.append(tier)
        return original(self, tier)

    monkeypatch.setattr(PlacementResult, "tier_total_bytes", counting)
    counts = {}
    for limit in (4, 64, 512):
        reads.clear()
        found = max_batch_size(
            placement, policy, 128, 21, limit=limit,
            host_capacity_bytes=2 ** 60,
        )
        assert found >= min(limit, 4)
        counts[limit] = len(reads)
    assert counts[4] == counts[64] == counts[512] <= 2
