"""IterationParts memoizes its nominal total and transfer sum: every
read equals the unmemoized per-layer expression float for float, and
the memo is invisible to ``==``, ``hash`` and ``repr``."""

import copy
import pickle

import pytest

from repro.core.engine import OffloadEngine
from repro.core.metrics import Stage
from repro.core.placement.sharding import ShardedPlacement
from repro.fleet.costs import ShardedCostModel
from repro.pricing import AnalyticBackend, IterationParts
from repro.serve.costs import FixedCostModel

SCALES = (0.5, 2.0, 16.0, 1.0 + 2 ** -52)


def reference_total(parts, transfer_scale=1.0):
    """The per-layer ``max``/sum, exactly as it was before the memo."""
    if parts.overlap:
        return sum(
            max(transfer * transfer_scale, compute)
            for transfer, compute in zip(parts.transfers, parts.computes)
        )
    return sum(
        transfer * transfer_scale + compute
        for transfer, compute in zip(parts.transfers, parts.computes)
    )


def assert_memo_exact(parts):
    expected_total = reference_total(parts)
    expected_transfer = sum(parts.transfers)
    for _ in range(3):
        assert parts.total_s() == expected_total
        assert parts.total_s(1.0) == expected_total
        assert parts.transfer_s == expected_transfer
    for scale in SCALES:
        assert parts.total_s(scale) == reference_total(parts, scale)


@pytest.fixture(scope="module")
def engine():
    return OffloadEngine(model="opt-6.7b", host="CXL-ASIC", placement="helm")


@pytest.fixture(scope="module")
def grid_parts(engine):
    spec = engine.run_spec(batch_size=1, include_faults=False)
    grid = AnalyticBackend().cost_grid(spec)
    decode = grid.evaluate(Stage.DECODE, [1, 4], [64, 512])
    return [decode.parts_at(i, j) for i in range(2) for j in range(2)]


def test_scalar_parts(engine):
    spec = engine.run_spec(batch_size=4, include_faults=False)
    backend = AnalyticBackend()
    for stage, context in ((Stage.PREFILL, 128), (Stage.DECODE, 640)):
        assert_memo_exact(backend.iteration_parts(spec, stage, context))


def test_serial_parts(engine):
    spec = engine.run_spec(batch_size=2, overlap=False, include_faults=False)
    parts = AnalyticBackend().iteration_parts(spec, Stage.DECODE, 256)
    assert not parts.overlap
    assert_memo_exact(parts)


def test_grid_parts(grid_parts):
    for parts in grid_parts:
        assert_memo_exact(parts)


def test_sharded_combined_parts(engine):
    tp2 = ShardedCostModel(
        engine, ShardedPlacement.plan(engine.placement_result, 2, 1)
    )
    assert_memo_exact(tp2.decode_parts(4, 300))
    assert_memo_exact(tp2.prefill_parts(2, 96))


def test_fixed_cost_model_parts():
    fixed = FixedCostModel(prefill_s=1.3, decode_s=0.7, transfer_fraction=0.3)
    assert_memo_exact(fixed.prefill_parts(1, 16))
    assert_memo_exact(fixed.decode_parts(1, 16))


def test_scaled_totals_unchanged_after_memo_fills():
    parts = IterationParts(
        transfers=(0.1, 0.4, 0.25), computes=(0.3, 0.2, 0.25), overlap=True
    )
    before = {scale: parts.total_s(scale) for scale in SCALES}
    parts.total_s()
    after = {scale: parts.total_s(scale) for scale in SCALES}
    assert after == before
    # The scaled per-layer max is not the scaled total.
    assert parts.total_s(2.0) != 2.0 * parts.total_s()


def test_memo_invisible_to_eq_hash_repr():
    fields = dict(transfers=(0.1, 0.4), computes=(0.3, 0.2), overlap=True)
    read = IterationParts(**fields)
    fresh = IterationParts(**fields)
    text, digest = repr(read), hash(read)
    read.total_s()
    read.transfer_s
    assert read == fresh and fresh == read
    assert hash(read) == hash(fresh) == digest
    assert repr(read) == repr(fresh) == text
    assert len({read, fresh}) == 1


def test_memo_survives_copy_and_pickle_consistently():
    parts = IterationParts(
        transfers=(0.1, 0.4), computes=(0.3, 0.2), overlap=True
    )
    total = parts.total_s()
    for clone in (
        copy.copy(parts),
        copy.deepcopy(parts),
        pickle.loads(pickle.dumps(parts)),
    ):
        assert clone == parts
        assert clone.total_s() == total
        assert clone.transfer_s == sum(parts.transfers)
