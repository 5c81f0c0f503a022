"""RunSpec: validation, identity hashing, shape siblings."""

import copy
import dataclasses
import pickle

import pytest

from repro.core.engine import OffloadEngine
from repro.errors import ConfigurationError
from repro.faults.models import DegradationWindow, FaultSchedule
from repro.pricing import RunSpec


@pytest.fixture(scope="module")
def engine():
    return OffloadEngine(
        model="opt-30b", host="NVDRAM", placement="helm",
        compress_weights=True, batch_size=2,
    )


def test_validation(engine):
    spec = engine.run_spec()
    with pytest.raises(ConfigurationError):
        spec.with_shape(batch_size=0)
    with pytest.raises(ConfigurationError):
        spec.with_shape(prompt_len=0)
    with pytest.raises(ConfigurationError):
        spec.with_shape(gen_len=-1)


def test_hash_and_eq_by_identity(engine):
    a = engine.run_spec()
    b = engine.run_spec()
    # Same live objects, same shape -> same key.
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # A different shape is a different key.
    assert a != a.with_shape(batch_size=a.batch_size + 1)
    # A replanned sibling engine carries new host/placement objects,
    # so its specs can never collide with the nominal engine's.
    sibling = engine.replan_for_degradation(host_slowdown=2.0)
    assert engine.run_spec() != sibling.run_spec()
    assert a != object()


def test_with_shape_preserves_platform(engine):
    spec = engine.run_spec()
    sized = spec.with_shape(batch_size=8, prompt_len=256, gen_len=64)
    assert sized.batch_size == 8
    assert sized.prompt_len == 256
    assert sized.gen_len == 64
    assert sized.host is spec.host
    assert sized.placement is spec.placement
    assert sized.policy == spec.policy


def test_fault_free_spec():
    schedule = FaultSchedule(
        faults=(
            DegradationWindow(
                target="host", slowdown=2.0, start_s=0.0, duration_s=10.0
            ),
        ),
        seed=1,
    )
    faulty_engine = OffloadEngine(
        model="opt-30b", host="NVDRAM", placement="helm",
        compress_weights=True, faults=schedule,
    )
    spec = faulty_engine.run_spec()
    assert not spec.fault_free
    stripped = spec.fault_free_spec()
    assert stripped.fault_free
    assert stripped.injector is None and stripped.retry is None
    assert stripped.placement is spec.placement
    # Already-clean specs pass through unchanged.
    assert stripped.fault_free_spec() is stripped
    # include_faults=False builds the nominal spec directly.
    assert faulty_engine.run_spec(include_faults=False).fault_free


def test_engine_run_spec_defaults(engine):
    spec = engine.run_spec()
    assert spec.batch_size == engine.batch_size
    assert spec.prompt_len == engine.prompt_len
    assert spec.gen_len == engine.gen_len
    assert spec.host is engine.host
    assert spec.placement is engine.placement_result
    assert spec.overlap
    assert not engine.run_spec(overlap=False).overlap


class TestStoredKey:
    """The key and hash are computed once, at construction; every way
    of making a new spec rebuilds them from the objects it holds."""

    @staticmethod
    def assert_key_matches_objects(spec):
        fresh = RunSpec(
            **{f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
        )
        assert spec.cache_key() == fresh.cache_key()
        assert hash(spec) == hash(fresh)
        assert spec == fresh
        assert spec.cache_key()[0] == id(spec.host)
        assert spec.cache_key()[1] == id(spec.placement)

    def test_shallow_copy_shares_objects_and_key(self, engine):
        spec = engine.run_spec()
        clone = copy.copy(spec)
        assert clone is not spec
        assert clone.host is spec.host
        self.assert_key_matches_objects(clone)
        assert clone == spec and hash(clone) == hash(spec)

    def test_deep_copy_never_inherits_stale_ids(self, engine):
        spec = engine.run_spec()
        clone = copy.deepcopy(spec)
        assert clone.host is not spec.host
        assert clone.placement is not spec.placement
        self.assert_key_matches_objects(clone)
        # New host/placement objects: a different cache key.
        assert clone != spec
        assert spec not in {clone}

    def test_pickle_round_trip_rebuilds_key(self, engine):
        spec = engine.run_spec()
        restored = pickle.loads(pickle.dumps(spec))
        self.assert_key_matches_objects(restored)
        assert restored != spec

    def test_replace_and_siblings_rebuild_key(self):
        schedule = FaultSchedule(
            faults=(
                DegradationWindow(
                    target="host", slowdown=2.0, start_s=0.0,
                    duration_s=10.0,
                ),
            ),
            seed=1,
        )
        faulty = OffloadEngine(
            model="opt-1.3b", host="DRAM", placement="allcpu",
            faults=schedule,
        )
        spec = faulty.run_spec()
        for sibling in (
            dataclasses.replace(spec, batch_size=3),
            dataclasses.replace(spec, injector=None),
            spec.with_shape(prompt_len=64),
            spec.fault_free_spec(),
        ):
            self.assert_key_matches_objects(sibling)
            assert sibling != spec
        assert spec.fault_free_spec().cache_key()[-1] is None
        # An identical replace is an equal key, as before.
        assert dataclasses.replace(spec) == spec


class TestInternedSpecs:
    def test_same_shape_same_object(self, engine):
        costs = engine.cost_model()
        assert costs._spec(4, 128) is costs._spec(4, 128)
        assert costs._spec(4, 128) is not costs._spec(4, 160)
        assert costs._spec(4, 128) == engine.run_spec(
            batch_size=4, prompt_len=128, include_faults=False
        )

    def test_every_iteration_prices_under_the_interned_spec(self, engine):
        costs = engine.cost_model()
        before = costs.cache.stats
        costs.decode_time(2, 300)
        costs.decode_time(2, 300)
        costs.prefill_time(2, 100)
        after = costs.cache.stats
        # The cache is still consulted once per iteration.
        assert after.lookups - before.lookups == 3
        keys = [key[0] for key in costs.cache._entries]
        assert any(key is costs._spec(2, engine.prompt_len) for key in keys)

    def test_replanned_engine_gets_new_specs(self, engine):
        nominal = engine.cost_model()._spec(2, 128)
        replanned = engine.replan_for_degradation(host_slowdown=2.0)
        degraded = replanned.cost_model()._spec(2, 128)
        assert degraded is not nominal
        assert degraded != nominal
        assert degraded.host is replanned.host
