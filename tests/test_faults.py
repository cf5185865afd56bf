"""FaultyStore: seeded injection, protocol conformance, typed failures."""

import numpy as np
import pytest

from repro.kvstore.device import get_device
from repro.kvstore.faults import (
    ALL_FAULT_KINDS,
    FaultConfig,
    FaultKind,
    FaultyStore,
    StoreFault,
    StoreReadTimeout,
    StoreUnavailable,
)
from repro.kvstore.hierarchy import TieredKVStore
from repro.kvstore.protocol import ChunkStore
from repro.kvstore.serialization import (
    KVBlob,
    KVCorruptionError,
    deserialize_kv,
    serialize_kv,
)
from repro.kvstore.store import KVCacheStore
from repro.model.tensors import KVCache, LayerKV


def _blob(seed: int, n_tokens: int = 4) -> KVBlob:
    ids = np.arange(seed * 100, seed * 100 + n_tokens, dtype=np.int64)
    rows = np.full((n_tokens, 1, 2), float(seed), dtype=np.float32)
    cache = KVCache([LayerKV(rows.copy(), rows.copy())], ids, np.arange(n_tokens))
    return KVBlob(serialize_kv(cache))


def _faulty(rate=1.0, kinds=ALL_FAULT_KINDS, seed=0, **config_kw) -> FaultyStore:
    inner = KVCacheStore(device=get_device("cpu_ram"))
    inner.put("a", _blob(1))
    return FaultyStore(inner, FaultConfig(rate=rate, kinds=kinds, seed=seed, **config_kw))


class TestFaultConfig:
    def test_rate_validated(self):
        with pytest.raises(ValueError, match="rate"):
            FaultConfig(rate=1.5)

    def test_kinds_validated(self):
        with pytest.raises(ValueError, match="kind"):
            FaultConfig(rate=0.1, kinds=())

    def test_slow_delay_validated(self):
        with pytest.raises(ValueError, match="slow_read_delay_s"):
            FaultConfig(rate=0.1, slow_read_delay_s=-1.0)


class TestInjection:
    def test_zero_rate_is_transparent(self):
        store = _faulty(rate=0.0)
        found = store.lookup("a")
        assert found.hit
        assert store.fault_stats.total == 0

    def test_misses_never_fault(self):
        store = _faulty(rate=1.0)
        found = store.lookup("never-stored")  # must not raise
        assert not found.hit
        assert store.fault_stats.total == 0

    def test_read_timeout_raises_typed(self):
        store = _faulty(kinds=(FaultKind.READ_TIMEOUT,))
        with pytest.raises(StoreReadTimeout):
            store.lookup("a")
        assert store.fault_stats.injected["read_timeout"] == 1

    def test_transient_miss_raises_typed(self):
        store = _faulty(kinds=(FaultKind.TRANSIENT_MISS,))
        with pytest.raises(StoreUnavailable):
            store.lookup("a")
        # The entry still exists: the failure was transient, not an evict.
        assert store.inner.contains("a")

    def test_corruption_trips_the_real_checksum(self):
        store = _faulty(kinds=(FaultKind.CORRUPT_PAYLOAD,))
        with pytest.raises(KVCorruptionError):
            store.lookup("a")

    def test_corruption_damages_a_copy_only(self):
        # The stored bytes stay intact, so a retry reads a clean entry.
        store = _faulty(kinds=(FaultKind.CORRUPT_PAYLOAD,))
        intact = bytes(store.inner.peek("a").data)
        with pytest.raises(KVCorruptionError):
            store.lookup("a")
        assert store.inner.peek("a").data == intact
        restored = deserialize_kv(store.inner.lookup("a").blob.data)
        np.testing.assert_array_equal(restored.token_ids, np.arange(100, 104))

    def test_corruption_draws_one_flip_offset(self):
        # Seeded fault sequences rest on the draws per fault: the fault roll,
        # the kind, then one flip offset below n_tokens * 8.
        store = _faulty(kinds=(FaultKind.CORRUPT_PAYLOAD,), seed=5)
        with pytest.raises(KVCorruptionError):
            store.lookup("a")
        replay = np.random.default_rng(5)
        replay.random()
        replay.integers(1)
        replay.integers(4 * 8)
        assert store._rng.random() == replay.random()

    def test_slow_read_inflates_the_delay_only(self):
        store = _faulty(kinds=(FaultKind.SLOW_READ,), slow_read_delay_s=0.25)
        clean = store.inner.lookup("a")
        slow = store.lookup("a")
        assert slow.hit
        assert slow.read_delay == pytest.approx(clean.read_delay + 0.25)
        assert slow.blob is clean.blob

    def test_typed_faults_share_a_base_class(self):
        assert issubclass(StoreReadTimeout, StoreFault)
        assert issubclass(StoreUnavailable, StoreFault)


class TestDeterminism:
    def test_same_seed_same_fault_sequence(self):
        def sequence(seed):
            store = _faulty(rate=0.5, seed=seed)
            outcomes = []
            for _ in range(40):
                try:
                    outcomes.append("hit" if store.lookup("a").hit else "miss")
                except StoreFault as fault:
                    outcomes.append(type(fault).__name__)
                except KVCorruptionError:
                    outcomes.append("corrupt")
            return outcomes

        assert sequence(3) == sequence(3)
        assert sequence(3) != sequence(4)

    def test_rate_roughly_respected(self):
        store = _faulty(rate=0.25, seed=1)
        faults = 0
        for _ in range(400):
            try:
                store.lookup("a")
            except (StoreFault, KVCorruptionError):
                faults += 1
        assert 60 <= faults <= 140  # ~100 expected

    def test_fault_stats_roll_up(self):
        store = _faulty(rate=1.0, seed=2)
        for _ in range(20):
            try:
                store.lookup("a")
            except (StoreFault, KVCorruptionError):
                pass
        stats = store.fault_stats.as_dict()
        assert stats["injected_total"] == store.fault_stats.lookups
        assert sum(stats[f"injected_{kind.value}"] for kind in FaultKind) == 20
        store.reset_fault_stats()
        assert store.fault_stats.total == 0


class TestDelegation:
    def test_satisfies_chunk_store_protocol(self):
        assert isinstance(_faulty(), ChunkStore)

    def test_inner_attributes_pass_through(self):
        store = _faulty(rate=0.0)
        assert store.bytes_stored == store.inner.bytes_stored > 0
        assert store.n_entries == 1
        assert store.device.name == "cpu_ram"
        assert store.contains("a")
        assert store.stats is store.inner.stats

    def test_put_reaches_the_inner_store(self):
        store = _faulty(rate=0.0)
        store.put("b", _blob(2))
        assert store.inner.contains("b")

    def test_wraps_the_tiered_backend(self):
        inner = TieredKVStore(
            tiers=[
                KVCacheStore(device=get_device("cpu_ram")),
                KVCacheStore(device=get_device("nvme_ssd")),
            ]
        )
        inner.put("a", _blob(1))
        wrapped = FaultyStore(inner, FaultConfig(rate=0.0))
        assert wrapped.lookup("a").hit
        assert isinstance(wrapped, ChunkStore)

    @pytest.mark.parametrize("kind", ALL_FAULT_KINDS, ids=lambda kind: kind.value)
    def test_each_fault_kind_reaches_a_tiered_backend_hit(self, kind):
        inner = TieredKVStore(
            tiers=[
                KVCacheStore(device=get_device("cpu_ram")),
                KVCacheStore(device=get_device("nvme_ssd")),
            ]
        )
        inner.tiers[1].put("a", _blob(1))
        store = FaultyStore(
            inner, FaultConfig(rate=1.0, kinds=(kind,), slow_read_delay_s=0.25)
        )
        raised = {
            FaultKind.READ_TIMEOUT: StoreReadTimeout,
            FaultKind.TRANSIENT_MISS: StoreUnavailable,
            FaultKind.CORRUPT_PAYLOAD: KVCorruptionError,
        }
        if kind in raised:
            with pytest.raises(raised[kind]):
                store.lookup("a")
        else:
            # A slow read keeps the serving tier's price and adds the delay.
            found = store.lookup("a")
            assert found.tier_index == 1
            ssd = get_device("nvme_ssd")
            assert found.read_delay == pytest.approx(ssd.read_time(found.nbytes) + 0.25)
        assert store.fault_stats.injected[kind.value] == 1
        # The fault hit the read, not the residency.
        assert inner.contains("a")

    def test_tier_introspection_passes_through(self):
        inner = TieredKVStore(
            tiers=[
                KVCacheStore(device=get_device("cpu_ram")),
                KVCacheStore(device=get_device("nvme_ssd")),
            ]
        )
        wrapped = FaultyStore(inner, FaultConfig(rate=0.0))
        assert [row["device"] for row in wrapped.stats_by_tier()] == [
            "cpu_ram",
            "nvme_ssd",
        ]
