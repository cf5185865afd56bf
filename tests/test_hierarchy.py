"""Tiered KV store: promotion, demotion cascade, read delays, stats, config."""

import numpy as np
import pytest

from repro.kvstore.config import StoreConfig
from repro.kvstore.device import get_device
from repro.kvstore.hierarchy import TieredKVStore
from repro.kvstore.protocol import ChunkStore
from repro.kvstore.serialization import KVBlob, serialize_kv
from repro.kvstore.store import KVCacheStore
from repro.model.tensors import KVCache, LayerKV


def _blob(seed: int, n_tokens: int = 4) -> KVBlob:
    ids = np.arange(seed * 100, seed * 100 + n_tokens, dtype=np.int64)
    rows = np.full((n_tokens, 1, 2), float(seed))
    cache = KVCache([LayerKV(rows.copy(), rows.copy())], ids, np.arange(n_tokens))
    return KVBlob(serialize_kv(cache))


#: Every 4-token blob holds the same number of bytes.
ENTRY_BYTES = _blob(1).nbytes


def _tiered(ram_entries: int = 2, ssd_entries: int = 8) -> TieredKVStore:
    return TieredKVStore(
        tiers=[
            KVCacheStore(
                device=get_device("cpu_ram"),
                capacity_bytes=ram_entries * ENTRY_BYTES,
            ),
            KVCacheStore(
                device=get_device("nvme_ssd"),
                capacity_bytes=ssd_entries * ENTRY_BYTES,
            ),
        ]
    )


def _three_tiers() -> TieredKVStore:
    """RAM over SSD over disk, one entry each."""
    return TieredKVStore(
        tiers=[
            KVCacheStore(device=get_device(name), capacity_bytes=ENTRY_BYTES)
            for name in ("cpu_ram", "nvme_ssd", "slow_disk")
        ]
    )


class TestTieredLookup:
    def test_put_lands_in_the_fastest_fitting_tier(self):
        store = _tiered()
        store.put("a", _blob(1))
        assert store.tiers[0].contains("a")
        assert not store.tiers[1].contains("a")

    def test_lookup_reports_the_serving_tier_and_its_delay(self):
        store = _tiered()
        store.put("a", _blob(1))
        store.tiers[1].put("b", _blob(2))
        fast = store.lookup("a")
        slow = store.lookup("b")
        assert fast.tier_index == 0
        assert slow.tier_index == 1
        ram, ssd = get_device("cpu_ram"), get_device("nvme_ssd")
        assert fast.read_delay == ram.read_time(ENTRY_BYTES)
        # b was just promoted, but its *lookup* was served (and priced) at
        # the SSD tier it was resident in.
        assert slow.read_delay == ssd.read_time(ENTRY_BYTES)
        assert slow.read_delay > fast.read_delay

    def test_miss_reports_no_tier(self):
        store = _tiered()
        found = store.lookup("nope")
        assert found.blob is None and found.tier_index is None
        assert store.stats.misses == 1

    def test_promotion_copies_slow_hits_to_ram(self):
        store = _tiered()
        store.tiers[1].put("b", _blob(2))
        store.lookup("b")
        # Inclusive hierarchy: the promoted copy lands in RAM, the SSD copy
        # stays so a later RAM eviction does not have to write it back.
        assert store.tiers[0].contains("b")
        assert store.tiers[1].contains("b")
        assert store.lookup("b").tier_index == 0

    def test_bottom_tier_hit_promotes_to_the_fastest_tier(self):
        store = _three_tiers()
        store.tiers[2].put("c", _blob(3))
        found = store.lookup("c")
        assert found.tier_index == 2
        assert found.read_delay == get_device("slow_disk").read_time(ENTRY_BYTES)
        # The copy goes straight to RAM; the middle tier is not a stop.
        assert store.tiers[0].contains("c")
        assert not store.tiers[1].contains("c")
        assert store.lookup("c").tier_index == 0

    def test_promotion_into_a_full_ram_tier_demotes_its_lru(self):
        store = _tiered(ram_entries=1)
        store.put("a", _blob(1))
        store.tiers[1].put("b", _blob(2))
        store.lookup("b")
        # b's promotion evicted a from RAM, and a went down, not away.
        assert store.tiers[0].keys() == ["b"]
        assert store.tiers[1].contains("a") and store.tiers[1].contains("b")
        assert store.lookup("a").tier_index == 1


class TestDemotionCascade:
    def test_ram_eviction_demotes_to_ssd(self):
        store = _tiered(ram_entries=2)
        for seed in (1, 2, 3):
            store.put(f"c{seed}", _blob(seed))
        # c1 was evicted from RAM to make room for c3 and landed on SSD.
        assert not store.tiers[0].contains("c1")
        assert store.tiers[1].contains("c1")
        assert store.lookup("c1").tier_index == 1

    def test_eviction_cascades_through_three_tiers(self):
        store = _three_tiers()
        for seed, key in enumerate("abcd", start=1):
            store.put(key, _blob(seed))
        # Each put pushes every resident one tier down; the last tier drops.
        assert [tier.keys() for tier in store.tiers] == [["d"], ["c"], ["b"]]
        assert not store.contains("a")
        assert [tier.stats.evictions for tier in store.tiers] == [3, 2, 1]

    def test_oversized_entry_rejected_by_every_tier(self):
        store = _tiered(ram_entries=1, ssd_entries=1)
        with pytest.raises(ValueError, match="does not fit"):
            store.put("big", _blob(1, n_tokens=64))


class TestTieredStats:
    def test_stats_aggregate_across_tiers(self):
        store = _tiered()
        store.put("a", _blob(1))
        store.tiers[1].put("b", _blob(2))
        store.lookup("a")
        store.lookup("b")
        store.lookup("nope")
        assert store.stats.hits == 2
        assert store.stats.misses == 1
        # 3 resident copies: a in RAM, b in SSD plus its promoted RAM copy.
        assert store.bytes_stored == 3 * ENTRY_BYTES
        assert store.n_entries == 3

    def test_stats_by_tier_names_the_devices(self):
        store = _tiered()
        per_tier = store.stats_by_tier()
        assert [row["device"] for row in per_tier] == ["cpu_ram", "nvme_ssd"]
        assert all("hits" in row and "bytes_stored" in row for row in per_tier)

    def test_reset_stats_clears_every_tier(self):
        store = _tiered()
        store.lookup("nope")
        store.reset_stats()
        assert store.stats.misses == 0
        assert all(tier.stats.misses == 0 for tier in store.tiers)


class TestChunkStoreProtocol:
    def test_every_backend_satisfies_the_protocol(self):
        for store in (KVCacheStore(device=get_device("cpu_ram")), _tiered()):
            assert isinstance(store, ChunkStore)

    def test_store_config_builds_every_backend(self):
        for backend, expected in (("chunk", KVCacheStore), ("tiered", TieredKVStore)):
            store = StoreConfig(backend=backend).build(device=get_device("cpu_ram"))
            assert isinstance(store, expected)
        tiered = StoreConfig(backend="tiered").build()
        assert all(isinstance(tier, KVCacheStore) for tier in tiered.tiers)

    def test_store_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            StoreConfig(backend="redis")


class TestCleanMissRegressions:
    """Demoted-then-evicted keys must read as clean misses.

    Locks the robustness contract the fault-tolerant gather path depends
    on: no churn sequence may turn a store read into a ``KeyError``.
    """

    def _demote_then_evict(self) -> TieredKVStore:
        # RAM holds 1 entry, SSD holds 1: inserting a/b/c demotes "a" to
        # SSD, then demoting "b" evicts "a" from the SSD tier entirely.
        store = _tiered(ram_entries=1, ssd_entries=1)
        for seed, key in enumerate(("a", "b", "c"), start=1):
            store.put(key, _blob(seed))
        assert not store.contains("a")
        return store

    def test_demoted_then_evicted_key_is_a_clean_miss(self):
        store = self._demote_then_evict()
        found = store.lookup("a")  # must not raise
        assert not found.hit
        assert found.blob is None and found.tier_index is None
        assert found.read_delay == 0.0

    def test_demoted_then_evicted_key_read_delay_is_zero(self):
        store = self._demote_then_evict()
        # Neither the hierarchy nor any one tier prices a read of the
        # departed key.
        for reader in (store, *store.tiers):
            found = reader.lookup("a")
            assert not found.hit
            assert found.read_delay == 0.0 and found.nbytes == 0

    def test_read_delay_prices_the_serving_tier(self):
        store = _tiered()
        store.tiers[1].put("b", _blob(2))
        ram, ssd = get_device("cpu_ram"), get_device("nvme_ssd")
        # The first read is served, and priced, at the SSD; it promotes b,
        # so the second read is a RAM read.
        assert store.lookup("b").read_delay == ssd.read_time(ENTRY_BYTES)
        assert store.lookup("b").read_delay == ram.read_time(ENTRY_BYTES)

    def test_randomised_churn_never_raises(self):
        # 400 mixed ops over tight tiers with promotion and demotion churn:
        # every lookup returns cleanly, hit or miss, priced at its tier, and
        # no tier's bytes drift from its residents.
        rng = np.random.default_rng(7)
        store = _tiered(ram_entries=3, ssd_entries=6)
        delays = [tier.device.read_time(ENTRY_BYTES) for tier in store.tiers]
        keys = [f"k{i}" for i in range(12)]
        for _ in range(400):
            key = keys[int(rng.integers(len(keys)))]
            op = int(rng.integers(3))
            if op == 0:
                store.put(key, _blob(int(rng.integers(1, 50))))
            elif op == 1:
                found = store.lookup(key)
                assert found.hit == (found.blob is not None)
                if found.hit:
                    assert found.read_delay == delays[found.tier_index]
                else:
                    assert found.tier_index is None and found.read_delay == 0.0
            else:
                store.remove(key)
            for tier in store.tiers:
                assert tier.bytes_stored == tier.n_entries * ENTRY_BYTES
                assert tier.bytes_stored <= tier.capacity_bytes
