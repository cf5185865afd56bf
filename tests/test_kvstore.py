"""KV cache store: hit/miss accounting, eviction and chunk keys."""

import numpy as np
import pytest

from repro.kvstore.device import get_device
from repro.kvstore.serialization import KVBlob, serialize_kv
from repro.kvstore.store import CacheStats, KVCacheStore, chunk_key
from repro.model.tensors import KVCache, LayerKV


def _make_blob(n_tokens: int = 4, n_layers: int = 2) -> KVBlob:
    layers = [
        LayerKV(np.ones((n_tokens, 1, 2)), np.ones((n_tokens, 1, 2)))
        for _ in range(n_layers)
    ]
    return KVBlob(serialize_kv(KVCache(layers, np.arange(n_tokens), np.arange(n_tokens))))


def _store(capacity_entries: int) -> KVCacheStore:
    entry_bytes = _make_blob().nbytes
    return KVCacheStore(
        device=get_device("cpu_ram"),
        capacity_bytes=capacity_entries * entry_bytes,
    )


class TestHitMissAccounting:
    def test_miss_then_hit(self):
        store = _store(4)
        assert not store.lookup("a").hit
        store.put("a", _make_blob())
        assert store.lookup("a").hit
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.hit_rate == pytest.approx(0.5)

    def test_absent_key_is_a_clean_miss(self):
        # The gather path looks up arbitrary keys: a key never stored is a
        # counted miss with nothing to read, priced at zero, never a raise.
        store = _store(4)
        found = store.lookup("never-stored")
        assert not found.hit and found.blob is None
        assert found.read_delay == 0.0
        assert found.tier_index is None and found.nbytes == 0
        assert (store.stats.hits, store.stats.misses) == (0, 1)

    def test_hit_reports_its_held_bytes_at_the_device_price(self):
        # Callers turn read_delay into a device-relative excess with nbytes.
        store = _store(2)
        blob = _make_blob()
        store.put("a", blob)
        found = store.lookup("a")
        assert found.blob is blob
        assert found.nbytes == len(blob.data) == store.bytes_stored
        assert found.read_delay == get_device("cpu_ram").read_time(found.nbytes)

    def test_peek_does_not_touch_stats(self):
        store = _store(4)
        store.put("a", _make_blob())
        store.peek("a")
        store.peek("missing")
        assert store.stats.lookups == 0

    def test_stats_reset_keeps_bytes_stored(self):
        store = _store(4)
        store.put("a", _make_blob())
        store.lookup("a")
        bytes_stored = store.stats.bytes_stored
        store.stats.reset()
        assert store.stats.hits == 0
        assert store.stats.inserts == 0
        assert store.stats.bytes_stored == bytes_stored

    def test_stats_as_dict_is_json_friendly(self):
        stats = CacheStats(hits=3, misses=1)
        snapshot = stats.as_dict()
        assert snapshot["hits"] == 3
        assert snapshot["hit_rate"] == pytest.approx(0.75)


class TestEviction:
    def test_lru_evicts_least_recently_used(self):
        store = _store(2)
        store.put("a", _make_blob())
        store.put("b", _make_blob())
        store.lookup("a")  # refresh a; b becomes the LRU victim
        store.put("c", _make_blob())
        assert store.contains("a")
        assert not store.contains("b")
        assert store.stats.evictions == 1

    def test_oversized_entry_rejected(self):
        store = _store(1)
        with pytest.raises(ValueError):
            store.put("big", _make_blob(n_tokens=64))

    def test_overwrite_does_not_leak_bytes(self):
        store = _store(4)
        store.put("a", _make_blob())
        before = store.bytes_stored
        store.put("a", _make_blob())
        assert store.bytes_stored == before

    def test_on_evict_sees_each_capacity_victim_in_lru_order(self):
        # The hook the tiered store demotes through: it fires for capacity
        # evictions only, oldest first, with the victim's blob.
        victims = []
        store = _store(2)
        store.on_evict = lambda key, blob: victims.append((key, blob.n_tokens))
        for key in "abcd":
            store.put(key, _make_blob())
        store.remove("c")
        assert victims == [("a", 4), ("b", 4)]
        assert store.stats.evictions == 2


class TestChunkKey:
    def test_stable_and_sensitive_to_inputs(self):
        ids = np.array([1, 2, 3])
        assert chunk_key(ids, "m") == chunk_key(ids, "m")
        assert chunk_key(ids, "m") != chunk_key(ids, "other-model")
        assert chunk_key(ids, "m") != chunk_key(ids, "m", prefix_key="p")

    def test_key_format_is_versioned(self):
        # "k2-" pins the raw-token-bytes hashing scheme: bump the version
        # when the digest inputs change, so stale stores never alias.
        key = chunk_key(np.array([1, 2, 3]), "m")
        assert key.startswith("k2-")
        tail = key[len("k2-"):]
        assert len(tail) == 32 and all(c in "0123456789abcdef" for c in tail)
