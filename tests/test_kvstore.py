"""KV cache store: hit/miss accounting, eviction and chunk keys."""

import numpy as np
import pytest

from repro.kvstore.device import get_device
from repro.kvstore.store import (
    CacheStats,
    EvictionPolicy,
    KVCacheStore,
    chunk_key,
)
from repro.model.tensors import KVCache, LayerKV


def _make_cache(n_tokens: int = 4, n_layers: int = 2) -> KVCache:
    layers = [
        LayerKV(np.ones((n_tokens, 1, 2)), np.ones((n_tokens, 1, 2)))
        for _ in range(n_layers)
    ]
    return KVCache(layers, np.arange(n_tokens), np.arange(n_tokens))


def _store(capacity_entries: int) -> KVCacheStore:
    entry_bytes = _make_cache().nbytes(2)
    return KVCacheStore(
        device=get_device("cpu_ram"),
        capacity_bytes=capacity_entries * entry_bytes,
    )


class TestHitMissAccounting:
    def test_miss_then_hit(self):
        store = _store(4)
        assert store.get("a") is None
        store.put("a", _make_cache())
        assert store.get("a") is not None
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.hit_rate == pytest.approx(0.5)

    def test_peek_does_not_touch_stats(self):
        store = _store(4)
        store.put("a", _make_cache())
        store.peek("a")
        store.peek("missing")
        assert store.stats.lookups == 0

    def test_stats_reset_keeps_bytes_stored(self):
        store = _store(4)
        store.put("a", _make_cache())
        store.get("a")
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
        store.put("a", _make_cache())
        store.put("b", _make_cache())
        store.get("a")  # refresh a; b becomes the LRU victim
        store.put("c", _make_cache())
        assert store.contains("a")
        assert not store.contains("b")
        assert store.stats.evictions == 1

    def test_fifo_ignores_recency(self):
        store = _store(2)
        store.policy = EvictionPolicy.FIFO
        store.put("a", _make_cache())
        store.put("b", _make_cache())
        store.get("a")
        store.put("c", _make_cache())
        assert not store.contains("a")
        assert store.contains("b")

    def test_oversized_entry_rejected(self):
        store = _store(1)
        with pytest.raises(ValueError):
            store.put("big", _make_cache(n_tokens=64))

    def test_overwrite_does_not_leak_bytes(self):
        store = _store(4)
        store.put("a", _make_cache())
        before = store.bytes_stored
        store.put("a", _make_cache())
        assert store.bytes_stored == before


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
