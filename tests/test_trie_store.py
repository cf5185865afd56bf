"""Radix-trie KV store: prefix dedup, bitwise reassembly, refcounted eviction.

The engine-level class at the bottom is the PR's acceptance check: on a
shared-prefix workload the trie backend stores strictly fewer bytes than the
whole-chunk store at an equal hit rate, and the fused KV it feeds the model
is bitwise identical.
"""

import time

import numpy as np
import pytest

from repro.core.blend_engine import BlendEngine
from repro.kvstore.config import StoreConfig
from repro.kvstore.device import get_device
from repro.kvstore.store import KVCacheStore, chunk_key
from repro.kvstore.trie import RadixTrieStore
from repro.model.tensors import KVCache, LayerKV


def _cache(token_ids, n_layers: int = 2) -> KVCache:
    """KV rows deterministic per (token id, position, layer), like a real
    chunk prefill — equal token prefixes yield equal KV rows."""
    ids = np.asarray(token_ids, dtype=np.int64)
    positions = np.arange(ids.size, dtype=np.int64)
    layers = []
    for layer in range(n_layers):
        base = (ids * 31 + positions * 7 + layer).astype(np.float64)
        rows = np.repeat(base, 2).reshape(ids.size, 1, 2)
        layers.append(LayerKV(rows.copy(), rows + 0.5))
    return KVCache(layers, ids, positions)


def _trie(**kwargs) -> RadixTrieStore:
    return RadixTrieStore(device=get_device("cpu_ram"), **kwargs)


class TestTrieDedup:
    def test_shared_prefix_stored_once(self):
        store = _trie()
        a = _cache([1, 2, 3, 4, 5, 6, 7, 8])
        b = _cache([1, 2, 3, 4, 9, 10, 11, 12])
        store.put("a", a)
        store.put("b", b)
        logical_each = a.nbytes(2)
        # b contributes only its 4 novel suffix rows.
        assert store.bytes_stored == logical_each + logical_each // 2
        assert store.logical_bytes == 2 * logical_each
        assert store.dedup_ratio == pytest.approx(4 / 3)

    def test_lookup_reassembles_bitwise(self):
        store = _trie()
        a = _cache([1, 2, 3, 4, 5, 6, 7, 8])
        b = _cache([1, 2, 3, 4, 9, 10, 11, 12])
        store.put("a", a)
        store.put("b", b)
        for key, original in (("a", a), ("b", b)):
            fetched = store.get(key)
            assert np.array_equal(fetched.token_ids, original.token_ids)
            for got, want in zip(fetched.layers, original.layers):
                assert np.array_equal(got.keys, want.keys)
                assert np.array_equal(got.values, want.values)

    def test_read_delay_priced_at_logical_size(self):
        # Dedup changes residency, never the simulated read: a trie hit is
        # priced at the full-chunk bytes, same as the whole-chunk store.
        trie, flat = _trie(), KVCacheStore(device=get_device("cpu_ram"))
        a = _cache([1, 2, 3, 4, 5, 6, 7, 8])
        b = _cache([1, 2, 3, 4, 9, 10, 11, 12])
        for store in (trie, flat):
            store.put("a", a)
            store.put("b", b)
        assert trie.lookup("b").read_delay == flat.lookup("b").read_delay > 0.0

    def test_prefix_match_counts_shared_tokens(self):
        store = _trie()
        store.put("a", _cache([1, 2, 3, 4, 5, 6, 7, 8]))
        assert store.prefix_match(np.array([1, 2, 3, 9])) == 3
        assert store.prefix_match(np.array([1, 2, 3, 4, 5, 6, 7, 8])) == 8
        assert store.prefix_match(np.array([7, 7, 7])) == 0

    def test_divergent_positions_fall_back_to_standalone(self):
        store = _trie()
        a = _cache([1, 2, 3, 4])
        shifted = _cache([1, 2, 3, 4])
        shifted = KVCache(shifted.layers, shifted.token_ids, shifted.positions + 100)
        store.put("a", a)
        store.put("shifted", shifted)
        # Same tokens at different positions must not share rows.
        assert store.bytes_stored == 2 * a.nbytes(2)
        assert np.array_equal(store.get("shifted").positions, shifted.positions)


class TestTrieEviction:
    def test_refcount_eviction_frees_only_unshared_suffix(self):
        entry_bytes = _cache([1, 2, 3, 4, 5, 6, 7, 8]).nbytes(2)
        store = _trie(capacity_bytes=2 * entry_bytes)
        a = _cache([1, 2, 3, 4, 5, 6, 7, 8])
        b = _cache([1, 2, 3, 4, 9, 10, 11, 12])
        store.put("a", a)
        store.put("b", b)  # deduped total: 1.5 entries
        c = _cache([20, 21, 22, 23, 24, 25, 26, 27])
        # c pushes the total to 2.5 entries; evicting "a" (LRU) frees only
        # its unshared 4-row suffix (0.5 entries), which is exactly enough.
        store.put("c", c)
        assert not store.contains("a")
        assert store.stats.evictions == 1
        # b's shared prefix survived a's eviction, bitwise.
        fetched = store.get("b")
        for got, want in zip(fetched.layers, b.layers):
            assert np.array_equal(got.keys, want.keys)

    def test_lru_recency_protects_hot_entries(self):
        entry_bytes = _cache([1, 2, 3, 4]).nbytes(2)
        store = _trie(capacity_bytes=2 * entry_bytes)
        store.put("a", _cache([1, 2, 3, 4]))
        store.put("b", _cache([5, 6, 7, 8]))
        store.get("a")
        store.put("c", _cache([9, 10, 11, 12]))
        assert store.contains("a") and store.contains("c")
        assert not store.contains("b")

    def test_oversized_entry_rejected(self):
        store = _trie(capacity_bytes=8)
        with pytest.raises(ValueError, match="cannot fit"):
            store.put("a", _cache([1, 2, 3, 4]))

    def test_ttl_expires_entries(self):
        store = _trie(ttl_s=0.005)
        store.put("a", _cache([1, 2, 3, 4]))
        assert store.contains("a")
        time.sleep(0.02)
        assert not store.contains("a")
        assert store.stats.expirations == 1
        assert store.bytes_stored == 0

    def test_overwrite_does_not_leak_bytes(self):
        store = _trie()
        store.put("a", _cache([1, 2, 3, 4]))
        store.put("a", _cache([1, 2, 3, 4]))
        assert store.n_entries == 1
        assert store.bytes_stored == _cache([1, 2, 3, 4]).nbytes(2)


class TestTTLCleanMissRegressions:
    """TTL expiry mid-serving must surface as a clean miss, never a raise.

    The fault-tolerant gather path retries lookups and prices read delays
    on arbitrary keys at arbitrary times; a key whose entry expired between
    two of those calls has to behave exactly like one that was never
    stored.
    """

    def test_expired_entry_lookup_is_a_clean_miss(self):
        store = _trie(ttl_s=0.005)
        store.put("a", _cache([1, 2, 3, 4]))
        time.sleep(0.02)
        found = store.lookup("a")  # must not raise
        assert not found.hit and found.cache is None
        assert found.read_delay == 0.0
        assert store.stats.misses == 1
        assert store.stats.expirations == 1

    def test_expired_entry_read_delay_is_zero(self):
        store = _trie(ttl_s=0.005)
        store.put("a", _cache([1, 2, 3, 4]))
        assert store.read_delay("a") > 0.0
        time.sleep(0.02)
        assert store.read_delay("a") == 0.0

    def test_absent_key_read_delay_is_zero(self):
        assert _trie().read_delay("never-stored") == 0.0

    def test_expiry_between_contains_and_lookup_still_clean(self):
        # The racy interleaving: contains() says yes, the entry expires,
        # then lookup() runs — it must report a miss, not raise.
        store = _trie(ttl_s=0.005)
        store.put("a", _cache([1, 2, 3, 4]))
        assert store.contains("a")
        time.sleep(0.02)
        found = store.lookup("a")
        assert not found.hit


class TestChunkKeyVersioning:
    def test_key_carries_the_version_prefix(self):
        key = chunk_key(np.array([1, 2, 3], dtype=np.int64), model_name="m")
        assert key.startswith("k2-")
        assert len(key) == len("k2-") + 32


SHARED = "retrieval augmented generation shares this exact preamble across chunks"
CHUNKS = [
    f"{SHARED} and then diverges into document number {i} about topic {i}"
    for i in range(3)
]
QUESTION = "what do the documents share?"


class TestEngineBackendEquivalence:
    """ISSUE acceptance: trie vs whole-chunk store through the full engine."""

    @pytest.fixture(scope="class")
    def engines(self):
        build = lambda backend: BlendEngine.build(
            paper_model="Mistral-7B",
            device="cpu_ram",
            seed=0,
            store=StoreConfig(backend=backend),
        )
        return build("chunk"), build("trie")

    def test_trie_stores_strictly_fewer_bytes_at_equal_hit_rate(self, engines):
        chunk_engine, trie_engine = engines
        for engine in engines:
            engine.kv_store.clear()
            engine.reset_cache_stats()
            engine.precompute_chunks(CHUNKS)
            engine.run(CHUNKS, QUESTION)
        chunk_stats = chunk_engine.cache_stats
        trie_stats = trie_engine.cache_stats
        assert trie_stats["bytes_stored"] < chunk_stats["bytes_stored"]
        assert trie_stats["hits"] >= chunk_stats["hits"]
        assert trie_stats["misses"] <= chunk_stats["misses"]

    def test_fused_kv_is_bitwise_identical_across_backends(self, engines):
        chunk_engine, trie_engine = engines
        results = [engine.run(CHUNKS, QUESTION) for engine in engines]
        fused_chunk, fused_trie = (r.fusion.kv_cache for r in results)
        assert np.array_equal(fused_chunk.token_ids, fused_trie.token_ids)
        for got, want in zip(fused_trie.layers, fused_chunk.layers):
            assert np.array_equal(got.keys, want.keys)
            assert np.array_equal(got.values, want.values)
