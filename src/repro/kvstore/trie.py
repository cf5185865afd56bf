"""Token-level radix-trie KV store with prefix deduplication.

The whole-chunk :class:`~repro.kvstore.store.KVCacheStore` keys each chunk by
a hash of its full token-id array, so two chunks sharing a long token prefix
(a common system prompt, overlapping retrieval windows) store their shared
rows twice — the storage blow-up the paper calls out in §7.2.  This module
stores chunk KV in a radix (compressed prefix) trie over token ids instead:

* each trie node owns one *edge* — a run of token ids, their positions and
  the per-layer KV rows computed for exactly those tokens;
* ``put`` walks the trie and stores only the **novel suffix** rows, splitting
  an existing edge at the divergence point (the split conserves bytes: KV
  rows are per-token, so cutting an edge in two never duplicates a row);
* ``get`` reassembles the full chunk by concatenating the node segments from
  root to leaf — bitwise-equal to the cache that was ``put``, because causal
  attention makes the KV of token *i* depend only on tokens ``<= i`` and
  chunk prefill is deterministic, so a shared token-id prefix (at the same
  positions) has identical KV rows no matter which chunk wrote it first;
* nodes are **reference counted** (one count per live entry whose root-to-
  leaf path crosses the node), so evicting an entry frees only its unshared
  suffix nodes — shared prefixes stay until the last referencing entry goes.

Eviction is dual, in the spirit of radix-tree prompt caches: LRU (or FIFO)
over the *entries* when the deduplicated ``bytes_stored`` exceeds capacity,
plus an optional TTL that lazily expires entries on access.  Exact-match
lookups stay O(1) via the entry table; ``prefix_match`` is O(L) in the
queried token count.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.kvstore.device import StorageDevice
from repro.kvstore.precision import PrecisionPolicy
from repro.kvstore.protocol import StoreLookup
from repro.kvstore.store import CacheStats, EvictionPolicy
from repro.model.tensors import KVCache, LayerKV


class _TrieNode:
    """One radix-trie edge: a token run plus its per-layer KV rows."""

    __slots__ = ("tokens", "positions", "layers", "children", "parent", "refcount", "nbytes")

    def __init__(
        self,
        tokens: np.ndarray,
        positions: np.ndarray,
        layers: list[LayerKV] | None,
        parent: "_TrieNode | None",
        refcount: int = 0,
        nbytes: int = 0,
    ) -> None:
        self.tokens = tokens
        self.positions = positions
        self.layers = layers
        self.children: dict[int, _TrieNode] = {}
        self.parent = parent
        self.refcount = refcount
        self.nbytes = nbytes


@dataclass
class _TrieEntry:
    """One stored chunk: its leaf node (or a standalone cache) and sizes."""

    leaf: _TrieNode | None
    cache: KVCache | None
    #: Logical (un-deduplicated) full-chunk store bytes — what a whole-chunk
    #: store would hold and what a read of this entry transfers.
    nbytes: int
    expires_at: float | None = None


@dataclass
class RadixTrieStore:
    """A single-device chunk KV store deduplicating shared token prefixes.

    Drop-in :class:`~repro.kvstore.protocol.ChunkStore` replacement for
    :class:`~repro.kvstore.store.KVCacheStore`: identical keying, statistics
    and eviction surface, but ``bytes_stored`` counts each shared prefix row
    once.  ``read_delay``/``lookup`` price reads at the entry's *logical*
    size — a chunk read transfers its full row range regardless of on-device
    sharing — so swapping backends never changes simulated load delays, only
    residency.

    Caches stored here must carry their ``token_ids`` (and positions); the
    engine's chunk caches always do.  A cache whose positions disagree with
    an existing edge at its very first token cannot share that edge and is
    stored standalone (un-deduplicated) under its key.
    """

    device: StorageDevice
    policy: EvictionPolicy = EvictionPolicy.LRU
    capacity_bytes: int | None = None
    #: Optional time-to-live; entries older than this are lazily expired on
    #: access/insert (counted in ``stats.expirations``).
    ttl_s: float | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    on_evict: Callable[[str, KVCache], None] | None = field(default=None, repr=False)
    #: Per-layer precision policy (``None`` means ``float16``); row/entry
    #: byte accounting uses its per-layer element widths (element widths
    #: are token-proportional, so edge splits conserve bytes exactly).
    precision: PrecisionPolicy | str | None = None
    _entries: "OrderedDict[str, _TrieEntry]" = field(default_factory=OrderedDict)
    _root: _TrieNode = field(
        default_factory=lambda: _TrieNode(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), None, None
        ),
        repr=False,
    )

    def __post_init__(self) -> None:
        if self.capacity_bytes is None:
            self.capacity_bytes = self.device.capacity_bytes
        if self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if self.ttl_s is not None and self.ttl_s <= 0:
            raise ValueError("ttl_s must be positive when set")
        self.precision = PrecisionPolicy.get(self.precision)

    def cache_nbytes(self, cache: KVCache) -> int:
        """Logical stored bytes of *cache* under this store's precision."""
        return self.precision.cache_nbytes(cache)

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        return self._live_entry(key) is not None

    def get(self, key: str) -> KVCache | None:
        """Fetch a cache by key, updating recency and hit/miss statistics."""
        return self.lookup(key).cache

    def lookup(self, key: str) -> StoreLookup:
        """Like :meth:`get`, but also reports the simulated read delay."""
        entry = self._live_entry(key)
        if entry is None:
            self.stats.misses += 1
            return StoreLookup(cache=None)
        self.stats.hits += 1
        if self.policy is EvictionPolicy.LRU:
            self._entries.move_to_end(key)
        return StoreLookup(
            cache=self._reassemble(entry),
            read_delay=self.device.read_time(entry.nbytes),
            nbytes=entry.nbytes,
        )

    def peek(self, key: str) -> KVCache | None:
        """Fetch without touching statistics or recency (used by tooling)."""
        entry = self._entries.get(key)
        return self._reassemble(entry) if entry is not None else None

    def put(self, key: str, cache: KVCache) -> int:
        """Insert a chunk, storing only its novel suffix rows.

        Returns the bytes evicted to make room (deduplicated bytes actually
        freed, like :meth:`KVCacheStore.put` returns entry bytes dropped).
        """
        nbytes = self.cache_nbytes(cache)
        if nbytes > self.capacity_bytes:
            raise ValueError(
                f"cache of {nbytes} bytes cannot fit in capacity {self.capacity_bytes}"
            )
        self._sweep_expired()
        if key in self._entries:
            self.remove(key)

        ids = np.asarray(cache.token_ids, dtype=np.int64)
        positions = np.asarray(cache.positions, dtype=np.int64)
        path = (
            self._insert(ids, positions, cache)
            if ids.size == cache.n_tokens and ids.size > 0
            else None
        )
        if path is None:
            # No token identity (or positions clash on the first edge token):
            # fall back to whole-chunk storage under this key.
            entry = _TrieEntry(leaf=None, cache=cache, nbytes=nbytes)
            self.stats.bytes_stored += nbytes
        else:
            novel = sum(node.nbytes for node in path if node.refcount == 0)
            for node in path:
                node.refcount += 1
            entry = _TrieEntry(leaf=path[-1], cache=None, nbytes=nbytes)
            self.stats.bytes_stored += novel
        if self.ttl_s is not None:
            entry.expires_at = time.monotonic() + self.ttl_s
        self._entries[key] = entry
        self.stats.inserts += 1

        evicted = 0
        while self.stats.bytes_stored > self.capacity_bytes and len(self._entries) > 1:
            evicted += self._evict_one()
        return evicted

    def remove(self, key: str) -> bool:
        """Remove an entry, freeing only nodes no other entry references."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._release(entry)
        return True

    def clear(self) -> None:
        self._entries.clear()
        self._root.children.clear()
        self.stats.bytes_stored = 0

    def reset_stats(self) -> None:
        """Zero the counters (``bytes_stored`` reflects live entries, stays)."""
        self.stats.reset()

    # ------------------------------------------------------------------
    # Delay accounting
    # ------------------------------------------------------------------
    def read_delay(self, key: str) -> float:
        """Simulated delay of reading the full (logical) entry at *key*.

        TTL-aware: an expired entry prices like the miss it is about to
        become (0.0), matching :meth:`lookup`'s clean-miss guarantee, and
        an absent key is likewise 0.0 rather than a ``KeyError`` — callers
        racing an eviction or expiry must never crash on delay pricing.
        """
        entry = self._live_entry(key)
        if entry is None:
            return 0.0
        return self.device.read_time(entry.nbytes)

    def write_delay(self, cache: KVCache) -> float:
        """Simulated delay of writing *cache* to the device."""
        return self.device.write_time(self.cache_nbytes(cache))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_entries(self) -> int:
        return len(self._entries)

    @property
    def bytes_stored(self) -> int:
        """Deduplicated bytes actually resident (each shared row once)."""
        return self.stats.bytes_stored

    @property
    def logical_bytes(self) -> int:
        """Un-deduplicated bytes of all live entries (whole-chunk footprint)."""
        return sum(entry.nbytes for entry in self._entries.values())

    @property
    def dedup_ratio(self) -> float:
        """``logical_bytes / bytes_stored`` (1.0 means nothing is shared)."""
        stored = self.stats.bytes_stored
        return self.logical_bytes / stored if stored else 1.0

    @property
    def utilisation(self) -> float:
        return self.stats.bytes_stored / self.capacity_bytes

    def keys(self) -> list[str]:
        return list(self._entries.keys())

    def prefix_match(self, token_ids: np.ndarray, positions: np.ndarray | None = None) -> int:
        """Longest stored token-id prefix of *token_ids* (O(len) walk)."""
        ids = np.asarray(token_ids, dtype=np.int64)
        pos = (
            np.asarray(positions, dtype=np.int64)
            if positions is not None
            else np.arange(ids.size, dtype=np.int64)
        )
        node, i = self._root, 0
        while i < ids.size:
            child = node.children.get(int(ids[i]))
            if child is None:
                break
            limit = min(child.tokens.size, ids.size - i)
            matched = (child.tokens[:limit] == ids[i : i + limit]) & (
                child.positions[:limit] == pos[i : i + limit]
            )
            m = int(limit if matched.all() else np.argmax(~matched))
            i += m
            if m < child.tokens.size:
                break
            node = child
        return i

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _live_entry(self, key: str) -> _TrieEntry | None:
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.expires_at is not None and time.monotonic() >= entry.expires_at:
            self.remove(key)
            self.stats.expirations += 1
            return None
        return entry

    def _sweep_expired(self) -> None:
        if self.ttl_s is None:
            return
        now = time.monotonic()
        expired = [
            key
            for key, entry in self._entries.items()
            if entry.expires_at is not None and now >= entry.expires_at
        ]
        for key in expired:
            self.remove(key)
            self.stats.expirations += 1

    def _rows_nbytes(self, layers: list[LayerKV]) -> int:
        return self.precision.rows_nbytes(layers)

    def _make_node(
        self, ids: np.ndarray, positions: np.ndarray, cache: KVCache, start: int,
        parent: _TrieNode,
    ) -> _TrieNode:
        layers = [
            LayerKV(layer.keys[start:].copy(), layer.values[start:].copy())
            for layer in cache.layers
        ]
        return _TrieNode(
            tokens=ids[start:].copy(),
            positions=positions[start:].copy(),
            layers=layers,
            parent=parent,
            nbytes=self._rows_nbytes(layers),
        )

    def _split(self, node: _TrieNode, m: int) -> _TrieNode:
        """Split *node*'s edge after *m* rows; returns the new upper node.

        Rows are per-token, so ``upper.nbytes + node.nbytes`` equals the
        pre-split ``node.nbytes`` exactly — splitting never changes the
        store's byte accounting.
        """
        assert node.layers is not None and 0 < m < node.tokens.size
        parent = node.parent
        assert parent is not None
        upper_layers = [
            LayerKV(layer.keys[:m].copy(), layer.values[:m].copy())
            for layer in node.layers
        ]
        upper = _TrieNode(
            tokens=node.tokens[:m].copy(),
            positions=node.positions[:m].copy(),
            layers=upper_layers,
            parent=parent,
            refcount=node.refcount,
            nbytes=self._rows_nbytes(upper_layers),
        )
        parent.children[int(upper.tokens[0])] = upper
        node.tokens = node.tokens[m:].copy()
        node.positions = node.positions[m:].copy()
        node.layers = [
            LayerKV(layer.keys[m:].copy(), layer.values[m:].copy())
            for layer in node.layers
        ]
        node.nbytes = self._rows_nbytes(node.layers)
        node.parent = upper
        upper.children[int(node.tokens[0])] = node
        return upper

    def _insert(
        self, ids: np.ndarray, positions: np.ndarray, cache: KVCache
    ) -> list[_TrieNode] | None:
        """Walk/extend the trie for one chunk; returns its root-to-leaf path.

        Newly created nodes are returned with ``refcount == 0`` (the caller
        bumps the whole path); returns ``None`` when the chunk's positions
        disagree with an existing edge at its first token — two children
        under one first-token key are impossible, so such a chunk is stored
        standalone.
        """
        node, i = self._root, 0
        path: list[_TrieNode] = []
        n = int(ids.size)
        while i < n:
            child = node.children.get(int(ids[i]))
            if child is None:
                leaf = self._make_node(ids, positions, cache, i, parent=node)
                node.children[int(ids[i])] = leaf
                path.append(leaf)
                return path
            limit = min(child.tokens.size, n - i)
            matched = (child.tokens[:limit] == ids[i : i + limit]) & (
                child.positions[:limit] == positions[i : i + limit]
            )
            m = int(limit if matched.all() else np.argmax(~matched))
            if m == 0:
                return None
            if m < child.tokens.size:
                child = self._split(child, m)
            path.append(child)
            node = child
            i += m
        return path

    def _reassemble(self, entry: _TrieEntry) -> KVCache:
        """Rebuild the full chunk cache from the entry's root-to-leaf segments.

        Segment concatenation is a pure row-wise ``np.concatenate`` of the
        exact arrays that were stored, so the result is bitwise-equal to the
        cache originally ``put`` under the key.
        """
        if entry.leaf is None:
            assert entry.cache is not None
            return entry.cache
        segments: list[_TrieNode] = []
        node: _TrieNode | None = entry.leaf
        while node is not None and node.layers is not None:
            segments.append(node)
            node = node.parent
        segments.reverse()
        if len(segments) == 1:
            seg = segments[0]
            return KVCache(
                [LayerKV(layer.keys, layer.values) for layer in seg.layers],
                seg.tokens,
                seg.positions,
            )
        n_layers = len(segments[0].layers)
        layers = [
            LayerKV(
                np.concatenate([seg.layers[li].keys for seg in segments]),
                np.concatenate([seg.layers[li].values for seg in segments]),
            )
            for li in range(n_layers)
        ]
        return KVCache(
            layers,
            np.concatenate([seg.tokens for seg in segments]),
            np.concatenate([seg.positions for seg in segments]),
        )

    def _release(self, entry: _TrieEntry) -> int:
        """Drop one entry's references, freeing nodes that hit refcount 0."""
        if entry.leaf is None:
            self.stats.bytes_stored -= entry.nbytes
            return entry.nbytes
        freed = 0
        node: _TrieNode | None = entry.leaf
        while node is not None and node.parent is not None:
            node.refcount -= 1
            if node.refcount == 0:
                node.parent.children.pop(int(node.tokens[0]), None)
                freed += node.nbytes
            node = node.parent
        self.stats.bytes_stored -= freed
        return freed

    def _evict_one(self) -> int:
        if not self._entries:
            raise RuntimeError("eviction requested on an empty store")
        key, entry = self._entries.popitem(last=False)
        cache = self._reassemble(entry) if self.on_evict is not None else None
        freed = self._release(entry)
        self.stats.evictions += 1
        if self.on_evict is not None and cache is not None:
            self.on_evict(key, cache)
        return freed
