"""The ``ChunkStore`` protocol: one substitutable interface for KV stores.

Every store backend implements the same contract, so any of them can sit
under a :class:`~repro.core.blend_engine.BlendEngine`:

* ``get(key)`` always returns the :class:`~repro.model.tensors.KVCache`
  itself (or ``None``), updating recency and hit/miss statistics;
* ``lookup(key)`` returns a :class:`StoreLookup` carrying the cache *plus*
  the simulated read delay (and, for tiered stores, which tier served it),
  so callers that price storage latency — the engine's executor path — get
  the delay without a second ``read_delay`` round trip;
* ``put(key, cache)`` inserts, evicting as needed, and returns the bytes
  evicted to make room;
* ``stats`` / ``bytes_stored`` expose the shared
  :class:`~repro.kvstore.store.CacheStats` accounting.

Backends: the whole-chunk :class:`~repro.kvstore.store.KVCacheStore`, the
token-level dedup :class:`~repro.kvstore.trie.RadixTrieStore` and the
multi-tier :class:`~repro.kvstore.hierarchy.TieredKVStore` (whose tiers may
themselves be chunk or trie stores).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.kvstore.device import StorageDevice
from repro.model.tensors import KVCache

if TYPE_CHECKING:  # avoid a cycle: store.py imports StoreLookup from here
    from repro.kvstore.store import CacheStats


@dataclass
class StoreLookup:
    """Result of one :meth:`ChunkStore.lookup`.

    Attributes
    ----------
    cache:
        The stored KV cache, or ``None`` on a miss.
    read_delay:
        Simulated seconds to read the entry from its device (0.0 on a miss).
        For tiered stores this is the delay of the tier that actually served
        the hit — slower than the front tier's when the entry had been
        demoted, which is exactly the excess the serving path prices in.
    tier_index:
        Which tier served the hit (0 = fastest); ``None`` for single-tier
        stores and misses.
    nbytes:
        Logical (un-deduplicated) size of the entry in store bytes; lets
        callers convert ``read_delay`` into a device-relative excess without
        re-deriving entry sizes.
    """

    cache: KVCache | None
    read_delay: float = 0.0
    tier_index: int | None = None
    nbytes: int = 0

    @property
    def hit(self) -> bool:
        return self.cache is not None


@runtime_checkable
class ChunkStore(Protocol):
    """Structural interface of every chunk KV store backend."""

    stats: CacheStats

    def contains(self, key: str) -> bool: ...

    def get(self, key: str) -> KVCache | None: ...

    def lookup(self, key: str) -> StoreLookup: ...

    def put(self, key: str, cache: KVCache) -> int: ...

    def peek(self, key: str) -> KVCache | None: ...

    def clear(self) -> None: ...

    def reset_stats(self) -> None: ...

    @property
    def bytes_stored(self) -> int: ...

    @property
    def n_entries(self) -> int: ...

    @property
    def device(self) -> StorageDevice: ...
