"""The ``ChunkStore`` protocol: one substitutable interface for KV stores.

Both store backends implement the same contract, so either can sit under a
:class:`~repro.core.blend_engine.BlendEngine`:

* ``lookup(key)`` returns a :class:`StoreLookup` carrying the stored
  :class:`~repro.kvstore.serialization.KVBlob` (or ``None``) *plus* the
  simulated read delay and, for tiered stores, which tier served it,
  updating recency and hit/miss statistics;
* ``put(key, blob)`` inserts a chunk packed once, at the engine's precision,
  evicting as needed;
* ``stats`` / ``bytes_stored`` expose the shared
  :class:`~repro.kvstore.store.CacheStats` accounting, in held blob bytes.

Backends: the whole-chunk LRU :class:`~repro.kvstore.store.KVCacheStore` and
the multi-tier :class:`~repro.kvstore.hierarchy.TieredKVStore` over such
stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.kvstore.device import StorageDevice
from repro.kvstore.serialization import KVBlob

if TYPE_CHECKING:  # avoid a cycle: store.py imports StoreLookup from here
    from repro.kvstore.store import CacheStats


@dataclass
class StoreLookup:
    """Result of one :meth:`ChunkStore.lookup`.

    Attributes
    ----------
    blob:
        The stored chunk (its RPKV5 bytes and parsed header), or ``None`` on
        a miss.
    read_delay:
        Simulated seconds to read the entry from its device (0.0 on a miss).
        For tiered stores this is the delay of the tier that actually served
        the hit — slower than the front tier's when the entry had been
        demoted, which is exactly the excess the serving path prices in.
    tier_index:
        Which tier served the hit (0 = fastest); ``None`` for single-tier
        stores and misses.
    nbytes:
        Length of the held blob; lets callers convert
        ``read_delay`` into a device-relative excess without re-deriving
        entry sizes.
    """

    blob: KVBlob | None
    read_delay: float = 0.0
    tier_index: int | None = None
    nbytes: int = 0

    @property
    def hit(self) -> bool:
        return self.blob is not None


@runtime_checkable
class ChunkStore(Protocol):
    """Structural interface of every chunk KV store backend."""

    stats: CacheStats

    def contains(self, key: str) -> bool: ...

    def lookup(self, key: str) -> StoreLookup: ...

    def put(self, key: str, blob: KVBlob) -> None: ...

    def reset_stats(self) -> None: ...

    @property
    def bytes_stored(self) -> int: ...

    @property
    def n_entries(self) -> int: ...

    @property
    def device(self) -> StorageDevice: ...
