"""Hash-addressed chunk KV cache store with capacity-bounded eviction.

The store maps a *chunk key* (a stable hash of the chunk's token ids, the
model name, and — for prefix caching — the prefix it was computed under) to a
chunk's KV cache living on one storage device, held as the RPKV5 bytes it was
packed into once, at ``put`` (a :class:`~repro.kvstore.serialization.KVBlob`).
The store accounts each entry at its blob's length; when the device is full,
the least-recently-used entry is evicted (paper §5.1, "KV cache store").
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.kvstore.device import StorageDevice
from repro.kvstore.protocol import StoreLookup
from repro.kvstore.serialization import KVBlob

#: Version prefix of :func:`chunk_key`.  v1 hashed a ","-joined decimal
#: string of the token ids (O(T) Python string work per lookup); v2 hashes
#: the raw int64 bytes of the id array directly.  The prefix makes the
#: format change explicit: a v2 store never aliases v1 entries.
CHUNK_KEY_VERSION = "k2"


def chunk_key(token_ids: np.ndarray, model_name: str = "", prefix_key: str = "") -> str:
    """Stable cache key for a chunk (``"k2-<hex digest>"``).

    The digest covers the raw little-endian int64 bytes of the token-id
    array — no per-token Python string formatting — plus the model name and
    ``prefix_key``, NUL-separated so field boundaries cannot alias.

    ``prefix_key`` is empty for CacheBlend and full-KV-reuse (the cache is
    position independent after re-alignment); prefix caching passes the key of
    the preceding context so that the same chunk under different prefixes maps
    to different entries — the storage blow-up the paper points out in §7.2.
    """
    ids = np.ascontiguousarray(np.asarray(token_ids, dtype="<i8"))
    digest = hashlib.blake2b(digest_size=16)
    digest.update(model_name.encode())
    digest.update(b"\x00")
    digest.update(prefix_key.encode())
    digest.update(b"\x00")
    digest.update(ids.tobytes())
    return f"{CHUNK_KEY_VERSION}-{digest.hexdigest()}"


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one store."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0
    bytes_stored: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        """Zero the counters (bytes_stored reflects live entries and stays)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.inserts = 0

    def as_dict(self) -> dict[str, float]:
        """JSON-friendly snapshot, including the derived hit rate."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "inserts": self.inserts,
            "bytes_stored": self.bytes_stored,
            "hit_rate": self.hit_rate,
        }


@dataclass
class KVCacheStore:
    """A single-device KV cache store with LRU eviction.

    Parameters
    ----------
    device:
        The storage device the caches live on; determines capacity and the
        simulated read delay :meth:`lookup` reports.
    capacity_bytes:
        Optional override of the device capacity (useful to provoke evictions
        in experiments without multi-terabyte contexts).
    on_evict:
        Optional callback invoked as ``on_evict(key, blob)`` for every
        capacity-driven eviction — the hook :class:`~repro.kvstore.hierarchy.
        TieredKVStore` uses to demote victims to the next tier instead of
        dropping them.

    Entries are accounted at their blob's length, so a chunk packed at int8
    costs about half its fp16 bytes and the same ``capacity_bytes`` holds
    about twice as many chunks.
    """

    device: StorageDevice
    capacity_bytes: int | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    on_evict: Callable[[str, KVBlob], None] | None = field(default=None, repr=False)
    _entries: "OrderedDict[str, KVBlob]" = field(default_factory=OrderedDict)

    def __post_init__(self) -> None:
        if self.capacity_bytes is None:
            self.capacity_bytes = self.device.capacity_bytes
        if self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        return key in self._entries

    def lookup(self, key: str) -> StoreLookup:
        """Fetch *key* with its simulated read delay, updating recency and
        hit/miss statistics."""
        blob = self._entries.get(key)
        if blob is None:
            self.stats.misses += 1
            return StoreLookup(blob=None)
        self.stats.hits += 1
        self._entries.move_to_end(key)
        return StoreLookup(
            blob=blob, read_delay=self.device.read_time(blob.nbytes), nbytes=blob.nbytes
        )

    def peek(self, key: str) -> KVBlob | None:
        """Fetch without touching statistics or recency (used by tooling)."""
        return self._entries.get(key)

    def put(self, key: str, blob: KVBlob) -> None:
        """Insert (or overwrite) a blob, evicting LRU entries to make room."""
        nbytes = blob.nbytes
        if nbytes > self.capacity_bytes:
            raise ValueError(
                f"blob of {nbytes} bytes cannot fit in capacity {self.capacity_bytes}"
            )
        if key in self._entries:
            self.stats.bytes_stored -= self._entries.pop(key).nbytes
        while self.stats.bytes_stored + nbytes > self.capacity_bytes:
            self._evict_one()
        self._entries[key] = blob
        self.stats.bytes_stored += nbytes
        self.stats.inserts += 1

    def remove(self, key: str) -> bool:
        """Remove an entry; returns whether it existed."""
        blob = self._entries.pop(key, None)
        if blob is None:
            return False
        self.stats.bytes_stored -= blob.nbytes
        return True

    def clear(self) -> None:
        self._entries.clear()
        self.stats.bytes_stored = 0

    def reset_stats(self) -> None:
        """Zero the counters (``bytes_stored`` reflects live entries, stays)."""
        self.stats.reset()

    def _evict_one(self) -> None:
        if not self._entries:
            raise RuntimeError("eviction requested on an empty store")
        # The front is the least recently used: lookup() moves hits to the end.
        key, blob = self._entries.popitem(last=False)
        self.stats.bytes_stored -= blob.nbytes
        self.stats.evictions += 1
        if self.on_evict is not None:
            self.on_evict(key, blob)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_entries(self) -> int:
        return len(self._entries)

    @property
    def bytes_stored(self) -> int:
        return self.stats.bytes_stored

    def keys(self) -> list[str]:
        return list(self._entries.keys())
