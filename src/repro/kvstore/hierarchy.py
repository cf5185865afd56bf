"""Multi-tier KV cache store (e.g. CPU RAM backed by an SSD).

The prefix-caching baseline in the paper stores KV caches "in both RAM and
SSD"; this tiered store models that: lookups search tiers from fastest to
slowest, hits below the fastest tier are copied up to it, and inserts go to
the fastest tier whose capacity can hold the entry.  Capacity-driven
evictions in a tier *demote* the victim to the next tier down (via the
tiers' ``on_evict`` hooks) instead of dropping it, so the hierarchy behaves
like an inclusive RAM cache over a larger SSD working set.  Promotion and
demotion move the same packed blob between tiers; nothing is repacked.

:class:`TieredKVStore` implements the same :class:`~repro.kvstore.protocol.
ChunkStore` surface as a single :class:`~repro.kvstore.store.KVCacheStore`
— ``lookup`` returns a :class:`~repro.kvstore.protocol.StoreLookup` whose
``read_delay`` is the serving tier's — so a
:class:`~repro.core.blend_engine.BlendEngine` can sit on top of either
without caring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kvstore.device import StorageDevice
from repro.kvstore.protocol import StoreLookup
from repro.kvstore.serialization import KVBlob
from repro.kvstore.store import CacheStats


@dataclass
class TieredKVStore:
    """An ordered list of single-tier stores, fastest first.

    Each tier keeps its own :class:`CacheStats` (per-tier hit rates and
    residency); the tiered store's own ``stats`` aggregates top-level
    hits/misses/inserts so it drops in wherever a single store's counters
    were read.
    """

    tiers: list
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("a tiered store needs at least one tier")
        # A tier's eviction victims demote one tier down; the last tier drops.
        for index, tier in enumerate(self.tiers[:-1]):
            tier.on_evict = self._demoter(index + 1)

    def _demoter(self, to_index: int):
        def demote(key: str, blob: KVBlob) -> None:
            below = self.tiers[to_index]
            if below.contains(key):
                return  # inclusive hierarchy: a promoted copy already lives below
            if blob.nbytes <= below.capacity_bytes:
                below.put(key, blob)

        return demote

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        return any(tier.contains(key) for tier in self.tiers)

    def lookup(self, key: str) -> StoreLookup:
        """Tiered lookup: the serving tier's read delay, promotion on hit."""
        for index, tier in enumerate(self.tiers):
            found = tier.lookup(key)
            if found.hit:
                self.stats.hits += 1
                if index > 0:
                    self._try_promote(key, found.blob)
                return StoreLookup(
                    blob=found.blob,
                    read_delay=found.read_delay,
                    tier_index=index,
                    nbytes=found.nbytes,
                )
        self.stats.misses += 1
        return StoreLookup(blob=None)

    def put(self, key: str, blob: KVBlob) -> None:
        """Insert into the fastest tier whose capacity holds the entry."""
        for tier in self.tiers:
            if blob.nbytes <= tier.capacity_bytes:
                self.stats.inserts += 1
                tier.put(key, blob)
                return
        raise ValueError("blob does not fit in any tier")

    def remove(self, key: str) -> bool:
        removed = False
        for tier in self.tiers:
            removed = tier.remove(key) or removed
        return removed

    def reset_stats(self) -> None:
        self.stats.reset()
        for tier in self.tiers:
            tier.reset_stats()

    def _try_promote(self, key: str, blob: KVBlob) -> None:
        fastest = self.tiers[0]
        if blob.nbytes <= fastest.capacity_bytes:
            fastest.put(key, blob)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def device(self) -> StorageDevice:
        """The fastest tier's device (what callers price promotions at)."""
        return self.tiers[0].device

    @property
    def bytes_stored(self) -> int:
        return sum(tier.bytes_stored for tier in self.tiers)

    @property
    def n_entries(self) -> int:
        return sum(tier.n_entries for tier in self.tiers)

    def stats_by_tier(self) -> list[dict[str, float]]:
        """Per-tier stat snapshots, fastest first (for reports)."""
        return [
            {"device": tier.device.name, **tier.stats.as_dict()}
            for tier in self.tiers
        ]
