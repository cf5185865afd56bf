"""Declarative store configuration: pick a backend, build a ChunkStore.

With multiple backends (chunk / trie dedup / tiered hierarchies) the store
choice is its own axis: :class:`~repro.core.blend_engine.BlendEngine.build`
accepts a :class:`StoreConfig` — a frozen, JSON-friendly recipe — or any
pre-built :class:`~repro.kvstore.protocol.ChunkStore`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kvstore.device import get_device
from repro.kvstore.hierarchy import TieredKVStore
from repro.kvstore.precision import PRECISION_PRESETS, PrecisionPolicy
from repro.kvstore.store import EvictionPolicy, KVCacheStore
from repro.kvstore.trie import RadixTrieStore

#: Store backends :meth:`StoreConfig.build` can construct.
STORE_BACKENDS = ("chunk", "trie", "tiered", "tiered_trie")


@dataclass(frozen=True)
class StoreConfig:
    """Recipe for a chunk KV store backend.

    Parameters
    ----------
    backend:
        ``"chunk"`` — whole-chunk :class:`KVCacheStore` (the historical
        default); ``"trie"`` — prefix-dedup :class:`RadixTrieStore`;
        ``"tiered"`` / ``"tiered_trie"`` — a :class:`TieredKVStore` over
        ``tier_devices`` with chunk or trie tiers respectively.
    capacity_bytes:
        Capacity of a single-tier store (``None`` = the device preset's).
        Ignored by tiered backends, which size from ``tier_capacity_bytes``.
    tier_devices / tier_capacity_bytes:
        Device preset names fastest-first and matching per-tier capacities
        (``None`` entries fall back to each device preset's capacity).
    policy:
        Eviction policy shared by every (single or tier) store.
    kv_dtype:
        Store precision: a uniform payload dtype (``float32``/``float16``/
        ``int8``) or the per-layer ``mixed`` preset.  Resolved into the
        :attr:`precision` policy that governs byte accounting, the
        quantisation round-trip the engine applies before ``put``, and the
        serialized wire format.
    promote_on_hit / demote_on_evict:
        Tiered-backend behaviour: copy hits up to tier 0, demote eviction
        victims one tier down.
    ttl_s:
        Optional entry time-to-live (trie backends only).
    """

    backend: str = "chunk"
    capacity_bytes: int | None = None
    tier_devices: tuple[str, ...] = ("cpu_ram", "nvme_ssd")
    tier_capacity_bytes: tuple[int | None, ...] | None = None
    policy: EvictionPolicy = EvictionPolicy.LRU
    kv_dtype: str = "float16"
    promote_on_hit: bool = True
    demote_on_evict: bool = True
    ttl_s: float | None = None

    def __post_init__(self) -> None:
        if self.backend not in STORE_BACKENDS:
            raise ValueError(
                f"unknown store backend {self.backend!r}; expected one of {STORE_BACKENDS}"
            )
        if self.kv_dtype not in PRECISION_PRESETS:
            raise ValueError(
                f"unknown kv_dtype {self.kv_dtype!r}; expected one of {PRECISION_PRESETS}"
            )
        if not self.tier_devices:
            raise ValueError("tier_devices must name at least one device")
        if self.tier_capacity_bytes is not None and len(self.tier_capacity_bytes) != len(
            self.tier_devices
        ):
            raise ValueError("tier_capacity_bytes must match tier_devices in length")

    @property
    def precision(self) -> PrecisionPolicy:
        """The per-layer precision policy ``kv_dtype`` resolves to."""
        return PrecisionPolicy.get(self.kv_dtype)

    @property
    def tiered(self) -> bool:
        return self.backend in ("tiered", "tiered_trie")

    def build(self, device=None):
        """Construct the configured :class:`ChunkStore`.

        ``device`` overrides the single-tier storage device (the engine
        passes the device its controller picked).  Every store accounts
        bytes at :attr:`precision`.
        """
        precision = self.precision
        if not self.tiered:
            storage = device if device is not None else get_device(self.tier_devices[0])
            cls = KVCacheStore if self.backend == "chunk" else RadixTrieStore
            kwargs = dict(
                device=storage,
                policy=self.policy,
                capacity_bytes=self.capacity_bytes,
                precision=precision,
            )
            if self.backend == "trie" and self.ttl_s is not None:
                kwargs["ttl_s"] = self.ttl_s
            return cls(**kwargs)

        tier_cls = KVCacheStore if self.backend == "tiered" else RadixTrieStore
        capacities = self.tier_capacity_bytes or tuple(None for _ in self.tier_devices)
        tiers = []
        for name, capacity in zip(self.tier_devices, capacities):
            kwargs = dict(
                device=get_device(name),
                policy=self.policy,
                capacity_bytes=capacity,
                precision=precision,
            )
            if self.backend == "tiered_trie" and self.ttl_s is not None:
                kwargs["ttl_s"] = self.ttl_s
            tiers.append(tier_cls(**kwargs))
        return TieredKVStore(
            tiers=tiers,
            promote_on_hit=self.promote_on_hit,
            demote_on_evict=self.demote_on_evict,
        )
