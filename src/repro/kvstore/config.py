"""Declarative store configuration: pick a backend, build a ChunkStore.

:meth:`~repro.core.blend_engine.BlendEngine.build` accepts a
:class:`StoreConfig` — a frozen, JSON-friendly recipe for a whole-chunk store
or a tiered hierarchy of them — or any pre-built
:class:`~repro.kvstore.protocol.ChunkStore`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kvstore.device import get_device
from repro.kvstore.hierarchy import TieredKVStore
from repro.kvstore.precision import PRECISION_PRESETS, PrecisionPolicy
from repro.kvstore.store import KVCacheStore

#: Store backends :meth:`StoreConfig.build` can construct.
STORE_BACKENDS = ("chunk", "tiered")


@dataclass(frozen=True)
class StoreConfig:
    """Recipe for a chunk KV store backend.

    Parameters
    ----------
    backend:
        ``"chunk"`` — one whole-chunk LRU :class:`KVCacheStore`;
        ``"tiered"`` — a :class:`TieredKVStore` of such stores over
        ``tier_devices`` (hits promote to tier 0, eviction victims demote
        one tier down).
    capacity_bytes:
        Capacity of a single-tier store (``None`` = the device preset's).
        Ignored by the tiered backend, which sizes from ``tier_capacity_bytes``.
    tier_devices / tier_capacity_bytes:
        Device preset names fastest-first and matching per-tier capacities
        (``None`` entries fall back to each device preset's capacity).
    kv_dtype:
        The precision the engine packs chunks at before it puts them: a
        uniform payload dtype (``float32``/``float16``/``int8``) or the
        per-layer ``mixed`` preset, resolved into the :attr:`precision`
        policy.  The stores themselves hold whatever bytes they are given
        and account their length.
    """

    backend: str = "chunk"
    capacity_bytes: int | None = None
    tier_devices: tuple[str, ...] = ("cpu_ram", "nvme_ssd")
    tier_capacity_bytes: tuple[int | None, ...] | None = None
    kv_dtype: str = "float16"

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
        return self.backend == "tiered"

    def build(self, device=None):
        """Construct the configured :class:`ChunkStore`.

        ``device`` overrides the single-tier storage device (the engine
        passes the device its controller picked).
        """
        if not self.tiered:
            return KVCacheStore(
                device=device if device is not None else get_device(self.tier_devices[0]),
                capacity_bytes=self.capacity_bytes,
            )
        capacities = self.tier_capacity_bytes or tuple(None for _ in self.tier_devices)
        return TieredKVStore(
            tiers=[
                KVCacheStore(device=get_device(name), capacity_bytes=capacity)
                for name, capacity in zip(self.tier_devices, capacities)
            ]
        )
