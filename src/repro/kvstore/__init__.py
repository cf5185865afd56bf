"""KV cache storage substrate.

Models the storage side of CacheBlend: the devices KV caches can live on
(GPU HBM, CPU RAM, NVMe SSD, slower disks, object stores), the RPKV5 codec,
and the two :class:`ChunkStore` backends — a hash-addressed whole-chunk store
with LRU eviction (paper §5.1), and a multi-tier store (RAM + SSD) of such
stores with promotion and demotion.  Stores hold each chunk as the RPKV5
bytes it was packed into once, at ``put`` (a :class:`KVBlob`), and account
the bytes they hold.
"""

from repro.kvstore.config import STORE_BACKENDS, StoreConfig
from repro.kvstore.device import DEVICE_PRESETS, StorageDevice, get_device
from repro.kvstore.faults import (
    ALL_FAULT_KINDS,
    FaultConfig,
    FaultKind,
    FaultStats,
    FaultyStore,
    StoreFault,
    StoreReadTimeout,
    StoreUnavailable,
)
from repro.kvstore.hierarchy import TieredKVStore
from repro.kvstore.precision import (
    ELEM_BYTES,
    KV_ELEM_DTYPES,
    PRECISION_PRESETS,
    PrecisionPolicy,
)
from repro.kvstore.protocol import ChunkStore, StoreLookup
from repro.kvstore.serialization import (
    KVBlob,
    KVCorruptionError,
    deserialize_kv,
    serialize_kv,
)
from repro.kvstore.store import (
    CHUNK_KEY_VERSION,
    CacheStats,
    KVCacheStore,
    chunk_key,
)

__all__ = [
    "DEVICE_PRESETS",
    "StorageDevice",
    "get_device",
    "serialize_kv",
    "deserialize_kv",
    "KVBlob",
    "KVCorruptionError",
    "FaultyStore",
    "FaultConfig",
    "FaultKind",
    "ALL_FAULT_KINDS",
    "FaultStats",
    "StoreFault",
    "StoreReadTimeout",
    "StoreUnavailable",
    "ChunkStore",
    "StoreLookup",
    "KVCacheStore",
    "CacheStats",
    "chunk_key",
    "CHUNK_KEY_VERSION",
    "TieredKVStore",
    "StoreConfig",
    "STORE_BACKENDS",
    "PrecisionPolicy",
    "PRECISION_PRESETS",
    "KV_ELEM_DTYPES",
    "ELEM_BYTES",
]
