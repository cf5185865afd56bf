"""Seeded fault injection for ``ChunkStore`` backends.

:class:`FaultyStore` wraps any :class:`~repro.kvstore.protocol.ChunkStore`
and injects failures on the read path — the chaos half of the robustness
story.  Four fault kinds model how a real KV store degrades:

* ``read_timeout``: the read never returns within budget — raised as a
  typed :class:`StoreReadTimeout`.
* ``transient_miss``: the entry exists but this read fails (a dropped RPC,
  a mid-compaction tier) — raised as :class:`StoreUnavailable`.
* ``corrupt_payload``: the stored bytes are damaged.  The injector flips a
  payload byte in a copy of the entry's stored RPKV5 bytes and decodes the
  copy with :func:`~repro.kvstore.serialization.deserialize_kv` — so the
  resulting :class:`~repro.kvstore.serialization.KVCorruptionError` is
  raised by the *real* blake2b integrity check, not simulated.  The stored
  entry stays intact, so a retry can read it.
* ``slow_read``: the read succeeds but the returned
  :class:`~repro.kvstore.protocol.StoreLookup` carries an inflated
  ``read_delay`` (a stalled slow tier) — what a per-lookup timeout policy
  has to cut off.

Faults fire only on hits (a miss has nothing to break), from a dedicated
``np.random.default_rng(seed)`` stream, so a run is exactly reproducible
and the wrapped store's own statistics stay meaningful.  Everything not on
the lookup path delegates to the inner store untouched.

:class:`~repro.core.blend_engine.BlendEngine` is the intended consumer: its
retry-with-backoff lookup policy absorbs transient faults and falls back to
recomputing the chunk when retries are exhausted (see
``LookupRetryPolicy``), which is how serving stays correct — never fast and
wrong — under store failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.kvstore.protocol import ChunkStore, StoreLookup
from repro.kvstore.serialization import KVBlob, deserialize_kv


class StoreFault(RuntimeError):
    """Base class for injected (or real) store read failures.

    Typed so the engine's lookup policy can retry these while letting
    programming errors propagate.
    """


class StoreReadTimeout(StoreFault):
    """A store read exceeded its time budget."""


class StoreUnavailable(StoreFault):
    """A store read failed transiently; the entry may still exist."""


class FaultKind(str, Enum):
    """The injectable failure modes, in wire-friendly string form."""

    READ_TIMEOUT = "read_timeout"
    SLOW_READ = "slow_read"
    CORRUPT_PAYLOAD = "corrupt_payload"
    TRANSIENT_MISS = "transient_miss"


ALL_FAULT_KINDS = tuple(FaultKind)


@dataclass(frozen=True)
class FaultConfig:
    """Injection policy of a :class:`FaultyStore`.

    ``rate`` is the per-hit fault probability; ``kinds`` the enabled
    failure modes (uniformly drawn per fault); ``slow_read_delay_s`` the
    extra simulated read delay a ``slow_read`` fault adds — set it above
    the engine's per-lookup timeout to make stalls count as timeouts.
    """

    rate: float = 0.0
    kinds: tuple[FaultKind, ...] = ALL_FAULT_KINDS
    slow_read_delay_s: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("fault rate must be within [0, 1]")
        if not self.kinds:
            raise ValueError("at least one fault kind must be enabled")
        if any(kind not in ALL_FAULT_KINDS for kind in self.kinds):
            raise ValueError(f"unknown fault kind in {self.kinds!r}")
        if self.slow_read_delay_s < 0.0:
            raise ValueError("slow_read_delay_s must be >= 0")


@dataclass
class FaultStats:
    """Counts of injected faults by kind."""

    injected: dict = field(
        default_factory=lambda: {kind.value: 0 for kind in FaultKind}
    )
    lookups: int = 0

    @property
    def total(self) -> int:
        return sum(self.injected.values())

    def as_dict(self) -> dict[str, int]:
        out = {f"injected_{kind}": n for kind, n in self.injected.items()}
        out["injected_total"] = self.total
        out["faulted_lookups"] = self.lookups
        return out


class FaultyStore:
    """A :class:`ChunkStore` wrapper injecting seeded read-path failures.

    Only ``lookup`` is intercepted; every other attribute —
    ``put``, ``contains``, ``stats``, tier internals like
    ``stats_by_tier`` — resolves on the wrapped store, so the wrapper is
    drop-in anywhere the inner store was (including
    :class:`~repro.core.blend_engine.BlendEngine.build` plumbing and the
    proxy probe's tier reporting).
    """

    def __init__(self, inner: ChunkStore, config: FaultConfig) -> None:
        self.inner = inner
        self.config = config
        self.fault_stats = FaultStats()
        self._rng = np.random.default_rng(config.seed)

    # -- intercepted read path -----------------------------------------
    def lookup(self, key: str) -> StoreLookup:
        found = self.inner.lookup(key)
        if not found.hit or self.config.rate <= 0.0:
            return found
        if self._rng.random() >= self.config.rate:
            return found
        kind = self.config.kinds[int(self._rng.integers(len(self.config.kinds)))]
        self.fault_stats.injected[kind.value] += 1
        self.fault_stats.lookups += 1
        if kind is FaultKind.READ_TIMEOUT:
            raise StoreReadTimeout(f"injected read timeout for {key!r}")
        if kind is FaultKind.TRANSIENT_MISS:
            raise StoreUnavailable(f"injected transient read failure for {key!r}")
        if kind is FaultKind.CORRUPT_PAYLOAD:
            self._corrupt(found.blob)  # raises KVCorruptionError
            raise AssertionError("corruption injection did not trip the checksum")
        return StoreLookup(
            blob=found.blob,
            read_delay=found.read_delay + self.config.slow_read_delay_s,
            tier_index=found.tier_index,
            nbytes=found.nbytes,
        )

    def _corrupt(self, blob: KVBlob) -> None:
        """Trip the real RPKV5 integrity check on a damaged copy of *blob*."""
        damaged = bytearray(blob.data)
        flip = len(damaged) - 1 - int(self._rng.integers(max(1, blob.n_tokens * 8)))
        damaged[max(0, flip)] ^= 0xFF
        deserialize_kv(bytes(damaged))

    def reset_fault_stats(self) -> None:
        self.fault_stats = FaultStats()

    # -- everything else is the inner store ----------------------------
    def __getattr__(self, name: str):
        return getattr(self.inner, name)
