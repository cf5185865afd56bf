"""Replay a workload's chunk accesses through real chunk KV stores.

How fast a request is served depends on how much of its context the KV store
already holds.  The sweep answers that with the serving path's own stores:
every request's chunks are looked up in :class:`~repro.kvstore.protocol.
ChunkStore` instances built from a :class:`~repro.kvstore.config.StoreConfig`
— a whole-chunk LRU :class:`~repro.kvstore.store.KVCacheStore`, or a RAM→slow
:class:`~repro.kvstore.hierarchy.TieredKVStore` — and a miss puts the chunk,
as the serving system would after prefilling it.  Keys are the workload's
chunk ids and every entry is the same one-row :data:`PLACEHOLDER` cache, so a
store sized to N placeholder entries holds N chunks whatever their length.

:func:`replay_request` is the one place a request's cached, prefix and
slow-tier fractions are derived from store lookups and the seeded fault draw
is applied.  :func:`simulate_fleet` routes a stream over replicas that each
own such a store, and schedules every replica; a single-server sweep cell is
a fleet of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.kvstore.config import StoreConfig
from repro.kvstore.hierarchy import TieredKVStore
from repro.kvstore.protocol import ChunkStore
from repro.model.tensors import KVCache, LayerKV
from repro.serving.engine import EngineResult, InferenceEngine
from repro.serving.request import GenerationRequest, RequestTiming
from repro.serving.router import Replica, build_router
from repro.serving.scheduler import ContinuousBatchingScheduler

#: The KV entry every replayed chunk is stored as: one token, one head, one
#: dimension.
PLACEHOLDER = KVCache(
    [LayerKV(np.zeros((1, 1, 1), np.float16), np.zeros((1, 1, 1), np.float16))]
)

#: Seed salt of the fault draw, so faults are independent of the workload RNG.
_FAULT_SALT = 0xFA017


def chunk_store_config(ram_chunks: int, slow_chunks: int | None = None) -> StoreConfig:
    """Store recipe holding *ram_chunks* chunks, plus a slow tier if given.

    Without *slow_chunks* the recipe is a single LRU :class:`KVCacheStore`;
    with it, a RAM→SSD ``tiered`` store whose tiers hold *ram_chunks* and
    *slow_chunks* placeholder entries.
    """
    entry = StoreConfig().precision.cache_nbytes(PLACEHOLDER)
    if slow_chunks is None:
        return StoreConfig(backend="chunk", capacity_bytes=ram_chunks * entry)
    return StoreConfig(
        backend="tiered", tier_capacity_bytes=(ram_chunks * entry, slow_chunks * entry)
    )


def _tiers(store: ChunkStore) -> list:
    return store.tiers if isinstance(store, TieredKVStore) else [store]


def replay_request(
    request: GenerationRequest,
    chunk_ids: list[int],
    store: ChunkStore,
    fault_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[GenerationRequest, int]:
    """Look *request*'s chunks up in *store*; relabel it from what hit.

    Returns the request with ``cached_chunk_fraction`` (chunks that hit),
    ``prefix_cached_fraction`` (the leading run of hits) and, for a tiered
    store, ``slow_tier_fraction`` (of the hits, those served below tier 0;
    ``None`` for a single-tier store), plus the number of faulted chunks.

    With a positive *fault_rate* each hit independently fails its lookup
    with that probability (one binomial draw from *rng*, which must then be
    given, per request) and is recomputed — the engine's retry-exhausted
    fallback.  Faults relabel the request only: the store itself already
    served or stored the chunk.
    """
    tiers: list[int | None] = []
    for chunk in chunk_ids:
        found = store.lookup(chunk)
        if found.hit:
            tiers.append(found.tier_index or 0)
        else:
            store.put(chunk, PLACEHOLDER)
            tiers.append(None)
    n_chunks = max(1, len(chunk_ids))
    n_hits = sum(tier is not None for tier in tiers)
    n_prefix = next(
        (i for i, tier in enumerate(tiers) if tier is None), len(tiers)
    )
    slow: float | None = None
    if isinstance(store, TieredKVStore):
        slow = sum(1 for tier in tiers if tier) / n_hits if n_hits else 0.0
    cached = n_hits / n_chunks
    prefix = n_prefix / n_chunks
    n_faults = 0
    if fault_rate > 0.0:
        n_faults = int(rng.binomial(n_hits, fault_rate))
        if n_faults:
            cached = (n_hits - n_faults) / n_chunks
            prefix = min(prefix, cached)
    relabelled = replace(
        request,
        cached_chunk_fraction=cached,
        prefix_cached_fraction=prefix,
        slow_tier_fraction=slow,
    )
    return relabelled, n_faults


@dataclass
class FleetRun:
    """Outcome of one :func:`simulate_fleet` pass, in global request order."""

    policy: str
    n_replicas: int
    #: Requests relabelled from their home replica's store.
    requests: list[GenerationRequest]
    results: list[EngineResult]
    timings: list[RequestTiming]
    #: Home replica index of every request.
    replica_of: list[int]
    #: Per-replica store hit rate over the chunks routed there.
    per_replica_hit_rates: list[float]
    #: Fleet-wide store hit rate (total hits / total lookups).
    aggregate_hit_rate: float
    #: Share of the hits served below a store's fastest tier.
    slow_tier_hit_share: float
    #: Tokens of the chunks resident at the end, summed over every tier of
    #: every replica (a chunk held in two tiers counts twice).
    resident_tokens: int
    #: Cached chunks the fault draw turned into recomputes.
    n_faulted: int
    #: Per-replica busy time (occupancy of served, non-rejected requests).
    per_replica_busy_s: list[float]
    #: max/mean replica busy share; 1.0 is a perfectly even fleet.
    utilisation_skew: float
    per_replica_n_requests: list[int] = field(default_factory=list)


def simulate_fleet(
    requests: list[GenerationRequest],
    chunk_ids_per_request: list[list[int]],
    *,
    policy: str,
    n_replicas: int,
    engine: InferenceEngine,
    scheduler: ContinuousBatchingScheduler,
    store: StoreConfig,
    fault_rate: float = 0.0,
    seed: int = 0,
) -> FleetRun:
    """Route *requests* over *n_replicas* replicas and schedule each replica.

    ``chunk_ids_per_request[i]`` is request *i*'s retrieved chunk ids (the
    workload generator's access trace) — the routing and store key.  Each
    replica owns a store built from *store*, serves its requests on
    *engine* and schedules them with *scheduler* (which keeps no state
    between ``schedule`` calls); a request never migrates after placement.
    Requests are placed in arrival order, and each is relabelled by
    :func:`replay_request` on its home replica's store with the seeded fault
    draw at *fault_rate*.
    """
    if len(requests) != len(chunk_ids_per_request):
        raise ValueError("requests and chunk_ids_per_request must have the same length")
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    router = build_router(policy, n_replicas)
    replicas = [
        Replica(replica_id=r, store=store.build(), engine=engine)
        for r in range(n_replicas)
    ]
    rng = np.random.default_rng((seed, _FAULT_SALT))
    chunk_tokens: dict[int, int] = {}
    n_faulted = 0
    order = sorted(range(len(requests)), key=lambda i: requests[i].arrival_time)
    replica_of = [0] * len(requests)
    for index in order:
        request = requests[index]
        chunk_ids = chunk_ids_per_request[index]
        home = router.route(request, chunk_ids, replicas)
        local, n_faults = replay_request(
            request, chunk_ids, replicas[home].store, fault_rate, rng
        )
        replicas[home].place(index, local, chunk_ids)
        replica_of[index] = home
        n_faulted += n_faults
        for chunk in chunk_ids:
            chunk_tokens[chunk] = request.chunk_tokens

    local_requests: list[GenerationRequest | None] = [None] * len(requests)
    local_results: list[EngineResult | None] = [None] * len(requests)
    local_timings: list[RequestTiming | None] = [None] * len(requests)
    per_replica_busy: list[float] = []
    for replica in replicas:
        timings = scheduler.schedule(replica.requests, replica.results)
        busy = 0.0
        for index, request, result, timing in zip(
            replica.indices, replica.requests, replica.results, timings
        ):
            local_requests[index] = request
            local_results[index] = result
            local_timings[index] = timing
            if not timing.rejected:
                busy += result.occupancy
        per_replica_busy.append(busy)

    stores = [replica.store for replica in replicas]
    total_hits = sum(store.stats.hits for store in stores)
    total_lookups = sum(store.stats.lookups for store in stores)
    slow_hits = sum(tier.stats.hits for store in stores for tier in _tiers(store)[1:])
    mean_busy = sum(per_replica_busy) / n_replicas
    return FleetRun(
        policy=policy,
        n_replicas=n_replicas,
        requests=[request for request in local_requests if request is not None],
        results=[result for result in local_results if result is not None],
        timings=[timing for timing in local_timings if timing is not None],
        replica_of=replica_of,
        per_replica_hit_rates=[store.stats.hit_rate for store in stores],
        aggregate_hit_rate=total_hits / total_lookups if total_lookups else 0.0,
        slow_tier_hit_share=slow_hits / total_hits if total_hits else 0.0,
        resident_tokens=sum(
            chunk_tokens[key]
            for store in stores
            for tier in _tiers(store)
            for key in tier.keys()
        ),
        n_faulted=n_faulted,
        per_replica_busy_s=per_replica_busy,
        utilisation_skew=(
            max(per_replica_busy) / mean_busy if mean_busy > 0.0 else 1.0
        ),
        per_replica_n_requests=[len(replica.requests) for replica in replicas],
    )
