"""Fleet tier: N engine replicas behind a cache-affinity request router.

One engine replica saturates (paper Figure 14); the "millions of users"
direction is a *fleet* of replicas, each wrapping a private chunk KV store —
KV never moves between replicas, so where a request lands decides whether its
chunks hit.  The router places each arrival on one replica:

* ``least_loaded`` — join the replica whose next request would start
  earliest (projected from serial occupancy), affinity-blind.  The classic
  load balancer: even utilisation, but hot chunks are re-fetched (missed)
  on every replica they land on.
* ``consistent_hash`` — each chunk id owns a position on a hash ring of
  replica virtual nodes; a request joins the replica owning the plurality
  of its chunks.  Deterministic chunk→replica homes, stable under replica
  count changes (only ``1/N`` of chunks move), no load feedback.
* ``affinity`` — score every replica by its hottest-chunk overlap with the
  request (resident chunks weighted by how often that replica has seen
  them) and join the best-scoring one, falling back to least-loaded when no
  replica holds anything relevant.  Hot Zipf chunks concentrate on their
  home replicas, trading utilisation skew for aggregate hit rate.

:func:`repro.bench.replay.simulate_fleet` runs the whole placement +
per-replica scheduling loop and reports the fleet metrics of the sweep axis:
aggregate throughput, per-replica hit rates, and ``utilisation_skew``
(max/mean replica busy share — 1.0 is perfectly even).
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.kvstore.protocol import ChunkStore
from repro.serving.engine import EngineResult, InferenceEngine
from repro.serving.request import GenerationRequest

ROUTING_POLICIES = ("least_loaded", "consistent_hash", "affinity")


@dataclass
class Replica:
    """One engine replica with a private chunk store and its own scheduler.

    ``store`` is a real :class:`~repro.kvstore.protocol.ChunkStore` keyed by
    chunk id; whoever places a request looks its chunks up there first (the
    sweep's :func:`~repro.bench.replay.replay_request`), so the same request
    costs more on a replica that has never seen its chunks.
    ``access_counts`` is each chunk's lifetime access count on this replica
    (it survives eviction) — with ``store`` residency, the hotness signal
    :class:`AffinityRouter` scores.  ``available_at`` is a cheap serial
    projection of when the replica would start its next request — the load
    signal the least-loaded policy (and affinity tie-breaks) read; the
    authoritative timings come from a per-replica scheduler pass.
    """

    replica_id: int
    store: ChunkStore
    engine: InferenceEngine | None = None
    available_at: float = 0.0
    #: Total occupancy assigned so far (load tie-breaker).
    assigned_work_s: float = 0.0
    access_counts: dict[int, int] = field(default_factory=dict, repr=False)
    indices: list[int] = field(default_factory=list, repr=False)
    requests: list[GenerationRequest] = field(default_factory=list, repr=False)
    results: list[EngineResult] = field(default_factory=list, repr=False)

    def projected_start(self, arrival_time: float) -> float:
        """When a request arriving at *arrival_time* would start here."""
        return max(self.available_at, arrival_time)

    def place(
        self, index: int, request: GenerationRequest, chunk_ids: list[int]
    ) -> None:
        """Accept *request*: count its chunk accesses and serve it here."""
        for chunk in chunk_ids:
            self.access_counts[chunk] = self.access_counts.get(chunk, 0) + 1
        self.indices.append(index)
        self.requests.append(request)
        if self.engine is not None:
            result = self.engine.serve(request)
            self.results.append(result)
            self.available_at = (
                self.projected_start(request.arrival_time) + result.occupancy
            )
            self.assigned_work_s += result.occupancy


@runtime_checkable
class Router(Protocol):
    """Anything that can pick a replica for a request."""

    policy: str

    def route(
        self,
        request: GenerationRequest,
        chunk_ids: list[int],
        replicas: list[Replica],
    ) -> int:
        """Index into *replicas* of the request's placement."""
        ...


@dataclass
class LeastLoadedRouter:
    """Join the replica whose next request would start earliest.

    Ties (e.g. an idle fleet) break on total assigned work, then on replica
    id, so placement is deterministic.
    """

    policy: str = "least_loaded"

    def route(
        self,
        request: GenerationRequest,
        chunk_ids: list[int],
        replicas: list[Replica],
    ) -> int:
        return min(
            range(len(replicas)),
            key=lambda r: (
                replicas[r].projected_start(request.arrival_time),
                replicas[r].assigned_work_s,
                r,
            ),
        )


def _stable_hash(token: str) -> int:
    """64-bit stable hash (``hash()`` is salted per process; this is not)."""
    return int.from_bytes(hashlib.blake2b(token.encode(), digest_size=8).digest(), "big")


@dataclass
class ConsistentHashRouter:
    """Plurality vote of the request's chunks over a consistent-hash ring.

    Every replica owns ``n_vnodes`` virtual positions on a 64-bit ring; a
    chunk's home is the first virtual node clockwise of its hash.  The
    request joins the replica owning the most of its chunks (ties: higher
    owned count first, then lower replica id).  Placement is a pure function
    of the chunk ids and the fleet size — no load feedback, but repeated
    requests for the same hot chunks always land on the same replica.
    """

    n_replicas: int
    n_vnodes: int = 64
    policy: str = "consistent_hash"
    _ring: list[tuple[int, int]] = field(default_factory=list, repr=False)
    _positions: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if self.n_vnodes < 1:
            raise ValueError("n_vnodes must be >= 1")
        points = sorted(
            (_stable_hash(f"replica-{replica}-vnode-{vnode}"), replica)
            for replica in range(self.n_replicas)
            for vnode in range(self.n_vnodes)
        )
        self._ring = points
        self._positions = [position for position, _ in points]

    def owner(self, chunk_id: object) -> int:
        """Replica owning *chunk_id* on the ring."""
        slot = bisect.bisect_right(self._positions, _stable_hash(f"chunk-{chunk_id}"))
        return self._ring[slot % len(self._ring)][1]

    def route(
        self,
        request: GenerationRequest,
        chunk_ids: list[int],
        replicas: list[Replica],
    ) -> int:
        votes: dict[int, int] = {}
        for chunk in chunk_ids:
            owner = self.owner(chunk)
            votes[owner] = votes.get(owner, 0) + 1
        if not votes:
            return 0
        return min(votes, key=lambda replica: (-votes[replica], replica))


@dataclass
class AffinityRouter:
    """Hottest-chunk-overlap scoring against each replica's resident store.

    A replica scores ``sum(1 + access_counts[c])`` over the request chunks it
    currently holds: overlap counts, and overlap on chunks that replica has
    served often (its hot set) counts more — so a hot chunk's home replica
    outbids a replica that merely happens to hold a cold copy.  Ties break
    toward the less loaded replica.  When no replica holds anything relevant
    (cold start, or an all-cold request) the placement falls back to
    least-loaded so load still spreads.

    Pure affinity collapses under Zipf: once one replica holds the hot set,
    every request overlaps *something* there and the whole stream pins to
    it.  ``load_factor`` bounds that (consistent-hashing-with-bounded-loads
    style): a replica whose assigned work exceeds ``load_factor`` × the
    fleet mean is excluded from scoring, so the hot set spills to a second
    home instead of queueing behind the first — skew stays near the factor
    while overlap routing keeps the hit-rate win.
    """

    policy: str = "affinity"
    load_factor: float = 1.25
    _fallback: LeastLoadedRouter = field(default_factory=LeastLoadedRouter, repr=False)

    def __post_init__(self) -> None:
        if self.load_factor < 1.0:
            raise ValueError("load_factor must be >= 1")

    @staticmethod
    def score(replica: Replica, chunk_ids: list[int]) -> float:
        return float(
            sum(
                1 + replica.access_counts.get(c, 0)
                for c in chunk_ids
                if replica.store.contains(c)
            )
        )

    def route(
        self,
        request: GenerationRequest,
        chunk_ids: list[int],
        replicas: list[Replica],
    ) -> int:
        mean_assigned = sum(r.assigned_work_s for r in replicas) / len(replicas)
        allowed = [
            replica
            for replica in replicas
            if replica.assigned_work_s <= self.load_factor * mean_assigned + 1e-12
        ] or replicas
        scores = {
            replica.replica_id: self.score(replica, chunk_ids) for replica in allowed
        }
        if not any(scores.values()):
            # Least-loaded among the non-overloaded replicas, translated
            # back to the caller's replica numbering.
            return allowed[self._fallback.route(request, chunk_ids, allowed)].replica_id
        best = min(
            allowed,
            key=lambda replica: (
                -scores[replica.replica_id],
                replica.projected_start(request.arrival_time),
                replica.assigned_work_s,
                replica.replica_id,
            ),
        )
        return best.replica_id


def build_router(policy: str, n_replicas: int) -> Router:
    """Router instance for *policy* (one of :data:`ROUTING_POLICIES`)."""
    if policy == "least_loaded":
        return LeastLoadedRouter()
    if policy == "consistent_hash":
        return ConsistentHashRouter(n_replicas=n_replicas)
    if policy == "affinity":
        return AffinityRouter()
    raise ValueError(
        f"unknown routing policy {policy!r}; expected one of {ROUTING_POLICIES}"
    )
