"""Fleet tier: routing policies, replica placement and fleet simulation.

The acceptance claim lives in ``TestAffinityBeatsLeastLoaded``: at 4 replicas
under the default Zipf workload, affinity routing achieves a strictly higher
aggregate store hit rate than least-loaded at the same request rate.
"""

import pytest

from repro.bench.replay import chunk_store_config, replay_request, simulate_fleet
from repro.bench.workload import WorkloadGenerator
from repro.kvstore.device import get_device
from repro.model.config import get_config
from repro.serving.costmodel import ServingCostModel
from repro.serving.engine import InferenceEngine
from repro.serving.request import GenerationRequest
from repro.serving.router import (
    ROUTING_POLICIES,
    AffinityRouter,
    ConsistentHashRouter,
    LeastLoadedRouter,
    Replica,
    Router,
    build_router,
)
from repro.serving.scheduler import ContinuousBatchingScheduler


def _request(request_id: int, arrival: float = 0.0) -> GenerationRequest:
    return GenerationRequest(
        request_id=request_id,
        n_chunks=3,
        chunk_tokens=128,
        n_suffix_tokens=16,
        n_output_tokens=4,
        arrival_time=arrival,
    )


def _light_replicas(n: int, capacity: int = 8) -> list[Replica]:
    return [
        Replica(replica_id=r, store=chunk_store_config(capacity).build())
        for r in range(n)
    ]


def _visit(replica: Replica, *chunk_ids: int) -> None:
    """Place one request for *chunk_ids* on *replica*, as the fleet loop does."""
    request, _ = replay_request(_request(0), list(chunk_ids), replica.store)
    replica.place(0, request, list(chunk_ids))


def _engine(model: str = "mistral-7b", device: str = "nvme_ssd") -> InferenceEngine:
    return InferenceEngine(
        ServingCostModel(get_config(model)),
        scheme="cacheblend",
        device=get_device(device),
    )


class TestReplicaHotness:
    """Per-replica lifetime access counts (the affinity signal)."""

    def test_access_counts_survive_eviction(self):
        hot, other = 1, 2
        (replica,) = _light_replicas(1, capacity=1)
        _visit(replica, hot)
        _visit(replica, other)  # evicts `hot` from the one-entry store
        assert not replica.store.contains(hot)
        _visit(replica, hot)
        assert replica.access_counts == {hot: 2, other: 1}


class TestReplicaPlacement:
    def test_place_records_the_request_it_is_given(self):
        (replica,) = _light_replicas(1)
        request, _ = replay_request(_request(0), [1, 2, 3], replica.store)
        replica.place(5, request, [1, 2, 3])
        assert replica.indices == [5]
        assert replica.requests == [request]
        assert replica.results == []  # no engine: placement only

    def test_engine_backed_place_advances_the_load_signal(self):
        replica = Replica(
            replica_id=0,
            store=chunk_store_config(8).build(),
            engine=_engine(),
        )
        assert replica.assigned_work_s == 0.0
        replica.place(0, _request(0), [1, 2, 3])
        assert replica.assigned_work_s > 0.0
        assert replica.available_at >= replica.assigned_work_s


    def test_load_signal_advances_by_the_served_occupancy(self):
        replica = Replica(
            replica_id=0,
            store=chunk_store_config(8).build(),
            engine=_engine(),
        )
        replica.place(0, _request(0, arrival=2.0), [1, 2, 3])
        replica.place(1, _request(1, arrival=2.05), [1, 2, 3])
        first, second = replica.results
        assert replica.assigned_work_s == first.occupancy + second.occupancy
        # The second request queues behind the first's projected occupancy.
        assert replica.available_at == 2.0 + first.occupancy + second.occupancy


class TestLeastLoadedRouter:
    def test_prefers_the_earliest_projected_start(self):
        replicas = _light_replicas(3)
        replicas[0].available_at = 5.0
        replicas[1].available_at = 1.0
        replicas[2].available_at = 3.0
        router = LeastLoadedRouter()
        assert router.route(_request(0), [1], replicas) == 1

    def test_idle_ties_break_on_replica_id(self):
        router = LeastLoadedRouter()
        assert router.route(_request(0), [1], _light_replicas(4)) == 0

    def test_satisfies_the_router_protocol(self):
        assert isinstance(LeastLoadedRouter(), Router)
        assert isinstance(ConsistentHashRouter(n_replicas=2), Router)
        assert isinstance(AffinityRouter(), Router)


class TestConsistentHashRouter:
    def test_placement_is_deterministic(self):
        a = ConsistentHashRouter(n_replicas=4)
        b = ConsistentHashRouter(n_replicas=4)
        for chunk in range(200):
            assert a.owner(chunk) == b.owner(chunk)

    def test_same_chunks_always_land_on_the_same_replica(self):
        router = ConsistentHashRouter(n_replicas=4)
        replicas = _light_replicas(4)
        first = router.route(_request(0), [7, 11, 13], replicas)
        replicas[(first + 1) % 4].available_at = 0.0  # load must not matter
        assert router.route(_request(1, arrival=9.0), [7, 11, 13], replicas) == first

    def test_growing_the_fleet_moves_only_a_minority_of_chunks(self):
        before = ConsistentHashRouter(n_replicas=4)
        after = ConsistentHashRouter(n_replicas=5)
        moved = sum(before.owner(c) != after.owner(c) for c in range(1000))
        # Consistent hashing moves ~1/N of the keys; a modulo scheme would
        # move ~4/5 of them.
        assert moved < 500

    def test_plurality_vote_over_the_request_chunks(self):
        router = ConsistentHashRouter(n_replicas=3)
        chunks = list(range(30))
        majority_owner = router.owner(0)
        majority = [c for c in chunks if router.owner(c) == majority_owner][:3]
        minority = [c for c in chunks if router.owner(c) != majority_owner][:1]
        placed = router.route(_request(0), majority + minority, _light_replicas(3))
        assert placed == majority_owner

    def test_chunkless_request_goes_to_replica_zero(self):
        router = ConsistentHashRouter(n_replicas=3)
        assert router.route(_request(0), [], _light_replicas(3)) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRouter(n_replicas=0)
        with pytest.raises(ValueError):
            ConsistentHashRouter(n_replicas=2, n_vnodes=0)


class TestAffinityRouter:
    def test_cold_start_falls_back_to_least_loaded(self):
        replicas = _light_replicas(3)
        replicas[0].available_at = 2.0
        assert AffinityRouter().route(_request(0), [1, 2], replicas) == 1

    def test_overlap_beats_load(self):
        replicas = _light_replicas(3)
        _visit(replicas[2], 7)
        replicas[2].available_at = 1.0  # busier, but holds the chunk
        assert AffinityRouter().route(_request(0), [7], replicas) == 2

    def test_hotter_overlap_outbids_a_cold_copy(self):
        replicas = _light_replicas(2)
        _visit(replicas[0], 7)
        for _ in range(5):
            _visit(replicas[1], 7)
        assert AffinityRouter().route(_request(0), [7], replicas) == 1

    def test_bounded_load_excludes_the_overloaded_home(self):
        replicas = _light_replicas(2)
        _visit(replicas[0], 7)
        # Replica 0 holds the hot chunk but is far past load_factor x mean.
        replicas[0].assigned_work_s = 10.0
        replicas[1].assigned_work_s = 1.0
        placed = AffinityRouter(load_factor=1.25).route(_request(0), [7], replicas)
        assert placed == 1

    def test_uniform_load_keeps_affinity_routing(self):
        replicas = _light_replicas(2)
        _visit(replicas[1], 7)
        replicas[0].assigned_work_s = 1.0
        replicas[1].assigned_work_s = 1.0
        assert AffinityRouter().route(_request(0), [7], replicas) == 1

    def test_load_factor_validation(self):
        with pytest.raises(ValueError):
            AffinityRouter(load_factor=0.9)


class TestBuildRouter:
    def test_builds_every_policy(self):
        for policy in ROUTING_POLICIES:
            router = build_router(policy, n_replicas=3)
            assert router.policy == policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="routing policy"):
            build_router("coin_flip", n_replicas=2)


@pytest.fixture(scope="module")
def zipf_workload():
    """Default-parameter Zipf workload plus its chunk access trace."""
    generator = WorkloadGenerator(seed=0)
    requests = generator.generate(120)
    return generator, requests, generator.chunk_ids


def _run_fleet(requests, chunk_ids, policy, n_replicas, capacity=160):
    return simulate_fleet(
        requests,
        chunk_ids,
        policy=policy,
        n_replicas=n_replicas,
        engine=_engine(),
        scheduler=ContinuousBatchingScheduler(),
        store=chunk_store_config(capacity),
    )


class TestSimulateFleet:
    @pytest.fixture(scope="class")
    def fleet(self, zipf_workload):
        _, requests, chunk_ids = zipf_workload
        return _run_fleet(requests, chunk_ids, "affinity", 4)

    def test_outputs_stay_in_global_request_order(self, fleet, zipf_workload):
        _, requests, _ = zipf_workload
        assert len(fleet.requests) == len(requests)
        assert len(fleet.results) == len(requests)
        assert len(fleet.timings) == len(requests)
        for original, local, timing in zip(requests, fleet.requests, fleet.timings):
            assert local.request_id == original.request_id
            assert timing.request_id == original.request_id
            assert local.arrival_time == original.arrival_time

    def test_every_request_has_a_home_replica(self, fleet, zipf_workload):
        _, requests, _ = zipf_workload
        assert len(fleet.replica_of) == len(requests)
        assert all(0 <= home < fleet.n_replicas for home in fleet.replica_of)
        assert sum(fleet.per_replica_n_requests) == len(requests)

    def test_fleet_metrics_are_well_formed(self, fleet):
        assert len(fleet.per_replica_hit_rates) == fleet.n_replicas
        assert all(0.0 <= rate <= 1.0 for rate in fleet.per_replica_hit_rates)
        assert 0.0 <= fleet.aggregate_hit_rate <= 1.0
        assert fleet.utilisation_skew >= 1.0 - 1e-9
        assert len(fleet.per_replica_busy_s) == fleet.n_replicas

    def test_single_replica_fleet_has_no_skew(self, zipf_workload):
        _, requests, chunk_ids = zipf_workload
        fleet = _run_fleet(requests, chunk_ids, "least_loaded", 1)
        assert fleet.utilisation_skew == pytest.approx(1.0)
        assert fleet.replica_of == [0] * len(requests)

    def test_placement_is_deterministic(self, zipf_workload):
        _, requests, chunk_ids = zipf_workload
        a = _run_fleet(requests, chunk_ids, "affinity", 4)
        b = _run_fleet(requests, chunk_ids, "affinity", 4)
        assert a.replica_of == b.replica_of
        assert a.aggregate_hit_rate == b.aggregate_hit_rate
        assert [t.ttft for t in a.timings] == [t.ttft for t in b.timings]

    def test_length_mismatch_rejected(self, zipf_workload):
        _, requests, chunk_ids = zipf_workload
        with pytest.raises(ValueError):
            _run_fleet(requests, chunk_ids[:-1], "affinity", 2)

    def test_one_scheduler_serves_every_replica(self, fleet):
        """A scheduler keeps no state between ``schedule`` calls: the shared
        one times each replica's requests as a fresh one would."""
        for replica in range(fleet.n_replicas):
            homed = [i for i, home in enumerate(fleet.replica_of) if home == replica]
            fresh = ContinuousBatchingScheduler().schedule(
                [fleet.requests[i] for i in homed], [fleet.results[i] for i in homed]
            )
            assert fresh == [fleet.timings[i] for i in homed]

    def test_busy_time_is_the_served_occupancy(self, fleet):
        for replica, busy in enumerate(fleet.per_replica_busy_s):
            assert busy == pytest.approx(
                sum(
                    result.occupancy
                    for result, timing, home in zip(
                        fleet.results, fleet.timings, fleet.replica_of
                    )
                    if home == replica and not timing.rejected
                )
            )


class TestAffinityBeatsLeastLoaded:
    """Acceptance: at 4 replicas under the default Zipf workload, affinity
    routing wins the aggregate store hit rate against least-loaded at the
    same request rate (the whole point of cache-aware placement: hot chunks
    stop being re-fetched on every replica they happen to land on)."""

    @pytest.fixture(scope="class")
    def runs(self, zipf_workload):
        _, requests, chunk_ids = zipf_workload
        return {
            policy: _run_fleet(requests, chunk_ids, policy, 4)
            for policy in ROUTING_POLICIES
        }

    def test_affinity_hit_rate_strictly_higher(self, runs):
        assert runs["affinity"].aggregate_hit_rate > runs["least_loaded"].aggregate_hit_rate

    def test_consistent_hash_also_beats_affinity_blind_routing(self, runs):
        assert (
            runs["consistent_hash"].aggregate_hit_rate
            > runs["least_loaded"].aggregate_hit_rate
        )

    def test_bounded_load_keeps_the_fleet_from_collapsing(self, runs):
        # Pure affinity pins the Zipf hot set to one replica; the bounded
        # load factor keeps every replica serving real work.
        assert all(n > 0 for n in runs["affinity"].per_replica_n_requests)
        assert runs["affinity"].utilisation_skew < 2.0
