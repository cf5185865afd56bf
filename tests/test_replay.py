"""Replaying chunk accesses through real stores: relabelling, tiers, faults."""

import numpy as np
import pytest

from repro.bench.replay import (
    PLACEHOLDER,
    chunk_store_config,
    replay_request,
    simulate_fleet,
)
from repro.bench.workload import WorkloadGenerator
from repro.kvstore.hierarchy import TieredKVStore
from repro.kvstore.store import KVCacheStore
from repro.model.config import get_config
from repro.serving.costmodel import ServingCostModel
from repro.serving.engine import InferenceEngine
from repro.serving.request import GenerationRequest
from repro.serving.scheduler import ContinuousBatchingScheduler


def _request(n_chunks: int = 3) -> GenerationRequest:
    return GenerationRequest(request_id=0, n_chunks=n_chunks, chunk_tokens=128)


def _replay_all(requests, chunk_ids, store, **faults):
    return [
        replay_request(request, ids, store, **faults)
        for request, ids in zip(requests, chunk_ids)
    ]


class TestChunkStoreConfig:
    def test_a_store_of_n_entries_holds_n_chunks(self):
        store = chunk_store_config(3).build()
        assert isinstance(store, KVCacheStore)
        for chunk in range(5):
            store.put(chunk, PLACEHOLDER)
        assert store.keys() == [2, 3, 4]

    def test_a_slow_tier_makes_a_tiered_store(self):
        store = chunk_store_config(2, 6).build()
        assert isinstance(store, TieredKVStore)
        for chunk in range(10):
            store.put(chunk, PLACEHOLDER)
        assert [tier.n_entries for tier in store.tiers] == [2, 6]


class TestReplayRequest:
    def test_misses_are_stored_and_hit_next_time(self):
        store = chunk_store_config(8).build()
        cold, _ = replay_request(_request(), [1, 2, 3], store)
        assert cold.cached_chunk_fraction == 0.0
        assert cold.prefix_cached_fraction == 0.0
        assert cold.slow_tier_fraction is None
        warm, _ = replay_request(_request(), [1, 2, 3], store)
        assert warm.cached_chunk_fraction == pytest.approx(1.0)
        assert warm.prefix_cached_fraction == pytest.approx(1.0)
        assert store.stats.hits == 3 and store.stats.misses == 3

    def test_prefix_fraction_counts_only_the_leading_run(self):
        store = chunk_store_config(8).build()
        replay_request(_request(2), [1, 3], store)
        relabelled, _ = replay_request(_request(), [2, 1, 3], store)
        # Chunks 1 and 3 hit but the leading chunk 2 missed: no prefix reuse.
        assert relabelled.cached_chunk_fraction == pytest.approx(2 / 3)
        assert relabelled.prefix_cached_fraction == 0.0

    def test_slow_tier_fraction_counts_hits_served_below_ram(self):
        store = chunk_store_config(1, 4).build()
        replay_request(_request(2), [1, 2], store)  # RAM holds 2, slow holds 1
        relabelled, _ = replay_request(_request(2), [2, 1], store)
        assert relabelled.cached_chunk_fraction == pytest.approx(1.0)
        assert relabelled.slow_tier_fraction == pytest.approx(0.5)

    def test_faults_relabel_hits_without_touching_the_store(self):
        generator = WorkloadGenerator(seed=3, cache_chunk_capacity=32)
        requests = generator.generate(40)
        clean_store = chunk_store_config(32).build()
        faulty_store = chunk_store_config(32).build()
        clean = _replay_all(requests, generator.chunk_ids, clean_store)
        rng = np.random.default_rng(7)
        faulted = _replay_all(
            requests, generator.chunk_ids, faulty_store, fault_rate=0.3, rng=rng
        )
        assert sum(n for _, n in faulted) > 0
        for (plain, _), (hit, n_faults) in zip(clean, faulted):
            n_chunks = plain.n_chunks
            assert hit.cached_chunk_fraction == pytest.approx(
                plain.cached_chunk_fraction - n_faults / n_chunks
            )
            assert hit.prefix_cached_fraction <= hit.cached_chunk_fraction
        assert faulty_store.keys() == clean_store.keys()
        assert faulty_store.stats.hit_rate == clean_store.stats.hit_rate


def _fleet(requests, chunk_ids, store):
    return simulate_fleet(
        requests,
        chunk_ids,
        policy="least_loaded",
        n_replicas=1,
        engine=InferenceEngine(ServingCostModel(get_config("mistral-7b")), "full_recompute"),
        scheduler=ContinuousBatchingScheduler(),
        store=store,
    )


class TestTieredReplay:
    @pytest.fixture(scope="class")
    def workload(self):
        generator = WorkloadGenerator(dataset="2wikimqa", seed=0)
        return generator.generate(80), generator.chunk_ids

    def test_replay_reports_per_request_residency(self, workload):
        requests, chunk_ids = workload
        run = _fleet(requests, chunk_ids, chunk_store_config(8, 32))
        assert len(run.requests) == len(requests)
        assert 0.0 <= run.aggregate_hit_rate <= 1.0
        assert 0.0 < run.slow_tier_hit_share < 1.0
        for request in run.requests:
            assert 0.0 <= request.prefix_cached_fraction <= request.cached_chunk_fraction
            assert 0.0 <= request.slow_tier_fraction <= 1.0
        # Every resident chunk is counted once per tier holding it.
        assert run.resident_tokens <= (8 + 32) * max(r.chunk_tokens for r in requests)

    def test_bigger_ram_tier_raises_the_hit_rate(self, workload):
        requests, chunk_ids = workload
        small = _fleet(requests, chunk_ids, chunk_store_config(4, 16))
        large = _fleet(requests, chunk_ids, chunk_store_config(64, 256))
        assert small.aggregate_hit_rate < large.aggregate_hit_rate
