"""BlendEngine under store faults: retry, recompute fallback, correctness.

The PR's acceptance check lives in ``TestBitwiseCorrectness``: with a 5%
fault-injecting store, every request completes and its fused KV plus
generated tokens are bitwise identical to a fault-free engine's — faults
cost TTFT (counted fallbacks and retry delay), never correctness.
"""

import numpy as np
import pytest

from repro.core.blend_engine import BlendEngine, LookupRetryPolicy, _FAULT_STAT_KEYS
from repro.kvstore.faults import ALL_FAULT_KINDS, FaultConfig, FaultKind, FaultyStore

CHUNKS = [
    "retrieval augmented generation reuses text chunks across many queries",
    "the kv cache of every chunk is precomputed once and stored on disk",
    "selective recompute fixes the cross attention between fused chunks",
]
QUESTION = "what survives an unreliable store?"


def _engine(
    rate: float = 0.0,
    kinds=ALL_FAULT_KINDS,
    seed: int = 0,
    retry_policy: LookupRetryPolicy | None = None,
    **fault_kw,
) -> BlendEngine:
    faults = FaultConfig(rate=rate, kinds=kinds, seed=seed, **fault_kw) if rate else None
    return BlendEngine.build(
        paper_model="Mistral-7B",
        device="cpu_ram",
        seed=0,
        faults=faults,
        retry_policy=retry_policy,
    )


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            LookupRetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff_s"):
            LookupRetryPolicy(backoff_s=-0.1)
        with pytest.raises(ValueError, match="timeout_s"):
            LookupRetryPolicy(timeout_s=0.0)

    def test_build_wraps_the_store_only_when_faults_are_on(self):
        assert isinstance(_engine(rate=0.2).kv_store, FaultyStore)
        assert not isinstance(_engine().kv_store, FaultyStore)
        assert not isinstance(
            BlendEngine.build(
                paper_model="Mistral-7B", device="cpu_ram", faults=FaultConfig(rate=0.0)
            ).kv_store,
            FaultyStore,
        )


class TestRetryAndFallback:
    def test_transient_faults_are_retried_through(self):
        # rate=1.0 would fault every attempt; a moderate rate lets retries
        # land. With 3 attempts per lookup at rate 0.5 almost every chunk
        # resolves without fallback.
        engine = _engine(rate=0.5, kinds=(FaultKind.TRANSIENT_MISS,), seed=3)
        engine.precompute_chunks(CHUNKS)
        engine.reset_cache_stats()
        result = engine.run(CHUNKS, QUESTION)
        stats = result.cache_stats
        assert stats["fault_transients"] > 0
        assert stats["fault_retries"] > 0
        # Retries resolved the lookups: the entries were all cached.
        assert stats["hits"] + stats["fault_fallbacks"] == len(CHUNKS)
        assert stats["misses"] == 0

    def test_exhausted_retries_fall_back_to_recompute(self):
        engine = _engine(rate=1.0, kinds=(FaultKind.READ_TIMEOUT,))
        engine.precompute_chunks(CHUNKS[:2])
        engine.reset_cache_stats()
        result = engine.run(CHUNKS[:2], QUESTION)
        stats = result.cache_stats
        # Every attempt timed out: both chunks were recomputed, and the
        # fallback is counted as such — not as a cache miss.
        assert stats["fault_fallbacks"] == 2
        assert stats["fallback_recompute_tokens"] > 0
        assert stats["misses"] == 0
        assert stats["miss_tokens"] == stats["fallback_recompute_tokens"]
        assert stats["fault_timeouts"] == 2 * (engine.retry_policy.max_retries + 1)
        assert len(result.fusion.kv_cache.token_ids) > 0

    def test_corruption_is_detected_and_recovered(self):
        engine = _engine(rate=1.0, kinds=(FaultKind.CORRUPT_PAYLOAD,))
        engine.precompute_chunks(CHUNKS[:1])
        engine.reset_cache_stats()
        result = engine.run(CHUNKS[:1], QUESTION)
        assert result.cache_stats["fault_corruptions"] > 0
        assert result.cache_stats["fault_fallbacks"] == 1

    def test_fallback_prices_the_recompute_into_ttft(self):
        faulty = _engine(rate=1.0, kinds=(FaultKind.READ_TIMEOUT,))
        clean = _engine()
        for engine in (faulty, clean):
            engine.precompute_chunks(CHUNKS)
        faulty_ttft = faulty.run(CHUNKS, QUESTION).ttft_estimate
        clean_ttft = clean.run(CHUNKS, QUESTION).ttft_estimate
        # The fallback recompute plus the waited-out timeouts must show up.
        assert faulty_ttft > clean_ttft

    def test_slow_reads_are_priced_not_retried(self):
        # A mildly slow read (below timeout_s) is served, its excess delay
        # charged — no retry, no fallback.
        engine = _engine(
            rate=1.0, kinds=(FaultKind.SLOW_READ,), slow_read_delay_s=0.01
        )
        engine.precompute_chunks(CHUNKS[:1])
        engine.reset_cache_stats()
        result = engine.run(CHUNKS[:1], QUESTION)
        assert result.cache_stats["hits"] == 1
        assert result.cache_stats["fault_fallbacks"] == 0
        assert result.cache_stats["fault_retries"] == 0

    def test_slow_read_beyond_timeout_is_cut_off(self):
        engine = _engine(
            rate=1.0,
            kinds=(FaultKind.SLOW_READ,),
            slow_read_delay_s=10.0,
            retry_policy=LookupRetryPolicy(timeout_s=0.1),
        )
        engine.precompute_chunks(CHUNKS[:1])
        engine.reset_cache_stats()
        result = engine.run(CHUNKS[:1], QUESTION)
        assert result.cache_stats["fault_timeouts"] > 0
        assert result.cache_stats["fault_fallbacks"] == 1

    def test_clean_miss_is_not_a_fault(self):
        engine = _engine(rate=1.0)  # faults only fire on hits
        engine.reset_cache_stats()
        result = engine.run(CHUNKS[:1], QUESTION)
        assert result.cache_stats["misses"] == 1
        assert all(result.cache_stats[key] == 0 for key in _FAULT_STAT_KEYS)


class TestFaultAccounting:
    def test_engine_global_counters_aggregate_across_requests(self):
        engine = _engine(rate=1.0, kinds=(FaultKind.READ_TIMEOUT,))
        engine.precompute_chunks(CHUNKS[:2])
        engine.reset_cache_stats()
        engine.run(CHUNKS[:1], QUESTION)
        engine.run(CHUNKS[1:2], QUESTION)
        stats = engine.cache_stats
        assert stats["fault_fallbacks"] == 2
        # The injector's own per-kind counts are surfaced alongside.
        assert stats["injected_read_timeout"] > 0
        assert stats["injected_total"] == stats["injected_read_timeout"]

    def test_reset_clears_fault_counters(self):
        engine = _engine(rate=1.0, kinds=(FaultKind.READ_TIMEOUT,))
        engine.precompute_chunks(CHUNKS[:1])
        engine.run(CHUNKS[:1], QUESTION)
        engine.reset_cache_stats()
        stats = engine.cache_stats
        assert all(stats[key] == 0 for key in _FAULT_STAT_KEYS)
        assert stats["injected_total"] == 0

    def test_clean_engine_still_reports_zeroed_fault_keys(self):
        engine = _engine()
        engine.reset_cache_stats()
        result = engine.run(CHUNKS[:1], QUESTION)
        for key in _FAULT_STAT_KEYS:
            assert result.cache_stats[key] == 0
            assert engine.cache_stats[key] == 0
        # No injector on a clean store, so no injected_* keys.
        assert "injected_total" not in engine.cache_stats


class TestBitwiseCorrectness:
    """Acceptance: 5% injected faults, output bitwise equal to fault-free."""

    @pytest.fixture(scope="class")
    def engines(self):
        clean = _engine()
        faulty = _engine(rate=0.05, seed=11)
        for engine in (clean, faulty):
            engine.precompute_chunks(CHUNKS)
        return clean, faulty

    def test_generations_are_bitwise_identical_under_faults(self, engines):
        clean, faulty = engines
        questions = [f"question number {i} about the chunks" for i in range(8)]
        injected_before = faulty.kv_store.fault_stats.total
        for question in questions:
            want = clean.run(CHUNKS, question, max_new_tokens=4)
            got = faulty.run(CHUNKS, question, max_new_tokens=4)
            assert got.generated_ids == want.generated_ids
            fused_want, fused_got = want.fusion.kv_cache, got.fusion.kv_cache
            np.testing.assert_array_equal(fused_got.token_ids, fused_want.token_ids)
            for got_layer, want_layer in zip(fused_got.layers, fused_want.layers):
                np.testing.assert_array_equal(got_layer.keys, want_layer.keys)
                np.testing.assert_array_equal(got_layer.values, want_layer.values)
        # The run actually exercised the fault path (rate 0.05 over
        # 8 requests x 3 chunk lookups makes >=1 injection overwhelmingly
        # likely with this seed; assert so a silent no-op can't pass).
        assert faulty.kv_store.fault_stats.total > injected_before

    def test_fallbacks_repair_the_store(self, engines):
        _, faulty = engines
        # After all the churn above every chunk is still resolvable.
        for text in CHUNKS:
            key = faulty.chunk_cache_key(faulty.encode(text))
            assert faulty.kv_store.inner.contains(key)
