"""End-to-end BlendEngine smoke tests on the NumPy proxy model."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.blend_engine import BlendEngine
from repro.model.config import PAPER_MODEL_PAIRS

CHUNKS = [
    "retrieval augmented generation reuses text chunks across many queries",
    "the kv cache of every chunk is precomputed once and stored on disk",
    "selective recompute fixes the cross attention between fused chunks",
]


@pytest.fixture(scope="module")
def engine() -> BlendEngine:
    return BlendEngine.build(paper_model="Mistral-7B", device="nvme_ssd", seed=0)


class TestBlendEngineRun:
    def test_run_reports_misses_then_hits(self, engine):
        engine.kv_store.clear()
        engine.reset_cache_stats()
        first = engine.run(CHUNKS[:2], "what is reused?")
        assert first.cache_misses == 2
        assert first.cache_hits == 0
        second = engine.run(CHUNKS[:2], "what is reused?")
        assert second.cache_misses == 0
        assert second.cache_hits == 2

    def test_run_produces_positive_ttft_and_partial_recompute(self, engine):
        engine.precompute_chunks(CHUNKS)
        result = engine.run(CHUNKS, "how is cross attention fixed?")
        assert result.ttft > 0.0
        assert 0.0 < result.fusion.mean_recompute_fraction < 1.0
        assert result.n_context_tokens > 0
        assert result.n_suffix_tokens > 0

    def test_generation_decodes_tokens(self, engine):
        engine.precompute_chunks(CHUNKS[:1])
        result = engine.run(CHUNKS[:1], "what is stored?", max_new_tokens=3)
        assert 1 <= len(result.generated_ids) <= 3

    def test_run_batch_shares_the_store(self, engine):
        engine.kv_store.clear()
        engine.reset_cache_stats()
        batch = [
            (CHUNKS[:2], "first question"),
            (CHUNKS[:2], "second question"),
        ]
        results = engine.run_batch(batch)
        assert len(results) == 2
        # The second request finds both chunks cached by the first.
        assert results[1].cache_hits == 2
        stats = engine.cache_stats
        assert stats["hits"] == 2
        assert stats["misses"] == 2

    def test_tokenizer_encodings_are_memoized(self, engine):
        engine.reset_cache_stats()
        text = "a brand new text no other test encodes"
        first = engine.encode(text)
        second = engine.encode(text)
        assert second is first  # LRU hit returns the shared array
        assert not second.flags.writeable
        stats = engine.cache_stats
        assert stats["tokenizer_misses"] == 1
        assert stats["tokenizer_hits"] == 1

    def test_repeat_requests_hit_the_encoding_cache(self, engine):
        engine.precompute_chunks(CHUNKS[:2])
        engine.reset_cache_stats()
        engine.run(CHUNKS[:2], "same question twice")
        engine.run(CHUNKS[:2], "same question twice")
        stats = engine.cache_stats
        # Second request re-encodes nothing: two chunks plus the question hit.
        assert stats["tokenizer_hits"] >= 3

    def test_encoding_cache_keeps_the_most_recent_1024_texts(self):
        fresh = BlendEngine.build(paper_model="Mistral-7B", device="nvme_ssd", seed=0)
        texts = [f"distinct encoding cache text {i}" for i in range(1025)]
        for text in texts:
            fresh.encode(text)
        fresh.encode(texts[-1])  # still cached
        fresh.encode(texts[0])  # evicted by the 1025th text
        stats = fresh.cache_stats
        assert stats["tokenizer_hits"] == 1
        assert stats["tokenizer_misses"] == 1026

    @pytest.mark.parametrize("paper_model", sorted(PAPER_MODEL_PAIRS))
    def test_build_serves_only_llama_70b_on_two_gpus(self, paper_model):
        built = BlendEngine.build(paper_model=paper_model, device="nvme_ssd")
        expected = 2 if paper_model == "Llama-70B" else 1
        assert built.controller.cost_model.n_gpus == expected

    def test_per_request_stats_are_counted_locally(self, engine):
        """Regression: per-request cache stats must not be derived by diffing
        the engine-global counters, or interleaved batches cross-contaminate.

        The global counters are deliberately pre-warmed and left hot while the
        batch runs; every result must still report exactly its own accounting.
        """
        engine.kv_store.clear()
        engine.reset_cache_stats()
        engine.run(CHUNKS[:1], "warm the global counters")  # pollutes globals
        batch = [
            (CHUNKS[:2], "first question of the batch"),
            (CHUNKS[:2], "second question of the batch"),
            (CHUNKS[2:], "third question of the batch"),
        ]
        results = engine.run_batch(batch)
        # Request 0: chunk 0 was warmed above, chunk 1 is cold.
        assert results[0].cache_stats["hits"] == 1
        assert results[0].cache_stats["misses"] == 1
        # Request 1 repeats request 0's chunks: all hits, zero misses.
        assert results[1].cache_stats["hits"] == 2
        assert results[1].cache_stats["misses"] == 0
        assert results[1].cache_stats["miss_tokens"] == 0
        # Request 2 touches a disjoint cold chunk.
        assert results[2].cache_stats["hits"] == 0
        assert results[2].cache_stats["misses"] == 1
        # Per-request tokenizer accounting is local too (question is new).
        assert results[1].cache_stats["tokenizer_misses"] == 1
        assert results[1].cache_stats["tokenizer_hits"] == 2
        # The engine-global counters aggregate everything, warmup included.
        assert engine.cache_stats["hits"] == sum(r.cache_stats["hits"] for r in results)
        assert engine.cache_stats["misses"] == 1 + sum(
            r.cache_stats["misses"] for r in results
        )

    def test_per_request_stats_snapshot_unaffected_by_later_requests(self, engine):
        engine.kv_store.clear()
        engine.reset_cache_stats()
        first = engine.run(CHUNKS[:2], "a question held across requests")
        snapshot = dict(first.cache_stats)
        engine.run(CHUNKS, "another request mutating global counters")
        assert first.cache_stats == snapshot

    def test_faster_device_lowers_ttft(self):
        fast = BlendEngine.build(paper_model="Mistral-7B", device="cpu_ram", seed=0)
        slow = BlendEngine.build(paper_model="Mistral-7B", device="slow_disk", seed=0)
        for e in (fast, slow):
            e.precompute_chunks(CHUNKS[:2])
        question = "which device is faster?"
        # Pin the recompute ratio: the controller otherwise adapts it upward
        # on fast devices, which is the point of Figure 10 but not this test.
        fast_ttft = fast.run(CHUNKS[:2], question, recompute_ratio=0.15).ttft_estimate
        slow_ttft = slow.run(CHUNKS[:2], question, recompute_ratio=0.15).ttft_estimate
        assert fast_ttft < slow_ttft

    def test_ttft_estimate_is_deterministic(self):
        """The cost model's TTFT depends on the request, not on the host:
        equal requests on equal engines price identically, while the
        measured ``ttft`` is wall-clock."""
        engines = [
            BlendEngine.build(paper_model="Mistral-7B", device="nvme_ssd", seed=0)
            for _ in range(2)
        ]
        estimates = []
        for e in engines:
            e.precompute_chunks(CHUNKS[:2])
            for _ in range(2):
                result = e.run(CHUNKS[:2], "is the estimate stable?", recompute_ratio=0.15)
                assert result.ttft > 0.0
                estimates.append(result.ttft_estimate)
        assert estimates[0] > 0.0
        assert estimates == [estimates[0]] * 4

    def test_ttft_is_measured_to_the_first_token(self, engine, monkeypatch):
        """The first token is the argmax of the fused prefill's last logits,
        so a warm request's TTFT is its pipeline alone and a budget of at
        most one token runs no decode step."""
        engine.precompute_chunks(CHUNKS[:2])
        calls = []

        def counted(name):
            real = getattr(engine.model, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        for name in ("new_decode_session", "decode_session_step"):
            monkeypatch.setattr(engine.model, name, counted(name))
        for max_new_tokens in (0, 1):
            result = engine.run(
                CHUNKS[:2], "what does the ttft measure?", max_new_tokens=max_new_tokens
            )
            (batched,) = engine.run_batch(
                [(CHUNKS[:2], "and in a batch?")], max_new_tokens=max_new_tokens
            )
            for served in (result, batched):
                assert served.cache_misses == 0
                assert served.ttft == served.trace.total_time
                first = int(np.argmax(served.fusion.last_logits))
                emitted = max_new_tokens and first != engine.tokenizer.eos_id
                assert served.generated_ids == ([first] if emitted else [])
        assert calls == []

    @pytest.mark.parametrize("max_new_tokens", [1, 8])
    def test_decode_session_opens_at_its_final_size(self, engine, monkeypatch, max_new_tokens):
        """The decode pad is sized for the longest fused cache plus the rows
        the steps append, so neither a join nor a step regrows it; a
        one-token budget opens no session at all."""
        long_chunks = [f"{text} and {text}" for text in CHUNKS]
        engine.precompute_chunks(long_chunks)
        sessions = []
        open_session = engine.model.new_decode_session

        def capture(*args, **kwargs):
            sessions.append(open_session(*args, **kwargs))
            return sessions[-1]

        monkeypatch.setattr(engine.model, "new_decode_session", capture)
        single = engine.run(long_chunks, "how is the pad sized?", max_new_tokens=max_new_tokens)
        engine.run_batch(
            [
                (long_chunks, "how is the pad sized for a batch of unequal requests?"),
                (long_chunks[:1], "short?"),
            ],
            max_new_tokens=max_new_tokens,
        )
        # Past the session's default 64-row capacity.
        assert single.fusion.kv_cache.n_tokens > 64
        if max_new_tokens == 1:
            assert sessions == []
            return
        assert len(sessions) == 2
        assert all(session.stats.steps >= 1 for session in sessions)
        assert [session.stats.grows for session in sessions] == [0, 0]

    def test_execution_accepts_only_pipelined(self, engine):
        with pytest.raises(ValueError, match="execution mode"):
            BlendEngine.build(paper_model="Mistral-7B", execution="analytic")
        with pytest.raises(ValueError, match="execution mode"):
            BlendEngine(
                model=engine.model,
                tokenizer=engine.tokenizer,
                kv_store=engine.kv_store,
                controller=engine.controller,
                execution="analytic",
            )
        with pytest.raises(ValueError, match="execution mode"):
            engine.run(CHUNKS[:1], "which mode?", execution="analytic")
        with pytest.raises(ValueError, match="execution mode"):
            engine.run_batch([(CHUNKS[:1], "which mode?")], execution="sequential")
        result = engine.run(CHUNKS[:1], "which mode?", execution="pipelined")
        assert result.trace is not None


def test_a_request_does_not_import_numpy_ma():
    """Importing ``numpy.ma`` costs ~15 ms; a call on the request path that
    pulls it in makes every process's first request pay it."""
    script = textwrap.dedent(
        """
        import sys
        from repro.core.blend_engine import BlendEngine

        engine = BlendEngine.build(paper_model="Mistral-7B", device="nvme_ssd", seed=0)
        chunks = ["a warm chunk of text", "another warm chunk"]
        engine.precompute_chunks(chunks)
        engine.run(chunks + ["a cold chunk"], "which modules load?", max_new_tokens=4)
        print("numpy.ma" in sys.modules)
        """
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert out.stdout.strip() == "False"


class TestStoreParameter:
    """The `store=` API: a StoreConfig recipe or a pre-built store."""

    def test_store_config_sets_the_capacity(self):
        from repro.kvstore.config import StoreConfig

        engine = BlendEngine.build(
            paper_model="Mistral-7B",
            device="cpu_ram",
            seed=0,
            store=StoreConfig(capacity_bytes=1 << 20),
        )
        assert engine.kv_store.capacity_bytes == 1 << 20

    def test_tiered_store_serves_the_engine(self):
        from repro.kvstore.config import StoreConfig
        from repro.kvstore.hierarchy import TieredKVStore

        engine = BlendEngine.build(
            paper_model="Mistral-7B",
            device="nvme_ssd",
            seed=0,
            store=StoreConfig(backend="tiered"),
        )
        assert isinstance(engine.kv_store, TieredKVStore)
        engine.precompute_chunks(CHUNKS[:2])
        result = engine.run(CHUNKS[:2], "does the tiered store serve hits?")
        assert result.cache_hits == 2
        assert engine.cache_stats["bytes_stored"] > 0

    def test_prebuilt_store_instance_is_accepted(self):
        from repro.kvstore.device import get_device
        from repro.kvstore.store import KVCacheStore

        store = KVCacheStore(device=get_device("cpu_ram"))
        engine = BlendEngine.build(
            paper_model="Mistral-7B", device="cpu_ram", seed=0, store=store
        )
        assert engine.kv_store is store


class TestWarmReads:
    """A chunk is packed, and its header parsed, once: when it enters the
    store.  A warm read decodes the held bytes and does neither again."""

    @pytest.mark.parametrize("backend", ["chunk", "tiered"])
    @pytest.mark.parametrize("kv_dtype", ["float32", "float16", "int8", "mixed"])
    def test_a_warm_batch_packs_nothing_and_parses_no_header(
        self, backend, kv_dtype, monkeypatch
    ):
        import json

        import repro.kvstore.serialization as codec
        from repro.kvstore.config import StoreConfig

        engine = BlendEngine.build(
            paper_model="Mistral-7B",
            device="cpu_ram",
            seed=0,
            store=StoreConfig(backend=backend, kv_dtype=kv_dtype),
        )
        engine.precompute_chunks(CHUNKS[:3])

        def refuse(*args, **kwargs):
            raise AssertionError("a warm read packed a layer or parsed a header")

        monkeypatch.setattr(codec, "_pack_float", refuse)
        monkeypatch.setattr(codec, "_pack_int8", refuse)
        monkeypatch.setattr(json, "loads", refuse)
        results = engine.run_batch(
            [(CHUNKS[:2], "which chunk mentions storage?"), (CHUNKS[1:3], "what else?")],
            max_new_tokens=2,
        )
        assert [result.cache_hits for result in results] == [2, 2]
        assert all(result.cache_misses == 0 for result in results)
