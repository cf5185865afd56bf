"""End-to-end measured serving path: workload → scheduler → engine → executor.

Most tests here drive the *executed* pipeline rather than the analytic
cost model, locking down that served requests carry measured
:class:`~repro.core.pipeline.PipelineTrace` spans, that the spans obey the
§5 schedule, that each result reports the analytic estimate beside its
measured TTFT, and that cross-request pipelining beats strict turns at the
calibrated load≈compute point; :class:`TestAnalyticServing` checks the
analytic engine and scheduler the sweep projects with.  Run this tier
alone with ``pytest -q -m e2e``.
"""

import copy
import math

import numpy as np
import pytest

from repro.bench.workload import WorkloadGenerator
from repro.core.blend_engine import BlendEngine
from repro.core.executor import PipelinedExecutor
from repro.core.fusor import FusorConfig
from repro.kvstore.device import get_device
from repro.kvstore.serialization import KVBlob, serialize_kv
from repro.model.config import PAPER_MODEL_PAIRS, get_config
from repro.serving.costmodel import GPUSpec, ServingCostModel
from repro.serving.engine import SCHEMES, InferenceEngine
from repro.serving.request import GenerationRequest
from repro.serving.scheduler import ContinuousBatchingScheduler

pytestmark = pytest.mark.e2e

#: Slack for comparing perf_counter timestamps recorded on two threads.
EPS = 1e-6

_CHUNK_POOL = [
    f"chunk {i} body token alpha beta gamma delta epsilon zeta eta theta {i}"
    for i in range(8)
]


def _texts_for(request: GenerationRequest) -> list[str]:
    """Deterministically map a generated request onto pool chunk texts."""
    rng = np.random.default_rng(request.request_id)
    n = min(max(2, request.n_chunks // 2), len(_CHUNK_POOL))
    picks = rng.choice(len(_CHUNK_POOL), size=n, replace=False)
    return [_CHUNK_POOL[i] for i in picks]


@pytest.fixture(scope="module")
def engine() -> BlendEngine:
    e = BlendEngine.build(paper_model="Mistral-7B", device="cpu_ram", seed=0)
    e.precompute_chunks(_CHUNK_POOL)
    return e


@pytest.fixture(scope="module")
def served_batch(engine):
    """A workload-generated batch served through the pipelined executor."""
    generator = WorkloadGenerator(dataset="samsum", request_rate=2.0, seed=3)
    requests = generator.generate(5)
    batch = [
        (_texts_for(request), f"question for request {request.request_id}?")
        for request in requests
    ]
    return engine.run_batch(batch)


class TestMeasuredTraces:
    def test_every_request_carries_a_measured_trace(self, served_batch):
        for result in served_batch:
            assert result.trace is not None
            assert result.trace.load_start.size == result.fusion.kv_cache.n_layers
            # Spans are real measurements: every load/compute took > 0 time.
            assert np.all(result.trace.load_end > result.trace.load_start)
            assert np.all(result.trace.compute_end > result.trace.compute_start)

    def test_load_spans_are_non_overlapping_per_layer(self, served_batch):
        for result in served_batch:
            trace = result.trace
            assert np.all(trace.load_start[1:] >= trace.load_end[:-1] - EPS)

    def test_compute_spans_are_non_overlapping_per_layer(self, served_batch):
        for result in served_batch:
            trace = result.trace
            assert np.all(trace.compute_start[1:] >= trace.compute_end[:-1] - EPS)

    def test_no_layer_computes_before_its_load_finishes(self, served_batch):
        for result in served_batch:
            trace = result.trace
            assert np.all(trace.compute_start >= trace.load_end - EPS)

    def test_measured_ttft_finite_and_positive(self, served_batch):
        for result in served_batch:
            assert math.isfinite(result.ttft)
            assert result.ttft > 0.0

    def test_measured_ttft_ends_at_the_fused_prefill(self, served_batch):
        """Acceptance: TTFT runs to the first token, the argmax of the fused
        prefill's last logits — no decode step is part of it."""
        for result in served_batch:
            # Warm store: no cold-chunk prefill, so the measured TTFT is
            # exactly the pipeline trace.
            assert result.cache_stats["misses"] == 0
            assert result.ttft == result.trace.total_time

    def test_generation_is_cobatched_across_the_batch(self, engine, monkeypatch):
        """Acceptance: the serving loop decodes the whole pipelined batch in
        lock-step on one DecodeSession — each iteration is one
        ``decode_session_step`` at the batch's width, not N per-request
        steps."""
        step = engine.model.decode_session_step
        widths = []

        def counted(session, token_ids):
            widths.append(len(token_ids))
            return step(session, token_ids)

        monkeypatch.setattr(engine.model, "decode_session_step", counted)
        batch = [
            (_CHUNK_POOL[i : i + 2], f"cobatched question {i}?") for i in range(3)
        ]
        results = engine.run_batch(batch, max_new_tokens=3)
        assert all(len(result.generated_ids) == 3 for result in results)
        assert widths == [len(batch)] * 2

    def test_analytic_estimate_reported_beside_measured(self, served_batch):
        for result in served_batch:
            assert math.isfinite(result.ttft_estimate)
            assert result.ttft_estimate > 0.0
            assert result.ttft_estimate != result.ttft

    def test_batch_completion_offsets_are_ordered(self, served_batch):
        offsets = [r.ttft for r in served_batch]
        # Requests complete in queue order on the shared compute stream.
        assert offsets == sorted(offsets)

    def test_serving_reads_the_cost_model_and_never_writes_it(self, engine):
        """Data flows one way: serving consults the analytic cost model for
        the controller's ratio and ``ttft_estimate`` and leaves it as it was,
        so serving the same batch again decides and estimates alike."""
        controller = copy.deepcopy(engine.controller)
        batch = [
            (_CHUNK_POOL[i : i + 3], f"one-way question {i}?") for i in range(2)
        ]
        first = engine.run_batch(batch, max_new_tokens=2)
        second = engine.run_batch(batch, max_new_tokens=2)
        assert engine.controller == controller
        assert [r.decision for r in second] == [r.decision for r in first]
        assert [r.ttft_estimate for r in second] == [r.ttft_estimate for r in first]


class TestPaperModelPresets:
    @pytest.mark.parametrize("paper_model", sorted(PAPER_MODEL_PAIRS))
    def test_measured_ttft_for_every_paper_model(self, paper_model):
        e = BlendEngine.build(paper_model=paper_model, device="cpu_ram", seed=1)
        chunks = _CHUNK_POOL[:2]
        e.precompute_chunks(chunks)
        result = e.run(chunks, "what is measured?")
        assert result.trace is not None
        assert math.isfinite(result.ttft) and result.ttft > 0.0


class TestCrossRequestPipelining:
    @pytest.fixture(scope="class")
    def calibrated_executor(self, engine):
        """Executor pinned to the load≈compute point of the proxy model."""
        rng = np.random.default_rng(0)
        caches = [
            KVBlob(
                serialize_kv(
                    engine.model.chunk_prefill(
                        rng.integers(4, engine.model.config.vocab_size, size=64).astype(np.int64)
                    )
                )
            )
            for _ in range(2)
        ]
        suffix = rng.integers(4, engine.model.config.vocab_size, size=8).astype(np.int64)
        probe = PipelinedExecutor(
            engine.model, FusorConfig(recompute_ratio=0.15), layer_load_time=0.0
        )
        calibration = probe.execute(caches, suffix, pipelined=False)
        load_time = float(calibration.compute_times[1:].mean())
        executor = PipelinedExecutor(
            engine.model, FusorConfig(recompute_ratio=0.15), layer_load_time=load_time
        )
        return executor, [(caches, suffix)] * 3

    def test_next_request_loads_while_previous_computes(self, calibrated_executor):
        executor, items = calibrated_executor
        batch = executor.execute_batch(items, pipelined=True)
        first, second = batch.requests[0], batch.requests[1]
        # Request B's layer-0 load starts before request A's last compute ends.
        assert second.trace.load_start[0] < first.trace.compute_end[-1]

    def test_pipelined_makespan_strictly_below_sequential(self, calibrated_executor):
        """Acceptance: cross-request pipelining wins at the calibrated point."""
        executor, items = calibrated_executor
        pipelined = min(
            executor.execute_batch(items, pipelined=True).makespan for _ in range(2)
        )
        sequential = min(
            executor.execute_batch(items, pipelined=False).makespan for _ in range(2)
        )
        assert pipelined < sequential


class TestAnalyticServing:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_scheme_preset_serves_finite_ttft(self, scheme):
        cost_model = ServingCostModel(get_config("mistral-7b"), GPUSpec())
        needs_device = scheme in ("full_reuse", "cacheblend")
        inference = InferenceEngine(
            cost_model,
            scheme=scheme,
            device=get_device("nvme_ssd") if needs_device else None,
        )
        result = inference.serve(GenerationRequest(request_id=0))
        assert math.isfinite(result.ttft_service) and result.ttft_service > 0.0

    def test_scheduler_paces_decode_at_the_analytic_rate(self):
        """A lone request's first token lands at the end of its prefill, and
        its ``n_output_tokens - 1`` analytic decode slices after it add up to
        the engine's ``decode_time``."""
        cost_model = ServingCostModel(get_config("mistral-7b"), GPUSpec())
        inference = InferenceEngine(
            cost_model, scheme="cacheblend", device=get_device("nvme_ssd")
        )
        request = GenerationRequest(request_id=0, arrival_time=0.0)
        result = inference.serve(request)
        (timing,) = ContinuousBatchingScheduler().schedule([request], [result])
        assert request.n_output_tokens > 1
        assert timing.first_token_time == pytest.approx(result.ttft_service)
        assert timing.completion_time - timing.first_token_time == pytest.approx(
            result.decode_time
        )

    def test_overlap_scheduler_cuts_makespan_for_stall_heavy_batches(self):
        """Six stall-heavy requests arriving at once on one server: without
        overlap they would run back to back for the serial sum of their
        work; hiding stalls behind co-batched compute finishes sooner."""
        cost_model = ServingCostModel(get_config("mistral-7b"), GPUSpec())
        inference = InferenceEngine(
            cost_model, scheme="cacheblend", device=get_device("slow_disk")
        )
        requests = [
            GenerationRequest(request_id=i, arrival_time=0.0) for i in range(6)
        ]
        results = [inference.serve(request) for request in requests]
        assert any(r.stall_time > 0.0 for r in results)
        timings = ContinuousBatchingScheduler().schedule(requests, results)
        serial_total = sum(r.ttft_service + r.decode_time for r in results)
        assert max(t.completion_time for t in timings) < serial_total

