"""End-to-end measured serving path: workload → scheduler → engine → executor.

Every test here drives the *executed* pipeline rather than the analytic
cost model, locking down that served requests carry
measured :class:`~repro.core.pipeline.PipelineTrace` spans, that the spans
obey the §5 schedule, and that the measured rates flow into the scheduler's
cost estimates.  Run this tier alone with ``pytest -q -m e2e``.
"""

import math

import numpy as np
import pytest

from repro.bench.experiment import ExperimentConfig, ExperimentRunner
from repro.bench.workload import WorkloadGenerator
from repro.core.blend_engine import BlendEngine
from repro.core.executor import PipelinedExecutor
from repro.core.fusor import FusorConfig
from repro.kvstore.device import get_device
from repro.model.config import PAPER_MODEL_PAIRS, get_config
from repro.serving.costmodel import GPUSpec, OnlineCostCalibration, ServingCostModel
from repro.serving.engine import SCHEMES, InferenceEngine
from repro.serving.request import GenerationRequest
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.serving.simulator import LoadSimulator, WorkloadSpec

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
        lock-step on one DecodeSession — its first step is one batched
        calibration observation at the batch's width, not N per-request
        steps."""
        calibration = engine.controller.cost_model.calibration
        observed = []
        monkeypatch.setattr(
            calibration,
            "observe_decode",
            lambda seconds, batch_width=1: observed.append((seconds, batch_width)),
        )
        batch = [
            (_CHUNK_POOL[i : i + 2], f"cobatched question {i}?") for i in range(3)
        ]
        results = engine.run_batch(batch, max_new_tokens=3)
        assert all(len(result.generated_ids) == 3 for result in results)
        assert [width for _, width in observed] == [len(batch)] * 2
        assert all(seconds > 0.0 for seconds, _ in observed)

    def test_analytic_estimate_reported_beside_measured(self, served_batch):
        for result in served_batch:
            assert math.isfinite(result.ttft_estimate)
            assert result.ttft_estimate > 0.0
            assert result.ttft_estimate != result.ttft

    def test_batch_completion_offsets_are_ordered(self, served_batch):
        offsets = [r.ttft for r in served_batch]
        # Requests complete in queue order on the shared compute stream.
        assert offsets == sorted(offsets)


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
            engine.model.chunk_prefill(
                rng.integers(4, engine.model.config.vocab_size, size=64).astype(np.int64)
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


class TestMeasuredFeedsScheduling:
    @pytest.fixture(scope="class")
    def calibration(self):
        cal = OnlineCostCalibration()
        e = BlendEngine.build(
            paper_model="Mistral-7B", device="cpu_ram", seed=2, calibration=cal
        )
        chunks = _CHUNK_POOL[:3]
        e.precompute_chunks(chunks)
        e.run_batch([(chunks[:2], "first?"), (chunks[1:], "second?")], max_new_tokens=2)
        return cal

    def test_calibration_ready_after_pipelined_serving(self, calibration):
        assert calibration.ready
        assert calibration.n_observations >= 2
        assert calibration.load_s_per_token > 0.0
        assert calibration.compute_s_per_token > 0.0

    def test_decode_calibration_ready_after_pipelined_serving(self, calibration):
        """The batch's one decode step (its second token) is one co-batched
        session step, so it lands as a *single* observation tagged with the
        batch width — never one observation per request (that would
        double-count the amortised step)."""
        assert calibration.decode_ready
        assert calibration.n_decode_observations == 1
        assert calibration.decode_step_time() > 0.0
        # Both requests decoded in one width-2 session step.
        assert set(calibration.decode_s_per_step_by_width) == {2}
        assert calibration.decode_step_time(2) == calibration.decode_step_time()

    def test_measured_ttft_service_is_the_calibrated_fuse(self, calibration):
        """The measured TTFT column ends at the first token: the calibrated
        pipeline alone, with no decode step on top."""
        cost_model = ServingCostModel(
            get_config("mistral-7b"), GPUSpec(), calibration=calibration
        )
        inference = InferenceEngine(
            cost_model, scheme="cacheblend", device=get_device("nvme_ssd")
        )
        request = GenerationRequest(request_id=0)
        result = inference.serve(request)
        cached_context = int(
            round(request.cached_chunk_fraction * request.n_context_tokens)
        )
        assert calibration.decode_ready
        assert result.ttft_service_measured == cost_model.ttft_cacheblend_measured(
            cached_context + request.n_suffix_tokens,
            request.n_suffix_tokens,
            inference.recompute_ratio,
        )

    def test_scheduler_paces_decode_at_the_measured_rate(self, calibration):
        """With a decode-ready calibration the continuous scheduler's decode
        iterations last the measured per-step delay, not the analytic
        ``decode_time`` slice."""
        cost_model = ServingCostModel(
            get_config("mistral-7b"), GPUSpec(), calibration=calibration
        )
        inference = InferenceEngine(
            cost_model, scheme="cacheblend", device=get_device("nvme_ssd")
        )
        request = GenerationRequest(request_id=0, arrival_time=0.0)
        results = inference.serve_batch([request])
        analytic = ContinuousBatchingScheduler().schedule([request], results)
        measured = ContinuousBatchingScheduler(
            decode_calibration=calibration
        ).schedule([request], results)
        decode_steps = request.n_output_tokens - 1
        expected_shift = decode_steps * (
            results[0].decode_time / decode_steps - calibration.decode_step_time()
        )
        assert measured[0].completion_time == pytest.approx(
            analytic[0].completion_time - expected_shift
        )
        # TTFT (prefill pacing) is untouched by the decode calibration.
        assert measured[0].first_token_time == pytest.approx(
            analytic[0].first_token_time
        )

    def test_cost_model_reports_measured_cacheblend_ttft(self, calibration):
        cost_model = ServingCostModel(
            get_config("mistral-7b"), GPUSpec(), calibration=calibration
        )
        measured = cost_model.ttft_cacheblend_measured(2048, 32, 0.15)
        analytic = cost_model.ttft_cacheblend(2048, 32, 0.15, get_device("cpu_ram"))
        assert math.isfinite(measured) and measured > 0.0
        assert measured != analytic

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_scheme_preset_serves_finite_ttft(self, calibration, scheme):
        cost_model = ServingCostModel(
            get_config("mistral-7b"), GPUSpec(), calibration=calibration
        )
        needs_device = scheme in ("full_reuse", "cacheblend")
        inference = InferenceEngine(
            cost_model,
            scheme=scheme,
            device=get_device("nvme_ssd") if needs_device else None,
        )
        result = inference.serve(GenerationRequest(request_id=0))
        assert math.isfinite(result.ttft_service) and result.ttft_service > 0.0
        if scheme == "cacheblend":
            assert result.ttft_service_measured is not None
            assert math.isfinite(result.ttft_service_measured)
            assert result.ttft_service_measured > 0.0
        else:
            assert result.ttft_service_measured is None

    def test_simulator_propagates_measured_column(self, calibration):
        cost_model = ServingCostModel(
            get_config("mistral-7b"), GPUSpec(), calibration=calibration
        )
        inference = InferenceEngine(
            cost_model, scheme="cacheblend", device=get_device("nvme_ssd")
        )
        simulator = LoadSimulator(inference, WorkloadSpec(), seed=5)
        result = simulator.run(1.0, n_requests=20)
        assert result.mean_ttft_service_measured is not None
        assert result.mean_ttft_service_measured > 0.0

    def test_overlap_scheduler_cuts_makespan_for_stall_heavy_batches(self, calibration):
        cost_model = ServingCostModel(
            get_config("mistral-7b"), GPUSpec(), calibration=calibration
        )
        inference = InferenceEngine(
            cost_model, scheme="cacheblend", device=get_device("slow_disk")
        )
        requests = [
            GenerationRequest(request_id=i, arrival_time=0.0) for i in range(6)
        ]
        results = inference.serve_batch(requests)
        assert any(r.stall_time > 0.0 for r in results)
        plain = ContinuousBatchingScheduler(overlap_loads=False).schedule(
            requests, results
        )
        overlapped = ContinuousBatchingScheduler(overlap_loads=True).schedule(
            requests, results
        )
        assert max(t.completion_time for t in overlapped) < max(
            t.completion_time for t in plain
        )

    def test_overlap_scheduler_preserves_lifecycle_invariants(self, calibration):
        cost_model = ServingCostModel(
            get_config("mistral-7b"), GPUSpec(), calibration=calibration
        )
        inference = InferenceEngine(
            cost_model, scheme="cacheblend", device=get_device("nvme_ssd")
        )
        simulator = LoadSimulator(inference, WorkloadSpec(), seed=9)
        requests = simulator.generate_requests(2.0, 30)
        results = inference.serve_batch(requests)
        timings = ContinuousBatchingScheduler(overlap_loads=True).schedule(
            requests, results
        )
        for timing in timings:
            assert timing.start_time >= timing.arrival_time - 1e-12
            assert timing.first_token_time >= timing.start_time
            assert timing.completion_time >= timing.first_token_time - 1e-9


class TestSweepReportsMeasured:
    @pytest.fixture(scope="class")
    def report(self):
        config = ExperimentConfig(
            models=("mistral-7b",),
            devices=("cpu_ram",),
            n_requests=8,
            request_rate=1.0,
            seed=0,
        )
        return ExperimentRunner(config).run(with_proxy=True)

    def test_proxy_reports_measured_and_estimated_side_by_side(self, report):
        proxy = report.proxy
        assert proxy["execution"] == "pipelined"
        assert len(proxy["measured_ttfts"]) == len(proxy["estimated_ttfts"])
        for measured in proxy["measured_ttfts"]:
            assert math.isfinite(measured) and measured > 0.0

    def test_proxy_batch_pipelining_beats_sequential(self, report):
        batch = report.proxy["batch"]
        assert batch["pipelined_makespan_s"] < batch["sequential_makespan_s"]
        assert batch["cross_request_speedup"] > 1.0

    def test_cacheblend_cells_carry_the_measured_column(self, report):
        for cell in report.cells:
            if cell.scheme == "cacheblend":
                assert cell.mean_ttft_service_measured is not None
                assert cell.mean_ttft_service_measured > 0.0
            else:
                assert cell.mean_ttft_service_measured is None
            assert math.isfinite(cell.mean_ttft) and cell.mean_ttft > 0.0

    def test_calibration_snapshot_in_proxy_block(self, report):
        calibration = report.proxy["calibration"]
        assert calibration["n_observations"] >= 2
        assert calibration["load_s_per_token"] > 0.0
        assert calibration["compute_s_per_token"] > 0.0

    def test_proxy_reports_session_decode_steps(self, report):
        """The probe's first tokens come from the fused prefill; only the
        later tokens are session steps, each one calibration observation."""
        proxy = report.proxy
        assert not [key for key in proxy if "first_decode" in key or "decode_batch" in key]
        # The probe generates through the batched decode path.
        assert all(n > 0 for n in proxy["n_generated"])
        calibration = report.proxy["calibration"]
        assert calibration["n_decode_observations"] >= 2
        assert calibration["decode_s_per_step"] > 0.0

    def test_measured_column_is_the_calibrated_fuse_alone(self, report):
        """The measured sweep column ends at the first token: each CacheBlend
        cell reports the mean calibrated fuse of its requests, with no decode
        step on top."""
        snapshot = report.proxy["calibration"]
        cost_model = ServingCostModel(
            get_config("mistral-7b"),
            calibration=OnlineCostCalibration(
                load_s_per_token=snapshot["load_s_per_token"],
                compute_s_per_token=snapshot["compute_s_per_token"],
                n_observations=snapshot["n_observations"],
            ),
        )
        requests, _, _ = ExperimentRunner(report.config)._generate_workload()
        cells = [cell for cell in report.cells if cell.scheme == "cacheblend"]
        assert cells
        for cell in cells:
            fuses = []
            for request in requests:
                cached = int(round(request.cached_chunk_fraction * request.n_context_tokens))
                fuses.append(
                    cost_model.ttft_cacheblend_measured(
                        cached + request.n_suffix_tokens,
                        request.n_suffix_tokens,
                        cell.recompute_ratio,
                    )
                )
            assert cell.mean_ttft_service_measured == pytest.approx(np.mean(fuses))
