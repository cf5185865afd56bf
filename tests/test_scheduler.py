"""FCFS vs continuous batching: shared invariants and batching behaviour."""

import numpy as np
import pytest

from repro.kvstore.device import get_device
from repro.model.config import get_config
from repro.serving.costmodel import ServingCostModel
from repro.serving.engine import EngineResult, InferenceEngine
from repro.serving.request import GenerationRequest
from repro.serving.scheduler import (
    ContinuousBatchingScheduler,
    FCFSScheduler,
    Scheduler,
)
from repro.serving.simulator import LoadSimulator, WorkloadSpec


@pytest.fixture(scope="module")
def engine() -> InferenceEngine:
    cost_model = ServingCostModel(get_config("mistral-7b"))
    return InferenceEngine(
        cost_model, scheme="cacheblend", device=get_device("nvme_ssd")
    )


@pytest.fixture(scope="module")
def workload(engine):
    simulator = LoadSimulator(engine, WorkloadSpec(n_output_tokens=64), seed=7)
    requests = simulator.generate_requests(2.0, 60)
    results = engine.serve_batch(requests)
    return requests, results


SCHEDULERS = [
    FCFSScheduler(n_servers=2),
    ContinuousBatchingScheduler(n_servers=2),
]


class TestSharedInvariants:
    @pytest.mark.parametrize("scheduler", SCHEDULERS, ids=lambda s: type(s).__name__)
    def test_no_request_starts_before_arrival(self, scheduler, workload):
        requests, results = workload
        timings = scheduler.schedule(requests, results)
        assert all(t.start_time >= t.arrival_time - 1e-12 for t in timings)

    @pytest.mark.parametrize("scheduler", SCHEDULERS, ids=lambda s: type(s).__name__)
    def test_lifecycle_ordering(self, scheduler, workload):
        requests, results = workload
        timings = scheduler.schedule(requests, results)
        for timing in timings:
            assert timing.first_token_time >= timing.start_time
            assert timing.completion_time >= timing.first_token_time - 1e-9

    @pytest.mark.parametrize("scheduler", SCHEDULERS, ids=lambda s: type(s).__name__)
    def test_output_aligned_with_input_order(self, scheduler, workload):
        requests, results = workload
        timings = scheduler.schedule(requests, results)
        assert [t.request_id for t in timings] == [r.request_id for r in requests]

    @pytest.mark.parametrize("scheduler", SCHEDULERS, ids=lambda s: type(s).__name__)
    def test_satisfies_scheduler_protocol(self, scheduler):
        assert isinstance(scheduler, Scheduler)

    @pytest.mark.parametrize("scheduler_cls", [FCFSScheduler, ContinuousBatchingScheduler])
    def test_length_mismatch_rejected(self, scheduler_cls, workload):
        requests, results = workload
        with pytest.raises(ValueError):
            scheduler_cls().schedule(requests, results[:-1])


class TestThroughputScaling:
    @pytest.mark.parametrize("scheduler_cls", [FCFSScheduler, ContinuousBatchingScheduler])
    def test_throughput_monotone_in_n_servers(self, scheduler_cls, workload):
        requests, results = workload
        makespans = []
        for n_servers in (1, 2, 4):
            timings = scheduler_cls(n_servers=n_servers).schedule(requests, results)
            makespans.append(max(t.completion_time for t in timings))
        assert makespans[0] >= makespans[1] - 1e-9
        assert makespans[1] >= makespans[2] - 1e-9


class TestContinuousBatching:
    def test_decode_interleaving_beats_fcfs_ttft(self, workload):
        """With long decodes, iteration-level admission cuts queueing TTFT."""
        requests, results = workload
        fcfs = FCFSScheduler(n_servers=2).schedule(requests, results)
        batched = ContinuousBatchingScheduler(n_servers=2).schedule(requests, results)
        assert np.mean([t.ttft for t in batched]) < np.mean([t.ttft for t in fcfs])

    def test_token_budget_serialises_admission(self):
        """A budget of one request's tokens degenerates to one-at-a-time."""
        requests = [
            GenerationRequest(request_id=i, n_chunks=2, chunk_tokens=512, arrival_time=0.0)
            for i in range(3)
        ]
        cost_model = ServingCostModel(get_config("mistral-7b"))
        engine = InferenceEngine(
            cost_model, scheme="cacheblend", device=get_device("nvme_ssd")
        )
        results = engine.serve_batch(requests)
        tight = ContinuousBatchingScheduler(
            n_servers=1, max_batch_tokens=requests[0].n_total_tokens
        ).schedule(requests, results)
        # Requests run back to back: each starts when the previous completes.
        by_start = sorted(tight, key=lambda t: t.start_time)
        for earlier, later in zip(by_start, by_start[1:]):
            assert later.start_time >= earlier.completion_time - 1e-9

    def test_oversized_request_still_admitted(self):
        request = GenerationRequest(request_id=0, n_chunks=8, chunk_tokens=1024)
        cost_model = ServingCostModel(get_config("mistral-7b"))
        engine = InferenceEngine(
            cost_model, scheme="cacheblend", device=get_device("nvme_ssd")
        )
        results = engine.serve_batch([request])
        timings = ContinuousBatchingScheduler(
            n_servers=1, max_batch_tokens=256
        ).schedule([request], results)
        assert timings[0].completion_time > 0.0

    def test_cobatched_decoders_pay_their_analytic_slices_serially(self):
        """Four requests share every iteration: one prefill slice each, then
        each decode iteration costs the sum of the four per-request decode
        slices (``decode_time / (n_output_tokens - 1)``)."""
        requests = [
            GenerationRequest(
                request_id=i, n_chunks=1, chunk_tokens=64, n_output_tokens=5,
                arrival_time=0.0,
            )
            for i in range(4)
        ]
        results = [
            EngineResult(
                scheme="cacheblend", gpu_time=1.0, ttft_service=1.0, decode_time=0.4
            )
            for _ in requests
        ]
        timings = ContinuousBatchingScheduler().schedule(requests, results)
        for timing in timings:
            assert timing.first_token_time == pytest.approx(4 * 1.0)
            assert timing.completion_time == pytest.approx(4 * 1.0 + 4 * (4 * 0.1))

    def test_decode_step_shares_its_iteration_with_a_joining_prefill(self):
        """A request arriving mid-decode joins at the next iteration boundary;
        that iteration runs its prefill slice and the decoder's step serially,
        so both pay their sum and the decoder finishes later than alone."""
        requests = [
            GenerationRequest(
                request_id=0, n_chunks=1, chunk_tokens=64, n_output_tokens=5,
                arrival_time=0.0,
            ),
            GenerationRequest(
                request_id=1, n_chunks=1, chunk_tokens=64, n_output_tokens=3,
                arrival_time=1.05,
            ),
        ]
        results = [
            EngineResult(scheme="cacheblend", gpu_time=1.0, ttft_service=1.0, decode_time=0.4),
            EngineResult(scheme="cacheblend", gpu_time=0.5, ttft_service=0.5, decode_time=0.2),
        ]
        decoder, joiner = ContinuousBatchingScheduler().schedule(requests, results)
        # Iterations: prefill A [0, 1.0]; step A [1.0, 1.1]; step A + prefill
        # B [1.1, 1.7]; then two iterations of one step each, 0.2 apiece.
        assert decoder.first_token_time == pytest.approx(1.0)
        assert joiner.start_time == pytest.approx(1.1)
        assert joiner.first_token_time == pytest.approx(1.1 + 0.1 + 0.5)
        assert decoder.completion_time == pytest.approx(1.7 + 2 * (0.1 + 0.1))
        assert joiner.completion_time == decoder.completion_time

    def test_simulator_accepts_injected_scheduler(self, engine):
        simulator = LoadSimulator(
            engine,
            WorkloadSpec(n_output_tokens=64),
            scheduler=ContinuousBatchingScheduler(n_servers=2),
            seed=7,
        )
        result = simulator.run(2.0, n_requests=40)
        assert result.mean_ttft > 0.0
        assert result.throughput > 0.0


class TestDecodeTimeIntegratesKVGrowth:
    """Regression: decode_time must price the *growing* context, not pin the
    whole generation at the initial ``context_tokens``."""

    @pytest.fixture(scope="class")
    def cost_model(self):
        return ServingCostModel(get_config("mistral-7b"))

    def test_single_token_matches_per_token_delay(self, cost_model):
        for context in (0, 1_000, 100_000):
            assert cost_model.decode_time(1, context_tokens=context) == pytest.approx(
                cost_model.decode_time_per_token(context_tokens=context)
            )

    def test_long_decode_exceeds_initial_context_pricing(self, cost_model):
        """Deep in the memory-bound regime every appended token makes the
        next one dearer; the former flat pricing underestimated this."""
        context, n_new = 200_000, 4_000
        flat = n_new * cost_model.decode_time_per_token(context_tokens=context)
        integrated = cost_model.decode_time(n_new, context_tokens=context)
        assert integrated > flat
        # ...but never beyond pricing every token at the *final* context.
        final = n_new * cost_model.decode_time_per_token(
            context_tokens=context + n_new - 1
        )
        assert integrated < final

    def test_matches_explicit_per_token_sum(self, cost_model):
        context, n_new = 150_000, 64
        explicit = sum(
            cost_model.decode_time_per_token(context_tokens=context + k)
            for k in range(n_new)
        )
        assert cost_model.decode_time(n_new, context_tokens=context) == pytest.approx(
            explicit
        )

    def test_compute_bound_decode_stays_flat(self, cost_model):
        """With negligible context the per-token cost is constant, so the
        closed form reduces to the flat product."""
        n_new = 16
        flat = n_new * cost_model.decode_time_per_token(context_tokens=0)
        assert cost_model.decode_time(n_new, context_tokens=0) == pytest.approx(
            flat, rel=0.05
        )

    def test_zero_or_negative_tokens_cost_nothing(self, cost_model):
        assert cost_model.decode_time(0, context_tokens=1_000) == 0.0
        assert cost_model.decode_time(-3, context_tokens=1_000) == 0.0


class TestServicePricing:
    """The first token is the prefill's: a request is priced its prefill plus
    ``n_output_tokens - 1`` decode steps, the first of them against the
    prompt plus the first token."""

    #: 200 context tokens, half of them cached, a 20-token question, 5 tokens out.
    REQUEST = GenerationRequest(
        request_id=0,
        n_chunks=2,
        chunk_tokens=100,
        n_suffix_tokens=20,
        n_output_tokens=5,
        cached_chunk_fraction=0.5,
    )

    @pytest.fixture(scope="class")
    def cost_model(self):
        return ServingCostModel(get_config("mistral-7b"))

    def _decode_steps(self, cost_model) -> float:
        return sum(
            cost_model.decode_time_per_token(context_tokens=220 + 1 + k) for k in range(4)
        )

    def test_full_recompute_by_hand(self, cost_model):
        result = InferenceEngine(cost_model, scheme="full_recompute").serve(self.REQUEST)
        prefill = cost_model.prefill_time(220)
        steps = self._decode_steps(cost_model)
        assert result.ttft_service == prefill
        assert result.gpu_time == prefill
        assert result.gpu_time + result.decode_time == pytest.approx(prefill + steps)
        (timing,) = FCFSScheduler().schedule([self.REQUEST], [result])
        assert timing.first_token_time == prefill
        assert timing.completion_time - timing.first_token_time == pytest.approx(steps)

    def test_cacheblend_by_hand(self, cost_model):
        device = get_device("nvme_ssd")
        result = InferenceEngine(
            cost_model, scheme="cacheblend", device=device, recompute_ratio=0.15
        ).serve(self.REQUEST)
        cached, cold, suffix = 100, 100, 20
        n_tokens = cached + suffix
        cold_prefill = cost_model.prefill_time(cold)
        recomputed = (0.15 * cached + suffix) / n_tokens
        gpu = (
            (cost_model.model.n_layers - 1)
            * cost_model.recompute_layer_time(n_tokens, recomputed)
            + cost_model.prefill_layer_time(n_tokens)
            + cold_prefill
        )
        ttft = cost_model.ttft_cacheblend(n_tokens, suffix, 0.15, device) + cold_prefill
        assert result.ttft_service == pytest.approx(ttft)
        assert result.gpu_time == pytest.approx(gpu)
        assert result.gpu_time + result.decode_time == pytest.approx(
            gpu + self._decode_steps(cost_model)
        )
