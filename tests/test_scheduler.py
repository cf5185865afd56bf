"""FCFS vs continuous batching: shared invariants and batching behaviour."""

import numpy as np
import pytest

from repro.kvstore.device import get_device
from repro.model.config import get_config
from repro.serving.costmodel import OnlineCostCalibration, ServingCostModel
from repro.serving.engine import InferenceEngine
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
        calibration = OnlineCostCalibration(
            load_s_per_token=1e-6,
            compute_s_per_token=2e-6,
            n_observations=1,
            decode_s_per_step=0.5,
            n_decode_observations=1,
        )
        calibrated = ServingCostModel(get_config("mistral-7b"), calibration=calibration)
        result = InferenceEngine(
            calibrated, scheme="cacheblend", device=device, recompute_ratio=0.15
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
        # The measured column ends at the first token too, even with a
        # decode-ready calibration.
        assert result.ttft_service_measured == calibrated.ttft_cacheblend_measured(
            n_tokens, suffix, 0.15
        )


class TestWidthAwareDecodePacing:
    """Co-batched decode at the scheduler level: an iteration's W decoding
    requests cost one measured batched step at width W, not W serial steps."""

    @staticmethod
    def _calibration() -> "OnlineCostCalibration":
        from repro.serving.costmodel import OnlineCostCalibration

        cal = OnlineCostCalibration()
        cal.observe_decode(0.010, batch_width=1)
        cal.observe_decode(0.016, batch_width=4)
        return cal

    def test_buckets_interpolate_clamp_and_extrapolate(self):
        cal = self._calibration()
        assert cal.decode_step_time(1) == pytest.approx(0.010)
        assert cal.decode_step_time(4) == pytest.approx(0.016)
        # Linear interpolation between observed widths...
        assert cal.decode_step_time(2) == pytest.approx(0.012)
        assert cal.decode_step_time(3) == pytest.approx(0.014)
        # ...slope extrapolation beyond the widest bucket (per-step cost
        # grows with width; clamping would price a 16-wide iteration at the
        # 4-wide step cost and make measured pacing optimistic)...
        assert cal.decode_step_time(16) == pytest.approx(0.016 + 0.002 * 12)
        # ...floored at flat when the top buckets are non-monotonic, and
        # clamped with only one bucket observed.
        from repro.serving.costmodel import OnlineCostCalibration

        noisy = OnlineCostCalibration()
        noisy.observe_decode(0.016, batch_width=2)
        noisy.observe_decode(0.010, batch_width=4)
        assert noisy.decode_step_time(32) == pytest.approx(0.010)
        lone = OnlineCostCalibration()
        lone.observe_decode(0.02, batch_width=3)
        assert lone.decode_step_time(32) == pytest.approx(0.02)
        # The width-agnostic EWMA is still the legacy aggregate.
        assert cal.decode_step_time() == pytest.approx(
            0.75 * 0.010 + 0.25 * 0.016
        )

    def test_bucket_validation(self):
        cal = self._calibration()
        with pytest.raises(ValueError):
            cal.observe_decode(0.01, batch_width=0)
        with pytest.raises(ValueError):
            cal.decode_step_time(0)
        from repro.serving.costmodel import OnlineCostCalibration

        with pytest.raises(RuntimeError):
            OnlineCostCalibration().decode_step_time(2)

    def test_snapshot_includes_the_width_buckets(self):
        snapshot = self._calibration().as_dict()
        assert snapshot["decode_s_per_step_by_width"] == {
            "1": pytest.approx(0.010),
            "4": pytest.approx(0.016),
        }

    def test_cobatched_iterations_amortise_decode(self):
        """Four decode-heavy requests in one batch: width-aware pacing prices
        each iteration at one width-4 step (~0.016 s), the legacy behaviour
        at four width-1 steps (0.040 s) — the measured amortisation finally
        reaches scheduler-level completion times."""
        cal = self._calibration()
        requests = [
            GenerationRequest(
                request_id=i, n_chunks=1, chunk_tokens=64, n_output_tokens=33,
                arrival_time=0.0,
            )
            for i in range(4)
        ]
        cost_model = ServingCostModel(get_config("mistral-7b"))
        engine = InferenceEngine(
            cost_model, scheme="cacheblend", device=get_device("nvme_ssd")
        )
        results = engine.serve_batch(requests)
        paced = ContinuousBatchingScheduler(decode_calibration=cal).schedule(
            requests, results
        )
        unpaced = ContinuousBatchingScheduler().schedule(requests, results)
        decode_steps = requests[0].n_output_tokens - 1  # 32 lock-step iterations
        # All four decode together; batched iterations are width-4 steps.
        batched_decode = decode_steps * cal.decode_step_time(4)
        serial_measured = decode_steps * 4 * cal.decode_step_time(1)
        measured_makespan = max(t.completion_time for t in paced)
        analytic_makespan = max(t.completion_time for t in unpaced)
        prefill_part = analytic_makespan - decode_steps * sum(
            r.decode_time / decode_steps for r in results
        )
        assert measured_makespan == pytest.approx(prefill_part + batched_decode)
        assert measured_makespan < prefill_part + serial_measured
        # Lifecycle invariants survive the width-aware pricing.
        for timing in paced:
            assert timing.first_token_time >= timing.start_time
            assert timing.completion_time >= timing.first_token_time

    def test_single_decoder_still_paces_at_width_one(self):
        cal = self._calibration()
        request = GenerationRequest(request_id=0, n_output_tokens=9, arrival_time=0.0)
        cost_model = ServingCostModel(get_config("mistral-7b"))
        engine = InferenceEngine(
            cost_model, scheme="cacheblend", device=get_device("nvme_ssd")
        )
        results = engine.serve_batch([request])
        paced = ContinuousBatchingScheduler(decode_calibration=cal).schedule(
            [request], results
        )
        unpaced = ContinuousBatchingScheduler().schedule([request], results)
        shift = (request.n_output_tokens - 1) * (
            results[0].decode_time / (request.n_output_tokens - 1)
            - cal.decode_step_time(1)
        )
        assert paced[0].completion_time == pytest.approx(
            unpaced[0].completion_time - shift
        )
