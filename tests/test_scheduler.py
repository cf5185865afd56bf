"""Continuous batching: conservation on random streams, batching behaviour,
and the service pricing it schedules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workload import WorkloadGenerator
from repro.kvstore.device import get_device
from repro.model.config import get_config
from repro.serving.costmodel import ServingCostModel
from repro.serving.engine import EngineResult, InferenceEngine
from repro.serving.request import GenerationRequest
from repro.serving.scheduler import MAX_PREEMPTIONS, ContinuousBatchingScheduler


@pytest.fixture(scope="module")
def engine() -> InferenceEngine:
    cost_model = ServingCostModel(get_config("mistral-7b"))
    return InferenceEngine(
        cost_model, scheme="cacheblend", device=get_device("nvme_ssd")
    )


@pytest.fixture(scope="module")
def workload(engine):
    requests = WorkloadGenerator(request_rate=2.0, seed=7).generate(60)
    return requests, [engine.serve(request) for request in requests]


#: One request of a random stream: arrival time, chunk count, first-token
#: service seconds, the share of it stalled on KV loads, decode seconds,
#: output tokens and TTFT deadline (``None``: best effort).
_request_specs = st.tuples(
    st.floats(0.0, 20.0),
    st.integers(1, 8),
    st.floats(0.01, 2.0),
    st.floats(0.0, 0.9),
    st.floats(0.0, 2.0),
    st.integers(1, 8),
    st.none() | st.floats(0.05, 5.0),
)


def _stream(specs, zero_stall: bool):
    requests, results = [], []
    for i, (arrival, n_chunks, service, stall_share, decode, n_output, deadline) in (
        enumerate(specs)
    ):
        stall = 0.0 if zero_stall else stall_share * service
        requests.append(
            GenerationRequest(
                request_id=i,
                n_chunks=n_chunks,
                chunk_tokens=256,
                n_output_tokens=n_output,
                arrival_time=arrival,
                deadline_s=deadline,
            )
        )
        # A one-token answer runs no decode step, so it is priced none.
        results.append(
            EngineResult(
                scheme="cacheblend",
                gpu_time=service - stall,
                ttft_service=service,
                decode_time=decode if n_output > 1 else 0.0,
                stall_time=stall,
            )
        )
    return requests, results


class TestConservation:
    """Every random arrival stream is scheduled whole and consistently."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        specs=st.lists(_request_specs, min_size=1, max_size=24),
        n_servers=st.integers(1, 3),
        max_batch_tokens=st.sampled_from([1024, 4096, 16_384]),
        slo=st.booleans(),
        zero_stall=st.booleans(),
    )
    def test_random_streams(self, specs, n_servers, max_batch_tokens, slo, zero_stall):
        requests, results = _stream(specs, zero_stall)
        scheduler = ContinuousBatchingScheduler(
            n_servers=n_servers, max_batch_tokens=max_batch_tokens, slo=slo
        )
        timings = scheduler.schedule(requests, results)

        # Exactly one timing per request, in input (not arrival) order.
        assert [t.request_id for t in timings] == [r.request_id for r in requests]
        assert [t.arrival_time for t in timings] == [r.arrival_time for r in requests]
        for request, timing in zip(requests, timings):
            if timing.rejected:
                assert slo and request.deadline_s is not None
                assert timing.start_time == timing.first_token_time
                assert timing.first_token_time == timing.completion_time
                assert timing.n_preemptions == 0
            else:
                assert timing.arrival_time <= timing.start_time + 1e-12
                assert timing.start_time <= timing.first_token_time + 1e-12
                assert timing.first_token_time <= timing.completion_time + 1e-9
                assert timing.n_preemptions <= (MAX_PREEMPTIONS if slo else 0)

        served = [
            (request, result, timing)
            for request, result, timing in zip(requests, results, timings)
            if not timing.rejected
        ]
        if zero_stall and served:
            # Nothing overlaps without stalls: each server runs its served
            # requests' occupancy one slice at a time inside the served span.
            makespan = max(t.completion_time for _, _, t in served) - min(
                r.arrival_time for r, _, _ in served
            )
            busy = sum(result.occupancy for _, result, _ in served)
            assert busy / (n_servers * makespan) <= 1.0 + 1e-9


class TestThroughputScaling:
    def test_throughput_monotone_in_n_servers(self, workload):
        requests, results = workload
        makespans = []
        for n_servers in (1, 2, 4):
            timings = ContinuousBatchingScheduler(n_servers=n_servers).schedule(
                requests, results
            )
            makespans.append(max(t.completion_time for t in timings))
        assert makespans[0] >= makespans[1] - 1e-9
        assert makespans[1] >= makespans[2] - 1e-9


class TestContinuousBatching:
    def test_length_mismatch_rejected(self, workload):
        requests, results = workload
        with pytest.raises(ValueError):
            ContinuousBatchingScheduler().schedule(requests, results[:-1])

    @pytest.mark.parametrize(
        "field", ["n_servers", "max_batch_tokens", "prefill_chunk_tokens"]
    )
    def test_non_positive_sizes_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            ContinuousBatchingScheduler(**{field: 0})

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
        results = [engine.serve(request) for request in requests]
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
        timings = ContinuousBatchingScheduler(
            n_servers=1, max_batch_tokens=256
        ).schedule([request], [engine.serve(request)])
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


class TestLoadOverlap:
    """A co-batched iteration runs the device's loads beside the GPU's
    compute; a request alone in its iteration pays its stalls in full."""

    @staticmethod
    def _prefill_only(n: int, stall: float):
        requests = [
            GenerationRequest(
                request_id=i, n_chunks=1, chunk_tokens=64, n_output_tokens=1
            )
            for i in range(n)
        ]
        results = [
            EngineResult(
                scheme="cacheblend",
                gpu_time=1.0 - stall,
                ttft_service=1.0,
                decode_time=0.0,
                stall_time=stall,
            )
            for _ in requests
        ]
        return ContinuousBatchingScheduler().schedule(requests, results)

    def test_lone_request_pays_its_stall_in_full(self):
        (timing,) = self._prefill_only(1, stall=0.6)
        assert timing.first_token_time == pytest.approx(1.0)

    def test_cobatched_stalls_hide_behind_compute(self):
        # GPU work 0.5 + 0.5 beside device work 0.5 + 0.5: one second, not two.
        for timing in self._prefill_only(2, stall=0.5):
            assert timing.first_token_time == pytest.approx(1.0)

    def test_stall_dominated_batch_stays_device_bound(self):
        # Loads serialise on the device: 0.9 + 0.9 seconds of it.
        for timing in self._prefill_only(2, stall=0.9):
            assert timing.first_token_time == pytest.approx(1.8)


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

    def test_occupancy_is_the_longer_prefill_plus_decode(self):
        result = EngineResult(
            scheme="cacheblend", gpu_time=0.3, ttft_service=0.5, decode_time=0.2
        )
        assert result.occupancy == 0.5 + 0.2
        gpu_bound = EngineResult(
            scheme="full_recompute", gpu_time=0.9, ttft_service=0.5, decode_time=0.2
        )
        assert gpu_bound.occupancy == 0.9 + 0.2

    def test_full_recompute_by_hand(self, cost_model):
        result = InferenceEngine(cost_model, scheme="full_recompute").serve(self.REQUEST)
        prefill = cost_model.prefill_time(220)
        steps = self._decode_steps(cost_model)
        assert result.ttft_service == prefill
        assert result.gpu_time == prefill
        assert result.gpu_time + result.decode_time == pytest.approx(prefill + steps)
        (timing,) = ContinuousBatchingScheduler().schedule([self.REQUEST], [result])
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
