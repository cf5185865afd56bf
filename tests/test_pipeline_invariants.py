"""Property-style invariants of cross-request pipelining and fusion.

Two families:

* schedule invariants over randomized (n_layers, per-layer times, queue
  depth) configurations, checked on the deterministic analytic
  :func:`~repro.core.pipeline.cross_request_schedule` (no thread noise) and
  once on the threaded executor at a delay-dominated operating point;
* numerical equivalence: the fused KV BlendEngine serves (through the
  executor's byte-level load path) is bitwise-equal to the in-memory
  :meth:`~repro.core.fusor.KVFusor.fuse` reference over the same stored
  caches, and the executor's pipelined and sequential schedules agree.
"""

import numpy as np
import pytest

from repro.core.blend_engine import BlendEngine
from repro.core.executor import PipelinedExecutor
from repro.core.fusor import FusorConfig
from repro.core.pipeline import (
    cross_request_pipelined_time,
    cross_request_schedule,
    cross_request_sequential_time,
)
from repro.kvstore.device import get_device
from repro.kvstore.serialization import KVBlob, deserialize_kv, serialize_kv
from repro.model.config import get_config
from repro.model.transformer import TransformerModel
from repro.serving.costmodel import ServingCostModel
from repro.serving.engine import EngineResult
from repro.serving.request import GenerationRequest
from repro.serving.scheduler import ContinuousBatchingScheduler

EPS = 1e-9


def _random_queue(rng: np.random.Generator):
    """A random (loads, computes) queue: depth 1..6, 1..12 layers, mixed scales."""
    depth = int(rng.integers(1, 7))
    n_layers = int(rng.integers(1, 13))
    loads, computes = [], []
    for _ in range(depth):
        scale = float(rng.choice([1e-4, 1e-3, 1e-2]))
        loads.append(list(rng.uniform(0.0, scale, size=n_layers)))
        computes.append(list(rng.uniform(0.0, scale, size=n_layers)))
    return loads, computes


class TestCrossRequestScheduleProperties:
    @pytest.mark.parametrize("seed", range(25))
    def test_pipelined_makespan_never_exceeds_sequential(self, seed):
        loads, computes = _random_queue(np.random.default_rng(seed))
        pipelined = cross_request_pipelined_time(loads, computes)
        sequential = cross_request_sequential_time(loads, computes)
        assert pipelined <= sequential + EPS

    @pytest.mark.parametrize("seed", range(25))
    def test_makespan_bounded_below_by_both_streams(self, seed):
        """Loads are serial on the device, computes serial on the GPU."""
        loads, computes = _random_queue(np.random.default_rng(seed))
        pipelined = cross_request_pipelined_time(loads, computes)
        total_load = sum(sum(request) for request in loads)
        total_compute = sum(sum(request) for request in computes)
        assert pipelined >= max(total_load, total_compute) - EPS

    @pytest.mark.parametrize("seed", range(10))
    def test_spans_well_formed_within_and_across_requests(self, seed):
        loads, computes = _random_queue(np.random.default_rng(seed))
        traces = cross_request_schedule(loads, computes)
        previous_end = 0.0
        for trace in traces:
            assert np.all(trace.compute_start >= trace.load_end - EPS)
            assert np.all(trace.load_start[1:] >= trace.load_end[:-1] - EPS)
            assert np.all(trace.compute_start[1:] >= trace.compute_end[:-1] - EPS)
            # Compute is one stream: request r starts after request r-1 ends.
            if trace.compute_start.size:
                assert trace.compute_start[0] >= previous_end - EPS
                previous_end = float(trace.compute_end[-1])

    @pytest.mark.parametrize("seed", range(10))
    def test_makespan_monotone_in_queue_depth(self, seed):
        loads, computes = _random_queue(np.random.default_rng(seed))
        makespans = [
            cross_request_pipelined_time(loads[: depth + 1], computes[: depth + 1])
            for depth in range(len(loads))
        ]
        assert all(a <= b + EPS for a, b in zip(makespans, makespans[1:]))

    def test_mismatched_queue_shapes_rejected(self):
        with pytest.raises(ValueError):
            cross_request_schedule([[1.0]], [[1.0], [1.0]])
        with pytest.raises(ValueError):
            cross_request_schedule([[1.0, 2.0]], [[1.0]])


class TestThreadedBatchInvariant:
    def test_executed_pipelined_makespan_below_sequential_at_calibrated_point(self):
        """At load≈compute, cross-request overlap must win despite thread noise."""
        model = TransformerModel(get_config("small"), seed=0)
        rng = np.random.default_rng(0)
        caches = [
            KVBlob(
                serialize_kv(
                    model.chunk_prefill(
                        rng.integers(4, model.config.vocab_size, size=64).astype(np.int64)
                    )
                )
            )
            for _ in range(2)
        ]
        suffix = rng.integers(4, model.config.vocab_size, size=8).astype(np.int64)
        config = FusorConfig(recompute_ratio=0.2)
        probe = PipelinedExecutor(model, config, layer_load_time=0.0)
        calibration = probe.execute(caches, suffix, pipelined=False)
        load_time = float(calibration.compute_times[1:].mean())
        executor = PipelinedExecutor(model, config, layer_load_time=load_time)
        items = [(caches, suffix)] * 3
        pipelined = min(
            executor.execute_batch(items, pipelined=True).makespan for _ in range(2)
        )
        sequential = min(
            executor.execute_batch(items, pipelined=False).makespan for _ in range(2)
        )
        assert pipelined < sequential


class TestExecutionModeEquivalence:
    """The served fuse equals the in-memory fusor on the same store bytes."""

    CHUNKS = [
        "the first chunk talks about retrieval and caching of key values",
        "the second chunk talks about selective recompute of tokens",
        "the third chunk talks about pipelined loading from storage",
    ]

    @pytest.fixture(scope="class")
    def engine(self):
        e = BlendEngine.build(paper_model="Mistral-7B", device="cpu_ram", seed=0)
        e.precompute_chunks(self.CHUNKS)
        return e

    @pytest.mark.parametrize("ratio", [0.0, 0.15, 0.5])
    def test_fused_kv_bitwise_equal_between_modes(self, engine, ratio):
        question = "which chunk mentions storage?"
        caches = [
            deserialize_kv(
                engine.kv_store.peek(engine.chunk_cache_key(engine.encode(text))).data
            )
            for text in self.CHUNKS
        ]
        reference = engine.fusor.fuse(
            caches, engine.encode(question), recompute_ratio=ratio
        )
        served = engine.run(self.CHUNKS, question, recompute_ratio=ratio)
        assert served.cache_hits == len(self.CHUNKS)
        for a, b in zip(reference.kv_cache.layers, served.fusion.kv_cache.layers):
            assert np.array_equal(a.keys, b.keys)
            assert np.array_equal(a.values, b.values)
        assert np.array_equal(reference.last_logits, served.fusion.last_logits)
        assert reference.recompute_counts == served.fusion.recompute_counts

    def test_executor_pipelined_bitwise_equals_sequential(self, engine):
        blobs = [
            engine.kv_store.peek(engine.chunk_cache_key(engine.encode(text)))
            for text in self.CHUNKS
        ]
        suffix = engine.encode("same bytes both ways?")
        executor = PipelinedExecutor(
            engine.model, FusorConfig(recompute_ratio=0.15), layer_load_time=0.001
        )
        seq = executor.execute(blobs, suffix, pipelined=False)
        pipe = executor.execute(blobs, suffix, pipelined=True)
        for a, b in zip(seq.fusion.kv_cache.layers, pipe.fusion.kv_cache.layers):
            assert np.array_equal(a.keys, b.keys)
            assert np.array_equal(a.values, b.values)


def _stall_heavy_results(rng: np.random.Generator, n: int):
    requests, results = [], []
    for i in range(n):
        gpu = float(rng.uniform(0.05, 0.3))
        stall = float(rng.uniform(0.0, 0.4))
        decode = float(rng.uniform(0.0, 0.2))
        requests.append(
            GenerationRequest(request_id=i, n_chunks=2, chunk_tokens=256, arrival_time=0.0)
        )
        results.append(
            EngineResult(
                scheme="cacheblend",
                gpu_time=gpu,
                ttft_service=gpu + stall,
                decode_time=decode,
                stall_time=stall,
            )
        )
    return requests, results


class TestSchedulerOverlapProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_overlap_never_increases_makespan(self, seed):
        """A batch arriving at once on one server runs back to back, so
        without overlap its makespan would be the serial sum of its work."""
        requests, results = _stall_heavy_results(np.random.default_rng(seed), 6)
        overlapped = ContinuousBatchingScheduler().schedule(requests, results)
        serial_total = sum(r.ttft_service + r.decode_time for r in results)
        assert max(t.completion_time for t in overlapped) <= serial_total + EPS

    @pytest.mark.parametrize("seed", range(10))
    def test_overlap_respects_gpu_lower_bound(self, seed):
        """Hidden stalls never push the makespan below the serial GPU work,
        nor below the serial device work."""
        requests, results = _stall_heavy_results(np.random.default_rng(seed), 6)
        overlapped = ContinuousBatchingScheduler().schedule(requests, results)
        makespan = max(t.completion_time for t in overlapped)
        gpu_total = sum(r.gpu_time + r.decode_time for r in results)
        assert makespan >= gpu_total - EPS
        assert makespan >= sum(r.stall_time for r in results) - EPS


class TestCostModelPricing:
    """The analytic CacheBlend TTFT is the §5.1 per-layer pipeline of KV
    loads and (selective) recompute, and the cost model prices only
    arguments inside its domain."""

    @pytest.mark.parametrize("seed", range(5))
    def test_cacheblend_ttft_is_bounded_by_its_two_streams(self, seed):
        rng = np.random.default_rng(seed)
        cost_model = ServingCostModel(
            get_config(str(rng.choice(["mistral-7b", "yi-34b", "llama-70b"])))
        )
        device = get_device(str(rng.choice(["cpu_ram", "nvme_ssd", "slow_disk"])))
        n_tokens = int(rng.integers(64, 8192))
        n_suffix = int(rng.integers(1, n_tokens))
        ratio = float(rng.uniform(0.0, 1.0))
        pipelined = cost_model.ttft_cacheblend(n_tokens, n_suffix, ratio, device)
        sequential = cost_model.ttft_cacheblend(
            n_tokens, n_suffix, ratio, device, pipelined=False
        )
        n_layers = cost_model.model.n_layers
        load = n_layers * cost_model.kv_load_time_per_layer(n_tokens - n_suffix, device)
        fraction = (ratio * (n_tokens - n_suffix) + n_suffix) / n_tokens
        compute = cost_model.prefill_layer_time(n_tokens) + (
            n_layers - 1
        ) * cost_model.recompute_layer_time(n_tokens, fraction)
        overhead = cost_model.gpu.overhead_s
        assert sequential == pytest.approx(overhead + load + compute)
        assert pipelined <= sequential + EPS
        assert pipelined >= overhead + max(load, compute) - EPS

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda m: m.recompute_layer_time(1024, 1.5), "ratio"),
            (lambda m: m.prefill_time_with_prefix(1024, 2048), "n_prefix"),
            (lambda m: m.decode_time_per_token(batch_size=0), "batch_size"),
            (lambda m: ServingCostModel(m.model, n_gpus=0), "n_gpus"),
        ],
        ids=["ratio", "prefix", "decode_batch", "n_gpus"],
    )
    def test_out_of_domain_arguments_are_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(ServingCostModel(get_config("mistral-7b")))
