"""PipelinedExecutor: measured trace invariants and pipelined speedup."""

import numpy as np
import pytest

from repro.core.executor import PipelinedExecutor
from repro.core.fusor import FusorConfig
from repro.model.config import ModelConfig, get_config
from repro.model.transformer import TransformerModel

#: Slack for comparing perf_counter timestamps recorded on two threads.
EPS = 1e-6


@pytest.fixture(scope="module")
def model() -> TransformerModel:
    return TransformerModel(get_config("small"), seed=0)


@pytest.fixture(scope="module")
def chunk_caches(model):
    rng = np.random.default_rng(0)
    return [
        model.chunk_prefill(
            rng.integers(4, model.config.vocab_size, size=48).astype(np.int64)
        )
        for _ in range(3)
    ]


@pytest.fixture(scope="module")
def suffix_ids(model):
    rng = np.random.default_rng(1)
    return rng.integers(4, model.config.vocab_size, size=12).astype(np.int64)


def _executor(model, layer_load_time):
    return PipelinedExecutor(
        model, FusorConfig(recompute_ratio=0.2), layer_load_time=layer_load_time
    )


class TestTraceInvariants:
    @pytest.mark.parametrize("pipelined", [True, False])
    def test_no_compute_before_its_load_ends(
        self, model, chunk_caches, suffix_ids, pipelined
    ):
        result = _executor(model, 0.002).execute(
            chunk_caches, suffix_ids, pipelined=pipelined
        )
        trace = result.trace
        assert np.all(trace.compute_start >= trace.load_end - EPS)
        # Loads are sequential on the (simulated) device.
        assert np.all(trace.load_start[1:] >= trace.load_end[:-1] - EPS)
        # Compute layers run in order.
        assert np.all(trace.compute_start[1:] >= trace.compute_end[:-1] - EPS)
        # Spans are real (measured): every load/compute took > 0 time.
        assert np.all(result.load_times > 0.0)
        assert np.all(result.compute_times > 0.0)

    def test_no_stall_beyond_first_load_when_loads_are_faster(
        self, model, chunk_caches, suffix_ids
    ):
        """Loads faster than compute ⇒ the only wait is the unavoidable first load."""
        result = _executor(model, 0.0).execute(chunk_caches, suffix_ids, pipelined=True)
        trace = result.trace
        bubbles = trace.stall_time - trace.compute_start[0]
        assert bubbles == pytest.approx(0.0, abs=2e-3)

    def test_sequential_never_overlaps(self, model, chunk_caches, suffix_ids):
        result = _executor(model, 0.002).execute(
            chunk_caches, suffix_ids, pipelined=False
        )
        trace = result.trace
        # Each layer's load starts only after the previous layer's compute.
        assert np.all(trace.load_start[1:] >= trace.compute_end[:-1] - EPS)


class TestNumericsMatch:
    def test_pipelined_equals_sequential(self, model, chunk_caches, suffix_ids):
        executor = _executor(model, 0.001)
        seq = executor.execute(chunk_caches, suffix_ids, pipelined=False)
        pipe = executor.execute(chunk_caches, suffix_ids, pipelined=True)
        assert np.allclose(seq.fusion.last_logits, pipe.fusion.last_logits)
        assert seq.fusion.recompute_counts == pipe.fusion.recompute_counts
        for a, b in zip(seq.fusion.kv_cache.layers, pipe.fusion.kv_cache.layers):
            assert np.allclose(a.keys, b.keys)
            assert np.allclose(a.values, b.values)

    def test_accounting_matches_in_memory_fusor(self, model, chunk_caches, suffix_ids):
        """The executor (fp16 store round-trip) keeps the fusor's accounting."""
        result = _executor(model, 0.0).execute(chunk_caches, suffix_ids)
        fusion = result.fusion
        n = fusion.n_tokens
        assert n == sum(c.n_tokens for c in chunk_caches) + suffix_ids.size
        assert fusion.recompute_counts[0] == n
        suffix_indices = np.arange(fusion.suffix_start, n)
        for selected in fusion.selected_per_layer[1:]:
            assert np.isin(suffix_indices, selected).all()

    def test_shape_mismatch_rejected(self, model, suffix_ids):
        other = TransformerModel(
            ModelConfig(name="tiny-2kv", n_kv_heads=2, runnable=True), seed=0
        )
        cache = other.chunk_prefill(np.arange(4, 20, dtype=np.int64))
        with pytest.raises(ValueError):
            _executor(model, 0.0).execute([cache], suffix_ids)


class TestMeasuredSpeedup:
    def test_pipelining_hides_recompute(self, model, chunk_caches, suffix_ids):
        """At the calibrated load≈compute point, the pipelined schedule loads
        every layer while the previous layer recomputes and starts computing
        before the last load ends; the sequential one never loads during a
        compute.  The check reads the recorded traces, so it holds on a busy
        host; the wall-clock speedup this overlap buys is measured by the
        profile's ``pipeline`` block and the e2e makespan test."""
        probe = _executor(model, 0.0).execute(
            chunk_caches, suffix_ids, pipelined=False
        )
        executor = _executor(model, float(probe.compute_times.mean()))
        for _ in range(2):
            seq = executor.execute(chunk_caches, suffix_ids, pipelined=False).trace
            pipe = executor.execute(chunk_caches, suffix_ids, pipelined=True).trace
            assert np.all(pipe.load_start[1:] < pipe.compute_end[:-1])
            assert pipe.compute_start[0] < pipe.load_end[-1]
            assert np.all(seq.load_start[1:] >= seq.compute_end[:-1] - EPS)
