"""PipelinedExecutor: measured trace invariants and pipelined speedup."""

import itertools
import sys
import threading

import numpy as np
import pytest

from repro.core.executor import PipelinedExecutor
from repro.core.fusor import FusorConfig
from repro.kvstore.serialization import KVBlob, serialize_kv
from repro.model.config import ModelConfig, get_config
from repro.model.transformer import TransformerModel

#: Slack for comparing perf_counter timestamps recorded on two threads.
EPS = 1e-6


@pytest.fixture(scope="module")
def model() -> TransformerModel:
    return TransformerModel(get_config("small"), seed=0)


@pytest.fixture(scope="module")
def chunk_caches(model):
    """Three chunks packed at fp16, as a store holds them."""
    rng = np.random.default_rng(0)
    return [
        KVBlob(
            serialize_kv(
                model.chunk_prefill(
                    rng.integers(4, model.config.vocab_size, size=48).astype(np.int64)
                )
            )
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


class TestPerLayerDecode:
    """Each layer is decoded from the stored bytes inside that layer's load,
    so a request's first layer never waits for its later layers."""

    @staticmethod
    def _log_decodes_and_computes(monkeypatch) -> list[str]:
        import repro.core.executor as executor_module

        events: list[str] = []
        decode = KVBlob.layer
        compute_start = executor_module._SpanRecorder.compute_start

        def logged_decode(blob, layer_idx):
            events.append(f"decode {layer_idx}")
            return decode(blob, layer_idx)

        def logged_compute_start(recorder, layer_idx):
            events.append(f"compute {layer_idx}")
            compute_start(recorder, layer_idx)

        monkeypatch.setattr(KVBlob, "layer", logged_decode)
        monkeypatch.setattr(
            executor_module._SpanRecorder, "compute_start", logged_compute_start
        )
        return events

    def test_sequential_decodes_each_layer_right_before_its_compute(
        self, model, chunk_caches, suffix_ids, monkeypatch
    ):
        events = self._log_decodes_and_computes(monkeypatch)
        _executor(model, 0.0).execute(chunk_caches, suffix_ids, pipelined=False)
        expected: list[str] = []
        for layer_idx in range(model.config.n_layers):
            expected += [f"decode {layer_idx}"] * len(chunk_caches) + [f"compute {layer_idx}"]
        assert events == expected

    def test_pipelined_batch_decodes_every_layer_once(
        self, model, chunk_caches, suffix_ids, monkeypatch
    ):
        events = self._log_decodes_and_computes(monkeypatch)
        _executor(model, 0.0005).execute_batch(
            [(chunk_caches, suffix_ids)] * 2, pipelined=True
        )
        n_layers = model.config.n_layers
        decodes = [event for event in events if event.startswith("decode")]
        assert len(decodes) == 2 * n_layers * len(chunk_caches)
        assert sum(event.startswith("compute") for event in events) == 2 * n_layers


def _assert_same_fusion(a, b) -> None:
    """Bitwise equal fused KV, last logits and per-layer selections."""
    np.testing.assert_array_equal(a.last_logits, b.last_logits)
    assert a.recompute_counts == b.recompute_counts
    for x, y in zip(a.selected_per_layer, b.selected_per_layer):
        np.testing.assert_array_equal(x, y)
    for x, y in zip(a.kv_cache.layers, b.kv_cache.layers):
        np.testing.assert_array_equal(x.keys, y.keys)
        np.testing.assert_array_equal(x.values, y.values)


class TestNumericsMatch:
    def test_pipelined_equals_sequential(self, model, chunk_caches, suffix_ids):
        executor = _executor(model, 0.001)
        seq = executor.execute(chunk_caches, suffix_ids, pipelined=False)
        pipe = executor.execute(chunk_caches, suffix_ids, pipelined=True)
        _assert_same_fusion(seq.fusion, pipe.fusion)

    def test_batch_under_fast_thread_switching_equals_sequential(
        self, model, chunk_caches, suffix_ids
    ):
        """The compute thread builds each request's re-alignment rotations
        and the loader reads them while compute runs.  Switching threads
        every microsecond, across 12 requests whose chunk orders (and so
        rotations) all differ, the pipelined batch is still bitwise the
        sequential one, and it finishes."""
        orders = [
            order
            for size in (2, 3)
            for order in itertools.permutations(range(len(chunk_caches)), size)
        ]
        items = [([chunk_caches[i] for i in order], suffix_ids) for order in orders]
        executor = _executor(model, 0.0)
        sequential = executor.execute_batch(items, pipelined=False)
        pipelined: list = []

        def run() -> None:
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                pipelined.append(executor.execute_batch(items, pipelined=True))
            finally:
                sys.setswitchinterval(interval)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive()
        (batch,) = pipelined
        assert len(items) == len(batch) == len(sequential) == 12
        for seq, pipe in zip(sequential, batch):
            _assert_same_fusion(seq.fusion, pipe.fusion)

    def test_accounting_matches_in_memory_fusor(self, model, chunk_caches, suffix_ids):
        """The executor (fp16-packed chunks) keeps the fusor's accounting."""
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
        blob = KVBlob(serialize_kv(other.chunk_prefill(np.arange(4, 20, dtype=np.int64))))
        with pytest.raises(ValueError):
            _executor(model, 0.0).execute([blob], suffix_ids)


class TestComputeFailure:
    def test_loader_is_joined_before_the_error_reaches_the_caller(
        self, model, chunk_caches, suffix_ids, monkeypatch
    ):
        """A failed compute stops the loader within one layer and joins it:
        when the exception reaches the caller, no loader thread is left
        sleeping and decoding into slots nobody reads."""

        def fail(*args, **kwargs):
            raise RuntimeError("selective recompute failed")

        monkeypatch.setattr(model, "layer_selective", fail)
        with pytest.raises(RuntimeError, match="selective recompute failed"):
            _executor(model, 0.01).execute_batch(
                [(chunk_caches, suffix_ids)] * 3, pipelined=True
            )
        assert not [t for t in threading.enumerate() if t.name == "kv-loader"]

    def test_loader_stops_inside_the_failing_request(
        self, model, chunk_caches, suffix_ids, monkeypatch
    ):
        """The loader checks for a failure before each layer, so it stops
        inside the failing request instead of loading the rest of it."""

        def fail(*args, **kwargs):
            raise RuntimeError("selective recompute failed")

        executor = _executor(model, 0.05)
        decode = executor._decode_layer
        decoded = []

        def counting_decode(plan, layer_idx):
            decoded.append(layer_idx)
            return decode(plan, layer_idx)

        monkeypatch.setattr(model, "layer_selective", fail)
        monkeypatch.setattr(executor, "_decode_layer", counting_decode)
        with pytest.raises(RuntimeError, match="selective recompute failed"):
            executor.execute_batch([(chunk_caches, suffix_ids)] * 3, pipelined=True)
        # Compute fails at layer 1 with layer 2 in flight; a loader that only
        # checked between requests would decode all 8 layers first.
        assert len(decoded) < model.config.n_layers


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
