"""Each fuse layer runs attention and the MLP only for the rows that feed
something, and every output stays bitwise equal to running every row.

A fuse layer computes and merges its selected tokens' K/V, ranks them, and
only then runs attention, the output projection and the MLP, for the next
layer's selection (the last token on the last layer) and the selected rows
inside the forward-attention window.  The loader writes each layer with one
call per chunk and one rotation per run of re-aligned chunks, and
``chunk_prefill`` stops at the last layer's K/V.  The reference here is the
loop that runs every recomputed row: ``layer_full`` on every token, then
``layer_selective`` on every selected token, over reused KV assembled chunk
by chunk, each chunk's keys rotated from the stored ones by a cos/sin pair
the test evaluates itself.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.model.transformer as transformer_module
from repro.core.deviation import token_kv_deviation
from repro.core.executor import PipelinedExecutor
from repro.core.fusor import FusionLayout, FusorConfig, KVFusor
from repro.core.hkvd import HKVDSelector
from repro.kvstore.config import StoreConfig
from repro.kvstore.precision import PRECISION_PRESETS
from repro.kvstore.serialization import KVBlob, deserialize_kv, serialize_kv
from repro.model.config import get_config
from repro.model.rope import rope_frequencies
from repro.model.tensors import KVCache, LayerKV
from repro.model.transformer import TransformerModel


@pytest.fixture(scope="module")
def model() -> TransformerModel:
    """The benchmark's proxy shapes (GQA, 8 layers, head_dim 16)."""
    return TransformerModel(get_config("small"), seed=0)


# ----------------------------------------------------------------------
# The all-rows reference
# ----------------------------------------------------------------------
def _cos_sin(delta: np.ndarray, cfg, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Cos and sin of the RoPE angles of *delta*: float64 angles, each value
    rounded twice (in float64, then to *dtype*), shape ``(n, 1, d / 2)``."""
    angles = delta.astype(np.float64)[:, None] * rope_frequencies(cfg.head_dim, cfg.rope_theta)
    return np.cos(angles)[:, None, :].astype(dtype), np.sin(angles)[:, None, :].astype(dtype)


def _rotate_into(out: np.ndarray, x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> None:
    """RoPE of *x* written into *out*, products in the promoted dtype."""
    x_even = x[..., 0::2]
    x_odd = x[..., 1::2]
    out[..., 0::2] = x_even * cos - x_odd * sin
    out[..., 1::2] = x_even * sin + x_odd * cos


def _reused_layer(model, chunk_layers, positions, layout, rotation_dtype) -> LayerKV:
    """One layer's reused KV, chunk by chunk: a fresh zero buffer, each
    chunk's keys rotated from the stored array by its own pair (copied when
    it sits at its stored positions), values copied."""
    cfg = model.config
    keys = np.zeros((layout.n_tokens, cfg.n_kv_heads, cfg.head_dim), dtype=cfg.np_dtype)
    values = np.zeros_like(keys)
    for (chunk_keys, chunk_values), stored, offset in zip(
        chunk_layers, positions, layout.chunk_offsets
    ):
        rows = slice(offset, offset + len(stored))
        delta = np.arange(offset, offset + len(stored)) - stored
        if delta.any():
            _rotate_into(keys[rows], chunk_keys, *_cos_sin(delta, cfg, rotation_dtype))
        else:
            keys[rows] = chunk_keys
        values[rows] = chunk_values
    return LayerKV(keys, values)


def _reference_fuse(model, config: FusorConfig, chunks, layout: FusionLayout, ratio: float):
    """Every recomputed row runs attention and the MLP; the next layer keeps
    the selected rows' hidden states.  Returns the outputs the fuse reports."""
    positions = layout.positions
    n_tokens = layout.n_tokens
    suffix_start = layout.suffix_start
    n_layers = model.config.n_layers
    stored = [chunk.positions for chunk in chunks]
    # In-memory caches rotate in their own dtype, stored blobs in float32.
    rotation_dtype = np.float32 if isinstance(chunks[0], KVBlob) else model.config.np_dtype

    def reused(layer_idx: int) -> LayerKV:
        layers = [
            chunk.layer(layer_idx)
            if isinstance(chunk, KVBlob)
            else (chunk.layers[layer_idx].keys, chunk.layers[layer_idx].values)
            for chunk in chunks
        ]
        return _reused_layer(model, layers, stored, layout, rotation_dtype)

    selector = HKVDSelector(
        target_ratio=ratio,
        n_layers=n_layers,
        boost=config.boost,
        floor=config.floor,
        always_include=np.arange(suffix_start, n_tokens),
    )
    hidden = model.embed(layout.token_ids)
    rope = model.rotation(positions)
    out0 = model.layer_full(0, hidden, positions, rope, query_window=config.query_window)
    deviation = token_kv_deviation(out0.layer_kv, reused(0))
    deviation[suffix_start:] = 0.0
    deviations = [deviation]
    layers = [out0.layer_kv]
    attention = [out0.forward_attention] if out0.forward_attention is not None else []
    selected = selector.first_selection(deviation)
    counts = [n_tokens]
    hidden = out0.hidden[selected]
    for layer_idx in range(1, n_layers):
        layer = reused(layer_idx)
        prev_keys, prev_values = layer.keys[selected], layer.values[selected]
        out = model.layer_selective(
            layer_idx, hidden, selected, positions, layer, rope,
            query_window=config.query_window, in_place=True,
        )
        layers.append(out.merged_kv)
        if out.forward_attention is not None:
            attention.append(out.forward_attention)
        counts.append(int(selected.size))
        deviation = np.zeros(n_tokens)
        deviation[selected] = np.linalg.norm(
            (out.new_keys - prev_keys).reshape(len(selected), -1), axis=1
        ) + np.linalg.norm((out.new_values - prev_values).reshape(len(selected), -1), axis=1)
        deviation[suffix_start:] = 0.0
        deviations.append(deviation)
        hidden = out.hidden_selected
        if layer_idx < n_layers - 1:
            keep = np.isin(selected, selector.next_selection(deviation))
            hidden, selected = hidden[keep], selected[keep]
    (last,) = np.nonzero(selected == n_tokens - 1)[0]
    return {
        "layers": layers,
        "last_logits": model.logits(hidden[last]),
        "forward_attention": attention,
        "recompute_counts": counts,
        "deviations": deviations,
    }


def _assert_fusion_equals(fusion, reference) -> None:
    assert fusion.recompute_counts == reference["recompute_counts"]
    np.testing.assert_array_equal(fusion.last_logits, reference["last_logits"])
    assert len(fusion.forward_attention) == len(reference["forward_attention"])
    for got, want in zip(fusion.forward_attention, reference["forward_attention"]):
        np.testing.assert_array_equal(got, want)
    assert len(fusion.layer_deviations) == len(reference["deviations"])
    for got, want in zip(fusion.layer_deviations, reference["deviations"]):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(fusion.kv_cache.layers, reference["layers"], strict=True):
        np.testing.assert_array_equal(got.keys, want.keys)
        np.testing.assert_array_equal(got.values, want.values)


# ----------------------------------------------------------------------
# Random layouts
# ----------------------------------------------------------------------
_CHUNK = st.tuples(
    st.integers(2, 40),  # tokens
    st.one_of(st.none(), st.integers(0, 300)),  # stored start; None: at its offset
)

_REQUEST = st.fixed_dictionaries(
    {
        "chunks": st.lists(_CHUNK, min_size=1, max_size=4),
        "question": st.integers(2, 10),
        "ratio": st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        "query_window": st.sampled_from([0, 1, 8, 40]),
        "seed": st.integers(0, 2**16),
    }
)


def _chunk_caches(model, request) -> list[KVCache]:
    rng = np.random.default_rng(request["seed"])
    caches, offset = [], 0
    for n_tokens, start in request["chunks"]:
        token_ids = rng.integers(4, model.config.vocab_size, size=n_tokens)
        caches.append(
            model.chunk_prefill(token_ids, start_position=offset if start is None else start)
        )
        offset += n_tokens
    return caches


def _served(blobs: list[KVBlob], backend: str) -> list[KVBlob]:
    """*blobs* put into and looked up from a store: a ``chunk`` store, or a
    ``tiered`` one whose RAM tier holds one chunk, so the others are
    demoted on put and served from the slow tier (promoting, and demoting
    another) on lookup."""
    ram = max(blob.nbytes for blob in blobs)
    store = StoreConfig(backend=backend, tier_capacity_bytes=(ram, None)).build()
    keys = [f"chunk-{i}" for i in range(len(blobs))]
    for key, blob in zip(keys, blobs):
        store.put(key, blob)
    found = [store.lookup(key) for key in keys]
    if backend == "tiered" and len(blobs) > 1:
        assert any(lookup.tier_index > 0 for lookup in found)
    return [lookup.blob for lookup in found]


class TestEquivalence:
    @settings(
        derandomize=True,
        deadline=None,
        max_examples=40,
        phases=(Phase.explicit, Phase.reuse, Phase.generate),
    )
    @given(request=_REQUEST)
    def test_fuse_equals_the_all_rows_loop(self, model, request):
        """Fused KV, last logits, forward attention, recompute counts and
        deviations equal the reference bit for bit: in memory; and over
        blobs of every precision preset, through the executor pipelined and
        sequential and through ``KVFusor.fuse`` over ``deserialize_kv`` of
        the same blobs; and through the executor over blobs served by a
        chunk store and by a tiered one."""
        caches = _chunk_caches(model, request)
        suffix = np.random.default_rng(request["seed"] + 1).integers(
            4, model.config.vocab_size, size=request["question"]
        )
        ratio = request["ratio"]
        config = FusorConfig(recompute_ratio=ratio, query_window=request["query_window"])
        fusor = KVFusor(model, config)
        layout = fusor.plan_layout(caches, suffix)

        fused = fusor.fuse(caches, suffix)
        _assert_fusion_equals(fused, _reference_fuse(model, config, caches, layout, ratio))
        # The store arm runs one preset per example, all four over the run.
        stored = PRECISION_PRESETS[request["seed"] % len(PRECISION_PRESETS)]
        for precision in PRECISION_PRESETS:
            blobs = [KVBlob(serialize_kv(cache, precision)) for cache in caches]
            reference = _reference_fuse(model, config, blobs, layout, ratio)
            executor = PipelinedExecutor(
                model, config, precision=precision, layer_load_time=0.0
            )
            for pipelined in (True, False):
                run = executor.execute(blobs, suffix, pipelined=pipelined)
                _assert_fusion_equals(run.fusion, reference)
            decoded = [deserialize_kv(blob.data) for blob in blobs]
            _assert_fusion_equals(fusor.fuse(decoded, suffix), reference)
            if precision == stored:
                for backend in ("chunk", "tiered"):
                    run = executor.execute(_served(blobs, backend), suffix)
                    _assert_fusion_equals(run.fusion, reference)


# ----------------------------------------------------------------------
# One fused buffer per request
# ----------------------------------------------------------------------
def _request(model, rng, n_chunks=3):
    caches = [
        model.chunk_prefill(rng.integers(4, model.config.vocab_size, size=20), start_position=50)
        for _ in range(n_chunks)
    ]
    return caches, rng.integers(4, model.config.vocab_size, size=6)


def _assert_one_buffer(fusion) -> None:
    """Every layer's keys and values are views of one array, no bigger than
    they are together."""
    arrays = [array for layer in fusion.kv_cache.layers for array in (layer.keys, layer.values)]
    assert len({id(array.base) for array in arrays}) == 1
    assert arrays[0].base.nbytes == sum(array.nbytes for array in arrays)


class TestFusedBuffer:
    def test_the_fused_cache_is_the_providers_buffer(self, model):
        """Layer 0's fresh K/V take its reused rows' place once ranked, so no
        layer of the buffer is left dead beside the fused cache."""
        rng = np.random.default_rng(3)
        caches, suffix = _request(model, rng)
        _assert_one_buffer(KVFusor(model).fuse(caches, suffix))
        items = [_request(model, rng) for _ in range(3)]
        items = [([KVBlob(serialize_kv(c, "float16")) for c in caches], q) for caches, q in items]
        executor = PipelinedExecutor(model, layer_load_time=0.0)
        for pipelined in (True, False):
            for run in executor.execute_batch(items, pipelined=pipelined):
                _assert_one_buffer(run.fusion)


# ----------------------------------------------------------------------
# Which rows run
# ----------------------------------------------------------------------
def _record_attended(monkeypatch) -> list[np.ndarray]:
    """Log the query tokens of every attention call a layer makes."""
    calls: list[np.ndarray] = []
    selective = transformer_module.selective_attention

    def logged(queries, keys, values, selected, positions, query_window=0):
        calls.append(np.asarray(selected).copy())
        return selective(queries, keys, values, selected, positions, query_window=query_window)

    monkeypatch.setattr(transformer_module, "selective_attention", logged)
    return calls


class TestAttendedRows:
    @pytest.mark.parametrize(
        "query_window, question",
        [(8, 12), (8, 3), (0, 6)],
        ids=["window-in-question", "window-past-question", "no-window"],
    )
    def test_rows_are_the_next_selection_plus_the_window(
        self, model, monkeypatch, query_window, question
    ):
        """Layer ``l`` attends the next selection (the last token on the
        last layer) and its selected rows inside the forward-attention
        window; when that is one row, one more selected row keeps BLAS on a
        GEMM."""
        rng = np.random.default_rng(7)
        caches = [
            model.chunk_prefill(rng.integers(4, model.config.vocab_size, size=24))
            for _ in range(3)
        ]
        suffix = rng.integers(4, model.config.vocab_size, size=question)
        fusor = KVFusor(model, FusorConfig(recompute_ratio=0.3, query_window=query_window))
        calls = _record_attended(monkeypatch)
        fusion = fusor.fuse(caches, suffix)
        n_tokens = fusion.n_tokens
        window_start = n_tokens - query_window if query_window else n_tokens
        selections = fusion.selected_per_layer + [np.array([n_tokens - 1])]
        assert len(calls) == model.config.n_layers
        for layer_idx, attended in enumerate(calls):
            selected, continuing = selections[layer_idx], selections[layer_idx + 1]
            expected = np.union1d(continuing, selected[selected >= window_start])
            if expected.size == 1:
                assert attended.size == 2 and set(expected) <= set(attended)
                assert set(attended) <= set(selected)
            else:
                np.testing.assert_array_equal(attended, expected)
        # The pruned rows are most of layer 0 and of the last layer.
        assert calls[0].size < n_tokens
        assert calls[-1].size <= max(2, query_window)


class TestChunkPrefill:
    def test_stops_at_the_last_layers_kv(self, model, monkeypatch):
        """The last layer's attention and MLP feed only logits, which a
        stored chunk never reads: with ``logits`` raising, the chunk's KV
        still equals the full prefill's bit for bit."""
        token_ids = np.random.default_rng(11).integers(4, model.config.vocab_size, size=32)
        positions = np.arange(40, 72)
        full = model.full_prefill(token_ids, positions=positions).kv_cache

        def no_logits(*args, **kwargs):
            raise AssertionError("chunk_prefill computed logits")

        monkeypatch.setattr(model, "logits", no_logits)
        chunk = model.chunk_prefill(token_ids, start_position=40)
        np.testing.assert_array_equal(chunk.positions, positions)
        np.testing.assert_array_equal(chunk.token_ids, token_ids)
        for got, want in zip(chunk.layers, full.layers, strict=True):
            np.testing.assert_array_equal(got.keys, want.keys)
            np.testing.assert_array_equal(got.values, want.values)

    def test_empty_chunk_rejected(self, model):
        with pytest.raises(ValueError, match="empty"):
            model.chunk_prefill(np.zeros(0, dtype=np.int64))
