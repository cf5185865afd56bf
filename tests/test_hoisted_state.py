"""Bitwise oracles for the state computed once per forward pass or step.

A prefill or fuse computes its RoPE rotation once for every layer (rows of
the model's table), a decode step builds its appended-row index, pad views
and padding mask once (``DecodeStep``) and projects each layer with one
product by the fused Q|K|V matrix, each chunk's re-alignment rotation is
computed once per request, ``rotate`` applies a packed rotation in five
calls, and the layer primitives call the NumPy reductions directly.  None
of that may change a bit.  Each test keeps the per-call formulation as a
test-local reference (RoPE evaluated from positions in every call, q, k and
v projected by the per-matrix weights, the session's row write, padded views
and length mask rebuilt in every layer, ``np.mean``/``np.max``/``np.sum``/
``np.clip``) and asserts exact equality against it.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.model.transformer as transformer_module
from repro.core.executor import PipelinedExecutor
from repro.core.fusor import FusionLayout, KVFusor, assemble_reused_layer
from repro.kvstore.serialization import KVBlob, serialize_kv
from repro.model.attention import full_attention, selective_attention
from repro.model.config import get_config
from repro.model.layers import rms_norm, silu, softmax
from repro.model.rope import rope_cos_sin, rope_frequencies, rotate
from repro.model.tensors import DecodeSession, KVCache, LayerKV
from repro.model.transformer import TransformerModel

DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])


# ----------------------------------------------------------------------
# Per-call references
# ----------------------------------------------------------------------
def _apply_rope(x: np.ndarray, positions: np.ndarray, theta: float) -> np.ndarray:
    """RoPE in one call: float64 angles of *positions*, cast to *x*'s dtype."""
    freqs = rope_frequencies(x.shape[-1], theta)
    angles = np.asarray(positions, dtype=np.float64)[:, None] * freqs[None, :]
    cos = np.cos(angles)[:, None, :].astype(x.dtype)
    sin = np.sin(angles)[:, None, :].astype(x.dtype)
    x_even = x[..., 0::2]
    x_odd = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x_even * cos - x_odd * sin
    out[..., 1::2] = x_even * sin + x_odd * cos
    return out


def _assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    """Equal dtype, shape and bits: ``-0.0`` differs from ``0.0`` and each
    NaN must carry the same bits."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _rms_norm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps) * weight


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = scores - np.max(scores, axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= np.sum(shifted, axis=axis, keepdims=True)
    return shifted


def _decode_attention(queries, keys, values, lengths) -> np.ndarray:
    """Padded decode attention that masks rows at or past each length."""
    n_requests, n_heads, head_dim = queries.shape
    n_kv_heads = keys.shape[2]
    q_grouped = queries.reshape(n_requests, n_kv_heads, n_heads // n_kv_heads, head_dim)
    scores = np.matmul(q_grouped, keys.transpose(0, 2, 3, 1))
    scores *= scores.dtype.type(1.0 / np.sqrt(head_dim))
    padding = np.arange(keys.shape[1])[None, :] >= np.asarray(lengths)[:, None]
    if padding.any():
        np.copyto(scores, scores.dtype.type(-1e30), where=padding[:, None, None, :])
    context = np.matmul(_softmax(scores, axis=-1), values.transpose(0, 2, 1, 3))
    return context.reshape(n_requests, n_heads, head_dim)


def _project(model: TransformerModel, layer_idx: int, hidden, positions):
    """Q, K, V of one layer, RoPE evaluated from *positions* for q and k."""
    cfg = model.config
    w = model.weights.layers[layer_idx]
    normed = _rms_norm(hidden, w.norm_attn)
    q = (normed @ w.wq).reshape(-1, cfg.n_heads, cfg.head_dim)
    k = (normed @ w.wk).reshape(-1, cfg.n_kv_heads, cfg.head_dim)
    v = (normed @ w.wv).reshape(-1, cfg.n_kv_heads, cfg.head_dim)
    theta = cfg.rope_theta
    return _apply_rope(q, positions, theta), _apply_rope(k, positions, theta), v


def _finish(model: TransformerModel, layer_idx: int, hidden, context):
    """Output projection, residuals and the SwiGLU MLP of one layer."""
    cfg = model.config
    w = model.weights.layers[layer_idx]
    hidden = hidden + context.reshape(-1, cfg.n_heads * cfg.head_dim) @ w.wo
    normed = _rms_norm(hidden, w.norm_mlp)
    return hidden + (_silu(normed @ w.w_gate) * (normed @ w.w_up)) @ w.w_down


def _reference_step(model: TransformerModel, session: DecodeSession, token_ids) -> np.ndarray:
    """``decode_session_step`` with every invariant rebuilt in each layer:
    RoPE from the positions for q and k, the appended-row index, the padded
    views up to the longest member, and the length mask."""
    token_arr = np.asarray(token_ids, dtype=np.int64)
    hidden = model.embed(token_arr)
    positions = session.claim_rows(token_arr).positions
    lengths = session.lengths
    n = session.n_members
    for layer_idx in range(model.config.n_layers):
        q, k, v = _project(model, layer_idx, hidden, positions)
        members = np.arange(n)
        rows = session._lengths[:n] - 1
        session._keys[layer_idx][members, rows] = k
        session._values[layer_idx][members, rows] = v
        max_len = int(session._lengths[:n].max())
        keys = session._keys[layer_idx][:n, :max_len]
        values = session._values[layer_idx][:n, :max_len]
        context = _decode_attention(q, keys, values, lengths)
        hidden = _finish(model, layer_idx, hidden, context)
    return _rms_norm(hidden, model.weights.norm_final) @ model.weights.lm_head


@pytest.fixture(scope="module")
def model() -> TransformerModel:
    """GQA like the benchmark's proxy-mistral-7b (8 query, 4 KV heads)."""
    return TransformerModel(get_config("small"), seed=0)


# ----------------------------------------------------------------------
# Weights
# ----------------------------------------------------------------------
class TestFusedWeights:
    @pytest.mark.parametrize("name, seed", [("small", 0), ("tiny", 7)])
    def test_views_of_wqkv_hold_the_drawn_weights(self, name, seed):
        """Replaying ``init_weights``' draws (per layer ``wq, wk, wv, wo,
        w_gate, w_up, w_down``, then the embedding and the LM head) gives
        every matrix bit for bit, read through the fused storage's views;
        ``wq``, ``wk`` and ``wv`` share ``wqkv``'s memory, which is no
        bigger than the three."""
        model = TransformerModel(get_config(name), seed=seed)
        cfg = model.config
        d, kv_dim, ffn = cfg.hidden_size, cfg.n_kv_heads * cfg.head_dim, cfg.ffn_size
        rng = np.random.default_rng(seed)

        def draw(rows: int, cols: int, scale: float) -> np.ndarray:
            return rng.normal(0.0, scale, size=(rows, cols)).astype(cfg.np_dtype)

        attn, mlp = 1.2 / np.sqrt(d), 1.0 / np.sqrt(d)
        for w in model.weights.layers:
            drawn = {
                "wq": draw(d, d, attn),
                "wk": draw(d, kv_dim, attn),
                "wv": draw(d, kv_dim, attn),
                "wo": draw(d, d, attn),
                "w_gate": draw(d, ffn, mlp),
                "w_up": draw(d, ffn, mlp),
                "w_down": draw(ffn, d, 1.0 / np.sqrt(ffn)),
            }
            for attr, want in drawn.items():
                _assert_bits_equal(getattr(w, attr), want)
            for attr in ("wq", "wk", "wv"):
                assert np.shares_memory(getattr(w, attr), w.wqkv)
            assert w.wqkv.nbytes == sum(drawn[attr].nbytes for attr in ("wq", "wk", "wv"))
        _assert_bits_equal(model.weights.embedding, draw(cfg.vocab_size, d, 1.0))
        _assert_bits_equal(model.weights.lm_head, draw(d, cfg.vocab_size, 1.0 / np.sqrt(d)))


# ----------------------------------------------------------------------
# Rotations
# ----------------------------------------------------------------------
class TestRotation:
    @DTYPES
    @pytest.mark.parametrize("seed", range(4))
    def test_rotate_matches_one_call_rope(self, dtype, seed):
        rng = np.random.default_rng(seed)
        max_position = get_config("small").max_position
        n_tokens = int(rng.integers(3, 97))
        # Deltas of either sign, and positions at and past max_position.
        positions = rng.integers(-3 * max_position, 3 * max_position, size=n_tokens)
        positions[: n_tokens // 3] = max_position + np.arange(n_tokens // 3)
        head_dim = int(rng.choice([4, 8, 16, 128]))
        x = rng.normal(size=(n_tokens, int(rng.integers(1, 5)), head_dim)).astype(dtype)
        rotation = rope_cos_sin(positions, head_dim, 10_000.0, dtype)
        assert rotation.cos_sin.dtype == rotation.sin_cos.dtype == dtype
        expected = _apply_rope(x, positions, 10_000.0)
        _assert_bits_equal(rotate(x, rotation), expected)
        out = np.full_like(x, np.nan)
        assert rotate(x, rotation, out=out) is out
        _assert_bits_equal(out, expected)
        assert rotate(x, rotation, out=x) is x
        _assert_bits_equal(x, expected)

    @DTYPES
    def test_signed_zeros_infinities_and_nans_rotate_like_the_formula(self, dtype):
        """The packed rotation forms the same products and sums as the
        formula, so ``-0.0``, ``±inf`` and NaN inputs (and the zeros, infs
        and NaNs they produce) come out with the same bits, also in place."""
        rng = np.random.default_rng(2)
        specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1.5, -0.0, -np.inf])
        x = rng.normal(size=(24, 3, 8))
        x[:, 0] = rng.choice(specials, size=(24, 8))
        x[:, 1, :4] = specials[:4]
        x = x.astype(dtype)
        positions = np.concatenate([np.zeros(4, np.int64), rng.integers(1, 5000, size=20)])
        rotation = rope_cos_sin(positions, 8, 10_000.0, dtype)
        with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 give NaN
            expected = _apply_rope(x, positions, 10_000.0)
            assert np.isnan(expected).any() and np.signbit(expected[expected == 0]).any()
            _assert_bits_equal(rotate(x, rotation), expected)
            _assert_bits_equal(rotate(x, rotation, out=x), expected)

    def test_rows_of_a_pair_are_the_pair_of_those_rows(self):
        """Selective layers rotate by the fused input's pair at the selected
        rows; that equals the pair of the selected positions alone."""
        rng = np.random.default_rng(0)
        positions = np.arange(300)
        selected = np.sort(rng.choice(300, size=41, replace=False))
        full = rope_cos_sin(positions, 128, 1e6, np.float32)
        alone = rope_cos_sin(positions[selected], 128, 1e6, np.float32)
        for rows, own in zip(full, alone):
            np.testing.assert_array_equal(rows[selected], own)

    def test_float16_keys_rotate_like_their_float32_upcast(self):
        """The loader rotates stored float16 keys without up-casting them
        first; the products run in the float32 rotation's dtype, and a
        float16 result is the float32 one rounded once."""
        rng = np.random.default_rng(1)
        keys = rng.normal(size=(32, 2, 16)).astype(np.float16)
        keys[0, 0, :3] = [-0.0, np.inf, np.nan]
        deltas = rng.integers(-500, 500, size=32)
        rotation = rope_cos_sin(deltas, 16, 10_000.0, np.float32)
        with np.errstate(invalid="ignore"):  # the inf key meets inf - inf
            expected = _apply_rope(keys.astype(np.float32), deltas, 1e4)
            out = np.zeros((32, 2, 16), dtype=np.float32)
            rotate(keys, rotation, out=out)
            _assert_bits_equal(out, expected)
            _assert_bits_equal(rotate(keys, rotation), expected.astype(np.float16))
            _assert_bits_equal(rotate(keys, rotation, out=keys), expected.astype(np.float16))

    def test_row_count_mismatch_rejected(self):
        rotation = rope_cos_sin(np.arange(3), 8)
        with pytest.raises(ValueError, match="rows"):
            rotate(np.zeros((4, 1, 8), dtype=np.float32), rotation)

    def test_model_rotation_reads_rows_of_a_growing_table(self):
        """``TransformerModel.rotation`` reads its rows from a table that
        doubles past its first size; every row equals ``rope_cos_sin`` of its
        position, before and after the table grows."""
        model = TransformerModel(get_config("tiny"), seed=0)
        cfg = model.config
        first = transformer_module._ROPE_TABLE_ROWS
        rng = np.random.default_rng(3)
        below = rng.integers(0, first, size=50)
        past = np.array([0, first - 1, first, 3 * first + 5, 17, first + 1])
        # 3 * first + 5 doubles the table twice; later calls fit in it.
        calls = [
            (below, first),
            (past, 4 * first),
            (below, 4 * first),
            (np.arange(4 * first), 4 * first),
        ]
        for positions, table_rows in calls:
            got = model.rotation(positions)
            want = rope_cos_sin(positions, cfg.head_dim, cfg.rope_theta, cfg.np_dtype)
            _assert_bits_equal(got.cos_sin, want.cos_sin)
            _assert_bits_equal(got.sin_cos, want.sin_cos)
            assert len(model._rope_table.cos_sin) == table_rows

    def test_negative_position_rejected(self, model):
        with pytest.raises(ValueError, match="non-negative"):
            model.rotation(np.array([3, -1, 5]))


def _shuffled_chunk(model: TransformerModel, start_position: int, seed: int) -> KVCache:
    """A chunk stored at shuffled positions, so its re-alignment deltas vary."""
    rng = np.random.default_rng(seed)
    cache = model.chunk_prefill(
        rng.integers(4, model.config.vocab_size, size=12), start_position=start_position
    )
    order = rng.permutation(cache.n_tokens)
    return KVCache(
        [LayerKV(layer.keys[order], layer.values[order]) for layer in cache.layers],
        cache.token_ids[order],
        cache.positions[order],
    )


class TestRealignment:
    @pytest.mark.parametrize("offset", [7, 0])
    def test_placed_keys_are_the_one_call_shift_by_the_delta(self, model, offset):
        cache = _shuffled_chunk(model, 3, seed=2)
        delta = np.arange(offset, offset + cache.n_tokens) - cache.positions
        assert (delta > 0).any() and (delta < 0).any()
        total = offset + cache.n_tokens
        layout = FusionLayout(np.zeros(total, np.int64), np.arange(total), total, (offset,))
        realigned = KVFusor(model).realignment([cache], layout, np.float32)
        for layer_idx, layer in enumerate(cache.layers):
            kv = np.zeros((2, total, *layer.keys.shape[1:]), np.float32)
            placed = assemble_reused_layer(kv, [cache], layer_idx, layout, realigned)
            expected = _apply_rope(layer.keys, delta, model.config.rope_theta)
            np.testing.assert_array_equal(placed.keys[offset:], expected)
            np.testing.assert_array_equal(placed.values[offset:], layer.values)

    @pytest.mark.parametrize("precision", ["float32", "float16", "int8", "mixed"])
    def test_loader_buffers_match_up_cast_then_shift(self, model, precision):
        """The executor decodes each stored layer into the fused buffer with
        the plan's rotation; the reference up-casts every chunk-layer to a
        float32 ``LayerKV`` first and shifts it with one-call RoPE."""
        caches = [
            model.chunk_prefill(np.arange(5, 21)),  # already at its offset
            _shuffled_chunk(model, 3, seed=4),
            model.chunk_prefill(np.arange(30, 40), start_position=900),
        ]
        blobs = [KVBlob(serialize_kv(cache, precision)) for cache in caches]
        executor = PipelinedExecutor(model, precision=precision, layer_load_time=0.0)
        plan = executor._plan_request(blobs, np.arange(4, 10), None)
        # The first chunk is in place; the other two form one re-aligned run.
        spans = [(start, stop) for start, stop, _ in plan.realigned]
        assert spans == [(16, plan.layout.suffix_start)]
        for layer_idx in range(model.config.n_layers):
            expected_keys = np.zeros((plan.layout.n_tokens, 4, 16), dtype=np.float32)
            expected_values = np.zeros_like(expected_keys)
            for blob, offset in zip(blobs, plan.layout.chunk_offsets):
                layer = LayerKV(*blob.layer(layer_idx))
                target = np.arange(offset, offset + blob.n_tokens)
                keys = layer.keys
                if not np.array_equal(blob.positions, target):
                    keys = _apply_rope(keys, target - blob.positions, model.config.rope_theta)
                expected_keys[offset : offset + blob.n_tokens] = keys
                expected_values[offset : offset + blob.n_tokens] = layer.values
            got = executor._decode_layer(plan, layer_idx)
            np.testing.assert_array_equal(got.keys, expected_keys)
            np.testing.assert_array_equal(got.values, expected_values)


class TestForwardRotation:
    """Prefill and selective layers rotate by the forward pass's one pair."""

    def test_full_prefill_matches_rope_per_layer(self, model):
        rng = np.random.default_rng(5)
        token_ids = rng.integers(4, model.config.vocab_size, size=21)
        positions = np.arange(100, 121)
        result = model.full_prefill(token_ids, positions=positions, query_window=4)
        hidden = model.embed(token_ids)
        for layer_idx, layer in enumerate(result.kv_cache.layers):
            q, k, v = _project(model, layer_idx, hidden, positions)
            np.testing.assert_array_equal(layer.keys, k)
            np.testing.assert_array_equal(layer.values, v)
            attn = full_attention(q, k, v, positions, query_window=4)
            np.testing.assert_array_equal(
                result.forward_attention[layer_idx], attn.forward_attention
            )
            hidden = _finish(model, layer_idx, hidden, attn.context)
        np.testing.assert_array_equal(result.final_hidden, hidden)

    @pytest.mark.parametrize("layer_idx", [1, 7])
    def test_selective_layer_rotates_selected_rows_by_their_positions(self, model, layer_idx):
        cfg = model.config
        rng = np.random.default_rng(layer_idx)
        n_tokens = 40
        positions = np.arange(n_tokens)
        selected = np.sort(rng.choice(n_tokens - 1, size=11, replace=False))
        selected = np.append(selected, n_tokens - 1)
        hidden = rng.normal(size=(selected.size, cfg.hidden_size)).astype(np.float32)
        shape = (n_tokens, cfg.n_kv_heads, cfg.head_dim)
        reused = LayerKV(
            rng.normal(size=shape).astype(np.float32), rng.normal(size=shape).astype(np.float32)
        )
        q, k, v = _project(model, layer_idx, hidden, positions[selected])
        keys, values = reused.keys.copy(), reused.values.copy()
        keys[selected], values[selected] = k, v
        attn = selective_attention(q, keys, values, selected, positions, query_window=6)
        out = model.layer_selective(
            layer_idx, hidden, selected, positions, reused, model.rotation(positions),
            query_window=6, in_place=True,
        )
        np.testing.assert_array_equal(out.new_keys, k)
        np.testing.assert_array_equal(out.merged_kv.keys, keys)
        np.testing.assert_array_equal(out.merged_kv.values, values)
        np.testing.assert_array_equal(out.forward_attention, attn.forward_attention)
        np.testing.assert_array_equal(
            out.hidden_selected, _finish(model, layer_idx, hidden, attn.context)
        )


# ----------------------------------------------------------------------
# Layer primitives
# ----------------------------------------------------------------------
class TestPrimitives:
    @DTYPES
    @pytest.mark.parametrize("seed", range(3))
    def test_rms_norm_matches_the_mean_form(self, dtype, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 40)), int(rng.choice([1, 3, 128, 256])))
        scale = 10.0 ** rng.uniform(-4, 4, size=(shape[0], 1))
        x = (rng.normal(size=shape) * scale).astype(dtype)
        weight = rng.normal(size=shape[1]).astype(dtype)
        np.testing.assert_array_equal(rms_norm(x, weight), _rms_norm(x, weight))
        np.testing.assert_array_equal(rms_norm(x[0], weight), _rms_norm(x[0], weight))

    @DTYPES
    @pytest.mark.parametrize("axis", [-1, 0])
    def test_softmax_matches_the_max_sum_form(self, dtype, axis):
        rng = np.random.default_rng(7)
        scores = (rng.normal(size=(3, 2, 9, 17)) * 30.0).astype(dtype)
        scores[..., 5:9] = dtype(-1e30)  # masked rows, as attention writes them
        before = scores.copy()
        np.testing.assert_array_equal(softmax(scores, axis=axis), _softmax(scores, axis=axis))
        np.testing.assert_array_equal(scores, before)

    @DTYPES
    def test_softmax_in_place_equals_out_of_place(self, dtype):
        """Attention normalises its scores in place, ``softmax(scores,
        out=scores)``: the bits of a fresh buffer."""
        rng = np.random.default_rng(10)
        scores = (rng.normal(size=(3, 2, 9, 17)) * 30.0).astype(dtype)
        scores[..., 5:9] = dtype(-1e30)
        scores[0, :, 2, :16] = -np.inf  # rows with one live key
        for axis in (-1, 0):
            inputs = scores.copy()
            expected = softmax(inputs, axis=axis)
            assert softmax(inputs, axis=axis, out=inputs) is inputs
            _assert_bits_equal(inputs, expected)

    @DTYPES
    def test_softmax_of_minus_inf_equals_softmax_of_minus_1e30(self, dtype):
        """Attention masks with ``-inf``: a masked weight is ``exp(-inf) =
        0``, exactly what ``-1e30`` below the row's live maximum gives."""
        rng = np.random.default_rng(8)
        scores = (rng.normal(size=(3, 2, 9, 17)) * 30.0).astype(dtype)
        masked = np.zeros(scores.shape, dtype=bool)
        masked[..., 5:9] = True
        masked[..., 1, :16] = True  # a row with one live key
        at_inf, at_1e30 = scores.copy(), scores.copy()
        at_inf[masked] = -np.inf
        at_1e30[masked] = dtype(-1e30)
        got = softmax(at_inf)
        np.testing.assert_array_equal(got, softmax(at_1e30))
        np.testing.assert_array_equal(got, _softmax(at_inf))
        assert not got[masked].any()

    @DTYPES
    @pytest.mark.parametrize("seed", range(3))
    def test_additive_causal_mask_matches_the_copyto_mask(self, dtype, seed):
        """``scores += mask`` (0 or ``-inf``) gives the weights that writing
        ``-1e30`` over the future keys gives, for every and for selected
        query rows, with GQA."""
        rng = np.random.default_rng(seed)
        n_tokens = int(rng.integers(2, 60))
        positions = np.arange(n_tokens) + int(rng.integers(0, 50))
        queries = rng.normal(size=(n_tokens, 8, 16)).astype(dtype) * 3
        keys = rng.normal(size=(n_tokens, 4, 16)).astype(dtype) * 3
        values = rng.normal(size=(n_tokens, 4, 16)).astype(dtype)
        selected = np.sort(rng.choice(n_tokens, size=int(rng.integers(2, n_tokens + 1)), replace=False))

        def copyto_attention(rows):
            q = queries[rows].reshape(len(rows), 4, 2, 16).transpose(1, 2, 0, 3)
            scores = np.matmul(q, keys.transpose(1, 2, 0)[:, None])
            scores *= scores.dtype.type(1.0 / np.sqrt(16))
            future = positions[None, :] > positions[rows][:, None]
            np.copyto(scores, scores.dtype.type(-1e30), where=future[None, None])
            weights = _softmax(scores)
            context = np.matmul(weights, values.transpose(1, 0, 2)[:, None])
            window = np.nonzero(rows >= n_tokens - 5)[0]
            return (
                context.transpose(2, 0, 1, 3).reshape(len(rows), 8, 16),
                weights[:, :, window, :].mean(axis=(0, 1)),
            )

        full = full_attention(queries, keys, values, positions, query_window=5)
        context, window = copyto_attention(np.arange(n_tokens))
        np.testing.assert_array_equal(full.context, context)
        np.testing.assert_array_equal(full.forward_attention, window)
        part = selective_attention(
            queries[selected], keys, values, selected, positions, query_window=5
        )
        context, window = copyto_attention(selected)
        np.testing.assert_array_equal(part.context, context)
        if window.size:
            np.testing.assert_array_equal(part.forward_attention, window)

    @DTYPES
    def test_silu_matches_the_clip_form(self, dtype):
        rng = np.random.default_rng(9)
        x = (rng.normal(size=(33, 65)) * 40.0).astype(dtype)
        x[0, :6] = [60.0, -60.0, np.inf, -np.inf, np.nan, -0.0]
        before = x.copy()
        np.testing.assert_array_equal(silu(x), _silu(x))
        np.testing.assert_array_equal(x, before)


# ----------------------------------------------------------------------
# Decode steps
# ----------------------------------------------------------------------
#: Joins and steps outnumber leaves, so sessions hold several members of
#: different lengths (padded) and grow both pad axes.
_STEP_OPS = st.lists(
    st.tuples(
        st.sampled_from(["join", "join", "step", "step", "step", "leave"]),
        st.integers(0, 2**16),
    ),
    min_size=6,
    max_size=24,
)


class TestDecodeStep:
    def test_padding_marks_only_rows_past_a_members_length(self, model):
        session = model.new_decode_session(token_capacity=8, slot_capacity=2)
        for member, n_tokens in enumerate((3, 5)):
            session.join(member, model.full_prefill(np.arange(4, 4 + n_tokens)).kv_cache)
        step = session.claim_rows(np.array([7, 8]))
        np.testing.assert_array_equal(step.rows, [3, 5])
        np.testing.assert_array_equal(step.positions, [3, 5])
        np.testing.assert_array_equal(
            step.padding, np.arange(6)[None, :] >= np.array([4, 6])[:, None]
        )
        assert all(keys.shape == (2, 6, 4, 16) for keys in step.keys)
        session.leave(0)
        assert session.claim_rows(np.array([9])).padding is None

    @settings(
        derandomize=True,
        deadline=None,
        max_examples=60,
        phases=(Phase.explicit, Phase.reuse, Phase.generate),
    )
    @given(ops=_STEP_OPS)
    def test_random_sequences_match_the_per_layer_step(self, model, ops):
        """Logits and every member's session K/V equal the per-layer
        reference bit for bit after each join, step and leave."""
        hoisted = model.new_decode_session(token_capacity=4, slot_capacity=1)
        reference = model.new_decode_session(token_capacity=4, slot_capacity=1)
        joined = 0
        vocab = model.config.vocab_size
        for op, seed in ops:
            rng = np.random.default_rng(seed)
            live = list(hoisted.member_ids)
            if op == "join":
                prompt = rng.integers(4, vocab, size=int(rng.integers(1, 20)))
                cache = model.full_prefill(prompt).kv_cache
                for session in (hoisted, reference):
                    session.join(joined, cache)
                joined += 1
            elif op == "step" and live:
                tokens = rng.integers(4, vocab, size=len(live))
                np.testing.assert_array_equal(
                    model.decode_session_step(hoisted, tokens),
                    _reference_step(model, reference, tokens),
                )
            elif op == "leave" and live:
                member = live[int(rng.integers(len(live)))]
                for session in (hoisted, reference):
                    session.leave(member)
            assert hoisted.member_ids == reference.member_ids
            for member in hoisted.member_ids:
                got, want = hoisted.extract(member), reference.extract(member)
                np.testing.assert_array_equal(got.positions, want.positions)
                for a, b in zip(got.layers, want.layers):
                    np.testing.assert_array_equal(a.keys, b.keys)
                    np.testing.assert_array_equal(a.values, b.values)
