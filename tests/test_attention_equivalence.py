"""Equivalence of the vectorized attention/GQA path against a naive reference.

The broadcast-GQA kernels (no ``np.repeat`` materialisation, in-place mask
fill, batched ``np.matmul`` over ``(kv_head, group)`` stacks) must match a
straightforward einsum reference up to float accumulation order.  Each case
runs in float32, the serving path's compute dtype, and in float64; both are
checked against the float64 reference computed from the same inputs, at
``atol`` 1e-5 and 1e-6 respectively.
"""

import numpy as np
import pytest

from repro.model.attention import (
    batched_decode_attention,
    full_attention,
    selective_attention,
)
from repro.model.config import get_config
from repro.model.layers import softmax
from repro.model.tensors import LayerKV
from repro.model.transformer import TransformerModel

ATOL = {np.float32: 1e-5, np.float64: 1e-6}
DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])


def _reference_attend(queries, keys, values, query_positions, key_positions, window_rows):
    """The pre-vectorization implementation: repeat KV heads, full masks."""
    n_heads = queries.shape[1]
    head_dim = queries.shape[2]
    group = n_heads // keys.shape[1]
    if group > 1:
        keys = np.repeat(keys, group, axis=1)
        values = np.repeat(values, group, axis=1)
    scores = np.einsum("qhd,khd->hqk", queries, keys) / np.sqrt(head_dim)
    mask = key_positions[None, None, :] > query_positions[None, :, None]
    scores = np.where(mask, -1e30, scores)
    weights = softmax(scores, axis=-1)
    context = np.einsum("hqk,khd->qhd", weights, values)
    forward = None
    if window_rows is not None and window_rows.size:
        forward = weights[:, window_rows, :].mean(axis=0)
    return context, forward


def _reference_decode(query, keys, values):
    """One decode query over one request's live rows: repeat KV heads, no mask."""
    n_heads, head_dim = query.shape
    group = n_heads // keys.shape[1]
    keys = np.repeat(keys, group, axis=1)
    values = np.repeat(values, group, axis=1)
    scores = np.einsum("hd,thd->ht", query, keys) / np.sqrt(head_dim)
    weights = softmax(scores, axis=-1)
    return np.einsum("ht,thd->hd", weights, values)


def _random_qkv(rng, n_tokens, n_heads, n_kv_heads, head_dim):
    q = rng.normal(size=(n_tokens, n_heads, head_dim))
    k = rng.normal(size=(n_tokens, n_kv_heads, head_dim))
    v = rng.normal(size=(n_tokens, n_kv_heads, head_dim))
    return q, k, v


def _f64(*arrays):
    return tuple(a.astype(np.float64) for a in arrays)


class TestSoftmax:
    @DTYPES
    def test_in_place_softmax_is_bitwise_the_out_of_place_formula(self, dtype):
        rng = np.random.default_rng(6)
        scores = (rng.normal(size=(3, 5, 7)) * 10.0).astype(dtype)
        scores[0, 0, 3:] = -1e30  # masked tail, as the kernels fill it
        before = scores.copy()
        shifted = scores - np.max(scores, axis=-1, keepdims=True)
        expected = np.exp(shifted) / np.sum(np.exp(shifted), axis=-1, keepdims=True)

        weights = softmax(scores, axis=-1)
        np.testing.assert_array_equal(weights, expected)
        assert weights.dtype == dtype
        np.testing.assert_array_equal(scores, before)  # the input is untouched


class TestFullAttentionEquivalence:
    @DTYPES
    @pytest.mark.parametrize(
        "n_tokens,n_heads,n_kv_heads,head_dim",
        # The last shape is the serving benchmark's: 152 tokens, 8/4 GQA heads.
        [(17, 4, 4, 8), (17, 8, 2, 8), (17, 6, 3, 8), (152, 8, 4, 16)],
    )
    def test_matches_reference(self, n_tokens, n_heads, n_kv_heads, head_dim, dtype):
        rng = np.random.default_rng(0)
        window = 5
        q, k, v = (
            a.astype(dtype) for a in _random_qkv(rng, n_tokens, n_heads, n_kv_heads, head_dim)
        )
        positions = np.arange(n_tokens)

        out = full_attention(q, k, v, positions, query_window=window)
        window_rows = np.arange(n_tokens - window, n_tokens)
        ref_context, ref_forward = _reference_attend(
            *_f64(q, k, v), positions, positions, window_rows
        )
        assert out.context.dtype == dtype
        np.testing.assert_allclose(out.context, ref_context, rtol=0, atol=ATOL[dtype])
        np.testing.assert_allclose(
            out.forward_attention, ref_forward, rtol=0, atol=ATOL[dtype]
        )

    def test_causality(self):
        """Changing a future key never changes an earlier query's output."""
        rng = np.random.default_rng(1)
        q, k, v = _random_qkv(rng, 10, 4, 2, 6)
        positions = np.arange(10)
        base = full_attention(q, k, v, positions).context
        k2, v2 = k.copy(), v.copy()
        k2[7:] += 10.0
        v2[7:] -= 5.0
        perturbed = full_attention(q, k2, v2, positions).context
        assert np.allclose(base[:7], perturbed[:7], atol=1e-6)
        assert not np.allclose(base[7:], perturbed[7:])


class TestSelectiveAttentionEquivalence:
    @DTYPES
    @pytest.mark.parametrize("n_heads,n_kv_heads", [(4, 4), (8, 2)])
    def test_matches_reference(self, n_heads, n_kv_heads, dtype):
        rng = np.random.default_rng(2)
        n_tokens, head_dim, window = 21, 8, 6
        _, k, v = _random_qkv(rng, n_tokens, n_heads, n_kv_heads, head_dim)
        selected = np.array([0, 3, 4, 11, 18, 19, 20])
        q_sel = rng.normal(size=(selected.size, n_heads, head_dim))
        q_sel, k, v = (a.astype(dtype) for a in (q_sel, k, v))
        positions = np.arange(n_tokens)

        out = selective_attention(q_sel, k, v, selected, positions, query_window=window)
        window_rows = np.nonzero(selected >= n_tokens - window)[0]
        ref_context, ref_forward = _reference_attend(
            *_f64(q_sel, k, v), positions[selected], positions, window_rows
        )
        assert out.context.dtype == dtype
        np.testing.assert_allclose(out.context, ref_context, rtol=0, atol=ATOL[dtype])
        np.testing.assert_allclose(
            out.forward_attention, ref_forward, rtol=0, atol=ATOL[dtype]
        )

    def test_selective_rows_match_full_attention(self):
        """Selecting every token degenerates to full attention."""
        rng = np.random.default_rng(3)
        n_tokens = 12
        q, k, v = _random_qkv(rng, n_tokens, 4, 2, 6)
        positions = np.arange(n_tokens)
        full = full_attention(q, k, v, positions)
        sel = selective_attention(q, k, v, np.arange(n_tokens), positions)
        assert np.allclose(full.context, sel.context, atol=1e-6)


class TestBatchedDecodeAttention:
    """Each member of a padded decode batch attends to its live rows only."""

    @DTYPES
    @pytest.mark.parametrize("n_heads,n_kv_heads", [(8, 2), (4, 4)])
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_each_member_matches_its_own_reference(self, width, n_heads, n_kv_heads, dtype):
        rng = np.random.default_rng(width)
        head_dim = 8
        # Unequal live lengths in shuffled slot order; the pad runs past the
        # longest member too.
        lengths = rng.permutation(np.arange(5, 5 + 3 * width, 3))
        max_tokens = int(lengths.max()) + 3
        queries = rng.normal(size=(width, n_heads, head_dim)).astype(dtype)
        # Every row, padding included, holds finite random values, as a
        # reused session slot does.
        keys = rng.normal(size=(width, max_tokens, n_kv_heads, head_dim)).astype(dtype)
        values = rng.normal(size=(width, max_tokens, n_kv_heads, head_dim)).astype(dtype)

        context = batched_decode_attention(queries, keys, values, lengths)
        assert context.shape == (width, n_heads, head_dim)
        assert context.dtype == dtype
        for member, length in enumerate(lengths):
            reference = _reference_decode(
                *_f64(queries[member], keys[member, :length], values[member, :length])
            )
            np.testing.assert_allclose(
                context[member], reference, rtol=0, atol=ATOL[dtype]
            )

        # New padding values change nothing: the pad never leaks.
        padding = np.arange(max_tokens)[None, :] >= lengths[:, None]
        keys[padding] = rng.normal(size=keys[padding].shape) * 100.0
        values[padding] = rng.normal(size=values[padding].shape) * 100.0
        repadded = batched_decode_attention(queries, keys, values, lengths)
        np.testing.assert_array_equal(repadded, context)


class TestLayerSelectiveInPlace:
    @pytest.fixture(scope="class")
    def model(self):
        return TransformerModel(get_config("small"), seed=0)

    def test_in_place_matches_copy_path(self, model):
        rng = np.random.default_rng(4)
        cfg = model.config
        n_tokens = 20
        selected = np.array([1, 5, 6, 13, 19])
        hidden_sel = rng.normal(size=(selected.size, cfg.hidden_size)).astype(
            cfg.np_dtype
        )
        positions = np.arange(n_tokens)

        def reused():
            r = np.random.default_rng(5)
            keys = r.normal(size=(n_tokens, cfg.n_kv_heads, cfg.head_dim))
            values = r.normal(size=(n_tokens, cfg.n_kv_heads, cfg.head_dim))
            return LayerKV(keys.astype(cfg.np_dtype), values.astype(cfg.np_dtype))

        copied = model.layer_selective(0, hidden_sel, selected, positions, reused())
        in_place_src = reused()
        in_place = model.layer_selective(
            0, hidden_sel, selected, positions, in_place_src, in_place=True
        )
        assert np.allclose(copied.hidden_selected, in_place.hidden_selected, atol=1e-6)
        assert np.allclose(copied.merged_kv.keys, in_place.merged_kv.keys, atol=1e-6)
        assert np.allclose(copied.merged_kv.values, in_place.merged_kv.values, atol=1e-6)
        # The in-place path scatters into the caller's buffers (no copy).
        assert in_place.merged_kv is in_place_src
