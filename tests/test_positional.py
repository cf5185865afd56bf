"""Positional re-alignment of chunk KV caches (RoPE shift).

``KVFusor.realignment`` builds a request's re-alignment rotations once, one
per run of adjacent re-aligned chunks, and ``assemble_reused_layer`` is the
one definition of the re-alignment rule: it lays a request's chunks out and
rotates each run's keys in place.
"""

import numpy as np
import pytest

from repro.core.fusor import FusionLayout, KVFusor, assemble_reused_layer
from repro.model.config import get_config
from repro.model.rope import rope_cos_sin
from repro.model.tensors import KVCache, LayerKV
from repro.model.transformer import TransformerModel


@pytest.fixture(scope="module")
def model() -> TransformerModel:
    return TransformerModel(get_config("tiny"), seed=0)


@pytest.fixture(scope="module")
def chunk_cache(model):
    token_ids = np.arange(10, 22, dtype=np.int64)
    return model.chunk_prefill(token_ids, start_position=0)


def _layout(offset: int, n_tokens: int) -> FusionLayout:
    """One chunk of *n_tokens* at *offset*, no suffix."""
    total = offset + n_tokens
    return FusionLayout(np.zeros(total, np.int64), np.arange(total), total, (offset,))


def _placed(model: TransformerModel, cache: KVCache, offset: int) -> KVCache:
    """*cache* re-aligned to start at *offset*, one layer at a time."""
    n = cache.n_tokens
    dtype = cache.layers[0].keys.dtype
    layout = _layout(offset, n)
    realigned = KVFusor(model).realignment([cache], layout, dtype)
    layers = []
    for layer_idx in range(cache.n_layers):
        kv = np.zeros((2, offset + n, *cache.kv_shape), dtype=dtype)
        layer = assemble_reused_layer(kv, [cache], layer_idx, layout, realigned)
        layers.append(LayerKV(layer.keys[offset:], layer.values[offset:]))
    return KVCache(layers, cache.token_ids, np.arange(offset, offset + n))


class TestRealignChunk:
    def test_same_offset_leaves_keys_unchanged(self, model, chunk_cache):
        layout = _layout(0, chunk_cache.n_tokens)
        assert KVFusor(model).realignment([chunk_cache], layout, np.float32) == ()
        placed = _placed(model, chunk_cache, 0)
        for layer, ref in zip(placed.layers, chunk_cache.layers):
            assert np.array_equal(layer.keys, ref.keys)
            assert np.array_equal(layer.values, ref.values)

    def test_shift_rotates_keys_and_leaves_values_untouched(self, model, chunk_cache):
        placed = _placed(model, chunk_cache, 7)
        for layer, ref in zip(placed.layers, chunk_cache.layers):
            assert np.array_equal(layer.values, ref.values)
            assert not np.allclose(layer.keys, ref.keys)

    def test_matches_direct_prefill_at_offset(self, model, chunk_cache):
        """Re-aligned keys equal the keys of prefilling at the new offset.

        The paper's Appendix A argument: rotating stored keys by the position
        delta is an exact correction, because only the key projection input
        (not the rotation) depends on absolute position.
        """
        offset = 5
        direct = model.chunk_prefill(chunk_cache.token_ids, start_position=offset)
        placed = _placed(model, chunk_cache, offset)
        # The compute path runs in float32; the correction is exact up to
        # fp32 rounding of the stored keys.
        for layer, ref in zip(placed.layers, direct.layers):
            assert np.allclose(layer.keys, ref.keys, atol=1e-5)

    def test_shifts_compose(self, model, chunk_cache):
        via_two_steps = _placed(model, _placed(model, chunk_cache, 3), 9)
        direct = _placed(model, chunk_cache, 9)
        for layer, ref in zip(via_two_steps.layers, direct.layers):
            assert np.allclose(layer.keys, ref.keys, atol=1e-5)


class TestAssembleReusedLayer:
    def test_chunks_are_laid_out_contiguously(self, model):
        fusor = KVFusor(model)
        a = model.chunk_prefill(np.arange(5, dtype=np.int64))
        b = model.chunk_prefill(np.arange(7, dtype=np.int64))
        suffix = np.arange(3, dtype=np.int64)
        layout = fusor.plan_layout([a, b], suffix)
        assert layout.chunk_offsets == (0, 5)
        assert layout.suffix_start == 12
        realigned = fusor.realignment([a, b], layout, np.float32)
        assert [(start, stop) for start, stop, _ in realigned] == [(5, 12)]
        layer = assemble_reused_layer(
            fusor.fused_buffer(layout)[0], [a, b], 0, layout, realigned
        )
        b_at_5 = model.chunk_prefill(np.arange(7, dtype=np.int64), start_position=5)
        assert layer.n_tokens == 15
        assert np.array_equal(layer.keys[:5], a.layers[0].keys)
        assert np.allclose(layer.keys[5:12], b_at_5.layers[0].keys, atol=1e-5)
        assert np.array_equal(layer.values[5:12], b.layers[0].values)
        # The suffix has no precomputed KV: always recomputed, zero here.
        assert not layer.keys[12:].any() and not layer.values[12:].any()

    def test_adjacent_realigned_chunks_share_one_rotation(self, model):
        """One rotation per run of adjacent re-aligned chunks; its pair is
        the runs' chunks' pairs stacked, and a chunk in place splits runs."""
        fusor = KVFusor(model)
        chunks = [
            model.chunk_prefill(np.arange(4, 9), start_position=3),
            model.chunk_prefill(np.arange(9, 12), start_position=5),  # at its offset
            model.chunk_prefill(np.arange(12, 18), start_position=0),
            model.chunk_prefill(np.arange(18, 20), start_position=40),
        ]
        layout = fusor.plan_layout(chunks, np.arange(2))
        realigned = fusor.realignment(chunks, layout, np.float32)
        assert [(start, stop) for start, stop, _ in realigned] == [(0, 5), (8, 16)]
        cfg = model.config
        deltas = np.concatenate([np.full(6, 8), np.full(2, 14 - 40)])
        for got, want in zip(
            realigned[1][2], rope_cos_sin(deltas, cfg.head_dim, cfg.rope_theta, np.float32)
        ):
            np.testing.assert_array_equal(got, want)

    def test_a_chunk_in_place_is_copied_bit_for_bit(self, model):
        """No zero-delta rotation: it would turn -0.0 into +0.0 and inf into
        nan; a chunk at its stored positions keeps its exact bits."""
        cfg = model.config
        shape = (6, cfg.n_kv_heads, cfg.head_dim)
        keys = np.random.default_rng(3).normal(size=shape).astype(np.float32)
        keys[0, 0, :4] = [-0.0, np.inf, -np.inf, -0.0]
        cache = KVCache([LayerKV(keys, keys.copy())], np.arange(6), np.arange(6))
        layout = _layout(0, 6)
        realigned = KVFusor(model).realignment([cache], layout, np.float32)
        layer = assemble_reused_layer(
            np.zeros((2, 6, *shape[1:]), np.float32), [cache], 0, layout, realigned
        )
        assert layer.keys.tobytes() == keys.tobytes()


class TestPlanLayout:
    def test_empty_chunk_cache_rejected(self, model):
        cfg = model.config
        empty = np.zeros((0, cfg.n_kv_heads, cfg.head_dim), dtype=np.float32)
        cache = KVCache([LayerKV(empty, empty) for _ in range(cfg.n_layers)])
        with pytest.raises(ValueError, match="empty chunk cache"):
            KVFusor(model).plan_layout([cache], np.arange(3, dtype=np.int64))
