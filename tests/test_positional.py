"""Positional re-alignment of chunk KV caches (RoPE shift).

``KVFusor.realignment`` builds a chunk's re-alignment rotation once,
``fusor.place_chunk_layer`` is the one definition of the re-alignment rule,
and ``assemble_reused_layer`` lays a request's chunks out with it.
"""

import numpy as np
import pytest

from repro.core.fusor import KVFusor, assemble_reused_layer, place_chunk_layer
from repro.model.config import get_config
from repro.model.tensors import KVCache, LayerKV
from repro.model.transformer import TransformerModel


@pytest.fixture(scope="module")
def model() -> TransformerModel:
    return TransformerModel(get_config("tiny"), seed=0)


@pytest.fixture(scope="module")
def chunk_cache(model):
    token_ids = np.arange(10, 22, dtype=np.int64)
    return model.chunk_prefill(token_ids, start_position=0)


def _placed(model: TransformerModel, cache: KVCache, offset: int) -> KVCache:
    """*cache* re-aligned to start at *offset*, one layer at a time."""
    n = cache.n_tokens
    dtype = cache.layers[0].keys.dtype
    rotation = KVFusor(model).realignment(cache.positions, offset, dtype)
    layers = []
    for layer in cache.layers:
        keys = np.zeros((offset + n,) + layer.keys.shape[1:], dtype=dtype)
        values = np.zeros_like(keys)
        place_chunk_layer(keys, values, layer.keys, layer.values, offset, rotation)
        layers.append(LayerKV(keys[offset:], values[offset:]))
    return KVCache(layers, cache.token_ids, np.arange(offset, offset + n))


class TestPlaceChunkLayer:
    def test_same_offset_leaves_keys_unchanged(self, model, chunk_cache):
        assert KVFusor(model).realignment(chunk_cache.positions, 0, np.float32) is None
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
        rotations = [
            fusor.realignment(c.positions, offset, np.float32)
            for c, offset in zip([a, b], layout.chunk_offsets)
        ]
        assert rotations[0] is None and rotations[1] is not None
        layer = assemble_reused_layer(
            [(c.layers[0].keys, c.layers[0].values) for c in (a, b)],
            layout,
            rotations,
            np.float32,
        )
        b_at_5 = model.chunk_prefill(np.arange(7, dtype=np.int64), start_position=5)
        assert layer.n_tokens == 15
        assert np.array_equal(layer.keys[:5], a.layers[0].keys)
        assert np.allclose(layer.keys[5:12], b_at_5.layers[0].keys, atol=1e-5)
        assert np.array_equal(layer.values[5:12], b.layers[0].values)
        # The suffix has no precomputed KV: always recomputed, zero here.
        assert not layer.keys[12:].any() and not layer.values[12:].any()


class TestPlanLayout:
    def test_empty_chunk_cache_rejected(self, model):
        cfg = model.config
        empty = np.zeros((0, cfg.n_kv_heads, cfg.head_dim), dtype=np.float32)
        cache = KVCache([LayerKV(empty, empty) for _ in range(cfg.n_layers)])
        with pytest.raises(ValueError, match="empty chunk cache"):
            KVFusor(model).plan_layout([cache], np.arange(3, dtype=np.int64))
