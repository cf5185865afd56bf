"""KV fusor: selective recompute accounting and gradual filtering."""

import numpy as np
import pytest

from repro.core.fusor import FusorConfig, KVFusor
from repro.model.config import get_config
from repro.model.transformer import TransformerModel


@pytest.fixture(scope="module")
def model() -> TransformerModel:
    return TransformerModel(get_config("tiny"), seed=0)


@pytest.fixture(scope="module")
def chunk_caches(model):
    rng = np.random.default_rng(0)
    return [
        model.chunk_prefill(
            rng.integers(4, model.config.vocab_size, size=24).astype(np.int64)
        )
        for _ in range(3)
    ]


@pytest.fixture(scope="module")
def suffix_ids():
    return np.arange(10, 18, dtype=np.int64)


class TestFusionAccounting:
    def test_layer0_fully_recomputed(self, model, chunk_caches, suffix_ids):
        fusor = KVFusor(model, FusorConfig(recompute_ratio=0.15))
        result = fusor.fuse(chunk_caches, suffix_ids)
        assert result.recompute_counts[0] == result.n_tokens

    def test_mean_recompute_fraction_tracks_ratio(self, model, chunk_caches, suffix_ids):
        """Selective layers recompute about ratio x tokens plus the suffix."""
        ratio = 0.15
        fusor = KVFusor(model, FusorConfig(recompute_ratio=ratio))
        result = fusor.fuse(chunk_caches, suffix_ids)
        n = result.n_tokens
        n_suffix = suffix_ids.size
        selective = result.recompute_counts[1:]
        lower = ratio * 0.8 * n  # schedule floor
        upper = ratio * 1.5 * n + n_suffix  # schedule boost plus forced suffix
        assert all(lower <= count <= upper for count in selective)
        # The mean includes layer 0's full recompute, so it must exceed the
        # selective-layer ratio but stay well below full prefill.
        assert ratio < result.mean_recompute_fraction < 1.0

    def test_selected_sets_shrink_across_layers(self, model, chunk_caches, suffix_ids):
        fusor = KVFusor(model, FusorConfig(recompute_ratio=0.3))
        result = fusor.fuse(chunk_caches, suffix_ids)
        counts = result.recompute_counts[1:]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_suffix_always_recomputed(self, model, chunk_caches, suffix_ids):
        fusor = KVFusor(model, FusorConfig(recompute_ratio=0.1))
        result = fusor.fuse(chunk_caches, suffix_ids)
        suffix_indices = np.arange(result.suffix_start, result.n_tokens)
        for selected in result.selected_per_layer[1:]:
            assert np.isin(suffix_indices, selected).all()

    def test_higher_ratio_recomputes_more(self, model, chunk_caches, suffix_ids):
        fusor = KVFusor(model)
        low = fusor.fuse(chunk_caches, suffix_ids, recompute_ratio=0.1)
        high = fusor.fuse(chunk_caches, suffix_ids, recompute_ratio=0.5)
        assert high.mean_recompute_fraction > low.mean_recompute_fraction

    def test_first_layer_deviation_zero_on_suffix(self, model, chunk_caches, suffix_ids):
        fusor = KVFusor(model)
        result = fusor.fuse(chunk_caches, suffix_ids)
        assert np.allclose(result.first_layer_deviation[result.suffix_start :], 0.0)

    def test_fused_cache_covers_all_tokens(self, model, chunk_caches, suffix_ids):
        fusor = KVFusor(model)
        result = fusor.fuse(chunk_caches, suffix_ids)
        n_chunk_tokens = sum(cache.n_tokens for cache in chunk_caches)
        assert result.kv_cache.n_tokens == n_chunk_tokens + suffix_ids.size
        assert result.kv_cache.n_layers == model.config.n_layers
