"""KV deviation and attention deviation metrics."""

import numpy as np
import pytest

from repro.core.deviation import (
    attention_deviation,
    deviation_cdf,
    layer_rank_correlation,
    token_kv_deviation,
)
from repro.model.tensors import LayerKV


def _layer(keys: np.ndarray, values: np.ndarray) -> LayerKV:
    return LayerKV(keys, values)


class TestTokenKVDeviation:
    def test_zero_for_identical_layers(self):
        rng = np.random.default_rng(0)
        keys = rng.normal(size=(5, 2, 4))
        values = rng.normal(size=(5, 2, 4))
        deviation = token_kv_deviation(_layer(keys, values), _layer(keys, values))
        assert deviation.shape == (5,)
        assert np.allclose(deviation, 0.0)

    def test_known_value_single_token(self):
        keys = np.zeros((1, 1, 4))
        values = np.zeros((1, 1, 4))
        ref_keys = np.zeros((1, 1, 4))
        ref_keys[0, 0, 0] = 3.0
        ref_values = np.zeros((1, 1, 4))
        ref_values[0, 0, 1] = 4.0
        deviation = token_kv_deviation(
            _layer(keys, values), _layer(ref_keys, ref_values)
        )
        # L2 norm of key diff (3) plus L2 norm of value diff (4).
        assert deviation[0] == pytest.approx(7.0)

    def test_only_perturbed_token_deviates(self):
        rng = np.random.default_rng(1)
        keys = rng.normal(size=(6, 2, 4))
        values = rng.normal(size=(6, 2, 4))
        perturbed_keys = keys.copy()
        perturbed_keys[3] += 1.0
        deviation = token_kv_deviation(
            _layer(perturbed_keys, values), _layer(keys, values)
        )
        assert deviation[3] > 0.0
        mask = np.ones(6, dtype=bool)
        mask[3] = False
        assert np.allclose(deviation[mask], 0.0)

    def test_shape_mismatch_raises(self):
        a = _layer(np.zeros((3, 2, 4)), np.zeros((3, 2, 4)))
        b = _layer(np.zeros((4, 2, 4)), np.zeros((4, 2, 4)))
        with pytest.raises(ValueError):
            token_kv_deviation(a, b)


class TestAttentionDeviation:
    def test_zero_for_identical_matrices(self):
        a = np.random.default_rng(0).random((4, 10))
        assert attention_deviation(a, a) == pytest.approx(0.0)

    def test_normalised_by_reference_norm(self):
        reference = np.eye(4)
        attention = 2.0 * np.eye(4)
        raw = attention_deviation(attention, reference, normalise=False)
        normalised = attention_deviation(attention, reference, normalise=True)
        assert raw == pytest.approx(2.0)
        assert normalised == pytest.approx(1.0)

    def test_rank_correlation_of_identical_rankings(self):
        deviation = np.array([0.1, 3.0, 0.5, 2.0])
        assert layer_rank_correlation(deviation, 2 * deviation) == pytest.approx(1.0)

    def test_rank_correlation_of_reversed_rankings(self):
        deviation = np.array([1.0, 2.0, 3.0, 4.0])
        assert layer_rank_correlation(deviation, deviation[::-1]) == pytest.approx(-1.0)

    def test_rank_correlation_gives_ties_their_mean_rank(self):
        # Ranks [1, 2.5, 2.5, 4] vs [1, 2, 3, 4]: r = 4.5 / sqrt(4.5 * 5).
        tied = np.array([1.0, 2.0, 2.0, 3.0])
        assert layer_rank_correlation(tied, np.array([10.0, 20.0, 30.0, 40.0])) == (
            pytest.approx(3.0 / np.sqrt(10.0), abs=1e-12)
        )
        # Ties apart in the input: ranks [3.5, 1, 3.5, 2] vs [1, 2, 3, 4].
        scattered = np.array([3.0, 1.0, 3.0, 2.0])
        assert layer_rank_correlation(scattered, np.arange(4.0)) == (
            pytest.approx(-1.0 / np.sqrt(22.5), abs=1e-12)
        )
        # Ties on both sides: ranks [1.5, 1.5, 3, 4] vs [4, 1.5, 1.5, 3].
        assert layer_rank_correlation(
            np.array([1.0, 1.0, 2.0, 3.0]), np.array([3.0, 1.0, 1.0, 2.0])
        ) == pytest.approx(-1.0 / 18.0, abs=1e-12)


    def test_rank_correlation_matches_the_spearman_formula_without_ties(self):
        # Rank differences d = [-1, 1, -1, 1, 0]: 1 - 6 * 4 / (5 * (25 - 1)) = 0.8.
        ranked = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        swapped = np.array([0.2, 0.1, 0.4, 0.3, 0.5])
        assert layer_rank_correlation(ranked, swapped) == pytest.approx(0.8, abs=1e-12)

    def test_rank_correlation_sees_only_the_order(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=40)
        b = a + rng.normal(scale=0.8, size=40)
        rho = layer_rank_correlation(a, b)
        assert 0.0 < rho < 1.0
        # Strictly increasing transforms keep every rank; the statistic is symmetric.
        assert layer_rank_correlation(np.exp(a), 10.0 * b**3 + 3.0) == pytest.approx(
            rho, abs=1e-12
        )
        assert layer_rank_correlation(b, a) == pytest.approx(rho, abs=1e-12)


class TestLayerRankCorrelationEdgeCases:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="same shape"):
            layer_rank_correlation(np.ones(4), np.ones(5))

    def test_fewer_than_two_tokens_raises(self):
        with pytest.raises(ValueError, match="at least two"):
            layer_rank_correlation(np.ones(1), np.ones(1))

    def test_constant_input_returns_zero(self):
        constant = np.full(6, 0.25)
        varying = np.arange(6, dtype=np.float64)
        assert layer_rank_correlation(constant, varying) == 0.0
        assert layer_rank_correlation(varying, constant) == 0.0


class TestDeviationCDF:
    def test_shapes_and_quantile_range(self):
        rng = np.random.default_rng(0)
        values, quantiles = deviation_cdf(rng.random(100), n_points=25)
        assert values.shape == (25,)
        assert quantiles.shape == (25,)
        assert quantiles[0] == 0.0
        assert quantiles[-1] == 1.0

    def test_values_are_monotone_and_span_the_sample(self):
        deviation = np.array([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
        values, _ = deviation_cdf(deviation)
        assert np.all(np.diff(values) >= 0.0)
        assert values[0] == pytest.approx(deviation.min())
        assert values[-1] == pytest.approx(deviation.max())

    def test_heavy_tail_is_visible(self):
        # 90% tiny deviations, 10% large: the CDF median sits near zero
        # while the top decile carries the mass (the paper's Figure 7 shape).
        deviation = np.concatenate([np.full(90, 0.01), np.full(10, 1.0)])
        values, quantiles = deviation_cdf(deviation, n_points=101)
        assert values[np.searchsorted(quantiles, 0.5)] == pytest.approx(0.01)
        assert values[-1] == pytest.approx(1.0)

    def test_empty_input_raises(self):
        with pytest.raises(ValueError, match="empty"):
            deviation_cdf(np.array([]))
