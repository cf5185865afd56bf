"""KV deviation and attention deviation metrics (paper §4.1).

* *KV deviation* of token ``j`` on layer ``i`` is the difference between a KV
  cache entry and the fully-recomputed reference entry,
  ``Δkv(KV_i, KV_full_i)[j]``.  CacheBlend uses it to rank tokens and pick the
  High-KV-Deviation (HKVD) tokens to recompute.
* *Attention deviation* of a layer's forward attention matrix is the L2 norm
  of its difference with the full-prefill forward attention matrix,
  ``Δattn(A_i, A_full_i)``.  It is the quantity CacheBlend tries to minimise.
"""

from __future__ import annotations

import numpy as np

from repro.model.tensors import KVCache, LayerKV


def token_kv_deviation(layer_kv: LayerKV, reference: LayerKV) -> np.ndarray:
    """Per-token KV deviation between *layer_kv* and the *reference* layer.

    Returns an array of shape ``(n_tokens,)`` where entry ``j`` is the L2 norm
    of the difference of token ``j``'s key and value vectors (flattened over
    heads), matching the paper's per-token, per-layer ``Δkv`` definition.
    """
    if layer_kv.keys.shape != reference.keys.shape:
        raise ValueError(
            f"shape mismatch: {layer_kv.keys.shape} vs {reference.keys.shape}"
        )
    key_diff = layer_kv.keys - reference.keys
    value_diff = layer_kv.values - reference.values
    n_tokens = key_diff.shape[0]
    key_norm = np.linalg.norm(key_diff.reshape(n_tokens, -1), axis=1)
    value_norm = np.linalg.norm(value_diff.reshape(n_tokens, -1), axis=1)
    return key_norm + value_norm


def kv_deviation(cache: KVCache, reference: KVCache) -> np.ndarray:
    """Per-layer, per-token KV deviation, shape ``(n_layers, n_tokens)``."""
    if cache.n_layers != reference.n_layers:
        raise ValueError("layer count mismatch between cache and reference")
    return np.stack(
        [
            token_kv_deviation(cache.layers[i], reference.layers[i])
            for i in range(cache.n_layers)
        ]
    )


def attention_deviation(
    attention: np.ndarray, reference: np.ndarray, normalise: bool = True
) -> float:
    """Attention deviation ``Δattn(A, A_full)`` between two forward matrices.

    With ``normalise=True`` (default) the L2 norm of the difference is divided
    by the L2 norm of the reference so results are comparable across models
    and context lengths (the paper's Figure 6 plots values in [0, 1]).
    """
    attention = np.asarray(attention, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if attention.shape != reference.shape:
        raise ValueError(
            f"attention shape {attention.shape} != reference shape {reference.shape}"
        )
    diff = float(np.linalg.norm(attention - reference))
    if not normalise:
        return diff
    ref_norm = float(np.linalg.norm(reference))
    if ref_norm == 0.0:
        return 0.0
    return diff / ref_norm


def mean_attention_deviation(
    attentions: list[np.ndarray], references: list[np.ndarray], normalise: bool = True
) -> float:
    """Average attention deviation across layers (as plotted in Figure 6)."""
    if len(attentions) != len(references):
        raise ValueError("layer count mismatch between attention lists")
    if not attentions:
        return 0.0
    deviations = [
        attention_deviation(a, r, normalise=normalise)
        for a, r in zip(attentions, references)
    ]
    return float(np.mean(deviations))


def layer_rank_correlation(deviation_a: np.ndarray, deviation_b: np.ndarray) -> float:
    """Spearman rank correlation of per-token deviations on two layers.

    This is the statistic of the paper's Figure 8, used to justify that HKVD
    tokens picked on one layer remain HKVD tokens on the next.
    """
    deviation_a = np.asarray(deviation_a, dtype=np.float64)
    deviation_b = np.asarray(deviation_b, dtype=np.float64)
    if deviation_a.shape != deviation_b.shape:
        raise ValueError("deviation arrays must have the same shape")
    if deviation_a.size < 2:
        raise ValueError("need at least two tokens to compute a rank correlation")
    if np.allclose(deviation_a, deviation_a[0]) or np.allclose(deviation_b, deviation_b[0]):
        return 0.0
    return float(np.corrcoef(_mean_ranks(deviation_a), _mean_ranks(deviation_b))[0, 1])


def _mean_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks of *values*, with tied values sharing their mean rank."""
    ranks = np.empty(values.size)
    ranks[np.argsort(values, kind="stable")] = np.arange(values.size)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.bincount(inverse, weights=ranks) / counts)[inverse]


def deviation_cdf(deviation: np.ndarray, n_points: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of per-token KV deviation (paper Figure 7).

    Returns ``(values, cumulative_fraction)`` suitable for plotting or for
    checking the heavy-tail property (a small fraction of tokens carries most
    of the deviation).
    """
    deviation = np.sort(np.asarray(deviation, dtype=np.float64))
    if deviation.size == 0:
        raise ValueError("deviation array is empty")
    quantiles = np.linspace(0.0, 1.0, n_points)
    values = np.quantile(deviation, quantiles)
    return values, quantiles
