"""Transformer building blocks: RMSNorm, SwiGLU MLP and weight containers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.config import ModelConfig


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Root-mean-square layer normalisation (as in Llama/Mistral).

    Computes in the dtype of *x* (the model's compute dtype) rather than
    up-casting to float64.
    """
    x = np.asarray(x)
    scale = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)
    return x / scale * weight


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU (swish) activation, computed in a numerically stable way."""
    return x / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def swiglu(x: np.ndarray, w_gate: np.ndarray, w_up: np.ndarray, w_down: np.ndarray) -> np.ndarray:
    """SwiGLU feed-forward block ``down(silu(gate(x)) * up(x))``."""
    return (silu(x @ w_gate) * (x @ w_up)) @ w_down


def softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax.

    ``exp`` and the normalisation run in place in the fresh ``scores - max``
    buffer, so *scores* is left untouched and no other full-size temporary
    is allocated.
    """
    shifted = scores - np.max(scores, axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= np.sum(shifted, axis=axis, keepdims=True)
    return shifted


@dataclass
class LayerWeights:
    """Weights of one transformer block."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w_gate: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray
    norm_attn: np.ndarray
    norm_mlp: np.ndarray


@dataclass
class ModelWeights:
    """All weights of the model, deterministically generated from a seed."""

    embedding: np.ndarray
    layers: list[LayerWeights]
    norm_final: np.ndarray
    lm_head: np.ndarray


def init_weights(config: ModelConfig, seed: int = 0) -> ModelWeights:
    """Deterministically initialise model weights.

    Weights are drawn from a normal distribution scaled so that attention
    logits have enough variance to produce the sparse, structured attention
    patterns the CacheBlend analysis relies on (paper §4.3), while keeping
    activations numerically stable over many layers.
    """
    rng = np.random.default_rng(seed)
    d = config.hidden_size
    kv_dim = config.n_kv_heads * config.head_dim
    dtype = config.np_dtype

    def matrix(rows: int, cols: int, scale: float) -> np.ndarray:
        return rng.normal(0.0, scale, size=(rows, cols)).astype(dtype)

    attn_scale = 1.2 / np.sqrt(d)
    mlp_scale = 1.0 / np.sqrt(d)
    layers = []
    for _ in range(config.n_layers):
        layers.append(
            LayerWeights(
                wq=matrix(d, d, attn_scale),
                wk=matrix(d, kv_dim, attn_scale),
                wv=matrix(d, kv_dim, attn_scale),
                wo=matrix(d, d, attn_scale),
                w_gate=matrix(d, config.ffn_size, mlp_scale),
                w_up=matrix(d, config.ffn_size, mlp_scale),
                w_down=matrix(config.ffn_size, d, 1.0 / np.sqrt(config.ffn_size)),
                norm_attn=np.ones(d, dtype=dtype),
                norm_mlp=np.ones(d, dtype=dtype),
            )
        )
    embedding = rng.normal(0.0, 1.0, size=(config.vocab_size, d)).astype(dtype)
    lm_head = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, config.vocab_size)).astype(dtype)
    return ModelWeights(
        embedding=embedding,
        layers=layers,
        norm_final=np.ones(d, dtype=dtype),
        lm_head=lm_head,
    )
