"""Transformer building blocks: RMSNorm, SwiGLU MLP and weight containers.

Each layer stores its query, key and value projections side by side as one
matrix, :attr:`LayerWeights.wqkv`, so a decode step projects its rows with
one product (as vLLM's merged ``qkv_proj`` does); ``wq``, ``wk`` and ``wv``
are zero-copy column views of it, holding the bits they were drawn with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.model.config import ModelConfig


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Root-mean-square layer normalisation (as in Llama/Mistral).

    Computes in the dtype of *x* (the model's compute dtype) rather than
    up-casting to float64.  The mean square is ``np.mean``'s sum and divide
    without its Python wrapper; both round the quotient correctly, so the
    bits are the same.
    """
    x = np.asarray(x)
    scale = np.add.reduce(x * x, axis=-1, keepdims=True)
    scale /= x.shape[-1]
    scale += eps
    np.sqrt(scale, out=scale)
    return x / scale * weight


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU (swish) activation, computed in a numerically stable way.

    ``x / (1 + exp(-clip(x, -60, 60)))``, with the clip as its two bounds
    and every step after the first in one buffer.
    """
    gate = np.maximum(x, -60.0)
    np.minimum(gate, 60.0, out=gate)
    np.negative(gate, out=gate)
    np.exp(gate, out=gate)
    gate += 1.0
    return np.divide(x, gate, out=gate)


def swiglu(x: np.ndarray, w_gate: np.ndarray, w_up: np.ndarray, w_down: np.ndarray) -> np.ndarray:
    """SwiGLU feed-forward block ``down(silu(gate(x)) * up(x))``."""
    return (silu(x @ w_gate) * (x @ w_up)) @ w_down


def softmax(
    scores: np.ndarray, axis: int = -1, out: np.ndarray | None = None
) -> np.ndarray:
    """Numerically stable softmax.

    ``scores - max`` is written into *out* (a fresh buffer by default, which
    leaves *scores* untouched; *scores* itself to normalise in place), and
    ``exp`` and the normalisation run in place in it, so no other full-size
    temporary is allocated.
    """
    shifted = np.subtract(
        scores, np.maximum.reduce(scores, axis=axis, keepdims=True), out=out
    )
    np.exp(shifted, out=shifted)
    shifted /= np.add.reduce(shifted, axis=axis, keepdims=True)
    return shifted


@dataclass
class LayerWeights:
    """Weights of one transformer block.

    The query, key and value projections given are copied side by side into
    one ``(d, q_dim + 2 * kv_dim)`` matrix, :attr:`wqkv`, and ``wq``, ``wk``
    and ``wv`` then name its column blocks: zero-copy views holding the
    given bits, so the fused storage adds no bytes.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w_gate: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray
    norm_attn: np.ndarray
    norm_mlp: np.ndarray
    wqkv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.wqkv = np.concatenate([self.wq, self.wk, self.wv], axis=1)
        q_dim, kv_dim = self.wq.shape[1], self.wk.shape[1]
        self.wq = self.wqkv[:, :q_dim]
        self.wk = self.wqkv[:, q_dim : q_dim + kv_dim]
        self.wv = self.wqkv[:, q_dim + kv_dim :]


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
