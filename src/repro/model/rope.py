"""Rotary positional embeddings (RoPE) and positional re-alignment.

A rotation is split in two: :func:`rope_cos_sin` evaluates the cos/sin of a
set of positions, and :func:`rotate` applies them.  Each forward pass computes
its pair once and hands it to every layer: ``TransformerModel.full_prefill``
and layer 0 of ``KVFusor.fuse_layers`` for all positions (the selective
layers take its rows at the selected tokens), and
``TransformerModel.decode_session_step`` for the step's appended tokens.

CacheBlend stores chunk KV caches computed at one absolute position and later
reuses them at a different position.  Because RoPE attention scores depend only
on *relative* position (paper Appendix A), the stored keys can be re-aligned by
rotating them by the position delta: ``KVFusor.realignment`` evaluates that
rotation once per request, one pair per run of adjacent re-aligned chunks
(in the executor, on the compute thread, before the loader starts), and
``fusor.assemble_reused_layer`` applies it to every layer, in place.
"""

from __future__ import annotations

import numpy as np

#: A rotation: the ``(cos, sin)`` pair of :func:`rope_cos_sin`.
Rotation = tuple[np.ndarray, np.ndarray]


def rope_frequencies(head_dim: int, theta: float = 10_000.0) -> np.ndarray:
    """Per-pair rotation frequencies ``theta_i = theta ** (-2i/d)``."""
    if head_dim % 2 != 0:
        raise ValueError("head_dim must be even")
    exponents = np.arange(0, head_dim, 2, dtype=np.float64) / head_dim
    return theta ** (-exponents)


def rope_cos_sin(
    positions: np.ndarray,
    head_dim: int,
    theta: float = 10_000.0,
    dtype: np.dtype | type = np.float32,
) -> Rotation:
    """Cos and sin of the rotation angles of *positions*, each of shape
    ``(len(positions), 1, head_dim // 2)``.

    The angles are evaluated in float64 and then cast to *dtype*, the compute
    dtype of the tensors the pair rotates.  Rows are independent, so the rows
    of a pair computed for many positions equal the pair of those positions
    alone.
    """
    freqs = rope_frequencies(head_dim, theta)
    angles = np.asarray(positions, dtype=np.float64)[:, None] * freqs[None, :]
    return (
        np.cos(angles)[:, None, :].astype(dtype),
        np.sin(angles)[:, None, :].astype(dtype),
    )


def rotate(
    x: np.ndarray, cos: np.ndarray, sin: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Rotate *x*, shape ``(n_tokens, n_heads, head_dim)``, by a
    :func:`rope_cos_sin` pair of ``n_tokens`` rows.

    Each product runs in the dtype NumPy promotes *x* and the pair to (the
    pair's dtype for a float16 *x*), and the result is written into *out*
    (a fresh array of *x*'s shape and dtype by default), which may be *x*
    itself: both halves are computed before either is written.
    """
    if len(cos) != len(x):
        raise ValueError(f"rotation has {len(cos)} rows but x has {len(x)} tokens")
    if out is None:
        out = np.empty_like(x)
    x_even = x[..., 0::2]
    x_odd = x[..., 1::2]
    even = x_even * cos
    even -= x_odd * sin
    odd = x_even * sin
    odd += x_odd * cos
    out[..., 0::2] = even
    out[..., 1::2] = odd
    return out
