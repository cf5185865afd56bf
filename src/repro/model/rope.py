"""Rotary positional embeddings (RoPE) and positional re-alignment.

A rotation is split in two: :func:`rope_cos_sin` evaluates the cos/sin of a
set of positions as a :class:`Rotation`, and :func:`rotate` applies it.  A
:class:`Rotation` packs each frequency pair twice, as ``[cos, sin]`` and as
``[sin, cos]``, next to each other on a trailing axis of 2: viewing a
tensor's even/odd lanes as that same axis, one multiply by each gives all
four products, and one subtract and one add write the even and odd halves.
That is five NumPy calls where the unpacked pair takes nine, with the same
products and sums, so the same bits.

Each forward pass computes its rotation once and hands it to every layer:
``TransformerModel.full_prefill`` and layer 0 of ``KVFusor.fuse_layers`` for
all positions (the selective layers take its rows at the selected tokens),
and ``TransformerModel.decode_session_step`` for the step's appended tokens.
``TransformerModel.rotation`` reads those rows from a per-model table.

CacheBlend stores chunk KV caches computed at one absolute position and later
reuses them at a different position.  Because RoPE attention scores depend only
on *relative* position (paper Appendix A), the stored keys can be re-aligned by
rotating them by the position delta: ``KVFusor.realignment`` evaluates that
rotation once per request, one per run of adjacent re-aligned chunks (in the
executor, on the compute thread, before the loader starts), and
``fusor.assemble_reused_layer`` applies it to every layer, in place.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Rotation(NamedTuple):
    """The RoPE rotation of ``n`` positions, packed for :func:`rotate`.

    Both arrays have shape ``(n, 1, head_dim // 2, 2)``: ``cos_sin[..., 0]``
    is the cos of each frequency pair's angle and ``cos_sin[..., 1]`` its
    sin, and ``sin_cos`` holds the same two values the other way round.
    """

    cos_sin: np.ndarray
    sin_cos: np.ndarray

    def rows(self, index: np.ndarray) -> "Rotation":
        """The rotation of the positions at *index*, an index array or slice."""
        return Rotation(self.cos_sin[index], self.sin_cos[index])


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
    """The :class:`Rotation` of *positions*.

    The angles are evaluated in float64, and their cos and sin are cast to
    *dtype*, the compute dtype of the tensors the rotation rotates.  Rows
    are independent, so the rows of a rotation computed for many positions
    equal the rotation of those positions alone.
    """
    freqs = rope_frequencies(head_dim, theta)
    angles = np.asarray(positions, dtype=np.float64)[:, None, None, None] * freqs[:, None]
    cos = np.cos(angles).astype(dtype)
    sin = np.sin(angles).astype(dtype)
    return Rotation(np.concatenate([cos, sin], axis=-1), np.concatenate([sin, cos], axis=-1))


def rotate(x: np.ndarray, rotation: Rotation, out: np.ndarray | None = None) -> np.ndarray:
    """Rotate *x*, shape ``(n_tokens, n_heads, head_dim)``, by a
    :class:`Rotation` of ``n_tokens`` rows.

    Each product runs in the dtype NumPy promotes *x* and the rotation to
    (the rotation's dtype for a float16 *x*), and the result is written into
    *out* (a fresh array of *x*'s shape and dtype by default), which may be
    *x* itself: every product is computed before either half is written.
    """
    if len(rotation.cos_sin) != len(x):
        raise ValueError(
            f"rotation has {len(rotation.cos_sin)} rows but x has {len(x)} tokens"
        )
    if out is None:
        out = np.empty_like(x)
    pairs = x.reshape(x.shape[:-1] + (-1, 2))  # [..., i, :] = (x[2i], x[2i + 1])
    cos_sin = pairs * rotation.cos_sin
    sin_cos = pairs * rotation.sin_cos
    np.subtract(cos_sin[..., 0], cos_sin[..., 1], out=out[..., 0::2])
    np.add(sin_cos[..., 0], sin_cos[..., 1], out=out[..., 1::2])
    return out
