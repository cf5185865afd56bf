"""Grouped-query causal attention, with a selective-token recompute path.

Three entry points are provided:

* :func:`full_attention` — the standard causal attention over all tokens,
  used by full prefill and chunk prefill.
* :func:`selective_attention` — attention where only a *subset* of tokens act
  as queries (the tokens being recomputed) while the keys/values of all other
  tokens come from a reused KV cache.  This is the layer primitive behind
  CacheBlend's selective KV recompute (paper §4.2, Figure 5b).
* :func:`batched_decode_attention` — one decode query per request, batched
  across N requests whose caches may have different lengths (padded keys plus
  a length mask).  This is the layer primitive behind
  :meth:`~repro.model.transformer.TransformerModel.decode_session_step`.

The two prefill entry points return the attention weights of a trailing
"query window" (the last few tokens of the input, i.e. the user question in a
RAG prompt) so the caller can compute the paper's *forward attention matrix*
and its deviation; the decode entry point returns the bare per-request
context (no window — decode queries are single tokens).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.layers import softmax


@dataclass
class AttentionOutput:
    """Result of one attention call.

    Attributes
    ----------
    context:
        Per-query attention output of shape ``(n_queries, n_heads, head_dim)``.
    forward_attention:
        Head-averaged attention weights of the tokens inside the query window,
        shape ``(n_window, n_keys)``; ``None`` when no window was requested.
    """

    context: np.ndarray
    forward_attention: np.ndarray | None


def _attend(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    query_positions: np.ndarray,
    key_positions: np.ndarray,
    window_rows: np.ndarray | None,
) -> AttentionOutput:
    """Shared core: causal softmax attention with optional window extraction.

    GQA is handled by viewing the query heads as ``(n_kv_heads, group)`` and
    broadcasting the keys/values across the group axis, so the KV tensors are
    never materialised ``group`` times.  Both contractions are batched
    ``np.matmul`` calls over that ``(n_kv_heads, group)`` stack, which NumPy
    hands to BLAS one GEMM per pair.  Scores and the causal mask are only
    allocated for the actual query rows — ``(n_queries, n_keys)`` — never the
    full ``n_keys × n_keys``.
    """
    n_queries, n_heads, head_dim = queries.shape
    n_kv_heads = keys.shape[1]
    group = n_heads // n_kv_heads

    # (h, g, q, d) with h the KV head and g the query head within its group.
    q_grouped = queries.reshape(n_queries, n_kv_heads, group, head_dim).transpose(1, 2, 0, 3)
    # scores[h, g, q, k]: one (q, d) @ (d, k) product per (h, g); the right
    # operand is a transposed view of keys[:, h], broadcast over g.
    scores = np.matmul(q_grouped, keys.transpose(1, 2, 0)[:, None])
    scores *= scores.dtype.type(1.0 / np.sqrt(head_dim))
    mask = key_positions[None, :] > query_positions[:, None]  # (n_queries, n_keys)
    np.copyto(scores, scores.dtype.type(-1e30), where=mask[None, None, :, :])
    weights = softmax(scores, axis=-1)

    context = np.matmul(weights, values.transpose(1, 0, 2)[:, None])  # (h, g, q, d)
    context = context.transpose(2, 0, 1, 3).reshape(n_queries, n_heads, head_dim)

    forward_attention = None
    if window_rows is not None and window_rows.size:
        forward_attention = weights[:, :, window_rows, :].mean(axis=(0, 1))
    return AttentionOutput(context=context, forward_attention=forward_attention)


def full_attention(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    positions: np.ndarray,
    query_window: int = 0,
) -> AttentionOutput:
    """Causal attention where every token is a query.

    Parameters
    ----------
    queries / keys / values:
        Shapes ``(T, n_heads, d)`` and ``(T, n_kv_heads, d)``.
    positions:
        Absolute positions of the T tokens (must be non-decreasing).
    query_window:
        If positive, also return the head-averaged attention rows of the last
        ``query_window`` tokens (the forward attention matrix).
    """
    positions = np.asarray(positions)
    n_tokens = queries.shape[0]
    window_rows = None
    if query_window > 0:
        start = max(0, n_tokens - query_window)
        window_rows = np.arange(start, n_tokens)
    return _attend(queries, keys, values, positions, positions, window_rows)


def selective_attention(
    queries_selected: np.ndarray,
    keys_all: np.ndarray,
    values_all: np.ndarray,
    selected_indices: np.ndarray,
    positions: np.ndarray,
    query_window: int = 0,
) -> AttentionOutput:
    """Causal attention where only *selected_indices* act as queries.

    The keys/values cover all tokens (reused cache entries merged with freshly
    recomputed ones); only the selected tokens' outputs are produced, which is
    what makes the recompute cost proportional to the number of selected
    tokens (paper §4.2).
    """
    positions = np.asarray(positions)
    selected_indices = np.asarray(selected_indices, dtype=np.int64)
    if queries_selected.shape[0] != selected_indices.size:
        raise ValueError(
            f"{queries_selected.shape[0]} query rows but "
            f"{selected_indices.size} selected indices"
        )
    n_tokens = keys_all.shape[0]
    window_rows = None
    if query_window > 0:
        window_start = max(0, n_tokens - query_window)
        # Rows of the selected set that fall inside the trailing window.
        window_rows = np.nonzero(selected_indices >= window_start)[0]
    return _attend(
        queries_selected,
        keys_all,
        values_all,
        positions[selected_indices],
        positions,
        window_rows,
    )


def batched_decode_attention(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """One-query-per-request attention over N padded per-request caches.

    During decode the query token is *temporally* after every cached token,
    so the only causal rule is cache membership: each request attends to all
    of its ``lengths`` live rows, and only padding is masked.  Positions
    play no masking role here (they parameterise RoPE on the way in) — in
    particular, context whose embedding positions exceed the query's (legal
    after non-contiguous chunk layouts) is still attended, exactly as a
    position-sorted cache would be.

    Parameters
    ----------
    queries:
        The decode tokens' rotary-embedded queries, shape
        ``(n_requests, n_heads, head_dim)`` — one query row per request.
    keys / values:
        Per-request caches padded to a shared length, shape
        ``(n_requests, max_tokens, n_kv_heads, head_dim)``.  Rows at or past
        a request's ``lengths`` entry are padding and are masked out.
    lengths:
        Live token count of each request's cache, shape ``(n_requests,)``.

    Returns the per-request context, shape ``(n_requests, n_heads, head_dim)``.
    """
    n_requests, n_heads, head_dim = queries.shape
    n_kv_heads = keys.shape[2]
    group = n_heads // n_kv_heads

    q_grouped = queries.reshape(n_requests, n_kv_heads, group, head_dim)
    # scores[n, h, g, t]: one (g, d) @ (d, t) product per (request, KV head).
    scores = np.matmul(q_grouped, keys.transpose(0, 2, 3, 1))
    scores *= scores.dtype.type(1.0 / np.sqrt(head_dim))
    token_index = np.arange(keys.shape[1])
    padding = token_index[None, :] >= np.asarray(lengths)[:, None]
    if padding.any():
        np.copyto(scores, scores.dtype.type(-1e30), where=padding[:, None, None, :])
    weights = softmax(scores, axis=-1)
    context = np.matmul(weights, values.transpose(0, 2, 1, 3))  # (n, h, g, d)
    return context.reshape(n_requests, n_heads, head_dim)
