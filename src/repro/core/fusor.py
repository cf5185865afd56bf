"""The KV cache fusor: selective KV recompute over fused chunk caches.

Given the precomputed KV caches of the chunks appearing in an LLM input plus
the new suffix (the user question), the fusor produces a fused KV cache whose
forward attention matrix is close to what a full prefill would have produced,
while recomputing only a small fraction of tokens per layer:

1. re-align every chunk cache to its position in the fused input and
   concatenate them (the "full KV reuse" starting point);
2. fully recompute layer 0 and measure each token's KV deviation against the
   loaded cache;
3. on every subsequent layer, recompute only the High-KV-Deviation tokens
   (gradual filtering, paper §4.3 / Figure 9) together with the suffix tokens,
   merging the freshly computed K/V entries into the reused layer cache.

The reused KV of each layer is pulled through a *layer provider* exactly when
that layer's recompute needs it, which is what lets
:class:`~repro.core.executor.PipelinedExecutor` overlap per-layer KV loading
with the recompute of earlier layers (paper §5).  The default provider
assembles each layer on demand from the in-memory chunk caches.

Rotations are computed once and shared by every layer: each chunk's
re-alignment (:meth:`KVFusor.realignment`) when the default provider is
built, or once per request in the executor's plan, on the compute thread,
and applied to every layer by :func:`place_chunk_layer`; and the fused
input's RoPE pair, in :meth:`KVFusor.fuse_layers`, which layer 0 uses whole
and each selective layer at its selected rows.

The fusor reports per-layer forward attention matrices, recompute counts and
deviation statistics so the paper's analysis figures (6, 7, 8, 16) can be
regenerated directly from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.core.deviation import token_kv_deviation
from repro.core.hkvd import HKVDSelector
from repro.kvstore.serialization import KVBlob
from repro.model.rope import Rotation, rope_cos_sin, rotate
from repro.model.tensors import KVCache, LayerKV
from repro.model.transformer import TransformerModel


@dataclass(frozen=True)
class FusorConfig:
    """Configuration of the selective KV recompute.

    Attributes
    ----------
    recompute_ratio:
        Target fraction of tokens whose KV is recomputed per layer (the
        paper's default operating point is 0.15).
    boost / floor:
        Gradual-filtering schedule shape (first selective layer picks
        ``boost * ratio``, last picks ``floor * ratio``).
    query_window:
        Number of trailing tokens whose attention rows form the forward
        attention matrix used for deviation reporting.
    """

    recompute_ratio: float = 0.15
    boost: float = 1.5
    floor: float = 0.8
    query_window: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.recompute_ratio <= 1.0:
            raise ValueError("recompute_ratio must be in [0, 1]")
        if self.query_window < 0:
            raise ValueError("query_window must be >= 0")


@dataclass(frozen=True)
class FusionLayout:
    """Token layout of one fused input (chunks followed by the suffix).

    ``chunk_offsets[c]`` is the absolute position the ``c``-th chunk starts at
    in the fused input; chunk keys must be RoPE-shifted from their precompute
    positions to these offsets before use.
    """

    token_ids: np.ndarray
    positions: np.ndarray
    suffix_start: int
    chunk_offsets: tuple[int, ...]

    @property
    def n_tokens(self) -> int:
        return int(self.token_ids.size)


class ComputeSpanRecorder(Protocol):
    """Instrumentation hook for per-layer compute spans (used by the executor)."""

    def compute_start(self, layer_idx: int) -> None: ...

    def compute_end(self, layer_idx: int) -> None: ...


#: A layer provider returns the re-aligned, zero-padded reused KV of one layer.
#: It may block (the pipelined executor's provider waits for the background
#: load of that layer to finish).
LayerProvider = Callable[[int], LayerKV]


def place_chunk_layer(
    keys: np.ndarray,
    values: np.ndarray,
    chunk_keys: np.ndarray,
    chunk_values: np.ndarray,
    offset: int,
    rotation: Rotation | None,
) -> None:
    """Write one chunk's layer KV into padded buffers at *offset*.

    Keys are rotated by the chunk's :meth:`KVFusor.realignment` (exact under
    RoPE, paper Appendix A), straight into the buffer; values are position
    independent and copied as-is.  Stored float16 tensors are cast on the
    write, and the rotation runs in its pair's dtype.  This is the single
    definition of the re-alignment rule, shared by the in-memory provider
    below and the executor's background loader.
    """
    n = len(chunk_keys)
    if rotation is None:
        keys[offset : offset + n] = chunk_keys
    else:
        rotate(chunk_keys, *rotation, out=keys[offset : offset + n])
    values[offset : offset + n] = chunk_values


def assemble_reused_layer(
    chunk_layers: Sequence[tuple[np.ndarray, np.ndarray]],
    layout: FusionLayout,
    rotations: Sequence[Rotation | None],
    dtype: np.dtype,
) -> LayerKV:
    """Build one layer's reused KV in *dtype* from each chunk's ``(keys,
    values)`` of that layer: re-aligned chunk entries, zero-padded suffix.

    The suffix region stays zero — suffix tokens have no precomputed KV and
    are always recomputed.
    """
    kv_shape = chunk_layers[0][0].shape[1:]
    keys = np.zeros((layout.n_tokens, *kv_shape), dtype=dtype)
    values = np.zeros_like(keys)
    for (chunk_keys, chunk_values), offset, rotation in zip(
        chunk_layers, layout.chunk_offsets, rotations
    ):
        place_chunk_layer(keys, values, chunk_keys, chunk_values, offset, rotation)
    return LayerKV(keys, values)


@dataclass
class FusionResult:
    """Everything produced by one fusion pass."""

    kv_cache: KVCache
    last_logits: np.ndarray
    token_ids: np.ndarray
    positions: np.ndarray
    suffix_start: int
    forward_attention: list[np.ndarray]
    selected_per_layer: list[np.ndarray]
    recompute_counts: list[int]
    layer_deviations: list[np.ndarray] = field(default_factory=list)
    first_layer_deviation: np.ndarray | None = None

    @property
    def n_tokens(self) -> int:
        return int(self.token_ids.size)

    @property
    def mean_recompute_fraction(self) -> float:
        """Average fraction of tokens recomputed per layer (incl. layer 0)."""
        if not self.recompute_counts or self.n_tokens == 0:
            return 0.0
        return float(np.mean(self.recompute_counts) / self.n_tokens)


class KVFusor:
    """Fuses precomputed chunk KV caches via selective recompute."""

    def __init__(self, model: TransformerModel, config: FusorConfig | None = None) -> None:
        self.model = model
        self.config = config or FusorConfig()

    # ------------------------------------------------------------------
    def plan_layout(
        self, chunk_caches: Sequence[KVCache | KVBlob], suffix_token_ids: np.ndarray
    ) -> FusionLayout:
        """Validate the chunk caches (in memory or packed) and lay out the
        fused input."""
        if not chunk_caches:
            raise ValueError("fusion requires at least one chunk cache")
        suffix_token_ids = np.asarray(suffix_token_ids, dtype=np.int64)
        cfg = self.model.config
        n_layers = cfg.n_layers
        kv_shape = (cfg.n_kv_heads, cfg.head_dim)
        offsets: list[int] = []
        offset = 0
        for cache in chunk_caches:
            if cache.n_layers != n_layers:
                raise ValueError(
                    f"chunk cache has {cache.n_layers} layers; model has {n_layers}"
                )
            if cache.n_tokens == 0:
                raise ValueError("cannot fuse an empty chunk cache")
            if cache.kv_shape != kv_shape:
                raise ValueError(
                    f"chunk cache KV shape {cache.kv_shape} does not match model {kv_shape}"
                )
            offsets.append(offset)
            offset += cache.n_tokens
        suffix_start = offset
        token_ids = np.concatenate(
            [cache.token_ids for cache in chunk_caches] + [suffix_token_ids]
        )
        positions = np.arange(token_ids.size, dtype=np.int64)
        return FusionLayout(
            token_ids=token_ids,
            positions=positions,
            suffix_start=suffix_start,
            chunk_offsets=tuple(offsets),
        )

    def realignment(
        self, positions: np.ndarray, offset: int, dtype: np.dtype | type
    ) -> Rotation | None:
        """The rotation moving a chunk's keys from their stored *positions*
        to start at *offset* in the fused input: the RoPE pair of the
        position deltas, in *dtype* (the dtype the chunk's keys decode to).
        ``None`` when the chunk already sits at its stored positions."""
        target = np.arange(offset, offset + len(positions), dtype=np.int64)
        if np.array_equal(positions, target):
            return None
        cfg = self.model.config
        return rope_cos_sin(target - positions, cfg.head_dim, cfg.rope_theta, dtype)

    def default_provider(
        self, chunk_caches: list[KVCache], layout: FusionLayout
    ) -> LayerProvider:
        """Provider assembling each reused layer on demand from memory."""
        rotations = [
            self.realignment(cache.positions, offset, cache.layers[0].keys.dtype)
            for cache, offset in zip(chunk_caches, layout.chunk_offsets)
        ]
        dtype = self.model.config.np_dtype

        def provider(layer_idx: int) -> LayerKV:
            chunk_layers = [
                (cache.layers[layer_idx].keys, cache.layers[layer_idx].values)
                for cache in chunk_caches
            ]
            return assemble_reused_layer(chunk_layers, layout, rotations, dtype)

        return provider

    # ------------------------------------------------------------------
    def fuse(
        self,
        chunk_caches: list[KVCache],
        suffix_token_ids: np.ndarray,
        recompute_ratio: float | None = None,
    ) -> FusionResult:
        """Fuse *chunk_caches* followed by the new *suffix_token_ids*.

        Parameters
        ----------
        chunk_caches:
            Precomputed KV caches of the context chunks, in the order they
            appear in the LLM input.  Each must carry its token ids and the
            positions it was precomputed at.
        suffix_token_ids:
            Token ids of the new text (user question) appended after the
            chunks; they have no precomputed KV and are always recomputed.
        recompute_ratio:
            Optional override of the configured recompute ratio (used by the
            loading controller, which adapts the ratio to the storage device).
        """
        layout = self.plan_layout(chunk_caches, suffix_token_ids)
        provider = self.default_provider(chunk_caches, layout)
        return self.fuse_layers(provider, layout, recompute_ratio=recompute_ratio)

    # ------------------------------------------------------------------
    def fuse_layers(
        self,
        layer_provider: LayerProvider,
        layout: FusionLayout,
        recompute_ratio: float | None = None,
        recorder: ComputeSpanRecorder | None = None,
    ) -> FusionResult:
        """Run the selective-recompute pass, pulling reused KV per layer.

        ``layer_provider(i)`` must return layer ``i``'s re-aligned, padded
        reused KV; it is called exactly once per layer, immediately before
        that layer's recompute, so a pipelined provider can overlap loading
        with the compute of earlier layers.  The returned buffers are consumed
        (recomputed rows are scattered into them in place) and become part of
        the fused cache.  ``recorder``, when given, is notified at the start
        and end of each layer's compute span.
        """
        ratio = self.config.recompute_ratio if recompute_ratio is None else recompute_ratio
        if not 0.0 <= ratio <= 1.0:
            raise ValueError("recompute_ratio must be in [0, 1]")
        token_ids = layout.token_ids
        positions = layout.positions
        suffix_start = layout.suffix_start
        n_tokens = layout.n_tokens
        suffix_indices = np.arange(suffix_start, n_tokens, dtype=np.int64)

        selector = HKVDSelector(
            target_ratio=ratio,
            n_layers=self.model.config.n_layers,
            boost=self.config.boost,
            floor=self.config.floor,
            always_include=suffix_indices,
        )

        hidden = self.model.embed(token_ids)
        rope = self.model.rotation(positions)
        fused_layers: list[LayerKV] = []
        forward_attention: list[np.ndarray] = []
        selected_per_layer: list[np.ndarray] = []
        recompute_counts: list[int] = []
        layer_deviations: list[np.ndarray] = []

        # ---- layer 0: full recompute to seed HKVD selection -------------
        reused0 = layer_provider(0)
        if recorder is not None:
            recorder.compute_start(0)
        out0 = self.model.layer_full(
            0, hidden, positions, rope, query_window=self.config.query_window
        )
        fused_layers.append(out0.layer_kv)
        if out0.forward_attention is not None:
            forward_attention.append(out0.forward_attention)
        recompute_counts.append(n_tokens)
        selected_per_layer.append(np.arange(n_tokens, dtype=np.int64))

        deviation0 = self._deviation_against_reused(out0.layer_kv, reused0, suffix_start)
        first_layer_deviation = deviation0
        layer_deviations.append(deviation0)
        selected = selector.first_selection(deviation0)
        hidden_selected = out0.hidden[selected]
        if recorder is not None:
            recorder.compute_end(0)

        # ---- layers 1..L-1: selective recompute --------------------------
        for layer_idx in range(1, self.model.config.n_layers):
            reused = layer_provider(layer_idx)
            if recorder is not None:
                recorder.compute_start(layer_idx)
            # Snapshot the reused rows being replaced: the in-place scatter
            # below overwrites them, but the deviation metric needs them.
            prev_keys = reused.keys[selected]
            prev_values = reused.values[selected]
            out = self.model.layer_selective(
                layer_idx,
                hidden_selected,
                selected,
                positions,
                reused,
                rope,
                query_window=self.config.query_window,
                in_place=True,
            )
            fused_layers.append(out.merged_kv)
            if out.forward_attention is not None:
                forward_attention.append(out.forward_attention)
            recompute_counts.append(int(selected.size))
            selected_per_layer.append(selected)

            deviation = self._selected_deviation(
                out.new_keys,
                out.new_values,
                prev_keys,
                prev_values,
                selected,
                suffix_start,
                n_tokens,
            )
            layer_deviations.append(deviation)

            if layer_idx < self.model.config.n_layers - 1:
                next_selected = selector.next_selection(deviation)
                keep_mask = np.isin(selected, next_selected)
                hidden_selected = out.hidden_selected[keep_mask]
                selected = selected[keep_mask]
            else:
                hidden_selected = out.hidden_selected
            if recorder is not None:
                recorder.compute_end(layer_idx)

        last_logits = self._last_logits(hidden_selected, selected, n_tokens)
        kv_cache = KVCache(fused_layers, token_ids, positions)
        return FusionResult(
            kv_cache=kv_cache,
            last_logits=last_logits,
            token_ids=token_ids,
            positions=positions,
            suffix_start=suffix_start,
            forward_attention=forward_attention,
            selected_per_layer=selected_per_layer,
            recompute_counts=recompute_counts,
            layer_deviations=layer_deviations,
            first_layer_deviation=first_layer_deviation,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _deviation_against_reused(
        computed: LayerKV, reused: LayerKV, suffix_start: int
    ) -> np.ndarray:
        """Per-token deviation of the freshly computed layer vs the loaded one.

        Suffix tokens have no precomputed KV (the reused entries are zeros),
        so their deviation is not meaningful for HKVD ranking; they are forced
        to zero here and included in the recompute set explicitly instead.
        """
        deviation = token_kv_deviation(computed, reused)
        deviation[suffix_start:] = 0.0
        return deviation

    @staticmethod
    def _selected_deviation(
        new_keys: np.ndarray,
        new_values: np.ndarray,
        prev_keys: np.ndarray,
        prev_values: np.ndarray,
        selected: np.ndarray,
        suffix_start: int,
        n_tokens: int,
    ) -> np.ndarray:
        """Full-length deviation array populated only at the selected tokens.

        ``prev_keys``/``prev_values`` are the reused rows the selected tokens
        replaced (snapshotted before the in-place merge).
        """
        deviation = np.zeros(n_tokens)
        key_diff = new_keys - prev_keys
        value_diff = new_values - prev_values
        per_token = np.linalg.norm(
            key_diff.reshape(len(selected), -1), axis=1
        ) + np.linalg.norm(value_diff.reshape(len(selected), -1), axis=1)
        deviation[selected] = per_token
        deviation[suffix_start:] = 0.0
        return deviation

    def _last_logits(
        self, hidden_selected: np.ndarray, selected: np.ndarray, n_tokens: int
    ) -> np.ndarray:
        """Logits of the last input token (it is always in the selected set)."""
        last_index = n_tokens - 1
        rows = np.nonzero(np.asarray(selected) == last_index)[0]
        if rows.size == 0:
            raise RuntimeError("the last input token was not recomputed; cannot decode")
        return self.model.logits(hidden_selected[rows[0]])
