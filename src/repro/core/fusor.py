"""The KV cache fusor: selective KV recompute over fused chunk caches.

Given the precomputed KV caches of the chunks appearing in an LLM input plus
the new suffix (the user question), the fusor produces a fused KV cache whose
forward attention matrix is close to what a full prefill would have produced,
while recomputing only a small fraction of tokens per layer:

1. re-align every chunk cache to its position in the fused input and
   concatenate them (the "full KV reuse" starting point);
2. fully recompute layer 0's K/V and measure each token's KV deviation
   against the loaded cache;
3. on every subsequent layer, recompute only the High-KV-Deviation tokens
   (gradual filtering, paper §4.3 / Figure 9) together with the suffix tokens,
   merging the freshly computed K/V entries into the reused layer cache.

Each layer computes and merges its K/V, ranks the tokens it recomputed, and
only then runs attention, the output projection and the MLP — for the rows
whose hidden state feeds something: the next layer's selection, the last
token on the last layer (its logits start decoding), and the rows inside the
forward-attention window.  The fused KV, the selections and the deviations
are those of running every recomputed row, bit for bit.

The reused KV of each layer is pulled through a *layer provider* exactly when
that layer's recompute needs it, which is what lets
:class:`~repro.core.executor.PipelinedExecutor` overlap per-layer KV loading
with the recompute of earlier layers (paper §5).  The default provider
assembles each layer on demand from the in-memory chunk caches.

Rotations are computed once and shared by every layer: the request's
re-alignment (:meth:`KVFusor.realignment`, one RoPE rotation per run of
adjacent re-aligned chunks) when the default provider is built, or once per
request in the executor's plan, on the compute thread, and applied to every
layer by :func:`assemble_reused_layer`; and the fused input's rotation, in
:meth:`KVFusor.fuse_layers`, which layer 0 uses whole and each selective
layer at its selected rows.

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

#: One run of adjacent re-aligned chunks in a fused input: its rows
#: ``[start, stop)`` and the RoPE rotation of their position deltas.
RealignedRows = tuple[int, int, Rotation]


def assemble_reused_layer(
    kv: np.ndarray,
    chunks: Sequence[KVCache | KVBlob],
    layer_idx: int,
    layout: FusionLayout,
    realigned: Sequence[RealignedRows],
) -> LayerKV:
    """Write one layer's reused KV into *kv*, its ``(2, n_tokens, n_kv_heads,
    head_dim)`` slice of a fused buffer, and return it as a ``LayerKV``.

    Each chunk's keys and values land at its offset in one call per chunk
    (``chunk.layer(layer_idx, out=)``: a copy, or one scaled multiply for a
    stored int8 layer); then each run of re-aligned rows has its keys
    rotated in place by one :func:`~repro.model.rope.rotate` (exact under
    RoPE, paper Appendix A).  Values are position independent.  Chunks
    already at their stored positions are copied, never rotated by a zero
    delta, which would turn ``-0.0`` into ``+0.0`` and ``inf`` into ``nan``.
    The suffix rows stay as they are, zero in a fresh buffer: suffix tokens
    have no precomputed KV and are always recomputed.  This is the single
    definition of the re-alignment rule, shared by the in-memory provider
    below and the executor's background loader.
    """
    for chunk, offset in zip(chunks, layout.chunk_offsets):
        chunk.layer(layer_idx, out=kv[:, offset : offset + chunk.n_tokens])
    keys = kv[0]
    for start, stop, rotation in realigned:
        rotate(keys[start:stop], rotation, out=keys[start:stop])
    return LayerKV(keys, kv[1])


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
        self,
        chunks: Sequence[KVCache | KVBlob],
        layout: FusionLayout,
        dtype: np.dtype | type,
    ) -> tuple[RealignedRows, ...]:
        """The rotations moving the chunks' keys from their stored positions
        to their places in *layout*: one per run of adjacent chunks that are
        not already at their stored positions, the RoPE rotation (in *dtype*,
        the fused buffer's) of the run's position deltas.  Rotation rows are
        independent, so a run's rotation equals its chunks' stacked."""
        runs: list[list] = []  # [start, stop, deltas]
        for chunk, offset in zip(chunks, layout.chunk_offsets):
            stop = offset + chunk.n_tokens
            delta = np.arange(offset, stop, dtype=np.int64) - chunk.positions
            if not delta.any():
                continue
            if runs and runs[-1][1] == offset:
                runs[-1][1] = stop
                runs[-1][2].append(delta)
            else:
                runs.append([offset, stop, [delta]])
        cfg = self.model.config
        return tuple(
            (start, stop, rope_cos_sin(np.concatenate(deltas), cfg.head_dim, cfg.rope_theta, dtype))
            for start, stop, deltas in runs
        )

    def fused_buffer(self, layout: FusionLayout) -> np.ndarray:
        """A zeroed ``(n_layers, 2, n_tokens, n_kv_heads, head_dim)`` buffer
        in the compute dtype: one request's fused KV.  Each layer's
        :func:`assemble_reused_layer` fills its slice with the reused KV and
        the recompute writes into it, so the fused cache is this buffer."""
        cfg = self.model.config
        return np.zeros(
            (cfg.n_layers, 2, layout.n_tokens, cfg.n_kv_heads, cfg.head_dim), dtype=cfg.np_dtype
        )

    def default_provider(
        self, chunk_caches: list[KVCache], layout: FusionLayout
    ) -> LayerProvider:
        """Provider assembling each reused layer on demand from memory."""
        realigned = self.realignment(chunk_caches, layout, self.model.config.np_dtype)
        kv = self.fused_buffer(layout)

        def provider(layer_idx: int) -> LayerKV:
            return assemble_reused_layer(kv[layer_idx], chunk_caches, layer_idx, layout, realigned)

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
        and become the fused cache: once ranked, layer 0's buffer takes the
        fresh K/V of every token, and a later layer's recomputed rows are
        scattered into its buffer in place.  ``recorder``, when given, is
        notified at the start and end of each layer's compute span.

        Each layer is one model call: ``layer_full`` on layer 0,
        ``layer_selective`` after it.  The call computes and merges the K/V
        of the layer's selected tokens (every token on layer 0); its
        ``continuing`` hook then ranks them on their deviation from the
        reused KV and picks the next selection, whose rows — the last token's
        on the last layer — are the ones whose attention and MLP run, with
        the rows inside the forward-attention window.
        """
        ratio = self.config.recompute_ratio if recompute_ratio is None else recompute_ratio
        if not 0.0 <= ratio <= 1.0:
            raise ValueError("recompute_ratio must be in [0, 1]")
        token_ids = layout.token_ids
        positions = layout.positions
        suffix_start = layout.suffix_start
        n_tokens = layout.n_tokens
        last_layer = self.model.config.n_layers - 1
        query_window = self.config.query_window

        selector = HKVDSelector(
            target_ratio=ratio,
            n_layers=last_layer + 1,
            boost=self.config.boost,
            floor=self.config.floor,
            always_include=np.arange(suffix_start, n_tokens, dtype=np.int64),
        )

        hidden = self.model.embed(token_ids)
        rope = self.model.rotation(positions)
        fused_layers: list[LayerKV] = []
        forward_attention: list[np.ndarray] = []
        selected_per_layer: list[np.ndarray] = []
        recompute_counts: list[int] = []
        layer_deviations: list[np.ndarray] = []

        selected = np.arange(n_tokens, dtype=np.int64)  # layer 0 recomputes every token
        for layer_idx in range(last_layer + 1):
            reused = layer_provider(layer_idx)
            if recorder is not None:
                recorder.compute_start(layer_idx)
            if layer_idx == last_layer and (not selected.size or selected[-1] != n_tokens - 1):
                raise RuntimeError("the last input token was not recomputed; cannot decode")
            # The reused rows the recompute replaces.  A selective layer
            # merges in place, so snapshot them first: the deviation needs them.
            replaced = (
                reused
                if layer_idx == 0
                else LayerKV(reused.keys[selected], reused.values[selected])
            )
            next_selected = selected

            def continuing(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
                """Rank the layer's recomputed tokens and return the rows of
                ``selected`` that feed the next layer (the logits, last)."""
                nonlocal next_selected
                if layer_idx == 0:
                    deviation = self._deviation_against_reused(
                        LayerKV(keys, values), replaced, suffix_start
                    )
                else:
                    deviation = self._selected_deviation(
                        keys, values, replaced, selected, suffix_start, n_tokens
                    )
                layer_deviations.append(deviation)
                if layer_idx == last_layer:
                    next_selected = selected[-1:]
                elif layer_idx == 0:
                    next_selected = selector.first_selection(deviation)
                else:
                    next_selected = selector.next_selection(deviation)
                return np.searchsorted(selected, next_selected)

            if layer_idx == 0:
                out = self.model.layer_full(
                    0, hidden, positions, rope, query_window=query_window, continuing=continuing
                )
                # Ranked: the reused rows are spent, so the fresh K/V take
                # their place and the fused cache stays the provider's buffers.
                np.copyto(reused.keys, out.layer_kv.keys)
                np.copyto(reused.values, out.layer_kv.values)
                fused_layers.append(reused)
                hidden = out.hidden
            else:
                out = self.model.layer_selective(
                    layer_idx,
                    hidden,
                    selected,
                    positions,
                    reused,
                    rope,
                    query_window=query_window,
                    in_place=True,
                    continuing=continuing,
                )
                fused_layers.append(out.merged_kv)
                hidden = out.hidden_selected
            if out.forward_attention is not None:
                forward_attention.append(out.forward_attention)
            recompute_counts.append(int(selected.size))
            selected_per_layer.append(selected)
            selected = next_selected
            if recorder is not None:
                recorder.compute_end(layer_idx)

        # The last layer's one continuing row is the last token's.
        last_logits = self.model.logits(hidden[0])
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
            first_layer_deviation=layer_deviations[0],
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
        replaced: LayerKV,
        selected: np.ndarray,
        suffix_start: int,
        n_tokens: int,
    ) -> np.ndarray:
        """Full-length deviation array populated only at the selected tokens.

        *replaced* holds the reused rows the selected tokens replaced
        (snapshotted before the in-place merge).
        """
        deviation = np.zeros(n_tokens)
        key_diff = new_keys - replaced.keys
        value_diff = new_values - replaced.values
        per_token = np.linalg.norm(
            key_diff.reshape(len(selected), -1), axis=1
        ) + np.linalg.norm(value_diff.reshape(len(selected), -1), axis=1)
        deviation[selected] = per_token
        deviation[suffix_start:] = 0.0
        return deviation
