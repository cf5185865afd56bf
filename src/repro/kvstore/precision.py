"""Unified KV precision policy.

One :class:`PrecisionPolicy` governs KV precision everywhere it matters:
store pricing, the store put-path and the engine's in-memory round-trip
(``StoreConfig.kv_dtype`` names the policy).  A policy is a per-layer dtype
map: every layer of a KV cache is stored, priced, serialized and loaded at
the dtype the policy assigns it, so byte accounting, eviction pressure,
load-span pricing and the serialized wire format all agree by construction.

Presets
-------
``float32``
    Every layer at 4 bytes/element (lossless for the float32 compute path).
``float16``
    Every layer at 2 bytes/element — the paper's storage dtype and this
    repo's historical default; the policy path reduces bitwise to the
    legacy ``kv_dtype="float16"`` behaviour.
``int8``
    Every layer symmetric per-tensor int8 (1 byte/element plus two float32
    scales per layer payload) — ~2x the effective store capacity of fp16.
``mixed``
    The deviation-sensitive early layers (the first
    ``ceil(MIXED_FP16_FRACTION x n_layers)``, per the paper's observation
    that early-layer KV deviations steer HKVD selection) stay float16 while
    the remaining layers drop to int8 — near-int8 density at below-int8
    deviation.

Store *accounting* (what eviction pressure and ``bytes_stored`` count) uses
pure element widths, so an entry's stored bytes are exactly proportional to
its tokens; the serialized *payload* width (what the executor's load spans
price, via :func:`layer_payload_nbytes`) additionally carries the int8
scale pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serialization)
    from repro.model.tensors import KVCache

#: Element dtypes a policy may assign to a layer.
KV_ELEM_DTYPES = ("float32", "float16", "int8")

#: In-store bytes per KV element for each element dtype.
ELEM_BYTES = {"float32": 4, "float16": 2, "int8": 1}

#: Named policy presets resolvable by :meth:`PrecisionPolicy.get`.
PRECISION_PRESETS = ("float32", "float16", "int8", "mixed")

#: Fraction of early (deviation-sensitive) layers ``mixed`` keeps at fp16.
MIXED_FP16_FRACTION = 0.25

#: Serialized overhead of one int8 layer payload: a float32 (k, v) scale pair.
INT8_SCALE_OVERHEAD = 8


def layer_payload_nbytes(
    dtype: str, n_tokens: int, n_kv_heads: int, head_dim: int
) -> int:
    """Serialized payload bytes of one layer's K+V at *dtype*.

    This is exactly what ``pack_layer_kv_as`` (and the per-layer slices of
    an ``RPKV5`` blob) produce: raw element bytes for
    the float dtypes, plus the per-tensor float32 scale pair for int8.
    """
    if dtype not in ELEM_BYTES:
        raise ValueError(f"unknown element dtype {dtype!r}; expected one of {KV_ELEM_DTYPES}")
    elements = 2 * n_tokens * n_kv_heads * head_dim
    if dtype == "int8":
        return INT8_SCALE_OVERHEAD + elements
    return elements * ELEM_BYTES[dtype]


@dataclass(frozen=True)
class PrecisionPolicy:
    """A per-layer KV storage dtype map.

    ``layer_dtypes`` pins an explicit dtype per model layer; when ``None``
    the preset named by ``name`` supplies the rule (uniform for
    ``float32``/``float16``/``int8``, early-fp16/late-int8 for ``mixed``),
    which makes one policy object valid for any layer count.
    """

    name: str = "float16"
    layer_dtypes: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.layer_dtypes is not None:
            if not self.layer_dtypes:
                raise ValueError("explicit layer_dtypes must be non-empty")
            for dtype in self.layer_dtypes:
                if dtype not in KV_ELEM_DTYPES:
                    raise ValueError(
                        f"unknown layer dtype {dtype!r}; "
                        f"expected one of {KV_ELEM_DTYPES}"
                    )
        elif self.name not in PRECISION_PRESETS:
            raise ValueError(
                f"unknown precision policy {self.name!r}; "
                f"known presets: {', '.join(PRECISION_PRESETS)}"
            )

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    @classmethod
    def get(cls, spec: "PrecisionPolicy | str | None") -> "PrecisionPolicy":
        """Resolve *spec* (policy, preset name, or ``None``) into a policy.

        ``None`` resolves to the historical default (``float16``).
        """
        if spec is None:
            return cls("float16")
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, str):
            return cls(spec)
        raise TypeError(f"cannot resolve a precision policy from {spec!r}")

    # ------------------------------------------------------------------
    # Per-layer dtype map
    # ------------------------------------------------------------------
    def dtype_for_layer(self, layer: int, n_layers: int) -> str:
        """Storage dtype of *layer* in an *n_layers*-deep model."""
        if n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if not 0 <= layer < n_layers:
            raise ValueError(f"layer {layer} out of range for {n_layers} layers")
        if self.layer_dtypes is not None:
            if len(self.layer_dtypes) != n_layers:
                raise ValueError(
                    f"policy pins {len(self.layer_dtypes)} layer dtypes but the "
                    f"model has {n_layers} layers"
                )
            return self.layer_dtypes[layer]
        if self.name == "mixed":
            n_fp16 = max(1, math.ceil(n_layers * MIXED_FP16_FRACTION))
            return "float16" if layer < n_fp16 else "int8"
        return self.name

    def layer_dtype_table(self, n_layers: int) -> tuple[str, ...]:
        """The full per-layer dtype table (what ``RPKV5`` headers carry)."""
        return tuple(self.dtype_for_layer(i, n_layers) for i in range(n_layers))

    # ------------------------------------------------------------------
    # Byte accounting
    # ------------------------------------------------------------------
    def elem_bytes_for_layer(self, layer: int, n_layers: int) -> int:
        return ELEM_BYTES[self.dtype_for_layer(layer, n_layers)]

    def mean_elem_bytes(self, n_layers: int) -> float:
        """Average in-store bytes per KV element across the layer map."""
        return sum(
            self.elem_bytes_for_layer(i, n_layers) for i in range(n_layers)
        ) / n_layers

    def kv_bytes_per_token_per_layer(self, n_kv_heads: int, head_dim: int, n_layers: int) -> float:
        """Mean stored K+V bytes per token per layer under this policy."""
        return 2.0 * n_kv_heads * head_dim * self.mean_elem_bytes(n_layers)

    def cache_nbytes(self, cache: "KVCache") -> int:
        """Stored bytes of a whole cache (element widths only).

        Element-width accounting is exactly token-proportional, so eviction
        pressure tracks resident tokens.
        """
        n_layers = cache.n_layers
        return sum(
            layer.nbytes(self.elem_bytes_for_layer(i, n_layers))
            for i, layer in enumerate(cache.layers)
        )

    def layer_payload_nbytes(
        self, layer: int, n_layers: int, n_tokens: int, n_kv_heads: int, head_dim: int
    ) -> int:
        """Serialized payload bytes of *layer* (incl. int8 scale overhead)."""
        return layer_payload_nbytes(
            self.dtype_for_layer(layer, n_layers), n_tokens, n_kv_heads, head_dim
        )
