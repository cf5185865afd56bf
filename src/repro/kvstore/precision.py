"""Unified KV precision policy.

One :class:`PrecisionPolicy` governs KV precision everywhere it matters: the
engine packs each chunk at it before the chunk enters a store
(``StoreConfig.kv_dtype`` names the policy), the executor loads only chunks
packed at its own policy, and the analytic cost model prices KV traffic at
its widths.  A policy is a per-layer dtype map: every layer of a KV cache is
serialized and loaded at the dtype the policy assigns it.

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

A policy only assigns dtypes.  What a stored chunk costs is the length of
the blob :func:`~repro.kvstore.serialization.serialize_kv` packs at the
policy (int8 layers carry their scale pair, and every blob its header and
token index), and a store accounts exactly that.  The element widths below
serve the analytic cost model, which prices KV traffic per token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Element dtypes a policy may assign to a layer.
KV_ELEM_DTYPES = ("float32", "float16", "int8")

#: Bytes per KV element for each element dtype.
ELEM_BYTES = {"float32": 4, "float16": 2, "int8": 1}

#: Named policy presets resolvable by :meth:`PrecisionPolicy.get`.
PRECISION_PRESETS = ("float32", "float16", "int8", "mixed")

#: Fraction of early (deviation-sensitive) layers ``mixed`` keeps at fp16.
MIXED_FP16_FRACTION = 0.25

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
    # Element widths (analytic pricing)
    # ------------------------------------------------------------------
    def mean_elem_bytes(self, n_layers: int) -> float:
        """Average bytes per KV element across the layer map."""
        return sum(ELEM_BYTES[dtype] for dtype in self.layer_dtype_table(n_layers)) / n_layers

    def kv_bytes_per_token_per_layer(self, n_kv_heads: int, head_dim: int, n_layers: int) -> float:
        """Mean stored K+V bytes per token per layer under this policy."""
        return 2.0 * n_kv_heads * head_dim * self.mean_elem_bytes(n_layers)
