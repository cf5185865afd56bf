"""KV cache serialization: the RPKV5 wire format and its per-layer codec.

KV caches are stored as float16, float32 or int8-scaled blobs, per layer as
a :class:`~repro.kvstore.precision.PrecisionPolicy` assigns.  A chunk is
packed once, with :func:`serialize_kv`, when it enters a store; the store
holds the bytes as a :class:`KVBlob` (the blob plus its parsed header), and
the pipelined executor decodes each layer straight from them into the
request's fused buffer (:meth:`KVBlob.layer` with ``out=``: one copy, or one
scaled multiply for int8).  The fault injector damages a copy of those bytes
to trip the integrity check.

The wire format is ``RPKV5``: the magic, a little-endian header length, a
JSON header (shape, a **per-layer dtype table**, index and scale dtypes,
and a blake2b digest of the payload), then the payload — token ids,
positions, and each layer's K+V packed at its own dtype (raw float32 or
float16 bytes, or an int8 (k_scale, v_scale) float32 pair followed by the
quantised bytes).  One blob can therefore mix precisions across layers.
:func:`deserialize_kv` verifies the digest before decoding and raises
:class:`KVCorruptionError` on a mismatch, so a flipped bit in a stored blob
surfaces as a typed, retryable failure instead of silently decoding garbage
KV.  Loading is a zero-copy ``np.frombuffer`` + ``reshape`` per float array
— no zip container, no pickle.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.kvstore.precision import PrecisionPolicy
from repro.model.tensors import KVCache, LayerKV

_MAGIC = b"RPKV5\n"

#: blake2b digest width of the payload checksum (hex in the header).
_CHECKSUM_BYTES = 16


class KVCorruptionError(ValueError):
    """A serialized KV payload failed its integrity check.

    Raised by :func:`deserialize_kv` when a blob's payload bytes do not
    hash to the header checksum (bit rot, a torn write, or an
    injected corruption fault).  Typed so store consumers can retry or fall
    back to recompute instead of crashing on garbage KV.
    """

#: numpy dtype of each float element dtype a layer can be stored at (the
#: paper stores KV caches in fp16).
_FLOAT_DTYPES = {"float32": np.dtype(np.float32), "float16": np.dtype(np.float16)}
_INT8_DTYPE = np.dtype(np.int8)
_SCALE_DTYPE = np.dtype(np.float32)
_IDX_DTYPE = np.dtype(np.int64)


# ----------------------------------------------------------------------
# Per-layer raw payloads (a blob's layers; the pipelined executor decodes
# them one layer at a time).
# ----------------------------------------------------------------------
def _pack_float(layer: LayerKV, dtype: np.dtype) -> bytes:
    """Raw *dtype* bytes of one layer: keys then values, C order."""
    return (
        np.ascontiguousarray(layer.keys, dtype=dtype).tobytes()
        + np.ascontiguousarray(layer.values, dtype=dtype).tobytes()
    )


def _layer_view(
    data: bytes, dtype: str, n_tokens: int, n_kv_heads: int, head_dim: int, offset: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """One stored layer's keys and values as a single zero-copy ``(2,
    n_tokens, n_kv_heads, head_dim)`` ``np.frombuffer`` view at the stored
    dtype, with the int8 ``(k_scale, v_scale)`` pair (``None`` for a float
    layer)."""
    shape = (2, n_tokens, n_kv_heads, head_dim)
    count = 2 * n_tokens * n_kv_heads * head_dim
    if dtype != "int8":
        return np.frombuffer(data, _float_dtype(dtype), count, offset).reshape(shape), None
    scales = np.frombuffer(data, dtype=_SCALE_DTYPE, count=2, offset=offset)
    offset += 2 * _SCALE_DTYPE.itemsize
    return np.frombuffer(data, _INT8_DTYPE, count, offset).reshape(shape), scales


def int8_scale(tensor: np.ndarray) -> np.float32:
    """Symmetric per-tensor int8 scale: ``max|x| / 127`` (1.0 for all-zero)."""
    peak = float(np.max(np.abs(tensor))) if tensor.size else 0.0
    return np.float32(peak / 127.0 if peak > 0.0 else 1.0)


def quantize_int8(tensor: np.ndarray, scale: np.float32) -> np.ndarray:
    """Quantise *tensor* to int8 at *scale* (round-to-nearest, clipped)."""
    quantised = np.round(np.asarray(tensor, dtype=np.float32) / scale)
    return np.clip(quantised, -127, 127).astype(_INT8_DTYPE)


def dequantize_int8(quantised: np.ndarray, scale: np.float32) -> np.ndarray:
    """Inverse of :func:`quantize_int8` (float32 compute dtype)."""
    return quantised.astype(np.float32) * np.float32(scale)


def _pack_int8(layer: LayerKV) -> bytes:
    """int8 bytes of one layer: (k_scale, v_scale) float32 pair, then the
    quantised keys and values, C order."""
    k_scale = int8_scale(layer.keys)
    v_scale = int8_scale(layer.values)
    return (
        np.array([k_scale, v_scale], dtype=_SCALE_DTYPE).tobytes()
        + quantize_int8(layer.keys, k_scale).tobytes()
        + quantize_int8(layer.values, v_scale).tobytes()
    )


def _float_dtype(dtype: str) -> np.dtype:
    try:
        return _FLOAT_DTYPES[dtype]
    except KeyError:
        raise ValueError(f"unknown layer dtype {dtype!r}") from None


def _layer_nbytes(dtype: str, elements: int) -> int:
    """Bytes :func:`pack_layer_kv_as` writes for *elements* K+V values."""
    if dtype == "int8":
        return 2 * _SCALE_DTYPE.itemsize + elements * _INT8_DTYPE.itemsize
    return elements * _float_dtype(dtype).itemsize


def pack_layer_kv_as(layer: LayerKV, dtype: str) -> bytes:
    """Pack one layer's K+V at *dtype* (``float32``/``float16``/``int8``)."""
    if dtype == "int8":
        return _pack_int8(layer)
    return _pack_float(layer, _float_dtype(dtype))


def unpack_layer_kv_as(
    data: bytes, dtype: str, n_tokens: int, n_kv_heads: int, head_dim: int,
    offset: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_layer_kv_as`: the layer's keys and values.

    ``offset`` locates the layer payload inside a larger buffer, so callers
    holding a whole-cache blob never slice (= copy) the payload bytes; float
    payloads decode to zero-copy ``np.frombuffer`` views at their stored
    dtype, and int8 payloads are dequantised to float32.
    """
    kv, scales = _layer_view(data, dtype, n_tokens, n_kv_heads, head_dim, offset)
    if scales is None:
        return kv[0], kv[1]
    return dequantize_int8(kv[0], scales[0]), dequantize_int8(kv[1], scales[1])


def _resolve_kv_dtype(kv_dtype: str | PrecisionPolicy) -> PrecisionPolicy:
    """Resolve a ``kv_dtype`` argument, naming it in the error message."""
    try:
        return PrecisionPolicy.get(kv_dtype)
    except ValueError as error:
        raise ValueError(f"unknown kv_dtype {kv_dtype!r}: {error}") from None


# ----------------------------------------------------------------------
# Whole-cache serialization
# ----------------------------------------------------------------------
def _payload_checksum(data: bytes, offset: int = 0) -> str:
    """blake2b hex digest of the payload bytes from *offset* to the end."""
    digest = hashlib.blake2b(digest_size=_CHECKSUM_BYTES)
    digest.update(memoryview(data)[offset:])
    return digest.hexdigest()


def _uniform_layer_shape(cache: KVCache) -> tuple[int, int]:
    """Validate uniform (n_kv_heads, head_dim) across layers and return it."""
    if not cache.layers:
        return 0, 0
    n_kv_heads = cache.layers[0].keys.shape[1]
    head_dim = cache.layers[0].keys.shape[2]
    for i, layer in enumerate(cache.layers):
        if layer.keys.shape[1:] != (n_kv_heads, head_dim):
            raise ValueError(
                f"layer {i} KV shape {layer.keys.shape[1:]} differs from "
                f"layer 0 ({n_kv_heads}, {head_dim}); the raw format "
                "requires uniform layer shapes"
            )
    return n_kv_heads, head_dim


def serialize_kv(cache: KVCache, kv_dtype: str | PrecisionPolicy = "float16") -> bytes:
    """Serialise *cache* into a self-describing, checksummed ``RPKV5`` blob.

    ``kv_dtype`` is a precision preset name (``"float32"``, ``"float16"``,
    ``"int8"``, ``"mixed"``) or a
    :class:`~repro.kvstore.precision.PrecisionPolicy`; each layer is packed
    at the dtype the resolved policy assigns it, and the header carries the
    full per-layer dtype table.  The blob stores one token id and one
    position per token, so *cache* must carry both.
    """
    policy = _resolve_kv_dtype(kv_dtype)
    n_kv_heads, head_dim = _uniform_layer_shape(cache)
    for name, index in (("token_ids", cache.token_ids), ("positions", cache.positions)):
        if index.size != cache.n_tokens:
            raise ValueError(
                f"cache has {cache.n_tokens} tokens but {index.size} {name}; "
                "RPKV5 stores one per token"
            )
    table = list(policy.layer_dtype_table(cache.n_layers)) if cache.layers else []
    header = {
        "n_layers": cache.n_layers,
        "n_tokens": cache.n_tokens,
        "n_kv_heads": n_kv_heads,
        "head_dim": head_dim,
        "kv_dtype": "per_layer",
        "layer_dtypes": table,
        "policy": policy.name,
        "idx_dtype": _IDX_DTYPE.name,
        "scale_dtype": _SCALE_DTYPE.name,
    }
    payload_parts = [
        np.ascontiguousarray(cache.token_ids, dtype=_IDX_DTYPE).tobytes(),
        np.ascontiguousarray(cache.positions, dtype=_IDX_DTYPE).tobytes(),
    ]
    for layer, dtype in zip(cache.layers, table):
        payload_parts.append(pack_layer_kv_as(layer, dtype))
    payload = b"".join(payload_parts)
    header["checksum"] = _payload_checksum(payload)
    header_bytes = json.dumps(header).encode("utf-8")
    return b"".join(
        [_MAGIC, len(header_bytes).to_bytes(4, "little"), header_bytes, payload]
    )


class KVBlob:
    """One ``RPKV5`` blob with its header parsed: what a chunk store holds.

    The header is parsed once, on construction; :meth:`layer` then decodes
    one layer straight from :attr:`data` at its offset, and
    :meth:`layer_nbytes` is that layer's stored payload length.  Neither
    checks the payload digest: :func:`deserialize_kv` does.
    """

    def __init__(self, data: bytes) -> None:
        if not data.startswith(_MAGIC):
            raise ValueError("not a serialized KV cache (bad magic)")
        offset = len(_MAGIC) + 4
        header_len = int.from_bytes(data[len(_MAGIC) : offset], "little")
        header = json.loads(data[offset : offset + header_len].decode("utf-8"))
        offset += header_len
        self.data = data
        self._checksum: str | None = header.get("checksum")
        self._payload_offset = offset
        self.n_tokens: int = header["n_tokens"]
        self.kv_shape: tuple[int, int] = (header["n_kv_heads"], header["head_dim"])
        self.layer_dtypes: tuple[str, ...] = tuple(header["layer_dtypes"])
        if len(self.layer_dtypes) != header["n_layers"]:
            raise ValueError(
                f"RPKV5 layer dtype table has {len(self.layer_dtypes)} entries for "
                f"{header['n_layers']} layers"
            )
        idx_dtype = np.dtype(header["idx_dtype"])
        index_bytes = self.n_tokens * idx_dtype.itemsize
        elements = 2 * self.n_tokens * self.kv_shape[0] * self.kv_shape[1]
        self._layer_offsets = [offset + 2 * index_bytes]
        for dtype in self.layer_dtypes:
            self._layer_offsets.append(self._layer_offsets[-1] + _layer_nbytes(dtype, elements))
        if self._layer_offsets[-1] != len(data):
            raise KVCorruptionError(
                f"RPKV5 blob holds {len(data)} bytes but its header describes "
                f"{self._layer_offsets[-1]} (truncated blob)"
            )
        self.token_ids = np.frombuffer(data, dtype=idx_dtype, count=self.n_tokens, offset=offset)
        self.positions = np.frombuffer(
            data, dtype=idx_dtype, count=self.n_tokens, offset=offset + index_bytes
        )

    @property
    def nbytes(self) -> int:
        """Length of the held blob: what a store accounts for this entry."""
        return len(self.data)

    @property
    def n_layers(self) -> int:
        return len(self.layer_dtypes)

    def layer_nbytes(self, layer_idx: int) -> int:
        """Stored payload bytes of one layer's K+V."""
        return self._layer_offsets[layer_idx + 1] - self._layer_offsets[layer_idx]

    def layer(
        self, layer_idx: int, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode one layer's keys and values from the held bytes: float16
        and float32 as zero-copy views, int8 dequantised to float32.

        With *out*, a float ``(2, n_tokens, n_kv_heads, head_dim)`` buffer,
        the layer is decoded into it instead, in one call — a copy (casting
        float16) or, for int8, one multiply by the ``(k_scale, v_scale)``
        pair — and its keys and values halves are returned.
        """
        args = (self.data, self.layer_dtypes[layer_idx], self.n_tokens, *self.kv_shape)
        offset = self._layer_offsets[layer_idx]
        if out is None:
            return unpack_layer_kv_as(*args, offset=offset)
        kv, scales = _layer_view(*args, offset)
        if scales is None:
            np.copyto(out, kv)
        else:
            np.multiply(kv, scales[:, None, None, None], out=out)
        return out[0], out[1]


def deserialize_kv(data: bytes) -> KVCache:
    """Inverse of :func:`serialize_kv`.

    The payload is integrity-checked first — a blake2b mismatch raises
    :class:`KVCorruptionError` before any layer is decoded.  Float payloads
    are up-cast to the float32 compute dtype by
    :class:`~repro.model.tensors.LayerKV`; int8 payloads are dequantised at
    their per-tensor scales.
    """
    blob = KVBlob(data)
    if not blob._checksum:
        raise KVCorruptionError("RPKV5 header is missing its payload checksum")
    actual = _payload_checksum(data, blob._payload_offset)
    if actual != blob._checksum:
        raise KVCorruptionError(
            f"KV payload checksum mismatch: header {blob._checksum!r} vs "
            f"payload {actual!r} (corrupted blob)"
        )
    layers = [LayerKV(*blob.layer(i)) for i in range(blob.n_layers)]
    return KVCache(layers, blob.token_ids, blob.positions)
