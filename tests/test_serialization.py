"""KV serialization: the checksummed RPKV5 wire format and per-layer payloads."""

import json

import numpy as np
import pytest

from repro.kvstore.precision import PRECISION_PRESETS
from repro.kvstore.serialization import (
    KVBlob,
    KVCorruptionError,
    deserialize_kv,
    dequantize_int8,
    int8_scale,
    pack_layer_kv_as,
    quantize_int8,
    serialize_kv,
    unpack_layer_kv_as,
)
from repro.model.tensors import KVCache, LayerKV


def _make_cache(n_tokens=6, n_layers=3, n_kv_heads=2, head_dim=4, seed=0) -> KVCache:
    rng = np.random.default_rng(seed)
    layers = [
        LayerKV(
            rng.normal(size=(n_tokens, n_kv_heads, head_dim)).astype(np.float32),
            rng.normal(size=(n_tokens, n_kv_heads, head_dim)).astype(np.float32),
        )
        for _ in range(n_layers)
    ]
    return KVCache(layers, np.arange(n_tokens), np.arange(3, 3 + n_tokens))


class TestDecodeInto:
    @pytest.mark.parametrize("preset", sorted(PRECISION_PRESETS))
    def test_decoding_into_a_buffer_matches_the_decoded_arrays(self, preset):
        """``KVBlob.layer(i, out=)`` writes the stored layer in one call (a
        cast copy, or one multiply by the int8 scale pair) and gives the
        float32 values the plain decode up-casts to, bit for bit."""
        cache = _make_cache(n_tokens=9, n_layers=4)
        cache.layers[1].keys[0, 0, :2] = [-0.0, 1e4]
        blob = KVBlob(serialize_kv(cache, preset))
        for layer_idx in range(cache.n_layers):
            out = np.full((2, 9, 2, 4), np.nan, dtype=np.float32)
            keys, values = blob.layer(layer_idx, out=out)
            assert np.shares_memory(keys, out) and np.shares_memory(values, out)
            want = LayerKV(*blob.layer(layer_idx))
            assert keys.tobytes() == want.keys.tobytes()
            assert values.tobytes() == want.values.tobytes()

    def test_in_memory_cache_copies_into_a_buffer(self):
        cache = _make_cache()
        out = np.zeros((2, 6, 2, 4), dtype=np.float32)
        keys, values = cache.layer(2, out=out)
        np.testing.assert_array_equal(out[0], cache.layers[2].keys)
        np.testing.assert_array_equal(out[1], cache.layers[2].values)
        assert keys.base is out and values.base is out


class TestRawFormatRoundTrip:
    def test_round_trip_preserves_structure_and_values(self):
        cache = _make_cache()
        restored = deserialize_kv(serialize_kv(cache))
        assert restored.n_layers == cache.n_layers
        assert restored.n_tokens == cache.n_tokens
        assert np.array_equal(restored.token_ids, cache.token_ids)
        assert np.array_equal(restored.positions, cache.positions)
        for layer, ref in zip(restored.layers, cache.layers):
            # The payload is fp16; values round-trip to fp16 precision.
            assert np.allclose(layer.keys, ref.keys, rtol=1e-2, atol=1e-2)
            assert np.allclose(layer.values, ref.values, rtol=1e-2, atol=1e-2)

    def test_payload_upcasts_to_float32_not_float64(self):
        restored = deserialize_kv(serialize_kv(_make_cache()))
        for layer in restored.layers:
            assert layer.keys.dtype == np.float32
            assert layer.values.dtype == np.float32

    def test_no_zip_container(self):
        """The raw payload has no np.savez zip archive inside."""
        payload = serialize_kv(_make_cache())
        assert payload.startswith(b"RPKV5\n")
        assert b"PK\x03\x04" not in payload  # zip local-file-header magic

    def test_header_describes_shapes(self):
        payload = serialize_kv(_make_cache(n_tokens=5, n_layers=2, n_kv_heads=3))
        header_len = int.from_bytes(payload[6:10], "little")
        header = json.loads(payload[10 : 10 + header_len])
        assert header["n_tokens"] == 5
        assert header["n_layers"] == 2
        assert header["n_kv_heads"] == 3
        assert header["layer_dtypes"] == ["float16", "float16"]

    @pytest.mark.parametrize(
        "cache",
        [
            KVCache([LayerKV(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)))]),
            KVCache([LayerKV(np.ones((3, 2, 4)), np.ones((3, 2, 4)))], token_ids=np.arange(3)),
            KVCache([LayerKV(np.ones((3, 2, 4)), np.ones((3, 2, 4)))], positions=np.arange(3)),
        ],
        ids=["no-index", "no-positions", "no-token-ids"],
    )
    def test_a_cache_without_one_id_and_position_per_token_is_refused(self, cache):
        # Such a blob's header would promise n_tokens index entries it does
        # not hold, and no reader could decode it.
        with pytest.raises(ValueError, match="tokens but 0"):
            serialize_kv(cache)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            deserialize_kv(b"NOTAKV\x00\x00")

    def test_non_uniform_layer_shapes_rejected(self):
        layers = [
            LayerKV(np.ones((4, 2, 4)), np.ones((4, 2, 4))),
            LayerKV(np.ones((4, 1, 8)), np.ones((4, 1, 8))),
        ]
        cache = KVCache(layers, np.arange(4), np.arange(4))
        with pytest.raises(ValueError, match="uniform layer shapes"):
            serialize_kv(cache)

    def test_unknown_kv_dtype_rejected(self):
        """A header naming a layer dtype no codec decodes is refused."""
        payload = bytearray(serialize_kv(_make_cache()))
        header_len = int.from_bytes(payload[6:10], "little")
        header = json.loads(payload[10 : 10 + header_len])
        header["layer_dtypes"][0] = "int4"
        new_header = json.dumps(header).encode("utf-8")
        rebuilt = (
            bytes(payload[:6])
            + len(new_header).to_bytes(4, "little")
            + new_header
            + bytes(payload[10 + header_len :])
        )
        with pytest.raises(ValueError, match="layer dtype"):
            deserialize_kv(rebuilt)


class TestLayerPayloads:
    def test_pack_unpack_round_trip(self):
        layer = _make_cache(n_layers=1).layers[0]
        blob = pack_layer_kv_as(layer, "float16")
        keys, values = unpack_layer_kv_as(blob, "float16", layer.n_tokens, 2, 4)
        assert keys.dtype == values.dtype == np.float16
        assert np.allclose(keys, layer.keys, rtol=1e-2, atol=1e-2)
        assert np.allclose(values, layer.values, rtol=1e-2, atol=1e-2)

    def test_blob_size_is_exactly_fp16_payload(self):
        layer = _make_cache(n_layers=1).layers[0]
        blob = pack_layer_kv_as(layer, "float16")
        assert len(blob) == 2 * layer.keys.size * 2  # K and V, 2 bytes each

    @pytest.mark.parametrize("dtype", ["float32", "float16", "int8"])
    def test_stored_layer_length_is_the_packed_payload(self, dtype):
        # The executor prices a layer's transfer at this length; it must be
        # exactly what the codec packed for that layer.
        cache = _make_cache(n_layers=2)
        stored = KVBlob(serialize_kv(cache, dtype))
        for i, layer in enumerate(cache.layers):
            assert stored.layer_nbytes(i) == len(pack_layer_kv_as(layer, dtype))


class TestInt8Format:
    def test_round_trip_within_quantisation_error(self):
        cache = _make_cache()
        restored = deserialize_kv(serialize_kv(cache, kv_dtype="int8"))
        assert restored.n_layers == cache.n_layers
        assert np.array_equal(restored.token_ids, cache.token_ids)
        assert np.array_equal(restored.positions, cache.positions)
        for layer, ref in zip(restored.layers, cache.layers):
            # Symmetric per-tensor quantisation: error bounded by scale/2.
            k_scale = float(int8_scale(ref.keys))
            v_scale = float(int8_scale(ref.values))
            assert np.abs(layer.keys - ref.keys).max() <= k_scale * 0.5 + 1e-7
            assert np.abs(layer.values - ref.values).max() <= v_scale * 0.5 + 1e-7
            assert layer.keys.dtype == np.float32

    def test_wire_matches_per_tensor_quantisation(self):
        """Each stored int8 layer decodes to its tensors quantised at their
        own per-tensor scale and dequantised again, bit for bit."""
        cache = _make_cache(seed=7)
        via_wire = deserialize_kv(serialize_kv(cache, kv_dtype="int8"))
        for restored, layer in zip(via_wire.layers, cache.layers):
            for got, original in ((restored.keys, layer.keys), (restored.values, layer.values)):
                scale = int8_scale(original)
                expected = dequantize_int8(quantize_int8(original, scale), scale)
                np.testing.assert_array_equal(got, expected)

    def test_payload_is_one_byte_per_element(self):
        cache = _make_cache(n_tokens=32)
        int8 = serialize_kv(cache, kv_dtype="int8")
        assert int8.startswith(b"RPKV5\n")
        header_len = int.from_bytes(int8[6:10], "little")
        kv_elements = sum(2 * layer.keys.size for layer in cache.layers)
        index_bytes = 2 * 8 * cache.n_tokens  # int64 token ids + positions
        scale_bytes = 8 * cache.n_layers  # one float32 (k, v) pair per layer
        assert len(int8) == 10 + header_len + index_bytes + scale_bytes + kv_elements

    def test_layer_pack_unpack_round_trip(self):
        layer = _make_cache(n_layers=1, seed=3).layers[0]
        blob = pack_layer_kv_as(layer, "int8")
        keys, _ = unpack_layer_kv_as(blob, "int8", layer.n_tokens, 2, 4)
        k_scale = float(int8_scale(layer.keys))
        assert keys.dtype == np.float32
        assert np.abs(keys - layer.keys).max() <= k_scale * 0.5 + 1e-7

    def test_all_zero_tensor_survives(self):
        layers = [LayerKV(np.zeros((4, 2, 4)), np.zeros((4, 2, 4)))]
        cache = KVCache(layers, np.arange(4), np.arange(4))
        restored = deserialize_kv(serialize_kv(cache, kv_dtype="int8"))
        assert np.all(restored.layers[0].keys == 0.0)

    def test_unknown_store_dtype_rejected(self):
        with pytest.raises(ValueError, match="kv_dtype"):
            serialize_kv(_make_cache(), kv_dtype="int4")
        with pytest.raises(ValueError, match="kv_dtype"):
            serialize_kv(_make_cache(), kv_dtype="bfloat16")


class TestChecksum:
    """blake2b payload digest and typed corruption failures."""

    def test_default_writes_v5_with_checksum_header(self):
        payload = serialize_kv(_make_cache())
        assert payload.startswith(b"RPKV5\n")
        header_len = int.from_bytes(payload[6:10], "little")
        header = json.loads(payload[10 : 10 + header_len])
        assert len(header["checksum"]) == 32  # 16-byte blake2b, hex

    @pytest.mark.parametrize("kv_dtype", ["float16", "int8"])
    def test_round_trip_both_dtypes(self, kv_dtype):
        cache = _make_cache(seed=11)
        restored = deserialize_kv(serialize_kv(cache, kv_dtype=kv_dtype))
        assert restored.n_layers == cache.n_layers
        assert np.array_equal(restored.token_ids, cache.token_ids)

    @pytest.mark.parametrize("kv_dtype", PRECISION_PRESETS)
    def test_flipped_payload_byte_raises_typed_error(self, kv_dtype):
        blob = bytearray(serialize_kv(_make_cache(), kv_dtype=kv_dtype))
        blob[-1] ^= 0xFF
        with pytest.raises(KVCorruptionError, match="checksum mismatch"):
            deserialize_kv(bytes(blob))

    def test_truncated_payload_raises_typed_error(self):
        blob = serialize_kv(_make_cache())
        with pytest.raises(KVCorruptionError):
            deserialize_kv(blob[:-8])

    def test_corruption_error_is_a_value_error(self):
        # Callers catching the historical ValueError keep working.
        assert issubclass(KVCorruptionError, ValueError)

    def test_header_tamper_detected_or_rejected(self):
        """Zeroing the checksum field makes the blob fail closed."""
        payload = bytearray(serialize_kv(_make_cache()))
        header_len = int.from_bytes(payload[6:10], "little")
        header = json.loads(payload[10 : 10 + header_len])
        header["checksum"] = "0" * len(header["checksum"])
        new_header = json.dumps(header).encode("utf-8")
        rebuilt = (
            bytes(payload[:6])
            + len(new_header).to_bytes(4, "little")
            + new_header
            + bytes(payload[10 + header_len :])
        )
        with pytest.raises(KVCorruptionError):
            deserialize_kv(rebuilt)
