"""Unified KV precision policy: per-layer dtype maps end to end.

Covers the :class:`PrecisionPolicy` map itself, the RPKV5 wire format at
every preset, int8 quantisation idempotence, store byte accounting of
blobs packed at non-fp16 widths (whole-chunk / tiered demotion), the
backend-parity regression (identical payloads must cost the same bytes and
fuse to the same KV on either backend), fp16 equivalence with the
pre-policy behaviour, and the executor's per-layer wire precision.
"""

import json

import numpy as np
import pytest

from repro.core.blend_engine import BlendEngine
from repro.core.executor import PipelinedExecutor
from repro.core.fusor import FusorConfig
from repro.kvstore.config import STORE_BACKENDS, StoreConfig
from repro.kvstore.device import get_device
from repro.kvstore.hierarchy import TieredKVStore
from repro.kvstore.precision import PRECISION_PRESETS, PrecisionPolicy
from repro.kvstore.serialization import (
    KVBlob,
    KVCorruptionError,
    dequantize_int8,
    deserialize_kv,
    int8_scale,
    pack_layer_kv_as,
    quantize_int8,
    serialize_kv,
)
from repro.kvstore.store import KVCacheStore
from repro.model.config import get_config
from repro.model.tensors import KVCache, LayerKV
from repro.model.transformer import TransformerModel


def _make_cache(n_tokens=6, n_layers=4, n_kv_heads=2, head_dim=4, seed=0) -> KVCache:
    rng = np.random.default_rng(seed)
    layers = [
        LayerKV(
            rng.normal(size=(n_tokens, n_kv_heads, head_dim)).astype(np.float32),
            rng.normal(size=(n_tokens, n_kv_heads, head_dim)).astype(np.float32),
        )
        for _ in range(n_layers)
    ]
    return KVCache(layers, np.arange(n_tokens), np.arange(n_tokens))


def _deterministic_cache(token_ids, n_layers: int = 4) -> KVCache:
    """KV rows deterministic per (token id, position, layer) — equal token
    prefixes yield equal KV rows, as a real chunk prefill would."""
    ids = np.asarray(token_ids, dtype=np.int64)
    positions = np.arange(ids.size, dtype=np.int64)
    layers = []
    for layer in range(n_layers):
        base = ((ids * 31 + positions * 7 + layer) % 97).astype(np.float32) / 97.0
        rows = np.repeat(base, 4).reshape(ids.size, 1, 4)
        layers.append(LayerKV(rows.copy(), rows + 0.5))
    return KVCache(layers, ids, positions)


def _stored(tensor: np.ndarray, dtype: str) -> np.ndarray:
    """Reference for what a layer tensor decodes to once stored at *dtype*."""
    if dtype == "int8":
        scale = int8_scale(tensor)
        return dequantize_int8(quantize_int8(tensor, scale), scale)
    return tensor.astype(dtype).astype(np.float32)


def _stored_cache(cache: KVCache, policy) -> KVCache:
    table = PrecisionPolicy.get(policy).layer_dtype_table(cache.n_layers)
    layers = [
        LayerKV(_stored(layer.keys, dtype), _stored(layer.values, dtype))
        for layer, dtype in zip(cache.layers, table)
    ]
    return KVCache(layers, cache.token_ids, cache.positions)


def _pack(cache: KVCache, policy="float16") -> KVBlob:
    return KVBlob(serialize_kv(cache, policy))


def _caches_equal(a: KVCache, b: KVCache) -> bool:
    return all(
        np.array_equal(la.keys, lb.keys) and np.array_equal(la.values, lb.values)
        for la, lb in zip(a.layers, b.layers)
    )


class TestPolicyResolution:
    def test_none_resolves_to_float16(self):
        assert PrecisionPolicy.get(None).name == "float16"

    def test_string_resolves_to_preset(self):
        for name in PRECISION_PRESETS:
            assert PrecisionPolicy.get(name).name == name

    def test_policy_passes_through(self):
        policy = PrecisionPolicy("int8")
        assert PrecisionPolicy.get(policy) is policy

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown precision policy"):
            PrecisionPolicy("int4")

    def test_non_spec_type_rejected(self):
        with pytest.raises(TypeError):
            PrecisionPolicy.get(8)

    def test_explicit_layer_dtypes_validated(self):
        with pytest.raises(ValueError, match="non-empty"):
            PrecisionPolicy(layer_dtypes=())
        with pytest.raises(ValueError, match="unknown layer dtype"):
            PrecisionPolicy(layer_dtypes=("float16", "bfloat16"))

    def test_explicit_layer_count_must_match_model(self):
        policy = PrecisionPolicy(layer_dtypes=("float16", "int8"))
        assert policy.layer_dtype_table(2) == ("float16", "int8")
        with pytest.raises(ValueError, match="pins 2 layer dtypes"):
            policy.dtype_for_layer(0, 3)


class TestLayerMap:
    def test_uniform_presets_map_every_layer(self):
        for name in ("float32", "float16", "int8"):
            assert PrecisionPolicy(name).layer_dtype_table(4) == (name,) * 4

    def test_mixed_keeps_first_quarter_fp16(self):
        table = PrecisionPolicy("mixed").layer_dtype_table(8)
        assert table == ("float16",) * 2 + ("int8",) * 6

    def test_mixed_keeps_at_least_one_fp16_layer(self):
        assert PrecisionPolicy("mixed").layer_dtype_table(1) == ("float16",)
        assert PrecisionPolicy("mixed").layer_dtype_table(2) == ("float16", "int8")


class TestByteAccounting:
    def test_mean_elem_bytes(self):
        assert PrecisionPolicy("float16").mean_elem_bytes(8) == 2.0
        assert PrecisionPolicy("int8").mean_elem_bytes(8) == 1.0
        # 2 fp16 layers + 6 int8 layers over 8.
        assert PrecisionPolicy("mixed").mean_elem_bytes(8) == pytest.approx(1.25)

    def test_kv_bytes_per_token_per_layer(self):
        policy = PrecisionPolicy("mixed")
        assert policy.kv_bytes_per_token_per_layer(2, 4, 8) == pytest.approx(
            2.0 * 2 * 4 * 1.25
        )

    def test_payload_width_carries_int8_scale_overhead(self):
        cache = _make_cache(n_layers=1)
        elements = 2 * 6 * 2 * 4
        assert _pack(cache, "float16").layer_nbytes(0) == elements * 2
        assert _pack(cache, "float32").layer_nbytes(0) == elements * 4
        # int8: one byte per element plus a float32 (k, v) scale pair.
        assert _pack(cache, "int8").layer_nbytes(0) == elements + 8
        with pytest.raises(ValueError, match="unknown layer dtype"):
            pack_layer_kv_as(cache.layers[0], "mixed")

    def test_cache_payload_matches_serialized_layer_bytes(self):
        cache = _make_cache()
        n_layers, n_tokens = cache.n_layers, cache.n_tokens
        for name in PRECISION_PRESETS:
            payload = serialize_kv(cache, name)
            stored = KVBlob(payload)
            restored = deserialize_kv(payload)
            assert _caches_equal(restored, _stored_cache(cache, name))
            assert all(
                np.array_equal(stored.layer(i)[0], restored.layers[i].keys)
                for i in range(n_layers)
            )
            # The serialized blob is magic + header length + header, then the
            # ids and the layer payloads, all of which a store accounts.
            header_len = int.from_bytes(payload[6:10], "little")
            index_bytes = 2 * n_tokens * 8
            layer_bytes = sum(stored.layer_nbytes(i) for i in range(n_layers))
            assert stored.nbytes == len(payload) == 10 + header_len + index_bytes + layer_bytes


class TestQuantizeIdempotence:
    @pytest.mark.parametrize("dtype", ["float32", "float16", "int8", "mixed"])
    def test_double_round_trip_is_identity(self, dtype):
        cache = _make_cache(seed=3)
        once = deserialize_kv(serialize_kv(cache, dtype))
        twice = deserialize_kv(serialize_kv(once, dtype))
        assert _caches_equal(once, twice)

    def test_float16_policy_matches_legacy_string(self):
        cache = _make_cache(seed=7)
        assert _caches_equal(
            deserialize_kv(serialize_kv(cache, PrecisionPolicy("float16"))),
            deserialize_kv(serialize_kv(cache, "float16")),
        )


class TestWireFormatMatrix:
    """RPKV5 at every precision preset round-trips to the per-tensor quantisation."""

    @pytest.mark.parametrize("kv_dtype", PRECISION_PRESETS)
    def test_format_round_trips(self, kv_dtype):
        cache = _make_cache(seed=11)
        payload = serialize_kv(cache, kv_dtype)
        assert payload.startswith(b"RPKV5\n")
        restored = deserialize_kv(payload)
        assert np.array_equal(restored.token_ids, cache.token_ids)
        assert np.array_equal(restored.positions, cache.positions)
        assert _caches_equal(restored, _stored_cache(cache, kv_dtype))

    def test_non_uniform_explicit_policy_writes_v5(self):
        cache = _make_cache(n_layers=3, seed=13)
        policy = PrecisionPolicy(layer_dtypes=("float32", "float16", "int8"))
        payload = serialize_kv(cache, policy)
        assert payload.startswith(b"RPKV5\n")
        restored = deserialize_kv(payload)
        assert _caches_equal(restored, _stored_cache(cache, policy))
        # Layer 0 is stored at full fp32 width: bitwise-lossless.
        assert np.array_equal(restored.layers[0].keys, cache.layers[0].keys)

    def test_uniform_fp16_policy_blob_is_bitwise_legacy(self):
        """A policy writes the same blob as its preset name (fp16 default)."""
        cache = _make_cache(seed=17)
        assert serialize_kv(cache, PrecisionPolicy("float16")) == serialize_kv(cache)
        assert serialize_kv(cache, PrecisionPolicy("int8")) == serialize_kv(
            cache, "int8"
        )

    def test_v5_header_carries_layer_dtype_table(self):
        cache = _make_cache(n_layers=8, seed=19)
        payload = serialize_kv(cache, "mixed")
        header_len = int.from_bytes(payload[6:10], "little")
        header = json.loads(payload[10 : 10 + header_len])
        assert header["kv_dtype"] == "per_layer"
        assert header["policy"] == "mixed"
        assert tuple(header["layer_dtypes"]) == ("float16",) * 2 + ("int8",) * 6

    def test_v5_payload_corruption_detected(self):
        blob = bytearray(serialize_kv(_make_cache(seed=23), "mixed"))
        blob[-1] ^= 0xFF
        with pytest.raises(KVCorruptionError):
            deserialize_kv(bytes(blob))

    @pytest.mark.parametrize("magic", [b"RPKV1\n", b"RPKV2\n", b"RPKV3\n", b"RPKV4\n"])
    def test_older_wire_formats_are_rejected(self, magic):
        blob = serialize_kv(_make_cache(seed=29))
        with pytest.raises(ValueError, match="bad magic"):
            deserialize_kv(magic + blob[len(magic):])


class TestStoreAccounting:
    """Stores account the bytes of the blobs they hold, at any precision."""

    def test_int8_blobs_fit_about_twice_the_chunks(self):
        caches = [_make_cache(n_tokens=128, head_dim=32, seed=i) for i in range(8)]
        capacity = 2 * _pack(caches[0], "float16").nbytes
        stores = {
            dtype: KVCacheStore(device=get_device("cpu_ram"), capacity_bytes=capacity)
            for dtype in ("float16", "int8")
        }
        for i, cache in enumerate(caches):
            for dtype, store in stores.items():
                store.put(f"c{i}", _pack(cache, dtype))
        int8_bytes = _pack(caches[0], "int8").nbytes
        assert stores["float16"].n_entries == 2
        # Each blob also holds its header and token index at any width.
        assert stores["int8"].n_entries == capacity // int8_bytes == 3
        assert stores["int8"].bytes_stored == 3 * int8_bytes

    @pytest.mark.parametrize(
        "make_store",
        [
            lambda: KVCacheStore(device=get_device("cpu_ram")),
            lambda: TieredKVStore(
                tiers=[
                    KVCacheStore(device=get_device("cpu_ram")),
                    KVCacheStore(device=get_device("nvme_ssd")),
                ]
            ),
        ],
        ids=["chunk", "tiered"],
    )
    def test_a_store_accounts_and_serves_the_held_blob(self, make_store):
        store = make_store()
        blob = _pack(_deterministic_cache(range(8)))
        store.put("c", blob)
        assert store.bytes_stored == blob.nbytes == len(blob.data)
        assert store.lookup("c").blob is blob

    def test_tiered_demotion_moves_the_packed_blob(self):
        blobs = [_pack(_deterministic_cache(range(10 * i, 10 * i + 8)), "int8") for i in range(3)]
        per_blob = blobs[0].nbytes
        fast = KVCacheStore(device=get_device("cpu_ram"), capacity_bytes=per_blob)
        slow = KVCacheStore(device=get_device("nvme_ssd"), capacity_bytes=4 * per_blob)
        store = TieredKVStore(tiers=[fast, slow])
        for i, blob in enumerate(blobs):
            store.put(f"c{i}", blob)
        # Each insert evicts the previous resident of the RAM tier, which
        # cascades into the slow tier as the same blob.
        assert fast.bytes_stored == per_blob
        assert slow.bytes_stored == 2 * per_blob
        assert store.bytes_stored == 3 * per_blob
        for i, blob in enumerate(blobs):
            assert store.lookup(f"c{i}").blob is blob


class TestBackendPricingParity:
    """Satellite regression: one policy prices every backend identically.

    Pre-fix, ``BlendEngine.build`` priced chunk-backend stores at the paper
    model's *timing* width (1 byte/element on Yi-34B) while the other
    backends accounted at the fp16 store width — the same payload cost
    different bytes depending on the backend holding it.
    """

    @pytest.mark.parametrize("kv_dtype", PRECISION_PRESETS)
    def test_chunk_and_tiered_backends_account_identical_bytes(self, kv_dtype):
        engines = [
            BlendEngine.build(
                paper_model="Yi-34B", device="cpu_ram", seed=0,
                store=StoreConfig(backend=backend, kv_dtype=kv_dtype),
            )
            for backend in STORE_BACKENDS
        ]
        texts = ["alpha bravo charlie delta", "echo foxtrot golf hotel"]
        for engine in engines:
            engine.precompute_chunks(texts)
        chunk_engine, tiered_engine = engines
        assert chunk_engine.kv_store.bytes_stored > 0
        assert chunk_engine.kv_store.bytes_stored == tiered_engine.kv_store.bytes_stored

    @pytest.mark.parametrize("kv_dtype", PRECISION_PRESETS)
    def test_fused_kv_is_bitwise_identical_across_backends(self, kv_dtype):
        """A tiered store whose RAM tier holds one chunk serves the others
        from the slow tier; the fused KV matches the chunk store's bitwise."""
        chunks = [f"document number {i} about topic {i} and its details" for i in range(3)]
        question = "what do the documents say?"
        chunk_engine = BlendEngine.build(
            paper_model="Mistral-7B", device="cpu_ram", seed=0,
            store=StoreConfig(backend="chunk", kv_dtype=kv_dtype),
        )
        chunk_engine.precompute_chunks(chunks)
        store = chunk_engine.kv_store
        largest = max(store.peek(key).nbytes for key in store.keys())
        tiered_engine = BlendEngine.build(
            paper_model="Mistral-7B", device="cpu_ram", seed=0,
            store=StoreConfig(
                backend="tiered", kv_dtype=kv_dtype, tier_capacity_bytes=(largest, None)
            ),
        )
        tiered_engine.precompute_chunks(chunks)
        fused_chunk = chunk_engine.run(chunks, question).fusion.kv_cache
        tiered = tiered_engine.run(chunks, question)
        assert tiered.cache_stats["slow_tier_hits"] > 0
        fused_tiered = tiered.fusion.kv_cache
        assert np.array_equal(fused_chunk.token_ids, fused_tiered.token_ids)
        assert _caches_equal(fused_tiered, fused_chunk)

    def test_engine_packs_at_the_store_recipe_precision_for_all_backends(self):
        for backend in STORE_BACKENDS:
            engine = BlendEngine.build(
                paper_model="Yi-34B", device="cpu_ram", seed=0,
                store=StoreConfig(backend=backend, kv_dtype="int8"),
            )
            assert engine.precision.name == "int8"
            engine.precompute_chunks(["alpha bravo charlie delta"])
            tiers = getattr(engine.kv_store, "tiers", [engine.kv_store])
            stored = [tier.peek(key) for tier in tiers for key in tier.keys()]
            assert stored
            n_layers = engine.model.config.n_layers
            assert all(blob.layer_dtypes == ("int8",) * n_layers for blob in stored)


class TestEnginePrecision:
    def test_fp16_default_unchanged_by_policy_plumbing(self):
        """Explicit float16 policy is the default: identical generations and
        bitwise-identical fused KV."""
        chunks = ["the cat sat on the mat", "the dog slept by the door"]
        question = "who sat where?"
        default_engine = BlendEngine.build(paper_model="Mistral-7B", seed=0)
        explicit_engine = BlendEngine.build(
            paper_model="Mistral-7B", seed=0,
            store=StoreConfig(kv_dtype="float16"),
        )
        for engine in (default_engine, explicit_engine):
            engine.precompute_chunks(chunks)
        default_result = default_engine.run(chunks, question, max_new_tokens=4)
        explicit_result = explicit_engine.run(chunks, question, max_new_tokens=4)
        assert default_result.generated_ids == explicit_result.generated_ids
        assert _caches_equal(
            default_result.fusion.kv_cache, explicit_result.fusion.kv_cache
        )

    @pytest.mark.parametrize("kv_dtype", ["int8", "mixed"])
    def test_quantised_store_serves_and_stays_close(self, kv_dtype):
        chunks = ["the cat sat on the mat", "the dog slept by the door"]
        question = "who sat where?"
        reference = BlendEngine.build(paper_model="Mistral-7B", seed=0)
        quantised = BlendEngine.build(
            paper_model="Mistral-7B", seed=0,
            store=StoreConfig(kv_dtype=kv_dtype),
        )
        reference.precompute_chunks(chunks)
        quantised.precompute_chunks(chunks)
        assert (
            quantised.kv_store.bytes_stored < reference.kv_store.bytes_stored
        )
        result = quantised.run(chunks, question, max_new_tokens=4)
        ref_result = reference.run(chunks, question, max_new_tokens=4)
        assert len(result.generated_ids) == len(ref_result.generated_ids)
        for layer, ref_layer in zip(
            result.fusion.kv_cache.layers, ref_result.fusion.kv_cache.layers
        ):
            assert np.allclose(layer.keys, ref_layer.keys, rtol=0.2, atol=0.2)


class TestExecutorPrecision:
    @pytest.fixture(scope="class")
    def model(self):
        return TransformerModel(get_config("small"), seed=0)

    @pytest.fixture(scope="class")
    def request_inputs(self, model):
        rng = np.random.default_rng(0)
        chunk_caches = [
            model.chunk_prefill(
                rng.integers(4, model.config.vocab_size, size=32).astype(np.int64)
            )
            for _ in range(2)
        ]
        suffix = rng.integers(4, model.config.vocab_size, size=8).astype(np.int64)
        return chunk_caches, suffix

    def test_plan_prices_layers_at_the_stored_payload_length(self, model, request_inputs):
        chunk_caches, suffix = request_inputs
        device = get_device("nvme_ssd")
        plans = {}
        for dtype in ("float16", "int8", "mixed"):
            executor = PipelinedExecutor(
                model, FusorConfig(recompute_ratio=0.2),
                device=device, precision=dtype,
            )
            chunks = [_pack(cache, dtype) for cache in chunk_caches]
            plans[dtype] = executor._plan_request(chunks, suffix, None)
            for layer_idx, delay in enumerate(plans[dtype].layer_delays):
                stored = sum(blob.layer_nbytes(layer_idx) for blob in chunks)
                assert delay == device.read_time(stored)
        # Narrower payloads load faster, layer by layer.
        for fp16_delay, int8_delay in zip(
            plans["float16"].layer_delays, plans["int8"].layer_delays
        ):
            assert int8_delay < fp16_delay
        # Mixed: fp16-priced early layers, int8-priced late layers.
        assert plans["mixed"].layer_delays[0] == plans["float16"].layer_delays[0]
        assert plans["mixed"].layer_delays[-1] == plans["int8"].layer_delays[-1]

    @pytest.mark.parametrize("dtype", ["int8", "mixed"])
    def test_executes_through_quantised_wire_format(self, model, request_inputs, dtype):
        chunk_caches, suffix = request_inputs
        chunks = [_pack(cache, dtype) for cache in chunk_caches]
        executor = PipelinedExecutor(
            model, FusorConfig(recompute_ratio=0.2),
            layer_load_time=0.0005, precision=dtype,
        )
        result = executor.execute(chunks, suffix, pipelined=True)
        reference = executor.execute(chunks, suffix, pipelined=False)
        # Pipelined and sequential execution agree bitwise at any precision.
        assert _caches_equal(result.fusion.kv_cache, reference.fusion.kv_cache)

    @pytest.mark.parametrize("stored, loads", [("float16", "int8"), ("int8", "mixed")])
    def test_rejects_a_chunk_stored_at_another_precision(
        self, model, request_inputs, stored, loads
    ):
        chunk_caches, suffix = request_inputs
        chunks = [_pack(chunk_caches[0], loads), _pack(chunk_caches[1], stored)]
        executor = PipelinedExecutor(model, layer_load_time=0.0, precision=loads)
        with pytest.raises(ValueError, match="chunk 1 is stored at layer dtypes"):
            executor.execute(chunks, suffix)
