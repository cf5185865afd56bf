"""The program surface the serving benchmark (``perfbench/``) calls.

perfbench's own suite runs outside tier-1, so a simplification that deletes
a name it uses would otherwise go unnoticed until that suite or the
benchmark runs.  This test drives perfbench's engine set-up as is (it only
reads ``perfbench/``): ``StoreConfig(backend=, kv_dtype=, tier_devices=,
tier_capacity_bytes=)``, ``BlendEngine(...)`` with ``executor=`` and
``execution=``, ``precompute_chunks``, ``reset_cache_stats`` and one
``run_batch(..., max_new_tokens=1)`` prefill per workload.  It also checks
the model methods perfbench's traced run times per layer
(``tracing.traced_parts``): one ``layer_full`` and ``n_layers - 1``
``layer_selective`` calls per fused request and one ``chunk_prefill`` per
cold chunk, so a refactor that moves that work elsewhere cannot silently
zero perfbench's per-layer metrics.
"""

import importlib
import sys
from pathlib import Path

import pytest

from repro.kvstore.hierarchy import TieredKVStore

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        loop = importlib.import_module("loop")
        streams = importlib.import_module("streams")
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))
    return loop, streams, tracing


@pytest.mark.parametrize("name", ["rag_warm", "rag_churn"])
def test_perfbench_builds_and_serves_each_workload(perfbench, name):
    loop, streams, _ = perfbench
    workload = streams.WORKLOADS[name]
    stream = streams.RequestStream(workload, seed=1)
    built, _ = loop.set_up(workload, stream)
    engine = built.engine
    request = stream.request(0, 0.0)
    (result,) = engine.run_batch(
        [(list(request.chunks), request.question)], max_new_tokens=1, execution="pipelined"
    )
    assert len(result.generated_ids) <= 1
    # The recording executor handed to BlendEngine(executor=) ran the request.
    (execution,) = built.executor.last.requests
    assert execution.simulated_load_delay >= 0.0
    for key in ("misses", "hit_rate", "bytes_stored", "tokenizer_hits", "tokenizer_misses"):
        assert key in engine.cache_stats
    store = engine.kv_store
    if name == "rag_warm":
        assert engine.cache_stats["misses"] == 0  # the whole corpus was precomputed
    else:
        assert isinstance(store, TieredKVStore)
        assert len(store.tiers) == 2
        # The request's cold chunks were packed at the workload's int8.
        stored = [tier.peek(key) for tier in store.tiers for key in tier.keys()]
        assert len(stored) == len(request.chunks)
        n_layers = engine.model.config.n_layers
        assert all(blob.layer_dtypes == ("int8",) * n_layers for blob in stored)


@pytest.mark.parametrize("name", ["rag_warm", "rag_churn"])
def test_traced_model_methods_carry_each_requests_layers(perfbench, name):
    loop, streams, tracing = perfbench
    workload = streams.WORKLOADS[name]
    stream = streams.RequestStream(workload, seed=1)
    tracer = tracing.Tracer()
    built, _ = loop.set_up(workload, stream, tracer)
    engine = built.engine
    n_layers = engine.model.config.n_layers
    for index in range(2):
        request = stream.request(index, 0.0)
        misses = engine.cache_stats["misses"]
        tracer.spans.clear()
        engine.run_batch(
            [(list(request.chunks), request.question)], max_new_tokens=1, execution="pipelined"
        )
        calls = {key: len(value) for key, value in tracer.durations().items()}
        assert calls.get("model.layer_full") == 1
        assert calls.get("model.layer_selective") == n_layers - 1
        cold = engine.cache_stats["misses"] - misses
        assert calls.get("model.chunk_prefill", 0) == cold
        if name == "rag_churn" and index == 0:
            assert cold == len(request.chunks)  # an empty store: every chunk is cold
