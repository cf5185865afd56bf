"""BlendEngine: the public façade of the CacheBlend reproduction.

The engine ties together the tokenizer, the runnable proxy transformer (for
KV fusion and deviation measurement), the KV cache store, the loading
controller and the serving cost model (for TTFT estimates on the paper's
real model architectures).

A request is served one way.  Its fuse runs through the
:class:`~repro.core.executor.PipelinedExecutor`: each layer's KV streams off
the (simulated) storage device on a background thread while earlier layers
recompute their HKVD tokens, and the request carries a *measured*
:class:`~repro.core.pipeline.PipelineTrace` whose load/compute/stall spans
are wall-clock facts.  ``run_batch`` additionally pipelines *across*
requests — request B's layer 0 loads while request A's tail layers
recompute.  The first token is the argmax of the fused prefill's last
logits, so TTFT ends with the fuse; budgets beyond one token decode the
whole batch in lock-step on one
:class:`~repro.model.tensors.DecodeSession`, one session step per scheduler
iteration.  The serving path only reads the analytic cost model (the
controller's recompute ratio); the cost model's own TTFT for the paper's
architecture rides along as ``ttft_estimate``, a projection beside the
measured ``ttft``.

Typical use::

    engine = BlendEngine.build(paper_model="Mistral-7B", device="nvme_ssd")
    engine.precompute_chunks(["chunk one text ...", "chunk two text ..."])
    result = engine.run(["chunk one text ...", "chunk two text ..."],
                        question="who proposed using RAG?")
    print(result.ttft, result.trace.stall_time)
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core.controller import ControllerDecision, LoadingController
from repro.core.executor import ExecutionResult, PipelinedExecutor
from repro.core.fusor import FusionResult, FusorConfig, KVFusor
from repro.core.pipeline import PipelineTrace
from repro.kvstore.config import StoreConfig
from repro.kvstore.device import StorageDevice, get_device
from repro.kvstore.faults import (
    FaultConfig,
    FaultyStore,
    StoreFault,
    StoreReadTimeout,
)
from repro.kvstore.precision import PrecisionPolicy
from repro.kvstore.protocol import ChunkStore, StoreLookup
from repro.kvstore.serialization import KVBlob, KVCorruptionError, serialize_kv
from repro.kvstore.store import chunk_key
from repro.model.config import PAPER_MODEL_PAIRS, ModelConfig, get_config
from repro.model.transformer import TransformerModel
from repro.serving.costmodel import GPUSpec, ServingCostModel
from repro.tokenizer.tokenizer import Tokenizer

#: Per-request fault-recovery counters, all initialised to zero.
_FAULT_STAT_KEYS = (
    "fault_retries",
    "fault_timeouts",
    "fault_transients",
    "fault_corruptions",
    "fault_fallbacks",
    "fallback_recompute_tokens",
)


def _check_execution(execution: str) -> None:
    """``execution=`` names the one serving path; anything else is an error."""
    if execution != "pipelined":
        raise ValueError(
            f"unknown execution mode {execution!r}; the only mode is 'pipelined'"
        )


@dataclass(frozen=True)
class LookupRetryPolicy:
    """How :meth:`BlendEngine._gather_request` survives store read faults.

    Each chunk lookup gets ``max_retries`` retries after a typed store
    fault (:class:`~repro.kvstore.faults.StoreFault` subclasses or a
    :class:`~repro.kvstore.serialization.KVCorruptionError`), with
    exponential simulated backoff (``backoff_s * 2**attempt`` seconds,
    priced into the request's store read delay rather than slept).  A hit
    whose simulated ``read_delay`` exceeds ``timeout_s`` is cut off and
    treated as a timed-out read — the caller waited ``timeout_s`` for
    nothing.  When every attempt fails, the engine degrades gracefully:
    the chunk is recomputed from scratch (correct output, higher TTFT) and
    re-``put`` to repair the store.
    """

    max_retries: int = 2
    backoff_s: float = 0.005
    timeout_s: float | None = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_s < 0.0:
            raise ValueError("backoff_s must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0.0:
            raise ValueError("timeout_s must be positive (or None to disable)")


@dataclass
class BlendResult:
    """Outcome of answering one request through CacheBlend.

    ``ttft`` is the measured time-to-first-token: the request's pipelined
    fuse (from its :class:`~repro.core.pipeline.PipelineTrace`, queueing
    behind earlier batch requests included) plus the wall-clock of
    prefilling any cold chunks.  The first token is the argmax of the
    fusion's ``last_logits``, so no decode step is part of it.
    ``ttft_estimate`` is the cost model's number for the same request on the
    paper architecture, so the two can be compared side by side.

    ``cache_stats`` is this request's *own* hit/miss accounting (KV store and
    tokenizer), counted locally while the request executed — it never reads
    the engine-global counters, so results from concurrent or interleaved
    batches cannot cross-contaminate.
    """

    fusion: FusionResult
    ttft: float
    decision: ControllerDecision
    cache_hits: int
    cache_misses: int
    generated_ids: list[int] = field(default_factory=list)
    n_context_tokens: int = 0
    n_suffix_tokens: int = 0
    ttft_estimate: float = 0.0
    #: Measured load-wait inside this request's pipeline (queueing behind
    #: earlier batch requests excluded).
    measured_stall: float = 0.0
    trace: PipelineTrace | None = None
    cache_stats: dict[str, int] = field(default_factory=dict)

    @property
    def n_total_tokens(self) -> int:
        return self.n_context_tokens + self.n_suffix_tokens


@dataclass
class _RequestInputs:
    """One request's gathered inputs plus its locally-counted statistics."""

    chunk_blobs: list[KVBlob]
    suffix_ids: np.ndarray
    context_tokens: int
    miss_tokens: int
    #: Measured wall-clock spent prefilling cold chunks for this request.
    miss_prefill_s: float
    stats: dict[str, int]
    #: Simulated extra seconds of store reads beyond the primary device's
    #: rate — nonzero only when a tiered store served hits from a slow tier.
    store_read_delay_s: float = 0.0

    @property
    def hits(self) -> int:
        return self.stats["hits"]

    @property
    def misses(self) -> int:
        return self.stats["misses"]


class _EncodingCache:
    """Small LRU memoizing tokenizer encodings per chunk/question text.

    Cache-hit requests repeat the same chunk texts, so re-encoding them on
    every request is pure O(chunk) overhead; the entries are tiny (one int64
    array per distinct text).  Arrays are returned read-only so a hit can be
    shared across requests without defensive copies.
    """

    #: Distinct texts kept before the least recently used one is dropped.
    capacity = 1024

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[str, np.ndarray] = OrderedDict()

    def get(self, text: str) -> np.ndarray | None:
        ids = self._entries.get(text)
        if ids is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(text)
        return ids

    def put(self, text: str, ids: np.ndarray) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        ids.setflags(write=False)
        self._entries[text] = ids
        self._entries.move_to_end(text)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0


class BlendEngine:
    """End-to-end CacheBlend engine over a chunk store and a proxy model."""

    def __init__(
        self,
        model: TransformerModel,
        tokenizer: Tokenizer,
        kv_store: ChunkStore,
        controller: LoadingController,
        fusor_config: FusorConfig | None = None,
        timing_model: ModelConfig | None = None,
        execution: str = "pipelined",
        executor: PipelinedExecutor | None = None,
        precision: PrecisionPolicy | str | None = None,
        retry_policy: LookupRetryPolicy | None = None,
    ) -> None:
        _check_execution(execution)
        self.model = model
        self.tokenizer = tokenizer
        #: Any :class:`~repro.kvstore.protocol.ChunkStore` backend — a
        #: whole-chunk LRU store or a multi-tier hierarchy of them.
        self.kv_store = kv_store
        #: The precision each chunk is packed at, once, before it is put
        #: (float16 unless given); the executor loads it from those bytes.
        self.precision = PrecisionPolicy.get(precision)
        self.controller = controller
        self.fusor = KVFusor(model, fusor_config or FusorConfig())
        #: Architecture used for the TTFT estimates (defaults to the proxy).
        self.timing_model = timing_model or model.config
        #: The serving path; shares the store's device model and
        #: the engine's precision policy.
        self.executor = executor or PipelinedExecutor(
            model, self.fusor.config, device=kv_store.device, precision=self.precision
        )
        self._encodings = _EncodingCache()
        #: Retry/timeout/fallback behaviour of store lookups under faults.
        self.retry_policy = retry_policy or LookupRetryPolicy()
        #: Engine-global fault-recovery counters, aggregated across requests
        #: (the per-request counts live in each result's ``cache_stats``).
        self._fault_totals: dict[str, int] = {key: 0 for key in _FAULT_STAT_KEYS}

    # ------------------------------------------------------------------
    # Tokenization (memoized)
    # ------------------------------------------------------------------
    def encode(self, text: str) -> np.ndarray:
        """Tokenize *text*, memoizing the encoding per distinct string.

        Returns a read-only int64 array shared across requests; copy before
        mutating.
        """
        ids, _ = self._encode(text)
        return ids

    def _encode(self, text: str) -> tuple[np.ndarray, bool]:
        """Memoized encode returning ``(ids, was_cache_hit)``.

        The hit flag lets callers count per-request tokenizer statistics
        locally instead of diffing the engine-global counters.
        """
        ids = self._encodings.get(text)
        if ids is not None:
            return ids, True
        ids = np.asarray(self.tokenizer.encode(text), dtype=np.int64)
        self._encodings.put(text, ids)
        return ids, False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        paper_model: str = "Mistral-7B",
        device: str | StorageDevice = "nvme_ssd",
        recompute_ratio: float = 0.15,
        seed: int = 0,
        execution: str = "pipelined",
        store: StoreConfig | ChunkStore | None = None,
        faults: FaultConfig | None = None,
        retry_policy: LookupRetryPolicy | None = None,
    ) -> "BlendEngine":
        """Build an engine for one of the paper's evaluated models.

        ``paper_model`` must be one of ``Mistral-7B``, ``Yi-34B`` or
        ``Llama-70B``; the proxy configuration runs the actual NumPy forward
        pass while the corresponding architecture preset drives the timing
        (served on two GPUs for Llama-70B, on one otherwise).

        ``store`` selects the KV store backend: a
        :class:`~repro.kvstore.config.StoreConfig` recipe (chunk or
        tiered), whose ``kv_dtype`` the engine packs chunks at, or a
        pre-built :class:`~repro.kvstore.protocol.ChunkStore`, filled at
        float16.  The default is a whole-chunk store on ``device``.

        ``faults`` (a :class:`~repro.kvstore.faults.FaultConfig` with
        ``rate > 0``) wraps the built store in a
        :class:`~repro.kvstore.faults.FaultyStore` for chaos testing;
        ``retry_policy`` tunes how the gather path retries and degrades
        when those (or real) store faults surface.
        """
        _check_execution(execution)
        if paper_model not in PAPER_MODEL_PAIRS:
            known = ", ".join(sorted(PAPER_MODEL_PAIRS))
            raise KeyError(f"unknown paper model {paper_model!r}; known: {known}")
        proxy_name, timing_name = PAPER_MODEL_PAIRS[paper_model]
        proxy_config = get_config(proxy_name)
        timing_config = get_config(timing_name)

        model = TransformerModel(proxy_config, seed=seed)
        tokenizer = Tokenizer(vocab_size=proxy_config.vocab_size)
        storage = device if isinstance(device, StorageDevice) else get_device(device)
        if store is None:
            store = StoreConfig()
        if isinstance(store, StoreConfig):
            # The engine packs chunks at the recipe's precision; either
            # backend then holds, and prices, the same bytes.
            precision = store.precision
            kv_store = store.build(device=None if store.tiered else storage)
        else:
            kv_store, precision = store, PrecisionPolicy.get(None)
        if faults is not None and faults.rate > 0.0:
            kv_store = FaultyStore(kv_store, faults)
        cost_model = ServingCostModel(
            timing_config,
            GPUSpec(),
            n_gpus=2 if paper_model == "Llama-70B" else 1,
            precision=precision,
        )
        controller = LoadingController(cost_model, min_quality_ratio=recompute_ratio)
        return cls(
            model=model,
            tokenizer=tokenizer,
            kv_store=kv_store,
            controller=controller,
            fusor_config=FusorConfig(recompute_ratio=recompute_ratio),
            timing_model=timing_config,
            precision=precision,
            retry_policy=retry_policy,
        )

    # ------------------------------------------------------------------
    # Chunk precomputation
    # ------------------------------------------------------------------
    def chunk_cache_key(self, token_ids: np.ndarray) -> str:
        return chunk_key(token_ids, model_name=self.model.config.name)

    def _pack(self, token_ids: np.ndarray) -> KVBlob:
        """Prefill one chunk and pack it once, at the engine's precision."""
        cache = self.model.chunk_prefill(token_ids, start_position=0)
        return KVBlob(serialize_kv(cache, self.precision))

    def precompute_chunk(self, text: str) -> str:
        """Tokenize, prefill, pack and store one chunk; returns its cache key."""
        token_ids = self.encode(text)
        if token_ids.size == 0:
            raise ValueError("cannot precompute an empty chunk")
        key = self.chunk_cache_key(token_ids)
        if not self.kv_store.contains(key):
            self.kv_store.put(key, self._pack(token_ids))
        return key

    def precompute_chunks(self, texts: list[str]) -> list[str]:
        """Precompute and store the KV caches of several chunks."""
        return [self.precompute_chunk(text) for text in texts]

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------
    def _lookup_with_retry(
        self, key: str, stats: dict[str, int]
    ) -> tuple[StoreLookup, float, bool]:
        """One chunk lookup under the engine's :class:`LookupRetryPolicy`.

        Returns ``(found, fault_delay_s, fallback)``: the final lookup
        result, the simulated seconds lost to faulted attempts (timeouts
        waited out plus exponential backoff between retries), and whether
        every attempt failed — in which case the caller must recompute the
        chunk from scratch.  A clean miss is not a fault and returns
        immediately; faults are only counted on attempts that raised (or a
        hit cut off by the per-lookup timeout).
        """
        policy = self.retry_policy
        fault_delay_s = 0.0
        for attempt in range(policy.max_retries + 1):
            if attempt > 0:
                stats["fault_retries"] += 1
                fault_delay_s += policy.backoff_s * 2 ** (attempt - 1)
            try:
                found = self.kv_store.lookup(key)
            except StoreReadTimeout:
                stats["fault_timeouts"] += 1
                if policy.timeout_s is not None:
                    fault_delay_s += policy.timeout_s
                continue
            except StoreFault:
                stats["fault_transients"] += 1
                continue
            except KVCorruptionError:
                stats["fault_corruptions"] += 1
                continue
            if (
                found.hit
                and policy.timeout_s is not None
                and found.read_delay > policy.timeout_s
            ):
                # The read would outlive the lookup deadline: the caller
                # waited ``timeout_s`` for nothing, then retried.
                stats["fault_timeouts"] += 1
                fault_delay_s += policy.timeout_s
                continue
            return found, fault_delay_s, False
        return StoreLookup(blob=None), fault_delay_s, True

    def _gather_request(self, chunk_texts: list[str], question: str) -> _RequestInputs:
        """Resolve one request's chunk caches, counting its stats locally.

        Chunks missing from the KV store are prefilled and packed on the fly
        (the measured wall-clock is recorded in ``miss_prefill_s``) and
        inserted for future requests, exactly like a cold chunk in the real
        system; the request then loads them from the packed bytes like any
        hit.
        Store lookups that keep faulting (timeouts, transient losses,
        corrupted payloads) degrade the same way: after
        :class:`LookupRetryPolicy` is exhausted the chunk is recomputed from
        scratch — correct output, higher TTFT — and re-``put`` to repair the
        store; every such fallback is counted in the request's stats.
        """
        if not chunk_texts:
            raise ValueError("run() needs at least one context chunk")
        if not question.strip():
            raise ValueError("run() needs a non-empty question")

        chunk_blobs = []
        stats = {
            "hits": 0,
            "misses": 0,
            "miss_tokens": 0,
            "slow_tier_hits": 0,
            "tokenizer_hits": 0,
            "tokenizer_misses": 0,
            **{key: 0 for key in _FAULT_STAT_KEYS},
        }
        context_tokens = 0
        miss_prefill_s = 0.0
        store_read_delay_s = 0.0
        primary = self.kv_store.device
        for text in chunk_texts:
            token_ids, encoded_hit = self._encode(text)
            stats["tokenizer_hits" if encoded_hit else "tokenizer_misses"] += 1
            context_tokens += int(token_ids.size)
            key = self.chunk_cache_key(token_ids)
            found, fault_delay_s, fallback = self._lookup_with_retry(key, stats)
            store_read_delay_s += fault_delay_s
            blob = found.blob
            if blob is None:
                if fallback:
                    # Graceful degradation: the store kept faulting, so the
                    # chunk is recomputed (priced like a miss via
                    # ``miss_tokens``) and re-put to repair the store — but
                    # it is *not* a cache miss: the entry was there.
                    stats["fault_fallbacks"] += 1
                    stats["fallback_recompute_tokens"] += int(token_ids.size)
                else:
                    stats["misses"] += 1
                stats["miss_tokens"] += int(token_ids.size)
                start = time.perf_counter()
                blob = self._pack(token_ids)
                miss_prefill_s += time.perf_counter() - start
                self.kv_store.put(key, blob)
            else:
                stats["hits"] += 1
                # Reads at the primary (fastest) device's rate are already
                # part of the pipeline's per-layer load delay; only the
                # slow-tier excess is charged on top.  Exactly zero for any
                # single-tier store.
                store_read_delay_s += max(
                    0.0, found.read_delay - primary.read_time(found.nbytes)
                )
                if found.tier_index is not None and found.tier_index > 0:
                    stats["slow_tier_hits"] += 1
            chunk_blobs.append(blob)
        for fault_key in _FAULT_STAT_KEYS:
            self._fault_totals[fault_key] += stats[fault_key]

        suffix_ids, suffix_hit = self._encode(question)
        stats["tokenizer_hits" if suffix_hit else "tokenizer_misses"] += 1
        return _RequestInputs(
            chunk_blobs=chunk_blobs,
            suffix_ids=suffix_ids,
            context_tokens=context_tokens,
            miss_tokens=stats["miss_tokens"],
            miss_prefill_s=miss_prefill_s,
            stats=stats,
            store_read_delay_s=store_read_delay_s,
        )

    def _decide(self, inputs: _RequestInputs, recompute_ratio):
        decision = self.controller.decide(
            n_context_tokens=inputs.context_tokens,
            device=self.kv_store.device,
        )
        ratio = (
            recompute_ratio if recompute_ratio is not None else decision.recompute_ratio
        )
        return decision, ratio

    def _generate(
        self, fusions: list[FusionResult], max_new_tokens: int
    ) -> list[list[int]]:
        """Greedy generation for every request of a batch, from each
        fusion's ``last_logits``.

        The first token is ``argmax(last_logits)``, ready when the fuse
        ends, so a budget of at most one token opens no session and runs no
        decode step.  Larger budgets co-batch: every request joins one
        persistent :class:`~repro.model.tensors.DecodeSession` (its fused
        cache is copied into a padded slot once — setup; a persistent
        engine would have prefilled into the pad directly), and
        :meth:`~repro.model.transformer.TransformerModel.generate_session`
        decodes Orca-style in lock-step, one session step per scheduler
        iteration, each request leaving the moment it finishes.
        """
        eos = self.tokenizer.eos_id
        if max_new_tokens <= 1:
            first_ids = [int(np.argmax(fusion.last_logits)) for fusion in fusions]
            return [
                [first] if max_new_tokens == 1 and first != eos else []
                for first in first_ids
            ]
        # The steps append max_new_tokens - 1 rows per member; sizing the pad
        # for them up front means no join or step reallocates it.
        reserve = max_new_tokens - 1
        session = self.model.new_decode_session(
            token_capacity=max(fusion.kv_cache.n_tokens for fusion in fusions) + reserve,
            slot_capacity=len(fusions),
        )
        for index, fusion in enumerate(fusions):
            session.join(index, fusion.kv_cache, reserve=reserve)
        return self.model.generate_session(
            session,
            [fusion.last_logits for fusion in fusions],
            max_new_tokens=max_new_tokens,
            eos_id=eos,
        )

    def _finish(
        self,
        inputs: _RequestInputs,
        executed: ExecutionResult,
        decision: ControllerDecision,
        ratio: float,
        generated: list[int],
    ) -> BlendResult:
        """Assemble one request's :class:`BlendResult`.

        The measured TTFT is the request's pipeline completion plus its
        cold-chunk prefill wall-clock.
        """
        return BlendResult(
            fusion=executed.fusion,
            ttft=executed.total_time + inputs.miss_prefill_s,
            decision=decision,
            cache_hits=inputs.hits,
            cache_misses=inputs.misses,
            generated_ids=generated,
            n_context_tokens=inputs.context_tokens,
            n_suffix_tokens=int(inputs.suffix_ids.size),
            ttft_estimate=self._estimate_ttft(
                inputs.context_tokens,
                int(inputs.suffix_ids.size),
                inputs.miss_tokens,
                ratio,
                decision.device,
                store_read_delay_s=inputs.store_read_delay_s,
            ),
            measured_stall=executed.stall_time,
            trace=executed.trace,
            cache_stats=dict(inputs.stats),
        )

    def run(
        self,
        chunk_texts: list[str],
        question: str,
        recompute_ratio: float | None = None,
        max_new_tokens: int = 0,
        execution: str = "pipelined",
    ) -> BlendResult:
        """Answer one request whose input is *chunk_texts* followed by *question*:
        :meth:`run_batch` of that single request."""
        return self.run_batch(
            [(chunk_texts, question)], recompute_ratio, max_new_tokens, execution
        )[0]

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def run_batch(
        self,
        batch: list[tuple[list[str], str]],
        recompute_ratio: float | None = None,
        max_new_tokens: int = 0,
        execution: str = "pipelined",
    ) -> list[BlendResult]:
        """Answer a batch of ``(chunk_texts, question)`` requests in order.

        Requests share the engine's KV store, so chunks repeated across the
        batch hit the cache exactly as they would across a request stream;
        each :class:`BlendResult` carries its own locally-counted
        ``cache_stats`` (the engine-global :attr:`cache_stats` aggregates
        across requests and batches).

        The whole batch runs through
        :meth:`~repro.core.executor.PipelinedExecutor.execute_batch` with
        *cross-request* pipelining — while request A's tail layers recompute,
        request B's layer-0 KV is already streaming off the device — and each
        result's measured TTFT is its completion offset in the batch
        (queueing behind earlier requests included) plus its cold-chunk
        prefill.  Each request's first token is the argmax of its fused
        prefill's last logits; with ``max_new_tokens > 1`` the batch then
        decodes in lock-step on one
        :class:`~repro.model.tensors.DecodeSession`.  ``max_new_tokens=1`` is
        therefore the prefill-only call a caller-owned session joins after.
        ``execution`` accepts only ``"pipelined"``.
        """
        _check_execution(execution)
        gathered = [
            self._gather_request(chunk_texts, question) for chunk_texts, question in batch
        ]
        decisions = [self._decide(inputs, recompute_ratio) for inputs in gathered]
        executed = self.executor.execute_batch(
            [(inputs.chunk_blobs, inputs.suffix_ids) for inputs in gathered],
            recompute_ratio=[ratio for _, ratio in decisions],
            pipelined=True,
            extra_load_delay=[inputs.store_read_delay_s for inputs in gathered],
        )
        generated = self._generate([request.fusion for request in executed], max_new_tokens)
        return [
            self._finish(inputs, request, decision, ratio, tokens)
            for inputs, (decision, ratio), request, tokens in zip(
                gathered, decisions, executed, generated
            )
        ]

    @property
    def cache_stats(self) -> dict[str, float]:
        """JSON-friendly snapshot of the KV store's and tokenizer's counters.

        Includes the engine's fault-recovery counters (retries, timeouts,
        recompute fallbacks) aggregated across requests, and — when the
        store is a :class:`~repro.kvstore.faults.FaultyStore` — the
        injector's own per-kind counts.
        """
        stats = self.kv_store.stats.as_dict()
        # A tiered store keeps bytes in its tiers, not the top-level counter.
        stats["bytes_stored"] = self.kv_store.bytes_stored
        stats["tokenizer_hits"] = self._encodings.hits
        stats["tokenizer_misses"] = self._encodings.misses
        stats.update(self._fault_totals)
        fault_stats = getattr(self.kv_store, "fault_stats", None)
        if fault_stats is not None:
            stats.update(fault_stats.as_dict())
        return stats

    def reset_cache_stats(self) -> None:
        """Zero the KV store and tokenizer counters (e.g. between cells)."""
        self.kv_store.reset_stats()
        self._encodings.reset_stats()
        self._fault_totals = {key: 0 for key in _FAULT_STAT_KEYS}
        reset_faults = getattr(self.kv_store, "reset_fault_stats", None)
        if reset_faults is not None:
            reset_faults()

    # ------------------------------------------------------------------
    def _estimate_ttft(
        self,
        n_context: int,
        n_suffix: int,
        n_miss: int,
        ratio: float,
        device: StorageDevice,
        store_read_delay_s: float = 0.0,
    ) -> float:
        """TTFT estimate on the paper architecture, including cold-chunk cost."""
        cost_model = self.controller.cost_model
        n_total = n_context + n_suffix
        ttft = cost_model.ttft_cacheblend(n_total, n_suffix, ratio, device, pipelined=True)
        if n_miss > 0:
            # Cold chunks must be prefilled (they are then stored for later).
            ttft += cost_model.prefill_time(n_miss)
        # Hits served from a slow store tier read slower than `device`; the
        # excess extends the load side of the pipeline.
        return ttft + store_read_delay_s
