"""Inference engine: per-request service-time estimates per serving scheme.

The engine turns a :class:`~repro.serving.request.GenerationRequest` into the
delays that matter for end-to-end serving:

* ``gpu_time`` — how long the GPU is busy on the request's prefill (this is
  what limits throughput; KV loading from RAM/SSD overlaps and does not
  occupy the GPU);
* ``ttft_service`` — the service part of TTFT (prefill or pipelined
  load+recompute; the first token is the argmax of the prefill's last
  logits, so no decode step is part of it);
* ``decode_time`` — the ``n_output_tokens - 1`` decode steps after the first
  token.

Supported schemes mirror the paper's baselines: ``full_recompute``,
``prefix_caching``, ``full_reuse`` and ``cacheblend``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kvstore.device import StorageDevice
from repro.serving.costmodel import ServingCostModel
from repro.serving.request import GenerationRequest

SCHEMES = ("full_recompute", "prefix_caching", "full_reuse", "cacheblend")


@dataclass(frozen=True)
class EngineResult:
    """Service-time breakdown of one request.

    ``recomputed_fraction`` is the fraction of the input tokens whose KV was
    (re)computed on the GPU rather than loaded from the cache — 1.0 for full
    recompute, the suffix share for full reuse, and roughly the recompute
    ratio for CacheBlend.  The experiment runner aggregates it to report how
    much prefill compute each scheme actually spends.

    ``stall_time`` is the part of ``ttft_service`` the GPU spends *waiting*
    on KV loads rather than computing (zero for compute-only schemes).  A
    cross-request-pipelining scheduler can hide it behind other requests'
    compute — see ``ContinuousBatchingScheduler(overlap_loads=True)``.
    """

    scheme: str
    gpu_time: float
    ttft_service: float
    decode_time: float
    recomputed_fraction: float = 1.0
    stall_time: float = 0.0


@dataclass
class InferenceEngine:
    """Service-time estimator for one scheme on one model/device pair.

    ``fast_device`` models a tiered KV store: requests carrying a
    ``slow_tier_fraction`` split their cached-context loads between this
    (RAM) tier and ``device`` (the slow tier).  Without it — or for requests
    with ``slow_tier_fraction=None`` — all cached loads are priced at
    ``device``, the historical single-store behaviour.
    """

    cost_model: ServingCostModel
    scheme: str = "cacheblend"
    device: StorageDevice | None = None
    recompute_ratio: float = 0.15
    fast_device: StorageDevice | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.scheme in ("full_reuse", "cacheblend") and self.device is None:
            raise ValueError(f"scheme {self.scheme!r} requires a storage device")
        if not 0.0 <= self.recompute_ratio <= 1.0:
            raise ValueError("recompute_ratio must be in [0, 1]")

    # ------------------------------------------------------------------
    def serve(self, request: GenerationRequest) -> EngineResult:
        """Estimate the service times of *request* under this engine's scheme."""
        n_total = request.n_total_tokens
        n_suffix = request.n_suffix_tokens
        cached_context = int(round(request.cached_chunk_fraction * request.n_context_tokens))
        cold_context = request.n_context_tokens - cached_context
        # Tiered store split of the cached context: fast-tier tokens read at
        # the RAM tier's rate, the rest at `device` (the slow tier).
        fast_context = 0
        if request.slow_tier_fraction is not None and self.fast_device is not None:
            slow_context = min(
                cached_context, int(round(request.slow_tier_fraction * cached_context))
            )
            fast_context = cached_context - slow_context

        if self.scheme == "full_recompute":
            prefill = self.cost_model.prefill_time(n_total)
            gpu_time = prefill
            ttft_service = prefill
            recomputed = float(n_total)
        elif self.scheme == "prefix_caching":
            n_prefix = int(round(request.prefix_cached_fraction * request.n_context_tokens))
            prefill = self.cost_model.prefill_time_with_prefix(n_total, n_prefix)
            gpu_time = prefill
            ttft_service = prefill
            recomputed = float(n_total - n_prefix)
        elif self.scheme == "full_reuse":
            ttft_service = self.cost_model.ttft_full_reuse(
                cached_context + n_suffix,
                n_suffix,
                self.device,
                n_fast_tokens=fast_context,
                fast_device=self.fast_device,
            )
            gpu_time = self.cost_model.recompute_time(
                cached_context + n_suffix, n_suffix / max(1, cached_context + n_suffix)
            )
            recomputed = float(n_suffix + cold_context)
            if cold_context:
                cold = self.cost_model.prefill_time(cold_context)
                ttft_service += cold
                gpu_time += cold
        else:  # cacheblend
            ttft_service = self.cost_model.ttft_cacheblend(
                cached_context + n_suffix,
                n_suffix,
                self.recompute_ratio,
                self.device,
                n_fast_tokens=fast_context,
                fast_device=self.fast_device,
            )
            recomputed_fraction = (
                self.recompute_ratio * cached_context + n_suffix
            ) / max(1, cached_context + n_suffix)
            # Selective recompute on layers 1..L-1; layer 0 is a full prefill
            # (matching the per-layer schedule priced by ttft_cacheblend).
            n_layers = self.cost_model.model.n_layers
            gpu_time = self.cost_model.recompute_layer_time(
                cached_context + n_suffix, recomputed_fraction
            ) * (n_layers - 1)
            gpu_time += self.cost_model.prefill_layer_time(cached_context + n_suffix)
            recomputed = self.recompute_ratio * cached_context + n_suffix + cold_context
            if cold_context:
                cold = self.cost_model.prefill_time(cold_context)
                ttft_service += cold
                gpu_time += cold

        # The first token comes from the prefill; each later one is one decode
        # step, the first of them against n_total + 1 rows (the first token's
        # KV is appended when it is fed back).
        remaining_decode = self.cost_model.decode_time(
            max(0, request.n_output_tokens - 1), context_tokens=n_total + 1
        )
        # Pure device-wait share of the service time: what remains after the
        # GPU work *and* the per-request launch overhead (overhead is GPU-side
        # and cannot be hidden behind another request's compute).
        stall = max(0.0, ttft_service - gpu_time - self.cost_model.gpu.overhead_s)
        return EngineResult(
            scheme=self.scheme,
            gpu_time=gpu_time,
            ttft_service=ttft_service,
            decode_time=remaining_decode,
            recomputed_fraction=min(1.0, recomputed / max(1, n_total)),
            stall_time=stall,
        )

    def serve_batch(self, requests: list[GenerationRequest]) -> list[EngineResult]:
        """Estimate service times for a batch of requests, in order."""
        return [self.serve(request) for request in requests]
