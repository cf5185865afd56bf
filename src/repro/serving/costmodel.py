"""Analytical serving cost model.

Estimates prefill, decode and KV-loading delays for the paper's model
architectures without executing them.  The model is calibrated against the
figures quoted in the paper:

* prefill of a ~4K-token context takes seconds on 34B/70B-class models
  (paper §2: ~3 s for a 34B model, ~6 s for 70B on one A40);
* recomputing 15 % of a 4K context on Llama-7B takes ~3 ms per layer while
  loading one layer's KV from an NVMe SSD takes ~16 ms (paper §5);
* KV cache size per token follows directly from the architecture
  (2 x layers x kv_heads x head_dim x dtype bytes).

Only *relative* behaviour matters for the reproduction (who wins, by what
factor, where the crossovers are); fitting the constants to those figures
keeps absolute numbers in the right ballpark so the figures read like the
paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pipeline import pipelined_time, sequential_time
from repro.kvstore.device import StorageDevice
from repro.kvstore.precision import PrecisionPolicy
from repro.model.config import ModelConfig


def predict_first_token_time(
    ttft_service: float,
    n_prefill_iters: int = 1,
    prefill_backlog_s: float = 0.0,
    decode_iteration_s: float = 0.0,
) -> float:
    """Predicted service seconds until a newly admitted request's first token
    under iteration-level continuous batching.

    The newcomer's chunked prefill spans ``n_prefill_iters`` iterations, each
    of which also runs one decode step of every request already generating,
    costing ``decode_iteration_s`` (the sum of their serial analytic slices).
    The running batch's remaining prefill backlog (``prefill_backlog_s``)
    serialises on the GPU ahead of the newcomer's own slices.  The admission
    controller adds the time the request already waited in the arrival queue
    on top of this estimate and compares the sum against the request's
    deadline.
    """
    if n_prefill_iters < 1:
        raise ValueError("n_prefill_iters must be >= 1")
    return prefill_backlog_s + ttft_service + n_prefill_iters * decode_iteration_s


@dataclass(frozen=True)
class GPUSpec:
    """Compute/bandwidth characteristics of one GPU (A40-class by default)."""

    name: str = "a40"
    flops: float = 1.0e14            # sustained FP16 FLOP/s during prefill
    hbm_bandwidth: float = 0.6e12    # bytes/s, bounds memory-bound decode
    overhead_s: float = 0.01         # per-request fixed overhead (kernel launch etc.)


@dataclass
class ServingCostModel:
    """Delay estimators for one model served on ``n_gpus`` GPUs.

    Every number is an analytic projection to the paper architecture in
    ``model``; nothing here is measured on the machine running it.

    ``precision`` (a :class:`~repro.kvstore.precision.PrecisionPolicy` or a
    preset name) overrides the architecture's ``dtype_bytes`` for every KV
    bandwidth term — loading delays and decode memory traffic are priced at
    the policy's mean bytes per element — so the cost model agrees with the
    store that actually holds the bytes.  ``None`` keeps the legacy
    behaviour (the model preset's scalar ``dtype_bytes``).
    """

    model: ModelConfig
    gpu: GPUSpec = field(default_factory=GPUSpec)
    n_gpus: int = 1
    precision: PrecisionPolicy | str | None = None

    def __post_init__(self) -> None:
        if self.n_gpus < 1:
            raise ValueError("n_gpus must be >= 1")
        if self.precision is not None:
            self.precision = PrecisionPolicy.get(self.precision)

    # ------------------------------------------------------------------
    # Prefill / recompute
    # ------------------------------------------------------------------
    @property
    def _effective_flops(self) -> float:
        return self.gpu.flops * self.n_gpus

    def prefill_time(self, n_tokens: int) -> float:
        """Full-prefill delay (the full-KV-recompute TTFT, minus decoding)."""
        if n_tokens <= 0:
            return 0.0
        return self.gpu.overhead_s + self.model.prefill_flops(n_tokens) / self._effective_flops

    def prefill_layer_time(self, n_tokens: int) -> float:
        """Per-layer share of the full prefill delay."""
        if n_tokens <= 0:
            return 0.0
        return (self.prefill_time(n_tokens) - self.gpu.overhead_s) / self.model.n_layers

    def recompute_layer_time(self, n_tokens: int, ratio: float) -> float:
        """Per-layer selective-recompute delay at recompute ratio *ratio*.

        The paper models this as ``ratio x`` the per-layer prefill cost
        (footnote 5): only the selected tokens' projections, attention rows
        and MLP are computed.
        """
        if not 0.0 <= ratio <= 1.0:
            raise ValueError("ratio must be in [0, 1]")
        return ratio * self.prefill_layer_time(n_tokens)

    def recompute_time(self, n_tokens: int, ratio: float) -> float:
        """Total selective recompute delay across layers."""
        return self.model.n_layers * self.recompute_layer_time(n_tokens, ratio)

    def prefill_time_with_prefix(self, n_tokens: int, n_prefix: int) -> float:
        """Prefill delay when the KV cache of the first *n_prefix* tokens is reused.

        Only the suffix tokens are projected through the linear layers, but
        their attention still spans the whole context.
        """
        if n_prefix < 0 or n_prefix > n_tokens:
            raise ValueError("n_prefix must be within [0, n_tokens]")
        n_suffix = n_tokens - n_prefix
        if n_suffix == 0:
            return self.gpu.overhead_s
        linear = 2.0 * self.model.approx_parameters() * n_suffix
        attention = 4.0 * self.model.n_layers * float(n_suffix) * n_tokens * self.model.hidden_size
        return self.gpu.overhead_s + (linear + attention) / self._effective_flops

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def decode_time_per_token(self, batch_size: int = 1, context_tokens: int = 0) -> float:
        """Per-token decode delay for a batch (memory- or compute-bound)."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        params = self.model.approx_parameters()
        compute = 2.0 * params * batch_size / self._effective_flops
        weight_bytes = params * self.model.dtype_bytes
        kv_bytes = self.kv_bytes(context_tokens) * batch_size
        memory = (weight_bytes + kv_bytes) / (self.gpu.hbm_bandwidth * self.n_gpus)
        return max(compute, memory)

    def decode_time(
        self, n_new_tokens: int, batch_size: int = 1, context_tokens: int = 0
    ) -> float:
        """Delay of generating *n_new_tokens* tokens, integrating KV growth.

        Each generated token appends to the KV cache, so token ``k`` decodes
        against ``context_tokens + k`` of context.  Pricing the whole
        generation at the *initial* context (the former behaviour)
        underestimates long decodes; this sums the per-token delay over the
        growing context in closed form: tokens below the compute/memory
        crossover cost the flat compute-bound delay, the rest the linearly
        growing memory-bound one (an arithmetic series).
        """
        if n_new_tokens <= 0:
            return 0.0
        params = self.model.approx_parameters()
        compute = 2.0 * params * batch_size / self._effective_flops
        bandwidth = self.gpu.hbm_bandwidth * self.n_gpus
        weight_bytes = params * self.model.dtype_bytes
        kv_per_token = self.kv_bytes_per_token() * batch_size
        first, last = context_tokens, context_tokens + n_new_tokens - 1
        if (weight_bytes + kv_per_token * last) / bandwidth <= compute:
            return n_new_tokens * compute  # compute-bound for the whole decode
        if kv_per_token > 0:
            crossover = int(np.ceil((compute * bandwidth - weight_bytes) / kv_per_token))
            crossover = min(max(crossover, first), last + 1)
        else:
            crossover = first  # memory-bound throughout (weights alone dominate)
        n_compute_bound = crossover - first
        n_memory_bound = n_new_tokens - n_compute_bound
        memory_total = (
            n_memory_bound * weight_bytes
            + kv_per_token * (crossover + last) * n_memory_bound / 2.0
        ) / bandwidth
        return n_compute_bound * compute + memory_total

    # ------------------------------------------------------------------
    # KV loading
    # ------------------------------------------------------------------
    def kv_bytes_per_token_per_layer(self) -> float:
        """Stored K+V bytes per token per layer at the effective precision."""
        if self.precision is not None:
            return self.precision.kv_bytes_per_token_per_layer(
                self.model.n_kv_heads, self.model.head_dim, self.model.n_layers
            )
        return float(self.model.kv_bytes_per_token_per_layer())

    def kv_bytes_per_token(self) -> float:
        """Stored KV bytes per token across layers at the effective precision."""
        return self.model.n_layers * self.kv_bytes_per_token_per_layer()

    def kv_bytes(self, n_tokens: int) -> int:
        return int(round(n_tokens * self.kv_bytes_per_token()))

    def kv_load_time_per_layer(self, n_tokens: int, device: StorageDevice) -> float:
        """Delay of loading one layer's KV for *n_tokens* from *device*."""
        layer_bytes = n_tokens * self.kv_bytes_per_token_per_layer()
        return device.read_time(layer_bytes)

    def kv_load_time(self, n_tokens: int, device: StorageDevice) -> float:
        """Delay of loading the whole KV cache sequentially from *device*."""
        return self.model.n_layers * self.kv_load_time_per_layer(n_tokens, device)

    def kv_store_cost(
        self, n_tokens: int, device: StorageDevice, duration_months: float = 1.0
    ) -> float:
        """Dollar cost of keeping the KV cache of *n_tokens* on *device*."""
        return device.storage_cost(self.kv_bytes(n_tokens), duration_months)

    # ------------------------------------------------------------------
    # End-to-end TTFT estimates per serving scheme
    # ------------------------------------------------------------------
    def _tiered_layer_load(
        self,
        n_tokens: int,
        device: StorageDevice,
        n_fast_tokens: int,
        fast_device: StorageDevice | None,
    ) -> float:
        """Per-layer load delay of *n_tokens*, a part resident on a fast tier.

        With ``n_fast_tokens == 0`` (or no fast device) this is exactly
        ``kv_load_time_per_layer(n_tokens, device)`` — the untiered pricing.
        """
        if n_fast_tokens <= 0 or fast_device is None:
            return self.kv_load_time_per_layer(n_tokens, device)
        n_fast = min(n_fast_tokens, n_tokens)
        return self.kv_load_time_per_layer(
            n_tokens - n_fast, device
        ) + self.kv_load_time_per_layer(n_fast, fast_device)

    def ttft_full_reuse(
        self,
        n_tokens: int,
        n_suffix: int,
        device: StorageDevice,
        pipelined: bool = True,
        n_fast_tokens: int = 0,
        fast_device: StorageDevice | None = None,
    ) -> float:
        """Full KV reuse: load everything, recompute only the new suffix.

        ``n_fast_tokens``/``fast_device`` split the loaded context across a
        tiered store: that many tokens read at the fast tier's rate, the
        rest at *device* (the slow tier).
        """
        load = [
            self._tiered_layer_load(n_tokens, device, n_fast_tokens, fast_device)
        ] * self.model.n_layers
        suffix_fraction = n_suffix / n_tokens if n_tokens else 0.0
        compute = [
            self.recompute_layer_time(n_tokens, suffix_fraction)
        ] * self.model.n_layers
        total = pipelined_time(load, compute) if pipelined else sequential_time(load, compute)
        return self.gpu.overhead_s + total

    def ttft_cacheblend(
        self,
        n_tokens: int,
        n_suffix: int,
        ratio: float,
        device: StorageDevice,
        pipelined: bool = True,
        n_fast_tokens: int = 0,
        fast_device: StorageDevice | None = None,
    ) -> float:
        """CacheBlend TTFT: per-layer max of KV loading and selective recompute.

        ``n_fast_tokens``/``fast_device`` price a tiered store: that many of
        the loaded context tokens read at the fast tier's rate, the rest at
        *device*.  The defaults reproduce the untiered single-device cost.
        """
        if n_tokens <= 0:
            return 0.0
        n_context = n_tokens - n_suffix
        recomputed_fraction = (ratio * n_context + n_suffix) / n_tokens
        load = [
            self._tiered_layer_load(n_context, device, n_fast_tokens, fast_device)
        ] * self.model.n_layers
        compute = [
            self.recompute_layer_time(n_tokens, recomputed_fraction)
        ] * self.model.n_layers
        # Layer 0 is fully recomputed to seed HKVD selection.
        compute[0] = self.prefill_layer_time(n_tokens)
        total = pipelined_time(load, compute) if pipelined else sequential_time(load, compute)
        return self.gpu.overhead_s + total
