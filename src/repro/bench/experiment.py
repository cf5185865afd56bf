"""Scheme × model × device × recompute-ratio experiment sweeps.

:class:`ExperimentRunner` replays one synthesized workload (the same request
stream, for fairness) per sweep cell: its chunk accesses go through real chunk
KV stores (:mod:`repro.bench.replay`), an :class:`~repro.serving.engine.
InferenceEngine` prices each request from what its store held, continuous
batching schedules the stream, and the runner aggregates the serving metrics
the paper reports: TTFT percentiles, throughput, queueing delay, GPU
utilisation and the fraction of prefill compute actually spent (recompute
fraction).  Every cell is a deterministic projection to the
paper's architectures.  Optionally a small :class:`~repro.core.blend_engine.
BlendEngine` probe runs the real NumPy fusion pipeline — *pipelined*, through
the executor, with cross-request overlap — and attaches its measured
trace-derived TTFTs (beside the analytic estimates), recompute fractions and
KV-store hit rates to the report's ``proxy`` block; it never changes a cell.

Quality is attached per scheme as a static score calibrated to the paper's
accuracy results (§6.2): full recompute and prefix caching are exact,
CacheBlend is statistically indistinguishable from full prefill, while full
KV reuse loses substantial F1/Rouge by ignoring cross-chunk attention.  The
``quality_adjusted_ttft`` of a cell inflates its TTFT by its quality deficit
so "fast but wrong" baselines can be compared against CacheBlend on one axis.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.bench.replay import FleetRun, chunk_store_config, simulate_fleet
from repro.bench.workload import ARRIVAL_PATTERNS, WorkloadGenerator
from repro.kvstore.config import StoreConfig
from repro.kvstore.device import get_device
from repro.kvstore.precision import PRECISION_PRESETS
from repro.model.config import get_config
from repro.serving.costmodel import ServingCostModel
from repro.serving.engine import SCHEMES, EngineResult, InferenceEngine
from repro.serving.request import GenerationRequest, RequestTiming
from repro.serving.router import ROUTING_POLICIES
from repro.serving.scheduler import ContinuousBatchingScheduler

#: Static per-scheme generation-quality scores (relative to full prefill),
#: calibrated to the paper's §6.2 quality results.
QUALITY_SCORES: dict[str, float] = {
    "full_recompute": 1.0,
    "prefix_caching": 1.0,
    "full_reuse": 0.80,
    "cacheblend": 0.99,
}

#: Admission-policy axis values: ``none`` serves every arrival (the classic
#: behaviour), ``slo`` turns on the scheduler's SLO admission control *and*
#: decode preemption so overload is shed instead of queued.
ADMISSION_POLICIES = ("none", "slo")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: the cross product of models × devices × schemes × ratios."""

    models: tuple[str, ...] = ("mistral-7b", "yi-34b")
    devices: tuple[str, ...] = ("cpu_ram", "nvme_ssd")
    schemes: tuple[str, ...] = SCHEMES
    recompute_ratios: tuple[float, ...] = (0.15,)
    dataset: str = "2wikimqa"
    request_rate: float = 1.0
    n_requests: int = 100
    n_servers: int = 1
    max_batch_tokens: int = 16_384
    prefill_chunk_tokens: int = 512
    n_unique_chunks: int = 400
    zipf_alpha: float = 1.0
    cache_chunk_capacity: int = 160
    #: Optional store-capacity axis: RAM-tier capacities (in chunks) of a
    #: RAM→slow :class:`~repro.kvstore.hierarchy.TieredKVStore`.  For each
    #: capacity every cell replays the workload's access trace through that
    #: real (inclusive) tiered store and is served with the resulting
    #: per-request cached/slow-tier fractions — exposing the hit-rate/TTFT
    #: hockey-stick as the store thrashes under Zipf.  Empty (default) keeps
    #: the single LRU store of ``cache_chunk_capacity`` chunks.
    store_capacity_chunks: tuple[int, ...] = ()
    #: Slow-tier capacity as a multiple of the RAM-tier capacity.
    store_slow_capacity_factor: float = 4.0
    #: Arrival process of the synthesized workload (see
    #: :data:`~repro.bench.workload.ARRIVAL_PATTERNS`): ``bursty`` and
    #: ``diurnal`` concentrate the same average load into transient overload
    #: windows — the regime the SLO admission axis is measured under.
    arrival_pattern: str = "poisson"
    #: TTFT deadline stamped on every generated request.  Required when the
    #: admission axis includes ``"slo"``; without it admission control has
    #: nothing to enforce and would silently admit everything.
    ttft_slo_s: float | None = None
    #: Admission-policy axis: every cell is scheduled once per policy and
    #: carries an ``admission_policy`` column, so a single report compares
    #: goodput with and without SLO admission + preemption.
    admission_policies: tuple[str, ...] = ("none",)
    #: Chunk-store fault axis: each cached chunk independently fails its KV
    #: lookup with this probability (seeded binomial per request) and is
    #: recomputed from scratch — the sweep-level analogue of the engine's
    #: retry-then-recompute fallback.  Cells report the recomputed-chunk
    #: count and the measured TTFT inflation against a clean twin run.
    fault_rate: float = 0.0
    #: Fleet axis: replica counts to sweep (e.g. ``(1, 2, 4, 8)``).  For
    #: each size × routing policy the workload's chunk access trace is
    #: routed over that many engine replicas — each with a *private* chunk
    #: store (the cell's store point) and its own scheduler over
    #: ``n_servers`` servers — and the cell reports aggregate throughput,
    #: per-replica hit rates and utilisation skew.  Empty (default) keeps
    #: the single-replica sweep.  Like every axis, it composes with the
    #: others.
    fleet_sizes: tuple[int, ...] = ()
    #: Routing policies of the fleet axis (see
    #: :data:`~repro.serving.router.ROUTING_POLICIES`).
    routing_policies: tuple[str, ...] = ROUTING_POLICIES
    #: KV precision axis: store dtype presets to sweep (see
    #: :data:`~repro.kvstore.precision.PRECISION_PRESETS`).  Each cell is
    #: priced under that :class:`~repro.kvstore.precision.PrecisionPolicy`
    #: (KV load *and* decode memory traffic scale with the policy's bytes
    #: per token), carries a ``kv_dtype`` column plus policy-priced
    #: ``store_bytes_stored``, and is annotated with the measured fusion
    #: quality of that dtype — mean KV / attention deviation of the proxy
    #: model's fused output against a full-recompute reference.  Together
    #: these trace the quality × density × TTFT frontier.  Empty (default)
    #: keeps the single-precision behaviour.
    kv_dtypes: tuple[str, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival_pattern not in ARRIVAL_PATTERNS:
            raise ValueError(
                f"unknown arrival_pattern {self.arrival_pattern!r}; "
                f"expected one of {ARRIVAL_PATTERNS}"
            )
        if self.ttft_slo_s is not None and self.ttft_slo_s <= 0:
            raise ValueError("ttft_slo_s must be positive when set")
        if not self.admission_policies:
            raise ValueError("admission_policies must be non-empty")
        for policy in self.admission_policies:
            if policy not in ADMISSION_POLICIES:
                raise ValueError(
                    f"unknown admission policy {policy!r}; "
                    f"expected one of {ADMISSION_POLICIES}"
                )
        if "slo" in self.admission_policies and self.ttft_slo_s is None:
            raise ValueError(
                "the 'slo' admission policy requires ttft_slo_s: without "
                "deadlines admission control admits everything"
            )
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        if any(size < 1 for size in self.fleet_sizes):
            raise ValueError("fleet_sizes entries must be >= 1")
        if not self.routing_policies:
            raise ValueError("routing_policies must be non-empty")
        for policy in self.routing_policies:
            if policy not in ROUTING_POLICIES:
                raise ValueError(
                    f"unknown routing policy {policy!r}; "
                    f"expected one of {ROUTING_POLICIES}"
                )
        for dtype in self.kv_dtypes:
            if dtype not in PRECISION_PRESETS:
                raise ValueError(
                    f"unknown kv_dtype {dtype!r}; "
                    f"expected one of {PRECISION_PRESETS}"
                )
        if any(capacity < 1 for capacity in self.store_capacity_chunks):
            raise ValueError("store_capacity_chunks entries must be >= 1")
        if self.store_slow_capacity_factor < 1.0:
            raise ValueError("store_slow_capacity_factor must be >= 1")
        if not self.models or not self.devices or not self.schemes:
            raise ValueError("models, devices and schemes must be non-empty")
        for scheme in self.schemes:
            if scheme not in SCHEMES:
                raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
        if not self.recompute_ratios:
            raise ValueError("recompute_ratios must be non-empty")
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")

    @classmethod
    def smoke(cls) -> "ExperimentConfig":
        """Small sweep that finishes in seconds (used by CI and --smoke)."""
        return cls(n_requests=60, request_rate=0.8)


@dataclass
class CellResult:
    """Aggregated metrics of one sweep cell."""

    model: str
    device: str
    scheme: str
    recompute_ratio: float
    mean_ttft: float
    p50_ttft: float
    p90_ttft: float
    p99_ttft: float
    mean_queueing: float
    mean_ttft_service: float
    throughput: float
    gpu_utilisation: float
    mean_recomputed_fraction: float
    quality: float
    quality_adjusted_ttft: float
    #: Mean per-request decode throughput over the scheduled run (tokens
    #: after the first, per second of first-token-to-completion span).
    mean_decode_tokens_per_s: float = 0.0
    #: Store columns (``None`` unless the capacity or precision axis is on):
    #: the RAM-tier capacity in chunks this cell was served under (capacity
    #: axis only), the chunk hit rate of the cell's stores over the workload
    #: replay, the KV bytes resident across their tiers at the cell's KV
    #: width, and the share of hits served from a slow tier.
    store_capacity_chunks: int | None = None
    store_hit_rate: float | None = None
    store_bytes_stored: int | None = None
    store_slow_tier_hit_share: float | None = None
    #: KV precision axis columns (``None`` when the axis is off): the store
    #: dtype preset this cell was priced under, and the measured quality of
    #: that dtype on the proxy model — the mean KV deviation the store
    #: quantisation introduces on chunk caches, and the end-to-end
    #: forward-attention deviation of the fused output against a
    #: full-recompute reference (the paper's Figure-6 metric).
    kv_dtype: str | None = None
    mean_kv_deviation: float | None = None
    mean_attention_deviation: float | None = None
    #: Robustness columns.  ``admission_policy`` names the scheduling policy
    #: this cell ran under; ``goodput`` is SLO-met requests per second of
    #: served makespan (equal to throughput when no deadline is set);
    #: ``slo_attainment`` counts rejected requests as misses, so shedding
    #: load only pays off when the survivors actually meet their deadlines.
    admission_policy: str = "none"
    goodput: float = 0.0
    slo_attainment: float = 1.0
    rejection_rate: float = 0.0
    preemption_count: int = 0
    #: Fault axis columns: the injected per-chunk lookup failure rate, how
    #: many cached chunks this cell recovered by recomputing, and the mean
    #: TTFT of the faulted run over its clean twin (``None`` with faults off).
    fault_rate: float = 0.0
    fault_recovered_chunks: int = 0
    fault_ttft_inflation: float | None = None
    #: Fleet axis columns (``None`` when the axis is off): the routing
    #: policy and replica count this cell ran under, the served throughput
    #: across all replicas, each replica's private-store hit rate, the
    #: fleet-wide hit rate, and the max/mean replica busy share (1.0 is a
    #: perfectly even fleet).
    routing_policy: str | None = None
    n_replicas: int | None = None
    aggregate_throughput: float | None = None
    per_replica_hit_rates: list[float] | None = None
    fleet_hit_rate: float | None = None
    utilisation_skew: float | None = None

    def as_dict(self) -> dict[str, object]:
        return asdict(self)


@dataclass
class ExperimentReport:
    """Everything one sweep produced, ready for JSON serialisation."""

    config: ExperimentConfig
    workload: dict[str, object]
    cells: list[CellResult]
    comparisons: list[dict[str, object]] = field(default_factory=list)
    proxy: dict[str, object] | None = None


class ExperimentRunner:
    """Runs one :class:`ExperimentConfig` sweep over a shared workload."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def _generate_workload(
        self,
    ) -> tuple[list[GenerationRequest], dict[str, object], list[list[int]]]:
        generator = WorkloadGenerator(
            dataset=self.config.dataset,
            request_rate=self.config.request_rate,
            arrival_pattern=self.config.arrival_pattern,
            ttft_slo_s=self.config.ttft_slo_s,
            n_unique_chunks=self.config.n_unique_chunks,
            zipf_alpha=self.config.zipf_alpha,
            cache_chunk_capacity=self.config.cache_chunk_capacity,
            seed=self.config.seed,
        )
        requests = generator.generate(self.config.n_requests)
        return requests, generator.stats.as_dict(), generator.chunk_ids

    def store_config(self, capacity: int | None) -> StoreConfig:
        """The store each replica replays through at a capacity-axis point.

        ``None`` (the axis off) is one LRU store of ``cache_chunk_capacity``
        chunks; a capacity is a RAM tier of that many chunks over a slow tier
        ``store_slow_capacity_factor`` times larger.
        """
        if capacity is None:
            return chunk_store_config(self.config.cache_chunk_capacity)
        slow = max(1, int(round(capacity * self.config.store_slow_capacity_factor)))
        return chunk_store_config(capacity, slow)

    # ------------------------------------------------------------------
    def run_cell(
        self,
        requests: list[GenerationRequest],
        chunk_ids: list[list[int]],
        model: str,
        device: str,
        scheme: str,
        recompute_ratio: float,
        admission_policy: str = "none",
        kv_dtype: str | None = None,
        store_capacity: int | None = None,
        fleet: tuple[str, int] | None = None,
    ) -> CellResult:
        """Serve the shared workload in one sweep cell and aggregate it.

        The cell replays the workload's access trace (*chunk_ids*) through
        real chunk stores built by :meth:`store_config` at *store_capacity*
        (:func:`~repro.bench.replay.simulate_fleet`): one replica, or, with
        *fleet* ``(routing_policy, n_replicas)``, that many replicas behind
        the router; every replica is run by ``n_servers`` servers.
        Each request is served with the cached/prefix/slow-tier fractions
        its home store gave it.  With a ``fault_rate`` the seeded fault draw
        recomputes that share of the cached chunks, and a fault-free twin run
        gives ``fault_ttft_inflation`` — the TTFT cost of the recomputes.

        Under ``admission_policy="slo"`` the continuous scheduler rejects
        requests whose predicted TTFT misses their deadline and preempts
        decode slots for at-risk prefills; rejected requests are excluded
        from the service-quality aggregates but counted in
        ``rejection_rate`` and ``slo_attainment``.

        *kv_dtype* (the precision axis) prices the cell's KV traffic — load
        bandwidth, decode memory reads and resident store bytes — at that
        store precision policy's bytes per token instead of the model
        preset's native width.
        """
        cost_model = ServingCostModel(get_config(model), precision=kv_dtype)
        needs_device = scheme in ("full_reuse", "cacheblend")
        engine = InferenceEngine(
            cost_model,
            scheme=scheme,
            device=get_device(device) if needs_device else None,
            recompute_ratio=recompute_ratio,
            # Tiered pricing: requests carrying a slow_tier_fraction split
            # their cached loads between the RAM tier and `device`; requests
            # from a single-tier store (fraction None) ignore it entirely.
            fast_device=get_device("cpu_ram") if needs_device else None,
        )
        policy, n_replicas = fleet or ("least_loaded", 1)
        scheduler = ContinuousBatchingScheduler(
            n_servers=self.config.n_servers,
            max_batch_tokens=self.config.max_batch_tokens,
            prefill_chunk_tokens=self.config.prefill_chunk_tokens,
            slo=admission_policy == "slo",
        )

        def serve(fault_rate: float) -> FleetRun:
            return simulate_fleet(
                requests,
                chunk_ids,
                policy=policy,
                n_replicas=n_replicas,
                engine=engine,
                scheduler=scheduler,
                store=self.store_config(store_capacity),
                fault_rate=fault_rate,
                seed=self.config.seed,
            )

        run = serve(self.config.fault_rate)
        cell = self._aggregate(
            model, device, scheme, recompute_ratio,
            run.requests, run.results, run.timings,
            admission_policy=admission_policy,
            n_servers=n_replicas * self.config.n_servers,
        )
        columns: dict[str, object] = {
            "kv_dtype": kv_dtype,
            "fault_recovered_chunks": run.n_faulted,
        }
        if self.config.fault_rate > 0.0:
            clean_ttfts = [t.ttft for t in serve(0.0).timings if not t.rejected]
            clean_mean = float(np.mean(clean_ttfts)) if clean_ttfts else 0.0
            if clean_mean > 0.0 and cell.mean_ttft > 0.0:
                columns["fault_ttft_inflation"] = cell.mean_ttft / clean_mean
        if store_capacity is not None or kv_dtype is not None:
            columns.update(
                store_capacity_chunks=store_capacity,
                store_hit_rate=run.aggregate_hit_rate,
                store_bytes_stored=cost_model.kv_bytes(run.resident_tokens),
                store_slow_tier_hit_share=run.slow_tier_hit_share,
            )
        if fleet is not None:
            columns.update(
                routing_policy=policy,
                n_replicas=n_replicas,
                aggregate_throughput=cell.throughput,
                per_replica_hit_rates=run.per_replica_hit_rates,
                fleet_hit_rate=run.aggregate_hit_rate,
                utilisation_skew=run.utilisation_skew,
            )
        return replace(cell, **columns)

    def _aggregate(
        self,
        model: str,
        device: str,
        scheme: str,
        recompute_ratio: float,
        requests: list[GenerationRequest],
        results: list[EngineResult],
        timings: list[RequestTiming],
        admission_policy: str,
        n_servers: int,
    ) -> CellResult:
        """One cell's serving metrics over *n_servers* servers in all.

        Rejected requests never occupy a server, so the service-quality
        aggregates (TTFT percentiles, queueing, throughput, utilisation) and
        the makespan they are rated over cover the *served* stream only; the
        rejections show up in ``rejection_rate`` and as SLO misses in
        ``slo_attainment``/``goodput``, where shedding is priced.
        ``gpu_utilisation`` sums each served request's
        :attr:`~repro.serving.engine.EngineResult.occupancy` and is not
        clamped: overlapped loads can legitimately push it past 1.
        """
        served = [
            (request, result, timing)
            for request, result, timing in zip(requests, results, timings)
            if not timing.rejected
        ]
        n_rejected = len(requests) - len(served)
        n_met_slo = sum(1 for timing in timings if timing.met_slo)
        preemption_count = sum(timing.n_preemptions for timing in timings)
        quality = QUALITY_SCORES[scheme]
        robustness = {
            "admission_policy": admission_policy,
            "slo_attainment": n_met_slo / len(requests),
            "rejection_rate": n_rejected / len(requests),
            "preemption_count": preemption_count,
            "fault_rate": self.config.fault_rate,
        }
        if not served:
            # The whole queue was shed: an honest all-zero service row beats
            # a crash, and rejection_rate == 1.0 makes the cause visible.
            return CellResult(
                model=model,
                device=device,
                scheme=scheme,
                recompute_ratio=recompute_ratio,
                mean_ttft=0.0,
                p50_ttft=0.0,
                p90_ttft=0.0,
                p99_ttft=0.0,
                mean_queueing=0.0,
                mean_ttft_service=0.0,
                throughput=0.0,
                gpu_utilisation=0.0,
                mean_recomputed_fraction=0.0,
                quality=quality,
                quality_adjusted_ttft=0.0,
                **robustness,
            )
        served_requests = [request for request, _, _ in served]
        served_results = [result for _, result, _ in served]
        served_timings = [timing for _, _, timing in served]
        makespan = max(t.completion_time for t in served_timings) - min(
            r.arrival_time for r in served_requests
        )
        ttfts = np.array([t.ttft for t in served_timings])
        mean_ttft = float(ttfts.mean())
        busy = sum(result.occupancy for result in served_results)
        decode_rates = [
            (request.n_output_tokens - 1) / span
            for request, timing in zip(served_requests, served_timings)
            if request.n_output_tokens > 1
            and (span := timing.completion_time - timing.first_token_time) > 0.0
        ]
        return CellResult(
            model=model,
            device=device,
            scheme=scheme,
            recompute_ratio=recompute_ratio,
            mean_ttft=mean_ttft,
            p50_ttft=float(np.percentile(ttfts, 50)),
            p90_ttft=float(np.percentile(ttfts, 90)),
            p99_ttft=float(np.percentile(ttfts, 99)),
            mean_queueing=float(np.mean([t.queueing_delay for t in served_timings])),
            mean_ttft_service=float(
                np.mean([r.ttft_service for r in served_results])
            ),
            throughput=len(served) / makespan if makespan > 0 else float("inf"),
            gpu_utilisation=(
                busy / (n_servers * makespan) if makespan > 0 else 1.0
            ),
            mean_recomputed_fraction=float(
                np.mean([r.recomputed_fraction for r in served_results])
            ),
            quality=quality,
            quality_adjusted_ttft=mean_ttft / quality,
            mean_decode_tokens_per_s=(
                float(np.mean(decode_rates)) if decode_rates else 0.0
            ),
            goodput=n_met_slo / makespan if makespan > 0 else 0.0,
            **robustness,
        )

    # ------------------------------------------------------------------
    def run(self, with_proxy: bool = False) -> ExperimentReport:
        """Run the full sweep; optionally attach a BlendEngine probe.

        The axes compose: the cells are the product of store capacity ×
        fleet (size × routing policy) × model × KV dtype × device × scheme ×
        admission policy × recompute ratio, each axis a single point when
        it is off.  Only ``cacheblend`` actually depends on the recompute
        ratio; the baseline schemes are served once per sweep point and
        their cell is replicated across ratios so every comparison row stays
        complete.

        With ``with_proxy`` the measured probe also runs: it executes the
        real pipelined fusion (cross-request) and its measurements fill the
        report's ``proxy`` block.  The cells do not depend on it.
        """
        proxy: dict[str, object] | None = None
        if with_proxy:
            proxy = run_proxy_probe(
                seed=self.config.seed, fault_rate=self.config.fault_rate
            )

        requests, workload_stats, chunk_ids = self._generate_workload()
        # The precision axis's measured fusion quality: one proxy-model probe
        # per dtype, shared by every cell at that dtype (it is scheme- and
        # device-independent).
        dtype_quality: dict[str, dict[str, float]] = {}
        if self.config.kv_dtypes:
            dtype_quality = run_quality_probe(
                self.config.kv_dtypes,
                seed=self.config.seed,
                recompute_ratio=self.config.recompute_ratios[0],
            )
        fleets: list[tuple[str, int] | None] = [
            (policy, n_replicas)
            for n_replicas in self.config.fleet_sizes
            for policy in self.config.routing_policies
        ] or [None]

        cells: list[CellResult] = []
        for capacity, fleet, model, kv_dtype, device, scheme, admission in (
            itertools.product(
                self.config.store_capacity_chunks or (None,),
                fleets,
                self.config.models,
                self.config.kv_dtypes or (None,),
                self.config.devices,
                self.config.schemes,
                self.config.admission_policies,
            )
        ):
            quality = dtype_quality.get(kv_dtype, {})
            base: CellResult | None = None
            for ratio in self.config.recompute_ratios:
                if scheme == "cacheblend" or base is None:
                    base = replace(
                        self.run_cell(
                            requests, chunk_ids, model, device, scheme, ratio,
                            admission_policy=admission,
                            kv_dtype=kv_dtype,
                            store_capacity=capacity,
                            fleet=fleet,
                        ),
                        mean_kv_deviation=quality.get("mean_kv_deviation"),
                        mean_attention_deviation=quality.get(
                            "mean_attention_deviation"
                        ),
                    )
                    cells.append(base)
                else:
                    cells.append(replace(base, recompute_ratio=ratio))
        return ExperimentReport(
            config=self.config,
            workload=workload_stats,
            cells=cells,
            comparisons=build_comparisons(cells),
            proxy=proxy,
        )


def _axis_columns(cell: CellResult, *names: str) -> dict[str, object]:
    """The named sweep-axis columns of *cell* that are set, for labelling
    comparison rows when several axes compose."""
    return {
        name: getattr(cell, name) for name in names if getattr(cell, name) is not None
    }


def build_comparisons(cells: list[CellResult]) -> list[dict[str, object]]:
    """Per (model, device, ratio): CacheBlend vs the paper's baselines.

    ``full_reuse`` is compared on its *quality-adjusted* TTFT — it answers
    faster but degrades generation quality, so its TTFT is inflated by the
    quality deficit before the comparison (see module docstring).
    """
    by_key: dict[tuple, dict[str, CellResult]] = {}
    for cell in cells:
        capacity_key = (
            cell.store_capacity_chunks if cell.store_capacity_chunks is not None else -1
        )
        by_key.setdefault(
            (
                cell.model,
                cell.device,
                cell.recompute_ratio,
                capacity_key,
                cell.admission_policy,
                cell.routing_policy,
                cell.n_replicas,
                cell.kv_dtype,
            ),
            {},
        )[cell.scheme] = cell
    comparisons: list[dict[str, object]] = []
    for key, schemes in sorted(
        by_key.items(), key=lambda item: tuple(map(str, item[0]))
    ):
        model, device, ratio, capacity_key, policy, routing, n_replicas, kv_dtype = key
        blend = schemes.get("cacheblend")
        if blend is None:
            continue
        row: dict[str, object] = {
            "model": model,
            "device": device,
            "recompute_ratio": ratio,
            "cacheblend_mean_ttft": blend.mean_ttft,
        }
        if policy != "none":
            row["admission_policy"] = policy
        if kv_dtype is not None:
            row["kv_dtype"] = kv_dtype
        if routing is not None:
            row["routing_policy"] = routing
            row["n_replicas"] = n_replicas
            row["fleet_hit_rate"] = blend.fleet_hit_rate
        if capacity_key >= 0:
            row["store_capacity_chunks"] = capacity_key
            row["store_hit_rate"] = blend.store_hit_rate
        recompute = schemes.get("full_recompute")
        if recompute is not None:
            row["full_recompute_mean_ttft"] = recompute.mean_ttft
            row["speedup_vs_full_recompute"] = (
                recompute.mean_ttft / blend.mean_ttft if blend.mean_ttft else float("inf")
            )
            row["cacheblend_beats_full_recompute"] = blend.mean_ttft < recompute.mean_ttft
        reuse = schemes.get("full_reuse")
        if reuse is not None:
            row["full_reuse_quality_adjusted_ttft"] = reuse.quality_adjusted_ttft
            row["cacheblend_beats_full_reuse_quality_adjusted"] = (
                blend.quality_adjusted_ttft < reuse.quality_adjusted_ttft
            )
        prefix = schemes.get("prefix_caching")
        if prefix is not None:
            row["prefix_caching_mean_ttft"] = prefix.mean_ttft
        comparisons.append(row)
    comparisons.extend(build_admission_comparisons(cells))
    comparisons.extend(build_routing_comparisons(cells))
    comparisons.extend(build_dtype_comparisons(cells))
    return comparisons


def _kv_bytes_per_token(model: str, kv_dtype: str) -> float:
    """KV bytes per token of *model* stored at the *kv_dtype* preset."""
    return ServingCostModel(get_config(model), precision=kv_dtype).kv_bytes_per_token()


def build_dtype_comparisons(cells: list[CellResult]) -> list[dict[str, object]]:
    """Per (model, device, scheme, ratio): each store dtype vs ``float16``.

    Pairs every precision-axis cell with its ``float16`` twin at the same
    sweep point and reports the frontier trade: the density gain of the
    narrower store dtype, the TTFT it buys (KV load and decode memory
    traffic shrink with the width) and the fusion-quality cost it is bought
    at (mean KV / attention deviation vs the full-recompute reference).  The
    ``mixed`` preset is the interesting middle point — near-int8 density at
    below-int8 deviation.

    The density gain is the ratio of the two dtypes' KV bytes per token on
    the row's model.  The cells' resident bytes (``store_bytes_*``) are
    reported beside it but do not set it: in a fleet each dtype's engine
    prices requests differently, so the router homes them differently and
    the two fleets hold different chunks.
    """
    by_point: dict[tuple, dict[str, CellResult]] = {}
    for cell in cells:
        if cell.kv_dtype is None:
            continue
        key = (
            cell.model,
            cell.device,
            cell.scheme,
            cell.recompute_ratio,
            cell.admission_policy,
            cell.store_capacity_chunks,
            cell.routing_policy,
            cell.n_replicas,
        )
        by_point.setdefault(key, {})[cell.kv_dtype] = cell
    rows: list[dict[str, object]] = []
    for key, dtypes in sorted(
        by_point.items(), key=lambda item: tuple(map(str, item[0]))
    ):
        model, device, scheme, ratio = key[:4]
        baseline = dtypes.get("float16")
        if baseline is None:
            continue
        base_width = _kv_bytes_per_token(model, "float16")
        for dtype in sorted(dtypes):
            if dtype == "float16":
                continue
            cell = dtypes[dtype]
            width = _kv_bytes_per_token(model, dtype)
            row: dict[str, object] = {
                "comparison": f"dtype_{dtype}_vs_float16",
                "model": model,
                "device": device,
                "scheme": scheme,
                "recompute_ratio": ratio,
                "store_bytes_float16": baseline.store_bytes_stored,
                f"store_bytes_{dtype}": cell.store_bytes_stored,
                "bytes_density_gain": base_width / width,
                "mean_ttft_float16": baseline.mean_ttft,
                f"mean_ttft_{dtype}": cell.mean_ttft,
                "mean_kv_deviation_float16": baseline.mean_kv_deviation,
                f"mean_kv_deviation_{dtype}": cell.mean_kv_deviation,
                "mean_attention_deviation_float16": (
                    baseline.mean_attention_deviation
                ),
                f"mean_attention_deviation_{dtype}": cell.mean_attention_deviation,
                f"{dtype}_denser_than_float16": width < base_width,
            }
            row.update(
                _axis_columns(cell, "store_capacity_chunks", "routing_policy", "n_replicas")
            )
            rows.append(row)
    return rows


def build_routing_comparisons(cells: list[CellResult]) -> list[dict[str, object]]:
    """Per (model, device, scheme, ratio, n_replicas): policy vs least-loaded.

    Pairs every affinity-aware fleet cell (``affinity``/``consistent_hash``)
    with its ``least_loaded`` twin at the same replica count and reports the
    headline number of the fleet experiments: the aggregate hit-rate gain of
    chunk-affine placement at equal request rate — alongside the utilisation
    skew and tail-TTFT cost it was bought at.
    """
    by_point: dict[tuple, dict[str, CellResult]] = {}
    for cell in cells:
        if cell.routing_policy is None:
            continue
        key = (
            cell.model,
            cell.device,
            cell.scheme,
            cell.recompute_ratio,
            cell.admission_policy,
            cell.n_replicas,
            cell.store_capacity_chunks,
            cell.kv_dtype,
        )
        by_point.setdefault(key, {})[cell.routing_policy] = cell
    rows: list[dict[str, object]] = []
    for key, policies in sorted(by_point.items(), key=lambda item: tuple(map(str, item[0]))):
        model, device, scheme, ratio, _admission, n_replicas = key[:6]
        baseline = policies.get("least_loaded")
        if baseline is None:
            continue
        for routing in ("affinity", "consistent_hash"):
            cell = policies.get(routing)
            if cell is None:
                continue
            base_hit = baseline.fleet_hit_rate or 0.0
            rows.append(
                {
                    "comparison": f"routing_{routing}_vs_least_loaded",
                    "model": model,
                    "device": device,
                    "scheme": scheme,
                    "recompute_ratio": ratio,
                    "n_replicas": n_replicas,
                    "fleet_hit_rate_least_loaded": base_hit,
                    f"fleet_hit_rate_{routing}": cell.fleet_hit_rate,
                    "hit_rate_gain": (cell.fleet_hit_rate or 0.0) - base_hit,
                    "utilisation_skew_least_loaded": baseline.utilisation_skew,
                    f"utilisation_skew_{routing}": cell.utilisation_skew,
                    "p99_ttft_least_loaded": baseline.p99_ttft,
                    f"p99_ttft_{routing}": cell.p99_ttft,
                    "aggregate_throughput_least_loaded": baseline.aggregate_throughput,
                    f"aggregate_throughput_{routing}": cell.aggregate_throughput,
                    f"{routing}_beats_least_loaded_hit_rate": (
                        (cell.fleet_hit_rate or 0.0) > base_hit
                    ),
                    **_axis_columns(cell, "store_capacity_chunks", "kv_dtype"),
                }
            )
    return rows


def build_admission_comparisons(cells: list[CellResult]) -> list[dict[str, object]]:
    """Per (model, device, scheme, ratio): SLO admission vs no admission.

    Pairs each ``admission_policy == "slo"`` cell with its ``"none"`` twin
    from the same sweep point and reports the goodput gain — the headline
    number of the overload experiments: shedding doomed requests (and
    preempting decode slots for at-risk prefills) must *increase* the rate
    of requests that meet their deadline.
    """
    by_point: dict[tuple, dict[str, CellResult]] = {}
    for cell in cells:
        key = (
            cell.model,
            cell.device,
            cell.scheme,
            cell.recompute_ratio,
            cell.store_capacity_chunks,
            cell.routing_policy,
            cell.n_replicas,
            cell.kv_dtype,
        )
        by_point.setdefault(key, {})[cell.admission_policy] = cell
    rows: list[dict[str, object]] = []
    for key, policies in by_point.items():
        model, device, scheme, ratio = key[:4]
        plain, slo = policies.get("none"), policies.get("slo")
        if plain is None or slo is None:
            continue
        rows.append(
            {
                "comparison": "admission_vs_none",
                "model": model,
                "device": device,
                "scheme": scheme,
                "recompute_ratio": ratio,
                "goodput_none": plain.goodput,
                "goodput_slo": slo.goodput,
                "goodput_gain": (
                    slo.goodput / plain.goodput if plain.goodput > 0 else float("inf")
                ),
                "slo_attainment_none": plain.slo_attainment,
                "slo_attainment_slo": slo.slo_attainment,
                "rejection_rate": slo.rejection_rate,
                "preemption_count": slo.preemption_count,
                "admission_improves_goodput": slo.goodput > plain.goodput,
                **_axis_columns(
                    slo, "store_capacity_chunks", "routing_policy", "n_replicas", "kv_dtype"
                ),
            }
        )
    return rows


def run_quality_probe(
    kv_dtypes: tuple[str, ...],
    seed: int = 0,
    recompute_ratio: float = 0.15,
) -> dict[str, dict[str, float]]:
    """Measured fusion quality per store dtype (NumPy proxy model).

    Precomputes two chunk caches on the proxy Mistral-7B, packs them at each
    dtype as a store holds them and decodes them again
    (:func:`~repro.kvstore.serialization.serialize_kv` /
    :func:`~repro.kvstore.serialization.deserialize_kv`), and fuses them
    with the real selective-recompute pipeline.  Two deviation
    statistics are reported per dtype:

    - ``mean_kv_deviation`` / ``max_kv_deviation``: the KV deviation the
      store quantisation *itself* introduces on the chunk caches (reference
      = the unquantised caches).  This isolates the precision knob — exact
      zero for ``float32``, monotone in the width, and ``mixed`` lands
      below ``int8`` because its fp16 early layers contribute ~none.
    - ``mean_attention_deviation``: the paper's Figure-6 end-to-end metric —
      forward-attention deviation of the fused output against a
      full-recompute reference of the same token stream.  This includes the
      fusion error (reused cross-attention), so dtypes differ by how their
      rounding perturbs HKVD token selection, not just by width.

    Returns ``{dtype: {mean_kv_deviation, max_kv_deviation,
    mean_attention_deviation, mean_recompute_fraction}}``; the sweep
    attaches the deviations to every cell served at that dtype.
    """
    from repro.core.deviation import kv_deviation, mean_attention_deviation
    from repro.core.fusor import FusorConfig, KVFusor
    from repro.kvstore.serialization import deserialize_kv, serialize_kv
    from repro.model.transformer import TransformerModel

    model = TransformerModel(get_config("proxy-mistral-7b"), seed=seed)
    fusor = KVFusor(model, FusorConfig(recompute_ratio=recompute_ratio))
    rng = np.random.default_rng((seed, 0xD7E))
    chunk_ids = [
        rng.integers(4, model.config.vocab_size, size=48).astype(np.int64)
        for _ in range(2)
    ]
    suffix_ids = rng.integers(4, model.config.vocab_size, size=12).astype(np.int64)
    chunk_caches = [model.chunk_prefill(ids) for ids in chunk_ids]
    full_ids = np.concatenate(chunk_ids + [suffix_ids])
    reference = model.full_prefill(
        full_ids, query_window=fusor.config.query_window
    )
    probe: dict[str, dict[str, float]] = {}
    for dtype in kv_dtypes:
        quantized = [
            deserialize_kv(serialize_kv(cache, dtype)) for cache in chunk_caches
        ]
        store_deviation = np.concatenate(
            [
                kv_deviation(quant, original)
                for quant, original in zip(quantized, chunk_caches)
            ],
            axis=1,
        )
        fused = fusor.fuse(quantized, suffix_ids)
        probe[dtype] = {
            "mean_kv_deviation": float(store_deviation.mean()),
            "max_kv_deviation": float(store_deviation.max()),
            "mean_attention_deviation": mean_attention_deviation(
                fused.forward_attention, reference.forward_attention
            ),
            "mean_recompute_fraction": fused.mean_recompute_fraction,
        }
    return probe


def run_proxy_probe(seed: int = 0, fault_rate: float = 0.0) -> dict[str, object]:
    """End-to-end run of the real fusion pipeline (NumPy proxy model).

    Serves a small batch over a shared chunk set through
    :meth:`~repro.core.blend_engine.BlendEngine.run_batch` — every request
    goes through the :class:`~repro.core.executor.PipelinedExecutor` with
    cross-request pipelining and carries a *measured* trace-derived TTFT,
    reported beside the analytical estimate.

    Also measures, on profile-sized synthetic caches at the calibrated
    load≈compute operating point, the single-request pipelined-vs-sequential
    fuse speedup and the cross-request batch makespan against the
    load-then-compute-in-turn baseline.
    """
    from repro.bench.profile import measure_pipeline_speedup
    from repro.core.blend_engine import BlendEngine
    from repro.core.executor import PipelinedExecutor
    from repro.kvstore.config import StoreConfig
    from repro.kvstore.faults import FaultConfig
    from repro.kvstore.serialization import KVBlob, serialize_kv

    # The probe exercises the serving-path store stack end to end: a
    # RAM→SSD tiered store behind the engine (the kind perfbench's
    # rag_churn serves from), not the single-tier default.  A non-zero
    # *fault_rate* additionally wraps the store in a fault injector (the
    # chaos smoke): lookups fail/corrupt/stall at that rate and the engine
    # must retry or recompute — with bitwise-identical generations either
    # way.
    engine = BlendEngine.build(
        paper_model="Mistral-7B",
        device="cpu_ram",
        seed=seed,
        store=StoreConfig(backend="tiered"),
        faults=(
            FaultConfig(rate=fault_rate, seed=seed) if fault_rate > 0.0 else None
        ),
    )
    chunks = [
        "retrieval augmented generation feeds reused text chunks to the model",
        "the kv cache of each chunk can be precomputed offline and stored",
        "cacheblend recomputes a small fraction of tokens to fix cross attention",
    ]
    engine.precompute_chunks(chunks)
    engine.reset_cache_stats()
    batch = [
        (chunks[:2], "what does cacheblend recompute?"),
        (chunks[1:], "where are kv caches stored?"),
    ]
    # max_new_tokens exercises the co-batched DecodeSession generation path:
    # after the prefill's first token the batch decodes in lock-step (one
    # session step per iteration).
    results = engine.run_batch(batch, max_new_tokens=4)

    # Measured load/compute pipelining: the text chunks above are only a few
    # tokens (per-layer compute well under the sleep/thread granularity), so
    # the executor is measured on profile-sized synthetic chunk caches, with
    # the shared calibrate-then-compare methodology of repro.bench.profile.
    # They are packed at fp16, the executors' precision, before any timing.
    rng = np.random.default_rng(seed)
    chunks_packed = [
        KVBlob(
            serialize_kv(
                engine.model.chunk_prefill(
                    rng.integers(4, engine.model.config.vocab_size, size=96).astype(np.int64)
                )
            )
        )
        for _ in range(2)
    ]
    suffix_ids = rng.integers(4, engine.model.config.vocab_size, size=12).astype(np.int64)
    measurement = measure_pipeline_speedup(
        engine.model, engine.fusor.config, chunks_packed, suffix_ids, repeats=2
    )

    # Cross-request pipelining at the same calibrated operating point: a
    # queue of identical requests, pipelined (loader runs ahead into the next
    # request) vs strictly in turn.
    batch_executor = PipelinedExecutor(
        engine.model, engine.fusor.config, layer_load_time=measurement.layer_load_time
    )
    items = [(chunks_packed, suffix_ids)] * 3
    batch_pipelined = batch_executor.execute_batch(items, pipelined=True)
    batch_sequential = batch_executor.execute_batch(items, pipelined=False)

    return {
        "paper_model": "Mistral-7B",
        "execution": "pipelined",
        "fault_rate": fault_rate,
        "n_requests": len(results),
        "mean_recompute_fraction": float(
            np.mean([r.fusion.mean_recompute_fraction for r in results])
        ),
        "recompute_ratios_decided": [r.decision.recompute_ratio for r in results],
        "estimated_ttfts": [r.ttft_estimate for r in results],
        "measured_ttfts": [r.ttft for r in results],
        "measured_stall_s": [r.measured_stall for r in results],
        "n_generated": [len(r.generated_ids) for r in results],
        "cache": engine.cache_stats,
        "store": {
            "backend": "tiered",
            "bytes_stored": engine.kv_store.bytes_stored,
            "n_entries": engine.kv_store.n_entries,
            "tiers": engine.kv_store.stats_by_tier(),
        },
        "executor": measurement.as_dict(),
        "batch": {
            "n_requests": len(items),
            "pipelined_makespan_s": batch_pipelined.makespan,
            "sequential_makespan_s": batch_sequential.makespan,
            "cross_request_speedup": (
                batch_sequential.makespan / batch_pipelined.makespan
                if batch_pipelined.makespan > 0
                else float("inf")
            ),
        },
    }
