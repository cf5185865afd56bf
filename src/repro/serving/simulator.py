"""Discrete-event load simulator for request-rate sweeps (paper Figure 14).

Requests arrive as a Poisson process; each is served by an
:class:`~repro.serving.engine.InferenceEngine` under a chosen scheme, and a
FCFS scheduler assigns them to GPU servers.  The simulator reports average and
tail TTFT so the hockey-stick curves of Figure 14 can be regenerated: schemes
whose prefill keeps the GPU busy longer saturate at lower request rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.serving.engine import EngineResult, InferenceEngine
from repro.serving.request import GenerationRequest, RequestTiming
from repro.serving.scheduler import FCFSScheduler, Scheduler


@dataclass(frozen=True)
class RunSummary:
    """Aggregate serving metrics of one scheduled run.

    Shared between the load simulator and the experiment runner so the
    busy-time / utilisation accounting lives in exactly one place.
    """

    mean_ttft: float
    p50_ttft: float
    p90_ttft: float
    p99_ttft: float
    mean_queueing: float
    throughput: float
    gpu_utilisation: float
    makespan: float
    #: Requests the admission controller turned away.  Their timings stay in
    #: the scheduler's output, but they contribute nothing to the TTFT
    #: percentiles, queueing mean, throughput, or busy time above.
    n_rejected: int = 0


def summarise_run(
    requests: list[GenerationRequest],
    results: list[EngineResult],
    timings: list[RequestTiming],
    n_servers: int,
) -> RunSummary:
    """Aggregate TTFT percentiles, throughput and GPU utilisation.

    Rejected requests (``RequestTiming.rejected``) are excluded from every
    served-side statistic: their timestamps all equal the rejection instant
    (a TTFT of ~0 would drag the percentiles down) and their
    :class:`EngineResult` describes service that never happened (counting its
    occupancy would inflate busy time).  They still bound the makespan —
    wall-clock ran while they were shed.

    ``gpu_utilisation`` is reported *unclamped*: with co-batched decode the
    per-request occupancy model can legitimately sum past ``n_servers *
    makespan`` by a hair, and a silent ``min(1.0, ...)`` would mask genuine
    overcommit bugs.  Tests assert ``<= 1 + eps`` where boundedness holds.
    """
    served = [
        (req, res, t)
        for req, res, t in zip(requests, results, timings)
        if not t.rejected
    ]
    n_rejected = len(timings) - len(served)
    makespan = max(t.completion_time for t in timings) - min(
        r.arrival_time for r in requests
    )
    if not served:
        return RunSummary(
            mean_ttft=0.0,
            p50_ttft=0.0,
            p90_ttft=0.0,
            p99_ttft=0.0,
            mean_queueing=0.0,
            throughput=0.0,
            gpu_utilisation=0.0,
            makespan=makespan,
            n_rejected=n_rejected,
        )
    ttfts = np.array([t.ttft for _, _, t in served])
    queueing = np.array([t.queueing_delay for _, _, t in served])
    busy = sum(
        max(res.ttft_service, res.gpu_time) + res.decode_time for _, res, _ in served
    )
    return RunSummary(
        mean_ttft=float(ttfts.mean()),
        p50_ttft=float(np.percentile(ttfts, 50)),
        p90_ttft=float(np.percentile(ttfts, 90)),
        p99_ttft=float(np.percentile(ttfts, 99)),
        mean_queueing=float(queueing.mean()),
        throughput=len(served) / makespan if makespan > 0 else float("inf"),
        gpu_utilisation=busy / (n_servers * makespan) if makespan > 0 else 1.0,
        makespan=makespan,
        n_rejected=n_rejected,
    )


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of the simulated RAG workload."""

    n_chunks: int = 6
    chunk_tokens: int = 512
    n_suffix_tokens: int = 32
    n_output_tokens: int = 32
    cached_chunk_fraction: float = 1.0
    prefix_cached_fraction: float = 0.17
    #: Optional TTFT SLO stamped onto every generated request as
    #: ``deadline_s`` — makes the simulator exercise admission control when
    #: paired with ``ContinuousBatchingScheduler(admission_control=True)``.
    ttft_slo_s: float | None = None


@dataclass
class SimulationResult:
    """Aggregate metrics of one simulation run."""

    request_rate: float
    n_requests: int
    mean_ttft: float
    p50_ttft: float
    p90_ttft: float
    p99_ttft: float
    mean_queueing: float
    throughput: float
    gpu_utilisation: float
    #: Requests rejected by admission control; present in :attr:`timings`
    #: (flagged ``rejected``) but excluded from the aggregate metrics above.
    n_rejected: int = 0
    timings: list[RequestTiming] = field(default_factory=list, repr=False)


@dataclass
class LoadSimulator:
    """Poisson open-loop load generator plus scheduled service simulation.

    By default requests are placed by a :class:`FCFSScheduler`; any other
    :class:`~repro.serving.scheduler.Scheduler` (e.g. the continuous-batching
    one) can be injected via ``scheduler``, in which case its own
    ``n_servers`` takes precedence.
    """

    engine: InferenceEngine
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    n_servers: int = 1
    seed: int = 0
    scheduler: Scheduler | None = None

    def generate_requests(self, request_rate: float, n_requests: int) -> list[GenerationRequest]:
        """Sample *n_requests* Poisson arrivals at *request_rate* per second."""
        if request_rate <= 0:
            raise ValueError("request_rate must be positive")
        if n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        rng = np.random.default_rng(self.seed)
        inter_arrival = rng.exponential(1.0 / request_rate, size=n_requests)
        arrivals = np.cumsum(inter_arrival)
        return [
            GenerationRequest(
                request_id=i,
                n_chunks=self.workload.n_chunks,
                chunk_tokens=self.workload.chunk_tokens,
                n_suffix_tokens=self.workload.n_suffix_tokens,
                n_output_tokens=self.workload.n_output_tokens,
                arrival_time=float(arrivals[i]),
                cached_chunk_fraction=self.workload.cached_chunk_fraction,
                prefix_cached_fraction=self.workload.prefix_cached_fraction,
                deadline_s=self.workload.ttft_slo_s,
            )
            for i in range(n_requests)
        ]

    def run(self, request_rate: float, n_requests: int = 200) -> SimulationResult:
        """Simulate *n_requests* arrivals at *request_rate* requests/second."""
        requests = self.generate_requests(request_rate, n_requests)
        results = self.engine.serve_batch(requests)
        scheduler = self.scheduler or FCFSScheduler(n_servers=self.n_servers)
        timings = scheduler.schedule(requests, results)
        summary = summarise_run(requests, results, timings, scheduler.n_servers)
        return SimulationResult(
            request_rate=request_rate,
            n_requests=n_requests,
            mean_ttft=summary.mean_ttft,
            p50_ttft=summary.p50_ttft,
            p90_ttft=summary.p90_ttft,
            p99_ttft=summary.p99_ttft,
            mean_queueing=summary.mean_queueing,
            throughput=summary.throughput,
            gpu_utilisation=summary.gpu_utilisation,
            n_rejected=summary.n_rejected,
            timings=timings,
        )

    def sweep(self, request_rates: list[float], n_requests: int = 200) -> list[SimulationResult]:
        """Run the simulation for every rate in *request_rates*."""
        return [self.run(rate, n_requests=n_requests) for rate in request_rates]
