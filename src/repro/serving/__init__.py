"""Serving substrate: cost model, requests, scheduler and load simulator.

The paper's end-to-end numbers (TTFT, throughput under increasing request
rates, batch-size sensitivity) come from running real GPUs.  Offline, this
package provides an analytical cost model calibrated against the delays the
paper reports, an inference-engine wrapper that combines the cost model with
the CacheBlend pipeline, and a discrete-event simulator that replays Poisson
request arrivals against a GPU-bound server to produce the request-rate
sweeps of Figure 14.
"""

from repro.serving.costmodel import GPUSpec, ServingCostModel
from repro.serving.request import GenerationRequest, RequestTiming
from repro.serving.engine import InferenceEngine, EngineResult
from repro.serving.scheduler import (
    ContinuousBatchingScheduler,
    FCFSScheduler,
    Scheduler,
)
from repro.serving.router import (
    ROUTING_POLICIES,
    AffinityRouter,
    ConsistentHashRouter,
    LeastLoadedRouter,
    Replica,
    Router,
    build_router,
)
from repro.serving.simulator import LoadSimulator, SimulationResult, WorkloadSpec

__all__ = [
    "GPUSpec",
    "ServingCostModel",
    "GenerationRequest",
    "RequestTiming",
    "InferenceEngine",
    "EngineResult",
    "Scheduler",
    "FCFSScheduler",
    "ContinuousBatchingScheduler",
    "LoadSimulator",
    "SimulationResult",
    "WorkloadSpec",
    "ROUTING_POLICIES",
    "Router",
    "Replica",
    "LeastLoadedRouter",
    "ConsistentHashRouter",
    "AffinityRouter",
    "build_router",
]
