"""Serving substrate: cost model, requests, engine, scheduler and router.

The paper's end-to-end numbers (TTFT, throughput under increasing request
rates, batch-size sensitivity) come from running real GPUs.  Offline, this
package provides an analytical cost model calibrated against the delays the
paper reports, an inference-engine wrapper that prices each request under a
serving scheme, an iteration-level continuous-batching scheduler that places
the priced requests on GPU servers, and a router that spreads them over a
fleet of replicas.  :mod:`repro.bench` drives them: its workload generator
emits the request stream and :func:`repro.bench.replay.simulate_fleet`
routes, prices and schedules it.
"""

from repro.serving.costmodel import GPUSpec, ServingCostModel
from repro.serving.request import GenerationRequest, RequestTiming
from repro.serving.engine import InferenceEngine, EngineResult
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.serving.router import (
    ROUTING_POLICIES,
    AffinityRouter,
    ConsistentHashRouter,
    LeastLoadedRouter,
    Replica,
    Router,
    build_router,
)

__all__ = [
    "GPUSpec",
    "ServingCostModel",
    "GenerationRequest",
    "RequestTiming",
    "InferenceEngine",
    "EngineResult",
    "ContinuousBatchingScheduler",
    "ROUTING_POLICIES",
    "Router",
    "Replica",
    "LeastLoadedRouter",
    "ConsistentHashRouter",
    "AffinityRouter",
    "build_router",
]
