"""Layer-wise pipelining of KV loading and selective recompute (paper §5).

CacheBlend starts recomputing layer ``i`` as soon as layer ``i``'s cached KV
has been loaded into GPU memory, while layer ``i+1``'s KV is being loaded in
the background.  If per-layer loading takes at least as long as per-layer
recompute, the recompute cost is completely hidden and the TTFT equals the
loading time (plus one layer of compute at the tail).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PipelineTrace:
    """Per-layer schedule of the load/compute pipeline.

    ``load_start[i]``/``load_end[i]`` bound the loading of layer ``i``'s KV;
    ``compute_start[i]``/``compute_end[i]`` bound its selective recompute.
    """

    load_start: np.ndarray
    load_end: np.ndarray
    compute_start: np.ndarray
    compute_end: np.ndarray

    @property
    def total_time(self) -> float:
        return float(self.compute_end[-1]) if self.compute_end.size else 0.0

    @property
    def stall_time(self) -> float:
        """Total time compute spent waiting for loads (pipeline bubbles)."""
        return self.stall_time_since(0.0)

    def stall_time_since(self, origin: float) -> float:
        """Stall with the head wait measured from *origin* instead of 0.

        Inside a batch the compute stream only becomes available to a request
        when the previous request finishes; waiting for *that* is queueing,
        not load stall, so per-request stall must measure the head bubble
        from the hand-over point (the previous request's last compute end).
        """
        gaps = self.compute_start[1:] - self.compute_end[:-1]
        head = (
            max(0.0, float(self.compute_start[0]) - origin)
            if self.compute_start.size
            else 0.0
        )
        return float(np.sum(np.maximum(gaps, 0.0)) + head)


def pipeline_schedule(load_times: list[float], compute_times: list[float]) -> PipelineTrace:
    """Schedule loads and computes with one layer of lookahead.

    Loads are sequential on the storage device.  Compute of layer ``i`` starts
    once (a) layer ``i``'s load finished and (b) layer ``i-1``'s compute
    finished.  This mirrors the two-thread implementation described in §6.
    """
    load_times = [float(t) for t in load_times]
    compute_times = [float(t) for t in compute_times]
    if len(load_times) != len(compute_times):
        raise ValueError("load_times and compute_times must have the same length")
    n = len(load_times)
    if n == 0:
        empty = np.zeros(0)
        return PipelineTrace(empty, empty, empty, empty)
    if any(t < 0 for t in load_times) or any(t < 0 for t in compute_times):
        raise ValueError("times must be non-negative")

    load_start = np.zeros(n)
    load_end = np.zeros(n)
    compute_start = np.zeros(n)
    compute_end = np.zeros(n)
    for i in range(n):
        load_start[i] = load_end[i - 1] if i > 0 else 0.0
        load_end[i] = load_start[i] + load_times[i]
        prev_compute_end = compute_end[i - 1] if i > 0 else 0.0
        compute_start[i] = max(load_end[i], prev_compute_end)
        compute_end[i] = compute_start[i] + compute_times[i]
    return PipelineTrace(load_start, load_end, compute_start, compute_end)


def pipelined_time(load_times: list[float], compute_times: list[float]) -> float:
    """Total delay with load/compute pipelining."""
    return pipeline_schedule(load_times, compute_times).total_time


def sequential_time(load_times: list[float], compute_times: list[float]) -> float:
    """Total delay without pipelining (load everything, then compute)."""
    if len(load_times) != len(compute_times):
        raise ValueError("load_times and compute_times must have the same length")
    return float(sum(load_times) + sum(compute_times))


# ----------------------------------------------------------------------
# Cross-request pipelining (multi-request extension of the §5 schedule)
# ----------------------------------------------------------------------
def cross_request_schedule(
    load_times: list[list[float]], compute_times: list[list[float]]
) -> list[PipelineTrace]:
    """Schedule a queue of requests over one loader and one compute stream.

    The loader streams layers in request order: while request ``r``'s tail
    layers recompute, it is already loading request ``r+1``'s layer 0 — the
    cross-request extension of the §5 pipeline that
    :meth:`~repro.core.executor.PipelinedExecutor.execute_batch` executes
    with real threads (the executor additionally bounds the loader to one
    request of lookahead for memory; this model's unbounded loader is its
    lower envelope).  Compute is a single stream: layer ``(r, i)`` starts
    once its own load finished and the previous layer (possibly of the
    previous request) finished computing.

    Returns one :class:`PipelineTrace` per request, all sharing the batch's
    time origin, so request ``r``'s ``total_time`` is its completion offset
    in the batch (queueing behind earlier requests included).
    """
    if len(load_times) != len(compute_times):
        raise ValueError("need one compute list per load list")
    for loads, computes in zip(load_times, compute_times):
        if len(loads) != len(computes):
            raise ValueError("each request needs equal load/compute layer counts")
    flat_loads = [t for loads in load_times for t in loads]
    flat_computes = [t for computes in compute_times for t in computes]
    flat = pipeline_schedule(flat_loads, flat_computes)
    traces: list[PipelineTrace] = []
    offset = 0
    for loads in load_times:
        n = len(loads)
        traces.append(
            PipelineTrace(
                load_start=flat.load_start[offset : offset + n],
                load_end=flat.load_end[offset : offset + n],
                compute_start=flat.compute_start[offset : offset + n],
                compute_end=flat.compute_end[offset : offset + n],
            )
        )
        offset += n
    return traces


def cross_request_pipelined_time(
    load_times: list[list[float]], compute_times: list[list[float]]
) -> float:
    """Makespan of the whole queue under cross-request pipelining."""
    traces = cross_request_schedule(load_times, compute_times)
    return max((t.total_time for t in traces), default=0.0)


def cross_request_sequential_time(
    load_times: list[list[float]], compute_times: list[list[float]]
) -> float:
    """Makespan when every request loads and computes strictly in turn."""
    if len(load_times) != len(compute_times):
        raise ValueError("need one compute list per load list")
    return float(
        sum(
            sequential_time(loads, computes)
            for loads, computes in zip(load_times, compute_times)
        )
    )
