"""Executed layer-wise pipelining of KV loading and selective recompute.

:mod:`repro.core.pipeline` *models* the paper's §5 schedule analytically; this
module actually **runs** it.  A :class:`PipelinedExecutor` drives
:meth:`KVFusor.fuse_layers` while a background loader thread streams each
layer's serialized KV off a (simulated) storage device:

* every chunk arrives as the :class:`~repro.kvstore.serialization.KVBlob` a
  store holds: RPKV5 bytes packed once, when the chunk entered the store, at
  the executor's :class:`~repro.kvstore.precision.PrecisionPolicy` (fp16 by
  default; fp32/int8/per-layer mixed); *loading* a layer means sleeping for
  the device's transfer delay priced at that layer's stored payload length,
  then decoding each chunk's layer from the stored bytes straight into the
  request's zero-padded fused buffer (one copy per chunk, or one scaled
  multiply for int8) and re-aligning the keys with one RoPE rotation per
  run of adjacent re-aligned chunks — real work, on a real thread;
* each request's fused buffer and re-alignment rotations are made once, on
  the compute thread, when the request is planned (before the loader
  starts), and only written and read by the loader; the buffer becomes the
  request's fused cache, which the batch result holds anyway, so making it
  early does not raise the batch's peak memory;
* the fusor's compute for layer ``i`` blocks until layer ``i``'s load has
  finished, exactly the two-thread double buffer the paper describes in §6;
* every load and compute span is measured with ``time.perf_counter`` and
  reported as a :class:`~repro.core.pipeline.PipelineTrace` — the same type
  the analytical model emits, but with *measured* timestamps.

``pipelined=False`` runs the identical code path without the background
thread (each layer is loaded synchronously right before its compute), which
is the sequential baseline the measured speedup is reported against.  Both
produce bitwise identical fusions.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.fusor import (
    FusionLayout,
    FusionResult,
    FusorConfig,
    KVFusor,
    LayerProvider,
    RealignedRows,
    assemble_reused_layer,
)
from repro.core.pipeline import PipelineTrace
from repro.kvstore.device import StorageDevice, get_device
from repro.kvstore.precision import PrecisionPolicy
from repro.kvstore.serialization import KVBlob
from repro.model.tensors import LayerKV
from repro.model.transformer import TransformerModel

#: Shortest sleep that blocks the loader thread and so drops the GIL (the
#: kernel rounds it up to its timer slack, ~50 µs on Linux).
_GIL_HANDOFF_S = 1e-6


@dataclass
class ExecutionResult:
    """One executed (not modeled) fusion pass plus its measured schedule.

    Inside a batch (:meth:`PipelinedExecutor.execute_batch`) all trace
    timestamps share the batch's time origin, so :attr:`total_time` is the
    request's completion offset in the batch — queueing behind earlier
    requests included, which is exactly the measured serving delay.
    """

    fusion: FusionResult
    trace: PipelineTrace
    pipelined: bool
    #: Simulated device transfer delay injected per layer (seconds).
    simulated_load_delay: float
    #: Batch-origin offset at which the compute stream became available to
    #: this request (the previous request's last compute end; 0 for the
    #: first / a standalone request).
    queue_start: float = 0.0

    @property
    def load_times(self) -> np.ndarray:
        """Measured per-layer load durations (transfer + decode + re-align)."""
        return self.trace.load_end - self.trace.load_start

    @property
    def compute_times(self) -> np.ndarray:
        """Measured per-layer selective-recompute durations."""
        return self.trace.compute_end - self.trace.compute_start

    @property
    def total_time(self) -> float:
        """Measured wall-clock of the whole fuse (seconds)."""
        return self.trace.total_time

    @property
    def stall_time(self) -> float:
        """Measured time compute spent waiting on loads (incl. the first load).

        Waiting for earlier requests in a batch is queueing, not stall, so
        the head wait is measured from :attr:`queue_start`.
        """
        return self.trace.stall_time_since(self.queue_start)


@dataclass
class BatchExecutionResult:
    """A queue of requests executed back to back on one loader/compute pair."""

    requests: list[ExecutionResult]
    pipelined: bool
    #: Measured wall-clock from batch start to the last request's completion.
    makespan: float

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)


@dataclass
class _RequestPlan:
    """Per-request load state, prepared before the batch clock starts."""

    layout: FusionLayout
    chunks: list[KVBlob]
    #: The request's zeroed fused KV, ``(n_layers, 2, n_tokens, n_kv_heads,
    #: head_dim)``: each layer's load decodes into its slice, and the fusion
    #: leaves the fused cache in it.
    kv: np.ndarray
    #: The re-alignment rotation of each run of adjacent re-aligned chunks.
    realigned: tuple[RealignedRows, ...]
    #: Per-layer simulated transfer delays (non-uniform under ``mixed``).
    layer_delays: tuple[float, ...]
    #: Mean per-layer delay, reported as ``simulated_load_delay``.
    delay: float
    recompute_ratio: float | None


class _SpanRecorder:
    """Records per-layer compute spans relative to the executor's clock origin."""

    def __init__(self, n_layers: int, origin: float) -> None:
        self.origin = origin
        self.compute_start_at = np.zeros(n_layers)
        self.compute_end_at = np.zeros(n_layers)

    def compute_start(self, layer_idx: int) -> None:
        self.compute_start_at[layer_idx] = time.perf_counter() - self.origin

    def compute_end(self, layer_idx: int) -> None:
        self.compute_end_at[layer_idx] = time.perf_counter() - self.origin


class PipelinedExecutor:
    """Overlaps per-layer KV loading with selective recompute, for real.

    Parameters
    ----------
    model:
        The runnable proxy transformer the fusor computes with.
    fusor_config:
        Selective-recompute configuration (ratio, gradual filtering shape).
    device:
        Storage device (preset name or instance) whose read bandwidth and
        access latency set the simulated per-layer transfer delay.
    layer_load_time:
        When set, a fixed simulated transfer delay in seconds per layer,
        overriding the device model entirely (used by the profile harness to
        calibrate loads against measured compute).
    precision:
        The :class:`~repro.kvstore.precision.PrecisionPolicy` (or a preset
        name) every chunk must be packed at; a chunk whose stored dtype table
        differs is rejected before the loader starts.  Defaults to uniform
        fp16.
    """

    def __init__(
        self,
        model: TransformerModel,
        fusor_config: FusorConfig | None = None,
        device: StorageDevice | str = "nvme_ssd",
        layer_load_time: float | None = None,
        precision: PrecisionPolicy | str | None = None,
    ) -> None:
        self.model = model
        self.fusor = KVFusor(model, fusor_config)
        self.device = device if isinstance(device, StorageDevice) else get_device(device)
        if layer_load_time is not None and layer_load_time < 0:
            raise ValueError("layer_load_time must be non-negative")
        self.layer_load_time = layer_load_time
        self.precision = PrecisionPolicy.get(precision)

    # ------------------------------------------------------------------
    def execute(
        self,
        chunks: list[KVBlob],
        suffix_token_ids: np.ndarray,
        recompute_ratio: float | None = None,
        pipelined: bool = True,
        extra_load_delay: float = 0.0,
    ) -> ExecutionResult:
        """Fuse the packed *chunks* + suffix, measuring the load/compute schedule.

        With ``pipelined=True`` a background thread loads layer ``i+1, i+2,
        ...`` while layer ``i`` recomputes; with ``pipelined=False`` each
        layer is loaded synchronously immediately before its compute.  Both
        paths run the identical fusor numerics and return bitwise identical
        :class:`FusionResult` contents.

        ``extra_load_delay`` adds that many seconds of simulated transfer to
        the request's loads (spread evenly across layers) — how the engine
        charges slow-tier store reads onto the measured pipeline.
        """
        batch = self.execute_batch(
            [(chunks, suffix_token_ids)],
            recompute_ratio=recompute_ratio,
            pipelined=pipelined,
            extra_load_delay=[extra_load_delay],
        )
        return batch.requests[0]

    # ------------------------------------------------------------------
    def execute_batch(
        self,
        items: list[tuple[list[KVBlob], np.ndarray]],
        recompute_ratio: float | list[float | None] | None = None,
        pipelined: bool = True,
        extra_load_delay: list[float] | None = None,
    ) -> BatchExecutionResult:
        """Fuse a queue of ``(chunks, suffix_token_ids)`` requests.

        With ``pipelined=True`` one background loader thread streams layers
        *across request boundaries*: while request ``r``'s tail layers
        recompute, request ``r+1``'s layer 0 is already loading — the
        cross-request extension of the paper's §5 pipeline.  The loader runs
        at most one request ahead of compute, so it decodes into at most
        two requests' buffers regardless of queue depth.  If compute
        fails, the loader stops within one layer and is joined before the
        exception propagates.  With ``pipelined=False`` every request loads
        and computes strictly in turn, the sequential baseline.

        ``recompute_ratio`` may be a single value for the whole queue or one
        value per request.  ``extra_load_delay`` (one value per request)
        adds simulated transfer seconds to a request's loads, spread evenly
        across its layers — the engine's channel for slow-tier store reads.
        All returned traces share the batch time origin.
        """
        if not items:
            raise ValueError("execute_batch needs at least one request")
        if isinstance(recompute_ratio, list):
            if len(recompute_ratio) != len(items):
                raise ValueError("need one recompute_ratio per request")
            ratios = list(recompute_ratio)
        else:
            ratios = [recompute_ratio] * len(items)
        if extra_load_delay is None:
            extras = [0.0] * len(items)
        else:
            if len(extra_load_delay) != len(items):
                raise ValueError("need one extra_load_delay per request")
            extras = [float(extra) for extra in extra_load_delay]

        plans = [
            self._plan_request(chunks, suffix_ids, ratio, extra)
            for (chunks, suffix_ids), ratio, extra in zip(items, ratios, extras)
        ]
        n_layers = self.model.config.n_layers
        n_requests = len(plans)
        load_start = [np.zeros(n_layers) for _ in range(n_requests)]
        load_end = [np.zeros(n_layers) for _ in range(n_requests)]
        slots: list[list[LayerKV | None]] = [[None] * n_layers for _ in range(n_requests)]
        ready = [
            [threading.Event() for _ in range(n_layers)] for _ in range(n_requests)
        ]
        load_error: list[BaseException] = []

        origin = time.perf_counter()

        def load_layer(req_idx: int, layer_idx: int) -> None:
            plan = plans[req_idx]
            load_start[req_idx][layer_idx] = time.perf_counter() - origin
            if plan.layer_delays[layer_idx] > 0.0:
                time.sleep(plan.layer_delays[layer_idx])  # simulated device transfer
            slots[req_idx][layer_idx] = self._decode_layer(plan, layer_idx)
            load_end[req_idx][layer_idx] = time.perf_counter() - origin
            ready[req_idx][layer_idx].set()

        # Backpressure: the loader may run at most one request ahead of the
        # compute stream (the §6 double buffer at request granularity).
        # ``abort`` stops it within one layer if compute fails mid-batch.
        lookahead = threading.Semaphore(2)
        abort = threading.Event()
        thread: threading.Thread | None = None
        if pipelined:

            def loader() -> None:
                try:
                    for req_idx in range(n_requests):
                        lookahead.acquire()
                        plan = plans[req_idx]
                        for layer_idx in range(n_layers):
                            if abort.is_set():
                                return
                            if not plan.layer_delays[layer_idx]:
                                # No simulated transfer, so this load would not
                                # block. Block briefly anyway: otherwise the
                                # loader keeps the GIL through the rest of the
                                # request's decode while the compute thread,
                                # woken by the layer just published, waits.
                                time.sleep(_GIL_HANDOFF_S)
                            load_layer(req_idx, layer_idx)
                except BaseException as exc:  # surface in the compute thread
                    load_error.append(exc)
                    for events in ready:
                        for event in events:
                            event.set()

            thread = threading.Thread(target=loader, name="kv-loader", daemon=True)
            thread.start()

        results: list[ExecutionResult] = []
        queue_start = 0.0
        try:
            for req_idx, plan in enumerate(plans):

                def provider(layer_idx: int, req_idx: int = req_idx) -> LayerKV:
                    if pipelined:
                        ready[req_idx][layer_idx].wait()
                        if load_error:
                            raise load_error[0]
                    else:
                        load_layer(req_idx, layer_idx)
                    layer = slots[req_idx][layer_idx]
                    slots[req_idx][layer_idx] = None  # the fusor consumes the buffer
                    assert layer is not None
                    return layer

                provider_typed: LayerProvider = provider
                recorder = _SpanRecorder(n_layers, origin)
                fusion = self.fusor.fuse_layers(
                    provider_typed,
                    plan.layout,
                    recompute_ratio=plan.recompute_ratio,
                    recorder=recorder,
                )
                lookahead.release()
                results.append(
                    ExecutionResult(
                        fusion=fusion,
                        trace=PipelineTrace(
                            load_start=load_start[req_idx],
                            load_end=load_end[req_idx],
                            compute_start=recorder.compute_start_at,
                            compute_end=recorder.compute_end_at,
                        ),
                        pipelined=pipelined,
                        simulated_load_delay=plan.delay,
                        queue_start=queue_start,
                    )
                )
                queue_start = (
                    float(recorder.compute_end_at[-1]) if n_layers else queue_start
                )
        except BaseException:
            # Unblock and stop the loader so it neither leaks nor keeps the
            # remaining queue's buffers alive behind a blocked acquire().
            abort.set()
            lookahead.release()
            raise
        finally:
            if thread is not None:
                thread.join()

        return BatchExecutionResult(
            requests=results,
            pipelined=pipelined,
            makespan=time.perf_counter() - origin,
        )

    # ------------------------------------------------------------------
    def _plan_request(
        self,
        chunks: list[KVBlob],
        suffix_token_ids: np.ndarray,
        recompute_ratio: float | None,
        extra_load_delay: float = 0.0,
    ) -> _RequestPlan:
        """Validate one request and plan its layout, fused buffer,
        re-alignment rotations and simulated delay.

        Validation (layout, KV shapes, stored precision, ratio) happens
        here, before any loader thread starts, so a bad request fails fast
        instead of from a background thread.  The buffer and rotations are
        made here too, on the calling thread, so the loader only fills the
        one and reads the other.
        """
        if recompute_ratio is not None and not 0.0 <= recompute_ratio <= 1.0:
            raise ValueError("recompute_ratio must be in [0, 1]")
        if extra_load_delay < 0.0:
            raise ValueError("extra_load_delay must be non-negative")
        layout = self.fusor.plan_layout(chunks, suffix_token_ids)
        n_layers = self.model.config.n_layers
        expected = self.precision.layer_dtype_table(n_layers)
        for index, blob in enumerate(chunks):
            if blob.layer_dtypes != expected:
                raise ValueError(
                    f"chunk {index} is stored at layer dtypes {blob.layer_dtypes}; "
                    f"this executor loads {self.precision.name} {expected}"
                )
        if self.layer_load_time is not None:
            layer_delays = [float(self.layer_load_time)] * n_layers
        else:
            # Each layer's transfer is its stored payload across the chunks.
            layer_delays = [
                self.device.read_time(sum(blob.layer_nbytes(layer_idx) for blob in chunks))
                for layer_idx in range(n_layers)
            ]
        if extra_load_delay > 0.0 and n_layers:
            per_layer = extra_load_delay / n_layers
            layer_delays = [delay + per_layer for delay in layer_delays]
        mean_delay = sum(layer_delays) / n_layers if n_layers else 0.0
        return _RequestPlan(
            layout=layout,
            chunks=chunks,
            kv=self.fusor.fused_buffer(layout),
            realigned=self.fusor.realignment(chunks, layout, self.model.config.np_dtype),
            layer_delays=tuple(layer_delays),
            delay=float(mean_delay),
            recompute_ratio=recompute_ratio,
        )

    # ------------------------------------------------------------------
    def _decode_layer(self, plan: _RequestPlan, layer_idx: int) -> LayerKV:
        """Decode one layer of every chunk into the request's fused buffer.

        This is the per-layer "load" work that overlaps with compute: each
        chunk's stored bytes decoded into the layer's slice of the
        zero-padded buffer the fusor merges into, in one call per chunk
        (int8 dequantised on the way), then one in-place rotation per run of
        re-aligned rows (:func:`~repro.core.fusor.assemble_reused_layer`).
        """
        return assemble_reused_layer(
            plan.kv[layer_idx], plan.chunks, layer_idx, plan.layout, plan.realigned
        )
