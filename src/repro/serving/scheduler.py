"""Request schedulers: FCFS and iteration-level continuous batching.

Both schedulers map ``(requests, results)`` pairs onto ``n_servers`` identical
GPU servers and return per-request :class:`~repro.serving.request.RequestTiming`
records.  They share the :class:`Scheduler` protocol so the simulator and the
experiment runner can swap them freely.

* :class:`FCFSScheduler` runs one request at a time per server, holding the
  GPU for the request's whole prefill *and* decode (vLLM without continuous
  batching, the paper's serving baseline).
* :class:`ContinuousBatchingScheduler` admits requests at iteration
  granularity under a per-server token budget, splits prefills into chunks
  and interleaves one decode step per running request per iteration (Orca- /
  vLLM-style continuous batching).  Short prefills no longer wait behind the
  long decodes of earlier requests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.serving.costmodel import predict_first_token_time
from repro.serving.engine import EngineResult
from repro.serving.request import GenerationRequest, RequestTiming


@runtime_checkable
class Scheduler(Protocol):
    """Anything that can place engine results on servers over time."""

    n_servers: int

    def schedule(
        self,
        requests: list[GenerationRequest],
        results: list[EngineResult],
    ) -> list[RequestTiming]:
        """Assign start/first-token/completion times to every request."""
        ...


def _check_lengths(
    requests: list[GenerationRequest], results: list[EngineResult]
) -> None:
    if len(requests) != len(results):
        raise ValueError("requests and results must have the same length")


@dataclass
class FCFSScheduler:
    """FCFS scheduler over ``n_servers`` identical GPU servers.

    The GPU is occupied for ``gpu_time + decode_time`` of each request; the
    first token is emitted ``ttft_service`` after the request starts (KV
    loading from storage overlaps with GPU work of the same request but the
    GPU is not free for other requests during its own compute).
    """

    n_servers: int = 1

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ValueError("n_servers must be >= 1")

    def schedule(
        self,
        requests: list[GenerationRequest],
        results: list[EngineResult],
    ) -> list[RequestTiming]:
        """Assign start times in arrival order; returns per-request timings."""
        _check_lengths(requests, results)
        order = sorted(range(len(requests)), key=lambda i: requests[i].arrival_time)
        server_free = [0.0] * self.n_servers
        timing_by_index: dict[int, RequestTiming] = {}
        for index in order:
            request = requests[index]
            result = results[index]
            server = min(range(self.n_servers), key=lambda s: server_free[s])
            start = max(request.arrival_time, server_free[server])
            occupancy = max(result.ttft_service, result.gpu_time) + result.decode_time
            first_token = start + result.ttft_service
            completion = start + occupancy
            server_free[server] = completion
            timing_by_index[index] = RequestTiming(
                request_id=request.request_id,
                arrival_time=request.arrival_time,
                start_time=start,
                first_token_time=first_token,
                completion_time=completion,
                gpu_time=result.gpu_time,
                deadline_s=request.deadline_s,
            )
        return [timing_by_index[i] for i in range(len(requests))]


@dataclass
class _RunningRequest:
    """Book-keeping of one admitted request inside the batching loop."""

    index: int
    request: GenerationRequest
    result: EngineResult
    start_time: float
    remaining_prefill: float
    prefill_slice: float
    decode_step: float
    decode_steps_left: int
    #: Fraction of every prefill slice that is GPU compute (the rest is KV
    #: loading stall, hideable behind co-batched requests' compute).
    gpu_fraction: float = 1.0
    first_token_time: float | None = None
    #: How often this request's decode was paused for an at-risk prefill.
    n_preemptions: int = 0


@dataclass
class ContinuousBatchingScheduler:
    """Iteration-level continuous batching over ``n_servers`` servers.

    Parameters
    ----------
    n_servers:
        Number of identical GPU servers; each runs its own batching loop and
        pulls from a shared arrival queue.
    max_batch_tokens:
        Token budget of one server's running batch: the sum of the total
        (context + suffix) tokens of concurrently admitted requests may not
        exceed it.  A single oversized request is still admitted alone rather
        than starved.
    prefill_chunk_tokens:
        Chunked-prefill granularity.  A request's prefill service time is
        split into ``ceil(n_total_tokens / prefill_chunk_tokens)`` equal
        slices, one per iteration, so admission and decode steps interleave
        with long prefills.
    overlap_loads:
        Cross-request load/compute pipelining.  When enabled, an iteration
        with several working requests runs two serial streams concurrently —
        the storage device (the KV-loading stall shares of the prefill
        slices, ``EngineResult.stall_time``) and the GPU (everything else) —
        and lasts the *maximum* of the two instead of their sum: while
        request A stalls on its next layer's KV, the GPU runs request B's
        slice, exactly the overlap the executed
        :meth:`~repro.core.executor.PipelinedExecutor.execute_batch` performs
        with its loader/compute thread pair.  Loads still serialise on the
        device, so a batch of stall-dominated requests stays device-bound;
        a request alone in its batch pays its stalls in full.
    admission_control:
        SLO-aware admission.  A deadline-carrying request whose predicted
        first-token time (:func:`~repro.serving.costmodel.
        predict_first_token_time`: queue wait already accrued + the running
        batch's prefill backlog + its own chunked prefill, each iteration
        paying the running decoders' slices) already misses its ``deadline_s``
        is *rejected* at admission instead of burning GPU time on a
        guaranteed SLO miss — its timing record carries ``rejected=True``
        and occupies no server time.  Best-effort requests (no deadline)
        are never rejected.
    preemption:
        Iteration-level decode preemption.  When a deadline-carrying
        prefill does not fit the token budget, decode-phase requests of
        equal or lower priority are *paused* (their batch slots freed, the
        decode state kept — the engine analogue is
        :meth:`~repro.model.tensors.DecodeSession.extract` then ``leave``,
        re-``join`` on resume) to make room.  Paused requests re-join FIFO
        ahead of new admissions as soon as the budget allows, so they are
        never starved; ``max_preemptions`` bounds how often any one request
        may be paused, beyond which it is immune.
    """

    n_servers: int = 1
    max_batch_tokens: int = 16_384
    prefill_chunk_tokens: int = 512
    overlap_loads: bool = False
    admission_control: bool = False
    preemption: bool = False
    max_preemptions: int = 2

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        if self.max_batch_tokens < 1:
            raise ValueError("max_batch_tokens must be >= 1")
        if self.prefill_chunk_tokens < 1:
            raise ValueError("prefill_chunk_tokens must be >= 1")
        if self.max_preemptions < 0:
            raise ValueError("max_preemptions must be >= 0")

    # ------------------------------------------------------------------
    def schedule(
        self,
        requests: list[GenerationRequest],
        results: list[EngineResult],
    ) -> list[RequestTiming]:
        _check_lengths(requests, results)
        order = sorted(range(len(requests)), key=lambda i: requests[i].arrival_time)
        pending: deque[int] = deque(order)
        clocks = [0.0] * self.n_servers
        active: list[list[_RunningRequest]] = [[] for _ in range(self.n_servers)]
        paused: list[deque[_RunningRequest]] = [deque() for _ in range(self.n_servers)]
        timing_by_index: dict[int, RequestTiming] = {}

        while pending or any(active) or any(paused):
            server = self._next_server(pending, requests, clocks, active, paused)
            clock = clocks[server]
            batch = active[server]

            self._admit(
                server, pending, requests, results, clocks, active, paused,
                timing_by_index,
            )
            if not batch:
                # Nothing admitted: fast-forward to the next arrival (the
                # whole queue may have been rejected, leaving no arrival).
                if pending:
                    clocks[server] = max(clock, requests[pending[0]].arrival_time)
                continue

            clocks[server] = self._run_iteration(batch, clock, timing_by_index)

        return [timing_by_index[i] for i in range(len(requests))]

    # ------------------------------------------------------------------
    def _next_server(
        self,
        pending: deque[int],
        requests: list[GenerationRequest],
        clocks: list[float],
        active: list[list[_RunningRequest]],
        paused: list[deque[_RunningRequest]],
    ) -> int:
        """Server whose next iteration would start earliest."""
        next_arrival = (
            requests[pending[0]].arrival_time if pending else float("inf")
        )

        def next_event(server: int) -> float:
            if active[server] or paused[server]:
                return clocks[server]
            return max(clocks[server], next_arrival)

        return min(range(self.n_servers), key=next_event)

    def _admit(
        self,
        server: int,
        pending: deque[int],
        requests: list[GenerationRequest],
        results: list[EngineResult],
        clocks: list[float],
        active: list[list[_RunningRequest]],
        paused: list[deque[_RunningRequest]],
        timing_by_index: dict[int, RequestTiming],
    ) -> None:
        """Admit arrived requests into *server*'s batch within the budget.

        Preempted decodes resume first (FIFO, ahead of any new admission) so
        they cannot be starved; new arrivals then pass the optional
        SLO-admission check and may, when they carry a deadline and do not
        fit, preempt decode-phase requests to claim their tokens.
        """
        clock = clocks[server]
        batch = active[server]
        waiting = paused[server]
        batch_tokens = sum(r.request.n_total_tokens for r in batch)
        while waiting and (
            not batch
            or batch_tokens + waiting[0].request.n_total_tokens
            <= self.max_batch_tokens
        ):
            resumed = waiting.popleft()
            batch.append(resumed)
            batch_tokens += resumed.request.n_total_tokens
        while pending and requests[pending[0]].arrival_time <= clock:
            candidate = requests[pending[0]]
            result = results[pending[0]]
            if (
                self.admission_control
                and candidate.deadline_s is not None
                and not self._admission_check(candidate, result, clock, batch, waiting)
            ):
                index = pending.popleft()
                timing_by_index[index] = RequestTiming(
                    request_id=candidate.request_id,
                    arrival_time=candidate.arrival_time,
                    start_time=clock,
                    first_token_time=clock,
                    completion_time=clock,
                    rejected=True,
                    deadline_s=candidate.deadline_s,
                )
                continue
            fits = batch_tokens + candidate.n_total_tokens <= self.max_batch_tokens
            if not fits and self.preemption and candidate.deadline_s is not None:
                batch_tokens -= self._preempt_for(candidate, batch, waiting, batch_tokens)
                fits = batch_tokens + candidate.n_total_tokens <= self.max_batch_tokens
            if not fits and batch:
                break
            index = pending.popleft()
            batch.append(self._make_running(index, candidate, result, clock))
            batch_tokens += candidate.n_total_tokens

    def _admission_check(
        self,
        candidate: GenerationRequest,
        result: EngineResult,
        clock: float,
        batch: list[_RunningRequest],
        waiting: deque[_RunningRequest] | None = None,
    ) -> bool:
        """Would *candidate*'s first token plausibly arrive within its SLO?

        *waiting* is the server's paused deque.  Preempted decodes resume
        FIFO **ahead of** new admissions, so their remaining decode backlog
        delays the candidate exactly like the active batch's does — ignoring
        them (the pre-fix behaviour) made predictions optimistic whenever a
        preemption had just happened, admitting requests that were already
        guaranteed to miss their SLO.
        """
        paused = list(waiting) if waiting else []
        decoding = [
            r
            for r in [*batch, *paused]
            if r.remaining_prefill <= 0.0 and r.decode_steps_left > 0
        ]
        n_prefill_iters = max(
            1, -(-candidate.n_total_tokens // self.prefill_chunk_tokens)
        )
        predicted = predict_first_token_time(
            ttft_service=result.ttft_service,
            n_prefill_iters=n_prefill_iters,
            prefill_backlog_s=sum(r.remaining_prefill for r in [*batch, *paused]),
            decode_iteration_s=sum(r.decode_step for r in decoding),
        )
        waited = clock - candidate.arrival_time
        return waited + predicted <= candidate.deadline_s

    def _preempt_for(
        self,
        candidate: GenerationRequest,
        batch: list[_RunningRequest],
        waiting: deque[_RunningRequest],
        batch_tokens: int,
    ) -> int:
        """Pause decode-phase victims to fit *candidate*; returns freed tokens.

        Victims must be decode-phase (their prefill — and first token — is
        done, so pausing them costs throughput, never a TTFT SLO), of equal
        or lower priority, and under the ``max_preemptions`` cap.  Lowest
        priority is paused first; no more victims are taken once the
        candidate fits.
        """
        needed = batch_tokens + candidate.n_total_tokens - self.max_batch_tokens
        victims = sorted(
            (
                r
                for r in batch
                if r.remaining_prefill <= 0.0
                and r.decode_steps_left > 0
                and r.request.priority <= candidate.priority
                and r.n_preemptions < self.max_preemptions
            ),
            key=lambda r: (r.request.priority, -r.start_time),
        )
        freed = 0
        for victim in victims:
            if freed >= needed:
                break
            batch.remove(victim)
            victim.n_preemptions += 1
            waiting.append(victim)
            freed += victim.request.n_total_tokens
        return freed

    def _make_running(
        self,
        index: int,
        request: GenerationRequest,
        result: EngineResult,
        clock: float,
    ) -> _RunningRequest:
        n_tokens = request.n_total_tokens
        n_prefill_iters = max(1, -(-n_tokens // self.prefill_chunk_tokens))
        decode_steps = max(0, request.n_output_tokens - 1)
        decode_step = result.decode_time / decode_steps if decode_steps else 0.0
        gpu_fraction = 1.0
        if result.ttft_service > 0.0:
            gpu_fraction = 1.0 - min(result.stall_time, result.ttft_service) / result.ttft_service
        return _RunningRequest(
            index=index,
            request=request,
            result=result,
            start_time=clock,
            remaining_prefill=result.ttft_service,
            prefill_slice=result.ttft_service / n_prefill_iters,
            decode_step=decode_step,
            decode_steps_left=decode_steps,
            gpu_fraction=gpu_fraction,
        )

    def _run_iteration(
        self,
        batch: list[_RunningRequest],
        clock: float,
        timing_by_index: dict[int, RequestTiming],
    ) -> float:
        """Run one batched iteration; returns the server clock afterwards.

        The GPU is serial within an iteration: every running request gets one
        work slice (a prefill chunk or one decode step) and the iteration
        lasts the sum of the slices.  Completions are recorded at iteration
        end, which keeps ``first_token_time >= start_time >= arrival_time``.

        With ``overlap_loads`` and at least two working requests, the
        iteration's KV-loading stalls (serial on the storage device) run
        concurrently with its GPU slices (serial on the GPU) and the
        iteration lasts ``max(gpu_work, load_work)`` — shorter than their
        sum whenever both streams have work, but never below the pure-GPU
        (or pure-device) lower bound.

        Each decoding request contributes its analytic per-request decode
        slice, serially.
        """
        gpu_work = 0.0
        load_work = 0.0
        n_working = 0
        decode_work = 0.0
        for running in batch:
            if running.remaining_prefill > 0.0:
                slice_ = min(running.remaining_prefill, running.prefill_slice)
                gpu_work += slice_ * running.gpu_fraction
                load_work += slice_ * (1.0 - running.gpu_fraction)
                n_working += 1
            elif running.decode_steps_left > 0:
                decode_work += running.decode_step
                n_working += 1
        gpu_work += decode_work
        if self.overlap_loads and n_working > 1:
            duration = max(gpu_work, load_work)
        else:
            duration = gpu_work + load_work
        iteration_end = clock + duration

        finished: list[_RunningRequest] = []
        for running in batch:
            if running.remaining_prefill > 0.0:
                slice_ = min(running.remaining_prefill, running.prefill_slice)
                running.remaining_prefill -= slice_
                if running.remaining_prefill <= 1e-12:
                    running.remaining_prefill = 0.0
                    running.first_token_time = iteration_end
                    if running.decode_steps_left == 0:
                        finished.append(running)
            elif running.decode_steps_left > 0:
                running.decode_steps_left -= 1
                if running.decode_steps_left == 0:
                    finished.append(running)

        for running in finished:
            batch.remove(running)
            first_token = (
                running.first_token_time
                if running.first_token_time is not None
                else iteration_end
            )
            timing_by_index[running.index] = RequestTiming(
                request_id=running.request.request_id,
                arrival_time=running.request.arrival_time,
                start_time=running.start_time,
                first_token_time=first_token,
                completion_time=iteration_end,
                gpu_time=running.result.gpu_time,
                n_preemptions=running.n_preemptions,
                deadline_s=running.request.deadline_s,
            )
        return iteration_end
