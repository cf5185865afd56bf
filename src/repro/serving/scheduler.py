"""Iteration-level continuous batching of requests onto GPU servers.

:class:`ContinuousBatchingScheduler` maps ``(requests, results)`` pairs onto
``n_servers`` identical GPU servers and returns per-request
:class:`~repro.serving.request.RequestTiming` records.  It admits requests at
iteration granularity under a per-server token budget, splits prefills into
chunks and interleaves one decode step per running request per iteration
(Orca- / vLLM-style continuous batching, the batching the paper's vLLM
deployment runs), so short prefills never wait behind the long decodes of
earlier requests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.serving.costmodel import predict_first_token_time
from repro.serving.engine import EngineResult
from repro.serving.request import GenerationRequest, RequestTiming

#: How often one request's decode may be paused for at-risk prefills before
#: it becomes immune to preemption.
MAX_PREEMPTIONS = 2


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
    slo:
        SLO-aware admission and decode preemption, for deadline-carrying
        requests (best-effort requests, with no ``deadline_s``, are never
        rejected and never preempt).  A request whose predicted first-token
        time (:func:`~repro.serving.costmodel.predict_first_token_time`:
        queue wait already accrued + the running batch's prefill backlog +
        its own chunked prefill, each iteration paying the running decoders'
        slices) already misses its ``deadline_s`` is *rejected* at admission
        instead of burning GPU time on a guaranteed SLO miss: its timing
        record carries ``rejected=True`` and occupies no server time.  An
        admitted one that does not fit the token budget *pauses*
        decode-phase requests to make room (their batch slots freed, the
        decode state kept; the engine analogue is
        :meth:`~repro.model.tensors.DecodeSession.extract` then ``leave``,
        re-``join`` on resume).  Paused requests re-join FIFO ahead of new
        admissions as soon as the budget allows, so they are never starved,
        and a request paused :data:`MAX_PREEMPTIONS` times is immune.

    Loads always overlap across requests: an iteration with several working
    requests runs two serial streams concurrently, the storage device (the
    KV-loading stall shares of the prefill slices,
    ``EngineResult.stall_time``) and the GPU (everything else), and lasts
    the *maximum* of the two instead of their sum.  While request A stalls
    on its next layer's KV, the GPU runs request B's slice, the overlap the
    executed :meth:`~repro.core.executor.PipelinedExecutor.execute_batch`
    performs with its loader/compute thread pair.  Loads still serialise on
    the device, so a batch of stall-dominated requests stays device-bound;
    a request alone in its batch pays its stalls in full.
    """

    n_servers: int = 1
    max_batch_tokens: int = 16_384
    prefill_chunk_tokens: int = 512
    slo: bool = False

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        if self.max_batch_tokens < 1:
            raise ValueError("max_batch_tokens must be >= 1")
        if self.prefill_chunk_tokens < 1:
            raise ValueError("prefill_chunk_tokens must be >= 1")

    # ------------------------------------------------------------------
    def schedule(
        self,
        requests: list[GenerationRequest],
        results: list[EngineResult],
    ) -> list[RequestTiming]:
        if len(requests) != len(results):
            raise ValueError("requests and results must have the same length")
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
        they cannot be starved; under ``slo``, deadline-carrying arrivals
        then pass the admission check and may, when they do not fit, preempt
        decode-phase requests to claim their tokens.
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
                self.slo
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
            if not fits and self.slo and candidate.deadline_s is not None:
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

        Victims must be decode-phase (their prefill, and first token, is
        done, so pausing them costs throughput, never a TTFT SLO) and paused
        fewer than :data:`MAX_PREEMPTIONS` times.  The most recently started
        is paused first; no more victims are taken once the candidate fits.
        """
        needed = batch_tokens + candidate.n_total_tokens - self.max_batch_tokens
        victims = sorted(
            (
                r
                for r in batch
                if r.remaining_prefill <= 0.0
                and r.decode_steps_left > 0
                and r.n_preemptions < MAX_PREEMPTIONS
            ),
            key=lambda r: -r.start_time,
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
        work slice (a prefill chunk or one decode step).  A lone working
        request's iteration lasts its slice, stalls included; with at least
        two, the iteration's KV-loading stalls (serial on the storage device)
        run concurrently with its GPU slices (serial on the GPU) and it lasts
        ``max(gpu_work, load_work)``: shorter than their sum whenever both
        streams have work, but never below either stream's serial total.
        Completions are recorded at iteration end, which keeps
        ``first_token_time >= start_time >= arrival_time``.

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
        if n_working > 1:
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
