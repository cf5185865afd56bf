"""SLO admission control and decode preemption in continuous batching.

The acceptance claim lives in ``TestOverloadGoodput``: under a 2x-overload
burst, the ``slo`` scheduler (admission plus preemption) serves more
SLO-met requests than the plain scheduler, and sheds the guaranteed-miss
work instead of queueing it.
"""

import pytest

from repro.bench.workload import WorkloadGenerator
from repro.kvstore.device import get_device
from repro.model.config import get_config
from repro.serving.costmodel import ServingCostModel, predict_first_token_time
from repro.serving.engine import EngineResult, InferenceEngine
from repro.serving.request import GenerationRequest, RequestTiming
from repro.serving.scheduler import MAX_PREEMPTIONS, ContinuousBatchingScheduler


def _request(
    request_id: int,
    arrival: float = 0.0,
    deadline: float | None = None,
    n_chunks: int = 4,
    chunk_tokens: int = 256,
    n_output_tokens: int = 8,
) -> GenerationRequest:
    return GenerationRequest(
        request_id=request_id,
        n_chunks=n_chunks,
        chunk_tokens=chunk_tokens,
        n_suffix_tokens=24,
        n_output_tokens=n_output_tokens,
        arrival_time=arrival,
        deadline_s=deadline,
    )


def _result(ttft: float = 1.0, decode: float = 0.5) -> EngineResult:
    return EngineResult(
        scheme="cacheblend", gpu_time=ttft, ttft_service=ttft, decode_time=decode
    )


class TestRequestSLOFields:
    def test_deadline_validated(self):
        with pytest.raises(ValueError, match="deadline_s"):
            _request(0, deadline=0.0)

    def test_met_slo_semantics(self):
        served = RequestTiming(
            request_id=0, arrival_time=0.0, first_token_time=1.0, deadline_s=2.0
        )
        late = RequestTiming(
            request_id=1, arrival_time=0.0, first_token_time=3.0, deadline_s=2.0
        )
        rejected = RequestTiming(
            request_id=2, arrival_time=0.0, rejected=True, deadline_s=2.0
        )
        best_effort = RequestTiming(
            request_id=3, arrival_time=0.0, first_token_time=99.0
        )
        assert served.met_slo
        assert not late.met_slo
        assert not rejected.met_slo
        assert best_effort.met_slo


class TestPredictFirstTokenTime:
    def test_bare_request_is_its_own_service_time(self):
        assert predict_first_token_time(ttft_service=1.5) == pytest.approx(1.5)

    def test_backlog_and_decode_steps_add_up(self):
        predicted = predict_first_token_time(
            ttft_service=1.0,
            n_prefill_iters=4,
            prefill_backlog_s=2.0,
            decode_iteration_s=3 * 0.01,
        )
        assert predicted == pytest.approx(2.0 + 1.0 + 4 * 3 * 0.01)

    def test_validates_iterations(self):
        with pytest.raises(ValueError, match="n_prefill_iters"):
            predict_first_token_time(ttft_service=1.0, n_prefill_iters=0)


class TestAdmissionControl:
    def test_guaranteed_miss_is_rejected(self):
        # One long request saturates the server; the second wants its first
        # token in 0.5s but would wait ~10s behind the backlog.
        requests = [_request(0), _request(1, deadline=0.5)]
        results = [_result(ttft=10.0), _result(ttft=0.4)]
        scheduler = ContinuousBatchingScheduler(
            n_servers=1,
            max_batch_tokens=requests[0].n_total_tokens,
            slo=True,
        )
        timings = scheduler.schedule(requests, results)
        assert not timings[0].rejected
        assert timings[1].rejected
        assert not timings[1].met_slo
        # A rejection occupies no server time.
        assert timings[1].completion_time == timings[1].start_time

    def test_feasible_deadline_is_admitted(self):
        requests = [_request(0, deadline=60.0)]
        timings = ContinuousBatchingScheduler(n_servers=1, slo=True).schedule(
            requests, [_result(ttft=1.0)]
        )
        assert not timings[0].rejected
        assert timings[0].met_slo

    def test_best_effort_requests_are_never_rejected(self):
        requests = [_request(0), _request(1)]  # no deadlines
        results = [_result(ttft=50.0), _result(ttft=50.0)]
        timings = ContinuousBatchingScheduler(
            n_servers=1,
            max_batch_tokens=requests[0].n_total_tokens,
            slo=True,
        ).schedule(requests, results)
        assert not any(t.rejected for t in timings)

    @staticmethod
    def _beside_one_decoder(deadline: float) -> list[RequestTiming]:
        """A decoder (10 analytic steps of 0.2 s) starts decoding at t=1.0,
        when a one-iteration newcomer (0.5 s prefill) arrives: its predicted
        first token is its prefill plus one decode slice, 0.7 s."""
        decoder = _request(0, n_chunks=1, chunk_tokens=64, n_output_tokens=11)
        newcomer = _request(
            1, arrival=1.0, deadline=deadline, n_chunks=1, chunk_tokens=64
        )
        return ContinuousBatchingScheduler(n_servers=1, slo=True).schedule(
            [decoder, newcomer], [_result(ttft=1.0, decode=2.0), _result(ttft=0.5)]
        )

    def test_prediction_beside_a_decoder_is_the_first_token_it_gets(self):
        timings = self._beside_one_decoder(deadline=0.7 + 1e-6)
        assert not timings[1].rejected
        assert timings[1].ttft == pytest.approx(0.5 + 2.0 / 10)
        assert timings[1].met_slo

    def test_deadline_just_below_the_prediction_is_rejected(self):
        timings = self._beside_one_decoder(deadline=0.7 - 1e-6)
        assert timings[1].rejected
        assert not timings[0].rejected

    def test_slo_off_serves_the_doomed_request_late(self):
        requests = [_request(0), _request(1, deadline=0.5)]
        results = [_result(ttft=10.0), _result(ttft=0.4)]
        timings = ContinuousBatchingScheduler(
            n_servers=1, max_batch_tokens=requests[0].n_total_tokens
        ).schedule(requests, results)
        assert not timings[1].rejected
        assert not timings[1].met_slo  # served, but past its deadline

    def test_all_rejected_queue_terminates(self):
        # Regression guard: a queue that is rejected wholesale must not
        # leave the scheduling loop spinning on an empty batch.
        requests = [_request(i, deadline=1e-6) for i in range(3)]
        results = [_result(ttft=5.0) for _ in requests]
        timings = ContinuousBatchingScheduler(n_servers=1, slo=True).schedule(
            requests, results
        )
        assert all(t.rejected for t in timings)


class TestPreemption:
    def _scheduler(self):
        return ContinuousBatchingScheduler(
            n_servers=1,
            max_batch_tokens=_request(0).n_total_tokens,
            prefill_chunk_tokens=512,
            slo=True,
        )

    def test_deadline_prefill_preempts_a_decode(self):
        # Request 0 is decoding when the deadline-carrying request 1
        # arrives; the budget holds one request, so 0 is paused.
        requests = [
            _request(0, n_output_tokens=40),
            _request(1, arrival=2.0, deadline=10.0, n_output_tokens=2),
        ]
        results = [_result(ttft=1.0, decode=4.0), _result(ttft=1.0, decode=0.1)]
        timings = self._scheduler().schedule(requests, results)
        assert timings[0].n_preemptions == 1
        assert timings[1].n_preemptions == 0
        # Both still complete, and the preempted decode resumed afterwards.
        assert timings[0].completion_time > timings[1].first_token_time
        assert timings[1].met_slo

    def test_preemption_cap_is_respected(self):
        # Three deadline bursts against one long decode: the decode is
        # paused MAX_PREEMPTIONS (2) times, then becomes immune.
        requests = [
            _request(0, n_output_tokens=200),
            _request(1, arrival=2.0, deadline=50.0, n_output_tokens=2),
            _request(2, arrival=4.0, deadline=50.0, n_output_tokens=2),
            _request(3, arrival=6.0, deadline=50.0, n_output_tokens=2),
        ]
        results = [_result(ttft=1.0, decode=20.0)] + [
            _result(ttft=1.0, decode=0.1) for _ in range(3)
        ]
        timings = self._scheduler().schedule(requests, results)
        assert timings[0].n_preemptions == MAX_PREEMPTIONS
        assert all(t.n_preemptions <= MAX_PREEMPTIONS for t in timings)
        assert all(t.completion_time > 0.0 for t in timings)

    def test_prefill_phase_requests_are_never_preempted_mid_prefill(self):
        # Request 0 is still prefilling when the deadline request arrives:
        # nothing is preemptible yet, so the newcomer waits and request 0's
        # first token lands exactly when its uninterrupted prefill ends.
        # (Once 0 reaches decode phase it *may* be paused — its TTFT is
        # already banked; only throughput is at stake.)
        requests = [
            _request(0, n_output_tokens=2),
            _request(1, arrival=0.1, deadline=60.0, n_output_tokens=2),
        ]
        results = [_result(ttft=5.0, decode=0.1), _result(ttft=1.0, decode=0.1)]
        timings = self._scheduler().schedule(requests, results)
        assert timings[0].first_token_time == pytest.approx(5.0)
        assert timings[1].start_time >= timings[0].first_token_time - 1e-9

    def test_slo_off_never_rejects_or_preempts(self):
        requests = [
            _request(0, n_output_tokens=40),
            _request(1, arrival=2.0, deadline=1.0, n_output_tokens=2),
        ]
        results = [_result(ttft=1.0, decode=4.0), _result(ttft=1.0, decode=0.1)]
        timings = ContinuousBatchingScheduler(
            n_servers=1, max_batch_tokens=_request(0).n_total_tokens
        ).schedule(requests, results)
        assert not any(t.rejected or t.n_preemptions for t in timings)
        # The deadline request waits out the decode that fills the budget.
        assert timings[1].start_time >= timings[0].completion_time - 1e-9

    def test_best_effort_arrival_never_preempts(self):
        requests = [
            _request(0, n_output_tokens=40),
            _request(1, arrival=2.0, n_output_tokens=2),
        ]
        results = [_result(ttft=1.0, decode=4.0), _result(ttft=1.0, decode=0.1)]
        timings = self._scheduler().schedule(requests, results)
        assert timings[0].n_preemptions == 0
        assert timings[1].start_time >= timings[0].completion_time - 1e-9

    def test_most_recently_started_decode_is_paused_first(self):
        # Two decodes fill a two-request budget when a deadline request
        # arrives; freeing one slot pauses the later starter only.
        requests = [
            _request(0, n_output_tokens=40),
            _request(1, arrival=0.5, n_output_tokens=40),
            _request(2, arrival=3.0, deadline=10.0, n_output_tokens=2),
        ]
        results = [
            _result(ttft=1.0, decode=4.0),
            _result(ttft=1.0, decode=4.0),
            _result(ttft=1.0, decode=0.1),
        ]
        timings = ContinuousBatchingScheduler(
            n_servers=1, max_batch_tokens=2 * _request(0).n_total_tokens, slo=True
        ).schedule(requests, results)
        assert timings[0].start_time < timings[1].start_time
        assert timings[0].n_preemptions == 0
        assert timings[1].n_preemptions == 1
        assert timings[2].met_slo

    def test_preempted_decode_is_not_starved(self):
        # After the deadline burst drains, the paused decode resumes ahead
        # of any later best-effort arrival and completes.
        requests = [
            _request(0, n_output_tokens=40),
            _request(1, arrival=2.0, deadline=10.0, n_output_tokens=2),
            _request(2, arrival=2.5, n_output_tokens=2),
        ]
        results = [
            _result(ttft=1.0, decode=4.0),
            _result(ttft=1.0, decode=0.1),
            _result(ttft=1.0, decode=0.1),
        ]
        timings = self._scheduler().schedule(requests, results)
        assert timings[0].n_preemptions >= 1
        # The resumed decode finishes before the best-effort newcomer that
        # arrived while it was paused.
        assert timings[0].start_time < timings[2].start_time
        assert all(t.completion_time >= t.first_token_time - 1e-9 for t in timings)


class TestPausedBacklogAdmission:
    """Regression: the admission predictor must see the paused deque.

    Preempted decodes resume FIFO ahead of new admissions, so their
    remaining decode backlog delays a candidate's first token exactly like
    the active batch's does.  The pre-fix ``_admission_check`` ignored the
    paused deque entirely, making predictions optimistic right after a
    preemption — the second assertion below fails on that behaviour.
    """

    def _paused_decode(self, scheduler: ContinuousBatchingScheduler):
        # A decode-phase request (first token banked, 40 steps of 0.1s
        # left), as _preempt_for would park it on the paused deque.
        running = scheduler._make_running(
            0, _request(0, n_output_tokens=41), _result(ttft=1.0, decode=4.0), 0.0
        )
        running.remaining_prefill = 0.0
        return running

    def test_paused_decode_backlog_counts_against_the_deadline(self):
        from collections import deque

        scheduler = ContinuousBatchingScheduler(n_servers=1, slo=True)
        candidate = _request(1, deadline=1.15)
        result = _result(ttft=1.0)
        # Empty server: the candidate's first token is its own 1.0s prefill.
        assert scheduler._admission_check(candidate, result, 0.0, [], deque())
        # Same instant, but a paused decode will re-join ahead of the
        # candidate: each of the 3 prefill iterations now pays one 0.1s
        # co-batched decode step, predicting 1.3s > the 1.15s deadline.
        paused = deque([self._paused_decode(scheduler)])
        assert not scheduler._admission_check(candidate, result, 0.0, [], paused)

    def test_paused_and_active_decodes_are_priced_alike(self):
        from collections import deque

        scheduler = ContinuousBatchingScheduler(n_servers=1, slo=True)
        candidate = _request(1, deadline=1.15)
        result = _result(ttft=1.0)
        as_active = scheduler._admission_check(
            candidate, result, 0.0, [self._paused_decode(scheduler)], deque()
        )
        as_paused = scheduler._admission_check(
            candidate, result, 0.0, [], deque([self._paused_decode(scheduler)])
        )
        assert as_active == as_paused


class TestOverloadGoodput:
    """2x overload: the ``slo`` scheduler beats plain scheduling on goodput."""

    @pytest.fixture(scope="class")
    def overload(self):
        cost_model = ServingCostModel(get_config("mistral-7b"))
        engine = InferenceEngine(
            cost_model, scheme="cacheblend", device=get_device("nvme_ssd")
        )
        # Arrival rate far beyond one server's service rate.
        requests = WorkloadGenerator(
            request_rate=6.0, ttft_slo_s=8.0, seed=13
        ).generate(80)
        return requests, [engine.serve(request) for request in requests]

    @staticmethod
    def _goodput(timings) -> float:
        served = [t for t in timings if not t.rejected]
        if not served:
            return 0.0
        makespan = max(t.completion_time for t in served)
        return sum(t.met_slo for t in timings) / makespan if makespan else 0.0

    def test_admission_and_preemption_strictly_improve_goodput(self, overload):
        requests, results = overload
        plain = ContinuousBatchingScheduler(n_servers=1).schedule(requests, results)
        robust = ContinuousBatchingScheduler(n_servers=1, slo=True).schedule(
            requests, results
        )
        assert self._goodput(robust) > self._goodput(plain)
        # Preempting clogging decodes lets at-risk prefills through, so far
        # more requests land their first token within the SLO.
        assert sum(t.met_slo for t in robust) > sum(t.met_slo for t in plain)

    def test_slo_sheds_doomed_load(self, overload):
        requests, results = overload
        plain = ContinuousBatchingScheduler(n_servers=1).schedule(requests, results)
        shedding = ContinuousBatchingScheduler(n_servers=1, slo=True).schedule(
            requests, results
        )
        # The backlog is real: the controller rejects the guaranteed misses
        # instead of queueing them...
        assert sum(t.rejected for t in shedding) > 0
        # ...and what it does serve, it serves within the SLO far more
        # reliably than the plain scheduler serves its unfiltered queue.
        served = [t for t in shedding if not t.rejected]
        met_fraction = sum(t.met_slo for t in served) / len(served)
        plain_met_fraction = sum(t.met_slo for t in plain) / len(plain)
        assert met_fraction > plain_met_fraction
