"""Rejected-request accounting in a sweep cell's serving metrics.

Regression suite for two accounting bugs: rejected requests used to drag
the TTFT percentiles toward zero (their timestamps all equal the rejection
instant) and their never-executed EngineResults used to count as GPU busy
time; and ``gpu_utilisation`` used to be silently clamped to 1.0, masking
genuine overcommit.  Both tests fail on the pre-fix behaviour.
"""

from dataclasses import replace

import pytest

from repro.bench.experiment import ExperimentConfig, ExperimentRunner
from repro.bench.replay import chunk_store_config, simulate_fleet
from repro.bench.workload import WorkloadGenerator
from repro.kvstore.device import get_device
from repro.model.config import get_config
from repro.serving.costmodel import ServingCostModel
from repro.serving.engine import EngineResult, InferenceEngine
from repro.serving.request import GenerationRequest, RequestTiming
from repro.serving.scheduler import ContinuousBatchingScheduler


def _aggregate(requests, results, timings, n_servers: int = 1):
    """The sweep's aggregation of one scheduled cacheblend cell."""
    runner = ExperimentRunner(ExperimentConfig())
    return runner._aggregate(
        "mistral-7b", "nvme_ssd", "cacheblend", 0.15,
        requests, results, timings,
        admission_policy="slo",
        n_servers=n_servers,
    )


def _request(request_id: int, arrival: float = 0.0) -> GenerationRequest:
    return GenerationRequest(request_id=request_id, arrival_time=arrival)


def _result(ttft: float, decode: float = 0.0) -> EngineResult:
    return EngineResult(
        scheme="cacheblend", gpu_time=ttft, ttft_service=ttft, decode_time=decode
    )


def _served(request_id: int, arrival: float, start: float, ttft: float,
            completion: float) -> RequestTiming:
    return RequestTiming(
        request_id=request_id,
        arrival_time=arrival,
        start_time=start,
        first_token_time=arrival + ttft,
        completion_time=completion,
    )


def _rejected(request_id: int, instant: float) -> RequestTiming:
    return RequestTiming(
        request_id=request_id,
        arrival_time=instant,
        start_time=instant,
        first_token_time=instant,
        completion_time=instant,
        rejected=True,
    )


class TestRejectedExcludedFromSummary:
    """The regression: rejections must not leak into served-side metrics."""

    @pytest.fixture()
    def cell(self):
        requests = [_request(0), _request(1), _request(2, arrival=0.5)]
        # The rejected request carries a huge EngineResult: service that
        # never happened must not count as busy time.
        results = [_result(1.0), _result(2.0), _result(100.0, decode=100.0)]
        timings = [
            _served(0, arrival=0.0, start=0.0, ttft=1.0, completion=1.0),
            _served(1, arrival=0.0, start=1.0, ttft=2.0, completion=3.0),
            _rejected(2, instant=0.5),
        ]
        return _aggregate(requests, results, timings)

    def test_ttft_percentiles_cover_served_requests_only(self, cell):
        # Pre-fix, the rejection's ~0 TTFT dragged the mean to 1.0.
        assert cell.mean_ttft == pytest.approx(1.5)
        assert cell.p50_ttft == pytest.approx(1.5)
        assert cell.p99_ttft <= 2.0 + 1e-9

    def test_rejected_occupancy_is_not_busy_time(self, cell):
        # Served busy = 1.0 + 2.0 over a makespan of 3.0; the rejection's
        # 200s EngineResult would have blown utilisation past 60x.
        assert cell.gpu_utilisation == pytest.approx(3.0 / 3.0)

    def test_rejections_are_counted(self, cell):
        assert cell.rejection_rate == pytest.approx(1 / 3)
        assert cell.throughput == pytest.approx(2 / 3.0)

    def test_mean_queueing_covers_served_requests_only(self, cell):
        # Request 1 waited one second for the server; request 0 none.
        assert cell.mean_queueing == pytest.approx(0.5)

    def test_goodput_is_slo_met_over_the_served_makespan(self):
        requests = [_request(0), _request(1), _request(2, arrival=0.5)]
        results = [_result(1.0), _result(2.0), _result(1.0)]
        timings = [
            replace(
                _served(0, arrival=0.0, start=0.0, ttft=1.0, completion=1.0),
                deadline_s=1.5,
            ),
            replace(
                _served(1, arrival=0.0, start=1.0, ttft=2.0, completion=3.0),
                deadline_s=1.5,
            ),
            replace(_rejected(2, instant=0.5), deadline_s=1.5),
        ]
        cell = _aggregate(requests, results, timings)
        # One of three met its deadline, over the 3 s the served two spanned.
        assert cell.slo_attainment == pytest.approx(1 / 3)
        assert cell.goodput == pytest.approx(1 / 3.0)

    def test_all_rejected_run_degenerates_cleanly(self):
        requests = [_request(0), _request(1, arrival=1.0)]
        results = [_result(5.0), _result(5.0)]
        timings = [_rejected(0, 0.0), _rejected(1, 1.0)]
        cell = _aggregate(requests, results, timings)
        assert cell.rejection_rate == 1.0
        assert cell.slo_attainment == 0.0
        assert cell.mean_ttft == 0.0
        assert cell.throughput == 0.0
        assert cell.gpu_utilisation == 0.0


class TestUnclampedUtilisation:
    def test_overcommit_is_reported_not_clamped(self):
        # Two requests whose combined occupancy exceeds the single-server
        # makespan: the pre-fix min(1.0, ...) silently hid this.
        requests = [_request(0), _request(1)]
        results = [_result(2.0), _result(2.0)]
        timings = [
            _served(0, arrival=0.0, start=0.0, ttft=2.0, completion=2.0),
            _served(1, arrival=0.0, start=0.0, ttft=2.0, completion=2.0),
        ]
        assert _aggregate(requests, results, timings).gpu_utilisation == pytest.approx(2.0)

    def test_utilisation_counts_every_server(self):
        requests = [_request(0), _request(1)]
        results = [_result(2.0), _result(2.0)]
        timings = [
            _served(0, arrival=0.0, start=0.0, ttft=2.0, completion=2.0),
            _served(1, arrival=0.0, start=0.0, ttft=2.0, completion=2.0),
        ]
        cell = _aggregate(requests, results, timings, n_servers=2)
        assert cell.gpu_utilisation == pytest.approx(1.0)


class TestAdmissionControlEndToEnd:
    """The sweep's request path (workload → replay → ``slo`` scheduling)
    under overload, aggregated as a cell."""

    @staticmethod
    def _run(seed: int = 7):
        generator = WorkloadGenerator(request_rate=6.0, ttft_slo_s=6.0, seed=seed)
        requests = generator.generate(60)
        engine = InferenceEngine(
            ServingCostModel(get_config("mistral-7b")),
            scheme="cacheblend",
            device=get_device("nvme_ssd"),
        )
        return simulate_fleet(
            requests,
            generator.chunk_ids,
            policy="least_loaded",
            n_replicas=1,
            engine=engine,
            scheduler=ContinuousBatchingScheduler(slo=True),
            store=chunk_store_config(160),
        )

    @pytest.fixture(scope="class")
    def overloaded(self):
        run = self._run()
        return run, _aggregate(run.requests, run.results, run.timings)

    def test_overload_sheds_requests(self, overloaded):
        run, cell = overloaded
        n_rejected = sum(t.rejected for t in run.timings)
        assert n_rejected > 0
        assert cell.rejection_rate == pytest.approx(n_rejected / len(run.timings))

    def test_rejected_stay_in_timings_but_out_of_percentiles(self, overloaded):
        run, cell = overloaded
        assert len(run.timings) == len(run.requests)
        served_ttfts = [t.ttft for t in run.timings if not t.rejected]
        # Every served percentile is reachable from served TTFTs alone; the
        # near-zero rejection TTFTs would otherwise pull p50 below min(served).
        assert cell.p50_ttft >= min(served_ttfts) - 1e-9
        assert cell.p99_ttft <= max(served_ttfts) + 1e-9
        assert cell.mean_ttft >= min(served_ttfts) - 1e-9

    def test_throughput_counts_served_requests_only(self, overloaded):
        run, cell = overloaded
        served = [
            (request, timing)
            for request, timing in zip(run.requests, run.timings)
            if not timing.rejected
        ]
        # The makespan spans the served requests only.
        makespan = max(t.completion_time for _, t in served) - min(
            r.arrival_time for r, _ in served
        )
        assert cell.throughput == pytest.approx(len(served) / makespan)

    def test_run_is_deterministic_under_a_fixed_seed(self):
        a, b = self._run(seed=11), self._run(seed=11)
        assert [t.rejected for t in a.timings] == [t.rejected for t in b.timings]
        assert [t.ttft for t in a.timings] == [t.ttft for t in b.timings]


class TestDeadlinePlumbing:
    def test_slo_spec_validation_happens_at_request_level(self):
        with pytest.raises(ValueError):
            replace(_request(0), deadline_s=0.0)
