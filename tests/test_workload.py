"""Workload generator: distributions, determinism and reuse accounting."""

import numpy as np
import pytest

from repro.bench.workload import DATASET_PRESETS, WorkloadGenerator, get_dataset


class TestRequestShape:
    def test_chunk_counts_within_dataset_bounds(self):
        spec = get_dataset("2wikimqa")
        generator = WorkloadGenerator(dataset="2wikimqa", seed=0)
        for request in generator.generate(100):
            assert spec.min_chunks <= request.n_chunks <= spec.max_chunks

    def test_chunk_tokens_track_dataset_mean(self):
        spec = get_dataset("multinews")
        generator = WorkloadGenerator(dataset="multinews", seed=1)
        requests = generator.generate(300)
        mean_tokens = np.mean([r.chunk_tokens for r in requests])
        assert abs(mean_tokens - spec.chunk_tokens_mean) < 3 * spec.chunk_tokens_std

    def test_cached_fractions_within_unit_interval(self):
        generator = WorkloadGenerator(seed=2)
        for request in generator.generate(100):
            assert 0.0 <= request.cached_chunk_fraction <= 1.0
            assert 0.0 <= request.prefix_cached_fraction <= request.cached_chunk_fraction


class TestArrivals:
    def test_arrivals_strictly_increasing(self):
        generator = WorkloadGenerator(request_rate=2.0, seed=3)
        arrivals = [r.arrival_time for r in generator.generate(200)]
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))

    def test_mean_rate_matches_configuration(self):
        rate = 4.0
        generator = WorkloadGenerator(request_rate=rate, seed=4)
        requests = generator.generate(2000)
        empirical = len(requests) / requests[-1].arrival_time
        assert empirical == pytest.approx(rate, rel=0.15)


class TestDeterminismAndReuse:
    def test_same_seed_same_stream(self):
        a = WorkloadGenerator(seed=5).generate(50)
        b = WorkloadGenerator(seed=5).generate(50)
        assert [(r.n_chunks, r.chunk_tokens, r.arrival_time) for r in a] == [
            (r.n_chunks, r.chunk_tokens, r.arrival_time) for r in b
        ]

    def test_different_seed_differs(self):
        a = WorkloadGenerator(seed=6).generate(50)
        b = WorkloadGenerator(seed=7).generate(50)
        assert [r.arrival_time for r in a] != [r.arrival_time for r in b]

    def test_popularity_skew_raises_hit_rate(self):
        uniform = WorkloadGenerator(zipf_alpha=0.0, seed=8)
        uniform.generate(300)
        skewed = WorkloadGenerator(zipf_alpha=1.5, seed=8)
        skewed.generate(300)
        assert skewed.stats.chunk_hit_rate > uniform.stats.chunk_hit_rate

    def test_stats_are_consistent(self):
        generator = WorkloadGenerator(seed=9)
        requests = generator.generate(120)
        stats = generator.stats
        assert stats.n_requests == 120
        assert stats.n_chunk_accesses == sum(r.n_chunks for r in requests)
        assert stats.mean_cached_chunk_fraction == pytest.approx(
            np.mean([r.cached_chunk_fraction for r in requests])
        )
        document = stats.as_dict()
        assert document["cache"]["hits"] + document["cache"]["misses"] == (
            stats.n_chunk_accesses
        )

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            WorkloadGenerator(dataset="nope")

    def test_all_presets_generate(self):
        for name in DATASET_PRESETS:
            requests = WorkloadGenerator(dataset=name, seed=0).generate(10)
            assert len(requests) == 10


class TestArrivalPatterns:
    """Bursty/diurnal presets: overload windows at the same average rate."""

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(arrival_pattern="tsunami")

    @pytest.mark.parametrize("pattern", ["poisson", "bursty", "diurnal"])
    def test_arrivals_strictly_increasing(self, pattern):
        generator = WorkloadGenerator(
            request_rate=2.0, arrival_pattern=pattern, seed=11
        )
        arrivals = [r.arrival_time for r in generator.generate(200)]
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))

    @pytest.mark.parametrize("pattern", ["bursty", "diurnal"])
    def test_long_run_rate_is_preserved(self, pattern):
        rate = 4.0
        generator = WorkloadGenerator(
            request_rate=rate, arrival_pattern=pattern, seed=12
        )
        requests = generator.generate(2000)
        empirical = len(requests) / requests[-1].arrival_time
        assert empirical == pytest.approx(rate, rel=0.2)

    def test_bursty_concentrates_arrivals_into_overload_windows(self):
        """The in-burst gaps run several times faster than the nominal rate,
        so gap variance (burstiness) must clearly exceed Poisson's."""
        rate = 2.0
        poisson = WorkloadGenerator(request_rate=rate, seed=13).generate(1000)
        bursty = WorkloadGenerator(
            request_rate=rate, arrival_pattern="bursty", seed=13
        ).generate(1000)

        def squared_cv(requests):
            gaps = np.diff([r.arrival_time for r in requests])
            return float(np.var(gaps) / np.mean(gaps) ** 2)

        assert squared_cv(bursty) > 1.5 * squared_cv(poisson)
        # The median gap is an in-burst gap: well under the nominal mean.
        gaps = np.diff([r.arrival_time for r in bursty])
        assert float(np.median(gaps)) < 0.5 / rate

    def test_diurnal_rate_oscillates(self):
        """Arrival density in the peak half-cycle beats the trough's."""
        generator = WorkloadGenerator(
            request_rate=2.0, arrival_pattern="diurnal", seed=14
        )
        arrivals = np.array([r.arrival_time for r in generator.generate(1000)])
        span = arrivals[-1]
        counts, _ = np.histogram(arrivals, bins=8, range=(0.0, span))
        assert counts.max() > 1.5 * max(1, counts.min())

    def test_patterns_are_deterministic_per_seed(self):
        a = WorkloadGenerator(arrival_pattern="bursty", seed=15).generate(50)
        b = WorkloadGenerator(arrival_pattern="bursty", seed=15).generate(50)
        assert [r.arrival_time for r in a] == [r.arrival_time for r in b]


class TestTTFTSLOStamping:
    def test_deadline_stamped_on_every_request(self):
        generator = WorkloadGenerator(ttft_slo_s=5.0, seed=16)
        for request in generator.generate(40):
            assert request.deadline_s == 5.0

    def test_no_slo_means_no_deadline(self):
        generator = WorkloadGenerator(seed=17)
        for request in generator.generate(40):
            assert request.deadline_s is None

    def test_non_positive_slo_rejected(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(ttft_slo_s=0.0)
        with pytest.raises(ValueError):
            WorkloadGenerator(ttft_slo_s=-1.0)
