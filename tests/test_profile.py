"""Profile harness: report schema, persistence and the regression gate."""

import copy

import pytest

from repro.bench.profile import (
    PROFILE_SCHEMA_VERSION,
    ProfileConfig,
    check_against_baseline,
    format_profile_summary,
    measure_decode_scaling,
    run_profile,
    save_profile_report,
    validate_profile_report,
)


@pytest.fixture(scope="module")
def document():
    config = ProfileConfig(
        model="tiny", n_chunks=2, chunk_tokens=24, suffix_tokens=8, repeats=1, warmup=0
    )
    return run_profile(config)


class TestProfileReport:
    def test_document_validates(self, document):
        validate_profile_report(document)

    def test_all_hot_path_ops_are_timed(self, document):
        for op in (
            "chunk_prefill",
            "fuse_sequential",
            "fuse_pipelined",
            "decode_sequential",
            "decode_session",
            "serialize_kv",
            "deserialize_kv",
        ):
            assert document["ops"][op]["min_s"] > 0.0

    def test_pipeline_block_is_measured(self, document):
        pipeline = document["pipeline"]
        assert pipeline["sequential_total_s"] > 0.0
        assert pipeline["pipelined_total_s"] > 0.0
        assert pipeline["measured_speedup"] > 0.0
        assert pipeline["layer_load_time_s"] > 0.0

    def test_save_writes_bench_profile_file(self, document, tmp_path):
        path = save_profile_report(document, out_dir=tmp_path, tag="test")
        assert path.name.startswith("BENCH_profile_test_")
        assert path.exists()

    def test_summary_renders(self, document):
        text = format_profile_summary(document)
        assert "pipelined vs sequential fuse" in text

    def test_validation_rejects_missing_op(self, document):
        broken = copy.deepcopy(document)
        del broken["ops"]["fuse_sequential"]
        with pytest.raises(ValueError):
            validate_profile_report(broken)

    def test_validation_rejects_the_previous_schema_version(self, document):
        stale = copy.deepcopy(document)
        stale["schema_version"] = PROFILE_SCHEMA_VERSION - 1
        with pytest.raises(ValueError, match="schema_version"):
            validate_profile_report(stale)

    def test_validation_rejects_missing_decode_block(self, document):
        broken = copy.deepcopy(document)
        del broken["decode"]
        with pytest.raises(ValueError):
            validate_profile_report(broken)


class TestDecodeProfile:
    """Acceptance: the decode workload is sized and the per-token cost stays flat."""

    def test_workload_meets_the_acceptance_floor(self, document):
        decode = document["decode"]
        assert decode["batch_size"] >= 4
        assert decode["n_tokens"] >= 64

    def test_per_token_decode_cost_is_not_quadratic(self, document):
        """On the session's preallocated pad only attention's O(T) read grows
        with the context; a concatenate-per-token cache would roughly triple
        the per-token cost between the first and last window here."""
        scaling = document["decode"]["scaling"]
        assert scaling["per_token_first_s"] > 0.0
        # Measured ~1.0-1.2 on the preallocated cache; the legacy
        # concatenate-per-token path sat near 3. 2.5 leaves CI-noise margin
        # while still separating the regimes.
        assert scaling["per_token_growth"] < 2.5

    def test_scaling_helper_rejects_short_runs(self):
        from repro.model.config import get_config
        from repro.model.transformer import TransformerModel

        model = TransformerModel(get_config("tiny"), seed=0)
        with pytest.raises(ValueError):
            measure_decode_scaling(model, n_tokens=16, window=16)


class TestBaselineGate:
    def test_no_failure_within_budget(self, document):
        assert check_against_baseline(document, copy.deepcopy(document)) == []

    def test_regression_detected(self, document):
        baseline = copy.deepcopy(document)
        for op in ("fuse_sequential", "fuse_pipelined"):
            baseline["ops"][op]["min_s"] = document["ops"][op]["min_s"] / 10.0
        failures = check_against_baseline(document, baseline, max_regression=2.0)
        assert len(failures) == 2
        assert "fuse_sequential" in failures[0]

    def test_baseline_ops_the_report_no_longer_times_are_ignored(self, document):
        """A baseline from before the re-gather decode path was deleted still
        carries ``decode_batched``; the gate must not trip on it."""
        baseline = copy.deepcopy(document)
        baseline["ops"]["decode_batched"] = {"min_s": 1e-9, "mean_s": 1e-9, "max_s": 1e-9}
        assert check_against_baseline(document, baseline) == []

    def test_missing_baseline_op_is_skipped(self, document):
        baseline = copy.deepcopy(document)
        del baseline["ops"]["fuse_pipelined"]
        failures = check_against_baseline(document, baseline)
        assert all("fuse_pipelined" not in f for f in failures)


class TestDecodeSessionProfile:
    """Acceptance: the persistent-pad session decode is profiled and gated —
    it amortises vs per-request width-1 sessions at batch >= 4."""

    def test_session_op_is_timed_and_validated(self, document):
        assert document["ops"]["decode_session"]["min_s"] > 0.0
        assert document["schema_version"] == PROFILE_SCHEMA_VERSION

    def test_session_amortises_vs_sequential_at_batch_4(self, document):
        decode = document["decode"]
        assert decode["batch_size"] >= 4
        assert (
            document["ops"]["decode_session"]["min_s"]
            < document["ops"]["decode_sequential"]["min_s"]
        )
        assert decode["session_speedup_vs_sequential"] > 1.0

    def test_width_scaling_shows_amortisation(self, document):
        width = document["decode"]["width_scaling"]
        assert width["widths"] == sorted(width["widths"])
        assert max(width["widths"]) >= 4
        by_width = dict(zip(width["widths"], width["amortisation_vs_sequential"]))
        # One width-W step costs well under W width-1 steps.
        assert by_width[max(width["widths"])] > 1.5

    def test_session_op_is_gated(self, document):
        baseline = copy.deepcopy(document)
        baseline["ops"]["decode_session"]["min_s"] = (
            document["ops"]["decode_session"]["min_s"] / 10.0
        )
        failures = check_against_baseline(document, baseline, max_regression=2.0)
        assert len(failures) == 1
        assert "decode_session" in failures[0]

    def test_validation_rejects_missing_width_scaling(self, document):
        broken = copy.deepcopy(document)
        del broken["decode"]["width_scaling"]
        with pytest.raises(ValueError):
            validate_profile_report(broken)
        broken = copy.deepcopy(document)
        del broken["ops"]["decode_session"]
        with pytest.raises(ValueError):
            validate_profile_report(broken)

    def test_summary_renders_the_session_lines(self, document):
        from repro.bench.profile import format_profile_summary

        text = format_profile_summary(document)
        assert "decode session" in text
        assert "session step by batch width" in text


class TestStoreProfile:
    """Acceptance: the tiered-store lookup is profiled and gated, and every
    timed lookup is a slow-tier hit that promotes (and so demotes)."""

    def test_store_lookup_op_is_timed(self, document):
        assert document["ops"]["store_lookup"]["min_s"] > 0.0

    def test_store_block_shows_promotion_on_every_lookup(self, document):
        store = document["store"]
        assert store["bytes_stored"] > 0
        assert store["ram_chunks"] == store["n_chunks"] - 1
        assert store["slow_tier_hits"] == store["n_chunks"]
        ram, slow = store["tiers"]
        # Each slow hit promoted its chunk, and the RAM victim it evicted
        # was already held below (inclusive hierarchy).
        assert ram["evictions"] == ram["misses"] == store["n_chunks"]
        assert slow["hits"] == store["n_chunks"]

    def test_store_lookup_is_gated(self, document):
        baseline = copy.deepcopy(document)
        baseline["ops"]["store_lookup"]["min_s"] = (
            document["ops"]["store_lookup"]["min_s"] / 10.0
        )
        failures = check_against_baseline(document, baseline, max_regression=2.0)
        assert len(failures) == 1
        assert "store_lookup" in failures[0]

    def test_validation_rejects_missing_store_block(self, document):
        broken = copy.deepcopy(document)
        del broken["store"]
        with pytest.raises(ValueError):
            validate_profile_report(broken)
        broken = copy.deepcopy(document)
        del broken["ops"]["store_lookup"]
        with pytest.raises(ValueError):
            validate_profile_report(broken)

    def test_summary_renders_the_store_line(self, document):
        assert "tiered store" in format_profile_summary(document)



class TestRoutingProfile:
    """The gated routing decisions run over a fleet whose replicas carry
    projected load, not over idle replicas that all tie."""

    def test_affinity_decisions_spread_over_the_fleet(self, document):
        counts = document["fleet"]["policies"]["affinity"]["placement_counts"]
        assert sum(1 for count in counts if count > 0) >= 2

    def test_only_the_gated_policy_is_timed(self, document):
        """Ungated policies on frozen fleet state time degenerate work
        (``least_loaded`` repeats one argmin), so only affinity is timed."""
        fleet = document["fleet"]
        assert fleet["gated_policy"] == "affinity"
        assert set(fleet["policies"]) == {"affinity"}
        affinity = fleet["policies"]["affinity"]
        assert affinity["min_s"] == document["ops"]["routing_decision"]["min_s"]
        assert affinity["decision_s"] == affinity["min_s"] / fleet["n_decisions"]

    def test_validation_rejects_a_fleet_block_without_the_gated_policy(self, document):
        broken = copy.deepcopy(document)
        broken["fleet"]["policies"] = {}
        with pytest.raises(ValueError, match="gated_policy"):
            validate_profile_report(broken)


class TestPreemptResumeProfile:
    """Acceptance: the scheduler's pause/resume round-trip is profiled and
    gated — preempting a decode slot must stay a cheap, bounded operation."""

    def test_preempt_resume_op_is_timed(self, document):
        assert document["ops"]["preempt_resume"]["min_s"] > 0.0
        assert document["decode"]["preempt_resume_s"] == (
            document["ops"]["preempt_resume"]["min_s"]
        )

    def test_round_trip_is_cheaper_than_a_full_decode_run(self, document):
        """One preempt/rejoin/step cycle vs the whole B×T session decode:
        if a single round-trip cost as much as decoding the entire workload,
        preemption would never pay for itself."""
        assert (
            document["ops"]["preempt_resume"]["min_s"]
            < document["ops"]["decode_session"]["min_s"]
        )

    def test_preempt_resume_is_gated(self, document):
        baseline = copy.deepcopy(document)
        baseline["ops"]["preempt_resume"]["min_s"] = (
            document["ops"]["preempt_resume"]["min_s"] / 10.0
        )
        failures = check_against_baseline(document, baseline, max_regression=2.0)
        assert len(failures) == 1
        assert "preempt_resume" in failures[0]

    def test_validation_rejects_missing_preempt_op(self, document):
        broken = copy.deepcopy(document)
        del broken["ops"]["preempt_resume"]
        with pytest.raises(ValueError):
            validate_profile_report(broken)
        broken = copy.deepcopy(document)
        del broken["decode"]["preempt_resume_s"]
        with pytest.raises(ValueError):
            validate_profile_report(broken)

    def test_summary_renders_the_preempt_line(self, document):
        assert "preempt/resume round-trip" in format_profile_summary(document)
