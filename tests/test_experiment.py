"""Experiment runner: sweep semantics, report schema and paper-level claims."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.bench.experiment import (
    QUALITY_SCORES,
    ExperimentConfig,
    ExperimentRunner,
)
from repro.bench.replay import simulate_fleet
from repro.bench.workload import WorkloadGenerator
from repro.kvstore.config import StoreConfig
from repro.kvstore.device import get_device
from repro.kvstore.serialization import KVBlob, serialize_kv
from repro.model.config import get_config
from repro.model.tensors import KVCache, LayerKV
from repro.serving.costmodel import ServingCostModel
from repro.serving.engine import InferenceEngine
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.bench.report import (
    SCHEMA_VERSION,
    format_summary,
    report_to_dict,
    save_report,
    validate_report,
)


@pytest.fixture(scope="module")
def report():
    config = ExperimentConfig(
        models=("mistral-7b", "yi-34b"),
        devices=("cpu_ram", "nvme_ssd"),
        n_requests=40,
        request_rate=0.8,
        seed=0,
    )
    return ExperimentRunner(config).run()


class TestSweepSemantics:
    def test_one_cell_per_sweep_point(self, report):
        config = report.config
        expected = (
            len(config.models)
            * len(config.devices)
            * len(config.schemes)
            * len(config.recompute_ratios)
        )
        assert len(report.cells) == expected

    def test_full_recompute_recomputes_everything(self, report):
        for cell in report.cells:
            if cell.scheme == "full_recompute":
                assert cell.mean_recomputed_fraction == pytest.approx(1.0)

    def test_cacheblend_recomputes_less_than_full(self, report):
        """CacheBlend recomputes the ratio on cached chunks plus cold chunks
        and the suffix in full — strictly less than full prefill, strictly
        more than its nominal ratio whenever any chunk is cold."""
        for cell in report.cells:
            if cell.scheme == "cacheblend":
                assert cell.recompute_ratio < cell.mean_recomputed_fraction < 1.0

    def test_quality_adjustment_inflates_lossy_schemes(self, report):
        for cell in report.cells:
            expected = cell.mean_ttft / QUALITY_SCORES[cell.scheme]
            assert cell.quality_adjusted_ttft == pytest.approx(expected)

    def test_every_cell_prices_a_finite_positive_ttft(self, report):
        for cell in report.cells:
            assert np.isfinite(cell.mean_ttft) and cell.mean_ttft > 0.0


class TestPaperClaims:
    def test_cacheblend_beats_baselines_on_every_model_device(self, report):
        """The acceptance criterion: CacheBlend wins TTFT against full
        recompute and quality-adjusted full reuse on 2 devices x 2 models."""
        assert len(report.comparisons) == 4
        for row in report.comparisons:
            assert row["cacheblend_beats_full_recompute"], row
            assert row["cacheblend_beats_full_reuse_quality_adjusted"], row
            assert row["speedup_vs_full_recompute"] > 1.0


class TestReportSchema:
    def test_document_validates_and_roundtrips(self, report, tmp_path):
        document = report_to_dict(report, tag="test")
        validate_report(document)
        assert document["schema_version"] == SCHEMA_VERSION
        reloaded = json.loads(json.dumps(document))
        validate_report(reloaded)

    def test_document_holds_no_proxy_block(self, report):
        """A sweep report holds projections only: the profile harness and
        perfbench time the real serving path, and no ``proxy`` block of
        wall-clock measurements rides along in the document."""
        assert "proxy" not in report_to_dict(report, tag="test")

    def test_save_report_writes_bench_json(self, report, tmp_path):
        path = save_report(report, out_dir=tmp_path, tag="unit")
        assert path.name.startswith("BENCH_unit_")
        assert path.suffix == ".json"
        validate_report(json.loads(path.read_text()))

    def test_config_block_and_summary_name_no_scheduler(self, report):
        """Continuous batching with overlapped loads is the only scheduler,
        so neither the config block nor the summary header names one."""
        document = report_to_dict(report, tag="test")
        assert not [
            key for key in document["config"] if "scheduler" in key or "overlap" in key
        ]
        header = format_summary(document).splitlines()[0]
        assert header == (
            f"bench report (tag=test, {len(report.cells)} cells, dataset=2wikimqa)"
        )

    def test_validation_rejects_missing_fields(self, report):
        document = report_to_dict(report, tag="broken")
        del document["cells"][0]["mean_ttft"]
        with pytest.raises(ValueError):
            validate_report(document)

    def test_validation_rejects_empty_cells(self, report):
        document = report_to_dict(report, tag="broken")
        document["cells"] = []
        with pytest.raises(ValueError):
            validate_report(document)


class TestMultiRatioSweep:
    def test_baselines_replicated_across_ratios(self):
        config = ExperimentConfig(
            models=("mistral-7b",),
            devices=("nvme_ssd",),
            recompute_ratios=(0.05, 0.3),
            n_requests=15,
        )
        report = ExperimentRunner(config).run()
        assert len(report.cells) == len(config.schemes) * 2
        # Ratio-independent schemes carry identical metrics on every ratio
        # row (they are served once); cacheblend genuinely differs.
        by_scheme: dict[str, list] = {}
        for cell in report.cells:
            by_scheme.setdefault(cell.scheme, []).append(cell)
        a, b = by_scheme["full_recompute"]
        assert a.mean_ttft == b.mean_ttft
        blend_a, blend_b = by_scheme["cacheblend"]
        assert blend_a.mean_ttft != blend_b.mean_ttft
        # Every ratio still gets a complete comparison row.
        assert len(report.comparisons) == 2
        for row in report.comparisons:
            assert "full_recompute_mean_ttft" in row
            assert "full_reuse_quality_adjusted_ttft" in row


class TestCLIConfig:
    def test_smoke_overrides_only_size_options(self):
        from repro.bench.__main__ import build_parser, config_from_args

        args = build_parser().parse_args(
            ["--smoke", "--dataset", "samsum", "--zipf-alpha", "2.0"]
        )
        config = config_from_args(args)
        smoke = ExperimentConfig.smoke()
        assert config.n_requests == smoke.n_requests
        assert config.request_rate == smoke.request_rate
        assert config.dataset == "samsum"
        assert config.zipf_alpha == 2.0

    def test_explicit_options_reach_the_config(self):
        from repro.bench.__main__ import build_parser, config_from_args

        args = build_parser().parse_args(
            ["--models", "llama-70b", "--schemes", "cacheblend", "--ratios", "0.2"]
        )
        config = config_from_args(args)
        assert config.models == ("llama-70b",)
        assert config.schemes == ("cacheblend",)
        assert config.recompute_ratios == (0.2,)

    def test_smoke_run_writes_the_same_report_twice(self, tmp_path):
        """``--smoke`` writes projections only: two runs into distinct
        directories write valid documents that are equal once ``created``
        is popped."""
        from repro.bench.__main__ import main

        documents = []
        for name in ("first", "second"):
            out_dir = tmp_path / name
            assert main(["--smoke", "--out-dir", str(out_dir)]) == 0
            (path,) = out_dir.glob("BENCH_smoke_*.json")
            document = json.loads(path.read_text())
            validate_report(document)
            document.pop("created")
            documents.append(document)
        assert documents[0] == documents[1]

    def test_no_flag_picks_a_scheduler_or_switches_load_overlap(self):
        from repro.bench.__main__ import build_parser

        flags = [
            flag
            for action in build_parser()._actions
            for flag in action.option_strings
        ]
        assert "--n-servers" in flags
        assert not [flag for flag in flags if "schedul" in flag or "overlap" in flag]


class TestConfigValidation:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(schemes=("warp_drive",))

    def test_smoke_config_is_small(self):
        config = ExperimentConfig.smoke()
        assert config.n_requests <= 100
        assert len(config.models) == 2
        assert len(config.devices) == 2


class TestDecodeThroughputColumn:
    def test_every_cell_reports_decode_tokens_per_s(self, report):
        for cell in report.cells:
            assert cell.mean_decode_tokens_per_s > 0.0

    def test_column_required_by_the_schema(self, report):
        document = report_to_dict(report, tag="broken")
        del document["cells"][0]["mean_decode_tokens_per_s"]
        with pytest.raises(ValueError):
            validate_report(document)


class TestStoreCapacityAxis:
    """The store-capacity sweep axis: per-cell hit rate, bytes and TTFT."""

    @pytest.fixture(scope="class")
    def store_report(self):
        config = ExperimentConfig(
            models=("mistral-7b",),
            devices=("nvme_ssd",),
            schemes=("cacheblend", "full_recompute"),
            recompute_ratios=(0.15,),
            n_requests=40,
            store_capacity_chunks=(4, 64),
            seed=0,
        )
        return ExperimentRunner(config).run()

    def test_axis_multiplies_the_cell_count(self, store_report):
        config = store_report.config
        expected = (
            len(config.store_capacity_chunks)
            * len(config.models)
            * len(config.devices)
            * len(config.schemes)
            * len(config.recompute_ratios)
        )
        assert len(store_report.cells) == expected

    def test_cells_carry_the_store_columns(self, store_report):
        for cell in store_report.cells:
            assert cell.store_capacity_chunks in (4, 64)
            assert 0.0 <= cell.store_hit_rate <= 1.0
            assert cell.store_bytes_stored > 0
            assert 0.0 <= cell.store_slow_tier_hit_share <= 1.0

    def test_capacity_drives_the_hit_rate_ttft_hockey_stick(self, store_report):
        cells = {
            cell.store_capacity_chunks: cell
            for cell in store_report.cells
            if cell.scheme == "cacheblend"
        }
        small, large = cells[4], cells[64]
        assert small.store_hit_rate < large.store_hit_rate
        assert small.store_bytes_stored < large.store_bytes_stored
        # Less resident KV means more recompute and more slow-tier reads:
        # measured TTFT (per-tier read delays included) rises.
        assert small.mean_ttft > large.mean_ttft

    def test_capacity_axis_replays_through_the_real_tiered_store(self):
        """The axis reports what the real inclusive TieredKVStore does with
        the smoke workload at RAM 8 / slow 32 chunks, replayed here by hand
        (a promoted chunk stays in the slow tier too)."""
        config = replace(
            ExperimentConfig.smoke(),
            models=("mistral-7b",),
            devices=("nvme_ssd",),
            schemes=("cacheblend",),
            store_capacity_chunks=(8,),
        )
        generator = WorkloadGenerator(
            request_rate=config.request_rate, seed=config.seed
        )
        requests = generator.generate(config.n_requests)
        entry = KVBlob(
            serialize_kv(
                KVCache(
                    [LayerKV(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)))],
                    token_ids=[0],
                    positions=[0],
                )
            )
        )
        nbytes = entry.nbytes
        store_config = StoreConfig(
            backend="tiered", tier_capacity_bytes=(8 * nbytes, 32 * nbytes)
        )
        store = store_config.build()
        expected = []
        for chunk_ids in generator.chunk_ids:
            tiers = []
            for chunk in chunk_ids:
                found = store.lookup(chunk)
                if not found.hit:
                    store.put(chunk, entry)
                tiers.append(found.tier_index)
            hits = [tier is not None for tier in tiers]
            n_hits = sum(hits)
            n_prefix = (hits + [False]).index(False)
            n_slow = sum(1 for tier in tiers if tier)
            expected.append(
                (
                    n_hits / len(tiers),
                    n_prefix / len(tiers),
                    n_slow / n_hits if n_hits else 0.0,
                )
            )

        runner = ExperimentRunner(config)
        (cell,) = runner.run().cells
        assert cell.store_hit_rate == pytest.approx(store.stats.hit_rate)
        assert cell.store_slow_tier_hit_share == pytest.approx(
            store.tiers[1].stats.hits / store.stats.hits
        )
        assert runner.store_config(8) == store_config
        run = simulate_fleet(
            requests,
            generator.chunk_ids,
            policy="least_loaded",
            n_replicas=1,
            engine=InferenceEngine(
                ServingCostModel(get_config("mistral-7b")), "full_recompute"
            ),
            scheduler=ContinuousBatchingScheduler(),
            store=runner.store_config(8),
        )
        assert [
            (r.cached_chunk_fraction, r.prefix_cached_fraction, r.slow_tier_fraction)
            for r in run.requests
        ] == pytest.approx(expected)

    def test_store_columns_are_null_without_the_axis(self, report):
        for cell in report.cells:
            assert cell.store_capacity_chunks is None
            assert cell.store_hit_rate is None
            assert cell.store_bytes_stored is None
            assert cell.store_slow_tier_hit_share is None

    def test_document_with_the_axis_validates(self, store_report, tmp_path):
        document = report_to_dict(store_report, tag="store")
        validate_report(document)
        for row in document["comparisons"]:
            assert row["store_capacity_chunks"] in (4, 64)
            assert 0.0 <= row["store_hit_rate"] <= 1.0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(store_capacity_chunks=(0,))
        with pytest.raises(ValueError):
            ExperimentConfig(store_slow_capacity_factor=0.5)

    def test_cli_flags_reach_the_config(self):
        from repro.bench.__main__ import build_parser, config_from_args

        args = build_parser().parse_args(
            ["--store-capacities", "8", "32", "--store-slow-factor", "2.0"]
        )
        config = config_from_args(args)
        assert config.store_capacity_chunks == (8, 32)
        assert config.store_slow_capacity_factor == 2.0


class TestAdmissionAxis:
    """Overload robustness: SLO admission + preemption vs plain serving,
    compared inside a single report (the acceptance criterion)."""

    @pytest.fixture(scope="class")
    def overload_report(self):
        config = ExperimentConfig(
            models=("mistral-7b",),
            devices=("nvme_ssd",),
            schemes=("cacheblend",),
            n_requests=60,
            request_rate=3.0,
            arrival_pattern="bursty",
            ttft_slo_s=8.0,
            admission_policies=("none", "slo"),
            seed=13,
        )
        return ExperimentRunner(config).run()

    def test_one_cell_per_policy(self, overload_report):
        policies = sorted(c.admission_policy for c in overload_report.cells)
        assert policies == ["none", "slo"]

    def test_slo_policy_strictly_improves_goodput(self, overload_report):
        by_policy = {c.admission_policy: c for c in overload_report.cells}
        plain, slo = by_policy["none"], by_policy["slo"]
        assert slo.goodput > plain.goodput
        assert slo.slo_attainment > plain.slo_attainment
        # Shedding/preemption actually engaged (otherwise the comparison is
        # vacuous): at least one of the two mechanisms fired.
        assert slo.rejection_rate > 0.0 or slo.preemption_count > 0

    def test_admission_comparison_row_in_the_same_report(self, overload_report):
        rows = [
            row
            for row in overload_report.comparisons
            if row.get("comparison") == "admission_vs_none"
        ]
        assert len(rows) == 1
        (row,) = rows
        assert row["admission_improves_goodput"]
        assert row["goodput_gain"] > 1.0

    def test_document_validates(self, overload_report):
        validate_report(report_to_dict(overload_report, tag="overload"))

    def test_plain_cells_report_trivial_robustness_columns(self, report):
        for cell in report.cells:
            assert cell.admission_policy == "none"
            assert cell.rejection_rate == 0.0
            assert cell.preemption_count == 0
            assert cell.slo_attainment == 1.0
            # Without deadlines every served request "meets SLO", so goodput
            # collapses to throughput.
            assert cell.goodput == pytest.approx(cell.throughput)

    def test_slo_policy_requires_a_deadline(self):
        with pytest.raises(ValueError):
            ExperimentConfig(admission_policies=("none", "slo"))

    def test_unknown_policy_and_pattern_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(admission_policies=("vip_only",), ttft_slo_s=5.0)
        with pytest.raises(ValueError):
            ExperimentConfig(arrival_pattern="lumpy")


class TestFaultAxis:
    """Injected store faults: recompute fallback priced, twin-run inflation."""

    @pytest.fixture(scope="class")
    def fault_report(self):
        config = ExperimentConfig(
            models=("mistral-7b",),
            devices=("nvme_ssd",),
            schemes=("cacheblend", "full_recompute"),
            n_requests=40,
            fault_rate=0.05,
            seed=0,
        )
        return ExperimentRunner(config).run()

    def test_cells_carry_fault_columns(self, fault_report):
        for cell in fault_report.cells:
            assert cell.fault_rate == 0.05
            assert cell.fault_recovered_chunks > 0
            assert cell.fault_ttft_inflation is not None

    def test_fault_recovery_inflates_cacheblend_ttft(self, fault_report):
        """Recomputing faulted chunks costs real prefill time for schemes
        that reuse KV; full recompute never trusted the store, so its twin
        runs are identical."""
        by_scheme = {c.scheme: c for c in fault_report.cells}
        assert by_scheme["cacheblend"].fault_ttft_inflation > 1.0
        assert by_scheme["full_recompute"].fault_ttft_inflation == pytest.approx(1.0)

    def test_fault_relabelling_is_deterministic(self, fault_report):
        config = fault_report.config
        twin = ExperimentRunner(config).run()
        assert [c.fault_recovered_chunks for c in twin.cells] == [
            c.fault_recovered_chunks for c in fault_report.cells
        ]
        assert [c.mean_ttft for c in twin.cells] == [
            c.mean_ttft for c in fault_report.cells
        ]

    def test_fault_free_cells_have_null_inflation(self, report):
        for cell in report.cells:
            assert cell.fault_rate == 0.0
            assert cell.fault_recovered_chunks == 0
            assert cell.fault_ttft_inflation is None

    def test_fault_rate_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(fault_rate=-0.1)
        with pytest.raises(ValueError):
            ExperimentConfig(fault_rate=1.5)

    def test_document_validates(self, fault_report):
        validate_report(report_to_dict(fault_report, tag="faults"))


class TestFleetAxis:
    """The fleet sweep axis: n_servers x routing_policy cells, schema v5."""

    @pytest.fixture(scope="class")
    def fleet_report(self):
        config = ExperimentConfig(
            models=("mistral-7b",),
            devices=("nvme_ssd",),
            schemes=("cacheblend",),
            n_requests=60,
            fleet_sizes=(2, 4),
            seed=0,
        )
        return ExperimentRunner(config).run()

    def test_one_cell_per_size_and_policy(self, fleet_report):
        config = fleet_report.config
        expected = (
            len(config.fleet_sizes)
            * len(config.routing_policies)
            * len(config.models)
            * len(config.devices)
            * len(config.schemes)
            * len(config.recompute_ratios)
        )
        assert len(fleet_report.cells) == expected

    def test_cells_carry_the_fleet_columns(self, fleet_report):
        for cell in fleet_report.cells:
            assert cell.routing_policy in ("least_loaded", "consistent_hash", "affinity")
            assert cell.n_replicas in (2, 4)
            assert cell.aggregate_throughput == cell.throughput
            assert len(cell.per_replica_hit_rates) == cell.n_replicas
            assert 0.0 <= cell.fleet_hit_rate <= 1.0
            assert cell.utilisation_skew >= 1.0 - 1e-9

    def test_utilisation_counts_every_replica(self):
        config = ExperimentConfig(
            models=("mistral-7b",),
            devices=("nvme_ssd",),
            schemes=("cacheblend",),
            n_requests=40,
            seed=0,
        )
        runner = ExperimentRunner(config)
        requests, _, chunk_ids = runner._generate_workload()
        cell = runner.run_cell(
            requests, chunk_ids, "mistral-7b", "nvme_ssd", "cacheblend", 0.15,
            fleet=("least_loaded", 2),
        )
        run = simulate_fleet(
            requests,
            chunk_ids,
            policy="least_loaded",
            n_replicas=2,
            engine=InferenceEngine(
                ServingCostModel(get_config("mistral-7b")),
                scheme="cacheblend",
                device=get_device("nvme_ssd"),
                fast_device=get_device("cpu_ram"),
            ),
            scheduler=ContinuousBatchingScheduler(),
            store=runner.store_config(None),
        )
        makespan = max(t.completion_time for t in run.timings) - min(
            r.arrival_time for r in run.requests
        )
        assert cell.gpu_utilisation == pytest.approx(
            sum(run.per_replica_busy_s) / (2 * makespan)
        )

    def test_every_replica_runs_n_servers_servers(self):
        def fleet_cell(n_servers: int):
            config = ExperimentConfig(
                models=("mistral-7b",),
                devices=("nvme_ssd",),
                schemes=("cacheblend",),
                n_requests=40,
                n_servers=n_servers,
                fleet_sizes=(2,),
                routing_policies=("least_loaded",),
                seed=0,
            )
            (cell,) = ExperimentRunner(config).run().cells
            return cell

        one, two = fleet_cell(1), fleet_cell(2)
        assert two != one
        # Twice the servers per replica: the same work over twice the
        # capacity, and never a longer wait.
        assert two.gpu_utilisation < one.gpu_utilisation
        assert two.mean_ttft <= one.mean_ttft

    def test_affinity_beats_least_loaded_at_4_replicas(self, fleet_report):
        """The acceptance criterion at sweep level: under the default Zipf
        workload, affinity's aggregate store hit rate strictly exceeds
        least-loaded's at the same request rate."""
        by_policy = {
            cell.routing_policy: cell
            for cell in fleet_report.cells
            if cell.n_replicas == 4
        }
        assert (
            by_policy["affinity"].fleet_hit_rate
            > by_policy["least_loaded"].fleet_hit_rate
        )

    def test_routing_comparison_rows(self, fleet_report):
        rows = [
            row
            for row in fleet_report.comparisons
            if str(row.get("comparison", "")).startswith("routing_")
        ]
        # affinity + consistent_hash vs least_loaded, at each of 2 sizes.
        assert len(rows) == 4
        for row in rows:
            routing = (
                str(row["comparison"])
                .removeprefix("routing_")
                .removesuffix("_vs_least_loaded")
            )
            assert row["hit_rate_gain"] == pytest.approx(
                row[f"fleet_hit_rate_{routing}"] - row["fleet_hit_rate_least_loaded"]
            )
            assert f"p99_ttft_{routing}" in row
            assert f"utilisation_skew_{routing}" in row

    def test_document_validates_and_formats(self, fleet_report):
        from repro.bench.report import format_summary

        document = report_to_dict(fleet_report, tag="fleet")
        validate_report(document)
        summary = format_summary(document)
        assert "fleet x4" in summary

    def test_fleet_columns_are_null_without_the_axis(self, report):
        for cell in report.cells:
            assert cell.routing_policy is None
            assert cell.n_replicas is None
            assert cell.aggregate_throughput is None
            assert cell.per_replica_hit_rates is None
            assert cell.fleet_hit_rate is None
            assert cell.utilisation_skew is None

    def test_fleet_columns_required_by_the_schema(self, report):
        for column in (
            "routing_policy",
            "n_replicas",
            "aggregate_throughput",
            "per_replica_hit_rates",
            "fleet_hit_rate",
            "utilisation_skew",
        ):
            document = report_to_dict(report, tag="broken")
            del document["cells"][0][column]
            with pytest.raises(ValueError):
                validate_report(document)

    def test_malformed_fleet_cells_rejected(self, fleet_report):
        document = report_to_dict(fleet_report, tag="broken")
        document["cells"][0]["per_replica_hit_rates"] = [0.5]  # wrong length
        with pytest.raises(ValueError):
            validate_report(document)
        document = report_to_dict(fleet_report, tag="broken")
        document["cells"][0]["utilisation_skew"] = 0.2
        with pytest.raises(ValueError):
            validate_report(document)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(fleet_sizes=(0,))
        with pytest.raises(ValueError):
            ExperimentConfig(fleet_sizes=(2,), routing_policies=("warp_routing",))

    def test_cli_flags_reach_the_config(self):
        from repro.bench.__main__ import build_parser, config_from_args

        args = build_parser().parse_args(
            ["--fleet-sizes", "2", "4", "--routing-policies", "affinity"]
        )
        config = config_from_args(args)
        assert config.fleet_sizes == (2, 4)
        assert config.routing_policies == ("affinity",)


class TestRobustnessSchema:
    def test_robustness_columns_required_by_the_schema(self, report):
        for column in (
            "admission_policy",
            "goodput",
            "slo_attainment",
            "rejection_rate",
            "preemption_count",
            "fault_rate",
            "fault_recovered_chunks",
            "fault_ttft_inflation",
        ):
            document = report_to_dict(report, tag="broken")
            del document["cells"][0][column]
            with pytest.raises(ValueError):
                validate_report(document)

    def test_out_of_range_robustness_values_rejected(self, report):
        document = report_to_dict(report, tag="broken")
        document["cells"][0]["rejection_rate"] = 1.5
        with pytest.raises(ValueError):
            validate_report(document)

    def test_cli_flags_reach_the_config(self):
        from repro.bench.__main__ import build_parser, config_from_args

        args = build_parser().parse_args(
            [
                "--arrival", "bursty",
                "--ttft-slo", "8.0",
                "--admission-policies", "none", "slo",
                "--fault-rate", "0.05",
            ]
        )
        config = config_from_args(args)
        assert config.arrival_pattern == "bursty"
        assert config.ttft_slo_s == 8.0
        assert config.admission_policies == ("none", "slo")
        assert config.fault_rate == 0.05


class TestPrecisionAxis:
    """The KV precision sweep axis: dtype-priced bytes + measured quality."""

    @pytest.fixture(scope="class")
    def dtype_report(self):
        config = ExperimentConfig(
            models=("mistral-7b",),
            devices=("nvme_ssd",),
            schemes=("cacheblend", "full_recompute"),
            n_requests=40,
            kv_dtypes=("float16", "int8", "mixed"),
            seed=0,
        )
        return ExperimentRunner(config).run()

    def test_axis_multiplies_the_cell_count(self, dtype_report):
        config = dtype_report.config
        expected = (
            len(config.kv_dtypes)
            * len(config.models)
            * len(config.devices)
            * len(config.schemes)
            * len(config.recompute_ratios)
        )
        assert len(dtype_report.cells) == expected

    def test_cells_carry_the_precision_columns(self, dtype_report):
        for cell in dtype_report.cells:
            assert cell.kv_dtype in ("float16", "int8", "mixed")
            assert cell.store_bytes_stored > 0
            assert cell.mean_kv_deviation is not None
            assert cell.mean_kv_deviation >= 0.0
            assert cell.mean_attention_deviation >= 0.0

    def test_int8_stores_exactly_half_the_bytes_of_float16(self, dtype_report):
        by_dtype = {
            cell.kv_dtype: cell
            for cell in dtype_report.cells
            if cell.scheme == "cacheblend"
        }
        assert by_dtype["int8"].store_bytes_stored * 2 == (
            by_dtype["float16"].store_bytes_stored
        )
        # mixed sits strictly between the uniform widths.
        assert (
            by_dtype["int8"].store_bytes_stored
            < by_dtype["mixed"].store_bytes_stored
            < by_dtype["float16"].store_bytes_stored
        )

    def test_measured_quality_orders_with_precision(self, dtype_report):
        """The frontier's quality axis: wider KV dtypes deviate less, and the
        per-layer mixed policy lands at or below uniform int8."""
        by_dtype = {
            cell.kv_dtype: cell
            for cell in dtype_report.cells
            if cell.scheme == "cacheblend"
        }
        assert by_dtype["float16"].mean_kv_deviation < by_dtype["mixed"].mean_kv_deviation
        assert by_dtype["mixed"].mean_kv_deviation <= by_dtype["int8"].mean_kv_deviation

    def test_dtype_comparison_rows(self, dtype_report):
        all_rows = [
            row
            for row in dtype_report.comparisons
            if str(row.get("comparison", "")).startswith("dtype_")
        ]
        # int8 and mixed vs the float16 baseline, for each of the 2 schemes.
        assert len(all_rows) == 4
        rows = {
            str(row["comparison"]): row
            for row in all_rows
            if row["scheme"] == "cacheblend"
        }
        int8_row = rows["dtype_int8_vs_float16"]
        assert int8_row["bytes_density_gain"] == pytest.approx(2.0)
        assert int8_row["int8_denser_than_float16"] is True
        mixed_row = rows["dtype_mixed_vs_float16"]
        assert 1.0 < mixed_row["bytes_density_gain"] < 2.0

    def test_document_validates(self, dtype_report):
        document = report_to_dict(dtype_report)
        assert document["schema_version"] == SCHEMA_VERSION
        validate_report(document)

    def test_precision_columns_are_null_without_the_axis(self, report):
        for cell in report.cells:
            assert cell.kv_dtype is None
            assert cell.mean_kv_deviation is None
            assert cell.mean_attention_deviation is None

    def test_dtype_validation(self):
        with pytest.raises(ValueError, match="kv_dtype"):
            ExperimentConfig(kv_dtypes=("int4",))

    def test_fleet_cells_are_priced_at_their_kv_dtype(self):
        config = ExperimentConfig(
            models=("mistral-7b",),
            devices=("nvme_ssd",),
            schemes=("cacheblend",),
            n_requests=40,
            fleet_sizes=(2,),
            routing_policies=("least_loaded",),
            kv_dtypes=("float16", "int8"),
            seed=0,
        )
        by_dtype = {cell.kv_dtype: cell for cell in ExperimentRunner(config).run().cells}
        int8, fp16 = by_dtype["int8"], by_dtype["float16"]
        assert int8.n_replicas == fp16.n_replicas == 2
        # Half the KV bytes per token: less to load per cached chunk, and
        # half the resident bytes for the same residency.
        assert int8.mean_ttft_service < fp16.mean_ttft_service
        assert int8.store_bytes_stored < fp16.store_bytes_stored

    def test_fleet_density_gain_is_the_width_ratio(self):
        """Each dtype's fleet homes requests by its own engine's prices, so
        the two fleets hold different chunks; the density gain compares the
        dtypes' KV widths, not those residencies."""
        config = ExperimentConfig(
            models=("mistral-7b",),
            devices=("nvme_ssd",),
            schemes=("cacheblend",),
            n_requests=60,
            request_rate=0.8,
            fleet_sizes=(2,),
            routing_policies=("least_loaded",),
            store_capacity_chunks=(32,),
            kv_dtypes=("float16", "int8", "mixed"),
            fault_rate=0.05,
            seed=0,
        )
        report = ExperimentRunner(config).run()
        by_dtype = {cell.kv_dtype: cell for cell in report.cells}
        # The residencies differ: the byte ratio is not the width ratio.
        assert by_dtype["float16"].store_bytes_stored != (
            2 * by_dtype["int8"].store_bytes_stored
        )
        width = ServingCostModel(get_config("mistral-7b"), precision="float16")
        rows = {
            row["comparison"]: row
            for row in report.comparisons
            if str(row.get("comparison", "")).startswith("dtype_")
        }
        assert set(rows) == {"dtype_int8_vs_float16", "dtype_mixed_vs_float16"}
        for dtype in ("int8", "mixed"):
            row = rows[f"dtype_{dtype}_vs_float16"]
            narrow = ServingCostModel(get_config("mistral-7b"), precision=dtype)
            assert row["bytes_density_gain"] == (
                width.kv_bytes_per_token() / narrow.kv_bytes_per_token()
            )
            assert row[f"{dtype}_denser_than_float16"] is True
        assert rows["dtype_int8_vs_float16"]["bytes_density_gain"] == 2.0

    def test_cli_flags_reach_the_config(self):
        from repro.bench.__main__ import build_parser, config_from_args

        args = build_parser().parse_args(
            ["--smoke", "--kv-dtypes", "float16", "int8"]
        )
        config = config_from_args(args)
        assert config.kv_dtypes == ("float16", "int8")


class TestComposedAxes:
    """Every sweep axis composes: fleet × store capacity × KV dtype × faults."""

    @pytest.fixture(scope="class")
    def composed_report(self):
        config = ExperimentConfig(
            models=("mistral-7b",),
            devices=("nvme_ssd",),
            schemes=("cacheblend", "full_recompute"),
            n_requests=40,
            fleet_sizes=(2,),
            routing_policies=("least_loaded", "affinity"),
            store_capacity_chunks=(8, 32),
            kv_dtypes=("float16", "int8"),
            fault_rate=0.05,
            seed=0,
        )
        return ExperimentRunner(config).run()

    def test_one_cell_per_point_of_the_product(self, composed_report):
        points = {
            (
                cell.store_capacity_chunks,
                cell.routing_policy,
                cell.n_replicas,
                cell.kv_dtype,
                cell.scheme,
            )
            for cell in composed_report.cells
        }
        assert len(composed_report.cells) == len(points) == 2 * 2 * 2 * 2

    def test_cells_carry_every_axis_column(self, composed_report):
        for cell in composed_report.cells:
            assert cell.store_capacity_chunks in (8, 32)
            assert cell.store_hit_rate == cell.fleet_hit_rate
            assert len(cell.per_replica_hit_rates) == 2
            assert cell.mean_kv_deviation is not None
            assert cell.fault_rate == 0.05
            assert cell.fault_ttft_inflation is not None

    def test_document_validates(self, composed_report):
        validate_report(report_to_dict(composed_report, tag="composed"))

    def test_two_runs_write_the_same_document(self, composed_report):
        """Cells are deterministic projections on every axis: a second run
        of the composed config serialises to the same document, ``created``
        aside."""
        first = report_to_dict(composed_report, tag="composed")
        second = report_to_dict(
            ExperimentRunner(composed_report.config).run(), tag="composed"
        )
        first.pop("created")
        second.pop("created")
        assert first == second

    def test_comparison_rows_name_their_sweep_point(self, composed_report):
        routing = [
            row
            for row in composed_report.comparisons
            if str(row.get("comparison", "")).startswith("routing_")
        ]
        assert {
            (row["scheme"], row["store_capacity_chunks"], row["kv_dtype"])
            for row in routing
        } == {
            (scheme, capacity, dtype)
            for scheme in ("cacheblend", "full_recompute")
            for capacity in (8, 32)
            for dtype in ("float16", "int8")
        }
        dtype_rows = [
            row
            for row in composed_report.comparisons
            if str(row.get("comparison", "")).startswith("dtype_")
        ]
        assert len(dtype_rows) == 2 * 2 * 2  # scheme × capacity × routing
        assert all(row["n_replicas"] == 2 for row in dtype_rows)
