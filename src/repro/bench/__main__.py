"""CLI entrypoint: ``python -m repro.bench``.

Runs a scheme × model × device × recompute-ratio sweep over a synthesized
RAG workload and writes a ``BENCH_*.json`` report of deterministic
projections (no wall-clock field).  ``--smoke`` selects the small
configuration CI runs on every push (finishes in seconds).

``--profile`` instead runs the profiled perf harness (hot-path op timings +
measured pipelined-vs-sequential fuse speedup) and writes a
``BENCH_profile_*.json``; ``--check-baseline`` turns it into the CI
regression gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.bench.experiment import (
    ADMISSION_POLICIES,
    ExperimentConfig,
    ExperimentRunner,
)
from repro.bench.report import format_summary, report_to_dict, save_report
from repro.bench.workload import ARRIVAL_PATTERNS, DATASET_PRESETS
from repro.kvstore.device import DEVICE_PRESETS
from repro.kvstore.precision import PRECISION_PRESETS
from repro.model.config import MODEL_PRESETS
from repro.serving.engine import SCHEMES
from repro.serving.router import ROUTING_POLICIES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="CacheBlend serving-scheme benchmark sweeps",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the small CI-sized sweep (overrides size-related options)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the profiled perf harness instead of the scheme sweep "
        "(writes BENCH_profile_*.json)",
    )
    parser.add_argument(
        "--check-baseline", default=None, metavar="PATH",
        help="with --profile: fail (exit 1) if any gated op's best "
        "wall-clock (fuse, served TTFT, decode, preemption, store lookup, "
        "routing, int8 dequant) regresses >2x against this baseline "
        "profile JSON",
    )
    parser.add_argument(
        "--models", nargs="+", default=None, metavar="MODEL",
        help=f"model presets to sweep (known: {', '.join(sorted(MODEL_PRESETS))})",
    )
    parser.add_argument(
        "--devices", nargs="+", default=None, metavar="DEVICE",
        help=f"storage devices to sweep (known: {', '.join(sorted(DEVICE_PRESETS))})",
    )
    parser.add_argument(
        "--schemes", nargs="+", default=None, choices=SCHEMES, metavar="SCHEME",
        help=f"serving schemes to sweep (default: all of {', '.join(SCHEMES)})",
    )
    parser.add_argument(
        "--ratios", nargs="+", type=float, default=None, metavar="R",
        help="CacheBlend recompute ratios to sweep (default: 0.15)",
    )
    parser.add_argument(
        "--dataset", default="2wikimqa", choices=sorted(DATASET_PRESETS),
        help="workload dataset preset",
    )
    parser.add_argument("--rate", type=float, default=1.0, help="requests per second")
    parser.add_argument(
        "--arrival", default="poisson", choices=ARRIVAL_PATTERNS,
        help="arrival process: poisson, or the overload-inducing bursty/"
        "diurnal presets (same average rate, transient overload windows)",
    )
    parser.add_argument(
        "--ttft-slo", type=float, default=None, metavar="SECONDS",
        help="stamp this TTFT deadline on every request (enables goodput/"
        "SLO-attainment accounting; required for --admission-policies slo)",
    )
    parser.add_argument(
        "--admission-policies", nargs="+", default=None,
        choices=ADMISSION_POLICIES, metavar="POLICY",
        help="admission-policy axis: each cell is scheduled once per policy "
        "('none' serves everything; 'slo' rejects predicted deadline misses "
        "and preempts decode slots for at-risk prefills)",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="P",
        help="inject chunk-store lookup faults at this per-chunk probability: "
        "faulted chunks are recomputed (correct output, higher TTFT) and "
        "cells report the TTFT inflation vs a clean twin",
    )
    parser.add_argument("--n-requests", type=int, default=100)
    parser.add_argument("--n-servers", type=int, default=1)
    parser.add_argument("--max-batch-tokens", type=int, default=16_384)
    parser.add_argument("--zipf-alpha", type=float, default=1.0)
    parser.add_argument(
        "--store-capacities", nargs="+", type=int, default=None, metavar="CHUNKS",
        help="RAM-tier store capacities (in chunks) to sweep: each point "
        "replays the workload through a RAM→slow tiered chunk store and "
        "reports store_hit_rate/store_bytes_stored per cell",
    )
    parser.add_argument(
        "--store-slow-factor", type=float, default=4.0, metavar="X",
        help="slow-tier capacity as a multiple of the RAM tier (default 4)",
    )
    parser.add_argument(
        "--kv-dtypes", nargs="+", default=None,
        choices=PRECISION_PRESETS, metavar="DTYPE",
        help="KV precision axis: store dtype presets to sweep (e.g. float16 "
        "int8 mixed); each cell is priced at that precision policy's KV "
        "width and annotated with the measured fusion quality of the dtype "
        "(mean KV / attention deviation on the proxy model)",
    )
    parser.add_argument(
        "--fleet-sizes", nargs="+", type=int, default=None, metavar="N",
        help="fleet axis: replica counts to sweep (e.g. 1 2 4 8); each cell "
        "routes the workload over N engine replicas with private chunk "
        "stores and reports per-replica hit rates and utilisation skew",
    )
    parser.add_argument(
        "--routing-policies", nargs="+", default=None,
        choices=ROUTING_POLICIES, metavar="POLICY",
        help="routing policies of the fleet axis "
        f"(default: all of {', '.join(ROUTING_POLICIES)})",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default=".", help="directory for BENCH_*.json")
    parser.add_argument("--tag", default=None, help="label embedded in the filename")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    # --smoke overrides only the size-related options (request count and
    # rate); everything else the user passed explicitly is respected and
    # recorded as-is in the report's config block.
    smoke = ExperimentConfig.smoke() if args.smoke else None
    return ExperimentConfig(
        models=tuple(args.models or ("mistral-7b", "yi-34b")),
        devices=tuple(args.devices or ("cpu_ram", "nvme_ssd")),
        schemes=tuple(args.schemes or SCHEMES),
        recompute_ratios=tuple(args.ratios or (0.15,)),
        dataset=args.dataset,
        request_rate=smoke.request_rate if smoke else args.rate,
        n_requests=smoke.n_requests if smoke else args.n_requests,
        n_servers=args.n_servers,
        max_batch_tokens=args.max_batch_tokens,
        zipf_alpha=args.zipf_alpha,
        store_capacity_chunks=tuple(args.store_capacities or ()),
        store_slow_capacity_factor=args.store_slow_factor,
        arrival_pattern=args.arrival,
        ttft_slo_s=args.ttft_slo,
        admission_policies=tuple(args.admission_policies or ("none",)),
        fault_rate=args.fault_rate,
        fleet_sizes=tuple(args.fleet_sizes or ()),
        routing_policies=tuple(args.routing_policies or ROUTING_POLICIES),
        kv_dtypes=tuple(args.kv_dtypes or ()),
        seed=args.seed,
    )


def run_profile_command(args: argparse.Namespace) -> int:
    from repro.bench.profile import (
        ProfileConfig,
        check_against_baseline,
        format_profile_summary,
        run_profile,
        save_profile_report,
    )

    base = ProfileConfig.smoke() if args.smoke else ProfileConfig()
    config = dataclasses.replace(base, seed=args.seed)
    document = run_profile(config)
    tag = args.tag if args.tag is not None else ("smoke" if args.smoke else "")
    out_path = save_profile_report(document, out_dir=args.out_dir, tag=tag)
    print(format_profile_summary(document))
    print(f"\nwrote {out_path}")
    if args.check_baseline:
        baseline = json.loads(Path(args.check_baseline).read_text())
        failures = check_against_baseline(document, baseline)
        if failures:
            print("perf regression vs baseline:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"baseline check passed ({args.check_baseline})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.profile:
        return run_profile_command(args)
    try:
        config = config_from_args(args)
    except ValueError as error:
        # Cross-flag validation (e.g. --admission-policies slo without
        # --ttft-slo) reads as a usage error, not a traceback.
        parser.error(str(error))
    report = ExperimentRunner(config).run()
    tag = args.tag if args.tag is not None else ("smoke" if args.smoke else "")
    out_path = save_report(report, out_dir=args.out_dir, tag=tag)
    print(format_summary(report_to_dict(report, tag=tag)))
    print(f"\nwrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
