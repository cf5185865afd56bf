"""Serving benchmark: CacheBlend's real path under two RAG traffic mixes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rag_warm --seed 1 --seconds 30 --trace 0

``--trace 0`` serves the workload untraced and prints the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` serves it twice, untraced then traced,
prints the per-layer metrics and a "where the time goes" table, and writes
the spans as Chrome trace-event JSON under ``.perfbench/``.  The last line of
standard output is always one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).

A run exits non-zero, without that line, when the program cannot be
imported from ``src/`` next to this directory or when a guard finds the
workload degenerate (see README.md).
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread: the load is this process's serving-loop thread plus the
# executor's kv-loader thread, and nothing else.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
#: Sampled requests replayed by the output check and quality probe.
CHECK_SAMPLE = 6

END_TO_END_UNITS = {
    "setup_s": "s",
    "ttft_p50_s": "s",
    "ttft_p90_s": "s",
    "itl_p50_s": "s",
    "itl_p99_s": "s",
    "output_tok_s": "tok/s",
    "slo_attain": "fraction",
    "ok_frac": "fraction",
    "attn_dev": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "model.layer_full_s": "s",
    "model.layer_selective_s": "s",
    "model.chunk_prefill_s": "s",
    "model.chunk_prefills": "count",
    "model.decode_step_s": "s",
    "model.decode_width": "count",
    "model.join_s": "s",
    "model.session_reserved_mb": "MB",
    "model.session_used_mb": "MB",
    "core.fuse_s": "s",
    "core.compute_s": "s",
    "core.layer0_s": "s",
    "core.load_s": "s",
    "core.load_wait_s": "s",
    "core.stall_s": "s",
    "core.recompute_frac": "fraction",
    "core.ratio": "fraction",
    "core.engine_other_s": "s",
    "kvstore.lookup_s": "s",
    "kvstore.hit_rate": "fraction",
    "kvstore.put_s": "s",
    "kvstore.puts": "count",
    "kvstore.evictions": "count",
    "kvstore.slow_tier_hits": "count",
    "kvstore.bytes_stored_mb": "MB",
    "kvstore.read_wait_s": "s",
    "tokenizer.encode_s": "s",
    "tokenizer.hit_rate": "fraction",
    "driver.queue_wait_p50_s": "s",
    "driver.queue_wait_p90_s": "s",
    "driver.queue_depth": "count",
    "trace.overhead_frac": "fraction",
}

#: Guard limits (a run that times a degenerate case fails loudly).
CHURN_HIT_RATE_BAND = (0.2, 0.8)
MAX_LOAD_WAIT_SHARE = 0.2


class Degenerate(Exception):
    """The run measured a degenerate case of its workload."""


def import_program():
    """Put this checkout's ``src/`` first on the path and import from it."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not this checkout")


def provenance(args) -> dict:
    import numpy as np

    digest = hashlib.blake2b(digest_size=16)
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_digest": digest.hexdigest(),
    }


def check_threads(nproc: int) -> None:
    """Live OS threads plus the executor's kv-loader must fit the CPUs (the
    design needs its two threads, so fewer than 2 CPUs are treated as 2)."""
    task_dir = Path("/proc/self/task")
    live = len(list(task_dir.iterdir())) if task_dir.is_dir() else threading.active_count()
    if live + 1 > max(nproc, 2):
        raise Degenerate(f"{live} live threads + kv-loader exceed nproc={nproc}")


def sample_rids(n_sent: int) -> list[int]:
    """A fixed sample: CHECK_SAMPLE request ids spread over the first 100."""
    span = min(n_sent, 100)
    return sorted({round(i * span / CHECK_SAMPLE) for i in range(CHECK_SAMPLE)})


def guard(wl, built, window, ttft_p50: float) -> None:
    engine = built.engine
    stats = engine.cache_stats
    outcomes = window.outcomes
    if wl.name == "rag_warm" and stats["misses"] > 0:
        raise Degenerate(f"rag_warm missed {stats['misses']} lookups after set-up")
    if wl.name == "rag_churn":
        low, high = CHURN_HIT_RATE_BAND
        if not low <= stats["hit_rate"] <= high:
            raise Degenerate(f"rag_churn hit rate {stats['hit_rate']:.3f} outside [{low}, {high}]")
        if store_evictions(engine.kv_store) == 0:
            raise Degenerate("rag_churn evicted nothing")
        if sum(o.slow_tier_hits for o in outcomes) == 0:
            raise Degenerate("rag_churn served no hit from the slow tier")
    load_wait = statistics.fmean(o.load_wait_s for o in outcomes)
    if load_wait > MAX_LOAD_WAIT_SHARE * ttft_p50:
        raise Degenerate(f"simulated load wait {load_wait:.4f}s vs TTFT p50 {ttft_p50:.4f}s")


def store_evictions(store) -> int:
    tiers = getattr(store, "tiers", None)
    return sum(t.stats.evictions for t in tiers) if tiers else store.stats.evictions


def layer_metrics(built, window, untraced_ttft_p50: float, ttft_p50: float) -> dict:
    """Per-layer metrics of a traced window; ``*_s`` are seconds per request."""
    from metrics import percentile

    tracer = built.tracer
    n = len(window.outcomes)
    spans = tracer.spans
    dur = tracer.durations()

    def per_request(name: str) -> float:
        return sum(dur.get(name, ())) / n

    def mean(attr: str) -> float:
        return statistics.fmean(getattr(o, attr) for o in window.outcomes)

    run_batch = {i for i, s in enumerate(spans) if s.name == "core.run_batch"}
    first_steps = sum(
        s.end - s.start for s in spans if s.name == "model.decode_step" and s.parent in run_batch
    )
    stats = built.engine.cache_stats
    tokenizer_calls = stats["tokenizer_hits"] + stats["tokenizer_misses"]
    waits = [o.picked - o.sent for o in window.outcomes]
    mb = 1.0 / 2**20
    return {
        "model.layer_full_s": per_request("model.layer_full"),
        "model.layer_selective_s": per_request("model.layer_selective"),
        "model.chunk_prefill_s": per_request("model.chunk_prefill"),
        "model.chunk_prefills": len(dur.get("model.chunk_prefill", ())),
        "model.decode_step_s": per_request("model.decode_step"),
        "model.decode_width": window.step_members / max(window.steps, 1),
        "model.join_s": per_request("model.join"),
        "model.session_reserved_mb": statistics.fmean(window.reserved_bytes or [0]) * mb,
        "model.session_used_mb": statistics.fmean(window.used_bytes or [0]) * mb,
        "core.fuse_s": per_request("core.execute_batch"),
        "core.compute_s": mean("trace_compute_s"),
        "core.layer0_s": mean("trace_layer0_s"),
        "core.load_s": mean("trace_load_s"),
        "core.load_wait_s": mean("load_wait_s"),
        "core.stall_s": mean("stall_s"),
        "core.recompute_frac": mean("recompute_frac"),
        "core.ratio": mean("ratio"),
        "core.engine_other_s": (
            sum(dur.get("core.run_batch", ()))
            - sum(dur.get("core.execute_batch", ()))
            - sum(dur.get("model.chunk_prefill", ()))
            - first_steps
        )
        / n,
        "kvstore.lookup_s": per_request("kvstore.lookup"),
        "kvstore.hit_rate": stats["hit_rate"],
        "kvstore.put_s": per_request("kvstore.put"),
        "kvstore.puts": len(dur.get("kvstore.put", ())),
        "kvstore.evictions": store_evictions(built.engine.kv_store),
        "kvstore.slow_tier_hits": sum(o.slow_tier_hits for o in window.outcomes),
        "kvstore.bytes_stored_mb": stats["bytes_stored"] * mb,
        "kvstore.read_wait_s": built.store_counters.read_delay_s / n,
        "tokenizer.encode_s": per_request("tokenizer.encode"),
        "tokenizer.hit_rate": stats["tokenizer_hits"] / max(tokenizer_calls, 1),
        "driver.queue_wait_p50_s": percentile(waits, 50),
        "driver.queue_wait_p90_s": percentile(waits, 90),
        "driver.queue_depth": statistics.fmean(window.queue_depths),
        "trace.overhead_frac": ttft_p50 / untraced_ttft_p50 - 1.0,
    }


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_against_spec(spec: dict, metrics: dict, trace: bool) -> None:
    """The printed metrics must be exactly BENCHMARK.json's, unit for unit."""
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in metrics.items()}
    if listed != printed:
        raise SystemExit(f"perfbench: metrics {printed} do not match BENCHMARK.json {listed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = benchmark_spec()
    import_program()
    import loop
    import metrics as m
    from streams import WORKLOADS, RequestStream
    from tracing import Tracer

    import_s = time.perf_counter() - PROCESS_START
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    info = provenance(args)
    stream = RequestStream(wl, args.seed)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    try:
        if args.trace:
            built, _ = loop.set_up(wl, stream)
            check_threads(info["nproc"])
            # The untraced comparison window only feeds a p50, so half a
            # window is enough samples.
            plain = loop.serve(built, wl, stream, args.seconds / 2)
            del built
            untraced_p50 = m.percentile(
                [m.ttft(o.sent, o.token_times) for o in plain.outcomes if o.token_times], 50
            )
            built, _ = loop.set_up(wl, stream, Tracer())
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                built, seconds = loop.set_up(wl, stream)
                setups.append(seconds)
            check_threads(info["nproc"])
        window = loop.serve(built, wl, stream, args.seconds)
        served = m.serving_metrics(window.outcomes, set(), window.seconds, wl)
        guard(wl, built, window, served["ttft_p50_s"])
        check = loop.check_outputs(wl, window.outcomes, sample_rids(len(window.outcomes)))
    except Degenerate as exc:
        print(f"perfbench: degenerate run: {exc}", file=sys.stderr)
        return 3

    served = m.serving_metrics(window.outcomes, check.mismatched, window.seconds, wl)
    n_failed = sum(m.failed(o, check.mismatched) for o in window.outcomes)
    if args.trace:
        values = layer_metrics(built, window, untraced_p50, served["ttft_p50_s"])
        units = PER_LAYER_UNITS
        self_times = built.tracer.self_times()
        table = m.where_time_goes(self_times, window.seconds)
        print(f"where the time goes ({wl.name}, self time over {window.seconds:.2f}s wall):")
        for layer, seconds, share in table:
            print(f"  {layer:<10} {seconds:9.3f} s  {100 * share:5.1f} %")
        for name, seconds in sorted(self_times.items(), key=lambda item: -item[1]):
            print(f"    {name:<24} {seconds:9.3f} s  {100 * seconds / window.seconds:5.1f} %")
        trace_path = out_dir / f"trace_{wl.name}_seed{args.seed}.json"
        built.tracer.write_chrome(trace_path, window.start)
        print(f"chrome trace: {trace_path.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": import_s + statistics.median(setups),
            **served,
            "attn_dev": statistics.fmean(check.attn_dev),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        values = {name: values[name] for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
        table = None

    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    check_against_spec(spec, metrics, bool(args.trace))
    for name, metric in metrics.items():
        print(f"{name:<28} {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": n_failed == 0,
        "attempted": len(window.outcomes),
        "failed": n_failed,
        "metrics": metrics,
    }
    print("provenance: " + json.dumps(info))
    with open(out_dir / f"result_{wl.name}_seed{args.seed}_trace{args.trace}.json", "w") as f:
        json.dump({**result, "provenance": info, "where_time_goes": table}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
