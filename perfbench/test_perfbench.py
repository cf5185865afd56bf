"""Tests of the serving benchmark itself.

Run from the repository root with ``python -m pytest perfbench``.  The last
two tests run the real command and take about 80 seconds together.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from streams import WORKLOADS, RequestStream  # noqa: E402
from tracing import Span, Tracer  # noqa: E402


def _stream_fingerprint(name: str, seed: int):
    stream = RequestStream(WORKLOADS[name], seed)
    return stream.corpus, stream.open_loop(10.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_stream(name):
    assert _stream_fingerprint(name, 7) == _stream_fingerprint(name, 7)
    assert _stream_fingerprint(name, 7) != _stream_fingerprint(name, 8)


def test_stream_shapes():
    wl = WORKLOADS["rag_warm"]
    stream = RequestStream(wl, 3)
    requests = stream.open_loop(25.0)
    assert len(requests) == round(wl.rate_per_s * 25.0)
    assert all(0.0 <= a.send_at <= b.send_at < 25.0 for a, b in zip(requests, requests[1:]))
    for request in requests:
        assert len(set(request.chunks)) == wl.n_chunks
        assert all(len(chunk.split()) == wl.chunk_tokens for chunk in request.chunks)
        assert len(request.question.split()) == wl.question_tokens
    assert len({r.question for r in requests}) == len(requests)


def test_stream_does_not_use_repo_workload_module(monkeypatch):
    # A None entry makes any import of the module fail.
    monkeypatch.setitem(sys.modules, "repro.bench.workload", None)
    for name in WORKLOADS:
        _stream_fingerprint(name, 1)
    source = (HERE / "streams.py").read_text()
    assert "repro" not in source.replace("repro.bench.workload", "").split('"""', 2)[2]


def test_percentile_refuses_too_few_samples_beyond():
    with pytest.raises(ValueError):
        metrics.percentile(range(99), 90)
    assert metrics.percentile(range(100), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        metrics.percentile(range(999), 99)
    metrics.percentile(range(1000), 99)
    with pytest.raises(ValueError):
        metrics.percentile(range(19), 50)
    assert metrics.percentile(range(20), 50) == pytest.approx(9.5)


def _outcome(rid, sent, token_times, max_new, eos=False, error=None):
    request = SimpleNamespace(rid=rid, max_new_tokens=max_new)
    return SimpleNamespace(
        request=request,
        sent=sent,
        token_times=token_times,
        tokens=list(range(len(token_times))),
        eos=eos,
        done=True,
        error=error,
    )


def test_ttft_and_itl_from_synthetic_timeline():
    outcome = _outcome(0, 10.0, [10.5, 10.75, 11.0, 11.5], 4)
    assert metrics.ttft(outcome.sent, outcome.token_times) == pytest.approx(0.5)
    assert metrics.gaps(outcome.token_times) == pytest.approx([0.25, 0.25, 0.5])
    wl = SimpleNamespace(ttft_limit_s=0.6, itl_limit_s=0.4)
    assert not metrics.meets_slo(outcome, wl.ttft_limit_s, wl.itl_limit_s)
    assert metrics.meets_slo(outcome, 0.6, 0.5)

    # 110 requests: request i is sent at i and answered after 0.001*(i+1) s,
    # then emits 10 more tokens 0.02 s apart.
    outcomes = []
    for i in range(110):
        first = i + 0.001 * (i + 1)
        outcomes.append(_outcome(i, float(i), [first + 0.02 * k for k in range(11)], 11))
    outcomes.append(_outcome(110, 110.0, [110.1], 11))  # short without EOS: failed
    outcomes.append(_outcome(111, 111.0, [], 11, error="boom"))  # raised: failed
    result = metrics.serving_metrics(outcomes, {5}, 50.0, wl)  # rid 5 failed the check
    kept = [0.001 * (i + 1) for i in range(110) if i != 5]
    assert result["ttft_p50_s"] == pytest.approx(metrics.percentile(kept, 50))
    assert result["ttft_p90_s"] == pytest.approx(metrics.percentile(kept, 90))
    assert result["itl_p50_s"] == pytest.approx(0.02)
    assert result["itl_p99_s"] == pytest.approx(0.02)
    assert result["output_tok_s"] == pytest.approx(109 * 11 / 50.0)
    assert result["ok_frac"] == pytest.approx(109 / 112)
    assert result["slo_attain"] == pytest.approx(109 / 112)


def test_self_time_and_where_time_goes():
    tracer = Tracer()
    tracer.spans = [
        Span("core.run_batch", 0.0, 1.0, -1, None),
        Span("core.execute_batch", 0.1, 0.7, 0, 1),
        Span("model.layer_full", 0.1, 0.4, 1, 1),
        Span("driver.idle", 1.0, 1.5, -1, None),
    ]
    self_times = tracer.self_times()
    assert self_times["core.run_batch"] == pytest.approx(0.4)
    assert self_times["core.execute_batch"] == pytest.approx(0.3)
    assert self_times["model.layer_full"] == pytest.approx(0.3)
    rows = {layer: share for layer, _, share in metrics.where_time_goes(self_times, 2.0)}
    assert rows == pytest.approx({"core": 0.35, "model": 0.15, "idle": 0.25, "driver": 0.25})


def test_chrome_trace_export(tmp_path):
    tracer = Tracer()
    tracer.rid = 3
    with tracer.span("model.join"):
        with tracer.span("kvstore.lookup", rid=4):
            pass
    path = tmp_path / "trace.json"
    tracer.write_chrome(path, origin=tracer.spans[0].start)
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["model.join", "kvstore.lookup"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert events[1]["args"] == {"span": 1, "parent": 0, "rid": 4}
    assert events[0]["args"]["rid"] == 3


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "rag_warm", "--seed", "1", "--seconds", "1"], tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_entry_command_prints_every_metric_with_its_unit(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run(
        ["--workload", "rag_warm", "--seed", "2", "--seconds", "20", "--trace", str(trace)],
        ROOT,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.endswith(unit) for line in lines), name
