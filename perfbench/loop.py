"""The benchmark's serving loop over the real CacheBlend path.

The engine has no streaming API, so the loop lives here and uses only public
calls:

* each loop iteration prefills the oldest due request with
  ``BlendEngine.run_batch(..., max_new_tokens=1, execution="pipelined")``;
  its return yields the request's first token.  One prefill per iteration
  keeps a decode step between any two prefills, so a clump of arrivals
  stalls the running requests once per arrival rather than for the whole
  clump at once (and the first arrival of a clump does not wait for the
  last one's prefill);
* every request then joins one persistent ``DecodeSession`` that
  ``TransformerModel.decode_session_step`` steps for all members at once, so
  new arrivals join between decode steps and a request leaves when it ends.
  Joining re-executes the request's first decode step (``run_batch`` already
  ran one to produce its result), a constant cost on every commit.

The untraced run hands ``BlendEngine`` the plain model, tokenizer and store;
the traced run hands it the proxies from :mod:`tracing`.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.blend_engine import BlendEngine
from repro.core.deviation import mean_attention_deviation
from repro.core.executor import PipelinedExecutor
from repro.kvstore.config import StoreConfig
from repro.kvstore.precision import PrecisionPolicy
from repro.model.config import get_config

from streams import Request, RequestStream, Workload
from tracing import StoreCounters, Traced, Tracer, traced_parts

class RecordingExecutor:
    """Keeps the executor's last ``BatchExecutionResult`` (no timing of its
    own) for its simulated load delay, which ``BlendResult`` does not carry."""

    def __init__(self, executor: PipelinedExecutor) -> None:
        self._executor = executor
        self.last = None

    def __getattr__(self, attr):
        return getattr(self._executor, attr)

    def execute_batch(self, *args, **kwargs):
        self.last = self._executor.execute_batch(*args, **kwargs)
        return self.last


def store_config(wl: Workload) -> StoreConfig:
    if wl.store == "warm":
        return StoreConfig(backend="chunk", kv_dtype="float16", tier_devices=("nvme_ssd",))
    cfg = get_config("proxy-mistral-7b")
    chunk_bytes = (
        PrecisionPolicy.get("int8").kv_bytes_per_token_per_layer(
            cfg.n_kv_heads, cfg.head_dim, cfg.n_layers
        )
        * cfg.n_layers
        * wl.chunk_tokens
    )
    return StoreConfig(
        backend="tiered",
        kv_dtype="int8",
        tier_devices=("cpu_ram", "nvme_ssd"),
        tier_capacity_bytes=(int(wl.ram_chunks * chunk_bytes), None),
    )


@dataclass
class Engine:
    engine: BlendEngine
    executor: RecordingExecutor
    tracer: Tracer | None = None
    store_counters: StoreCounters | None = None


def build_engine(wl: Workload, tracer: Tracer | None = None) -> Engine:
    """``BlendEngine.build`` for the workload's store, then the same parts
    re-assembled through the public constructor (wrapped when traced)."""
    base = BlendEngine.build(
        paper_model="Mistral-7B", device="nvme_ssd", store=store_config(wl), execution="pipelined"
    )
    model, tokenizer, store = base.model, base.tokenizer, base.kv_store
    counters = None
    if tracer is not None:
        counters = StoreCounters()
        model, tokenizer, store = traced_parts(tracer, model, tokenizer, store, counters)
    recording = RecordingExecutor(
        PipelinedExecutor(model, base.fusor.config, device=store.device, precision=base.precision)
    )
    engine = BlendEngine(
        model=model,
        tokenizer=tokenizer,
        kv_store=store,
        controller=base.controller,
        fusor_config=base.fusor.config,
        timing_model=base.timing_model,
        execution="pipelined",
        executor=(
            recording
            if tracer is None
            else Traced(recording, tracer, {"execute_batch": "core.execute_batch"})
        ),
        precision=base.precision,
    )
    return Engine(engine, recording, tracer, counters)


def set_up(
    wl: Workload, stream: RequestStream, tracer: Tracer | None = None
) -> tuple[Engine, float]:
    """Build the engine and warm its store; returns it with the seconds taken."""
    start = time.perf_counter()
    built = build_engine(wl, tracer)
    if wl.store == "warm":
        built.engine.precompute_chunks(stream.corpus)
    built.engine.reset_cache_stats()
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.spans.clear()
    return built, elapsed


@dataclass
class Outcome:
    """One sent request as the client saw it (perf_counter timestamps)."""

    request: Request
    sent: float
    picked: float = 0.0
    token_times: list[float] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)
    eos: bool = False
    done: bool = False
    error: str | None = None
    #: From the request's BlendResult.
    recompute_frac: float = 0.0
    ratio: float = 0.0
    slow_tier_hits: int = 0
    load_wait_s: float = 0.0
    stall_s: float = 0.0
    trace_compute_s: float = 0.0
    trace_layer0_s: float = 0.0
    trace_load_s: float = 0.0


@dataclass
class Window:
    """Everything one timed window produced."""

    outcomes: list[Outcome]
    start: float
    end: float
    steps: int = 0
    step_members: int = 0
    #: Due requests still waiting behind the one each prefill admits.
    queue_depths: list[int] = field(default_factory=list)
    #: Traced window only: per loop step session bytes, reserved / in use.
    reserved_bytes: list[int] = field(default_factory=list)
    used_bytes: list[int] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _span(tracer: Tracer | None, name: str, rid: int | None = None):
    return nullcontext() if tracer is None else tracer.span(name, rid)


def serve(built: Engine, wl: Workload, stream: RequestStream, seconds: float) -> Window:
    """Serve the workload's open-loop stream for ``seconds``, then drain
    what was sent."""
    engine, tracer = built.engine, built.tracer
    model = engine.model
    eos = engine.tokenizer.eos_id
    cfg = model.config
    row_bytes = 2 * cfg.n_layers * cfg.n_kv_heads * cfg.head_dim * np.dtype(cfg.np_dtype).itemsize
    context = wl.n_chunks * wl.chunk_tokens + wl.question_tokens
    session = model.new_decode_session(
        token_capacity=context + wl.output_tokens + 1, slot_capacity=8
    )

    schedule = stream.open_loop(seconds)
    start = time.perf_counter()
    window = Window(outcomes=[], start=start, end=start)
    next_open = 0
    active: dict[int, Outcome] = {}
    last_token: dict[int, int] = {}

    def finish(outcome: Outcome) -> None:
        outcome.done = True
        rid = outcome.request.rid
        active.pop(rid, None)
        last_token.pop(rid, None)

    def prefill(outcome: Outcome) -> None:
        rid = outcome.request.rid
        outcome.picked = time.perf_counter()
        batch = [(list(outcome.request.chunks), outcome.request.question)]
        if tracer is not None:
            tracer.rid = rid
        try:
            with _span(tracer, "core.run_batch"):
                (result,) = engine.run_batch(batch, max_new_tokens=1, execution="pipelined")
        except Exception as exc:  # a failed call fails its request, not the run
            outcome.error = f"run_batch: {exc!r}"
            finish(outcome)
            return
        t = time.perf_counter()
        (execution,) = built.executor.last.requests
        trace = result.trace
        compute = trace.compute_end - trace.compute_start
        outcome.recompute_frac = result.fusion.mean_recompute_fraction
        outcome.ratio = result.decision.recompute_ratio
        outcome.slow_tier_hits = result.cache_stats.get("slow_tier_hits", 0)
        outcome.load_wait_s = execution.simulated_load_delay * cfg.n_layers
        outcome.stall_s = result.measured_stall
        outcome.trace_compute_s = float(np.sum(compute))
        outcome.trace_layer0_s = float(compute[0])
        load = float(np.sum(trace.load_end - trace.load_start))
        outcome.trace_load_s = load - outcome.load_wait_s
        outcome.tokens = list(result.generated_ids)
        if not outcome.tokens:
            outcome.eos = True  # the first token was EOS
            finish(outcome)
            return
        outcome.token_times.append(t)
        if len(outcome.tokens) >= outcome.request.max_new_tokens:
            finish(outcome)
            return
        with _span(tracer, "model.join", rid):
            session.join(rid, result.fusion.kv_cache, reserve=outcome.request.max_new_tokens)
        active[rid] = outcome
        last_token[rid] = outcome.tokens[-1]

    def step() -> None:
        order = session.member_ids
        window.steps += 1
        window.step_members += len(order)
        if tracer is not None:
            tracer.rid = None
            window.reserved_bytes.append(session.resident_bytes())
            window.used_bytes.append(int(session.lengths.sum()) * row_bytes)
        try:
            logits = model.decode_session_step(session, [last_token[m] for m in order])
        except Exception as exc:
            for rid in order:
                active[rid].error = f"decode_session_step: {exc!r}"
                finish(active[rid])
                session.leave(rid)
            return
        t = time.perf_counter()
        for row, rid in enumerate(order):
            outcome = active[rid]
            token = int(np.argmax(logits[row]))
            if token == eos:
                outcome.eos = True
            else:
                outcome.tokens.append(token)
                outcome.token_times.append(t)
                last_token[rid] = token
            if outcome.eos or len(outcome.tokens) >= outcome.request.max_new_tokens:
                with _span(tracer, "model.leave", rid):
                    session.leave(rid)
                finish(outcome)

    waiting: deque[Outcome] = deque()
    while True:
        now = time.perf_counter()
        while next_open < len(schedule) and start + schedule[next_open].send_at <= now:
            request = schedule[next_open]
            waiting.append(Outcome(request, sent=start + request.send_at))
            window.outcomes.append(waiting[-1])
            next_open += 1
        if waiting:
            window.queue_depths.append(len(waiting) - 1)
            prefill(waiting.popleft())
        if session.n_members:
            step()
        elif not waiting:
            if next_open == len(schedule):
                break
            pause = start + schedule[next_open].send_at - time.perf_counter()
            if pause > 0:
                with _span(tracer, "driver.idle"):
                    time.sleep(pause)
    window.end = time.perf_counter()
    return window


@dataclass
class Check:
    mismatched: set[int]
    attn_dev: list[float]


def check_outputs(wl: Workload, outcomes: list[Outcome], sample: list[int]) -> Check:
    """Replay the sampled requests one at a time on a fresh engine.

    Each request's tokens must equal ``BlendEngine.run(...,
    max_new_tokens=K)`` token for token.  Its forward-attention deviation
    against ``TransformerModel.full_prefill`` of the same tokens (the paper's
    Fig. 6 metric) is recorded as the fusion-quality probe.
    """
    fresh = build_engine(wl).engine
    by_rid = {o.request.rid: o for o in outcomes}
    mismatched: set[int] = set()
    deviations: list[float] = []
    for rid in sample:
        outcome = by_rid[rid]
        request = outcome.request
        result = fresh.run(
            list(request.chunks),
            request.question,
            max_new_tokens=request.max_new_tokens,
            execution="pipelined",
        )
        if result.generated_ids != outcome.tokens:
            mismatched.add(rid)
        ids = np.concatenate([fresh.encode(text) for text in request.chunks + (request.question,)])
        reference = fresh.model.full_prefill(ids, query_window=fresh.fusor.config.query_window)
        deviations.append(
            mean_attention_deviation(result.fusion.forward_attention, reference.forward_attention)
        )
    return Check(mismatched, deviations)
