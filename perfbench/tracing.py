"""Span recording around the public objects handed to ``BlendEngine``.

The traced run wraps the tokenizer, the chunk store, the transformer model
and the executor in thin proxies that time chosen method calls; the
benchmark's serving loop records its own session calls the same way.  Spans
live in memory (a name, start, end, parent span and request id each) and are
written out once, at the end, as Chrome trace-event JSON that Perfetto opens.

Nothing here is imported by the program under test, and the untraced run
uses none of these proxies.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    rid: int | None  # None: the span serves several requests (a decode step)


class Tracer:
    """In-memory span recorder (main thread only).

    ``rid`` is the request the next span is attributed to; the serving loop
    sets it, since it prefills one request per ``run_batch`` call and steps
    every decoding request at once (``None``: a span serving many requests).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.rid: int | None = None
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    @contextmanager
    def span(self, name: str, rid: int | None = None):
        if threading.get_ident() != self._thread:
            raise RuntimeError(f"span {name!r} recorded off the main thread")
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, time.perf_counter(), 0.0, parent, self.rid if rid is None else rid)
        )
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    # -- derived views ------------------------------------------------------
    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            out[span.name].append(span.end - span.start)
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the part covered by children
        (children never overlap: they are nested calls on one thread)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for span, covered in zip(self.spans, child_time):
            totals[span.name] += span.end - span.start - covered
        return dict(totals)

    def write_chrome(self, path, origin: float) -> None:
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": index, "parent": span.parent, "rid": span.rid},
            }
            for index, span in enumerate(self.spans)
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


class Traced:
    """Proxy that records a span around each listed method of *target*.

    ``methods`` maps a method name to its span name; every other attribute
    is forwarded untouched.  ``after`` (optional) maps a method name to a
    callback receiving the call's result.
    """

    def __init__(self, target, tracer: Tracer, methods: dict[str, str], after=None):
        self._target = target
        self._tracer = tracer
        self._methods = methods
        self._after = after or {}

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        name = self._methods.get(attr)
        if name is None:
            return value
        tracer, after = self._tracer, self._after.get(attr)

        def call(*args, **kwargs):
            with tracer.span(name):
                result = value(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return call


@dataclass
class StoreCounters:
    """Simulated read delay of the tiers that served hits."""

    read_delay_s: float = 0.0

    def lookup_done(self, found) -> None:
        self.read_delay_s += found.read_delay


def traced_parts(tracer: Tracer, model, tokenizer, store, counters: StoreCounters):
    """Proxies for the model, tokenizer and store handed to ``BlendEngine``."""
    traced_model = Traced(
        model,
        tracer,
        {
            "layer_full": "model.layer_full",
            "layer_selective": "model.layer_selective",
            "chunk_prefill": "model.chunk_prefill",
            "decode_session_step": "model.decode_step",
        },
    )
    traced_tokenizer = Traced(tokenizer, tracer, {"encode": "tokenizer.encode"})
    traced_store = Traced(
        store,
        tracer,
        {"lookup": "kvstore.lookup", "put": "kvstore.put"},
        after={"lookup": counters.lookup_done},
    )
    return traced_model, traced_tokenizer, traced_store
