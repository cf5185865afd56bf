"""Randomized contract of ``BlendEngine.run_batch``: first token, token
budget, EOS, decode sessions and their step counts, and TTFT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blend_engine import BlendEngine

_POOL = [f"pool chunk {i} alpha beta gamma delta epsilon {i}" for i in range(5)]
_QUESTIONS = ["what is fused here?", "which chunk was warm?"]


class _EosTokenizer:
    """The engine's tokenizer with another token id as EOS."""

    def __init__(self, tokenizer, eos_id: int) -> None:
        self._tokenizer = tokenizer
        self.eos_id = eos_id

    def __getattr__(self, name):
        return getattr(self._tokenizer, name)


def _build() -> BlendEngine:
    return BlendEngine.build(paper_model="Mistral-7B", device="cpu_ram", seed=0)


@pytest.fixture(scope="module")
def engine() -> BlendEngine:
    return _build()


@pytest.fixture(scope="module")
def first_token():
    """A request's first token, from a second engine: fusion reads the same
    store-precision bytes for warm and cold chunks, so it does not depend on
    what the store holds."""
    oracle = _build()
    memo: dict[tuple, int] = {}

    def lookup(request: tuple[tuple[int, ...], str]) -> int:
        if request not in memo:
            chunks, question = request
            result = oracle.run([_POOL[i] for i in chunks], question)
            memo[request] = int(np.argmax(result.fusion.last_logits))
        return memo[request]

    return lookup


_requests = st.tuples(
    st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=3, unique=True).map(tuple),
    st.sampled_from(_QUESTIONS),
)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    batch=st.lists(_requests, min_size=1, max_size=4),
    warm=st.sets(st.integers(0, len(_POOL) - 1)),
    max_new_tokens=st.integers(0, 5),
    eos_request=st.none() | st.integers(0, 3),
)
def test_run_batch_contract(engine, first_token, batch, warm, max_new_tokens, eos_request):
    engine.kv_store.clear()
    engine.precompute_chunks([_POOL[i] for i in sorted(warm)])
    tokenizer = engine.tokenizer
    eos = tokenizer.eos_id
    if eos_request is not None:
        eos = first_token(batch[eos_request % len(batch)])
    sessions = []
    open_session = engine.model.new_decode_session

    def capture(*args, **kwargs):
        sessions.append(open_session(*args, **kwargs))
        return sessions[-1]

    engine.model.new_decode_session = capture
    engine.tokenizer = _EosTokenizer(tokenizer, eos)
    try:
        results = engine.run_batch(
            [([_POOL[i] for i in chunks], question) for chunks, question in batch],
            max_new_tokens=max_new_tokens,
        )
    finally:
        del engine.model.new_decode_session
        engine.tokenizer = tokenizer

    for result in results:
        generated = result.generated_ids
        first = int(np.argmax(result.fusion.last_logits))
        assert len(generated) <= max_new_tokens
        assert eos not in generated
        if max_new_tokens and first != eos:
            assert generated[0] == first
        else:
            assert generated == []
        if result.cache_misses == 0:
            assert result.ttft == result.trace.total_time
        else:
            assert result.ttft > result.trace.total_time

    steps = sum(session.stats.steps for session in sessions)
    if max_new_tokens <= 1:
        assert sessions == []
    else:
        assert len(sessions) == 1
        # A member ended by EOS after n tokens needed n steps; one that used
        # its whole budget needed max_new_tokens - 1.
        assert steps == max(
            min(len(result.generated_ids), max_new_tokens - 1) for result in results
        )
