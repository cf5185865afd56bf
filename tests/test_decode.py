"""Decode positions, pad buffers and greedy generation on a :class:`DecodeSession`.

Locks down where decoding continues — a member's next position follows its
*last* token, not the numerically largest position (regression for the
former per-token ``positions.max()`` scan), so non-contiguous chunk
positions decode in sequence order — how the session pad holds K/V (joins
and extracts copy bitwise, steps append in place, the token axis grows
geometrically, every layer of a step reads zero-copy views of one pad,
pad capacity never changes the logits) — and that greedy
generation on a shared session is token-for-token the generation of width-1
sessions and of greedy full prefill.
"""

import numpy as np
import pytest

from repro.model.config import get_config
from repro.model.tensors import DecodeSession, DecodeStep, KVCache, LayerKV
from repro.model.transformer import TransformerModel


@pytest.fixture(scope="module")
def model() -> TransformerModel:
    return TransformerModel(get_config("tiny"), seed=0)


def _random_prompt(model: TransformerModel, n_tokens: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(4, model.config.vocab_size, size=n_tokens).astype(np.int64)


def _width1(model: TransformerModel, cache: KVCache, reserve: int = 0) -> DecodeSession:
    session = model.new_decode_session(slot_capacity=1)
    session.join(0, cache, reserve=reserve)
    return session


class TestSessionPositions:
    def test_appends_at_tracked_position(self, model):
        prefill = model.full_prefill(_random_prompt(model, 9, 0))
        session = _width1(model, prefill.kv_cache, reserve=1)
        logits = model.decode_session_step(session, [42])
        assert logits.shape == (1, model.config.vocab_size)
        cache = session.extract(0)
        assert cache.n_tokens == 10
        assert cache.positions[-1] == 9
        assert cache.token_ids[-1] == 42

    def test_next_position_follows_last_token_not_max(self):
        """With non-contiguous (unsorted) chunk positions the next decode
        position follows the *last* token, not the numerically largest
        position (the legacy ``positions.max()`` scan got this wrong,
        besides being O(T) per token)."""
        layer = LayerKV(
            np.zeros((5, 1, 2), dtype=np.float32), np.zeros((5, 1, 2), dtype=np.float32)
        )
        cache = KVCache(
            [layer],
            token_ids=np.arange(5),
            positions=np.array([5, 6, 7, 2, 3], dtype=np.int64),
        )
        session = DecodeSession(n_layers=1, n_kv_heads=1, head_dim=2)
        session.join("r", cache)
        step = session.claim_rows(np.array([9]))
        assert step.positions[0] == 4  # positions.max() + 1 would say 8

    def test_position_regression_non_contiguous_chunk_positions(self, model):
        """The appended token continues after the last chunk token even when
        an earlier chunk was embedded at larger absolute positions."""
        chunk_a = model.chunk_prefill(_random_prompt(model, 4, 1), start_position=10)
        chunk_b = model.chunk_prefill(_random_prompt(model, 3, 2), start_position=0)
        combined = KVCache.concat([chunk_a, chunk_b])
        assert combined.positions.max() == 13  # the legacy scan's anchor
        session = _width1(model, combined, reserve=1)
        model.decode_session_step(session, [7])
        assert session.extract(0).positions[-1] == 3  # chunk_b's last (2) + 1

    def test_decode_attends_to_context_beyond_the_query_position(self, model):
        """Cached tokens embedded at positions *larger* than the decode
        token's must still be attended — causality during decode is cache
        membership, not position order.  A positional mask would make the
        high-position chunk invisible, collapsing the logits onto those of a
        cache holding only the low-position chunk."""
        chunk_high = model.chunk_prefill(_random_prompt(model, 4, 1), start_position=10)
        chunk_low = model.chunk_prefill(_random_prompt(model, 3, 2), start_position=0)
        combined = KVCache.concat([chunk_high, chunk_low])
        with_context = model.decode_session_step(_width1(model, combined), [7])
        without_context = model.decode_session_step(
            _width1(model, combined.slice_tokens(4, 7)), [7]
        )
        assert not np.allclose(with_context, without_context)


def _append(
    session: DecodeSession, token_id: int, keys: np.ndarray, values: np.ndarray
) -> DecodeStep:
    """Append one row to a width-1 session the way a decode step does."""
    step = session.claim_rows(np.array([token_id]))
    for layer_idx in range(session.n_layers):
        step.append(layer_idx, keys[layer_idx][None], values[layer_idx][None])
    return step


class TestSessionBuffers:
    def test_join_then_extract_round_trip_is_bitwise(self, model):
        cache = model.full_prefill(_random_prompt(model, 17, 0)).kv_cache
        round_tripped = _width1(model, cache, reserve=5).extract(0)
        for original, back in zip(cache.layers, round_tripped.layers):
            np.testing.assert_array_equal(original.keys, back.keys)
            np.testing.assert_array_equal(original.values, back.values)
        np.testing.assert_array_equal(cache.token_ids, round_tripped.token_ids)
        np.testing.assert_array_equal(cache.positions, round_tripped.positions)

    def test_step_views_alias_the_pad(self, model, monkeypatch):
        cache = model.full_prefill(_random_prompt(model, 6, 0)).kv_cache
        session = _width1(model, cache, reserve=4)
        steps: list[DecodeStep] = []
        claim_rows = session.claim_rows

        def recording_claim_rows(token_ids):
            steps.append(claim_rows(token_ids))
            return steps[-1]

        monkeypatch.setattr(session, "claim_rows", recording_claim_rows)
        model.decode_session_step(session, [5])
        model.decode_session_step(session, [9])
        first, second = steps
        # Zero-copy views of one buffer: both steps wrote into the same pad.
        for layer_idx in range(model.config.n_layers):
            assert np.shares_memory(first.keys[layer_idx], second.keys[layer_idx])
            assert np.shares_memory(first.values[layer_idx], second.values[layer_idx])
        np.testing.assert_array_equal(second.keys[0][0, :6], cache.layers[0].keys)
        stored = session.extract(0)
        np.testing.assert_array_equal(second.keys[-1][0], stored.layers[-1].keys)
        np.testing.assert_array_equal(second.values[-1][0], stored.layers[-1].values)
        # Every member is as long as the views, so nothing is masked.
        assert second.padding is None

    def test_append_writes_rows_in_place(self):
        layer = LayerKV(np.ones((1, 1, 4), dtype=np.float32), np.ones((1, 1, 4), dtype=np.float32))
        session = DecodeSession(n_layers=2, n_kv_heads=1, head_dim=4, token_capacity=8)
        session.join("r", KVCache([layer, layer.copy()], np.array([3]), np.array([0])))
        keys = np.arange(2 * 1 * 4, dtype=np.float32).reshape(2, 1, 4)
        assert _append(session, 9, keys, keys * 2.0).positions[0] == 1
        assert session.length_of("r") == 2
        assert session.stats.grows == 0
        extracted = session.extract("r")
        np.testing.assert_array_equal(extracted.layers[1].keys[1], keys[1])
        np.testing.assert_array_equal(extracted.layers[0].values[1], keys[0] * 2.0)
        np.testing.assert_array_equal(extracted.token_ids, [3, 9])
        np.testing.assert_array_equal(extracted.positions, [0, 1])

    def test_growth_is_geometric_not_per_token(self):
        kv = np.zeros((1, 1, 2), dtype=np.float32)
        session = DecodeSession(n_layers=1, n_kv_heads=1, head_dim=2, token_capacity=4)
        session.join("r", KVCache([LayerKV(kv, kv.copy())]))
        capacities = {session.token_capacity}
        for token in range(200):
            _append(session, token, kv, kv)
            capacities.add(session.token_capacity)
        # Doubling from 4 to >=201 passes through at most ~log2 capacities.
        assert session.length_of("r") == 201
        assert len(capacities) <= 7
        assert session.stats.grows == len(capacities) - 1
        assert session.token_capacity >= 201

    def test_reserve_prevents_mid_generation_reallocation(self):
        kv = np.zeros((1, 1, 2), dtype=np.float32)
        session = DecodeSession(n_layers=1, n_kv_heads=1, head_dim=2, token_capacity=1)
        session.join("r", KVCache([LayerKV(kv, kv.copy())]), reserve=64)
        grows_after_join = session.stats.grows
        steps = [_append(session, token, kv, kv) for token in range(64)]
        assert session.stats.grows == grows_after_join
        assert np.shares_memory(steps[0].keys[0], steps[-1].keys[0])

    def test_rejects_mismatched_caches_and_bad_claims(self, model):
        cache = model.full_prefill(_random_prompt(model, 4, 0)).kv_cache
        session = model.new_decode_session()
        with pytest.raises(ValueError, match="no members"):
            session.claim_rows(np.array([1]))
        with pytest.raises(ValueError, match="layers"):
            session.join("short", KVCache(cache.layers[:-1]))
        session.join("r", cache)
        with pytest.raises(ValueError, match="one token id per member"):
            session.claim_rows(np.array([1, 2]))
        assert session.length_of("r") == 4

    def test_join_and_extract_copy_rather_than_alias(self, model):
        cache = model.full_prefill(_random_prompt(model, 5, 0)).kv_cache
        original = cache.copy()
        session = _width1(model, cache)
        cache.layers[0].keys[:] = 7.0  # the caller's cache is not the pad
        extracted = session.extract(0)
        np.testing.assert_array_equal(extracted.layers[0].keys, original.layers[0].keys)
        extracted.layers[0].keys[:] = -1.0  # nor is an extracted copy
        np.testing.assert_array_equal(
            session.extract(0).layers[0].keys, original.layers[0].keys
        )

    def test_pad_capacity_is_bitwise_invisible(self, model):
        """Spare slots and token rows never reach the logits: a member on a
        large, mostly empty pad decodes bitwise like on a tight one (which
        regrows along the way)."""
        prefill = model.full_prefill(_random_prompt(model, 11, 3))
        tight = model.new_decode_session(token_capacity=12, slot_capacity=1)
        roomy = model.new_decode_session(token_capacity=256, slot_capacity=8)
        for session in (tight, roomy):
            session.join(0, prefill.kv_cache)
        for token in (5, 9, 13, 200, 31, 7):
            np.testing.assert_array_equal(
                model.decode_session_step(tight, [token]),
                model.decode_session_step(roomy, [token]),
            )
        assert tight.stats.grows == 1
        assert roomy.stats.grows == 0


class TestGreedyGeneration:
    LENGTHS = (12, 7, 19, 9)
    N_TOKENS = 24

    def test_greedy_generation_token_for_token(self, model):
        prompts = [_random_prompt(model, n, 11 + i) for i, n in enumerate(self.LENGTHS)]
        prefills = [model.full_prefill(prompt) for prompt in prompts]
        shared = model.new_decode_session()
        for i, prefill in enumerate(prefills):
            shared.join(i, prefill.kv_cache, reserve=self.N_TOKENS)
        together = model.generate_session(
            shared, [p.last_logits for p in prefills], max_new_tokens=self.N_TOKENS
        )
        alone = [
            model.generate_session(
                _width1(model, p.kv_cache, reserve=self.N_TOKENS),
                [p.last_logits],
                max_new_tokens=self.N_TOKENS,
            )[0]
            for p in prefills
        ]
        assert together == alone
        assert all(len(tokens) == self.N_TOKENS for tokens in together)
        # Each token is what greedy full prefill of everything before it picks.
        for prompt, tokens in zip(prompts, together):
            for step, token in enumerate(tokens):
                context = np.concatenate([prompt, tokens[:step]]).astype(np.int64)
                assert int(np.argmax(model.full_prefill(context).last_logits)) == token


class TestGenerateEos:
    def test_eos_is_not_emitted(self, model):
        prefill = model.full_prefill(_random_prompt(model, 6, 0))
        eos_id = int(np.argmax(prefill.last_logits))  # force EOS immediately
        generated = model.generate_session(
            _width1(model, prefill.kv_cache), [prefill.last_logits],
            max_new_tokens=4, eos_id=eos_id,
        )
        assert generated == [[]]

    def test_include_eos_restores_the_marker(self, model):
        prefill = model.full_prefill(_random_prompt(model, 6, 0))
        eos_id = int(np.argmax(prefill.last_logits))
        generated = model.generate_session(
            _width1(model, prefill.kv_cache), [prefill.last_logits],
            max_new_tokens=4, eos_id=eos_id, include_eos=True,
        )
        assert generated == [[eos_id]]

    def test_token_count_matches_budget_without_eos(self, model):
        prefill = model.full_prefill(_random_prompt(model, 6, 0))
        generated = model.generate_session(
            _width1(model, prefill.kv_cache, reserve=5), [prefill.last_logits],
            max_new_tokens=5,
        )
        assert len(generated[0]) == 5
