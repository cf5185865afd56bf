"""HKVD token selection and the gradual-filtering ratio schedule."""

import numpy as np
import pytest

from repro.core.hkvd import HKVDSelector, ratio_schedule, select_top_fraction


class TestRatioSchedule:
    def test_average_approximates_target(self):
        schedule = ratio_schedule(0.15, n_layers=32)
        assert abs(float(np.mean(schedule)) - 0.15 * (1.5 + 0.8) / 2) < 1e-9

    def test_decays_from_boost_to_floor(self):
        schedule = ratio_schedule(0.2, n_layers=10, boost=1.5, floor=0.8)
        assert schedule[0] == pytest.approx(0.3)
        assert schedule[-1] == pytest.approx(0.16)
        assert all(a >= b for a, b in zip(schedule, schedule[1:]))

    def test_clipped_to_unit_interval(self):
        schedule = ratio_schedule(0.9, n_layers=4, boost=1.5)
        assert max(schedule) <= 1.0
        assert min(schedule) >= 0.0

    def test_single_layer(self):
        assert ratio_schedule(0.15, n_layers=1) == [pytest.approx(0.225)]

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_rejects_out_of_range_target(self, bad):
        with pytest.raises(ValueError):
            ratio_schedule(bad, n_layers=4)

    def test_rejects_boost_below_floor(self):
        with pytest.raises(ValueError):
            ratio_schedule(0.2, n_layers=4, boost=0.5, floor=0.8)


class TestSelectTopFraction:
    def test_picks_highest_deviation_tokens(self):
        deviation = np.array([0.1, 5.0, 0.2, 4.0, 0.3])
        chosen = select_top_fraction(deviation, ratio=0.4)
        assert chosen.tolist() == [1, 3]

    def test_ratio_is_fraction_of_whole_sequence(self):
        deviation = np.arange(10, dtype=float)
        chosen = select_top_fraction(deviation, ratio=0.3)
        assert chosen.tolist() == [7, 8, 9]

    def test_candidates_restrict_selection(self):
        deviation = np.array([9.0, 8.0, 7.0, 1.0, 0.5])
        chosen = select_top_fraction(
            deviation, ratio=0.4, candidates=np.array([3, 4])
        )
        assert chosen.tolist() == [3, 4]

    def test_always_include_added_and_deduplicated(self):
        deviation = np.array([5.0, 1.0, 0.0, 0.0])
        chosen = select_top_fraction(
            deviation, ratio=0.25, always_include=np.array([0, 3])
        )
        assert chosen.tolist() == [0, 3]

    def test_zero_ratio_selects_only_always_include(self):
        deviation = np.ones(8)
        chosen = select_top_fraction(deviation, ratio=0.0, always_include=np.array([7]))
        assert chosen.tolist() == [7]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_np_unique_reference(self, seed):
        rng = np.random.default_rng(seed)
        n_tokens = int(rng.integers(1, 40))
        # Integer deviations tie often; the stable sort must break ties alike.
        deviation = rng.integers(0, 4, size=n_tokens).astype(float)
        ratio = float(rng.random())
        candidates = rng.choice(n_tokens, size=int(rng.integers(0, n_tokens + 1)), replace=False)
        always = rng.integers(0, n_tokens, size=int(rng.integers(0, 6)))
        chosen = select_top_fraction(deviation, ratio, candidates, always_include=always)
        n_select = min(int(round(ratio * n_tokens)), candidates.size)
        order = np.argsort(deviation[candidates], kind="stable")[::-1]
        reference = np.unique(np.concatenate([candidates[order[:n_select]], always]))
        assert chosen.dtype == np.int64
        assert chosen.tolist() == reference.tolist()


class TestHKVDSelector:
    def test_gradual_filtering_shrinks_selection(self):
        rng = np.random.default_rng(0)
        n_tokens = 100
        selector = HKVDSelector(target_ratio=0.2, n_layers=6)
        selected = selector.first_selection(rng.random(n_tokens))
        for _ in range(4):
            deviation = np.zeros(n_tokens)
            deviation[selected] = rng.random(selected.size)
            selected = selector.next_selection(deviation)
        counts = selector.selected_counts
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_selection_is_subset_of_previous(self):
        rng = np.random.default_rng(1)
        selector = HKVDSelector(target_ratio=0.3, n_layers=4)
        first = selector.first_selection(rng.random(50))
        second = selector.next_selection(rng.random(50))
        assert np.isin(second, first).all()

    def test_suffix_always_included(self):
        suffix = np.array([48, 49])
        selector = HKVDSelector(target_ratio=0.1, n_layers=4, always_include=suffix)
        deviation = np.zeros(50)
        deviation[:10] = 1.0
        selected = selector.first_selection(deviation)
        assert np.isin(suffix, selected).all()
        selected = selector.next_selection(deviation)
        assert np.isin(suffix, selected).all()

    def test_next_before_first_raises(self):
        selector = HKVDSelector(target_ratio=0.2, n_layers=4)
        with pytest.raises(RuntimeError):
            selector.next_selection(np.ones(10))
