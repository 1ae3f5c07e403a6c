"""Truncated top-k release: truncation, thresholds, noisy-cut calibration."""

import itertools
import math

import numpy as np
import pytest

from unkhist.accountant import CdpBudget
from unkhist.core import (
    BOTTOM,
    Histogram,
    ParameterError,
    RandomSource,
    SensitivityBound,
    is_reserved_label,
)
from unkhist.topk import (
    TruncatedHistogram,
    release_topk,
    release_topk_batch,
    topk_threshold,
    truncate_topk,
)

# mpmath (50 digits).
T_TOPK_05 = 3.3261743073533482  # 1 + sqrt(2)*PhiInv(0.95)
T_TOPK_WIDE = 7.5799054285327482  # 1 + 2*sqrt(2)*PhiInv(0.99)
# Exact Gaussian-difference tails at T_TOPK_05, sigma = 1.
TAIL_AT_GAP_ONE = 0.05  # 1 - Phi((T - 1)/sqrt(2))
TAIL_AT_GAP_ZERO = 0.0093373812676006  # 1 - Phi(T/sqrt(2))

UNIT = SensitivityBound(l0=1, linf=1)


def brute_force_valid_topk_sets(h: Histogram, kbar: int) -> list[set[str]]:
    """All label sets a count-respecting top-kbar selection could return."""
    items = h.items()
    valid = []
    for combo in itertools.combinations(items, min(kbar, len(items))):
        chosen = set(label for label, _ in combo)
        lowest = min(count for _, count in combo)
        highest_rest = max(
            (count for label, count in items if label not in chosen), default=-1
        )
        if lowest >= highest_rest:
            valid.append(chosen)
    return valid


class TestTruncateTopk:
    def test_plain_selection(self):
        trunc = truncate_topk(Histogram({"a": 5, "b": 3, "c": 1}), 2)
        assert trunc.top == (("a", 5), ("b", 3))
        assert trunc.next_count == 1

    def test_short_histogram_is_not_padded(self):
        trunc = truncate_topk(Histogram({"a": 5}), 3)
        assert trunc.top == (("a", 5),)
        assert trunc.next_count == 0

    def test_tie_break_matches_a_valid_selection(self):
        h = Histogram({"a": 2, "b": 2, "c": 2})
        trunc = truncate_topk(h, 2)
        assert trunc.top == (("a", 2), ("b", 2))
        assert trunc.next_count == 2
        assert {label for label, _ in trunc.top} in brute_force_valid_topk_sets(h, 2)

    def test_empty_histogram_gives_no_entries(self):
        trunc = truncate_topk(Histogram(), 2)
        assert trunc.top == ()
        assert trunc.next_count == 0

    def test_kbar_far_beyond_the_input(self):
        trunc = truncate_topk(Histogram({"a": 5, "b": 3}), 10**11)
        assert trunc.top == (("a", 5), ("b", 3))
        assert trunc.next_count == 0

    def test_invariant_enforcement(self):
        with pytest.raises(ParameterError):
            TruncatedHistogram(top=(("a", 1), ("b", 2)), next_count=0)
        with pytest.raises(ParameterError):
            TruncatedHistogram(top=(("a", 1),), next_count=2)
        with pytest.raises(ParameterError):
            truncate_topk(Histogram(), 0)


class TestTopkThreshold:
    def test_median_term_vanishes(self):
        assert topk_threshold(UNIT, 1.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_reference_values(self):
        assert topk_threshold(UNIT, 1.0, 0.05) == pytest.approx(T_TOPK_05, abs=1e-9)
        sens = SensitivityBound(l0=3, linf=1)
        assert topk_threshold(sens, 0.5, 0.03) == pytest.approx(T_TOPK_WIDE, abs=1e-9)

    def test_unbounded_l0_rejected(self):
        with pytest.raises(ParameterError):
            topk_threshold(SensitivityBound(l0=math.inf, linf=1), 1.0, 0.05)


class TestReleaseTopk:
    def test_empty_histogram_releases_nothing(self):
        for seed in range(200):
            report = release_topk(Histogram(), 3, UNIT, 1.0, 0.05, RandomSource(seed))
            assert report.released == {}

    def test_sentinels_never_released_even_when_forced(self):
        # Sunken threshold: every noisy count clears it; sentinels still drop.
        report = release_topk(
            Histogram({"a": 5}), 4, UNIT, 1.0, 0.05, RandomSource(3),
            threshold_override=-math.inf,
        )
        assert set(report.released) == {"a"}
        assert not any(is_reserved_label(label) for label in report.released)

    def test_draws_the_threshold_and_one_per_entry(self):
        # Two entries under kbar 10^11: three draws, and the next uniform is the fourth.
        rng = RandomSource(5)
        release_topk({"a": 9, "b": 4}, 10**11, UNIT, 1.0, 0.05, rng)
        reference = RandomSource(5)
        reference.uniforms(3)
        assert rng.uniform() == reference.uniform()

    def test_batch_over_a_short_histogram_is_as_wide_as_its_entries(self):
        h = Histogram({"a": 5, "b": 3})
        trunc, noisy, kept, _ = release_topk_batch(h, 7, UNIT, 1.0, 0.05, RandomSource(0), 6)
        assert noisy.shape == kept.shape == (6, 2)
        rng = RandomSource(0)
        for i in range(6):
            released = release_topk(h, 7, UNIT, 1.0, 0.05, rng).released
            assert released == {trunc.top[j][0]: noisy[i, j] for j in np.flatnonzero(kept[i])}

    def test_at_most_kbar_real_labels(self):
        h = {f"w{i}": 50 + i for i in range(8)}
        for seed in range(50):
            report = release_topk(
                h, 3, UNIT, 1.0, 0.05, RandomSource(seed), threshold_override=-math.inf
            )
            assert len(report.released) <= 3

    def test_budget_and_public_threshold(self):
        sens = SensitivityBound(l0=2, linf=1)
        report = release_topk({"a": 9}, 1, sens, 1.0, 0.05, RandomSource(0))
        assert report.budget == CdpBudget(delta=0.05, rho=2 * 0.5)
        assert report.threshold == pytest.approx(
            topk_threshold(sens, 1.0, 0.05), abs=1e-15
        )

    def test_ignores_entries_below_rank_kbar_plus_one(self):
        base = {"a": 9, "b": 7, "c": 5}
        padded = dict(base, x=1, y=2)
        for seed in (0, 1, 2, 3):
            lean = release_topk(base, 2, UNIT, 1.0, 0.05, RandomSource(seed))
            bulky = release_topk(padded, 2, UNIT, 1.0, 0.05, RandomSource(seed))
            assert lean.released == bulky.released

    def test_zero_sigma_hook(self):
        report = release_topk(
            {"a": 9, "b": 2}, 1, UNIT, 1.0, 0.05, RandomSource(0), sigma_override=0.0
        )
        # Noiseless: release a iff 9 > T + c_2 = T + 2.
        assert set(report.released) == {"a"}
        assert report.released["a"] == 9.0

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            release_topk({"a": 1}, 0, UNIT, 1.0, 0.05, RandomSource(0))


class TestTopkTails:
    def test_runaway_top_always_survives(self):
        h = {"a": 1000, "b": 1}
        master = RandomSource(600)
        trials = 10**5
        hits = sum(
            "a" in release_topk(h, 1, UNIT, 1.0, 0.05, master.child(i)).released
            for i in range(trials)
        )
        assert hits / trials == pytest.approx(1.0, abs=0.0005)

    def test_boundary_gap_survives_at_rate_delta(self):
        # Top count exactly linf above the next one: the survival event is
        # N - N' > T - linf with N, N' independent, so the rate is
        # 1 - Phi((T - linf)/(sqrt(2) sigma)) = delta.
        h = {"a": 6, "b": 5}
        master = RandomSource(601)
        trials = 10**5
        hits = sum(
            "a" in release_topk(h, 1, UNIT, 1.0, 0.05, master.child(i)).released
            for i in range(trials)
        )
        assert hits / trials == pytest.approx(TAIL_AT_GAP_ONE, abs=0.004)

    def test_tied_top_survives_at_smaller_rate(self):
        # Top count equal to the next one: rate drops to 1 - Phi(T/(sqrt(2) sigma)).
        h = {"a": 5, "b": 5}
        master = RandomSource(602)
        trials = 10**5
        hits = sum(
            "a" in release_topk(h, 1, UNIT, 1.0, 0.05, master.child(i)).released
            for i in range(trials)
        )
        assert hits / trials == pytest.approx(TAIL_AT_GAP_ZERO, abs=0.002)
