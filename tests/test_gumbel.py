"""One-shot Gumbel top-k: softmax law, ranking rules, threshold behaviour."""

import math

import numpy as np
import pytest

from unkhist.accountant import CdpBudget
from unkhist.core import BOTTOM, Histogram, ParameterError, RandomSource
from unkhist.gumbel import RankedList, _ranked, gumbel_threshold, release_gumbel_topk
from unkhist.validation import (
    exact_expmech_topk_distribution,
    sample_gumbel_topk_outcomes,
    tv_distance,
)

# mpmath (50 digits).
T_GUMBEL = 3.9957322735539910  # 1 + ln(20)
P_TOP_A = 0.66524095577482189  # e^3/(e^3 + e^2 + e)


class TestRankedList:
    def test_duplicates_rejected(self):
        with pytest.raises(ParameterError):
            RankedList(items=("a", "a"))

    def test_bottom_only_last(self):
        with pytest.raises(ParameterError):
            RankedList(items=(BOTTOM, "a"))
        assert RankedList(items=("a", BOTTOM)).labels == ("a",)
        assert RankedList(items=(BOTTOM,)).labels == ()


class TestSelectGumbel:
    """The selection rule, ``gumbel._ranked``, on injected noise."""

    def test_repeated_labels_are_refused_by_name(self):
        # The tie-break key is a label's position in the Histogram, which
        # refuses a repeat by name: equal labels, whose order would follow
        # numpy's unstable sort, never reach the ranking.
        labels = [("a", "b", "c")[i] for i in np.random.default_rng(1).integers(0, 3, 5000).tolist()]
        for entries, repeat in [(list(zip(labels, [1] * 5000)), "b"), ([("x", 1), ("y", 1), ("x", 1)], "x")]:
            with pytest.raises(ParameterError, match=f"duplicate label '{repeat}'"):
                release_gumbel_topk(entries, 2, 8, 1, 1.0, 0.05, RandomSource(0))

    @pytest.mark.parametrize("k", [1, 7, 40, 500])
    def test_distinct_labels_rank_by_noisy_count_then_label(self, k):
        # Noise on a coarse grid makes many noisy counts tie, and the labels
        # tie on their first 8 bytes or hold non-ASCII characters, so the
        # label tie-break, each label's position in a Histogram's sorted
        # order, decides much of the order.
        rng = np.random.default_rng(3)
        stems = ["shared-8", "shared-8\x00", "\xe9", "\U0001f600", ""]
        labels = [f"{stems[i % 5]}{i:03d}" for i in rng.permutation(400).tolist()]
        counts = rng.integers(0, 4, 400).astype(float)
        noise = rng.integers(-2, 3, (6, 401)).astype(float)
        cut = 2.0
        position = {label: i for i, label in enumerate(Histogram(labels, [1] * 400).labels())}
        positions = np.array([position[label] for label in labels])
        _, _, kept, _, order = _ranked(counts, positions, noise, cut, min(k, 400), None)
        for row in range(6):
            noisy = counts + noise[row, 1:]
            surviving = noisy > cut + noise[row, 0]
            ranked = sorted(range(400), key=lambda j: (not surviving[j], -noisy[j] if surviving[j] else 0.0, labels[j]))
            assert order[row, :k].tolist() == ranked[:k]
            assert kept[row].tolist() == surviving.tolist()


class TestGumbelThreshold:
    def test_reference_value(self):
        assert gumbel_threshold(1, 1.0, 0.05) == pytest.approx(T_GUMBEL, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ParameterError):
            gumbel_threshold(0, 1.0, 0.05)
        with pytest.raises(ParameterError):
            gumbel_threshold(1, 1.0, 1.0)


class TestReleaseGumbelTopk:
    def test_empty_histogram_returns_bottom(self):
        ranked, budget = release_gumbel_topk(
            Histogram(), 2, 3, 1, 1.0, 0.05, RandomSource(0)
        )
        assert ranked.items == (BOTTOM,)
        assert budget == CdpBudget(delta=0.05, rho=2 * 1.0 / 8.0)

    def test_k_must_not_exceed_kbar(self):
        with pytest.raises(ParameterError, match="k must not exceed kbar"):
            release_gumbel_topk({"a": 1}, 3, 2, 1, 1.0, 0.05, RandomSource(0))

    def test_budget_scales_with_k(self):
        _, budget = release_gumbel_topk({"a": 5}, 1, 4, 1, 2.0, 0.01, RandomSource(0))
        assert budget == CdpBudget(delta=0.01, rho=1 * 4.0 / 8.0)

    def test_zero_counts_skipped(self):
        ranked, _ = release_gumbel_topk(
            {"a": 3, "b": 0}, 2, 2, 1, 1.0, 0.05, RandomSource(1),
            threshold_override=-math.inf,
        )
        assert ranked.items == ("a", BOTTOM)

    def test_output_at_most_k_and_no_counts(self):
        h = {"a": 9, "b": 8, "c": 7, "d": 6}
        for seed in range(30):
            ranked, _ = release_gumbel_topk(
                h, 2, 4, 1, 1.0, 0.05, RandomSource(seed),
                threshold_override=-math.inf,
            )
            assert len(ranked.items) <= 2
            assert all(isinstance(label, str) for label in ranked.items)

    def test_seeded_runs_identical(self):
        h = {"a": 3, "b": 2, "c": 1}
        run = lambda: release_gumbel_topk(h, 2, 3, 1, 1.0, 0.05, RandomSource(5))[0]
        assert run() == run()

    def test_inflated_counts_disarm_threshold(self):
        # With kbar above the item count, the (kbar+1)-th count is zero, so
        # counts far above T always clear the noisy cut and the output law is
        # the pure softmax over counts.
        h = {"a": 103, "b": 102, "c": 101}
        master = RandomSource(700)
        trials = 2 * 10**4
        hits = sum(
            release_gumbel_topk(h, 1, 3, 1, 1.0, 0.05, master.child(i))[0].items
            == ("a",)
            for i in range(trials)
        )
        # 3 SE at the softmax probability.
        se = math.sqrt(P_TOP_A * (1 - P_TOP_A) / trials)
        assert hits / trials == pytest.approx(P_TOP_A, abs=3 * se)


class TestSoftmaxLaw:
    def test_argmax_frequency_matches_softmax(self):
        # The batch sampler shares the selection rule; one million runs pin the
        # softmax probability to +-0.0015.
        h = {"a": 103, "b": 102, "c": 101}
        outcomes = sample_gumbel_topk_outcomes(
            h, 1, 3, 1.0, 10**6, RandomSource(701), threshold_disabled=False,
            l0_for_threshold=1, delta=0.05,
        )
        assert outcomes[("a",)] == pytest.approx(P_TOP_A, abs=0.0015)

    def test_batch_and_single_run_paths_agree(self):
        h = {"a": 3, "b": 2, "c": 1}
        exact = exact_expmech_topk_distribution(h, 1, 1.0)
        batch = sample_gumbel_topk_outcomes(h, 1, 3, 1.0, 5 * 10**4, RandomSource(702))
        master = RandomSource(703)
        trials = 2 * 10**4
        single = {}
        for i in range(trials):
            ranked, _ = release_gumbel_topk(
                h, 1, 3, 1, 1.0, 0.05, master.child(i), threshold_override=-math.inf
            )
            single[ranked.items] = single.get(ranked.items, 0.0) + 1.0 / trials
        assert tv_distance(batch, exact) < 0.02
        assert tv_distance(single, exact) < 0.03

    def test_ranked_pairs_match_sequential_selection(self):
        h = {"a": 3, "b": 2, "c": 1}
        exact = exact_expmech_topk_distribution(h, 2, 1.0)
        empirical = sample_gumbel_topk_outcomes(h, 2, 3, 1.0, 10**6, RandomSource(704))
        assert tv_distance(empirical, exact) < 0.01

    def test_monotone_likelihood_in_own_count(self):
        low = sample_gumbel_topk_outcomes(
            {"a": 2, "b": 3, "c": 4}, 1, 3, 1.0, 10**5, RandomSource(705)
        )
        high = sample_gumbel_topk_outcomes(
            {"a": 3, "b": 3, "c": 4}, 1, 3, 1.0, 10**5, RandomSource(706)
        )
        p_low = low.get(("a",), 0.0)
        p_high = high.get(("a",), 0.0)
        se = math.sqrt(0.25 / 10**5)
        assert p_high >= p_low - 3 * se
