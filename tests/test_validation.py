"""Harness machinery: boundary pairs, delta-event estimation, exact oracles."""

import math

import pytest

from unkhist import validation
from unkhist.accountant import RenyiOrder
from unkhist.core import Histogram, ParameterError, RandomSource, SensitivityBound
from unkhist.gumbel import release_gumbel_topk
from unkhist.release import release
from unkhist.stream import StreamEvent
from unkhist.topk import release_topk
from unkhist.validation import (
    DeltaEstimate,
    MechanismConfig,
    NeighborPair,
    estimate_delta_event,
    estimate_renyi_divergence,
    exact_expmech_topk_distribution,
    make_boundary_neighbors,
    run_suite,
    sample_gumbel_topk_outcomes,
    tv_distance,
    validate_neighbor_pair,
    wilson_upper,
)

LN_4_3 = 0.28768207245178092  # mpmath ln(4/3)


def _alg1_case():
    sens = SensitivityBound(1, 1)
    config = MechanismConfig(mechanism="alg1", epsilon=1.0, delta=0.05, sens=sens, noise="laplace")
    return make_boundary_neighbors("alg1", sens), config


def _topk_case():
    sens = SensitivityBound(1, 1)
    config = MechanismConfig(mechanism="topk", epsilon=1.0, delta=0.05, sens=sens, kbar=1)
    return make_boundary_neighbors("topk", sens, kbar=1), config


def _gumbel_case():
    config = MechanismConfig(
        mechanism="gumbel", epsilon=1.0, delta=0.05, kbar=1, k=1, l0_for_threshold=1
    )
    return make_boundary_neighbors("gumbel", kbar=1), config


def _stream_case():
    sens = SensitivityBound(1, 1)
    config = MechanismConfig(
        mechanism="stream", epsilon=1.0, delta=0.05, sens=sens, horizon=7, debut_round=7
    )
    return make_boundary_neighbors("stream", sens, horizon=7, debut_round=7), config


#: The suites' boundary pairs and configs for the batched mechanisms.
HISTOGRAM_BOUNDARY_CASES = {"alg1": _alg1_case, "topk": _topk_case, "gumbel": _gumbel_case}


class TestWilsonUpper:
    def test_bounds_the_point_estimate(self):
        for hits in (0, 1, 50, 999, 1000):
            upper = wilson_upper(hits, 1000)
            assert hits / 1000 <= upper <= 1.0

    def test_zero_hits_still_positive(self):
        assert 0.0 < wilson_upper(0, 10**5) < 1e-3

    def test_monotone_in_hits(self):
        values = [wilson_upper(h, 1000) for h in range(0, 1001, 100)]
        assert values == sorted(values)


class TestBoundaryPairs:
    def test_minimal_pair(self):
        pair = make_boundary_neighbors("alg1", SensitivityBound(1, 1))
        assert pair.base == Histogram({"a": 1})
        assert pair.neighbor == Histogram({})

    def test_wider_pair_passes_its_own_checker(self):
        sens = SensitivityBound(3, 2)
        pair = make_boundary_neighbors("alg1", sens, anchor_count=100)
        assert pair.base == Histogram({"a": 2, "b": 2, "c": 2, "z": 100})
        # The anchor count must not change: a fourth differing label would
        # break the declared (3, 2) sensitivity.
        assert pair.neighbor == Histogram({"z": 100})
        validate_neighbor_pair(pair, sens)

    def test_topk_pair(self):
        sens = SensitivityBound(1, 1)
        pair = make_boundary_neighbors("topk", sens, kbar=1)
        assert pair.base == Histogram({"a": 5, "b": 6})
        assert pair.neighbor == Histogram({"a": 5, "b": 5})
        validate_neighbor_pair(pair, sens)

    def test_gumbel_pair(self):
        pair = make_boundary_neighbors("gumbel", kbar=2)
        assert pair.base == Histogram({"a": 4, "b": 5, "c": 5})
        assert pair.neighbor == Histogram({"a": 4, "b": 4, "c": 4})

    def test_stream_pair(self):
        sens = SensitivityBound(2, 1)
        pair = make_boundary_neighbors("stream", sens, horizon=4, debut_round=2)
        assert pair.base[1].items == frozenset({"a", "b"})
        assert all(not event.items for event in pair.neighbor)
        validate_neighbor_pair(pair, sens)

    def test_unknown_tag(self):
        with pytest.raises(ParameterError):
            make_boundary_neighbors("mystery", SensitivityBound(1, 1))


class TestPairChecker:
    def test_too_many_differing_labels(self):
        pair = NeighborPair(
            kind="histogram",
            base=Histogram({"a": 1, "b": 1}),
            neighbor=Histogram({}),
            description="two labels vanish",
        )
        with pytest.raises(ParameterError):
            validate_neighbor_pair(pair, SensitivityBound(1, 1))

    def test_count_gap_too_wide(self):
        pair = NeighborPair(
            kind="histogram",
            base=Histogram({"a": 5}),
            neighbor=Histogram({"a": 1}),
            description="one label drops by four",
        )
        with pytest.raises(ParameterError):
            validate_neighbor_pair(pair, SensitivityBound(1, 2))

    def test_streams_must_differ_once(self):
        base = (StreamEvent(1, {"a"}), StreamEvent(2, {"b"}))
        neighbor = (StreamEvent(1, set()), StreamEvent(2, set()))
        pair = NeighborPair(kind="stream", base=base, neighbor=neighbor, description="")
        with pytest.raises(ParameterError):
            validate_neighbor_pair(pair, SensitivityBound(1, 1))


class TestDeltaEvents:
    def test_infinite_threshold_hook_yields_zero(self):
        sens = SensitivityBound(1, 1)
        pair = make_boundary_neighbors("alg1", sens)
        config = MechanismConfig(
            mechanism="alg1", epsilon=1.0, delta=0.05, sens=sens,
            noise="gaussian", threshold_override=math.inf,
        )
        estimate = estimate_delta_event(pair, config, 10**4, RandomSource(1))
        assert estimate.point == 0.0
        assert estimate.upper < 1e-3

    @pytest.mark.parametrize("noise,expected", [("laplace", 0.05), ("gaussian", 0.05)])
    def test_boundary_pair_near_delta(self, noise, expected):
        # Exact tails at the calibrated thresholds both equal delta for l0 = 1;
        # 1e4 trials give 5 SE ~ 0.011.
        sens = SensitivityBound(1, 1)
        pair = make_boundary_neighbors("alg1", sens)
        config = MechanismConfig(
            mechanism="alg1", epsilon=1.0, delta=0.05, sens=sens, noise=noise
        )
        estimate = estimate_delta_event(pair, config, 10**4, RandomSource(2))
        assert estimate.point == pytest.approx(expected, abs=0.012)
        assert estimate.upper <= 1.2 * 0.05

    def test_trials_floor(self):
        sens = SensitivityBound(1, 1)
        pair = make_boundary_neighbors("alg1", sens)
        config = MechanismConfig(
            mechanism="alg1", epsilon=1.0, delta=0.05, sens=sens, noise="gaussian"
        )
        with pytest.raises(ParameterError):
            estimate_delta_event(pair, config, 9_999, RandomSource(0))

    def test_stream_config_without_sens_is_parameter_error(self):
        pair = make_boundary_neighbors(
            "stream", SensitivityBound(1, 1), horizon=3, debut_round=2
        )
        config = MechanismConfig(
            mechanism="stream", epsilon=1.0, delta=0.05, horizon=3, debut_round=2
        )
        with pytest.raises(ParameterError, match="SensitivityBound"):
            estimate_delta_event(pair, config, 10**4, RandomSource(0))

    def test_histogram_mechanism_on_stream_pair_is_parameter_error(self):
        sens = SensitivityBound(1, 1)
        pair = make_boundary_neighbors("stream", sens, horizon=3, debut_round=2)
        config = MechanismConfig(mechanism="alg1", epsilon=1.0, delta=0.05, sens=sens)
        with pytest.raises(ParameterError, match="stream pair"):
            estimate_delta_event(pair, config, 10**4, RandomSource(0))

    @pytest.mark.parametrize("mechanism", ["alg1", "topk", "gumbel"])
    def test_histogram_estimates_make_no_per_trial_substreams(self, mechanism, monkeypatch):
        calls = []
        child = RandomSource.child

        def counting_child(self, *tokens):
            calls.append(tokens)
            return child(self, *tokens)

        monkeypatch.setattr(RandomSource, "child", counting_child)
        pair, config = HISTOGRAM_BOUNDARY_CASES[mechanism]()
        made = []
        for trials in (10**4, 3 * 10**4):
            calls.clear()
            estimate_delta_event(pair, config, trials, RandomSource(0))
            made.append(len(calls))
        assert made[0] == made[1]

    @pytest.mark.parametrize("mechanism", ["alg1", "topk", "gumbel"])
    def test_histogram_estimate_counts_consecutive_single_runs(self, mechanism):
        # The batch is, row by row, the runs that consecutive single calls
        # on the same source make.
        pair, config = HISTOGRAM_BOUNDARY_CASES[mechanism]()
        trials = 10**4
        rng = RandomSource(5)
        base = pair.base
        if mechanism == "alg1":
            feasible = set(pair.neighbor.labels())
            runs = (
                release(base, config.sens, config.noise, 1.0, 0.05, rng).released
                for _ in range(trials)
            )
        elif mechanism == "topk":
            feasible = {"a"}  # the neighbor's tied top-1 goes to "a"
            runs = (
                release_topk(base, 1, config.sens, 1.0, 0.05, rng).released
                for _ in range(trials)
            )
        else:
            feasible = {"a"}
            runs = (
                release_gumbel_topk(base, 1, 1, 1, 1.0, 0.05, rng)[0].labels
                for _ in range(trials)
            )
        hits = sum(not feasible.issuperset(run) for run in runs)
        estimate = estimate_delta_event(pair, config, trials, RandomSource(5))
        assert estimate.point == hits / trials
        assert 0 < hits < trials

    @pytest.mark.parametrize("mechanism", ["alg1", "topk", "gumbel", "stream"])
    def test_estimate_does_not_depend_on_the_batch_size(self, mechanism, monkeypatch):
        pair, config = (HISTOGRAM_BOUNDARY_CASES | {"stream": _stream_case})[mechanism]()
        whole = estimate_delta_event(pair, config, 10**4, RandomSource(9))
        # Four batches, the last one short.
        monkeypatch.setattr(validation, "DELTA_EVENT_BATCH", 3001)
        assert estimate_delta_event(pair, config, 10**4, RandomSource(9)) == whole
        assert 0.0 < whole.point < 1.0

    def test_estimate_invariants(self):
        estimate = DeltaEstimate(point=0.01, upper=0.02, trials=10**4)
        assert 0.0 <= estimate.point <= estimate.upper <= 1.0


class TestExactExpmech:
    def test_two_way_tie(self):
        dist = exact_expmech_topk_distribution({"a": 1, "b": 1}, 1, 1.0)
        assert dist[("a",)] == pytest.approx(0.5, rel=1e-12)
        assert dist[("b",)] == pytest.approx(0.5, rel=1e-12)

    def test_single_selection(self):
        dist = exact_expmech_topk_distribution({"a": 3, "b": 2, "c": 1}, 1, 1.0)
        assert dist[("a",)] == pytest.approx(0.66524095577482189, rel=1e-12)

    def test_sequential_product(self):
        dist = exact_expmech_topk_distribution({"a": 3, "b": 2, "c": 1}, 2, 1.0)
        assert dist[("a", "b")] == pytest.approx(0.48633010757520723, rel=1e-12)
        assert sum(dist.values()) == pytest.approx(1.0, rel=1e-12)

    def test_large_counts_stay_finite(self):
        dist = exact_expmech_topk_distribution({"a": 1003, "b": 1002}, 1, 1.0)
        assert dist[("a",)] == pytest.approx(math.exp(1) / (math.exp(1) + 1), rel=1e-12)

    def test_instance_size_guard(self):
        big = {f"x{i}": i + 1 for i in range(9)}
        with pytest.raises(ParameterError):
            exact_expmech_topk_distribution(big, 1, 1.0)
        with pytest.raises(ParameterError):
            exact_expmech_topk_distribution({"a": 1}, 2, 1.0)


class TestTvDistance:
    def test_identical(self):
        assert tv_distance({("a",): 1.0}, {("a",): 1.0}) == 0.0

    def test_disjoint(self):
        assert tv_distance({("a",): 1.0}, {("b",): 1.0}) == 1.0

    def test_arithmetic(self):
        assert tv_distance({"A": 0.6, "B": 0.4}, {"A": 0.5, "B": 0.5}) == pytest.approx(0.1)


class TestRenyiDivergence:
    def test_identical_distributions(self):
        p = {"x": 0.3, "y": 0.7}
        for order in (1.0, 1.5, 2.0, 8.0):
            assert estimate_renyi_divergence(p, p, order) == pytest.approx(0.0, abs=1e-15)

    def test_bernoulli_order_two(self):
        p = {"H": 0.5, "T": 0.5}
        q = {"H": 0.25, "T": 0.75}
        assert estimate_renyi_divergence(p, q, 2.0) == pytest.approx(LN_4_3, rel=1e-12)

    def test_accepts_renyi_order(self):
        p = {"H": 0.5, "T": 0.5}
        q = {"H": 0.25, "T": 0.75}
        direct = estimate_renyi_divergence(p, q, RenyiOrder(2.0))
        assert direct == estimate_renyi_divergence(p, q, 2.0)

    def test_support_violation_is_infinite(self):
        assert estimate_renyi_divergence({"a": 1.0}, {"b": 1.0}, 2.0) == math.inf

    def test_kl_limit(self):
        p = {"H": 0.5, "T": 0.5}
        q = {"H": 0.25, "T": 0.75}
        kl = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert estimate_renyi_divergence(p, q, 1.0) == pytest.approx(kl, rel=1e-12)

    def test_order_below_one_rejected(self):
        with pytest.raises(ParameterError):
            estimate_renyi_divergence({"a": 1.0}, {"a": 1.0}, 0.9)

    def test_expmech_neighbors_respect_budget(self):
        # Neighboring count vectors (one count lowered by 1) at eps = 1:
        # divergence at every order is within lambda * eps^2 / 8.
        base = exact_expmech_topk_distribution({"a": 4, "b": 3, "c": 2}, 1, 1.0)
        lowered = exact_expmech_topk_distribution({"a": 3, "b": 3, "c": 2}, 1, 1.0)
        for order in (1.5, 2.0, 4.0, 8.0):
            bound = order / 8.0 + 1e-12
            assert estimate_renyi_divergence(base, lowered, order) <= bound
            assert estimate_renyi_divergence(lowered, base, order) <= bound


class TestBatchSampler:
    def test_empty_candidates(self):
        outcomes = sample_gumbel_topk_outcomes(Histogram(), 1, 2, 1.0, 100, RandomSource(0))
        assert outcomes == {("⊥",): 1.0}

    def test_threshold_enabled_appends_bottom(self):
        # Tiny counts against the real threshold: most runs release nothing.
        outcomes = sample_gumbel_topk_outcomes(
            {"a": 1}, 1, 1, 1.0, 10**4, RandomSource(1),
            threshold_disabled=False, l0_for_threshold=1, delta=0.05,
        )
        assert outcomes.get(("⊥",), 0.0) > 0.5
        assert sum(outcomes.values()) == pytest.approx(1.0, rel=1e-9)

    def test_bad_epsilon_is_parameter_error(self):
        with pytest.raises(ParameterError, match="epsilon"):
            sample_gumbel_topk_outcomes({"a": 1}, 1, 1, 0.0, 100, RandomSource(0))

    def test_frequencies_normalized(self):
        outcomes = sample_gumbel_topk_outcomes(
            {"a": 3, "b": 2, "c": 2, "d": 1}, 2, 4, 1.0, 10**5, RandomSource(2)
        )
        assert sum(outcomes.values()) == pytest.approx(1.0, rel=1e-9)
        assert all(len(key) == 2 for key in outcomes)


class TestSuites:
    def test_renyi_suite_passes(self):
        report = run_suite("renyi", 10**4, seed=0)
        assert report["passed"] is True
        assert len(report["checks"]) == 3

    def test_unknown_suite(self):
        with pytest.raises(ParameterError):
            run_suite("everything", 10**4, seed=0)

    def test_alg1_suite_deterministic(self):
        first = run_suite("alg1", 10**4, seed=5)
        second = run_suite("alg1", 10**4, seed=5)
        assert first == second
        assert first["passed"] is True
