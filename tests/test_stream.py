"""Continual counter: dyadic structure, noise reuse, calibration, rejection."""

import math

import pytest

from unkhist.accountant import CdpBudget
from unkhist.core import ParameterError, RandomSource
from unkhist.stream import (
    Counter,
    CounterConfig,
    StreamEvent,
    active_node_count,
    dyadic_nodes,
)

# mpmath (50 digits): 1 + 2*PhiInv(0.99).
T_COUNTER_L7 = 5.6526957480816822


def hook_config(horizon, sigma, threshold, l0=1, seed=0):
    return CounterConfig(
        horizon=horizon,
        l0=l0,
        sigma=sigma,
        threshold=threshold,
        seed=seed,
        budget=CdpBudget(0.0, math.inf if sigma == 0 else 0.0),
    )


class TestActiveNodes:
    def test_worked_rounds(self):
        assert active_node_count(8) == 1
        assert active_node_count(10) == 2
        assert active_node_count(7) == 3  # binary 111

    def test_decompositions(self):
        assert dyadic_nodes(8) == ((3, 0),)
        assert dyadic_nodes(10) == ((3, 0), (1, 4))
        assert dyadic_nodes(7) == ((2, 0), (1, 2), (0, 6))

    def test_nodes_tile_the_prefix(self):
        for r in range(1, 200):
            covered = []
            for level, index in dyadic_nodes(r):
                start = index * 2**level + 1
                covered.extend(range(start, start + 2**level))
            assert covered == list(range(1, r + 1))

    def test_validation(self):
        with pytest.raises(ParameterError):
            active_node_count(0)


class TestCounterConfig:
    def test_reference_threshold_and_budget(self):
        config = CounterConfig.from_privacy(7, 1, 1.0, 0.07, seed=0)
        assert config.depth == 3
        assert config.threshold == pytest.approx(T_COUNTER_L7, abs=1e-9)
        assert config.budget == CdpBudget(delta=0.07, rho=1.5)

    def test_boundary_delta(self):
        config = CounterConfig.from_privacy(1, 1, 1.0, 0.5, seed=0)
        assert config.threshold == pytest.approx(1.0, abs=1e-12)
        assert config.budget == CdpBudget(delta=0.5, rho=0.5)

    def test_long_horizon_budget(self):
        config = CounterConfig.from_privacy(1024, 2, 0.5, 1e-6, seed=0)
        assert config.depth == 11
        assert config.budget.rho == pytest.approx(2.75, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ParameterError):
            CounterConfig.from_privacy(0, 1, 1.0, 0.05, seed=0)
        with pytest.raises(ParameterError):
            CounterConfig.from_privacy(4, 1, 1.0, 1.5, seed=0)
        with pytest.raises(ParameterError):
            CounterConfig.from_privacy(4, 1, 0.0, 0.05, seed=0)


class TestObserve:
    def test_noiseless_prefix_counts(self):
        counter = Counter(hook_config(8, sigma=0.0, threshold=1.0))
        snapshot = {}
        for r in range(1, 6):
            snapshot = counter.observe(StreamEvent(r, {"a"}))
        assert snapshot == {"a": 5.0}

    def test_below_threshold_absent(self):
        counter = Counter(hook_config(8, sigma=0.0, threshold=10.0))
        for r in range(1, 6):
            snapshot = counter.observe(StreamEvent(r, {"a"}))
        assert snapshot == {}

    def test_released_labels_already_observed(self):
        counter = Counter(hook_config(16, sigma=1.0, threshold=-math.inf, l0=2, seed=4))
        seen = set()
        for r in range(1, 13):
            items = {"a"} if r < 5 else {"a", "b"}
            seen |= items
            snapshot = counter.observe(StreamEvent(r, items))
            assert set(snapshot) <= seen

    def test_rejections_leave_state_unchanged(self):
        counter = Counter(hook_config(4, sigma=0.0, threshold=0.5, l0=1))
        counter.observe(StreamEvent(1, {"a"}))
        with pytest.raises(ParameterError):
            counter.observe(StreamEvent(3, {"a"}))  # out of order
        with pytest.raises(ParameterError):
            counter.observe(StreamEvent(2, {"a", "b"}))  # too many items
        assert counter.round == 1
        assert counter.labels_seen() == ["a"]
        snapshot = counter.observe(StreamEvent(2, {"a"}))
        assert snapshot == {"a": 2.0}
        counter.observe(StreamEvent(3, set()))
        counter.observe(StreamEvent(4, set()))
        with pytest.raises(ParameterError):
            counter.observe(StreamEvent(5, {"a"}))  # horizon exceeded

    def test_noise_drawn_once_per_node(self):
        config = hook_config(16, sigma=1.0, threshold=-math.inf, seed=9)
        counter = Counter(config)
        history = {}
        for r in range(1, 17):
            counter.observe(StreamEvent(r, {"a"}))
            noises = counter.node_noises("a")
            for node, value in history.items():
                assert noises[node] == value  # bit-identical reuse
            history.update(noises)

    def test_late_label_gets_fresh_noise_on_prior_nodes(self):
        config = hook_config(16, sigma=1.0, threshold=-math.inf, l0=2, seed=9)
        counter = Counter(config)
        for r in range(1, 9):
            counter.observe(StreamEvent(r, {"a"}))
        counter.observe(StreamEvent(9, {"a", "late"}))
        a_noises = counter.node_noises("a")
        late_noises = counter.node_noises("late")
        assert set(late_noises) == set(dyadic_nodes(9))
        shared = set(a_noises) & set(late_noises)
        assert shared and all(a_noises[n] != late_noises[n] for n in shared)

    def test_seeded_streams_reproduce(self):
        def run():
            counter = Counter(
                CounterConfig.from_privacy(10, 2, 1.0, 0.05, seed=123)
            )
            out = []
            for r in range(1, 11):
                items = {"a", "b"} if r % 3 else {"c"}
                out.append(counter.observe(StreamEvent(r, items)))
            return out

        assert run() == run()

    def test_noisy_count_sums_active_nodes(self):
        config = hook_config(16, sigma=1.0, threshold=-math.inf, seed=5)
        counter = Counter(config)
        for r in range(1, 11):
            snapshot = counter.observe(StreamEvent(r, {"a"}))
            noises = counter.node_noises("a")
            expected = r + sum(noises[node] for node in dyadic_nodes(r))
            assert snapshot["a"] == pytest.approx(expected, rel=1e-12)


class TestNoiseMoments:
    def test_unbiased_with_popcount_variance(self):
        # 3000 seeded runs of an 8-round stream; per-round noise is the sum of
        # popcount(r) unit Gaussians.
        runs = 3000
        horizon = 8
        config = hook_config(horizon, sigma=1.0, threshold=-math.inf)
        master = RandomSource(808)
        errors = {r: [] for r in range(1, horizon + 1)}
        for i in range(runs):
            counter = Counter(config, rng=master.child(i))
            for r in range(1, horizon + 1):
                snapshot = counter.observe(StreamEvent(r, {"a"}))
                errors[r].append(snapshot["a"] - r)
        for r, errs in errors.items():
            n = len(errs)
            mean = sum(errs) / n
            var = sum((e - mean) ** 2 for e in errs) / n
            true_var = active_node_count(r)
            assert abs(mean) <= 5 * math.sqrt(true_var / n)
            assert abs(var - true_var) <= 5 * true_var * math.sqrt(2.0 / (n - 1))


def test_events_validate_labels():
    with pytest.raises(ParameterError):
        StreamEvent(1, {"⊥1"})
    with pytest.raises(ParameterError):
        StreamEvent(0, {"a"})


def test_state_dict_is_json_ready():
    import json

    counter = Counter(CounterConfig.from_privacy(8, 2, 1.0, 0.05, seed=21))
    for r in range(1, 5):
        counter.observe(StreamEvent(r, {"a"} if r % 2 else {"a", "b"}))
    state = counter.state_dict()
    assert state["round"] == 4
    assert "seed" not in state
    assert set(state["labels"]) == {"a", "b"}
    assert state["labels"]["b"] == {"debut": 2, "counts": {"2:0": 2}}
    text = json.dumps(state)  # must serialize without help
    assert '"noises"' not in text  # raw noise is never exported
