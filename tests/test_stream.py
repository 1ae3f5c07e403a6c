"""Continual counter: dyadic structure, noise reuse, calibration, rejection."""

import dataclasses
import math
import tracemalloc

import pytest

from counter_log import logged_counter, node_noises

from unkhist.accountant import CdpBudget
from unkhist import stream
from unkhist.core import ParameterError, RandomSource
from unkhist.stream import (
    SWEEP_MIN_LABELS,
    Counter,
    CounterConfig,
    StreamEvent,
    active_node_count,
    counter_sweep,
    dyadic_nodes,
    snapshots,
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

    def test_counter_reports_its_config_budget(self):
        config = CounterConfig.from_privacy(7, 2, 1.0, 0.07, seed=1)
        assert Counter(config).budget is config.budget

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
        for seed in (-1, 2**64):  # refused as RandomSource refuses it
            with pytest.raises(ParameterError, match="seed"):
                CounterConfig.from_privacy(4, 1, 1.0, 0.05, seed=seed)


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
        assert list(counter._labels) == ["a"]
        snapshot = counter.observe(StreamEvent(2, {"a"}))
        assert snapshot == {"a": 2.0}
        counter.observe(StreamEvent(3, set()))
        counter.observe(StreamEvent(4, set()))
        with pytest.raises(ParameterError):
            counter.observe(StreamEvent(5, {"a"}))  # horizon exceeded

    def test_noise_drawn_once_per_node(self):
        config = hook_config(16, sigma=1.0, threshold=-math.inf, seed=9)
        counter, log = logged_counter(config)
        used = set()
        for r in range(1, 17):
            counter.observe(StreamEvent(r, {"a"}))
            used.update(dyadic_nodes(r))
            # One draw per node the label has used: a node's noise is reused.
            assert len(log["a"]) == len(used) and set(node_noises(log["a"])) == used

    def test_late_label_gets_fresh_noise_on_prior_nodes(self):
        config = hook_config(16, sigma=1.0, threshold=-math.inf, l0=2, seed=9)
        counter, log = logged_counter(config)
        for r in range(1, 9):
            counter.observe(StreamEvent(r, {"a"}))
        counter.observe(StreamEvent(9, {"a", "late"}))
        a_noises = node_noises(log["a"])
        late_noises = node_noises(log["late"])
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
        counter, log = logged_counter(config)
        for r in range(1, 11):
            snapshot = counter.observe(StreamEvent(r, {"a"}))
            noises = node_noises(log["a"])
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


def test_events_refuse_a_str_as_items():
    # A str is iterable: taken as items it would be one label per character.
    with pytest.raises(ParameterError, match="^items must be a collection of labels, not the str 'abc'$"):
        StreamEvent(1, "abc")
    assert StreamEvent(1, ["abc"]).items == frozenset({"abc"})


def test_sweep_memory_stays_windowed():
    # Noise for every label in every round would take 1040 * 4096 float64s,
    # 32.5 MiB; the sweep holds one window's worth per label at a time.
    labels, horizon = 1040, 4096
    names = [f"x{i:04d}" for i in range(labels)]
    # Every label arrives by round 260; later rounds carry two labels each.
    events = [
        StreamEvent(r, names[4 * r - 4 : 4 * r] if 4 * r <= labels else names[r % 1000 : r % 1000 + 2])
        for r in range(1, horizon + 1)
    ]
    config = hook_config(horizon, sigma=1.0, threshold=30.0, l0=4, seed=3)
    full = labels * horizon * 8
    assert full > 32 * 2**20
    tracemalloc.start()
    try:
        rounds = sum(1 for _ in counter_sweep(config, events))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rounds == horizon
    assert peak < full / 4


class Pulls:
    """An event iterator that records how many events have been pulled."""

    def __init__(self, events):
        self.events = list(events)
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        if self.pulled == len(self.events):
            raise StopIteration
        self.pulled += 1
        return self.events[self.pulled - 1]


def one_label_a_round(labels, rounds):
    """Round r carries label l{r % labels}: the labels-th distinct label arrives in round labels."""
    return [StreamEvent(r, {f"l{r % labels}"}) for r in range(1, rounds + 1)]


def test_snapshots_choose_the_sweep_at_the_event_that_brings_its_label(monkeypatch):
    # Only the events through the SWEEP_MIN_LABELS-th label are held: the
    # sweep is chosen before any later event is pulled, and then takes the
    # held events and the rest, giving Counter's snapshots.
    config = CounterConfig.from_privacy(64, 1, 1.0, 0.05, seed=3)
    events = Pulls(one_label_a_round(40, 64))
    seen = []

    def sweep(config, rest):
        seen.append(events.pulled)
        return counter_sweep(config, rest)

    monkeypatch.setattr(stream, "counter_sweep", sweep)
    rows = snapshots(config, events)
    assert events.pulled == 0  # nothing is read before the first snapshot is asked for
    first = next(rows)
    assert seen == [SWEEP_MIN_LABELS]
    counter = Counter(config)
    expected = [(e.round, counter.observe(e)) for e in events.events]
    assert [first, *rows] == expected and events.pulled == 64


@pytest.mark.parametrize("threshold", [None, -math.inf])
@pytest.mark.parametrize("labels", [3, SWEEP_MIN_LABELS + 4])
def test_counter_and_sweep_release_labels_in_the_same_order(labels, threshold):
    # Labels arrive in reverse name order, two in round 1, so order of
    # arrival is not label order.  Both counters keep labels in order of
    # arrival, each round's new ones sorted, and so does snapshots on its
    # Counter path (3 labels) and its sweep path.
    config = CounterConfig.from_privacy(64, 2, 1.0, 0.05, seed=3)
    if threshold is not None:
        config = dataclasses.replace(config, threshold=threshold)
    names = [f"l{i:02d}" for i in reversed(range(labels))]
    events = [StreamEvent(1, names[:2])] + [StreamEvent(r, [names[r % labels]]) for r in range(2, 65)]
    counter = Counter(config)
    observed = [list(counter.observe(event).items()) for event in events]
    assert [list(released.items()) for _, released in counter_sweep(config, events)] == observed
    assert [list(released.items()) for _, released in snapshots(config, events)] == observed
    if threshold is not None:  # every label seen is released every round
        assert [label for label, _ in observed[-1]] == sorted(names[:2]) + names[2:]


@pytest.mark.parametrize("labels", [3, 40])
@pytest.mark.parametrize(
    "bad, message",
    [
        (StreamEvent(31, ()), "expected round 30, got 31"),
        (StreamEvent(30, {"x", "y"}), "more than l0 = 1"),
        ({"round": 30, "items": ["x"]}, "expected a StreamEvent"),
    ],
    ids=["round", "l0", "type"],
)
def test_snapshots_raise_at_a_refused_event_before_pulling_more(labels, bad, message):
    # The 29 events before the refused one hold 3 labels (Counter) or 29
    # (the sweep, chosen at event 16, which takes events a window at a time).
    config = CounterConfig.from_privacy(64, 1, 1.0, 0.05, seed=3)
    good = one_label_a_round(labels, 64)
    events = Pulls(good[:29] + [bad] + good[30:])
    with pytest.raises(ParameterError, match=message):
        list(snapshots(config, events))
    assert events.pulled == 30


def test_windows_without_new_labels_seed_no_streams(monkeypatch):
    # Every label arrives in round 1: one window of the 128 brings new labels,
    # and only it seeds child streams.
    from unkhist import core

    seeded = []
    seed_states = core._seed_states
    monkeypatch.setattr(core, "_seed_states", lambda *args: seeded.append(1) or seed_states(*args))
    labels = [f"l{i:02d}" for i in range(SWEEP_MIN_LABELS)]
    events = [StreamEvent(1, labels)] + [StreamEvent(r, [labels[r % len(labels)]]) for r in range(2, 4097)]
    config = CounterConfig.from_privacy(4096, len(labels), 1.0, 0.05, seed=3)
    assert 4096 // stream.SWEEP_WINDOW == 128
    for _ in counter_sweep(config, events):
        pass
    assert len(seeded) == 1
