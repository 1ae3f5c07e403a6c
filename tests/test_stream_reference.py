"""The partial-sum stack Counter against the dict-based counter it replaced,
and the array sweeps against the scalar Counter.

ReferenceCounter is the earlier ``Counter.observe``: every round it re-sums
the round's dyadic nodes for every label seen so far, drawing each node's
noise the first time it is needed and keeping every count and noise in
per-label dicts.  The stack must give repr-identical snapshots, round by
round, once the reference's label order (sorted) is set aside.
``counter_sweep``, which the CLI runs, must give a Counter's snapshots in
the same order, and each row of ``counter_batch`` must be what a scalar Counter
gives when fed that row's noises through the noise hook.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counter_log import logged_counter, node_counts, node_noises

from unkhist import core
from unkhist import stream as stream_module
from unkhist.accountant import CdpBudget
from unkhist.core import ParameterError, RandomSource, sample_gaussian
from unkhist.stream import (
    SWEEP_WINDOW,
    Counter,
    CounterConfig,
    StreamEvent,
    counter_batch,
    counter_sweep,
    dyadic_nodes,
)


class ReferenceCounter:
    def __init__(self, config, rng=None):
        self.config = config
        self.round = 0
        self._master = rng if rng is not None else RandomSource(config.seed)
        self._labels = {}  # label -> (rng, sums, noises)
        self._ordered = []

    def node_noises(self, label):
        state = self._labels.get(label)
        return dict(state[2]) if state is not None else {}

    def observe(self, event):
        config = self.config
        r = event.round
        assert r == self.round + 1 and r <= config.horizon
        assert len(event.items) <= config.l0
        self.round = r
        depth = config.depth
        for label in sorted(event.items):
            state = self._labels.get(label)
            if state is None:
                state = (self._master.child(label), {}, {})
                self._labels[label] = state
                self._ordered = sorted(self._labels)
            sums = state[1]
            for level in range(depth):
                node = (level, (r - 1) >> level)
                sums[node] = sums.get(node, 0) + 1

        nodes = dyadic_nodes(r)
        sigma = config.sigma
        threshold = config.threshold
        released = {}
        for label in self._ordered:
            rng, sums, noises = self._labels[label]
            total = 0.0
            for node in nodes:
                noise = noises.get(node)
                if noise is None:
                    noise = sample_gaussian(sigma, rng) if sigma > 0.0 else 0.0
                    noises[node] = noise
                total += sums.get(node, 0) + noise
            if total > threshold:
                released[label] = total
        return released


LABELS = ("a", "b", "c", "d", "e", "f")
# Powers of two and their predecessors, where the stack pops the most.
EDGE_HORIZONS = (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64)
SHORT_HORIZONS = st.one_of(st.sampled_from(EDGE_HORIZONS), st.integers(1, 70))
# Past two default windows of the sweep, too.
LONG_HORIZONS = st.one_of(
    st.sampled_from(EDGE_HORIZONS + (127, 128, 129, 192, 255, 256)), st.integers(1, 200)
)


@st.composite
def streams(draw, horizons=SHORT_HORIZONS):
    horizon = draw(horizons)
    l0 = draw(st.integers(1, 4))
    # Labels become eligible in order, at sorted debut rounds, so some arrive late.
    debuts = sorted(draw(st.lists(st.integers(1, horizon), min_size=len(LABELS),
                                  max_size=len(LABELS))))  # fmt: skip
    events = []
    for r in range(1, horizon + 1):
        eligible = [label for label, debut in zip(LABELS, debuts) if debut <= r]
        if draw(st.integers(0, 4)) == 0:
            items = []  # empty rounds
        else:
            items = draw(st.lists(st.sampled_from(eligible), max_size=l0, unique=True)) if eligible else []
        events.append(StreamEvent(r, items))
    return horizon, l0, events


@settings(max_examples=150, deadline=None)
@given(
    stream=streams(),
    sigma=st.sampled_from([0.0, 1.0]),
    threshold=st.sampled_from([-math.inf, 0.5, 3.0]),
    seed=st.integers(0, 2**32),
    hook=st.booleans(),
)
def test_stack_matches_dict_reference(stream, sigma, threshold, seed, hook):
    horizon, l0, events = stream
    config = CounterConfig(horizon=horizon, l0=l0, sigma=sigma, threshold=threshold,
                           seed=seed, budget=CdpBudget(0.0, math.inf))  # fmt: skip
    if hook:
        counter = Counter(config, rng=RandomSource(seed).child(7))
        logged, log = logged_counter(config, rng=RandomSource(seed).child(7))
        reference = ReferenceCounter(config, rng=RandomSource(seed).child(7))
    else:
        counter = Counter(config)
        logged, log = logged_counter(config)
        reference = ReferenceCounter(config)
    for r, event in enumerate(events, start=1):
        released = counter.observe(event)
        assert repr(dict(sorted(released.items()))) == repr(reference.observe(event))
        assert repr(logged.observe(event)) == repr(released)
        # The stack keeps stale entries above the active nodes; only the
        # active ones are read.
        for label in counter._labels:
            counts = reference._labels[label][1]
            assert node_counts(counter, label) == {node: counts.get(node, 0) for node in dyadic_nodes(r)}
    # The reference adds each event's new labels sorted, as the stack does.
    assert list(counter._labels) == list(reference._labels)
    for label in LABELS:
        assert repr(node_noises(log[label])) == repr(reference.node_noises(label))


def _config(horizon, l0, sigma, threshold, seed):
    config = CounterConfig.from_privacy(horizon, l0, 1.0, 0.5, seed)
    config = dataclasses.replace(config, sigma=sigma)
    return config if threshold is None else dataclasses.replace(config, threshold=threshold)


def _noise_layout(events):
    """Each label's column range in a run's noise row: labels in order of
    arrival (sorted within an event, as the sweep adds them), each taking
    one column per node it uses, from its debut round's nodes through the
    last round's."""
    layout, start = {}, 0
    arrivals = [label for event in events for label in sorted(event.items)]
    for label in dict.fromkeys(arrivals):
        debut = next(r for r, event in enumerate(events, 1) if label in event.items)
        nodes = set().union(*(dyadic_nodes(r) for r in range(debut, len(events) + 1)))
        layout[label] = (start, start + len(nodes))
        start += len(nodes)
    return layout, start


@settings(max_examples=150, deadline=None)
@given(
    stream=streams(),
    sigma=st.sampled_from([0.0, 1.0]),
    # None keeps the calibrated threshold; the integers meet sigma = 0 totals exactly.
    threshold=st.sampled_from([None, -math.inf, 0.5, 1.0, 2.0, 3.0]),
    seed=st.integers(0, 2**32),
    trials=st.integers(1, 5),
)
def test_counter_batch_rows_match_hooked_counters(stream, sigma, threshold, seed, trials):
    # The mask and the released totals are exact at any threshold; every
    # total is exact at -inf, where each one is released.  The floor at 0
    # screens even these small blocks.
    horizon, l0, events = stream
    config = _config(horizon, l0, sigma, threshold, seed)
    unmasked = dataclasses.replace(config, threshold=-math.inf)
    layout, draws = _noise_layout(events)
    shape = (trials, draws)
    block = sample_gaussian(sigma, RandomSource(seed), shape) if sigma else np.zeros(shape)
    for floor in (0, core.SCREEN_FLOOR):
        with mock.patch.object(core, "SCREEN_FLOOR", floor):
            labels, totals, released = counter_batch(config, events, RandomSource(seed), trials)
            _, every_totals, every_released = counter_batch(unmasked, events, RandomSource(seed), trials)
        assert labels == list(layout)
        assert totals.shape == released.shape == every_totals.shape == (trials, len(labels))
        assert every_released.all()
        for row, row_totals, row_released, row_every in zip(block.tolist(), totals, released, every_totals):
            feeds = {}

            def hook(label):
                start, stop = layout[label]
                feeds[label] = iter(row[start:stop])
                return feeds[label].__next__

            scalar, every = Counter(config, noise=hook), Counter(unmasked, noise=hook)
            for event in events:
                snapshot, snapshot_all = scalar.observe(event), every.observe(event)
            # Every label drew exactly its columns, in order.
            assert all(next(feed, None) is None for feed in feeds.values())
            assert repr(row_every.tolist()) == repr([snapshot_all[label] for label in labels])
            hits = {label: total for label, total, hit in zip(labels, row_totals.tolist(), row_released) if hit}
            assert repr(hits) == repr(snapshot)
            assert repr(snapshot) == repr({label: snapshot_all[label] for label in snapshot})


@settings(max_examples=50, deadline=None)
@given(stream=streams(), seed=st.integers(0, 2**32), trials=st.integers(1, 5))
def test_counter_batch_is_consecutive_single_runs(stream, seed, trials):
    # The released totals agree; at threshold -inf every total is released.
    horizon, l0, events = stream
    config = CounterConfig.from_privacy(horizon, l0, 1.0, 0.5, seed)
    for config in (config, dataclasses.replace(config, threshold=-math.inf)):
        labels, totals, released = counter_batch(config, events, RandomSource(seed), trials)
        rng = RandomSource(seed)
        for row_totals, row_released in zip(totals, released):
            single_labels, single_totals, single_released = counter_batch(config, events, rng, 1)
            assert single_labels == labels
            assert single_released[0].tolist() == row_released.tolist()
            assert repr(single_totals[0, row_released].tolist()) == repr(row_totals[row_released].tolist())
        # The batch drew what the single runs drew, and nothing more.
        assert rng.uniform() == RandomSource(seed).uniforms(trials * _noise_layout(events)[1] + 1)[-1]


@settings(max_examples=150, deadline=None)
@given(
    stream=streams(LONG_HORIZONS),
    sigma=st.sampled_from([0.0, 1.0]),
    threshold=st.sampled_from([None, -math.inf, 0.5, 3.0]),
    seed=st.integers(0, 2**32),
    # Short windows make short runs span many of them.
    window=st.one_of(st.just(SWEEP_WINDOW), st.integers(1, 9)),
)
def test_sweep_snapshots_match_counter(stream, sigma, threshold, seed, window):
    horizon, l0, events = stream
    config = _config(horizon, l0, sigma, threshold, seed)
    counter = Counter(config)
    with mock.patch.object(stream_module, "SWEEP_WINDOW", window):
        snapshots = list(counter_sweep(config, events))
    assert [r for r, _ in snapshots] == [event.round for event in events]
    for event, (_, released) in zip(events, snapshots):
        assert repr(released) == repr(counter.observe(event))


def _bad_streams():
    """Events that Counter.observe refuses, each after two good ones."""
    good = [StreamEvent(1, ["a"]), StreamEvent(2, ["a", "b"])]
    return {
        "not an event": good + [{"round": 3, "items": ["a"]}],
        "wrong round": good + [StreamEvent(4, ["a"])],
        "past the horizon": good + [StreamEvent(3, []), StreamEvent(4, ["b"]), StreamEvent(5, ["a"])],
        "over l0": good + [StreamEvent(3, ["a", "b", "c"])],
    }


@pytest.mark.parametrize("case", sorted(_bad_streams()))
def test_sweeps_check_each_event_before_taking_the_next(case):
    refused = _bad_streams()[case]
    config = CounterConfig.from_privacy(4, 2, 1.0, 0.5, seed=3)
    counter = Counter(config)
    for event in refused[:-1]:
        counter.observe(event)
    with pytest.raises(ParameterError) as expected:
        counter.observe(refused[-1])
    # Valid events follow the refused one; none of them may be taken.
    events = refused + [StreamEvent(r, ["a"]) for r in range(len(refused), 5)]

    taken = []

    def feed():
        for event in events:
            taken.append(event)
            yield event

    with pytest.raises(ParameterError) as swept:
        list(counter_sweep(config, feed()))
    assert str(swept.value) == str(expected.value)
    assert taken == refused  # the refused event was the last one taken

    rng = RandomSource(9)
    with pytest.raises(ParameterError) as batched:
        counter_batch(config, events, rng, 3)
    assert str(batched.value) == str(expected.value)
    assert rng.uniform() == RandomSource(9).uniform()  # nothing was drawn


def test_empty_streams():
    config = CounterConfig.from_privacy(8, 1, 1.0, 0.5, seed=3)
    assert list(counter_sweep(config, [])) == []
    events = [StreamEvent(r, []) for r in range(1, 4)]
    assert list(counter_sweep(config, events)) == [(1, {}), (2, {}), (3, {})]
    labels, totals, released = counter_batch(config, events, RandomSource(0), 2)
    assert labels == [] and totals.shape == released.shape == (2, 0)
