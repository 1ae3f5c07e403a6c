"""The partial-sum stack Counter against the dict-based counter it replaced.

ReferenceCounter is the earlier ``Counter.observe``: every round it re-sums
the round's dyadic nodes for every label seen so far, drawing each node's
noise the first time it is needed and keeping every count and noise in
per-label dicts.  The stack must give repr-identical snapshots, round by
round.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from unkhist.accountant import CdpBudget
from unkhist.core import RandomSource, sample_gaussian
from unkhist.stream import Counter, CounterConfig, StreamEvent, dyadic_nodes


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


@st.composite
def streams(draw):
    horizon = draw(st.one_of(st.sampled_from(EDGE_HORIZONS), st.integers(1, 70)))
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
        reference = ReferenceCounter(config, rng=RandomSource(seed).child(7))
    else:
        counter = Counter(config)
        reference = ReferenceCounter(config)
    for event in events:
        assert repr(counter.observe(event)) == repr(reference.observe(event))
    assert counter.labels_seen() == sorted(reference._labels)
    for label in LABELS:
        assert repr(counter.node_noises(label)) == repr(reference.node_noises(label))
