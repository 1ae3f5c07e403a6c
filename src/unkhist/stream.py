"""Running per-label counters over an event stream, released above a threshold.

This is the binary mechanism (Dwork, Naor, Pitassi and Rothblum, STOC'10;
Chan, Shi and Song, TISSEC'11).  Each label's prefix count is assembled from
dyadic partial sums: the count through round r sums the popcount(r) interval
nodes given by r's binary representation.  Every node carries one Gaussian
draw for its whole life, so an event touches at most ceil(log2(L+1)) noised
values and the lifetime budget stays logarithmic in the horizon.  Labels are
released only once their noisy prefix count clears the threshold, which
keeps never-seen labels unobservable (event-level privacy over an unknown
label universe).

The nodes of round r are those of round r-1 with the tz lowest removed
(tz = trailing zero bits of r) and one node at level tz added, which covers
exactly the removed nodes plus round r.  Both lists run leftmost first, so
the left-to-right noisy sum over round r's nodes shares its whole prefix
with round r-1's.  Each label therefore keeps a stack of its active nodes:
their event counts and the running sums through each of them.  A round pops
tz entries, draws one Gaussian and pushes one sum per label, with the same
draws, order and additions as a from-scratch sum, hence bit-identical
snapshots.  State is O(labels * log L): nothing is kept of a node once
it leaves the active set.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from .accountant import CdpBudget
from .core import (
    ParameterError,
    RandomSource,
    check_int,
    check_positive,
    check_probability,
    check_real,
    check_threshold,
    normal_upper_quantile,
    sample_gaussian,
    standard_normal_quantile,
    validate_label,
)

__all__ = [
    "StreamEvent",
    "CounterConfig",
    "Counter",
    "active_node_count",
    "dyadic_nodes",
]

MECHANISM_TAG = "continual-counter"


def active_node_count(round: int) -> int:
    """How many partial sums make up the round's prefix count: popcount(round)."""
    return check_int("round", round).bit_count()


def dyadic_nodes(round: int) -> tuple[tuple[int, int], ...]:
    """The (level, index) interval nodes tiling rounds 1..round, leftmost first.

    Node (b, m) covers rounds m*2^b + 1 through (m+1)*2^b.
    """
    check_int("round", round)
    nodes = []
    start = 0
    for level in reversed(range(round.bit_length())):
        if round >> level & 1:
            nodes.append((level, start >> level))
            start += 1 << level
    return tuple(nodes)


@dataclass(frozen=True)
class StreamEvent:
    """One round's arrivals: a set of labels, at most l0 of them per the config."""

    round: int
    items: frozenset[str]

    def __init__(self, round: int, items: Iterable[str]):
        object.__setattr__(self, "round", check_int("round", round))
        object.__setattr__(self, "items", frozenset(validate_label(label) for label in items))


@dataclass(frozen=True)
class CounterConfig:
    """Horizon, sensitivity, noise scale, threshold, seed, and lifetime budget.

    ``from_privacy`` derives sigma = 1/epsilon and
    T = 1 + sigma * sqrt(depth + 1) * PhiInv(1 - delta/(l0*L)) where
    depth = ceil(log2(L+1)); direct construction is open for test hooks
    (e.g. sigma = 0 or a sunken threshold).
    """

    horizon: int
    l0: int
    sigma: float
    threshold: float
    seed: int
    budget: CdpBudget

    def __post_init__(self) -> None:
        check_int("horizon", self.horizon)
        check_int("l0", self.l0)
        check_real("sigma", self.sigma)
        if not isinstance(self.budget, CdpBudget):
            raise ParameterError(f"budget must be a CdpBudget, got {self.budget!r}")

    @property
    def depth(self) -> int:
        """ceil(log2(horizon + 1)): the most partial sums any round can touch."""
        return self.horizon.bit_length()

    @classmethod
    def from_privacy(
        cls, horizon: int, l0: int, epsilon: float, delta: float, seed: int
    ) -> "CounterConfig":
        check_positive("epsilon", epsilon)
        check_probability("delta", delta)
        # Checked here as well as in __post_init__: both are used before it runs.
        check_int("horizon", horizon)
        check_int("l0", l0)
        ratio = delta / (l0 * horizon)
        depth = horizon.bit_length()
        sigma = 1.0 / epsilon
        z = normal_upper_quantile(ratio)
        threshold = check_threshold(1.0 + sigma * math.sqrt(depth + 1.0) * z, epsilon, delta)
        budget = CdpBudget(delta=float(delta), rho=l0 * depth * epsilon * epsilon / 2.0)
        return cls(
            horizon=horizon,
            l0=l0,
            sigma=sigma,
            threshold=threshold,
            seed=seed,
            budget=budget,
        )


class _LabelState(NamedTuple):
    debut: int  # round of the label's first event
    uniform: Callable[[], float]  # the label's child stream
    counts: list[int]  # events in each active node, leftmost first
    sums: list[float]  # sums[0] = 0.0; sums[i + 1] = sums[i] + (counts[i] + noise_i)


def _trailing_zeros(round: int) -> int:
    return (round & -round).bit_length() - 1


class Counter:
    """Single-writer state machine: feed events in round order, read snapshots back.

    A label's node noises come from a child stream keyed by the label, drawn
    when each node first becomes active (leftmost node first), so
    late-arriving labels get fresh noise on every partial sum that predates
    them and reruns with the same seed and events reproduce bit-identical
    snapshots.

    Per label the counter keeps only the active nodes of the current round,
    at most ceil(log2(L+1)) of them, as a stack of node counts and running
    sums; a round pops the tz(r) lowest entries and pushes the node that
    replaces them.  State is O(labels * log L).
    """

    def __init__(self, config: CounterConfig, rng: RandomSource | None = None):
        if not isinstance(config, CounterConfig):
            raise ParameterError(f"expected a CounterConfig, got {config!r}")
        if rng is not None and not isinstance(rng, RandomSource):
            raise ParameterError(f"rng must be a RandomSource, got {rng!r}")
        self.config = config
        self.round = 0
        # rng is a harness hook for derived per-trial substreams; normal use
        # seeds from the config.
        self._master = rng if rng is not None else RandomSource(config.seed)
        self._labels: dict[str, _LabelState] = {}
        self._ordered: list[tuple[str, _LabelState]] = []  # sorted by label

    @property
    def budget(self) -> CdpBudget:
        return self.config.budget

    def labels_seen(self) -> list[str]:
        return [label for label, _ in self._ordered]

    def node_noises(self, label: str) -> dict[tuple[int, int], float]:
        """Test hook: the noise on every node the label has used, in draw order.

        Replayed from the label's child stream: the nodes of its debut round,
        then the newest node of each later round.
        """
        state = self._labels.get(label)
        if state is None:
            return {}
        nodes = list(dyadic_nodes(state.debut))
        for r in range(state.debut + 1, self.round + 1):
            tz = _trailing_zeros(r)
            nodes.append((tz, (r >> tz) - 1))
        sigma = self.config.sigma
        rng = self._master.child(label)
        return {node: sample_gaussian(sigma, rng) if sigma > 0.0 else 0.0 for node in nodes}

    def state_dict(self) -> dict:
        """JSON-able state: round, config, and per label its debut round and
        the event count of each active node.

        This is an operator dump, not a release: the exact counts must be
        handled like the input data.  It exports no noise value and no seed.
        """
        nodes = [f"{b}:{i}" for b, i in dyadic_nodes(self.round)] if self.round else []
        labels = {
            label: {"debut": state.debut, "counts": dict(zip(nodes, state.counts))}
            for label, state in self._ordered
        }
        return {
            "round": self.round,
            "horizon": self.config.horizon,
            "l0": self.config.l0,
            "sigma": self.config.sigma,
            "threshold": self.config.threshold,
            "budget": self.config.budget.to_json_dict(),
            "labels": labels,
        }

    def _add_label(self, label: str, r: int, tz: int) -> None:
        # At most depth uniforms drawn ahead per label keeps state O(log L).
        uniform = self._master.child(label).uniform_iter(self.config.depth).__next__
        sigma = self.config.sigma
        counts: list[int] = []
        sums = [0.0]
        # The nodes of round r left of its newest one predate the label: no
        # events, noise drawn leftmost first.
        for _ in range(r.bit_count() - 1):
            count = 0
            noise = sigma * standard_normal_quantile(uniform()) if sigma > 0.0 else 0.0
            counts.append(count)
            sums.append(sums[-1] + (count + noise))
        # tz empty entries for this round's pop to remove, so that observe
        # pushes the newest node as it does for every other label.
        counts.extend([0] * tz)
        sums.extend([sums[-1]] * tz)
        state = _LabelState(r, uniform, counts, sums)
        self._labels[label] = state
        insort(self._ordered, (label, state))

    def observe(self, event: StreamEvent) -> dict[str, float]:
        """Ingest the next round and return labels whose noisy prefix count exceeds T.

        Rejected events (wrong round, horizon exceeded, too many items) leave
        the counter untouched.
        """
        if not isinstance(event, StreamEvent):
            raise ParameterError(f"expected a StreamEvent, got {event!r}")
        config = self.config
        r = event.round
        if r != self.round + 1:
            raise ParameterError(f"expected round {self.round + 1}, got {r}")
        if r > config.horizon:
            raise ParameterError(f"round {r} exceeds the horizon {config.horizon}")
        if len(event.items) > config.l0:
            raise ParameterError(
                f"event carries {len(event.items)} items, more than l0 = {config.l0}"
            )

        self.round = r
        # The newest node, at level tz, replaces the tz lowest nodes of round
        # r-1 and covers exactly them plus round r.
        tz = _trailing_zeros(r)
        items = event.items
        for label in items:
            if label not in self._labels:
                self._add_label(label, r, tz)

        sigma = config.sigma
        threshold = config.threshold
        released: dict[str, float] = {}
        for label, (_, uniform, counts, sums) in self._ordered:
            if tz:
                count = sum(counts[-tz:])
                del counts[-tz:], sums[-tz:]
            else:
                count = 0
            if label in items:
                count += 1
            noise = sigma * standard_normal_quantile(uniform()) if sigma > 0.0 else 0.0
            total = sums[-1] + (count + noise)
            counts.append(count)
            sums.append(total)
            if total > threshold:
                released[label] = total
        return released

