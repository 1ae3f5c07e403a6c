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
with round r-1's.  Each label therefore keeps its active nodes as a stack of
fixed size: node counts ``counts[0 : depth]`` and running sums
``sums[0 : depth + 1]``, with sums[0] = 0.0 and sums[i + 1] = sums[i] +
(counts[i] + noise_i).  Round r has popcount(r) nodes, so its newest node
sits at index low = popcount(r) - 1: its count is ``counts[low : low + tz]``
summed plus the round's event, its running sum ``sums[low] + (count +
noise)``, stored at ``counts[low]`` and ``sums[low + 1]``.  Entries above
the active height are stale and never read.  That is one Gaussian draw and
one addition per label per round, with the same draws, order and additions
as a from-scratch sum, hence bit-identical snapshots.  A label that arrives
in round r fills ``sums[1 : popcount(r)]``, left to right, from the draws
of the nodes that predate it.

Two implementations share this layout, and both keep labels in order of
arrival, each round's new labels sorted.  ``Counter`` is the scalar,
incremental one: one ``observe`` per event, a Python loop over its labels'
lists.  ``counter_sweep`` and ``counter_batch`` (the delta-event Monte
Carlo's) run one array sweep over the events instead: the lists are the
columns of one int64 [depth, labels] array and one float64 [depth + 1,
labels] array, and a round reads and writes whole rows.  Both return a
round's released labels in that order, so their snapshots are equal dicts
in equal order.  The sweep draws noise per window of rounds, so its state is
O(labels * (window + log L)); ``counter_batch`` adds a leading trials axis
to the sums and the noise.  ``snapshots``, which ``unkhist stream`` runs,
picks Counter or the sweep for a stream as it reads it (SWEEP_MIN_LABELS).

``counter_sweep`` runs the exact transform only on noise that can show.
Most labels never come near the threshold, so each window's draws go
through ``core.screen``, whose screened values lie within
``core.SCREEN_ERROR * (sigma + |screen|)`` of the exact ones.  A label whose
screened total exceeds ``core.screen_cut`` (the threshold less a margin that
bounds how far a screened total of at most depth draws and horizon counts
can stray from the exact one; its derivation is in ``screen_cut``) is
promoted: its stack is rebuilt bit for bit from the uniforms of its active
nodes, which the sweep keeps beside their counts, and its noise is exact
from then on.  No total reaches a snapshot before its label is exact, and
below the cut no exact total can clear the threshold, so the snapshots stay
Counter's bit for bit.  ``Counter`` transforms every draw exactly.
``counter_batch`` screens by row instead: a Monte-Carlo row whose screened
totals all stay below the cut releases nothing, and the other rows are
swept again with their exact noise.
The sweep's run time now depends on how many labels come near the
threshold: like the input size, that is operator information, and it never
goes into a report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .accountant import CdpBudget, epsilon_squared_rho
from .core import (
    IngestionError,
    ParameterError,
    RandomSource,
    _shown,
    check_int,
    check_l0,
    check_finite,
    check_noise,
    check_positive,
    check_probability,
    check_real,
    check_seed,
    flagged_rows,
    gaussian_quantile,
    gaussian_quantiles,
    gaussian_threshold,
    sample_gaussian,
    screen,
    screen_cut,
    screened_draws,
    standard_normal_quantile,
    validate_label,
)

__all__ = [
    "StreamEvent",
    "CounterConfig",
    "Counter",
    "active_node_count",
    "check_event",
    "counter_batch",
    "counter_sweep",
    "dyadic_nodes",
    "snapshots",
]

MECHANISM_TAG = "continual-counter"


def active_node_count(round: int) -> int:
    """How many partial sums make up the round's prefix count: popcount(round)."""
    return check_int("round", round).bit_count()


def dyadic_nodes(round: int) -> tuple[tuple[int, int], ...]:
    """The (level, index) interval nodes tiling rounds 1..round, leftmost first.

    Node (b, m) covers rounds m*2^b + 1 through (m+1)*2^b.
    """
    levels = reversed(range(check_int("round", round).bit_length()))
    return tuple((level, (round >> level) - 1) for level in levels if round >> level & 1)


@dataclass(frozen=True)
class StreamEvent:
    """One round's arrivals: a set of labels, at most l0 of them per the config."""

    round: int
    items: frozenset[str]

    def __init__(self, round: int, items: Iterable[str]):
        object.__setattr__(self, "round", check_int("round", round))
        if isinstance(items, str):  # one label, not a set of one-character labels
            raise ParameterError(f"items must be a collection of labels, not the str {items!r}")
        labels = frozenset(validate_label(label) for label in items)
        try:  # a label's noise stream is keyed by its UTF-8 bytes
            "".join(labels).encode("utf-8")
        except UnicodeEncodeError as exc:
            char = exc.object[exc.start]
            raise IngestionError(f"labels must not hold a lone surrogate, got {char!r}") from None
        object.__setattr__(self, "items", labels)


@dataclass(frozen=True)
class CounterConfig:
    """Horizon, sensitivity, noise scale, threshold, seed, and lifetime budget.

    ``from_privacy`` derives sigma = 1/epsilon and
    T = 1 + sigma * sqrt(depth + 1) * PhiInv(1 - delta/(l0*L)) where
    depth = ceil(log2(L+1)); direct construction is open for test hooks
    (e.g. sigma = 0 or a sunken threshold).  A sigma at which a total of
    depth draws could leave the float range is refused (``core.check_noise``).
    """

    horizon: int
    l0: int
    sigma: float
    threshold: float
    seed: int
    budget: CdpBudget

    def __post_init__(self) -> None:
        check_int("horizon", self.horizon)
        check_l0("l0", self.l0)
        check_real("sigma", self.sigma)
        check_seed(self.seed)
        if not isinstance(self.budget, CdpBudget):
            raise ParameterError(f"budget must be a CdpBudget, got {self.budget!r}")
        check_noise(self.sigma, self.depth, sigma=self.sigma)  # a total sums depth draws

    @property
    def depth(self) -> int:
        """ceil(log2(horizon + 1)): the most partial sums any round can touch."""
        return self.horizon.bit_length()

    @classmethod
    def from_privacy(
        cls, horizon: int, l0: int, epsilon: float, delta: float, seed: int
    ) -> "CounterConfig":
        eps = check_positive("epsilon", epsilon)
        check_probability("delta", delta)
        # Checked here as well as in __post_init__: both are used before it runs.
        check_int("horizon", horizon)
        check_l0("l0", l0)
        # l0 * depth, in the budget, is at most this product.
        ratio = delta / check_l0("l0 * horizon", l0 * horizon)
        depth = horizon.bit_length()
        sigma = 1.0 / epsilon
        threshold = gaussian_threshold(1.0, sigma, ratio, math.sqrt(depth + 1.0),
                                       epsilon=epsilon, delta=delta)
        rho = check_finite("rho", epsilon_squared_rho(l0 * depth, eps, 2), l0=l0, horizon=horizon,
                           epsilon=epsilon)
        check_noise(sigma, depth, epsilon=epsilon)
        budget = CdpBudget(delta=float(delta), rho=rho)
        return cls(
            horizon=horizon,
            l0=l0,
            sigma=sigma,
            threshold=threshold,
            seed=seed,
            budget=budget,
        )


class _LabelState(NamedTuple):
    """One label's stack in the module docstring's layout: its column of the
    sweep's arrays, as lists."""

    label: str  # its key in Counter._labels: observe loops over the values
    noise: Callable[[], float]  # the label's next node noise
    counts: list[int]  # [depth] node counts; the first popcount(round) are active
    sums: list[float]  # [depth + 1]; sums[i + 1] = sums[i] + (counts[i] + noise_i)


def check_event(config: CounterConfig, expected: int, event: object) -> StreamEvent:
    """The event, if it may come next: a StreamEvent of the expected round,
    within the horizon, with at most l0 items."""
    if not isinstance(event, StreamEvent):
        raise ParameterError(f"expected a StreamEvent, got {event!r}")
    r = event.round
    if r != expected:
        raise ParameterError(f"expected round {expected}, got {r}")
    if r > config.horizon:
        raise ParameterError(f"round {r} exceeds the horizon {config.horizon}")
    if len(event.items) > config.l0:
        raise ParameterError(f"event carries {len(event.items)} items, more than l0 = {config.l0}")
    return event


def _child_noise(master: RandomSource, config: CounterConfig, label: str) -> Callable[[], float]:
    """The label's node noises, drawn from its child stream of master."""
    sigma = config.sigma
    if not sigma > 0.0:
        return repeat(0.0).__next__
    source = master.child(label)

    def noises() -> Iterator[float]:
        while True:
            # Blocks of depth uniforms: at most depth drawn ahead per label
            # keeps state O(log L).
            for u in source.uniforms(config.depth).tolist():
                yield sigma * standard_normal_quantile(u)

    return noises().__next__


class Counter:
    """Single-writer state machine: feed events in round order, read snapshots back.

    A label's node noises come from a child stream keyed by the label, drawn
    when each node first becomes active (leftmost node first), so
    late-arriving labels get fresh noise on every partial sum that predates
    them and reruns with the same seed and events reproduce bit-identical
    snapshots.

    Per label the counter keeps the stack of the module docstring, its
    column of the sweep's arrays, as two lists: ``depth`` node counts and
    ``depth + 1`` running sums, written in place at the round's stack index.
    Labels are kept in the sweep's column order, which is order of arrival
    with each round's new labels sorted.  State is O(labels * log L).
    """

    def __init__(self, config: CounterConfig, rng: RandomSource | None = None, *,
                 noise: Callable[[str], Callable[[], float]] | None = None):
        if not isinstance(config, CounterConfig):
            raise ParameterError(f"expected a CounterConfig, got {config!r}")
        if rng is not None and not isinstance(rng, RandomSource):
            raise ParameterError(f"rng must be a RandomSource, got {_shown(rng)}")
        self.config = config
        self.round = 0
        # Test hooks, passed by nothing in the package: rng for a master stream
        # other than RandomSource(seed), noise(label) for a callable giving the
        # label's node noises in draw order (the reference tests feed it
        # counter_batch's noise columns, or log its draws).  Normal use seeds
        # from config.
        master = rng if rng is not None else RandomSource(config.seed)
        self._noise = noise if noise is not None else partial(_child_noise, master, config)
        self._labels: dict[str, _LabelState] = {}

    @property
    def budget(self) -> CdpBudget:
        return self.config.budget

    def observe(self, event: StreamEvent) -> dict[str, float]:
        """Ingest the next round and return labels whose noisy prefix count
        exceeds T, in order of arrival.

        Rejected events (wrong round, horizon exceeded, too many items) leave
        the counter untouched.
        """
        config = self.config
        r = self.round + 1
        if not (isinstance(event, StreamEvent) and event.round == r <= config.horizon
                and len(event.items) <= config.l0):
            check_event(config, r, event)  # raises, naming the check that fails
        self.round = r
        # The newest node, at level tz (r's trailing zero bits) and stack index
        # low, replaces the tz lowest nodes of round r-1 and covers exactly
        # them plus round r.
        tz = (r & -r).bit_length() - 1
        low = r.bit_count() - 1
        items = event.items
        labels = self._labels
        for label in items:
            if label not in labels:  # the round's new labels join in sorted order
                for new in sorted(items.difference(labels)):
                    noise = self._noise(new)
                    sums = [0.0] * (config.depth + 1)
                    # The nodes of round r left of its newest one predate the
                    # label: no events, noise drawn leftmost first.
                    for i in range(low):
                        sums[i + 1] = sums[i] + noise()
                    labels[new] = _LabelState(new, noise, [0] * config.depth, sums)
                break

        threshold = config.threshold
        released: dict[str, float] = {}
        for label, noise, counts, sums in labels.values():
            count = sum(counts[low : low + tz]) if tz else 0
            if label in items:
                count += 1
            total = sums[low] + (count + noise())
            counts[low] = count
            sums[low + 1] = total
            if total > threshold:
                released[label] = total
        return released


#: Rounds whose noise ``counter_sweep`` draws at once: one ``uniforms`` call
#: per label per window.  State is O(labels * (window + depth)).  Longer
#: windows make fewer calls but larger arrays: at 64 rounds the stream-zipf
#: benchmark's peak RSS rose 0.3 MiB above the per-label Counter's.
SWEEP_WINDOW = 32

#: Labels a stream must hold for ``snapshots`` to run the sweep rather than
#: Counter.observe; both give the same values.  The sweep costs some ten
#: numpy calls per round whatever the label count, Counter about a
#: microsecond per label per round: on 4096-round CLI streams of 0-3 items a
#: round the sweep took 1.7x Counter's time with one label, 1.1x with ten,
#: the same with twelve and 0.95x with sixteen (x86-64, numpy 2.4).
SWEEP_MIN_LABELS = 16

#: draws(new, order, sizes): the next sizes[i] node noises of label order[i]
#: (its index in order of arrival), or, to be screened, their uniforms, each
#: label's in its draw order, concatenated label after label; ``new`` are the
#: labels that arrived in this window, the last len(new) of them.
Draws = Callable[[list[str], list[int], list[int]], np.ndarray]


def _sweep(config: CounterConfig, events: Iterable[StreamEvent], window: int, draws: Draws,
           cut: float | None, lead: tuple[int, ...] = ()
           ) -> Iterator[tuple[list[str], np.ndarray]]:
    """Counter.observe for every label at once: after each event, the labels
    in order of arrival and their [*lead, labels] running totals.

    The stacks of the module docstring are the columns of one int64 [depth,
    labels] array of node counts and one float64 [*lead, depth + 1, labels]
    array of running sums.  Each event is checked as it is taken, before any
    later one is.  Noise is drawn once per window of events, [*lead, width,
    labels], and each sum takes the float64 additions the scalar stack takes.

    The caller gives the noise (``counter_sweep`` Counter's, from
    ``_child_draws``).  Given a cut, the draws are uniforms, and a label runs
    on screened noise until its total exceeds the cut.  The sweep keeps the
    uniforms a promotion needs: the window's, [width, labels] as its noise,
    while one of its labels may yet be promoted, and those of the active
    nodes, [depth, labels] as their counts.  ``_promote`` makes a label's sums
    and its noise for the window's later rounds exact from them; in later
    windows its draws go to the exact transform, the others' to the screen.
    Below the cut no exact total clears the threshold.
    """
    depth = config.depth
    sigma = config.sigma
    labels: list[str] = []
    index: dict[str, int] = {}
    counts = np.zeros((depth, 0), dtype=np.int64)
    sums = np.zeros((*lead, depth + 1, 0))
    cuts = np.zeros(0)  # given a cut: each label's, +inf once it is promoted
    nodes = np.zeros((depth, 0))  # given a cut: the active nodes' uniforms, as counts
    events = iter(events)
    taken = 0
    while True:
        batch = []
        for event in islice(events, window):
            taken += 1
            batch.append(check_event(config, taken, event))
        if not batch:
            return
        first, last = batch[0].round, batch[-1].round
        width = len(batch)
        old = len(labels)
        sizes = []  # each new label's draws: its older nodes, then one a round
        before = []  # and how many of them predate it
        active = []  # labels seen through each event
        for event in batch:
            for label in sorted(event.items.difference(index)):
                index[label] = len(labels)
                labels.append(label)
                before.append(event.round.bit_count() - 1)
                sizes.append(before[-1] + 1 + last - event.round)
            active.append(len(labels))
        new = len(labels) - old
        if new:
            counts = np.concatenate((counts, np.zeros((depth, new), dtype=np.int64)), axis=1)
            sums = np.concatenate((sums, np.zeros((*lead, depth + 1, new))), axis=-1)
            cuts = np.concatenate((cuts, np.full(new, math.inf if cut is None else cut)))
            nodes = np.concatenate((nodes, np.empty((depth, new))), axis=1)
        # The new labels' draws come first: each one's older nodes, left of its
        # debut round's newest one, then one a round, which end its noise column.
        size, before = np.array(sizes, dtype=np.int64), np.array(before, dtype=np.int64)
        start = np.cumsum(size) - size
        rounds = size - before
        column = np.repeat(np.arange(old, len(labels)), rounds)
        step = np.arange(column.size) - np.repeat(np.cumsum(rounds) - rounds, rounds)
        row = np.repeat(width - rounds, rounds) + step
        source = np.repeat(start + before, rounds) + step
        # Then come the old labels', width each: those still screened, then
        # the promoted ones, whose draws alone go to the exact transform.
        head = sum(sizes)
        promoted = cuts[:old] == math.inf
        olds = np.argsort(promoted, kind="stable")
        u = draws(labels[old:], [*range(old, len(labels)), *olds.tolist()], sizes + [width] * old)
        drawn, uniforms = u, None  # the window's noise; its uniforms while a label may rise
        if cut is not None:
            screened = len(u) - width * np.count_nonzero(promoted)
            drawn = np.empty(len(u))
            gaussian_quantiles(u[screened:], sigma, out=drawn[screened:])
            if screened:
                drawn[:screened] = screen("gaussian", sigma, u[:screened], sample_gaussian)[0]
                uniforms = np.empty((width, len(labels)))
                uniforms[:, olds] = u[head:].reshape(old, width).T
                uniforms[row, column] = u[source]
        noise = np.empty((*lead, width, len(labels)))  # [..., round - first, label]
        noise[..., olds] = drawn[..., head:].reshape(*lead, old, width).swapaxes(-1, -2)
        noise[..., row, column] = drawn[..., source]
        for i in range(before.max(initial=0)):  # the debut round's older nodes, left to right
            has = np.flatnonzero(before > i)
            sums[..., i + 1, old + has] = sums[..., i, old + has] + drawn[..., start[has] + i]
            if cut is not None:
                nodes[i, old + has] = u[start[has] + i]
        del u, drawn  # so that the rounds, and the next window's draws, do not keep them
        for event, n in zip(batch, active):
            r = event.round
            tz = (r & -r).bit_length() - 1  # the newest node's level
            low = r.bit_count() - 1  # and its stack index
            count = counts[low : low + tz, :n].sum(0)
            count[[index[label] for label in event.items]] += 1
            total = sums[..., low, :n] + (count + noise[..., r - first, :n])
            counts[low, :n] = count
            sums[..., low + 1, :n] = total
            if uniforms is not None:
                nodes[low, :n] = uniforms[r - first, :n]
                rising = (total > cuts[:n]).nonzero()[0]
                if rising.size:
                    cuts[rising] = math.inf
                    later = slice(r + 1 - first, None)
                    _promote(rising, low, sigma, counts, sums, nodes, uniforms[later], noise[later])
                    total[rising] = sums[low + 1, rising]
            yield labels, total
        del noise, uniforms  # so that the next window's draws do not meet them


def _promote(rows: np.ndarray, low: int, sigma: float, counts: np.ndarray, sums: np.ndarray,
             nodes: np.ndarray, uniforms: np.ndarray, later: np.ndarray) -> None:
    """Make the labels at rows exact at a round whose newest node sits at
    stack index low: their sums through that node, from the uniforms of
    their active nodes, and ``later``, their noise for the window's later
    rounds, from ``uniforms``.  A promotion transforms at most depth + window
    draws, so they go through the scalar ``gaussian_quantile`` (under a
    microsecond a draw) rather than a block call (some 60 microseconds
    whatever its size)."""
    u = np.concatenate((nodes[: low + 1, rows], uniforms[:, rows]))  # [draw, label]
    z = np.array([gaussian_quantile(p, sigma) for p in u.ravel().tolist()]).reshape(u.shape)
    sums[1 : low + 2, rows] = np.cumsum(counts[: low + 1, rows] + z[: low + 1], axis=0)
    later[:, rows] = z[low + 1 :]


def _child_draws(config: CounterConfig) -> tuple[Draws, float | None]:
    """Each label's node draws from its child stream of RandomSource(seed),
    as Counter draws them, one block per window filled label by label in
    place, and the cut ``_sweep`` screens them under.

    At a positive sigma the draws are the uniforms themselves, for ``_sweep``
    to screen.  A total sums at most depth node noises, and its counts total
    at most the horizon; ``core.screen_cut`` turns that into the cut.  At
    sigma 0 the draws are zeros and there is no cut.
    """
    if not config.sigma > 0.0:
        return (lambda new, order, sizes: np.zeros(sum(sizes))), None
    master = RandomSource(config.seed)
    sources: list[RandomSource] = []

    def draws(new: list[str], order: list[int], sizes: list[int]) -> np.ndarray:
        sources.extend(master.children(new))
        return RandomSource.fill([sources[i] for i in order], sizes, np.empty(sum(sizes)))

    return draws, screen_cut(config.threshold, config.sigma, config.depth, float(config.horizon))


def counter_sweep(config: CounterConfig,
                  events: Iterable[StreamEvent]) -> Iterator[tuple[int, dict[str, float]]]:
    """Each event's round and what ``Counter(config).observe`` returns for it,
    bit for bit, from one array sweep over all labels.

    Events are checked in order as observe checks them, each before any later
    event is taken; a refused event raises observe's ParameterError.  At a
    finite sigma, most noise is screened rather than transformed exactly
    (see ``_sweep``).
    """
    threshold = config.threshold
    sweep = _sweep(config, events, SWEEP_WINDOW, *_child_draws(config))
    for r, (labels, totals) in enumerate(sweep, start=1):
        hits = (totals > threshold).nonzero()[0]
        yield r, dict(zip(map(labels.__getitem__, hits.tolist()), totals[hits].tolist()))


def snapshots(config: CounterConfig,
              events: Iterable[StreamEvent]) -> Iterator[tuple[int, dict[str, float]]]:
    """What ``counter_sweep`` yields: from the sweep once SWEEP_MIN_LABELS
    labels have arrived, which then takes the events held so far and the
    rest, and from ``Counter.observe`` if the stream ends first.  Each event
    is checked as it is taken, before any later one is."""
    events = iter(events)
    held: list[StreamEvent] = []
    labels: set[str] = set()
    for event in events:
        held.append(check_event(config, len(held) + 1, event))
        labels.update(event.items)
        if len(labels) >= SWEEP_MIN_LABELS:
            yield from counter_sweep(config, chain(held, events))
            return
    # observe refuses every round but the next, so snapshot k is round k.
    yield from enumerate(map(Counter(config).observe, held), start=1)


def counter_batch(config: CounterConfig, events: Sequence[StreamEvent], rng: RandomSource,
                  trials: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    """``trials`` Counter runs over the events: the labels in order of arrival,
    their [trials, labels] totals after the last event, and which exceed the
    threshold.

    All runs keep the same node counts; only the noise differs.  One [trials,
    draws] block holds it, in the order the sweep asks for it: label by label
    in order of arrival, each label's in draw order.  One sweep with a trials
    axis adds the columns as a single run adds its draws.  Row i is the i-th
    of ``trials`` consecutive single runs on rng.  Every event is checked
    before any noise is drawn.

    From SCREEN_FLOOR draws on, the block is screened (``core.screened_draws``)
    and the rows with a total above ``core.screen_cut`` are swept again with
    their exact noise.  The mask and the released totals are those of exact
    draws, bit for bit; the other rows' totals are screened values.
    """
    check_int("trials", trials)
    sigma = config.sigma
    exact = None

    def draws(labels: list[str], order: list[int], sizes: list[int]) -> np.ndarray:
        nonlocal exact
        shape = (trials, sum(sizes))  # one window, so every label is new, in order
        noise, exact = screened_draws("gaussian", sigma, rng, shape, sample_gaussian)
        return noise

    labels, totals = _last_totals(config, events, draws, trials)
    if exact is not None:
        cut = screen_cut(config.threshold, sigma, config.depth, float(config.horizon))
        rows = np.unique(flagged_rows(totals > cut))
        noise = exact(rows)
        totals[rows] = _last_totals(config, events, lambda *_: noise, rows.size)[1]
    return labels, totals, totals > config.threshold


def _last_totals(config: CounterConfig, events: Sequence[StreamEvent], draws: Draws,
                 trials: int) -> tuple[list[str], np.ndarray]:
    """The labels and their [trials, labels] totals after the last event, from
    one sweep over the events in one window."""
    labels, totals = [], np.zeros((trials, 0))
    for labels, totals in _sweep(config, events, max(len(events), 1), draws, None, (trials,)):
        pass
    return labels, totals
