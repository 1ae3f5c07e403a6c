"""What a Counter drew and counted, read by tests through its noise= hook
and its per-label stacks: the library exports neither."""

from collections import defaultdict
from functools import partial
from itertools import groupby

from unkhist.core import RandomSource
from unkhist.stream import Counter, _child_noise, dyadic_nodes


def logged_counter(config, rng=None):
    """A Counter that draws its usual noise, and the log of its draws: per
    label, (round, noise) pairs in draw order."""
    draw = partial(_child_noise, rng if rng is not None else RandomSource(config.seed), config)
    log = defaultdict(list)

    def noise(label):
        draws, next_noise = log[label], draw(label)

        def logged():
            value = next_noise()
            draws.append((counter.round, value))
            return value

        return logged

    counter = Counter(config, noise=noise)
    return counter, log


def node_noises(draws):
    """The noise on every node a label has used, in draw order, from its
    logged draws: its debut round draws that round's nodes leftmost first,
    and each later round draws its newest node."""
    nodes = {}
    for r, group in groupby(draws, key=lambda draw: draw[0]):
        values = [value for _, value in group]
        nodes.update(zip(dyadic_nodes(r)[-len(values):], values))
    return nodes


def node_counts(counter, label):
    """The event count of each of the label's active nodes at the counter's round."""
    return dict(zip(dyadic_nodes(counter.round), counter._labels[label].counts))
