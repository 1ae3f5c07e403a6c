"""Single-run histogram mechanisms against the per-draw loops they replaced.

The reference functions are the earlier bodies of ``release``,
``release_topk`` and ``release_gumbel_topk``: one ``sample_*`` call per draw
in a Python loop.  Each mechanism must equal its loop exactly; the Gumbel
mechanism must also equal its selection kernel applied to the noise row the
loop drew.  Run as a batch, row i of ``*_batch`` must be the i-th of
consecutive single runs on one source; consecutive ``release`` runs must
be the rows of one exact noise block, counts + sample_<noise>(scale, rng,
(trials, n)).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unkhist.core import (
    BOTTOM,
    Histogram,
    RandomSource,
    SensitivityBound,
    is_reserved_label,
    sample_gaussian,
    sample_gumbel,
    sample_laplace,
)
from unkhist import gumbel
from unkhist.gumbel import gumbel_threshold, release_gumbel_topk, release_gumbel_topk_batch
from unkhist.release import release
from unkhist.topk import release_topk, release_topk_batch, truncate_topk

SAMPLERS = {"laplace": sample_laplace, "gaussian": sample_gaussian}


def release_noise_row(h, sampler, scale, rng):
    return [sampler(scale, rng) if scale > 0.0 else 0.0 for _ in h.items()]


def reference_release(h, noise_row, threshold):
    released = {}
    for (label, count), z in zip(h.items(), noise_row):
        noisy = count + z
        if noisy > threshold:
            released[label] = noisy
    return released


def topk_noise_row(trunc, sigma, rng):
    return [sample_gaussian(sigma, rng) if sigma > 0.0 else 0.0 for _ in range(len(trunc.top) + 1)]


def reference_topk(trunc, noise_row, threshold, threshold_override):
    noisy_threshold = threshold + trunc.next_count + noise_row[0]
    if threshold_override is not None:
        noisy_threshold = float(threshold_override)
    released = {}
    for (label, count), z in zip(trunc.top, noise_row[1:]):
        noisy = count + z
        if noisy > noisy_threshold and not is_reserved_label(label):
            released[label] = noisy
    return released


def gumbel_candidates(trunc):
    return [(label, count) for label, count in trunc.top if count > 0]


def gumbel_noise_row(trunc, beta, rng):
    return [sample_gumbel(beta, rng) for _ in range(len(gumbel_candidates(trunc)) + 1)]


def reference_gumbel(trunc, noise_row, threshold, k, threshold_override):
    noisy_threshold = threshold + trunc.next_count + noise_row[0]
    if threshold_override is not None:
        noisy_threshold = float(threshold_override)
    survivors = []
    for (label, count), z in zip(gumbel_candidates(trunc), noise_row[1:]):
        noisy = count + z
        if noisy > noisy_threshold:
            survivors.append((noisy, label))
    survivors.sort(key=lambda pair: (-pair[0], pair[1]))
    items = [label for _, label in survivors[:k]]
    if len(items) < k:
        items.append(BOTTOM)
    return tuple(items)


labels = st.text(alphabet="abcdxyz", min_size=1, max_size=3)
histograms = st.dictionaries(labels, st.integers(0, 40), max_size=12)
seeds = st.integers(0, 2**32)
epsilons = st.floats(0.2, 4.0)
deltas = st.floats(1e-6, 0.5)
# Small scales and integer thresholds make ties and boundary cases likely.
overrides = st.none() | st.just(0.0) | st.floats(0.01, 3.0)
thresholds = st.none() | st.integers(-2, 40).map(float) | st.just(-math.inf)
BATCH = 3


@settings(max_examples=150, deadline=None)
@given(
    counts=histograms,
    noise=st.sampled_from(["laplace", "gaussian"]),
    l0=st.integers(1, 3),
    linf=st.integers(1, 3),
    epsilon=epsilons,
    delta=deltas,
    seed=seeds,
    scale_override=overrides,
    threshold_override=thresholds,
)
def test_release_is_its_per_draw_loop(
    counts, noise, l0, linf, epsilon, delta, seed, scale_override, threshold_override
):
    h = Histogram({label: count + 1 for label, count in counts.items()})
    sens = SensitivityBound(l0, linf)
    hooks = {"scale_override": scale_override, "threshold_override": threshold_override}
    report = release(h, sens, noise, epsilon, delta, RandomSource(seed), **hooks)
    scale = linf / epsilon if scale_override is None else scale_override
    row = release_noise_row(h, SAMPLERS[noise], scale, RandomSource(seed))

    assert report.released == reference_release(h, row, report.threshold)

    rng = RandomSource(seed)
    runs = [release(h, sens, noise, epsilon, delta, rng, **hooks).released for _ in range(BATCH)]
    shape = (BATCH, len(h))
    noisy = h.counts + (SAMPLERS[noise](scale, RandomSource(seed), shape) if scale > 0.0 else np.zeros(shape))
    assert runs == [
        {label: v for label, v in zip(h.labels(), row) if v > report.threshold} for row in noisy.tolist()
    ]


@pytest.mark.parametrize("noise", ["laplace", "gaussian"])
def test_large_release_matches_its_per_draw_loop(noise):
    # Thousands of released draws: a block transform that differs from the
    # scalar one in the last bit of even one draw in a thousand shows here.
    # The scale dwarfs the counts so that count + z keeps z's last bits.
    h = Histogram({f"x{i:05d}": 1 + i % 50 for i in range(5000)})
    report = release(
        h, SensitivityBound(1, 1), noise, 1.0, 1e-6, RandomSource(11),
        scale_override=1e4, threshold_override=-math.inf,
    )  # fmt: skip
    row = release_noise_row(h, SAMPLERS[noise], 1e4, RandomSource(11))
    assert len(report.released) == len(h)
    assert report.released == reference_release(h, row, -math.inf)


@settings(max_examples=150, deadline=None)
@given(
    counts=histograms,
    kbar=st.integers(1, 8),
    l0=st.integers(1, 3),
    epsilon=epsilons,
    delta=deltas,
    seed=seeds,
    sigma_override=overrides,
    threshold_override=thresholds,
)
def test_topk_is_its_per_draw_loop(
    counts, kbar, l0, epsilon, delta, seed, sigma_override, threshold_override
):
    h = Histogram(counts)
    sens = SensitivityBound(l0, 1)
    hooks = {"sigma_override": sigma_override, "threshold_override": threshold_override}
    report = release_topk(h, kbar, sens, epsilon, delta, RandomSource(seed), **hooks)
    trunc = truncate_topk(h, kbar)
    sigma = 1.0 / epsilon if sigma_override is None else sigma_override
    row = topk_noise_row(trunc, sigma, RandomSource(seed))

    assert report.released == reference_topk(trunc, row, report.threshold, threshold_override)

    rng = RandomSource(seed)
    runs = [
        release_topk(h, kbar, sens, epsilon, delta, rng, **hooks).released for _ in range(BATCH)
    ]
    trunc, noisy, kept, _ = release_topk_batch(
        h, kbar, sens, epsilon, delta, RandomSource(seed), BATCH, **hooks
    )
    assert runs == [
        {trunc.top[j][0]: noisy[i, j] for j in np.flatnonzero(kept[i])} for i in range(BATCH)
    ]


@settings(max_examples=150, deadline=None)
@given(
    counts=histograms,
    kbar=st.integers(1, 8),
    k=st.integers(1, 8),
    l0=st.integers(1, 3),
    epsilon=epsilons,
    delta=deltas,
    seed=seeds,
    threshold_override=thresholds,
)
def test_gumbel_is_its_kernel_on_its_noise_row(
    counts, kbar, k, l0, epsilon, delta, seed, threshold_override
):
    k = min(k, kbar)
    h = Histogram(counts)
    args = (k, kbar, l0, epsilon, delta)
    ranked, _ = release_gumbel_topk(
        h, *args, RandomSource(seed), threshold_override=threshold_override
    )
    trunc = truncate_topk(h, kbar)
    threshold = gumbel_threshold(l0, epsilon, delta)
    row = gumbel_noise_row(trunc, 1.0 / epsilon, RandomSource(seed))

    assert ranked.items == reference_gumbel(trunc, row, threshold, k, threshold_override)
    names, positions, kernel_counts, _ = gumbel.gumbel_candidates(h, k, kbar)
    assert names == [label for label, _ in gumbel_candidates(trunc)]
    _, _, surviving, _, order = gumbel._ranked(
        kernel_counts, positions, np.array([row]), threshold + trunc.next_count, k, threshold_override
    )
    kernel_items = [names[j] for j in order[0, : min(int(surviving.sum()), k)]]
    if len(kernel_items) < k:
        kernel_items.append(BOTTOM)
    assert ranked.items == tuple(kernel_items)

    rng = RandomSource(seed)
    runs = [
        release_gumbel_topk(h, *args, rng, threshold_override=threshold_override)[0].labels
        for _ in range(BATCH)
    ]
    names, order, taken = release_gumbel_topk_batch(
        h, *args, RandomSource(seed), BATCH, threshold_override=threshold_override
    )
    assert runs == [tuple(names[j] for j in order[i, : taken[i]]) for i in range(BATCH)]


def test_gumbel_ties_in_noisy_count_break_by_label():
    # Counts this large absorb the noise: both noisy counts round to 2**60.
    # Truncation puts "b", the larger count, first; the ranking must still
    # break the tie by label, as the per-draw loop did.
    h = Histogram({"a": 2**60, "b": 2**60 + 1})
    for seed in range(5):
        ranked, _ = release_gumbel_topk(
            h, 2, 2, 1, 1.0, 0.05, RandomSource(seed), threshold_override=-math.inf
        )
        assert ranked.items == ("a", "b")
