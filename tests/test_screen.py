"""The screens against the exact transforms, and the mechanisms that use them.

``release_batch`` (and so ``release``, its row 0) and ``counter_sweep`` run
the exact, bit-for-bit transform only on the draws that can show: a cheap
screen (``core.gaussian_screen``, ``core.laplace_screen``) decides which,
and a draw whose screened value comes within ``core.screen_cut``'s margin
of the threshold is made exact.  The screens must stay far inside their
stated bound, and the mechanisms must release exactly what the fully exact
paths release, also when the threshold sits on an exact noisy value or one
float either side of it, and consecutive ``release`` calls must be the
rows of one ``release_batch``.
"""

import dataclasses
import importlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_gaussian_block import EDGES

from unkhist import core
from unkhist import stream as stream_module
from unkhist.core import (
    SCREEN_ERROR,
    Histogram,
    IngestionError,
    RandomSource,
    SensitivityBound,
    gaussian_quantiles,
    gaussian_screen,
    laplace_screen,
)
from unkhist.release import release, release_batch
from unkhist.stream import Counter, CounterConfig, StreamEvent, counter_sweep

release_module = importlib.import_module("unkhist.release")  # the package exports the function

LAWS = {
    "gaussian": (gaussian_screen, gaussian_quantiles),
    "laplace": (laplace_screen, core._laplace_quantiles),
}


def assert_within_a_hundredth(p, scale):
    for law, (screen, exact) in LAWS.items():
        screened, exact_values = screen(p, scale), exact(p, scale)
        error = np.abs(screened - exact_values)
        bound = SCREEN_ERROR * (scale + np.abs(screened))
        assert (error <= bound / 100).all(), (law, (error / bound).max())


@pytest.mark.parametrize("scale", [1.0, 0.7, 3.0, 1e-3, 1e3])
def test_screens_on_the_edges(scale):
    assert_within_a_hundredth(np.array(EDGES, dtype=float), scale)


def test_screens_on_a_million_draws():
    u = RandomSource(0).uniforms(10**6)
    for p in (u, u * core._ICDF_P_LOW, 1.0 - u * core._ICDF_P_LOW):
        assert_within_a_hundredth(p, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    p=st.lists(
        st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.floats(0.0, 1e-290, exclude_min=True),
            st.floats(0.02, 0.03),
            st.floats(0.97, 0.98),
            st.floats(0.5 - 1e-12, 0.5 + 1e-12),
            st.sampled_from(EDGES),
        ),
        min_size=1,
        max_size=60,
    ),
    scale=st.floats(1e-3, 1e3),
)
def test_screens_within_a_hundredth_of_their_bound(p, scale):
    assert_within_a_hundredth(np.array(p), scale)


def test_max_draw_bounds_every_uniform():
    # The extreme uniforms a RandomSource can draw: 2^-53 and 1 - 2^-53.
    p = np.array([2.0**-53, 0.5, 1.0 - 2.0**-53])
    for screen, exact in LAWS.values():
        assert np.abs(exact(p, 1.0)).max() < core.MAX_DRAW
        assert np.abs(screen(p, 1.0)).max() < core.MAX_DRAW


def test_cut_at_infinite_thresholds():
    assert core.screen_cut(math.inf, 1.0, 10, 512.0) == np.finfo(float).max
    assert core.screen_cut(-math.inf, 1.0, 10, 512.0) == -math.inf
    cut = core.screen_cut(10.0, 1.0, 10, 512.0)
    assert 10.0 - 1e-2 < cut < 10.0


SENS = SensitivityBound(l0=1, linf=1)


def exact_rows(h, noise, seed, threshold, scale=None, trials=1):
    """What trials consecutive releases give with every draw exact: the
    entries of counts + sample_<noise>(scale, RandomSource(seed), (trials, n))
    above the threshold, one dict per row."""
    sampler = core.sample_laplace if noise == "laplace" else core.sample_gaussian
    scale = SENS.linf / 1.0 if scale is None else scale
    noisy = h.counts + sampler(scale, RandomSource(seed), (trials, len(h)))
    return [dict(zip(np.array(h.labels())[row > threshold].tolist(), row[row > threshold].tolist()))
            for row in noisy]  # fmt: skip


def exact_release(h, noise, seed, threshold, scale=None):
    """What release gives with every draw exact."""
    return exact_rows(h, noise, seed, threshold, scale)[0]


def batch_rows(h, noise, seed, trials, **hooks):
    """release_batch's runs, one dict of released labels and values per row."""
    kept, values, _ = release_batch(h, SENS, noise, 1.0, 1e-6, RandomSource(seed), trials, **hooks)
    rows = np.split(values, np.cumsum(kept.sum(axis=1))[:-1])
    return [dict(zip(h.labels_at(np.flatnonzero(k)), v.tolist())) for k, v in zip(kept, rows)]


def single_runs(h, noise, seed, trials, **hooks):
    """trials consecutive release calls on one source."""
    rng = RandomSource(seed)
    return [release(h, SENS, noise, 1.0, 1e-6, rng, **hooks).released for _ in range(trials)]


@pytest.mark.parametrize("noise", ["laplace", "gaussian"])
@pytest.mark.parametrize("base", [1, 2**53 - 40, 2**60])
def test_release_at_a_threshold_on_an_exact_noisy_count(noise, base):
    # Near 2^53 and 2^60, count + z rounds to a float grid as coarse as the
    # noise, so that many noisy counts tie.
    h = Histogram({f"l{i:02d}": base + i for i in range(60)})
    seed = 5
    every = exact_release(h, noise, seed, -math.inf)
    assert len(every) == len(h)
    values = sorted(every.values())
    for value in values[:: len(values) // 6]:
        for threshold in (np.nextafter(value, -math.inf), value, np.nextafter(value, math.inf)):
            report = release(h, SENS, noise, 1.0, 1e-6, RandomSource(seed),
                             threshold_override=float(threshold))  # fmt: skip
            expected = exact_release(h, noise, seed, float(threshold))
            assert repr(report.released) == repr(expected)
    for threshold in (-math.inf, math.inf):
        report = release(h, SENS, noise, 1.0, 1e-6, RandomSource(seed), threshold_override=threshold)
        assert repr(report.released) == repr(exact_release(h, noise, seed, threshold))


@settings(max_examples=100, deadline=None)
@given(
    counts=st.lists(st.integers(1, 40), min_size=1, max_size=40),
    noise=st.sampled_from(["laplace", "gaussian"]),
    scale=st.sampled_from([None, 0.5, 3.0, 1e4]),
    seed=st.integers(0, 2**32),
    pick=st.integers(0, 10**6),
    side=st.sampled_from([-math.inf, None, math.inf]),
)
def test_release_matches_the_exact_path_at_any_threshold(counts, noise, scale, seed, pick, side):
    h = Histogram({f"x{i:02d}": count for i, count in enumerate(counts)})
    values = list(exact_release(h, noise, seed, -math.inf, scale).values())
    threshold = values[pick % len(values)]
    if side is not None:
        threshold = float(np.nextafter(threshold, side))
    report = release(h, SENS, noise, 1.0, 1e-6, RandomSource(seed),
                     scale_override=scale, threshold_override=threshold)  # fmt: skip
    assert repr(report.released) == repr(exact_release(h, noise, seed, threshold, scale))


@pytest.mark.parametrize("noise", ["laplace", "gaussian"])
def test_release_is_row_i_of_release_batch_near_the_threshold(noise):
    # Thresholds on an exact noisy value of each row, and one float either side.
    h = Histogram({f"n{i:03d}": 1 + i % 7 for i in range(300)})
    trials, seed = 3, 12
    every = exact_rows(h, noise, seed, -math.inf, trials=trials)
    for row in every:
        value = sorted(row.values())[len(row) // 2]
        for threshold in (np.nextafter(value, -math.inf), value, np.nextafter(value, math.inf)):
            hooks = {"threshold_override": float(threshold)}
            rows = batch_rows(h, noise, seed, trials, **hooks)
            assert repr(rows) == repr(single_runs(h, noise, seed, trials, **hooks))
            assert repr(rows) == repr(exact_rows(h, noise, seed, float(threshold), trials=trials))


@pytest.mark.parametrize("noise", ["laplace", "gaussian"])
def test_release_is_row_i_of_release_batch_across_a_step(noise):
    # 4 rows of 5000 draws: the first screening step ends inside row 3.
    h = Histogram({f"t{i:04d}": 1 + (i % 53 == 0) * 40 for i in range(5000)})
    trials, seed = 4, 21
    assert trials * len(h) > release_module._SCREEN_STEP and release_module._SCREEN_STEP % len(h)
    rows = batch_rows(h, noise, seed, trials)
    assert all(rows) and repr(rows) == repr(single_runs(h, noise, seed, trials))
    threshold = release(h, SENS, noise, 1.0, 1e-6, RandomSource(seed)).threshold
    assert repr(rows) == repr(exact_rows(h, noise, seed, threshold, trials=trials))


@pytest.mark.parametrize("noise", ["laplace", "gaussian"])
@pytest.mark.parametrize(
    "hooks",
    [
        {"scale_override": 0.0},
        {"scale_override": 0.0, "threshold_override": 3.0},
        {"threshold_override": -math.inf},
        {"threshold_override": math.inf},
        {"min_count": 5},
    ],
)
def test_release_is_row_i_of_release_batch_at_the_hooks(noise, hooks):
    h = Histogram({f"h{i:02d}": 5 + i % 4 for i in range(40)})
    rows = batch_rows(h, noise, 8, 3, **hooks)
    assert repr(rows) == repr(single_runs(h, noise, 8, 3, **hooks))
    default = release(h, SENS, noise, 1.0, 1e-6, RandomSource(8)).threshold
    threshold = hooks.get("threshold_override", default)
    if "scale_override" in hooks:
        assert rows == [{label: float(count) for label, count in h.items() if count > threshold}] * 3
    else:
        assert repr(rows) == repr(exact_rows(h, noise, 8, threshold, trials=3))
    with pytest.raises(IngestionError, match="below the ingestion floor 6$"):
        batch_rows(h, noise, 8, 3, **{**hooks, "min_count": 6})
    with pytest.raises(IngestionError, match="below the ingestion floor 6$"):
        single_runs(h, noise, 8, 3, **{**hooks, "min_count": 6})


@pytest.mark.parametrize("noise", ["laplace", "gaussian"])
def test_release_transforms_the_draws_that_can_show(noise, monkeypatch):
    sampler_name, screen_name = f"sample_{noise}", f"{noise}_screen"
    sampler, screen = getattr(release_module, sampler_name), getattr(release_module, screen_name)
    exact_seen, screen_seen = [], []

    def counted_sampler(scale, rng, size):
        exact_seen.append(math.prod(size))
        return sampler(scale, rng, size)

    def counted_screen(u, scale):
        screen_seen.append(u.size)
        return screen(u, scale)

    monkeypatch.setattr(release_module, sampler_name, counted_sampler)
    monkeypatch.setattr(release_module, screen_name, counted_screen)
    # A tail: most counts sit far below the threshold, and few survive.
    tail = Histogram({f"t{i:05d}": 1 + (i % 97 == 0) * 40 for i in range(20_000)})
    report = release(tail, SENS, noise, 1.0, 1e-6, RandomSource(3))
    assert 0 < len(report.released) and sum(exact_seen) <= 0.1 * len(tail)
    assert sum(screen_seen) == len(tail)
    # A head: every count clears the threshold whatever its draw, and none is screened.
    exact_seen.clear(), screen_seen.clear()
    head = Histogram({f"h{i:04d}": 1000 + i for i in range(2000)})
    report = release(head, SENS, noise, 1.0, 1e-6, RandomSource(3))
    assert len(report.released) == len(head) == sum(exact_seen)
    assert sum(screen_seen) == 0


def small_stream(horizon, labels, seed):
    """Events over a few labels, some arriving late, some rounds empty."""
    rng = np.random.default_rng(seed)
    events = []
    for r in range(1, horizon + 1):
        k = int(rng.integers(0, 3))
        items = rng.choice(labels[: 2 + r * len(labels) // horizon], size=k, replace=False)
        events.append(StreamEvent(r, items.tolist()))
    return events


@settings(max_examples=60, deadline=None)
@given(
    horizon=st.integers(1, 100),
    seed=st.integers(0, 2**32),
    window=st.integers(1, 9),
    pick=st.integers(0, 10**6),
    side=st.sampled_from([-math.inf, None, math.inf]),
)
def test_sweep_at_a_threshold_on_an_exact_total(horizon, seed, window, pick, side):
    events = small_stream(horizon, ["a", "b", "c", "d", "e", "f"], seed)
    config = CounterConfig.from_privacy(horizon, 2, 1.0, 0.5, seed)
    unmasked = dataclasses.replace(config, threshold=-math.inf)
    counter = Counter(unmasked)
    totals = [total for event in events for total in counter.observe(event).values()]
    if not totals:
        return
    threshold = totals[pick % len(totals)]
    if side is not None:
        threshold = float(np.nextafter(threshold, side))
    config = dataclasses.replace(config, threshold=threshold)
    counter = Counter(config)
    with mock.patch.object(stream_module, "SWEEP_WINDOW", window):
        snapshots = list(counter_sweep(config, events))
    for event, (_, released) in zip(events, snapshots):
        assert repr(dict(sorted(released.items()))) == repr(counter.observe(event))


def test_sweep_transforms_few_draws_exactly(monkeypatch):
    # 600 labels over 512 rounds: each of five comes every fifth round and
    # clears the threshold, the rest come once or twice and stay below it.
    cold = [f"c{i:03d}" for i in range(595)]
    hot = [f"h{i}" for i in range(5)]
    events = [StreamEvent(r, [hot[r % 5], cold[2 * r % 595], cold[(2 * r + 1) % 595]])
              for r in range(1, 513)]  # fmt: skip
    config = CounterConfig.from_privacy(512, 3, 1.0, 0.05, seed=8)
    drawn, exact = [], []
    fill, transform = RandomSource.fill, stream_module.gaussian_quantiles
    scalar = stream_module.gaussian_quantile

    def counted_fill(sources, sizes, out):
        drawn.append(out.size)
        return fill(sources, sizes, out)

    def counted_transform(u, sigma, out=None):
        exact.append(u.size)
        return transform(u, sigma, out)

    def counted_scalar(u, sigma):
        exact.append(1)
        return scalar(u, sigma)

    monkeypatch.setattr(RandomSource, "fill", staticmethod(counted_fill))
    monkeypatch.setattr(stream_module, "gaussian_quantiles", counted_transform)
    monkeypatch.setattr(stream_module, "gaussian_quantile", counted_scalar)
    snapshots = list(counter_sweep(config, events))
    released = set().union(*(released for _, released in snapshots))
    assert len(set().union(*(event.items for event in events))) == 600
    assert released and released <= set(hot)
    assert 0 < sum(exact) <= 0.1 * sum(drawn)
    counter = Counter(config)
    assert all(repr(dict(sorted(s.items()))) == repr(counter.observe(event))
               for event, (_, s) in zip(events, snapshots))  # fmt: skip


def test_sweep_promotes_the_labels_of_a_hot_stream(monkeypatch):
    # 60 labels, each in most rounds and some arriving late, so that most
    # clear the threshold and are promoted at every stack height and window
    # position.  The sweep must still give Counter's snapshots bit for bit.
    # Once most labels are promoted it stops screening, so few draws are
    # screened, and the block transform sees each draw at most once.
    labels = [f"h{i:02d}" for i in range(60)]
    rng = np.random.default_rng(4)
    events = [StreamEvent(r, rng.choice(labels[: 20 + r // 4], size=12, replace=False).tolist())
              for r in range(1, 301)]  # fmt: skip
    config = CounterConfig.from_privacy(300, 12, 1.0, 0.5, seed=2)
    drawn, screened, exact = [], [], []
    fill, screen, transform = RandomSource.fill, stream_module.gaussian_screen, stream_module.gaussian_quantiles

    def counted_fill(sources, sizes, out):
        drawn.append(out.size)
        return fill(sources, sizes, out)

    def counted_screen(u, sigma):
        screened.append(u.size)
        return screen(u, sigma)

    def counted_transform(u, sigma, out=None):
        exact.append(u.size)
        return transform(u, sigma, out)

    monkeypatch.setattr(RandomSource, "fill", staticmethod(counted_fill))
    monkeypatch.setattr(stream_module, "gaussian_screen", counted_screen)
    monkeypatch.setattr(stream_module, "gaussian_quantiles", counted_transform)
    for window in (1, 5, 32):
        drawn.clear(), screened.clear(), exact.clear()
        with mock.patch.object(stream_module, "SWEEP_WINDOW", window):
            snapshots = list(counter_sweep(config, events))
        counter = Counter(config)
        for event, (_, released) in zip(events, snapshots):
            assert repr(dict(sorted(released.items()))) == repr(counter.observe(event))
        assert len(snapshots[-1][1]) > 40
        assert sum(screened) <= 0.1 * sum(drawn)
        assert sum(drawn) / 2 < sum(exact) <= sum(drawn)
