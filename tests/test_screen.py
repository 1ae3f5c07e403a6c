"""The screens against the exact transforms, and the mechanisms that use them.

``release_batch`` (and so ``release``, its row 0), ``release_topk_batch``,
``release_gumbel_topk_batch``, ``counter_batch`` and ``counter_sweep`` run
the exact, bit-for-bit transform only on the draws that can show, by one
protocol: ``core.screen`` (through ``core.screened_draws`` for a block
drawn from one source) turns uniforms into cheap screened draws, and its
``exact`` makes exact the draws, or the Monte-Carlo rows, whose decisions
come within ``core.screen_margin`` of a screened value, by handing their
uniforms to the caller's sampler through ``core._Given``; ``counter_sweep``
instead makes a promoted label's draws exact itself, from the uniforms it
keeps, and screens only the other labels' draws.  Each law's
screen sits in its row of ``core._LAWS``; the ``counted`` fixture wraps
those and ``_Given`` to count the screened and the exact draws.  The
screens must stay far inside their stated bound, and the mechanisms must
release exactly what the fully exact paths release, also when the
threshold sits on an exact noisy value or one float either side of it,
and consecutive ``release`` calls must be the rows of one
``release_batch``.  Blocks below ``core.SCREEN_FLOOR`` draws are not
screened; the tests set the floor to 0 to screen small inputs too.  At
scale 0 ``core.screened_draws`` draws nothing and gives zeros.
"""

import dataclasses
import math
from types import SimpleNamespace
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
    ParameterError,
    RandomSource,
    SensitivityBound,
    gumbel_screen,
)
from unkhist.gumbel import gumbel_candidates, release_gumbel_topk, release_gumbel_topk_batch
from unkhist.release import release, release_batch
from unkhist.stream import Counter, CounterConfig, StreamEvent, counter_batch, counter_sweep
from unkhist.topk import release_topk, release_topk_batch, topk_threshold, truncate_topk

LAWS = {
    "gaussian": (core.gaussian_screen, core.gaussian_quantiles),
    "laplace": (core.laplace_screen, core._laplace_quantiles),
    "gumbel": (core.gumbel_screen, core._gumbel_quantiles),
}
SAMPLERS = {"gaussian": core.sample_gaussian, "laplace": core.sample_laplace, "gumbel": core.sample_gumbel}


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


@settings(max_examples=300, deadline=None)
@given(
    p=st.lists(
        st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.floats(0.0, 1e-290, exclude_min=True),
            # Near 1, -log(u) is tiny and the outer log large; near 1/e the
            # outer log crosses 0, where its error is absolute.
            st.floats(1.0 - 1e-9, 1.0, exclude_max=True),
            st.floats(math.exp(-1.0) - 1e-9, math.exp(-1.0) + 1e-9),
            st.sampled_from(EDGES),
        ),
        min_size=1,
        max_size=60,
    ),
    beta=st.floats(1e-3, 1e3),
)
def test_gumbel_screen_within_a_hundredth_of_its_bound(p, beta):
    p = np.array(p)
    error = np.abs(gumbel_screen(p, beta) - core._gumbel_quantiles(p, beta))
    bound = SCREEN_ERROR * (beta + np.abs(gumbel_screen(p, beta)))
    assert (error <= bound / 100).all(), (error / bound).max()


def test_max_draw_bounds_every_uniform():
    # The extreme uniforms a RandomSource can draw: 2^-53 and 1 - 2^-53.
    p = np.array([2.0**-53, 0.5, 1.0 - 2.0**-53])
    for screen, exact in LAWS.values():
        assert np.abs(exact(p, 1.0)).max() < core.MAX_DRAW
        assert np.abs(screen(p, 1.0)).max() < core.MAX_DRAW


@pytest.fixture
def counted(monkeypatch):
    """The sizes of the blocks that each screen of ``core._LAWS`` is
    given, in ``screened``, and of the blocks ``core._Given`` hands a sampler
    to make exact, in ``exact``: every screened path goes through both; and,
    for the stream sweep, the window blocks ``RandomSource.fill`` draws
    (``filled``), its block transform of the promoted labels' draws (in
    ``exact`` too), its scalar transforms of the draws a promotion makes
    exact (``promoted``), and for each ``_promote`` call the labels it
    promotes and the draws it transforms (``promotions``)."""
    counts = SimpleNamespace(screened=[], exact=[], filled=[], promoted=[], promotions=[])

    def counting(function, sizes):
        def counted_function(u, *args, **kwargs):
            sizes.append(np.size(u))
            return function(u, *args, **kwargs)

        return counted_function

    for law, (*row, screen) in list(core._LAWS.items()):
        monkeypatch.setitem(core._LAWS, law, (*row, counting(screen, counts.screened)))
    monkeypatch.setattr(core, "_Given", counting(core._Given, counts.exact))
    for name, sizes in [("gaussian_quantiles", counts.exact), ("gaussian_quantile", counts.promoted)]:
        monkeypatch.setattr(stream_module, name, counting(getattr(stream_module, name), sizes))
    fill = RandomSource.fill

    def counted_fill(sources, sizes, out):
        counts.filled.append(out.size)
        return fill(sources, sizes, out)

    monkeypatch.setattr(RandomSource, "fill", staticmethod(counted_fill))
    promote = stream_module._promote

    def counted_promote(rows, *args):
        drawn = len(counts.promoted)
        promote(rows, *args)
        counts.promotions.append((rows.size, len(counts.promoted) - drawn))

    monkeypatch.setattr(stream_module, "_promote", counted_promote)
    return counts


def test_exact_gives_the_samplers_draws():
    # A block over one step of the samplers, made exact by rows and by a mask.
    u = RandomSource(6).uniforms(70_000).reshape(7, 10_000)
    mask = u < 0.3
    rows = np.array([5, 0, 5])
    for law, sample in SAMPLERS.items():
        drawn = sample(2.0, RandomSource(6), u.shape)
        _, exact = core.screen(law, 2.0, u, sample)
        assert exact(rows).tobytes() == drawn[rows].tobytes()
        assert exact(mask).tobytes() == drawn[mask].tobytes()
        assert exact(np.arange(u.shape[0])).tobytes() == drawn.tobytes()


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
def test_release_at_a_threshold_on_an_exact_noisy_count(noise, base, monkeypatch):
    # Near 2^53 and 2^60, count + z rounds to a float grid as coarse as the
    # noise, so that many noisy counts tie.
    monkeypatch.setattr(core, "SCREEN_FLOOR", 0)
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
    for floor in (0, core.SCREEN_FLOOR):  # screened, and as small inputs are drawn
        with mock.patch.object(core, "SCREEN_FLOOR", floor):
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
    # 4 rows of 20000 draws: the first step of uniforms ends inside row 3.
    h = Histogram({f"t{i:05d}": 1 + (i % 53 == 0) * 40 for i in range(20_000)})
    trials, seed = 4, 21
    assert trials * len(h) > core._BLOCK_STEP and core._BLOCK_STEP % len(h)
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
    for floor in (0, core.SCREEN_FLOOR):  # screened, and as small inputs are drawn
        with mock.patch.object(core, "SCREEN_FLOOR", floor):
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
def test_release_transforms_the_draws_that_can_show(noise, counted):
    # A tail: most counts sit far below the threshold, and few survive.  A
    # count of 2^60 clears the threshold whatever its draw; taken into the
    # cut's margin (about 4 * 2^-53 of it), it would lower the cut by about
    # 500 and make nearly every tail draw exact.
    tail = Histogram({"huge": 2**60, **{f"t{i:05d}": 1 + (i % 97 == 0) * 40 for i in range(20_000)}})
    report = release(tail, SENS, noise, 1.0, 1e-6, RandomSource(3))
    assert "huge" in report.released and 0 < sum(counted.exact) <= 0.1 * len(tail)
    assert repr(report.released) == repr(exact_rows(tail, noise, 3, report.threshold)[0])
    assert counted.screened == [len(tail)]
    # A head: every count clears the threshold, and each draw is screened, then made exact, once.
    counted.exact.clear(), counted.screened.clear()
    head = Histogram({f"h{i:04d}": 1000 + i for i in range(2000)})
    report = release(head, SENS, noise, 1.0, 1e-6, RandomSource(3))
    assert len(report.released) == len(head)
    assert counted.screened == counted.exact == [len(head)]


def exact_topk(h, kbar, seed, trials, threshold):
    """release_topk_batch's mask and noisy counts with every draw exact: the
    counts plus sample_gaussian's block, against the noisy threshold (None)
    or the threshold given."""
    trunc = truncate_topk(h, kbar)
    counts = np.array([count for _, count in trunc.top], dtype=float)
    z = core.sample_gaussian(1.0, RandomSource(seed), (trials, 1 + len(counts)))
    cut = topk_threshold(SENS, 1.0, 1e-6) + trunc.next_count
    noisy = counts + z[:, 1:]
    return noisy > (cut + z[:, :1] if threshold is None else threshold), noisy


def thresholds_on(noisy):
    """Some of the noisy values, each with the floats either side, and the
    hooks' other thresholds: none (the noisy one) and +-inf.  Half are row
    maxima, so that one value decides whether its row releases anything."""
    values, tops = np.sort(noisy.ravel()), np.sort(noisy.max(axis=1))
    picks = np.concatenate((values[:: max(len(values) // 4, 1)], tops[:: max(len(tops) // 4, 1)]))
    on = [float(np.nextafter(v, side)) for v in picks for side in (-math.inf, v, math.inf)]
    return on + [None, -math.inf, math.inf]


@pytest.mark.parametrize("base", [1, 2**53 - 40, 2**60])
def test_topk_batch_at_a_threshold_on_an_exact_noisy_count(base, monkeypatch):
    monkeypatch.setattr(core, "SCREEN_FLOOR", 0)
    h = Histogram({f"l{i:02d}": base + i for i in range(40)})
    kbar, trials, seed = 30, 50, 5
    for threshold in thresholds_on(exact_topk(h, kbar, seed, trials, -math.inf)[1]):
        trunc, noisy, kept, _ = release_topk_batch(h, kbar, SENS, 1.0, 1e-6, RandomSource(seed), trials,
                                                   threshold_override=threshold)  # fmt: skip
        expected_kept, expected = exact_topk(h, kbar, seed, trials, threshold)
        assert len(trunc.top) == kbar and kept.tolist() == expected_kept.tolist()
        assert repr(noisy[kept].tolist()) == repr(expected[expected_kept].tolist())


def exact_gumbel(h, k, kbar, seed, trials, threshold):
    """release_gumbel_topk_batch's candidates, order and taken with every
    draw exact (below the floor, nothing is screened), and the noisy counts:
    the candidates' counts plus sample_gumbel's block."""
    with mock.patch.object(core, "SCREEN_FLOOR", math.inf):
        ranked = release_gumbel_topk_batch(h, k, kbar, 1, 1.0, 0.05, RandomSource(seed), trials,
                                           threshold_override=threshold)  # fmt: skip
    counts = gumbel_candidates(h, k, kbar)[2]
    z = core.sample_gumbel(1.0, RandomSource(seed), (trials, 1 + len(counts)))
    return *ranked, counts + z[:, 1:]


@pytest.mark.parametrize("base", [1, 2**53 - 40, 2**60])
def test_gumbel_batch_at_a_threshold_on_an_exact_noisy_count(base, monkeypatch):
    # Counts in threes, so that noisy counts come close in rank; near 2^53
    # and 2^60 they tie.
    monkeypatch.setattr(core, "SCREEN_FLOOR", 0)
    h = Histogram({f"g{i:02d}": base + i // 3 for i in range(30)})
    k, kbar, trials, seed = 6, 24, 40, 9
    for threshold in thresholds_on(exact_gumbel(h, k, kbar, seed, trials, None)[3]):
        labels, order, taken = release_gumbel_topk_batch(h, k, kbar, 1, 1.0, 0.05, RandomSource(seed), trials,
                                                         threshold_override=threshold)  # fmt: skip
        expected_labels, expected_order, expected_taken, _ = exact_gumbel(h, k, kbar, seed, trials, threshold)
        assert labels == expected_labels
        assert order.tolist() == expected_order.tolist() and taken.tolist() == expected_taken.tolist()


def test_gumbel_batch_ranks_near_ties_exactly(monkeypatch, counted):
    # Equal counts near 2^46, where the margin (about 0.2) is wide beside the
    # float spacing (2^-6): many adjacent survivors come within it of each
    # other without tying, and their exact draws decide their order.
    monkeypatch.setattr(core, "SCREEN_FLOOR", 0)
    exact = counted.exact
    h = Histogram({"a": 2**46, "b": 2**46, "c": 2**46})
    trials = 2000
    labels, order, taken = release_gumbel_topk_batch(h, 2, 3, 1, 1.0, 0.05, RandomSource(3), trials,
                                                     threshold_override=-math.inf)  # fmt: skip
    _, expected_order, expected_taken, _ = exact_gumbel(h, 2, 3, 3, trials, -math.inf)
    assert order.tolist() == expected_order.tolist() and taken.tolist() == expected_taken.tolist()
    assert len(exact) == 1 and 0 < exact[0] < 4 * trials / 2


def exact_counter(config, events, seed, trials):
    """counter_batch with every draw exact: below the floor, nothing is screened."""
    with mock.patch.object(core, "SCREEN_FLOOR", math.inf):
        return counter_batch(config, events, RandomSource(seed), trials)


@settings(max_examples=40, deadline=None)
@given(
    horizon=st.integers(1, 40),
    seed=st.integers(0, 2**32),
    pick=st.integers(0, 10**6),
    side=st.sampled_from([-math.inf, None, math.inf]),
)
def test_counter_batch_at_a_threshold_on_an_exact_total(horizon, seed, pick, side):
    events = small_stream(horizon, ["a", "b", "c", "d", "e", "f"], seed)
    config = CounterConfig.from_privacy(horizon, 2, 1.0, 0.5, seed)
    trials = 12
    totals = exact_counter(dataclasses.replace(config, threshold=-math.inf), events, seed, trials)[1]
    if not totals.size:
        return
    threshold = float(totals.ravel()[pick % totals.size])
    if side is not None:
        threshold = float(np.nextafter(threshold, side))
    for threshold in (threshold, -math.inf, math.inf):
        at = dataclasses.replace(config, threshold=threshold)
        with mock.patch.object(core, "SCREEN_FLOOR", 0):
            labels, totals, released = counter_batch(at, events, RandomSource(seed), trials)
        expected_labels, expected, expected_released = exact_counter(at, events, seed, trials)
        assert labels == expected_labels and released.tolist() == expected_released.tolist()
        assert repr(totals[released].tolist()) == repr(expected[expected_released].tolist())


@pytest.mark.parametrize("law", sorted(SAMPLERS))
def test_blocks_below_the_floor_are_not_screened(law):
    # Below the floor the sampler draws the block: the draws the screened
    # path makes exact, leaving the source where it leaves it.
    def refused(u, scale):
        raise AssertionError("screened below the floor")

    *row, _ = core._LAWS[law]
    sample = SAMPLERS[law]
    for size in [(1, 1), (3, 5), (1, core.SCREEN_FLOOR - 1)]:
        rng, screened_rng = RandomSource(4), RandomSource(4)
        with mock.patch.dict(core._LAWS, {law: (*row, refused)}):
            block, exact = core.screened_draws(law, 2.0, rng, size, sample)
        assert exact is None and block.tobytes() == sample(2.0, RandomSource(4), size).tobytes()
        with mock.patch.object(core, "SCREEN_FLOOR", 0):
            _, exact = core.screened_draws(law, 2.0, screened_rng, size, sample)
        assert exact(np.arange(size[0])).tobytes() == block.tobytes()
        assert screened_rng.uniform() == rng.uniform()


#: Each entry point that draws from a caller's rng, on a non-empty input,
#: and Counter, whose rng is optional.
RNG_USERS = {
    "release": lambda rng: release(Histogram({"a": 5, "b": 3}), SENS, "gaussian", 1.0, 1e-6, rng),
    "release_batch": lambda rng: release_batch(Histogram({"a": 5}), SENS, "laplace", 1.0, 1e-6, rng, 2),
    "release_topk": lambda rng: release_topk(Histogram({"a": 5, "b": 3}), 2, SENS, 1.0, 1e-6, rng),
    "release_topk_batch": lambda rng: release_topk_batch(Histogram({"a": 5}), 1, SENS, 1.0, 1e-6, rng, 2),
    "release_gumbel_topk": lambda rng: release_gumbel_topk(Histogram({"a": 5, "b": 3}), 1, 2, 1, 1.0, 0.05, rng),
    "release_gumbel_topk_batch": lambda rng: release_gumbel_topk_batch(Histogram({"a": 5}), 1, 1, 1, 1.0, 0.05,
                                                                       rng, 2),  # fmt: skip
    "counter_batch": lambda rng: counter_batch(CounterConfig.from_privacy(4, 1, 1.0, 0.05, 0),
                                               [StreamEvent(1, {"a"})], rng, 2),  # fmt: skip
    "Counter": lambda rng: Counter(CounterConfig.from_privacy(4, 1, 1.0, 0.05, 0), rng),
}
WRONG_RNGS = {"None": (None, "None"), "int": (7, "7"), "float": (0.5, "0.5"),
              "huge int": (10**5000, "a 16610-bit integer")}  # fmt: skip


@pytest.mark.parametrize(
    "entry, wrong", [(entry, wrong) for entry in sorted(RNG_USERS) for wrong in WRONG_RNGS
                     if (entry, wrong) != ("Counter", "None")],
)  # fmt: skip
def test_a_wrong_rng_is_refused_by_name(entry, wrong):
    # With one message: the kernels draw through core.screened_draws.
    rng, shown = WRONG_RNGS[wrong]
    with pytest.raises(ParameterError, match=f"^rng must be a RandomSource, got {shown}$"):
        RNG_USERS[entry](rng)


@pytest.mark.parametrize("law", sorted(SAMPLERS))
def test_zero_scale_draws_nothing(law):
    # Below and from the floor: zeros, no exact, and the source untouched.
    for size in [(1, 3), (2, core.SCREEN_FLOOR)]:
        rng = RandomSource(4)
        block, exact = core.screened_draws(law, 0.0, rng, size, SAMPLERS[law])
        assert exact is None and block.tobytes() == np.zeros(size).tobytes()
        assert rng.uniform() == RandomSource(4).uniform()


def test_kernels_transform_few_rows_exactly(counted):
    # The validate suites' boundary pairs: about one run in twenty releases a
    # label, and few others come near a decision.
    exact = counted.exact
    trials = 20_000
    release_topk_batch(Histogram({"b": 6, "a": 5}), 1, SENS, 1.0, 0.05, RandomSource(1), trials)
    release_gumbel_topk_batch(Histogram({"b": 5, "a": 4}), 1, 1, 1, 1.0, 0.05, RandomSource(1), trials)
    config = CounterConfig.from_privacy(7, 1, 1.0, 0.05, 0)
    events = [StreamEvent(r, ["a"] if r == 7 else []) for r in range(1, 8)]
    counter_batch(config, events, RandomSource(1), trials)
    # Each block holds two draws a run (threshold and label), the stream's three.
    assert len(exact) == 3 and all(0 < n <= 0.1 * m * trials for n, m in zip(exact, [2, 2, 3])), exact


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
        assert repr(released) == repr(counter.observe(event))


def test_sweep_transforms_few_draws_exactly(counted):
    # 600 labels over 512 rounds: each of five comes every fifth round and
    # clears the threshold, the rest come once or twice and stay below it.
    # The hot labels are promoted, and their draws in later windows made
    # exact; every other draw is screened, and none goes through both.
    cold = [f"c{i:03d}" for i in range(595)]
    hot = [f"h{i}" for i in range(5)]
    events = [StreamEvent(r, [hot[r % 5], cold[2 * r % 595], cold[(2 * r + 1) % 595]])
              for r in range(1, 513)]  # fmt: skip
    config = CounterConfig.from_privacy(512, 3, 1.0, 0.05, seed=8)
    snapshots = list(counter_sweep(config, events))
    released = set().union(*(released for _, released in snapshots))
    assert len(set().union(*(event.items for event in events))) == 600
    assert released and released <= set(hot)
    assert sum(counted.screened) + sum(counted.exact) == sum(counted.filled)
    assert 0 < sum(counted.promoted) and 0 < sum(counted.exact)
    assert sum(counted.exact) + sum(counted.promoted) <= 0.1 * sum(counted.filled)
    most = config.depth + stream_module.SWEEP_WINDOW  # a promotion's draws, per label
    assert all(draws <= rows * most for rows, draws in counted.promotions)
    counter = Counter(config)
    assert all(repr(s) == repr(counter.observe(event))
               for event, (_, s) in zip(events, snapshots))  # fmt: skip


def test_sweep_promotes_the_labels_of_a_hot_stream(counted):
    # 60 labels, each in most rounds and some arriving late, so that most
    # clear the threshold and are promoted at every stack height and window
    # position.  The sweep must still give Counter's snapshots bit for bit.
    # Most draws are the promoted labels', which go to the exact transform
    # rather than the screen: each draw goes through one block transform.
    labels = [f"h{i:02d}" for i in range(60)]
    rng = np.random.default_rng(4)
    events = [StreamEvent(r, rng.choice(labels[: 20 + r // 4], size=12, replace=False).tolist())
              for r in range(1, 301)]  # fmt: skip
    config = CounterConfig.from_privacy(300, 12, 1.0, 0.5, seed=2)
    for window in (1, 5, 32):
        for log in vars(counted).values():
            log.clear()
        with mock.patch.object(stream_module, "SWEEP_WINDOW", window):
            snapshots = list(counter_sweep(config, events))
        counter = Counter(config)
        for event, (_, released) in zip(events, snapshots):
            assert repr(released) == repr(counter.observe(event))
        assert len(snapshots[-1][1]) > 40
        assert sum(counted.screened) + sum(counted.exact) == sum(counted.filled)
        assert sum(counted.filled) / 2 < sum(counted.exact)
        assert all(draws <= rows * (config.depth + window) for rows, draws in counted.promotions)
