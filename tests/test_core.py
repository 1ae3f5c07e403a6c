"""Domain types, samplers, and normal special functions."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unkhist import core
from unkhist.core import (
    BOTTOM,
    Histogram,
    IngestionError,
    MAX_COUNT,
    ParameterError,
    RandomSource,
    LabelBuffer,
    SensitivityBound,
    gumbel_quantile,
    is_reserved_label,
    laplace_quantile,
    normal_cdf,
    normal_inverse_cdf,
    sample_gaussian,
    sample_gumbel,
    sample_laplace,
)
from unkhist.release import threshold_gaussian
from unkhist.stream import CounterConfig
from unkhist.topk import topk_threshold

N_MOMENT_DRAWS = 10**6

# High-precision reference values (mpmath, 50 digits).
LN_HALF = -0.69314718055994531
PHI_INV_0975 = 1.9599639845400542
PHI_INV_1E6 = -4.7534243088228989
EULER_GAMMA = 0.57721566490153286
PI2_OVER_6 = 1.6449340668482264


#: Every Histogram accessor whose result depends on the sorted view.
ORDERED_ACCESSORS = {
    "counts": lambda h: h.counts.tolist(),
    "items": lambda h: h.items(),
    "labels": lambda h: h.labels(),
    "iter": lambda h: list(h),
    "get": lambda h: [h.get(label, -1) for label in ("fig", "grape", 3)],
    "getitem": lambda h: h["apple"],
    "in": lambda h: ["fig" in h, "grape" in h],
    "eq": lambda h: h == Histogram({"fig": 0, "pear": 1, "apple": 3}),
    "repr": lambda h: repr(h),
}


class TestLabels:
    def test_reserved_family(self):
        assert is_reserved_label(BOTTOM)
        assert is_reserved_label("⊥2")
        assert not is_reserved_label("apple")

    def test_histogram_rejects_reserved_and_empty(self):
        with pytest.raises(IngestionError):
            Histogram({"⊥1": 5})
        with pytest.raises(IngestionError):
            Histogram({"": 1})

    def test_histogram_equality_is_not_defined_against_other_types(self):
        h = Histogram({"a": 1})
        assert h.__eq__({"a": 1}) is NotImplemented
        assert h != {"a": 1} and h != [("a", 1)] and h != "a"
        assert h == Histogram([("a", 1)])

    def test_histogram_rejects_bad_counts(self):
        with pytest.raises(IngestionError):
            Histogram({"a": -1})
        with pytest.raises(IngestionError):
            Histogram({"a": 1.5})
        with pytest.raises(IngestionError):
            Histogram({"a": True})
        with pytest.raises(IngestionError):
            Histogram({"a": 2**63})

    def test_histogram_rejects_duplicates(self):
        with pytest.raises(IngestionError):
            Histogram([("a", 1), ("a", 2)])

    def test_iteration_sorted_by_label(self):
        h = Histogram({"pear": 1, "apple": 3, "fig": 2})
        assert h.items() == [("apple", 3), ("fig", 2), ("pear", 1)]
        assert h.labels() == ["apple", "fig", "pear"]
        assert len(h) == 3
        assert h["fig"] == 2
        assert h.get("missing") == 0
        assert "pear" in h

    def test_zero_counts_allowed(self):
        assert Histogram({"a": 0})["a"] == 0

    def test_histogram_store_and_lookups(self):
        h = Histogram({"pear": 1, "apple": 3, "fig": 0})
        assert h == Histogram([("fig", 0), ("apple", 3), ("pear", 1)])
        assert h == Histogram(["pear", "fig", "apple"], [1, 0, 3])
        assert h != Histogram({"pear": 1, "apple": 3, "fig": 1})
        assert h != Histogram({"pear": 1, "apple": 3})
        assert h.items() == [("apple", 3), ("fig", 0), ("pear", 1)]
        assert all(type(count) is int for _, count in h.items())
        assert h.labels() == list(h) == ["apple", "fig", "pear"]
        assert h.counts.dtype == np.int64 and h.counts.tolist() == [3, 0, 1]
        with pytest.raises(ValueError):
            h.counts[0] = 9
        assert repr(h) == "Histogram({'apple': 3, 'fig': 0, 'pear': 1})"
        assert (h["fig"], h.get("fig"), "fig" in h) == (0, 0, True)
        for missing in ("grape", "", "⊥", "zzz", 3):
            assert missing not in h
            assert h.get(missing) == 0 and h.get(missing, -1) == -1
            with pytest.raises(KeyError):
                h[missing]

        class Count(int):
            pass

        assert Histogram({"a": Count(5)})["a"] == 5
        assert Histogram({"a": MAX_COUNT}).items() == [("a", MAX_COUNT)]
        with pytest.raises(ParameterError):
            Histogram(["a", "b"], [1])
        empty = Histogram()
        assert (len(empty), empty.items(), empty.counts.tolist()) == (0, [], [])
        assert empty == Histogram({}) == Histogram([], [])

    @pytest.mark.parametrize("first", ORDERED_ACCESSORS)
    def test_sorted_view_is_built_on_first_use(self, first):
        # The sort is built on construction; whichever accessor comes first
        # gives what it gives on a histogram whose labels were decoded
        # before.  Only ``counts`` leaves the labels undecoded, and the
        # columns stay in input order throughout.
        def every_accessor(h):
            return [accessor(h) for accessor in ORDERED_ACCESSORS.values()]

        def assert_input_order(h):
            assert h.columns[0] == ("pear", "fig", "apple")
            assert h.columns[1].tolist() == [1, 0, 3]

        lazy = Histogram(["pear", "fig", "apple"], [1, 0, 3])
        built = Histogram({"apple": 3, "fig": 0, "pear": 1})
        built.counts
        assert (lazy._sorted_labels, len(lazy)) == (None, 3)
        assert_input_order(lazy)
        assert ORDERED_ACCESSORS[first](lazy) == ORDERED_ACCESSORS[first](built)
        assert lazy._sorted is not None
        assert (lazy._sorted_labels is None) == (first == "counts")
        assert_input_order(lazy)
        assert every_accessor(lazy) == every_accessor(built)
        assert_input_order(lazy)
        assert lazy == built and repr(lazy) == repr(built)


def key_sort(labels):
    return sorted(range(len(labels)), key=labels.__getitem__)


#: ASCII, NUL, Latin-1, BMP (either side of the surrogates, and the last),
#: astral characters and lone surrogates, whose UTF-8 bytes start with each
#: lead-byte range.
LABEL_CHARS = ["a", "b", "z", "\x00", "\x01", "\x7f", "\xe9", "\xff", "\u0800", "\ud7ff",
               "\ud800", "\udfff", "\ue000", "\uffff", "\U00010000", "\U0010ffff"]  # fmt: skip


class TestLabelOrder:
    """``LabelBuffer.order``, the sort every Histogram runs on its labels,
    against the Python key sort."""

    @settings(max_examples=300, deadline=None)
    @given(
        prefix=st.text(st.sampled_from(LABEL_CHARS), max_size=24),
        tails=st.lists(
            st.sampled_from([0, 1, 6, 7, 8, 9, 15, 16, 17]).flatmap(
                lambda size: st.text(st.sampled_from(LABEL_CHARS), min_size=size, max_size=size)
            ),
            unique=True,
            max_size=200,
        ),
        shared=st.integers(0, 200),
    )
    def test_label_order_is_the_key_sort(self, prefix, tails, shared):
        # The first `shared` labels share the prefix: it puts the 8-byte
        # boundary anywhere inside or past the tails.
        labels = tuple(dict.fromkeys(prefix + tail if i < shared else tail
                                     for i, tail in enumerate(tails)))  # fmt: skip
        order = LabelBuffer.encode(labels).order()[0]
        assert order.dtype == np.intp
        assert order.tolist() == key_sort(labels)

    @settings(max_examples=100, deadline=None)
    @given(labels=st.lists(st.text(st.sampled_from(LABEL_CHARS), min_size=1, max_size=12), unique=True,
                           max_size=60))  # fmt: skip
    def test_histogram_gives_back_the_labels_it_was_given(self, labels):
        # Lone surrogates included: the label buffer keeps them (surrogatepass).
        counts = list(range(len(labels)))
        h = Histogram(labels, counts)
        assert h.columns[0] == tuple(labels)
        assert h.labels_at(np.arange(len(labels))[::-1]) == sorted(labels)[::-1]
        assert h.items() == sorted(zip(labels, counts))

    @pytest.mark.parametrize(
        "labels",
        [
            (),
            ("x",),
            ("a", "a\x00"),
            ("a\x00\x00", "a\x00"),
            ("abcdefghZ", "abcdefghA", "abcdefgh"),
            ("\xe9", "e\uffff"),
            ("\ud7ff", "\ud800", "\ue000"),
            ("\U00010000", "\uffff", "\ud800x", "\ud800"),
        ],
    )
    def test_label_order_edge_cases(self, labels):
        # Each order of the labels: trailing NULs and 8-byte prefixes tie on
        # the words, and the UTF-8 bytes of non-ASCII labels order them.
        for order in set(itertools.permutations(labels)):
            assert LabelBuffer.encode(order).order()[0].tolist() == key_sort(order)


class TestSensitivityBound:
    def test_valid(self):
        s = SensitivityBound(l0=2, linf=1.5)
        assert s.has_bounded_l0

    def test_unbounded_l0(self):
        s = SensitivityBound(l0=math.inf, linf=1)
        assert not s.has_bounded_l0

    @pytest.mark.parametrize("l0,linf", [(0, 1), (-1, 1), (1.5, 1), (1, 0), (1, -2), (1, math.inf)])
    def test_invalid(self, l0, linf):
        with pytest.raises(ParameterError):
            SensitivityBound(l0=l0, linf=linf)

    @pytest.mark.parametrize("l0,linf,name", [(10**400, 1, "l0"), (1, 10**400, "linf")])
    def test_int_beyond_the_float_range(self, l0, linf, name):
        with pytest.raises(ParameterError, match=f"^{name} must be at most .*, got a 1329-bit integer$"):
            SensitivityBound(l0=l0, linf=linf)


class TestCheckers:
    @pytest.mark.parametrize("check", [core.check_positive, core.check_real, core.check_l0])
    def test_int_beyond_the_float_range_is_refused_by_name(self, check):
        with pytest.raises(ParameterError, match="^x must be at most 1.7976931348623157e[+]308, "):
            check("x", 10**400)
        with pytest.raises(ParameterError, match="^x must be at most"):
            check("x", 2**1024)

    @pytest.mark.parametrize(
        "check,sign",
        [
            (core.check_int, -1),
            (core.check_l0, 1),
            (core.check_positive, -1),
            (core.check_real, -1),
            (core.check_probability, 1),
        ],
    )
    def test_int_too_long_to_print_is_refused_by_name(self, check, sign):
        # repr refuses an int of more than 4300 digits; the message gives its size.
        shown = "negative " if sign < 0 else ""
        with pytest.raises(ParameterError, match=f"^x must .*, got a {shown}16610-bit integer$"):
            check("x", sign * 10**5000)

    def test_negative_int_beyond_the_float_range_is_refused_by_name(self):
        message = "x must be at least -1.7976931348623157e+308, got a negative 1329-bit integer"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            core.check_real("x", -(10**400), -math.inf)

    def test_histogram_count_too_long_to_print_is_refused_by_name(self):
        message = "count for 'a' must be non-negative, got a negative 16610-bit integer"
        with pytest.raises(IngestionError, match=f"^{re.escape(message)}$"):
            Histogram({"a": -(10**5000)})

    @pytest.mark.parametrize(
        "arguments,message",
        [
            ({"epsilon": 1e300}, "epsilon = 1e+300 gives no finite rho"),
            ({"epsilon": 1.0, "delta": 0.5}, "epsilon = 1.0 and delta = 0.5 give no finite rho"),
            (
                {"l0": 3, "horizon": 2, "epsilon": 1e300},
                "l0 = 3, horizon = 2 and epsilon = 1e+300 give no finite rho",
            ),
        ],
    )
    def test_check_finite_names_the_arguments(self, arguments, message):
        assert core.check_finite("rho", 0.5, **arguments) == 0.5
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                core.check_finite("rho", value, **arguments)

    @pytest.mark.parametrize("check", [core.check_positive, core.check_real])
    def test_largest_ints_that_convert_pass(self, check):
        # 2**1024 - 2**970 rounds up to 2**1024; anything below it rounds to the largest float.
        for value in (2**1023, 2**1024 - 2**970 - 1):
            assert float(check("x", value)) == float(value)


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(42)
        b = RandomSource(42)
        assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]

    def test_uniform_open_interval(self):
        rng = RandomSource(0)
        draws = [rng.uniform() for _ in range(1000)]
        assert all(0.0 < u < 1.0 for u in draws)

    def test_child_streams_do_not_depend_on_sibling_consumption(self):
        root1 = RandomSource(9)
        root2 = RandomSource(9)
        first = root1.child("a")
        _ = [root1.child("b").uniform() for _ in range(5)]
        second = root2.child("a")
        assert [first.uniform() for _ in range(20)] == [second.uniform() for _ in range(20)]

    def test_child_tokens_distinguish(self):
        root = RandomSource(9)
        assert root.child("a").uniform() != root.child("b").uniform()
        assert root.child(1).uniform() != root.child(2).uniform()

    def test_uniforms_matches_type(self):
        arr = RandomSource(3).uniforms(17)
        assert arr.shape == (17,)
        assert (arr > 0).all() and (arr < 1).all()
        rng = RandomSource(3)
        assert arr.tolist() == [rng.uniform() for _ in range(17)]

    def test_uniforms_skip_zeros_like_uniform(self):
        class Gen:  # a generator whose stream holds exact zeros
            def __init__(self):
                self.values = [0.25, 0.0, 0.5, 0.0, 0.0, 0.75, 0.125]

            def random(self, size=None):
                if size is None:
                    return self.values.pop(0)
                taken, self.values = self.values[:size], self.values[size:]
                return np.array(taken)

        single, block = RandomSource(0), RandomSource(0)
        single._gen, block._gen = Gen(), Gen()
        assert [single.uniform() for _ in range(3)] == [0.25, 0.5, 0.75]
        # A block redraws zeros too, and leaves the source where the single
        # draws leave it.
        assert block.uniforms(3).tolist() == [0.25, 0.5, 0.75]
        assert block.uniform() == single.uniform() == 0.125

    class Gen:  # a generator whose stream holds exact zeros, for block calls
        def __init__(self, values):
            self.values = list(values)

        def random(self, size=None, out=None):
            n = size if out is None else out.size
            taken, self.values = self.values[:n], self.values[n:]
            if out is None:
                return np.array(taken)
            out[:] = taken
            return out

    def test_block_fill_redraws_a_zero_as_per_label_calls_do(self):
        Gen = self.Gen
        streams = [[0.5, 0.25, 0.75, 0.125], [0.3, 0.0, 0.6, 0.9, 0.45, 0.15], [0.2, 0.4, 0.8]]
        sizes = [3, 4, 2]

        def sources():
            made = [RandomSource(0) for _ in streams]
            for source, values in zip(made, streams):
                source._gen = Gen(values)
            return made

        per_label, block = sources(), sources()
        calls = np.concatenate([source.uniforms(k) for source, k in zip(per_label, sizes)])
        filled = RandomSource.fill(block, sizes, np.empty(sum(sizes)))
        # The zero in the second label's segment is dropped and its next draw
        # appended; the other segments are as drawn.
        assert filled.tolist() == calls.tolist() == [0.5, 0.25, 0.75, 0.3, 0.6, 0.9, 0.45, 0.2, 0.4]
        assert [s.uniform() for s in block] == [s.uniform() for s in per_label] == [0.125, 0.15, 0.8]

    def test_fill_windows_are_one_uniforms_call(self):
        # One source drawn as two fill windows, a zero in each: the windows
        # together hand out what one uniforms call over all their draws does.
        values = [0.5, 0.0, 0.25, 0.75, 0.0, 0.125, 0.3, 0.6]
        windows, fresh = RandomSource(0), RandomSource(0)
        windows._gen, fresh._gen = self.Gen(values), self.Gen(values)
        drawn = [RandomSource.fill([windows], [3], np.empty(3)).tolist() for _ in range(2)]
        assert drawn == [[0.5, 0.25, 0.75], [0.125, 0.3, 0.6]]
        assert sum(drawn, []) == fresh.uniforms(6).tolist()

    def test_block_fill_is_per_label_uniforms(self):
        sizes = [5, 0, 32, 1]
        per_label = [RandomSource(4).child(i) for i in range(4)]
        block = [RandomSource(4).child(i) for i in range(4)]
        calls = np.concatenate([source.uniforms(k) for source, k in zip(per_label, sizes)])
        assert RandomSource.fill(block, sizes, np.empty(sum(sizes))).tolist() == calls.tolist()

    @pytest.mark.parametrize("seed", ["7", 1.5, 2**64])
    def test_bad_seed(self, seed):
        with pytest.raises(ParameterError):
            RandomSource(seed)

    @pytest.mark.parametrize("seed", [-1, -(2**63), -(10**5000)], ids=["-1", "-2**63", "-10**5000"])
    def test_negative_seed_is_refused_by_name(self, seed):
        # Masked to 64 bits, -1 would give the noise of 2**64 - 1.
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            RandomSource(seed)

    def test_every_64_bit_seed_keeps_its_bits(self):
        top = RandomSource(2**64 - 1)
        assert top.uniforms(4).tolist() != RandomSource(0).uniforms(4).tolist()
        assert RandomSource(2**63).uniforms(4).tolist() == RandomSource(2**63).uniforms(4).tolist()

    @pytest.mark.parametrize("token", [-1, 2**64, -(10**5000)], ids=["-1", "2**64", "-10**5000"])
    def test_int_token_outside_64_bits_is_refused(self, token):
        with pytest.raises(ParameterError, match=r"lie in \[0, 2\*\*64\)"):
            RandomSource(9).child(token)

    def test_int_tokens_at_the_64_bit_edges_are_distinct(self):
        root = RandomSource(9)
        edges = [root.child(t).uniform() for t in (0, 1, 2**63, 2**64 - 1)]
        assert len(set(edges)) == 4
        assert root.child(2**64 - 1).uniform() == edges[-1]


class TestChildren:
    # Tokens whose entropy takes 1, 2 or 4 words, so that one call hashes
    # entropy of several lengths: non-ASCII strings and the int edges.
    TOKENS = ["a", "b", "label-17", "é", "日本語", "naïve café", "🙂", 0, 1, 2**32 - 1, 2**32, 2**64 - 1]

    @pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 - 1], ids=["0", "7", "2**32", "2**64-1"])
    def test_draws_are_child_draws(self, seed):
        master = RandomSource(seed)
        for token, source in zip(self.TOKENS, master.children(self.TOKENS), strict=True):
            assert source.uniforms(9).tolist() == master.child(token).uniforms(9).tolist(), token

    def test_children_of_a_child(self):
        parent = RandomSource(2**64 - 1).child("日本語")
        grand = [parent.child(t) for t in self.TOKENS]
        for source, expected in zip(parent.children(self.TOKENS), grand, strict=True):
            assert source.uniforms(5).tolist() == expected.uniforms(5).tolist()
            assert source.children(["x", 3])[1].uniform() == expected.child(3).uniform()

    def test_no_tokens(self):
        assert RandomSource(3).children([]) == []

    @pytest.mark.parametrize("token", [-1, 2**64, True, 1.5, b"a"], ids=["-1", "2**64", "True", "1.5", "bytes"])
    def test_bad_token_is_refused_as_child_refuses_it(self, token):
        with pytest.raises(ParameterError) as expected:
            RandomSource(9).child(token)
        with pytest.raises(ParameterError, match=f"^{re.escape(str(expected.value))}$"):
            RandomSource(9).children(["a", token])

    @given(st.lists(st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=7), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_seed_states_are_seed_sequence_states(self, entropies):
        # Entropy of several lengths in one call: each row is zero-padded to
        # the longest, and only its own words are hashed.  An int's words run
        # low word first, as many as it needs, at least one.
        split = [[n >> s & 0xFFFFFFFF for n in e for s in range(0, n.bit_length() or 1, 32)] for e in entropies]
        words = np.zeros((len(split), max(map(len, split))), dtype=np.uint32)
        for row, w in zip(words, split):
            row[: len(w)] = w
        states = core._seed_states(words, np.array([len(w) for w in split]))
        expected = [np.random.SeedSequence(e).generate_state(4, np.uint64).tolist() for e in entropies]
        assert states.tolist() == expected


class TestLaplace:
    def test_median_maps_to_zero(self):
        assert laplace_quantile(0.5, 1.0) == 0.0

    def test_quarter_quantile(self):
        # ln(1/2), evaluated at 50 digits.
        assert laplace_quantile(0.25, 1.0) == pytest.approx(LN_HALF, abs=1e-12)

    def test_scale_linearity(self):
        assert laplace_quantile(0.25, 2.0) == pytest.approx(2 * LN_HALF, abs=1e-12)

    def test_moments(self):
        rng = RandomSource(101)
        scale = 1.0
        draws = [sample_laplace(scale, rng) for _ in range(N_MOMENT_DRAWS)]
        n = len(draws)
        mean = sum(draws) / n
        var = sum((z - mean) ** 2 for z in draws) / n
        # Var = 2b^2; SE(mean) = sqrt(2/n) b, SE(var) = sqrt(20/n) b^2.
        assert abs(mean) <= 5 * math.sqrt(2.0 / n)
        assert abs(var - 2.0) <= 5 * math.sqrt(20.0 / n)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            sample_laplace(0.0, RandomSource(0))


class TestGaussian:
    def test_antithetic_pairs_cancel(self):
        # Dyadic u keeps 1-u exact, so the mirrored quantile negates exactly.
        for u in (0.25, 0.125, 0.03125, 0.4375):
            a = normal_inverse_cdf(u)
            b = normal_inverse_cdf(1.0 - u)
            assert a + b == 0.0

    def test_moments_unit_sigma(self):
        rng = RandomSource(202)
        draws = [sample_gaussian(1.0, rng) for _ in range(N_MOMENT_DRAWS)]
        n = len(draws)
        mean = sum(draws) / n
        var = sum((z - mean) ** 2 for z in draws) / n
        assert abs(mean) <= 0.01  # 5 SE = 0.005; stated tolerance is looser
        assert abs(var - 1.0) <= 0.01

    def test_mean_sigma_three(self):
        rng = RandomSource(203)
        draws = [sample_gaussian(3.0, rng) for _ in range(N_MOMENT_DRAWS)]
        mean = sum(draws) / len(draws)
        assert abs(mean) <= 0.015  # 5 SE at sigma = 3

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            sample_gaussian(-1.0, RandomSource(0))


class TestGumbel:
    def test_unit_point(self):
        assert gumbel_quantile(math.exp(-1.0), 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_moments(self):
        rng = RandomSource(303)
        draws = [sample_gumbel(1.0, rng) for _ in range(N_MOMENT_DRAWS)]
        n = len(draws)
        mean = sum(draws) / n
        var = sum((z - mean) ** 2 for z in draws) / n
        assert abs(mean - EULER_GAMMA) <= 0.01
        assert abs(var - PI2_OVER_6) <= 0.02

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            sample_gumbel(0.0, RandomSource(0))


class TestNormalInverseCdf:
    def test_median(self):
        assert normal_inverse_cdf(0.5) == 0.0

    def test_reference_points(self):
        assert normal_inverse_cdf(0.975) == pytest.approx(PHI_INV_0975, abs=1e-9)
        assert normal_inverse_cdf(1e-6) == pytest.approx(PHI_INV_1E6, abs=1e-9)

    def test_identity_against_forward_cdf(self):
        # 1e4-point grid on [-6, 6]; composition error must stay below 1e-8.
        for i in range(10**4):
            z = -6.0 + 12.0 * i / (10**4 - 1)
            assert abs(normal_inverse_cdf(normal_cdf(z)) - z) <= 1e-8

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, math.nan])
    def test_domain(self, p):
        with pytest.raises(ParameterError):
            normal_inverse_cdf(p)


def test_seeded_runs_are_bit_identical():
    def run(seed):
        rng = RandomSource(seed)
        return (
            [sample_laplace(1.3, rng) for _ in range(10)]
            + [sample_gaussian(0.7, rng) for _ in range(10)]
            + [sample_gumbel(2.0, rng) for _ in range(10)]
        )

    assert run(77) == run(77)
    assert run(77) != run(78)


@pytest.mark.parametrize(
    "sampler, scale", [(sample_laplace, 1.3), (sample_gaussian, 0.7), (sample_gumbel, 2.0)]
)
def test_block_draws_are_repeated_single_draws(sampler, scale, monkeypatch):
    # A step smaller than the block makes the block span several steps.
    monkeypatch.setattr(core, "_BLOCK_STEP", 7)
    rng = RandomSource(5)
    singles = [sampler(scale, rng) for _ in range(3 * 11)]
    rng_block = RandomSource(5)
    block = sampler(scale, rng_block, (3, 11))
    assert block.shape == (3, 11)
    assert block.ravel().tolist() == singles
    assert rng_block.uniform() == rng.uniform()
    assert sampler(scale, RandomSource(5), (4, 0)).shape == (4, 0)
    with pytest.raises(ParameterError):
        sampler(0.0, RandomSource(5), (1, 1))


@pytest.mark.parametrize(
    "block, scalar",
    [(core._laplace_quantiles, core.laplace_quantile), (core._gumbel_quantiles, core.gumbel_quantile)],
)
@pytest.mark.parametrize("scale", [1.3, 1e-320, 1e300])
def test_block_quantiles_match_the_scalar_bits_at_the_edges(block, scalar, scale):
    # The branch point, its neighbours and the extreme uniforms; tobytes also
    # tells 0.0 from -0.0 (u = 0.5, or an underflowing product).
    u = [2.0**-53, 1e-300, 0.25, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 1 - 2.0**-53]
    u += RandomSource(9).uniforms(64).tolist()
    expected = np.array([scalar(x, scale) for x in u])
    assert block(np.array(u), scale).tobytes() == expected.tobytes()


# The three Gaussian tail thresholds as their callers wrote them out before
# core.gaussian_threshold stated the rule once: Algorithm 1's, the
# noisy-threshold top-k's and the continual counter's.


def written_out_release_threshold(sens, epsilon, delta):
    sens = core.check_sensitivity(sens)
    eps = core.check_positive("epsilon", epsilon)
    d = core.check_probability("delta", delta)
    z = core.normal_upper_quantile(d / sens.l0)
    return core.check_finite("threshold", sens.linf + (sens.linf / eps) * z, epsilon=eps, delta=d)


def written_out_topk_threshold(sens, epsilon, delta):
    sens = core.check_sensitivity(sens)
    eps = core.check_positive("epsilon", epsilon)
    d = core.check_probability("delta", delta)
    z = core.normal_upper_quantile(d / sens.l0)
    threshold = sens.linf + math.sqrt(2.0) * (sens.linf / eps) * z
    return core.check_finite("threshold", threshold, epsilon=eps, delta=d)


def written_out_counter_threshold(horizon, l0, epsilon, delta):
    ratio = delta / (l0 * horizon)
    sigma = 1.0 / epsilon
    z = core.normal_upper_quantile(ratio)
    threshold = 1.0 + sigma * math.sqrt(horizon.bit_length() + 1.0) * z
    return core.check_finite("threshold", threshold, epsilon=epsilon, delta=delta)


def outcome(function, *args, **kwargs):
    """function's value as its bytes, or the message of the ParameterError it raises."""
    try:
        return np.float64(function(*args, **kwargs)).tobytes()
    except ParameterError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(
    epsilon=st.floats(1e-300, 1e300),
    delta=st.floats(5e-324, 1.0 - 2.0**-53),
    l0=st.integers(1, 2**60),
    linf=st.floats(1e-300, 1e300),
    horizon=st.integers(1, 2**40),
)
def test_gaussian_threshold_is_each_written_out_threshold(epsilon, delta, l0, linf, horizon):
    sens = SensitivityBound(l0=l0, linf=linf)
    for caller, written_out in [(threshold_gaussian, written_out_release_threshold),
                                (topk_threshold, written_out_topk_threshold)]:  # fmt: skip
        assert outcome(caller, sens, epsilon, delta) == outcome(written_out, sens, epsilon, delta)
    expected = outcome(written_out_counter_threshold, horizon, l0, epsilon, delta)
    factor = math.sqrt(horizon.bit_length() + 1.0)
    ratio = delta / (l0 * horizon)
    stated = outcome(core.gaussian_threshold, 1.0, 1.0 / epsilon, ratio, factor, epsilon=epsilon, delta=delta)
    assert stated == expected
    # from_privacy forms its threshold before its rho and noise refusals.
    config = outcome(lambda: CounterConfig.from_privacy(horizon, l0, epsilon, delta, 0).threshold)
    refused = isinstance(config, str) and re.search("no finite (rho|noise)$", config)
    assert config == expected or isinstance(expected, bytes) and refused


#: Grid indices k of the uniforms k * 2^-53 at which a noise transform
#: changes branch or ends: Acklam's p_low and its mirror, the median, and
#: the least and greatest uniform a RandomSource gives.
_P_LOW_K = round(core._ICDF_P_LOW * 2**53)
BRANCH_POINTS = {"p_low": _P_LOW_K, "mirror": 2**53 - _P_LOW_K, "median": 2**52,
                 "least": 1, "greatest": 2**53 - 1}  # fmt: skip


@pytest.mark.parametrize("law", sorted(core._LAWS))
@pytest.mark.parametrize("point", sorted(BRANCH_POINTS))
def test_noise_transforms_never_decrease_on_the_uniform_grid(law, point):
    # Every uniform is k * 2^-53, so monotone over consecutive k is monotone
    # over every input the transforms see.  Between neighbouring doubles off
    # the grid the Gaussian transform does decrease (near p_low, and near
    # 50 * 2^-53), so an exact audit must bisect over k, not over doubles.
    _, quantile, quantiles, _ = core._LAWS[law]
    k = BRANCH_POINTS[point]
    u = np.arange(max(k - 10**5, 1), min(k + 10**5, 2**53 - 1) + 1, dtype=np.int64) * 2.0**-53
    scalar = np.array([quantile(x, 1.0) for x in u.tolist()])
    assert (np.diff(scalar) >= 0).all()
    assert (np.diff(quantiles(u, 1.0)) >= 0).all()
