"""Domain types, samplers, and normal special functions."""

import math

import numpy as np
import pytest

from unkhist import core
from unkhist.core import (
    BOTTOM,
    Histogram,
    IngestionError,
    ParameterError,
    RandomSource,
    SensitivityBound,
    gumbel_inverse_cdf,
    is_reserved_label,
    laplace_inverse_cdf,
    normal_cdf,
    normal_inverse_cdf,
    padding_label,
    sample_gaussian,
    sample_gumbel,
    sample_laplace,
)

N_MOMENT_DRAWS = 10**6

# High-precision reference values (mpmath, 50 digits).
LN_HALF = -0.69314718055994531
PHI_INV_0975 = 1.9599639845400542
PHI_INV_1E6 = -4.7534243088228989
EULER_GAMMA = 0.57721566490153286
PI2_OVER_6 = 1.6449340668482264


class TestLabels:
    def test_reserved_family(self):
        assert is_reserved_label(BOTTOM)
        assert is_reserved_label(padding_label(1))
        assert padding_label(2) == "⊥2"
        assert not is_reserved_label("apple")

    def test_histogram_rejects_reserved_and_empty(self):
        with pytest.raises(IngestionError):
            Histogram({"⊥1": 5})
        with pytest.raises(IngestionError):
            Histogram({"": 1})

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

    @pytest.mark.parametrize("block", [1, 3, 10])
    def test_uniform_iter_replays_uniform(self, block):
        it = RandomSource(5).child("x").uniform_iter(block)
        rng = RandomSource(5).child("x")
        assert [next(it) for _ in range(25)] == [rng.uniform() for _ in range(25)]

    def test_uniform_iter_skips_zeros_like_uniform(self):
        class Gen:  # a generator whose stream holds exact zeros
            def __init__(self):
                self.values = [0.25, 0.0, 0.5, 0.0, 0.0, 0.75, 0.125]

            def random(self, size=None):
                if size is None:
                    return self.values.pop(0)
                taken, self.values = self.values[:size], self.values[size:]
                return np.array(taken)

        a, b, c = RandomSource(0), RandomSource(0), RandomSource(0)
        a._gen, b._gen, c._gen = Gen(), Gen(), Gen()
        it = a.uniform_iter(2)
        assert [next(it) for _ in range(3)] == [b.uniform() for _ in range(3)] == [0.25, 0.5, 0.75]
        # A block redraws zeros too, and leaves the source where the single
        # draws leave it.
        assert c.uniforms(3).tolist() == [0.25, 0.5, 0.75]
        assert c.uniform() == b.uniform() == 0.125

    @pytest.mark.parametrize("seed", ["7", 1.5, 2**64])
    def test_bad_seed(self, seed):
        with pytest.raises(ParameterError):
            RandomSource(seed)


class TestLaplace:
    def test_median_maps_to_zero(self):
        assert laplace_inverse_cdf(0.5, 1.0) == 0.0

    def test_quarter_quantile(self):
        # ln(1/2), evaluated at 50 digits.
        assert laplace_inverse_cdf(0.25, 1.0) == pytest.approx(LN_HALF, abs=1e-12)

    def test_scale_linearity(self):
        assert laplace_inverse_cdf(0.25, 2.0) == pytest.approx(2 * LN_HALF, abs=1e-12)

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
        rng = RandomSource(0)
        with pytest.raises(ParameterError):
            sample_laplace(0.0, rng)
        with pytest.raises(ParameterError):
            laplace_inverse_cdf(1.0, 1.0)


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
        assert gumbel_inverse_cdf(math.exp(-1.0), 1.0) == pytest.approx(0.0, abs=1e-14)

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
        with pytest.raises(ParameterError):
            gumbel_inverse_cdf(0.0, 1.0)


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
