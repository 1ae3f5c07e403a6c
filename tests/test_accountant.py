"""Budget arithmetic: closed forms, conversions, and composition."""

import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from unkhist.accountant import (
    CdpBudget,
    DpBudget,
    RenyiOrder,
    cdp_to_dp,
    cdp_to_dp_optimize,
    compose,
    dp_to_cdp,
    expmech_cdp,
    gaussian_cdp,
    laplace_pure_dp,
)
from unkhist.core import Histogram, ParameterError, RandomSource, SensitivityBound
from unkhist.gumbel import release_gumbel_topk
from unkhist.release import release_budget
from unkhist.stream import CounterConfig

TINY = sys.float_info.min


def normal(*values):
    """Whether every value is a normal float: neither subnormal, 0 nor inf."""
    return all(TINY <= v < math.inf for v in values)

# mpmath (50 digits): 0.5 + 2*sqrt(0.5*ln(1e6)) and 0.125 + 2*sqrt(0.125*ln 20).
EPS_RHO_HALF = 5.7565217697569320
EPS_RHO_EIGHTH = 1.3488734153404083


class TestRecords:
    def test_budget_validation(self):
        with pytest.raises(ParameterError):
            CdpBudget(delta=1.0, rho=0.1)
        with pytest.raises(ParameterError):
            CdpBudget(delta=-0.1, rho=0.1)
        with pytest.raises(ParameterError):
            CdpBudget(delta=0.0, rho=-0.1)
        with pytest.raises(ParameterError):
            DpBudget(epsilon=-1.0, delta=0.0)
        with pytest.raises(ParameterError):
            RenyiOrder(0.5)
        assert RenyiOrder(1).value == 1.0

    def test_json_round_trip(self):
        b = CdpBudget(delta=0.05, rho=1.25)
        assert CdpBudget.from_json_dict(b.to_json_dict()) == b


class TestLaplacePureDp:
    @pytest.mark.parametrize(
        "l1,scale,eps", [(1.0, 1.0, 1.0), (2.0, 1.0, 2.0), (1.0, 4.0, 0.25)]
    )
    def test_examples(self, l1, scale, eps):
        budget = laplace_pure_dp(l1, scale)
        assert budget == DpBudget(epsilon=eps, delta=0.0)

    def test_errors(self):
        with pytest.raises(ParameterError):
            laplace_pure_dp(0.0, 1.0)
        with pytest.raises(ParameterError):
            laplace_pure_dp(1.0, -1.0)


class TestGaussianCdp:
    @pytest.mark.parametrize(
        "l2,sigma,rho", [(1.0, 1.0, 0.5), (2.0, 1.0, 2.0), (1.0, 10.0, 0.005)]
    )
    def test_examples(self, l2, sigma, rho):
        budget = gaussian_cdp(l2, sigma)
        assert budget.delta == 0.0
        assert budget.rho == pytest.approx(rho, rel=1e-15)

    def test_errors(self):
        with pytest.raises(ParameterError):
            gaussian_cdp(1.0, 0.0)

    @pytest.mark.parametrize("l2,sigma", [(1.0, 1e-300), (1.0, 1e-160), (1e200, 1.0)])
    def test_no_finite_rho_is_refused_by_name(self, l2, sigma):
        # 2 * sigma^2 underflows to 0 in the first, the ratio overflows in the others.
        message = f"l2_sensitivity = {l2!r} and sigma = {sigma!r} give no finite rho"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            gaussian_cdp(l2, sigma)

    @pytest.mark.parametrize(
        "l2,sigma,rho",
        [(1e-200, 1e-200, 0.5), (1e200, 1e200, 0.5), (2e-200, 1e-200, 2.0), (1e160, 1e10, 5e299)],
    )
    def test_true_rho_where_the_formula_gives_none(self, l2, sigma, rho):
        # 2 * sigma^2 underflows to 0 in the first and third; l2^2 overflows in the others.
        assert gaussian_cdp(l2, sigma).rho == rho

    @given(
        st.floats(min_value=5e-324, max_value=1e308),
        st.floats(min_value=5e-324, max_value=1e308),
    )
    def test_without_the_formula_rho_is_the_exact_ratio_or_refused(self, l2, sigma):
        square, denominator = l2 * l2, 2.0 * sigma * sigma
        assume(not (normal(square, denominator) and normal(square / denominator)))
        try:
            expected = float(Fraction(l2) ** 2 / (2 * Fraction(sigma) ** 2))  # rounded once
        except OverflowError:
            with pytest.raises(ParameterError, match="give no finite rho$"):
                gaussian_cdp(l2, sigma)
        else:
            assert gaussian_cdp(l2, sigma).rho == expected

    @given(  # squares in the normal range; the test above covers the rest
        st.floats(min_value=1.5e-154, max_value=1.3e154),
        st.floats(min_value=1.5e-154, max_value=1.3e154),
    )
    def test_every_normal_rho_is_the_formula(self, l2, sigma):
        square, denominator = l2 * l2, 2.0 * sigma * sigma
        assume(normal(square, denominator) and normal(square / denominator))
        assert gaussian_cdp(l2, sigma).rho == square / denominator


class TestExpmechCdp:
    @pytest.mark.parametrize("eps,rho", [(1.0, 0.125), (2.0, 0.5)])
    def test_examples(self, eps, rho):
        assert expmech_cdp(eps) == CdpBudget(delta=0.0, rho=rho)

    @given(st.floats(min_value=1e-6, max_value=50.0))
    def test_beats_generic_conversion(self, eps):
        # eps^2/8 < eps^2/2 for every positive eps.
        assert expmech_cdp(eps).rho < dp_to_cdp(DpBudget(epsilon=eps, delta=0.0)).rho


class TestSubnormalSquares:
    # A square or ratio below the normal range has lost bits: rho is the
    # exact ratio rounded once, not the float formula's result.
    @pytest.mark.parametrize("l2,sigma", [(1e-161, 1e-11), (1e-160, 1.0), (1e-150, 1e-160), (1e-150, 1e10), (1.0, 1e160)])
    def test_gaussian(self, l2, sigma):
        exact = float(Fraction(l2) ** 2 / (2 * Fraction(sigma) ** 2))
        assert gaussian_cdp(l2, sigma).rho == exact
        if (l2, sigma) == (1e-161, 1e-11):  # the formula was 1.2% low here
            assert l2 * l2 / (2.0 * sigma * sigma) < 0.99 * exact

    @pytest.mark.parametrize("eps", [1e-161, 1e-155, 5e-324, math.ulp(0.0) * 3])
    def test_expmech_and_dp_to_cdp(self, eps):
        assert expmech_cdp(eps).rho == float(Fraction(eps) ** 2 / 8)
        assert dp_to_cdp(DpBudget(epsilon=eps, delta=0.1)).rho == float(Fraction(eps) ** 2 / 2)

    def test_expmech_was_a_third_low(self):
        assert expmech_cdp(1e-161).rho == 1.48e-323 > 1e-161 * 1e-161 / 8.0

    @given(st.floats(min_value=5e-324, max_value=1e-154))  # squares below the normal range
    def test_small_epsilons_are_rounded_once(self, eps):
        assert expmech_cdp(eps).rho == float(Fraction(eps) ** 2 / 8)
        assert dp_to_cdp(DpBudget(epsilon=eps, delta=0.0)).rho == float(Fraction(eps) ** 2 / 2)


def gumbel_rho(k, eps):
    _, budget = release_gumbel_topk(Histogram({"a": 1}), k, k, 1, eps, 0.01, RandomSource(0))
    return budget.rho


# Each mechanism budget: its epsilon's count and denominator, and its rho.
EPSILON_BUDGETS = {
    "expmech": (st.just(1), 8, lambda n, eps: expmech_cdp(eps).rho),
    "dp-to-cdp": (st.just(1), 2, lambda n, eps: dp_to_cdp(DpBudget(epsilon=eps, delta=0.0)).rho),
    "release": (st.integers(1, 2**60), 2, lambda n, eps: release_budget(SensitivityBound(n, 1.0), eps, 0.01).rho),
    "gumbel-topk": (st.integers(1, 1000), 8, gumbel_rho),
    # Horizon 512 has depth 10: l0 * 10 nodes.
    "stream": (st.integers(1, 2**50).map(lambda l0: 10 * l0), 2,
               lambda n, eps: CounterConfig.from_privacy(512, n // 10, eps, 0.01, 0).budget.rho),
}


class TestEpsilonBudgets:
    # rho = count * eps^2 / denominator: the float formula where the square
    # and the ratio are normal floats, and elsewhere the exact ratio rounded
    # once, or refused by name if that is not finite.  rho is drawn near
    # mantissa^2 * 4^half, so that many fall below the normal range or near
    # its top.
    @pytest.mark.parametrize("name", sorted(EPSILON_BUDGETS))
    @given(
        data=st.data(),
        mantissa=st.floats(1.0, 2.0, exclude_max=True),
        half=st.one_of(st.integers(-540, -505), st.integers(505, 515), st.integers(-550, 550)),
    )
    def test_rho_is_the_formula_or_rounded_once(self, name, data, mantissa, half):
        counts, denominator, rho = EPSILON_BUDGETS[name]
        n = data.draw(counts)
        eps = math.ldexp(mantissa * math.sqrt(denominator / n), half)
        square = n * eps * eps
        if normal(square, square / denominator):
            assert rho(n, eps) == square / denominator
            return
        try:
            expected = float(n * Fraction(eps) ** 2 / denominator)
        except OverflowError:
            with pytest.raises(ParameterError, match="no finite rho$"):
                rho(n, eps)
        else:
            assert rho(n, eps) == expected

    def test_subnormal_squares_are_rounded_once(self):
        sens = SensitivityBound(l0=3, linf=1)
        assert release_budget(sens, 3e-162, 0.01).rho == float(3 * Fraction(3e-162) ** 2 / 2) == 1.5e-323
        assert CounterConfig.from_privacy(512, 3, 3e-162, 0.01, 1).budget.rho == 1.33e-322

    def test_dp_to_cdp_squares_without_pow(self):
        # C pow misrounds 0.0397**2 on some libraries; the product is correctly rounded.
        rho = dp_to_cdp(DpBudget(epsilon=0.0397, delta=0.0)).rho
        assert rho == float(Fraction(0.0397) ** 2 / 2) == 0.0397 * 0.0397 / 2.0


class TestBudgetsBeyondTheFloatRange:
    @pytest.mark.parametrize(
        "form,message",
        [
            (
                lambda: laplace_pure_dp(1e300, 1e-300),
                "l1_sensitivity = 1e+300 and scale = 1e-300 give no finite epsilon",
            ),
            (lambda: expmech_cdp(1e300), "epsilon = 1e+300 gives no finite rho"),
            (lambda: dp_to_cdp(DpBudget(epsilon=1e300, delta=0.1)), "epsilon = 1e+300 gives no finite rho"),
            (lambda: dp_to_cdp(DpBudget(epsilon=math.inf, delta=0.0)), "epsilon = inf gives no finite rho"),
            (
                lambda: cdp_to_dp(CdpBudget(delta=0.0, rho=1e307), 1e-300),
                "rho = 1e+307 and delta_prime = 1e-300 give no finite epsilon",
            ),
        ],
        ids=["laplace-dp", "expmech-cdp", "dp-to-cdp", "dp-to-cdp-inf", "cdp-to-dp"],
    )
    def test_refused_by_name(self, form, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            form()

    def test_largest_finite_budgets_keep_their_formulas(self):
        eps = 1e154
        assert expmech_cdp(eps).rho == eps * eps / 8.0
        assert dp_to_cdp(DpBudget(epsilon=eps, delta=0.0)).rho == eps**2 / 2.0
        # The largest epsilon whose square is a float, and the smallest whose is
        # not: its rho, half the square, is still one, the exact ratio.
        eps = math.nextafter(2.0**512, 0.0)
        assert dp_to_cdp(DpBudget(epsilon=eps, delta=0.0)).rho == eps**2 / 2.0
        assert dp_to_cdp(DpBudget(epsilon=2.0**512, delta=0.0)).rho == 2.0**1023
        assert laplace_pure_dp(1e300, 1e-8).epsilon == 1e300 / 1e-8

    def test_delta_prime_whose_inverse_overflows(self):
        # 1 / 5e-324 overflows, but ln(1 / 5e-324) = 744.4 does not.
        out = cdp_to_dp(CdpBudget(delta=0.0, rho=1.0), 5e-324)
        assert out.epsilon == 1.0 + 2.0 * math.sqrt(-math.log(5e-324))
        assert cdp_to_dp(CdpBudget(delta=0.0, rho=1.0), 1e-300).epsilon < out.epsilon


class TestConversions:
    def test_dp_to_cdp_examples(self):
        assert dp_to_cdp(DpBudget(epsilon=1.0, delta=0.0)) == CdpBudget(delta=0.0, rho=0.5)
        assert dp_to_cdp(DpBudget(epsilon=0.0, delta=0.1)) == CdpBudget(delta=0.1, rho=0.0)
        out = dp_to_cdp(DpBudget(epsilon=3.0, delta=1e-6))
        assert out.delta == 1e-6
        assert out.rho == pytest.approx(4.5, rel=1e-15)

    def test_cdp_to_dp_examples(self):
        out = cdp_to_dp(CdpBudget(delta=0.0, rho=0.0), 1e-6)
        assert out == DpBudget(epsilon=0.0, delta=1e-6)
        out = cdp_to_dp(CdpBudget(delta=0.0, rho=0.5), 1e-6)
        assert out.epsilon == pytest.approx(EPS_RHO_HALF, rel=1e-12)
        out = cdp_to_dp(CdpBudget(delta=0.05, rho=0.125), 0.05)
        assert out.epsilon == pytest.approx(EPS_RHO_EIGHTH, rel=1e-12)
        assert out.delta == pytest.approx(0.1, rel=1e-15)

    def test_cdp_to_dp_errors(self):
        with pytest.raises(ParameterError):
            cdp_to_dp(CdpBudget(delta=0.0, rho=0.5), 0.0)
        with pytest.raises(ParameterError):
            cdp_to_dp(CdpBudget(delta=0.0, rho=0.5), 1.0)
        with pytest.raises(ParameterError):
            cdp_to_dp(CdpBudget(delta=0.6, rho=0.5), 0.5)

    @given(
        st.floats(min_value=1e-3, max_value=10.0),
        st.floats(min_value=1e-8, max_value=0.1),
    )
    def test_round_trip_never_gains_budget(self, eps, delta_prime):
        # Lossiness holds whenever delta' <= exp(-1/2); the grid stays below 0.1.
        back = cdp_to_dp(dp_to_cdp(DpBudget(epsilon=eps, delta=0.0)), delta_prime)
        assert back.epsilon >= eps

    @given(
        rho=st.floats(min_value=0.0, max_value=1e3, exclude_min=True),
        delta=st.floats(min_value=0.0, max_value=0.5),
        total_delta=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
        fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    )
    def test_optimize_uses_full_slack(self, rho, delta, total_delta, fraction):
        assume(total_delta > delta)
        budget = CdpBudget(delta=delta, rho=rho)
        slack = total_delta - budget.delta
        out = cdp_to_dp_optimize(budget, total_delta)
        assert out == cdp_to_dp(budget, slack)
        # epsilon only falls as delta' grows: no smaller delta' does better.
        assume(slack * fraction > 0.0)
        assert cdp_to_dp(budget, slack * fraction).epsilon >= out.epsilon

    def test_optimize_at_zero_rho_reports_the_whole_slack(self):
        # Every split gives epsilon 0; the whole total_delta is reported.
        out = cdp_to_dp_optimize(CdpBudget(delta=1e-6, rho=0.0), 1e-3)
        assert out == DpBudget(epsilon=0.0, delta=1e-6 + (1e-3 - 1e-6))
        assert out.delta == pytest.approx(1e-3, rel=1e-15)

    def test_optimize_errors(self):
        budget = CdpBudget(delta=1e-6, rho=0.5)
        for total_delta in (1e-7, 1e-6, 0.0, 1.0, True):
            with pytest.raises(ParameterError):
                cdp_to_dp_optimize(budget, total_delta)


class TestCompose:
    def test_pairwise_example(self):
        out = compose([CdpBudget(delta=0.1, rho=0.5), CdpBudget(delta=0.1, rho=0.5)])
        assert out.rho == pytest.approx(1.0, rel=1e-15)
        assert out.delta == pytest.approx(0.19, rel=1e-12)

    def test_pure_budgets_add(self):
        out = compose([CdpBudget(delta=0.0, rho=0.3), CdpBudget(delta=0.0, rho=0.7)])
        assert out == CdpBudget(delta=0.0, rho=1.0)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            compose([])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.5),
                st.floats(min_value=0.0, max_value=5.0),
            ),
            min_size=1,
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariant_bit_exact(self, raw, shuffler):
        budgets = [CdpBudget(delta=d, rho=r) for d, r in raw]
        reference = compose(budgets)
        shuffled = list(budgets)
        shuffler.shuffle(shuffled)
        assert compose(shuffled) == reference

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.5),
                st.floats(min_value=0.0, max_value=5.0),
            ),
            min_size=2,
            max_size=8,
        )
    )
    def test_delta_between_max_and_sum(self, raw):
        budgets = [CdpBudget(delta=d, rho=r) for d, r in raw]
        out = compose(budgets)
        deltas = [b.delta for b in budgets]
        assert out.delta >= max(deltas) - 1e-15
        assert out.delta <= min(1.0, sum(deltas)) + 1e-15

    def test_rhos_summing_past_the_float_range_are_refused_by_name(self):
        budgets = [CdpBudget(delta=0.1, rho=1e308), CdpBudget(delta=0.1, rho=1e308)]
        message = f"budgets = {budgets!r} gives no finite rho"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            compose(budgets)

    @given(
        st.lists(
            st.floats(min_value=0.0) | st.sampled_from([1e308, 1.7976931348623157e308, 0.0]),
            min_size=1,
            max_size=6,
        )
    )
    def test_finite_rho_keeps_the_fsum_bits(self, rhos):
        budgets = [CdpBudget(delta=0.0, rho=rho) for rho in rhos]
        try:
            expected = math.fsum(sorted(rhos))
        except OverflowError:
            expected = math.inf
        if math.isfinite(expected):
            assert compose(budgets).rho.hex() == expected.hex()
        else:
            with pytest.raises(ParameterError, match="no finite rho$"):
                compose(budgets)

    def test_regrouping_agrees(self):
        budgets = [CdpBudget(delta=d, rho=r) for d, r in [(0.01, 0.2), (0.03, 0.5), (0.2, 1.0)]]
        grouped = compose([compose(budgets[:2]), budgets[2]])
        flat = compose(budgets)
        assert grouped.rho == pytest.approx(flat.rho, rel=1e-12)
        assert grouped.delta == pytest.approx(flat.delta, rel=1e-12)


class TestTighterCompositionInRhoSpace:
    def test_two_gaussian_releases_grid(self):
        # Composing in rho-space then converting beats converting first:
        # eps'' = eps^2 + 2 eps sqrt(ln(1/d')) vs eps' = eps^2 + 2 eps sqrt(2 ln(1/d')).
        for eps in [0.1 * i for i in range(1, 21)]:
            for exponent in range(2, 9):
                delta_prime = 10.0**-exponent
                single = CdpBudget(delta=0.0, rho=eps * eps / 2.0)
                via_rho = cdp_to_dp(compose([single, single]), delta_prime).epsilon
                via_dp = 2.0 * cdp_to_dp(single, delta_prime).epsilon
                expected_rho_route = eps * eps + 2.0 * eps * math.sqrt(math.log(1.0 / delta_prime))
                expected_dp_route = eps * eps + 2.0 * eps * math.sqrt(2.0 * math.log(1.0 / delta_prime))
                assert via_rho == pytest.approx(expected_rho_route, rel=1e-12)
                assert via_dp == pytest.approx(expected_dp_route, rel=1e-12)
                assert via_rho < via_dp
