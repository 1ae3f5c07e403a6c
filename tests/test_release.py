"""Thresholded histogram release: threshold formulas, budgets, tail calibration."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unkhist.accountant import CdpBudget
from unkhist.core import (
    MAX_COUNT,
    Histogram,
    IngestionError,
    ParameterError,
    RandomSource,
    SensitivityBound,
)
from unkhist.release import release, threshold_gaussian, threshold_laplace

# mpmath (50 digits).
T_LAP_TIGHT = 14.122363377404329  # 1 + ln(1/(2e-6))
T_LAP_WIDE = 60.034630954096878  # 2 + 4*ln(2e6)
T_GAUSS_TIGHT = 5.7534243088228989  # 1 + PhiInv(1 - 1e-6)
T_GAUSS_HALF = 2.2879146517744504  # 1 + 0.5*PhiInv(0.995)

UNIT = SensitivityBound(l0=1, linf=1)


class TestThresholdLaplace:
    def test_log_term_vanishes(self):
        assert threshold_laplace(UNIT, 1.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_tight_delta(self):
        assert threshold_laplace(UNIT, 1.0, 1e-6) == pytest.approx(T_LAP_TIGHT, abs=1e-9)

    def test_wide_sensitivity(self):
        sens = SensitivityBound(l0=4, linf=2)
        assert threshold_laplace(sens, 0.5, 1e-6) == pytest.approx(T_LAP_WIDE, abs=1e-9)

    def test_unbounded_l0_rejected(self):
        with pytest.raises(ParameterError):
            threshold_laplace(SensitivityBound(l0=math.inf, linf=1), 1.0, 0.1)


class TestThresholdGaussian:
    def test_median_term_vanishes(self):
        assert threshold_gaussian(UNIT, 1.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_tight_delta(self):
        assert threshold_gaussian(UNIT, 1.0, 1e-6) == pytest.approx(T_GAUSS_TIGHT, abs=1e-9)

    def test_split_l0(self):
        sens = SensitivityBound(l0=2, linf=1)
        assert threshold_gaussian(sens, 2.0, 0.01) == pytest.approx(T_GAUSS_HALF, abs=1e-9)


@given(
    l0=st.integers(min_value=1, max_value=10),
    linf=st.floats(min_value=0.1, max_value=5.0),
    eps=st.floats(min_value=0.05, max_value=5.0),
    delta=st.floats(min_value=1e-9, max_value=0.2),
    bump=st.floats(min_value=0.01, max_value=1.0),
)
def test_threshold_monotonicity(l0, linf, eps, delta, bump):
    """T falls as eps or delta grow and rises as l0 or linf grow, both variants."""
    sens = SensitivityBound(l0=l0, linf=linf)
    for formula in (threshold_laplace, threshold_gaussian):
        t = formula(sens, eps, delta)
        assert formula(sens, eps + bump, delta) < t
        assert formula(sens, eps, min(delta * (1 + bump), 0.999)) < t
        assert formula(SensitivityBound(l0=l0 + 1, linf=linf), eps, delta) > t
        assert formula(SensitivityBound(l0=l0, linf=linf + bump), eps, delta) > t


class TestRelease:
    def test_empty_histogram_still_spends(self):
        report = release(Histogram(), UNIT, "gaussian", 1.0, 1e-6, RandomSource(1))
        assert report.released == {}
        assert report.budget == CdpBudget(delta=1e-6, rho=0.5)

    def test_budget_scales_with_l0(self):
        sens = SensitivityBound(l0=3, linf=2)
        report = release({"a": 5}, sens, "laplace", 0.5, 0.01, RandomSource(1))
        assert report.budget == CdpBudget(delta=0.01, rho=3 * 0.25 / 2)

    def test_output_subset_of_input(self):
        h = {"a": 3, "b": 8, "c": 20, "d": 1}
        for seed in range(50):
            report = release(h, UNIT, "gaussian", 1.0, 0.05, RandomSource(seed))
            assert set(report.released) <= set(h)
            assert all(v > report.threshold for v in report.released.values())

    def test_zero_scale_hook_is_exact_filter(self):
        h = {"low": 2, "edge": 6, "high": 9}
        report = release(
            h, UNIT, "gaussian", 1.0, 1e-6, RandomSource(0), scale_override=0.0
        )
        # T ~ 5.75; strict inequality keeps only counts above it.
        assert report.released == {"edge": 6.0, "high": 9.0}
        at_threshold = release(
            {"x": 3}, UNIT, "gaussian", 1.0, 1e-6, RandomSource(0),
            scale_override=0.0, threshold_override=3.0,
        )
        assert at_threshold.released == {}

    def test_positive_count_ingestion(self):
        with pytest.raises(IngestionError):
            release({"a": 0}, UNIT, "gaussian", 1.0, 0.05, RandomSource(0))

    def test_raised_floor(self):
        release({"a": 5}, UNIT, "gaussian", 1.0, 0.05, RandomSource(0), min_count=5)
        with pytest.raises(IngestionError):
            release({"a": 4}, UNIT, "gaussian", 1.0, 0.05, RandomSource(0), min_count=5)

    def test_huge_counts_read_as_their_nearest_doubles(self):
        counts = {"a": MAX_COUNT, "b": 2**53 + 1, "c": 2**62 + 2**9 + 1}
        report = release(
            Histogram(counts), SensitivityBound(1, 1), "laplace", 1.0, 0.5, RandomSource(0),
            scale_override=0.0,
        )  # fmt: skip
        assert report.released == {label: float(count) for label, count in counts.items()}

    def test_unknown_noise_kind(self):
        with pytest.raises(ParameterError):
            release({"a": 9}, UNIT, "cauchy", 1.0, 0.05, RandomSource(3))

    def test_seeded_runs_identical(self):
        h = {"a": 3, "b": 8, "c": 20}
        first = release(h, UNIT, "laplace", 1.0, 0.05, RandomSource(11))
        second = release(h, UNIT, "laplace", 1.0, 0.05, RandomSource(11))
        assert first.released == second.released
        assert first.threshold == second.threshold


class TestReleaseTails:
    """Monte-Carlo frequencies against exact tail oracles."""

    def test_huge_count_always_survives(self):
        h = {"a": 10**6}
        hits = 0
        master = RandomSource(500)
        trials = 10**5
        for i in range(trials):
            report = release(h, UNIT, "gaussian", 1.0, 1e-6, master.child(i))
            hits += "a" in report.released
        # Survival probability exceeds 1 - 1e-9: every trial must release.
        assert hits == trials

    def test_boundary_count_survives_at_rate_delta(self):
        # Pr[1 + N(0,1) > 1 + PhiInv(1-delta)] = delta exactly.
        h = {"a": 1}
        delta = 0.05
        hits = 0
        master = RandomSource(501)
        trials = 10**5
        for i in range(trials):
            report = release(h, UNIT, "gaussian", 1.0, delta, master.child(i))
            hits += "a" in report.released
        assert hits / trials == pytest.approx(delta, abs=0.004)

    def test_union_bound_over_l0_items(self):
        # m <= l0 items at count exactly linf: Pr[any released] <= delta.
        sens = SensitivityBound(l0=3, linf=2)
        h = {"a": 2, "b": 2, "c": 2}
        delta = 0.05
        trials = 2 * 10**4
        for noise, seed in (("laplace", 502), ("gaussian", 503)):
            hits = 0
            master = RandomSource(seed)
            for i in range(trials):
                report = release(h, sens, noise, 1.0, delta, master.child(i))
                hits += bool(report.released)
            upper_slack = delta + 5 * math.sqrt(delta / trials)
            assert hits / trials <= upper_slack
