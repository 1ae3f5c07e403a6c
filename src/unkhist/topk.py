"""Unknown-domain release from a truncated top-k histogram.

When only the largest kbar counts plus the next one down are available, the
threshold is re-centred on that next count and drawn noisily, so the data-
dependent cut never leaks below-the-fold structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Histogram,
    ParameterError,
    RandomSource,
    SensitivityBound,
    check_int,
    check_noise,
    check_positive,
    check_probability,
    check_real,
    check_sensitivity,
    flagged_rows,
    gaussian_threshold,
    sample_gaussian,
    screen_margin,
    screened_draws,
)
from .release import ReleaseReport, release_budget

__all__ = [
    "TruncatedHistogram",
    "truncate_topk",
    "topk_threshold",
    "release_topk_batch",
    "release_topk",
]

MECHANISM_TAG = "topk-gaussian"


@dataclass(frozen=True)
class TruncatedHistogram:
    """At most kbar largest entries plus the (kbar+1)-th count (0 if there is none)."""

    top: tuple[tuple[str, int], ...]
    next_count: int

    def __post_init__(self) -> None:
        counts = [c for _, c in self.top]
        if any(a < b for a, b in zip(counts, counts[1:])):
            raise ParameterError("top counts must be non-increasing")
        if counts and counts[-1] < self.next_count:
            raise ParameterError("every top count must be >= next_count")
        check_int("next_count", self.next_count, 0)


def truncate_topk(h: Histogram, kbar: int) -> TruncatedHistogram:
    """Select the kbar largest counts (ties broken by label order) and the next count.

    A histogram with at most kbar entries gives them all, and next count 0.
    Nothing is padded: the mechanisms release only labels of the input, so
    a short list changes no report, only the number of draws a call makes.
    """
    h = Histogram.coerce(h)
    kbar = check_int("kbar", kbar)
    labels, counts = h.columns
    ranked, next_count = range(len(counts)), 0
    if len(counts) > kbar:
        # Only counts at or above the kbar-th largest can make the cut.
        part = np.partition(counts, (-kbar - 1, -kbar))
        ranked, next_count = np.flatnonzero(counts >= part[-kbar]).tolist(), int(part[-kbar - 1])
    # Sorted by label, then stably by count: the (-count, label) order, whatever
    # the order of the columns, and only the candidates are sorted.
    ranked = np.array(sorted(ranked, key=labels.__getitem__), dtype=np.intp)
    ranked = ranked[np.argsort(-counts[ranked], kind="stable")][:kbar].tolist()
    top = [(labels[i], count) for i, count in zip(ranked, counts[ranked].tolist())]
    return TruncatedHistogram(top=tuple(top), next_count=next_count)


def topk_threshold(sens: SensitivityBound, epsilon: float, delta: float) -> float:
    """T = linf + sqrt(2)*(linf/eps)*PhiInv(1 - delta/l0).

    The sqrt(2) absorbs the extra Gaussian on the data-dependent threshold:
    a count and the threshold are compared through the difference of two
    independent draws.
    """
    sens = check_sensitivity(sens)
    eps = check_positive("epsilon", epsilon)
    d = check_probability("delta", delta)
    return gaussian_threshold(sens.linf, sens.linf / eps, d / sens.l0, math.sqrt(2.0), epsilon=eps, delta=d)


def above_noisy_threshold(
    counts: np.ndarray, noise: np.ndarray, cut: float, threshold_override: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | float]:
    """The noisy counts counts + noise[:, 1:], one row per trial, which of
    them exceed the row's noisy threshold cut + noise[:, 0], and that
    threshold, [trials, 1].

    Column 0 of noise is the threshold draw, the rest one per count.
    threshold_override replaces the noisy threshold.
    """
    noisy = counts + noise[:, 1:]
    threshold = cut + noise[:, :1] if threshold_override is None else float(threshold_override)
    return noisy, noisy > threshold, threshold


def decision_margin(scale: float, counts: np.ndarray, cut: float,
                    threshold_override: float | None = None) -> float:
    """``core.screen_margin`` for comparing two of above_noisy_threshold's
    values: two noisy counts, or one and its row's threshold.  An infinite
    threshold_override adds nothing: every noisy count lies infinitely far
    from it."""
    threshold = cut if threshold_override is None else float(threshold_override)
    count = 2.0 * counts.max(initial=0.0) + (abs(threshold) if math.isfinite(threshold) else 0.0)
    return screen_margin(scale, 2, count)


def release_topk_batch(
    h: Histogram,
    kbar: int,
    sens: SensitivityBound,
    epsilon: float,
    delta: float,
    rng: RandomSource,
    trials: int,
    *,
    sigma_override: float | None = None,
    threshold_override: float | None = None,
) -> tuple[TruncatedHistogram, np.ndarray, np.ndarray, float]:
    """``trials`` runs of ``release_topk`` on consecutive draws of rng, as arrays.

    Returns the truncated histogram, the [trials, len(top)] noisy counts of
    its top entries, which of them are released, and the public T.  Each
    row draws the threshold, then one value per top entry: row i is what
    the i-th of ``trials`` consecutive ``release_topk`` calls on rng would
    draw and release.

    From SCREEN_FLOOR draws on, the draws are screened
    (``core.screened_draws``), and a row is made exact if a noisy count
    exceeds its threshold less ``decision_margin``: if it releases an entry
    or comes near to.  The mask and the released values are those of
    exact draws, bit for bit; the unreleased noisy counts of the other rows
    are screened values.
    """
    trunc = truncate_topk(h, kbar)
    threshold = topk_threshold(sens, epsilon, delta)
    check_int("trials", trials)
    # Each flag test subtracts two noisy values: two draws.
    if sigma_override is None:
        sigma = check_noise(sens.linf / float(epsilon), 2, epsilon=epsilon, linf=sens.linf)
    else:
        sigma = check_noise(check_real("sigma_override", sigma_override), 2, sigma_override=sigma_override)

    counts = np.array([count for _, count in trunc.top], dtype=float)
    shape = (trials, 1 + len(counts))
    cut = threshold + trunc.next_count
    z, exact = screened_draws("gaussian", sigma, rng, shape, sample_gaussian)
    if exact is not None:
        noisy, _, at = above_noisy_threshold(counts, z, cut, threshold_override)
        margin = decision_margin(sigma, counts, cut, threshold_override)
        rows = np.unique(flagged_rows(noisy - at >= -margin))
        z[rows] = exact(rows)
    noisy, kept, _ = above_noisy_threshold(counts, z, cut, threshold_override)
    return trunc, noisy, kept, threshold


def release_topk(
    h: Histogram,
    kbar: int,
    sens: SensitivityBound,
    epsilon: float,
    delta: float,
    rng: RandomSource,
    *,
    sigma_override: float | None = None,
    threshold_override: float | None = None,
) -> ReleaseReport:
    """Release noisy counts from the top-kbar entries that clear a noisy threshold.

    Draw order is fixed for reproducibility: the threshold Gaussian first,
    then one per top entry in list order, at most kbar of them.  The report
    records only the public T: the realized noisy threshold depends on the
    unreleased (kbar+1)-th count.

    sigma_override and threshold_override are test hooks; threshold_override
    replaces the noisy threshold the counts are compared against.  Sigma 0
    draws nothing; one whose draws could overflow is refused (``core.check_noise``).
    """
    budget = release_budget(sens, epsilon, delta)
    hooks = {"sigma_override": sigma_override, "threshold_override": threshold_override}
    trunc, noisy, kept, threshold = release_topk_batch(h, kbar, sens, epsilon, delta, rng, 1, **hooks)
    survivors = np.flatnonzero(kept[0]).tolist()
    return ReleaseReport(
        mechanism=MECHANISM_TAG,
        released=dict(zip([trunc.top[i][0] for i in survivors], noisy[0, survivors].tolist())),
        threshold=threshold,
        budget=budget,
    )
