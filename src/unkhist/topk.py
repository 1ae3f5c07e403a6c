"""Unknown-domain release from a truncated top-k histogram.

When only the largest kbar counts plus the next one down are available, the
threshold is re-centred on that next count and drawn noisily, so the data-
dependent cut never leaks below-the-fold structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accountant import CdpBudget
from .core import (
    Histogram,
    ParameterError,
    RandomSource,
    SensitivityBound,
    check_int,
    check_positive,
    check_probability,
    check_real,
    check_sensitivity,
    check_threshold,
    is_reserved_label,
    normal_upper_quantile,
    padding_label,
    sample_gaussian,
)
from .release import ReleaseReport

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
    """The kbar largest entries (sentinel-padded) plus the (kbar+1)-th count."""

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

    Histograms with fewer than kbar entries are padded with zero-count
    sentinels so the output shape never reveals the input size.
    """
    h = Histogram.coerce(h)
    kbar = check_int("kbar", kbar)
    counts = h.counts
    ranked, next_count = np.arange(len(counts)), 0
    if len(counts) > kbar:
        # Only counts at or above the kbar-th largest can make the cut.
        part = np.partition(counts, (-kbar - 1, -kbar))
        ranked, next_count = np.flatnonzero(counts >= part[-kbar]), int(part[-kbar - 1])
    # Labels are in sorted order, so a stable sort keeps tied counts in label order.
    ranked = ranked[np.argsort(-counts[ranked], kind="stable")][:kbar].tolist()
    labels = h.labels()
    top = [(labels[i], count) for i, count in zip(ranked, counts[ranked].tolist())]
    top += [(padding_label(j), 0) for j in range(1, kbar - len(top) + 1)]
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
    z = normal_upper_quantile(d / sens.l0)
    return check_threshold(sens.linf + math.sqrt(2.0) * (sens.linf / eps) * z, eps, d)


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

    Returns the truncated histogram, the [trials, kbar] noisy counts of its
    top entries, which of them are released, and the public T.  Row i is
    what the i-th of ``trials`` consecutive ``release_topk`` calls on rng
    would draw and release.
    """
    h = Histogram.coerce(h)
    kbar = check_int("kbar", kbar)
    sens = check_sensitivity(sens)
    eps = check_positive("epsilon", epsilon)
    d = check_probability("delta", delta)
    check_int("trials", trials)

    sigma = sens.linf / eps
    if sigma_override is not None:
        sigma = check_real("sigma_override", sigma_override)

    trunc = truncate_topk(h, kbar)
    threshold = topk_threshold(sens, eps, d)
    counts = np.array([count for _, count in trunc.top], dtype=float)
    real = np.array([not is_reserved_label(label) for label, _ in trunc.top], dtype=bool)
    # Column 0 is the threshold draw, then one per top entry.
    shape = (trials, 1 + kbar)
    z = sample_gaussian(sigma, rng, shape) if sigma > 0.0 else np.zeros(shape)
    noisy = counts + z[:, 1:]
    if threshold_override is None:
        noisy_threshold = threshold + trunc.next_count + z[:, :1]
    else:
        noisy_threshold = float(threshold_override)
    return trunc, noisy, (noisy > noisy_threshold) & real, threshold


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
    then one per top entry in list order (sentinels included).  Sentinels are
    never emitted, and the report records only the public T: the realized
    noisy threshold depends on the unreleased (kbar+1)-th count.

    sigma_override and threshold_override are test hooks; threshold_override
    replaces the noisy threshold the counts are compared against.
    """
    trunc, noisy, kept, threshold = release_topk_batch(
        h,
        kbar,
        sens,
        epsilon,
        delta,
        rng,
        1,
        sigma_override=sigma_override,
        threshold_override=threshold_override,
    )
    survivors = np.flatnonzero(kept[0]).tolist()
    eps = float(epsilon)
    return ReleaseReport(
        mechanism=MECHANISM_TAG,
        released=dict(zip([trunc.top[i][0] for i in survivors], noisy[0, survivors].tolist())),
        threshold=threshold,
        budget=CdpBudget(delta=float(delta), rho=sens.l0 * eps * eps / 2.0),
    )
