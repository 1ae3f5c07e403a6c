"""Unknown-domain release from a truncated top-k histogram.

When only the largest kbar counts plus the next one down are available, the
threshold is re-centred on that next count and drawn noisily, so the data-
dependent cut never leaks below-the-fold structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    is_reserved_label,
    normal_inverse_cdf,
    padding_label,
    sample_gaussian,
)
from .release import ReleaseReport

__all__ = [
    "TruncatedHistogram",
    "truncate_topk",
    "topk_threshold",
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
    ranked = sorted(h.items(), key=lambda item: (-item[1], item[0]))
    top = ranked[:kbar]
    next_count = ranked[kbar][1] if len(ranked) > kbar else 0
    for j in range(1, kbar - len(top) + 1):
        top.append((padding_label(j), 0))
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
    return sens.linf + math.sqrt(2.0) * (sens.linf / eps) * normal_inverse_cdf(1.0 - d / sens.l0)


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
    h = Histogram.coerce(h)
    kbar = check_int("kbar", kbar)
    sens = check_sensitivity(sens)
    eps = check_positive("epsilon", epsilon)
    d = check_probability("delta", delta)

    sigma = sens.linf / eps
    if sigma_override is not None:
        sigma = check_real("sigma_override", sigma_override)

    trunc = truncate_topk(h, kbar)
    threshold = topk_threshold(sens, eps, d)

    threshold_noise = sample_gaussian(sigma, rng) if sigma > 0.0 else 0.0
    noisy_threshold = threshold + trunc.next_count + threshold_noise
    if threshold_override is not None:
        noisy_threshold = float(threshold_override)

    released: dict[str, float] = {}
    for label, count in trunc.top:
        z = sample_gaussian(sigma, rng) if sigma > 0.0 else 0.0
        noisy = count + z
        if noisy > noisy_threshold and not is_reserved_label(label):
            released[label] = noisy

    return ReleaseReport(
        mechanism=MECHANISM_TAG,
        released=released,
        threshold=threshold,
        budget=CdpBudget(delta=d, rho=sens.l0 * eps * eps / 2.0),
        seed=rng.seed,
        params={
            "kbar": kbar,
            "epsilon": eps,
            "delta": d,
            "l0": sens.l0,
            "linf": sens.linf,
        },
    )
