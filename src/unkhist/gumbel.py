"""One-shot Gumbel top-k over a truncated histogram.

Gumbel noise on the counts makes the noisy argmax a softmax sample, so the
ranked list (no counts are ever emitted) costs exponential-mechanism-grade
budget: k * epsilon^2 / 8.  Input histograms are assumed (inf, 1)-sensitive:
one user moves each count by at most 1, with no bound on how many labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .accountant import CdpBudget
from .core import (
    BOTTOM,
    Histogram,
    ParameterError,
    RandomSource,
    check_int,
    check_positive,
    check_probability,
    sample_gumbel,
)
from .topk import truncate_topk

__all__ = [
    "RankedList",
    "gumbel_threshold",
    "release_gumbel_topk",
]

MECHANISM_TAG = "gumbel-topk"


@dataclass(frozen=True)
class RankedList:
    """An ordered list of at most k labels, optionally closed by the bottom marker."""

    items: tuple[str, ...]

    def __post_init__(self) -> None:
        seen = set()
        for position, label in enumerate(self.items):
            if label in seen:
                raise ParameterError(f"ranked list repeats label {label!r}")
            seen.add(label)
            if label == BOTTOM and position != len(self.items) - 1:
                raise ParameterError("the bottom marker may only close the list")

    @property
    def labels(self) -> tuple[str, ...]:
        """The ranked labels without the bottom marker."""
        if self.items and self.items[-1] == BOTTOM:
            return self.items[:-1]
        return self.items


def gumbel_threshold(l0_for_threshold: int, epsilon: float, delta: float) -> float:
    """T = 1 + (1/eps) * ln(l0 / delta)."""
    l0 = check_int("l0_for_threshold", l0_for_threshold)
    eps = check_positive("epsilon", epsilon)
    d = check_probability("delta", delta)
    return 1.0 + math.log(l0 / d) / eps


def release_gumbel_topk(
    h: Histogram,
    k: int,
    kbar: int,
    l0_for_threshold: int,
    epsilon: float,
    delta: float,
    rng: RandomSource,
    *,
    threshold_override: float | None = None,
) -> tuple[RankedList, CdpBudget]:
    """Rank the top-kbar positive counts by Gumbel-noised value above a noisy cut.

    Draw order is fixed: the threshold Gumbel first, then one per positive
    top-kbar entry in truncated order.  Survivors are sorted by noisy count,
    truncated to k, and closed with the bottom marker when fewer than k
    survive.  Only the order is released, never the noisy values.

    threshold_override is a test hook replacing the noisy threshold
    (-inf disables thresholding entirely).
    """
    h = Histogram.coerce(h)
    check_int("k", k)
    check_int("kbar", kbar)
    if k > kbar:
        raise ParameterError("k must not exceed kbar")
    l0 = check_int("l0_for_threshold", l0_for_threshold)
    eps = check_positive("epsilon", epsilon)
    d = check_probability("delta", delta)

    beta = 1.0 / eps
    threshold = gumbel_threshold(l0, eps, d)
    trunc = truncate_topk(h, kbar)

    noisy_threshold = threshold + trunc.next_count + sample_gumbel(beta, rng)
    if threshold_override is not None:
        noisy_threshold = float(threshold_override)

    survivors: list[tuple[float, str]] = []
    for label, count in trunc.top:
        if count <= 0:
            continue
        noisy = count + sample_gumbel(beta, rng)
        if noisy > noisy_threshold:
            survivors.append((noisy, label))

    survivors.sort(key=lambda pair: (-pair[0], pair[1]))
    items = [label for _, label in survivors[:k]]
    if len(items) < k:
        items.append(BOTTOM)

    budget = CdpBudget(delta=d, rho=k * eps * eps / 8.0)
    return RankedList(items=tuple(items)), budget
