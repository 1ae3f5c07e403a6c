"""One-shot Gumbel top-k over a truncated histogram.

Gumbel noise on the counts makes the noisy argmax a softmax sample, so the
ranked list (no counts are ever emitted) costs exponential-mechanism-grade
budget: k * epsilon^2 / 8.  Input histograms are assumed (inf, 1)-sensitive:
one user moves each count by at most 1, with no bound on how many labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .accountant import CdpBudget
from .core import (
    BOTTOM,
    Histogram,
    ParameterError,
    RandomSource,
    check_int,
    check_positive,
    check_probability,
    check_threshold,
    sample_gumbel,
)
from .topk import truncate_topk

__all__ = [
    "RankedList",
    "gumbel_threshold",
    "select_gumbel",
    "release_gumbel_topk_batch",
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
    return check_threshold(1.0 + math.log(l0 / d) / eps, eps, d)


def select_gumbel(
    counts: np.ndarray,
    labels: Sequence[str],
    noise: np.ndarray,
    cut: float,
    k: int,
    threshold_override: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The selection rule, one row per trial, over noise [trials, 1 + n]
    whose column 0 is the threshold draw and the rest one per candidate.

    Candidates whose noisy count counts + noise[:, 1:] clears the row's
    noisy threshold cut + noise[:, 0] (threshold_override replaces it) are
    ranked by (-noisy count, label).  Returns ``order``, [trials, min(k, n)]
    candidate indices in rank order, and ``taken``, [trials] how many of
    them are released: row i's ranked list is labels[order[i, :taken[i]]],
    closed by the bottom marker when taken[i] < k.
    """
    noisy = counts + noise[:, 1:]
    if threshold_override is None:
        noisy_threshold = cut + noise[:, :1]
    else:
        noisy_threshold = float(threshold_override)
    surviving = noisy > noisy_threshold
    ranks = np.empty(len(labels), dtype=np.int64)
    ranks[sorted(range(len(labels)), key=labels.__getitem__)] = np.arange(len(labels))
    keys = (np.broadcast_to(ranks, noisy.shape), np.where(surviving, -noisy, np.inf))
    order = np.lexsort(keys, axis=1)[:, :k]
    taken = np.minimum(surviving.sum(axis=1), k)
    return order, taken


def release_gumbel_topk_batch(
    h: Histogram,
    k: int,
    kbar: int,
    l0_for_threshold: int,
    epsilon: float,
    delta: float,
    rng: RandomSource,
    trials: int,
    *,
    threshold_override: float | None = None,
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """``trials`` runs of ``release_gumbel_topk`` on consecutive draws of rng,
    as the candidate labels and select_gumbel's (order, taken).

    Row i is what the i-th of ``trials`` consecutive ``release_gumbel_topk``
    calls on rng would draw and release.
    """
    h = Histogram.coerce(h)
    check_int("k", k)
    check_int("kbar", kbar)
    if k > kbar:
        raise ParameterError("k must not exceed kbar")
    l0 = check_int("l0_for_threshold", l0_for_threshold)
    eps = check_positive("epsilon", epsilon)
    d = check_probability("delta", delta)
    check_int("trials", trials)

    beta = 1.0 / eps
    threshold = gumbel_threshold(l0, eps, d)
    trunc = truncate_topk(h, kbar)
    candidates = [(label, count) for label, count in trunc.top if count > 0]
    labels = [label for label, _ in candidates]
    counts = np.array([count for _, count in candidates], dtype=float)
    z = sample_gumbel(beta, rng, (trials, 1 + len(labels)))
    order, taken = select_gumbel(
        counts, labels, z, threshold + trunc.next_count, k, threshold_override
    )
    return labels, order, taken


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
    labels, order, taken = release_gumbel_topk_batch(
        h,
        k,
        kbar,
        l0_for_threshold,
        epsilon,
        delta,
        rng,
        1,
        threshold_override=threshold_override,
    )
    items = [labels[i] for i in order[0, : taken[0]].tolist()]
    if len(items) < k:
        items.append(BOTTOM)
    eps = float(epsilon)
    return RankedList(items=tuple(items)), CdpBudget(delta=float(delta), rho=k * eps * eps / 8.0)
