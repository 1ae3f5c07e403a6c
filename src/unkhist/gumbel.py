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

from .accountant import CdpBudget, epsilon_squared_rho
from .core import (
    BOTTOM,
    Histogram,
    ParameterError,
    RandomSource,
    check_finite,
    check_int,
    check_l0,
    check_noise,
    check_positive,
    check_probability,
    flagged_rows,
    sample_gumbel,
    screened_draws,
)
from .topk import above_noisy_threshold, decision_margin, truncate_topk

__all__ = [
    "RankedList",
    "gumbel_threshold",
    "gumbel_candidates",
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
    l0 = check_l0("l0_for_threshold", l0_for_threshold)
    eps = check_positive("epsilon", epsilon)
    d = check_probability("delta", delta)
    return check_finite("threshold", 1.0 + math.log(l0 / d) / eps, epsilon=eps, delta=d)


def gumbel_candidates(h: Histogram, k: int, kbar: int) -> tuple[list[str], np.ndarray, int]:
    """The entries Gumbel selection ranks for a list of k labels: the positive
    counts among the top kbar, as their labels and float counts in truncated
    order, and the (kbar+1)-th count the threshold is centred on."""
    check_l0("k", k)
    trunc = truncate_topk(h, kbar)
    if k > kbar:
        raise ParameterError("k must not exceed kbar")
    top = [(label, count) for label, count in trunc.top if count > 0]
    counts = np.array([count for _, count in top], dtype=float)
    return [label for label, _ in top], counts, trunc.next_count


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

    Candidates that clear the row's noisy threshold (above_noisy_threshold)
    are ranked by (-noisy count, label).  Returns ``order``, [trials, min(k, n)]
    candidate indices in rank order, and ``taken``, [trials] how many of
    them are released: row i's ranked list is labels[order[i, :taken[i]]],
    closed by the bottom marker when taken[i] < k.
    """
    width = min(k, len(labels))
    _, _, surviving, _, order = _ranked(counts, _label_ranks(labels), noise, cut, width, threshold_override)
    return order[:, :width], np.minimum(surviving.sum(axis=1), width)


def _label_ranks(labels: Sequence[str]) -> np.ndarray:
    """Each label's position in sorted order: the ranking's tie-break."""
    ranks = np.empty(len(labels), dtype=np.int64)
    ranks[sorted(range(len(labels)), key=labels.__getitem__)] = np.arange(len(labels))
    return ranks


def _ranked(
    counts: np.ndarray,
    ranks: np.ndarray,
    noise: np.ndarray,
    cut: float,
    width: int,
    threshold_override: float | None,
) -> tuple[np.ndarray, np.ndarray | float, np.ndarray, np.ndarray, np.ndarray]:
    """select_gumbel's ranking: above_noisy_threshold's noisy counts, their
    thresholds and survivors, the sort key (-noisy for a survivor, NaN,
    which sorts last, for the rest) and the first width + 1 candidates of
    each row in rank order, survivors first, each part by label."""
    noisy, surviving, threshold = above_noisy_threshold(counts, noise, cut, threshold_override)
    key = np.where(surviving, noisy, np.nan)
    np.negative(key, out=key)
    order = np.lexsort((np.broadcast_to(ranks, noisy.shape), key), axis=1)[:, : width + 1]
    return noisy, threshold, surviving, key, order


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
    calls on rng would draw and release.  From SCREEN_FLOOR draws on, the
    draws are screened (``core.screened_draws``), and a row is made exact if
    a noisy count lies within ``topk.decision_margin`` of its threshold, or
    two adjacent survivors among the first k + 1 ranked lie within it of
    each other.  The orders and counts taken are those of exact draws, bit
    for bit; the noisy values are never released.
    """
    labels, counts, next_count = gumbel_candidates(h, k, kbar)
    threshold = gumbel_threshold(l0_for_threshold, epsilon, delta)
    check_int("trials", trials)

    beta = check_noise(1.0 / float(epsilon), 2, epsilon=epsilon)  # a flag test subtracts two noisy values
    ranks, width, cut = _label_ranks(labels), min(k, len(labels)), threshold + next_count
    z, exact = screened_draws("gumbel", beta, rng, (trials, 1 + len(labels)), sample_gumbel)
    noisy, at, surviving, key, order = _ranked(counts, ranks, z, cut, width, threshold_override)
    survivors = surviving.sum(axis=1)
    if exact is not None:
        margin = decision_margin(beta, counts, cut, threshold_override)
        # Gaps between adjacent ranked keys: NaN unless both are survivors.
        close = np.diff(np.take_along_axis(key, order, axis=1), axis=1) <= margin
        near = np.abs(noisy - at) <= margin  # none at an infinite threshold_override
        rows = np.unique(np.concatenate((flagged_rows(near), flagged_rows(close))))
        _, _, surviving, _, order[rows] = _ranked(counts, ranks, exact(rows), cut, width, threshold_override)
        survivors[rows] = surviving.sum(axis=1)
    return labels, order[:, :width], np.minimum(survivors, width)


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
    eps, d = check_positive("epsilon", epsilon), check_probability("delta", delta)
    rho = check_finite("rho", epsilon_squared_rho(check_l0("k", k), eps, 8), k=k, epsilon=eps)
    budget = CdpBudget(delta=d, rho=rho)  # formed before any draw
    labels, order, taken = release_gumbel_topk_batch(
        h, k, kbar, l0_for_threshold, epsilon, delta, rng, 1, threshold_override=threshold_override
    )
    items = [labels[i] for i in order[0, : taken[0]].tolist()]
    if len(items) < k:
        items.append(BOTTOM)
    return RankedList(items=tuple(items)), budget
