"""Thresholded noisy release of a positive-count histogram over an unknown domain.

Only labels present in the input can ever be emitted; the threshold is
calibrated so that a label whose true count is at the sensitivity floor
survives with probability at most delta / l0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accountant import CdpBudget, epsilon_squared_rho
from .core import (
    MAX_DRAW,
    Histogram,
    IngestionError,
    ParameterError,
    RandomSource,
    SensitivityBound,
    check_finite,
    check_int,
    check_noise,
    check_positive,
    check_probability,
    check_real,
    check_sensitivity,
    gaussian_threshold,
    sample_gaussian,
    sample_laplace,
    screen_cut,
    screened_draws,
)

__all__ = [
    "ReleaseReport",
    "threshold_laplace",
    "threshold_gaussian",
    "release_batch",
    "release",
    "release_budget",
]


@dataclass
class ReleaseReport:
    """A released noisy histogram plus the exact budget the run spent."""

    mechanism: str
    released: dict[str, float]
    threshold: float
    budget: CdpBudget


def threshold_laplace(sens: SensitivityBound, epsilon: float, delta: float) -> float:
    """T = linf + (linf/eps) * ln(l0 / (2*delta)) for Laplace noise of scale linf/eps."""
    sens = check_sensitivity(sens)
    eps = check_positive("epsilon", epsilon)
    d = check_probability("delta", delta)
    tail = math.log(sens.l0 / (2.0 * d))
    return check_finite("threshold", sens.linf + (sens.linf / eps) * tail, epsilon=eps, delta=d)


def threshold_gaussian(sens: SensitivityBound, epsilon: float, delta: float) -> float:
    """T = linf + (linf/eps) * PhiInv(1 - delta/l0) for Gaussian noise of deviation linf/eps."""
    sens = check_sensitivity(sens)
    eps = check_positive("epsilon", epsilon)
    d = check_probability("delta", delta)
    return gaussian_threshold(sens.linf, sens.linf / eps, d / sens.l0, 1.0, epsilon=eps, delta=d)


_TAGS = {"laplace": "unknown-domain-laplace", "gaussian": "unknown-domain-gaussian"}
_THRESHOLDS = {"laplace": threshold_laplace, "gaussian": threshold_gaussian}


def release_batch(
    h: Histogram,
    sens: SensitivityBound,
    noise: str,
    epsilon: float,
    delta: float,
    rng: RandomSource,
    trials: int,
    *,
    min_count: int = 1,
    scale_override: float | None = None,
    threshold_override: float | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """``trials`` runs of ``release`` on consecutive draws of rng, as arrays.

    Returns which entries each run released, a [trials, n] mask over the
    entries in sorted label order (``h.labels()``, or ``h.labels_at`` for a
    few), their noisy counts in row-major order, and the threshold they
    cleared.  Row i is what the i-th of ``trials`` consecutive ``release``
    calls on rng would release: the draws are made row by row, in sorted
    label order within a row.

    The block is drawn by ``core.screened_draws``, and a draw is made exact
    if its screened noisy count exceeds ``screen_cut`` for one draw and the
    largest count a draw can keep below T: the mask and the values are
    those of exact draws, bit for bit.  Below ``core.SCREEN_FLOOR`` draws
    every draw is exact; at scale 0 nothing is drawn.
    """
    h = Histogram.coerce(h)
    if noise not in ("laplace", "gaussian"):
        raise ParameterError(f"noise must be 'laplace' or 'gaussian', got {noise!r}")
    threshold = _THRESHOLDS[noise](sens, epsilon, delta)
    check_int("min_count", min_count)
    check_int("trials", trials)
    if scale_override is None:
        scale, named = sens.linf / float(epsilon), {"epsilon": epsilon, "linf": sens.linf}
    else:
        scale, named = check_real("scale_override", scale_override), {"scale_override": scale_override}
    if threshold_override is not None:
        threshold = float(threshold_override)
    counts = h.counts
    below = (counts < min_count).nonzero()[0]
    if below.size:
        label, count = h.labels_at(below[:1])[0], int(counts[below[0]])
        raise IngestionError(f"count for {label!r} is {count}, below the ingestion floor {min_count}")

    check_noise(scale, 1, **named)
    c = counts.astype(float)
    sampler = sample_laplace if noise == "laplace" else sample_gaussian
    noisy, exact = screened_draws(noise, scale, rng, (trials, c.size), sampler)
    noisy += c  # screened, unless exact is None
    if exact is not None:
        largest = c[c <= threshold + MAX_DRAW * scale].max(initial=0.0)  # larger ones clear any cut
        seen = noisy > screen_cut(threshold, scale, 1, largest)
        noisy[seen] = np.broadcast_to(c, seen.shape)[seen] + exact(seen)
    kept = noisy > threshold
    return kept, noisy[kept], threshold


def release(
    h: Histogram,
    sens: SensitivityBound,
    noise: str,
    epsilon: float,
    delta: float,
    rng: RandomSource,
    *,
    min_count: int = 1,
    scale_override: float | None = None,
    threshold_override: float | None = None,
) -> ReleaseReport:
    """Add one independent draw per entry and keep (label, noisy count) above T.

    The noise scale is fixed at linf/epsilon by the calibration, and the run
    spends (delta, l0 * epsilon^2 / 2) regardless of what survives.  Entries
    must have count >= min_count (default 1: only positive-count items are
    accepted; raise the floor for histograms truncated at a known value).
    The run is row 0 of ``release_batch``, which draws in sorted label order
    and transforms exactly only the draws that can show (``core.screen``);
    only survivors' labels are looked up.  The run time depends on how many
    draws land near T: like the input size, operator information, never
    part of the report.

    scale_override and threshold_override are test hooks; scale 0 makes the
    release a deterministic count-above-threshold filter that draws nothing.
    A scale whose draws could overflow is refused (``core.check_noise``).
    """
    h = Histogram.coerce(h)
    budget = release_budget(sens, epsilon, delta)
    kept, values, threshold = release_batch(
        h, sens, noise, epsilon, delta, rng, 1, min_count=min_count,
        scale_override=scale_override, threshold_override=threshold_override,
    )  # fmt: skip
    released = dict(zip(h.labels_at(kept[0].nonzero()[0]), values.tolist()))
    return ReleaseReport(mechanism=_TAGS[noise], released=released, threshold=threshold, budget=budget)


def release_budget(sens: SensitivityBound, epsilon: float, delta: float) -> CdpBudget:
    """(delta, l0 * epsilon^2 / 2), what a release or a top-kbar release
    spends whatever survives, refused by name if rho overflows."""
    l0 = check_sensitivity(sens).l0
    eps = check_positive("epsilon", epsilon)
    d = check_probability("delta", delta)
    return CdpBudget(delta=d, rho=check_finite("rho", epsilon_squared_rho(l0, eps, 2), l0=l0, epsilon=eps))
