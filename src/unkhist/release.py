"""Thresholded noisy release of a positive-count histogram over an unknown domain.

Only labels present in the input can ever be emitted; the threshold is
calibrated so that a label whose true count is at the sensitivity floor
survives with probability at most delta / l0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accountant import CdpBudget
from .core import (
    Histogram,
    IngestionError,
    ParameterError,
    RandomSource,
    SensitivityBound,
    check_int,
    check_positive,
    check_probability,
    check_real,
    check_sensitivity,
    check_threshold,
    normal_upper_quantile,
    sample_gaussian,
    sample_laplace,
)

__all__ = [
    "ReleaseReport",
    "threshold_laplace",
    "threshold_gaussian",
    "release_batch",
    "release",
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
    return check_threshold(sens.linf + (sens.linf / eps) * tail, eps, d)


def threshold_gaussian(sens: SensitivityBound, epsilon: float, delta: float) -> float:
    """T = linf + (linf/eps) * PhiInv(1 - delta/l0) for Gaussian noise of deviation linf/eps."""
    sens = check_sensitivity(sens)
    eps = check_positive("epsilon", epsilon)
    d = check_probability("delta", delta)
    z = normal_upper_quantile(d / sens.l0)
    return check_threshold(sens.linf + (sens.linf / eps) * z, eps, d)


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
) -> tuple[list[str], np.ndarray, np.ndarray, float]:
    """``trials`` runs of ``release`` on consecutive draws of rng, as arrays.

    Returns the labels in sorted order, the [trials, n] noisy counts, which
    of them are released, and the threshold they were compared against.
    Row i is what the i-th of ``trials`` consecutive ``release`` calls on
    rng would draw and release.
    """
    h = Histogram.coerce(h)
    sens = check_sensitivity(sens)
    eps = check_positive("epsilon", epsilon)
    d = check_probability("delta", delta)
    check_int("min_count", min_count)
    check_int("trials", trials)
    if noise not in ("laplace", "gaussian"):
        raise ParameterError(f"noise must be 'laplace' or 'gaussian', got {noise!r}")

    scale = sens.linf / eps
    if scale_override is not None:
        scale = check_real("scale_override", scale_override)
    threshold = _THRESHOLDS[noise](sens, eps, d)
    if threshold_override is not None:
        threshold = float(threshold_override)

    below = np.flatnonzero(h.counts < min_count)
    if below.size:
        label, count = h.items()[below[0]]
        raise IngestionError(f"count for {label!r} is {count}, below the ingestion floor {min_count}")
    counts = h.counts.astype(float)
    sampler = sample_laplace if noise == "laplace" else sample_gaussian
    shape = (trials, len(counts))
    noisy = counts + (sampler(scale, rng, shape) if scale > 0.0 else np.zeros(shape))
    return h.labels(), noisy, noisy > threshold, threshold


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
    Draws are made in sorted label order.

    scale_override and threshold_override are test hooks; scale 0 makes the
    release a deterministic count-above-threshold filter.
    """
    labels, noisy, kept, threshold = release_batch(
        h,
        sens,
        noise,
        epsilon,
        delta,
        rng,
        1,
        min_count=min_count,
        scale_override=scale_override,
        threshold_override=threshold_override,
    )
    survivors = np.flatnonzero(kept[0]).tolist()
    eps = float(epsilon)
    return ReleaseReport(
        mechanism=_TAGS[noise],
        released=dict(zip([labels[i] for i in survivors], noisy[0, survivors].tolist())),
        threshold=threshold,
        budget=CdpBudget(delta=float(delta), rho=sens.l0 * eps * eps / 2.0),
    )
