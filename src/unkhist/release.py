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
    MAX_DRAW,
    Replay,
    check_threshold,
    gaussian_screen,
    laplace_screen,
    normal_upper_quantile,
    sample_gaussian,
    sample_laplace,
    screen_cut,
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
    scale, threshold = _calibrate(h, sens, noise, epsilon, delta, min_count, trials,
                                  scale_override, threshold_override)  # fmt: skip
    counts = h.counts.astype(float)
    sampler = sample_laplace if noise == "laplace" else sample_gaussian
    shape = (trials, len(counts))
    noisy = counts + (sampler(scale, rng, shape) if scale > 0.0 else np.zeros(shape))
    return h.labels(), noisy, noisy > threshold, threshold


def _calibrate(
    h: Histogram,
    sens: SensitivityBound,
    noise: str,
    epsilon: float,
    delta: float,
    min_count: int,
    trials: int,
    scale_override: float | None,
    threshold_override: float | None,
) -> tuple[float, float]:
    """The checks release and release_batch share, and the noise scale and
    threshold they draw and compare with."""
    if noise not in ("laplace", "gaussian"):
        raise ParameterError(f"noise must be 'laplace' or 'gaussian', got {noise!r}")
    threshold = _THRESHOLDS[noise](sens, epsilon, delta)
    check_int("min_count", min_count)
    check_int("trials", trials)

    scale = sens.linf / float(epsilon)
    if scale_override is not None:
        scale = check_real("scale_override", scale_override)
    if threshold_override is not None:
        threshold = float(threshold_override)

    below = np.flatnonzero(h.counts < min_count)
    if below.size:
        label, count = h.labels_at(below[:1])[0], int(h.counts[below[0]])
        raise IngestionError(f"count for {label!r} is {count}, below the ingestion floor {min_count}")
    return scale, threshold


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
    Draws are made in sorted label order; only survivors' labels are looked up.

    Only the draws that can show are transformed exactly (``_noisy_above``):
    an entry's draw is screened unless its count clears T by more than any
    draw, and made exact if its screened noisy count comes within
    ``core.screen_cut``'s margin of T.  The released values are those of
    ``release_batch`` bit for bit; only the run time depends on how many
    draws land near T, which, like the input size, is operator information
    and never part of the report.

    scale_override and threshold_override are test hooks; scale 0 makes the
    release a deterministic count-above-threshold filter.
    """
    h = Histogram.coerce(h)
    scale, threshold = _calibrate(h, sens, noise, epsilon, delta, min_count, 1,
                                  scale_override, threshold_override)  # fmt: skip
    if scale > 0.0:
        survivors, noisy = _noisy_above(h.counts, noise, scale, rng, threshold)
    else:
        noisy = h.counts.astype(float)
        survivors = np.flatnonzero(noisy > threshold)
        noisy = noisy[survivors]
    return ReleaseReport(
        mechanism=_TAGS[noise],
        released=dict(zip(h.labels_at(survivors), noisy.tolist())),
        threshold=threshold,
        budget=release_budget(sens, epsilon, delta),
    )


def release_budget(sens: SensitivityBound, epsilon: float, delta: float) -> CdpBudget:
    """(delta, l0 * epsilon^2 / 2), what a release or a top-kbar release
    spends whatever survives, for arguments its threshold has checked."""
    eps = float(epsilon)
    return CdpBudget(delta=float(delta), rho=sens.l0 * eps * eps / 2.0)


#: Entries per step of _noisy_above, whose screen keeps a dozen temporaries.
_SCREEN_STEP = 2**14


def _noisy_above(
    counts: np.ndarray, noise: str, scale: float, rng: RandomSource, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Where counts + sample_<noise>(scale, rng, counts.shape) exceeds the
    threshold, and the noisy counts there, bit for bit, for a flat array of
    counts.  The scale is checked as the sampler checks it.

    Only the draws that can show reach the sampler, which transforms them
    exactly from a ``core.Replay`` of their uniforms.  A count that clears
    the threshold by more than MAX_DRAW * scale is above it whatever its
    draw, so its draw goes to the sampler unscreened.  Every other draw is
    screened, and goes to the sampler only if its screened noisy count
    exceeds ``screen_cut`` for one draw and the largest such count.
    """
    if noise == "laplace":
        sampler, screen, name = sample_laplace, laplace_screen, "scale"
    else:
        sampler, screen, name = sample_gaussian, gaussian_screen, "sigma"
    check_positive(name, scale)
    positions, values = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    block = np.empty(min(counts.size, _SCREEN_STEP))
    for start in range(0, counts.size, _SCREEN_STEP):
        c = counts[start : start + _SCREEN_STEP].astype(float)
        u = rng.uniforms(c.size, out=block[: c.size])
        seen = c > threshold + MAX_DRAW * scale
        rest = np.flatnonzero(~seen)
        cut = screen_cut(threshold, scale, 1, c[rest].max(initial=0.0))
        seen[rest[c[rest] + screen(u[rest], scale) > cut]] = True
        seen = np.flatnonzero(seen)
        if seen.size:
            noisy = c[seen] + sampler(scale, Replay(u[seen]), seen.shape)
            kept = noisy > threshold
            positions.append(seen[kept] + start)
            values.append(noisy[kept])
    return np.concatenate(positions), np.concatenate(values)
