"""Shared domain types, seeded randomness, noise samplers, and normal special functions.

All noise is sampled by inverse-CDF transform of a single uniform draw, so
every mechanism run is a pure function of its seed and the draws can be
replayed or paired antithetically in tests.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "ParameterError",
    "IngestionError",
    "BOTTOM",
    "RESERVED_LABEL_PREFIX",
    "MAX_COUNT",
    "is_reserved_label",
    "validate_label",
    "padding_label",
    "Histogram",
    "SensitivityBound",
    "RandomSource",
    "laplace_inverse_cdf",
    "gumbel_inverse_cdf",
    "sample_laplace",
    "sample_gaussian",
    "sample_gumbel",
    "normal_cdf",
    "normal_inverse_cdf",
]


class ParameterError(ValueError):
    """A mechanism or accountant argument violates its contract."""


class IngestionError(ParameterError):
    """Input data (histogram entries, CSV rows, stream events) is invalid."""


# Argument checkers shared by every module.  Each returns the checked value
# (reals as float) and stays one flat function, because the samplers and
# inverse CDFs run them on every draw.


def check_int(name: str, value: object, minimum: int = 1) -> int:
    """An integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def check_positive(name: str, value: object) -> float:
    """A real (not a bool) that is positive and finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 < value < math.inf:
        raise ParameterError(f"{name} must be a positive finite real, got {value!r}")
    return float(value)


def check_real(name: str, value: object, minimum: float = 0.0) -> float:
    """A real (not a bool) >= minimum: NaN fails, infinity passes."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value >= minimum:
        raise ParameterError(f"{name} must be a real >= {minimum}, got {value!r}")
    return float(value)


def check_probability(name: str, value: object, *, allow_zero: bool = False) -> float:
    """A real in (0, 1), the range mechanisms need; allow_zero widens it to
    [0, 1), the range of a budget record's delta."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        0.0 <= value < 1.0 if allow_zero else 0.0 < value < 1.0
    ):
        interval = "[0, 1)" if allow_zero else "(0, 1)"
        raise ParameterError(f"{name} must be a real in {interval}, got {value!r}")
    return float(value)


def check_threshold(threshold: float, epsilon: float, delta: float) -> float:
    """A threshold calibrated from (epsilon, delta), which must come out finite:
    a delta whose tail ratio over- or underflows, or an epsilon whose noise
    scale overflows, leaves none."""
    if not math.isfinite(threshold):
        raise ParameterError(
            f"epsilon = {epsilon!r} and delta = {delta!r} give no finite threshold"
        )
    return threshold


#: Reserved sentinel marker; "⊥" terminates ranked lists, "⊥1", "⊥2", ... pad
#: truncated histograms.  User labels must never start with it.
RESERVED_LABEL_PREFIX = "⊥"
BOTTOM = RESERVED_LABEL_PREFIX

#: Counts are 64-bit integers; noisy counts are 64-bit floats.
MAX_COUNT = 2**63 - 1


def is_reserved_label(label: str) -> bool:
    return label.startswith(RESERVED_LABEL_PREFIX)


def padding_label(index: int) -> str:
    """The index-th sentinel used to pad truncated histograms (1-based)."""
    return f"{RESERVED_LABEL_PREFIX}{index}"


def validate_label(label: object) -> str:
    if not isinstance(label, str):
        raise IngestionError(f"label must be text, got {type(label).__name__}")
    if not label:
        raise IngestionError("label must be non-empty")
    if is_reserved_label(label):
        raise IngestionError(
            f"label {label!r} uses the reserved sentinel prefix {RESERVED_LABEL_PREFIX!r}"
        )
    return label


class Histogram:
    """Finite map from label to non-negative integer count, built from a mapping,
    from (label, count) pairs, or from a label and a count column, and stored as
    the sorted labels plus a read-only int64 count array.  Iteration is in sorted
    label order so that seeded mechanism runs are reproducible."""

    __slots__ = ("_labels", "_counts")

    def __init__(self, counts: Mapping[str, int] | Iterable = (), values: Iterable | None = None):
        if values is None:
            pairs = list(counts.items() if isinstance(counts, Mapping) else counts)
            labels, values = [label for label, _ in pairs], [count for _, count in pairs]
        else:
            labels, values = list(counts), list(values)
            if len(labels) != len(values):
                raise ParameterError(f"{len(labels)} labels but {len(values)} counts")
        # Whole-column checks; where one fails, per-entry checks raise for the first
        # invalid entry in input order, or pass (str or int subclasses, inner "⊥").
        if not (
            set(map(type, labels)) <= {str}
            and set(map(type, values)) <= {int}
            and all(labels)
            and RESERVED_LABEL_PREFIX not in "".join(labels)
            and len(set(labels)) == len(labels)
            and min(values, default=0) >= 0
            and max(values, default=0) <= MAX_COUNT
        ):
            seen = set()
            for label, count in zip(labels, values):
                validate_label(label)
                if label in seen:
                    raise IngestionError(f"duplicate label {label!r}")
                seen.add(label)
                if isinstance(count, bool) or not isinstance(count, int):
                    raise IngestionError(f"count for {label!r} must be an integer, got {count!r}")
                if count < 0:
                    raise IngestionError(f"count for {label!r} must be non-negative, got {count}")
                if count > MAX_COUNT:
                    raise IngestionError(f"count for {label!r} exceeds 64-bit range")
        order = sorted(range(len(labels)), key=labels.__getitem__)
        self._labels = tuple(map(labels.__getitem__, order))
        self._counts = np.array(values, dtype=np.int64)[order]
        self._counts.flags.writeable = False

    @classmethod
    def coerce(cls, value: "Histogram" | Mapping[str, int]) -> "Histogram":
        return value if isinstance(value, cls) else cls(value)

    @property
    def counts(self) -> np.ndarray:
        """The counts in sorted label order, as a read-only int64 array."""
        return self._counts

    def items(self) -> list[tuple[str, int]]:
        return list(zip(self._labels, self._counts.tolist()))

    def labels(self) -> list[str]:
        return list(self._labels)

    def get(self, label: str, default: int = 0) -> int:
        i = bisect.bisect_left(self._labels, label) if isinstance(label, str) else len(self)
        return int(self._counts[i]) if i < len(self) and self._labels[i] == label else default

    def __getitem__(self, label: str) -> int:
        if label not in self:
            raise KeyError(label)
        return self.get(label)

    def __contains__(self, label: str) -> bool:
        return self.get(label, None) is not None

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Histogram):
            return self._labels == other._labels and np.array_equal(self._counts, other._counts)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Histogram({dict(self.items())!r})"


@dataclass(frozen=True)
class SensitivityBound:
    """(l0, linf) sensitivity of input histograms.

    One user's addition or removal changes at most ``l0`` distinct labels,
    each count by at most ``linf``.  ``l0`` may be ``math.inf`` for the
    mechanisms that tolerate an unbounded number of touched labels.
    """

    l0: int | float
    linf: float

    def __post_init__(self) -> None:
        if self.l0 != math.inf:
            check_int("l0", self.l0)
        check_positive("linf", self.linf)

    @property
    def has_bounded_l0(self) -> bool:
        return self.l0 != math.inf


def check_sensitivity(sens: object) -> SensitivityBound:
    """A SensitivityBound with a finite l0, as the thresholds need."""
    if not isinstance(sens, SensitivityBound):
        raise ParameterError(f"expected a SensitivityBound, got {sens!r}")
    if not sens.has_bounded_l0:
        raise ParameterError("this threshold needs a finite l0 sensitivity")
    return sens


_SEED_MASK = 0xFFFF_FFFF_FFFF_FFFF


def _token_entropy(token: object) -> int:
    if isinstance(token, bool):
        raise ParameterError("child-stream tokens must be ints or strings")
    if isinstance(token, int):
        return token & _SEED_MASK
    if isinstance(token, str):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:16], "big")
    raise ParameterError(f"child-stream tokens must be ints or strings, got {type(token).__name__}")


class RandomSource:
    """Deterministic stream of uniforms on the open interval (0, 1).

    The same seed and the same call sequence reproduce the same draws
    bit-for-bit.  ``child(*tokens)`` derives an independent substream keyed
    by the tokens, for per-label or per-trial noise that stays reproducible
    regardless of how sibling streams are consumed.
    """

    __slots__ = ("_entropy", "_gen")

    def __init__(self, seed: int, *, _entropy: tuple[int, ...] | None = None):
        if _entropy is None:
            if check_int("seed", seed, -(2**63)) >= 2**64:
                raise ParameterError("seed must fit in 64 bits")
            _entropy = (seed & _SEED_MASK,)
        self._entropy = _entropy
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(_entropy)))

    def child(self, *tokens: int | str) -> "RandomSource":
        entropy = self._entropy + tuple(_token_entropy(t) for t in tokens)
        return RandomSource(0, _entropy=entropy)

    def uniform(self) -> float:
        u = self._gen.random()
        while u == 0.0:
            u = self._gen.random()
        return u

    def uniform_iter(self, block: int) -> Iterator[float]:
        """Endless iterator over the draws that repeated ``uniform()`` calls give.

        Fetches ``block`` values per numpy call, which spreads the call's
        overhead over the block, and skips zeros as ``uniform()`` redraws
        them.  Up to ``block - 1`` values are drawn ahead of the consumer, so
        nothing else may draw from this source once the iterator is in use.
        """
        while True:
            for u in self._gen.random(block).tolist():
                if u != 0.0:
                    yield u

    def uniforms(self, n: int) -> np.ndarray:
        """The next n draws of repeated ``uniform()`` calls, as one array.

        Zeros are redrawn as ``uniform()`` redraws them, so a block of n
        draws leaves the source where n single draws would.
        """
        u = self._gen.random(check_int("n", n, 0))
        while True:
            nonzero = u[u != 0.0]
            if nonzero.size == u.size:
                return u
            u = np.concatenate((nonzero, self._gen.random(u.size - nonzero.size)))


def laplace_inverse_cdf(u: float, scale: float) -> float:
    """Quantile of Lap(scale): scale*ln(2u) below the median, -scale*ln(2(1-u)) above."""
    check_positive("scale", scale)
    check_probability("u", u)
    return laplace_quantile(u, scale)


def gumbel_inverse_cdf(u: float, beta: float) -> float:
    """Quantile of Gumbel(beta): -beta*ln(-ln u)."""
    check_positive("beta", beta)
    check_probability("u", u)
    return gumbel_quantile(u, beta)


# The unchecked quantiles below are the noise transforms every draw goes
# through; u comes from RandomSource, so it lies in (0, 1), and the caller
# checks the scale once.


def laplace_quantile(u: float, scale: float) -> float:
    """laplace_inverse_cdf without the argument checks."""
    if u < 0.5:
        return scale * math.log(2.0 * u)
    return -scale * math.log(2.0 * (1.0 - u)) + 0.0


def gumbel_quantile(u: float, beta: float) -> float:
    """gumbel_inverse_cdf without the argument checks."""
    return -beta * math.log(-math.log(u)) + 0.0


def gaussian_quantile(u: float, sigma: float) -> float:
    """Quantile of N(0, sigma^2) without the argument checks."""
    return sigma * standard_normal_quantile(u)


def sample_laplace(
    scale: float, rng: RandomSource, size: tuple[int, ...] | None = None
) -> float | np.ndarray:
    """One draw from the Laplace law with density exp(-|z|/scale)/(2*scale),
    or an array of that shape filled with the draws repeated calls make."""
    check_positive("scale", scale)
    if size is None:
        return laplace_quantile(rng.uniform(), scale)
    return _quantile_block(laplace_quantile, scale, rng, size)


def sample_gaussian(
    sigma: float, rng: RandomSource, size: tuple[int, ...] | None = None
) -> float | np.ndarray:
    """One draw from N(0, sigma^2), or an array of that shape filled with
    the draws repeated calls make."""
    check_positive("sigma", sigma)
    if size is None:
        return gaussian_quantile(rng.uniform(), sigma)
    return _quantile_block(gaussian_quantile, sigma, rng, size)


def sample_gumbel(
    beta: float, rng: RandomSource, size: tuple[int, ...] | None = None
) -> float | np.ndarray:
    """One draw from Gumbel(beta), mean beta*gamma, variance beta^2*pi^2/6,
    or an array of that shape filled with the draws repeated calls make."""
    check_positive("beta", beta)
    if size is None:
        return gumbel_quantile(rng.uniform(), beta)
    return _quantile_block(gumbel_quantile, beta, rng, size)


#: Uniforms turned into noise per step of a block draw, so the Python floats
#: held at once stay bounded however large the block.
_BLOCK_STEP = 2**16


def _quantile_block(
    quantile: Callable[[float, float], float],
    scale: float,
    rng: RandomSource,
    size: tuple[int, ...],
) -> np.ndarray:
    """quantile(u, scale) over the next prod(size) uniforms of rng, in
    row-major order: element i is the draw the i-th single call would make.

    The transform is the scalar one, mapped over the uniforms, because
    numpy's vectorised log can differ from ``math.log`` in the last bit (in
    about 0.35% of draws with numpy 2.4 on x86-64).
    """
    out = np.empty(size)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _BLOCK_STEP):
        u = rng.uniforms(min(_BLOCK_STEP, flat.size - start)).tolist()
        flat[start : start + len(u)] = np.fromiter(
            map(quantile, u, repeat(scale)), dtype=float, count=len(u)
        )
    return out


_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def normal_cdf(z: float) -> float:
    """Standard normal CDF via erfc, accurate in both tails."""
    check_real("z", z, -math.inf)
    return 0.5 * math.erfc(-z / _SQRT2)


# Rational-approximation coefficients for the normal quantile (Acklam).
_ICDF_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_ICDF_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_ICDF_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_ICDF_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_ICDF_P_LOW = 0.02425


def normal_inverse_cdf(p: float) -> float:
    """Standard normal quantile, absolute error below 1e-9 on [1e-15, 1-1e-15].

    Antisymmetric by construction: the upper half is evaluated as the
    mirrored lower half, so quantiles of u and 1-u cancel exactly.
    """
    check_probability("p", p)
    return standard_normal_quantile(p)


def normal_upper_quantile(q: float) -> float:
    """PhiInv(1 - q), as -PhiInv(q) only for a q so small that 1 - q rounds to 1.0,
    and +inf for a q that underflowed to 0.0."""
    if q == 0.0:
        return math.inf
    return normal_inverse_cdf(1.0 - q) if 1.0 - q < 1.0 else -normal_inverse_cdf(q)


def standard_normal_quantile(p: float) -> float:
    """normal_inverse_cdf without the argument check.

    For hot loops whose p comes straight from ``RandomSource.uniform``, which
    already lies in (0, 1); every Gaussian draw goes through this transform.
    The upper half is evaluated as the mirrored lower half.
    """
    upper = p > 0.5
    if upper:
        p = 1.0 - p
    # Now p in (0, 0.5] and the lower-half quantile x <= 0.
    if p < _ICDF_P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        c = _ICDF_C
        d = _ICDF_D
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    else:
        q = p - 0.5
        r = q * q
        a = _ICDF_A
        b = _ICDF_B
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    # One Halley step against the erfc-based forward CDF; skipped only in the
    # far tail where exp(x^2/2) would overflow and the raw estimate already
    # has negligible absolute error.
    if x > -37.4:
        err = 0.5 * math.erfc(-x / _SQRT2) - p
        u = err * _SQRT_2PI * math.exp(0.5 * x * x)
        x -= u / (1.0 + 0.5 * x * u)
    return -x if upper else x + 0.0
