"""Shared domain types, seeded randomness, noise samplers, and normal special functions.

All noise is sampled by inverse-CDF transform of a single uniform draw, so
every mechanism run is a pure function of its seed and the draws can be
replayed or paired antithetically in tests.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import operator
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ParameterError",
    "IngestionError",
    "BOTTOM",
    "RESERVED_LABEL_PREFIX",
    "MAX_COUNT",
    "is_reserved_label",
    "validate_label",
    "Histogram",
    "SensitivityBound",
    "RandomSource",
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
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {_shown(value)}")
    return value


def check_seed(value: object) -> int:
    """An integer in [0, 2**64), the seeds that key the noise with all their
    bits: a negative seed would alias one of them."""
    if check_int("seed", value, 0) >= 2**64:
        raise ParameterError("seed must fit in 64 bits")
    return value


def check_l0(name: str, value: object) -> int:
    """An integer >= 1 within the float range, as the threshold and budget
    arithmetic that takes an l0 sensitivity, or a list length k, needs."""
    limit = sys.float_info.max
    if check_int(name, value) > limit:
        raise ParameterError(f"{name} must be at most {limit!r}, got {_bits(value)}")
    return value


def check_positive(name: str, value: object) -> float:
    """A real (not a bool) that is positive and finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 < value < math.inf:
        raise ParameterError(f"{name} must be a positive finite real, got {_shown(value)}")
    return _as_float(name, value)


def check_real(name: str, value: object, minimum: float = 0.0) -> float:
    """A real (not a bool) >= minimum: NaN fails, infinity passes."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value >= minimum:
        raise ParameterError(f"{name} must be a real >= {minimum}, got {_shown(value)}")
    return _as_float(name, value)


def _as_float(name: str, value: int | float) -> float:
    """float(value) for a checked real: an int beyond the float range, which
    passes the range tests, is refused by name, as check_l0 refuses it."""
    try:
        return float(value)
    except OverflowError:
        limit = sys.float_info.max
        side = f"at most {limit!r}" if value > 0 else f"at least {-limit!r}"
        raise ParameterError(f"{name} must be {side}, got {_bits(value)}") from None


def check_probability(name: str, value: object, *, allow_zero: bool = False) -> float:
    """A real in (0, 1), the range mechanisms need; allow_zero widens it to
    [0, 1), the range of a budget record's delta."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        0.0 <= value < 1.0 if allow_zero else 0.0 < value < 1.0
    ):
        interval = "[0, 1)" if allow_zero else "(0, 1)"
        raise ParameterError(f"{name} must be a real in {interval}, got {_shown(value)}")
    return float(value)


def check_finite(what: str, value: float, **arguments: object) -> float:
    """value, a threshold or budget figure formed from the named arguments,
    if it is finite: one that over- or underflowed is refused by naming them."""
    if not math.isfinite(value):
        named = [f"{name} = {_shown(argument)}" for name, argument in arguments.items()]
        listed = " and ".join([", ".join(named[:-1]), named[-1]] if len(named) > 2 else named)
        raise ParameterError(f"{listed} give{'s' if len(named) == 1 else ''} no finite {what}")
    return value


def check_noise(scale: float, draws: int, **arguments: object) -> float:
    """scale, a noise scale formed from the named arguments, if a sum of
    draws draws of it, each within MAX_DRAW * scale, stays in the float
    range: one that can overflow is refused, before any draw, by naming them."""
    check_finite("noise", draws * MAX_DRAW * scale, **arguments)
    return scale


def _shown(value: object) -> str:
    """repr(value), or the size of an int too long for repr to print."""
    try:
        return repr(value)
    except ValueError:
        return _bits(value)


def _bits(value: int) -> str:
    return f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit integer"


#: Reserved sentinel marker: "⊥" closes a ranked list shorter than k.  User
#: labels must never start with it.
RESERVED_LABEL_PREFIX = "⊥"
BOTTOM = RESERVED_LABEL_PREFIX

#: Counts are 64-bit integers; noisy counts are 64-bit floats.
MAX_COUNT = 2**63 - 1


def is_reserved_label(label: str) -> bool:
    return label.startswith(RESERVED_LABEL_PREFIX)


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


#: The reserved prefix's UTF-8 bytes, and as the top 3 bytes of a label's word.
_RESERVED_BYTES = RESERVED_LABEL_PREFIX.encode()
_RESERVED_WORD = int.from_bytes(_RESERVED_BYTES, "big")
#: The masks that keep a word's first k bytes, for k = 0..8.
_WORD_MASKS = np.array([2**64 - 2 ** (64 - 8 * k) for k in range(9)], dtype=np.uint64)


class LabelBuffer:
    """Labels as one buffer: label i is the ``sizes[i]`` bytes of ``data`` from
    ``starts[i]`` (int64 arrays), its UTF-8 bytes (``surrogatepass``, so a
    lone surrogate is kept).  UTF-8 byte order is code-point order, which is
    str order.  Only ``decode`` makes a str."""

    __slots__ = ("data", "starts", "sizes")

    def __init__(self, data: bytes, starts: np.ndarray, sizes: np.ndarray):
        self.data, self.starts, self.sizes = data, starts, sizes

    @classmethod
    def encode(cls, labels: Sequence[str]) -> "LabelBuffer":
        """One join and one encode; a label that is not text raises TypeError."""
        text = "".join(labels)
        data = text.encode("utf-8", "surrogatepass")
        bounds = np.fromiter(accumulate(map(len, labels), initial=0), np.int64, len(labels) + 1)
        if len(data) != len(text):  # character offsets to byte offsets: each character's lead byte
            leads = ((np.frombuffer(data, np.uint8) & 0xC0) != 0x80).nonzero()[0]
            bounds = np.append(leads, len(data))[bounds]
        return cls(data, bounds[:-1], bounds[1:] - bounds[:-1])

    def __len__(self) -> int:
        return len(self.starts)

    def decode(self, index: np.ndarray | slice) -> list[str]:
        """The labels at these indices, as str."""
        data, spans = self.data, zip(self.starts[index].tolist(), self.sizes[index].tolist())
        return [data[at : at + size].decode("utf-8", "surrogatepass") for at, size in spans]

    def order(self) -> tuple[np.ndarray, np.ndarray]:
        """The permutation that sorts the labels (intp) and their words in that
        order.  A label's word is its first 8 bytes, zero-padded, as a big-endian
        uint64: a smaller word is a smaller label.  Labels whose words tie ("a"
        and "a\\x00", a shared 8-byte prefix) are sorted again, together, by their
        bytes; equal labels tie, so a repeat raises ParameterError naming it."""
        data, starts, sizes = self.data, self.starts, self.sizes
        words = np.ndarray((len(data) + 1,), ">u8", data + bytes(8), 0, (1,))[starts]  # one at each byte
        words = words & _WORD_MASKS.take(sizes, mode="clip")  # in native byte order
        order = words.argsort()
        words = words[order]
        at = (words[1:] == words[:-1]).nonzero()[0]
        if at.size:
            tied = np.zeros(len(order), dtype=bool)
            tied[at] = tied[at + 1] = True
            index = order[tied]
            spans = zip(starts[index].tolist(), sizes[index].tolist(), index.tolist())
            keys = sorted([(data[at : at + size], i) for at, size, i in spans])
            for (label, _), (after, _) in zip(keys, keys[1:]):
                if label == after:
                    raise ParameterError(f"repeated label {label.decode('utf-8', 'surrogatepass')!r}")
            order[tied] = [i for _, i in keys]
        return order, words


class Histogram:
    """Finite map from label to non-negative integer count, built from a mapping,
    from (label, count) pairs, or from a label column (str, or a ``LabelBuffer``)
    and a count column: ints, or a 1-d int64 array, kept as it is if read-only
    and owning its data.

    The labels are kept as one ``LabelBuffer`` and the counts as an int64
    array, in input order.  Every entry is checked on construction, a column
    at a time, and the sort permutation is built then, as its tie pass is the
    distinctness check; ``counts`` is in sorted label order.  A label becomes
    a str only where a call returns it: ``labels_at`` decodes a few by sorted
    position, and the first ``items``, ``labels``, ``get``, ``[]``, ``in``,
    iteration, ``==`` or ``repr`` decodes them all, in sorted order, once.
    Iteration is in sorted label order so that seeded runs are reproducible.
    """

    __slots__ = ("_buffer", "_counts", "_sorted", "_sorted_labels")

    def __init__(self, counts: Mapping[str, int] | Iterable = (), values: Iterable | None = None):
        if values is None and isinstance(counts, Mapping):
            labels, values = list(counts), list(counts.values())
        elif values is None:
            pairs = list(counts)
            labels, values = [label for label, _ in pairs], [count for _, count in pairs]
        else:
            labels = counts if isinstance(counts, LabelBuffer) else list(counts)
            if not (isinstance(values, np.ndarray) and values.dtype == np.int64 and values.ndim == 1):
                values = list(values)
            if len(labels) != len(values):
                raise ParameterError(f"{len(labels)} labels but {len(values)} counts")
        column = isinstance(values, np.ndarray)
        try:
            buffer = labels if isinstance(labels, LabelBuffer) else LabelBuffer.encode(labels)
            order, words = buffer.order()
        except (TypeError, ParameterError):  # a label that is not text, or a repeat
            buffer = None
        # Whole-column checks; where one fails, per-entry checks raise for the first
        # invalid entry in input order, or pass (int subclasses).
        if not (
            buffer is not None
            # An empty label's word is 0, the smallest: count sizes only when the first word is 0.
            and (not len(words) or words[0] or np.count_nonzero(buffer.sizes) == len(words))
            and (_RESERVED_BYTES not in buffer.data or not (words >> 40 == _RESERVED_WORD).any())
            and (
                values.min(initial=0) >= 0
                if column
                else set(map(type, values)) <= {int}
                and min(values, default=0) >= 0
                and max(values, default=0) <= MAX_COUNT
            )
        ):
            seen, labels = set(), labels.decode(slice(None)) if isinstance(labels, LabelBuffer) else labels
            for label, count in zip(labels, values.tolist() if column else values):
                validate_label(label)
                if label in seen:
                    raise IngestionError(f"duplicate label {label!r}")
                seen.add(label)
                if isinstance(count, bool) or not isinstance(count, int):
                    raise IngestionError(f"count for {label!r} must be an integer, got {count!r}")
                if count < 0:
                    raise IngestionError(f"count for {label!r} must be non-negative, got {_shown(count)}")
                if count > MAX_COUNT:
                    raise IngestionError(f"count for {label!r} exceeds 64-bit range")
        if not (column and values.flags.owndata and not values.flags.writeable):
            values = np.array(values, dtype=np.int64)  # a copy the caller cannot change
            values.flags.writeable = False
        counts = values[order]
        counts.flags.writeable = False
        self._buffer, self._counts, self._sorted, self._sorted_labels = buffer, values, (order, counts), None

    @classmethod
    def coerce(cls, value: "Histogram" | Mapping[str, int]) -> "Histogram":
        return value if isinstance(value, cls) else cls(value)

    @property
    def columns(self) -> tuple[tuple[str, ...], np.ndarray]:
        """The labels, decoded, and their read-only int64 counts, in input order."""
        return tuple(self._buffer.decode(slice(None))), self._counts

    def _labels(self) -> tuple[str, ...]:
        """Every label in sorted order, decoded on first use."""
        if self._sorted_labels is None:
            self._sorted_labels = tuple(self.labels_at(slice(None)))
        return self._sorted_labels

    def labels_at(self, positions: np.ndarray | slice) -> list[str]:
        """The labels at these positions of sorted order, decoding no others."""
        return self._buffer.decode(self._sorted[0][positions])

    @property
    def counts(self) -> np.ndarray:
        """The counts in sorted label order, as a read-only int64 array."""
        return self._sorted[1]

    def items(self) -> list[tuple[str, int]]:
        return list(zip(self._labels(), self.counts.tolist()))

    def labels(self) -> list[str]:
        return list(self._labels())

    def get(self, label: str, default: int = 0) -> int:
        labels = self._labels()
        i = bisect.bisect_left(labels, label) if isinstance(label, str) else len(labels)
        return int(self.counts[i]) if i < len(labels) and labels[i] == label else default

    def __getitem__(self, label: str) -> int:
        if label not in self:
            raise KeyError(label)
        return self.get(label)

    def __contains__(self, label: str) -> bool:
        return self.get(label, None) is not None

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self):
        return iter(self._labels())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Histogram):
            return self._labels() == other._labels() and np.array_equal(self.counts, other.counts)
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
            check_l0("l0", self.l0)
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


def _token_entropy(token: object) -> int:
    if isinstance(token, bool):
        raise ParameterError("child-stream tokens must be ints or strings")
    if isinstance(token, int):
        if not 0 <= token < 2**64:
            raise ParameterError(f"int child-stream tokens must lie in [0, 2**64), got {_shown(token)}")
        return token
    if isinstance(token, str):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:16], "big")
    raise ParameterError(f"child-stream tokens must be ints or strings, got {type(token).__name__}")


def _hashmix(v: np.ndarray, k: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of v at multipliers k[:-1] (xored in) and k[1:]."""
    v = (v ^ k[:-1]) * k[1:]
    return v ^ v >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
    return v ^ v >> 16


def _multipliers(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**i mod 2**32, i < n: the multipliers SeedSequence's hash steps through."""
    return np.multiply.accumulate(np.array([init] + [mult] * (n - 1), dtype=np.uint32), dtype=np.uint32)


def _seed_states(words: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for the first
    sizes[j] words of each row j of words: numpy's hash of a pool of 4 words,
    on all rows at once and on every pool word the others do not feed."""
    n = words.shape[1]
    a = _multipliers(0x43B0D7E5, 0x931E8875, 4 * max(n, 4) + 1)
    pool = np.zeros((len(words), 4), dtype=np.uint32)
    pool[:, : min(n, 4)] = words[:, :4]  # the pool's share of the words, padded with 0
    pool = _hashmix(pool, a[:5])
    for src, dst in enumerate(np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])):
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], a[4 + 3 * src : 8 + 3 * src]))
    for i in range(4, n):  # each further word into the whole pool, in the rows that hold it
        mixed = _mix(pool, _hashmix(words[:, i, None], a[4 * i : 4 * i + 5]))
        pool = np.where(sizes[:, None] > i, mixed, pool)
    state = _hashmix(np.concatenate((pool, pool), axis=1), _multipliers(0x8B51F9DD, 0x58F38DED, 9))
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


class _SeedState:
    """Seed words for PCG64, which asks for ``generate_state(4, np.uint64)``."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype: object = None) -> np.ndarray:
        return self.words


class RandomSource:
    """Deterministic stream of uniforms on the open interval (0, 1).

    The same seed and the same call sequence reproduce the same draws
    bit-for-bit.  ``child(*tokens)`` derives an independent substream keyed
    by the tokens, for per-label or per-trial noise that stays reproducible
    regardless of how sibling streams are consumed.  A seed, like an int
    token, lies in [0, 2**64) and keys the stream with all its bits.
    """

    __slots__ = ("_entropy", "_gen")

    def __init__(self, seed: int, *, _entropy: tuple[int, ...] | None = None,
                 _seed: _SeedState | None = None):
        if _entropy is None:
            _entropy = (check_seed(seed),)
        self._entropy = _entropy
        self._gen = np.random.Generator(np.random.PCG64(_seed or np.random.SeedSequence(_entropy)))

    def child(self, *tokens: int | str) -> "RandomSource":
        entropy = self._entropy + tuple(_token_entropy(t) for t in tokens)
        return RandomSource(0, _entropy=entropy)

    def children(self, tokens: Iterable[int | str]) -> list["RandomSource"]:
        """``[self.child(t) for t in tokens]``, draw for draw: many streams at
        once, seeded by one numpy pass over all the tokens rather than one
        SeedSequence each."""
        entropy = [_token_entropy(t) for t in tokens]  # each below 2**128
        if not entropy:
            return []
        # Registered on first use, as importing unkhist.cli loads no numpy.random.
        np.random.bit_generator.ISeedSequence.register(_SeedState)
        # An int in as many 32-bit words as it needs (at least one), low word
        # first, as SeedSequence splits it; a row holds a token's padded to 4.
        parent = b"".join(e.to_bytes(4 * ((e.bit_length() + 31) // 32 or 1), "little")
                          for e in self._entropy)
        words = b"".join(parent + e.to_bytes(16, "little") for e in entropy)
        rows = np.frombuffer(words, "<u4").reshape(-1, len(parent) // 4 + 4)
        sizes = np.array([(e.bit_length() + 31) // 32 or 1 for e in entropy]) + len(parent) // 4
        states = zip(entropy, _seed_states(rows, sizes))
        return [RandomSource(0, _entropy=self._entropy + (e,), _seed=_SeedState(s)) for e, s in states]

    def uniform(self) -> float:
        u = self._gen.random()
        while u == 0.0:
            u = self._gen.random()
        return u

    def uniforms(self, n: int) -> np.ndarray:
        """The next n draws of repeated ``uniform()`` calls, as one array.

        Zeros are redrawn as ``uniform()`` redraws them, so a block of n
        draws leaves the source where n single draws would.
        """
        check_int("n", n, 0)
        return self._redraw_zeros(self._gen.random(n))

    @staticmethod
    def fill(sources: Sequence["RandomSource"], sizes: Sequence[int], out: np.ndarray) -> np.ndarray:
        """``sources[i].uniforms(sizes[i])`` for each i, concatenated into out.

        One zero check covers the whole block; only a segment that holds a
        zero is redrawn, as ``uniforms`` redraws it.
        """
        stop = 0
        for source, k in zip(sources, sizes):
            start, stop = stop, stop + k
            source._gen.random(out=out[start:stop])
        if np.count_nonzero(out) < out.size:
            stop = 0
            for source, k in zip(sources, sizes):
                start, stop = stop, stop + k
                source._redraw_zeros(out[start:stop])
        return out

    def _redraw_zeros(self, u: np.ndarray) -> np.ndarray:
        """u, this source's latest draws, with each zero dropped in place, the
        rest moved up and the gap filled with fresh draws, until none is zero."""
        kept = np.count_nonzero(u)
        while kept < u.size:
            u[:kept] = u[u != 0.0]
            u[kept:] = self._gen.random(u.size - kept)
            kept = np.count_nonzero(u)
        return u


# The unchecked quantiles below are the noise transforms every draw goes
# through; u comes from RandomSource, so it lies in (0, 1), and the caller
# checks the scale once.


def laplace_quantile(u: float, scale: float) -> float:
    """Quantile of Lap(scale): scale*ln(2u) below the median, -scale*ln(2(1-u)) above."""
    if u < 0.5:
        return scale * math.log(2.0 * u)
    return -scale * math.log(2.0 * (1.0 - u)) + 0.0


def gumbel_quantile(u: float, beta: float) -> float:
    """Quantile of Gumbel(beta): -beta*ln(-ln u)."""
    return -beta * math.log(-math.log(u)) + 0.0


def gaussian_quantile(u: float, sigma: float) -> float:
    """Quantile of N(0, sigma^2) without the argument checks."""
    return sigma * standard_normal_quantile(u)


def sample_laplace(
    scale: float, rng: RandomSource, size: tuple[int, ...] | None = None
) -> float | np.ndarray:
    """One draw from the Laplace law with density exp(-|z|/scale)/(2*scale),
    or an array of that shape filled with the draws repeated calls make."""
    return _sample("laplace", scale, rng, size)


def sample_gaussian(
    sigma: float, rng: RandomSource, size: tuple[int, ...] | None = None
) -> float | np.ndarray:
    """One draw from N(0, sigma^2), or an array of that shape filled with
    the draws repeated calls make."""
    return _sample("gaussian", sigma, rng, size)


def sample_gumbel(
    beta: float, rng: RandomSource, size: tuple[int, ...] | None = None
) -> float | np.ndarray:
    """One draw from Gumbel(beta), mean beta*gamma, variance beta^2*pi^2/6,
    or an array of that shape filled with the draws repeated calls make."""
    return _sample("gumbel", beta, rng, size)


def _sample(law: str, scale: float, rng: RandomSource, size: tuple[int, ...] | None) -> float | np.ndarray:
    """The samplers' one body: law's scalar quantile of one uniform, or its
    block quantile over the next prod(size) uniforms (``_LAWS``)."""
    name, quantile, quantiles, _ = _LAWS[law]
    check_positive(name, scale)
    if size is None:
        return quantile(rng.uniform(), scale)
    return _quantile_block(lambda u: quantiles(u, scale), rng, size)


#: Uniforms turned into noise per step of a block draw, so the Python floats
#: held at once stay bounded however large the block.
_BLOCK_STEP = 2**16
#: Entries per step of gaussian_quantiles and gaussian_screen, whose
#: temporaries (a dozen arrays, and for the former a list of Python floats)
#: stay small beside the arrays they are given.
_GAUSSIAN_STEP = 2**12


def _quantile_block(
    transform: Callable[[np.ndarray], np.ndarray], rng: RandomSource, size: tuple[int, ...]
) -> np.ndarray:
    """transform over the next prod(size) uniforms of rng, in row-major
    order and in steps of _BLOCK_STEP: element i is the draw the i-th single
    call would make, provided transform agrees with the scalar quantile bit
    for bit (a block quantile of ``_LAWS``)."""
    out = np.empty(size)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _BLOCK_STEP):
        u = rng.uniforms(min(_BLOCK_STEP, flat.size - start))
        flat[start : start + u.size] = transform(u)
    return out


def _map_array(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """fn(v) for every v of a flat array, one scalar call each."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


# The block quantiles below are laplace_quantile and gumbel_quantile over a
# flat array: the same IEEE operations in the same order, with math.log
# mapped over the entries (see _normal_quantiles for why).


def _laplace_quantiles(
    u: np.ndarray, scale: float, log: Callable[[np.ndarray], np.ndarray] | None = None
) -> np.ndarray:
    """The Laplace quantile over an array, with log if given (a screen) and
    math.log mapped over the entries if not (bit for bit)."""
    log = partial(_map_array, math.log) if log is None else log
    x = log(2.0 * np.minimum(u, 1.0 - u))  # u below the median, 1 - u from it
    x *= scale
    # scale * log below the median and -scale * log + 0.0 from it: the bits of
    # the product, < 0 off the median and +0.0 on it, signed as u - 0.5.
    return np.copysign(x, u - 0.5, out=x)


def _gumbel_quantiles(u: np.ndarray, beta: float) -> np.ndarray:
    logs = map(math.log, map(operator.neg, map(math.log, u.tolist())))
    return -beta * np.fromiter(logs, dtype=float, count=u.size) + 0.0


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


def gaussian_threshold(linf: float, scale: float, ratio: float, factor: float, **arguments: object) -> float:
    """T = linf + factor * scale * PhiInv(1 - ratio), which a count of linf plus
    Gaussian noise of deviation factor * scale exceeds with probability ratio."""
    return check_finite("threshold", linf + factor * scale * normal_upper_quantile(ratio), **arguments)


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


def gaussian_quantiles(u: np.ndarray, sigma: float, out: np.ndarray | None = None) -> np.ndarray:
    """gaussian_quantile(p, sigma) for every p of u, bit for bit, in steps of
    _GAUSSIAN_STEP entries, into out if given (which may be u itself)."""
    out = np.empty(u.shape) if out is None else out
    flat, p = out.reshape(-1), u.reshape(-1)
    for start in range(0, p.size, _GAUSSIAN_STEP):
        step = p[start : start + _GAUSSIAN_STEP]
        flat[start : start + step.size] = sigma * _normal_quantiles(step)
    return out


def _normal_quantiles(p: np.ndarray) -> np.ndarray:
    """standard_normal_quantile over an array: the same IEEE operations in
    the same order, each branch on the entries that take it.

    numpy's + - * / and sqrt are correctly rounded, so they round as the
    scalar code does.  log, erfc and exp are not, and numpy's SIMD log and
    exp differ from ``math``'s in the last bit on some draws and some CPUs,
    so those three are the ``math`` functions mapped over the entries.
    """
    folded, x = _acklam(p, partial(_map_array, math.log))
    step = x > -37.4
    everywhere = step.all()
    xs, ps = (x, folded) if everywhere else (x[step], folded[step])
    err = 0.5 * _map_array(math.erfc, -xs / _SQRT2) - ps
    u = err * _SQRT_2PI * _map_array(math.exp, 0.5 * xs * xs)
    xs = xs - u / (1.0 + 0.5 * xs * u)
    if everywhere:
        x = xs
    else:
        x[step] = xs
    # -x above the median and x + 0.0 elsewhere: x is < 0 off the median and
    # +0.0 on it (tests/test_gaussian_block.py checks the floats either side).
    return np.copysign(x, p - 0.5, out=x)


def _acklam(
    p: np.ndarray, log: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Acklam's rational estimate of standard_normal_quantile over an array,
    before the Halley step: the mirrored p in (0, 0.5] and the lower-half
    estimate x <= 0, with log taken on the tail entries."""
    p = np.minimum(p, 1.0 - p)  # 1 - p above the median, p elsewhere
    a, b = _ICDF_A, _ICDF_B
    q = p - 0.5
    r = q * q
    # Horner in place: (((((a0 r + a1) r + a2) r + a3) r + a4) r + a5) q over
    # ((((b0 r + b1) r + b2) r + b3) r + b4) r + 1, the scalar code's operations.
    x, den = a[0] * r, b[0] * r
    for a_i, b_i in zip(a[1:5], b[1:5]):
        x += a_i
        x *= r
        den += b_i
        den *= r
    x += a[5]
    x *= q
    den += 1.0
    x /= den
    tail = p < _ICDF_P_LOW
    if tail.any():
        c, d = _ICDF_C, _ICDF_D
        q = np.sqrt(-2.0 * log(p[tail]))
        x[tail] = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    return p, x


# Screens.  A mechanism that shows a draw only once its noisy value clears a
# threshold need not pay for the exact transform on the draws that stay below
# it.  A screen is the quantile with numpy's log and, for the Gaussian,
# Acklam's estimate without the Halley step; its error against the exact
# transform is at most SCREEN_ERROR * (scale + |screen|) per draw:
# - Gaussian: Acklam's rational has relative error below 1.15e-9 on (0, 1),
#   and the Halley step brings the exact transform within a few ulps of the
#   true quantile.  np.log differs from math.log in the last bit, which moves
#   the estimate by about 1e-16 relative.  Near the median, where x -> 0, the
#   Halley step moves x by up to about 1e-16 absolute: the scale term covers it.
# - Laplace: the exact transform's operations, but for log's last bit.
# - Gumbel: the exact transform's operations, but for the last bit of each of
#   its two logs.  The inner log's relative error of about 2^-52 moves the
#   outer log by as much, absolutely (the scale term), and the outer log's
#   own last bit is relative to the screen (the |screen| term).
# 2^-20 (9.5e-7) is over 800 times Acklam's bound; the tests hold the observed
# error to a hundredth of it.  A screened value decides only which draws get
# the exact transform: every value a caller sees or compares is exact.

#: The screens' error bound, relative to scale + |screen| (see above).
SCREEN_ERROR = 2.0**-20
#: A bound on |quantile| / scale for any RandomSource uniform, which lies in
#: [2^-53, 1 - 2^-53]: Gaussian draws stay within 8.3, Laplace draws within
#: ln(2^52) = 36.04 and Gumbel draws within [-3.61, 36.74], and the screens
#: within SCREEN_ERROR of those.
MAX_DRAW = 37.0
#: Draws below which a kernel draws its block through ``sample_*``, unscreened:
#: the screen, its flag tests and the rows they send to the exact transform
#: then cost more than they save.  One-row calls (x86-64, numpy 2.4) broke
#: even at about 64 draws for a Laplace ``release_batch``, 150 for
#: ``release_topk_batch``, 250 for ``release_gumbel_topk_batch`` and 400 for
#: a Gaussian ``release_batch``; ``counter_batch``, which sweeps its flagged
#: rows twice, at about 1000.
SCREEN_FLOOR = 128


def gaussian_screen(u: np.ndarray, sigma: float) -> np.ndarray:
    """gaussian_quantiles(u, sigma) to within SCREEN_ERROR * (sigma + |screen|)
    per entry, from numpy operations alone, in steps of _GAUSSIAN_STEP entries."""
    out = np.empty(u.shape)
    flat, p = out.reshape(-1), u.reshape(-1)
    for start in range(0, p.size, _GAUSSIAN_STEP):
        step = p[start : start + _GAUSSIAN_STEP]
        x = _acklam(step, np.log)[1]
        # -x above the median, where x <= 0.
        flat[start : start + step.size] = np.copysign(x, step - 0.5, out=x)
    out *= sigma
    return out


def laplace_screen(u: np.ndarray, scale: float) -> np.ndarray:
    """The Laplace block quantile to within SCREEN_ERROR * (scale + |screen|)
    per entry, with numpy's log."""
    return _laplace_quantiles(u, scale, np.log)


def gumbel_screen(u: np.ndarray, beta: float) -> np.ndarray:
    """The Gumbel block quantile to within SCREEN_ERROR * (beta + |screen|)
    per entry, with numpy's log."""
    x = np.log(u)
    np.negative(x, out=x)
    np.log(x, out=x)
    x *= -beta
    return x


#: Each noise law's sampler argument name, scalar quantile, block quantile
#: (the scalar one's bits over an array) and screen.
_LAWS = {
    "laplace": ("scale", laplace_quantile, _laplace_quantiles, laplace_screen),
    "gaussian": ("sigma", gaussian_quantile, gaussian_quantiles, gaussian_screen),
    "gumbel": ("beta", gumbel_quantile, _gumbel_quantiles, gumbel_screen),
}


class _Given:
    """Uniforms already drawn, handed out in order by ``uniforms``: a sampler
    given them for its rng draws exactly from them."""

    def __init__(self, u: np.ndarray):
        self._u, self._at = u, 0

    def uniforms(self, n: int) -> np.ndarray:
        self._at += n
        return self._u[self._at - n : self._at]


def screen(law: str, scale: float, u: np.ndarray,
           sample: Callable[..., np.ndarray]) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The screened draws of law ("gaussian", "laplace" or "gumbel") at this
    scale from the uniforms u, and exact(index), the exact draws of
    ``u[index]`` in its shape: what sample, the law's ``sample_<law>``, draws
    from those uniforms.  index is a row array of a [trials, m] block, or a
    mask or flat positions for single draws.

    The caller makes exact the draws, or the rows, whose decisions lie
    within ``screen_margin`` of a screened value, and those alone; exact
    holds u until it is dropped.
    """
    name, _, _, screened = _LAWS[law]
    check_positive(name, scale)

    def exact(index: np.ndarray) -> np.ndarray:
        v = u[index]
        return sample(scale, _Given(v.reshape(-1)), v.shape)

    return screened(u, scale), exact


def screened_draws(
    law: str, scale: float, rng: RandomSource, size: tuple[int, int],
    sample: Callable[[float, RandomSource, tuple[int, int]], np.ndarray],
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray] | None]:
    """The [trials, m] block ``sample(scale, rng, size)`` draws, screened, and
    ``screen``'s exact for its uniforms and sample; law is sample's.

    The uniforms are those sample's ``_quantile_block`` transforms, so the
    source ends where sample leaves it.  Below SCREEN_FLOOR draws the block
    is sample's own, and exact is None.  At scale 0 the block is zeros,
    nothing is drawn and exact is None: the noiseless run of a test hook.
    An rng that is not a RandomSource is refused, at any scale.
    """
    if not isinstance(rng, RandomSource):
        raise ParameterError(f"rng must be a RandomSource, got {_shown(rng)}")
    if scale == 0.0:
        return np.zeros(size), None
    if size[0] * size[1] < SCREEN_FLOOR:
        return sample(scale, rng, size), None
    return screen(law, scale, _quantile_block(lambda u: u, rng, size), sample)


def flagged_rows(mask: np.ndarray) -> np.ndarray:
    """The rows of a [trials, m] mask that hold a True, with repeats: one pass
    over its flat entries, cheaper than a reduction along its short rows."""
    return np.flatnonzero(mask) // max(mask.shape[1], 1)


def screen_margin(scale: float, draws: int, count: float) -> float:
    """How far a screened sum may stray from the same sum with exact draws.

    The sum is a float64 sum, in a fixed order, of counts whose magnitudes
    total at most ``count`` and of ``draws`` draws of this scale, each from a
    RandomSource uniform.  Each draw is off by e <= SCREEN_ERROR * (1 +
    MAX_DRAW) * scale, and the magnitudes of the n = 2 * draws terms, exact
    or screened, total at most count + draws * MAX_DRAW * scale.  A float
    sum of n terms is within gamma = (n - 1) u / (1 - (n - 1) u) times that
    total of the terms' exact sum (u = 2^-53), so the two float sums differ
    by at most draws * e + 2 * gamma * (count + draws * MAX_DRAW * scale);
    the margin doubles that, which covers the rounding of its own
    arithmetic.

    Two noisy values of one draw each, x + z and y + w, compared as the
    kernels compare them, are such a sum of two draws with count |x| + |y|:
    if their screened values differ by more than the margin, their exact
    values differ, and the same way.
    """
    n = 2 * draws
    gamma = (n - 1) * 2.0**-53 / (1.0 - (n - 1) * 2.0**-53)
    error = draws * SCREEN_ERROR * (1.0 + MAX_DRAW) * scale
    return 2.0 * (error + 2.0 * gamma * (count + draws * MAX_DRAW * scale))


def screen_cut(threshold: float, scale: float, draws: int, count: float) -> float:
    """The value above which a screened sum must be made exact.

    The sum is a float64 sum, in a fixed order, of non-negative counts
    totalling at most ``count`` and of ``draws`` draws of this scale, each
    from a RandomSource uniform.  If the sum with exact draws exceeds
    threshold, the same sum with screened draws exceeds the cut: the float
    below threshold - ``screen_margin``, so that rounding the difference
    cannot lift it.  A threshold of +inf gives a cut no total reaches, and
    -inf a cut every total exceeds.
    """
    return math.nextafter(threshold - screen_margin(scale, draws, count), -math.inf)
