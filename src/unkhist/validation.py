"""Statistical checks behind the mechanisms' failure-probability claims.

The harness builds worst-case neighboring inputs, estimates by Monte Carlo
how often a mechanism emits an outcome its neighbor could never produce
(which must stay below delta), and compares sampled ranked-list mechanisms
against exact enumerated distributions via total variation and Renyi
divergence.

The `validate` suites' delta-event checks are rows of one table,
_DELTA_EVENT_CHECKS; one loop in run_suite runs each row on its boundary
pair and compares the estimate with the exact value.  The runs and the
exact value come from a second table, _DELTA_EVENT_KERNELS, with one row
per mechanism, which calls the mechanism's own batch kernel.
"""

from __future__ import annotations

import dataclasses
import math
import string
import sys
from dataclasses import dataclass
from functools import partial
from typing import Mapping

import numpy as np

from .accountant import RenyiOrder, expmech_cdp
from .core import (
    BOTTOM,
    Histogram,
    ParameterError,
    RandomSource,
    SensitivityBound,
    check_int,
    check_positive,
    check_sensitivity,
    normal_cdf,
)
# release, release_topk and release_gumbel_topk stay bound here for
# perfbench/tracing.py, which wraps these names; the estimators run the
# *_batch forms.
from .gumbel import gumbel_candidates, release_gumbel_topk, release_gumbel_topk_batch  # noqa: F401
from .release import release, release_batch  # noqa: F401
from .stream import CounterConfig, StreamEvent, active_node_count, counter_batch
from .topk import release_topk, release_topk_batch, truncate_topk  # noqa: F401

__all__ = [
    "NeighborPair",
    "DeltaEstimate",
    "MechanismConfig",
    "wilson_upper",
    "validate_neighbor_pair",
    "make_boundary_neighbors",
    "estimate_delta_event",
    "exact_expmech_topk_distribution",
    "sample_gumbel_topk_outcomes",
    "tv_distance",
    "estimate_renyi_divergence",
    "run_suite",
    "SUITES",
]

#: One-sided 99% normal quantile used for every Wilson upper bound.
Z_ONE_SIDED_99 = 2.326347874040841

MIN_TRIALS = 10_000

#: Trials per batch in estimate_delta_event.
DELTA_EVENT_BATCH = 2**16


@dataclass(frozen=True)
class NeighborPair:
    """Two inputs differing by one user's contribution, plus how they differ."""

    kind: str  # "histogram" | "stream"
    base: Histogram | tuple[StreamEvent, ...]
    neighbor: Histogram | tuple[StreamEvent, ...]
    description: str


@dataclass(frozen=True)
class DeltaEstimate:
    """Monte-Carlo frequency of differentiating outcomes with a 99% Wilson bound."""

    point: float
    upper: float
    trials: int


@dataclass
class MechanismConfig:
    """Everything estimate_delta_event needs to rerun a mechanism on a pair."""

    mechanism: str  # "alg1" | "topk" | "gumbel" | "stream"
    epsilon: float
    delta: float
    sens: SensitivityBound | None = None
    noise: str = "gaussian"
    kbar: int | None = None
    k: int | None = None
    l0_for_threshold: int | None = None
    horizon: int | None = None
    debut_round: int | None = None
    threshold_override: float | None = None


def wilson_upper(successes: int, trials: int, z: float = Z_ONE_SIDED_99) -> float:
    """One-sided Wilson score upper confidence bound for a binomial frequency."""
    if trials <= 0:
        raise ParameterError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ParameterError("successes must lie in [0, trials]")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = p + z2 / (2.0 * trials)
    radius = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    # Clamp into [p, 1]: rounding must never push the bound below the estimate.
    return min(1.0, max(p, (centre + radius) / denom))


def _letters(m: int, start: int = 0) -> list[str]:
    if start + m > 24:
        raise ParameterError("boundary constructions support at most 24 varying labels")
    return list(string.ascii_lowercase[start : start + m])


def validate_neighbor_pair(pair: NeighborPair, sens: SensitivityBound) -> None:
    """Check the pair really differs by one contribution within (l0, linf)."""
    if pair.kind == "histogram":
        base = Histogram.coerce(pair.base)
        neighbor = Histogram.coerce(pair.neighbor)
        differing = [
            label
            for label in set(base.labels()) | set(neighbor.labels())
            if base.get(label) != neighbor.get(label)
        ]
        if not differing:
            raise ParameterError("neighbors must differ somewhere")
        if sens.has_bounded_l0 and len(differing) > sens.l0:
            raise ParameterError(
                f"{len(differing)} labels differ, more than l0 = {sens.l0}"
            )
        for label in differing:
            gap = abs(base.get(label) - neighbor.get(label))
            if gap > sens.linf:
                raise ParameterError(
                    f"count for {label!r} differs by {gap}, more than linf = {sens.linf}"
                )
    elif pair.kind == "stream":
        base = pair.base
        neighbor = pair.neighbor
        if len(base) != len(neighbor):
            raise ParameterError("neighboring streams must have equal length")
        differing_rounds = [
            (b, n) for b, n in zip(base, neighbor) if b.items != n.items
        ]
        if len(differing_rounds) != 1:
            raise ParameterError(
                f"event-level neighbors must differ in exactly one round, got {len(differing_rounds)}"
            )
        b, n = differing_rounds[0]
        if sens.has_bounded_l0 and max(len(b.items), len(n.items)) > sens.l0:
            raise ParameterError("the differing event exceeds the per-round item bound")
    else:
        raise ParameterError(f"unknown pair kind {pair.kind!r}")


def make_boundary_neighbors(
    mechanism: str,
    sens: SensitivityBound | None = None,
    *,
    kbar: int | None = None,
    count: int = 5,
    anchor_count: int | None = None,
    horizon: int | None = None,
    debut_round: int | None = None,
) -> NeighborPair:
    """Construct the worst-case pair whose differentiating probability sits at the
    mechanism's calibrated tail.

    - alg1: l0 labels at count exactly linf in the base, absent from the neighbor.
    - topk: boundary labels exactly linf above the next count; losing one user
      drops them into a tie the deterministic tie-break resolves against them.
    - gumbel: a tied block of kbar labels one above the runner-up; the neighbor
      ties everything and the tie-break evicts the lexicographically last label.
    - stream: a burst of l0 fresh labels at one round; the neighbor's round is empty.
    """
    if mechanism in ("alg1", "topk"):
        check_sensitivity(sens)
        gap = int(sens.linf)
        if gap != sens.linf or gap < 1:
            raise ParameterError(f"{mechanism} boundary pairs need an integer linf >= 1")
    if mechanism == "alg1":
        vanish = _letters(sens.l0)
        anchor = {} if anchor_count is None else {"z": anchor_count}
        base = Histogram({label: gap for label in vanish} | anchor)
        neighbor = Histogram(anchor)
        description = f"removing one user deletes {len(vanish)} labels at count exactly {gap}"
    elif mechanism == "topk":
        check_int("kbar", kbar)
        m = min(kbar, sens.l0)
        boundary = _letters(m, start=1)
        filler_count = 100 if anchor_count is None else anchor_count
        fillers = {f"s{j}": filler_count for j in range(1, kbar - m + 1)}
        if fillers and filler_count <= count + gap:
            raise ParameterError("anchor_count must exceed count + linf")
        base = Histogram({lab: count + gap for lab in boundary} | {"a": count} | fillers)
        neighbor = Histogram({lab: count for lab in boundary} | {"a": count} | fillers)
        description = (
            f"one user holds the last {m} top labels exactly {gap} above the "
            f"(kbar+1)-th count; without it the tie-break evicts {boundary[-1]!r}"
        )
    elif mechanism == "gumbel":
        check_int("kbar", kbar)
        check_int("count", count, 2)
        tied = _letters(kbar, start=1)
        base = Histogram({lab: count for lab in tied} | {"a": count - 1})
        neighbor = Histogram({lab: count - 1 for lab in tied} | {"a": count - 1})
        description = (
            f"one user lifts {kbar} tied top labels one above the runner-up; "
            f"without it the tie-break evicts {tied[-1]!r}"
        )
        sens = SensitivityBound(l0=math.inf, linf=1)  # one user moves every count by one
    elif mechanism == "stream":
        check_sensitivity(sens)
        check_int("horizon", horizon)
        if check_int("debut_round", debut_round) > horizon:
            raise ParameterError("debut_round must lie within the horizon")
        fresh = frozenset(_letters(sens.l0))
        base = tuple(
            StreamEvent(r, fresh if r == debut_round else ())
            for r in range(1, horizon + 1)
        )
        neighbor = tuple(StreamEvent(r, ()) for r in range(1, horizon + 1))
        description = (
            f"{len(fresh)} fresh labels debut at round {debut_round} and never recur; "
            "the neighboring stream's event is empty"
        )
    else:
        raise ParameterError(f"unknown boundary mechanism {mechanism!r}")

    pair = NeighborPair(
        kind="stream" if mechanism == "stream" else "histogram",
        base=base,
        neighbor=neighbor,
        description=description,
    )
    validate_neighbor_pair(pair, sens)
    return pair


def _stream_counter(config: MechanismConfig) -> CounterConfig:
    """The stream row's CounterConfig; its seed is unused, as counter_batch
    draws from the rng it is given."""
    if config.debut_round is None:
        raise ParameterError("stream delta events need debut_round")
    l0 = check_sensitivity(config.sens).l0
    counter = CounterConfig.from_privacy(config.horizon, l0, config.epsilon, config.delta, 0)
    if config.threshold_override is None:
        return counter
    return dataclasses.replace(counter, threshold=config.threshold_override)


def _gumbel_k(config: MechanismConfig) -> int:
    return config.k if config.k is not None else config.kbar


def _alg1_runs(base, config: MechanismConfig, rng: RandomSource, n: int) -> tuple[list[str], np.ndarray]:
    base = Histogram.coerce(base)
    released, _, _ = release_batch(base, config.sens, config.noise, config.epsilon, config.delta, rng, n,
                                   threshold_override=config.threshold_override)
    return base.labels(), released


def _topk_runs(base, config: MechanismConfig, rng: RandomSource, n: int) -> tuple[list[str], np.ndarray]:
    trunc, _, released, _ = release_topk_batch(base, config.kbar, config.sens, config.epsilon, config.delta,
                                               rng, n, threshold_override=config.threshold_override)
    return [label for label, _ in trunc.top], released


def _gumbel_runs(base, config: MechanismConfig, rng: RandomSource, n: int) -> tuple[list[str], np.ndarray]:
    labels, order, taken = release_gumbel_topk_batch(
        base, _gumbel_k(config), config.kbar, config.l0_for_threshold, config.epsilon, config.delta, rng, n,
        threshold_override=config.threshold_override,
    )
    released = np.zeros((n, len(labels)), dtype=bool)
    np.put_along_axis(released, order, np.arange(order.shape[1]) < taken[:, None], axis=1)
    return labels, released


def _stream_runs(base, config: MechanismConfig, rng: RandomSource, n: int) -> tuple[list[str], np.ndarray]:
    labels, _, released = counter_batch(_stream_counter(config), base[: config.debut_round], rng, n)
    return labels, released


def _stream_feasible(neighbor, config: MechanismConfig) -> frozenset[str]:
    _stream_counter(config)  # refuses a config the runs cannot take, before any run
    return frozenset().union(*(event.items for event in neighbor))


def _stream_oracle(config: MechanismConfig) -> float:
    """The debut label, at count 1, is released when its count plus the noise
    of active_node_count(debut_round) nodes clears the threshold."""
    counter = _stream_counter(config)
    spread = math.sqrt(active_node_count(config.debut_round)) * counter.sigma
    return 1.0 - normal_cdf((counter.threshold - 1.0) / spread)


#: Each mechanism's delta-event kernel: the pair kind it runs on, the labels
#: the neighbor input can ever release, as feasible(neighbor, config),
#: runs(base, config, rng, n) -> (labels, released) for the next n trials on
#: the base input, where released[i, j] says whether the i-th run released
#: labels[j], and oracle(config), the exact probability of the delta event
#: on the boundary pair: alg1 and topk are calibrated so that it is delta,
#: Gumbel's threshold makes it delta / (delta + 1), and the stream's is a
#: normal tail.  Each row calls its mechanism's own batch kernel.
_DELTA_EVENT_KERNELS = {
    "alg1": ("histogram", lambda h, c: frozenset(Histogram.coerce(h).labels()), _alg1_runs,
             lambda c: c.delta),
    "topk": ("histogram", lambda h, c: frozenset(dict(truncate_topk(h, c.kbar).top)), _topk_runs,
             lambda c: c.delta),
    "gumbel": ("histogram", lambda h, c: frozenset(gumbel_candidates(h, _gumbel_k(c), c.kbar)[0]),
               _gumbel_runs, lambda c: c.delta / (c.delta + 1.0)),
    "stream": ("stream", _stream_feasible, _stream_runs, _stream_oracle),
}


def _delta_event_setup(pair: NeighborPair, config: MechanismConfig) -> tuple[frozenset[str], partial]:
    """The mechanism's feasible labels and runs(rng, n) on the pair, from its
    row of _DELTA_EVENT_KERNELS.  Each call draws its n runs from rng, so
    consecutive calls make the runs one call for their total would."""
    mech = config.mechanism
    if mech not in _DELTA_EVENT_KERNELS:
        raise ParameterError(f"unknown mechanism {mech!r}")
    kind, feasible, runs, _ = _DELTA_EVENT_KERNELS[mech]
    if pair.kind != kind:
        raise ParameterError(f"{mech} delta events cannot run on a {pair.kind} pair")
    return feasible(pair.neighbor, config), partial(runs, pair.base, config)


def estimate_delta_event(
    pair: NeighborPair,
    config: MechanismConfig,
    trials: int,
    rng: RandomSource,
) -> DeltaEstimate:
    """Run the mechanism ``trials`` times on the base input and count runs
    whose released label set the neighbor could not have produced.

    The runs go in batches of up to DELTA_EVENT_BATCH trials: one [batch,
    draws] noise block from rng, through the mechanism's selection rule (for
    the stream, one array sweep over the block's columns), so the runs are
    the ones ``trials`` consecutive single runs on rng would make, and memory
    stays bounded whatever the trial count.
    """
    check_int("trials", trials, MIN_TRIALS)
    feasible, runs = _delta_event_setup(pair, config)
    hits = 0
    for start in range(0, trials, DELTA_EVENT_BATCH):
        labels, released = runs(rng, min(DELTA_EVENT_BATCH, trials - start))
        infeasible = [j for j, label in enumerate(labels) if label not in feasible]
        hits += int(released[:, infeasible].any(axis=1).sum())
    return DeltaEstimate(
        point=hits / trials,
        upper=wilson_upper(hits, trials),
        trials=trials,
    )


def exact_expmech_topk_distribution(
    h: Histogram, k: int, epsilon: float
) -> dict[tuple[str, ...], float]:
    """Exact law of k sequential softmax selections without replacement, less
    the outcomes of probability 0.

    Selection weights are exp(epsilon * count) with unit per-count sensitivity,
    against the top count, or against the top count left in a stage whose weights
    left sum below the normal range; only small instances are enumerable.
    """
    h = Histogram.coerce(h)
    n = len(h)
    if n > 8:
        raise ParameterError(f"instance too large to enumerate: {n} items")
    if check_int("k", k) > n:
        raise ParameterError(f"k must not exceed the {n} items, got {k!r}")
    check_positive("epsilon", epsilon)

    def against_top(remaining: list[str]) -> dict[str, float]:
        top = max(h[label] for label in remaining)
        return {label: math.exp(epsilon * (h[label] - top)) for label in remaining}

    labels = h.labels()
    weights = against_top(labels)
    out: dict[tuple[str, ...], float] = {}

    def descend(prefix: tuple[str, ...], remaining: list[str], prob: float) -> None:
        if prob == 0.0:
            return
        if len(prefix) == k:
            out[prefix] = prob
            return
        stage = weights
        if sum(weights[label] for label in remaining) < sys.float_info.min:  # they underflowed
            stage = against_top(remaining)
        total = sum(stage[label] for label in remaining)
        for label in remaining:
            rest = [other for other in remaining if other != label]
            descend(prefix + (label,), rest, prob * stage[label] / total)

    descend((), labels, 1.0)
    return out


def sample_gumbel_topk_outcomes(
    h: Histogram,
    k: int,
    kbar: int,
    epsilon: float,
    trials: int,
    rng: RandomSource,
    *,
    threshold_disabled: bool = True,
    l0_for_threshold: int = 1,
    delta: float = 0.05,
) -> dict[tuple[str, ...], float]:
    """Empirical distribution of ranked outputs over many one-shot runs.

    The runs are ``release_gumbel_topk_batch``'s, in batches of up to
    DELTA_EVENT_BATCH trials, so the distance checks sample the transform
    and selection rule the CLI runs, in bounded memory.
    """
    check_int("trials", trials)
    labels = gumbel_candidates(h, k, kbar)[0]
    n = len(labels)
    if n == 0:
        return {(BOTTOM,): 1.0}
    width = min(k, n)
    if (n + 1) ** width > 2**63:
        raise ParameterError("too many ranked outcomes to tabulate")

    override = -math.inf if threshold_disabled else None
    # Row i as the base-(n+1) number whose digits are its ranked candidates
    # plus one, padded with zeros after the last released one.
    places = (n + 1) ** np.arange(width - 1, -1, -1, dtype=np.int64)
    codes = []
    for start in range(0, trials, DELTA_EVENT_BATCH):
        _, order, taken = release_gumbel_topk_batch(
            h, k, kbar, l0_for_threshold, epsilon, delta, rng, min(DELTA_EVENT_BATCH, trials - start),
            threshold_override=override,
        )
        codes.append(np.where(np.arange(width) < taken[:, None], order + 1, 0) @ places)
    frequencies: dict[tuple[str, ...], float] = {}
    unique, repeats = np.unique(np.concatenate(codes), return_counts=True)
    for code, hits in zip(unique.tolist(), repeats.tolist()):
        ranked = []
        for _ in range(width):
            code, digit = divmod(code, n + 1)
            ranked.append(digit)
        outcome = tuple(labels[d - 1] for d in reversed(ranked) if d)
        if len(outcome) < k:
            outcome += (BOTTOM,)
        frequencies[outcome] = hits / trials
    return frequencies


def tv_distance(
    empirical: Mapping[tuple[str, ...], float],
    exact: Mapping[tuple[str, ...], float],
) -> float:
    """Total variation distance, half the l1 gap over the union of outcomes."""
    keys = set(empirical) | set(exact)
    return 0.5 * sum(abs(empirical.get(key, 0.0) - exact.get(key, 0.0)) for key in keys)


def estimate_renyi_divergence(
    p: Mapping, q: Mapping, order: RenyiOrder | float
) -> float:
    """D_lambda(P || Q) on explicit distributions; +inf when q misses p's support.

    order 1 is the KL limit; above 1 the divergence is
    ln(sum p^lambda q^(1-lambda)) / (lambda - 1).
    """
    lam = (order if isinstance(order, RenyiOrder) else RenyiOrder(order)).value
    support = [(key, prob) for key, prob in p.items() if prob > 0.0]
    for key, _ in support:
        if q.get(key, 0.0) <= 0.0:
            return math.inf
    if lam == 1.0:
        return sum(prob * math.log(prob / q[key]) for key, prob in support)
    total = sum(prob**lam * q[key] ** (1.0 - lam) for key, prob in support)
    return math.log(total) / (lam - 1.0)


# ---------------------------------------------------------------------------
# Named suites behind the `validate` CLI subcommand.

SUITES = ("alg1", "topk", "gumbel", "stream", "renyi")

_SUITE_DELTA = 0.05
#: Default trial counts: frequency estimates need fewer runs than
#: distribution-distance estimates.
DEFAULT_DELTA_EVENT_TRIALS = 10**5
DEFAULT_DISTANCE_TRIALS = 10**6

_UNIT = SensitivityBound(l0=1, linf=1)

#: The delta-event checks: each row's check name, the mechanism (and suite)
#: it runs, the rng.child token its trials draw from, and the MechanismConfig
#: fields beyond epsilon 1 and delta _SUITE_DELTA, which also size its
#: boundary pair.
_DELTA_EVENT_CHECKS = [
    ("alg1-laplace-delta-event", "alg1", "laplace", dict(sens=_UNIT, noise="laplace")),
    ("alg1-gaussian-delta-event", "alg1", "gaussian", dict(sens=_UNIT, noise="gaussian")),
    ("topk-delta-event", "topk", "topk", dict(sens=_UNIT, kbar=1)),
    ("gumbel-delta-event", "gumbel", "delta", dict(kbar=1, k=1, l0_for_threshold=1)),
    ("stream-debut-delta-event", "stream", "stream", dict(sens=_UNIT, horizon=7, debut_round=7)),
]


def _delta_event_case(mechanism: str, fields: dict) -> tuple[NeighborPair, MechanismConfig]:
    """A _DELTA_EVENT_CHECKS row's boundary pair and MechanismConfig."""
    config = MechanismConfig(mechanism, epsilon=1.0, delta=_SUITE_DELTA, **fields)
    pair = make_boundary_neighbors(
        mechanism, config.sens, kbar=config.kbar, horizon=config.horizon, debut_round=config.debut_round
    )
    return pair, config


def _check(
    name: str,
    passed: bool,
    point: float,
    upper: float,
    expected: float,
    tolerance: float,
    trials: int,
) -> dict:
    """One row of a suite report."""
    return {
        "name": name,
        "passed": passed,
        "point": point,
        "upper": upper,
        "expected": expected,
        "tolerance": tolerance,
        "trials": trials,
    }


def run_suite(suite: str, trials: int | None, seed: int) -> dict:
    """Execute one named validation suite and return a JSON-ready report.

    trials=None uses the per-check defaults (1e5 for delta-event frequency,
    1e6 for distribution distance); an explicit value overrides both, and
    every suite refuses one below MIN_TRIALS before any check runs.
    """
    if suite not in SUITES:
        raise ParameterError(f"suite must be one of {SUITES}, got {suite!r}")
    event_trials, distance_trials = DEFAULT_DELTA_EVENT_TRIALS, DEFAULT_DISTANCE_TRIALS
    if trials is not None:
        event_trials = distance_trials = check_int("trials", trials, MIN_TRIALS)
    rng = RandomSource(seed)
    checks: list[dict] = []

    for name, mechanism, token, fields in _DELTA_EVENT_CHECKS:
        if mechanism != suite:
            continue
        pair, config = _delta_event_case(mechanism, fields)
        estimate = estimate_delta_event(pair, config, event_trials, rng.child(token))
        expected = _DELTA_EVENT_KERNELS[mechanism][3](config)  # the row's oracle
        tolerance = max(5.0 * math.sqrt(expected * (1.0 - expected) / event_trials), 1e-6)
        passed = (
            abs(estimate.point - expected) <= tolerance
            and estimate.upper <= 1.2 * config.delta
        )
        checks.append(
            _check(name, passed, estimate.point, estimate.upper, expected, tolerance, event_trials)
        )

    if suite == "gumbel":
        h = Histogram({"a": 3, "b": 2, "c": 1})
        exact = exact_expmech_topk_distribution(h, 2, 1.0)
        empirical = sample_gumbel_topk_outcomes(
            h, 2, len(h), 1.0, distance_trials, rng.child("tv")
        )
        tv = tv_distance(empirical, exact)
        bound = max(0.01, 3.0 * math.sqrt(len(exact) / (4.0 * distance_trials)))
        checks.append(_check("gumbel-expmech-tv", tv < bound, tv, tv, 0.0, bound, distance_trials))
    elif suite == "renyi":
        for epsilon in (0.5, 1.0, 2.0):
            base = Histogram({"a": 4, "b": 3, "c": 2})
            neighbor = Histogram({"a": 3, "b": 3, "c": 2})
            p = exact_expmech_topk_distribution(base, 1, epsilon)
            q = exact_expmech_topk_distribution(neighbor, 1, epsilon)
            rho = expmech_cdp(epsilon).rho
            worst = 0.0
            for lam in (1.5, 2.0, 4.0, 8.0):
                gap = max(
                    estimate_renyi_divergence(p, q, lam) - lam * rho,
                    estimate_renyi_divergence(q, p, lam) - lam * rho,
                )
                worst = max(worst, gap)
            name = f"renyi-budget-eps-{epsilon}"
            checks.append(_check(name, worst <= 1e-12, worst, worst, 0.0, 1e-12, 0))

    return {
        "suite": suite,
        "seed": seed,
        "trials": trials,
        "passed": all(check["passed"] for check in checks),
        "checks": checks,
    }
