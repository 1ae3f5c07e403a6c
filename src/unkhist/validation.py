"""Statistical checks behind the mechanisms' failure-probability claims.

The harness builds worst-case neighboring inputs, estimates by Monte Carlo
how often a mechanism emits an outcome its neighbor could never produce
(which must stay below delta), and compares sampled ranked-list mechanisms
against exact enumerated distributions via total variation and Renyi
divergence.
"""

from __future__ import annotations

import dataclasses
import math
import string
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .accountant import RenyiOrder
from .core import (
    BOTTOM,
    Histogram,
    ParameterError,
    RandomSource,
    SensitivityBound,
    check_int,
    check_positive,
    check_sensitivity,
    is_reserved_label,
    normal_cdf,
)
# release, release_topk and release_gumbel_topk stay bound here for
# perfbench/tracing.py, which wraps these names; the estimators run the
# *_batch forms.
from .gumbel import (  # noqa: F401
    gumbel_threshold,
    release_gumbel_topk,
    release_gumbel_topk_batch,
    select_gumbel,
)
from .release import release, release_batch  # noqa: F401
from .stream import Counter, CounterConfig, StreamEvent, active_node_count
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
    if mechanism == "alg1":
        check_sensitivity(sens)
        floor = int(sens.linf)
        if floor != sens.linf or floor < 1:
            raise ParameterError("alg1 boundary pairs need an integer linf >= 1")
        vanish = _letters(sens.l0)
        anchor = {} if anchor_count is None else {"z": anchor_count}
        base = Histogram({label: floor for label in vanish} | anchor)
        neighbor = Histogram(anchor)
        pair = NeighborPair(
            kind="histogram",
            base=base,
            neighbor=neighbor,
            description=(
                f"removing one user deletes {len(vanish)} labels at count exactly {floor}"
            ),
        )
        validate_neighbor_pair(pair, sens)
        return pair

    if mechanism == "topk":
        check_sensitivity(sens)
        check_int("kbar", kbar)
        gap = int(sens.linf)
        if gap != sens.linf or gap < 1:
            raise ParameterError("topk boundary pairs need an integer linf >= 1")
        m = min(kbar, sens.l0)
        boundary = _letters(m, start=1)
        filler_count = 100 if anchor_count is None else anchor_count
        fillers = {f"s{j}": filler_count for j in range(1, kbar - m + 1)}
        if fillers and filler_count <= count + gap:
            raise ParameterError("anchor_count must exceed count + linf")
        base = Histogram({lab: count + gap for lab in boundary} | {"a": count} | fillers)
        neighbor = Histogram({lab: count for lab in boundary} | {"a": count} | fillers)
        pair = NeighborPair(
            kind="histogram",
            base=base,
            neighbor=neighbor,
            description=(
                f"one user holds the last {m} top labels exactly {gap} above the "
                f"(kbar+1)-th count; without it the tie-break evicts {boundary[-1]!r}"
            ),
        )
        validate_neighbor_pair(pair, sens)
        return pair

    if mechanism == "gumbel":
        check_int("kbar", kbar)
        check_int("count", count, 2)
        tied = _letters(kbar, start=1)
        base = Histogram({lab: count for lab in tied} | {"a": count - 1})
        neighbor = Histogram({lab: count - 1 for lab in tied} | {"a": count - 1})
        pair = NeighborPair(
            kind="histogram",
            base=base,
            neighbor=neighbor,
            description=(
                f"one user lifts {kbar} tied top labels one above the runner-up; "
                f"without it the tie-break evicts {tied[-1]!r}"
            ),
        )
        validate_neighbor_pair(pair, SensitivityBound(l0=math.inf, linf=1))
        return pair

    if mechanism == "stream":
        check_sensitivity(sens)
        check_int("horizon", horizon)
        if check_int("debut_round", debut_round) > horizon:
            raise ParameterError("debut_round must lie within the horizon")
        fresh = frozenset(string.ascii_lowercase[: sens.l0])
        base = tuple(
            StreamEvent(r, fresh if r == debut_round else ())
            for r in range(1, horizon + 1)
        )
        neighbor = tuple(StreamEvent(r, ()) for r in range(1, horizon + 1))
        pair = NeighborPair(
            kind="stream",
            base=base,
            neighbor=neighbor,
            description=(
                f"{len(fresh)} fresh labels debut at round {debut_round} and never recur; "
                "the neighboring stream's event is empty"
            ),
        )
        validate_neighbor_pair(pair, sens)
        return pair

    raise ParameterError(f"unknown boundary mechanism {mechanism!r}")


def _delta_event_setup(
    pair: NeighborPair, config: MechanismConfig
) -> tuple[frozenset[str], Callable[[RandomSource, int, int], tuple[list[str], np.ndarray]]]:
    """The labels the neighbor could ever emit (anything else is
    differentiating) and runs(rng, start, stop) -> (labels, released) for
    trials start..stop-1 on the base input, where released[i, j] says
    whether the (start+i)-th run released labels[j].  The histogram
    mechanisms draw the next stop - start runs from rng, so calls over
    consecutive ranges make the runs one call over their union would."""
    mech = config.mechanism
    if mech not in ("alg1", "topk", "gumbel", "stream"):
        raise ParameterError(f"unknown mechanism {mech!r}")
    if (pair.kind == "stream") != (mech == "stream"):
        raise ParameterError(f"{mech} delta events cannot run on a {pair.kind} pair")

    if mech == "stream":
        if config.debut_round is None:
            raise ParameterError("stream delta events need debut_round")
        l0 = check_sensitivity(config.sens).l0
        template = CounterConfig.from_privacy(
            config.horizon, l0, config.epsilon, config.delta, seed=0
        )
        if config.threshold_override is not None:
            template = dataclasses.replace(template, threshold=config.threshold_override)
        events = pair.base[: config.debut_round]
        labels = sorted(set().union(*(event.items for event in events)))

        def runs(rng: RandomSource, start: int, stop: int) -> tuple[list[str], np.ndarray]:
            released = np.zeros((stop - start, len(labels)), dtype=bool)
            for i in range(start, stop):
                counter = Counter(template, rng=rng.child(i))
                snapshot: dict[str, float] = {}
                for event in events:
                    snapshot = counter.observe(event)
                released[i - start] = [label in snapshot for label in labels]
            return labels, released

        seen: set[str] = set()
        for event in pair.neighbor:
            seen |= event.items
        return frozenset(seen), runs

    base = Histogram.coerce(pair.base)
    neighbor = Histogram.coerce(pair.neighbor)
    if mech == "alg1":

        def runs(rng: RandomSource, start: int, stop: int) -> tuple[list[str], np.ndarray]:
            labels, _, released, _ = release_batch(
                base,
                config.sens,
                config.noise,
                config.epsilon,
                config.delta,
                rng,
                stop - start,
                threshold_override=config.threshold_override,
            )
            return labels, released

        return frozenset(neighbor.labels()), runs

    trunc = truncate_topk(neighbor, config.kbar)
    if mech == "topk":

        def runs(rng: RandomSource, start: int, stop: int) -> tuple[list[str], np.ndarray]:
            base_trunc, _, released, _ = release_topk_batch(
                base,
                config.kbar,
                config.sens,
                config.epsilon,
                config.delta,
                rng,
                stop - start,
                threshold_override=config.threshold_override,
            )
            return [label for label, _ in base_trunc.top], released

        return frozenset(lab for lab, _ in trunc.top if not is_reserved_label(lab)), runs

    k = config.k if config.k is not None else config.kbar

    def runs(rng: RandomSource, start: int, stop: int) -> tuple[list[str], np.ndarray]:
        labels, order, taken = release_gumbel_topk_batch(
            base,
            k,
            config.kbar,
            config.l0_for_threshold,
            config.epsilon,
            config.delta,
            rng,
            stop - start,
            threshold_override=config.threshold_override,
        )
        released = np.zeros((stop - start, len(labels)), dtype=bool)
        ranked = np.arange(order.shape[1]) < taken[:, None]
        np.put_along_axis(released, order, ranked, axis=1)
        return labels, released

    return frozenset(lab for lab, c in trunc.top if c > 0), runs


def estimate_delta_event(
    pair: NeighborPair,
    config: MechanismConfig,
    trials: int,
    rng: RandomSource,
) -> DeltaEstimate:
    """Run the mechanism ``trials`` times on the base input and count runs
    whose released label set the neighbor could not have produced.

    The histogram mechanisms run in batches of up to DELTA_EVENT_BATCH
    trials: one [batch, draws] noise block from rng, through the mechanism's
    selection rule, so the runs are the ones ``trials`` consecutive single
    runs on rng would make, and memory stays bounded whatever the trial
    count.  The stream counter runs once per trial, on the substream
    rng.child(i).
    """
    check_int("trials", trials, MIN_TRIALS)
    feasible, runs = _delta_event_setup(pair, config)
    hits = 0
    for start in range(0, trials, DELTA_EVENT_BATCH):
        labels, released = runs(rng, start, min(start + DELTA_EVENT_BATCH, trials))
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
    """Exact law of k sequential softmax selections without replacement.

    Selection weights are exp(epsilon * count) with unit per-count sensitivity;
    only small instances are enumerable.
    """
    h = Histogram.coerce(h)
    n = len(h)
    if n > 8:
        raise ParameterError(f"instance too large to enumerate: {n} items")
    if check_int("k", k) > n:
        raise ParameterError(f"k must not exceed the {n} items, got {k!r}")
    check_positive("epsilon", epsilon)

    labels = h.labels()
    top = max(count for _, count in h.items())
    weights = {label: math.exp(epsilon * (count - top)) for label, count in h.items()}

    out: dict[tuple[str, ...], float] = {}

    def descend(prefix: tuple[str, ...], remaining: list[str], prob: float) -> None:
        if len(prefix) == k:
            out[prefix] = prob
            return
        total = sum(weights[label] for label in remaining)
        for label in remaining:
            rest = [other for other in remaining if other != label]
            descend(prefix + (label,), rest, prob * weights[label] / total)

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

    Ranks through release_gumbel_topk's selection kernel, with the same
    candidates (positive top-kbar counts) and noisy threshold, but maps
    numpy's vectorised Gumbel transform over one uniform block, for the
    10^6-trial distance checks.
    """
    h = Histogram.coerce(h)
    check_int("trials", trials)
    trunc = truncate_topk(h, kbar)
    candidates = [(label, count) for label, count in trunc.top if count > 0]
    n = len(candidates)
    if k > kbar:
        raise ParameterError("k must not exceed kbar")
    if n == 0:
        return {(BOTTOM,): 1.0}
    width = min(k, n)
    if (n + 1) ** width > 2**63:
        raise ParameterError("too many ranked outcomes to tabulate")

    cut = gumbel_threshold(l0_for_threshold, epsilon, delta) + trunc.next_count
    u = rng.uniforms(trials * (n + 1)).reshape(trials, n + 1)
    noise = -(1.0 / epsilon) * np.log(-np.log(u))
    labels = [label for label, _ in candidates]
    counts = np.array([count for _, count in candidates], dtype=float)
    order, taken = select_gumbel(
        counts, labels, noise, cut, k, -math.inf if threshold_disabled else None
    )

    # Row i as the base-(n+1) number whose digits are its ranked candidates
    # plus one, padded with zeros after the last released one.
    digits = np.where(np.arange(width) < taken[:, None], order + 1, 0)
    codes = digits @ (n + 1) ** np.arange(width - 1, -1, -1, dtype=np.int64)
    frequencies: dict[tuple[str, ...], float] = {}
    unique, repeats = np.unique(codes, return_counts=True)
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


def _tolerance(expected: float, trials: int) -> float:
    return max(5.0 * math.sqrt(expected * (1.0 - expected) / trials), 1e-6)


def _delta_event_check(
    name: str,
    pair: NeighborPair,
    config: MechanismConfig,
    expected: float,
    trials: int,
    rng: RandomSource,
) -> dict:
    estimate = estimate_delta_event(pair, config, trials, rng)
    tolerance = _tolerance(expected, trials)
    passed = (
        abs(estimate.point - expected) <= tolerance
        and estimate.upper <= 1.2 * config.delta
    )
    return {
        "name": name,
        "passed": passed,
        "point": estimate.point,
        "upper": estimate.upper,
        "expected": expected,
        "tolerance": tolerance,
        "trials": trials,
    }


def run_suite(suite: str, trials: int | None, seed: int) -> dict:
    """Execute one named validation suite and return a JSON-ready report.

    trials=None uses the per-check defaults (1e5 for delta-event frequency,
    1e6 for distribution distance); an explicit value overrides both.
    """
    if suite not in SUITES:
        raise ParameterError(f"suite must be one of {SUITES}, got {suite!r}")
    event_trials = trials if trials is not None else DEFAULT_DELTA_EVENT_TRIALS
    distance_trials = trials if trials is not None else DEFAULT_DISTANCE_TRIALS
    rng = RandomSource(seed)
    delta = _SUITE_DELTA
    checks: list[dict] = []

    if suite == "alg1":
        sens = SensitivityBound(l0=1, linf=1)
        pair = make_boundary_neighbors("alg1", sens)
        for noise in ("laplace", "gaussian"):
            config = MechanismConfig(
                mechanism="alg1", epsilon=1.0, delta=delta, sens=sens, noise=noise
            )
            checks.append(
                _delta_event_check(
                    f"alg1-{noise}-delta-event",
                    pair,
                    config,
                    delta,
                    event_trials,
                    rng.child(noise),
                )
            )
    elif suite == "topk":
        sens = SensitivityBound(l0=1, linf=1)
        pair = make_boundary_neighbors("topk", sens, kbar=1)
        config = MechanismConfig(
            mechanism="topk", epsilon=1.0, delta=delta, sens=sens, kbar=1
        )
        checks.append(
            _delta_event_check(
                "topk-delta-event", pair, config, delta, event_trials, rng.child("topk")
            )
        )
    elif suite == "gumbel":
        pair = make_boundary_neighbors("gumbel", kbar=1)
        config = MechanismConfig(
            mechanism="gumbel",
            epsilon=1.0,
            delta=delta,
            kbar=1,
            k=1,
            l0_for_threshold=1,
        )
        expected = delta / (delta + 1.0)
        checks.append(
            _delta_event_check(
                "gumbel-delta-event", pair, config, expected, event_trials, rng.child("delta")
            )
        )
        h = Histogram({"a": 3, "b": 2, "c": 1})
        exact = exact_expmech_topk_distribution(h, 2, 1.0)
        empirical = sample_gumbel_topk_outcomes(
            h, 2, len(h), 1.0, distance_trials, rng.child("tv")
        )
        tv = tv_distance(empirical, exact)
        bound = max(0.01, 3.0 * math.sqrt(len(exact) / (4.0 * distance_trials)))
        checks.append(
            {
                "name": "gumbel-expmech-tv",
                "passed": tv < bound,
                "point": tv,
                "upper": tv,
                "expected": 0.0,
                "tolerance": bound,
                "trials": distance_trials,
            }
        )
    elif suite == "stream":
        sens = SensitivityBound(l0=1, linf=1)
        horizon, debut = 7, 7
        pair = make_boundary_neighbors(
            "stream", sens, horizon=horizon, debut_round=debut
        )
        config = MechanismConfig(
            mechanism="stream",
            epsilon=1.0,
            delta=delta,
            sens=sens,
            horizon=horizon,
            debut_round=debut,
        )
        counter_config = CounterConfig.from_privacy(horizon, 1, 1.0, delta, seed=0)
        spread = math.sqrt(active_node_count(debut)) * counter_config.sigma
        expected = 1.0 - normal_cdf((counter_config.threshold - 1.0) / spread)
        checks.append(
            _delta_event_check(
                "stream-debut-delta-event",
                pair,
                config,
                expected,
                event_trials,
                rng.child("stream"),
            )
        )
    elif suite == "renyi":
        for epsilon in (0.5, 1.0, 2.0):
            base = Histogram({"a": 4, "b": 3, "c": 2})
            neighbor = Histogram({"a": 3, "b": 3, "c": 2})
            p = exact_expmech_topk_distribution(base, 1, epsilon)
            q = exact_expmech_topk_distribution(neighbor, 1, epsilon)
            rho = epsilon * epsilon / 8.0
            worst = 0.0
            for lam in (1.5, 2.0, 4.0, 8.0):
                gap = max(
                    estimate_renyi_divergence(p, q, lam) - lam * rho,
                    estimate_renyi_divergence(q, p, lam) - lam * rho,
                )
                worst = max(worst, gap)
            checks.append(
                {
                    "name": f"renyi-budget-eps-{epsilon}",
                    "passed": worst <= 1e-12,
                    "point": worst,
                    "upper": worst,
                    "expected": 0.0,
                    "tolerance": 1e-12,
                    "trials": 0,
                }
            )

    return {
        "suite": suite,
        "seed": seed,
        "trials": trials,
        "passed": all(check["passed"] for check in checks),
        "checks": checks,
    }
