"""Privacy budget records, conversions, and composition.

Budgets are tracked as approximate zero-concentrated DP pairs (delta, rho)
and converted to approximate DP pairs (epsilon, delta) only at the edge of a
system, because composition in rho-space is exact and order-free.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .core import ParameterError, check_finite, check_positive, check_probability, check_real

__all__ = [
    "CdpBudget",
    "DpBudget",
    "RenyiOrder",
    "laplace_pure_dp",
    "gaussian_cdp",
    "expmech_cdp",
    "epsilon_squared_rho",
    "dp_to_cdp",
    "cdp_to_dp",
    "cdp_to_dp_optimize",
    "compose",
]


@dataclass(frozen=True)
class CdpBudget:
    """delta-approximate rho-zCDP; delta = 0 is pure zCDP."""

    delta: float
    rho: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", check_probability("delta", self.delta, allow_zero=True))
        object.__setattr__(self, "rho", check_real("rho", self.rho))

    def to_json_dict(self) -> dict:
        return {"rho": self.rho, "delta": self.delta}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CdpBudget":
        try:
            return cls(delta=payload["delta"], rho=payload["rho"])
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"budget payload must carry rho and delta: {payload!r}") from exc


@dataclass(frozen=True)
class DpBudget:
    """(epsilon, delta)-DP; delta = 0 is pure DP."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", check_real("epsilon", self.epsilon))
        object.__setattr__(self, "delta", check_probability("delta", self.delta, allow_zero=True))

    def to_json_dict(self) -> dict:
        return {"epsilon": self.epsilon, "delta": self.delta}


@dataclass(frozen=True)
class RenyiOrder:
    """An order lambda >= 1 at which Renyi divergences are evaluated."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", check_real("order", self.value, 1.0))


def laplace_pure_dp(l1_sensitivity: float, scale: float) -> DpBudget:
    """Laplace noise of scale b on an l1-sensitivity-D statistic is (D/b)-DP."""
    l1 = check_positive("l1_sensitivity", l1_sensitivity)
    b = check_positive("scale", scale)
    return DpBudget(epsilon=check_finite("epsilon", l1 / b, l1_sensitivity=l1, scale=b), delta=0.0)


def _ratio(square: float, denominator: float, exact: Callable[[], Fraction]) -> float:
    """square / denominator where both and the ratio are normal floats; else the exact
    ratio, exact(), rounded once (a subnormal square has lost bits), or inf past the float range."""
    tiny = sys.float_info.min
    rho = square / denominator if tiny <= denominator < math.inf else 0.0
    if tiny <= square < math.inf and tiny <= rho < math.inf:
        return rho
    try:
        return float(exact())
    except OverflowError:  # refused by the caller; Fraction(inf) raises it too
        return math.inf


def epsilon_squared_rho(count: int, epsilon: float, denominator: int) -> float:
    """count * epsilon^2 / denominator, the rho of count mechanisms each epsilon^2/denominator-zCDP,
    as ``_ratio`` rounds it; the Fraction, some microseconds a call, is formed only where used."""
    return _ratio(count * epsilon * epsilon, float(denominator),
                  lambda: count * Fraction(epsilon) ** 2 / denominator)


def gaussian_cdp(l2_sensitivity: float, sigma: float) -> CdpBudget:
    """Gaussian noise of deviation sigma on an l2-sensitivity-D statistic is D^2/(2 sigma^2)-zCDP;
    where a square leaves the normal float range, rho is the exact ratio rounded once, if finite."""
    l2 = check_positive("l2_sensitivity", l2_sensitivity)
    s = check_positive("sigma", sigma)
    rho = _ratio(l2 * l2, 2.0 * s * s, lambda: Fraction(l2) ** 2 / (2 * Fraction(s) ** 2))
    return CdpBudget(delta=0.0, rho=check_finite("rho", rho, l2_sensitivity=l2, sigma=s))


def expmech_cdp(epsilon: float) -> CdpBudget:
    """The exponential mechanism at privacy loss epsilon is eps^2/8-zCDP (bounded range)."""
    eps = check_positive("epsilon", epsilon)
    rho = epsilon_squared_rho(1, eps, 8)
    return CdpBudget(delta=0.0, rho=check_finite("rho", rho, epsilon=eps))


def dp_to_cdp(budget: DpBudget) -> CdpBudget:
    """(eps, delta)-DP implies delta-approximate eps^2/2-zCDP."""
    if not isinstance(budget, DpBudget):
        raise ParameterError(f"expected a DpBudget, got {budget!r}")
    eps = budget.epsilon
    rho = epsilon_squared_rho(1, eps, 2)
    return CdpBudget(delta=budget.delta, rho=check_finite("rho", rho, epsilon=eps))


def cdp_to_dp(budget: CdpBudget, delta_prime: float) -> DpBudget:
    """delta-approximate rho-zCDP implies (rho + 2*sqrt(rho*ln(1/d')), delta + d')-DP."""
    if not isinstance(budget, CdpBudget):
        raise ParameterError(f"expected a CdpBudget, got {budget!r}")
    dp = check_probability("delta_prime", delta_prime)
    total_delta = budget.delta + dp
    if total_delta >= 1.0:
        raise ParameterError(
            f"delta + delta_prime = {total_delta} leaves no usable guarantee"
        )
    inverse = 1.0 / dp  # ln(1/d') is -ln(d') where 1/d' overflows
    tail = math.log(inverse) if inverse < math.inf else -math.log(dp)
    epsilon = budget.rho + 2.0 * math.sqrt(budget.rho * tail)
    epsilon = check_finite("epsilon", epsilon, rho=budget.rho, delta_prime=dp)
    return DpBudget(epsilon=epsilon, delta=total_delta)


def cdp_to_dp_optimize(budget: CdpBudget, total_delta: float) -> DpBudget:
    """Convenience: split total_delta into delta + delta' minimizing epsilon.

    epsilon = rho + 2*sqrt(rho*ln(1/delta')) only falls as delta' grows, so
    the best split spends the whole slack total_delta - budget.delta on delta'.
    """
    if not isinstance(budget, CdpBudget):
        raise ParameterError(f"expected a CdpBudget, got {budget!r}")
    td = check_probability("total_delta", total_delta)
    slack = td - budget.delta
    if slack <= 0.0:
        raise ParameterError(
            f"total_delta {td} must exceed the budget's own delta {budget.delta}"
        )
    return cdp_to_dp(budget, slack)


def compose(budgets: Iterable[CdpBudget]) -> CdpBudget:
    """Sequential composition: rhos add, deltas fold as 1 - prod(1 - delta_i).

    Summands are sorted before folding so any permutation of the input
    produces the bit-identical result.  Budgets whose rhos sum past the float
    range are refused by name.
    """
    items = list(budgets)
    if not items:
        raise ParameterError("compose requires at least one budget")
    for b in items:
        if not isinstance(b, CdpBudget):
            raise ParameterError(f"compose expects CdpBudget values, got {b!r}")
    try:
        rho = math.fsum(sorted(b.rho for b in items))
    except OverflowError:  # a partial sum passed the float range
        rho = math.inf
    survival = 1.0
    for delta in sorted(b.delta for b in items):
        survival *= 1.0 - delta
    return CdpBudget(delta=1.0 - survival, rho=check_finite("rho", rho, budgets=items))
