"""Closed-form l1 deviation thresholds eps(n, S, delta) for the three bound
families from the literature: Weissman (union and exact-cover forms), Devroye
(with its validity regime), and the disputed dimension-free Agrawal bound."""

import enum
import math
from dataclasses import dataclass

from .errors import INTERVALS, ValidationError, integer, real

# Deviations above the l1 diameter of the simplex can never occur.
L1_DIAMETER = 2.0


class BoundFamily(str, enum.Enum):
    WEISSMAN_UNION = "WeissmanUnion"
    WEISSMAN_EXACT = "WeissmanExact"
    DEVROYE = "Devroye"
    AGRAWAL = "Agrawal"


@dataclass(frozen=True)
class BoundSpec:
    """Identifies one bound formula together with its (n, S, delta) arguments."""

    family: BoundFamily
    n: int
    S: int
    delta: float

    def __post_init__(self):
        if self.family not in tuple(BoundFamily):
            raise ValidationError(f"unknown bound family {self.family!r}")
        object.__setattr__(self, "family", BoundFamily(self.family))
        object.__setattr__(self, "n", integer(self.n, "n"))
        object.__setattr__(self, "S", integer(self.S, "S"))
        object.__setattr__(self, "delta", real(self.delta, "delta"))


@dataclass(frozen=True)
class BoundEvaluation:
    """An evaluated threshold.

    ``valid`` flags the Devroye regime (always True for other families);
    ``vacuous`` flags thresholds exceeding the l1 diameter 2.
    """

    spec: BoundSpec
    epsilon: float
    valid: bool
    vacuous: bool


def _log_2S_minus_2(S: int) -> float:
    # ln(2^S - 2); switch to S·ln2 + log1p(-2^(1-S)) once 2^S overflows doubles
    if S <= 60:
        return math.log(2**S - 2)
    return S * math.log(2.0) + math.log1p(-(2.0 ** (1 - S)))


def _log_over(c: float, delta: float) -> float:
    # ln(c/delta); as ln(c) − ln(delta) only where c/delta overflows, at a
    # subnormal delta, so that every other epsilon keeps its bits
    ratio = c / delta
    return math.log(ratio) if ratio < math.inf else math.log(c) - math.log(delta)


def devroye_valid(S: int, delta: float) -> bool:
    """Whether delta lies in the regime 0 <= delta <= 3·exp(-4S/5) where the
    Devroye bound is stated."""
    S = integer(S, "S")
    return real(delta, "delta", INTERVALS["regime"]) <= 3.0 * math.exp(-4.0 * S / 5.0)


def agrawal_epsilon(n: int, delta: float) -> float:
    """The disputed dimension-free threshold sqrt(2 ln(1/d)/n)."""
    n, delta = integer(n, "n"), real(delta, "delta")
    return math.sqrt(2.0 * _log_over(1.0, delta) / n)


# the threshold of each family at (n, S, delta); BoundSpec has checked the domain
_EPSILON = {
    BoundFamily.WEISSMAN_UNION: lambda n, S, delta: math.sqrt(2.0 * S * _log_over(2.0, delta) / n),
    BoundFamily.WEISSMAN_EXACT: lambda n, S, delta: math.sqrt(
        2.0 * (_log_2S_minus_2(S) - math.log(delta)) / n),
    BoundFamily.DEVROYE: lambda n, S, delta: 5.0 * math.sqrt(_log_over(3.0, delta) / n),
    BoundFamily.AGRAWAL: lambda n, S, delta: agrawal_epsilon(n, delta),
}


def evaluate_bound(spec: BoundSpec) -> BoundEvaluation:
    """Evaluate a BoundSpec into its threshold with regime and vacuity flags:
    Weissman's union form sqrt(2 S ln(2/d) / n) and exact-cover form
    sqrt(2 ln((2^S - 2)/d) / n), Devroye's 5·sqrt(ln(3/d)/n), and Agrawal's."""
    eps = _EPSILON[spec.family](spec.n, spec.S, spec.delta)
    valid = spec.family is not BoundFamily.DEVROYE or devroye_valid(spec.S, spec.delta)
    return BoundEvaluation(spec=spec, epsilon=eps, valid=valid, vacuous=eps > L1_DIAMETER)
