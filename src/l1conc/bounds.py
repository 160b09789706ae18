"""Closed-form l1 deviation thresholds eps(n, S, delta) for the three bound
families from the literature: Weissman (union and exact-cover forms), Devroye
(with its validity regime), and the disputed dimension-free Agrawal bound."""

import enum
import math
import numbers
from dataclasses import dataclass

from .errors import ValidationError

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
        object.__setattr__(self, "family", BoundFamily(self.family))
        if not (isinstance(self.n, numbers.Integral) and self.n >= 1):
            raise ValidationError("n must be an integer >= 1")
        if not (isinstance(self.S, numbers.Integral) and self.S >= 2):
            raise ValidationError("S must be an integer >= 2")
        if not (0.0 < self.delta <= 1.0):
            raise ValidationError("delta must lie in (0, 1]")


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


def weissman_epsilon(n: int, S: int, delta: float, form: str = "exact") -> float:
    """Weissman threshold: sqrt(2 S ln(2/d) / n) (union) or
    sqrt(2 ln((2^S - 2)/d) / n) (exact cover)."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if S < 2:
        raise ValidationError("S must be >= 2")
    if delta <= 0:
        raise ValidationError("delta must be > 0")
    if form == "union":
        if delta > 2:
            raise ValidationError("union form requires delta <= 2")
        return math.sqrt(2.0 * S * math.log(2.0 / delta) / n)
    if form == "exact":
        log_num = _log_2S_minus_2(S) - math.log(delta)
        if log_num < 0:
            raise ValidationError("exact form requires delta <= 2^S - 2")
        return math.sqrt(2.0 * log_num / n)
    raise ValidationError(f"unknown Weissman form {form!r}")


def devroye_epsilon(n: int, delta: float) -> float:
    """Devroye threshold 5·sqrt(ln(3/d)/n)."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if delta <= 0:
        raise ValidationError("delta must be > 0")
    if delta > 3:
        raise ValidationError("delta must be <= 3")
    return 5.0 * math.sqrt(math.log(3.0 / delta) / n)


def devroye_valid(S: int, delta: float) -> bool:
    """Whether delta lies in the regime 0 <= delta <= 3·exp(-4S/5) where the
    Devroye bound is stated."""
    if S < 2:
        raise ValidationError("S must be >= 2")
    if delta < 0:
        raise ValidationError("delta must be >= 0")
    return delta <= 3.0 * math.exp(-4.0 * S / 5.0)


def agrawal_epsilon(n: int, delta: float) -> float:
    """The disputed dimension-free threshold sqrt(2 ln(1/d)/n)."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if delta <= 0:
        raise ValidationError("delta must be > 0")
    if delta > 1:
        raise ValidationError("delta must be <= 1")
    return math.sqrt(2.0 * math.log(1.0 / delta) / n)


def evaluate_bound(spec: BoundSpec) -> BoundEvaluation:
    """Evaluate a BoundSpec into its threshold with regime and vacuity flags."""
    fam = spec.family
    valid = True
    if fam is BoundFamily.WEISSMAN_UNION:
        eps = weissman_epsilon(spec.n, spec.S, spec.delta, form="union")
    elif fam is BoundFamily.WEISSMAN_EXACT:
        eps = weissman_epsilon(spec.n, spec.S, spec.delta, form="exact")
    elif fam is BoundFamily.DEVROYE:
        eps = devroye_epsilon(spec.n, spec.delta)
        valid = devroye_valid(spec.S, spec.delta)
    elif fam is BoundFamily.AGRAWAL:
        eps = agrawal_epsilon(spec.n, spec.delta)
    else:  # pragma: no cover
        raise ValidationError(f"unknown bound family {fam!r}")
    return BoundEvaluation(spec=spec, epsilon=eps, valid=valid, vacuous=eps > L1_DIAMETER)
