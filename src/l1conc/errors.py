"""Exception hierarchy shared by all l1conc modules, and the one check of an
integer or real input against its domain."""

import math
import numbers


class ValidationError(ValueError):
    """An input violates a precondition: a shape, sign or sum, or the domain
    of a closed-form formula."""


class CapacityError(RuntimeError):
    """An exact computation was requested whose size exceeds its cap."""


class ConfigError(ValueError):
    """An experiment configuration is syntactically or semantically invalid."""


# the integers [lo, hi) of each integer quantity, hi None for no upper end.
# S and n are counter words of a law's key and below 2^64 convert to floats
# in every formula; a trial count from 2^62 fails before any draw; stream
# is the law word's bits below the family code; a word is one 64-bit word of
# a Philox key or counter
DOMAINS = {
    "S": (2, 2**64),
    "n": (1, 2**64),
    "trials": (1, 2**62),
    "stream": (0, 2**62),
    "workers": (1, None),
    "word": (0, 2**64),
}

# the interval of each real quantity, as its message prints it: a bracket is
# a closed end, a parenthesis an open one; README's domain table names the
# inputs read against each
INTERVALS = {"delta": "(0, 1]", "level": "(0, 1)", "D": "(0, inf)", "threshold": "(-inf, inf)",
             "regime": "[0, inf)"}


def _bound(b: int) -> str:
    # a large power of two as 2^k, anything else in decimal
    return f"2^{b.bit_length() - 1}" if b >= 2**32 and b & (b - 1) == 0 else str(b)


def integer(value, name: str, domain: tuple | None = None, error=ValidationError) -> int:
    """``value`` as a Python int if it is an integer in [lo, hi) of
    ``domain``, by default ``DOMAINS[name]``; otherwise ``error`` (a
    ``ValidationError`` unless given) naming ``name``.  A bool is no
    integer here.  Arithmetic on the Python int is exact where that on a
    NumPy integer would wrap."""
    lo, hi = DOMAINS[name] if domain is None else domain
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        value = int(value)
        if lo <= value and (hi is None or value < hi):
            return value
    above = "" if hi is None else f" and < {_bound(hi)}"
    raise error(f"{name} must be an integer >= {lo}{above}")


def real(value, name: str, domain: str | None = None) -> float:
    """``value`` as a Python float if it is a real number in the interval
    ``domain``, by default ``INTERVALS[name]``; otherwise a ``ValidationError``
    naming ``name``.  NaN, strings, ``None`` and integers beyond any float lie
    in no interval."""
    interval = INTERVALS[name] if domain is None else domain
    lo, hi = map(float, interval[1:-1].split(","))
    try:  # NaN fails every comparison below
        x = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an integer beyond any float
        x = math.nan
    if (lo < x or interval[0] == "[" and x == lo) and (x < hi or interval[-1] == "]" and x == hi):
        return x
    raise ValidationError(f"{name} must be a finite real number in {interval}")
