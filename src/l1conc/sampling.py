"""Seedable batch samplers for multinomial counts and Dirichlet vectors.

All randomness comes from disjoint counter segments of one Philox stream per
master seed, each named by a :class:`StreamKey`, so any draw is reproducible
from its key alone, independently of scheduling or worker count.
"""

import numbers
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ValidationError

# Absolute tolerance on the simplex sum; leaves double-precision headroom
# for dimensions up to ~1e6.
SIMPLEX_SUM_TOL = 1e-12


def as_simplex(p) -> np.ndarray:
    """``p`` as a float array, checked to be a probability vector: 1-d,
    nonnegative, summing to 1 within ``SIMPLEX_SUM_TOL``."""
    e = np.asarray(p, dtype=float)
    if e.ndim != 1 or e.size < 1:
        raise ValidationError("simplex vector must be a 1-d array with at least one entry")
    if np.any(e < 0):
        raise ValidationError("simplex vector has a negative entry")
    if abs(float(e.sum()) - 1.0) > SIMPLEX_SUM_TOL:
        raise ValidationError(
            f"simplex vector entries sum to {e.sum()!r}, not 1 within {SIMPLEX_SUM_TOL}"
        )
    return e


@dataclass(frozen=True)
class StreamKey:
    """Deterministic handle for one segment of a master seed's Philox stream.

    The key is ``(master_seed, law)``; ``(stream, row, chunk)`` fill the three
    high 64-bit words of the 256-bit counter, and numpy advances it from the
    low word, so distinct handles own disjoint stretches of 2^64 blocks
    (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
    ``generator(segment)`` starts the low word at ``segment``·2^32, so a
    handle's segments own disjoint stretches of 2^32 blocks (2^34 64-bit
    draws) each.  A law is named by its key word ``law``, its family code
    above 62 zero bits, and its counter words (see ``montecarlo._draw_chunk``);
    ``law = 0`` is the layout of an explicit ``stream=``.
    """

    master_seed: int
    stream: int = 0
    row: int = 0
    chunk: int = 0
    law: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream", "row", "chunk", "law"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and 0 <= value < 2**64):
                raise ValidationError(f"{name} must be an integer that fits in 64 unsigned bits")

    def generator(self, segment: int = 0) -> np.random.Generator:
        if not 0 <= segment < 2**32:
            raise ValidationError("segment must be an integer in [0, 2^32)")
        counter = np.array([segment << 32, self.stream, self.row, self.chunk], dtype=np.uint64)
        key = np.array([self.master_seed, self.law], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _multinomial_columns(rngs, p: np.ndarray, n: int, size: int):
    """Yield the count columns of ``size`` Multinomial(n, p) rows, one per
    category in order, by sequential conditional binomials vectorized across
    rows, column i drawn from the i-th generator of ``rngs``.  Stable for
    large n and any dimension; a consumer that reduces each column as it
    comes never holds the ``size × p.size`` counts.
    """
    remaining = np.full(size, n, dtype=np.int64)
    tail = 1.0
    for rng, q in zip(rngs, map(float, p[:-1])):
        # once the rest of p sums to 0 its columns are empty and nothing more is drawn
        c = (rng.binomial(remaining, min(max(q / tail, 0.0), 1.0)) if tail > 0.0
             else np.zeros_like(remaining))
        yield c
        remaining -= c
        tail -= q
    yield remaining


def sample_multinomial_batch(p, n: int, size: int, key: StreamKey) -> np.ndarray:
    """Draw ``size`` independent Multinomial(n, p) rows from one stream."""
    p = as_simplex(p)
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValidationError("trial count n must be an integer >= 0")
    if size < 1:
        raise ValidationError("batch size must be >= 1")
    return np.column_stack(list(_multinomial_columns(repeat(key.generator()), p, n, size)))


def sample_dirichlet_batch(alpha, size: int, key: StreamKey) -> np.ndarray:
    """Draw ``size`` Dirichlet(alpha) rows from one stream.  ``alpha`` must
    sum to at least 1: a row's gammas then all underflow to 0 with
    probability below about 1e-300, so no row has a zero sum."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 1 or alpha.size < 1:
        raise ValidationError("alpha must be a 1-d array with at least one entry")
    if np.any(alpha <= 0):
        raise ValidationError("alpha entries must be > 0")
    if not alpha.sum() >= 1 - SIMPLEX_SUM_TOL:  # n·p at n = 1 may sum to 1 - 1 ulp
        raise ValidationError("alpha must sum to >= 1")
    if size < 1:
        raise ValidationError("batch size must be >= 1")
    rng = key.generator()
    g = rng.standard_gamma(alpha, size=(size, alpha.size))
    return g / g.sum(-1, keepdims=True)
