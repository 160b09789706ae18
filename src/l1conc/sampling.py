"""Seedable batch samplers for multinomial counts and Dirichlet vectors.

All randomness comes from disjoint counter segments of one Philox stream per
master seed, each named by a :class:`StreamKey`, so any draw is reproducible
from its key alone, independently of scheduling or worker count.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DOMAINS, ValidationError, integer

# Absolute tolerance on the simplex sum; leaves double-precision headroom
# for dimensions up to ~1e6.
SIMPLEX_SUM_TOL = 1e-12


def as_simplex(p) -> np.ndarray:
    """``p`` as a float array, checked to be a probability vector: 1-d,
    finite, nonnegative, summing to 1 within ``SIMPLEX_SUM_TOL``."""
    e = np.asarray(p, dtype=float)
    if e.ndim != 1 or e.size < 1:
        raise ValidationError("simplex vector must be a 1-d array with at least one entry")
    if not (np.isfinite(e).all() and np.all(e >= 0)):
        raise ValidationError("simplex vector entries must be finite and >= 0")
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
    draws) each.  The engine names a law's replicate by the key word ``law``,
    its family code above a 62-bit replicate number, and the law itself by
    the counter words (see ``montecarlo._draw_chunk``).
    """

    master_seed: int
    stream: int = 0
    row: int = 0
    chunk: int = 0
    law: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream", "row", "chunk", "law"):
            object.__setattr__(self, name, integer(getattr(self, name), name, DOMAINS["word"]))

    def generator(self, segment: int = 0) -> np.random.Generator:
        segment = integer(segment, "segment", (0, 2**32))
        counter = np.array([segment << 32, self.stream, self.row, self.chunk], dtype=np.uint64)
        key = np.array([self.master_seed, self.law], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(counter=counter, key=key))


def sample_multinomial_batch(p, n: int, size: int, key: StreamKey) -> np.ndarray:
    """Draw ``size`` independent Multinomial(n, p) rows from one stream."""
    p, size = as_simplex(p), integer(size, "size", DOMAINS["trials"])
    n = integer(n, "n", (0, 2**63))  # NumPy takes n as an int64
    return key.generator().multinomial(n, p, size=size)


def sample_dirichlet_batch(alpha, size: int, key: StreamKey) -> np.ndarray:
    """Draw ``size`` Dirichlet(alpha) rows from one stream.  ``alpha`` must
    be positive with a finite sum of at least 1: a row's gammas then all
    underflow to 0 with probability below about 1e-300, so no row has a
    zero sum."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 1 or alpha.size < 1:
        raise ValidationError("alpha must be a 1-d array with at least one entry")
    with np.errstate(over="ignore"):  # a sum that overflows is inf, refused below
        total = alpha.sum()
    # n·p at n = 1 may sum to 1 - 1 ulp; NaN fails every comparison
    if not (np.all(alpha > 0) and math.isfinite(total) and total >= 1 - SIMPLEX_SUM_TOL):
        raise ValidationError("alpha entries must be > 0, with a finite sum >= 1")
    size = integer(size, "size", DOMAINS["trials"])
    g = key.generator().standard_gamma(alpha, size=(size, alpha.size))
    return g / g.sum(-1, keepdims=True)
