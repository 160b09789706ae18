"""Seedable batch samplers for multinomial counts and Dirichlet vectors.

All randomness flows through counter-based Philox streams keyed by a
:class:`StreamKey`, so any draw is reproducible from ``(master_seed,
stream_index)`` alone, independently of scheduling or worker count.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Absolute tolerance on the simplex sum; leaves double-precision headroom
# for dimensions up to ~1e6.
SIMPLEX_SUM_TOL = 1e-12

_UINT64_MASK = (1 << 64) - 1


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
    """Deterministic handle for one Philox random stream.

    Distinct ``stream_index`` values under the same master seed yield
    statistically independent streams (the pair forms the 128-bit Philox key).
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not (0 <= int(self.master_seed) <= _UINT64_MASK):
            raise ValidationError("master_seed must fit in 64 unsigned bits")
        if not (0 <= int(self.stream_index) <= _UINT64_MASK):
            raise ValidationError("stream_index must fit in 64 unsigned bits")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _multinomial_chain(rng: np.random.Generator, p: np.ndarray, n: int, size: int) -> np.ndarray:
    """Sample ``size`` rows of multinomial counts via sequential conditional
    binomials, vectorized across rows.  Stable for large n and any dimension.
    """
    S = p.size
    counts = np.zeros((size, S), dtype=np.int64)
    remaining = np.full(size, n, dtype=np.int64)
    tail = 1.0
    for i in range(S - 1):
        if tail <= 0.0:
            break
        cond = min(max(float(p[i]) / tail, 0.0), 1.0)
        c = rng.binomial(remaining, cond)
        counts[:, i] = c
        remaining -= c
        tail -= float(p[i])
    counts[:, S - 1] = remaining
    return counts


def sample_multinomial_batch(p, n: int, size: int, key: StreamKey) -> np.ndarray:
    """Draw ``size`` independent Multinomial(n, p) rows from one stream."""
    p = as_simplex(p)
    if n < 0:
        raise ValidationError("trial count n must be >= 0")
    if size < 1:
        raise ValidationError("batch size must be >= 1")
    rng = key.generator()
    return _multinomial_chain(rng, p, n, size)


def _gamma_to_simplex(g: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Normalize gamma variates to the simplex, guarding total underflow."""
    s = g.sum(axis=-1, keepdims=True)
    bad = (s <= 0.0)[..., 0]
    if np.any(bad):
        # all-zero gamma row (possible for very small alpha): fall back to the
        # Dirichlet mean, the canonical clamp-renormalize choice
        mean = alpha / alpha.sum()
        g = g.copy()
        g[bad] = mean
        s = g.sum(axis=-1, keepdims=True)
    return g / s


def sample_dirichlet_batch(alpha, size: int, key: StreamKey) -> np.ndarray:
    """Draw ``size`` Dirichlet(alpha) rows from one stream."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 1 or alpha.size < 1:
        raise ValidationError("alpha must be a 1-d array with at least one entry")
    if np.any(alpha <= 0):
        raise ValidationError("alpha entries must be > 0")
    if size < 1:
        raise ValidationError("batch size must be >= 1")
    rng = key.generator()
    g = rng.standard_gamma(alpha, size=(size, alpha.size))
    return _gamma_to_simplex(g, alpha)
