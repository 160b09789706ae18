"""Asymptotic limit machinery for the scaled l1 deviation under uniform p.

The limit variable Z is a positive-part functional of a degenerate Gaussian
vector Y with covariance I - N/(S-1) (unit diagonal, -1/(S-1) off-diagonal).
Sampling goes through the whitened representation: S-1 i.i.d. standard
normals W mapped back through the transpose of an explicit Helmert
orthogonal matrix, which diagonalizes the exchangeable covariance exactly.
The one product sampling needs, U^T w, uses the matrix's suffix-sum
structure, so it costs O(S) per draw and needs no dense linear algebra.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .sampling import StreamKey


@dataclass(frozen=True)
class LimitCovariance:
    """The exchangeable limit covariance: 1 on the diagonal, -1/(S-1) off it."""

    S: int
    matrix: np.ndarray


def limit_covariance(S: int) -> LimitCovariance:
    if S < 2:
        raise ValidationError("S must be >= 2")
    m = np.full((S, S), -1.0 / (S - 1))
    np.fill_diagonal(m, 1.0)
    return LimitCovariance(S=S, matrix=m)


def helmert_matrix(S: int) -> np.ndarray:
    """Dense S x S Helmert matrix.

    Row k (1-based, k < S) has its first k entries equal to 1/sqrt(k(k+1)),
    entry k+1 equal to -k/sqrt(k(k+1)) and zeros after; the last row is the
    normalized all-ones vector.  Rows are orthonormal by construction.
    """
    if S < 2:
        raise ValidationError("S must be >= 2")
    U = np.zeros((S, S))
    for k in range(1, S):
        h = 1.0 / math.sqrt(k * (k + 1))
        U[k - 1, :k] = h
        U[k - 1, k] = -k * h
    U[S - 1, :] = 1.0 / math.sqrt(S)
    return U


def helmert_t_apply(w: np.ndarray) -> np.ndarray:
    """U.T @ w along the last axis in O(S) via suffix sums."""
    w = np.asarray(w, dtype=float)
    S = w.shape[-1]
    if S < 2:
        raise ValidationError("vector length must be >= 2")
    k = np.arange(1, S, dtype=float)
    h = 1.0 / np.sqrt(k * (k + 1))
    a = w[..., : S - 1] * h
    suffix = np.flip(np.cumsum(np.flip(a, axis=-1), axis=-1), axis=-1)
    out = np.zeros_like(w)
    out[..., : S - 1] = suffix
    out[..., 1:] -= (k * h) * w[..., : S - 1]
    out += w[..., S - 1 :] / math.sqrt(S)
    return out


def _whitened_batch(S: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw W: S-1 i.i.d. standard normal coordinates, last coordinate zero."""
    W = np.zeros((size, S))
    W[:, : S - 1] = rng.standard_normal((size, S - 1))
    return W


def limit_Y_from_W(W: np.ndarray) -> np.ndarray:
    """Map whitened coordinates back to the correlated limit vector Y."""
    S = W.shape[-1]
    return math.sqrt(S / (S - 1.0)) * helmert_t_apply(W)


def sample_limit_Y_batch(S: int, size: int, key: StreamKey) -> np.ndarray:
    """``size`` draws of the degenerate Gaussian Y ~ N(0, I - N/(S-1))."""
    if S < 2:
        raise ValidationError("S must be >= 2")
    if size < 1:
        raise ValidationError("batch size must be >= 1")
    W = _whitened_batch(S, size, key.generator())
    return limit_Y_from_W(W)


def limit_Z_from_Y(Y: np.ndarray, D: float = 1.0) -> np.ndarray:
    """Z = D·sqrt((S-1)/S^2) · sum of positive parts of Y, along the last axis."""
    S = Y.shape[-1]
    scale = D * math.sqrt((S - 1.0) / S**2)
    return scale * np.clip(Y, 0.0, None).sum(axis=-1)


def sample_Z_batch(S: int, D: float, size: int, key: StreamKey) -> np.ndarray:
    if D <= 0:
        raise ValidationError("D must be > 0")
    return limit_Z_from_Y(sample_limit_Y_batch(S, size, key), D)


def positive_part_functional(w: np.ndarray) -> np.ndarray:
    """g(w) = e^T (U^T w)^+ / sqrt(S): the 1-Lipschitz map sending the
    whitened vector to the limit variable (D = 1)."""
    w = np.asarray(w, dtype=float)
    S = w.shape[-1]
    return np.clip(helmert_t_apply(w), 0.0, None).sum(axis=-1) / math.sqrt(S)


def expected_Z(S: int) -> float:
    """Closed-form mean sqrt((S-1)/(2 pi)) of the limit variable at D = 1."""
    if S < 2:
        raise ValidationError("S must be >= 2")
    return math.sqrt((S - 1.0) / (2.0 * math.pi))


def anticoncentration_threshold(S: int, delta: float) -> float:
    """Level below which at most a delta fraction of the limit mass can sit:
    sqrt(2(S-1)/pi) - sqrt(2 ln(2/delta)).  May be negative (vacuous).

    The leading term is the limit mean of the sqrt(n)-scaled l1 deviation,
    i.e. the D = 2 box scale where the box maximum equals ||phat - p||_1.
    Compare against limit samples drawn with D = 2.
    """
    if S < 2:
        raise ValidationError("S must be >= 2")
    if not (0.0 < delta < 1.0):
        raise DomainError("delta must lie in (0, 1)")
    return math.sqrt(2.0 * (S - 1.0) / math.pi) - math.sqrt(2.0 * math.log(2.0 / delta))
