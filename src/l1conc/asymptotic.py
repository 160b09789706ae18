"""Asymptotic limit machinery for the scaled l1 deviation under uniform p.

The limit variable Z is a positive-part functional of a degenerate Gaussian
vector Y with covariance I - N/(S-1) (unit diagonal, -1/(S-1) off-diagonal).
Sampling uses centred normals: for S i.i.d. standard normals G,
Y = sqrt(S/(S-1))·(G - mean(G)) has exactly that covariance, so
Z = D/sqrt(S) · sum_i (G_i - mean(G))^+.  Limit draws are made in cache-sized
blocks of rows, in place in one reused buffer, so the memory of a chunk of
draws does not grow with S.  The explicit Helmert orthogonal matrix, which
diagonalizes the covariance exactly, is the proof object: mapping whitened
coordinates W back through it gives the same Y (centring G is the Helmert
route applied to U·G), and Z is a 1-Lipschitz function of W.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _log_over
from .errors import DOMAINS, INTERVALS, CapacityError, ValidationError, integer, real
from .sampling import StreamKey

# float64 elements per row block of the limit sampler's buffer (256 KiB)
_BLOCK_ELEMS = 1 << 15


@dataclass(frozen=True)
class LimitCovariance:
    """The exchangeable limit covariance: 1 on the diagonal, -1/(S-1) off it."""

    S: int
    matrix: np.ndarray


def _matrix_side(S) -> int:
    # S as a Python int, refused before any allocation if S x S floats exceed any array
    S = integer(S, "S")
    if S * S >= 2**60:  # 2^63 bytes of float64, NumPy's array size limit
        raise CapacityError(f"an S x S matrix at S = {S} exceeds any array")
    return S


def limit_covariance(S: int) -> LimitCovariance:
    S = _matrix_side(S)
    m = np.full((S, S), -1.0 / (S - 1))
    np.fill_diagonal(m, 1.0)
    return LimitCovariance(S=S, matrix=m)


def helmert_matrix(S: int) -> np.ndarray:
    """Dense S x S Helmert matrix.

    Row k (1-based, k < S) has its first k entries equal to 1/sqrt(k(k+1)),
    entry k+1 equal to -k/sqrt(k(k+1)) and zeros after; the last row is the
    normalized all-ones vector.  Rows are orthonormal by construction.
    """
    S = _matrix_side(S)
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
    hw = w[..., : S - 1] / np.sqrt(k * (k + 1))
    out = np.zeros_like(w)
    out[..., : S - 1] = np.cumsum(hw[..., ::-1], axis=-1)[..., ::-1]
    out[..., 1:] -= k * hw
    return out + w[..., S - 1 :] / math.sqrt(S)


def limit_Y_from_W(W: np.ndarray) -> np.ndarray:
    """Map whitened coordinates back to the correlated limit vector Y."""
    S = W.shape[-1]
    return math.sqrt(S / (S - 1.0)) * helmert_t_apply(W)


def limit_Z_from_Y(Y: np.ndarray, D: float = 1.0) -> np.ndarray:
    """Z = D·sqrt((S-1)/S^2) · sum of positive parts of Y, along the last axis."""
    S = Y.shape[-1]
    scale = D * math.sqrt((S - 1.0) / S**2)
    return scale * np.clip(Y, 0.0, None).sum(axis=-1)


def sample_Z_batch(S: int, size: int, key: StreamKey) -> np.ndarray:
    """``size`` draws of Z = 1/sqrt(S) · sum_i (G_i - mean(G))^+, the limit
    variable at D = 1, S standard normals G a row, made ``_BLOCK_ELEMS // S``
    rows at a time in one reused buffer.  Blocks continue one row-major
    normal stream and rows reduce on their own, so the draws equal those of
    one whole batch of G bit for bit, while memory stays at one block
    whatever S is.  A draw at scale D is D times these."""
    S, size = integer(S, "S"), integer(size, "size", DOMAINS["trials"])
    rng = key.generator()
    rows = max(1, _BLOCK_ELEMS // S)
    g = np.empty((min(rows, size), S))
    Z = np.empty(size)
    for start in range(0, size, rows):
        stop = min(start + rows, size)
        gb = g[: stop - start]
        rng.standard_normal(out=gb)
        gb -= gb.mean(axis=-1, keepdims=True)
        np.clip(gb, 0.0, None, out=gb)
        np.sum(gb, axis=-1, out=Z[start:stop])
    Z *= 1.0 / math.sqrt(S)  # not Z /= sqrt(S): the golden reports pin these bits
    return Z


def positive_part_functional(w: np.ndarray) -> np.ndarray:
    """g(w) = e^T (U^T w)^+ / sqrt(S): the 1-Lipschitz map sending the
    whitened vector to the limit variable (D = 1)."""
    w = np.asarray(w, dtype=float)
    S = w.shape[-1]
    return np.clip(helmert_t_apply(w), 0.0, None).sum(axis=-1) / math.sqrt(S)


def expected_Z(S: int) -> float:
    """Closed-form mean sqrt((S-1)/(2 pi)) of the limit variable at D = 1."""
    S = integer(S, "S")
    return math.sqrt((S - 1.0) / (2.0 * math.pi))


def anticoncentration_threshold(S: int, delta: float) -> float:
    """Level below which at most a delta fraction of the limit mass can sit:
    sqrt(2(S-1)/pi) - sqrt(2 ln(2/delta)).  May be negative (vacuous).

    The leading term is the limit mean of the sqrt(n)-scaled l1 deviation,
    i.e. the D = 2 box scale where the box maximum equals ||phat - p||_1.
    Compare against limit samples drawn with D = 2.
    """
    S, delta = integer(S, "S"), real(delta, "delta", INTERVALS["level"])
    return math.sqrt(2.0 * (S - 1.0) / math.pi) - math.sqrt(2.0 * _log_over(2.0, delta))
