"""The deviation statistic: l1 distance between two probability vectors and
its equivalent formulation as a maximum over the box [0, D]^S."""

import numpy as np

from .errors import ValidationError
from .sampling import SimplexVector


def _aligned(phat, p):
    a = phat.entries if isinstance(phat, SimplexVector) else np.asarray(phat, dtype=float)
    b = p.entries if isinstance(p, SimplexVector) else np.asarray(p, dtype=float)
    if a.shape[-1:] != b.shape[-1:]:
        raise ValidationError(f"length mismatch: {a.shape} vs {b.shape}")
    return a, b


def l1_deviation(phat, p):
    """Sum of absolute entrywise differences along the last axis; lies in
    [0, 2] on the simplex.  A batch of rows gives one value per row."""
    a, b = _aligned(phat, p)
    return np.abs(a - b).sum(axis=-1)


def z_n_value(phat, p, D: float) -> float:
    """The box maximum max_{v in [0,D]^S} (phat - p)^T v, equal to (D/2)·l1."""
    if D <= 0:
        raise ValidationError("D must be > 0")
    return 0.5 * D * l1_deviation(phat, p)


def maximizer(phat, p, D: float) -> np.ndarray:
    """The maximizing box vertex: D where phat exceeds p, 0 elsewhere (ties to 0)."""
    if D <= 0:
        raise ValidationError("D must be > 0")
    a, b = _aligned(phat, p)
    return np.where(a - b > 0, float(D), 0.0)
