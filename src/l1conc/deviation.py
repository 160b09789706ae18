"""The deviation statistic: the l1 distance between two probability vectors.
Its box form, max over v in [0, D]^S of (phat - p)^T v, equals (D/2)·l1."""

import numpy as np

from .errors import ValidationError


def l1_deviation(phat, p):
    """Sum of absolute entrywise differences along the last axis; lies in
    [0, 2] on the simplex.  A batch of rows gives one value per row."""
    a = np.asarray(phat, dtype=float)
    b = np.asarray(p, dtype=float)
    if a.shape[-1:] != b.shape[-1:]:
        raise ValidationError(f"length mismatch: {a.shape} vs {b.shape}")
    return np.abs(a - b).sum(axis=-1)
