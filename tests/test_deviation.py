import numpy as np
import pytest

from l1conc.deviation import l1_deviation
from l1conc.errors import ValidationError


def brute_force_box_max(diff: np.ndarray, D: float) -> float:
    """Enumerate every vertex of [0, D]^S (an optimum always sits at one)."""
    S = diff.size
    vertices = ((np.arange(2**S)[:, None] >> np.arange(S)) & 1) * D
    return float((vertices @ diff).max())


def z_n(phat, p, D: float) -> float:
    """The box maximum max_{v in [0,D]^S} (phat - p)^T v in closed form, (D/2)·l1."""
    return 0.5 * D * l1_deviation(phat, p)


def box_vertex(phat, p, D: float) -> np.ndarray:
    """The maximizing vertex of the box: D where phat exceeds p, 0 elsewhere."""
    return np.where(np.subtract(phat, p) > 0, D, 0.0)


class TestL1Deviation:
    def test_identical_vectors(self):
        assert l1_deviation([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_extreme(self):
        assert l1_deviation([1.0, 0.0], [0.5, 0.5]) == 1.0

    def test_simple(self):
        assert l1_deviation([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.5, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            l1_deviation([0.5, 0.5], [1.0, 0.0, 0.0])
        with pytest.raises(ValidationError):
            l1_deviation(np.full((4, 2), 0.5), [1.0, 0.0, 0.0])

    def test_rows_along_last_axis(self):
        rng = np.random.default_rng(4)
        rows, p = rng.dirichlet(np.ones(5), size=7), rng.dirichlet(np.ones(5))
        got = l1_deviation(rows, p)
        assert got.shape == (7,)
        assert np.array_equal(got, [l1_deviation(r, p) for r in rows])


class TestZnValue:
    """The box form of the statistic: (D/2)·l1 is the box maximum."""

    def test_examples(self):
        assert z_n([1.0, 0.0], [0.5, 0.5], 2.0) == 1.0
        assert z_n([0.3, 0.7], [0.3, 0.7], 5.0) == 0.0
        assert z_n([0.6, 0.4], [0.5, 0.5], 1.0) == pytest.approx(0.1, abs=1e-15)

    def test_consistent_with_l1_and_maximizer(self):
        phat, p, D = np.array([0.6, 0.4]), np.array([0.5, 0.5]), 2.0
        z = z_n(phat, p, D)
        assert z == pytest.approx(brute_force_box_max(phat - p, D), abs=1e-15)
        assert 0.0 <= z <= D
        assert np.dot(phat - p, box_vertex(phat, p, D)) == pytest.approx(z, abs=1e-15)

    def test_scale_covariance(self):
        rng = np.random.default_rng(12)
        phat, p = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
        for c in (0.5, 1.0, 3.0, 10.0):
            assert brute_force_box_max(phat - p, 2 * c) == pytest.approx(
                c * l1_deviation(phat, p), rel=1e-12)


class TestMaximizer:
    """The vertex D·1[phat > p] attains the box maximum."""

    def test_dot_equals_z_n(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            S = int(rng.integers(2, 9))
            phat, p = rng.dirichlet(np.ones(S)), rng.dirichlet(np.ones(S))
            D = float(rng.uniform(0.1, 4.0))
            v = box_vertex(phat, p, D)
            assert np.dot(phat - p, v) == pytest.approx(z_n(phat, p, D), abs=1e-12)

    def test_vertex_optimality(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            S = int(rng.integers(2, 13))
            phat, p = rng.dirichlet(np.ones(S)), rng.dirichlet(np.ones(S))
            D = float(rng.uniform(0.1, 4.0))
            best = brute_force_box_max(phat - p, D)
            assert z_n(phat, p, D) == pytest.approx(best, abs=1e-12)
            attained = float(np.dot(phat - p, box_vertex(phat, p, D)))
            assert attained == pytest.approx(best, abs=1e-12)

    def test_brute_force_s5(self):
        rng = np.random.default_rng(23)
        phat, p = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))
        assert z_n(phat, p, 1.0) == pytest.approx(brute_force_box_max(phat - p, 1.0), abs=1e-12)
