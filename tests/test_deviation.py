import numpy as np
import pytest

from l1conc.deviation import l1_deviation, maximizer, z_n_value
from l1conc.errors import ValidationError


def brute_force_box_max(diff: np.ndarray, D: float) -> float:
    """Enumerate every vertex of [0, D]^S (an optimum always sits at one)."""
    S = diff.size
    vertices = ((np.arange(2**S)[:, None] >> np.arange(S)) & 1) * D
    return float((vertices @ diff).max())


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
    def test_examples(self):
        assert z_n_value([1.0, 0.0], [0.5, 0.5], 2.0) == 1.0
        assert z_n_value([0.3, 0.7], [0.3, 0.7], 5.0) == 0.0
        assert z_n_value([0.6, 0.4], [0.5, 0.5], 1.0) == pytest.approx(0.1, abs=1e-15)

    def test_bad_D(self):
        with pytest.raises(ValidationError):
            z_n_value([0.5, 0.5], [0.5, 0.5], 0.0)

    def test_consistent_with_l1_and_maximizer(self):
        phat, p, D = [0.6, 0.4], [0.5, 0.5], 2.0
        z = z_n_value(phat, p, D)
        assert z == pytest.approx(l1_deviation(phat, p) * D / 2, rel=1e-12)
        assert 0.0 <= z <= D
        assert set(np.unique(maximizer(phat, p, D))) <= {0.0, D}

    def test_scale_covariance(self):
        rng = np.random.default_rng(12)
        phat, p = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
        for c in (0.5, 1.0, 3.0, 10.0):
            assert z_n_value(phat, p, 2 * c) == pytest.approx(c * z_n_value(phat, p, 2.0), rel=1e-12)


class TestMaximizer:
    def test_examples(self):
        v = maximizer([0.4, 0.1, 0.5], [0.2, 0.3, 0.5], 1.0)
        assert list(v) == [1.0, 0.0, 0.0]
        assert np.dot(np.array([0.2, -0.2, 0.0]), v) == pytest.approx(0.2)
        assert list(maximizer([0.5, 0.5], [0.5, 0.5], 1.0)) == [0.0, 0.0]

    def test_dot_equals_z_n(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            S = int(rng.integers(2, 9))
            phat, p = rng.dirichlet(np.ones(S)), rng.dirichlet(np.ones(S))
            D = float(rng.uniform(0.1, 4.0))
            v = maximizer(phat, p, D)
            assert np.dot(phat - p, v) == pytest.approx(z_n_value(phat, p, D), abs=1e-12)

    def test_vertex_optimality(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            S = int(rng.integers(2, 13))
            phat, p = rng.dirichlet(np.ones(S)), rng.dirichlet(np.ones(S))
            D = float(rng.uniform(0.1, 4.0))
            best = brute_force_box_max(phat - p, D)
            attained = float(np.dot(phat - p, maximizer(phat, p, D)))
            assert attained == pytest.approx(best, abs=1e-12)

    def test_brute_force_s5(self):
        rng = np.random.default_rng(23)
        phat, p = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))
        v = maximizer(phat, p, 1.0)
        assert np.dot(phat - p, v) == pytest.approx(brute_force_box_max(phat - p, 1.0), abs=1e-12)
