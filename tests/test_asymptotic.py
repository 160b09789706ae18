import math
import tracemalloc

import numpy as np
import pytest

from l1conc.asymptotic import (
    _BLOCK_ELEMS,
    anticoncentration_threshold,
    expected_Z,
    helmert_matrix,
    helmert_t_apply,
    limit_covariance,
    limit_Y_from_W,
    limit_Z_from_Y,
    positive_part_functional,
    sample_Z_batch,
)
from l1conc.errors import ValidationError
from l1conc.montecarlo import CHUNK_SIZE
from l1conc.sampling import StreamKey

SEED = 555
KEY = StreamKey(SEED, 0)


def limit_Y(S: int, size: int, key: StreamKey) -> np.ndarray:
    """``size`` draws of the degenerate Gaussian Y ~ N(0, I - N/(S-1)), from
    zero-padded whitened draws: S-1 standard normals and a 0."""
    W = np.zeros((size, S))
    W[:, : S - 1] = key.generator().standard_normal((size, S - 1))
    return limit_Y_from_W(W)


def block_diagonal_target(S: int) -> np.ndarray:
    d = np.zeros((S, S))
    np.fill_diagonal(d[: S - 1, : S - 1], S / (S - 1.0))
    return d


class TestLimitCovariance:
    def test_small_matrices(self):
        assert np.allclose(limit_covariance(2).matrix, [[1, -1], [-1, 1]])
        m3 = limit_covariance(3).matrix
        assert np.allclose(np.diag(m3), 1.0)
        assert m3[0, 1] == pytest.approx(-0.5)

    def test_null_vector_and_eigenvalues(self):
        for S in (2, 3, 7, 25):
            m = limit_covariance(S).matrix
            assert np.allclose(m, m.T)
            assert np.abs(m @ np.ones(S)).max() < 1e-12
            eig = np.sort(np.linalg.eigvalsh(m))
            assert abs(eig[0]) < 1e-10
            assert np.abs(eig[1:] - S / (S - 1.0)).max() < 1e-10

    def test_rejects_small_S(self):
        with pytest.raises(ValidationError):
            limit_covariance(1)


class TestHelmert:
    def test_s2_entries(self):
        U = helmert_matrix(2)
        r = 1 / math.sqrt(2)
        assert np.allclose(U, [[r, -r], [r, r]])

    def test_orthonormality(self):
        for S in (2, 3, 10, 100):
            U = helmert_matrix(S)
            assert np.abs(U.T @ U - np.eye(S)).max() < 1e-12

    def test_diagonalizes_limit_covariance(self):
        for S in (2, 3, 10, 64):
            U = helmert_matrix(S)
            got = U @ limit_covariance(S).matrix @ U.T
            assert np.abs(got - block_diagonal_target(S)).max() < 1e-10

    def test_fast_transforms_match_dense(self):
        rng = np.random.default_rng(8)
        for S in (2, 3, 17, 200):
            U = helmert_matrix(S)
            w = rng.standard_normal((5, S))
            assert np.abs(helmert_t_apply(w) - w @ U).max() < 1e-12


class TestLimitSampling:
    def test_zero_whitened_gives_zero(self):
        Y = limit_Y_from_W(np.zeros(6))
        assert np.abs(Y).max() == 0.0
        assert limit_Z_from_Y(Y) == 0.0

    def test_s2_hand_computation(self):
        # W = (w, 0): Y = sqrt(2) U^T W = (w, -w)
        for w in (0.7, -1.3, 2.0):
            Y = limit_Y_from_W(np.array([w, 0.0]))
            assert Y[0] == pytest.approx(-Y[1], abs=1e-14)
            assert abs(Y[0]) == pytest.approx(abs(w), rel=1e-14)

    def test_s2_z_hand_computation(self):
        # W = (2, 0), S = 2, D = 1: z = e.(U^T W)^+ / sqrt(2) = 1
        Y = limit_Y_from_W(np.array([2.0, 0.0]))
        assert limit_Z_from_Y(Y, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_null_direction(self):
        Y = limit_Y(40, 2000, KEY)
        assert np.abs(Y.sum(axis=1)).max() < 1e-10

    def test_marginals_standard(self):
        N = 10**6
        Y = limit_Y(5, N, StreamKey(SEED, 1))
        for i in range(5):
            assert abs(Y[:, i].mean()) <= 3.0 / math.sqrt(N)
            assert abs(Y[:, i].var(ddof=1) - 1.0) <= 0.01

    def test_sample_covariance(self):
        N = 10**6
        Y = limit_Y(5, N, StreamKey(SEED, 2))
        cov = np.cov(Y.T)
        assert np.abs(cov - limit_covariance(5).matrix).max() < 0.01

    def test_half_normal_mean(self):
        N = 10**6
        Y = limit_Y(5, N, StreamKey(SEED, 3))
        pos = np.clip(Y[:, 0], 0.0, None)
        se = pos.std(ddof=1) / math.sqrt(N)
        assert abs(pos.mean() - 1.0 / math.sqrt(2 * math.pi)) <= 3 * se

    def test_scalar_api_deterministic(self):
        # single draws (size 1) replay exactly from the key
        assert sample_Z_batch(7, 2.0, 1, KEY)[0] == sample_Z_batch(7, 2.0, 1, KEY)[0]

    def test_z_scales_with_D(self):
        a = sample_Z_batch(9, 1.0, 100, StreamKey(SEED, 4))
        b = sample_Z_batch(9, 3.0, 100, StreamKey(SEED, 4))
        assert np.allclose(3 * a, b, rtol=1e-12)

    def test_mean_matches_closed_form(self):
        N = 10**6
        z = sample_Z_batch(10, 1.0, N, StreamKey(SEED, 5))
        se = z.std(ddof=1) / math.sqrt(N)
        assert abs(z.mean() - 1.196827) <= 3 * se


def unblocked_Z(S: int, D: float, size: int, key: StreamKey) -> np.ndarray:
    """Reference: one whole batch of zero-padded whitened draws through the
    public Helmert composition."""
    return limit_Z_from_Y(limit_Y(S, size, key), D)


def block_sizes(S: int) -> list[int]:
    if S > 1000:
        return [1, 2, 3]
    rows = max(1, _BLOCK_ELEMS // S)
    return sorted({s for s in (1, rows - 1, rows, rows + 1, CHUNK_SIZE + 3) if s >= 1})


class TestBlockedSampler:
    @pytest.mark.parametrize("S", [2, 3, 17, 199, 200, 1000, 40000])
    def test_bit_identical_to_unblocked(self, S):
        # blocks of one row at S = 40000; partial last blocks at rows +- 1
        for size in block_sizes(S):
            for D in (1.0, 2.0):
                key = StreamKey(2024, S * 100_000 + size)
                got = sample_Z_batch(S, D, size, key)
                want = unblocked_Z(S, D, size, key)
                assert got.shape == (size,)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (S, size, D)

    @pytest.mark.parametrize("S", [200, 1000])
    def test_chunk_memory_independent_of_S(self, S):
        tracemalloc.start()
        try:
            sample_Z_batch(S, 2.0, CHUNK_SIZE, KEY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_rejects_bad_arguments(self):
        for S, D, size in ((1, 1.0, 10), (5, 0.0, 10), (5, 1.0, 0)):
            with pytest.raises(ValidationError):
                sample_Z_batch(S, D, size, KEY)


class TestRepresentationEquivalence:
    def test_two_routes_agree(self):
        rng = np.random.default_rng(77)
        for S in (2, 3, 17, 100):
            W = np.zeros((100, S))
            W[:, : S - 1] = rng.standard_normal((100, S - 1))
            via_Y = limit_Z_from_Y(limit_Y_from_W(W), 1.0)
            via_g = positive_part_functional(W)
            assert np.abs(via_Y - via_g).max() < 1e-12

    def test_functional_is_lipschitz(self):
        rng = np.random.default_rng(78)
        for S in (3, 20):
            for _ in range(200):
                x, y = rng.standard_normal(S), rng.standard_normal(S)
                gx = float(positive_part_functional(x))
                gy = float(positive_part_functional(y))
                assert abs(gx - gy) <= np.linalg.norm(x - y) + 1e-12


class TestClosedForms:
    def test_expected_Z(self):
        assert expected_Z(2) == pytest.approx(0.398942, abs=1e-6)
        assert expected_Z(10) == pytest.approx(1.196827, abs=1e-6)
        assert expected_Z(50) == pytest.approx(2.792596, abs=1e-6)
        assert expected_Z(50) == pytest.approx(math.sqrt(49 / (2 * math.pi)), rel=1e-12)

    def test_anticoncentration_threshold(self):
        want = math.sqrt(98 / math.pi) - math.sqrt(2 * math.log(40))
        assert anticoncentration_threshold(50, 0.05) == pytest.approx(want, rel=1e-12)
        assert anticoncentration_threshold(2, 0.05) == pytest.approx(-1.918318, abs=1e-6)
        near_one = anticoncentration_threshold(50, 1 - 1e-12)
        assert near_one == pytest.approx(math.sqrt(98 / math.pi) - math.sqrt(2 * math.log(2)), abs=1e-5)
        with pytest.raises(ValidationError):
            anticoncentration_threshold(50, 0.0)
        with pytest.raises(ValidationError):
            anticoncentration_threshold(50, 1.0)

    def test_empirical_anticoncentration(self):
        # the threshold lives on the l1-deviation scale, i.e. D = 2
        N = 200_000
        for S, delta in [(10, 0.1), (50, 0.05), (200, 0.01)]:
            z = sample_Z_batch(S, 2.0, N, StreamKey(SEED, 100 + S))
            frac = float((z >= anticoncentration_threshold(S, delta)).mean())
            assert frac >= 1 - delta - 3 * math.sqrt(delta * (1 - delta) / N)
