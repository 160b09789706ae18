import math

import numpy as np
import pytest
from scipy.stats import binom, chisquare

from l1conc.errors import ValidationError
from l1conc.sampling import (
    StreamKey,
    as_simplex,
    sample_dirichlet_batch,
    sample_multinomial_batch,
)

SEED = 20240817
KEY = StreamKey(SEED, 0)


class TestSimplexVector:
    def test_valid(self):
        p = [0.25, 0.25, 0.5]
        v = as_simplex(p)
        assert isinstance(v, np.ndarray) and v.dtype == float
        assert v.tolist() == p

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            as_simplex(np.array([1.2, -0.2]))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValidationError):
            as_simplex(np.array([0.5, 0.4]))
        for bad in ([], [[0.5, 0.5]]):
            with pytest.raises(ValidationError):
                as_simplex(bad)

    @pytest.mark.parametrize("p", [[0.5, math.nan], [math.nan, 0.5, 0.5], [math.inf, 0.5],
                                   [0.5, 0.5, -math.inf]])
    def test_non_finite_entry_rejected(self, p):
        # NaN compares false against every bound, so the sign and sum checks
        # alone would let [0.5, nan] draw Binomial(10, 1/2) rows
        with pytest.raises(ValidationError, match="finite"):
            as_simplex(p)
        with pytest.raises(ValidationError, match="finite"):
            sample_multinomial_batch(p, 10, 3, KEY)

    def test_uniform(self):
        # every sampler call passes the uniform p; its rounded sum stays
        # inside the tolerance up to a million categories
        for S in (2, 3, 7, 1000, 10**6):
            assert np.array_equal(as_simplex(np.full(S, 1.0 / S)), np.full(S, 1.0 / S))


class TestMultinomial:
    def test_degenerate(self):
        for i in range(5):
            c = sample_multinomial_batch([1.0, 0.0], 5, 3, StreamKey(SEED, i))
            assert c.tolist() == [[5, 0]] * 3

    def test_zero_trials(self):
        c = sample_multinomial_batch([0.5, 0.5], 0, 2, KEY)
        assert c.tolist() == [[0, 0]] * 2

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(3)
        for i in range(20):
            S = rng.integers(2, 8)
            p = rng.dirichlet(np.ones(S))
            n = int(rng.integers(0, 500))
            c = sample_multinomial_batch(p, n, 10, StreamKey(SEED, i))
            assert np.all(c.sum(axis=1) == n) and np.all(c >= 0)

    def test_deterministic(self):
        a = sample_multinomial_batch([0.2, 0.3, 0.5], 100, 10, KEY)
        b = sample_multinomial_batch([0.2, 0.3, 0.5], 100, 10, KEY)
        assert np.array_equal(a, b)

    def test_batch_matches_invariants(self):
        batch = sample_multinomial_batch([0.1, 0.4, 0.5], 37, 1000, KEY)
        assert batch.shape == (1000, 3)
        assert np.all(batch.sum(axis=1) == 37)

    def test_fair_coin_frequency(self):
        # P(counts = (1,1)) for n=2, p=(1/2,1/2) is exactly 1/2
        N = 20_000
        batch = sample_multinomial_batch([0.5, 0.5], 2, N, StreamKey(SEED, 7))
        freq = np.mean(batch[:, 0] == 1)
        se = np.sqrt(0.25 / N)
        assert abs(freq - 0.5) <= 3 * se

    def test_marginal_chisquare(self):
        # counts[0] ~ Binomial(n, p0); goodness of fit at significance 1e-3
        n, p0, N = 10, 0.3, 100_000
        batch = sample_multinomial_batch([p0, 1 - p0], n, N, StreamKey(SEED, 11))
        observed = np.bincount(batch[:, 0], minlength=n + 1)
        expected = binom.pmf(np.arange(n + 1), n, p0) * N
        _, pvalue = chisquare(observed, expected)
        assert pvalue > 1e-3

    def test_invalid_simplex_rejected(self):
        with pytest.raises(ValidationError):
            sample_multinomial_batch([0.7, 0.7], 10, 1, KEY)
        with pytest.raises(ValidationError):
            sample_multinomial_batch([0.5, 0.5], -1, 1, KEY)
        with pytest.raises(ValidationError):
            sample_multinomial_batch([0.5, 0.5], 10, 0, KEY)


class TestDirichlet:
    def test_single_entry_is_point(self):
        for i in range(3):
            x = sample_dirichlet_batch([2.5], 4, StreamKey(SEED, i))
            assert np.all(x == 1.0)

    def test_uniform_alpha_mean(self):
        # Dirichlet(1,1) first coordinate is Uniform(0,1), mean 1/2
        N = 20_000
        x = sample_dirichlet_batch([1.0, 1.0], N, StreamKey(SEED, 4))
        se = np.sqrt(1.0 / 12.0 / N)
        assert abs(x[:, 0].mean() - 0.5) <= 3 * se

    def test_scaled_uniform_alpha_mean(self):
        # alpha = (n/S, ..., n/S) with S=2, n=10: each mean is 1/2
        N = 20_000
        x = sample_dirichlet_batch([5.0, 5.0], N, StreamKey(SEED, 5))
        se = x[:, 0].std() / np.sqrt(N)
        assert abs(x[:, 0].mean() - 0.5) <= 3 * se

    def test_output_on_simplex(self):
        x = sample_dirichlet_batch([0.01, 0.5, 3.0], 500, StreamKey(SEED, 6))
        assert np.all(x >= 0)
        assert np.allclose(x.sum(axis=1), 1.0, atol=1e-12)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValidationError):
            sample_dirichlet_batch([1.0, 0.0], 1, KEY)
        with pytest.raises(ValidationError):
            sample_dirichlet_batch([-1.0], 1, KEY)
        with pytest.raises(ValidationError):
            sample_dirichlet_batch([], 1, KEY)
        with pytest.raises(ValidationError):
            sample_dirichlet_batch([[1.0, 2.0]], 1, KEY)
        with pytest.raises(ValidationError):
            sample_dirichlet_batch([1.0, 2.0], 0, KEY)

    # an infinite alpha would give NaN rows, and one whose sum overflows rows of zeros
    @pytest.mark.parametrize("alpha", [[math.inf, 1.0], [1e308, 1e308], [2.0, math.nan]])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValidationError, match="finite"):
            sample_dirichlet_batch(alpha, 2, KEY)

    @pytest.mark.parametrize("alpha", [[1e-5, 1e-5], [0.3, 0.3, 0.3], [math.nan, 2.0]])
    def test_alpha_summing_below_one_rejected(self, alpha):
        # at alpha = (1e-5, 1e-5) most rows would have every gamma underflow to 0
        with pytest.raises(ValidationError, match="sum"):
            sample_dirichlet_batch(alpha, 4, KEY)

    def test_alpha_summing_one_ulp_below_one_accepted(self):
        # n·p at S = 6, n = 1 sums to 1 - 1 ulp, as a Dirichlet source passes it
        x = sample_dirichlet_batch(np.full(6, 1 / 6), 4, KEY)
        assert np.all(x >= 0) and np.allclose(x.sum(axis=1), 1.0, atol=1e-12)


class TestStandardNormal:
    # the keyed Philox normals that the limit-law sampler consumes
    def test_deterministic(self):
        a = KEY.generator().standard_normal(3)
        b = KEY.generator().standard_normal(3)
        assert np.array_equal(a, b)

    def test_moments(self):
        N = 10**6
        x = StreamKey(SEED, 9).generator().standard_normal(N)
        assert abs(x.mean()) <= 3.0 / np.sqrt(N)
        assert abs(x.var(ddof=1) - 1.0) <= 0.01


class TestStreamKey:
    def test_distinct_streams_differ(self):
        a = StreamKey(SEED, 0).generator().standard_normal(8)
        b = StreamKey(SEED, 1).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            StreamKey(-1, 0)
        with pytest.raises(ValidationError):
            StreamKey(0, 2**64)
        with pytest.raises(ValidationError, match="row"):
            StreamKey(0, 0, -1)
        with pytest.raises(ValidationError, match="chunk"):
            StreamKey(0, 0, 0, 2**64)
        with pytest.raises(ValidationError, match="law"):
            StreamKey(0, 0, 0, 0, 2**64)

    # the runner's law word: family code 1-3 above 62 zero bits
    LAW = 1 << 62

    def test_handles_are_counter_segments_of_one_keyed_stream(self):
        for law in (0, self.LAW):
            state = StreamKey(SEED, 7, 3, 2, law).generator().bit_generator.state["state"]
            assert state["key"].tolist() == [SEED, law]
            assert state["counter"].tolist() == [0, 7, 3, 2]
            # the same draws as the (master seed, law) stream advanced to that segment
            whole = np.random.Philox(key=SEED + law * 2**64)
            whole.advance(7 * 2**64 + 3 * 2**128 + 2 * 2**192)
            assert np.array_equal(np.random.Generator(whole).standard_normal(5),
                                  StreamKey(SEED, 7, 3, 2, law).generator().standard_normal(5))

    def test_adjacent_handles_share_no_raw_value(self):
        def raw(stream, row, chunk, law=self.LAW, segment=0):
            gen = StreamKey(SEED, stream, row, chunk, law).generator(segment)
            return gen.bit_generator.random_raw(10**5)
        base = raw(5, 5, 5)
        # neighbouring counter words, a neighbouring family, the public
        # stream= layout's key word 0, and the handle's next segment
        for neighbour in ((5, 5, 6), (5, 6, 5), (6, 5, 5), (5, 5, 5, self.LAW + (1 << 62)),
                          (5, 5, 5, 0), (5, 5, 5, self.LAW, 1)):
            assert np.intersect1d(base, raw(*neighbour)).size == 0

    def test_segment_starts_the_low_counter_word(self):
        # segment i of a handle is its stream advanced by i·2^32 blocks
        key = StreamKey(SEED, 7, 3, 2, self.LAW)
        state = key.generator(5).bit_generator.state["state"]
        assert state["counter"].tolist() == [5 << 32, 7, 3, 2]
        whole = key.generator().bit_generator
        whole.advance(5 << 32)
        assert np.array_equal(np.random.Generator(whole).standard_normal(5),
                              key.generator(5).standard_normal(5))
        for segment in (-1, 2**32):
            with pytest.raises(ValidationError, match="segment"):
                key.generator(segment)

    def test_row_4096_has_its_own_counter_word(self):
        # a 12-bit row field once gave row 4096 of stream 0 the stream of row 0
        # of stream 1
        def raw(stream, row):
            return StreamKey(SEED, stream, row).generator().bit_generator.random_raw(10**5)
        assert np.intersect1d(raw(0, 4096), raw(1, 0)).size == 0

    def test_non_integral_rejected(self):
        # int(1.5) would key the same stream as StreamKey(1)
        for seed, index in ((1.5, 0), (1.0, 0), (0, 2.5), ("1", 0)):
            with pytest.raises(ValidationError, match="integer"):
                StreamKey(seed, index)
        a = StreamKey(np.uint64(SEED), np.int64(3)).generator().standard_normal(4)
        assert np.array_equal(a, StreamKey(SEED, 3).generator().standard_normal(4))
