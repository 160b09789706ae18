import itertools
import math
import time
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from scipy.stats import beta, binom, multinomial, poisson

from l1conc import montecarlo
from l1conc.bounds import BoundFamily, BoundSpec
from l1conc.errors import CapacityError, ValidationError
from l1conc.montecarlo import (
    CONSISTENT,
    INCONCLUSIVE,
    VIOLATED,
    DeviationSource,
    SampleRequest,
    TailEstimate,
    classify_verdict,
    clopper_pearson,
    dkw_halfwidth,
    draw_samples,
    estimate_quantile_curve,
    estimate_tail_probability,
    exact_tail_small,
    falsify_bound,
    summarize_many,
    tail_estimate_from_count,
)
from l1conc.deviation import l1_deviation
from l1conc.sampling import StreamKey, sample_dirichlet_batch, sample_multinomial_batch

SEED = 90125


class TestClopperPearson:
    def test_contains_point(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 500))
            k = int(rng.integers(0, n + 1))
            lo, hi = clopper_pearson(k, n, 0.95)
            assert lo <= k / n <= hi
            assert 0.0 <= lo and hi <= 1.0

    def test_edges(self):
        lo, hi = clopper_pearson(0, 50)
        assert lo == 0.0 and hi < 0.1
        lo, hi = clopper_pearson(50, 50)
        assert hi == 1.0 and lo > 0.9

    def test_level_just_below_one(self):
        # at the level 1 − 2^-53, 1 − alpha/2 rounds to 1, and beta.ppf gives 1
        level = 1 - 2**-53
        for k in (0, 3, 10):
            lo, hi = clopper_pearson(k, 10, level)
            assert hi == 1.0
            assert lo <= (0.0 if k == 0 else beta.ppf((1 - level) / 2, k, 11 - k))

    def test_bad_args(self):
        with pytest.raises(ValidationError):
            clopper_pearson(5, 0)
        with pytest.raises(ValidationError):
            clopper_pearson(5, 4)

    def test_non_integer_counts_rejected(self):
        for successes, trials in [(1.5, 10), (1, 10.0), (np.float64(3.0), 10)]:
            with pytest.raises(ValidationError, match="integers"):
                clopper_pearson(successes, trials)
        assert clopper_pearson(np.int64(3), np.int64(10)) == clopper_pearson(3, 10)

    @pytest.mark.parametrize("level", [0.5, 0.95, 1 - 1e-6])
    @pytest.mark.parametrize("trials", [1, 2, 100, 10**4, 131072, 10**6])
    def test_equals_beta_quantiles(self, trials, level):
        # contains the scipy.stats beta-quantile interval, each endpoint within
        # 1e-9 relative of it (the package no longer calls SciPy)
        alpha = 1 - level
        for k in {0, 1, 2, trials // 3, trials // 2, trials - 2, trials - 1, trials}:
            if not 0 <= k <= trials:
                continue
            lo = 0.0 if k == 0 else float(beta.ppf(alpha / 2, k, trials - k + 1))
            hi = 1.0 if k == trials else float(beta.ppf(1 - alpha / 2, k + 1, trials - k))
            got_lo, got_hi = clopper_pearson(k, trials, level)
            assert got_lo <= lo and got_hi >= hi, (k, got_lo, lo, got_hi, hi)
            assert got_lo == pytest.approx(lo, rel=1e-9, abs=0)
            assert got_hi == pytest.approx(hi, rel=1e-9, abs=0)

    def test_coverage_against_exact_oracle(self):
        # 95% intervals around MC tail estimates cover the enumerated truth
        p, n, thr = [0.5, 0.5], 4, 0.5
        truth = exact_tail_small(p, n, thr)
        source = DeviationSource("multinomial", 2, n=n)
        covered = 0
        reps, trials = 1000, 400
        for r in range(reps):
            est = estimate_tail_probability(source, thr, trials, SEED, stream=r)
            covered += est.ci_low <= truth <= est.ci_high
        assert covered >= 0.93 * reps


class TestDeviationSource:
    def test_validation(self):
        with pytest.raises(ValidationError):
            DeviationSource("bogus", 5)
        with pytest.raises(ValidationError):
            DeviationSource("multinomial", 5)  # missing n
        with pytest.raises(ValidationError):
            DeviationSource("limit", 1)
        # D scales only the limit law; finite-n sources would ignore it
        for family in ("multinomial", "dirichlet"):
            with pytest.raises(ValidationError, match="D applies to the limit family"):
                DeviationSource(family, 3, n=10, D=5.0)
            DeviationSource(family, 3, n=10, D=1.0)
        DeviationSource("limit", 3, D=5.0)
        # n sets the finite-n sample size; the limit law would ignore it
        with pytest.raises(ValidationError, match="n applies to finite-n families"):
            DeviationSource("limit", 5, n=10)
        # L = sum |S·c_i - n| is summed in int64, so 2·S·n must stay below 2^63
        for family in ("multinomial", "dirichlet"):
            with pytest.raises(ValidationError, match="2·S·n < 2"):
                DeviationSource(family, 3, n=10**21)
            with pytest.raises(ValidationError, match="2·S·n < 2"):
                DeviationSource(family, 4, n=2**60)
            DeviationSource(family, 4, n=2**60 - 1)
        # a negative scale would flip every sample and count the wrong tail
        for scale in (-1.0, 0.0):
            with pytest.raises(ValidationError, match="scale must be > 0"):
                DeviationSource("multinomial", 3, n=10, scale=scale)

    def test_non_integral_counts_rejected(self):
        # n = 2.5 used to draw counts at n = 2 and score them at n = 2.5
        for S, n in ((3, 2.5), (3, 2.0), (3.0, 2)):
            with pytest.raises(ValidationError, match="integer"):
                DeviationSource("multinomial", S, n=n)
        with pytest.raises(ValidationError, match="integer"):
            DeviationSource("limit", 3.0)
        with pytest.raises(ValidationError, match="integer"):
            sample_multinomial_batch([0.5, 0.5], 2.5, 2, StreamKey(SEED))
        with pytest.raises(ValidationError, match="integer"):
            exact_tail_small([0.5, 0.5], 4.0, 0.5)
        assert exact_tail_small([0.5, 0.5], np.int64(4), 0.5) == exact_tail_small([0.5, 0.5], 4, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            DeviationSource("limit", 5, D=bad)
        for family, n in (("limit", None), ("multinomial", 10)):
            with pytest.raises(ValidationError, match="finite"):
                DeviationSource(family, 5, n=n, scale=bad)

    def test_draws_deterministic_and_worker_independent(self):
        source = DeviationSource("limit", 10)
        a = draw_samples(source, 40_000, SEED)
        b = draw_samples(source, 40_000, SEED)
        c = draw_samples(source, 40_000, SEED, workers=3)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_dirichlet_source(self):
        source = DeviationSource("dirichlet", 3, n=30)
        s = draw_samples(source, 2000, SEED)
        assert np.all(s >= 0) and np.all(s <= 2.0)


class TestSummarizeSamples:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("source, thresholds, grid", [
        # on the S=3, n=6 lattice every l1 value is a multiple of 1/3, so
        # thresholds and grid points tie with samples
        (DeviationSource("multinomial", 3, n=6), [0.0, 1 / 3, 2 / 3, 1.0, 4 / 3],
         [0.0, 1 / 3, 2 / 3, 1.0, 4 / 3]),
        (DeviationSource("limit", 10), [1.2, 0.5, 2.0], np.linspace(0.0, 3.0, 13)),
    ], ids=["multinomial-lattice", "limit"])
    def test_matches_draw_samples(self, source, thresholds, grid, workers):
        trials = 40_000  # two full chunks and a partial one
        x = draw_samples(source, trials, SEED, stream=3)
        [got] = summarize_many([SampleRequest(source, trials, 3, thresholds, grid)], SEED,
                               workers)
        assert got.count == trials
        assert got.at_least.tolist() == [int(np.count_nonzero(x >= t)) for t in thresholds]
        assert got.at_most.tolist() == [int(np.count_nonzero(x <= g)) for g in grid]
        assert got.mean == pytest.approx(np.mean(x), rel=1e-12)
        assert got.variance == pytest.approx(np.var(x, ddof=1), rel=1e-12)

    def test_variance_needs_two_samples(self):
        [one] = summarize_many([SampleRequest(DeviationSource("limit", 5), 1)], SEED)
        assert one.count == 1
        with pytest.raises(ValidationError):
            one.variance
        [two] = summarize_many([SampleRequest(DeviationSource("limit", 5), 2)], SEED)
        assert two.variance >= 0.0

    def test_memory_flat_in_trials(self):
        # 2^20 draws are 8 MB as one array; the chunk reduction never holds them
        source = DeviationSource("limit", 2)
        tracemalloc.start()
        try:
            estimate_tail_probability(source, 0.5, 2**20, SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestBoundedChunks:
    # a finite-n chunk is drawn a column or a block of rows at a time; it must
    # equal the statistic of the whole batch of counts or of Dirichlet rows

    @pytest.mark.parametrize("S, n, count", [(5, 100, 3000), (50, 10**4, 500), (2000, 10**4, 40)])
    def test_streamed_multinomial_matches_counts(self, S, n, count):
        request = SampleRequest(DeviationSource("multinomial", S, n=n), count, stream=2, row=1)
        got = montecarlo._draw_chunk(request, SEED, 3, count)
        counts = sample_multinomial_batch(np.full(S, 1 / S), n, count, StreamKey(SEED, 2, 1, 3))
        assert got.tobytes() == (np.abs(S * counts - n).sum(-1) / (n * S)).tobytes()

    # 2^15 // S rows a block: 10922 rows at S = 3 and one row at S = 20000, so
    # a block boundary falls inside each chunk
    @pytest.mark.parametrize("S, n, count", [(3, 10, 12_000), (20_000, 200, 3)])
    def test_blocked_dirichlet_matches_whole_batch(self, S, n, count):
        request = SampleRequest(DeviationSource("dirichlet", S, n=n), count, stream=1)
        got = montecarlo._draw_chunk(request, SEED, 2, count)
        p = np.full(S, 1 / S)
        whole = sample_dirichlet_batch(n * p, count, StreamKey(SEED, 1, 0, 2))
        assert got.tobytes() == l1_deviation(whole, p).tobytes()

    @pytest.mark.parametrize("family", ["multinomial", "dirichlet"])
    def test_chunk_memory_flat_in_S(self, family):
        # 256 rows at S = 20000 are 39 MiB of counts or gammas as one array
        request = SampleRequest(DeviationSource(family, 20_000, n=200), 256, thresholds=(1.0,))
        tracemalloc.start()
        try:
            summary = montecarlo._reduce_chunk(request, SEED, 0, 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.count == 256
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("family", ["multinomial", "dirichlet"])
    def test_worker_count_invariance_at_large_S(self, family):
        # three chunks, two of them running at once on the pool's threads
        request = SampleRequest(DeviationSource(family, 500, n=100), 2 * montecarlo.CHUNK_SIZE + 7,
                                thresholds=(1.25, 1.3, 1.64), grid=(1.29, 1.63))
        [one], [two] = (summarize_many([request], SEED, workers) for workers in (1, 2))
        assert one.at_least.tolist() == two.at_least.tolist()
        assert one.at_most.tolist() == two.at_most.tolist()
        assert (one.count, one.mean, one.m2) == (two.count, two.mean, two.m2)


class TestTailEstimation:
    def test_trivial_thresholds(self):
        source = DeviationSource("multinomial", 2, n=10)
        assert estimate_tail_probability(source, -1.0, 500, SEED).point == 1.0
        assert estimate_tail_probability(source, 2.5, 500, SEED).point == 0.0

    def test_small_instance_near_half(self):
        # S=2, uniform p, n=2: P(l1 >= 1) = 1/2 exactly
        source = DeviationSource("multinomial", 2, n=2)
        est = estimate_tail_probability(source, 1.0, 20_000, SEED)
        assert est.ci_low <= 0.5 <= est.ci_high

    def test_estimate_invariants(self):
        est = tail_estimate_from_count(0.3, 17, 100, 0.9)
        assert isinstance(est, TailEstimate)
        assert est.point == pytest.approx(0.17)
        assert est.ci_low <= est.point <= est.ci_high

    def test_zero_trials_rejected(self):
        source = DeviationSource("multinomial", 2, n=2)
        with pytest.raises(ValidationError):
            estimate_tail_probability(source, 0.5, 0, SEED)

    def test_non_integer_trials_rejected(self):
        source = DeviationSource("multinomial", 2, n=2)
        with pytest.raises(ValidationError, match="integer"):
            estimate_tail_probability(source, 0.5, 100.0, SEED)

    @pytest.mark.parametrize("workers", [2.5, "2", 0, -3])
    def test_bad_worker_counts_rejected(self, workers, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValidationError, match="workers must be an integer >= 1"):
            draw_samples(DeviationSource("multinomial", 3, n=10), 40_000, 1, workers=workers)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_thresholds_and_grid_rejected(self, bad):
        source = DeviationSource("limit", 5)
        with pytest.raises(ValidationError, match="finite"):
            estimate_tail_probability(source, bad, 100, SEED)
        with pytest.raises(ValidationError, match="finite"):
            estimate_quantile_curve(source, [-1.0, bad] if bad > 0 else [bad, 1.0], 100, SEED)
        with pytest.raises(ValidationError):  # and no RuntimeWarning from inf - inf
            estimate_quantile_curve(source, [bad, bad], 100, SEED)
        good = SampleRequest(source, 100, thresholds=(0.5,))
        for request in (SampleRequest(source, 100, thresholds=(0.5, bad)),
                        SampleRequest(source, 100, grid=(bad,))):
            with pytest.raises(ValidationError, match="finite"):
                summarize_many([good, request], SEED)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.5, math.nan])
def test_levels_rejected_before_drawing(monkeypatch, level):
    def draw(*args, **kwargs):
        pytest.fail("samples drawn before the level was checked")

    monkeypatch.setattr(montecarlo, "summarize_many", draw)
    source = DeviationSource("multinomial", 50, n=10**4)
    spec = BoundSpec(BoundFamily.AGRAWAL, 10**4, 50, 0.05)
    with pytest.raises(ValidationError, match="level"):
        estimate_tail_probability(source, 0.1, 200_000, SEED, ci_level=level)
    with pytest.raises(ValidationError, match="level"):
        estimate_quantile_curve(source, [0.1, 0.2], 200_000, SEED, band_level=level)
    with pytest.raises(ValidationError, match="level"):
        falsify_bound(spec, 200_000, SEED, ci_level=level)


class TestExactOracle:
    @pytest.mark.parametrize("S,n", [(3, 150), (3, 250), (5, 20), (10, 8)])
    def test_poisson_weights_equal_scipy(self, S, n):
        # math.lgamma in place of SciPy's gammaln moves the weights by rounding
        k = np.arange(n + 1)
        np.testing.assert_allclose(montecarlo._poisson_pmf(k, n / S), poisson.pmf(k, n / S),
                                   rtol=1e-12, atol=0)
        assert montecarlo._poisson_pmf(n, n) == pytest.approx(poisson.pmf(n, n), rel=1e-12)

    def test_total_probability(self):
        assert exact_tail_small(np.full(3, 1 / 3), 5, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_fair_coin(self):
        got = exact_tail_small([0.5, 0.5], 2, 1.0)
        assert got == pytest.approx(0.5, rel=1e-12)
        assert type(got) is float  # a plain float, as JSON and repr expect

    @pytest.mark.parametrize("p", [[0.2, 0.3, 0.5], [1.0, 0.0], [0.5, 0.0, 0.5]])
    def test_non_uniform_p_rejected(self, p):
        with pytest.raises(ValidationError, match="uniform"):
            exact_tail_small(p, 5, 0.5)

    def test_lattice_ties_count(self):
        # exact rational sums over all 10626 outcomes at S=5, n=20: the
        # thresholds are the lattice values L/(nS) at L = 50 and L = 90
        p = np.full(5, 0.2)
        assert exact_tail_small(p, 20, 0.5) == pytest.approx(
            4154067229541 / 19073486328125, abs=1e-12)  # 0.217793
        assert exact_tail_small(p, 20, 0.9) == pytest.approx(
            9983313569 / 19073486328125, abs=1e-12)  # 0.000523413

    def test_multinomial_samples_on_the_lattice(self):
        # every sample is the correctly rounded L / (n S), so a threshold at
        # a lattice value counts exactly the outcomes the oracle counts
        S, n = 5, 20
        x = draw_samples(DeviationSource("multinomial", S, n=n), 20_000, SEED)
        assert np.array_equal(x, np.rint(x * (n * S)) / (n * S))

    def test_matches_monte_carlo(self):
        p, n, thr = [1 / 3] * 3, 6, 2 / 3
        truth = exact_tail_small(p, n, thr)
        est = estimate_tail_probability(DeviationSource("multinomial", 3, n=n), thr, 10**5, SEED)
        assert est.ci_low <= truth <= est.ci_high

    def test_large_n_binary(self):
        # Poisson(500) weights reach e^-500; their products underflow harmlessly
        assert exact_tail_small([0.5, 0.5], 1000, 0.0) == pytest.approx(1.0, rel=1e-10)
        # l1 = |2c - n| / n, so l1 >= 0.1 iff c <= 450 or c >= 550
        assert exact_tail_small([0.5, 0.5], 1000, 0.1) == pytest.approx(
            2 * binom.cdf(450, 1000, 0.5), rel=1e-10)

    @pytest.mark.parametrize("S,n,thr", [(10, 200, 0.2), (50, 100, 0.5), (100, 100, 0.8)])
    def test_cells_beyond_enumeration_within_dkw(self, S, n, thr):
        start = time.process_time()
        truth = exact_tail_small(np.full(S, 1 / S), n, thr)
        assert time.process_time() - start < 2.0
        trials = 10**5
        est = estimate_tail_probability(DeviationSource("multinomial", S, n=n), thr, trials,
                                        SEED, stream=S * 1000 + n)
        assert abs(est.point - truth) <= dkw_halfwidth(trials, 0.01)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            exact_tail_small([0.5, 0.5], 4, bad)

    def test_capacity_error(self, monkeypatch):
        # (M + 2·log2 S)·(n+1)² = 2.1e10, refused before any convolution runs
        def convolve(*args):
            raise AssertionError("convolved past the cap")

        monkeypatch.setattr(np, "convolve", convolve)
        with pytest.raises(CapacityError):
            exact_tail_small(np.full(200, 1 / 200), 10**4, 0.1)

    def test_headline_agrawal_cell_admitted(self):
        # (M + 2·log2 S)·(n+1)² = 6.1e9; the exceedance of Agrawal's delta = 0.1 threshold
        from l1conc.bounds import agrawal_epsilon

        got = exact_tail_small(np.full(50, 0.02), 10**4, agrawal_epsilon(10**4, 0.1))
        assert got == pytest.approx(0.99999999999, abs=1e-9)

    @pytest.mark.parametrize("S,n", [(3, 150), (3, 250), (5, 20), (10, 8)])
    def test_equals_enumeration(self, S, n):
        # every composition of n into S parts, weighted by scipy's pmf
        bars = np.array(list(itertools.combinations(range(n + S - 1), S - 1)))
        counts = np.diff(np.column_stack([np.full(len(bars), -1), bars,
                                          np.full(len(bars), n + S - 1)])) - 1
        pmf = multinomial.pmf(counts, n, np.full(S, 1 / S))
        lattice = np.abs(S * counts - n).sum(axis=1) / (n * S)
        mean = math.sqrt(2 * (S - 1) / (math.pi * n))
        on_lattice = float(lattice[np.argmin(np.abs(lattice - mean))])
        for thr in (0.8 * mean, on_lattice, 1.2 * mean):
            want = pmf[lattice >= thr].sum()
            assert exact_tail_small(np.full(S, 1 / S), n, thr) == pytest.approx(want, abs=1e-12)

    def test_large_S_no_overflow(self):
        # C(2000, m) overflows a float; L / (nS) = 2 - 2K/S with K occupied
        # categories, so this tail is P(K <= 19), one minus a birthday product
        S, n, thr = 2000, 20, 1.9805
        truth = exact_tail_small(np.full(S, 1 / S), n, thr)
        assert math.isfinite(truth)
        assert truth == pytest.approx(1 - math.prod(1 - i / S for i in range(n)), abs=1e-12)
        trials = 20_000
        est = estimate_tail_probability(DeviationSource("multinomial", S, n=n), thr, trials, SEED)
        assert abs(est.point - truth) <= dkw_halfwidth(trials, 0.01)

    @pytest.mark.parametrize("S,n", [(20_000, 200), (10**6, 10)])
    def test_large_S_no_underflow(self, S, n):
        # Poisson(n/S) weights above the mean are about n/S, so their m-fold
        # convolutions reach (n/S)^n: 1e-400 at (20000, 200).  Between the
        # lattice values 2 - 2n/S (all counts <= 1) and 2 - 2(n-1)/S the tail
        # is the chance that some category holds two counts
        p = np.full(S, 1 / S)
        birthday = 1 - math.prod(Fraction(S - i, S) for i in range(n))
        assert exact_tail_small(p, n, 2 - 2 * (n - 0.5) / S) == pytest.approx(float(birthday), rel=1e-10)
        assert exact_tail_small(p, n, 0.0) == 1.0
        assert exact_tail_small(p, n, 1.0) == 1.0  # every outcome has L / (nS) >= 2 - 2n/S

    def test_convolution_power_equals_repeated_convolution(self):
        kernel, n = np.array([0.5, 0.25, 0.125]), 12
        for j in (1, 2, 13, 64):
            row, log_sum = montecarlo._convolution_power(kernel, j, n)
            want = reduce(np.convolve, [np.eye(1, n + 1)[0]] + [kernel] * j)[:n + 1]
            assert np.allclose(row * math.exp(log_sum), want, rtol=1e-13, atol=0)


class TestQuantileCurve:
    def test_dkw_reference_value(self):
        assert dkw_halfwidth(10**4, 0.05) == pytest.approx(0.013581, abs=1e-6)
        assert dkw_halfwidth(10**4, 0.05) == pytest.approx(math.sqrt(math.log(40) / 2e4), rel=1e-12)

    def test_cdf_monotone_and_bounded(self):
        source = DeviationSource("limit", 10)
        curve = estimate_quantile_curve(source, np.linspace(0, 4, 25), 20_000, SEED)
        assert np.all(np.diff(curve.cdf_estimates) >= 0)
        assert curve.cdf_estimates[0] >= 0 and curve.cdf_estimates[-1] <= 1

    def test_negative_threshold_has_zero_mass(self):
        source = DeviationSource("limit", 5)
        curve = estimate_quantile_curve(source, np.array([-1.0]), 1000, SEED)
        assert curve.cdf_estimates[0] == 0.0

    def test_unsorted_grid_rejected(self):
        source = DeviationSource("limit", 5)
        with pytest.raises(ValidationError):
            estimate_quantile_curve(source, np.array([1.0, 0.5]), 1000, SEED)

    def test_mc_within_dkw_of_exact(self):
        for S, n in [(2, 6), (3, 6), (2, 12), (3, 12)]:
            p = np.full(S, 1 / S)
            source = DeviationSource("multinomial", S, n=n)
            samples = draw_samples(source, 10**5, SEED, stream=S * 100 + n)
            half = dkw_halfwidth(10**5, 0.01)
            for thr in np.linspace(0.05, 1.8, 12):
                mc = float((samples >= thr).mean())
                assert abs(mc - exact_tail_small(p, n, thr)) <= half

    def test_quantile_above_anticoncentration_threshold(self):
        from l1conc.asymptotic import anticoncentration_threshold

        source = DeviationSource("limit", 50, D=2.0)
        trials = 10**5
        thr = anticoncentration_threshold(50, 0.05)
        curve = estimate_quantile_curve(source, np.array([thr]), trials, SEED)
        # at most delta mass below the threshold, up to the DKW slack
        assert curve.cdf_estimates[0] <= 0.05 + curve.dkw_halfwidth


class TestVerdicts:
    def test_classification_trichotomy(self):
        cases = [
            tail_estimate_from_count(0.1, 900, 1000),   # far above delta
            tail_estimate_from_count(0.1, 0, 1000),     # far below delta
            tail_estimate_from_count(0.1, 52, 1000),    # straddling delta
        ]
        outcomes = [classify_verdict(est, 0.05) for est in cases]
        assert outcomes == [VIOLATED, CONSISTENT, INCONCLUSIVE]

    def test_agrawal_violated(self):
        spec = BoundSpec(BoundFamily.AGRAWAL, 10_000, 50, 0.05)
        verdict = falsify_bound(spec, 2000, SEED)
        assert verdict.outcome == VIOLATED
        assert verdict.estimate.point >= 0.5

    def test_weissman_consistent(self):
        spec = BoundSpec(BoundFamily.WEISSMAN_UNION, 100, 2, 0.05)
        verdict = falsify_bound(spec, 20_000, SEED)
        assert verdict.outcome == CONSISTENT

    def test_agrawal_small_S_not_contradicted(self):
        # exact_tail_small decides: at S=2, n=100, delta=0.5 the disputed
        # bound holds, so the verdict must not be Violated
        from l1conc.bounds import agrawal_epsilon

        spec = BoundSpec(BoundFamily.AGRAWAL, 100, 2, 0.5)
        truth = exact_tail_small([0.5, 0.5], 100, agrawal_epsilon(100, 0.5))
        assert truth <= 0.5
        verdict = falsify_bound(spec, 20_000, SEED)
        assert verdict.outcome in (CONSISTENT, INCONCLUSIVE)

    def test_dirichlet_family(self):
        spec = BoundSpec(BoundFamily.AGRAWAL, 10_000, 50, 0.05)
        verdict = falsify_bound(spec, 2000, SEED, family="dirichlet")
        assert verdict.outcome == VIOLATED

    def test_too_few_trials_rejected(self):
        spec = BoundSpec(BoundFamily.AGRAWAL, 100, 2, 0.5)
        with pytest.raises(ValidationError):
            falsify_bound(spec, 50, SEED)

    def test_non_integer_trials_rejected(self):
        spec = BoundSpec(BoundFamily.AGRAWAL, 100, 2, 0.5)
        with pytest.raises(ValidationError, match="integer"):
            falsify_bound(spec, 1000.5, SEED)


class TestCltConvergence:
    def test_ks_distance_decreases(self):
        S, N = 5, 30_000
        limit = np.sort(draw_samples(DeviationSource("limit", S), N, SEED, stream=900))

        def ks(a, b):
            both = np.sort(np.concatenate([a, b]))
            ca = np.searchsorted(a, both, side="right") / a.size
            cb = np.searchsorted(b, both, side="right") / b.size
            return float(np.abs(ca - cb).max())

        dists = []
        for i, n in enumerate([100, 1000, 10_000]):
            source = DeviationSource("multinomial", S, n=n, scale=math.sqrt(n) / 2)
            finite = np.sort(draw_samples(source, N, SEED, stream=i))
            dists.append(ks(finite, limit))
        assert dists[0] > dists[1] > dists[2]
