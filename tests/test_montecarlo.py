import itertools
import math
import re
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
from l1conc.sampling import (
    StreamKey,
    sample_dirichlet_batch,
    sample_multinomial_batch,
)

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
            with pytest.raises(ValidationError, match="(successes|trials) must be an integer"):
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
        # S is a counter word of the law's stream key
        with pytest.raises(ValidationError, match="S must be"):
            DeviationSource("limit", 2**64)
        DeviationSource("limit", 2**64 - 1)
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
            with pytest.raises(ValidationError, match="n must be an integer >= 1 and < 2\\^64"):
                DeviationSource(family, 3, n=10**21)
            with pytest.raises(ValidationError, match="2·S·n < 2"):
                DeviationSource(family, 3, n=2**62)
            with pytest.raises(ValidationError, match="2·S·n < 2"):
                DeviationSource(family, 4, n=2**60)
            DeviationSource(family, 4, n=2**60 - 1)
        # a negative scale would flip every sample and count the wrong tail
        for scale in (-1.0, 0.0):
            with pytest.raises(ValidationError,
                               match=re.escape("scale must be a finite real number in (0, inf)")):
                DeviationSource("multinomial", 3, n=10, scale=scale)
        # points are divided by D·scale, so it must neither underflow to 0
        # nor overflow
        for D, scale in ((1e-200, 1e-200), (1e200, 1e200)):
            with pytest.raises(ValidationError, match=re.escape("D·scale must be a finite real")):
                DeviationSource("limit", 3, D=D, scale=scale)

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

    def test_numpy_integers_do_not_wrap_past_the_lattice_guard(self):
        # 2·S·n of NumPy integers wraps (to 2^81 mod 2^64 and to 0); the
        # source keeps S and n as Python ints, whose product does not
        for S, n in ((np.int64(2**40), np.int64(2**40)), (np.uint64(2**63), 1)):
            with pytest.raises(ValidationError, match="2·S·n"):
                DeviationSource("multinomial", S, n=n)
        source = DeviationSource("multinomial", np.int64(3), n=np.uint64(10))
        assert (type(source.S), type(source.n)) == (int, int)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError,
                           match=re.escape("D must be a finite real number in (0, inf)")):
            DeviationSource("limit", 5, D=bad)
        for family, n in (("limit", None), ("multinomial", 10)):
            with pytest.raises(ValidationError,
                               match=re.escape("scale must be a finite real number in (0, inf)")):
                DeviationSource(family, 5, n=n, scale=bad)

    def test_neighbouring_laws_draw_apart_by_default(self):
        # the default stream is the law's own sample, so (10, 100) and
        # (10, 101) are not one sample (a key without the law would correlate
        # them at 0.987)
        a, b = (draw_samples(DeviationSource("multinomial", 10, n=n), 20_000, 7)
                for n in (100, 101))
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_neighbouring_laws_draw_apart_at_one_stream(self):
        # a replicate keys the law too, so (50, 10^4) and (50, 10^4 + 1) at
        # stream=1 are not one sample (a key without the law would correlate
        # them at 0.999)
        a, b = (draw_samples(DeviationSource("dirichlet", 50, n=n), 20_000, 7, stream=1)
                for n in (10**4, 10**4 + 1))
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_stream_0_is_the_law_sample(self):
        source = DeviationSource("multinomial", 10, n=100)
        default = draw_samples(source, 3000, SEED)
        assert np.array_equal(draw_samples(source, 3000, SEED, stream=0), default)
        assert abs(np.corrcoef(draw_samples(source, 3000, SEED, stream=1), default)[0, 1]) < 0.1

    @pytest.mark.parametrize("stream", [2**62, -1, 1.5, None])
    def test_stream_outside_the_key_rejected_before_drawing(self, stream, monkeypatch):
        def draw(*args, **kwargs):
            pytest.fail("samples drawn before the stream was checked")

        monkeypatch.setattr(montecarlo, "_draw_chunk", draw)
        monkeypatch.setattr(montecarlo, "_reduce_chunk", draw)
        source = DeviationSource("multinomial", 3, n=10)
        for call in (lambda: draw_samples(source, 100, SEED, stream=stream),
                     lambda: estimate_tail_probability(source, 0.5, 100, SEED, stream=stream),
                     lambda: summarize_many([SampleRequest(source, 100),
                                             SampleRequest(source, 100, stream)], SEED)):
            with pytest.raises(ValidationError, match="stream must be an integer"):
                call()

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
        # the law is drawn at unit scale: points are divided by D·scale = 2,
        # and the moments are the law's, half those of the draws
        (DeviationSource("limit", 10, D=4.0, scale=0.5), [2.4, 1.0, 4.0],
         np.linspace(0.0, 6.0, 13)),
        # at a D·scale that is not a power of two, t/c and c·x can round
        # apart; None takes the points from the draws, so every point ties
        (DeviationSource("limit", 10, D=2.1), None, None),
        (DeviationSource("multinomial", 50, n=1000, scale=0.3), None, None),
        (DeviationSource("dirichlet", 5, n=20, scale=1.7), None, None),
    ], ids=["multinomial-lattice", "limit", "limit-at-D-4-scale-half", "limit-at-D-2.1",
            "multinomial-at-scale-0.3", "dirichlet-at-scale-1.7"])
    def test_matches_draw_samples(self, source, thresholds, grid, workers):
        trials = 40_000  # two full chunks and a partial one
        x = draw_samples(source, trials, SEED, stream=3)
        if thresholds is None:  # every 200th draw
            thresholds = grid = np.unique(x[::200]).tolist()
        [got] = summarize_many([SampleRequest(source, trials, 3, thresholds, grid)], SEED,
                               workers)
        assert got.count == trials
        assert got.at_least.tolist() == [int(np.count_nonzero(x >= t)) for t in thresholds]
        assert got.at_most.tolist() == [int(np.count_nonzero(x <= g)) for g in grid]
        c = source.D * source.scale  # a summary's moments are the law's, at unit scale
        assert c * got.mean == pytest.approx(np.mean(x), rel=1e-12)
        assert c * c * got.variance == pytest.approx(np.var(x, ddof=1), rel=1e-12)

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

    # n > 10·S², so each chunk takes the binomial chain
    @pytest.mark.parametrize("S, n, count", [(5, 1000, 3000), (50, 10**5, 500), (500, 10**7, 40)])
    def test_streamed_multinomial_matches_counts(self, S, n, count):
        # a request at the default stream draws from its law's key,
        # (multinomial) and S, n, whatever its trials; column i of the chain
        # is Binomial(remaining, q / tail) from segment i
        request = SampleRequest(DeviationSource("multinomial", S, n=n), count)
        got = montecarlo._draw_chunk(request, SEED, 3, count)
        key = StreamKey(SEED, S, n, 3, 1 << 62)
        remaining, tail, columns = np.full(count, n), 1.0, []
        for i in range(S - 1):
            columns.append(key.generator(i).binomial(remaining, (1 / S) / tail))
            remaining, tail = remaining - columns[-1], tail - 1 / S
        counts = np.column_stack(columns + [remaining])
        assert np.all(counts.sum(-1) == n)
        assert got.tobytes() == (np.abs(S * counts - n).sum(-1) / (n * S)).tobytes()

    # 2^15 // S rows a block: 10922 rows at S = 3 and one row at S = 20000, so
    # a block boundary falls inside each chunk
    @pytest.mark.parametrize("S, n, count", [(3, 10, 12_000), (20_000, 200, 3)])
    def test_blocked_dirichlet_matches_whole_batch(self, S, n, count):
        request = SampleRequest(DeviationSource("dirichlet", S, n=n), count, stream=1)
        got = montecarlo._draw_chunk(request, SEED, 2, count)
        p = np.full(S, 1 / S)
        # (dirichlet) at replicate 1 and S, n
        whole = sample_dirichlet_batch(n * p, count, StreamKey(SEED, S, n, 2, 2 << 62 | 1))
        assert got.tobytes() == l1_deviation(whole, p).tobytes()

    # 256 rows at S = 20000 are 39 MiB of counts or gammas as one array; at
    # (50, 400) the 256 rows of 400 categories would be 0.8 MiB, and at
    # (50, 1000) (Poissonized) 256 rows hold 0.1 MiB of uniforms and as much
    # in guide cells, and 0.1 MiB of top-up categories
    @pytest.mark.parametrize("family, S, n", [
        pytest.param("multinomial", 20_000, 200, id="multinomial"),
        pytest.param("dirichlet", 20_000, 200, id="dirichlet"),
        pytest.param("multinomial", 50, 400, id="multinomial-50-400"),
        pytest.param("multinomial", 50, 1000, id="multinomial-50-1000"),
    ])
    def test_chunk_memory_flat_in_S(self, family, S, n):
        request = SampleRequest(DeviationSource(family, S, n=n), 256, thresholds=(1.0,))
        tracemalloc.start()
        try:
            [summary] = summarize_many([request], SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.count == 256
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("family", ["multinomial", "dirichlet"])
    def test_worker_count_invariance_at_large_S(self, family, monkeypatch):
        # three chunks, two of them running at once on the pool's threads
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        request = SampleRequest(DeviationSource(family, 500, n=100), 2 * montecarlo.CHUNK_SIZE + 7,
                                thresholds=(1.25, 1.3, 1.64), grid=(1.29, 1.63))
        [one], [two] = (summarize_many([request], SEED, workers) for workers in (1, 2))
        assert one.at_least.tolist() == two.at_least.tolist()
        assert one.at_most.tolist() == two.at_most.tolist()
        assert (one.count, one.mean, one.m2) == (two.count, two.mean, two.m2)


class TestCountingChunks:
    # a chunk with n <= 5·S tallies n uniform categories a row; one with
    # 5·S < n <= 10·S² and S >= 3 is Poissonized; any other takes the
    # binomial chain

    # thresholds on atoms of L, so ties count at >= threshold, with tails
    # from about 0.8 to 0.13; (3, 15) and (7, 35) are the last counted cells,
    # every cell from (3, 16) on is Poissonized: (3, 16) and (7, 36) sit at
    # the band's lower edge, (3, 90) and (7, 490) at its upper edge
    @pytest.mark.parametrize("S, n, Ls", [
        (10, 8, (64, 80, 96)), (5, 20, (30, 40, 50)), (3, 24, (12, 18, 24)), (3, 25, (14, 20, 26)),
        (10, 100, (200, 240, 300)), (20, 400, (1200, 1440, 1680)), (50, 1000, (8200, 9000, 9800)),
        (5, 100, (60, 80, 100)), (10, 1000, (600, 760, 940)), (50, 10**4, (27000, 28000, 29000)),
        (3, 90, (24, 30, 42)), (7, 57, (82, 104, 128)), (7, 490, (238, 308, 378)),
        (3, 15, (10, 14, 20)), (7, 35, (72, 86, 100)), (3, 16, (10, 16, 22)), (7, 36, (68, 80, 96)),
    ])
    def test_tails_match_exact_oracle(self, S, n, Ls):
        trials = 10**5
        thresholds = tuple(L / (n * S) for L in Ls)
        [summary] = summarize_many([SampleRequest(DeviationSource("multinomial", S, n=n), trials,
                                                  thresholds=thresholds)], SEED)
        half = dkw_halfwidth(trials, 1e-6)
        for t, k in zip(thresholds, summary.at_least):
            assert abs(k / trials - exact_tail_small(np.full(S, 1 / S), n, t)) <= half

    def test_method_on_each_side_of_each_cutoff(self, monkeypatch):
        # the method on each side of 5·S, of 10·S² and of the least S of the
        # Poissonized band, with the other two methods made to raise
        methods = ("_counted_L", "_poissonized_L", "_chained_L")
        counted, poissonized, chained = methods

        def other_method(*args):
            raise AssertionError("another method ran")

        for S, n, method in [
            (7, 35, counted), (7, 36, poissonized), (7, 490, poissonized), (7, 491, chained),
            (5, 25, counted), (5, 26, poissonized), (5, 100, poissonized),
            (10, 50, counted), (10, 51, poissonized), (10, 1000, poissonized),
            (10, 1001, chained),
            (3, 15, counted), (3, 16, poissonized), (3, 90, poissonized), (3, 91, chained),
            (2, 10, counted), (2, 11, chained), (2, 10**4, chained),
            (50, 250, counted), (50, 251, poissonized), (50, 25_000, poissonized),
            (50, 25_001, chained),
        ]:
            with monkeypatch.context() as patch:
                for name in methods:
                    if name != method:
                        patch.setattr(montecarlo, name, other_method)
                request = SampleRequest(DeviationSource("multinomial", S, n=n), 100)
                assert montecarlo._draw_chunk(request, SEED, 0, 100).shape == (100,), (S, n)


class Recording:
    """Hands out the draws of ``rng`` and records each call: ("random",
    rows) or ("integers", size)."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def random(self, size):
        self.calls.append(("random", size[0]))
        return self.rng.random(size)

    def integers(self, low, high, size, dtype=np.int64):
        self.calls.append(("integers", size))
        return self.rng.integers(low, high, size=size, dtype=dtype)


class TestPoissonizedChunks:
    # 5·S < n <= 10·S² with S >= 3: S Poisson counts a row, dropped if their
    # total T exceeds n, else topped up with n − T uniform categories

    def test_rows_sum_to_n_with_drops(self, monkeypatch):
        # every block is scored whole; its kept rows are >= 0 and sum to n,
        # its dropped rows (no top-up) sum to T > n, and L holds the kept
        # rows in order; at (10, 100) T ~ Poisson(85) exceeds 100 about once
        # in 20 rows
        S, n, count = 10, 100, 40_000
        rng, blocks = Recording(StreamKey(SEED).generator()), []
        score = montecarlo._score

        def recorded(c, *args):
            blocks.append(c.copy())
            score(c, *args)

        monkeypatch.setattr(montecarlo, "_score", recorded)
        L = np.zeros(count, dtype=np.int64)
        montecarlo._poissonized_L(rng, S, n, L)
        counts = np.concatenate(blocks)
        assert [kind for kind, _ in rng.calls] == ["random", "integers"] * len(blocks)
        assert np.all(counts >= 0) and np.all(counts.sum(-1) >= n)
        kept = counts[counts.sum(-1) == n]
        assert count <= kept.shape[0] < count + blocks[-1].shape[0]
        assert counts.shape[0] - kept.shape[0] > 0
        assert L.tolist() == np.abs(S * kept[:count] - n).sum(-1).tolist()
        # the recording generator hands out the draws of the key's own
        monkeypatch.setattr(montecarlo, "_score", score)
        assert np.array_equal(montecarlo._multinomial_L(StreamKey(SEED), S, n, count), L)

    # two pool threads overlap a Poissonized chunk only while it is a few
    # large NumPy calls: at 2^16 elements a block, a 16,384-row chunk is 27
    # blocks at (50, 10^3) and 54 at (50, 10^4); at 2^15 it would be 53 and
    # 108
    @pytest.mark.parametrize("S, n, most", [(50, 1000, 32), (50, 10**4, 64)])
    def test_chunk_is_few_blocks(self, S, n, most):
        # a block is one call for uniforms and one for top-up categories
        rng = Recording(StreamKey(SEED).generator())
        montecarlo._poissonized_L(rng, S, n, np.zeros(montecarlo.CHUNK_SIZE, dtype=np.int64))
        kinds = [kind for kind, _ in rng.calls]
        assert kinds == ["random", "integers"] * (len(kinds) // 2)
        assert len(kinds) // 2 <= most

    # a block's uniforms, guide cells, counts and top-up categories, in
    # either thread, stay below 1 MiB with the chunk's own 128 KiB of L
    @pytest.mark.parametrize("S, n", [(10, 100), (50, 1000), (50, 10**4)])
    def test_chunk_memory_bounded(self, S, n):
        tracemalloc.start()
        try:
            montecarlo._multinomial_L(StreamKey(SEED), S, n, montecarlo.CHUNK_SIZE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2**20

    def test_worker_count_invariance(self, monkeypatch):
        # three chunks, two of them running at once on the pool's threads
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        request = SampleRequest(DeviationSource("multinomial", 50, n=1000),
                                2 * montecarlo.CHUNK_SIZE + 7, thresholds=(0.16, 0.176, 0.2),
                                grid=(0.15, 0.18))
        [one], [two] = (summarize_many([request], SEED, workers) for workers in (1, 2))
        assert one.at_least.tolist() == two.at_least.tolist()
        assert one.at_most.tolist() == two.at_most.tolist()
        assert (one.count, one.mean, one.m2) == (two.count, two.mean, two.m2)


class TestOneDrawPerLaw:
    # a law's sample does not depend on its length: a request of m trials
    # reads the first m draws of any longer request of its law

    @pytest.mark.parametrize("source", [
        DeviationSource("multinomial", 10, n=40),  # counted
        DeviationSource("multinomial", 50, n=10**4),  # Poissonized
        DeviationSource("multinomial", 5, n=1000),  # chained
        DeviationSource("dirichlet", 50, n=10**4),
        DeviationSource("limit", 50),
    ], ids=["counted", "poissonized", "chained", "dirichlet", "limit"])
    def test_shorter_draw_is_a_prefix(self, source):
        longer = draw_samples(source, 2 * montecarlo.CHUNK_SIZE + 7, SEED)
        for trials in (1, 10_000, montecarlo.CHUNK_SIZE + 1, 2 * montecarlo.CHUNK_SIZE + 7):
            assert draw_samples(source, trials, SEED).tobytes() == longer[:trials].tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_summary_beside_longer_requests_equals_it_alone(self, workers, monkeypatch):
        # three trial counts of one law, each ending inside another chunk,
        # drawn once at the longest; every summary is the one it has alone
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        source = DeviationSource("multinomial", 50, n=1000)
        requests = [SampleRequest(source, trials, thresholds=(0.16, 0.176), grid=(0.15, 0.18))
                    for trials in (10_000, 2 * montecarlo.CHUNK_SIZE + 7,
                                   montecarlo.CHUNK_SIZE + 1)]
        drawn = []
        map_chunks = montecarlo._map_chunks

        def recording(fn, laws, master_seed, workers):
            drawn.extend(law.trials for law in laws)
            return map_chunks(fn, laws, master_seed, workers)

        monkeypatch.setattr(montecarlo, "_map_chunks", recording)
        together = summarize_many(requests, SEED, workers)
        assert drawn == [2 * montecarlo.CHUNK_SIZE + 7]
        for request, got in zip(requests, together, strict=True):
            [alone] = summarize_many([request], SEED)
            assert got.at_least.tolist() == alone.at_least.tolist()
            assert got.at_most.tolist() == alone.at_most.tolist()
            assert (got.count, got.mean, got.m2) == (alone.count, alone.mean, alone.m2)


class TestThresholdSweep:
    # one estimate_tail_probability call a threshold reads the sample that one
    # request of every threshold reads

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("source", [
        DeviationSource("multinomial", 10, n=40),  # counted
        DeviationSource("multinomial", 50, n=10**4),  # Poissonized
        DeviationSource("multinomial", 5, n=1000),  # chained
        DeviationSource("dirichlet", 50, n=10**4),
        DeviationSource("limit", 50),
    ], ids=["counted", "poissonized", "chained", "dirichlet", "limit"])
    def test_threshold_sweep_equals_one_request(self, source, workers, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        trials = 2 * montecarlo.CHUNK_SIZE + 7
        thresholds = tuple(np.quantile(draw_samples(source, 1000, SEED + 1), [0.1, 0.5, 0.9]))
        [want] = summarize_many([SampleRequest(source, trials, thresholds=thresholds)], SEED,
                                workers)
        got = [estimate_tail_probability(source, t, trials, SEED, workers=workers)
               for t in thresholds]
        assert got == [tail_estimate_from_count(t, int(k), trials)
                       for t, k in zip(thresholds, want.at_least, strict=True)]

    @pytest.mark.parametrize("seed", [1.0, True, -1, 2**64])
    def test_bad_master_seed_refused_before_any_draw(self, seed, monkeypatch):
        def drawn(*args):
            raise AssertionError("drew a chunk")

        monkeypatch.setattr(montecarlo, "_draw_chunk", drawn)
        with pytest.raises(ValidationError, match="master_seed must be an integer"):
            estimate_tail_probability(DeviationSource("limit", 5), 1.0, 1000, seed)


class TestPoolSize:
    @pytest.fixture
    def sizes(self, monkeypatch):
        # records each pool's size and maps in this thread, so no thread starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
        return sizes

    # five chunks; a pool has at most min(workers, chunks, usable CPUs) threads
    @pytest.mark.parametrize("workers, cpus, expected", [
        (100_000, 3, [3]), (100_000, 64, [5]), (2, 64, [2]), (100_000, 1, []),
    ])
    def test_capped_at_usable_cpus(self, sizes, monkeypatch, workers, cpus, expected):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        source = DeviationSource("multinomial", 3, n=10)
        trials = 4 * montecarlo.CHUNK_SIZE + 1
        got = draw_samples(source, trials, SEED, workers=workers)
        assert sizes == expected
        assert got.tobytes() == draw_samples(source, trials, SEED).tobytes()


class Reached(Exception):
    """Raised in place of the first chunk's reduction."""


class TestStreamingSchedule:
    @staticmethod
    def _peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_flat_in_trials(self, workers, monkeypatch):
        # chunk summaries are merged as they finish, so 64 times the chunks
        # hold no more memory; the draw is stubbed, since only the schedule
        # and the fold are measured
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(montecarlo, "_draw_chunk",
                            lambda law, master_seed, chunk, count: np.zeros(count))
        source = DeviationSource("limit", 50)

        def run(trials):
            request = SampleRequest(source, trials, thresholds=(0.5, 1.5),
                                    grid=tuple(np.linspace(0.0, 6.0, 121)))
            [summary] = summarize_many([request], SEED, workers)
            assert summary.count == trials and summary.at_most[0] == trials

        small, large = self._peak(lambda: run(2**20)), self._peak(lambda: run(2**26))
        assert large - small < 256 * 2**10, (small, large)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_job_list_before_the_first_chunk(self, workers, monkeypatch):
        # 2^34 trials are 2^20 chunks; none is made before the first one runs
        def reached(*args):
            raise Reached

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(montecarlo, "_reduce_chunk", reached)
        request = SampleRequest(DeviationSource("limit", 50), 2**34, thresholds=(0.5,))

        def run():
            with pytest.raises(Reached):
                summarize_many([request], SEED, workers)

        assert self._peak(run) < 256 * 2**10

    def test_chunks_come_largest_first_each_law_in_chunk_order(self):
        # rows·S orders the jobs; ties keep law order, a law keeps chunk order
        size = montecarlo.CHUNK_SIZE
        laws = [SampleRequest(DeviationSource("limit", 2), 2 * size + 5),
                SampleRequest(DeviationSource("limit", 10), size + 3),
                SampleRequest(DeviationSource("limit", 2), size)]
        got = list(montecarlo._map_chunks(
            lambda law, master_seed, chunk, rows: (laws.index(law), chunk, rows), laws, SEED, 1))
        assert got == [(1, 0, size), (0, 0, size), (0, 1, size), (2, 0, size), (1, 1, 3),
                       (0, 2, 5)]


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

    def test_numpy_trials_come_back_as_a_python_int(self):
        source = DeviationSource("multinomial", 3, n=10)
        est = estimate_tail_probability(source, 0.5, np.int64(100), SEED)
        assert type(est.trials) is int
        assert est == estimate_tail_probability(source, 0.5, 100, SEED)

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

    @pytest.mark.parametrize("call", [
        lambda source: estimate_quantile_curve(source, ["0.5"], 100, SEED),
        lambda source: estimate_quantile_curve(source, ["abc"], 100, SEED),
        lambda source: summarize_many([SampleRequest(source, 100, thresholds=("0.5",))], SEED),
    ], ids=["numeric-text-grid", "text-grid", "text-threshold"])
    def test_text_thresholds_and_grid_rejected(self, call):
        # array inputs meet the same real-number check as a scalar threshold
        with pytest.raises(ValidationError, match="threshold must be a finite real number"):
            call(DeviationSource("limit", 5))

    @pytest.mark.parametrize("call", [
        lambda source: estimate_quantile_curve(source, [[1.0, 2.0], [3.0]], 100, 1),
        lambda source: summarize_many([SampleRequest(source, 100, thresholds=[[1.0], [2.0, 3.0]])],
                                      1),
        lambda source: summarize_many([SampleRequest(source, 100, grid=[[1.0], [2.0, 3.0]])], 1),
    ], ids=["ragged-grid", "ragged-thresholds", "ragged-request-grid"])
    def test_ragged_points_rejected(self, call):
        # a nested point is no real number; NumPy never sees the ragged list
        with pytest.raises(ValidationError, match="threshold must be a finite real number"):
            call(DeviationSource("limit", 5))

    def test_lone_threshold_and_grid_point_read_as_one(self):
        source = DeviationSource("limit", 5)
        [lone] = summarize_many([SampleRequest(source, 100, thresholds=0.5, grid=1.0)], SEED)
        [one] = summarize_many([SampleRequest(source, 100, thresholds=(0.5,), grid=(1.0,))], SEED)
        assert lone.at_least.tolist() == one.at_least.tolist() and len(one.at_least) == 1
        assert lone.at_most.tolist() == one.at_most.tolist() and len(one.at_most) == 1


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
        message = "threshold must be a finite real number in (-inf, inf)"
        with pytest.raises(ValidationError, match=re.escape(message)):
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

    def test_grid_over_a_subnormal_scale_counts_without_a_warning(self):
        # each point is divided by D as a Python float, so 0.5 / 1e-320
        # overflows to inf silently, as a threshold does, and every draw lies
        # below it (the suite turns a RuntimeWarning into an error)
        curve = estimate_quantile_curve(DeviationSource("limit", 5, D=1e-320), [0.5, 1.0], 10,
                                        SEED)
        assert curve.cdf_estimates.tolist() == [1.0, 1.0]

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

    def test_upper_end_at_delta_is_consistent(self):
        # delta = 1 is in the domain (0, 1]; an interval whose upper end is
        # exactly delta cannot exceed it
        est = tail_estimate_from_count(0.0, 100, 100)
        assert est.ci_high == 1.0
        assert classify_verdict(est, 1.0) == CONSISTENT
        # Agrawal's epsilon at delta = 1 is 0, which every draw reaches
        verdict = falsify_bound(BoundSpec(BoundFamily.AGRAWAL, 100, 5, 1.0), 100, SEED)
        assert verdict.evaluation.epsilon == 0.0
        assert verdict.estimate.ci_high == 1.0
        assert verdict.outcome == CONSISTENT

    def test_lower_end_at_delta_is_inconclusive(self):
        # Violated needs the whole interval above delta
        est = TailEstimate(threshold=0.1, exceedance_count=30, trials=100, point=0.3,
                           ci_low=0.25, ci_high=0.4, ci_level=0.95)
        assert classify_verdict(est, 0.25) == INCONCLUSIVE

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
