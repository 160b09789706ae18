import math
import tracemalloc
import warnings

import numpy as np
import pytest

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

    def test_bad_args(self):
        with pytest.raises(ValidationError):
            clopper_pearson(5, 0)
        with pytest.raises(ValidationError):
            clopper_pearson(5, 4)

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


class TestExactOracle:
    def test_total_probability(self):
        assert exact_tail_small([0.2, 0.3, 0.5], 5, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_fair_coin(self):
        got = exact_tail_small([0.5, 0.5], 2, 1.0)
        assert got == pytest.approx(0.5, rel=1e-12)
        assert type(got) is float  # a plain float, as JSON and repr expect

    def test_zero_probability_category(self):
        # outcomes with counts on a zero-probability category weigh 0, with
        # no 0 * log(0) warning, wherever that category sits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exact_tail_small([1.0, 0.0], 5, 0.5) == 0.0
            for p in ([0.0, 1.0], [1.0, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]):
                assert exact_tail_small(p, 5, 0.0) == pytest.approx(1.0, rel=1e-12)
                # l1 = 2 only when all counts sit on a zero-probability category
                assert exact_tail_small(p, 4, 2.0) == 0.0

    def test_matches_monte_carlo(self):
        p, n, thr = [1 / 3] * 3, 6, 2 / 3
        truth = exact_tail_small(p, n, thr)
        est = estimate_tail_probability(DeviationSource("multinomial", 3, n=n), thr, 10**5, SEED)
        assert est.ci_low <= truth <= est.ci_high

    def test_large_n_binary(self):
        # n = 100 exercises the log-factorial path without overflow
        total = exact_tail_small([0.3, 0.7], 100, 0.0)
        assert total == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            exact_tail_small([0.5, 0.5], 4, bad)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            exact_tail_small(np.full(30, 1 / 30), 100, 0.5)


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
