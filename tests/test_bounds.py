import math

import numpy as np
import pytest

from l1conc.bounds import (
    BoundEvaluation,
    BoundFamily,
    BoundSpec,
    agrawal_epsilon,
    devroye_valid,
    evaluate_bound,
)
from l1conc.errors import ValidationError

UNION, EXACT, DEVROYE = BoundFamily.WEISSMAN_UNION, BoundFamily.WEISSMAN_EXACT, BoundFamily.DEVROYE


def epsilon(family, n, S, delta):
    return evaluate_bound(BoundSpec(family, n, S, delta)).epsilon


class TestWeissman:
    def test_reference_values(self):
        assert epsilon(UNION, 100, 2, 0.05) == pytest.approx(
            math.sqrt(2 * 2 * math.log(40) / 100), rel=1e-12)
        assert epsilon(UNION, 100, 2, 0.05) == pytest.approx(0.384130, abs=1e-6)
        assert epsilon(EXACT, 100, 2, 0.05) == pytest.approx(0.271620, abs=1e-6)
        assert epsilon(EXACT, 100, 3, 0.05) == pytest.approx(0.309435, abs=1e-6)

    def test_exact_below_union(self):
        for S in range(2, 31):
            for delta in (1e-6, 1e-3, 0.1, 0.5, 1.0):
                assert epsilon(EXACT, 50, S, delta) <= epsilon(UNION, 50, S, delta)

    def test_large_S_log_path(self):
        # the floating-point branch must agree with exact integer arithmetic
        for S in (59, 60, 61, 80, 200):
            direct = math.sqrt(2 * (S * math.log(2) + math.log1p(-2.0 ** (1 - S)) - math.log(0.05)) / 100)
            assert epsilon(EXACT, 100, S, 0.05) == pytest.approx(direct, rel=1e-12)


class TestDevroye:
    def test_reference_values(self):
        assert epsilon(DEVROYE, 100, 2, 0.05) == pytest.approx(
            5 * math.sqrt(math.log(60) / 100), rel=1e-12)
        assert epsilon(DEVROYE, 100, 2, 0.05) == pytest.approx(1.011727, abs=1e-5)
        assert epsilon(DEVROYE, 400, 2, 0.05) == pytest.approx(
            epsilon(DEVROYE, 100, 2, 0.05) / 2, rel=1e-12)

    def test_validity_regime(self):
        assert devroye_valid(2, 0.05)
        assert not devroye_valid(10, 0.05)
        assert devroye_valid(2, 0.0)
        assert devroye_valid(50, 3 * math.exp(-40.0))

    def test_exceeds_sqrt_4s_over_5n(self):
        # inside the validity regime the threshold dominates sqrt(4S/(5n))
        for S in (2, 5, 10, 20):
            dmax = 3 * math.exp(-4 * S / 5)
            # strict inequality holds strictly inside the regime (equality at dmax)
            for delta in (dmax / 2, dmax / 10, dmax / 1000):
                for n in (10, 100, 10_000):
                    assert math.sqrt(math.log(3 / delta) / n) > math.sqrt(4 * S / (5 * n))


class TestAgrawal:
    def test_reference_values(self):
        assert agrawal_epsilon(100, 0.05) == pytest.approx(math.sqrt(2 * math.log(20) / 100), rel=1e-12)
        assert agrawal_epsilon(100, 0.05) == pytest.approx(0.244774, abs=1e-6)
        assert agrawal_epsilon(100, 1.0) == 0.0
        assert agrawal_epsilon(10_000, 0.05) == pytest.approx(0.0244774, abs=1e-7)

    def test_dimension_free(self):
        values = {
            evaluate_bound(BoundSpec(BoundFamily.AGRAWAL, 500, S, 0.1)).epsilon
            for S in (2, 10, 100, 1000)
        }
        assert len(values) == 1

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            agrawal_epsilon(100, 1.5)
        with pytest.raises(ValidationError):
            agrawal_epsilon(100, 0.0)


class TestMonotonicity:
    n_grid = [10, 100, 1000, 10_000, 100_000]
    delta_grid = [1e-6, 1e-4, 1e-2, 0.1, 0.5]

    def test_nonincreasing_in_n_and_delta(self):
        fns = [
            lambda n, d: epsilon(UNION, n, 4, d),
            lambda n, d: epsilon(EXACT, n, 4, d),
            lambda n, d: epsilon(DEVROYE, n, 4, d),
            agrawal_epsilon,
        ]
        for fn in fns:
            for d in self.delta_grid:
                eps = [fn(n, d) for n in self.n_grid]
                assert all(a >= b for a, b in zip(eps, eps[1:]))
            for n in self.n_grid:
                eps = [fn(n, d) for d in self.delta_grid]
                assert all(a >= b for a, b in zip(eps, eps[1:]))


class TestBoundSpecEvaluation:
    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            BoundSpec(BoundFamily.AGRAWAL, 0, 2, 0.1)
        with pytest.raises(ValidationError):
            BoundSpec(BoundFamily.AGRAWAL, 10, 1, 0.1)
        with pytest.raises(ValidationError):
            BoundSpec(BoundFamily.AGRAWAL, 10, 2, 1.5)

    @pytest.mark.parametrize("n,S", [(100, float("inf")), (100, 5.0), (2.5, 100),
                                     (100.0, 5), ("100", 5), (100, "5")])
    def test_non_integer_n_and_S_rejected(self, n, S):
        with pytest.raises(ValidationError, match="integer"):
            BoundSpec(BoundFamily.AGRAWAL, n, S, 0.1)

    @pytest.mark.parametrize("n,S", [(2**64, 5), (100, 2**64), (10**400, 5), (100, 10**400)],
                             ids=["n-2^64", "S-2^64", "n-10^400", "S-10^400"])
    def test_n_and_S_from_2_64_rejected(self, n, S):
        # every formula converts n and S to floats, which 10^400 overflows
        for family in BoundFamily:
            with pytest.raises(ValidationError, match="< 2\\^64"):
                BoundSpec(family, n, S, 0.1)
        evaluate_bound(BoundSpec(BoundFamily.DEVROYE, min(n, 2**64 - 1), min(S, 2**64 - 1), 0.1))

    def test_numpy_integers_accepted(self):
        spec = BoundSpec(BoundFamily.WEISSMAN_UNION, np.int64(100), np.int32(5), 0.1)
        assert evaluate_bound(spec).epsilon == evaluate_bound(
            BoundSpec(BoundFamily.WEISSMAN_UNION, 100, 5, 0.1)).epsilon

    def test_family_coercion_from_string(self):
        spec = BoundSpec("Agrawal", 100, 5, 0.1)
        assert spec.family is BoundFamily.AGRAWAL

    def test_devroye_flags(self):
        ev = evaluate_bound(BoundSpec(BoundFamily.DEVROYE, 100, 10, 0.05))
        assert isinstance(ev, BoundEvaluation)
        assert not ev.valid
        assert ev.epsilon == pytest.approx(5 * math.sqrt(math.log(60) / 100))

    def test_vacuous_flag(self):
        ev = evaluate_bound(BoundSpec(BoundFamily.DEVROYE, 10, 2, 0.05))
        assert ev.epsilon > 2.0 and ev.vacuous
        ev = evaluate_bound(BoundSpec(BoundFamily.AGRAWAL, 10_000, 2, 0.05))
        assert not ev.vacuous


class TestSubnormalDelta:
    # c/delta overflows to inf at a subnormal delta; there, and only there,
    # ln(c/delta) is taken as ln(c) − ln(delta)

    def test_agrawal_epsilon_finite_at_least_delta(self):
        eps = agrawal_epsilon(100, 5e-324)
        assert math.isfinite(eps)
        assert eps == pytest.approx(math.sqrt(-2.0 * math.log(5e-324) / 100), rel=1e-15)
        assert eps == pytest.approx(3.8586, abs=1e-4)

    @pytest.mark.parametrize("family, c", [(UNION, 2.0), (DEVROYE, 3.0), (EXACT, None),
                                           (BoundFamily.AGRAWAL, 1.0)])
    def test_every_family_finite_at_subnormal_delta(self, family, c):
        delta = 1e-309
        eps = epsilon(family, 100, 5, delta)
        assert math.isfinite(eps)
        if c is not None:
            log_over = math.log(c) - math.log(delta)
            factor = {UNION: 2.0 * 5, DEVROYE: 25.0, BoundFamily.AGRAWAL: 2.0}[family]
            assert eps == pytest.approx(math.sqrt(factor * log_over / 100), rel=1e-15)

    # the deltas of the golden config and of the benchmark's falsify and tail cells
    @pytest.mark.parametrize("delta", [0.5, 0.1, 0.05, 0.01])
    @pytest.mark.parametrize("n, S", [(100, 10), (10_000, 50), (1000, 5)])
    def test_epsilon_bits_unchanged_at_normal_delta(self, delta, n, S):
        assert agrawal_epsilon(n, delta) == math.sqrt(2.0 * math.log(1.0 / delta) / n)
        assert epsilon(UNION, n, S, delta) == math.sqrt(2.0 * S * math.log(2.0 / delta) / n)
        assert epsilon(DEVROYE, n, S, delta) == 5.0 * math.sqrt(math.log(3.0 / delta) / n)
