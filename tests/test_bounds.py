import math

import numpy as np
import pytest

from l1conc.bounds import (
    BoundEvaluation,
    BoundFamily,
    BoundSpec,
    agrawal_epsilon,
    devroye_epsilon,
    devroye_valid,
    evaluate_bound,
    weissman_epsilon,
)
from l1conc.errors import ValidationError


class TestWeissman:
    def test_reference_values(self):
        assert weissman_epsilon(100, 2, 0.05, "union") == pytest.approx(
            math.sqrt(2 * 2 * math.log(40) / 100), rel=1e-12)
        assert weissman_epsilon(100, 2, 0.05, "union") == pytest.approx(0.384130, abs=1e-6)
        assert weissman_epsilon(100, 2, 0.05, "exact") == pytest.approx(0.271620, abs=1e-6)
        assert weissman_epsilon(100, 3, 0.05, "exact") == pytest.approx(0.309435, abs=1e-6)

    def test_exact_below_union(self):
        for S in range(2, 31):
            for delta in (1e-6, 1e-3, 0.1, 0.5, 1.0):
                assert weissman_epsilon(50, S, delta, "exact") <= weissman_epsilon(50, S, delta, "union")

    def test_large_S_log_path(self):
        # the floating-point branch must agree with exact integer arithmetic
        for S in (59, 60, 61, 80, 200):
            direct = math.sqrt(2 * (S * math.log(2) + math.log1p(-2.0 ** (1 - S)) - math.log(0.05)) / 100)
            assert weissman_epsilon(100, S, 0.05, "exact") == pytest.approx(direct, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            weissman_epsilon(100, 2, 0.0, "union")
        with pytest.raises(ValidationError):
            weissman_epsilon(100, 2, 2.5, "union")
        with pytest.raises(ValidationError):
            weissman_epsilon(100, 2, 2.5, "exact")  # 2^2 - 2 = 2 < 2.5
        with pytest.raises(ValidationError):
            weissman_epsilon(100, 1, 0.05)
        with pytest.raises(ValidationError):
            weissman_epsilon(100, 2, 0.05, "bogus")


class TestDevroye:
    def test_reference_values(self):
        assert devroye_epsilon(100, 0.05) == pytest.approx(5 * math.sqrt(math.log(60) / 100), rel=1e-12)
        assert devroye_epsilon(100, 0.05) == pytest.approx(1.011727, abs=1e-5)
        assert devroye_epsilon(100, 3.0) == 0.0
        assert devroye_epsilon(400, 0.05) == pytest.approx(devroye_epsilon(100, 0.05) / 2, rel=1e-12)

    def test_validity_regime(self):
        assert devroye_valid(2, 0.05)
        assert not devroye_valid(10, 0.05)
        assert devroye_valid(2, 0.0)
        assert devroye_valid(50, 3 * math.exp(-40.0))

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            devroye_epsilon(100, 3.5)
        with pytest.raises(ValidationError):
            devroye_epsilon(100, 0.0)

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
            lambda n, d: weissman_epsilon(n, 4, d, "union"),
            lambda n, d: weissman_epsilon(n, 4, d, "exact"),
            devroye_epsilon,
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

    def test_family_coercion_from_string(self):
        spec = BoundSpec("Agrawal", 100, 5, 0.1)
        assert spec.family is BoundFamily.AGRAWAL

    def test_devroye_flags(self):
        ev = evaluate_bound(BoundSpec(BoundFamily.DEVROYE, 100, 10, 0.05))
        assert isinstance(ev, BoundEvaluation)
        assert not ev.valid
        assert ev.epsilon == pytest.approx(devroye_epsilon(100, 0.05))

    def test_vacuous_flag(self):
        ev = evaluate_bound(BoundSpec(BoundFamily.DEVROYE, 10, 2, 0.05))
        assert ev.epsilon > 2.0 and ev.vacuous
        ev = evaluate_bound(BoundSpec(BoundFamily.AGRAWAL, 10_000, 2, 0.05))
        assert not ev.vacuous
