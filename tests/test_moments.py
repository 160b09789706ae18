"""Each sampled law against a closed-form moment.

Dirichlet mean.  Under the uniform p, a Dirichlet(n·p) coordinate is
Beta(α, β) with α = n/S and β = n − α, whose mean absolute deviation is
2·α^α·β^β / (B(α, β)·(α+β)^(α+β+1)); E[l1] is S times it.

Limit variance.  Z = Σ X_i⁺ / √S with X = G − mean(G) for S standard
normals G: each X_i has variance σ² = (S−1)/S, and two of them have
correlation ρ = −1/(S−1).  With the orthant moment
E[X⁺Y⁺] = σ²(√(1−ρ²) + ρ(π/2 + arcsin ρ))/(2π),
Var Z = σ²/2 + (S−1)·E[X⁺Y⁺] − (S−1)/(2π).

Each check is a two-sided z-test at |z| <= Z_MAX: for the mean the standard
error is the sample's, for the variance it is √((m4 − s⁴)/N) from the
sample's fourth central moment.  The 11 tests then raise a false alarm,
over master seeds, with probability at most 11·P(|N(0, 1)| > 4.5) ≈ 7.5e-5
(Bonferroni, at the normal limit of each statistic).
"""

import math

import numpy as np
import pytest

from l1conc.montecarlo import DeviationSource, SampleRequest, draw_samples, summarize_many

TRIALS = 1 << 16
SEED = 1
Z_MAX = 4.5
WORKERS = 2

# (S, n): α = n/S below 1, at 1, and from 2 up, one cell at the
# acceptance-scale (50, 10^4)
DIRICHLET_CELLS = [(50, 20), (10, 10), (4, 10), (50, 100), (5, 20), (50, 10_000)]
LIMIT_S = [2, 3, 10, 50, 200]


def dirichlet_mean_l1(S: int, n: int) -> float:
    a = n / S
    b = n - a
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(n)
    log_mad = math.log(2) + a * math.log(a) + b * math.log(b) - log_beta - (n + 1) * math.log(n)
    return S * math.exp(log_mad)


def limit_variance(S: int) -> float:
    var, rho = (S - 1) / S, -1 / (S - 1)
    orthant = var * (math.sqrt(1 - rho * rho) + rho * (math.pi / 2 + math.asin(rho))) / (2 * math.pi)
    return var / 2 + (S - 1) * orthant - (S - 1) / (2 * math.pi)


def test_closed_forms_at_known_values():
    # (S, n) = (2, 2): α = β = 1, so a coordinate is uniform on [0, 1], and
    # E[l1] = 2·E|U − 1/2| = 1/2.  S = 2: Z = |G1 − G2|/(2√2), and
    # G1 − G2 ~ N(0, 2) gives Var Z = 2(1 − 2/π)/8 = 1/4 − 1/(2π)
    assert dirichlet_mean_l1(2, 2) == pytest.approx(0.5, rel=1e-12)
    assert limit_variance(2) == pytest.approx(0.25 - 1 / (2 * math.pi), rel=1e-12)


@pytest.fixture(scope="module")
def dirichlet_summaries():
    requests = [SampleRequest(DeviationSource("dirichlet", S, n=n), TRIALS)
                for S, n in DIRICHLET_CELLS]
    return dict(zip(DIRICHLET_CELLS, summarize_many(requests, SEED, WORKERS)))


@pytest.mark.parametrize("S,n", DIRICHLET_CELLS)
def test_dirichlet_mean_l1_matches_closed_form(dirichlet_summaries, S, n):
    summary = dirichlet_summaries[(S, n)]
    z = (summary.mean - dirichlet_mean_l1(S, n)) / math.sqrt(summary.variance / TRIALS)
    assert abs(z) <= Z_MAX, (S, n, summary.mean, dirichlet_mean_l1(S, n), z)


@pytest.mark.parametrize("S", LIMIT_S)
def test_limit_variance_matches_closed_form(S):
    z_draws = draw_samples(DeviationSource("limit", S), TRIALS, SEED, workers=WORKERS)
    centred = z_draws - z_draws.mean()
    s2 = centred.var(ddof=1)
    m4 = float(np.mean(centred**4))
    z = (s2 - limit_variance(S)) / math.sqrt((m4 - s2 * s2) / TRIALS)
    assert abs(z) <= Z_MAX, (S, s2, limit_variance(S), z)
