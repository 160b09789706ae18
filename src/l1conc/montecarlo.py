"""Monte Carlo engine: tail and quantile estimation with exact confidence
intervals, a small-instance exact oracle, and bound falsification.

Trials are drawn in fixed-size chunks, each chunk from its own Philox stream
derived from ``(master_seed, stream, chunk_index)``.  Estimators reduce each
chunk to exceedance counts, at-most counts and moments where it is drawn, so
memory does not grow with ``trials``.  ``summarize_many`` schedules the chunks
of many sample requests (every cell of an experiment) together, on at most one
process pool, which it shuts down before returning.  Chunk boundaries do not
depend on the worker count, and chunk results are merged in index order, so
every estimate is bit-identical whether it ran on 1 worker or 64.

The exact oracle ``exact_tail_small`` enumerates multinomial outcomes in
blocks and scores each block with ``l1_deviation``, the call every Monte
Carlo chunk goes through, so oracle and estimates share one statistic and
one tie rule (``>= threshold``).
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, islice, starmap
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, xlogy
from scipy.stats import beta as beta_dist

from .asymptotic import sample_Z_batch
from .bounds import BoundEvaluation, BoundSpec, evaluate_bound
from .deviation import l1_deviation
from .errors import CapacityError, ValidationError
from .sampling import StreamKey, as_simplex, sample_dirichlet_batch, sample_multinomial_batch

CHUNK_SIZE = 1 << 14

# cap on the number of enumerated outcomes in the exact oracle
MAX_EXACT_OUTCOMES = 10**7
# outcomes scored per block of the exact oracle's enumeration
EXACT_BLOCK = 1024

SOURCE_FAMILIES = ("multinomial", "dirichlet", "limit")


@dataclass(frozen=True)
class DeviationSource:
    """Describes which deviation statistic a Monte Carlo run samples, always
    under the uniform p = (1/S, ..., 1/S).

    ``multinomial``/``dirichlet`` sources produce the l1 distance between a
    finite-n empirical (or Dirichlet(n·p)) vector and p; ``limit`` sources
    produce the asymptotic variable directly, at the scale ``D`` that only
    they take.  ``scale`` multiplies every sample, e.g. sqrt(n)·D/2 to compare
    finite-n draws with the limit law.
    """

    family: str
    S: int
    n: int | None = None
    D: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in SOURCE_FAMILIES:
            raise ValidationError(f"unknown source family {self.family!r}")
        if self.S < 2:
            raise ValidationError("S must be >= 2")
        if self.family != "limit":
            if self.n is None or self.n < 1:
                raise ValidationError("finite-n sources require n >= 1")
            if self.D != 1.0:
                raise ValidationError("D applies to the limit family only")
        elif self.n is not None:
            raise ValidationError("n applies to finite-n families only")
        if not (math.isfinite(self.D) and math.isfinite(self.scale)):
            raise ValidationError("D and scale must be finite")
        if self.D <= 0:
            raise ValidationError("D must be > 0")


class SampleRequest(NamedTuple):
    """``trials`` deviation samples of ``source`` drawn from Philox stream
    ``stream``, summarized at ``thresholds`` (counts of samples >= t) and on
    ``grid`` (counts of samples <= g)."""

    source: DeviationSource
    trials: int
    stream: int = 0
    thresholds: tuple = ()
    grid: tuple = ()


def _stream_index(stream: int, chunk: int) -> int:
    # pack (stream, chunk) into the 64-bit stream half of the Philox key
    return (stream << 32) | chunk


def _draw_chunk(request: SampleRequest, master_seed: int, chunk: int, count: int) -> np.ndarray:
    source = request.source
    key = StreamKey(master_seed, _stream_index(request.stream, chunk))
    if source.family == "limit":
        out = sample_Z_batch(source.S, source.D, count, key)
    else:
        p = np.full(source.S, 1.0 / source.S)
        if source.family == "multinomial":
            phat = sample_multinomial_batch(p, source.n, count, key) / float(source.n)
        else:
            phat = sample_dirichlet_batch(source.n * p, count, key)
        out = l1_deviation(phat, p)
    if source.scale != 1.0:
        out = source.scale * out
    return out


def _map_requests(fn, requests: list, master_seed: int, workers: int) -> list[list]:
    """``fn(request, master_seed, chunk, size)`` for every chunk of every
    request, grouped by request in chunk order.  The chunks of all requests
    form one job list, mapped on at most one process pool, which is shut down
    (its workers joined) before this returns."""
    if any(request.trials < 1 for request in requests):
        raise ValidationError("trials must be >= 1")
    if not all(np.isfinite(np.asarray(values, dtype=float)).all()
               for request in requests for values in (request.thresholds, request.grid)):
        raise ValidationError("thresholds and grid points must be finite")
    jobs = [(request, master_seed, start // CHUNK_SIZE, min(CHUNK_SIZE, request.trials - start))
            for request in requests for start in range(0, request.trials, CHUNK_SIZE)]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            results = iter(list(pool.map(fn, *zip(*jobs))))
    else:
        results = starmap(fn, jobs)
    return [[next(results) for _ in range(0, request.trials, CHUNK_SIZE)] for request in requests]


def draw_samples(source: DeviationSource, trials: int, master_seed: int, *,
                 stream: int = 0, workers: int = 1) -> np.ndarray:
    """Draw ``trials`` deviation samples, reproducible and worker-independent."""
    [chunks] = _map_requests(_draw_chunk, [SampleRequest(source, trials, stream)],
                             master_seed, workers)
    return np.concatenate(chunks)


@dataclass(frozen=True)
class SampleSummary:
    """Counts and moments of a run of deviation samples.

    ``at_least[i]`` counts samples >= ``thresholds[i]`` and ``at_most[j]``
    counts samples <= ``grid[j]``; ``mean`` and ``m2`` (the centred sum of
    squares) are the moments of all ``count`` samples.
    """

    at_least: np.ndarray
    at_most: np.ndarray
    count: int
    mean: float
    m2: float

    @property
    def variance(self) -> float:
        """Unbiased (ddof=1) sample variance; needs at least two samples."""
        if self.count < 2:
            raise ValidationError("the sample variance needs >= 2 samples")
        return self.m2 / (self.count - 1)

    def merge(self, later: "SampleSummary") -> "SampleSummary":
        """Summary of these samples followed by ``later``'s: counts add, and
        the moments merge by the pairwise update of Chan, Golub and LeVeque."""
        n = self.count + later.count
        delta = later.mean - self.mean
        return SampleSummary(
            at_least=self.at_least + later.at_least,
            at_most=self.at_most + later.at_most,
            count=n,
            mean=self.mean + delta * later.count / n,
            m2=self.m2 + later.m2 + delta * delta * self.count * later.count / n,
        )


def _reduce_chunk(request: SampleRequest, master_seed: int, chunk: int,
                  count: int) -> SampleSummary:
    x = _draw_chunk(request, master_seed, chunk, count)
    ordered = np.sort(x)
    mean = x.mean()
    return SampleSummary(
        at_least=count - np.searchsorted(ordered, np.asarray(request.thresholds, dtype=float),
                                         side="left"),
        at_most=np.searchsorted(ordered, np.asarray(request.grid, dtype=float), side="right"),
        count=count,
        mean=mean,
        m2=np.square(x - mean).sum(),
    )


def summarize_many(requests, master_seed: int, workers: int = 1) -> list[SampleSummary]:
    """The ``SampleSummary`` of every request, in request order.  The chunks
    of all requests share one schedule, so one pool serves them all."""
    parts = _map_requests(_reduce_chunk, list(requests), master_seed, workers)
    return [reduce(SampleSummary.merge, chunks) for chunks in parts]


def clopper_pearson(successes: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval via beta quantiles."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if not (0.0 < level < 1.0):
        raise ValidationError("level must lie in (0, 1)")
    if not (0 <= successes <= trials):
        raise ValidationError("successes must lie in [0, trials]")
    alpha = 1.0 - level
    lo = 0.0 if successes == 0 else float(beta_dist.ppf(alpha / 2, successes, trials - successes + 1))
    hi = 1.0 if successes == trials else float(beta_dist.ppf(1 - alpha / 2, successes + 1, trials - successes))
    return lo, hi


@dataclass(frozen=True)
class TailEstimate:
    """Estimated exceedance probability P(statistic >= threshold)."""

    threshold: float
    exceedance_count: int
    trials: int
    point: float
    ci_low: float
    ci_high: float
    ci_level: float


def tail_estimate_from_count(threshold: float, k: int, trials: int,
                             ci_level: float = 0.95) -> TailEstimate:
    lo, hi = clopper_pearson(k, trials, ci_level)
    return TailEstimate(
        threshold=threshold,
        exceedance_count=k,
        trials=trials,
        point=k / trials,
        ci_low=lo,
        ci_high=hi,
        ci_level=ci_level,
    )


def estimate_tail_probability(source: DeviationSource, threshold: float, trials: int,
                              master_seed: int, *, ci_level: float = 0.95,
                              stream: int = 0, workers: int = 1) -> TailEstimate:
    """Monte Carlo estimate of P(statistic >= threshold) with a Clopper-Pearson
    interval, deterministic given the master seed."""
    request = SampleRequest(source, trials, stream, thresholds=(threshold,))
    [summary] = summarize_many([request], master_seed, workers)
    return tail_estimate_from_count(threshold, int(summary.at_least[0]), trials, ci_level)


def exact_tail_small(p, n: int, threshold: float) -> float:
    """Exact P(l1_deviation(c/n, p) >= threshold) over all multinomial outcomes
    c, scored with the statistic the Monte Carlo path uses.  Outcomes are
    enumerated by stars and bars, ``EXACT_BLOCK`` at a time; log-factorial pmf
    evaluation keeps it overflow-safe to n ~ 100."""
    p = as_simplex(p)
    S = p.size
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not math.isfinite(threshold):
        raise ValidationError("threshold must be finite")
    outcomes = math.comb(n + S - 1, S - 1)
    if outcomes > MAX_EXACT_OUTCOMES:
        raise CapacityError(f"{outcomes} outcomes exceed the enumeration cap")
    logfact = gammaln(np.arange(1, n + 2, dtype=float))  # logfact[i] = ln(i!)
    bars = combinations(range(n + S - 1), S - 1)
    total = 0.0
    for block in iter(lambda: list(islice(bars, EXACT_BLOCK)), []):
        positions = np.array(block, dtype=np.int64).reshape(len(block), S - 1)
        c = np.diff(positions, prepend=-1, append=n + S - 1, axis=1) - 1
        c = c[l1_deviation(c / float(n), p) >= threshold]
        # xlogy gives 0 for c = 0 and -inf for c > 0 where p = 0
        total += float(np.exp(logfact[n] - logfact[c].sum(1) + xlogy(c, p).sum(1)).sum())
    return min(total, 1.0)


@dataclass(frozen=True)
class QuantileCurve:
    """Empirical CDF on a grid with a uniform DKW confidence band."""

    grid: np.ndarray
    cdf_estimates: np.ndarray
    dkw_halfwidth: float
    trials: int
    band_level: float


def dkw_halfwidth(trials: int, band_level: float) -> float:
    """Uniform empirical-CDF half-width sqrt(ln(2/a)/(2·trials))."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if not (0.0 < band_level < 1.0):
        raise ValidationError("band level must lie in (0, 1)")
    return math.sqrt(math.log(2.0 / band_level) / (2.0 * trials))


def estimate_quantile_curve(source: DeviationSource, grid, trials: int, master_seed: int, *,
                            band_level: float = 0.05, stream: int = 0,
                            workers: int = 1) -> QuantileCurve:
    """Empirical CDF of the deviation statistic on an ascending grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValidationError("grid must be a nonempty 1-d array")
    if np.any(grid[1:] <= grid[:-1]):
        raise ValidationError("grid must be strictly ascending")
    [summary] = summarize_many([SampleRequest(source, trials, stream, grid=grid)],
                               master_seed, workers)
    return QuantileCurve(
        grid=grid,
        cdf_estimates=summary.at_most / float(trials),
        dkw_halfwidth=dkw_halfwidth(trials, band_level),
        trials=trials,
        band_level=band_level,
    )


VIOLATED = "Violated"
CONSISTENT = "Consistent"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Verdict:
    """Outcome of testing a claimed bound against Monte Carlo evidence.

    The classification uses the confidence interval, never the point
    estimate, so a correct bound is labeled Violated only with probability
    controlled by the interval level.
    """

    evaluation: BoundEvaluation
    estimate: TailEstimate
    outcome: str


def classify_verdict(estimate: TailEstimate, claimed_delta: float) -> str:
    if estimate.ci_low > claimed_delta:
        return VIOLATED
    if estimate.ci_high <= claimed_delta:
        return CONSISTENT
    return INCONCLUSIVE


def falsify_cell(spec: BoundSpec, trials: int, *, family: str = "multinomial",
                 ci_level: float = 0.95, stream: int = 0):
    """The request that counts exceedances of the bound's own threshold under
    uniform p, and the function classifying the claim from its summary."""
    if trials < 100:
        raise ValidationError("falsification requires trials >= 100")
    if family not in ("multinomial", "dirichlet"):
        raise ValidationError(f"unsupported distribution family {family!r}")
    evaluation = evaluate_bound(spec)
    source = DeviationSource(family=family, S=spec.S, n=spec.n)

    def verdict(summary: SampleSummary) -> Verdict:
        estimate = tail_estimate_from_count(evaluation.epsilon, int(summary.at_least[0]),
                                            trials, ci_level)
        return Verdict(evaluation=evaluation, estimate=estimate,
                       outcome=classify_verdict(estimate, spec.delta))

    return SampleRequest(source, trials, stream, thresholds=(evaluation.epsilon,)), verdict


def falsify_bound(spec: BoundSpec, trials: int, master_seed: int, *,
                  family: str = "multinomial", ci_level: float = 0.95,
                  stream: int = 0, workers: int = 1) -> Verdict:
    """Estimate the exceedance probability at the bound's own threshold (uniform
    p) and classify the claim as Violated / Consistent / Inconclusive."""
    request, verdict = falsify_cell(spec, trials, family=family, ci_level=ci_level,
                                    stream=stream)
    [summary] = summarize_many([request], master_seed, workers)
    return verdict(summary)
