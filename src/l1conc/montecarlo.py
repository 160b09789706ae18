"""Monte Carlo engine: tail and quantile estimation with exact confidence
intervals, a small-instance exact oracle, and bound falsification.

Trials are drawn in fixed-size chunks.  Chunk ``chunk`` of a request draws
from the Philox counter segment ``StreamKey(master_seed, stream, row,
chunk)``, disjoint from every other chunk, row and stream of the master seed
however many of each there are.  Estimators reduce each chunk to exceedance
counts, at-most counts and moments where it is drawn, so memory does not
grow with ``trials``.  A request is one sample: every threshold and grid
point it names is counted on the same draws, so a tail task's thresholds and
a falsify task's deltas (a falsify cell is a tail cell at its bounds'
epsilons) share one sample, and only rows that need a different law need
another request: the experiment runner sends one request per law, so tasks
of one law and trials count share it too.  A finite-n law is its source; a
limit law is its S alone, because D and ``scale`` only multiply the sample.
``summarize_many`` schedules the chunks of many sample requests (every law
of an experiment) together, on at most one thread pool in this process,
which it shuts down before returning; NumPy releases the GIL while it draws,
sorts and reduces, so the chunks overlap.  A finite-n chunk is drawn a
column (multinomial) or a block of rows (Dirichlet) at a time, so its memory
does not grow with S either.  Chunk boundaries do not depend on the worker
count, and chunk results are merged in index order, so every estimate is
bit-identical whether it ran on 1 worker or 64.

Multinomial counts c are scored on the integer lattice: under uniform p the
l1 deviation is L / (n·S) with L = sum |S·c_i - n|, summed in int64 and
divided once, so exact ties count at ``>= threshold``.  The exact oracle
``exact_tail_small`` sums that same event over the law of L, which it builds
by splitting the categories into those above and those at or below the mean.

The module needs NumPy and the standard library alone.  A Clopper-Pearson
endpoint is a beta quantile, found by safeguarded Halley steps on the
binomial tail I_x(a, b); the tail is a sum of positive terms times Loader's
saddle-point binomial probability (Loader 2000), so it keeps its relative
precision at any N, and each endpoint is moved outward by the relative
``CP_MARGIN`` so that the interval contains the exact one.
"""

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from itertools import starmap
from typing import NamedTuple

import numpy as np

from .asymptotic import _BLOCK_ELEMS, sample_Z_batch
from .bounds import BoundEvaluation, BoundSpec, evaluate_bound
from .deviation import l1_deviation
from .errors import CapacityError, ValidationError
from .sampling import StreamKey, _multinomial_columns, as_simplex

CHUNK_SIZE = 1 << 14

# the one pool class _map_requests starts; bench/spans.py patches this name to
# count pools, and ROADMAP item 3 renames it
ProcessPoolExecutor = ThreadPoolExecutor

# cap on the exact oracle's convolution multiply-adds (M + 2·log2 S)·(n+1)²:
# admits (S, n) = (50, 10^4), about 1.2 s on one core; rejects (200, 10^4)
MAX_EXACT_WORK = 10**10

SOURCE_FAMILIES = ("multinomial", "dirichlet", "limit")


@dataclass(frozen=True)
class DeviationSource:
    """Describes which deviation statistic a Monte Carlo run samples, always
    under the uniform p = (1/S, ..., 1/S).

    ``multinomial``/``dirichlet`` sources produce the l1 distance between a
    finite-n empirical (or Dirichlet(n·p)) vector and p; ``limit`` sources
    produce the asymptotic variable directly, at the scale ``D`` that only
    they take.  ``scale`` multiplies every sample, e.g. sqrt(n)·D/2 to compare
    finite-n draws with the limit law.  A limit sample is ``D · scale`` times
    the sample at D = 1 (bit for bit when that product is a power of two), so
    the experiment runner reads every D of one S off one sample.
    """

    family: str
    S: int
    n: int | None = None
    D: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in SOURCE_FAMILIES:
            raise ValidationError(f"unknown source family {self.family!r}")
        if not isinstance(self.S, numbers.Integral) or self.S < 2:
            raise ValidationError("S must be an integer >= 2")
        if self.family != "limit":
            if not isinstance(self.n, numbers.Integral) or self.n < 1:
                raise ValidationError("finite-n sources require an integer n >= 1")
            if 2 * self.S * self.n >= 2**63:  # every |S·c_i - n| and their sum fit in int64
                raise ValidationError("finite-n sources require 2·S·n < 2^63")
            if self.D != 1.0:
                raise ValidationError("D applies to the limit family only")
        elif self.n is not None:
            raise ValidationError("n applies to finite-n families only")
        if not (math.isfinite(self.D) and math.isfinite(self.scale)):
            raise ValidationError("D and scale must be finite")
        if self.D <= 0 or self.scale <= 0:
            raise ValidationError("D and scale must be > 0")


class SampleRequest(NamedTuple):
    """``trials`` deviation samples of ``source`` drawn from the Philox
    segments of ``(stream, row)``, summarized at ``thresholds`` (counts of
    samples >= t) and on ``grid`` (counts of samples <= g)."""

    source: DeviationSource
    trials: int
    stream: int = 0
    thresholds: tuple = ()
    grid: tuple = ()
    row: int = 0


def _draw_chunk(request: SampleRequest, master_seed: int, chunk: int, count: int) -> np.ndarray:
    source = request.source
    key = StreamKey(master_seed, request.stream, request.row, chunk)
    if source.family == "limit":
        out = sample_Z_batch(source.S, source.D, count, key)
    else:  # memory stays at a few rows or columns of the chunk, whatever S is
        S, n = source.S, source.n
        p, rng = np.full(S, 1.0 / S), key.generator()
        if source.family == "multinomial":
            L = np.zeros(count, dtype=np.int64)
            for c in _multinomial_columns(rng, p, n, count):
                L += np.abs(S * c - n)
            out = L / (n * S)
        else:  # gamma blocks continue one stream, so they equal one whole batch
            rows, out = max(1, _BLOCK_ELEMS // S), np.empty(count)
            for start in range(0, count, rows):
                g = rng.standard_gamma(n * p, size=(min(rows, count - start), S))
                out[start:start + rows] = l1_deviation(g / g.sum(-1, keepdims=True), p)
    if source.scale != 1.0:
        out = source.scale * out
    return out


def _map_requests(fn, requests: list, master_seed: int, workers: int) -> list[list]:
    """``fn(request, master_seed, chunk, size)`` for every chunk of every
    request, grouped by request in chunk order.  The chunks of all requests
    form one job list, mapped on at most one thread pool, which is shut down
    (its threads joined) before this returns."""
    if not all(isinstance(request.trials, numbers.Integral) and request.trials >= 1
               for request in requests):
        raise ValidationError("trials must be an integer >= 1")
    if not (isinstance(workers, numbers.Integral) and workers >= 1):
        raise ValidationError("workers must be an integer >= 1")
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


def _check_level(level: float, name: str) -> None:
    if not (0.0 < level < 1.0):
        raise ValidationError(f"{name} must lie in (0, 1)")


# Clopper-Pearson endpoints move outward by this relative margin, which is far
# above the solver's error (about 1e-14 relative), so the interval contains the
# exact one
CP_MARGIN = 1e-10
_STIRLING = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)


def _stirlerr(n: int) -> float:
    # log(n!) − log(sqrt(2πn)·(n/e)^n): lgamma while its rounding stays small
    if n <= 15:
        return math.lgamma(n + 1) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(2 * math.pi)
    s = 0.0
    for c in reversed(_STIRLING):
        s = c - s / (n * n)
    return s / n


def _bd0(x: float, m: float) -> float:
    # x·log(x/m) + m − x without cancellation near x = m (Loader 2000)
    if abs(x - m) >= 0.1 * (x + m):
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    s, term, j = (x - m) * v, 2 * x * v, 3
    while True:
        term *= v * v
        if s + term / j == s:
            return s
        s, j = s + term / j, j + 2


def _binom_pmf(a: int, b: int, x: float, y: float) -> float:
    # P(Bin(a+b−1, x) = a) for y = 1 − x, by Loader's saddle-point form; an
    # lgamma difference would lose 1e-9 relative at a+b = 10^6
    n = a + b - 1
    if b == 1:
        return x ** a
    return math.exp(_stirlerr(n) - _stirlerr(a) - _stirlerr(b - 1) - _bd0(a, n * x)
                    - _bd0(b - 1, n * y)) / math.sqrt(2 * math.pi * a * (b - 1) / n)


def _binom_tail_ratio(a: int, b: int, x: float, y: float) -> float:
    # P(Bin(n, x) >= a) / P(Bin(n, x) = a), n = a+b−1, as a sum of positive
    # terms that fall from the first when x lies below the mean a/(a+b)
    n, s, term = a + b - 1, 1.0, 1.0
    for j in range(a, n):
        term *= (n - j) * x / ((j + 1) * y)
        s += term
        if term <= 1e-17 * s:
            break
    return s


def _beta_tails(a: int, b: int, x: float) -> tuple[float, float, float]:
    """I_x(a, b), 1 − I_x(a, b) and dI_x(a, b)/dx, for integers a, b >= 1.
    The tail on x's side of the mean a/(a+b) is summed and the other is 1
    minus it, so the smaller one is exact to rounding; the upper tail uses
    1 − I_x(a, b) = I_y(b, a) for y = 1 − x, with x and y only as factors."""
    y = 1.0 - x
    pmf = _binom_pmf(a, b, x, y)
    density = pmf * a / x
    if x * (a + b) < a:
        near = pmf * _binom_tail_ratio(a, b, x, y)
        return near, 1.0 - near, density
    far = density * y / b * _binom_tail_ratio(b, a, y, x)
    return 1.0 - far, far, density


def _beta_tail_inverse(a: int, b: int, upper: bool, target: float) -> float:
    """The x in (0, 1) with I_x(a, b) = target, or 1 − I_x(a, b) = target if
    ``upper``, for target < 1/2: Halley steps from the Numerical Recipes
    normal-approximation guess, each one that leaves the bracket or stalls
    replaced by bisection."""
    t = math.sqrt(-2.0 * math.log(target))
    z = (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t)) - t
    z = z if upper else -z
    al, h = (z * z - 3.0) / 6.0, 2.0 / (1.0 / (2 * a - 1) + 1.0 / (2 * b - 1))
    w = (z * math.sqrt(al + h) / h
         - (1.0 / (2 * b - 1) - 1.0 / (2 * a - 1)) * (al + 5.0 / 6 - 2.0 / (3 * h)))
    e = b * math.exp(2.0 * w)
    x, flip = a / (a + e), e < a
    if flip:  # the root lies above 1/2: solve for 1 − x, where floats are finer
        a, b, upper, x = b, a, not upper, e / (a + e)
    lo, hi, dx, dx_old = 0.0, 1.0, 1.0, 1.0
    for _ in range(200):
        lower_tail, upper_tail, density = _beta_tails(a, b, x)
        err = target - upper_tail if upper else lower_tail - target  # increasing in x
        if err == 0.0:
            break
        lo, hi = (x, hi) if err < 0 else (lo, x)
        u = err / density if density > 0.0 else math.inf
        step = u / (1.0 - 0.5 * min(1.0, u * ((a - 1) / x - (b - 1) / (1.0 - x))))
        if not lo <= x - step <= hi or abs(step) > 0.5 * abs(dx_old):
            step = x - 0.5 * (lo + hi)
        dx_old, dx = dx, step
        x -= step
        if abs(step) <= 1e-12 * x:
            break
    return 1.0 - x if flip else x


def clopper_pearson(successes: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval: the beta quantiles
    I^-1_{alpha/2}(k, N−k+1) and I^-1_{1−alpha/2}(k+1, N−k), in closed form
    at k = 0 and k = N, each moved outward by the relative ``CP_MARGIN``."""
    if not (isinstance(successes, numbers.Integral) and isinstance(trials, numbers.Integral)):
        raise ValidationError("successes and trials must be integers")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    _check_level(level, "level")
    if not (0 <= successes <= trials):
        raise ValidationError("successes must lie in [0, trials]")
    k, n = int(successes), int(trials)
    half = (1.0 - level) / 2
    # I^-1_{1−alpha/2} with 1 − alpha/2 rounded (SciPy's betaincinv form) has
    # the upper tail 1 − (1 − alpha/2); solving for the smaller of that and
    # alpha/2 keeps both its interval and the exact one inside.  At the level
    # 1 − 2^-53 that tail is 0, the upper tail of hi = 1.
    upper = min(half, 1.0 - (1.0 - half))
    if k == 0:
        lo = 0.0
    elif k == n:
        lo = math.exp(math.log(half) / n)
    else:
        lo = _beta_tail_inverse(k, n - k + 1, False, half)
    if k == n or upper == 0.0:
        hi = 1.0
    elif k == 0:
        hi = -math.expm1(math.log(upper) / n)
    else:
        hi = _beta_tail_inverse(k + 1, n - k, True, upper)
    return lo * (1.0 - CP_MARGIN), min(1.0, hi * (1.0 + CP_MARGIN))


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
    _check_level(ci_level, "ci_level")
    request = SampleRequest(source, trials, stream, thresholds=(threshold,))
    [summary] = summarize_many([request], master_seed, workers)
    return tail_estimate_from_count(threshold, int(summary.at_least[0]), trials, ci_level)


def _poisson_pmf(k, mu: float):
    # Poisson(mu) pmf at the integers k as exp(k·log(mu) − mu − log k!), mu > 0
    k = np.asarray(k)
    log_factorial = np.fromiter(map(math.lgamma, k.ravel() + 1.0), float, k.size)
    return np.exp(k * math.log(mu) - mu - log_factorial.reshape(k.shape))


def _convolved(scaled, kernel, n: int, log_factor: float = 0.0):
    # a (row summing to 1, log scale) pair convolved with kernel up to n, times e^log_factor
    row = np.convolve(scaled[0], kernel)[:n + 1]
    total = row.sum()
    return row / total, scaled[1] + math.log(total) + log_factor


def _convolution_power(kernel, j: int, n: int):
    # the j-fold convolution of kernel, j >= 1, as a (row, log scale) pair, by squaring
    if j == 1:
        return _convolved((np.eye(1, n + 1)[0], 0.0), kernel, n)
    half = _convolution_power(kernel, j // 2, n)
    power = _convolved(half, half[0], n, half[1])
    return _convolved(power, kernel, n) if j & 1 else power


def exact_tail_small(p, n: int, threshold: float) -> float:
    """Exact P(L / (n·S) >= threshold) for Multinomial(n, p) counts under a
    uniform ``p``, scored as the Monte Carlo chunks score them.  With counts
    taken as i.i.d. Poisson(n/S) conditioned on their total n (Keich and
    Nagarajan, JCGS 2006), L = 2(S·A − n·m) when m categories lie above the
    mean n/S and hold A counts between them.  The mass of (m, A) is
    proportional to C(S, m)·a_m(A)·b_{S−m}(n − A), for a_m and b_j the m-
    and j-fold convolutions of the Poisson weights above and at or below the
    mean, each row kept summing to 1 beside its log scale so that nothing
    underflows at large S.  The tail is its share of the total mass."""
    p = as_simplex(p)
    S = p.size
    if np.any(p != p[0]):
        raise ValidationError("the exact oracle needs a uniform p")
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValidationError("n must be an integer >= 1")
    if not math.isfinite(threshold):
        raise ValidationError("threshold must be finite")
    n = int(n)
    M = n // (n // S + 1)  # at most M categories lie above the mean
    work = (M + 2 * S.bit_length()) * (n + 1) ** 2
    if work > MAX_EXACT_WORK:
        raise CapacityError(f"{work} multiply-adds exceed the exact oracle's cap")
    k = np.arange(n + 1)
    w = _poisson_pmf(k, n / S)
    above, below = np.where(S * k > n, w, 0.0), w[S * k <= n]
    a, b = [(np.eye(1, n + 1)[0], 0.0)], [_convolution_power(below, S - M, n)]
    for m in range(M):  # a_m carries C(S, m) in its scale; b runs from b_{S−M} to b_S
        a.append(_convolved(a[-1], above, n, math.log((S - m) / (m + 1))))
        b.append(_convolved(b[-1], below, n))
    (a, log_a), (b, log_b) = zip(*a), zip(*b[::-1])
    # row m's scale, C(S, m)·q^m·(1 − q)^(S−m) for q the mass above, is at most 1
    mass = np.exp(np.add(log_a, log_b))[:, None] * np.array(a) * np.array(b)[:, ::-1]
    L = 2 * (S * k - n * np.arange(M + 1)[:, None])
    return min(float(mass[L / (n * S) >= threshold].sum() / mass.sum()), 1.0)


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
    _check_level(band_level, "band level")
    return math.sqrt(math.log(2.0 / band_level) / (2.0 * trials))


def estimate_quantile_curve(source: DeviationSource, grid, trials: int, master_seed: int, *,
                            band_level: float = 0.05, stream: int = 0,
                            workers: int = 1) -> QuantileCurve:
    """Empirical CDF of the deviation statistic on an ascending grid."""
    half = dkw_halfwidth(trials, band_level)  # checks band_level before any drawing
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
        dkw_halfwidth=half,
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


def falsify_bound(spec: BoundSpec, trials: int, master_seed: int, *,
                  family: str = "multinomial", ci_level: float = 0.95,
                  stream: int = 0, workers: int = 1) -> Verdict:
    """Estimate the exceedance probability at the bound's own threshold (uniform
    p) and classify the claim as Violated / Consistent / Inconclusive."""
    if trials < 100:
        raise ValidationError("falsification requires trials >= 100")
    if family not in ("multinomial", "dirichlet"):
        raise ValidationError(f"unsupported distribution family {family!r}")
    evaluation = evaluate_bound(spec)
    estimate = estimate_tail_probability(DeviationSource(family, spec.S, n=spec.n),
                                         evaluation.epsilon, trials, master_seed,
                                         ci_level=ci_level, stream=stream, workers=workers)
    return Verdict(evaluation=evaluation, estimate=estimate,
                   outcome=classify_verdict(estimate, spec.delta))
