"""Monte Carlo engine: tail and quantile estimation with exact confidence
intervals, a small-instance exact oracle, and bound falsification.

Trials are drawn in fixed-size chunks, each from its own Philox counter
segment (see ``StreamKey``).  A law is a family, S and n; D and ``scale``
only multiply its sample, which is drawn at unit scale.  Chunk ``chunk`` of
a law at replicate ``stream`` draws from ``StreamKey(master_seed, S, n or 0,
chunk, family_code << 62 | stream)``, ``family_code`` being 1 + the family's
index in ``SOURCE_FAMILIES``; replicate 0, the default, is the law's own
sample, the one the runner reads.  So distinct laws or replicates never
share a draw, and a law's sample does not depend on what else is drawn.
Every chunk method is prefix-consistent: a chunk of m rows is the first m
rows of the same chunk drawn at ``CHUNK_SIZE`` rows, so a law's first
``trials`` draws do not depend on how many more are drawn.
``summarize_many`` draws each law and replicate of its requests once, at its
longest request's trials, and counts every request's thresholds and grid
points on that request's own prefix times its D·``scale``, as
``draw_samples`` returns it, so an API call for a report cell reads the
sample its rows read, whatever trial counts other cells of its law ask for.
It makes the chunks of every law as needed and runs them largest first, a
few at a time, on at most one thread pool in this process, of no more
threads than the CPUs it may run on, shut down before it returns; NumPy
releases the GIL while it draws, sorts and reduces, so the chunks overlap.
Each chunk is reduced to counts and moments where it is drawn, and merged
into its requests' summaries as it finishes, so memory does not grow with
``trials``.  A finite-n chunk is drawn a block of rows or a column at a
time, so its memory does not grow with S either: a uniform multinomial chunk
by one of three methods chosen by (S, n) alone (see ``_multinomial_L``), a
Dirichlet chunk in blocks of gamma rows.  Chunk boundaries do not depend on
the worker count, and chunk results are merged in chunk order, so every
estimate is bit-identical whether it ran on 1 worker or 64.

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

import heapq
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import groupby, islice
from typing import NamedTuple

import numpy as np

from .asymptotic import _BLOCK_ELEMS, sample_Z_batch
from .bounds import BoundEvaluation, BoundSpec, evaluate_bound
from .errors import DOMAINS, INTERVALS, CapacityError, ValidationError, integer, real
from .sampling import StreamKey, as_simplex

CHUNK_SIZE = 1 << 14

# a chunk with n <= _COUNTING_RATIO·S tallies categories, which beat
# Poissonization at 2·S and 3·S for every S <= 50 in BENCH_25.json's sweep
_COUNTING_RATIO = 5
# above that, a chunk with S >= _POISSON_MIN_S and n <= _POISSON_MAX_RATIO·S²
# is Poissonized, which beat the chain at every such cell of BENCH_23.json's
# sweep but (3, 27), a tie, the chain catching up at 10.7-25·S²
_POISSON_MIN_S = 3
_POISSON_MAX_RATIO = 10
# a Poissonized row's counts total n − ⌈_TOP_UP·√n⌉ on average, a margin
# that ran as fast as 1.0 and 1.25 in BENCH_23.json's sweep and dropped up to
# 6.7% of rows
_TOP_UP = 1.5
# a Poissonized block holds about this many uniforms and top-up categories,
# where two pool threads drew (50, 10^3) 1.29x as fast as one and 2^17 would
# have added 1.85 MB to falsify-grid's peak RSS (BENCH_23.json)
_POISSON_BLOCK_ELEMS = 1 << 16

# the one pool class _map_chunks starts; bench/spans.py patches this name to
# count pools, and ROADMAP item 3 renames it
ProcessPoolExecutor = ThreadPoolExecutor
# jobs a thread in a batch; the next batch waits for this one's last, smallest chunk
_BATCH = 8

# cap on the exact oracle's convolution multiply-adds (M + 2·log2 S)·(n+1)²:
# admits (S, n) = (50, 10^4), 1.1-1.4 s on a 2-core x86_64 (2.1-2.6 s of CPU
# while OpenBLAS runs the convolutions' dot products on both cores, 1.35 s on
# one); rejects (200, 10^4)
MAX_EXACT_WORK = 10**10

SOURCE_FAMILIES = ("multinomial", "dirichlet", "limit")
FINITE_N = ("multinomial", "dirichlet")  # the families with a sample size n
FALSIFY_MIN_TRIALS = 100  # the fewest trials a falsify call accepts


@dataclass(frozen=True)
class DeviationSource:
    """Describes which deviation statistic a Monte Carlo run samples, always
    under the uniform p = (1/S, ..., 1/S).

    ``multinomial``/``dirichlet`` sources produce the l1 distance between a
    finite-n empirical (or Dirichlet(n·p)) vector and p; ``limit`` sources
    produce the asymptotic variable directly, at the scale ``D`` that only
    they take.  ``scale`` multiplies every sample, e.g. sqrt(n)·D/2 to compare
    finite-n draws with the limit law.  Neither is part of the law: a sample
    is D·``scale`` times the law's sample at unit scale, so sources that
    differ in them alone read one sample.
    """

    family: str
    S: int
    n: int | None = None
    D: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in SOURCE_FAMILIES:
            raise ValidationError(f"unknown source family {self.family!r}")
        object.__setattr__(self, "S", integer(self.S, "S"))
        object.__setattr__(self, "D", real(self.D, "D"))
        object.__setattr__(self, "scale", real(self.scale, "scale", INTERVALS["D"]))
        real(self.D * self.scale, "D·scale", INTERVALS["D"])  # a sample is D·scale times the law's
        if self.family != "limit":
            object.__setattr__(self, "n", integer(self.n, "n"))
            if 2 * self.S * self.n >= 2**63:  # every |S·c_i - n| and their sum fit in int64
                raise ValidationError("finite-n sources require 2·S·n < 2^63")
            if self.D != 1.0:
                raise ValidationError("D applies to the limit family only")
        elif self.n is not None:
            raise ValidationError("n applies to finite-n families only")


class SampleRequest(NamedTuple):
    """``trials`` deviation samples of ``source`` drawn from the Philox
    segments of its law at replicate ``stream``, summarized at
    ``thresholds`` (counts of samples >= t) and on ``grid`` (counts of
    samples <= g)."""

    source: DeviationSource
    trials: int
    stream: int = 0
    thresholds: tuple = ()
    grid: tuple = ()


def _score(c: np.ndarray, S: int, n: int, out: np.ndarray) -> None:
    # out = sum_i |S·c_i − n| of each row of the int64 counts c, in place
    c *= S
    c -= n
    np.abs(c, out=c)
    c.sum(-1, out=out)


def _counted_L(rng: np.random.Generator, S: int, n: int, L: np.ndarray) -> None:
    rows = max(1, _BLOCK_ELEMS // (n + S))
    for start in range(0, L.size, rows):
        size = min(rows, L.size - start)
        categories = rng.integers(0, S, size=(size, n))
        categories += S * np.arange(size)[:, None]
        c = np.bincount(categories.ravel(), minlength=size * S).reshape(size, S)
        _score(c, S, n, L[start:start + size])


def _poisson_table(mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cdf, guide, mixed) of Poisson(mu), for ``_poisson_counts``.

    cdf is P(X <= k), k = 0, 1, ..., until the mass left is below 1e-24,
    divided by its last entry: that entry is then exactly 1.0, so every
    uniform in [0, 1) lands inside the table.  The guide table has m cells
    (Chen & Asau 1974), the least power of two >= 16·len(cdf) but at most
    2^16: cell i holds searchsorted(cdf, i/m, side="right"), which is the
    count of every u in [i/m, (i+1)/m) unless a breakpoint of cdf lies in
    the cell; ``mixed`` marks those cells."""
    cdf = np.cumsum(_poisson_pmf(np.arange(math.ceil(mu + 12 * math.sqrt(mu)) + 20), mu))
    cdf /= cdf[-1]
    m = 1 << min((16 * cdf.size - 1).bit_length(), 16)
    edges = np.searchsorted(cdf, np.arange(m + 1) / m, side="right")
    return cdf, edges[:-1], edges[:-1] != edges[1:]


def _poisson_counts(u: np.ndarray, cdf: np.ndarray, guide: np.ndarray,
                    mixed: np.ndarray) -> np.ndarray:
    """searchsorted(cdf, u, side="right") of the uniforms u in [0, 1), in u's
    buffer: u·m is exact, since m is a power of two, so the cell of u is
    ⌊u·m⌋, and only a mixed cell searches cdf."""
    cell = np.multiply(u, guide.size, out=np.empty(u.shape, np.intp), casting="unsafe")
    fix = np.flatnonzero(mixed.take(cell))
    found = np.searchsorted(cdf, u.flat[fix], side="right")
    c = guide.take(cell, out=u.view(np.intp), mode="clip")  # u is not read again
    c.flat[fix] = found
    return c


def _poissonized_block(rng: np.random.Generator, S: int, n: int, table,
                       rows: int) -> np.ndarray:
    # the L of one block's kept rows, in order, for ``_poissonized_L``; in its
    # own frame so that its arrays are freed before the next block draws
    c = _poisson_counts(rng.random((rows, S)), *table)
    T = c.sum(-1)
    # n − T top-up categories a kept row (none for a dropped one), offset by
    # S·row, tallied by one bincount
    top = n - T
    np.maximum(top, 0, out=top)
    categories = np.repeat(np.arange(0, rows * S, S), top)
    categories += rng.integers(0, S, size=categories.size,
                               dtype=np.uint16 if S <= 1 << 16 else np.int64)
    c += np.bincount(categories, minlength=rows * S).reshape(rows, S)
    L = np.empty(rows, dtype=np.int64)
    _score(c, S, n, L)
    return L[T <= n]


def _poissonized_L(rng: np.random.Generator, S: int, n: int, L: np.ndarray) -> None:
    top = math.ceil(_TOP_UP * math.sqrt(n))  # the mean top-up
    table = _poisson_table((n - top) / S)
    rows = max(1, _POISSON_BLOCK_ELEMS // (S + top))
    filled = 0
    while filled < L.size:
        kept = _poissonized_block(rng, S, n, table, rows)[:L.size - filled]
        L[filled:filled + kept.size] = kept
        filled += kept.size


def _chained_L(key: StreamKey, S: int, n: int, L: np.ndarray) -> None:
    q, tail = 1.0 / S, 1.0
    remaining = np.full(L.size, n, dtype=np.int64)
    for i in range(S):  # column i from segment i; the last holds what is left
        if i < S - 1:
            c = key.generator(i).binomial(remaining, q / tail)
            remaining -= c
            tail -= q
        else:
            c = remaining
        c *= S
        c -= n
        L += np.abs(c, out=c)


def _multinomial_L(key: StreamKey, S: int, n: int, count: int) -> np.ndarray:
    """L = sum_i |S·c_i − n| for ``count`` Multinomial(n, 1/S) rows, in int64,
    by one of three methods (Devroye 1986), chosen by (S, n) alone.  The
    first two run where the chain of S − 1 conditional binomials is slower,
    since NumPy's binomial sampler redoes its set-up for every row and, while
    n/S < 30, inverts with a loop of about n/S steps a variate.  Each
    method's first m rows are the rows it draws for any ``count`` >= m, so a
    shorter chunk is a prefix of a longer one:

    - n <= ``_COUNTING_RATIO``·S, ``_counted_L``: a row's counts are the
      tally of n uniform categories, drawn ``_BLOCK_ELEMS // (n + S)`` rows
      at a time, so that a block's categories and counts together hold at
      most ``_BLOCK_ELEMS`` int64 (row r's categories are offset by S·r, so
      one ``bincount`` tallies the block).  ``integers`` fills its output
      in order, so a short last block draws the first rows of a full one.
    - n <= ``_POISSON_MAX_RATIO``·S² and S >= ``_POISSON_MIN_S``,
      ``_poissonized_L``: if X_1..X_S are i.i.d. Poisson(μ) with total T,
      then X given T = t is Multinomial(t, 1/S), so adding n − t uniform
      categories gives Multinomial(n, 1/S) exactly.  With
      μ = (n − ⌈1.5·√n⌉)/S, T > n has probability below 6.7% (4.9% at
      n = 100, 5.9% at 1000); such a row is dropped, which does not bias
      the rows kept, because that event depends on T alone.  Blocks are
      always drawn whole and their kept rows fill L in order until it is
      full, so the rows do not depend on ``count``.  A row's S uniforms
      are read off one Poisson(μ) CDF table through its guide table (Chen
      & Asau 1974, ``_poisson_counts``), and the block's top-up categories
      are drawn in one ``integers`` call, offset by row and tallied by one
      ``bincount``.  A block holds
      ``_POISSON_BLOCK_ELEMS // (S + ⌈1.5·√n⌉)`` rows, so about
      ``_POISSON_BLOCK_ELEMS`` uniforms and top-up categories: few enough
      NumPy calls a chunk that two pool threads overlap (each call
      releases the GIL, and every return has to win it back), at under
      1 MiB a block.
    - otherwise, ``_chained_L``: with q = 1/S and ``tail`` the probability
      not yet drawn, column i < S − 1 is Binomial(remaining, q/tail), drawn
      from counter segment i of ``key`` so that its rows do not depend on
      how many rows the column before it drew, and the last column holds
      what is left.

    Each way, memory stays at one block or column, whatever S is."""
    L = np.zeros(count, dtype=np.int64)
    if n <= _COUNTING_RATIO * S:
        _counted_L(key.generator(), S, n, L)
    elif S >= _POISSON_MIN_S and n <= _POISSON_MAX_RATIO * S * S:
        _poissonized_L(key.generator(), S, n, L)
    else:
        _chained_L(key, S, n, L)
    return L


def _draw_chunk(request, master_seed: int, chunk: int, count: int) -> np.ndarray:
    """The first ``count`` draws of chunk ``chunk`` of the request's law at
    its ``stream``, at unit scale; they are the first ``count`` of any longer
    draw of that chunk."""
    source = request.source
    law = (1 + SOURCE_FAMILIES.index(source.family)) << 62 | request.stream
    key = StreamKey(master_seed, source.S, source.n or 0, chunk, law)
    if source.family == "limit":
        return sample_Z_batch(source.S, count, key)
    # memory stays at a few rows or columns of the chunk, whatever S is
    S, n = source.S, source.n
    if source.family == "multinomial":
        return _multinomial_L(key, S, n, count) / (n * S)
    # gamma blocks continue one stream, so they equal one whole batch; each
    # block is scored in place as |g/sum(g) − 1/S| summed
    rng, rows, out = key.generator(), max(1, _BLOCK_ELEMS // S), np.empty(count)
    for start in range(0, count, rows):
        g = rng.standard_gamma(n * (1.0 / S), size=(min(rows, count - start), S))
        g /= g.sum(-1, keepdims=True)
        g -= 1.0 / S
        np.abs(g, out=g)
        g.sum(-1, out=out[start:start + rows])
    return out


def _usable_cpus() -> int:
    """The CPUs this process may run on; where the OS has no affinity call
    (macOS, Windows), all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _points(points) -> tuple:
    # a lone point or a flat sequence's points, as floats; real refuses a nested one
    try:
        return tuple(real(x, "threshold") for x in points)
    except TypeError:  # a lone point
        return (real(points, "threshold"),)


def _checked(request: SampleRequest) -> SampleRequest:
    # the request: trials and stream as Python ints, its points as floats
    points = {name: _points(getattr(request, name)) for name in ("thresholds", "grid")}
    return request._replace(trials=integer(request.trials, "trials"),
                            stream=integer(request.stream, "stream"), **points)


def _chunks(law, master_seed: int):
    # the law's jobs (law, master_seed, chunk, rows), in chunk order
    for start in range(0, law.trials, CHUNK_SIZE):
        yield law, master_seed, start // CHUNK_SIZE, min(CHUNK_SIZE, law.trials - start)


def _map_chunks(fn, laws: list, master_seed: int, workers: int):
    """``fn(law, master_seed, chunk, rows)`` for every chunk of every law,
    made as needed and yielded largest first by rows·S, each law's in chunk
    order.  ``_BATCH`` jobs a thread run at a time on min(``workers``,
    chunks, usable CPUs) threads: this one alone, or one thread pool that is
    shut down (its threads joined) when the last result is taken."""
    workers = integer(workers, "workers")
    threads = min(workers, sum(-(-law.trials // CHUNK_SIZE) for law in laws), _usable_cpus())
    jobs = heapq.merge(*(_chunks(law, master_seed) for law in laws),
                       key=lambda job: -job[3] * job[0].source.S)
    with ProcessPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        while batch := list(islice(jobs, _BATCH * threads)):
            yield from (pool.map if threads > 1 else map)(fn, *zip(*batch))


def draw_samples(source: DeviationSource, trials: int, master_seed: int, *,
                 stream: int = 0, workers: int = 1) -> np.ndarray:
    """Draw ``trials`` deviation samples, reproducible and worker-independent:
    D·``scale`` times the sample of the law, which is drawn at unit scale."""
    chunks = _map_chunks(_draw_chunk, [_checked(SampleRequest(source, trials, stream))],
                         master_seed, workers)
    return source.D * source.scale * np.concatenate(list(chunks))


@dataclass(frozen=True)
class SampleSummary:
    """Counts and moments of a run of deviation samples.

    ``at_least[i]`` counts samples >= ``thresholds[i]`` and ``at_most[j]``
    counts samples <= ``grid[j]``; ``mean`` and ``m2`` (the centred sum of
    squares) are the moments of all ``count`` draws of the law, at unit
    scale, so D·``scale`` times ``mean`` is the samples' mean.
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


class _Law(NamedTuple):
    """The caller's requests that read one law's sample, longest first, and
    their positions in the caller's list; the law is drawn once, at the
    longest's source, trials and stream."""

    source: DeviationSource
    trials: int
    stream: int
    requests: tuple
    positions: tuple


def _reduce_chunk(law: _Law, master_seed: int, chunk: int, count: int) -> list[tuple]:
    """(position, summary) of chunk ``chunk`` for each of the law's requests
    that reach it, longest first.  The chunk is drawn once, at ``count``
    rows; requests that read the same first rows of it share their sort and
    moments, and each counts its own points on D·``scale`` times them."""
    x = _draw_chunk(law, master_seed, chunk, count)
    summaries = []
    for size, group in groupby(zip(law.positions, law.requests),
                               lambda job: min(job[1].trials - chunk * CHUNK_SIZE, count)):
        if size <= 0:
            break
        rows = x[:size]
        ordered, mean = np.sort(rows), rows.mean()
        m2 = np.square(rows - mean).sum()
        for i, r in group:
            # draw_samples' values, still sorted as D·scale > 0, and inf where they are
            with np.errstate(over="ignore"):
                scaled = ordered * (r.source.D * r.source.scale)
            at_least = np.searchsorted(scaled, np.asarray(r.thresholds, dtype=float), side="left")
            at_most = np.searchsorted(scaled, np.asarray(r.grid, dtype=float), side="right")
            summaries.append((i, SampleSummary(size - at_least, at_most, size, mean, m2)))
    return summaries


def summarize_many(requests, master_seed: int, workers: int = 1) -> list[SampleSummary]:
    """The ``SampleSummary`` of every request, in request order.  A sample
    is a law's (family, S, n) at one ``stream``; it does not depend on its
    length, so requests of one law and stream read one sample, drawn once at
    the longest request's trials, and a request of ``trials`` reads its first
    ``trials`` draws.  Each request counts its points on D·``scale`` times
    them, and its moments are the law's, so its summary is bit for bit the
    one it gets alone.  The chunks of every law share one schedule, so one
    pool serves them all, and each is merged in as it comes."""
    master_seed = integer(master_seed, "master_seed", DOMAINS["word"])
    requests = [_checked(request) for request in requests]
    laws = {}  # (family, S, n, stream) -> positions in requests
    for i, request in enumerate(requests):
        source = request.source
        laws.setdefault((source.family, source.S, source.n, request.stream), []).append(i)
    orders = [sorted(positions, key=lambda i: -requests[i].trials) for positions in laws.values()]
    drawn = [_Law(*requests[order[0]][:3], tuple(requests[i] for i in order), tuple(order))
             for order in orders]
    out = [None] * len(requests)
    for parts in _map_chunks(_reduce_chunk, drawn, master_seed, workers):
        for i, part in parts:
            out[i] = part if out[i] is None else out[i].merge(part)
    return out


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
    n = integer(trials, "trials")
    k = integer(successes, "successes", (0, n + 1))
    level = real(level, "level")
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
    threshold = real(threshold, "threshold")
    ci_level = real(ci_level, "ci_level", INTERVALS["level"])
    request = SampleRequest(source, trials, stream, thresholds=(threshold,))
    [summary] = summarize_many([request], master_seed, workers)
    return tail_estimate_from_count(threshold, int(summary.at_least[0]), summary.count, ci_level)


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
    n, threshold = integer(n, "n"), real(threshold, "threshold")
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
    trials = integer(trials, "trials")
    band_level = real(band_level, "band_level", INTERVALS["level"])
    return math.sqrt(math.log(2.0 / band_level) / (2.0 * trials))


def estimate_quantile_curve(source: DeviationSource, grid, trials: int, master_seed: int, *,
                            band_level: float = 0.05, stream: int = 0,
                            workers: int = 1) -> QuantileCurve:
    """Empirical CDF of the deviation statistic on an ascending grid."""
    half = dkw_halfwidth(trials, band_level)  # checks band_level before any drawing
    grid = np.array(_points(grid))
    if grid.size < 1:
        raise ValidationError("grid must be a nonempty 1-d array")
    if np.any(grid[1:] <= grid[:-1]):
        raise ValidationError("grid must be strictly ascending")
    [summary] = summarize_many([SampleRequest(source, trials, stream, grid=grid)],
                               master_seed, workers)
    return QuantileCurve(
        grid=grid,
        cdf_estimates=summary.at_most / float(summary.count),
        dkw_halfwidth=half,
        trials=summary.count,
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
    trials = integer(trials, "trials", (FALSIFY_MIN_TRIALS, DOMAINS["trials"][1]))
    if family not in FINITE_N:
        raise ValidationError(f"unsupported distribution family {family!r}")
    evaluation = evaluate_bound(spec)
    estimate = estimate_tail_probability(DeviationSource(family, spec.S, n=spec.n),
                                         evaluation.epsilon, trials, master_seed,
                                         ci_level=ci_level, stream=stream, workers=workers)
    return Verdict(evaluation=evaluation, estimate=estimate,
                   outcome=classify_verdict(estimate, spec.delta))
