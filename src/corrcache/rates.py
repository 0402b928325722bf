"""Closed-form delivery rates and bounds for correlated libraries.

All rates are normalized by the file size: a rate R means the server ships
R * file_size bits in the worst case.  Three schemes are covered:

* CAUC: uncoded delivery with correlation-aware cache allocation,
* CACC: coded (multicast) delivery with correlation-aware allocation,
* CICC: coded delivery that ignores correlation (files treated as opaque),

plus a cut-set converse bound that no scheme can beat.

The hot kernels are closed forms over tables memoized with bounded
module-level lru_caches, each keyed by exactly what its value depends on, so
a capacity sweep computes every capacity-independent quantity once:

* the coded alpha rate reads its integer numerator, per share t, from one
  table keyed by (N, K, level);
* every level's envelope and the allocator's segment order come from one
  exact slope table per (N, K) (`_slope_table`).  Level l's point at share
  t is (F_l / F) u_t with u_t = min(alpha numerator / C(K, t),
  needed (K - t) / K), so the envelope's vertices depend only on
  (N, K, l); the table scales every u_t by lcm C(K, t) to an integer and
  takes the hull in integers.  A segment's rate drop per cached bit is
  K (u_t0 - u_t1) / (F C(N, l) (t1 - t0)): F_l cancels, so the table also
  sorts every level's segments steepest first, by integer keys over one
  common denominator, ties to the lower level, then the lower t0.  The
  table holds one more row, cicc's: its point at share t is
  step_payloads(K, t, min(N, K)) / C(K, t), integer once scaled by
  lcm C(K, t), so cicc's envelope is exact too.  Both schemes read a rate
  from at most the two points that bracket the share (`_envelope_rate`);
* the cut-set bound's exposed-bit count uses Vandermonde's identity,
  sum_{s, l>=1} binom(N-e, s) binom(e, l) F_{l+s}
  = sum_j F_j (binom(N, j) - binom(N-e, j)),
  so it costs O(N) per cut size instead of a double sum.  It depends on
  the cut size p only through the hidden count N - e, which takes few
  distinct values, so each distinct count is summed once, over the
  nonzero sizes (`_cut_shape`); the per-cut-size table (p, b, exposed
  bits) is memoized on (N, K, sizes), and each call only divides by F and
  maximizes over p at its capacity;
* the uncoded allocation takes every level's tail from one suffix pass.

Every level loop walks the config's nonempty levels
(`LibraryConfig.nonempty_levels`) and reads C(N, l) from one table per N
(`_binomials`).  An empty level only ever added an exact 0 to a sum, so
every value is bit-identical to the walk over all levels.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import NamedTuple

from .combinat import comb0, divisibility_unit, step_payloads
from .model import CacheAllocation, LibraryConfig

_INT_TOL = 1e-9


def reads_point(t: float) -> bool:
    """Whether share t is an integer up to float noise, so that a scheme's
    rate reads its raw integer point there rather than its envelope."""
    return abs(t - round(t)) <= _INT_TOL


def _envelope_rate(vertices, point, t: float) -> float:
    """A scheme's rate at share t: its raw point(t) at an integer share,
    else the envelope between the two vertices (integer shares, ascending)
    that bracket t, which memory sharing between those shares achieves."""
    if reads_point(t):
        return point(int(round(t)))
    i = bisect.bisect(vertices, t)
    t0, t1 = vertices[i - 1], vertices[i]
    r0 = point(t0)
    return r0 + (t - t0) / (t1 - t0) * (point(t1) - r0)


def _lower_convex_hull(points) -> tuple[tuple, ...]:
    """Lower convex hull of (x, y) points with strictly increasing x.

    Monotone-chain construction; collinear middle points are dropped so ties
    resolve toward the smaller x vertex.  The vertices keep the points' own
    number type, so integer or Fraction points give an exact hull.
    """
    hull: list[tuple] = []
    for x, y in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # keep hull[-1] only if it lies strictly below segment (hull[-2], p)
            if (y1 - y0) * (x - x0) >= (y - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return tuple(hull)


@functools.lru_cache(maxsize=64)
def _binomials(n: int) -> tuple[int, ...]:
    """binom(n, j) for j = 0..n: the level loops read C(N, l) and C(K, t)
    from here."""
    return tuple(math.comb(n, j) for j in range(n + 1))


@functools.lru_cache(maxsize=256)
def _needed_counts(n_files: int, n_users: int) -> tuple[int, ...]:
    """Per level l = 0..N, the level-l subfiles touched by a worst-case
    demand set of min(N, K) files: binom(N, l) - binom(max(N-K, 0), l)."""
    return tuple(
        c - comb0(max(n_files - n_users, 0), l) for l, c in enumerate(_binomials(n_files))
    )


def cauc_rate(config: LibraryConfig, alloc: CacheAllocation) -> float:
    """Worst-case uncoded delivery rate for a given per-level allocation.

    Every subfile that intersects the demanded set ships its uncached
    remainder once: R = (1/F) sum_l (1 - p_l) F_l (binom(N,l) - binom(max(N-K,0),l)).
    """
    sizes, fractions = config.subfile_sizes, alloc.level_fractions(config)
    needed = _needed_counts(config.n_files, config.n_users)
    total = 0.0
    for l in config.nonempty_levels():
        total += (1.0 - fractions[l - 1]) * sizes[l - 1] * needed[l]
    return total / config.file_size


def cauc_optimal_allocation(config: LibraryConfig) -> CacheAllocation:
    """Capacity-optimal uncoded allocation: fill highest commonness first.

    With C(l) = sum_{i>=l} binom(N,i) F_i the cumulative tail, level l gets
    p_l = 1 when C(l) fits in the budget, the fractional remainder when the
    budget lands inside level l, and 0 below that.  The tails come from one
    suffix pass over the nonempty levels, highest first, so the whole
    allocation is O(N).  An empty level adds nothing to the tail, and it
    gets p_l = 1 exactly when the tail above it fits.  Uses the whole
    budget whenever the budget is below the total library size.  At the
    capacity clamp (the whole library) every share is exactly 1.
    """
    n = config.n_files
    if config.cache_capacity >= config.library_bits / config.file_size:
        return CacheAllocation((1.0,) * n)
    budget = config.cache_capacity * config.file_size
    sizes, widths = config.subfile_sizes, _binomials(n)
    fractions = [0.0] * n
    filled = 0  # every level above this one fits whole
    tail_above = 0
    for l in reversed(config.nonempty_levels()):
        size_l = widths[l] * sizes[l - 1]
        tail_here = tail_above + size_l
        if tail_here > budget:
            if budget > tail_above:
                fractions[l - 1] = (budget - tail_above) / size_l
            filled = l
            break
        tail_above = tail_here
    fractions[filled:] = [1.0] * (n - filled)
    return CacheAllocation(tuple(fractions))


@functools.lru_cache(maxsize=1024)
def _alpha_numerators(n_files: int, n_users: int, level: int) -> tuple[int, ...]:
    """cacc_alpha's exact integer numerator for each share t in [0, K].

    Sums over s = bits of the subfile index falling outside the demand
    window; each window then runs binom(min(N,K)-1, l-s-1) delivery steps,
    each costed by the step-cost rule at the distinct step-demand bound
    L = ceil(w/(l-s)) + 1.  The entry at t = K is 0.
    """
    n, k = n_files, n_users
    w = min(n, k)
    terms = []
    for s in range(max(level - k, 0), max(min(level - 1, n - k), 0) + 1):
        distinct = math.ceil(w / (level - s)) + 1
        weight = comb0(max(n - k, 0), s) * comb0(w - 1, level - s - 1)
        terms.append((weight, distinct))
    return tuple(
        sum(weight * step_payloads(k, t, distinct) for weight, distinct in terms)
        for t in range(k + 1)
    )


def _alpha(config: LibraryConfig, level: int, t: int) -> float:
    n, k = config.n_files, config.n_users
    numerator = _alpha_numerators(n, k, level)[t]
    size = config.subfile_sizes[level - 1]
    return float(numerator) * size / (config.file_size * _binomials(k)[t])


def _m(config: LibraryConfig, level: int, t) -> float:
    n, k, size = config.n_files, config.n_users, config.subfile_sizes[level - 1]
    return _needed_counts(n, k)[level] * (size - t * size / k) / config.file_size


@functools.lru_cache(maxsize=1024)
def _worst_payloads(scheme: str, n_files: int, n_users: int, level: int) -> tuple[int, ...]:
    """Per share t in [0, K], the most payloads per part that one share-t
    sublayer of a level-l subfile group sends, under the step-cost rule
    (Yu, Maddah-Ali and Avestimehr, arXiv:1609.07817, Thm. 1): for cacc the
    lesser of alpha's numerator and the floor, one remainder step of
    C(K-1, t) payloads per needed subfile; for cauc the floor; for cicc,
    whose group is level 0, the one coded step over min(N, K) distinct
    files.  The cacc count times F_l / (F C(K, t)) is the level's point
    min(alpha, m), as C(K-1, t) / C(K, t) = (K - t) / K."""
    n, k = n_files, n_users
    if scheme == "cicc":
        return tuple(step_payloads(k, t, min(n, k)) for t in range(k + 1))
    needed = _needed_counts(n, k)[level]
    counts = [needed * comb0(k - 1, t) for t in range(k + 1)]
    if scheme == "cacc":
        counts = map(min, _alpha_numerators(n, k, level), counts)
    return tuple(counts)


class _SlopeTable(NamedTuple):
    """One (N, K)'s exact envelopes and segment order (see _slope_table)."""

    vertices: tuple[tuple[int, ...], ...]  # per level 1..N, t ascending
    segments: tuple[tuple[int, int, int], ...]  # (level, t0, t1), steepest first
    cicc: tuple[int, ...]  # cicc's envelope vertices, t ascending


@functools.lru_cache(maxsize=64)
def _slope_table(n_files: int, n_users: int) -> _SlopeTable:
    """Every level's envelope vertices, every envelope segment in the
    allocator's order and cicc's envelope vertices, in integers only.

    Level l's point at share t is (F_l / F) u_t, with u_t cacc's worst-case
    payload count (`_worst_payloads`) over C(K, t): the lesser of alpha's
    numerator over C(K, t) and needed (K - t) / K.  Scaled by D = lcm
    C(K, t), U_t = D u_t is an integer, and the hull of the points (t, U_t)
    is exact.  Raising level l's share along a segment (t0, t1) drops the
    rate by K (U_t0 - U_t1) / (D F C(N, l) (t1 - t0)) per cached bit; K, D
    and F are common to every level, so the segments sort by
    (U_t0 - U_t1) / (C(N, l) (t1 - t0)), compared as integers over the lcm
    of those denominators.  Steepest first; ties go to the lower level,
    then the lower t0.  Segments that drop nothing are left out.  cicc's
    point at t, its count step_payloads(K, t, min(N, K)) over C(K, t),
    scales by D to an integer the same way.
    """
    n, k = n_files, n_users
    scale = divisibility_unit(k)
    vertices = []
    segments = []  # (drop, denominator, level, t0, t1)
    for level in range(1, n + 1):
        units = [
            count * (scale // comb0(k, t))
            for t, count in enumerate(_worst_payloads("cacc", n, k, level))
        ]
        hull = _lower_convex_hull(enumerate(units))
        vertices.append(tuple(t for t, _ in hull))
        width = comb0(n, level)
        segments.extend(
            (u0 - u1, width * (t1 - t0), level, t0, t1)
            for (t0, u0), (t1, u1) in zip(hull, hull[1:])
            if u0 > u1
        )
    common = math.lcm(*(den for _, den, *_ in segments))
    segments.sort(key=lambda s: (-s[0] * (common // s[1]), s[2], s[3]))
    cicc = _lower_convex_hull(
        (t, count * (scale // comb0(k, t)))
        for t, count in enumerate(_worst_payloads("cicc", n, k, 0))
    )
    return _SlopeTable(
        tuple(vertices), tuple(s[2:] for s in segments), tuple(t for t, _ in cicc)
    )


def cacc_alpha(config: LibraryConfig, level: int, t: int) -> float:
    """Per-level rate of the multicast XOR delivery procedure at integer share t.

    The numerator over s (see _alpha_numerators) depends only on
    (N, K, level, t); it is scaled by F_l / (F binom(K, t)).  This is the
    paper's alpha, and it stays public so that tests can pin it to the
    paper's values; cacc_level_rate reads the same _alpha.
    """
    return _alpha(config, level, _integer_share(config, level, t))


def cacc_m(config: LibraryConfig, level: int, t: int) -> float:
    """Per-level rate of shipping uncached remainders of needed subfiles.

    This is the paper's m, and it stays public so that tests can pin it to
    the paper's values; cacc_level_rate reads the same _m.
    """
    return _m(config, level, _integer_share(config, level, t))


def _check_level_t(config: LibraryConfig, level: int, t) -> None:
    config.level_size(level)  # range check
    # written so that NaN fails too
    if not -_INT_TOL <= t <= config.n_users + _INT_TOL:
        raise ValueError(f"share t={t} outside [0, {config.n_users}]")


def _integer_share(config: LibraryConfig, level: int, t) -> int:
    """An integer share t in range, as an int: an integral float such as
    2.0 reads as 2."""
    _check_level_t(config, level, t)
    if t != int(t):
        raise ValueError(f"share t={t} is not an integer")
    return int(t)


def cacc_level_rate(config: LibraryConfig, level: int, t: float) -> float:
    """Coded per-level rate at share t: the raw point min(alpha, m) at
    integer t, the lower convex hull of those points at fractional t."""
    _check_level_t(config, level, t)
    vertices = _slope_table(config.n_files, config.n_users).vertices[level - 1]
    return _level_rate(config, level, t, vertices)


def _level_rate(config: LibraryConfig, level: int, t: float, vertices) -> float:
    return _envelope_rate(
        vertices, lambda share: min(_alpha(config, level, share), _m(config, level, share)), t
    )


def cacc_rate(config: LibraryConfig, alloc: CacheAllocation) -> float:
    """Worst-case coded delivery rate: sum of per-level rates at t_l = K p_l
    over the nonempty levels.  A fraction lies in [0, 1], so t_l needs no
    range check."""
    k, fractions = config.n_users, alloc.level_fractions(config)
    vertices = _slope_table(config.n_files, k).vertices
    total = 0.0
    for l in config.nonempty_levels():
        total += _level_rate(config, l, fractions[l - 1] * k, vertices[l - 1])
    return total


def _cicc_share(config: LibraryConfig) -> float:
    """cicc's caching share of every file, t = K min(M, N) / N."""
    n = config.n_files
    return config.n_users * min(config.cache_capacity, n) / n


def cicc_rate(config: LibraryConfig) -> float:
    """Coded delivery rate when correlation is ignored (files are opaque).

    Classic shared-cache tradeoff over N independent files of size F at
    share t = K * M / N (`_cicc_share`): the raw point
    step_payloads(K, t, min(N, K)) / C(K, t) (`_worst_payloads`) at
    integer t, the slope table's exact envelope of those points at
    fractional t.
    """
    n, k = config.n_files, config.n_users
    counts = _worst_payloads("cicc", n, k, 0)
    return _envelope_rate(
        _slope_table(n, k).cicc, lambda t: counts[t] / comb0(k, t), _cicc_share(config)
    )


@functools.lru_cache(maxsize=256)
def _cut_shape(n_files: int, n_users: int) -> tuple:
    """What the cut-set rows take from (N, K) alone, as (rows, counts).
    rows holds (p, b, i) per cut size p = 1..min(N, K), with b = floor(N/p)
    and i the index of the hidden count N - p b among the distinct ones, in
    first-seen order.  counts[j - 1][i] is binom(N, j) - binom(hidden_i, j),
    the level-j subfiles that touch at least one of the N - hidden_i
    exposed files."""
    hidden, rows = {}, []  # hidden count -> its index, first seen first
    for p in range(1, min(n_files, n_users) + 1):
        b = n_files // p
        rows.append((p, b, hidden.setdefault(n_files - p * b, len(hidden))))
    counts = tuple(
        tuple(c - comb0(h, j) for h in hidden)
        for j, c in enumerate(_binomials(n_files)[1:], start=1)
    )
    return tuple(rows), counts


@functools.lru_cache(maxsize=256)
def _cut_totals(n_files: int, n_users: int, sizes: tuple) -> tuple:
    """(p, b, exposed bits) per cut size p = 1..min(N, K), with
    b = floor(N/p): everything of the cut-set bound but the file size and
    the capacity.  The exposed bits depend on p only through the hidden
    count N - p b, which takes few distinct values (`_cut_shape`), so each
    is summed once, over the nonzero sizes, level ascending.  They are the
    subfile sizes' own type; the verifier's converse reads them at int
    sizes."""
    rows, counts = _cut_shape(n_files, n_users)
    terms = ([size * c for c in cs] for size, cs in zip(sizes, counts) if size)
    exposed = [sum(column) for column in zip(*terms)]
    return tuple([(p, b, exposed[i]) for p, b, i in rows])


def cutset_bound(config: LibraryConfig) -> float:
    """Cut-set converse: no scheme with this capacity beats the returned rate.

    Maximizes over the number p of caches on the cut; b = floor(N/p) demand
    rounds expose e = p*b files.  The cut must carry every subfile that
    touches an exposed file; by Vandermonde's identity
    sum_{s, l>=1} binom(N-e, s) binom(e, l) F_{l+s}
    = sum_j F_j (binom(N, j) - binom(N-e, j)),
    i.e. all library bits minus the subfiles lying wholly inside the N-e
    unexposed files, which is O(N) per p and independent of the capacity
    (see _cut_totals).  Clamped at 0.  Evaluated at the config's capacity,
    which LibraryConfig keeps within [0, N].
    """
    m_files, file_size = config.cache_capacity, config.file_size
    best = 0.0
    for p, b, exposed in _cut_totals(config.n_files, config.n_users, config.subfile_sizes):
        rate = (exposed / file_size - p * m_files) / b
        if rate > best:
            best = rate
    return best
