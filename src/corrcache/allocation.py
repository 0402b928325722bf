"""Cache allocation across commonness levels for the coded scheme.

optimize_allocation runs a greedy marginal allocation over the per-level
convex rate envelopes: every envelope segment offers a rate decrease per
cached bit, and since each envelope is convex and the capacity constraint is
linear, consuming segments steepest-first is globally optimal over the
envelope relaxation.  The segments and their order come from the rates
module's exact slope table, one per (N, K): a segment's rate drop per
cached bit does not depend on the level sizes, so every config with the
same (N, K) walks one table, steepest first, ties to the lower level, then
the lower t0.  A config walks only its nonempty levels' segments: a copy of
the table's order filtered to its level set, memoized per (N, K, level
set).  exhaustive_allocation_oracle brute-forces a share grid and exists
purely to cross-check the greedy result.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

from .combinat import comb0
from .model import CacheAllocation, LibraryConfig
from .rates import _binomials, _slope_table, cacc_level_rate, cacc_rate, reads_point

_NUDGE = 1e-6


@dataclass(frozen=True)
class AllocationSolution:
    alloc: CacheAllocation
    rate: float
    method: str


@functools.lru_cache(maxsize=256)
def _live_segments(n_files: int, n_users: int, levels: tuple) -> tuple:
    """The slope table's segments of the given levels, in the table's
    order, as (level, t0, t1, binom(N, level), t1 - t0).  Keyed by the
    level set, never by sizes, so a sweep holds one entry per set."""
    widths = _binomials(n_files)
    live = set(levels)
    return tuple(
        (l, t0, t1, widths[l], t1 - t0)
        for l, t0, t1 in _slope_table(n_files, n_users).segments
        if l in live
    )


def optimize_allocation(config: LibraryConfig) -> AllocationSolution:
    """Minimize the coded rate subject to the cache capacity constraint.

    Raising level l's share from t to t+dt costs binom(N,l) F_l dt / K cached
    bits.  Envelope segments are consumed in the slope table's order,
    steepest rate decrease per bit first (ties: lower level, then lower
    t0); the final partial segment may stop at a fractional share.  Only
    the nonempty levels' segments are walked (`_live_segments`): an empty
    level's segment costs nothing and changes no rate.  A stop that would
    land exactly on an integer share interior to a hull segment is nudged
    down, because cacc_rate reads the raw integer point there (no memory
    sharing), which can sit above the envelope.  The rate is cacc_rate's at
    the returned shares.
    """
    n, k = config.n_files, config.n_users
    sizes = config.subfile_sizes
    fractions = [0.0] * n
    remaining = config.cache_capacity * config.file_size
    for l, t0, t1, width, span in _live_segments(n, k, config.nonempty_levels()):
        if remaining <= 0:
            break
        bits_per_share = width * sizes[l - 1] / k
        seg_bits = span * bits_per_share
        if remaining >= seg_bits - 1e-9:
            fractions[l - 1] = t1 / k
            remaining -= seg_bits
        else:
            stop = t0 + remaining / bits_per_share
            if reads_point(stop) and round(stop) not in _slope_table(n, k).vertices[l - 1]:
                stop = max(t0, stop - _NUDGE)
            fractions[l - 1] = min(1.0, stop / k)
            break

    alloc = CacheAllocation(tuple(fractions))
    return AllocationSolution(
        alloc=alloc, rate=cacc_rate(config, alloc), method="greedy-marginal"
    )


def exhaustive_allocation_oracle(
    config: LibraryConfig, grid_step: float = 0.25
) -> AllocationSolution:
    """Brute-force share grid search; independent check of the greedy result.

    Enumerates every share vector on a regular grid (plus the endpoint K),
    keeps feasible ones, and returns the minimum rate with lexicographically
    smallest shares on ties.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    n, k = config.n_files, config.n_users
    steps = int(round(k / grid_step))
    axis = [i * grid_step for i in range(steps)] + [float(k)]
    active = config.nonempty_levels()
    n_points = len(axis) ** len(active)
    if n_points > 10**7:
        raise ValueError(f"grid too large to enumerate ({n_points} points)")

    budget = config.cache_capacity * config.file_size
    # Per-level tables over the axis keep the inner loop to lookups and adds.
    cost_tab = [
        [comb0(n, l) * config.subfile_sizes[l - 1] / k * t for t in axis]
        for l in active
    ]
    rate_tab = [
        [cacc_level_rate(config, l, t) for t in axis] for l in active
    ]
    slack = budget + 1e-9 * config.file_size
    best = None
    for combo in product(range(len(axis)), repeat=len(active)):
        used = 0.0
        for ci, i in zip(cost_tab, combo):
            used += ci[i]
        if used > slack:
            continue
        rate = 0.0
        for ri, i in zip(rate_tab, combo):
            rate += ri[i]
        key = (rate, combo)
        if best is None or key < best[0]:
            best = (key, combo)
    if best is None:
        raise ValueError("no feasible grid point")
    fractions = [0.0] * n
    for l, i in zip(active, best[1]):
        fractions[l - 1] = axis[i] / k
    alloc = CacheAllocation(tuple(fractions))
    return AllocationSolution(
        alloc=alloc, rate=best[0][0], method="exhaustive-grid"
    )
