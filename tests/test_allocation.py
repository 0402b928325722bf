import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import envelope_at, random_config, single_level_config
from corrcache import (
    CacheAllocation,
    LibraryConfig,
    cacc_level_rate,
    cacc_rate,
    cauc_optimal_allocation,
    cauc_rate,
    exhaustive_allocation_oracle,
    optimize_allocation,
    verify_all_demands,
)
from corrcache.combinat import comb0
from corrcache.model import exact_sizes_from_ratios
from corrcache.rates import _slope_table


def test_zero_budget_allocates_nothing():
    config = LibraryConfig(3, 3, 0.0, (6, 6, 6))
    sol = optimize_allocation(config)
    assert sol.alloc.fractions == (0.0, 0.0, 0.0)
    assert sol.rate == pytest.approx(cacc_rate(config, sol.alloc))


def test_full_budget_reaches_zero_rate():
    config = LibraryConfig(3, 3, 3.0, (6, 6, 6))  # capacity clamps to library
    sol = optimize_allocation(config)
    assert sol.rate == pytest.approx(0.0)
    assert all(p == 1.0 for p in sol.alloc.fractions)


def test_single_level_budget_at_vertex():
    """Budget that exactly reaches an envelope vertex stops on it."""
    config = single_level_config(5, 5, 2, units=1, capacity=None)
    # vertex t=2 costs binom(5,2)*F2*2/5 = 4*F2 bits = F file bits
    f2 = config.level_size(2)
    cap = (10 * f2 * 2 / 5) / config.file_size
    config = LibraryConfig(5, 5, cap, config.subfile_sizes)
    sol = optimize_allocation(config)
    assert sol.alloc.fractions[1] * 5 == pytest.approx(2.0)
    assert sol.rate == pytest.approx(envelope_at(config, 2, 2))


def test_stop_inside_segment_avoids_integer_share():
    """A budget whose greedy stop lands on a non-vertex integer share is
    nudged off it: the integer-share rate sits above the envelope there."""
    config = single_level_config(5, 5, 2, units=10)
    f2 = config.level_size(2)
    cap = (10 * f2 * 1 / 5) / config.file_size  # lands exactly on t=1
    config = LibraryConfig(5, 5, cap, config.subfile_sizes)
    sol = optimize_allocation(config)
    t = sol.alloc.fractions[1] * 5
    assert t != 1.0 and abs(t - 1.0) < 1e-4
    # t = 1 is not a vertex of (5, 5, level 2): interpolate between 0 and 2
    assert sol.rate <= envelope_at(config, 2, 1) + 1e-4 * f2 / config.file_size
    # the raw integer point would have been strictly worse
    assert sol.rate < cacc_rate(config, CacheAllocation.from_replication((0, 1, 0, 0, 0), 5))
    assert sol.alloc.satisfies_capacity(config)


def test_greedy_consistent_with_rate_formula():
    rng = random.Random(7)
    for _ in range(20):
        config = random_config(rng)
        sol = optimize_allocation(config)
        assert sol.method == "greedy-marginal"
        assert sol.alloc.satisfies_capacity(config)
        assert sol.rate == pytest.approx(cacc_rate(config, sol.alloc), abs=1e-9)


def test_greedy_rate_is_cacc_rate_exactly():
    """The allocator sums its rate from the curves it holds; on multi-level
    libraries with fractional shares that sum is cacc_rate's, bit for bit
    (up to eight levels, where summing in another order changes some rates)."""
    rng = random.Random(13)
    fractional = 0
    for _ in range(60):
        config = random_config(rng, n_max=8, k_max=8)
        sol = optimize_allocation(config)
        assert sol.rate == cacc_rate(config, sol.alloc)
        shares = [p * config.n_users for p in sol.alloc.fractions]
        fractional += any(t != round(t) for t in shares)
    assert fractional >= 10


def test_greedy_matches_exhaustive_oracle():
    """Independent cross-check: brute-force share grid never beats greedy."""
    rng = random.Random(21)
    for _ in range(30):
        config = random_config(rng)
        active = sum(1 for s in config.subfile_sizes if s)
        step = 0.25 if active <= 3 else 0.5
        oracle = exhaustive_allocation_oracle(config, grid_step=step)
        assert oracle.method == "exhaustive-grid"
        assert oracle.alloc.satisfies_capacity(config)
        assert optimize_allocation(config).rate <= oracle.rate + 1e-9


def test_oracle_grid_includes_endpoints():
    config = LibraryConfig(2, 2, 2.0, (4, 4))
    sol = exhaustive_allocation_oracle(config, grid_step=0.5)
    # full library fits, so the all-ones corner (t = K) must be found
    assert sol.rate == pytest.approx(0.0)
    assert all(p == 1.0 for p in sol.alloc.fractions)


def test_oracle_rejects_bad_grid():
    config = LibraryConfig(2, 2, 1.0, (4, 4))
    with pytest.raises(ValueError):
        exhaustive_allocation_oracle(config, grid_step=0.0)
    big = LibraryConfig(12, 12, 1.0, (2,) * 12)
    with pytest.raises(ValueError):
        exhaustive_allocation_oracle(big, grid_step=0.01)


@pytest.mark.parametrize(
    "config",
    [
        # Level 20's points are collinear: the exact envelope is the one
        # segment 0->20.  A hull of the float points kept noise vertices at
        # 1, 16 and 17, and their slopes ordered 16->17 before 1->16.
        LibraryConfig(
            20, 20, 0.5998, exact_sizes_from_ratios(20, (0,) * 19 + (1,), 100_000)
        ),
        LibraryConfig(10, 10, 1.45, (5000,) + (0,) * 8 + (95000,)),
    ],
    ids=["n20-level20", "n10-levels1-10"],
)
def test_allocator_spends_budget_on_tied_envelope_slopes(config):
    """Each level's segments are consumed in envelope order, so no budget is
    lost and the coded rate never exceeds the uncoded one."""
    cacc = optimize_allocation(config).rate
    cauc = cauc_rate(config, cauc_optimal_allocation(config))
    assert cacc <= cauc + 1e-9


def test_exact_envelope_moves_the_optimizer_to_a_tight_allocation():
    """(N, K) = (2, 3), sizes (9, 6), M = 1.  Level 1's float hull held a
    noise vertex at t = 1 that steered the optimizer to shares
    (0.611, 0.667), where the worst delivery is 5 bits under a formula of
    6 - 2e-15.  On the exact envelope it picks (2/3, 1/2), and the worst
    delivery equals the formula, 6 bits."""
    config = LibraryConfig(2, 3, 1.0, (9, 6))
    sol = optimize_allocation(config)
    assert sol.alloc.fractions == pytest.approx((2 / 3, 0.5), abs=1e-12)
    report = verify_all_demands(config, sol.alloc, seed=1)
    assert report.ok, report.violations[:3]
    assert report.max_rate * config.file_size == 6
    assert report.formula_rate * config.file_size == pytest.approx(6, abs=1e-9)


@st.composite
def wide_config(draw):
    """N, K <= 20, a few nonempty levels of any size, any capacity."""
    n = draw(st.integers(1, 20))
    k = draw(st.integers(1, 20))
    sizes = [0] * n
    for level in draw(st.sets(st.integers(1, n), min_size=1, max_size=4)):
        sizes[level - 1] = draw(st.integers(1, 10**6))
    return LibraryConfig(n, k, draw(st.floats(0.0, float(n))), tuple(sizes))


def _one_sided_slopes(config, level, t):
    """The envelope's rate drop per cached bit just left and just right of
    share t (None past either end): vertices from the slope table, valued
    by cacc_level_rate there."""
    n, k = config.n_files, config.n_users
    bits_per_share = comb0(n, level) * config.subfile_sizes[level - 1] / k
    verts = [
        (v, cacc_level_rate(config, level, v))
        for v in _slope_table(n, k).vertices[level - 1]
    ]
    slopes = [
        (t0, t1, (r0 - r1) / ((t1 - t0) * bits_per_share))
        for (t0, r0), (t1, r1) in zip(verts, verts[1:])
    ]
    at_vertex = abs(t - round(t)) <= 1e-9 and round(t) in [v for v, _ in verts]
    if at_vertex:
        t = round(t)
        left = [d for _, t1, d in slopes if t1 == t]
        right = [d for t0, _, d in slopes if t0 == t]
    else:
        left = right = [d for t0, t1, d in slopes if t0 < t < t1]
    return (left or [None])[0], (right or [None])[0]


@settings(max_examples=300, deadline=None)
@given(wide_config())
def test_allocation_satisfies_the_kkt_certificate(config):
    """The allocation problem is separable and convex over the per-level
    envelopes with one linear budget, so the greedy result is optimal iff
    there is one multiplier lambda with every level at t > 0 dropping the
    rate by at least lambda per bit on its left, every level at t < K by at
    most lambda on its right, and the budget spent whenever some right
    slope is positive (Boyd and Vandenberghe, Convex Optimization, 5.5.3).
    Slopes are floats of the envelope, so ties compare to 1e-9 relative;
    the unspent budget may be the allocator's 1e-6 share nudge."""
    sol = optimize_allocation(config)
    assert sol.rate == cacc_rate(config, sol.alloc)
    k = config.n_users
    lefts, rights = [], []
    for level in config.levels():
        if not config.subfile_sizes[level - 1]:
            continue
        t = sol.alloc.fractions[level - 1] * k
        # a share never reads an integer point above the envelope (within
        # 1e-9 of an integer, cacc_level_rate reads the point: allow that
        # much share)
        assert cacc_level_rate(config, level, t) == pytest.approx(
            envelope_at(config, level, t), abs=1e-6
        )
        left, right = _one_sided_slopes(config, level, t)
        if t > 1e-9:
            lefts.append(left)
        if t < k - 1e-9:
            rights.append(right)
    if lefts and rights:
        assert max(rights) <= min(lefts) * (1 + 1e-9)
    if any(d > 0 for d in rights):
        budget = config.cache_capacity * config.file_size
        assert sol.alloc.cached_bits(config) >= budget - 1e-6 * config.library_bits
