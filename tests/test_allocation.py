import random

import pytest

from conftest import random_config, single_level_config
from corrcache import (
    CacheAllocation,
    LibraryConfig,
    build_level_curve,
    cacc_rate,
    cauc_optimal_allocation,
    cauc_rate,
    exhaustive_allocation_oracle,
    optimize_allocation,
)
from corrcache.model import exact_sizes_from_ratios


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
    curve = build_level_curve(config, 2)
    assert sol.rate == pytest.approx(curve.envelope_value(2.0))


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
    curve = build_level_curve(config, 2)
    assert sol.rate <= curve.envelope_value(1.0) + 1e-4 * f2 / config.file_size
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
        # Collinear envelope: float noise orders segment 16->17 before 1->16.
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
