import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrcache import (
    CacheAllocation,
    ContentStore,
    LibraryConfig,
    ratios_to_sizes,
)
from corrcache.combinat import (
    comb0,
    divisibility_unit,
    mask_of,
    members_of,
    mix_seed,
    part_labels,
    subset_masks,
)
from corrcache.model import (
    as_demands,
    exact_sizes_from_ratios,
    file_layout,
)


# ---------------------------------------------------------------------------
# combinatorics helpers

def test_comb0_extends_binomial_with_zeros():
    assert comb0(5, 2) == 10
    assert comb0(5, 0) == 1
    assert comb0(0, 0) == 1
    assert comb0(3, 5) == 0
    assert comb0(-1, 2) == 0
    assert comb0(4, -1) == 0


@given(st.sets(st.integers(1, 12), max_size=8))
def test_mask_roundtrip(members):
    assert set(members_of(mask_of(members))) == members


def test_mask_of_rejects_zero_index():
    with pytest.raises(ValueError):
        mask_of([0, 2])


@given(st.integers(1, 8), st.integers(0, 8))
def test_subset_masks_count_and_order(n, size):
    masks = subset_masks(range(1, n + 1), size)
    assert len(masks) == comb0(n, size)
    assert len(set(masks)) == len(masks)
    assert all(m.bit_count() == size for m in masks)
    # canonical order is lexicographic over member tuples
    assert [members_of(m) for m in masks] == sorted(members_of(m) for m in masks)


def test_part_labels_cover_all_subsets():
    labels = part_labels(4, 2)
    assert len(labels) == 6
    assert set(labels) == set(subset_masks(range(1, 5), 2))


def test_divisibility_unit_values():
    assert divisibility_unit(1) == 1
    assert divisibility_unit(3) == 3
    assert divisibility_unit(4) == 12
    assert divisibility_unit(5) == 10
    assert divisibility_unit(10) == 2520


@given(st.integers(1, 10))
def test_divisibility_unit_divides_into_parts(k):
    unit = divisibility_unit(k)
    for t in range(k + 1):
        assert unit % comb0(k, t) == 0


def test_mix_seed_is_deterministic_and_order_sensitive():
    assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)
    assert mix_seed(1, 2, 3) != mix_seed(3, 2, 1)
    assert mix_seed(0) != mix_seed(0, 0)


# ---------------------------------------------------------------------------
# configs

def test_config_sizes():
    """One level-2 library over five files: each file holds 4 of the 10 subfiles."""
    config = LibraryConfig(5, 5, 1.0, (0, 100, 0, 0, 0))
    assert config.file_size == 4 * 100
    assert config.library_bits == 10 * 100
    assert config.level_size(2) == 100
    assert list(config.levels()) == [1, 2, 3, 4, 5]


def test_config_validation():
    with pytest.raises(ValueError):
        LibraryConfig(2, 2, 0.0, (1,))  # one size per level
    with pytest.raises(ValueError):
        LibraryConfig(2, 2, 0.0, (0, 0))  # empty library
    with pytest.raises(ValueError):
        LibraryConfig(2, 2, -0.5, (1, 1))
    with pytest.raises(ValueError):
        LibraryConfig(0, 2, 0.0, ())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_config_rejects_non_finite_sizes(bad):
    """NaN compares false with everything, so a check written as `s < 0`
    would accept it, and the rates would come out as quiet nonsense."""
    with pytest.raises(ValueError, match="subfile_sizes"):
        LibraryConfig(3, 3, 1.0, (bad, 6, 6))


def test_capacity_clamped_to_library():
    config = LibraryConfig(2, 2, 99.0, (2, 2))
    # library is 3 subfiles of 2 bits over files of 4 bits
    assert config.cache_capacity == pytest.approx(6 / 4)


def test_demand_vector_validation():
    config = LibraryConfig(3, 2, 0.0, (6, 0, 0))
    assert as_demands([1, 3], config) == (1, 3)
    with pytest.raises(ValueError):
        as_demands((1,), config)
    with pytest.raises(ValueError):
        as_demands((1, 4), config)
    with pytest.raises(ValueError):
        as_demands((0, 1), config)


def test_allocation_replication_roundtrip():
    alloc = CacheAllocation.from_replication((2, 1), 4)
    assert alloc.fractions == (0.5, 0.25)
    with pytest.raises(ValueError):
        CacheAllocation((1.5, 0.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_allocation_rejects_non_finite_fractions(bad):
    """NaN compares false with everything, so a range check written as
    `p < 0 or p > 1` would let it through to the clamp, which makes it 0."""
    with pytest.raises(ValueError):
        CacheAllocation((1.0, bad))
    with pytest.raises(ValueError):
        CacheAllocation.from_replication((1, bad), 2)


def test_allocation_cached_bits():
    config = LibraryConfig(2, 2, 1.0, (4, 4))
    alloc = CacheAllocation((0.5, 1.0))
    # 2 level-1 subfiles at half plus 1 level-2 subfile whole
    assert alloc.cached_bits(config) == 2 * 2 + 4
    assert alloc.satisfies_capacity(config)


# ---------------------------------------------------------------------------
# content store

def test_content_store_file_assembly():
    config = LibraryConfig(3, 2, 0.0, (4, 4, 4))
    store = ContentStore.generate(config, seed=7)
    # file 2 = subfiles {2}, {1,2}, {2,3}, {1,2,3} in canonical order
    layout = file_layout(config, 2)
    assert layout == [(0b010, 4, 0), (0b011, 4, 4), (0b110, 4, 8), (0b111, 4, 12)]
    want = 0
    for m, _, offset in layout:
        want |= store.item_bits(m) << offset
    assert store.file_bits(2) == want
    assert store.file_bits(2).bit_length() <= config.file_size


def test_content_store_deterministic_per_level():
    """Subfile contents depend only on (seed, level, members), not on the
    sizes of other levels — deliveries over one level can be reproduced in a
    library stripped down to that level."""
    a = ContentStore.generate(LibraryConfig(3, 2, 0.0, (6, 12, 0)), seed=3)
    b = ContentStore.generate(LibraryConfig(3, 2, 0.0, (0, 12, 6)), seed=3)
    for m in subset_masks(range(1, 4), 2):
        assert a.item_bits(m) == b.item_bits(m)


def test_sparse_library_lists_and_stores_nonempty_subfiles_only():
    """Twenty files of which only the level-1 subfiles have bits: a file is
    its one subfile, and the store holds those twenty subfiles, not the
    2**20 - 1 subsets of the library."""
    config = LibraryConfig(20, 2, 1.0, (6,) + (0,) * 19)
    assert file_layout(config, 1) == [(0b1, 6, 0)]
    store = ContentStore.generate(config, seed=0)
    for i in range(1, 21):
        assert store.file_bits(i) == store.item_bits(1 << (i - 1))
    with pytest.raises(KeyError):
        store.item_bits(0b11)


def test_content_store_rejects_fractional_sizes():
    with pytest.raises(ValueError):
        ContentStore.generate(LibraryConfig(2, 2, 0.0, (1.5, 0)), seed=0)


# ---------------------------------------------------------------------------
# commonness ratios to sizes: the checks the removed ExperimentSpec made

def test_experiment_spec_validates_ratios():
    exact_sizes_from_ratios(2, (0.5, 0.5), 1000)
    with pytest.raises(ValueError):
        exact_sizes_from_ratios(2, (0.6, 0.6), 1000)
    with pytest.raises(ValueError):
        exact_sizes_from_ratios(2, (1.0,), 1000)
    with pytest.raises(ValueError):
        exact_sizes_from_ratios(2, (1.0, 0.0), 0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_experiment_spec_rejects_non_finite_ratios(bad):
    with pytest.raises(ValueError, match="ratios"):
        exact_sizes_from_ratios(3, (bad, 0.5, 0.5), 1000)


def test_exact_sizes_from_ratios():
    sizes = exact_sizes_from_ratios(3, (0.5, 0.5, 0.0), 1000)
    assert sizes[0] == pytest.approx(500.0)
    assert sizes[1] == pytest.approx(250.0)  # two level-2 subfiles per file
    assert sizes[2] == 0.0


@given(st.integers(1, 6), st.integers(1, 5))
def test_ratios_to_sizes_rounds_down_to_unit(n, k):
    sizes = ratios_to_sizes(n, k, tuple([1.0] + [0.0] * (n - 1)), 50_000)
    unit = divisibility_unit(k)
    assert all(s % unit == 0 for s in sizes)
    loss = 50_000 - LibraryConfig(n, k, 0.0, sizes).file_size
    assert 0 <= loss < unit * n


def test_ratios_to_sizes_rejects_too_small():
    with pytest.raises(ValueError):
        # one level-10 subfile needs >= 2520 bits
        ratios_to_sizes(10, 10, (0.0,) * 9 + (1.0,), 100)
