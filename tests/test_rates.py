import math
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    config_strategy,
    envelope_at,
    interpolate,
    random_config,
    single_level_config,
)
from corrcache import (
    CacheAllocation,
    LibraryConfig,
    cacc_alpha,
    cacc_level_rate,
    cacc_m,
    cacc_rate,
    cauc_optimal_allocation,
    cauc_rate,
    cicc_rate,
    cutset_bound,
    optimize_allocation,
)
from corrcache import rates
from corrcache.cli import main
from corrcache.rates import _lower_convex_hull, _slope_table
from corrcache.model import exact_sizes_from_ratios

import random


# ---------------------------------------------------------------------------
# convex hull / envelope machinery

def test_hull_drops_points_above_segments():
    pts = [(0, 10), (1, 8), (2, 4), (3, 2), (4, 0.8), (5, 0)]
    hull = _lower_convex_hull(pts)
    assert hull == ((0.0, 10.0), (2.0, 4.0), (3.0, 2.0), (4.0, 0.8), (5.0, 0.0))


def test_hull_drops_collinear_middle_points():
    assert _lower_convex_hull([(0, 4), (1, 2), (2, 0)]) == ((0.0, 4.0), (2.0, 0.0))


@given(
    st.lists(
        st.floats(0, 100, allow_nan=False), min_size=2, max_size=12
    )
)
def test_hull_lies_at_or_below_points(ys):
    pts = list(enumerate(ys))
    hull = _lower_convex_hull(pts)
    xs = [x for x, _ in hull]
    assert xs == sorted(xs)
    assert hull[0] == (0.0, float(ys[0]))
    assert hull[-1][0] == len(ys) - 1
    # every original point sits on or above the hull
    for x, y in pts:
        for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
            if x0 <= x <= x1:
                interp = y0 + (y1 - y0) * (x - x0) / (x1 - x0) if x1 > x0 else y0
                assert y >= interp - 1e-9
                break


# ---------------------------------------------------------------------------
# uncoded scheme

def test_cauc_rate_no_cache_two_users():
    """Two files sharing one subfile: everything ships, 3 bits over 2-bit files."""
    config = LibraryConfig(2, 2, 0.0, (1, 1))
    rate = cauc_rate(config, CacheAllocation((0.0, 0.0)))
    assert rate == pytest.approx(1.5)


def test_cauc_rate_full_cache_is_zero():
    config = LibraryConfig(2, 2, 1.5, (1, 1))
    assert cauc_rate(config, CacheAllocation((1.0, 1.0))) == 0.0


def test_cauc_rate_ignores_unreachable_subfiles():
    # N=3, K=1: only subfiles touching the single demanded file count
    config = LibraryConfig(3, 1, 0.0, (3, 3, 3))
    # needed: 1 of 3 level-1, 2 of 3 level-2, 1 level-3 -> (3+6+3)/file
    assert cauc_rate(config, CacheAllocation((0, 0, 0))) == pytest.approx(
        (1 * 3 + 2 * 3 + 1 * 3) / config.file_size
    )


def test_cauc_optimal_fills_commonest_levels_first():
    config = LibraryConfig(2, 2, 0.5, (1, 1))  # budget = 1 bit, level-2 tail = 1
    alloc = cauc_optimal_allocation(config)
    assert alloc.fractions == (0.0, 1.0)


def test_cauc_optimal_partial_level():
    # budget lands inside level 1: tail(2)=1, budget=2 -> p2=1, p1=(2-1)/2
    config = LibraryConfig(2, 2, 1.0, (1, 1))
    alloc = cauc_optimal_allocation(config)
    assert alloc.fractions[1] == 1.0
    assert alloc.fractions[0] == pytest.approx(0.5)


def test_cauc_optimal_shares_exact_at_full_capacity(capsys):
    """At the capacity clamp the whole library is cached: every share is
    exactly 1 and the uncoded rate exactly 0 (a budget an ulp off the library
    size once left 0.9999999999999998, an empty level at 0.0, and a rate of
    1.2e-16)."""
    config = LibraryConfig(3, 2, 3.0, (0, 93, 83))
    alloc = cauc_optimal_allocation(config)
    assert alloc.fractions == (1.0, 1.0, 1.0)
    assert cauc_rate(config, alloc) == 0.0
    argv = ["rates", "--n", "2", "--k", "2", "--m", "2", "--level-sizes", "10,99"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert dict(zip(lines[1].split(","), lines[2].split(",")))["r_cauc"] == "0"


@settings(max_examples=60)
@given(config_strategy(), st.integers(0, 10**6))
def test_cauc_optimal_beats_random_feasible_allocations(config, seed):
    rng = random.Random(seed)
    best = cauc_optimal_allocation(config)
    assert best.satisfies_capacity(config)
    budget = config.cache_capacity * config.file_size
    for _ in range(5):
        probe = CacheAllocation(
            tuple(rng.uniform(0, 1) for _ in range(config.n_files))
        )
        if probe.cached_bits(config) > budget:
            continue
        assert cauc_rate(config, best) <= cauc_rate(config, probe) + 1e-9


# ---------------------------------------------------------------------------
# coded scheme, per-level curve

def five_user_level2():
    return single_level_config(5, 5, 2, units=1)  # F2 = 10, file = 40


def test_coded_level_curve_raw_points():
    config = five_user_level2()
    f2_over_f = config.level_size(2) / config.file_size
    want = [10, 8, 4, 2, 0.8, 0]
    got = [cacc_level_rate(config, 2, t) for t in range(6)]
    assert got == pytest.approx([w * f2_over_f for w in want])


def test_coded_step_bound_anchor():
    """Level 2 of 5 shared by 5 users at share 1: 4 steps of at most 10
    payload groups, each binom(5,1)-th of a subfile."""
    config = five_user_level2()
    assert cacc_alpha(config, 2, 1) == pytest.approx(
        8 * config.level_size(2) / config.file_size
    )
    assert cacc_m(config, 2, 1) == pytest.approx(
        8 * config.level_size(2) / config.file_size
    )


def test_coded_fractional_share_uses_envelope():
    config = five_user_level2()
    f2_over_f = config.level_size(2) / config.file_size
    # hull vertices: (0,10),(2,4),(3,2),(4,0.8),(5,0); t=1 raw point 8 sits above
    assert _slope_table(5, 5).vertices[1] == (0, 2, 3, 4, 5)
    assert envelope_at(config, 2, 1.0) == pytest.approx(7 * f2_over_f)
    assert cacc_level_rate(config, 2, 0.5) == pytest.approx(8.5 * f2_over_f)
    # integer shares evaluate the raw min, not the hull
    assert cacc_level_rate(config, 2, 1) == pytest.approx(8 * f2_over_f)


def test_exact_hull_drops_float_noise_vertices():
    """At (N, K, level) = (1, 3, 1) the points lie on one line; with F_1 =
    100 the float point at t = 1 falls an ulp below it, and a hull of the
    float points kept it as a vertex.  The exact hull is [0, 3]."""
    config = LibraryConfig(1, 3, 0.5, (100,))
    assert _slope_table(1, 3).vertices[0] == (0, 3)
    points = [(t, cacc_level_rate(config, 1, t)) for t in range(4)]
    assert [t for t, _ in _lower_convex_hull(points)] == [0, 1, 3]


def test_slope_table_is_shared_across_capacities_and_sizes():
    """The table depends on the config only through (N, K), so configs that
    differ only in capacity or level sizes read one table entry, through
    cacc's rate, cicc's rate and the allocator alike."""
    config = replace(five_user_level2(), cache_capacity=0.5)
    configs = [
        config,
        replace(config, cache_capacity=2.0),
        replace(config, subfile_sizes=(3, 0, 7, 0, 11)),
    ]
    rates._slope_table.cache_clear()
    for c in configs:
        for level in c.levels():
            cacc_level_rate(c, level, 1.5)
        cicc_rate(c)
        optimize_allocation(c)
    info = rates._slope_table.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert info.hits > 0


@settings(max_examples=60)
@given(config_strategy())
def test_coded_level_rates_nonincreasing_in_share(config):
    for level in config.levels():
        if config.subfile_sizes[level - 1] == 0:
            continue
        vals = [cacc_level_rate(config, level, t) for t in range(config.n_users + 1)]
        assert vals[-1] == 0.0
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-9


@settings(max_examples=60)
@given(config_strategy())
def test_coded_envelope_below_raw(config):
    for level in config.levels():
        if config.subfile_sizes[level - 1] == 0:
            continue
        for t in range(config.n_users + 1):
            raw = cacc_level_rate(config, level, t)
            assert envelope_at(config, level, t) <= raw + 1e-9
        # envelope is convex: interior vertices lie below adjacent chords
        verts = [
            (t, cacc_level_rate(config, level, t))
            for t in _slope_table(config.n_files, config.n_users).vertices[level - 1]
        ]
        for (x0, y0), (x1, y1), (x2, y2) in zip(verts, verts[1:], verts[2:]):
            chord = y0 + (y2 - y0) * (x1 - x0) / (x2 - x0)
            assert y1 <= chord + 1e-9


def test_cacc_rate_sums_levels():
    config = LibraryConfig(3, 3, 3.0, (6, 6, 6))
    alloc = CacheAllocation.from_replication((1, 2, 0), 3)
    want = sum(cacc_level_rate(config, l, t) for l, t in zip((1, 2, 3), (1, 2, 0)))
    assert cacc_rate(config, alloc) == pytest.approx(want)


def test_share_out_of_range_rejected():
    config = five_user_level2()
    with pytest.raises(ValueError):
        cacc_level_rate(config, 2, -0.5)
    with pytest.raises(ValueError):
        cacc_level_rate(config, 2, 5.5)
    with pytest.raises(ValueError):
        cacc_alpha(config, 6, 1)


# ---------------------------------------------------------------------------
# correlation-ignorant scheme and converse bound

def test_cicc_rate_classic_point():
    """Ten users, ten opaque files, one file of cache each: rate 4.5."""
    config = LibraryConfig(10, 10, 1.0, (2520,) + (0,) * 9)
    assert cicc_rate(config) == pytest.approx(4.5)
    assert cicc_rate(replace(config, cache_capacity=0.0)) == pytest.approx(10.0)
    assert cicc_rate(replace(config, cache_capacity=10.0)) == 0.0


def test_cicc_rate_fewer_files_than_users():
    # N=2, K=4, M=1: t = 2, rate = (binom(4,3)-binom(2,3))/binom(4,2)
    config = LibraryConfig(2, 4, 1.0, (12, 12))
    assert cicc_rate(config) == pytest.approx(4 / 6)


def test_cicc_rate_independent_of_sharing_structure():
    a = LibraryConfig(3, 3, 1.0, (6, 0, 0))
    b = LibraryConfig(3, 3, 1.0, (0, 0, 6))
    assert cicc_rate(a) == pytest.approx(cicc_rate(b))


def cicc_reference_points(n, k):
    """cicc's exact points (t, Fraction): the (t+1)-user sets touching the
    first min(N, K) users, over C(K, t)."""
    w = min(n, k)
    return [
        (t, Fraction(comb(k, t + 1) - comb(k - w, t + 1), comb(k, t)))
        for t in range(k + 1)
    ]


def test_cicc_envelope_is_the_exact_hull():
    """For every (N, K) <= 20 the table's cicc row is the lower hull of the
    exact points; at N = 1 the points are collinear, so it is (0, K)."""
    for n in range(1, 21):
        for k in range(1, 21):
            hull = _lower_convex_hull(cicc_reference_points(n, k))
            assert _slope_table(n, k).cicc == tuple(t for t, _ in hull), (n, k)
    assert _slope_table(1, 10).cicc == (0, 10)
    assert _slope_table(1, 20).cicc == (0, 20)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20])
def test_cicc_rate_reads_exact_points_and_envelope(n):
    """cicc_rate is the exact point at an integer share and the float
    interpolation between the exact hull vertices at a fractional one."""
    for k in range(1, 21):
        exact = cicc_reference_points(n, k)
        points = [(t, float(r)) for t, r in exact]
        verts = [t for t, _ in _lower_convex_hull(exact)]
        config = LibraryConfig(n, k, 0.0, (2520,) + (0,) * (n - 1))
        for t in range(k + 1):
            at_t = replace(config, cache_capacity=n * t / k)
            assert cicc_rate(at_t) == float(exact[t][1]), (n, k, t)
            if t < k:
                m = n * (t + 0.37) / k
                share = k * m / n
                want = interpolate(points, verts, share)
                assert cicc_rate(replace(config, cache_capacity=m)) == want, (n, k, t)


def test_cutset_no_cache_requires_whole_library():
    config = LibraryConfig(2, 2, 0.0, (1, 1))
    assert cutset_bound(config) == pytest.approx(1.5)


def test_cutset_zero_at_full_storage():
    config = LibraryConfig(2, 2, 1.5, (1, 1))
    assert cutset_bound(config) == 0.0


@pytest.mark.parametrize("m", [-1.0, -1e-6, math.nan, 2.5, math.inf])
def test_cutset_rejects_capacity_outside_range(m):
    """The rates read the config's capacity, which LibraryConfig keeps in
    [0, library]: a negative capacity (once a cut-set of 3.5, above the
    no-cache bound 1.5) or NaN is rejected, a larger one clamps to the
    library, where the cut-set is 0."""
    if m >= 0:
        config = LibraryConfig(2, 2, m, (1, 1))
        assert config.cache_capacity == 1.5
        assert cutset_bound(config) == 0.0
        assert cicc_rate(config) == pytest.approx(0.25)
    else:
        with pytest.raises(ValueError, match="capacity is nonnegative"):
            LibraryConfig(2, 2, m, (1, 1))


def test_cutset_accepts_capacity_at_range_ends():
    assert cutset_bound(LibraryConfig(2, 2, 0.0, (1, 1))) == pytest.approx(1.5)
    assert cutset_bound(LibraryConfig(2, 2, 2.0, (1, 1))) == 0.0


@settings(max_examples=40, deadline=None)
@given(config_strategy())
def test_cutset_below_every_achievable_rate(config):
    lo = cutset_bound(config)
    assert lo <= cauc_rate(config, cauc_optimal_allocation(config)) + 1e-9
    assert lo <= optimize_allocation(config).rate + 1e-9
    assert lo <= cicc_rate(config) + 1e-9


@settings(max_examples=40)
@given(config_strategy(), st.floats(0, 1))
def test_cutset_nonincreasing_in_capacity(config, frac):
    m = frac * config.n_files
    step = config.n_files / 10
    assert cutset_bound(replace(config, cache_capacity=m)) + 1e-9 >= cutset_bound(
        replace(config, cache_capacity=min(m + step, float(config.n_files)))
    )


def test_rates_agree_on_seeded_random_configs():
    """Coded allocation never loses to uncoded; with at least as many files
    as users it never loses to ignoring correlation either.

    (With N < K the closed-form coded rate assumes the worst-case number of
    distinct step demands, which can push the formula above the opaque-file
    rate even though actual deliveries stay cheaper.)
    """
    rng = random.Random(99)
    for _ in range(25):
        config = random_config(rng)
        coded = optimize_allocation(config).rate
        assert coded <= cauc_rate(config, cauc_optimal_allocation(config)) + 1e-9
        if config.n_files >= config.n_users:
            assert coded <= cicc_rate(config) + 1e-9


def test_coded_rate_above_cicc_only_on_unrelated_files_with_n_below_k():
    """The paper's headline claim at the formulas, over 2,000 seeded configs
    (N, K <= 8): the optimizer's cacc rate never exceeds cauc's optimum, and
    it exceeds cicc's rate only on libraries of level-1 subfiles alone with
    N < K, on 33 configs by up to 10.7%.  The files are unrelated there, so
    both schemes face the same library, but at level 1 alpha counts N + 1
    distinct items per step where cicc counts the N a step can hold."""
    rng = random.Random(0)
    above = []
    for _ in range(2000):
        config = random_config(rng, n_max=8, k_max=8)
        coded = optimize_allocation(config).rate
        assert coded <= cauc_rate(config, cauc_optimal_allocation(config)) + 1e-9
        if coded > cicc_rate(config) + 1e-9:
            above.append(config)
    assert len(above) == 33
    for config in above:
        assert config.n_files < config.n_users
        assert not any(config.subfile_sizes[1:]), config


# ---------------------------------------------------------------------------
# closed forms against the direct loops they replace

def reference_cutset(config, m):
    """Direct double sum over (s, l) for every cut size p."""
    n, k, sizes = config.n_files, config.n_users, config.subfile_sizes
    best = 0.0
    for p in range(1, min(n, k) + 1):
        b = n // p
        exposed = p * b
        total = 0.0
        for s in range(0, n - exposed + 1):
            for l in range(1, exposed + 1):
                if l + s <= n:
                    total += comb(n - exposed, s) * comb(exposed, l) * sizes[l + s - 1]
        best = max(best, (total / config.file_size - p * m) / b)
    return best


def per_call_cutset(config):
    """The cut-set bound as one call computed it before its capacity-free
    totals were memoized: the same float operations, all per call."""
    n, k, sizes = config.n_files, config.n_users, config.subfile_sizes
    best = 0.0
    for p in range(1, min(n, k) + 1):
        b = n // p
        hidden = n - p * b
        total = sum(s * (comb(n, j) - comb(hidden, j)) for j, s in enumerate(sizes, 1))
        best = max(best, (total / config.file_size - p * config.cache_capacity) / b)
    return best


def test_cutset_capacity_sweep_equals_per_call_formula():
    """Each library swept over capacity reads one memoized totals table; every
    row must equal the per-call formula exactly."""
    for n in (7, 10):
        for ratios in ((0.5, 0.5), (0.2, 0.3, 0.0, 0.5), (0.0,) * 6 + (1.0,)):
            full = ratios + (0.0,) * (n - len(ratios))
            sizes = exact_sizes_from_ratios(n, full, 100_000)
            for k in (n - 3, n, n + 2):
                for i in range(41):
                    config = LibraryConfig(n, k, n * i / 40, sizes)
                    assert cutset_bound(config) == per_call_cutset(config)


def reference_cauc_fractions(config):
    """Highest-commonness-first fill with each level's tail summed ascending;
    every share is 1 at the capacity clamp (the whole library)."""
    n, sizes = config.n_files, config.subfile_sizes
    if config.cache_capacity >= config.library_bits / config.file_size:
        return (1.0,) * n
    budget = config.cache_capacity * config.file_size
    fractions = []
    for l in config.levels():
        size_l = comb(n, l) * sizes[l - 1]
        tail_here = sum(comb(n, i) * sizes[i - 1] for i in range(l, n + 1))
        tail_above = tail_here - size_l
        if tail_here <= budget:
            fractions.append(1.0)
        elif size_l != 0 and budget > tail_above:
            fractions.append((budget - tail_above) / size_l)
        else:
            fractions.append(0.0)
    return tuple(fractions)


def reference_alpha_terms(n, k, level, t):
    """The integer terms over s of cacc_alpha's numerator at share t."""
    w = min(n, k)
    for s in range(max(level - k, 0), max(min(level - 1, n - k), 0) + 1):
        cap = max(k - math.ceil(w / (level - s)) - 1, 0)
        per_step = comb(k, t + 1) - comb(cap, t + 1)
        yield comb(max(n - k, 0), s) * comb(w - 1, level - s - 1) * per_step


def reference_alpha(config, level, t):
    """cacc_alpha's sum over s, accumulated in floating point."""
    n, k = config.n_files, config.n_users
    size = config.subfile_sizes[level - 1]
    if t == k or size == 0:
        return 0.0
    total = 0.0
    for term in reference_alpha_terms(n, k, level, t):
        total += term
    return total * size / (config.file_size * comb(k, t))


def reference_vertices(config, level):
    """The level's exact envelope vertices: the lower hull of its points
    divided by F_l / F, u_t = min(alpha numerator / C(K, t), needed (K - t) / K),
    in Fractions."""
    n, k = config.n_files, config.n_users
    needed = comb(n, level) - comb(max(n - k, 0), level)
    units = [
        (t, min(Fraction(sum(reference_alpha_terms(n, k, level, t)), comb(k, t)),
                Fraction(needed * (k - t), k)))
        for t in range(k + 1)
    ]
    return [t for t, _ in _lower_convex_hull(units)]


def reference_points(config, level):
    n, k = config.n_files, config.n_users
    size = config.subfile_sizes[level - 1]
    needed = comb(n, level) - comb(max(n - k, 0), level)
    return tuple(
        (t, min(reference_alpha(config, level, t),
                needed * (size - t * size / k) / config.file_size))
        for t in range(k + 1)
    )


@st.composite
def wide_config(draw, integral):
    """N, K <= 20 with integer or fractional level sizes, some levels empty."""
    n = draw(st.integers(1, 20))
    k = draw(st.integers(1, 20))
    size = (
        st.integers(1, 5000)
        if integral
        else st.floats(1e-3, 5000.0, allow_nan=False, allow_infinity=False)
    )
    sizes = draw(
        st.lists(st.just(0) | size, min_size=n, max_size=n).filter(any)
    )
    m = draw(st.floats(0.0, float(n)))
    return LibraryConfig(n, k, m, tuple(sizes))


def _capacities(config):
    """The config at its own capacity and at 0, N/3 and N (clamped)."""
    return [config] + [
        replace(config, cache_capacity=m)
        for m in (0.0, config.n_files / 3, float(config.n_files))
    ]


def _check_coded_curves_exact(config):
    table = _slope_table(config.n_files, config.n_users)
    for level in config.levels():
        want = reference_points(config, level)
        verts = table.vertices[level - 1]
        assert list(verts) == reference_vertices(config, level)
        for t, point in want:
            alpha = cacc_alpha(config, level, t)
            assert alpha == reference_alpha(config, level, t)
            assert cacc_level_rate(config, level, t) == point
            assert cacc_level_rate(config, level, t) == min(alpha, cacc_m(config, level, t))
            if t < config.n_users:  # fractional shares read the exact envelope
                share = t + 0.37
                assert cacc_level_rate(config, level, share) == interpolate(want, verts, share)


@settings(max_examples=60, deadline=None)
@given(wide_config(integral=True))
def test_closed_forms_equal_direct_loops_on_integer_sizes(config):
    for c in _capacities(config):
        assert cutset_bound(c) == reference_cutset(c, c.cache_capacity)
    assert cauc_optimal_allocation(config).fractions == reference_cauc_fractions(config)
    _check_coded_curves_exact(config)


@settings(max_examples=60, deadline=None)
@given(wide_config(integral=False))
def test_closed_forms_match_direct_loops_on_fractional_sizes(config):
    """Summation order differs, so the cut-set (in files) and the uncoded
    allocation (in cached bits per level, against the library size) agree to
    1e-12; the coded curves still agree exactly."""
    for c in _capacities(config):
        want = reference_cutset(c, c.cache_capacity)
        assert cutset_bound(c) == pytest.approx(want, rel=1e-12, abs=1e-12)
    n = config.n_files
    library = config.library_bits
    got = cauc_optimal_allocation(config).fractions
    for l, p_got, p_want in zip(config.levels(), got, reference_cauc_fractions(config)):
        level_bits = comb(n, l) * config.subfile_sizes[l - 1]
        assert abs(p_got - p_want) * level_bits <= 1e-12 * library
    _check_coded_curves_exact(config)
