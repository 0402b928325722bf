import dataclasses
import itertools
import math
import random
import time
import tracemalloc

import pytest

from conftest import single_level_config
from test_acceptance import _grid_configs, _level_alloc
from test_delivery import _equality_patterns
from corrcache import (
    CacheAllocation,
    ContentStore,
    DeliveryPlan,
    GridReport,
    LibraryConfig,
    cauc_rate,
    cutset_bound,
    deliver,
    optimize_allocation,
    verify_all_demands,
    worst_case_demand,
)
from corrcache import delivery, verification
from corrcache.combinat import comb0, divisibility_unit, mask_of, part_labels
from corrcache.rates import _cut_totals, reads_point
from corrcache.delivery import (
    LayerSpec, StepRecord, UserCache, _decoded_items, _family, _item_name, _LayerParts,
    _pattern, _step_table, _xor_step, cacc_layers, decode,
)
from corrcache.verification import (
    _check_step, _converse_misses, _ExactParts, _lanes_clear, _limit_bits, decode_failures,
)


def test_two_user_grid_clean():
    config = LibraryConfig(2, 2, 0.75, (4, 4))
    alloc = CacheAllocation.from_replication((1, 1), 2)
    report = verify_all_demands(config, alloc, seed=3)
    assert report.ok
    assert report.violations == ()
    assert len(report.demands) == 4
    assert all(report.decode_ok)
    assert report.max_rate == max(report.measured_rates)
    assert report.argmax_demand in report.demands


def test_full_cache_grid_zero_rate():
    config = single_level_config(3, 3, 2, units=1)
    alloc = CacheAllocation((1.0, 1.0, 1.0))
    report = verify_all_demands(config, alloc)
    assert report.ok
    assert report.max_rate == 0.0


def test_windowed_grid_clean():
    config = LibraryConfig(3, 2, 0.875, (6, 6, 6))
    alloc = CacheAllocation.from_replication((1, 1, 1), 2)
    report = verify_all_demands(config, alloc, seed=1)
    assert report.ok
    assert len(report.demands) == 9


def test_uncoded_grid_matches_formula_at_worst_case():
    config = single_level_config(3, 3, 2, units=2)
    alloc = CacheAllocation((1 / 3, 1 / 3, 1 / 3))
    report = verify_all_demands(config, alloc, scheme="cauc", seed=2)
    assert report.ok
    assert report.max_rate == pytest.approx(cauc_rate(config, alloc))
    worst = worst_case_demand(config)
    idx = report.demands.index(worst)
    assert report.measured_rates[idx] == report.max_rate


def test_opaque_grid_clean():
    config = LibraryConfig(2, 2, 1.0, (2, 2))
    report = verify_all_demands(config, None, scheme="cicc", seed=5)
    assert report.ok
    assert report.scheme == "cicc"


@pytest.mark.parametrize("m", [0.05, 0.35, 0.65, 0.95])
@pytest.mark.parametrize("k", [7, 10])
def test_opaque_grid_on_collinear_points(k, m):
    """At N = 1 cicc's points are collinear, so its exact envelope is the
    single segment (0, K) and every fractional share splits each file
    between t = 0 and t = K.  The cached share-K slice rounds down, so no
    cache exceeds its budget, and since the envelope is a line the worst
    delivery is exactly the bits a cache lacks (at K = 7, m = 0.35:
    73 cached and 137 delivered of 210)."""
    config = LibraryConfig(1, k, m, (2 * divisibility_unit(k),))
    f = config.file_size
    report = verify_all_demands(config, None, scheme="cicc", seed=0)
    assert report.ok, report.violations[:3]
    assert report.cached_bits <= math.floor(config.cache_capacity * f)
    assert report.max_rate * f == f - report.cached_bits


def _sections(config, scheme, alloc=None):
    store = ContentStore.generate(config, seed=3)
    plan = DeliveryPlan(config, alloc, store, scheme=scheme)
    return plan.deliver(worst_case_demand(config)).sections


@pytest.mark.parametrize(
    "config",
    [
        LibraryConfig(3, 3, 1.5, (6, 6, 6)),
        LibraryConfig(4, 3, 2.2, (6, 0, 6, 6)),
        LibraryConfig(2, 4, 0.7, (120, 120)),
    ],
)
def test_opaque_grid_at_fractional_share(config):
    """t = K*M/N is fractional, so each whole file splits into two
    sublayers; every demand still decodes within the formula."""
    t = config.n_users * config.cache_capacity / config.n_files
    assert abs(t - round(t)) > 1e-9
    report = verify_all_demands(config, None, scheme="cicc", seed=3)
    assert report.ok, report.violations[:3]
    assert len({rec.layer.t for rec in _sections(config, "cicc")}) == 2


def test_uncoded_grid_at_fractional_prefix_shares():
    """Prefixes of a quarter, half and three quarters of each subfile on a
    three-level library: the prefix layer is cached by everyone and every
    demand gets exactly the uncached rest."""
    config = LibraryConfig(3, 3, 3.0, (8, 8, 8))
    alloc = CacheAllocation((0.25, 0.5, 0.75))
    report = verify_all_demands(config, alloc, scheme="cauc", seed=4)
    assert report.ok, report.violations[:3]
    assert report.max_rate == pytest.approx(cauc_rate(config, alloc))
    offsets = {rec.level: rec.layer.offset for rec in _sections(config, "cauc", alloc)}
    assert offsets == {1: 2, 2: 4, 3: 6}


def test_unknown_scheme_rejected():
    config = LibraryConfig(2, 2, 1.0, (2, 2))
    with pytest.raises(ValueError):
        verify_all_demands(config, None, scheme="magic")


def test_worst_case_demand_shapes():
    assert worst_case_demand(LibraryConfig(5, 3, 1.0, (0, 10, 0, 0, 0))) == (1, 2, 3)
    assert worst_case_demand(LibraryConfig(3, 5, 1.0, (10, 0, 0))) == (1, 2, 3, 1, 2)


def test_grid_guard_refuses_huge_sweeps():
    config = LibraryConfig(10, 7, 1.0, (105,) + (0,) * 9)
    with pytest.raises(ValueError):
        verify_all_demands(config, CacheAllocation((0.0,) * 10))


def test_csv_shape():
    config = LibraryConfig(2, 2, 0.75, (4, 4))
    alloc = CacheAllocation.from_replication((1, 1), 2)
    report = verify_all_demands(config, alloc)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "demand,measured_rate,formula_rate,decode_ok"
    assert len(lines) == 1 + 4
    assert lines[1].startswith("1-1,")
    assert all(line.endswith(",1") for line in lines[1:])


def test_formula_gap_shows_a_loose_formula():
    """Criterion 3's shape (n, k, level, t) = (2, 4, 1, 1) at F = 6000: the
    formula reads 1.5 files, but no demand vector needs more than 1.25."""
    config = single_level_config(2, 4, 1, units=500)
    assert config.file_size == 6000
    alloc = CacheAllocation.from_replication((1, 0), 4)
    report = verify_all_demands(config, alloc, seed=0)
    assert report.ok
    assert report.formula_rate == pytest.approx(1.5)
    assert report.max_rate == 1.25
    assert report.formula_gap == pytest.approx(0.25)


def test_report_ok_tracks_violations():
    good = GridReport("cacc", (), (), (), 0.0, 0.0, (), (), 0)
    bad = GridReport("cacc", (), (), (), 0.0, 0.0, (), ("boom",), 0)
    assert good.ok and not bad.ok


def test_sweep_rates_match_fresh_deliveries():
    """The sweep takes each record's bits once for every demand vector that
    sends it; spot-check that its rates equal independent single-shot runs."""
    config = single_level_config(3, 3, 2, units=2)
    alloc = CacheAllocation.from_replication((0, 1, 0), 3)
    store = ContentStore.generate(config, seed=7)
    report = verify_all_demands(config, alloc, seed=7)
    assert report.ok
    for idx in range(0, len(report.demands), 5):
        d = report.demands[idx]
        fresh = deliver(config, alloc, d, store)
        assert fresh.rate == report.measured_rates[idx]


def test_remainder_path_meets_formula_exactly():
    """(N, K, level, t) = (5, 5, 3, 1) at F = 600: the demand vectors where
    the coded steps cost more than every requester's unknown bits must come
    out at the formula's 800 bits exactly, never above it."""
    config = single_level_config(5, 5, 3, units=10)
    assert config.file_size == 600
    alloc = CacheAllocation.from_replication((0, 0, 1, 0, 0), 5)
    report = verify_all_demands(config, alloc, seed=0)
    assert report.ok, report.violations[:3]
    assert report.max_rate * config.file_size == 800
    assert report.formula_rate * config.file_size == pytest.approx(800)


def _verify_optimizer_allocations(rng, shapes):
    """What users run: for each (N, K) in `shapes`, a seeded multi-level
    library at capacities 0.2, 0.5 and 0.8 N, verified at
    `optimize_allocation`'s shares.  Many shares are fractional, so some
    levels split into two sublayers and share-0 sublayers go out as
    one-leader steps; every demand must still decode within the formula.
    Returns the sweeps with a fractional share, the sweeps with a share-0
    sublayer and the demand vectors checked."""
    fractional = share_zero = vectors = 0
    for n, k in shapes:
        sizes = [0] * n
        for level in rng.sample(range(n), rng.randint(2, n)):
            sizes[level] = rng.randint(1, 3) * divisibility_unit(k)
        for frac in (0.2, 0.5, 0.8):
            config = LibraryConfig(n, k, frac * n, tuple(sizes))
            alloc = optimize_allocation(config).alloc
            shares = [p * k for p in alloc.fractions]
            fractional += any(abs(t - round(t)) > 1e-9 for t in shares)
            share_zero += any(
                layer.t == 0 and layer.size > 0
                for level in config.levels()
                if sizes[level - 1]
                for layer in cacc_layers(config, level, shares[level - 1])
            )
            report = verify_all_demands(config, alloc, seed=rng.randrange(99))
            assert report.ok, (config, report.violations[:3])
            vectors += len(report.demands)
    return fractional, share_zero, vectors


def test_optimizer_allocations_pass_the_verifier():
    """Optimizer allocations on 8 seeded libraries with N, K <= 4."""
    rng = random.Random(6)
    shapes = ((rng.randint(2, 4), rng.randint(2, 4)) for _ in range(8))
    fractional, share_zero, _ = _verify_optimizer_allocations(rng, shapes)
    assert fractional and share_zero


def test_optimizer_allocations_pass_the_verifier_at_five():
    """Optimizer allocations on a seeded library for every (N, K) with
    N, K <= 5 and one of them 5: 21 sweeps over 15,597 demand vectors."""
    shapes = [(5, k) for k in range(2, 6)] + [(n, 5) for n in range(2, 5)]
    start = time.perf_counter()
    fractional, share_zero, vectors = _verify_optimizer_allocations(
        random.Random(5), shapes
    )
    assert fractional and share_zero
    assert vectors == 3 * sum(n**k for n, k in shapes)
    assert time.perf_counter() - start < 60


# ---------------------------------------------------------------------------
# fault injection: a broken transcript or cache must not pass the verifier

def _flip_payloads(monkeypatch, corrupt):
    """Make every emitted step go through `corrupt(record) -> payloads`."""
    real = delivery._xor_step

    def faulty(*args, **kwargs):
        rec = real(*args, **kwargs)
        return dataclasses.replace(rec, payloads=corrupt(rec))

    monkeypatch.setattr(delivery, "_xor_step", faulty)


def test_flipped_payload_bit_flags_every_demand_using_it(monkeypatch):
    """Every payload's first bit flipped: each of the 27 demand vectors
    emits a corrupted step, so each one is flagged, not only the first
    demand vector that emitted a given step."""
    config = LibraryConfig(3, 3, 3.0, (0, 12, 0))
    alloc = CacheAllocation.from_replication((0, 1, 0), 3)
    _flip_payloads(monkeypatch, lambda rec: {v: y ^ 1 for v, y in rec.payloads.items()})
    report = verify_all_demands(config, alloc, seed=0)
    assert not report.ok
    assert any("wrong bits" in v for v in report.violations)
    assert len(report.demands) == 27
    assert not any(report.decode_ok)


def test_cache_missing_a_part_is_reported(monkeypatch):
    """User 2 loses one cached part: decoding some step needs it, so the
    sweep reports missing bits or a raised decode, never a clean grid."""
    config = LibraryConfig(3, 3, 3.0, (0, 12, 0))
    alloc = CacheAllocation.from_replication((0, 1, 0), 3)
    psize = 4  # 12 bits in C(3, 1) parts
    real_place = DeliveryPlan.place

    def place_with_hole(plan):
        caches = real_place(plan)
        cache = caches[1]
        item = min(cache.known_masks)
        mask = cache.known_masks[item]
        hole = ((1 << psize) - 1) << ((mask & -mask).bit_length() - 1)
        cache.known_masks[item] &= ~hole
        cache.known_bits[item] &= ~hole
        return caches

    monkeypatch.setattr(DeliveryPlan, "place", place_with_hole)
    report = verify_all_demands(config, alloc, seed=0)
    assert not report.ok
    assert any(
        "missing bits" in v or "raised" in v for v in report.violations
    ), report.violations[:3]
    assert not all(report.decode_ok)


@pytest.mark.parametrize("capacity", [1.0, 1.5])  # share t = 1, then 1.5
def test_opaque_grid_on_shared_subfile_library(monkeypatch, capacity):
    """cicc on a library with shared subfiles works on the library seen as
    N unrelated files, where subfile {i} is file i; in the caller's library
    subfile {i} is only part of file i.  The step check reads each item's
    truth from the plan's view, so the clean sweep passes, and one flipped
    payload bit is reported as wrong bits."""
    config = LibraryConfig(3, 3, capacity, (6, 6, 6))
    store = ContentStore.generate(config, seed=2)
    transcript = DeliveryPlan(config, None, store, scheme="cicc").deliver((1, 2, 3))
    assert transcript.config == LibraryConfig(3, 3, capacity, (24, 0, 0))
    report = verify_all_demands(config, None, scheme="cicc", seed=2)
    assert report.ok, report.violations[:3]

    flipped = []

    def corrupt(rec):
        if flipped:
            return rec.payloads
        flipped.append(rec)
        v = min(rec.payloads)
        return {**rec.payloads, v: rec.payloads[v] ^ 1}

    _flip_payloads(monkeypatch, corrupt)
    report = verify_all_demands(config, None, scheme="cicc", seed=2)
    assert len(flipped) == 1
    assert any(v.endswith("wrong bits") for v in report.violations), report.violations
    assert not all(report.decode_ok)


def test_corrupt_payload_caught_through_family_xor(monkeypatch):
    """Four users, step items (A, A, A, B) at t = 1: the user set {2, 3}
    has no leader, so user 2 rebuilds its payload from the family
    {1, 3} + {1, 2}.  User 2 never reads payload {1, 3} directly; corrupting
    it must still show up as user 2's wrong bits."""
    config = LibraryConfig(2, 4, 2.0, (12, 0))
    alloc = CacheAllocation.from_replication((1, 0), 4)
    a, b = 0b01, 0b10
    target = (a, a, a, b)
    pattern, _, leaders = _pattern(target)
    assert leaders == 0b1001
    program = _step_table(4, 1).programs[1]  # user 2's
    sent = [v for _, v, _ in program if v & leaders]
    family = [_family(pattern, v) for _, v, _ in program if not v & leaders]
    assert 0b0101 not in sent and family == [(0b0011, 0b0101)]

    def corrupt(rec):
        payloads = dict(rec.payloads)
        if rec.step_items == target:
            payloads[0b0101] ^= 1
        return payloads

    _flip_payloads(monkeypatch, corrupt)
    report = verify_all_demands(config, alloc, seed=0)
    tag = "level 1 step ({1}, {1}, {1}, {2})"
    assert f"{tag}: user 2 wrong bits" in report.violations
    assert not report.decode_ok[report.demands.index((1, 1, 1, 2))]


def test_fault_first_emitted_mid_sweep_flags_exactly_its_holders(monkeypatch):
    """Only the step with pattern ({2,3}, {1,2}, {2,3}) is corrupted, and no
    demand vector emits it before the eleventh.  The sweep passes clean
    records on a fast path, so the earlier vectors must stay ok, every later
    vector that emits the broken record must be flagged, even though it was
    checked once already, and its violation must be reported once."""
    config = LibraryConfig(3, 3, 3.0, (0, 12, 0))
    alloc = CacheAllocation.from_replication((0, 1, 0), 3)
    target = (0b110, 0b011, 0b110)
    plan = DeliveryPlan(config, alloc, ContentStore.generate(config, seed=0))
    demands = list(itertools.product(range(1, 4), repeat=3))
    holders = [
        d for d in demands
        if any(rec.step_items == target for rec in plan.deliver(d).sections)
    ]
    first = demands.index(holders[0])
    assert first == 10 and len(holders) == 4

    def corrupt(rec):
        if rec.step_items != target:
            return rec.payloads
        return {v: y ^ 1 for v, y in rec.payloads.items()}

    _flip_payloads(monkeypatch, corrupt)
    report = verify_all_demands(config, alloc, seed=0)
    assert report.demands == tuple(demands)
    flagged = [d for d, ok in zip(report.demands, report.decode_ok) if not ok]
    assert flagged == holders
    assert all(report.decode_ok[:first])
    tag = "level 2 step ({2,3}, {1,2}, {2,3})"
    assert report.violations == tuple(f"{tag}: user {k} wrong bits" for k in (1, 2, 3))


def test_remainder_only_sets_share_one_result_and_one_verdict(monkeypatch):
    """cauc sends remainder steps only, so every demand set has one shared
    result: vectors of one set get equal sections, and `deliver` gives each
    transcript its own per-level dict.  With only subfile {1}'s
    records corrupted, the sweep reports that record once, and exactly the
    vectors whose set sends {1}, those demanding file 1, are not ok, also
    when a set's verdict is reused."""
    config = LibraryConfig(3, 3, 3.0, (6, 6, 0))
    alloc = CacheAllocation((0.5, 0.5, 0.0))
    plan = DeliveryPlan(config, alloc, ContentStore.generate(config, seed=0), scheme="cauc")
    first, second = plan.deliver((1, 2, 2)), plan.deliver((2, 1, 1))
    assert first.step_counts == second.step_counts == ()
    assert first.sections == second.sections
    assert first.per_level_bits == second.per_level_bits
    assert first.per_level_bits is not second.per_level_bits
    by_set = {}
    for d in itertools.product(range(1, 4), repeat=3):
        transcript = plan.deliver(d)
        assert all(p is not None for _, _, sent in plan._choice(d) for _, p in sent)
        assert transcript.sections == by_set.setdefault(frozenset(d), transcript.sections)
        assert transcript.total_bits == sum(r.bits for r in transcript.sections)

    def corrupt(rec):
        if rec.step_items != (0b001,) * 3:
            return rec.payloads
        return {v: y ^ 1 for v, y in rec.payloads.items()}

    _flip_payloads(monkeypatch, corrupt)
    report = verify_all_demands(config, alloc, scheme="cauc", seed=0)
    assert [ok for ok in report.decode_ok] == [1 not in d for d in report.demands]
    assert sum(report.decode_ok) == 8
    tag = "level 1 step ({1}, {1}, {1})"
    steps = [v for v in report.violations if not v.startswith("demand")]
    assert steps == [f"{tag}: user {k} wrong bits" for k in (1, 2, 3)]


def test_extra_payload_above_the_placed_layers_is_reported(monkeypatch):
    """(N, K) = (2, 2), sizes (4, 2), M = 0.4: placement rounds level 1's
    cached share-1 slice down to 2 of its 4 bits, so the worst delivery is
    7 bits against a nominal formula of 6.4, a rounding loss.  The gate is
    the formula at the placed layers, 7 bits: the honest deliveries pass
    it, and one extra 1-bit payload on demand (1, 2)'s share-1 step lifts
    that vector to 8 bits, and it is reported."""
    config = LibraryConfig(2, 2, 0.4, (4, 2))
    alloc = optimize_allocation(config).alloc
    plan = DeliveryPlan(config, alloc, ContentStore.generate(config, seed=0))
    assert _limit_bits(plan) == 7
    report = verify_all_demands(config, alloc)
    assert report.ok, report.violations[:3]
    assert report.max_rate * config.file_size == 7 > report.formula_rate * config.file_size

    def extra_payload(rec):
        if rec.layer.t == 1 and rec.step_items == (0b01, 0b10):
            return {**rec.payloads, 0b01: 0}
        return rec.payloads

    _flip_payloads(monkeypatch, extra_payload)
    report = verify_all_demands(config, alloc)
    assert report.max_rate * config.file_size == 8
    assert report.violations == (
        "demand (1, 2): 8 bits > 7, the formula at the placed layers",
    )
    assert report.decode_ok == (True, False, True, True)


def test_extra_payload_on_a_later_vector_of_a_set_is_reported(monkeypatch):
    """Bits are measured per demand vector, not per demand set.  On the
    library of the test above, limit 7 bits, the demand set {1, 2} is
    first sent as (1, 2), whose share-1 step has step items ({1}, {2}).
    An extra payload only on the step ({2}, {1}), which (2, 1) alone
    sends, lifts (2, 1) to 8 bits, and only (2, 1) is reported."""
    config = LibraryConfig(2, 2, 0.4, (4, 2))
    alloc = optimize_allocation(config).alloc
    plan = DeliveryPlan(config, alloc, ContentStore.generate(config, seed=0))
    late = (0b10, 0b01)
    sends = {
        d: any(r.layer.t == 1 and r.step_items == late for r in plan.deliver(d).sections)
        for d in itertools.product((1, 2), repeat=2)
    }
    assert sends == {(1, 1): False, (1, 2): False, (2, 1): True, (2, 2): False}

    def extra_payload(rec):
        if rec.layer.t == 1 and rec.step_items == late:
            return {**rec.payloads, 0b01: 0}
        return rec.payloads

    _flip_payloads(monkeypatch, extra_payload)
    report = verify_all_demands(config, alloc)
    assert report.violations == (
        "demand (2, 1): 8 bits > 7, the formula at the placed layers",
    )
    assert report.decode_ok == tuple(not sends[d] for d in report.demands)


def test_delivery_that_beats_the_converse_is_reported(monkeypatch):
    """Records that report 0 bits for the same payloads pass every other
    check: each record still decodes, and 0 bits sit under the formula.
    The sweep reads every vector's bits from its records' `bits`.  The
    converse catches it: one cache holds 6 of the 12 bits that file 1 or
    file 2 touch, and no delivery of 0 bits over 2 demand rounds (user 1
    asks for file 1, then file 2) makes up the rest.  The converse reads
    the cut-set bound's rows, whose memo holds the rows of the same sizes
    as floats first, since its key does not tell 4 from 4.0."""
    config = LibraryConfig(2, 2, 0.75, (4, 4))
    alloc = CacheAllocation.from_replication((1, 1), 2)
    _cut_totals.cache_clear()
    cutset_bound(LibraryConfig(2, 2, 0.75, (4.0, 4.0)))
    monkeypatch.setattr(StepRecord, "bits", property(lambda rec: 0))
    report = verify_all_demands(config, alloc, seed=3)
    assert report.max_rate == 0 and report.cached_bits == 6
    assert report.violations == (
        "converse at p=1, b=2: 2 x 0 worst-case bits < 12 exposed - 1 x 6 cached bits",
    )
    assert all(report.decode_ok)


def test_caches_rounded_under_budget_meet_the_converse():
    """(N, K) = (2, 2), sizes (4, 2), M = 0.4: each cache holds 2 bits of
    its 2.4-bit budget.  The converse counts what the caches hold, so the
    7-bit worst delivery passes it, and the rounding loss shows as a
    negative gap of 0.1 of a file."""
    config = LibraryConfig(2, 2, 0.4, (4, 2))
    report = verify_all_demands(config, optimize_allocation(config).alloc)
    assert report.ok, report.violations[:3]
    assert report.cached_bits == 2 <= config.cache_capacity * config.file_size
    assert report.formula_gap == pytest.approx(-0.1)


def test_worst_delivery_meets_the_placed_bound_exactly():
    """(N, K) = (3, 5), sizes (20, 20, 0), M = 1.5: the optimizer's shares
    (0.6, 0.9, 0) place level 1 at share 3 and level 2 at shares 4 and 5;
    the formula at those layers is 14 bits, and the worst delivery sends
    exactly that."""
    config = LibraryConfig(3, 5, 1.5, (20, 20, 0))
    alloc = optimize_allocation(config).alloc
    plan = DeliveryPlan(config, alloc, ContentStore.generate(config, seed=0))
    assert _limit_bits(plan) == 14
    report = verify_all_demands(config, alloc)
    assert report.ok, report.violations[:3]
    assert report.max_rate * config.file_size == 14


def test_limit_is_the_formula_on_whole_parts():
    """`_limit_bits` counts payloads in integers, the rate formulas in
    floats: on criterion 3's single-level shapes at 6,000-bit files, where
    every part is whole, the limit is the formula times F to 1e-6, for cacc
    at every integer share, cauc at shares 0 and K, and cicc at every
    M = t N / K whose share K M / N is an integer once M is clamped to the
    library: 666 cases."""
    cases = 0
    for n, k, level, config in _grid_configs():
        for t in range(k + 1):
            alloc = _level_alloc(n, k, level, t)
            runs = [("cacc", config)] + [("cauc", config)] * (t in (0, k))
            opaque = LibraryConfig(n, k, t * n / k, config.subfile_sizes)
            if reads_point(k * opaque.cache_capacity / n):
                runs.append(("cicc", opaque))
            for scheme, c in runs:
                plan = DeliveryPlan(c, alloc, ContentStore.generate(c, 0), scheme=scheme)
                want = verification._FORMULAS[scheme](c, alloc) * c.file_size
                assert _limit_bits(plan) == pytest.approx(want, rel=1e-6, abs=0), (
                    scheme, n, k, level, t,
                )
                cases += 1
    assert cases == 666


def test_payload_wider_than_its_part_is_a_fault():
    """One payload with a bit above its part size: `decode` raises for a
    member of its user set, the lane pass does not clear the record and the
    reference names the violation."""
    config = LibraryConfig(3, 3, 3.0, (0, 12, 0))
    alloc = CacheAllocation.from_replication((0, 1, 0), 3)
    store = ContentStore.generate(config, seed=0)
    plan = DeliveryPlan(config, alloc, store)
    caches = plan.place()
    demands = (1, 2, 3)
    transcript = plan.deliver(demands)
    rec = transcript.sections[0]
    v = min(rec.payloads)
    wide = dataclasses.replace(
        rec, payloads={**rec.payloads, v: rec.payloads[v] | 1 << rec.part_size}
    )
    bad = dataclasses.replace(transcript, sections=(wide,) + transcript.sections[1:])
    user = (v & -v).bit_length()  # the first member of V
    with pytest.raises(RuntimeError, match="wider than its 4-bit part"):
        decode(user, caches[user - 1], bad, demands)
    assert _lanes_clear(rec, {}, caches, plan.store)
    assert not _lanes_clear(wide, {}, caches, plan.store)
    errs = _check_step(wide, caches, plan.store)
    assert errs and all("wider than its 4-bit part" in e for e in errs), errs


def test_reference_check_words_each_violation(monkeypatch):
    """`_check_step`'s exact lines on one record: demand (1, 2)'s coded
    step at (N, K) = (2, 2), level 1 at share 1, two 2-bit parts per item,
    user 1 holding part 0 of each.  User 1 losing a bit of its own item's
    part leaves it missing bits; losing one of item {2}'s part, which its
    decode reads, makes the decode raise.  A flipped payload bit gives both
    users wrong bits, and a payload wider than its part makes both decodes
    raise.  The sweep hands every record the lane pass does not clear to
    `_check_step`; the test logs its lines per record."""
    config = LibraryConfig(2, 2, 1.0, (4, 0))
    alloc = CacheAllocation.from_replication((1, 0), 2)
    real_check, real_place = verification._check_step, DeliveryPlan.place

    def lines(dropped_item=None, corrupt=None):
        log = {}

        def logged_check(rec, *args):
            errs = log[rec.step_items] = real_check(rec, *args)
            return errs

        with monkeypatch.context() as m:
            m.setattr(verification, "_check_step", logged_check)
            if dropped_item:
                m.setattr(
                    DeliveryPlan, "place",
                    lambda plan: _with_cache(real_place(plan), 0, dropped_item, 1),
                )
            if corrupt:
                _flip_payloads(m, corrupt)
            verify_all_demands(config, alloc)
        return log.get((0b01, 0b10))

    tag = "level 1 step ({1}, {2}): "
    assert lines() is None  # the lane pass clears every clean record
    assert lines(dropped_item=0b01) == [tag + "user 1 missing bits"]
    assert lines(dropped_item=0b10) == [
        tag + "user 1 raised RuntimeError('decoder missing bits of subfile {2} at 0')"
    ]
    assert lines(corrupt=lambda rec: {v: y ^ 1 for v, y in rec.payloads.items()}) == [
        tag + "user 1 wrong bits", tag + "user 2 wrong bits"
    ]
    wide = "RuntimeError('payload of users {1,2} is wider than its 2-bit part')"
    assert lines(corrupt=lambda rec: {v: y | 4 for v, y in rec.payloads.items()}) == [
        tag + f"user 1 raised {wide}", tag + f"user 2 raised {wide}"
    ]


# ---------------------------------------------------------------------------
# the sweep by demand set against a plain per-vector sweep

def _reference_sweep(config, alloc, scheme, seed=0):
    """`verify_all_demands` as a plain loop over the demand vectors in
    product order: each vector's sections from `plan.deliver`; per user and
    delivered layer, the step items the user receives there, which must
    include every item of the layer's group touching its file, each gap
    reported once per (demand set, file, level, layer), in file order, at
    the first vector that has it; the set's remainder records first and
    then its coded records, each one checked by `_check_step` and each
    failing record reported once, at the first vector that sends it; the
    vector's bits from `plan.deliver`; the limit;
    the sampled end-to-end decodes; each cache against every share-K
    layer, which no step sends, one line per (user, subfile) it does not
    hold whole and equal to the store, every vector whose user asks for a
    file holding that subfile not ok; the converse.  Returns (measured
    rates, decode flags, violations)."""
    plan = DeliveryPlan(config, alloc, ContentStore.generate(config, seed), scheme=scheme)
    caches = plan.place()
    limit = _limit_bits(plan)
    n, k = config.n_files, config.n_users
    share_k, faults = [], []
    for level, items, layers in plan._groups:
        for layer in (p.layer for p in layers if p.layer.t == k):
            span = ((1 << layer.size) - 1) << layer.offset
            for x in items:
                for u, cache in enumerate(caches):
                    got = cache.known_bits.get(x, 0) ^ plan.store.item_bits(x)
                    if cache.known_masks.get(x, 0) & span != span or got & span:
                        faults.append((u, x))
                        share_k.append(
                            f"level {level} share-{k} layer: user {u + 1} does not hold "
                            f"subfile {_item_name(x)} as placed"
                        )
    demands = list(itertools.product(range(1, n + 1), repeat=k))
    step = max(1, len(demands) // 3)
    rates, flags, violations, reported, worst = [], [], [], set(), 0
    for idx, d in enumerate(demands):
        transcript = plan.deliver(d)
        ok, gaps = True, []
        for level, items, layers in plan._levels:
            for parts in layers:
                got = [set() for _ in d]
                for rec in transcript.sections:
                    if (rec.level, rec.layer) == (level, parts.layer):
                        for u, x in enumerate(rec.step_items):
                            got[u].add(x)
                for u, f in enumerate(d):
                    missing = {x for x in items if x >> (f - 1) & 1} - got[u]
                    if missing:
                        ok = False
                        key = (frozenset(d), f, level, parts.layer)
                        if key not in reported:
                            reported.add(key)
                            names = ", ".join(map(_item_name, sorted(missing)))
                            gaps.append((f, (
                                f"demand set {_item_name(mask_of(d))}: "
                                f"level {level} share-{parts.layer.t} layer: no step "
                                f"recovers subfile {names} for file {f}'s users"
                            )))
        violations += [line for _, line in sorted(gaps, key=lambda gap: gap[0])]
        remainder = {
            (level, parts.layer)
            for level, _, sent in plan._choice(d)
            for parts, patterns in sent
            if patterns is not None
        }
        # stable: remainder records, then coded, each in transcript order
        sections = sorted(transcript.sections, key=lambda r: (r.level, r.layer) not in remainder)
        for rec in sections:
            errs = _check_step(rec, caches, plan.store)
            if errs:
                ok = False
                key = (rec.level, rec.layer, rec.step_items)
                if key not in reported:
                    reported.add(key)
                    violations += errs
        bits = transcript.total_bits
        if bits > limit:
            violations.append(
                f"demand {d}: {bits} bits > {limit}, the formula at the placed layers"
            )
            ok = False
        if idx % step == 0:
            failures = decode_failures(caches, transcript, d, plan.store)
            violations += [f"demand {d}: {line}" for line in failures]
            ok = ok and not failures
        if any(x >> (d[u] - 1) & 1 for u, x in faults):
            ok = False
        rates.append(bits / config.file_size)
        flags.append(ok)
        worst = max(worst, bits)
    violations += share_k
    violations += _converse_misses(config, worst, plan.cached_bits())
    return tuple(rates), tuple(flags), tuple(violations)


def _assert_sweep_matches_reference(config, alloc, scheme):
    report = verify_all_demands(config, alloc, scheme=scheme, seed=0)
    rates, flags, violations = _reference_sweep(config, alloc, scheme)
    assert report.measured_rates == rates
    assert report.decode_ok == flags
    assert report.violations == violations
    return report


_SWEEP_CASES = {
    # K = 1: every demand set holds one vector
    "k1": (LibraryConfig(3, 1, 1.0, (2, 2, 2)), CacheAllocation((0.0, 1.0, 0.0))),
    # N > K: the window depends on the demand set
    "windows": (
        LibraryConfig(4, 2, 1.5, (2, 2, 2, 0)),
        CacheAllocation.from_replication((1, 1, 1, 0), 2),
    ),
    # t = K (cicc: M = N): no sublayer is delivered
    "t_is_k": (
        LibraryConfig(3, 2, 3.0, (2, 0, 0)),
        CacheAllocation.from_replication((2, 2, 2), 2),
    ),
    # fractional shares: level 2 splits into share-4 and share-5 sublayers
    "fractional": (LibraryConfig(3, 5, 1.5, (20, 20, 0)), None),
}


@pytest.mark.parametrize("scheme", ["cacc", "cauc", "cicc"])
@pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
def test_sweep_matches_a_per_vector_reference(case, scheme):
    """The sweep by demand set gives the plain per-vector sweep's rates,
    flags and violations, on every scheme: at K = 1, with several windows,
    with no delivered sublayer and with fractional shares."""
    config, alloc = _SWEEP_CASES[case]
    if alloc is None:
        alloc = optimize_allocation(config).alloc
    report = _assert_sweep_matches_reference(config, alloc, scheme)
    assert report.ok, report.violations[:3]


@pytest.mark.parametrize("scheme", ["cacc", "cauc"])
def test_faulty_sweep_matches_a_per_vector_reference(monkeypatch, scheme):
    """With faults, too, the sweep reports what the per-vector sweep
    reports, in the same order: every record that sends subfile {1, 2}
    carries a flipped bit, and every step whose first user recovers
    subfile {1} one extra payload, so records fail, vectors exceed the
    limit and sampled decodes fail, on coded and remainder records alike."""
    config = LibraryConfig(3, 3, 1.5, (6, 6, 0))
    alloc = CacheAllocation.from_replication((1, 1, 0), 3)

    def corrupt(rec):
        payloads = rec.payloads
        if 0b011 in rec.step_items:
            payloads = {v: y ^ 1 for v, y in payloads.items()}
        if rec.step_items[0] == 0b001:
            payloads = {**payloads, 0: 0}
        return payloads

    _flip_payloads(monkeypatch, corrupt)
    report = _assert_sweep_matches_reference(config, alloc, scheme)
    for kind in ("wrong bits", "decode mismatch", "the formula at the placed layers"):
        assert any(v.endswith(kind) for v in report.violations), kind
    assert not all(report.decode_ok) and any(report.decode_ok)


@pytest.mark.parametrize("scheme", ["cacc", "cauc"])
@pytest.mark.parametrize("fault", ["dropped bit", "wrong bit"])
def test_sweep_with_a_cache_fault_matches_a_per_vector_reference(monkeypatch, scheme, fault):
    """A cache fault meets the sweep's records and its first sampled decode,
    of demand (1, 1, 1): user 1's copy of subfile {1} loses or flips its
    lowest cached bit.  The lane pass and the sampled decodes share one
    table of the parts every cache holds exactly, and the fault must hide
    from neither: the sweep reports what the per-vector sweep reports, which
    checks every record and decodes every sampled vector from the caches.
    cacc's faulty bit lies in a delivered share-1 layer, so records fail
    too; cauc's lies in its share-K prefix, which no step sends, so the
    decode and the sweep's check of each cache against its share-K layers
    see it."""
    config = LibraryConfig(3, 3, 1.5, (6, 6, 0))
    alloc = CacheAllocation.from_replication((1, 1, 0), 3)
    real_place = DeliveryPlan.place

    def faulty_place(plan):
        caches = real_place(plan)
        mask = caches[0].known_masks[0b001]
        bit = mask & -mask
        if fault == "dropped bit":
            return _with_cache(caches, 0, 0b001, mask_fault=bit)
        return _with_cache(caches, 0, 0b001, bit_fault=bit)

    monkeypatch.setattr(DeliveryPlan, "place", faulty_place)
    report = _assert_sweep_matches_reference(config, alloc, scheme)
    assert any(v.startswith("demand (1, 1, 1): user 1 decode") for v in report.violations)
    assert any(" step (" in v for v in report.violations) == (scheme == "cacc")
    assert any(" share-3 layer: " in v for v in report.violations) == (scheme == "cauc")
    assert not report.decode_ok[0]


@pytest.mark.parametrize("scheme, alloc", [
    ("cauc", CacheAllocation((1 / 3, 1 / 3, 0.0))),  # a 2-bit share-K prefix
    ("cacc", CacheAllocation.from_replication((3, 0, 0), 3)),  # level 1 whole at t = K
])
def test_cache_fault_in_a_share_k_layer_is_reported(monkeypatch, scheme, alloc):
    """No step sends a share-K layer, and no sampled decode of this grid
    has user 3 ask for file 2: with user 3's lowest cached bit of subfile
    {2} dropped, the sweep's check of each cache against its share-K
    layers reports that (user, subfile) once, and exactly the vectors in
    which user 3 asks for file 2 are not ok."""
    config = LibraryConfig(3, 3, 2.0, (6, 6, 0))
    real_place = DeliveryPlan.place

    def faulty_place(plan):
        caches = real_place(plan)
        mask = caches[2].known_masks[0b010]
        return _with_cache(caches, 2, 0b010, mask_fault=mask & -mask)

    monkeypatch.setattr(DeliveryPlan, "place", faulty_place)
    report = _assert_sweep_matches_reference(config, alloc, scheme)
    assert report.violations == (
        "level 1 share-3 layer: user 3 does not hold subfile {2} as placed",
    )
    assert report.decode_ok == tuple(d[2] != 2 for d in report.demands)


def test_sweep_of_a_plan_that_delivers_nothing_builds_no_step(monkeypatch):
    """At t = K every cache holds the whole library: the sweep builds no
    step record, yet still runs its sampled end-to-end decodes."""
    config = LibraryConfig(3, 2, 3.0, (2, 2, 2))
    alloc = CacheAllocation.from_replication((2, 2, 2), 2)
    built, decoded = [], []

    def counting_xor_step(*args):
        built.append(args)
        return real_xor_step(*args)

    def counting_decode_failures(*args):
        decoded.append(args[2])
        return real_decode_failures(*args)

    real_xor_step, real_decode_failures = delivery._xor_step, verification.decode_failures
    monkeypatch.setattr(delivery, "_xor_step", counting_xor_step)
    monkeypatch.setattr(verification, "decode_failures", counting_decode_failures)
    report = verify_all_demands(config, alloc)
    assert report.ok and report.max_rate == 0
    assert built == []
    assert decoded == [(1, 1), (2, 1), (3, 1)]


def test_sweep_keeps_no_record_past_its_check():
    """The sweep drops each record once it is checked.  cicc at N = K = 5,
    m = 2 over 50,400-bit files sends one coded step per vector and never
    the same one twice: 3,125 records whose payloads alone take 21.6 MiB.
    The sweep's traced peak stays under 8 MiB."""
    config = LibraryConfig(5, 5, 2.0, (50400, 0, 0, 0, 0))
    tracemalloc.start()
    try:
        report = verify_all_demands(config, None, scheme="cicc", seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 8 * 2**20, peak


# ---------------------------------------------------------------------------
# the lane pass against the reference step check

@pytest.mark.parametrize("k", range(1, 8))
def test_lane_identity_matches_every_step(k):
    """For every t < K and equality pattern of K step items, with random
    part contents: the XOR of the members' lifts of their true step items
    (`_ExactParts.lift`) equals, lane by lane, `_xor_step`'s payload on each
    sent lane and the XOR of the lane's family on each unsent lane, so the
    packed record XOR the lifts is 0 exactly when every lane's payload is
    right.
    Over K <= 7 that is 7,697 records."""
    rng = random.Random(22 + k)
    for t in range(k):
        psize, offset = rng.randint(1, 5), rng.randint(0, 3)
        layer = LayerSpec(t, offset, psize * comb0(k, t))
        lanes = part_labels(k, t + 1)
        store = _Store({x: rng.getrandbits(offset + layer.size) for x in range(1, k + 1)})
        caches = [UserCache(u, dict.fromkeys(store, -1), dict(store)) for u in range(1, k + 1)]
        views = _ExactParts(layer, caches, store)
        parts = _LayerParts(store.item_bits, layer, k)
        for pattern in _equality_patterns(k):
            items = tuple(c + 1 for c in pattern)
            rec = _xor_step(1, items, parts)
            lifted = 0
            for u, x in enumerate(items):
                lifted ^= views.lift(x)[u]
            for l, v in enumerate(lanes):
                if v & rec.leader_mask:
                    want = rec.payloads[v]
                else:
                    want = 0
                    for w in _family(rec.pattern, v):
                        want ^= rec.payloads[w]
                assert lifted >> l * psize & (1 << psize) - 1 == want, (t, pattern, l)
            assert not lifted >> len(lanes) * psize


def test_lane_views_need_every_cache_exact():
    """`_ExactParts` gives an item's store parts, and the lane pass its
    lifts, only while every cache holds its parts of it exactly: one user's
    dropped part or wrong bit of item x, in a layer above offset 0, makes
    views[x] and its lift None and leaves the other items' parts as they
    were, which are the store's.  A clean entry is its own split, equal to
    the plan's encoder part list of the item but never that list."""
    config = LibraryConfig(3, 3, 3.0, (0, 12, 0))
    alloc = CacheAllocation.from_replication((0, 2.5, 0), 3)
    store = ContentStore.generate(config, seed=4)
    plan = DeliveryPlan(config, alloc, store)
    caches = plan.place()
    [(_, items, [parts])] = plan._levels  # the share-3 slice below it is not delivered
    layer, psize = parts.layer, parts.psize
    assert layer.t == 2 and layer.offset > 0
    clean = _ExactParts(layer, caches, plan.store)
    assert all(clean[x] is not None for x in items)
    assert all(
        clean[x] == _LayerParts(plan.store.item_bits, layer, 3)[x] for x in items
    )
    assert all(clean[x] == parts[x] and clean[x] is not parts[x] for x in items)
    for k in range(3):
        for j in _step_table(3, layer.t).held[k]:
            pos = layer.offset + j * psize
            part = ((1 << psize) - 1) << pos
            for x in items:
                for bad in (
                    _with_cache(caches, k, x, mask_fault=part),
                    _with_cache(caches, k, x, bit_fault=1 << pos + psize - 1),
                ):
                    views = _ExactParts(layer, bad, plan.store)
                    assert views.lift(x) is None and views[x] is None, (k, j, x)
                    assert all(views[y] == clean[y] for y in items if y != x)


class _Store(dict):
    """A content store of plain items, for tests that need only item_bits."""

    item_bits = dict.__getitem__


def _fault_cases():
    """Every shape at N, K <= 4: each level at each integer share t < K,
    and at share t + 1/2, which splits the level into a share-(t + 1)
    layer and a share-t layer above it at offset > 0; cicc at a fractional share K*M/N; and
    cauc, whose share-0 rest lies above its prefix."""
    for n in range(1, 5):
        for k in range(1, 5):
            for level in range(1, n + 1):
                counts = [0] * n
                for t in range(k):
                    for share, units in ((t, 1), (t + 0.5, 2)):
                        counts[level - 1] = share
                        alloc = CacheAllocation.from_replication(counts, k)
                        yield single_level_config(n, k, level, units), alloc, "cacc"
                config = single_level_config(n, k, level, units=2)
                counts[level - 1] = 0.5
                yield config, CacheAllocation(tuple(counts)), "cauc"
            if k * 0.5 % n:
                yield single_level_config(n, k, 1, units=2, capacity=0.5), None, "cicc"


def _with_cache(caches, k, item, mask_fault=0, bit_fault=0):
    """The caches, with user k + 1's copy missing `mask_fault` of item and
    its bits at `bit_fault` flipped."""
    cache = caches[k]
    masks, bits = dict(cache.known_masks), dict(cache.known_bits)
    masks[item] = masks.get(item, 0) & ~mask_fault
    bits[item] = (bits.get(item, 0) & ~mask_fault) ^ bit_fault
    out = list(caches)
    out[k] = UserCache(cache.user, masks, bits)
    return out


def _faults(rec, caches, rng):
    """One of each fault for `rec`, as (kind, record, caches)."""
    v = rng.choice(sorted(rec.payloads))
    psize = rec.part_size
    y = rec.payloads[v]
    missing = dict(rec.payloads)
    del missing[v]
    for kind, payloads in (
        ("flipped payload bit", {**rec.payloads, v: y ^ 1 << rng.randrange(psize)}),
        ("oversized payload", {**rec.payloads, v: y | 1 << psize}),
        ("missing payload key", missing),
    ):
        yield kind, dataclasses.replace(rec, payloads=payloads), caches
    pairs = [
        (v, w) for v, w in itertools.combinations(sorted(rec.payloads), 2)
        if rec.payloads[v] != rec.payloads[w]
    ]
    if pairs:
        v, w = rng.choice(pairs)
        swapped = {**rec.payloads, v: rec.payloads[w], w: rec.payloads[v]}
        yield "swapped payloads", dataclasses.replace(rec, payloads=swapped), caches
    k = rng.randrange(len(caches))
    held = _step_table(len(caches), rec.layer.t).held[k]
    if not held:  # a share-0 layer: the user caches nothing of it
        return
    pos = rec.layer.offset + rng.choice(held) * psize
    part, bit = ((1 << psize) - 1) << pos, 1 << pos + rng.randrange(psize)
    own = rec.step_items[k]
    yield "dropped cached part", rec, _with_cache(caches, k, rng.choice(rec.classes), part)
    yield "dropped cached bit, own item", rec, _with_cache(caches, k, own, bit)
    yield "wrong cached bit, own item", rec, _with_cache(caches, k, own, bit_fault=bit)
    others = [x for x in rec.classes if x != own]
    if others:
        item = rng.choice(others)
        yield "dropped cached bit, other item", rec, _with_cache(caches, k, item, bit)
        yield "wrong cached bit, other item", rec, _with_cache(caches, k, item, bit_fault=bit)


def test_lane_pass_never_clears_a_failing_record():
    """The lane pass clears every clean record of each sweep at N, K <= 4.
    With each fault injected in turn into up to four records per layer, it
    clears none that `_check_step`, the reference, fails."""
    rng = random.Random(18)
    flagged = dict.fromkeys(
        ["flipped payload bit", "oversized payload", "missing payload key",
         "swapped payloads", "dropped cached part", "dropped cached bit, own item",
         "wrong cached bit, own item", "dropped cached bit, other item",
         "wrong cached bit, other item"], 0,
    )
    offsets = set()
    for config, alloc, scheme in _fault_cases():
        store = ContentStore.generate(config, seed=rng.randrange(99))
        plan = DeliveryPlan(config, alloc, store, scheme=scheme)
        caches = plan.place()
        n, k = config.n_files, config.n_users
        records = {
            id(rec): rec
            for d in itertools.product(range(1, n + 1), repeat=k)
            for rec in plan.deliver(d).sections
        }
        lane_views = {}
        by_layer = {}
        for rec in records.values():
            assert _lanes_clear(rec, lane_views, caches, plan.store)
            by_layer.setdefault(rec.layer, []).append(rec)
        for layer, recs in by_layer.items():
            offsets.add((scheme, layer.offset > 0))
            for rec in rng.sample(recs, min(len(recs), 4)):
                assert _check_step(rec, caches, plan.store) == []
                for kind, bad, bad_caches in _faults(rec, caches, rng):
                    errs = _check_step(bad, bad_caches, plan.store)
                    if errs:
                        assert not _lanes_clear(bad, {}, bad_caches, plan.store), (kind, errs)
                        flagged[kind] += 1
                    else:
                        assert kind not in (
                            "flipped payload bit", "oversized payload", "missing payload key",
                            "swapped payloads",
                        )
    assert all(flagged.values()), flagged
    assert offsets == {("cacc", False), ("cicc", False)} | {
        (s, True) for s in ("cacc", "cauc", "cicc")
    }


# ---------------------------------------------------------------------------
# the end-to-end decode check against a decode that reads only the caches

def _cache_only_failures(caches, transcript, demands, store):
    """`decode_failures`' lines from decodes that read only the caches: each
    user through `_decoded_items` with a plain {} part reader."""
    out = []
    for user in range(1, len(demands) + 1):
        try:
            got = _decoded_items(user, caches[user - 1], transcript, demands, {})
        except Exception as exc:  # noqa: BLE001 - worded like decode_failures
            out.append(f"user {user} decode raised {exc!r}")
            continue
        if any(bits != store.item_bits(item) for item, _, bits in got):
            out.append(f"user {user} decode mismatch")
    return out


def test_decode_check_reads_the_store_only_where_every_cache_is_exact(monkeypatch):
    """On every fault shape, `decode_failures` returns exactly the lines of
    decodes that read only the caches, with clean caches and with each
    cache fault of `_faults` (a dropped part, a dropped or wrong bit, of
    the user's own item or another) in a record of the transcript.  With
    clean caches every part comes from the shared table, each (item, layer)
    split from the store once per call, and no cached part is read."""
    splits, cached_reads = [], []
    real_missing, real_cached = _ExactParts.__missing__, delivery._CachedParts

    def counting_missing(table, x):
        splits.append((table.offset, table.psize, x))
        return real_missing(table, x)

    class CountingCachedParts(real_cached):
        __slots__ = ()

        def __init__(self, *args):
            cached_reads.append(args)
            super().__init__(*args)

    monkeypatch.setattr(_ExactParts, "__missing__", counting_missing)
    monkeypatch.setattr(delivery, "_CachedParts", CountingCachedParts)
    rng = random.Random(29)
    kinds = {}
    for config, alloc, scheme in _fault_cases():
        plan = DeliveryPlan(config, alloc, ContentStore.generate(config, seed=rng.randrange(99)),
                            scheme=scheme)
        caches, store = plan.place(), plan.store
        n, k = config.n_files, config.n_users
        vectors = {worst_case_demand(config)} | {
            tuple(rng.randint(1, n) for _ in range(k)) for _ in range(2)
        }
        for d in sorted(vectors):
            transcript = plan.deliver(d)
            del splits[:], cached_reads[:]
            assert decode_failures(caches, transcript, d, store) == []
            assert splits and len(set(splits)) == len(splits), splits
            assert cached_reads == []
            assert _cache_only_failures(caches, transcript, d, store) == []
            for rec in transcript.sections:
                for kind, _, bad in _faults(rec, caches, rng):
                    if bad is caches:
                        continue  # a payload fault: this test faults caches only
                    want = _cache_only_failures(bad, transcript, d, store)
                    assert decode_failures(bad, transcript, d, store) == want, (kind, d)
                    seen, failing = kinds.get(kind, (0, 0))
                    kinds[kind] = (seen + 1, failing + bool(want))
    assert sorted(kinds) == [
        "dropped cached bit, other item", "dropped cached bit, own item",
        "dropped cached part", "wrong cached bit, other item", "wrong cached bit, own item",
    ]
    assert all(failing for _, failing in kinds.values()), kinds


# ---------------------------------------------------------------------------
# the mutant table: faults in what the plan sends, which the sweep must report

def _in_set_23(mutate):
    """A patch of `DeliveryPlan._choice` that applies `mutate` to the choice
    of demand set {2, 3} only; no sampled vector of the grids below has it."""
    real = DeliveryPlan._choice

    def choice(plan, demands):
        per_set = real(plan, demands)
        return mutate(per_set) if set(demands) == {2, 3} else per_set

    return lambda mp: mp.setattr(DeliveryPlan, "_choice", choice)


def _remainders(edit):
    """A choice with `edit` applied to each remainder layer's step patterns."""
    return lambda per_set: tuple(
        (level, table, tuple((p, pats if pats is None else edit(pats)) for p, pats in sent))
        for level, table, sent in per_set
    )


def _columns(edit):
    """A choice with `edit` applied to each group's column table."""
    return lambda per_set: tuple(
        (level, table if table is None else edit(table), sent)
        for level, table, sent in per_set
    )


def _swap_2_3(table):
    """The column table with files 2 and 3 swapped in its first column."""
    row = list(table[0])
    row[2], row[3] = row[3], row[2]
    return (tuple(row),) + table[1:]


class _ShortRecord(StepRecord):
    """A record that reports one bit fewer than its payloads hold."""

    __slots__ = ()

    @property
    def bits(self):
        return StepRecord.bits.fget(self) - 1


def _on_record(step_items, edit):
    """A patch of `_xor_step` that applies `edit` to the record of `step_items`."""
    real = delivery._xor_step

    def xor_step(*args):
        rec = real(*args)
        return edit(rec) if rec.step_items == step_items else rec

    return lambda mp: mp.setattr(delivery, "_xor_step", xor_step)


def _short(rec):
    return _ShortRecord(*(getattr(rec, f.name) for f in dataclasses.fields(rec)))


def _flip(rec):
    payloads = dict(rec.payloads)
    payloads[min(payloads)] ^= 1
    return dataclasses.replace(rec, payloads=payloads)


def _escapes(item, why):
    """The mark of a mutant that no check kills yet, naming the ROADMAP item
    that will.  Only a missed kill may fail the row: a patch that no longer
    does what its row says fails it through `pytest.fail`."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {item}: {why}")


# (name, patch, shape (scheme, N, K, level, t), expected): expected is the
# number of vectors the patch touches and of those whose bits it changes,
# or None for a patch that changes no output and so is no mutant.
_MUTANTS = [
    pytest.param(
        "omit a remainder step", _in_set_23(_remainders(lambda p: p[:-1])),
        ("cauc", 3, 3, 1, 0), (6, 6),
        id="omit remainder",
    ),
    pytest.param(
        "omit the first coded column", _in_set_23(_columns(lambda table: table[1:])),
        ("cacc", 4, 4, 2, 1), (14, 14),
        id="omit column",
    ),
    pytest.param(
        "swap files 2 and 3 in the first column", _in_set_23(_columns(_swap_2_3)),
        ("cacc", 4, 4, 2, 1), (14, 0),
        id="swap column",
    ),
    pytest.param(
        "duplicate a remainder step", _in_set_23(_remainders(lambda p: p + p[:1])),
        ("cauc", 3, 3, 1, 0), (6, 6),
        marks=_escapes(2, "no exact per-set bit count, only the limit from above"),
        id="duplicate remainder",
    ),
    # at (3, 3) the worst vector sends every cauc record; at (3, 2) the
    # worst, (1, 2), does not send subfile {3}'s
    pytest.param(
        "under-report one record's bits by 1", _on_record((0b100,) * 2, _short),
        ("cauc", 3, 2, 1, 0), (5, 5),
        marks=_escapes(3, "the converse is checked on the worst vector only"),
        id="under-report",
    ),
    pytest.param(
        "flip one payload bit of one record", _on_record((0b0011, 0b1100) * 2, _flip),
        ("cacc", 4, 4, 2, 1), (16, 0),
        id="flip payload bit",
    ),
    pytest.param(
        "swap files 2 and 3 in the first column at (3, 3, 2, 1)",
        _in_set_23(_columns(_swap_2_3)), ("cacc", 3, 3, 2, 1), None,
        id="swap at (3, 3, 2, 1)",
    ),
]


def _run_mutant(monkeypatch, patch, shape):
    """(unpatched report, patched report, the vectors whose transcript the
    patch changes, those whose bits it changes).  The transcripts come from
    one fresh plan before the patch and one after it."""
    scheme, n, k, level, t = shape
    config = single_level_config(n, k, level)
    alloc = CacheAllocation.from_replication([t * (l == level) for l in range(1, n + 1)], k)

    def sent():
        store = ContentStore.generate(config, seed=0)
        plan = DeliveryPlan(config, alloc, store, scheme=scheme)
        out = {}
        for d in itertools.product(range(1, n + 1), repeat=k):
            transcript = plan.deliver(d)
            records = [(r.step_items, r.payloads, r.bits) for r in transcript.sections]
            out[d] = (records, transcript.total_bits)
        return out

    base, before = verify_all_demands(config, alloc, scheme=scheme), sent()
    patch(monkeypatch)
    report, after = verify_all_demands(config, alloc, scheme=scheme), sent()
    touched = {d for d in before if before[d] != after[d]}
    rebitted = {d for d in touched if before[d][1] != after[d][1]}
    return base, report, touched, rebitted


def _killed(report, touched) -> bool:
    """Whether the sweep reports the mutant on exactly the vectors it touches."""
    flagged = {d for d, ok in zip(report.demands, report.decode_ok) if not ok}
    return not report.ok and flagged == touched


@pytest.mark.parametrize("name, patch, shape, expected", _MUTANTS)
def test_mutant_table(monkeypatch, name, patch, shape, expected):
    """Each mutant changes one thing in what the plan sends, and the sweep
    must report it on exactly the vectors it touches.  A patch that
    changes no transcript is no mutant: the report must stay as it is."""
    base, report, touched, rebitted = _run_mutant(monkeypatch, patch, shape)
    if expected is None:
        assert not touched and report == base
        return
    if (len(touched), len(rebitted)) != expected:
        pytest.fail(f"{name}: touches {len(touched)} vectors, {len(rebitted)} in bits")
    assert _killed(report, touched), report.violations


def test_mutant_table_kill_count(monkeypatch):
    """The kill count over the table, printed like the acceptance criteria.
    The killed mutants are exactly the rows that no ROADMAP item marks."""
    mutants = [row for row in _MUTANTS if row.values[3] is not None]
    killed = []
    for row in mutants:
        name, patch, shape, _ = row.values
        with monkeypatch.context() as mp:
            _, report, touched, _ = _run_mutant(mp, patch, shape)
        if _killed(report, touched):
            killed.append(name)
    print(f"mutant table: {len(killed)} of {len(mutants)} mutants killed")
    assert killed == [row.values[0] for row in mutants if not row.marks]
    assert (len(killed), len(mutants)) == (4, 6)


@pytest.mark.parametrize(
    "patch, shape", [row.values[1:3] for row in _MUTANTS[:3]], ids=[row.id for row in _MUTANTS[:3]]
)
def test_completeness_matches_the_per_vector_reference(monkeypatch, patch, shape):
    """On the three plans whose steps miss a part some users lack, the
    sweep's per-set completeness check reports what the per-vector
    reference, which reads each user's received step items off every
    vector's transcript, reports: the same lines, in the same order, and
    the same vectors not ok."""
    scheme, n, k, level, t = shape
    config = single_level_config(n, k, level)
    alloc = CacheAllocation.from_replication([t * (l == level) for l in range(1, n + 1)], k)
    patch(monkeypatch)
    assert not _assert_sweep_matches_reference(config, alloc, scheme).ok


def test_completeness_lines_name_each_file_and_layer_gap(monkeypatch):
    """With the first coded column gone from demand set {2, 3}, users
    asking for file 2 miss subfile {1,2} and those asking for file 3 miss
    {3,4}: one line per (set, file, level, layer), in file order, and
    every vector of the set is not ok."""
    omit_column = _in_set_23(_columns(lambda table: table[1:]))
    _, report, touched, _ = _run_mutant(monkeypatch, omit_column, ("cacc", 4, 4, 2, 1))
    assert report.violations == tuple(
        f"demand set {{2,3}}: level 2 share-1 layer: no step recovers subfile {x} "
        f"for file {f}'s users"
        for f, x in [(2, "{1,2}"), (3, "{3,4}")]
    )
    assert {d for d, ok in zip(report.demands, report.decode_ok) if not ok} == touched
    assert touched == {d for d in report.demands if set(d) == {2, 3}}


# ---------------------------------------------------------------------------
# the paper's headline claim, measured

def test_cacc_worst_delivery_above_cicc_only_with_n_below_k():
    """Level-1-only libraries (unrelated files) at N, K <= 4, 10 divisibility
    units, M = 0.2, 0.4, ... below N: cacc's worst delivery at the
    optimizer's allocation exceeds cicc's only where N < K, on 4 of the 184
    sweeps, all at (N, K) = (2, 4).  Alpha's N + 1 items per level-1 step
    lift cacc's envelope above cicc's, so cacc memory-shares between shares
    farther apart than a delivery needs."""
    sweeps, above = 0, []
    for n, k in itertools.product(range(1, 5), repeat=2):
        for j in range(1, 5 * n):
            config = single_level_config(n, k, 1, units=10, capacity=j / 5)
            cacc = verify_all_demands(config, optimize_allocation(config).alloc).max_rate
            cicc = verify_all_demands(config, None, scheme="cicc").max_rate
            sweeps += 1
            if cacc > cicc:
                above.append((n, k, j / 5))
    assert sweeps == 184
    assert [(n, k) for n, k, _ in above] == [(2, 4)] * 4
