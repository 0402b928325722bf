import dataclasses
import itertools
import random
import time

import pytest

from conftest import single_level_config
from corrcache import (
    CacheAllocation,
    ContentStore,
    DeliveryPlan,
    GridReport,
    LibraryConfig,
    cauc_rate,
    deliver,
    optimize_allocation,
    verify_all_demands,
    worst_case_demand,
)
from corrcache import delivery, verification
from corrcache.combinat import divisibility_unit
from corrcache.delivery import _family, _pattern, _step_table, cacc_layers


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


def _sections(config, scheme, alloc=None):
    store = ContentStore.generate(config, seed=3)
    plan = DeliveryPlan(config, alloc, store, scheme=scheme)
    return plan.deliver(worst_case_demand(config)).sections


@pytest.mark.parametrize(
    "config",
    [
        LibraryConfig(3, 3, 1.5, (6, 6, 6)),
        LibraryConfig(4, 3, 2.2, (6, 0, 6, 6)),
        LibraryConfig(2, 4, 0.7, (12, 12)),
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
    good = GridReport("cacc", (), (), (), 0.0, 0.0, (), ())
    bad = GridReport("cacc", (), (), (), 0.0, 0.0, (), ("boom",))
    assert good.ok and not bad.ok


def test_sweep_rates_match_fresh_deliveries():
    """The sweep memoizes sections across demand vectors; spot-check that the
    memoized rates equal independent single-shot runs."""
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
    real_place = verification.place

    def place_with_hole(*args, **kwargs):
        caches = real_place(*args, **kwargs)
        cache = caches[1]
        item = min(cache.known_masks)
        mask = cache.known_masks[item]
        hole = ((1 << psize) - 1) << ((mask & -mask).bit_length() - 1)
        cache.known_masks[item] &= ~hole
        cache.known_bits[item] &= ~hole
        return caches

    monkeypatch.setattr(verification, "place", place_with_hole)
    report = verify_all_demands(config, alloc, seed=0)
    assert not report.ok
    assert any(
        "missing bits" in v or "raised" in v for v in report.violations
    ), report.violations[:3]
    assert not all(report.decode_ok)


def test_corrupt_payload_caught_through_family_xor(monkeypatch):
    """Four users, step items (A, A, A, B) at t = 1: the user set {2, 3}
    has no leader, so user 2 rebuilds its payload from the family
    {1, 3} + {1, 2}.  User 2 never reads payload {1, 3} directly; corrupting
    it must still show up as user 2's wrong bits."""
    config = LibraryConfig(2, 4, 2.0, (12, 0))
    alloc = CacheAllocation.from_replication((1, 0), 4)
    a, b = ("sub", 0b01), ("sub", 0b10)
    target = (a, a, a, b)
    pattern, _ = _pattern(target)
    leaders = 0b1001
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
    tag = f"level 1 step {target}"
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
    target = (("sub", 0b110), ("sub", 0b011), ("sub", 0b110))
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
    tag = f"level 2 step {target}"
    assert report.violations == tuple(f"{tag}: user {k} wrong bits" for k in (1, 2, 3))
