import dataclasses
import itertools
import random

import pytest

from conftest import single_level_config
from test_transcripts import cases
from corrcache import (
    CacheAllocation,
    ContentStore,
    DeliveryPlan,
    LibraryConfig,
    build_level_curve,
    cacc_rate,
    cauc_deliver,
    cauc_rate,
    decode,
    deliver,
    place,
)
from corrcache import delivery
from corrcache.combinat import comb0, members_of, part_labels, step_payloads
from corrcache.delivery import (
    LayerSpec,
    StepRecord,
    _CachedParts,
    _decode_parts,
    _part_templates,
    _pattern,
    _step_table,
    _window,
    _xor_step,
    cacc_layers,
)


def fixture_config(f2=100):
    return LibraryConfig(5, 5, 1.0, (0, f2, 0, 0, 0))


def t_alloc(counts, k):
    return CacheAllocation.from_replication(counts, k)


def decode_all(config, caches, transcript, demands, store):
    for user in range(1, config.n_users + 1):
        assert decode(user, caches[user - 1], transcript, demands) == store.file_bits(
            demands[user - 1]
        ), f"user {user} decoded wrong bits"


# ---------------------------------------------------------------------------
# coded delivery over the shipped fixture schedule

def test_fixture_delivery_distinct_demands():
    """Five users demanding five distinct files over the one-level library:
    4 steps of 9 payload groups, 36 fifths of a subfile on air."""
    config = fixture_config()
    store = ContentStore.generate(config, seed=0)
    alloc = t_alloc((0, 1, 0, 0, 0), 5)
    caches = place(config, alloc, store)
    transcript = deliver(
        config, alloc, (1, 2, 3, 4, 5), store, schedule_source="example1"
    )
    assert transcript.total_bits == 36 * config.level_size(2) // 5
    assert transcript.step_counts == (9, 9, 9, 9)
    decode_all(config, caches, transcript, (1, 2, 3, 4, 5), store)


def test_fixture_delivery_repeated_demands():
    """Repeats shrink some steps: 30 fifths instead of 36."""
    config = fixture_config()
    store = ContentStore.generate(config, seed=0)
    alloc = t_alloc((0, 1, 0, 0, 0), 5)
    caches = place(config, alloc, store)
    demands = (1, 1, 1, 3, 4)
    transcript = deliver(
        config, alloc, demands, store, schedule_source="example1"
    )
    assert transcript.total_bits == 30 * config.level_size(2) // 5
    assert transcript.step_counts == (7, 9, 7, 7)
    decode_all(config, caches, transcript, demands, store)


def test_single_step_payload_shape():
    """Each coded step of the fixture sends 9 payload groups of F2/5 bits,
    and every group contains at least one leader."""
    config = fixture_config()
    store = ContentStore.generate(config, seed=0)
    alloc = t_alloc((0, 1, 0, 0, 0), 5)
    transcript = deliver(
        config, alloc, (1, 2, 3, 4, 5), store, schedule_source="example1"
    )
    assert len(transcript.sections) == 4
    for rec in transcript.sections:
        assert isinstance(rec, StepRecord)
        assert len(rec.payloads) == 9
        assert rec.part_size == config.level_size(2) // 5
        assert rec.bits == 9 * rec.part_size
        assert all(v & rec.leader_mask for v in rec.payloads)


def test_transcript_dump_and_transmissions():
    """The section records account for every transmitted bit, and each is
    a leader-based XOR step."""
    config = fixture_config()
    store = ContentStore.generate(config, seed=0)
    alloc = t_alloc((0, 1, 0, 0, 0), 5)
    transcript = deliver(config, alloc, (1, 2, 3, 4, 5), store)
    assert sum(rec.bits for rec in transcript.sections) == transcript.total_bits
    assert all(isinstance(rec, StepRecord) for rec in transcript.sections)


def test_generated_schedule_matches_fixture_totals():
    """Totals are schedule-independent for distinct demands: any valid
    schedule of the same shape yields the same step count sum."""
    config = fixture_config()
    store = ContentStore.generate(config, seed=0)
    alloc = t_alloc((0, 1, 0, 0, 0), 5)
    caches = place(config, alloc, store)
    transcript = deliver(config, alloc, (1, 2, 3, 4, 5), store, seed=5)
    assert transcript.total_bits == 36 * config.level_size(2) // 5
    decode_all(config, caches, transcript, (1, 2, 3, 4, 5), store)


# ---------------------------------------------------------------------------
# placement

def test_place_splits_at_integer_share():
    config = single_level_config(5, 5, 2, units=1, capacity=1.0)
    store = ContentStore.generate(config, seed=1)
    caches = place(config, t_alloc((0, 2, 0, 0, 0), 5), store)
    f2 = config.level_size(2)
    for cache in caches:
        assert cache.total_bits() == 2 * 10 * f2 // 5
        assert cache.total_bits() <= config.cache_capacity * config.file_size
    # cached bits are true content bits
    m = 0b00011
    got = caches[0].known_bits[m]
    mask = caches[0].known_masks[m]
    assert got == store.item_bits(m) & mask


def test_place_rejects_overcommitted_allocation():
    config = single_level_config(5, 5, 2, units=1, capacity=0.1)
    store = ContentStore.generate(config, seed=1)
    with pytest.raises(ValueError):
        place(config, t_alloc((0, 5, 0, 0, 0), 5), store)


def test_cauc_place_prefixes():
    config = LibraryConfig(2, 2, 1.0, (4, 4))
    store = ContentStore.generate(config, seed=2)
    caches = place(config, CacheAllocation((0.5, 0.25)), store, scheme="cauc")
    for cache in caches:
        assert cache.known_masks[0b01] == 0b0011
        assert cache.known_masks[0b11] == 0b0001
        assert cache.total_bits() == 2 * 2 + 1


# ---------------------------------------------------------------------------
# uncoded delivery

def test_uncoded_delivery_ships_remainders():
    config = LibraryConfig(2, 2, 0.0, (1, 1))
    store = ContentStore.generate(config, seed=0)
    alloc = CacheAllocation((0.0, 0.0))
    caches = place(config, alloc, store, scheme="cauc")
    transcript = DeliveryPlan(config, alloc, store, scheme="cauc").deliver((1, 2))
    assert transcript.total_bits == 3
    assert transcript.rate == pytest.approx(1.5)
    decode_all(config, caches, transcript, (1, 2), store)


def test_uncoded_delivery_skips_unrequested():
    config = LibraryConfig(2, 2, 0.0, (1, 1))
    store = ContentStore.generate(config, seed=0)
    alloc = CacheAllocation((0.0, 0.0))
    transcript = DeliveryPlan(config, alloc, store, scheme="cauc").deliver((1, 1))
    assert transcript.total_bits == 2  # only subfiles {1} and {1,2}


def test_uncoded_measured_equals_formula_exactly():
    rng = random.Random(31)
    for _ in range(10):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        config = single_level_config(n, k, rng.randint(1, n), units=rng.randint(1, 3))
        t = rng.randint(0, k)
        alloc = CacheAllocation(tuple(t / k for _ in range(n)))
        store = ContentStore.generate(config, seed=rng.randrange(99))
        demands = tuple(i % n + 1 for i in range(k))
        transcript = DeliveryPlan(config, alloc, store, scheme="cauc").deliver(demands)
        assert transcript.total_bits == round(
            cauc_rate(config, alloc) * config.file_size
        )


# ---------------------------------------------------------------------------
# opaque-file delivery

def test_opaque_delivery_full_cache_sends_nothing():
    config = LibraryConfig(2, 2, 2.0, (2, 0))
    store = ContentStore.generate(config, seed=0)
    transcript = DeliveryPlan(config, None, store, scheme="cicc").deliver((1, 2))
    assert transcript.total_bits == 0


def test_opaque_delivery_classic_rate_and_decode():
    config = LibraryConfig(10, 10, 1.0, (2520,) + (0,) * 9)
    store = ContentStore.generate(config, seed=0)
    caches = place(config, None, store, scheme="cicc")
    demands = tuple(range(1, 11))
    transcript = DeliveryPlan(config, None, store, scheme="cicc").deliver(demands)
    assert transcript.total_bits == 45 * config.file_size // 10
    assert transcript.rate == pytest.approx(4.5)
    decode_all(config, caches, transcript, demands, store)


def test_opaque_delivery_repeats_cost_less():
    config = LibraryConfig(10, 10, 1.0, (2520,) + (0,) * 9)
    store = ContentStore.generate(config, seed=0)
    caches = place(config, None, store, scheme="cicc")
    demands = (1,) * 10
    transcript = DeliveryPlan(config, None, store, scheme="cicc").deliver(demands)
    assert transcript.total_bits < 45 * config.file_size // 10
    decode_all(config, caches, transcript, demands, store)


# ---------------------------------------------------------------------------
# the share-t step table

@pytest.mark.parametrize("k", range(1, 9))
def test_step_table_rows_and_programs(k):
    """For every t < K: the rows touching users 1..L number the step's
    payload count step_payloads(K, t, L) for every L <= K, every term's part
    is labeled V minus its member, and each user's held parts and its
    program's parts partition the C(K, t) parts."""
    for t in range(k):
        table = _step_table(k, t)
        labels = part_labels(k, t)
        assert table.labels == labels
        for n_leaders in range(k + 1):
            touching = [v for v, _ in table.rows if v & ((1 << n_leaders) - 1)]
            assert len(touching) == step_payloads(k, t, n_leaders), (t, n_leaders)
        rows = dict(table.rows)
        assert list(rows) == list(part_labels(k, t + 1))
        for v, terms in table.rows:
            assert [u + 1 for u, _ in terms] == list(members_of(v))
            assert all(labels[j] == v & ~(1 << u) for u, j in terms)
        for u in range(k):
            held = table.held[u]
            lacked = [i for i, _, _ in table.programs[u]]
            assert sorted(held + tuple(lacked)) == list(range(comb0(k, t)))
            assert all(labels[i] >> u & 1 for i in held)
            for i, v, terms in table.programs[u]:
                assert labels[i] | 1 << u == v
                assert terms == tuple(term for term in rows[v] if term[0] != u)


# ---------------------------------------------------------------------------
# content-free decodability of the XOR-step kernel

def _equality_patterns(k):
    """Every step-item equality pattern of k users once: the restricted
    growth strings of length k, e.g. (0, 1, 0, 2)."""
    patterns = [(0,)]
    for _ in range(k - 1):
        patterns = [p + (c,) for p in patterns for c in range(max(p) + 2)]
    return patterns


@pytest.mark.parametrize("k", range(1, 8))
def test_step_kernel_decodes_every_content(k):
    """`_xor_step` and `_decode_parts` are GF(2)-linear and act on every bit
    offset inside a part alike, so one run on "diagonal" content decides
    decodability for all contents: part j of distinct item c is the single
    bit c*C(K,t) + j of an L*C(K,t)-bit part, so a decoded part equals the
    true one only if the XOR it is built from reduces to exactly that part.
    Covers every equality pattern, every share t < K and every user; each
    user must rebuild exactly the parts it does not cache."""
    for t in range(k):
        nparts = comb0(k, t)
        labels = part_labels(k, t)
        for pattern in _equality_patterns(k):
            psize = (max(pattern) + 1) * nparts
            content = [
                sum(1 << (c * nparts + j) << (j * psize) for j in range(nparts))
                for c in range(max(pattern) + 1)
            ]
            rec = _xor_step(k, 1, LayerSpec(t, 0, nparts * psize), pattern, content.__getitem__)
            assert _pattern(pattern) == (pattern, tuple(range(len(content))))
            templates = _part_templates(k, t, psize)
            for user in range(1, k + 1):
                mask = templates[user]
                cached = [_CachedParts(mask, bits & mask, 0, psize) for bits in content]
                got = _decode_parts(user, rec, pattern, [cached[c] for c in pattern])
                c = pattern[user - 1]
                want = [
                    (j, 1 << (c * nparts + j))
                    for j, label in enumerate(labels)
                    if not label >> (user - 1) & 1
                ]
                assert got == want, (t, pattern, user)


# ---------------------------------------------------------------------------
# exact remainder delivery

def test_random_delivery_payload_near_unknown_count():
    """One subfile shared by everyone, a fifth cached: each requester is
    missing 800 of 1000 bits, and the remainder step sends exactly those."""
    config = LibraryConfig(5, 5, 0.2, (0, 0, 0, 0, 1000))
    store = ContentStore.generate(config, seed=0)
    caches = place(config, t_alloc((0, 0, 0, 0, 1), 5), store)
    layer = LayerSpec(t=1, offset=0, size=1000)
    item = 0b11111
    rec = _xor_step(5, 5, layer, (item,) * 5, store.item_bits)
    assert isinstance(rec, StepRecord)
    assert rec.step_items == (0b11111,) * 5
    assert rec.leader_mask == 0b00001
    assert rec.bits == 800
    # every requester recovers the whole subfile from its own cache
    pattern, _ = _pattern(rec.step_items)
    psize = rec.part_size
    for user in range(1, 6):
        mask = caches[user - 1].known_masks[item]
        bits = caches[user - 1].known_bits[item]
        parts = [_CachedParts(mask, bits, 0, psize)] * 5
        for i, y in _decode_parts(user, rec, pattern, parts):
            mask |= ((1 << psize) - 1) << (i * psize)
            bits |= y << (i * psize)
        assert mask == (1 << 1000) - 1
        assert bits == store.item_bits(0b11111)


def assert_plain_sends(records, masks, store, size):
    """Each record is one payload of the full layer, user 1 the only leader."""
    assert [r.step_items for r in records] == [(m,) * 3 for m in masks]
    for rec, m in zip(records, masks):
        assert rec.leader_mask == 0b001
        assert rec.part_size == size
        assert rec.payloads == {0b001: store.item_bits(m)}


def test_random_delivery_uncached_layer_ships_plain():
    config = single_level_config(3, 3, 2, units=2, capacity=0.0)
    store = ContentStore.generate(config, seed=4)
    size = config.level_size(2)
    layer = LayerSpec(t=0, offset=0, size=size)
    records = [
        _xor_step(3, 2, layer, (m,) * 3, store.item_bits)
        for m in (0b011, 0b110)
    ]
    assert_plain_sends(records, [0b011, 0b110], store, size)
    assert sum(r.bits for r in records) == 2 * size


def test_random_delivery_skips_unrequested_subfiles():
    config = single_level_config(3, 3, 1, units=2, capacity=0.0)
    store = ContentStore.generate(config, seed=4)
    transcript = deliver(config, CacheAllocation((0.0, 0.0, 0.0)), (1, 1, 1), store)
    assert_plain_sends(transcript.sections, [0b001], store, config.level_size(1))
    assert transcript.total_bits == config.level_size(1)


# ---------------------------------------------------------------------------
# full coded delivery: cheaper-path choice, fractional shares, windows

# A few golden-digest cases, one or two per scheme and allocation kind.
PAYLOAD_COUNT_CASES = {
    "cacc n=3 k=3 level=2 t=1",
    "cauc n=3 k=4 level=2 t=2",
    "cicc n=3 k=4 level=2 j=3",
    "cauc prefix 0",
    "cacc optimizer 0 m=0.5n",
    "cacc optimizer 1 m=0.2n",
}


def test_uncached_level_prefers_plain_subfiles_over_steps(monkeypatch):
    """At share 0 with all files demanded the step-based delivery repeats
    carried-over subfiles (4 subfile-lengths for a 3-subfile pool), so the
    plain path wins and ships each demanded subfile once.  Delivery picks
    the path by payload count, so it builds only the steps it sends."""
    built = []  # every record the plan's step memo receives

    def recording_xor_step(*args):
        rec = real_xor_step(*args)
        built.append(rec)
        return rec

    real_xor_step = delivery._xor_step
    monkeypatch.setattr(delivery, "_xor_step", recording_xor_step)
    config = single_level_config(3, 3, 2, units=2, capacity=1.0)
    store = ContentStore.generate(config, seed=6)
    alloc = CacheAllocation((0.0, 0.0, 0.0))
    caches = place(config, alloc, store)
    transcript = DeliveryPlan(config, alloc, store).deliver((1, 2, 3))
    assert transcript.total_bits == 3 * config.level_size(2)
    assert transcript.step_counts == ()  # no coded steps kept
    assert_plain_sends(
        transcript.sections, [0b011, 0b101, 0b110], store, config.level_size(2)
    )
    assert [id(r) for r in built] == [id(r) for r in transcript.sections]
    decode_all(config, caches, transcript, (1, 2, 3), store)

    # Every emitted step with L distinct step items sends exactly
    # C(K, t+1) - C(K-L, t+1) payloads, the count delivery picks paths by.
    seen = set()
    for case_id, scheme, config, alloc in cases():
        if case_id not in PAYLOAD_COUNT_CASES:
            continue
        seen.add(case_id)
        k = config.n_users
        store = ContentStore.generate(config, seed=1)
        plan = DeliveryPlan(config, alloc, store, scheme=scheme)
        for demands in itertools.product(range(1, config.n_files + 1), repeat=k):
            for rec in plan.deliver(demands).sections:
                n_items, t = len(set(rec.step_items)), rec.layer.t
                assert len(rec.payloads) == step_payloads(k, t, n_items)
    assert seen == PAYLOAD_COUNT_CASES


def test_fractional_share_splits_into_two_sublayers():
    config = LibraryConfig(2, 2, 0.5, (12, 0))
    layers = cacc_layers(config, 1, 0.5)
    assert [l.t for l in layers] == [0, 1]
    assert [l.size for l in layers] == [6, 6]
    assert layers[1].offset == 6


def test_fractional_share_delivery_hits_envelope_exactly():
    config = LibraryConfig(2, 2, 0.5, (12, 0))
    store = ContentStore.generate(config, seed=0)
    alloc = CacheAllocation((0.25, 0.0))
    caches = place(config, alloc, store)
    transcript = deliver(config, alloc, (1, 2), store)
    env = build_level_curve(config, 1).envelope_value(0.5)
    assert transcript.total_bits == round(env * config.file_size)
    budget = config.cache_capacity * config.file_size
    assert all(c.total_bits() <= budget for c in caches)
    decode_all(config, caches, transcript, (1, 2), store)


def test_window_pads_demands_with_smallest_files():
    assert _window(3, 2, (3, 3)) == (1, 3)
    assert _window(3, 2, (2, 3)) == (2, 3)
    assert _window(3, 5, (2, 2, 2, 2, 2)) == (1, 2, 3)


def test_more_files_than_users_delivers_and_decodes():
    config = LibraryConfig(3, 2, 0.875, (6, 6, 6))
    store = ContentStore.generate(config, seed=0)
    alloc = t_alloc((1, 1, 1), 2)
    caches = place(config, alloc, store)
    for demands in [(3, 3), (1, 2), (2, 3), (1, 1)]:
        transcript = deliver(config, alloc, demands, store)
        limit = cacc_rate(config, alloc) * config.file_size
        assert transcript.total_bits <= limit + 1e-6
        decode_all(config, caches, transcript, demands, store)


def assert_same_transcript(got, fresh):
    assert got.sections == fresh.sections
    assert got.total_bits == fresh.total_bits
    assert got.per_level_bits == fresh.per_level_bits
    assert got.step_counts == fresh.step_counts


def multi_level_library():
    """Four files, three users, fractional shares at two levels: the window
    moves with the demand set, and both levels split into two sublayers."""
    sizes = (12, 6, 6, 0)
    alloc = CacheAllocation((0.5 / 3, 1.5 / 3, 1 / 3, 0.0))
    probe = LibraryConfig(4, 3, 0.0, sizes)
    config = LibraryConfig(4, 3, alloc.cached_bits(probe) / probe.file_size, sizes)
    return config, alloc


def test_plan_reproduces_fresh_transcripts_over_demand_grid():
    """One plan over every demand vector of a multi-level library with
    fractional shares and more files than users (so the window moves) gives
    the transcripts that fresh deliveries give, payload for payload."""
    config, alloc = multi_level_library()
    assert len(cacc_layers(config, 1, 0.5)) == 2
    assert len(cacc_layers(config, 2, 1.5)) == 2
    store = ContentStore.generate(config, seed=8)
    caches = place(config, alloc, store)
    plan = DeliveryPlan(config, alloc, store)
    grid = list(itertools.product(range(1, 5), repeat=3))
    assert len({_window(4, 3, d) for d in grid}) == 4
    for i, d in enumerate(grid):
        got = plan.deliver(d)
        assert_same_transcript(got, deliver(config, alloc, d, store))
        if i % 9 == 0:
            decode_all(config, caches, got, d, store)


def single_user_library():
    """K = 1: every demand vector has one window position, which the plan
    gathers from each column as a bare item rather than a tuple."""
    sizes = (4, 4)
    alloc = CacheAllocation((0.5, 0.0))
    probe = LibraryConfig(2, 1, 0.0, sizes)
    return LibraryConfig(2, 1, alloc.cached_bits(probe) / probe.file_size, sizes), alloc


@pytest.mark.parametrize(
    "scheme,library",
    [
        ("cauc", multi_level_library),
        ("cicc", multi_level_library),
        ("cacc", single_user_library),
        ("cauc", single_user_library),
        ("cicc", single_user_library),
    ],
)
def test_plan_reproduces_fresh_transcripts_for_every_scheme(scheme, library):
    """Every scheme's plan, reused over the whole demand grid, gives the
    transcripts of a fresh one-shot delivery (`cauc_deliver` for cauc)."""
    config, alloc = library()
    store = ContentStore.generate(config, seed=8)
    caches = place(config, alloc, store, scheme)
    plan = DeliveryPlan(config, alloc, store, scheme=scheme)
    coded = 0
    for d in itertools.product(range(1, config.n_files + 1), repeat=config.n_users):
        got = plan.deliver(d)
        if scheme == "cauc":
            fresh = cauc_deliver(config, alloc, d, store)
        else:
            fresh = DeliveryPlan(config, alloc, store, scheme=scheme).deliver(d)
        assert_same_transcript(got, fresh)
        coded += len(got.step_counts)
        decode_all(config, caches, got, d, store)
    assert (coded > 0) == (scheme != "cauc")


def test_plan_builds_each_demand_set_once():
    """Demand vectors with the same set of demanded files share that set's
    finished remainder section: (1, 2, 2) and (2, 1, 1) get the very same
    record objects.  The plan keeps one entry per distinct demand set."""
    config = single_level_config(3, 3, 2, units=2, capacity=1.0)
    store = ContentStore.generate(config, seed=6)
    plan = DeliveryPlan(config, CacheAllocation((0.0, 0.0, 0.0)), store)
    first, second = plan.deliver((1, 2, 2)), plan.deliver((2, 1, 1))
    assert first.step_counts == second.step_counts == ()  # remainder steps only
    assert len(first.sections) == 3
    assert all(a is b for a, b in zip(first.sections, second.sections))
    assert len(plan._choices) == 1
    seen = {frozenset((1, 2))}
    for d in itertools.product(range(1, 4), repeat=3):
        plan.deliver(d)
        seen.add(frozenset(d))
        assert len(plan._choices) == len(seen)
    assert len(seen) == 7


def test_plan_deliver_validates_demands():
    config = LibraryConfig(3, 2, 0.875, (6, 6, 6))
    store = ContentStore.generate(config, seed=0)
    plan = DeliveryPlan(config, t_alloc((1, 1, 1), 2), store)
    plan.deliver((1, 2))
    with pytest.raises(ValueError, match="one demand per user"):
        plan.deliver((1, 2, 3))
    with pytest.raises(ValueError, match="outside"):
        plan.deliver((1, 4))
    with pytest.raises(ValueError, match="outside"):
        plan.deliver((0, 1))


def test_multi_level_delivery_is_levelwise_composition():
    """Per-level on-air bits of a multi-level library equal the totals of the
    corresponding single-level libraries (same seed, demands, and shares)."""
    config = LibraryConfig(3, 3, 3.0, (6, 6, 6))
    counts = (1, 0, 2)
    store = ContentStore.generate(config, seed=5)
    alloc = t_alloc(counts, 3)
    caches = place(config, alloc, store)
    for demands in [(1, 2, 3), (2, 2, 1), (3, 3, 3)]:
        multi = deliver(config, alloc, demands, store)
        decode_all(config, caches, multi, demands, store)
        for level in (1, 2, 3):
            sizes = [0, 0, 0]
            sizes[level - 1] = 6
            sub = LibraryConfig(3, 3, 3.0, tuple(sizes))
            sub_store = ContentStore.generate(sub, seed=5)
            sub_counts = tuple(
                counts[level - 1] if l == level else 0 for l in (1, 2, 3)
            )
            single = deliver(
                sub, t_alloc(sub_counts, 3), demands, sub_store, seed=0
            )
            assert multi.per_level_bits[level] == single.total_bits


# ---------------------------------------------------------------------------
# decoding honesty

def test_decode_fails_without_needed_sections():
    config = fixture_config()
    store = ContentStore.generate(config, seed=0)
    alloc = t_alloc((0, 1, 0, 0, 0), 5)
    caches = place(config, alloc, store)
    transcript = deliver(
        config, alloc, (1, 2, 3, 4, 5), store, schedule_source="example1"
    )
    truncated = dataclasses.replace(transcript, sections=transcript.sections[:-1])
    with pytest.raises(RuntimeError):
        for user in range(1, 6):
            decode(user, caches[user - 1], truncated, (1, 2, 3, 4, 5))


def test_decode_needs_matching_cache():
    config = fixture_config()
    store = ContentStore.generate(config, seed=0)
    alloc = t_alloc((0, 1, 0, 0, 0), 5)
    caches = place(config, alloc, store)
    transcript = deliver(config, alloc, (1, 2, 3, 4, 5), store)
    # user 2 cannot decode with user 1's demand position but its own cache:
    # swapping demand vectors mid-stream must not silently succeed
    with pytest.raises(RuntimeError):
        decode(1, caches[1 - 1], transcript, (2, 2, 3, 4, 5))



# ---------------------------------------------------------------------------
# delivery reads no caches

def test_delivery_runs_without_placement(monkeypatch):
    """All three schemes deliver their pinned totals with placement disabled
    (`place` and the part templates only placement reads): delivery needs
    the store, never the caches."""

    def no_placement(*args, **kwargs):
        raise AssertionError("delivery must not run a placement")

    for name in ("place", "_part_templates"):
        monkeypatch.setattr(delivery, name, no_placement)

    config = fixture_config()
    store = ContentStore.generate(config, seed=0)
    transcript = deliver(
        config, t_alloc((0, 1, 0, 0, 0), 5), (1, 2, 3, 4, 5), store,
        schedule_source="example1",
    )
    assert transcript.total_bits == 36 * config.level_size(2) // 5

    config = LibraryConfig(2, 2, 0.0, (1, 1))
    store = ContentStore.generate(config, seed=0)
    transcript = DeliveryPlan(
        config, CacheAllocation((0.0, 0.0)), store, scheme="cauc"
    ).deliver((1, 2))
    assert transcript.total_bits == 3

    config = LibraryConfig(10, 10, 1.0, (2520,) + (0,) * 9)
    store = ContentStore.generate(config, seed=0)
    plan = DeliveryPlan(config, None, store, scheme="cicc")
    assert plan.deliver(tuple(range(1, 11))).total_bits == 45 * config.file_size // 10


def test_delivery_rejects_non_integral_sizes():
    store = ContentStore.generate(LibraryConfig(2, 2, 1.0, (4, 4)), seed=0)
    config = LibraryConfig(2, 2, 1.0, (4.5, 4))
    alloc = CacheAllocation((0.5, 0.0))
    for scheme in ("cacc", "cauc", "cicc"):
        with pytest.raises(ValueError):
            DeliveryPlan(config, alloc, store, scheme=scheme)


def test_plan_rejects_layer_not_divisible_into_parts():
    """A share-1 layer of 4 bits over 3 users cannot split into C(3, 1)
    equal parts: building the plan already refuses it, before any delivery."""
    config = LibraryConfig(2, 3, 2.0, (4, 0))
    store = ContentStore.generate(config, seed=0)
    alloc = CacheAllocation.from_replication((1, 0), 3)
    with pytest.raises(ValueError, match="not divisible into 3 parts"):
        DeliveryPlan(config, alloc, store)


def test_uncoded_delivery_rejects_fractional_prefix():
    config = LibraryConfig(2, 2, 1.0, (4, 4))
    store = ContentStore.generate(config, seed=0)
    with pytest.raises(ValueError, match="whole number of bits"):
        DeliveryPlan(config, CacheAllocation((0.3, 0.0)), store, scheme="cauc")
