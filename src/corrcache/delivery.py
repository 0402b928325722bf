"""Bit-exact placement, delivery, and decoding for the three schemes.

Everything here moves real bits: placement carves pseudorandom contents
into cached parts, delivery emits leader-based XOR steps only, and decode
reconstructs a user's file from its cache plus the transcript alone.  Rate
formulas never enter the data path, so measured transcripts can be compared
against them honestly.

One engine serves all three schemes.  A scheme is described once, as
placement groups (level, items, layers, nominal cached bits per item):

* cacc (shared-subfile coded) splits every level-l subfile at the level's
  share (`cacc_layers`);
* cauc (uncoded) caches a share-K prefix layer of every subfile and leaves
  the rest at share 0;
* cicc (correlation-ignorant coded) runs on the library seen as N
  unrelated files, a library whose only subfiles are the level-1 ones,
  subfile {i} holding file i; it splits them, as one group of level 0, at
  the share K*M/N of the classic envelope.

`place` spreads every group's layers over the caches.  `DeliveryPlan`
delivers every group's layers the same way; the scheme only picks the
column table of coded steps for each (window, group): the schedule columns
for cacc, one column of the window's files for cicc, and none for cauc.
Every section is one leader-based XOR step, and a share-t step whose users
want L distinct items sends C(K, t+1) - C(K-L, t+1) payloads.  A constant
step pattern, one item for every user, is a remainder step: it sends
C(K-1, t) payloads, exactly the size*(K-t)/K bits a requester of the item
does not cache, so one per demanded item meets the floor.  Per sublayer,
delivery counts the column table's payloads first and sends its steps when
they cost no more than that floor, the remainder steps otherwise (always
for cauc); only the steps it sends are built.

Delivery works per demand set and per demand vector.  The window, each
sublayer's coded/remainder choice and every remainder section depend only
on the set of demanded files, so a plan builds them once per set; a demand
vector only gathers its coded step patterns (the column table read at its
users' window positions) and reuses the set's remainder records as they
are.

One table per (K, t), `_step_table`, states a share-t step once: its
C(K, t) part labels; per (t+1)-user set V, the (member, part) terms its
payload XORs, each the member's part labeled V minus the member; and per
user, the parts it caches and its decode program, which lists per part it
lacks the payload V (the part's label plus the user) and the other
members' terms to XOR in.  Placement's part templates, `_xor_step` and the
decoder all read it; nothing else walks a step's labels and members.

Decoding is one part-indexed kernel (`_decode_parts`), which `decode` and
the verifier both call: it runs the user's program from the table.  A
payload whose user set has no leader is not sent: the step's equality
pattern (its step items renumbered by first occurrence) fixes the family
of sent payloads that XOR to it.  The table and family memos are both
bounded.  The kernel reads cached parts through a per-item part table:
`decode` fills it lazily from the cache, in place; the verifier splits
each item once per sweep.

Content layout conventions (shared by placement, delivery, and decode):
an item is a nonempty subfile of the library the scheme works on, named by
its file-set mask (a plain int); an integer-share layer of size ``s`` at
offset ``o`` within an item is split into binom(K, t) equal parts ordered
by the canonical part labels, part i occupying item positions
[o + i*psize, o + (i+1)*psize).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from .combinat import (
    comb0,
    concat_bits,
    divisibility_unit,
    mask_of,
    members_of,
    mix_seed,
    part_labels,
    step_payloads,
    subset_masks,
)
from .model import (
    CacheAllocation,
    ContentStore,
    LibraryConfig,
    as_demands,
    check_allocation,
    file_layout,
)
from .rates import build_level_curve, cicc_curve
from .scheduling import generate_schedule, load_schedule

__all__ = [
    "DeliveryPlan",
    "LayerSpec",
    "SCHEMES",
    "StepRecord",
    "Transcript",
    "UserCache",
    "cacc_layers",
    "cauc_deliver",
    "decode",
    "deliver",
    "place",
]


# ---------------------------------------------------------------------------
# layers: integer-share sublayers realizing a fractional caching share

@dataclass(frozen=True)
class LayerSpec:
    """One integer-share sublayer of an item: bits [offset, offset+size)."""

    t: int
    offset: int
    size: int


def _split_layers(total_size: int, t_exact: float, curve, n_users: int):
    """Sublayers realizing share t_exact over an item of total_size bits.

    A share at which the rate curve reads its raw integer point keeps the
    item whole.  Fractional shares split it between the two envelope
    vertices bracketing t_exact; the low-share slice is rounded down to the
    divisibility unit, which keeps the delivered bits at or below the
    envelope value while slightly over-filling the cache (the overage is
    declared as padding slack by the placement).
    """
    if curve.reads_point(t_exact):
        return (LayerSpec(int(round(t_exact)), 0, total_size),)
    envelope = curve.envelope
    ta = tb = None
    for (a, _), (b, _) in zip(envelope, envelope[1:]):
        ta, tb = a, b
        if t_exact < b:
            break
    if tb is None or not ta <= t_exact <= tb:
        raise ValueError(f"share {t_exact} outside envelope range")
    lam = (tb - t_exact) / (tb - ta)
    unit = divisibility_unit(n_users)
    size_a = int(lam * total_size / unit + 1e-9) * unit  # absorb float noise
    layers = []
    if size_a:
        layers.append(LayerSpec(int(round(ta)), 0, size_a))
    if total_size - size_a:
        layers.append(LayerSpec(int(round(tb)), size_a, total_size - size_a))
    return tuple(layers)


def cacc_layers(config: LibraryConfig, level: int, t_exact: float):
    """Sublayer plan for one level of the shared-subfile coded scheme."""
    size = int(config.level_size(level))
    curve = build_level_curve(config, level)
    return _split_layers(size, t_exact, curve, config.n_users)


# ---------------------------------------------------------------------------
# schemes as placement groups

SCHEMES = ("cacc", "cauc", "cicc")


def _prefix_bits(alloc: CacheAllocation, level: int, size: int) -> int:
    """Bits of every level subfile each user caches under prefix caching."""
    cached = alloc.fractions[level - 1] * size
    c = int(round(cached))
    if abs(cached - c) > 1e-6:
        raise ValueError(f"level {level} prefix {cached} is not a whole number of bits")
    return c


def _groups(
    config: LibraryConfig, alloc: CacheAllocation, store: ContentStore, scheme: str
):
    """Check the inputs and return the library the scheme works on, as
    (config, store, placement groups), each group being (level, items,
    layers, nominal cached bits per item): one per nonempty level, or for
    cicc, which ignores the allocation, the library seen as N unrelated
    files, (F, 0, ..., 0) with subfile {i} holding file i, and one level-0
    group of its N subfiles.  Every share-t layer must split into C(K, t)
    equal parts."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not config.is_integral():
        raise ValueError("placement and delivery need integer subfile sizes")
    n, k = config.n_files, config.n_users
    if scheme == "cicc":
        f = int(config.file_size)
        t_exact = k * min(config.cache_capacity, n) / n
        layers = _split_layers(f, t_exact, cicc_curve(config), k)
        groups = [(0, part_labels(n, 1), layers, t_exact * f / k)]
        files = {1 << (i - 1): store.file_bits(i) for i in range(1, n + 1)}
        config = LibraryConfig(n, k, config.cache_capacity, (f,) + (0,) * (n - 1))
        store = ContentStore(config=config, seed=store.seed, _contents=files)
    else:
        check_allocation(config, alloc)
        groups = []
        for level in config.levels():
            size = int(config.subfile_sizes[level - 1])
            if size == 0:
                continue
            masks = part_labels(n, level)
            if scheme == "cacc":
                t_exact = alloc.fractions[level - 1] * k
                layers = cacc_layers(config, level, t_exact)
                nominal = t_exact * size / k
                masks = sorted(masks)  # remainder steps go out in mask order
            else:
                nominal = c = _prefix_bits(alloc, level, size)
                layers = tuple(
                    layer
                    for layer in (LayerSpec(k, 0, c), LayerSpec(0, c, size - c))
                    if layer.size
                )
            groups.append((level, tuple(masks), layers, nominal))
    for _, _, layers, _ in groups:
        for layer in layers:
            nparts = comb0(k, layer.t)
            if layer.size % nparts:
                raise ValueError(
                    f"layer size {layer.size} not divisible into {nparts} parts"
                )
    return config, store, groups


def _item_name(item: int) -> str:
    """An item named by its member files, e.g. {1,3}."""
    return "{" + ",".join(map(str, members_of(item))) + "}"


# ---------------------------------------------------------------------------
# caches

@dataclass
class UserCache:
    """One user's cached bits, held per item at their true positions.

    known_bits[item] only ever has bits inside known_masks[item].
    """

    user: int
    known_masks: dict = field(default_factory=dict)
    known_bits: dict = field(default_factory=dict)

    def add(self, item, pos_mask: int, bits: int) -> None:
        self.known_masks[item] = self.known_masks.get(item, 0) | pos_mask
        self.known_bits[item] = self.known_bits.get(item, 0) | (bits & pos_mask)

    def total_bits(self) -> int:
        return sum(m.bit_count() for m in self.known_masks.values())


def _part_templates(n_users: int, t: int, psize: int) -> tuple[int, ...]:
    """Per-user OR-mask of the part segments a user caches (offset 0),
    indexed by user (entry 0 unused)."""
    seg = (1 << psize) - 1
    return (0,) + tuple(
        sum(seg << (i * psize) for i in held) for held in _step_table(n_users, t).held
    )


def _check_budget(config, caches, pad_bits):
    """Every cache fits the budget plus the declared divisibility padding."""
    budget = config.cache_capacity * config.file_size
    for cache in caches:
        if cache.total_bits() > budget + pad_bits + 1e-6 * config.file_size + 1e-9:
            raise RuntimeError(
                f"user {cache.user} caches {cache.total_bits()} bits, over "
                f"budget {budget} + declared padding {pad_bits}"
            )


def place(
    config: LibraryConfig,
    alloc: CacheAllocation,
    store: ContentStore,
    scheme: str = "cacc",
):
    """Every user's cache under `scheme`: each group's items are split into
    labeled parts per layer, and each user keeps the parts whose label
    contains it (a share-K layer is one part every user keeps)."""
    config, store, groups = _groups(config, alloc, store, scheme)
    k = config.n_users
    caches = [UserCache(user=u) for u in range(1, k + 1)]
    templates = {}  # (t, part size) -> _part_templates, for this call only
    pad = 0.0
    for _, items, layers, nominal in groups:
        cached = sum(layer.t * layer.size for layer in layers) / k
        pad += max(cached - nominal, 0.0) * len(items)
        for item in items:
            content = store.item_bits(item)
            for layer in layers:
                if layer.t == 0:
                    continue
                key = (layer.t, layer.size // comb0(k, layer.t))
                tpl = templates.get(key)
                if tpl is None:
                    tpl = templates[key] = _part_templates(k, *key)
                for cache in caches:
                    pm = tpl[cache.user] << layer.offset
                    if pm:
                        cache.add(item, pm, content & pm)
    _check_budget(config, caches, pad)
    return caches


# ---------------------------------------------------------------------------
# transcript records

@dataclass(frozen=True)
class StepRecord:
    """One leader-based XOR step: every payload sent for one step-item pattern.

    At share t = 0 with every user's step item the same item, user 1 is the
    only leader and the step is one plain payload of the whole layer.
    """

    level: int
    layer: LayerSpec
    step_items: tuple  # per user, the item it recovers this step
    leader_mask: int
    part_size: int
    payloads: dict  # user-set mask V -> XOR payload

    @property
    def bits(self) -> int:
        return len(self.payloads) * self.part_size


@dataclass(frozen=True)
class Transcript:
    """Everything the server put on air for one demand vector.  `config` is
    the library the scheme works on: for cicc, the N unrelated files."""

    scheme: str
    config: LibraryConfig
    sections: tuple
    total_bits: int
    step_counts: tuple
    per_level_bits: dict

    @property
    def rate(self) -> float:
        return self.total_bits / self.config.file_size


# ---------------------------------------------------------------------------
# coded steps

class _StepTable(NamedTuple):
    """The structure of every share-t step among K users (`_step_table`).

    rows: per (t+1)-user set V, in part_labels order, the payload's terms
    (member index u, part index j): the part of user u + 1's step item
    labeled V minus u + 1.  held[u]: the part indices user u + 1 caches.
    programs[u]: per part i user u + 1 lacks, in part order, (i, V, the
    other members' terms of V), V being the part's label plus the user.
    """

    labels: tuple
    rows: tuple
    held: tuple
    programs: tuple


# Bounded: a pass over many configs at K = 8 would otherwise keep every
# (K, t) table it met; a placement, delivery or decode uses at most K + 1.
@lru_cache(maxsize=16)
def _step_table(n_users: int, t: int) -> _StepTable:
    """The one walk over a share-t step's part labels and members: who
    caches which part (placement), what each payload XORs (`_xor_step`) and
    what each user reads to rebuild its missing parts (`_decode_parts`)."""
    labels = part_labels(n_users, t)
    index = {lab: i for i, lab in enumerate(labels)}
    rows = tuple(
        (v, tuple((u - 1, index[v ^ 1 << (u - 1)]) for u in members_of(v)))
        for v in part_labels(n_users, t + 1)
    )
    users = range(n_users)
    held = tuple(tuple(i for i, lab in enumerate(labels) if lab >> u & 1) for u in users)
    programs = tuple(
        tuple(
            (index[v ^ 1 << u], v, tuple(term for term in terms if term[0] != u))
            for v, terms in rows
            if v >> u & 1
        )
        for u in users
    )
    return _StepTable(labels, rows, held, programs)


def _leaders(step_items) -> int:
    """First user per distinct step-item, as a user-set mask."""
    seen = set()
    mask = 0
    for k, key in enumerate(step_items, start=1):
        if key not in seen:
            seen.add(key)
            mask |= 1 << (k - 1)
    return mask


def _xor_step(n_users, level, layer, step_items, content_of) -> StepRecord:
    """Emit every XOR payload for one step.

    For each user set V of size t+1 touching a leader, the payload XORs,
    over k in V, the part of user k's step-item labeled V minus k; each user
    in V misses exactly its own term and holds the rest in cache.  With L
    distinct step items (L leaders), C(K-L, t+1) of the C(K, t+1) user sets
    avoid every leader, so the step sends C(K, t+1) - C(K-L, t+1) payloads.
    """
    table = _step_table(n_users, layer.t)
    offset, psize = layer.offset, layer.size // len(table.labels)
    pmask = (1 << psize) - 1
    leader_mask = _leaders(step_items)
    contents = dict.fromkeys(step_items)
    for key in contents:
        contents[key] = content_of(key)
    member_bits = [contents[key] for key in step_items]
    payloads = {}
    for v, terms in table.rows:
        if not v & leader_mask:
            continue
        y = 0
        for u, j in terms:
            y ^= (member_bits[u] >> (offset + j * psize)) & pmask
        payloads[v] = y
    return StepRecord(
        level=level,
        layer=layer,
        step_items=step_items,
        leader_mask=leader_mask,
        part_size=psize,
        payloads=payloads,
    )


# ---------------------------------------------------------------------------
# full delivery

def _window(n: int, k: int, demands) -> tuple[int, ...]:
    if n <= k:
        return tuple(range(1, n + 1))
    chosen = set(demands)
    for i in range(1, n + 1):
        if len(chosen) == k:
            break
        chosen.add(i)
    return tuple(sorted(chosen))


def _pools(config: LibraryConfig, level: int, window):
    """Fixed-part masks whose pools partition the level's deliverable set:
    fixed parts range over outside-window subsets of each feasible size."""
    outside = [i for i in range(1, config.n_files + 1) if i not in window]
    s_lo = max(level - config.n_users, 0)
    s_hi = max(min(level - 1, config.n_files - config.n_users), 0)
    for s in range(s_lo, s_hi + 1):
        yield from subset_masks(outside, s)


class DeliveryPlan:
    """The demand-independent work of delivery, done once.

    A plan is built from (config, alloc, store, schedule source, seed,
    scheme).  It runs the input checks and loads the fixture once; holds the
    library the scheme works on (`config`, `store`: for cicc, the library
    seen as N unrelated files) and, per placement group, the group's items
    and its delivered sublayers (t < K, size > 0) with their part sizes and
    step memos; and builds, per (window, group), the scheme's column table.
    Step payloads depend on the demand vector only through the per-step
    item pattern, so deliveries of many demand vectors through one plan
    (``plan.deliver(demands)``) share almost all bit-level work.  cicc
    ignores `alloc` (it may be None).

    Per demand set, per demand vector: the window, the coded/remainder
    choice of every sublayer and every remainder step depend only on the
    set of demanded files, not on who demands what, so `_choice` builds
    them once per set (kept in `_choices`, keyed by the frozenset of
    demands), finished remainder sections included.  Per demand vector,
    `_send` only gathers each coded sublayer's step patterns from the
    column table at the users' window positions, looks their records up
    (or builds them), and appends the set's cached remainder sections; it
    returns the sections and bit totals without validating the demands or
    building a `Transcript`.  `deliver` is `as_demands`, `_send` and the
    wrap in a `Transcript`; the verifier calls `_send` on demand tuples
    that are valid by construction.
    """

    def __init__(
        self,
        config: LibraryConfig,
        alloc: CacheAllocation,
        store: ContentStore,
        schedule_source=None,
        seed: int = 0,
        scheme: str = "cacc",
    ):
        self.config, self.store, groups = _groups(config, alloc, store, scheme)
        self.seed = seed
        self.scheme = scheme
        k = config.n_users
        levels = []
        for level, items, layers, _ in groups:
            sublayers = tuple(
                (layer, layer.size // comb0(k, layer.t), {})
                for layer in layers
                if layer.t < k and layer.size > 0
            )
            levels.append((level, items, sublayers))
        self._levels = tuple(levels)
        self._fixture = (
            self._load_fixture(schedule_source) if schedule_source is not None else None
        )
        self._columns = {}
        self._choices = {}

    def _load_fixture(self, source):
        """Load a schedule fixture, refusing one that no coded step can use."""
        if self.scheme != "cacc":
            raise ValueError(f"a schedule fixture needs scheme cacc, not {self.scheme}")
        fixture = load_schedule(source)
        n, k = self.config.n_files, self.config.n_users
        files = set(range(1, n + 1))
        if len(fixture.window) != min(n, k) or not set(fixture.window) <= files:
            raise ValueError(
                f"fixture window {fixture.window} is not {min(n, k)} files "
                f"inside 1..{n}"
            )
        if not set(fixture.fixed_part) <= files:
            raise ValueError(
                f"fixture fixed part {fixture.fixed_part} lies outside 1..{n}"
            )
        if fixture.level not in [level for level, _, subs in self._levels if subs]:
            raise ValueError(f"fixture level {fixture.level} has no delivered sublayer")
        return fixture

    def _schedule(self, window, rbar, level):
        fixed = members_of(rbar)
        fixture = self._fixture
        if (
            fixture is not None
            and fixture.window == window
            and fixture.fixed_part == fixed
            and fixture.level == level
        ):
            return fixture
        return generate_schedule(
            window, fixed, level, seed=mix_seed(self.seed, level, rbar)
        )

    def _column_table(self, window, level):
        """Every coded step of one group over `window`, as the item of each
        window position per column: the schedule columns of every fixed-part
        pool for cacc, one column of the window's files for cicc, and None
        for cauc, which has no coded steps."""
        if self.scheme == "cauc":
            return None
        key = (window, level)
        table = self._columns.get(key)
        if table is None:
            if self.scheme == "cicc":
                table = (tuple(1 << (f - 1) for f in window),)
            else:
                table = tuple(
                    col
                    for rbar in _pools(self.config, level, window)
                    for col in self._schedule(window, rbar, level).columns
                )
            self._columns[key] = table
        return table

    def _choice(self, demands):
        """Everything of a delivery that depends only on the set of demanded
        files, built once per set: the window's position map and, per group,
        the level, its sublayers, the column table (None for cauc or a group
        with nothing to deliver) and, per sublayer, either None, when the
        column table's coded steps go out and are gathered per demand
        vector, or the finished remainder section: its step records and
        their bit total.

        A step whose column holds L distinct items at the demanded window
        positions sends C(K, t+1) - C(K-L, t+1) payloads (`step_payloads`).
        The coded steps go out when they total no more than the floor: one
        remainder step of C(K-1, t) payloads per demanded item (an item
        touching a demanded file, listed once per set), every demanded
        item's uncached size*(K-t)/K bits once.  Either way a level
        costs the lesser of the two, the cacc formula's min(alpha, m).
        cicc's single coded step never exceeds the floor: C(K,t+1) -
        C(K-N_e,t+1) <= N_e*C(K-1,t) for N_e distinct demanded files.
        """
        k = self.config.n_users
        demand_mask = mask_of(demands)
        window = _window(self.config.n_files, k, demands)
        positions = [i for i, f in enumerate(window) if demand_mask >> (f - 1) & 1]
        groups = []
        for level, items, sublayers in self._levels:
            table = self._column_table(window, level) if sublayers else None
            # one remainder step per demanded item, should the coded steps cost more
            remainder = [(item,) * k for item in items if item & demand_mask]
            if table is not None:
                # number of coded steps per count of distinct step items
                steps_with = Counter([len({col[i] for i in positions}) for col in table])
            sent = []
            for layer, psize, steps in sublayers:
                if table is not None and sum([
                    c * step_payloads(k, layer.t, n) for n, c in steps_with.items()
                ]) <= len(remainder) * comb0(k - 1, layer.t):
                    sent.append(None)  # coded: gathered per demand vector
                    continue
                records = tuple(self._records(level, layer, steps, remainder))
                sent.append((records, psize * sum([len(r.payloads) for r in records])))
            groups.append((level, sublayers, table, tuple(sent)))
        return {f: i for i, f in enumerate(window)}, tuple(groups)

    def _records(self, level, layer, steps, patterns) -> list:
        """One sublayer's step records for `patterns`, each built once per
        plan: a pattern missing from the sublayer's memo is built by
        `_xor_step`, looked up as a module global so tests can patch it."""
        records = list(map(steps.get, patterns))
        if not all(records):
            k, content_of = self.config.n_users, self.store.item_bits
            for i, items in enumerate(patterns):
                if records[i] is None:
                    records[i] = steps[items] = _xor_step(
                        k, level, layer, items, content_of
                    )
        return records

    def _send(self, demands):
        """Deliver one demand tuple, already validated: the sections, their
        bit total, the coded steps' payload counts and the bits per level.

        Per group and sublayer, the column table's coded steps, gathered at
        the demanded window positions, or the demand set's finished
        remainder section, as `_choice` picks by payload count.  Only the
        steps sent are built, each once per plan."""
        key = frozenset(demands)
        per_set = self._choices.get(key)
        if per_set is None:
            per_set = self._choices[key] = self._choice(demands)
        pos, groups = per_set

        sections = []
        step_counts = []
        per_level = {}
        total = 0
        for level, sublayers, table, sent in groups:
            level_bits = 0
            patterns = None
            for (layer, psize, steps), section in zip(sublayers, sent):
                if section is not None:
                    records, bits = section
                    sections.extend(records)
                    level_bits += bits
                    continue
                if patterns is None:
                    gather = itemgetter(*map(pos.__getitem__, demands))
                    patterns = list(map(gather, table))
                    if len(demands) == 1:  # itemgetter of one index returns a bare item
                        patterns = [(item,) for item in patterns]
                records = self._records(level, layer, steps, patterns)
                sections.extend(records)
                counts = [len(rec.payloads) for rec in records]
                step_counts.extend(counts)
                level_bits += psize * sum(counts)
            per_level[level] = level_bits
            total += level_bits
        return sections, total, step_counts, per_level

    def deliver(self, demands) -> Transcript:
        """Deliver one demand vector (see `_send`) as a `Transcript`."""
        demands = as_demands(demands, self.config)
        sections, total_bits, step_counts, per_level = self._send(demands)
        return Transcript(
            scheme=self.scheme,
            config=self.config,
            sections=tuple(sections),
            total_bits=total_bits,
            step_counts=tuple(step_counts),
            per_level_bits=per_level,
        )


def deliver(
    config: LibraryConfig,
    alloc: CacheAllocation,
    demands,
    store: ContentStore,
    schedule_source=None,
    seed: int = 0,
) -> Transcript:
    """One-shot shared-subfile coded delivery: builds a DeliveryPlan for this
    call and delivers `demands` through it (see DeliveryPlan.deliver)."""
    return DeliveryPlan(config, alloc, store, schedule_source, seed).deliver(demands)


def cauc_deliver(
    config: LibraryConfig,
    alloc: CacheAllocation,
    demands,
    store: ContentStore,
) -> Transcript:
    """One-shot uncoded delivery: one share-0 remainder step (a single plain
    payload) per demanded subfile's uncached rest."""
    return DeliveryPlan(config, alloc, store, scheme="cauc").deliver(demands)


# ---------------------------------------------------------------------------
# decoding (transcript + own cache only): one part-indexed kernel

def _pattern(step_items):
    """A step's equality pattern -- its step items renumbered by first
    occurrence, e.g. (0, 1, 0, 2, 2) -- and its distinct items in that order.
    The pattern alone fixes the leaders and the family of every unsent
    payload."""
    ids = {}
    pattern = tuple([ids.setdefault(item, len(ids)) for item in step_items])
    return pattern, tuple(ids)


# Bounded: a pass over many configs would otherwise keep every (pattern, V)
# family it met.
@lru_cache(maxsize=256)
def _family(pattern, v: int) -> tuple[int, ...]:
    """The sent payloads whose XOR is the unsent leaderless payload V.

    Over the user set C = V plus leaders, the payloads of all size-|V|
    subsets W whose complement in C has pairwise-distinct step items XOR to
    zero; V is the only such subset avoiding every leader, so it equals the
    XOR of the rest.
    """
    c = v | _leaders(pattern)
    out = []
    for combo in combinations(members_of(c), v.bit_count()):
        w = mask_of(combo)
        if w == v:
            continue
        rest = [pattern[u - 1] for u in members_of(c & ~w)]
        if len(set(rest)) == len(rest):
            out.append(w)
    return tuple(out)


def _decode_parts(user: int, rec: StepRecord, pattern, parts) -> list:
    """The decode kernel: `user`'s missing parts of its step item in `rec`,
    as (part index, bits) pairs.

    `pattern` is the record's equality pattern, and parts[u][j] is the
    user's cached part j, in the record's layer, of user u + 1's step item,
    or None when that part is not fully cached.
    """
    payloads = rec.payloads
    leader_mask = rec.leader_mask
    pmask = (1 << rec.part_size) - 1
    out = []
    for i, v, terms in _step_table(len(pattern), rec.layer.t).programs[user - 1]:
        if v & leader_mask:
            y = payloads[v]
        else:
            y = 0
            for w in _family(pattern, v):
                y ^= payloads[w]
        for u, j in terms:
            part = parts[u][j]
            if part is None:
                pos = rec.layer.offset + j * rec.part_size
                raise RuntimeError(
                    f"decoder missing bits of subfile {_item_name(rec.step_items[u])} "
                    f"at {pos}"
                )
            y ^= part
        out.append((i, y & pmask))
    return out


class _CachedParts(dict):
    """One cached item's parts in one layer, extracted when first asked for:
    a decode reads a fraction of the parts of items up to a file long, so it
    splits nothing whole."""

    __slots__ = ("mask", "bits", "offset", "psize")

    def __init__(self, mask: int, bits: int, offset: int, psize: int):
        super().__init__()
        self.mask, self.bits = mask, bits
        self.offset, self.psize = offset, psize

    def __missing__(self, j: int):
        pos = self.offset + j * self.psize
        pmask = (1 << self.psize) - 1
        part = (self.bits >> pos) & pmask if (self.mask >> pos) & pmask == pmask else None
        self[j] = part
        return part


def decode(user: int, cache: UserCache, transcript: Transcript, demands) -> int:
    """Reconstruct user's demanded file from its cache and the transcript.

    Runs the decode kernel on every section whose step item for this user
    is a subfile of its file in the transcript's library, reading the cache
    in place.
    """
    config = transcript.config
    demands = as_demands(demands, config)
    layout = [(m, size) for m, size, _ in file_layout(config, demands[user - 1])]
    masks, bits = cache.known_masks, cache.known_bits
    got_masks = {item: masks.get(item, 0) for item, _ in layout}
    got_bits = {item: bits.get(item, 0) for item, _ in layout}
    read = {}  # (item, layer offset) -> that item's parts read so far
    spans = {}  # (share, part size) -> the parts this user decodes, as a mask
    for rec in transcript.sections:
        item = rec.step_items[user - 1]
        if item not in got_masks:
            continue
        pattern, classes = _pattern(rec.step_items)
        off, psize = rec.layer.offset, rec.part_size
        class_parts = []
        for x in classes:
            parts = read.get((x, off))
            if parts is None:
                parts = read[x, off] = _CachedParts(
                    masks.get(x, 0), bits.get(x, 0), off, psize
                )
            class_parts.append(parts)
        decoded = _decode_parts(user, rec, pattern, [class_parts[c] for c in pattern])
        got = 0
        for i, y in decoded:
            got |= y << (i * psize)
        span = spans.get((rec.layer.t, psize))
        if span is None:
            pmask = (1 << psize) - 1
            span = spans[rec.layer.t, psize] = sum(pmask << (i * psize) for i, _ in decoded)
        got_masks[item] |= span << off
        got_bits[item] |= got << off

    for item, size in layout:
        seg = (1 << size) - 1
        if got_masks[item] & seg != seg:
            raise RuntimeError(
                f"user {user} cannot reconstruct subfile {_item_name(item)}"
            )
    return concat_bits((got_bits[item] & ((1 << size) - 1), size) for item, size in layout)
