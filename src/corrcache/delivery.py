"""Bit-exact placement, delivery, and decoding for the three schemes.

Everything here moves real bits: placement carves pseudorandom contents
into cached parts, delivery emits leader-based XOR steps only, and decode
reconstructs a user's file from its cache plus the transcript alone.  Rate
formulas never enter the data path, so measured transcripts can be compared
against them honestly.

One engine serves all three schemes.  A scheme is described once, as
placement groups (level, items, layers):

* cacc (shared-subfile coded) splits every level-l subfile at the level's
  share, between its envelope vertices (`cacc_layers`);
* cauc (uncoded) splits every subfile between shares K and 0: a share-K
  prefix layer and the rest at share 0;
* cicc (correlation-ignorant coded) runs on the library seen as N
  unrelated files, a library whose only subfiles are the level-1 ones,
  subfile {i} holding file i; it splits them, as one group of level 0, at
  the share K*M/N of the classic envelope.

All three go through `_split_layers`, the one place where a share becomes
whole bits: the cached, higher-share slice comes first and is rounded
down to whole parts, so no cache holds more than the nominal share.
A `DeliveryPlan` owns the library the scheme works on and its groups, and
refuses a placement whose cached bits exceed the budget, capacity x file
size.  Each layer of a group is one `_LayerParts`, the one owner of the
layer's facts: its `LayerSpec`, offset, part size and part count, its
step table and each user's part template (`held`, at offset 0, built on
first read); placement, `cached_bits()`, the encoder and the verifier
read them there.  `plan.place()` spreads every group's layers over the
caches and checks, in whole bits, that each cache holds exactly what the
layers place: per item and share-t layer, C(K-1, t-1) of its C(K, t)
parts (`place` is a one-line wrapper).  The plan delivers every group's
layers the same way; the scheme only picks the column table of coded
steps for each (window, group): the schedule columns for cacc, one column
of the window's files for cicc, and none for cauc.
Every section is one leader-based XOR step, and a share-t step whose users
want L distinct items sends C(K, t+1) - C(K-L, t+1) payloads.  A constant
step pattern, one item for every user, is a remainder step: it sends
C(K-1, t) payloads, exactly the size*(K-t)/K bits a requester of the item
does not cache, so one per demanded item meets the floor.  Per layer,
delivery counts the column table's payloads first and sends its steps when
they cost no more than that floor, the remainder steps otherwise (always
for cauc); only the steps it sends are built.

Delivery works per demand set and per demand vector.  The window, each
layer's coded/remainder choice and the remainder step patterns depend
only on the set of demanded files, so a plan chooses them per set, as one
tuple of groups (`_choice`); it keeps no choice, and the verifier asks
once per set.
Per demand vector, each coded group's column table, indexed by file
number, is read at the demands with one `itemgetter` per vector, for one
vector (`deliver`) or for all vectors of a set at once (the verifier).
A record is built from its step items when asked for and kept by no one
but the caller: `deliver` builds a vector's records and sums its bits from
them; the verifier builds a record the first time its step items come,
checks it, files its verdict and bits, and drops it.

One table per (K, t), `_step_table`, states a share-t step once: its
C(K, t) part labels; per (t+1)-user set V, the (member, part) terms its
payload XORs, each the member's part labeled V minus the member; per
term position, a getter that reads that term of every row at once; per
user, the parts it caches and its decode program, which lists per part it
lacks the payload V (the part's label plus the user) and the other
members' terms to XOR in.  A layer's part templates, `_xor_step`, the
decoder and the verifier's lane pass all read it, the lane pass taking row
V as lane V; nothing else walks a step's labels and members.

The encoder builds a record from per-item part lists, split from the
store once per (layer, item) and kept in the plan's `_LayerParts`: it
lays the members' part lists end to end, reads
each term position of every row with one getter call, XORs the t + 1
results term by term and keeps the rows whose user set holds a leader.
A payload whose user set has no leader is not sent: the step's equality
pattern (its step items renumbered by first occurrence, stored on the
record with the distinct items by `_xor_step`) fixes the family of sent
payloads that XOR to it.

Decoding is one part-indexed kernel (`_decode_parts`): it runs the user's
program from the table, and raises on a payload wider than its part.
`_decoded_slice` runs it on one record for one user, as `decode` and the
verifier's reference step check both do; the verifier's fast path checks
a record for all users at once: every member of V decodes from the one
equation payload V = XOR of the members' parts labeled V minus
themselves, so with exact caches one check per lane V stands for all its
members, and all lanes are checked together with lane-packed big-int
XORs (see verification.py).  Neither reads the encoder's getters or part
lists.  The table and family memos are both bounded.  The kernel reads
parts through the caller's part reader, one `_LayerReader` per layer,
which gives an item's parts of that layer when first asked for.  A plain
reader, {}, reads the user's cache alone, each part cut out of it when
first read (`_CachedParts`): `decode` takes one per call, the reference
check one per user and record.  The verifier's end-to-end check hands
each user readers over its tables of the store's parts, for the items
whose parts every cache holds exactly, and over the cache elsewhere (see
verification.py).  A reader also holds the mask of the parts its user
lacks in the layer, the mask of every slice the user decodes there, so a
slice ORs in its decoded bits only.  `decode` returns the joined file;
`_decoded_items`, which it wraps, gives the per-subfile result that the
verifier's end-to-end check compares with the store.

Content layout conventions (shared by placement, delivery, and decode):
an item is a nonempty subfile of the library the scheme works on, named by
its file-set mask (a plain int); an integer-share layer of size ``s`` at
offset ``o`` within an item is split into binom(K, t) equal parts ordered
by the canonical part labels, part i occupying item positions
[o + i*psize, o + (i+1)*psize).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, compress, repeat
from operator import itemgetter, xor
from typing import NamedTuple

from .combinat import (
    comb0,
    concat_bits,
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
    file_layout,
    within_capacity,
)
from .rates import _cicc_share, _slope_table, reads_point
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

class LayerSpec(NamedTuple):
    """One integer-share sublayer of an item: bits [offset, offset+size)."""

    t: int
    offset: int
    size: int


def _split_layers(
    total_size: int, t_exact: float, vertices, n_users: int, at_points: bool = True
):
    """Sublayers realizing share t_exact over an item of total_size bits: the
    one place where a share becomes whole bits, for every scheme.

    With `at_points`, a share at which the scheme's rate reads its raw
    integer point (cacc and cicc) keeps the item whole.  Any other share
    splits the item between the two vertices ta < tb (integer shares,
    ascending) bracketing t_exact, by memory sharing.  The cached,
    higher-share slice comes first, at offset 0, rounded down to a multiple
    of lcm(C(K, ta), C(K, tb)); the rest goes at share ta.  Rounding down
    keeps every cache within the share's nominal bits, so a prefix (cauc,
    vertices (0, K)) stays a prefix of at most the nominal size.  Rounding
    loss may lift the worst delivery above the nominal formula; the placed
    layers fix what each cache holds and what the verifier allows.
    """
    if at_points and reads_point(t_exact):
        return (LayerSpec(int(round(t_exact)), 0, total_size),)
    ta = tb = None
    for a, b in zip(vertices, vertices[1:]):
        ta, tb = a, b
        if t_exact < b:
            break
    if tb is None or not ta <= t_exact <= tb:
        raise ValueError(f"share {t_exact} outside envelope range")
    unit = math.lcm(comb0(n_users, ta), comb0(n_users, tb))
    lam = (t_exact - ta) / (tb - ta)
    size_b = int(lam * total_size / unit + 1e-9) * unit  # absorb float noise
    layers = (LayerSpec(tb, 0, size_b), LayerSpec(ta, size_b, total_size - size_b))
    return tuple(layer for layer in layers if layer.size)


def cacc_layers(config: LibraryConfig, level: int, t_exact: float):
    """Sublayer plan for one level of the shared-subfile coded scheme, split
    at the slope table's envelope vertices."""
    size = int(config.level_size(level))
    vertices = _slope_table(config.n_files, config.n_users).vertices[level - 1]
    return _split_layers(size, t_exact, vertices, config.n_users)


# ---------------------------------------------------------------------------
# schemes as placement groups

SCHEMES = ("cacc", "cauc", "cicc")


def _groups(
    config: LibraryConfig, alloc: CacheAllocation, store: ContentStore, scheme: str
):
    """Check the inputs and return the library the scheme works on, as
    (config, store, placement groups), each group being (level, items,
    layers): one per nonempty level, split by `_split_layers` at the
    level's share (cauc: a share-K prefix over a share-0 rest), or for
    cicc, which ignores the allocation, the library seen as N unrelated
    files, (F, 0, ..., 0) with subfile {i} holding file i, and one level-0
    group of its N subfiles.  Each layer is a `_LayerParts` over the
    returned store, which refuses a share-t layer that does not split into
    C(K, t) equal parts."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not config.is_integral():
        raise ValueError("placement and delivery need integer subfile sizes")
    n, k = config.n_files, config.n_users
    if scheme == "cicc":
        f = int(config.file_size)
        layers = _split_layers(f, _cicc_share(config), _slope_table(n, k).cicc, k)
        groups = [(0, part_labels(n, 1), layers)]
        files = {1 << (i - 1): store.file_bits(i) for i in range(1, n + 1)}
        config = LibraryConfig(n, k, config.cache_capacity, (f,) + (0,) * (n - 1))
        store = ContentStore(config=config, seed=store.seed, _contents=files)
    else:
        if len(alloc.fractions) != n:
            raise ValueError("allocation needs one fraction per level")
        groups = []
        for level in config.levels():
            size = int(config.subfile_sizes[level - 1])
            if size == 0:
                continue
            masks = part_labels(n, level)
            t_exact = alloc.fractions[level - 1] * k
            if scheme == "cacc":
                layers = cacc_layers(config, level, t_exact)
                masks = sorted(masks)  # remainder steps go out in mask order
            else:
                layers = _split_layers(size, t_exact, (0, k), k, at_points=False)
            groups.append((level, tuple(masks), layers))
    groups = [
        (level, items, tuple(_LayerParts(store.item_bits, layer, k) for layer in layers))
        for level, items, layers in groups
    ]
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


def _part_mask(n_users: int, t: int, psize: int, user: int) -> int:
    """OR-mask, at offset 0, of the part segments of a share-t layer that
    `user` caches: those whose label holds it."""
    seg = (1 << psize) - 1
    bit = 1 << (user - 1)
    return concat_bits((seg if lab & bit else 0, psize) for lab in _step_table(n_users, t).labels)


# ---------------------------------------------------------------------------
# transcript records

@dataclass(slots=True)
class StepRecord:
    """One leader-based XOR step: every payload sent for one step-item pattern.

    At share t = 0 with every user's step item the same item, user 1 is the
    only leader and the step is one plain payload of the whole layer.
    Not frozen, so building one is a plain slot store per field; nothing
    assigns to a record's fields once it is built.
    """

    level: int
    layer: LayerSpec
    step_items: tuple  # per user, the item it recovers this step
    leader_mask: int
    part_size: int
    payloads: dict  # user-set mask V -> XOR payload
    pattern: tuple  # step_items renumbered by first occurrence (`_pattern`)
    classes: tuple  # the distinct step items, in that order

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

    lanes: the (t+1)-user sets V, as masks in part_labels order.  rows: per
    V, in that order, (V, the payload's terms), each term (member index u,
    part index j) standing for the part of user u + 1's step item labeled
    V minus u + 1.  getters[p], for p = 0..t: one `itemgetter` that reads,
    in row order, every row's p-th term from a flat member x part list,
    term (u, j) at index u*C(K, t) + j; it always returns a sequence, and
    there are none at t = K, where no row exists.  held[u]: the part
    indices user u + 1 caches.  programs[u]: per part i user u + 1 lacks,
    in part order, (i, V, the other members' terms of V), V being the
    part's label plus the user.

    The encoder reads the getters, the decoder the programs.  The
    verifier's lane pass reads the rows as its lane layout: lane l of a
    packed record holds row l's payload, and member u's lift of an item
    puts, at each lane l whose row has a term (u, j), the item's part j.
    """

    labels: tuple
    lanes: tuple
    rows: tuple
    getters: tuple
    held: tuple
    programs: tuple


# Bounded: a pass over many configs would otherwise keep every (K, t) table
# it met.  A placement, delivery or decode uses at most K + 1 tables, and
# every table with K <= 8 (44 of them) fits, so calls that alternate K do
# not evict each other's tables.
@lru_cache(maxsize=64)
def _step_table(n_users: int, t: int) -> _StepTable:
    """The one walk over a share-t step's part labels and members: who
    caches which part (placement), what each payload XORs (`_xor_step`),
    what each user reads to rebuild its missing parts (`_decode_parts`) and,
    row by row, the verifier's lanes."""
    labels = part_labels(n_users, t)
    lanes = part_labels(n_users, t + 1)
    index = {lab: i for i, lab in enumerate(labels)}
    rows = tuple(
        (v, tuple((u - 1, index[v ^ 1 << (u - 1)]) for u in members_of(v)))
        for v in lanes
    )
    getters = ()
    if rows:
        flat = [[u * len(labels) + j for u, j in terms] for _, terms in rows]
        # an itemgetter of one index returns a bare item, a slice a list
        getters = tuple(
            itemgetter(*col) if len(col) > 1 else itemgetter(slice(col[0], col[0] + 1))
            for col in zip(*flat)
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
    return _StepTable(labels, lanes, rows, getters, held, programs)


class _LayerParts(dict):
    """One placed layer of a group's items, the one owner of its facts:
    the `LayerSpec`, its offset, part size and part count, its step table
    and `held`, each user's part template.  Placement, `cached_bits()`,
    the encoder and the verifier all read them here.

    As a dict it holds the layer's parts of every item, each item split
    from `item_bits` when first asked for: parts[item] lists its C(K, t)
    parts of the layer in part order (`_xor_step`'s input).  A layer that
    does not split into C(K, t) equal parts is refused.
    """

    __slots__ = ("item_bits", "layer", "offset", "psize", "nparts", "table", "_held")

    def __init__(self, item_bits, layer: LayerSpec, n_users: int):
        super().__init__()
        self.table = _step_table(n_users, layer.t)
        nparts = len(self.table.labels)
        if layer.size % nparts:
            raise ValueError(f"layer size {layer.size} not divisible into {nparts} parts")
        self.item_bits, self.layer = item_bits, layer
        self.offset, self.psize, self.nparts = layer.offset, layer.size // nparts, nparts
        self._held = None

    @property
    def held(self) -> tuple:
        """Per user, entry u for user u + 1, the OR-mask at offset 0 of the
        parts it caches, built on first read: placement and the verifier
        read it, delivery never does."""
        if self._held is None:
            n_users, t = len(self.table.held), self.layer.t
            self._held = tuple(
                _part_mask(n_users, t, self.psize, u) for u in range(1, n_users + 1)
            )
        return self._held

    def lacked(self, user: int) -> int:
        """The parts `user` lacks, at their item positions: the mask of
        every slice it decodes in this layer."""
        return (((1 << self.layer.size) - 1) ^ self.held[user - 1]) << self.offset

    def __missing__(self, item):
        bits, offset, psize = self.item_bits(item), self.offset, self.psize
        pmask = (1 << psize) - 1
        parts = self[item] = [(bits >> offset + j * psize) & pmask for j in range(self.nparts)]
        return parts


def _xor_step(level, step_items, parts) -> StepRecord:
    """Emit every XOR payload for one step of the layer `parts`, a
    `_LayerParts`: parts[item] lists the item's parts of the layer.

    For each user set V of size t+1 touching a leader, the payload XORs,
    over k in V, the part of user k's step-item labeled V minus k; each user
    in V misses exactly its own term and holds the rest in cache.  With L
    distinct step items (L leaders), C(K-L, t+1) of the C(K, t+1) user sets
    avoid every leader, so the step sends C(K, t+1) - C(K-L, t+1) payloads.
    All C(K, t+1) payloads come from the table's t + 1 getters, read from
    the members' parts laid end to end and XORed together term by term.
    """
    pattern, classes, leader_mask = _pattern(step_items)
    flat = list(chain.from_iterable(map(parts.__getitem__, step_items)))
    getters, lanes = parts.table.getters, parts.table.lanes
    ys = getters[0](flat) if getters else ()
    for get in getters[1:]:
        ys = map(xor, ys, get(flat))
    return StepRecord(
        level=level,
        layer=parts.layer,
        step_items=step_items,
        leader_mask=leader_mask,
        part_size=parts.psize,
        payloads=dict(compress(zip(lanes, ys), map(leader_mask.__and__, lanes))),
        pattern=pattern,
        classes=classes,
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


_READ = itemgetter.__call__


class DeliveryPlan:
    """The demand-independent work of delivery, done once.

    A plan is built from (config, alloc, store, schedule source, seed,
    scheme).  It runs the input checks and loads the fixture once; holds the
    library the scheme works on (`config`, `store`: for cicc, the library
    seen as N unrelated files) and its placement groups (`_groups`: level,
    items, one `_LayerParts` per layer); `_levels` holds, per group, the
    same objects for its delivered layers, those at t < K.  It builds, per
    (window, group), the scheme's column table.  `place()` builds the
    users' caches from the same library and groups.  Step payloads depend
    on the demand vector only through the per-step item pattern, so
    deliveries of many demand vectors through one plan
    (``plan.deliver(demands)``) share almost all bit-level work.  cicc
    ignores `alloc` (it may be None).

    Per demand set, per demand vector: `_choice` returns the set of
    demanded files' groups, each with its column table and, per delivered
    layer, its remainder step patterns or None when coded; the plan keeps
    no choice and makes it afresh on every call.  `_step_items` reads the
    coded column tables at the demands of any vectors of one set,
    `_records` builds a layer's records for step items, and `_transcript`
    builds one vector's transcript from its set's choice.  The verifier
    asks for each demand set's choice once and drives the other three over
    the set's vectors, which are valid by construction; `deliver` drives
    them for one vector.
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
        self.config, self.store, self._groups = _groups(config, alloc, store, scheme)
        placed = self.cached_bits()
        if not within_capacity(config, placed):
            raise ValueError(
                f"caches would hold {placed} bits, over the budget of "
                f"{config.cache_capacity * config.file_size:.10g}"
            )
        self.seed = seed
        self.scheme = scheme
        self._levels = tuple(
            (level, items, tuple(parts for parts in layers if parts.layer.t < config.n_users))
            for level, items, layers in self._groups
        )
        self._fixture = (
            self._load_fixture(schedule_source) if schedule_source is not None else None
        )
        self._columns = {}

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
        if fixture.level not in [level for level, _, layers in self._levels if layers]:
            raise ValueError(f"fixture level {fixture.level} has no delivered sublayer")
        return fixture

    def cached_bits(self) -> int:
        """The bits every cache holds after `place()`: per item and share-t
        layer, C(K-1, t-1) of its C(K, t) parts."""
        k = self.config.n_users
        return sum(
            len(items) * parts.psize * comb0(k - 1, parts.layer.t - 1)
            for _, items, layers in self._groups
            for parts in layers
        )

    def place(self) -> list:
        """Every user's cache: each group's items are split into labeled
        parts per layer, and each user keeps the parts whose label contains
        it (a share-K layer is one part every user keeps).

        Checked in whole bits: every cache holds exactly `cached_bits()`.
        """
        k = self.config.n_users
        caches = [UserCache(user=u) for u in range(1, k + 1)]
        for _, items, layers in self._groups:
            # per user, its positions in each of the group's items: its parts
            # of every cached layer, each at the layer's offset
            masks = [0] * k
            for parts in layers:
                if parts.layer.t:
                    for u, tpl in enumerate(parts.held):
                        masks[u] |= tpl << parts.offset
            held = [(cache, mask) for cache, mask in zip(caches, masks) if mask]
            for item in items:
                content = self.store.item_bits(item)
                for cache, mask in held:
                    cache.add(item, mask, content)
        placed = self.cached_bits()
        for cache in caches:
            if cache.total_bits() != placed:
                raise RuntimeError(
                    f"user {cache.user} caches {cache.total_bits()} bits, not the "
                    f"{placed} its layers place"
                )
        return caches

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
        """Every coded step of one group over `window`, one column per step,
        indexed by file number: entry f is the item file f's window position
        recovers (0 at index 0 and at files outside the window), so a demand
        vector's step patterns are the columns read at its demands.  The
        columns are the schedule columns of every fixed-part pool for cacc,
        one column of the window's files for cicc, and None for cauc, which
        has no coded steps."""
        if self.scheme == "cauc":
            return None
        key = (window, level)
        table = self._columns.get(key)
        if table is None:
            if self.scheme == "cicc":
                columns = (tuple(1 << (f - 1) for f in window),)
            else:
                columns = (
                    col
                    for rbar in _pools(self.config, level, window)
                    for col in self._schedule(window, rbar, level).columns
                )
            table = []
            for col in columns:
                row = [0] * (self.config.n_files + 1)
                for f, item in zip(window, col):
                    row[f] = item
                table.append(tuple(row))
            table = self._columns[key] = tuple(table)
        return table

    def _choice(self, demands) -> tuple:
        """Everything of a delivery that depends only on the set of demanded
        files, built afresh on every call: per group, (level, its column
        table or None, per delivered layer (its `_LayerParts`, its remainder
        step patterns, or None when coded)), in transcript order.  A coded
        layer's steps are the column table read per demand vector
        (`_step_items`); a remainder layer's patterns are listed here.

        A step whose column holds L distinct items at the demanded files
        sends C(K, t+1) - C(K-L, t+1) payloads (`step_payloads`).
        The coded steps go out when they total no more than the floor: one
        remainder step of C(K-1, t) payloads per demanded item (an item
        touching a demanded file, listed once per set), every demanded
        item's uncached size*(K-t)/K bits once.  Either way a level
        costs the lesser of the two, the cacc formula's min(alpha, m).
        cicc's single coded step never exceeds the floor: C(K,t+1) -
        C(K-N_e,t+1) <= N_e*C(K-1,t) for N_e distinct demanded files.
        """
        k = self.config.n_users
        files = set(demands)
        demand_mask = mask_of(files)
        window = _window(self.config.n_files, k, demands)
        groups = []
        for level, items, layers in self._levels:
            if not layers:
                groups.append((level, None, ()))
                continue
            table = self._column_table(window, level)
            # one remainder step per demanded item, should the coded steps cost more
            patterns = tuple((item,) * k for item in items if item & demand_mask)
            if table is not None:
                # number of coded steps per count of distinct step items
                steps_with = Counter([len({col[f] for f in files}) for col in table])
            sent = []
            for parts in layers:
                t = parts.layer.t
                coded = table is not None and sum([
                    c * step_payloads(k, t, n) for n, c in steps_with.items()
                ]) <= len(patterns) * comb0(k - 1, t)
                sent.append((parts, None if coded else patterns))
            groups.append((level, table, tuple(sent)))
        return tuple(groups)

    def _records(self, level, parts, patterns):
        """One layer's step records for `patterns`, in order, each built
        only when the iterator reaches it, by `_xor_step` (looked up as a
        module global so tests can patch it) from the layer's part lists.
        The plan keeps none of them."""
        return (_xor_step(level, items, parts) for items in patterns)

    def _step_items(self, per_set, vectors):
        """Per group of a demand set's `_choice` with coded layers, (level,
        those layers, per column of its table the step items of every
        vector), for `vectors`, demand tuples of that one set: each column
        is read at each vector's demands by one `itemgetter` per vector,
        built once per call."""
        coded = [
            (level, table, layers)
            for level, table, sent in per_set
            if (layers := [parts for parts, patterns in sent if patterns is None])
        ]
        if not coded:
            return
        if self.config.n_users > 1:
            readers = list(map(itemgetter, *zip(*vectors)))
        else:
            # an itemgetter of one index returns a bare item, a slice a tuple
            readers = [itemgetter(slice(d, d + 1)) for (d,) in vectors]
        for level, table, layers in coded:
            yield level, layers, [list(map(_READ, readers, repeat(row))) for row in table]

    def deliver(self, demands) -> Transcript:
        """Deliver one demand vector as a `Transcript`, from its set's
        `_choice`, made afresh for this call (see `_transcript`)."""
        demands = as_demands(demands, self.config)
        return self._transcript(demands, self._choice(demands))

    def _transcript(self, demands, per_set) -> Transcript:
        """One valid demand vector's `Transcript` from `per_set`, the
        `_choice` of its demand set: per group and delivered layer, its
        records (`_records`) for the set's remainder patterns or, when
        coded, for the group's columns read at the demands (`_step_items`),
        in that layout; the coded steps' payload counts; and the bits per
        level and in total, summed from the records."""
        coded = {
            level: [col[0] for col in columns]
            for level, _, columns in self._step_items(per_set, (demands,))
        }
        sections, step_counts, per_level = [], [], {}
        for level, _, sent in per_set:
            level_bits = 0
            for parts, patterns in sent:
                steps = coded[level] if patterns is None else patterns
                records = list(self._records(level, parts, steps))
                if patterns is None:
                    step_counts += [len(rec.payloads) for rec in records]
                sections += records
                level_bits += sum(rec.bits for rec in records)
            per_level[level] = level_bits
        return Transcript(
            scheme=self.scheme,
            config=self.config,
            sections=tuple(sections),
            total_bits=sum(per_level.values()),
            step_counts=tuple(step_counts),
            per_level_bits=per_level,
        )


def place(
    config: LibraryConfig,
    alloc: CacheAllocation,
    store: ContentStore,
    scheme: str = "cacc",
) -> list:
    """Every user's cache under `scheme`: builds a DeliveryPlan for this call
    and places through it (see DeliveryPlan.place)."""
    return DeliveryPlan(config, alloc, store, scheme=scheme).place()


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
    """A step's equality pattern, distinct items and leaders, from one walk
    over its step items: the pattern renumbers the step items by first
    occurrence, e.g. (0, 1, 0, 2, 2), the distinct items come in that
    order, and the leaders, the first user per distinct item, form a
    user-set mask.  The pattern alone fixes the leaders and the family of
    every unsent payload."""
    ids = {}
    pattern = []
    leaders = 0
    for k, item in enumerate(step_items):
        c = ids.get(item)
        if c is None:
            c = ids[item] = len(ids)
            leaders |= 1 << k
        pattern.append(c)
    return tuple(pattern), tuple(ids), leaders


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
    c = v | _pattern(pattern)[2]
    out = []
    for combo in combinations(members_of(c), v.bit_count()):
        w = mask_of(combo)
        if w == v:
            continue
        rest = [pattern[u - 1] for u in members_of(c & ~w)]
        if len(set(rest)) == len(rest):
            out.append(w)
    return tuple(out)


def _decode_parts(user: int, rec: StepRecord, parts) -> list:
    """The decode kernel: `user`'s missing parts of its step item in `rec`,
    as (part index, bits) pairs.

    parts[u][j] is the user's cached part j, in the record's layer, of user
    u + 1's step item, or None when that part is not fully cached.  A
    payload wider than its part raises: cached parts fit the part size, so
    any bit above it comes from the payloads, and each member of a sent
    payload reads that payload directly.
    """
    payloads = rec.payloads
    leader_mask = rec.leader_mask
    pattern = rec.pattern
    psize = rec.part_size
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
                pos = rec.layer.offset + j * psize
                raise RuntimeError(
                    f"decoder missing bits of subfile {_item_name(rec.step_items[u])} "
                    f"at {pos}"
                )
            y ^= part
        if y >> psize:
            raise RuntimeError(
                f"payload of users {_item_name(v)} is wider than its {psize}-bit part"
            )
        out.append((i, y))
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


class _LayerReader(dict):
    """One user's parts of every item in one layer, as the decode kernel
    reads them, each item's made when first asked for: reader[x] is the
    part list `exact[x]` where the caller's table `exact` has one (not
    None), and otherwise x's `_CachedParts` from the user's cache.
    `mask` covers, at their item positions, the parts the user's program
    rebuilds, those whose label lacks the user: the mask of every slice
    the user decodes in this layer."""

    __slots__ = ("masks", "bits", "offset", "psize", "mask", "exact")

    def __init__(self, cache: UserCache, layer: LayerSpec, psize: int, mask: int, exact=None):
        super().__init__()
        self.masks, self.bits = cache.known_masks, cache.known_bits
        self.offset, self.psize, self.mask, self.exact = layer.offset, psize, mask, exact

    def __missing__(self, x):
        parts = None if self.exact is None else self.exact[x]
        if parts is None:
            parts = _CachedParts(
                self.masks.get(x, 0), self.bits.get(x, 0), self.offset, self.psize
            )
        self[x] = parts
        return parts


def _decoded_slice(user: int, rec: StepRecord, cache: UserCache, read: dict):
    """The parts of its step item that `user` decodes from `rec` alone, at
    their item positions, as (mask, bits): one decode-kernel run, reading
    parts through `read`, the caller's part reader.  read[layer] is the
    user's `_LayerReader` of the record's layer; one missing there is made
    from the cache alone and filled in, so a plain {} reads only the cache."""
    layer = rec.layer
    try:
        reader = read[layer]
    except KeyError:
        k, psize = len(rec.pattern), rec.part_size
        lacked = ((1 << layer.size) - 1) ^ _part_mask(k, layer.t, psize, user)
        reader = read[layer] = _LayerReader(cache, layer, psize, lacked << layer.offset)
    class_parts = list(map(reader.__getitem__, rec.classes))
    psize = rec.part_size
    bits = 0
    for i, y in _decode_parts(user, rec, [class_parts[c] for c in rec.pattern]):
        bits |= y << (i * psize)
    return reader.mask, bits << layer.offset


def _decoded_items(user: int, cache: UserCache, transcript: Transcript, demands, read: dict):
    """user's demanded file as decoded from its cache and the transcript, one
    (item, size, bits) per subfile in file layout order (`decode` joins
    them; the verifier compares each with the store).

    ORs in the decoded slice of every section whose step item for this
    user is a subfile of its file in the transcript's library, reading
    parts through `read`, the caller's part reader (see `_decoded_slice`).
    """
    config = transcript.config
    demands = as_demands(demands, config)
    layout = [(m, size) for m, size, _ in file_layout(config, demands[user - 1])]
    masks, bits = cache.known_masks, cache.known_bits
    got_masks = {item: masks.get(item, 0) for item, _ in layout}
    got_bits = {item: bits.get(item, 0) for item, _ in layout}
    for rec in transcript.sections:
        item = rec.step_items[user - 1]
        if item in got_masks:
            mask, got = _decoded_slice(user, rec, cache, read)
            got_masks[item] |= mask
            got_bits[item] |= got

    for item, size in layout:
        seg = (1 << size) - 1
        if got_masks[item] & seg != seg:
            raise RuntimeError(
                f"user {user} cannot reconstruct subfile {_item_name(item)}"
            )
    return [(item, size, got_bits[item] & ((1 << size) - 1)) for item, size in layout]


def decode(user: int, cache: UserCache, transcript: Transcript, demands) -> int:
    """Reconstruct user's demanded file from its cache and the transcript:
    its subfiles as `_decoded_items` rebuilds them, joined in file order."""
    return concat_bits(
        (bits, size) for _, size, bits in _decoded_items(user, cache, transcript, demands, {})
    )
