"""Exhaustive demand-grid verification tying simulation to the formulas.

verify_all_demands drives the bit-level engine over every demand vector of a
config and checks two things everywhere: decodability (every user can
rebuild its file from cache + transcript) and rate soundness (measured bits
never exceed the scheme's formula at the placed layers, an int with no
slack: per delivered layer, its part size times the worst-case payload
count at its share, `_limit_bits`, read from `rates._worst_payloads`).
After the sweep, the worst measured bits must also respect the cut-set
converse at the bits the caches actually hold (`_converse_misses`, over
the cut-set bound's own rows, `rates._cut_totals`): a delivery that beats
it reads something it should not.  All three schemes run through the
same `DeliveryPlan` with a `scheme` argument, which places the caches too
(`plan.place()`); the scheme only picks the worst-case counts.  The
report's `formula_rate` stays the nominal formula, which the worst
delivery may exceed by the bits that rounding kept out of the caches.
Every transmitted section is one leader-based XOR step whose payloads
depend on demands only through its step-item pattern, so one plan plus
per-record decode checks keep the full N^K sweep fast: every sent record
is checked for every user.  A record check does not show that a vector's
records together carry every part its users lack, which a step that the
plan omits or misroutes breaks.  So, per demand set, the completeness
check asks that in each delivered layer, for each demanded file f, the
steps give f's users every item of the layer's group that touches f:
those items come from the plan's groups, never from the choice under
test, and a coded layer gives them col[f] per column, a remainder layer
the items its patterns give every user.  The record checks, the
completeness check and the share-K check (below) together cover
decodability on every vector: every user receives, in every delivered
layer, a step for each subfile of its file, rebuilds that subfile's
layer slice exactly, and holds its share-K layers exactly.  The 3-4
sampled demands also run the end-to-end decoder, `decode_failures`, the
one end-to-end decode check, which `corrcache simulate` runs too.  It
walks each user's decode as `decode` does (`_decode_walk`), compares
every decoded part with the store's part of the plan's library, and
checks each subfile's coverage and held bits with a few mask operations,
so it assembles no subfile and no file; a user that this cannot pass is
decoded again by the assembling reference, `_decoded_items`, which gives
the user's line.

One table per layer, `_ExactParts`, owns the predicate "every cache
holds its parts of item x in this layer exactly as the store does": its
entry for x is None where some cache differs, and otherwise the store's
parts of x, split once.  It is a `_LayerParts` of its own, so it reads
the layer's geometry where placement and the encoder do, and takes the
plan's part templates (`DeliveryPlan.templates()`), the ints placement
built the caches from, where its caller has them; but it splits from
`store.item_bits` and never reads the plan's part lists: the check stays
independent of the encoder's split.  Where the entry is not
None, the cache parts a decode reads are those very ints, since a user's
decode reads only parts it holds; so `decode_failures` reads a class
item's parts from the table there, once for all users, and from the
user's cache, which words every fault, elsewhere.  The entry of a user's
own subfile is also what each of its decoded parts is compared with.
The predicate compares each cache at item positions, against its user's
part template shifted to the layer's offset once per table: whether a
cached mask covers the template once per (user, mask int), since a
group's items share one mask per user, and the cached bits per item.  A
table lives for one `decode_failures` call in `simulate` and for one
sweep here, where the lane pass and the sampled decodes share it;
nothing is kept across calls.

No step sends a share-K layer, so no record check reads one.  The sweep
checks each cache against every share-K layer once, through the same
predicate (`_ExactParts.misses`): one line per (user, subfile) that the
user does not hold exactly, after the per-vector lines and before the
converse, and every vector in which that user asks for a file holding
that subfile is not ok.

The step check has two stages.  The lane pass (`_lanes_clear`) checks a
record for all K users at once with one identity per lane.  The
payloads, none wider than the part size, sit side by side in one int,
payload V in lane index(V) of the (t+1)-user sets (the step table's row
order), with the unsent lanes rebuilt from their families once per
record.  A member k of V rebuilds its part labeled V minus k as payload V
XOR its cached parts labeled V minus u of the other members u's items, so
with every cache holding its parts exactly, k rebuilds the true part if
and only if payload V is the XOR, over all of V's members u, of the true
part of u's item labeled V minus u: the same condition for every member.
Every lane holds a member, and each user decodes exactly the lanes
holding it, so the per-user checks together are the one identity on
every lane: XORing each member's lift of its step item (its true parts
moved to the lanes holding it) into the packed payloads must leave 0.
The lifts are built once per sweep per (layer, item), from the table's
store parts and the step table's rows, and only for an item whose parts
every cache holds exactly; otherwise the lane pass cannot tell.  A
record the lane pass does not clear goes to `_check_step`, the
reference: per user, it decodes the record through delivery's own
per-record decode (`_decoded_slice`, the kernel run and slice join that
`decode` makes per section), reading the cache without copying it, and
words every violation; it keeps no memo.  A user passes when its cached
bits of its step item, with the decoded parts in place, cover the
layer's bit range and equal the store's there.  The lane pass clears a record only if `_check_step`
passes it, so the verdicts are the reference's.

The sweep works per demand set.  A vector's sections depend on it only
through its set of demanded files and, per coded step, its step items, so
the sweep groups the N^K vectors by demand set, each set's vectors in
product order.  Per set it asks the plan for the set's choice once
(`_choice`), looks the set's remainder steps up once, summing their
bits, and runs the completeness check on it.  A set with no coded layer,
which is every set of a plan that delivers nothing, gives all its vectors
those bits and that verdict in bulk.  In a coded set, the plan reads every column at every vector's
demands (`_step_items`).  Every step, remainder or coded, is one lookup
in its layer's verdict table keyed by step items, which gives the bits
and the verdict of that very record: a vector's bits are summed over its
own steps, never taken from another vector.  The tables are the sweep's
only index of steps.  On a miss the record is built (`_records`),
checked, filed and dropped, so no record outlives its check.  A failing
record is reported once, where a per-vector loop would first meet it, and
every vector that sends it is marked not ok.  A completeness gap is one
line per (set, file, level, layer), naming the missing subfiles, sorted
before every other line of the set's first vector, and every vector of
the set is not ok, since each of them asks for that file.  Only the
sampled vectors get a full `Transcript` (`_transcript`, from their set's
choice), for the end-to-end decoder.  The sets that hold one go first,
and inside such a set the samples come before its lookups: each is
delivered, its records are checked and filed, so the sweep builds none
of them again, and it is decoded; then its transcript goes.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from itertools import product

from .combinat import members_of
from .delivery import (
    DeliveryPlan,
    LayerSpec,
    StepRecord,
    _decode_walk,
    _decoded_items,
    _decoded_slice,
    _family,
    _item_name,
    _LayerParts,
)
from .model import ContentStore, LibraryConfig
from .rates import _cut_totals, _worst_payloads, cacc_rate, cauc_rate, cicc_rate

__all__ = [
    "GridReport",
    "verify_all_demands",
    "worst_case_demand",
]

_GRID_GUARD = 10**6
# The sweep also runs the complete user decoder on every (N^K // 3)-th demand
# vector (at least every one): all of a grid of fewer than 6 vectors, else 3
# or 4 of them.
_FULL_DECODE_SAMPLES = 3
_KEY = operator.itemgetter(0)
# Each scheme's worst-case rate formula, as a function of (config, alloc).
_FORMULAS = {
    "cacc": cacc_rate,
    "cauc": cauc_rate,
    "cicc": lambda config, alloc: cicc_rate(config),
}


@dataclass
class GridReport:
    """Outcome of one exhaustive demand sweep."""

    scheme: str
    demands: tuple
    measured_rates: tuple
    decode_ok: tuple
    formula_rate: float
    max_rate: float
    argmax_demand: tuple
    violations: tuple
    cached_bits: int  # the bits placement put in each cache

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def formula_gap(self) -> float:
        """How far the formula lies above the worst measured rate: the slack
        a wasteful delivery could hide in and still pass.  Negative by the
        rounding loss when placement rounded cached slices down."""
        return self.formula_rate - self.max_rate

    def to_csv(self) -> str:
        lines = ["demand,measured_rate,formula_rate,decode_ok"]
        for d, r, okflag in zip(self.demands, self.measured_rates, self.decode_ok):
            key = "-".join(map(str, d))
            lines.append(f"{key},{r:.10g},{self.formula_rate:.10g},{int(okflag)}")
        return "\n".join(lines) + "\n"


def worst_case_demand(config: LibraryConfig) -> tuple[int, ...]:
    """Distinct demands when possible, else cycle through every file."""
    n, k = config.n_files, config.n_users
    if n >= k:
        return tuple(range(1, k + 1))
    return tuple(i % n + 1 for i in range(k))


def decode_failures(
    caches, transcript, demands, store, tables=None, templates=None
) -> list[str]:
    """Decode every user's file from its cache and the transcript and check
    it against `store`, the store of the transcript's library (a plan's
    `store`; for cicc, the N-file view): one line per failing user, in user
    order, for a decode that raises or one that returns wrong bits.

    Each user's decode walk (`delivery._decode_walk`, which `decode`
    walks too) is checked part by part (`_rebuilds_store`): every decoded
    part against the store's part in the layer's `_ExactParts`, and each
    subfile's coverage and held bits with a few mask operations, so no
    subfile or file is assembled.  A user that this cannot pass is decoded
    again through `_decoded_items`, the reference, which gives its line.
    The kernel reads a class item's parts in a layer from `tables`, the
    caller's `_ExactParts` per layer, where that table's entry is not
    None: the store's parts, split once for all users.  Otherwise it reads
    them from the user's own cache (`_CachedParts`), the reference reading,
    which words every fault.  The two give the same ints wherever the
    table has an entry, since the kernel reads only parts the decoding
    user holds.  With tables None the call makes its own; the sweep passes
    the tables its lane pass reads.  A table this call makes takes its
    layer's part templates from `templates`, the plan's
    (`DeliveryPlan.templates()`), where given, else builds its own.
    """
    if tables is None:
        tables = {}
    if templates is None:
        templates = {}
    layers = {  # in transcript order
        layer: _exact(tables, layer, caches, store, templates.get(layer))
        for layer in dict.fromkeys(rec.layer for rec in transcript.sections)
    }
    failures = []
    for user in range(1, len(demands) + 1):
        cache = caches[user - 1]
        try:
            if _rebuilds_store(user, cache, transcript, demands, layers, store):
                continue
            got = _decoded_items(user, cache, transcript, demands, layers)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the caller
            failures.append(f"user {user} decode raised {exc!r}")
            continue
        if any(bits != store.item_bits(item) for item, _, bits in got):
            failures.append(f"user {user} decode mismatch")
    return failures


def _rebuilds_store(user: int, cache, transcript, demands, layers: dict, store) -> bool:
    """True when `user`'s decode rebuilds every subfile of its file exactly,
    False when this check cannot tell, and `_decoded_items` decides.

    Each part the walk decodes must equal the store's part in its layer's
    table (`layers`, whose entry for the user's own subfile must not be
    None), so the decoded slices together are the store's bits under the
    union of their masks.  Per subfile, the cached mask with that union
    must be the subfile's whole bit range, and the cached bits with the
    store's under it the store's bits: exactly the reference's verdict
    once every decoded part is right.  It raises only where the
    reference's walk raises, on the same section."""
    layout, walk = _decode_walk(user, cache, transcript, demands, layers)
    decoded = dict.fromkeys([item for item, _ in layout], 0)
    for item, rec, mask, parts in walk:
        true = layers[rec.layer][item]
        if true is None:
            return False
        for i, y in parts:
            if y != true[i]:
                return False
        decoded[item] |= mask
    masks, bits = cache.known_masks, cache.known_bits
    spans = {}  # per subfile size, its whole bit range
    for item, size in layout:
        span = spans.get(size)
        if span is None:
            span = spans[size] = (1 << size) - 1
        got = decoded[item]
        want = store.item_bits(item)
        if masks.get(item, 0) | got != span or bits.get(item, 0) | want & got != want:
            return False
    return True


def _check_step(rec: StepRecord, caches, store) -> list[str]:
    """Every user must rebuild its step item's layer slice exactly, from the
    transcript record and its own cache alone: the reference check, one
    `_decoded_slice` per user, which words every violation.

    A user's slice is its cached bits of its step item with the decoded
    parts in their place, over the layer's C(K, t) parts: "missing bits"
    when it does not cover them, "wrong bits" when it differs there from
    store, the library the scheme works on (the plan's store; for cicc,
    the N unrelated files).  Nothing is memoized.
    """
    out = []
    layer = rec.layer
    span = ((1 << layer.size) - 1) << layer.offset
    for k, cache in enumerate(caches, start=1):
        try:
            mask, bits = _decoded_slice(k, rec, cache)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
            out.append(f"user {k} raised {exc!r}")
            continue
        item = rec.step_items[k - 1]
        held = cache.known_masks.get(item, 0) & ~mask
        got = (cache.known_bits.get(item, 0) & held) | bits
        if (held | mask) & span != span:
            out.append(f"user {k} missing bits")
        elif (got ^ store.item_bits(item)) & span:
            out.append(f"user {k} wrong bits")
    if not out:
        return out
    tag = f"level {rec.level} step ({', '.join(map(_item_name, rec.step_items))})"
    return [f"{tag}: {line}" for line in out]


# ---------------------------------------------------------------------------
# the lane pass: one record checked for all K users at once

class _ExactParts(_LayerParts):
    """One layer's store parts of every item that every cache holds exactly,
    for one sweep or one `decode_failures` call: the one owner of the
    predicate "every cache holds its parts of x in this layer exactly as
    the store does", decided per item x when first asked for.  It is a
    `_LayerParts` of its own over `store.item_bits`, never the plan's, so
    the check stays independent of the encoder's part lists.  `held`, when
    given, is the layer's per-user part templates that placed the caches
    (the plan's `templates()`); otherwise the table builds its own.

    parts[x] is None when some user's cache does not hold its parts of x
    exactly (`misses`).  Otherwise it lists the store's C(K, t) parts of x
    in part order, split as the layer splits any item.

    The lane pass reads lifts, built from these parts (`lift`): lift(x)[u]
    is member u + 1's lift of x, for every (t+1)-user set V holding u + 1
    the part of x labeled V minus u + 1, at lane V.  Lane l is the step
    table's row l, and lift u collects the row terms of member u.
    """

    __slots__ = ("caches", "lifts", "_at", "_span", "_last", "_covers")

    def __init__(self, layer: LayerSpec, caches, store, held=None):
        super().__init__(store.item_bits, layer, len(caches))
        if held is not None:
            self._held = held
        off = self.offset
        self._at = tuple(h << off for h in self.held) if off else self.held
        self._span = ((1 << layer.size) - 1) << off
        self.caches, self.lifts = caches, {}
        self._last = [(None, False)] * len(caches)
        self._covers = [{} for _ in caches]

    def lacked(self, user: int) -> int:
        """The parts `user` lacks, at their item positions: the mask of
        every slice it decodes in this layer."""
        return self._span ^ self._at[user - 1]

    def misses(self, x) -> list:
        """The users, entry u for user u + 1, whose cache does not hold its
        parts of x in this layer exactly as the store does: some part not
        fully cached, or not equal to the store's.  Each cache is compared
        at item positions, against its user's part template shifted to the
        layer's offset once per table, so nothing is shifted per item.

        Whether a cached mask covers the template is decided once per
        (user, mask int): a group's items share one mask per user.  The
        last mask each user met is tried first, by identity, then the
        masks met before, by id; each is kept with its verdict, so its id
        cannot be reused while the table lives.  The content test runs per
        item.  At share 0 every template is 0, and nothing is compared."""
        if not self.layer.t:
            return []
        bits = self.item_bits(x)
        last, out = self._last, []
        for u, (cache, at) in enumerate(zip(self.caches, self._at)):
            mask = cache.known_masks.get(x, 0)
            seen = last[u]
            if mask is not seen[0]:
                seen = self._covers[u].get(id(mask))
                if seen is None:
                    seen = self._covers[u][id(mask)] = (mask, mask & at == at)
                last[u] = seen
            if not seen[1] or (cache.known_bits.get(x, 0) ^ bits) & at:
                out.append(u)
        return out

    def __missing__(self, x):
        if self.misses(x):
            self[x] = None
            return None
        return super().__missing__(x)

    def lift(self, x):
        """Every member's lift of x, or None where parts[x] is None; built
        once and kept in `lifts`."""
        lifts = self.lifts
        if x not in lifts:
            parts = self[x]
            if parts is not None:
                psize = self.psize
                out = [0] * len(self.caches)
                for lane, (_, terms) in enumerate(self.table.rows):
                    for u, j in terms:
                        out[u] |= parts[j] << lane * psize
                parts = tuple(out)
            lifts[x] = parts
        return lifts[x]


def _exact(tables: dict, layer: LayerSpec, caches, store, held=None) -> _ExactParts:
    """The `_ExactParts` of `layer` in `tables`, made there on first use,
    from `held`, the layer's part templates, where the caller has them:
    the sweep's or one `decode_failures` call's tables, keyed by layer."""
    table = tables.get(layer)
    if table is None:
        table = tables[layer] = _ExactParts(layer, caches, store, held)
    return table


def _lanes_clear(rec: StepRecord, tables: dict, caches, store) -> bool:
    """The lane pass: True when every user rebuilds its step item's layer
    slice exactly, False when the pass cannot tell, and `_check_step`
    decides.

    The record's payloads, none wider than the part size, are packed into
    one int, lane by lane, with every unsent lane rebuilt from its family.
    XORing in every member's lift of its step item must leave 0: each lane
    V's payload is then the XOR over V's members u of the true part of u's
    item labeled V minus u.  With every cache exact, that one identity is
    each member's decode check at lane V, so it stands for all K users.
    tables is the sweep's `_ExactParts` per layer, which its sampled
    decodes share.
    """
    psize = rec.part_size
    exact = tables.get(rec.layer)  # looked up inline: this runs once per record
    if exact is None:
        exact = _exact(tables, rec.layer, caches, store)
    payloads, leaders, pattern = rec.payloads, rec.leader_mask, rec.pattern
    if max(payloads.values(), default=0) >> psize:
        return False
    packed = shift = 0
    try:
        for v in exact.table.lanes:
            if v & leaders:
                y = payloads[v]
            else:
                y = 0
                for w in _family(pattern, v):
                    y ^= payloads[w]
            packed |= y << shift
            shift += psize
    except KeyError:
        return False
    lifts = exact.lifts
    try:
        lifted = [lifts[x] for x in rec.classes]
    except KeyError:
        lifted = list(map(exact.lift, rec.classes))
    if None in lifted:
        return False
    for u, c in enumerate(pattern):
        packed ^= lifted[c][u]
    return not packed


def _limit_bits(plan: DeliveryPlan) -> int:
    """The scheme's formula at the placed layers, in whole bits: per
    delivered layer, its part size times the scheme's worst-case payload
    count at its share t, `rates._worst_payloads`, the table the scheme's
    rate envelope is built from."""
    n, k, scheme = plan.config.n_files, plan.config.n_users, plan.scheme
    return sum(
        parts.psize * _worst_payloads(scheme, n, k, level)[parts.layer.t]
        for level, _, layers in plan._levels
        for parts in layers
    )


def _converse_misses(config: LibraryConfig, worst_bits: int, cached_bits: int) -> list[str]:
    """The cut-set converse in whole bits, one line per cut it fails.

    A cut of p caches over b = floor(N/p) demand rounds exposes p*b files:
    the p caches and b deliveries, each at most the worst measured one,
    must carry every bit of every subfile touching an exposed file, so
    b * worst_bits >= exposed_bits(p) - p * cached_bits, over the rows
    (p, b, exposed bits) that `cutset_bound` reads (`rates._cut_totals`),
    at int sizes.  cached_bits is what placement put in one cache, which
    the plan keeps within the budget, so this is at least as strict as the
    bound at the budget.  The library is the caller's, with its shared
    subfiles, for every scheme.
    """
    sizes = tuple(map(int, config.subfile_sizes))
    out = []
    for p, b, exposed in _cut_totals(config.n_files, config.n_users, sizes):
        # the row memo does not tell 2 from 2.0 in a key: keep the count an int
        exposed = int(exposed)
        if b * worst_bits < exposed - p * cached_bits:
            out.append(
                f"converse at p={p}, b={b}: {b} x {worst_bits} worst-case bits < "
                f"{exposed} exposed - {p} x {cached_bits} cached bits"
            )
    return out


def verify_all_demands(
    config: LibraryConfig,
    alloc,
    scheme: str = "cacc",
    seed: int = 0,
) -> GridReport:
    """Run delivery for every demand vector; check decode and rate soundness.

    Every distinct transmitted section is decode-verified for every user
    (sections repeat across demand vectors, so this covers the whole grid),
    and every demand vector that emits a failing section is flagged.  Per
    demand set, taken once, the completeness check asks that every
    demanded file's users receive a step for each subfile of that file in
    each delivered layer, and each cache is checked against every share-K
    layer; with the record checks these cover decodability on every
    vector.  A few demand vectors per sweep, delivered inside their set's
    pass, also run the complete user decoder against the ground-truth
    files of the seed's content store.
    """
    n, k = config.n_files, config.n_users
    if n**k > _GRID_GUARD:
        raise ValueError(f"{n}**{k} demand vectors exceed the enumeration guard")
    store = ContentStore.generate(config, seed)
    plan = DeliveryPlan(config, alloc, store, scheme=scheme)
    caches = plan.place()
    formula = _FORMULAS[scheme](config, alloc)
    limit = _limit_bits(plan)

    all_demands = list(product(range(1, n + 1), repeat=k))
    # per vector, in product order, the mask of its demand set (file f at bit f - 1)
    masks = [0]
    file_bits = [1 << f for f in range(n)]
    for _ in range(k):
        masks = [m | b for m in masks for b in file_bits]
    # the vectors of each demand set, in product order, the sets in the order
    # their first vectors come
    by_set = {m: [] for m in dict.fromkeys(masks)}
    deque(map(list.append, map(by_set.__getitem__, masks), all_demands), maxlen=0)

    def index(d) -> int:
        """A demand vector's position in product order."""
        i = 0
        for f in d:
            i = i * n + f - 1
        return i

    # Per delivered layer, (level, layer): step items -> the verdict on the
    # layer's record for them, its bits if it passes, ~bits if not.
    verdicts = {(level, p.layer): {} for level, _, layers in plan._levels for p in layers}
    failed: dict = {}  # (level, layer, step items) -> a failing record's lines
    # Per failing record, the first vector and position that send it.  Every
    # report is sorted by (vector index, stage, position): stage -1 is a
    # completeness gap of the vector's set, at its file, 0 a failing record
    # at its position among the vector's remainder and then coded records,
    # 1 the limit and 2 the sampled decode, the order in which a per-vector
    # loop would meet them.
    first_sent: dict = {}
    # per placed layer, its `_ExactParts`, over the plan's part templates:
    # the lane pass, the sampled decodes and the share-K check read the
    # same table
    exact = {
        layer: _ExactParts(layer, caches, plan.store, held)
        for layer, held in plan.templates().items()
    }

    def check(level, layer, items, rec) -> None:
        """Check one record, the first time its step items come, and file its
        verdict."""
        errs = (
            []
            if _lanes_clear(rec, exact, caches, plan.store)
            else _check_step(rec, caches, plan.store)
        )
        bits = rec.bits
        if errs:
            failed[level, layer, items] = errs
            bits = ~bits
        verdicts[level, layer][items] = bits

    def lookup(level, parts, patterns) -> list:
        """The verdicts on one layer's records for `patterns`, in order.
        A record not met before is built, checked, filed and dropped."""
        table = verdicts[level, parts.layer]
        try:
            return list(map(table.__getitem__, patterns))
        except KeyError:
            new = [x for x in dict.fromkeys(patterns) if x not in table]
            for x, rec in zip(new, plan._records(level, parts, new)):
                check(level, parts.layer, x, rec)
            return list(map(table.__getitem__, patterns))

    def blame(level, layer, items, key) -> None:
        rec_key = (level, layer, items)
        first_sent[rec_key] = min(first_sent.get(rec_key, key), key)

    # per delivered group, per file f (entry f - 1), the group's items
    # touching f, read from the library: what f's users must recover
    needs = [[{x for x in items if x >> f & 1} for f in range(n)] for _, items, _ in plan._levels]
    # the sampled vectors (every N^K // 3-th), grouped by demand set; their
    # sets go first
    sampled: dict = {}
    for idx in range(0, len(all_demands), max(1, len(all_demands) // _FULL_DECODE_SAMPLES)):
        sampled.setdefault(masks[idx], []).append(idx)
    decoded = {}  # per sampled vector's index, its decode failures

    entries = []  # (sort key, line)
    totals_of, flags_of = {}, {}  # per set, its vectors' bits and ok flags
    for mask in dict.fromkeys([*sampled, *by_set]):
        vectors = by_set[mask]
        per_set = plan._choice(vectors[0])
        # A sampled vector is delivered from the set's choice, its records
        # are checked and filed, so the lookups below build none of them
        # again, and it is decoded end to end.
        for idx in sampled.get(mask, ()):
            transcript = plan._transcript(all_demands[idx], per_set)
            for rec in transcript.sections:
                if rec.step_items not in verdicts[rec.level, rec.layer]:
                    check(rec.level, rec.layer, rec.step_items, rec)
            decoded[idx] = decode_failures(caches, transcript, all_demands[idx], plan.store, exact)
        set_bits, set_ok, pos = 0, True, 0
        for level, _, sent in per_set:
            for parts, patterns in sent:
                if patterns is None:
                    continue  # coded: read per vector below
                for items, bits in zip(patterns, lookup(level, parts, patterns)):
                    if bits < 0:
                        bits, set_ok = ~bits, False
                        blame(level, parts.layer, items, (index(vectors[0]), 0, pos))
                    set_bits += bits
                    pos += 1
        # Completeness: in each delivered layer, f's users must recover every
        # item that f needs, for each demanded file f.  A coded layer gives
        # them col[f] per column, a remainder layer the items its patterns
        # give every user.
        for (level, table, sent), need in zip(per_set, needs):
            for parts, patterns in sent:
                if patterns is not None:
                    every = set.intersection(*({p[u] for p in patterns} for u in range(k)))
                for f in members_of(mask):
                    got = every if patterns is not None else {col[f] for col in table}
                    if missing := need[f - 1] - got:
                        set_ok = False
                        names = ", ".join(map(_item_name, sorted(missing)))
                        entries.append((
                            (index(vectors[0]), -1, f),
                            f"demand set {_item_name(mask)}: level {level} share-{parts.layer.t} "
                            f"layer: no step recovers subfile {names} for file {f}'s users",
                        ))
        totals = [set_bits] * len(vectors)
        flags = [set_ok] * len(vectors)
        for level, layers, columns in plan._step_items(per_set, vectors):
            for parts in layers:
                for items in columns:
                    bits = lookup(level, parts, items)
                    if failed and min(bits) < 0:
                        for j, b in enumerate(bits):
                            if b < 0:
                                bits[j] = ~b
                                flags[j] = False
                                blame(level, parts.layer, items[j], (index(vectors[j]), 0, pos))
                    totals = list(map(operator.add, totals, bits))
                    pos += 1
        if max(totals) > limit:
            for j, (d, bits) in enumerate(zip(vectors, totals)):
                if bits > limit:
                    flags[j] = False
                    entries.append((
                        (index(d), 1, 0),
                        f"demand {d}: {bits} bits > {limit}, the formula at the "
                        "placed layers",
                    ))
        totals_of[mask], flags_of[mask] = iter(totals), iter(flags)

    # back to product order: each set's results are in its vectors' order
    all_bits = list(map(next, map(totals_of.__getitem__, masks)))
    ok_flags = list(map(next, map(flags_of.__getitem__, masks)))
    for idx, failures in decoded.items():
        d = all_demands[idx]
        entries += [((idx, 2, 0), f"demand {d}: {line}") for line in failures]
        ok_flags[idx] = ok_flags[idx] and not failures
    for rec_key, errs in failed.items():
        entries += [(first_sent[rec_key], line) for line in errs]
    entries.sort(key=_KEY)
    violations = [line for _, line in entries]
    # No step sends a share-K layer, so each cache is checked against those
    # layers here, once; a vector whose user asks for a file holding a
    # subfile that user does not hold exactly is not ok.
    for level, items, layers in plan._groups:
        for table in [exact[p.layer] for p in layers if p.layer.t == k]:
            for x in items:
                for u in table.misses(x):
                    violations.append(
                        f"level {level} share-{k} layer: user {u + 1} does not hold "
                        f"subfile {_item_name(x)} as placed"
                    )
                    for idx, d in enumerate(all_demands):
                        if (x >> (d[u] - 1)) & 1:
                            ok_flags[idx] = False

    cached_bits = plan.cached_bits()
    violations.extend(_converse_misses(config, max(all_bits), cached_bits))
    file_size = config.file_size
    rates = [bits / file_size for bits in all_bits]
    max_rate = max(rates)
    return GridReport(
        scheme=scheme,
        demands=tuple(all_demands),
        measured_rates=tuple(rates),
        decode_ok=tuple(ok_flags),
        formula_rate=formula,
        max_rate=max_rate,
        argmax_demand=all_demands[rates.index(max_rate)],
        violations=tuple(violations),
        cached_bits=cached_bits,
    )
