"""Bit-exact placement, delivery, and decoding for the three schemes.

Everything here moves real bits: placement carves pseudorandom subfile
contents into cached parts, delivery emits leader-based XOR steps only
(schedule steps, one exact remainder step per demanded subfile, and the
uncoded scheme's plain sends as one-leader steps at share 0), and decode
reconstructs a user's file from its cache plus the transcript alone.
Rate formulas never enter the data path, so measured transcripts can be
compared against them honestly.

Content layout conventions (shared by placement, delivery, and decode):
an item is a subfile (shared scheme) or a whole file (correlation-ignorant
scheme); an integer-share layer of size ``s`` at offset ``o`` within an item
is split into binom(K, t) equal parts ordered by the canonical part labels,
part i occupying item positions [o + i*psize, o + (i+1)*psize).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from .combinat import (
    comb0,
    divisibility_unit,
    mask_of,
    members_of,
    mix_seed,
    part_labels,
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
    "StepRecord",
    "Transcript",
    "UserCache",
    "cacc_layers",
    "cauc_deliver",
    "cauc_place",
    "cicc_deliver",
    "cicc_place",
    "decode",
    "deliver",
    "place",
]

_INT_TOL = 1e-9


# ---------------------------------------------------------------------------
# layers: integer-share sublayers realizing a fractional caching share

@dataclass(frozen=True)
class LayerSpec:
    """One integer-share sublayer of an item: bits [offset, offset+size)."""

    t: int
    offset: int
    size: int


def _split_layers(total_size: int, t_exact: float, envelope, n_users: int):
    """Sublayers realizing share t_exact over an item of total_size bits.

    Integer shares keep the item whole.  Fractional shares split it between
    the two envelope vertices bracketing t_exact; the low-share slice is
    rounded down to the divisibility unit, which keeps the delivered bits at
    or below the envelope value while slightly over-filling the cache (the
    overage is declared as padding slack by the placement).
    """
    if abs(t_exact - round(t_exact)) <= _INT_TOL:
        return (LayerSpec(int(round(t_exact)), 0, total_size),)
    ta = tb = None
    for (a, _), (b, _) in zip(envelope, envelope[1:]):
        ta, tb = a, b
        if t_exact < b:
            break
    if tb is None or not ta <= t_exact <= tb:
        raise ValueError(f"share {t_exact} outside envelope range")
    lam = (tb - t_exact) / (tb - ta)
    unit = divisibility_unit(n_users)
    size_a = int(lam * total_size / unit + _INT_TOL) * unit
    layers = []
    if size_a:
        layers.append(LayerSpec(int(round(ta)), 0, size_a))
    if total_size - size_a:
        layers.append(LayerSpec(int(round(tb)), size_a, total_size - size_a))
    return tuple(layers)


def cacc_layers(config: LibraryConfig, level: int, t_exact: float):
    """Sublayer plan for one level of the shared-subfile coded scheme."""
    size = int(config.level_size(level))
    return _split_layers(
        size, t_exact, build_level_curve(config, level).envelope, config.n_users
    )


# ---------------------------------------------------------------------------
# caches

@dataclass
class UserCache:
    """One user's cached bits, held per item at their true positions.

    known_bits[item] only ever has bits inside known_masks[item]; pad_bits is
    the declared placement overage (divisibility padding) this cache may
    exceed the nominal budget by.
    """

    user: int
    known_masks: dict = field(default_factory=dict)
    known_bits: dict = field(default_factory=dict)
    pad_bits: float = 0.0

    def add(self, item, pos_mask: int, bits: int) -> None:
        self.known_masks[item] = self.known_masks.get(item, 0) | pos_mask
        self.known_bits[item] = self.known_bits.get(item, 0) | (bits & pos_mask)

    def total_bits(self) -> int:
        return sum(m.bit_count() for m in self.known_masks.values())

    def state(self) -> tuple[dict, dict]:
        """Mutable (masks, bits) copy for a decoding pass."""
        return dict(self.known_masks), dict(self.known_bits)


@lru_cache(maxsize=None)
def _part_templates(n_users: int, t: int, psize: int) -> tuple[int, ...]:
    """Per-user OR-mask of the part segments a user caches (offset 0)."""
    seg = (1 << psize) - 1
    tpl = [0] * (n_users + 1)
    for i, lab in enumerate(part_labels(n_users, t)):
        block = seg << (i * psize)
        for u in members_of(lab):
            tpl[u] |= block
    return tuple(tpl)


def _place_items(caches, items, layers, n_users):
    """Spread each (item, content) across caches following the layer plan."""
    for item, content in items:
        for layer in layers:
            if layer.t == 0:
                continue
            nparts = comb0(n_users, layer.t)
            if layer.size % nparts:
                raise ValueError(
                    f"layer size {layer.size} not divisible into {nparts} parts"
                )
            psize = layer.size // nparts
            tpl = _part_templates(n_users, layer.t, psize)
            for cache in caches:
                pm = tpl[cache.user] << layer.offset
                if pm:
                    cache.add(item, pm, content & pm)


def _check_integral(config: LibraryConfig) -> None:
    if not config.is_integral():
        raise ValueError("placement and delivery need integer subfile sizes")


def _check_budget(config, caches, pad_bits):
    budget = config.cache_capacity * config.file_size
    for cache in caches:
        cache.pad_bits = pad_bits
        if cache.total_bits() > budget + pad_bits + 1e-6 * config.file_size + 1e-9:
            raise RuntimeError(
                f"user {cache.user} caches {cache.total_bits()} bits, over "
                f"budget {budget} + declared padding {pad_bits}"
            )


def place(config: LibraryConfig, alloc: CacheAllocation, store: ContentStore):
    """Shared-subfile placement: per level, split every subfile into labeled
    parts at the level's (possibly sublayered) share and hand each user the
    parts whose label contains it."""
    check_allocation(config, alloc)
    _check_integral(config)
    k = config.n_users
    caches = [UserCache(user=u) for u in range(1, k + 1)]
    pad = 0.0
    for level in config.levels():
        size = int(config.subfile_sizes[level - 1])
        if size == 0:
            continue
        t_exact = alloc.fractions[level - 1] * k
        layers = cacc_layers(config, level, t_exact)
        cached = sum(layer.t * layer.size for layer in layers) / k
        pad += max(cached - t_exact * size / k, 0.0) * comb0(config.n_files, level)
        items = [
            (("sub", m), store.subfile_bits(m))
            for m in subset_masks(range(1, config.n_files + 1), level)
        ]
        _place_items(caches, items, layers, k)
    _check_budget(config, caches, pad)
    return caches


# ---------------------------------------------------------------------------
# transcript records

@dataclass(frozen=True)
class StepRecord:
    """One leader-based XOR step: every payload sent for one step-item pattern.

    At share t = 0 with every user's step item the same subfile, user 1 is the
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
    """Everything the server put on air for one demand vector."""

    scheme: str
    config: LibraryConfig
    seed: int
    sections: tuple
    total_bits: int
    step_counts: tuple
    per_level_bits: dict

    @property
    def rate(self) -> float:
        return self.total_bits / self.config.file_size


def _tally(sections) -> int:
    return sum(rec.bits for rec in sections)


# ---------------------------------------------------------------------------
# coded steps

@lru_cache(maxsize=None)
def _label_index(n_users: int, t: int) -> dict:
    return {lab: i for i, lab in enumerate(part_labels(n_users, t))}


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
    in V misses exactly its own term and holds the rest in cache.
    """
    t = layer.t
    index = _label_index(n_users, t)
    nparts = comb0(n_users, t)
    if layer.size % nparts:
        raise ValueError(f"layer size {layer.size} not divisible into {nparts} parts")
    psize = layer.size // nparts
    pmask = (1 << psize) - 1
    leader_mask = _leaders(step_items)
    contents = {}
    payloads = {}
    for v in part_labels(n_users, t + 1):
        if not v & leader_mask:
            continue
        y = 0
        vv = v
        while vv:
            b = vv & -vv
            vv ^= b
            key = step_items[b.bit_length() - 1]
            c = contents.get(key)
            if c is None:
                c = contents[key] = content_of(key)
            pos = layer.offset + index[v ^ b] * psize
            y ^= (c >> pos) & pmask
        payloads[v] = y
    return StepRecord(
        level=level,
        layer=layer,
        step_items=step_items,
        leader_mask=leader_mask,
        part_size=psize,
        payloads=payloads,
    )


def _memo_step(steps: dict, n_users, level, layer, step_items, store) -> StepRecord:
    """The XOR step for one step-item pattern, shared across demand vectors:
    `steps` is one sublayer's memo, keyed by the step-item pattern."""
    rec = steps.get(step_items)
    if rec is None:
        rec = steps[step_items] = _xor_step(
            n_users,
            level,
            layer,
            step_items,
            lambda key: store.subfile_bits(key[1]),
        )
    return rec


# ---------------------------------------------------------------------------
# exact remainder delivery

def _remainder_sections(n_users, level, layer, demanded, store, steps) -> list:
    """Per demanded subfile, exactly the layer bits each requester misses.

    The subfile's layer goes out as one XOR step with the subfile as every
    user's step item: user 1 is the only leader, so the step sends the
    C(K-1, t) payloads of user sets containing user 1, one part of
    size/C(K, t) bits each -- exactly the size*(K-t)/K bits a requester does
    not cache (at t = 0, one payload of the whole layer).  Every user decodes
    it like any coded step (the family identity recovers the leaderless
    payloads).
    """
    return [
        _memo_step(steps, n_users, level, layer, (("sub", m),) * n_users, store)
        for m in demanded
    ]


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
    """The demand-independent work of `deliver`, done once.

    A plan is built from (config, alloc, store, schedule source, seed).  It
    runs the input checks and loads the fixture once; holds, per nonempty
    level, the level's subfile masks and its delivered sublayers (t < K,
    size > 0) with their unknown-bit counts; builds, per (window, level), a
    column table of schedule columns as ("sub", mask) items by window
    position; and keeps the step memo.  Step payloads depend on the demand
    vector only through the per-step item pattern, so deliveries of many
    demand vectors through one plan (``plan.deliver(demands)``) share almost
    all bit-level work.
    """

    def __init__(
        self,
        config: LibraryConfig,
        alloc: CacheAllocation,
        store: ContentStore,
        schedule_source=None,
        seed: int = 0,
    ):
        check_allocation(config, alloc)
        _check_integral(config)
        self.config = config
        self.store = store
        self.seed = seed
        self._fixture = (
            load_schedule(schedule_source) if schedule_source is not None else None
        )
        k = config.n_users
        files = range(1, config.n_files + 1)
        levels = []
        for level in config.levels():
            if config.subfile_sizes[level - 1] == 0:
                continue
            t_exact = alloc.fractions[level - 1] * k
            sublayers = tuple(
                (layer, layer.size - layer.t * layer.size // k, {})
                for layer in cacc_layers(config, level, t_exact)
                if layer.t < k and layer.size > 0
            )
            levels.append((level, tuple(sorted(subset_masks(files, level))), sublayers))
        self._levels = tuple(levels)
        self._columns = {}

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

    def _column_table(self, window, level) -> tuple:
        """Every coded step of one level over `window` (every fixed-part pool,
        every column), as the ("sub", mask) item of each window position."""
        key = (window, level)
        table = self._columns.get(key)
        if table is None:
            table = self._columns[key] = tuple(
                tuple(("sub", m) for m in col)
                for rbar in _pools(self.config, level, window)
                for col in self._schedule(window, rbar, level).columns
            )
        return table

    def deliver(self, demands) -> Transcript:
        """Shared-subfile coded delivery for one demand vector.

        Per level and sublayer, runs every coded step over the window's
        pools.  When those cost more than the floor -- every demanded
        subfile's uncached bits, once -- the layer is sent by exact remainder
        steps instead (see _remainder_sections), which meet the floor
        exactly.  Either way a level costs at most the lesser of the two,
        which is the rate formula's min(alpha, m).
        """
        config, store = self.config, self.store
        demands = as_demands(demands, config)
        k = config.n_users
        window = _window(config.n_files, k, demands)
        pos = {f: i for i, f in enumerate(window)}
        slots = [pos[d] for d in demands]
        demand_mask = mask_of(demands)

        sections = []
        step_counts = []
        per_level = {}
        for level, masks, sublayers in self._levels:
            level_bits = 0
            if sublayers:
                patterns = [
                    tuple([col[i] for i in slots])
                    for col in self._column_table(window, level)
                ]
                demanded = [m for m in masks if m & demand_mask]
            for layer, unknowns, steps in sublayers:
                records = [
                    steps.get(items) or _memo_step(steps, k, level, layer, items, store)
                    for items in patterns
                ]
                bits = _tally(records)
                if bits > len(demanded) * unknowns:
                    records = _remainder_sections(
                        k, level, layer, demanded, store, steps
                    )
                    bits = _tally(records)
                else:
                    step_counts.extend(len(r.payloads) for r in records)
                sections.extend(records)
                level_bits += bits
            per_level[level] = level_bits
        return Transcript(
            scheme="cacc",
            config=config,
            seed=store.seed,
            sections=tuple(sections),
            total_bits=sum(per_level.values()),
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


# ---------------------------------------------------------------------------
# decoding (transcript + own cache only)

def _family_xor(rec: StepRecord, v: int) -> int:
    """Reconstruct an unsent leaderless payload from sent ones.

    Over the user set C = V plus leaders, the payloads of all size-|V|
    subsets W whose complement in C has pairwise-distinct step-items XOR to
    zero; V is the only such subset avoiding every leader, so it equals the
    XOR of the rest.
    """
    c = v | rec.leader_mask
    want = v.bit_count()
    members = members_of(c)
    y = 0
    for combo in combinations(members, want):
        w = mask_of(combo)
        if w == v:
            continue
        rest = members_of(c & ~w)
        items = [rec.step_items[u - 1] for u in rest]
        if len(set(items)) == len(items):
            y ^= rec.payloads[w]
    return y


def _take_bits(masks, bits, item, pos, width) -> int:
    seg = (1 << width) - 1
    if (masks.get(item, 0) >> pos) & seg != seg:
        raise RuntimeError(f"decoder missing bits of {item} at {pos}")
    return (bits[item] >> pos) & seg


def _decode_step(user: int, rec: StepRecord, masks, bits, n_users: int) -> None:
    t = rec.layer.t
    index = _label_index(n_users, t)
    psize = rec.part_size
    pmask = (1 << psize) - 1
    kbit = 1 << (user - 1)
    item = rec.step_items[user - 1]
    off = rec.layer.offset
    for i, lab in enumerate(part_labels(n_users, t)):
        if lab & kbit:
            continue
        v = lab | kbit
        y = rec.payloads[v] if v & rec.leader_mask else _family_xor(rec, v)
        vv = v & ~kbit
        while vv:
            b = vv & -vv
            vv ^= b
            u = b.bit_length()
            y ^= _take_bits(
                masks, bits, rec.step_items[u - 1], off + index[v ^ b] * psize, psize
            )
        pos = off + i * psize
        masks[item] = masks.get(item, 0) | (pmask << pos)
        bits[item] = bits.get(item, 0) | ((y & pmask) << pos)


def decode(user: int, cache: UserCache, transcript: Transcript, demands) -> int:
    """Reconstruct user's demanded file from its cache and the transcript."""
    config = transcript.config
    demands = as_demands(demands, config)
    d = demands[user - 1]
    masks, bits = cache.state()
    for rec in transcript.sections:
        _decode_step(user, rec, masks, bits, config.n_users)

    if transcript.scheme == "cicc":
        item = ("file", d)
        full = (1 << int(config.file_size)) - 1
        if masks.get(item, 0) & full != full:
            raise RuntimeError(f"user {user} cannot reconstruct file {d}")
        return bits[item] & full

    out = 0
    for m, size, offset in file_layout(config, d):
        if size == 0:
            continue
        seg = (1 << size) - 1
        item = ("sub", m)
        if masks.get(item, 0) & seg != seg:
            raise RuntimeError(f"user {user} cannot reconstruct subfile {m:b}")
        out |= (bits[item] & seg) << offset
    return out


# ---------------------------------------------------------------------------
# uncoded scheme (prefix caching, plain remainders)

def _prefix_bits(alloc: CacheAllocation, level: int, size: int) -> int:
    """Bits of every level subfile each user caches under prefix caching."""
    cached = alloc.fractions[level - 1] * size
    c = int(round(cached))
    if abs(cached - c) > 1e-6:
        raise ValueError(f"level {level} prefix {cached} is not a whole number of bits")
    return c


def cauc_place(config: LibraryConfig, alloc: CacheAllocation, store: ContentStore):
    """Every user caches the same per-level prefix of every subfile."""
    check_allocation(config, alloc)
    _check_integral(config)
    caches = [UserCache(user=u) for u in range(1, config.n_users + 1)]
    for level in config.levels():
        size = int(config.subfile_sizes[level - 1])
        if size == 0:
            continue
        c = _prefix_bits(alloc, level, size)
        if c == 0:
            continue
        prefix = (1 << c) - 1
        for m in subset_masks(range(1, config.n_files + 1), level):
            content = store.subfile_bits(m) & prefix
            for cache in caches:
                cache.add(("sub", m), prefix, content)
    _check_budget(config, caches, 0.0)
    return caches


def cauc_deliver(
    config: LibraryConfig,
    alloc: CacheAllocation,
    demands,
    store: ContentStore,
) -> Transcript:
    """Ship, uncoded, the uncached remainder of every demanded subfile: one
    share-0 remainder step (a single plain payload) per subfile."""
    demands = as_demands(demands, config)
    check_allocation(config, alloc)
    _check_integral(config)
    k = config.n_users
    demand_mask = mask_of(demands)
    sections = []
    per_level = {}
    for level in config.levels():
        size = int(config.subfile_sizes[level - 1])
        if size == 0:
            continue
        c = _prefix_bits(alloc, level, size)
        records = []
        if c < size:
            demanded = [
                m
                for m in subset_masks(range(1, config.n_files + 1), level)
                if m & demand_mask
            ]
            records = _remainder_sections(
                k, level, LayerSpec(0, c, size - c), demanded, store, {}
            )
        sections.extend(records)
        per_level[level] = _tally(records)
    return Transcript(
        scheme="cauc",
        config=config,
        seed=store.seed,
        sections=tuple(sections),
        total_bits=sum(per_level.values()),
        step_counts=(),
        per_level_bits=per_level,
    )


# ---------------------------------------------------------------------------
# correlation-ignorant scheme (whole files as opaque units)

def _cicc_layers(config: LibraryConfig):
    n, k = config.n_files, config.n_users
    t_exact = k * min(config.cache_capacity, n) / n
    return _split_layers(
        int(config.file_size), t_exact, cicc_curve(config).envelope, k
    ), t_exact


def cicc_place(config: LibraryConfig, store: ContentStore):
    """Opaque-file placement: split each whole file into labeled parts."""
    _check_integral(config)
    k = config.n_users
    layers, t_exact = _cicc_layers(config)
    caches = [UserCache(user=u) for u in range(1, k + 1)]
    items = [(("file", i), store.file_bits(i)) for i in range(1, config.n_files + 1)]
    _place_items(caches, items, layers, k)
    cached = sum(layer.t * layer.size for layer in layers) / k
    pad = max(cached - t_exact * config.file_size / k, 0.0) * config.n_files
    _check_budget(config, caches, pad)
    return caches


def cicc_deliver(config: LibraryConfig, demands, store: ContentStore) -> Transcript:
    """Leader-based coded delivery over whole files (single step per layer)."""
    demands = as_demands(demands, config)
    _check_integral(config)
    k = config.n_users
    layers, _ = _cicc_layers(config)
    step_items = tuple(("file", d) for d in demands)
    contents = {("file", i): store.file_bits(i) for i in sorted(set(demands))}
    sections = []
    step_counts = []
    for layer in layers:
        if layer.t >= k or layer.size == 0:
            continue
        rec = _xor_step(k, 0, layer, step_items, contents.__getitem__)
        sections.append(rec)
        step_counts.append(len(rec.payloads))
    total = _tally(sections)
    return Transcript(
        scheme="cicc",
        config=config,
        seed=store.seed,
        sections=tuple(sections),
        total_bits=total,
        step_counts=tuple(step_counts),
        per_level_bits={0: total},
    )
