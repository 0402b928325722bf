"""Exhaustive demand-grid verification tying simulation to the formulas.

verify_all_demands drives the bit-level engine over every demand vector of a
config and checks two things everywhere: decodability (every user can
rebuild its file from cache + transcript) and rate soundness (measured bits
never exceed the scheme's formula; the limit allows float rounding and
nothing else).  All three schemes run through the same `place` and
`DeliveryPlan` with a `scheme` argument; the scheme only picks the formula.
Every transmitted section is one leader-based XOR step whose payloads
depend on demands only through its step-item pattern, so one plan plus
per-record decode checks keep the full N^K sweep fast without weakening
the quantifier: every emitted section is verified for every user, and
sampled demands additionally run the end-to-end decoder through
`decode_failures`, the one whole-file decode check, which `corrcache
simulate` runs too.

The step check runs delivery's decode kernel (`_decode_parts`), the one
decoder, on each distinct step record for every user, reading the caches
without copying them.  Per sweep it memoizes, per (user, layer), the
user's cached parts of each item and, per (item, layer), the true parts,
both listed from delivery's part table (`_CachedParts`, None where a part
is not fully cached); a user passes when its decoded part list equals the
true one.

The sweep is lean per demand vector.  It delivers every vector through
the plan's `_send`, which returns the sections and bit total without a
`Transcript` (the `product` tuples need no validation), and keeps the
verdicts as two sets of record ids, passed and failed (the plan's step memo
keeps records alive for the sweep).  A vector whose records have all
passed is cleared by one set test; otherwise each new record is checked
once, each failing record is reported once, and every demand vector whose
sections hold a failing record is marked not ok.  Only the sampled vectors
get a full `Transcript`, for the end-to-end decoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .delivery import (
    DeliveryPlan,
    StepRecord,
    _CachedParts,
    _decode_parts,
    _pattern,
    _step_table,
    decode,
    place,
)
from .model import ContentStore, LibraryConfig
from .rates import cacc_rate, cauc_rate, cicc_rate

__all__ = [
    "GridReport",
    "verify_all_demands",
    "worst_case_demand",
]

_GRID_GUARD = 10**6
# Demand vectors per sweep that also run the complete user decoder.
_FULL_DECODE_SAMPLES = 3
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

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def formula_gap(self) -> float:
        """How far the formula lies above the worst measured rate: the slack
        a wasteful delivery could hide in and still pass."""
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


def decode_failures(caches, transcript, demands, store) -> list[str]:
    """Decode every user's file from its cache and the transcript and check
    it against the store: one line per failing user, in user order, for a
    decode that raises or one that returns wrong bits.

    Each demanded file is assembled once and checked against all its
    requesters, one file at a time, so no two files are held at once.
    """
    requesters = {}
    for user, d in enumerate(demands, start=1):
        requesters.setdefault(d, []).append(user)
    failures = []
    for d, users in requesters.items():
        want = store.file_bits(d)
        for user in users:
            try:
                got = decode(user, caches[user - 1], transcript, demands)
            except Exception as exc:  # noqa: BLE001 - report, don't crash the caller
                failures.append((user, f"user {user} decode raised {exc!r}"))
                continue
            if got != want:
                failures.append((user, f"user {user} decode mismatch"))
    return [line for _, line in sorted(failures)]


def _check_step(rec: StepRecord, caches, store, layer_parts: dict) -> list[str]:
    """Every user must rebuild its step item's layer slice exactly, from the
    transcript record and its own cache alone.

    layer_parts is the sweep's memo, per layer: the true parts of each item
    and, per user, the cached parts of each item, each listed once per
    sweep from delivery's part table (a part is None when the mask does not
    cover it).
    """
    out = []
    tag = f"level {rec.level} step {rec.step_items}"
    layer, psize = rec.layer, rec.part_size
    nparts = len(_step_table(len(caches), layer.t).labels)
    memo = layer_parts.get(layer)
    if memo is None:
        memo = layer_parts[layer] = ({}, [{} for _ in caches])
    truth, cached = memo
    pattern, classes = _pattern(rec.step_items)
    for k, cache in enumerate(caches, start=1):
        held = cached[k - 1]
        parts = []
        for item in classes:
            p = held.get(item)
            if p is None:
                table = _CachedParts(
                    cache.known_masks.get(item, 0), cache.known_bits.get(item, 0),
                    layer.offset, psize,
                )
                p = held[item] = [table[j] for j in range(nparts)]
            parts.append(p)
        try:
            decoded = _decode_parts(k, rec, pattern, [parts[c] for c in pattern])
        except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
            out.append(f"{tag}: user {k} raised {exc!r}")
            continue
        own = list(parts[pattern[k - 1]])
        for i, y in decoded:
            own[i] = y
        if None in own:
            out.append(f"{tag}: user {k} missing bits")
            continue
        item = classes[pattern[k - 1]]
        want = truth.get(item)
        if want is None:
            table = _CachedParts(-1, store.item_bits(item), layer.offset, psize)
            want = truth[item] = [table[j] for j in range(nparts)]
        if own != want:
            out.append(f"{tag}: user {k} wrong bits")
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
    and every demand vector that emits a failing section is flagged;
    additionally a few demand vectors per sweep run the complete user
    decoder against the ground-truth files of the seed's content store.
    """
    n, k = config.n_files, config.n_users
    if n**k > _GRID_GUARD:
        raise ValueError(f"{n}**{k} demand vectors exceed the enumeration guard")
    store = ContentStore.generate(config, seed)
    plan = DeliveryPlan(config, alloc, store, scheme=scheme)
    caches = place(config, alloc, store, scheme)
    formula = _FORMULAS[scheme](config, alloc)

    all_demands = list(product(range(1, n + 1), repeat=k))
    step = max(1, len(all_demands) // _FULL_DECODE_SAMPLES)
    sample_idx = set(range(0, len(all_demands), step))

    rates = []
    ok_flags = []
    violations = []
    # The ids of the step records checked so far, by verdict: the plan's
    # step memo keeps every record alive for the whole sweep.
    passed: set = set()
    failed: set = set()
    layer_parts: dict = {}
    file_size = config.file_size
    limit = formula * file_size + 1e-9 * file_size + 1e-6
    for idx, d in enumerate(all_demands):  # product tuples are valid demands
        sections, total_bits, _, _ = plan._send(d)
        rates.append(total_bits / file_size)
        demand_ok = True
        if not passed.issuperset(map(id, sections)):
            for rec in sections:
                key = id(rec)
                if key in passed:
                    continue
                if key not in failed:
                    errs = _check_step(rec, caches, store, layer_parts)
                    if not errs:
                        passed.add(key)
                        continue
                    violations.extend(errs)
                    failed.add(key)
                demand_ok = False

        if total_bits > limit:
            violations.append(
                f"demand {d}: {total_bits} bits > formula "
                f"{formula * file_size:.6f}"
            )
            demand_ok = False

        if idx in sample_idx:
            failures = decode_failures(caches, plan.deliver(d), d, store)
            violations.extend(f"demand {d}: {line}" for line in failures)
            demand_ok = demand_ok and not failures
        ok_flags.append(demand_ok)

    max_rate = max(rates) if rates else 0.0
    argmax = all_demands[rates.index(max_rate)] if rates else ()
    return GridReport(
        scheme=scheme,
        demands=tuple(all_demands),
        measured_rates=tuple(rates),
        decode_ok=tuple(ok_flags),
        formula_rate=formula,
        max_rate=max_rate,
        argmax_demand=tuple(argmax),
        violations=tuple(violations),
    )
