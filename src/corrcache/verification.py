"""Exhaustive demand-grid verification tying simulation to the formulas.

verify_all_demands drives the bit-level engine over every demand vector of a
config and checks two things everywhere: decodability (every user can
rebuild its file from cache + transcript) and rate soundness (measured bits
never exceed the scheme's formula; the limit allows float rounding and
nothing else).  All three schemes run through the same `place` and
`DeliveryPlan` with a `scheme` argument; the scheme only picks the formula.
Every transmitted section is one leader-based XOR step whose payloads
depend on demands only through its step-item pattern, so one plan plus
per-pattern decode checks keep the full N^K sweep fast without weakening
the quantifier: every emitted section is verified for every user, and
sampled demands additionally run the end-to-end decoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .delivery import DeliveryPlan, StepRecord, _decode_step, decode, place
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


def _verify_step(rec: StepRecord, caches, store, n_users) -> list[str]:
    """Every user must recover its step-item layer slice exactly."""
    out = []
    tag = f"level {rec.level} step {rec.step_items}"
    off, size = rec.layer.offset, rec.layer.size
    seg = (1 << size) - 1
    for k in range(1, n_users + 1):
        masks, bits = caches[k - 1].state()
        try:
            _decode_step(k, rec, masks, bits, n_users)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
            out.append(f"{tag}: user {k} raised {exc!r}")
            continue
        item = rec.step_items[k - 1]
        got_mask = (masks.get(item, 0) >> off) & seg
        if got_mask != seg:
            out.append(f"{tag}: user {k} missing bits")
            continue
        if (bits[item] >> off) & seg != (store.item_bits(item) >> off) & seg:
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
    (sections repeat across demand vectors, so this covers the whole grid);
    additionally a few demand vectors per sweep run the complete user
    decoder against the ground-truth files of the seed's content store.
    """
    n, k = config.n_files, config.n_users
    if n**k > _GRID_GUARD:
        raise ValueError(f"{n}**{k} demand vectors exceed the enumeration guard")
    store = ContentStore.generate(config, seed)
    run = DeliveryPlan(config, alloc, store, scheme=scheme).deliver
    caches = place(config, alloc, store, scheme)
    formula = _FORMULAS[scheme](config, alloc)

    all_demands = list(product(range(1, n + 1), repeat=k))
    step = max(1, len(all_demands) // _FULL_DECODE_SAMPLES)
    sample_idx = set(range(0, len(all_demands), step))

    rates = []
    ok_flags = []
    violations = []
    checked_steps: set = set()
    file_bits_true = {}
    limit = formula * config.file_size + 1e-9 * config.file_size + 1e-6
    for idx, d in enumerate(all_demands):
        transcript = run(d)
        rates.append(transcript.rate)
        demand_ok = True
        for rec in transcript.sections:
            key = (rec.level, rec.layer, rec.step_items)
            if key not in checked_steps:
                checked_steps.add(key)
                errs = _verify_step(rec, caches, store, k)
                violations.extend(errs)
                if errs:
                    demand_ok = False

        if transcript.total_bits > limit:
            violations.append(
                f"demand {d}: {transcript.total_bits} bits > formula "
                f"{formula * config.file_size:.6f}"
            )
            demand_ok = False

        if idx in sample_idx:
            for user in range(1, k + 1):
                want = file_bits_true.get(d[user - 1])
                if want is None:
                    want = file_bits_true[d[user - 1]] = store.file_bits(d[user - 1])
                got = decode(user, caches[user - 1], transcript, d)
                if got != want:
                    violations.append(f"demand {d}: user {user} decode mismatch")
                    demand_ok = False
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
