"""Delivery-step assignment schedules.

A schedule fixes, for each delivery step, which shared subfile every window
file is recovered through.  The pool for a (window, fixed_part, level) triple
is every level-sized index set that contains the fixed part and otherwise
stays inside the window; each window member must see each of its pool
subfiles in exactly one column.  Columns are filled left to right: blocks
of ``level - |fixed_part|`` members take one unused subfile each, a short
remainder block borrows a subfile whose leftover members carry over to the
head of the next column with that same subfile.

One backtracking depth-first search (`_search`) states that rule.  Each
attempt starts every node's children at a seeded random rotation of their
sorted order and gives up after a node budget of twice the pool size;
`generate_schedule` restarts it with a fresh seed until one attempt builds
a schedule, since small restarts beat one long search on this heavy-tailed
problem (Gomes, Selman and Kautz, AAAI 1998).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .combinat import comb0, mask_of, members_of, mix_seed, subset_masks

__all__ = [
    "AssignmentSchedule",
    "EXAMPLE1_TEXT",
    "generate_schedule",
    "load_schedule",
    "schedule_from_text",
    "validate_schedule",
]

# Budgeted attempts generate_schedule makes before it gives up.  Over seeds
# 0-59 at windows 9 and 10, the worst shapes needed up to 889 ((9, 3)) and
# 1,507 ((9, 6)).
_ATTEMPTS = 100_000


@dataclass(frozen=True)
class AssignmentSchedule:
    """Per-step subfile assignments for every file in the window.

    columns[j][i] is the subfile the i-th window member (ascending order)
    recovers at step j, as the bitmask of the files sharing it.
    """

    window: tuple[int, ...]
    fixed_part: tuple[int, ...]
    level: int
    columns: tuple[tuple[int, ...], ...]

    @property
    def n_columns(self) -> int:
        return len(self.columns)


def _check_shape(window, fixed_part, level: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    window = tuple(sorted(window))
    fixed_part = tuple(sorted(fixed_part))
    if not window:
        raise ValueError("window must be non-empty")
    if set(window) & set(fixed_part):
        raise ValueError("window and fixed_part must be disjoint")
    block = level - len(fixed_part)
    if not 1 <= block <= len(window):
        raise ValueError(
            f"level {level} with {len(fixed_part)} fixed indices needs blocks "
            f"of {block}, outside [1, {len(window)}]"
        )
    return window, fixed_part, block


def generate_schedule(
    window, fixed_part=(), level: int = 1, seed: int = 0
) -> AssignmentSchedule:
    """Build a valid schedule: budgeted attempts of `_search`, each seeded
    by (seed, attempt).

    The same (window, fixed_part, level, seed) always gives the same
    schedule, and every returned schedule passes validate_schedule.  Raises
    RuntimeError naming the shape when `_ATTEMPTS` attempts all run out of
    budget.  Schedules are kept process-wide (`_built_schedule`), so a
    shape met again, by another plan or another sweep, is not searched
    again.
    """
    window, fixed_part, _ = _check_shape(window, fixed_part, level)
    return _built_schedule(window, fixed_part, level, seed, _ATTEMPTS)


# Bounded: a window-10 schedule takes up to about 56 kB, and a process that
# runs many plans (a CLI simulate per seed, a test over many shapes) would
# otherwise keep every schedule it met.  Criterion 3's coded shapes meet 405
# distinct schedules in 1,272 calls; 256 entries search 433 of them.  The
# attempt budget is part of the key, so a smaller budget searches again.
@lru_cache(maxsize=256)
def _built_schedule(window, fixed_part, level, seed, attempts) -> AssignmentSchedule:
    """`generate_schedule` on a checked, sorted shape, with `attempts`
    budgeted attempts."""
    block = level - len(fixed_part)
    pool = subset_masks(window, block)
    n_columns = comb0(len(window) - 1, block - 1)
    window_mask = mask_of(window)

    for attempt in range(attempts):
        rng = random.Random(mix_seed(seed, attempt))
        columns = _search(pool, window_mask, block, n_columns, rng, 2 * len(pool))
        if columns is not None:
            break
    else:
        raise RuntimeError(
            f"no schedule found for window={window} fixed={fixed_part} level={level}"
        )

    fixed_mask = mask_of(fixed_part)
    schedule = AssignmentSchedule(
        window=window,
        fixed_part=fixed_part,
        level=level,
        columns=tuple(
            tuple(fixed_mask | col[i] for i in window)
            for col in columns
        ),
    )
    violations = validate_schedule(schedule)
    if violations:
        raise RuntimeError(f"generated schedule invalid: {violations[0]}")
    return schedule


def _search(pool, window_mask, block, n_columns, rng, budget):
    """Backtracking depth-first search for columns; member->block-mask
    dicts, or None once `budget` children have been visited.

    A node is a column's uncovered members.  Its children are the unused
    blocks inside them or, when fewer than `block` remain, the unused blocks
    covering them, in sorted order rotated to start at one `rng` draw; a
    covering block's other members carry over to the head of the next
    column.  The path lives on an explicit stack, so its depth (one node
    per pool block) is unbounded.
    """
    unused = set(pool)

    def children(remaining):
        if remaining.bit_count() >= block:
            choices = sorted(b for b in unused if b & ~remaining == 0)
        else:
            choices = sorted(b for b in unused if remaining & ~b == 0)
        start = rng.randrange(len(choices)) if choices else 0
        return iter(choices[start:] + choices[:start])

    # per depth: [column index, uncovered members, children, current pick]
    path = [[0, window_mask, children(window_mask), 0]]
    while path and budget:
        node = path[-1]
        j, remaining, choices, pick = node
        if pick:
            unused.add(pick)  # undo the previous child
        pick = node[3] = next(choices, 0)
        if not pick:
            path.pop()
            continue
        budget -= 1
        unused.discard(pick)
        left, carry = remaining & ~pick, pick & ~remaining
        if left:
            path.append([j, left, children(left), 0])
        elif j + 1 < n_columns:
            head = window_mask & ~carry
            path.append([j + 1, head, children(head), 0])
        elif not unused and not carry:
            columns = [{} for _ in range(n_columns)]
            for col, uncovered, _, b in path:
                for i in members_of(b & uncovered):
                    columns[col][i] = b
                for i in members_of(b & ~uncovered):
                    columns[col + 1][i] = b
            return columns
    return None


def validate_schedule(schedule: AssignmentSchedule) -> list[str]:
    """Check shape, membership, coverage, width, and column count; [] iff valid."""
    try:
        window, fixed, block = _check_shape(
            schedule.window, schedule.fixed_part, schedule.level
        )
    except ValueError as exc:
        return [str(exc)]
    violations = []
    window_mask, fixed_mask = mask_of(window), mask_of(fixed)
    w = len(window)

    expected_cols = comb0(w - 1, block - 1)
    if schedule.n_columns != expected_cols:
        violations.append(
            f"column count {schedule.n_columns} != {expected_cols}"
        )

    for j, col in enumerate(schedule.columns, start=1):
        if len(col) != w:
            violations.append(f"column {j}: {len(col)} entries for {w} members")
            continue
        for i, m in zip(window, col):
            if not m & (1 << (i - 1)):
                violations.append(f"column {j}: entry for {i} lacks {i}")
            if fixed_mask & ~m:
                violations.append(f"column {j}: entry for {i} lacks fixed part")
            if m & ~fixed_mask & ~window_mask:
                violations.append(f"column {j}: entry for {i} leaves window")
            if m.bit_count() != schedule.level:
                violations.append(f"column {j}: entry for {i} not level {schedule.level}")
        distinct = len(set(col))
        cap = math.ceil(w / block) + 1
        if distinct > cap:
            violations.append(f"column {j}: {distinct} distinct subfiles > {cap}")
        if w % block == 0 and distinct != w // block:
            violations.append(
                f"column {j}: {distinct} distinct subfiles != {w // block}"
            )

    pool = [fixed_mask | b for b in subset_masks(window, block)]
    for idx, i in enumerate(window):
        seen = [col[idx] for col in schedule.columns]
        want = {m for m in pool if m & (1 << (i - 1))}
        if len(seen) != len(set(seen)) or set(seen) != want:
            violations.append(f"member {i}: coverage broken")
    return violations


# ---------------------------------------------------------------------------
# text fixtures

def schedule_from_text(text: str) -> AssignmentSchedule:
    window = fixed = None
    level = None
    columns = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, _, value = body.partition(":")
            key, value = key.strip().lower(), value.strip()
            if key == "window":
                window = tuple(int(x) for x in value.split(",") if x)
            elif key == "fixed":
                fixed = () if value in ("", "-") else tuple(
                    int(x) for x in value.split(",")
                )
            elif key == "level":
                level = int(value)
            continue
        columns.append(
            tuple(
                mask_of(int(x) for x in entry.split(","))
                for entry in line.split()
            )
        )
    if window is None or fixed is None or level is None or not columns:
        raise ValueError("fixture needs window/fixed/level headers and columns")
    return AssignmentSchedule(
        window=tuple(sorted(window)),
        fixed_part=tuple(sorted(fixed)),
        level=level,
        columns=tuple(columns),
    )


EXAMPLE1_TEXT = """\
# window: 1,2,3,4,5
# fixed: -
# level: 2
1,2 1,2 3,4 3,4 1,5
1,5 2,3 2,3 4,5 4,5
1,3 2,5 1,3 2,4 2,5
1,4 2,4 3,5 1,4 3,5
"""


def load_schedule(source) -> AssignmentSchedule:
    """Load a fixture: a schedule, the built-in name "example1" or a text file
    path.  Raises ValueError naming the first violation of an invalid one."""
    if isinstance(source, AssignmentSchedule):
        schedule = source
    elif source == "example1":
        schedule = schedule_from_text(EXAMPLE1_TEXT)
    else:
        schedule = schedule_from_text(Path(source).read_text())
    violations = validate_schedule(schedule)
    if violations:
        raise ValueError(f"invalid schedule: {violations[0]}")
    return schedule
