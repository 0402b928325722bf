import hashlib
import math
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcache import (
    AssignmentSchedule,
    CacheAllocation,
    ContentStore,
    LibraryConfig,
    deliver,
    generate_schedule,
    load_schedule,
    schedule_from_text,
    validate_schedule,
)
from corrcache import scheduling
from corrcache.combinat import comb0, mask_of, subset_masks

SCHEDULE_GOLDEN = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "fixtures", "schedules", "digest.txt",
)


def test_builtin_fixture_is_valid():
    sched = load_schedule("example1")
    assert sched.window == (1, 2, 3, 4, 5)
    assert sched.fixed_part == ()
    assert sched.level == 2
    assert sched.n_columns == 4
    assert validate_schedule(sched) == []


def test_builtin_fixture_column_width():
    sched = load_schedule("example1")
    for col in sched.columns:
        distinct = len(set(col))
        assert distinct <= math.ceil(5 / 2) + 1


def test_fixture_text_roundtrip(tmp_path):
    """The fixture text, written to a file and loaded by path, parses to the
    same schedule as the text itself."""
    path = tmp_path / "sched.txt"
    path.write_text(scheduling.EXAMPLE1_TEXT)
    assert load_schedule(str(path)) == schedule_from_text(scheduling.EXAMPLE1_TEXT)


def test_fixture_text_requires_headers():
    with pytest.raises(ValueError):
        schedule_from_text("1,2 2,3\n")


def test_generate_rejects_bad_shapes():
    with pytest.raises(ValueError):
        generate_schedule((), (), 1)
    with pytest.raises(ValueError):
        generate_schedule((1, 2), (2,), 2)  # overlap
    with pytest.raises(ValueError):
        generate_schedule((1, 2), (), 4)  # block larger than window


def test_generate_deterministic_per_seed():
    a = generate_schedule(range(1, 6), (), 2, seed=11)
    b = generate_schedule(range(1, 6), (), 2, seed=11)
    assert a == b


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(0, 2),
    st.integers(1, 7),
    st.integers(0, 50),
)
def test_generated_schedules_are_valid(w, s, block, seed):
    if block > w:
        block = w
    window = tuple(range(1, w + 1))
    fixed = tuple(range(w + 1, w + 1 + s))
    level = block + s
    sched = generate_schedule(window, fixed, level, seed=seed)
    assert validate_schedule(sched) == []
    assert sched.n_columns == comb0(w - 1, block - 1)
    cap = math.ceil(w / block) + 1
    for col in sched.columns:
        distinct = len(set(col))
        assert distinct <= cap
        if w % block == 0:
            assert distinct == w // block


def test_each_member_sees_each_pool_subfile_once():
    sched = generate_schedule((1, 2, 3, 4), (), 2, seed=3)
    for idx, member in enumerate(sched.window):
        seen = [col[idx] for col in sched.columns]
        want = [m for m in subset_masks(sched.window, 2) if m >> (member - 1) & 1]
        assert sorted(seen) == sorted(want)


def test_validator_flags_broken_columns():
    sched = load_schedule("example1")
    # swap one entry for a subfile not containing the member
    bad_cols = [list(col) for col in sched.columns]
    bad_cols[0][0] = mask_of((2, 3))
    bad = AssignmentSchedule(
        window=sched.window,
        fixed_part=sched.fixed_part,
        level=sched.level,
        columns=tuple(tuple(c) for c in bad_cols),
    )
    problems = validate_schedule(bad)
    assert problems
    assert any("column 1" in p for p in problems)


def test_validator_flags_wrong_column_count():
    sched = load_schedule("example1")
    bad = AssignmentSchedule(
        window=sched.window,
        fixed_part=sched.fixed_part,
        level=sched.level,
        columns=sched.columns[:3],
    )
    assert any("column count" in p for p in validate_schedule(bad))


def test_coded_steps_map_users_to_schedule_entries():
    """Coded step j sends each user the schedule entry of its demand in
    column j: the step items of a fixture delivery are the fixture's
    columns indexed by the demands."""
    sched = load_schedule("example1")
    demands = (1, 1, 3, 4, 5)
    config = LibraryConfig(5, 5, 1.0, (0, 100, 0, 0, 0))
    store = ContentStore.generate(config, seed=0)
    alloc = CacheAllocation.from_replication((0, 1, 0, 0, 0), 5)
    transcript = deliver(config, alloc, demands, store, schedule_source="example1")
    assert [rec.step_items for rec in transcript.sections] == [
        tuple(col[d - 1] for d in demands) for col in sched.columns
    ]


def test_shipped_fixture_file_matches_builtin():
    root = os.path.join(os.path.dirname(__file__), "..")
    path = os.path.join(root, "fixtures", "example1_schedule.txt")
    assert load_schedule(path) == load_schedule("example1")


# ---------------------------------------------------------------------------
# golden schedules
#
# `python tests/test_scheduling.py` prints the digest lines; regenerate
# fixtures/schedules/digest.txt with it only for a change that is meant to
# alter schedules (and with them every coded transcript).


def schedule_shapes():
    """(window size, fixed-part size, block, seeds) of every pinned shape:
    criterion 7's grid up to window 8 at seeds 0-19, plus six window-9 and
    window-10 shapes at seed 0 whose first descent dead-ends: (9, 4),
    (10, 3) and (10, 4) backtrack to a schedule within four attempts, while
    (9, 3), (9, 6) and (10, 6) need 294, 95 and 23."""
    for w in range(1, 9):
        for s in (0, 1, 2):
            if w + s > 8:
                continue
            for block in range(1, w + 1):
                yield w, s, block, range(20)
    for w, block in ((9, 4), (10, 3), (10, 4), (9, 3), (9, 6), (10, 6)):
        yield w, 0, block, (0,)


def schedule_digest_lines():
    lines = []
    for w, s, block, seeds in schedule_shapes():
        window = tuple(range(1, w + 1))
        fixed = tuple(range(w + 1, w + s + 1))
        h = hashlib.sha256()
        for seed in seeds:
            sched = generate_schedule(window, fixed, block + s, seed=seed)
            h.update(repr(sched.columns).encode())
        lines.append(f"w={w} s={s} block={block}: {h.hexdigest()}")
    return lines


def test_schedules_match_golden_digest():
    with open(SCHEDULE_GOLDEN, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    got = schedule_digest_lines()
    assert len(got) == len(want)
    changed = [g for g, w in zip(got, want) if g != w]
    assert not changed, f"{len(changed)} shapes changed, first: {changed[0]}"


def test_search_needs_no_recursion():
    """Window 12, block 6: a schedule's search path is one pick per pool
    block, 924 deep, beyond Python's default recursion limit."""
    sched = generate_schedule(range(1, 13), (), 6)
    assert validate_schedule(sched) == []
    assert sched.n_columns == comb0(11, 5)


def test_search_out_of_attempts_raises_naming_the_shape(monkeypatch):
    """(9, 3) at seed 0 needs hundreds of attempts; with one it runs out."""
    monkeypatch.setattr(scheduling, "_ATTEMPTS", 1)
    with pytest.raises(RuntimeError, match=r"window=\(1, 2, 3, 4, 5, 6, 7, 8, 9\) fixed=\(\) level=3"):
        generate_schedule(range(1, 10), (), 3, seed=0)


if __name__ == "__main__":
    sys.stdout.write("\n".join(schedule_digest_lines()) + "\n")
