"""End-to-end acceptance gate.

Each test exercises one shipped guarantee at its stated tolerance and prints a
single machine-greppable `criterion N: PASS/FAIL` line (visible even while
pytest captures output), then asserts.  Budgets are wall-clock on the test
host; the heavy sweeps share placement and delivery-plan caches but never
relax the quantifiers: every demand vector of every listed config is
delivered and checked.
"""

import functools
import math
import random
import time
from types import SimpleNamespace

import numpy as np

from conftest import random_config
from corrcache import (
    CacheAllocation,
    ContentStore,
    LibraryConfig,
    cauc_deliver,
    cauc_optimal_allocation,
    cauc_rate,
    decode,
    deliver,
    exhaustive_allocation_oracle,
    generate_schedule,
    optimize_allocation,
    place,
    validate_schedule,
    verify_all_demands,
    worst_case_demand,
)
from corrcache.cli import rate_row
from corrcache.combinat import comb0, divisibility_unit
from corrcache.model import exact_sizes_from_ratios


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def _pinned_five_user_config():
    return LibraryConfig(5, 5, 0.5, (0, 1000 * divisibility_unit(5), 0, 0, 0))


def _grid_configs():
    """Every single-level config of the exhaustive grid: users and files in
    1..5, each level in turn, sized so the file is at least 6000 bits (every
    coded layer then splits into parts of many bits, well beyond the
    smallest sizes the divisibility unit allows)."""
    out = []
    for n in range(1, 6):
        for k in range(1, 6):
            unit = divisibility_unit(k)
            for level in range(1, n + 1):
                share = comb0(n - 1, level - 1)
                f_l = math.ceil(6000 / (share * unit)) * unit
                sizes = [0] * n
                sizes[level - 1] = f_l
                out.append((n, k, level, LibraryConfig(n, k, float(n), tuple(sizes))))
    return out


def _level_alloc(n, k, level, t):
    counts = [0] * n
    counts[level - 1] = t
    return CacheAllocation.from_replication(tuple(counts), k)


def test_criterion_1_distinct_demand_totals(capsys):
    start = time.perf_counter()
    config = _pinned_five_user_config()
    f2 = int(config.subfile_sizes[1])
    store = ContentStore.generate(config, seed=0)
    alloc = _level_alloc(5, 5, 2, 1)
    caches = place(config, alloc, store)
    transcript = deliver(
        config, alloc, (1, 2, 3, 4, 5), store, schedule_source="example1"
    )
    decoded = all(
        decode(u, caches[u - 1], transcript, (1, 2, 3, 4, 5))
        == store.file_bits(u)
        for u in range(1, 6)
    )
    elapsed = time.perf_counter() - start
    failures = []
    if transcript.total_bits != 36 * f2 // 5:
        failures.append(f"{transcript.total_bits} bits != {36 * f2 // 5}")
    if not decoded:
        failures.append("decode mismatch")
    if elapsed >= 1.0:
        failures.append(f"{elapsed:.2f}s >= 1s")
    _report(
        capsys, 1, not failures,
        f"{transcript.total_bits} bits = 36/5 of the subfile size, "
        f"5/5 users decode exactly ({elapsed:.2f}s)",
    )
    assert not failures, failures


def test_criterion_2_repeated_demand_totals(capsys):
    start = time.perf_counter()
    config = _pinned_five_user_config()
    f2 = int(config.subfile_sizes[1])
    store = ContentStore.generate(config, seed=0)
    alloc = _level_alloc(5, 5, 2, 1)
    caches = place(config, alloc, store)
    demands = (1, 1, 1, 3, 4)
    transcript = deliver(
        config, alloc, demands, store, schedule_source="example1"
    )
    decoded = all(
        decode(u, caches[u - 1], transcript, demands)
        == store.file_bits(demands[u - 1])
        for u in range(1, 6)
    )
    elapsed = time.perf_counter() - start
    failures = []
    if transcript.total_bits != 30 * f2 // 5:
        failures.append(f"{transcript.total_bits} bits != {30 * f2 // 5}")
    if transcript.step_counts != (7, 9, 7, 7):
        failures.append(f"step counts {transcript.step_counts} != (7, 9, 7, 7)")
    if not decoded:
        failures.append("decode mismatch")
    if elapsed >= 1.0:
        failures.append(f"{elapsed:.2f}s >= 1s")
    _report(
        capsys, 2, not failures,
        f"{transcript.total_bits} bits = 30/5 of the subfile size, "
        f"steps {transcript.step_counts} ({elapsed:.2f}s)",
    )
    assert not failures, failures


def test_criterion_3_exhaustive_demand_grids(capsys):
    """Every user count, file count, level, integer share, demand vector and
    three content seeds: everyone decodes and measured bits never exceed the
    formula, with zero slack (coded steps and exact remainder steps alike).

    Multi-level share vectors reduce to this grid levelwise: placement,
    schedules and remainder steps are built per level, so a multi-level
    delivery is the concatenation of its single-level deliveries.  The second
    block attests that composition bit-for-bit on mixed-level configs.
    """
    start = time.perf_counter()
    failures = []
    sweeps = 0
    worst_excess = -math.inf
    for n, k, level, config in _grid_configs():
        f = config.file_size
        for t in range(k + 1):
            alloc = _level_alloc(n, k, level, t)
            for seed in (0, 1, 2):
                report = verify_all_demands(config, alloc, seed=seed)
                sweeps += 1
                tag = f"n={n} k={k} level={level} t={t} seed={seed}"
                if not report.ok:
                    failures.append(f"{tag}: {report.violations[:2]}")
                if not report.max_rate * f <= report.formula_rate * f + 1e-6:
                    failures.append(
                        f"{tag}: {report.max_rate * f} bits > formula "
                        f"{report.formula_rate * f}"
                    )
                worst_excess = max(
                    worst_excess, report.max_rate * f - report.formula_rate * f
                )

    comp_cases = [
        (3, 3, (6, 6, 6), (1, 0, 2), [(1, 2, 3), (2, 2, 1), (3, 3, 3)]),
        (4, 5, (30, 30, 30, 30), (0, 2, 1, 0),
         [(1, 2, 3, 4, 1), (2, 2, 2, 2, 2), (1, 1, 2, 3, 4)]),
        (5, 4, (12, 12, 12, 0, 12), (1, 1, 0, 0, 2),
         [(1, 2, 3, 4), (5, 5, 1, 1), (2, 4, 4, 2)]),
    ]
    splits = 0
    for n, k, sizes, counts, demand_list in comp_cases:
        config = LibraryConfig(n, k, float(n), sizes)
        store = ContentStore.generate(config, seed=5)
        alloc = CacheAllocation.from_replication(counts, k)
        caches = place(config, alloc, store)
        for demands in demand_list:
            multi = deliver(config, alloc, demands, store)
            for u in range(1, k + 1):
                if decode(u, caches[u - 1], multi, demands) != store.file_bits(
                    demands[u - 1]
                ):
                    failures.append(f"composition n={n} k={k} {demands}: decode")
            for level in config.levels():
                if sizes[level - 1] == 0:
                    continue
                single_sizes = [0] * n
                single_sizes[level - 1] = sizes[level - 1]
                sub = LibraryConfig(n, k, float(n), tuple(single_sizes))
                sub_counts = [0] * n
                sub_counts[level - 1] = counts[level - 1]
                single = deliver(
                    sub,
                    CacheAllocation.from_replication(tuple(sub_counts), k),
                    demands,
                    ContentStore.generate(sub, seed=5),
                )
                splits += 1
                if multi.per_level_bits.get(level, 0) != single.total_bits:
                    failures.append(
                        f"composition n={n} k={k} level={level} {demands}: "
                        f"{multi.per_level_bits.get(level, 0)} != {single.total_bits}"
                    )

    elapsed = time.perf_counter() - start
    if elapsed >= 300:
        failures.append(f"{elapsed:.0f}s >= 5 min")
    _report(
        capsys, 3, not failures,
        f"{sweeps} demand-grid sweeps clean, worst measured - formula "
        f"{worst_excess:+.6g} bits, "
        f"levelwise composition exact on {splits} splits ({elapsed:.1f}s)",
    )
    assert not failures, failures[:5]


def test_criterion_4_uncoded_exactness_and_allocation(capsys):
    start = time.perf_counter()
    failures = []
    runs = 0
    for n, k, level, config in _grid_configs():
        store = ContentStore.generate(config, seed=0)
        demands = worst_case_demand(config)
        for t in range(k + 1):
            alloc = _level_alloc(n, k, level, t)
            transcript = cauc_deliver(config, alloc, demands, store)
            want = cauc_rate(config, alloc) * config.file_size
            runs += 1
            tag = f"n={n} k={k} level={level} t={t}"
            if abs(want - round(want)) > 1e-6:
                failures.append(f"{tag}: formula bits {want} not integral")
            if transcript.total_bits != round(want):
                failures.append(
                    f"{tag}: measured {transcript.total_bits} != {round(want)}"
                )

    # allocator domination over the full 0.05-share grid
    grid = [i * 0.05 for i in range(21)]
    combos = 0
    for n, k, sizes, m in [
        (3, 4, (24, 24, 24), 0.9),
        (3, 4, (24, 24, 24), 1.8),
        (4, 4, (24, 12, 12, 24), 1.2),
        (4, 4, (24, 12, 12, 24), 2.4),
        (5, 3, (6, 6, 6, 6, 6), 1.5),
        (5, 3, (6, 6, 6, 6, 6), 3.0),
    ]:
        config = LibraryConfig(n, k, m, sizes)
        base = cauc_rate(config, CacheAllocation((0.0,) * n))
        rate_rows, cost_rows = [], []
        for level in config.levels():
            rates, costs = [], []
            for p in grid:
                frac = [0.0] * n
                frac[level - 1] = p
                a = CacheAllocation(tuple(frac))
                rates.append(cauc_rate(config, a) - base)
                costs.append(a.cached_bits(config))
            rate_rows.append(np.array(rates))
            cost_rows.append(np.array(costs))
        total_rate = base + functools.reduce(np.add.outer, rate_rows)
        total_cost = functools.reduce(np.add.outer, cost_rows)
        combos += total_rate.size
        budget = config.cache_capacity * config.file_size
        feasible = total_cost <= budget + 1e-9 * config.file_size
        best = float(total_rate[feasible].min())
        # spot-check the separable table against direct evaluations
        rng = random.Random(n * 100 + k)
        for _ in range(5):
            idx = tuple(rng.randrange(21) for _ in range(n))
            direct = cauc_rate(
                config, CacheAllocation(tuple(grid[i] for i in idx))
            )
            if abs(total_rate[idx] - direct) > 1e-9:
                failures.append(f"n={n} k={k}: grid table mismatch at {idx}")
        opt = cauc_optimal_allocation(config)
        r_opt = cauc_rate(config, opt)
        if not opt.satisfies_capacity(config):
            failures.append(f"n={n} k={k} m={m}: optimal allocation infeasible")
        if r_opt > best + 1e-9:
            failures.append(
                f"n={n} k={k} m={m}: optimized {r_opt:.12f} > grid best {best:.12f}"
            )
    elapsed = time.perf_counter() - start
    _report(
        capsys, 4, not failures,
        f"{runs} worst-case deliveries bit-equal to the formula; optimizer "
        f"beats/ties {combos} gridded allocations ({elapsed:.1f}s)",
    )
    assert not failures, failures[:5]


def test_criterion_5_allocator_matches_oracle(capsys):
    start = time.perf_counter()
    failures = []
    rng = random.Random(20260813)
    for i in range(50):
        config = random_config(rng)
        active = sum(1 for s in config.subfile_sizes if s > 0)
        step = 0.25 if active <= 3 else 0.5
        sol = optimize_allocation(config)
        oracle = exhaustive_allocation_oracle(config, grid_step=step)
        if sol.rate > oracle.rate + 1e-9:
            failures.append(
                f"config {i}: greedy {sol.rate:.12f} > oracle {oracle.rate:.12f}"
            )
        if not sol.alloc.satisfies_capacity(config):
            failures.append(f"config {i}: greedy allocation infeasible")
    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        failures.append(f"{elapsed:.0f}s >= 2 min")
    _report(
        capsys, 5, not failures,
        f"greedy within 1e-9 of the grid oracle on 50 random configs "
        f"({elapsed:.1f}s)",
    )
    assert not failures, failures


def test_criterion_6_ten_user_trend_sweeps(capsys):
    start = time.perf_counter()
    failures = []
    tol = 1e-9
    results = {}
    for sweep_level in (2, 10):
        # the configs of `corrcache sweep --n 10 --k 10 --m 1 --sweep-level L`:
        # ratio x on level L, 1 - x on level 1, exact sizes at F = 100,000
        rows = []
        for x in (i / 10 for i in range(11)):
            ratios = [0.0] * 10
            ratios[sweep_level - 1] = x
            ratios[0] += 1 - x
            sizes = exact_sizes_from_ratios(10, ratios, 100_000)
            rows.append(rate_row(LibraryConfig(10, 10, 1.0, sizes)))
        res = SimpleNamespace(
            **dict(zip(("r_cauc", "r_cacc", "r_cicc", "r_cutset"), zip(*rows)))
        )
        results[sweep_level] = res
        name = f"levels 1/{sweep_level}"
        if len(rows) != 11:
            failures.append(f"{name}: {len(rows)} points != 11")
        for i, r in enumerate(res.r_cicc):
            if abs(r - 4.5) > tol:
                failures.append(f"{name}: structure-blind rate {r} != 4.5 at {i}")
        for a, b in zip(res.r_cacc, res.r_cacc[1:]):
            if b > a + tol:
                failures.append(f"{name}: coded curve increases {a} -> {b}")
        for i in range(11):
            if res.r_cacc[i] > min(res.r_cauc[i], res.r_cicc[i]) + tol:
                failures.append(f"{name}: coded above envelope at point {i}")
            for curve in ("r_cauc", "r_cacc", "r_cicc"):
                if res.r_cutset[i] > getattr(res, curve)[i] + tol:
                    failures.append(f"{name}: cut-set above {curve} at point {i}")

    deep = results[10]
    if deep.r_cauc[-1] > tol:
        failures.append(f"fully-shared library still costs {deep.r_cauc[-1]}")
    for i in (-2, -1):  # ratios 0.9 and 1.0
        if not deep.r_cauc[i] < deep.r_cicc[i] - 0.5:
            failures.append(
                f"uncoded {deep.r_cauc[i]} not clearly below blind "
                f"{deep.r_cicc[i]} at high sharing"
            )
    shallow = results[2]
    anchors = [
        (shallow.r_cauc[0], 9.0), (shallow.r_cauc[-1], 4.0),
        (shallow.r_cacc[0], 4.5),
    ]
    for got, want in anchors:
        if abs(got - want) > tol:
            failures.append(f"anchor {got} != {want}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30:
        failures.append(f"{elapsed:.0f}s >= 30 s")
    _report(
        capsys, 6, not failures,
        "10-user sweeps: blind curve flat at 4.5, coded non-increasing under "
        f"both others, cut-set below all, shared-library endpoint 0 "
        f"({elapsed:.1f}s)",
    )
    assert not failures, failures[:5]


def test_criterion_7_schedule_validity(capsys):
    start = time.perf_counter()
    failures = []
    built = 0
    for w in range(1, 11):
        window = tuple(range(1, w + 1))
        for s in (0, 1, 2):
            if w + s > max(w, 8):  # w + s <= 8, and windows 9, 10 at s = 0
                continue
            fixed = tuple(range(w + 1, w + s + 1))
            for block in range(1, w + 1):
                level = block + s
                cap = math.ceil(w / block) + 1
                for seed in range(20):
                    sched = generate_schedule(window, fixed, level, seed=seed)
                    built += 1
                    errs = validate_schedule(sched)
                    if errs:
                        failures.append(f"w={w} s={s} block={block} seed={seed}: {errs[:1]}")
                        continue
                    for col in sched.columns:
                        width = len(set(col))
                        if width > cap:
                            failures.append(
                                f"w={w} s={s} block={block}: width {width} > {cap}"
                            )
                        if w % block == 0 and width != w // block:
                            failures.append(
                                f"w={w} s={s} block={block}: width {width} != {w // block}"
                            )
    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        failures.append(f"{elapsed:.0f}s >= 1 min")
    _report(
        capsys, 7, not failures,
        f"{built} generated schedules all valid with tight widths ({elapsed:.1f}s)",
    )
    assert not failures, failures[:5]
