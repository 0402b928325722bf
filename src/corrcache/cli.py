"""Command-line front end for the caching/delivery toolkit.

Subcommands: `rates` (closed-form table), `optimize` (capacity allocation),
`simulate` (bit-level delivery of one demand vector), `verify` (exhaustive
demand-grid oracle) and `sweep` (rate curves against one commonness ratio at
a fixed capacity, or against capacity for a fixed library).
All machine output is CSV with `#` comment lines echoing the configuration,
deterministic for fixed flags and seed.  A flag that would not change a
command's output is refused (exit 2), never silently ignored.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .allocation import optimize_allocation
from .delivery import SCHEMES, DeliveryPlan
from .model import (
    CacheAllocation,
    ContentStore,
    LibraryConfig,
    exact_sizes_from_ratios,
    ratios_to_sizes,
)
from .rates import (
    cauc_optimal_allocation,
    cauc_rate,
    cicc_rate,
    cutset_bound,
)
from .verification import decode_failures, verify_all_demands
from . import __version__

__all__ = ["main", "rate_row"]

_DEFAULT_GRID = tuple(i / 10 for i in range(11))
_FILE_BITS = 100_000


def rate_row(config: LibraryConfig) -> tuple[float, float, float, float]:
    """The four rates of one config: (cauc, cacc, cicc, cut-set), uncoded
    at its optimal allocation and coded at the optimizer's."""
    return (
        cauc_rate(config, cauc_optimal_allocation(config)),
        optimize_allocation(config).rate,
        cicc_rate(config),
        cutset_bound(config),
    )


def _curve(grid, config_at) -> list[tuple]:
    """The one sweep row loop: (x, *rate_row(config_at(x))) per grid point."""
    return [(x, *rate_row(config_at(x))) for x in grid]


def _curve_csv(header: str, axis: str, rows) -> str:
    lines = [header, f"{axis},r_cauc,r_cacc,r_cicc,r_cutset"]
    lines.extend(",".join(f"{v:.10g}" for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# flag parsing helpers

def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip() != "")


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip() != "")


def _pad(values, n, name):
    if len(values) > n:
        raise ValueError(f"{name} has {len(values)} entries for {n} levels")
    return tuple(values) + (0,) * (n - len(values))


def _or(value, default):
    return default if value is None else value


def _refuse(args, flags, why) -> None:
    """Exit 2 (via ValueError) when any of `flags` was passed."""
    given = [f for f in flags if getattr(args, f[2:].replace("-", "_")) is not None]
    if given:
        raise ValueError(f"{why}: {', '.join(given)}")


def _sizes_from_args(args, exact=False) -> tuple:
    """Per-level sizes from --level-sizes, or from --ratios and --file-bits:
    exact for the formula-only commands, rounded down to the divisibility
    unit for the bit-level ones."""
    if args.level_sizes is not None:
        _refuse(args, ("--ratios", "--file-bits"), "not used with --level-sizes")
        return _pad(_ints(args.level_sizes), args.n, "--level-sizes")
    if args.ratios is not None:
        ratios = _pad(_floats(args.ratios), args.n, "--ratios")
        file_bits = _or(args.file_bits, _FILE_BITS)
        if exact:
            return exact_sizes_from_ratios(args.n, ratios, file_bits)
        return ratios_to_sizes(args.n, args.k, ratios, file_bits)
    raise ValueError("need --level-sizes or --ratios")


def _config_and_alloc(args) -> tuple[LibraryConfig, CacheAllocation]:
    """Resolve the library plus a cache allocation from the flag set.

    Priority: explicit --t shares, each in [0, K]; else --m optimized (for
    --scheme cauc the uncoded optimum); else t_l = 1 on every nonempty level
    (the smallest nontrivial coded placement).  When --m is absent the
    capacity is set to exactly fit the chosen allocation.  The shares stay
    nominal here: the delivery plan realizes them in whole bits, rounding
    each cached slice down (cauc: its prefix), and refuses a placement over
    the budget.  cicc places every file at K*M/N, so with --m its --t
    would change nothing and is refused.
    """
    if args.scheme == "cicc" and args.m is not None:
        _refuse(args, ("--t",), "not used by --scheme cicc with --m")
    sizes = _sizes_from_args(args)
    if args.t is not None:
        counts = _pad(_floats(args.t), args.n, "--t")
        if not all(0 <= c <= args.k for c in counts):  # NaN fails too
            raise ValueError(f"--t shares must lie in [0, {args.k}], got {args.t}")
        alloc = CacheAllocation.from_replication(counts, args.k)
    elif args.m is None:
        counts = tuple(1 if s > 0 else 0 for s in sizes)
        alloc = CacheAllocation.from_replication(counts, args.k)
    else:
        alloc = None

    if args.m is not None:
        m = args.m
    else:
        probe = LibraryConfig(args.n, args.k, 0.0, sizes)
        m = alloc.cached_bits(probe) / probe.file_size
    config = LibraryConfig(args.n, args.k, m, sizes)
    if alloc is None and args.scheme == "cauc":
        alloc = cauc_optimal_allocation(config)
    elif alloc is None:
        alloc = optimize_allocation(config).alloc
    return config, alloc


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_comment(config: LibraryConfig, seed=None, scheme=None) -> str:
    sizes = ",".join(f"{s:g}" for s in config.subfile_sizes)
    extra = ""
    if scheme is not None:
        extra += f" scheme={scheme}"
    if seed is not None:
        extra += f" seed={seed}"
    return (
        f"# n={config.n_files} k={config.n_users} "
        f"m={config.cache_capacity:g} level_sizes={sizes}{extra}"
    )


# ---------------------------------------------------------------------------
# subcommand bodies

def _cmd_rates(args) -> int:
    sizes = _sizes_from_args(args, exact=True)
    if args.m is None:
        raise ValueError("rates needs --m")
    config = LibraryConfig(args.n, args.k, args.m, sizes)
    text = (
        _config_comment(config)
        + "\nr_cauc,r_cacc,r_cicc,r_cutset\n"
        + ",".join(f"{r:.10g}" for r in rate_row(config))
        + "\n"
    )
    _emit(text, args.out)
    return 0


def _cmd_optimize(args) -> int:
    sizes = _sizes_from_args(args, exact=True)
    if args.m is None:
        raise ValueError("optimize needs --m")
    config = LibraryConfig(args.n, args.k, args.m, sizes)
    sol = optimize_allocation(config)
    lines = [
        _config_comment(config),
        f"# method={sol.method} rate={sol.rate:.10g}",
        "level,fraction,t",
    ]
    for level in config.levels():
        p = sol.alloc.fractions[level - 1]
        lines.append(f"{level},{p:.10g},{p * config.n_users:.10g}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_simulate(args) -> int:
    config, alloc = _config_and_alloc(args)
    demands = _ints(args.demands)
    store = ContentStore.generate(config, args.seed)
    scheme = args.scheme
    plan = DeliveryPlan(
        config, alloc, store, schedule_source=args.fixture, seed=args.seed,
        scheme=scheme,
    )
    caches = plan.place()
    transcript = plan.deliver(demands)
    cached_bits, store, templates = plan.cached_bits(), plan.store, plan.templates()
    # the encoder's part lists go with the plan, before the decode check
    # splits its own parts from the store; the part templates that placed
    # the caches stay, for the check's tables
    del plan

    failures = decode_failures(caches, transcript, demands, store, templates=templates)
    per_level = ";".join(
        f"{l}:{b}" for l, b in sorted(transcript.per_level_bits.items())
    )
    lines = [
        _config_comment(config, seed=args.seed, scheme=scheme),
        f"demands={'-'.join(map(str, demands))}",
        f"total_bits={transcript.total_bits}",
        f"rate={transcript.rate:.10g}",
        f"step_counts={','.join(map(str, transcript.step_counts))}",
        f"per_level_bits={per_level}",
        f"cached_bits={cached_bits}",
        f"budget_bits={config.cache_capacity * config.file_size:.10g}",
        f"decode={'FAILED' if failures else 'ok'}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    for line in failures:
        print(f"violation: {line}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_verify(args) -> int:
    config, alloc = _config_and_alloc(args)
    report = verify_all_demands(config, alloc, scheme=args.scheme, seed=args.seed)
    header = _config_comment(config, seed=args.seed, scheme=args.scheme)
    stats = (
        f"# max_rate={report.max_rate:.10g} "
        f"argmax={'-'.join(map(str, report.argmax_demand))} "
        f"gap={report.formula_gap:.10g} "
        f"violations={len(report.violations)} "
        f"cached_bits={report.cached_bits} "
        f"budget_bits={config.cache_capacity * config.file_size:.10g}"
    )
    _emit(header + "\n" + stats + "\n" + report.to_csv(), args.out)
    if report.violations:
        for v in report.violations[:20]:
            print(f"violation: {v}", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args) -> int:
    """The flags pick the axis.  --m fixes the capacity and sweeps the ratio
    of --sweep-level, in [2, N] (level 1 takes the complement), over --grid
    in [0, 1];
    --ratios or --level-sizes fix the library and sweep the capacity over
    --grid in files, by default N*i/10 for i = 0..10.  Either way the rates
    are formulas on exact sizes, with no divisibility rounding."""
    grid = _floats(args.grid) if args.grid else ()
    if (args.m is not None) == (args.ratios is not None or args.level_sizes is not None):
        raise ValueError(
            "sweep takes either --m (a ratio sweep) or --ratios/--level-sizes "
            "(a capacity sweep)"
        )
    if args.m is not None:
        n, level = args.n, _or(args.sweep_level, 2)
        file_bits = _or(args.file_bits, _FILE_BITS)
        if not 2 <= level <= n:
            raise ValueError(f"--sweep-level must lie in [2, {n}], got {level}")

        def config_at(x):
            if not 0 <= x <= 1:
                raise ValueError(f"grid ratio {x} outside [0, 1]")
            ratios = [0.0] * n
            ratios[level - 1] = x
            ratios[0] += 1 - x
            sizes = exact_sizes_from_ratios(n, ratios, file_bits)
            return LibraryConfig(n, args.k, args.m, sizes)

        rows = _curve(grid or _DEFAULT_GRID, config_at)
        header = (
            f"# n={n} k={args.k} m={args.m:g} file_bits={file_bits} "
            f"sweep_level={level} seed=0"
        )
        _emit(_curve_csv(header, "x", rows), args.out)
        return 0
    _refuse(args, ("--sweep-level",), "not used by a capacity sweep")
    sizes = _sizes_from_args(args, exact=True)
    if args.level_sizes is not None:
        library = "level_sizes=" + ",".join(f"{s:g}" for s in sizes)
    else:
        ratios = _pad(_floats(args.ratios), args.n, "--ratios")
        library = (
            "ratios=" + ",".join(f"{r:g}:level{l}" for l, r in enumerate(ratios, 1) if r)
            + f" file_bits={_or(args.file_bits, _FILE_BITS)}"
        )
    grid = grid or tuple(args.n * i / 10 for i in range(11))
    rows = _curve(grid, lambda m: LibraryConfig(args.n, args.k, m, sizes))
    header = f"# n={args.n} k={args.k} {library} points={len(grid)}"
    _emit(_curve_csv(header, "m", rows), args.out)
    return 0


def _add_common(sub, bit_level=False):
    """Library flags for every command; allocation, scheme and content seed
    for the bit-level ones (simulate, verify)."""
    sub.add_argument("--n", type=int, required=True, help="number of files")
    sub.add_argument("--k", type=int, required=True, help="number of users")
    sub.add_argument("--m", type=float, default=None, help="cache capacity in files")
    sub.add_argument("--ratios", default=None,
                     help="comma list of per-level commonness ratios (sum 1)")
    sub.add_argument("--file-bits", type=int, default=None,
                     help=f"target file size in bits for --ratios (default {_FILE_BITS})")
    sub.add_argument("--level-sizes", default=None,
                     help="comma list of exact per-level subfile sizes in bits")
    sub.add_argument("--out", default=None, help="write output to this path")
    if bit_level:
        sub.add_argument("--seed", type=int, default=0, help="content/schedule seed")
        sub.add_argument("--t", default=None,
                         help="comma list of per-level cached shares t_l in [0, K]")
        sub.add_argument("--scheme", choices=SCHEMES,
                         default="cacc", help="delivery scheme")


@functools.cache  # one parser serves every call of main
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrcache",
        description="Caching and coded delivery for libraries with shared subfiles.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("rates", help="closed-form rate table for one config")
    _add_common(p)
    p.set_defaults(func=_cmd_rates)

    p = subs.add_parser("optimize", help="capacity-optimal cache allocation")
    _add_common(p)
    p.set_defaults(func=_cmd_optimize)

    p = subs.add_parser("simulate", help="run one demand vector at the bit level")
    _add_common(p, bit_level=True)
    p.add_argument("--demands", required=True,
                   help="comma list of demanded file indices, one per user")
    p.add_argument("--fixture", default=None,
                   help="assignment schedule: a path or the literal 'example1'")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("verify", help="exhaustive demand-grid verification")
    _add_common(p, bit_level=True)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser(
        "sweep", help="rate curves along one commonness ratio (--m) or capacity"
    )
    _add_common(p)
    p.add_argument("--sweep-level", type=int, default=None,
                   help="ratio sweep: level in [2, N] whose ratio runs the grid, "
                        "complement on level 1 (default 2)")
    p.add_argument("--grid", default=None,
                   help="comma list of grid points: ratios (default 0,0.1,...,1) "
                        "with --m, else capacities in files (default N*i/10)")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.n < 1 or args.k < 1:
            raise ValueError("--n and --k must be at least 1")
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # the rates are floats, and a step count grows like C(K, K/2)
        print(
            f"error: --k {args.k} or a size is too large for the float rates: {exc}",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
