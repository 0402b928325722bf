#!/usr/bin/env python3
"""Reproduce the headline rate-curve sweeps and write them as CSV.

Three sweeps, all at the 10-file/10-user point unless overridden:
  * commonness ratio of level 2 vs level 1 at fixed capacity,
  * commonness ratio of the fully-shared level vs level 1 (where the
    correlation-aware schemes collapse to zero at ratio 1),
  * cache capacity at a fixed mixed-ratio library.

Each CSV starts with a `#` comment echoing the exact configuration, so a
rerun with the same flags is byte-identical.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from corrcache import LibraryConfig  # noqa: E402
from corrcache.cli import rate_row, run_sweep  # noqa: E402
from corrcache.model import ExperimentSpec, exact_sizes_from_ratios  # noqa: E402


def ratio_sweep(args, sweep_level: int) -> str:
    spec = ExperimentSpec(
        n_files=args.n,
        n_users=args.k,
        cache_capacity=args.m,
        ratios=(1.0,) + (0.0,) * (args.n - 1),
        file_bits=args.file_bits,
        sweep_level=sweep_level,
        grid=tuple(i / (args.points - 1) for i in range(args.points)),
    )
    return run_sweep(spec).to_csv()


def capacity_sweep(args) -> str:
    """All four curves against cache capacity at a fixed half-private,
    half-common library (levels 1 and 2)."""
    ratios = [0.0] * args.n
    ratios[0] = 0.5
    ratios[1] = 0.5
    sizes = exact_sizes_from_ratios(args.n, ratios, args.file_bits)
    lines = [
        f"# n={args.n} k={args.k} ratios=0.5:level1,0.5:level2 "
        f"file_bits={args.file_bits} points={args.points}",
        "m,r_cauc,r_cacc,r_cicc,r_cutset",
    ]
    for i in range(args.points):
        m = args.n * i / (args.points - 1)
        row = (m, *rate_row(LibraryConfig(args.n, args.k, m, sizes)))
        lines.append(",".join(f"{v:.10g}" for v in row))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10, help="number of files")
    parser.add_argument("--k", type=int, default=10, help="number of users")
    parser.add_argument("--m", type=float, default=1.0,
                        help="cache capacity (in files) for the ratio sweeps")
    parser.add_argument("--file-bits", type=int, default=100_000)
    parser.add_argument("--points", type=int, default=11,
                        help="grid points per sweep")
    parser.add_argument("--out-dir", default="sweeps",
                        help="directory for the CSV files")
    args = parser.parse_args(argv)
    if args.points < 2:
        parser.error("--points must be at least 2")

    os.makedirs(args.out_dir, exist_ok=True)
    jobs = [
        ("ratio_level2.csv", ratio_sweep(args, 2)),
        (f"ratio_level{args.n}.csv", ratio_sweep(args, args.n)),
        ("capacity.csv", capacity_sweep(args)),
    ]
    for name, text in jobs:
        path = os.path.join(args.out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        last = text.strip().split("\n")[-1]
        print(f"wrote {path} ({len(text.splitlines()) - 2} rows, last: {last})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
