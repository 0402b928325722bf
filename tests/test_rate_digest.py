"""Golden digest of the rate layer at full precision.

The figure CSVs print `%.10g`, so a change in the last bits of a rate would
not show there.  This digest hashes `repr` of every rate-layer value per
row: the uncoded allocation's fractions and `cauc_rate` at them,
`optimize_allocation`'s fractions and rate, `cicc_rate`, `cutset_bound` and
the cut-set rows `rates._cut_totals`.  The rows come in two sets:

* the figure sweeps' row shapes at N = K in {10, 15, 20}: the ratio sweeps
  at level 2 and level N at M in {0.5, 1, 2}, and the capacity sweep of
  the half-private, half-pairwise library, each over 101 grid points;
* 1,000 seeded random libraries with empty levels, half with integer sizes
  and half with float sizes from `exact_sizes_from_ratios`, each at M = 0,
  a random M and the capacity clamp.

One line per group must equal fixtures/rates/digest.txt.  The row memo does
not tell 2 from 2.0 in a key, so the test empties the rate layer's memos
first and computes the rows in a fixed order.

`python tests/test_rate_digest.py` prints the digest lines; regenerate the
fixture with it only for a change that is meant to alter a rate.
"""

import hashlib
import os
import random
import sys

from corrcache import (
    LibraryConfig,
    cauc_optimal_allocation,
    cauc_rate,
    cicc_rate,
    cutset_bound,
    optimize_allocation,
)
from corrcache import rates
from corrcache.model import exact_sizes_from_ratios

GOLDEN = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "fixtures", "rates", "digest.txt",
)
CURVE_POINTS = 101


def _curve_rows(n):
    """The figure sweeps' rows at N = K = n."""
    grid = [i / (CURVE_POINTS - 1) for i in range(CURVE_POINTS)]
    for m in (0.5, 1.0, 2.0):
        for sweep_level in (2, n):
            for x in grid:
                ratios = [0.0] * n
                ratios[sweep_level - 1] = x
                ratios[0] += 1 - x
                yield LibraryConfig(n, n, m, exact_sizes_from_ratios(n, ratios, 100_000))
    sizes = exact_sizes_from_ratios(n, [0.5, 0.5] + [0.0] * (n - 2), 100_000)
    for x in grid:
        yield LibraryConfig(n, n, n * x, sizes)


def _random_rows(integral, count=500, seed=33):
    """Seeded libraries with at least one empty level, each at M = 0, a
    random M and the clamp (M = N, clamped to the library)."""
    rng = random.Random(seed + integral)
    for _ in range(count):
        n, k = rng.randint(2, 20), rng.randint(1, 20)
        levels = rng.sample(range(n), rng.randint(1, n - 1))
        if integral:
            sizes = [0] * n
            for l in levels:
                sizes[l] = rng.randint(1, 10_000)
        else:
            weights = [0.0] * n
            for l in levels:
                weights[l] = rng.uniform(0.01, 1.0)
            total = sum(weights)
            sizes = exact_sizes_from_ratios(
                n, [w / total for w in weights], rng.uniform(1.0, 1e6)
            )
        for m in (0.0, rng.uniform(0.0, n), float(n)):
            yield LibraryConfig(n, k, m, tuple(sizes))


def groups():
    """(group id, row iterator) of every digested group."""
    for n in (10, 15, 20):
        yield f"figure rows n=k={n}", _curve_rows(n)
    yield "random integer sizes", _random_rows(True)
    yield "random float sizes", _random_rows(False)


def row_values(config):
    n, k = config.n_files, config.n_users
    cauc = cauc_optimal_allocation(config)
    cacc = optimize_allocation(config)
    return (
        cauc.fractions,
        cauc_rate(config, cauc),
        cacc.alloc.fractions,
        cacc.rate,
        cicc_rate(config),
        cutset_bound(config),
        rates._cut_totals(n, k, config.subfile_sizes),
    )


def digest_lines():
    for value in vars(rates).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
    lines = []
    for group, rows in groups():
        h = hashlib.sha256()
        count = 0
        for config in rows:
            h.update(repr(row_values(config)).encode())
            count += 1
        lines.append(f"{group} ({count} rows): {h.hexdigest()}")
    return lines


def test_rate_layer_matches_golden_digest():
    with open(GOLDEN, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    assert digest_lines() == want


if __name__ == "__main__":
    sys.stdout.write("\n".join(digest_lines()) + "\n")
