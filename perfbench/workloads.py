"""The four benchmark workloads: inputs from a seed, one call, output checks.

Every workload drives the package only through public entry points:
``verify_all_demands(config, alloc, seed=...)``, ``cli.main(argv)`` and the
``rates`` / ``allocation`` functions.  A workload is a fixed list of calls
(one pass); ``run(call)`` makes one top-level call and returns an
``Outcome``.  The benchmark times ``run`` only up to the return of the
package call; the checks that follow are outside the timed region.

Counting, per workload:
  * verify_*: an operation is one demand vector.  It fails when the sweep
    marks it not ok (``decode_ok`` false), or when the whole sweep raised.
  * simulate_cold: an operation is one ``corrcache simulate`` invocation.  It
    fails on a nonzero exit, a ``SystemExit`` or output without ``decode=ok``.
  * rate_curves: an operation is one config row.  It fails when the row breaks
    ``cutset <= cacc <= min(cauc, cicc)`` (tolerance 1e-9).

A failure is a result the program itself flags as wrong.  ``problems``
collects results the benchmark finds inconsistent on its own (a malformed
report, a rate that disagrees with the bits sent, an unflagged rate above
the formula on a coded shape); any problem makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from dataclasses import dataclass, field
from time import perf_counter

TOL = 1e-9

# Criterion 3's single-level grid: files and users in 1..5, every level, every
# integer share t in 0..K.  These ten (N, K, level, t) shapes are the ones on
# which `deliver` takes the random-combination path at this commit; they make
# up verify_random and are left out of verify_coded.
RANDOM_SHAPES = (
    (3, 4, 2, 1), (3, 5, 2, 1), (4, 4, 3, 1), (4, 5, 3, 1), (4, 5, 3, 2),
    (5, 4, 3, 1), (5, 4, 4, 1), (5, 5, 3, 1), (5, 5, 4, 1), (5, 5, 4, 2),
)
CODED_SHAPES = tuple(
    (n, k, level, t)
    for n in range(1, 6)
    for k in range(1, 6)
    for level in range(1, n + 1)
    for t in range(k + 1)
    if (n, k, level, t) not in RANDOM_SHAPES
)
CODED_FILE_BITS = 6000  # criterion 3's minimum file size
# F~600 holds the known rate defect, at (5, 5, 3, 1).  The F~1500 slice of the
# same shapes is left out: it tripled the pass to ~22 s, and a run then had
# room for one pass only, too few to time each call twice on a shared host.
RANDOM_FILE_BITS = (600,)

SIMULATE_CALLS_PER_SHAPE = 6  # x 25 (N, K) pairs = 150 invocations
SIMULATE_FILE_BITS = 1_000_000
CURVE_SIZES = (10, 15, 20)  # N = K
CURVE_POINTS = 101


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    rate_excess: float = 0.0


def single_level_sizes(pkg, n, k, level, file_bits):
    """Criterion 3's sizing: the smallest unit multiple giving >= file_bits."""
    unit = pkg.combinat.divisibility_unit(k)
    share = math.comb(n - 1, level - 1)
    sizes = [0] * n
    sizes[level - 1] = math.ceil(file_bits / (share * unit)) * unit
    return tuple(sizes)


# ---------------------------------------------------------------------------
# verify_coded / verify_random

@dataclass
class Sweep:
    shape: tuple
    config: object
    alloc: object
    formula: float
    demands: int


class VerifyWorkload:
    """verify_all_demands over fixed single-level shapes."""

    op_unit = "demand vectors"

    def __init__(self, pkg, seed, shapes, file_bits, coded):
        self.pkg = pkg
        self.seed = seed
        self.coded = coded
        self.calls = []
        for fb in file_bits:
            for n, k, level, t in shapes:
                config = pkg.LibraryConfig(
                    n, k, float(n), single_level_sizes(pkg, n, k, level, fb)
                )
                counts = [0] * n
                counts[level - 1] = t
                alloc = pkg.CacheAllocation.from_replication(tuple(counts), k)
                formula = pkg.rates.cacc_rate(config, alloc)
                self.calls.append(Sweep((n, k, level, t, fb), config, alloc, formula, n**k))

    def run(self, sweep):
        start = perf_counter()
        try:
            report = self.pkg.verification.verify_all_demands(
                sweep.config, sweep.alloc, seed=self.seed
            )
        except Exception as exc:  # noqa: BLE001 - a raising sweep fails all its demands
            return perf_counter() - start, Outcome(sweep.demands, sweep.demands), repr(exc)
        elapsed = perf_counter() - start
        return elapsed, self.check(sweep, report), None

    def check(self, sweep, report):
        n, k = sweep.config.n_files, sweep.config.n_users
        out = Outcome(sweep.demands)
        tag = f"shape {sweep.shape}"
        want = set(itertools.product(range(1, n + 1), repeat=k))
        demands = tuple(report.demands)
        rates = tuple(report.measured_rates)
        flags = tuple(report.decode_ok)
        if len(demands) != len(want) or set(demands) != want:
            out.problems.append(f"{tag}: report does not cover the {len(want)} demand vectors")
        if len(rates) != len(demands) or len(flags) != len(demands):
            out.problems.append(f"{tag}: report columns differ in length")
            return out
        if abs(report.formula_rate - sweep.formula) > TOL:
            out.problems.append(
                f"{tag}: formula {report.formula_rate} != cacc_rate {sweep.formula}"
            )
        if rates and report.max_rate != max(rates):
            out.problems.append(f"{tag}: max_rate is not the largest measured rate")
        out.failed = sum(1 for ok in flags if not ok)
        out.rate_excess = max(0.0, report.max_rate - sweep.formula)
        if self.coded:
            # No declared slack on the coded path: an ok demand above the
            # formula is a violation the verifier missed.
            for d, r, ok in zip(demands, rates, flags):
                if ok and r > sweep.formula + TOL:
                    out.problems.append(f"{tag}: demand {d} ok at rate {r} > formula")
                    break
        return out


# ---------------------------------------------------------------------------
# simulate_cold

class SimulateWorkload:
    """In-process `corrcache simulate` on seeded random multi-level libraries."""

    op_unit = "simulate invocations"

    def __init__(self, pkg, seed):
        self.pkg = pkg
        rng = random.Random(seed)
        pairs = [(n, k) for n in range(4, 9) for k in range(4, 9)]
        self.calls = []
        for _ in range(SIMULATE_CALLS_PER_SHAPE):
            for n, k in pairs:
                active = rng.sample(range(n), rng.randint(1, n))
                weights = [0.0] * n
                for level in active:
                    # Each active level keeps >= 1/22 of the file, far above
                    # what divisibility rounding could erase at 10^6 bits.
                    weights[level] = rng.uniform(1.0, 3.0)
                total = sum(weights)
                ratios = [w / total for w in weights]
                demands = [rng.randint(1, n) for _ in range(k)]
                argv = [
                    "simulate",
                    "--n", str(n),
                    "--k", str(k),
                    "--m", f"{rng.uniform(0.2, 1.5):.6f}",
                    "--ratios", ",".join(repr(r) for r in ratios),
                    "--file-bits", str(SIMULATE_FILE_BITS),
                    "--demands", ",".join(map(str, demands)),
                    "--seed", str(rng.randrange(1 << 30)),
                ]
                self.calls.append((n, k, tuple(demands), argv))

    def run(self, call):
        argv = call[-1]
        out_buf, err_buf = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
                code = self.pkg.cli.main(list(argv))
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:  # noqa: BLE001 - a traceback is a failed invocation
            return perf_counter() - start, Outcome(1, 1), repr(exc)
        elapsed = perf_counter() - start
        return elapsed, self.check(call, code, out_buf.getvalue()), None

    def check(self, call, code, text):
        n, k, demands, argv = call
        out = Outcome(1)
        fields = {}
        header = ""
        for line in text.splitlines():
            if line.startswith("#"):
                header = line
            elif "=" in line:
                key, _, value = line.partition("=")
                fields[key] = value
        if code != 0 or fields.get("decode") != "ok":
            out.failed = 1
            return out
        tag = f"simulate {' '.join(argv)}"
        sizes = dict(p.partition("=")[::2] for p in header[1:].split()).get("level_sizes")
        try:
            level_sizes = [float(s) for s in sizes.split(",")]
            file_bits = sum(math.comb(n - 1, l) * s for l, s in enumerate(level_sizes))
            total = int(fields["total_bits"])
            rate = float(fields["rate"])
        except (AttributeError, KeyError, ValueError):
            out.problems.append(f"{tag}: malformed output")
            return out
        if fields.get("demands") != "-".join(map(str, demands)):
            out.problems.append(f"{tag}: demands echoed as {fields.get('demands')}")
        if abs(rate - total / file_bits) > TOL * max(1.0, rate):
            out.problems.append(f"{tag}: rate {rate} != {total}/{file_bits}")
        return out


# ---------------------------------------------------------------------------
# rate_curves

class RateCurveWorkload:
    """The figure sweeps (two ratio sweeps and a capacity sweep) at N=K."""

    op_unit = "config rows"

    def __init__(self, pkg, seed):
        self.pkg = pkg
        rng = random.Random(seed)
        exact = pkg.model.exact_sizes_from_ratios
        grid = [i / (CURVE_POINTS - 1) for i in range(CURVE_POINTS)]
        self.calls = []
        for n in CURVE_SIZES:
            # The figures use m = 1 for the ratio sweeps and a half/half
            # level-1/level-2 library for the capacity sweep; the seed moves
            # both around those points.
            m = rng.uniform(0.5, 2.0)
            for sweep_level in (2, n):
                for x in grid:
                    ratios = [0.0] * n
                    ratios[sweep_level - 1] = x
                    ratios[0] += 1 - x
                    self.calls.append(pkg.LibraryConfig(n, n, m, exact(n, ratios, 100_000)))
            mix = rng.uniform(0.3, 0.7)
            ratios = [0.0] * n
            ratios[0], ratios[1] = mix, 1 - mix
            sizes = exact(n, ratios, 100_000)
            for x in grid:
                self.calls.append(pkg.LibraryConfig(n, n, n * x, sizes))

    def run(self, config):
        rates, allocation = self.pkg.rates, self.pkg.allocation
        start = perf_counter()
        try:
            cauc = rates.cauc_rate(config, rates.cauc_optimal_allocation(config))
            cacc = allocation.optimize_allocation(config).rate
            cicc = rates.cicc_rate(config)
            cut = rates.cutset_bound(config)
        except Exception as exc:  # noqa: BLE001 - a raising row is a failed row
            return perf_counter() - start, Outcome(1, 1), repr(exc)
        elapsed = perf_counter() - start
        out = Outcome(1)
        values = (cauc, cacc, cicc, cut)
        if not all(math.isfinite(v) and v >= -TOL for v in values):
            out.problems.append(f"rates row m={config.cache_capacity}: {values}")
        elif not (cut <= cacc + TOL and cacc <= min(cauc, cicc) + TOL):
            out.failed = 1
        return elapsed, out, None


def build(name, pkg, seed):
    if name == "verify_coded":
        return VerifyWorkload(pkg, seed, CODED_SHAPES, (CODED_FILE_BITS,), coded=True)
    if name == "verify_random":
        return VerifyWorkload(pkg, seed, RANDOM_SHAPES, RANDOM_FILE_BITS, coded=False)
    if name == "simulate_cold":
        return SimulateWorkload(pkg, seed)
    if name == "rate_curves":
        return RateCurveWorkload(pkg, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify_coded", "verify_random", "simulate_cold", "rate_curves")
