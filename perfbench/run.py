#!/usr/bin/env python3
"""corrcache benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload verify_coded --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  A run builds the workload's calls from the seed, then
makes whole passes over them, back to back with one client, until
``--seconds`` have elapsed (at least two passes).  Every pass starts cold:
the package's process-wide memos are cleared first.  Every output is checked.
Call times are scaled by a gauge of the host's speed read before every call
(see ``Tally.call_times``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates traced
and untraced passes for ``--seconds`` and prints the per-layer metrics (per
traced pass) plus the tracing overhead, the untraced over the traced rate
minus one; spans are written to ``perfbench/traces/``.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer, package_modules  # noqa: E402

SETUP_SAMPLES = 9
GAUGE_PER_PASS = 300
MIN_PASSES = 2  # every call is timed at least twice
MODULES = (
    "model", "combinat", "rates", "allocation", "scheduling",
    "delivery", "gf2", "verification", "cli",
)
# What one gauge reading takes when the host runs at its usual speed (a
# 2.1 GHz Xeon vCPU, Python 3.11); call times are scaled to that speed (see
# Tally.call_times).
GAUGE_NOMINAL_S = 150e-6
_GAUGE_A = (1 << 400_000) - 12_345
_GAUGE_B = (1 << 399_999) + 777
# Process-wide dict memos, cleared before every pass when present.
DICT_MEMOS = (("delivery", "_TEMPLATES"), ("delivery", "_LABEL_INDEX"))


def load_package():
    """Import corrcache from this checkout's sources, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "corrcache", "__init__.py")):
        raise RuntimeError(f"no corrcache sources under {SRC}")
    sys.path.insert(0, SRC)
    import corrcache
    from corrcache import allocation, cli, combinat, model, rates, verification  # noqa: F401

    if not os.path.abspath(corrcache.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"corrcache imported from {corrcache.__file__}, not {SRC}")
    return corrcache


def gauge():
    """Time a fixed piece of interpreter and big-integer work that never
    touches the package: how fast the host runs at this moment."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(400):
        table[i & 31] = acc
        acc += i * i % 7
    a, b = _GAUGE_A, _GAUGE_B
    for _ in range(6):
        a ^= b
        b ^= a >> 3
    return time.perf_counter() - start


def setup_sample(workload, seed):
    """Wall time from spawning a fresh interpreter until it has imported the
    package and built the workload's inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code})")
    return elapsed


class SetupProbes:
    """SETUP_SAMPLES set-up samples spread evenly over a run.  Their median
    is scaled to the host's usual speed by the run's median gauge reading,
    which is read over the same stretch of time."""

    def __init__(self, workload, seed, seconds):
        self.args = (workload, seed)
        self.due = [i * seconds / SETUP_SAMPLES for i in range(SETUP_SAMPLES)]
        self.start = time.perf_counter()
        self.samples = []

    def __call__(self):
        """Take the next sample if it is due (called between calls)."""
        if self.due and time.perf_counter() - self.start >= self.due[0]:
            self.due.pop(0)
            self.samples.append(setup_sample(*self.args))

    def median(self):
        while len(self.samples) < SETUP_SAMPLES:
            self.samples.append(setup_sample(*self.args))
        return statistics.median(self.samples)


def _cache_owner(value):
    """The lru_cache object behind a function, through any wrappers."""
    seen = 0
    while value is not None and seen < 8:
        if callable(getattr(value, "cache_clear", None)):
            return value
        value = getattr(value, "__wrapped__", None)
        seen += 1
    return None


def clear_memos(pkg):
    """Empty every lru_cache of the package and the known dict memos, so no
    pass is served by what an earlier pass computed."""
    for mod in package_modules():
        for value in list(vars(mod).values()):
            if callable(value) and not isinstance(value, type):
                owner = _cache_owner(value)
                if owner is not None:
                    owner.cache_clear()
    for mod_name, attr in DICT_MEMOS:
        memo = getattr(getattr(pkg, mod_name, None), attr, None)
        if isinstance(memo, dict):
            memo.clear()


class Tally:
    """What a loop of passes did.

    Every pass makes the same calls on the same inputs, so it must give the
    same outcome; ``attempted`` and ``failed`` count the operations of one
    pass, and a later pass whose outcome differs is a problem."""

    def __init__(self):
        self.pass_latencies = []  # one list of call latencies (s) per pass
        self.pass_gauges = []  # best gauge reading (s) just before each call
        self.outcome = None  # (attempted, failed) of each call in the first pass
        self.rate_excess = 0.0
        self.problems = []
        self.errors = []

    @property
    def passes(self):
        return len(self.pass_latencies)

    @property
    def attempted(self):
        return sum(a for a, _ in self.outcome)

    @property
    def failed(self):
        return sum(f for _, f in self.outcome)

    @property
    def slowdown(self):
        """How much slower than its usual speed the host ran over the run:
        the median gauge reading over GAUGE_NOMINAL_S."""
        return statistics.median(g for gs in self.pass_gauges for g in gs) / GAUGE_NOMINAL_S

    @property
    def call_measured(self):
        """Each call's median time across the passes, as measured."""
        return [statistics.median(lat) for lat in zip(*self.pass_latencies)]

    @property
    def call_times(self):
        """Each call's time at the host's usual speed.  The host is shared
        and slows by a fifth to a half for seconds to minutes at a time, so a
        call is timed against the gauge read just before it: the median over
        the passes of the call's time over that reading, times
        GAUGE_NOMINAL_S.  A median, unlike a best time, does not drift with
        the number of passes that fit in a run."""
        return [
            statistics.median(t / g for t, g in zip(lat, gs)) * GAUGE_NOMINAL_S
            for lat, gs in zip(zip(*self.pass_latencies), zip(*self.pass_gauges))
        ]

    @property
    def ops_per_s(self):
        """Operations of one pass over the sum of the calls' times."""
        return self.attempted / sum(self.call_times)

    def add_pass(self, latencies, gauges, outcome, rate_excess, problems, errors):
        if self.outcome is None:
            self.outcome = outcome
        elif outcome != self.outcome:
            changed = [i for i, (a, b) in enumerate(zip(outcome, self.outcome)) if a != b]
            problems = problems + [
                f"pass {self.passes + 1}: calls {changed[:5]} gave another outcome "
                f"than in the first pass"]
        self.pass_latencies.append(latencies)
        self.pass_gauges.append(gauges)
        self.rate_excess = max(self.rate_excess, rate_excess)
        self.problems += problems
        self.errors += errors


def run_pass(pkg, wl, tally, tracer=None, first_op=0, between=None):
    """One cold pass over the workload's calls, added to `tally`."""
    # Every pass reads the gauge at least GAUGE_PER_PASS times, before each
    # call: a workload of few long calls reads it several times per call.
    readings = -(-GAUGE_PER_PASS // len(wl.calls))
    latencies, gauges, outcome, problems, errors = [], [], [], [], []
    rate_excess = 0.0
    clear_memos(pkg)
    for op, call in enumerate(wl.calls, start=first_op):
        if between is not None:
            between()
        if tracer is not None:
            tracer.op = op
        gauges.append(min(gauge() for _ in range(readings)))
        elapsed, result, error = wl.run(call)
        latencies.append(elapsed)
        outcome.append((result.attempted, result.failed))
        rate_excess = max(rate_excess, result.rate_excess)
        problems += result.problems
        if error is not None:
            errors.append(error)
    tally.add_pass(latencies, gauges, outcome, rate_excess, problems, errors)


def run_passes(pkg, wl, seconds, between):
    """Whole passes, back to back, until `seconds` have elapsed and there
    are at least MIN_PASSES."""
    tally = Tally()
    start = time.perf_counter()
    while tally.passes < MIN_PASSES or time.perf_counter() - start < seconds:
        run_pass(pkg, wl, tally, between=between)
    return tally


def run_traced(pkg, wl, seconds, tracer):
    """Pairs of one traced and one untraced pass, alternating which goes
    first (traced first in the first pair), until `seconds` have elapsed."""
    traced, untraced = Tally(), Tally()
    start = time.perf_counter()
    pair = 0
    while not pair or time.perf_counter() - start < seconds:
        for with_trace in ((True, False) if pair % 2 == 0 else (False, True)):
            if not with_trace:
                run_pass(pkg, wl, untraced)
                continue
            tracer.install()
            try:
                run_pass(pkg, wl, traced, tracer, first_op=traced.passes * len(wl.calls))
                tracer.read_lru_stats()
            finally:
                tracer.uninstall()
        pair += 1
    return traced, untraced


def _pctl(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(tally, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (tally.ops_per_s, "1/s"),
        "call_p50_ms": (statistics.median(tally.call_times) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced, untraced):
    n = traced.passes
    out = {}
    for metric in ("gf2.feed_opening_batch", "gf2.feed", "gf2.PrefixSolver",
                   "delivery.place", "delivery.decode", "model.generate",
                   "scheduling.generate_schedule", "allocation.optimize_allocation",
                   "rates.cacc_rate", "rates.cicc_rate", "rates.cauc_rate",
                   "rates.cutset_bound"):
        calls, busy, _ = tracer.stat(metric)
        out[f"{metric}.calls"] = (calls / n, "count")
        out[f"{metric}.busy_s"] = (busy / n, "s")
    for metric in ("delivery.deliver", "delivery.random_delivery"):
        calls, busy, self_s = tracer.stat(metric)
        out[f"{metric}.calls"] = (calls / n, "count")
        out[f"{metric}.busy_s"] = (busy / n, "s")
        out[f"{metric}.self_s"] = (self_s / n, "s")
    for metric in ("verification.verify_all_demands", "cli.main"):
        calls, _, self_s = tracer.stat(metric)
        out[f"{metric}.calls"] = (calls / n, "count")
        out[f"{metric}.self_s"] = (self_s / n, "s")
    random_calls = tracer.stat("delivery.random_delivery")[0]
    out["delivery.random_delivery.used_ratio"] = (
        tracer.deliveries_with_random / random_calls if random_calls else 0.0, "ratio")
    out["delivery.step_reuse_ratio"] = (
        tracer.distinct_steps / tracer.step_records if tracer.step_records else 0.0,
        "ratio")
    for path, bits in tracer.bits.items():
        out[f"delivery.{path}_bits"] = (bits / n, "bits")
    for metric in ("model.file_size", "combinat.subset_masks"):
        out[f"{metric}.calls"] = (tracer.counts.get(metric, 0) / n, "count")
    out["rates.build_level_curve.calls"] = (
        tracer.stat("rates.build_level_curve")[0] / n, "count")
    hits, misses = tracer.lru_hits, tracer.lru_misses
    out["rates.build_level_curve.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    module_self = tracer.module_self_s()
    for mod in MODULES:
        out[f"{mod}.self_s"] = (module_self.get(mod, 0.0) / n, "s")
    out["error_rate"] = (traced.failed / traced.attempted, "ratio")
    out["rate_excess_max"] = (traced.rate_excess, "files")
    out["trace_overhead"] = (untraced.ops_per_s / traced.ops_per_s - 1.0, "ratio")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        workloads.build(args.workload, load_package(), args.seed)
        print("ready", flush=True)
        return 0

    try:
        pkg = load_package()
    except (ImportError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, pkg, args.seed)

    if args.trace:
        setup_samples = []
        tracer = Tracer()
        traced, untraced = run_traced(pkg, wl, args.seconds, tracer)
        tallies = [traced, untraced]
        metrics = per_layer(tracer, traced, untraced)
        out_dir = os.path.join(HERE, "traces")
        os.makedirs(out_dir, exist_ok=True)
        span_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.csv.gz")
        spans = tracer.write(span_path)
        print(f"# {spans} spans -> {os.path.relpath(span_path, ROOT)}")
        if tracer.absent:
            print(f"# absent layers: {', '.join(tracer.absent)}")
    else:
        probes = SetupProbes(args.workload, args.seed, args.seconds)
        untraced = run_passes(pkg, wl, args.seconds, between=probes)
        tallies = [untraced]
        metrics = end_to_end(untraced, probes.median() / untraced.slowdown)
        setup_samples = probes.samples

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    problems = [p for t in tallies for p in t.problems]
    errors = [e for t in tallies for e in t.errors]
    print(f"# workload={args.workload} seed={args.seed} passes={untraced.passes} "
          f"calls/pass={len(wl.calls)} op={wl.op_unit}")
    if setup_samples:
        print(f"# setup samples (s, not scaled): "
              f"{', '.join(f'{t:.4f}' for t in setup_samples)}")
    call_ms = [x * 1e3 for x in untraced.call_times]
    print(f"# {len(call_ms)} calls x {untraced.passes} passes; pass seconds: "
          f"{', '.join(f'{sum(lat):.3f}' for lat in untraced.pass_latencies)}")
    print(f"# call_p50_ms over {len(call_ms)} per-call times")
    print(f"# call_p90_ms = {_pctl(call_ms, 90):.6g} ms "
          f"(over {len(call_ms)} per-call times; not gated: "
          f"verify_random has only 10 calls)")
    measured = untraced.call_measured
    print(f"# as measured (per-call medians, not scaled; host slowdown "
          f"{untraced.slowdown:.4g}): ops_per_s = "
          f"{untraced.attempted / sum(measured):.6g} 1/s, call_p50_ms = "
          f"{statistics.median(measured) * 1e3:.6g} ms")
    print(f"# error_rate = {untraced.failed}/{untraced.attempted} = "
          f"{untraced.failed / untraced.attempted:.6g} ratio")
    print(f"# rate_excess_max = {untraced.rate_excess:.6g} files")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for line in problems[:20]:
        print(f"# problem: {line}")
    for line in errors[:20]:
        print(f"# call raised: {line}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
