"""Span tracer installed from outside the package.

The tracer wraps public functions and methods of ``corrcache`` modules by
rebinding every module-level reference to them, so calls the package makes
internally are seen too.  Each wrapped call records a span (name, start,
end, parent span, operation id) in flat in-memory arrays; per-name call
counts, busy time (outermost calls of that name only) and self time (span
duration minus the time its child spans cover) are folded in as spans
close.  Hot helpers are wrapped as counters only.

A target that no longer exists (a renamed or deleted module, class or
function) is reported as absent, never as an error.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from time import perf_counter_ns

PACKAGE = "corrcache"

# (metric prefix, "module:attribute path", kind); kind is "span" or "count".
TARGETS = (
    ("model.generate", "model:ContentStore.generate", "span"),
    ("model.file_size", "model:LibraryConfig.file_size", "count"),
    ("combinat.subset_masks", "combinat:subset_masks", "count"),
    ("rates.cacc_rate", "rates:cacc_rate", "span"),
    ("rates.cicc_rate", "rates:cicc_rate", "span"),
    ("rates.cauc_rate", "rates:cauc_rate", "span"),
    ("rates.cutset_bound", "rates:cutset_bound", "span"),
    ("rates.build_level_curve", "rates:build_level_curve", "span"),
    ("allocation.optimize_allocation", "allocation:optimize_allocation", "span"),
    ("scheduling.generate_schedule", "scheduling:generate_schedule", "span"),
    ("delivery.place", "delivery:place", "span"),
    ("delivery.deliver", "delivery:deliver", "span"),
    ("delivery.random_delivery", "delivery:random_delivery", "span"),
    ("delivery.decode", "delivery:decode", "span"),
    ("gf2.PrefixSolver", "gf2:PrefixSolver.__init__", "span"),
    ("gf2.feed_opening_batch", "gf2:PrefixSolver.feed_opening_batch", "span"),
    ("gf2.feed", "gf2:PrefixSolver.feed", "span"),
    ("verification.verify_all_demands", "verification:verify_all_demands", "span"),
    ("cli.main", "cli:main", "span"),
)

# Transcript record classes by name; any other record class counts as a
# remainder, which is the path the exact-remainder work will replace.
_CODED = "StepRecord"
_PLAIN = "UncodedRecord"
_RANDOM = "RandomRecord"


def package_modules():
    """Every loaded module of the package, the package itself included."""
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _resolve(path):
    """(owner, attribute name, raw attribute) for "module:dotted.path", or None."""
    mod_name, _, dotted = path.partition(":")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
    except ImportError:
        return None
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(parts[-1]) if hasattr(owner, "__dict__") else None
    if raw is None:
        return None
    return owner, parts[-1], raw


class Tracer:
    """Collects spans and counters for the wrapped targets."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.busy_ns: list[int] = []
        self.self_ns: list[int] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.op = 0
        # span columns
        self.s_name = array("H")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("l")
        self.s_op = array("l")
        # open spans: [span index, ns covered by child spans]
        self._stack: list[list] = []
        self._open_names: list[int] = []
        self._patches: list | None = None
        self._restore: list = []
        # transcript tallies from delivery.deliver results
        self.bits = {"coded": 0, "remainder": 0, "plain": 0}
        self.deliveries_with_random = 0
        self.step_records = 0
        self.distinct_steps = 0
        self._steps_op = -1
        self._steps_seen: set = set()
        # rates.build_level_curve's lru_cache statistics, summed over passes
        self.lru_hits = 0
        self.lru_misses = 0

    # -- installation ------------------------------------------------------

    def install(self):
        """Rebind every target to its wrapper; wrappers are built once, so
        install/uninstall may alternate and the tallies keep accumulating."""
        if self._patches is None:
            self._patches = []
            for metric, path, kind in TARGETS:
                found = _resolve(path)
                if found is None:
                    self.absent.append(metric)
                    continue
                owner, attr, raw = found
                if kind == "count":
                    self.counts[metric] = 0
                    new = self._counter(metric, raw)
                else:
                    new = self._span(metric, raw)
                self._patches.append((owner, attr, raw, new))
        for owner, attr, raw, new in self._patches:
            self._rebind(owner, attr, raw, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _rebind(self, owner, attr, raw, new):
        """Replace `raw` by `new` on its owner and, for plain module-level
        callables, on every package module that imported it by name."""
        if isinstance(owner, type):
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        for mod in package_modules():
            for name, value in list(vars(mod).items()):
                if value is raw:
                    self._restore.append((mod, name, raw))
                    setattr(mod, name, new)

    def _counter(self, metric, raw):
        counts = self.counts
        if isinstance(raw, property):
            fget = raw.fget

            def getter(obj):
                counts[metric] += 1
                return fget(obj)

            new = property(getter, raw.fset, raw.fdel, raw.__doc__)
        else:

            @functools.wraps(raw)
            def new(*args, **kwargs):
                counts[metric] += 1
                return raw(*args, **kwargs)

        return new

    def _span(self, metric, raw):
        name_id = len(self.names)
        self.names.append(metric)
        self.calls.append(0)
        self.busy_ns.append(0)
        self.self_ns.append(0)
        after = self._after_deliver if metric == "delivery.deliver" else None
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, name_id, after))
        return self._wrap(raw, name_id, after)

    def _wrap(self, fn, name_id, after):
        stack = self._stack
        open_names = self._open_names
        s_name, s_start, s_end = self.s_name, self.s_start, self.s_end
        s_parent, s_op = self.s_parent, self.s_op
        calls, busy_ns, self_ns = self.calls, self.busy_ns, self.self_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(s_name)
            s_name.append(name_id)
            s_parent.append(stack[-1][0] if stack else -1)
            s_op.append(tracer.op)
            s_end.append(0)
            frame = [index, 0]
            stack.append(frame)
            open_names.append(name_id)
            start = perf_counter_ns()
            s_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                s_end[index] = end
                stack.pop()
                open_names.pop()
                dur = end - start
                calls[name_id] += 1
                self_ns[name_id] += dur - frame[1]
                if name_id not in open_names:
                    busy_ns[name_id] += dur
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                # Tracer bookkeeping: keep it out of the caller's self time.
                t0 = perf_counter_ns()
                after(result)
                if stack:
                    stack[-1][1] += perf_counter_ns() - t0
            return result

        return wrapper

    # -- transcript tallies --------------------------------------------------

    def _after_deliver(self, transcript):
        sections = getattr(transcript, "sections", ())
        if self._steps_op != self.op:
            self._steps_op = self.op
            self._steps_seen = set()
        has_random = False
        for rec in sections:
            kind = type(rec).__name__
            bits = getattr(rec, "bits", 0)
            if kind == _CODED:
                self.bits["coded"] += bits
                self.step_records += 1
                key = (
                    getattr(rec, "level", None),
                    getattr(rec, "layer", None),
                    getattr(rec, "step_items", id(rec)),
                )
                if key not in self._steps_seen:
                    self._steps_seen.add(key)
                    self.distinct_steps += 1
            elif kind == _PLAIN:
                self.bits["plain"] += bits
            else:
                self.bits["remainder"] += bits
                has_random = has_random or kind == _RANDOM
        if has_random:
            self.deliveries_with_random += 1

    def read_lru_stats(self):
        """Add build_level_curve's cache hits and misses since the last clear
        (the benchmark empties every memo before a pass)."""
        found = _resolve("rates:build_level_curve")
        fn = found[2] if found else None
        while fn is not None and not hasattr(fn, "cache_info"):
            fn = getattr(fn, "__wrapped__", None)
        if fn is not None:
            stats = fn.cache_info()
            self.lru_hits += stats.hits
            self.lru_misses += stats.misses

    # -- results -------------------------------------------------------------

    def stat(self, metric):
        """(calls, busy s, self s) of a span target; zeros when absent."""
        if metric not in self.names:
            return 0, 0.0, 0.0
        i = self.names.index(metric)
        return self.calls[i], self.busy_ns[i] / 1e9, self.self_ns[i] / 1e9

    def module_self_s(self):
        """Self time summed per package module (first component of the name)."""
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            mod = name.split(".", 1)[0]
            out[mod] = out.get(mod, 0.0) + self.self_ns[i] / 1e9
        return out

    def write(self, path):
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,parent,op,name,start_ns,end_ns\n")
            names = self.names
            for i in range(len(self.s_name)):
                fh.write(
                    f"{i},{self.s_parent[i]},{self.s_op[i]},{names[self.s_name[i]]},"
                    f"{self.s_start[i]},{self.s_end[i]}\n"
                )
        return len(self.s_name)
