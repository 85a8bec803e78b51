"""Outside-in tracing of fibersum for the benchmark's traced run.

``Tracer.installed()`` replaces every function of the seven package
modules, wherever a module holds a reference to it (``families.sw_report``
as well as ``swseries.sw_report``), by a wrapper that records a span, and
restores the originals on exit.  Nothing in ``src/`` changes.

* Spans keep a stack, so each span's self time is its duration minus the
  time of its child spans.  ``torus_records`` and ``sw_series`` are
  recursive; summing their inclusive time would count nested calls
  many times over.
* The hot Laurent-polynomial methods (``__mul__``, ``exact_div``) get
  call counters only.  ``GroupRingElt.__mul__`` gets a span: it is called
  a few times per tree node but does the dense convolution, and without
  a span its time would be charged to ``sw_series``.
* Span records stay in memory (up to ``SPAN_CAP``) and are written out
  as JSON lines by ``write_spans`` after the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = ("ring", "linalg", "knots", "manifolds", "swseries", "families", "cli")
PRIVATE = {"cli": ("_emit", "_load_doc")}  # private functions that are layer boundaries
NODE_BUILDERS = ("block", "connected_sum", "fiber_sum", "knot_surgery", "null_log_transform")
BUILDERS = NODE_BUILDERS + ("fiber_sum_chain", "surgered_chain")
SPAN_CAP = 100_000  # span records kept for write_spans; totals count every span
DISTINCT_ARG = ("knots.alexander", "swseries.sw_report", "families.fingerprint")

# Span name -> (key in Tracer.maxima, size read from the call's args and result).
MAXIMA = {
    "knots.seifert_matrix": ("knots.seifert_dim", lambda args, result: len(result)),
    "linalg.laurent_det": ("linalg.laurent_det.dim", lambda args, result: len(args[0])),
    "swseries.sw_series": ("swseries.series_terms", lambda args, result: len(result.terms)),
}

# Metric name -> span names whose self time it sums.
SELF_GROUPS = {
    "manifolds.builders": tuple(f"manifolds.{b}" for b in BUILDERS),
    "cli.parse": ("cli.parse_construction", "cli.parse_braid_doc", "cli.load_doc"),
}

PER_LAYER = {
    "knots.alexander.calls": "calls/op",
    "knots.alexander.self_ms": "ms/op",
    "knots.alexander.useful_ratio": "ratio",
    "knots.alexander_oracle.self_ms": "ms/op",
    "knots.seifert_dim_max": "count",
    "knots.self_ms": "ms/op",
    "linalg.laurent_det.calls": "calls/op",
    "linalg.laurent_det.dim_max": "count",
    "linalg.laurent_det.self_ms": "ms/op",
    "linalg.integer_rank.self_ms": "ms/op",
    "linalg.self_ms": "ms/op",
    "ring.exact_div.calls": "calls/op",
    "ring.laurent_mul.calls": "calls/op",
    "ring.group_mul.calls": "calls/op",
    "ring.group_mul.terms_out": "terms/op",
    "ring.group_str.self_ms": "ms/op",
    "ring.self_ms": "ms/op",
    "manifolds.torus_records.visits": "calls/op",
    "manifolds.torus_records.visits_per_node": "ratio",
    "manifolds.builders.self_ms": "ms/op",
    "manifolds.char_numbers.calls": "calls/op",
    "manifolds.self_ms": "ms/op",
    "swseries.sw_series.visits": "calls/op",
    "swseries.series_terms_max": "count",
    "swseries.basic_classes.self_ms": "ms/op",
    "swseries.sw_report.calls": "calls/op",
    "swseries.sw_report.useful_ratio": "ratio",
    "swseries.self_ms": "ms/op",
    "families.fingerprint.calls": "calls/op",
    "families.fingerprint.useful_ratio": "ratio",
    "families.stable_normal_form.calls": "calls/op",
    "families.stable_normal_form.self_ms": "ms/op",
    "families.family_report.self_ms": "ms/op",
    "families.self_ms": "ms/op",
    "cli.parse.self_ms": "ms/op",
    "cli.emit.self_ms": "ms/op",
    "cli.self_ms": "ms/op",
    "trace.overhead_ratio": "ratio",
}


def traced_names() -> set:
    """Every span and counter name that a per-layer metric reads."""
    names = set(DISTINCT_ARG) | set(MAXIMA) | {f"manifolds.{b}" for b in NODE_BUILDERS}
    for metric in PER_LAYER:
        base, _, what = metric.rpartition(".")
        if what in ("self_ms", "calls", "visits") and "." in base:
            names.update(SELF_GROUPS.get(base, (base,)))
    return names


def package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "fibersum" or name.startswith("fibersum.")]


def _classes():
    ring = sys.modules["fibersum.ring"]
    return ring.LaurentPoly, ring.GroupRingElt


def snapshot() -> dict:
    """Identity of every attribute the tracer may patch."""
    owners = package_modules() + list(_classes())
    return {(repr(o), k): id(v) for o in owners for k, v in vars(o).items()}


class Tracer:
    def __init__(self):
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.maxima: Counter = Counter()
        self.terms_out = 0
        self.distinct: Counter = Counter()  # per-op distinct arguments, summed
        self.spans: list = []
        self.ops = 0
        self._seen: dict = defaultdict(set)
        self._stack: list = []
        self._patched: list = []
        self.names: set = set()  # names of the wrappers installed

    # ---------------------------------------------------------- operations

    def begin_op(self):
        self._stack.append([0, None])

    def end_op(self):
        self._stack.pop()
        for name, keys in self._seen.items():
            self.distinct[name] += len(keys)
        self._seen.clear()
        self.ops += 1

    # ---------------------------------------------------------- wrappers

    def _span(self, name, fn, observe=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns
        self_ns, calls = self.self_ns, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans) if len(spans) < SPAN_CAP else None
            if index is not None:
                spans.append(None)
            frame = [0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_ns[name] += elapsed - frame[0]
                calls[name] += 1
                if parent is not None:
                    parent[0] += elapsed
                if index is not None:
                    spans[index] = (self.ops, name, start, end, parent[1] if parent else None)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def _observer(self, name):
        if name in DISTINCT_ARG:
            seen = self._seen
            return lambda args, result: seen[name].add(args[0])
        if name in MAXIMA:
            key, size = MAXIMA[name]
            return lambda args, result: self._max(key, size(args, result))
        return None

    def _max(self, key, value):
        if value > self.maxima[key]:
            self.maxima[key] = value

    def _add_terms(self, args, result):
        self.terms_out += len(getattr(result, "terms", ()))

    def _wrappers(self) -> dict:
        """id(original) -> (original, wrapper, name) for every traced callable."""
        out = {}
        for short in MODULES:
            module = sys.modules[f"fibersum.{short}"]
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(short, ()):
                    continue
                name = f"{short}.{attr.lstrip('_')}"
                out[id(obj)] = (obj, self._span(name, obj, self._observer(name)), name)
        laurent, group = _classes()
        for obj, name, wrap in (
            (laurent.__mul__, "ring.laurent_mul", self._counter),
            (laurent.exact_div, "ring.exact_div", self._counter),
            (group.__mul__, "ring.group_mul", lambda name, fn: self._span(name, fn, self._add_terms)),
            (group.__str__, "ring.group_str", self._span),
        ):
            out[id(obj)] = (obj, wrap(name, obj), name)
        return out

    @contextlib.contextmanager
    def installed(self):
        """Patch every reference to a traced callable; restore on exit.

        Each traced recursion level adds a wrapper frame, so the recursion
        limit is doubled meanwhile: inputs that recurse within the limit
        untraced do the same traced.
        """
        wrappers = self._wrappers()
        limit = sys.getrecursionlimit()
        try:
            for owner in package_modules() + list(_classes()):
                for attr, obj in list(vars(owner).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(owner, attr, hit[1])
                        self._patched.append((owner, attr, obj))
                        self.names.add(hit[2])
            sys.setrecursionlimit(2 * limit)
            yield self
        finally:
            sys.setrecursionlimit(limit)
            while self._patched:
                owner, attr, obj = self._patched.pop()
                setattr(owner, attr, obj)

    # ---------------------------------------------------------- results

    def _self_ms(self, prefix: str) -> float:
        names = SELF_GROUPS.get(prefix, (prefix,))
        if "." not in prefix:  # a whole module
            names = [k for k in self.self_ns if k.startswith(prefix + ".")]
        return sum(self.self_ns[k] for k in names) / 1e6 / max(self.ops, 1)

    def metrics(self, overhead_ratio: float) -> dict:
        ops = max(self.ops, 1)

        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        for metric in PER_LAYER:
            base, _, what = metric.rpartition(".")
            if what == "self_ms":
                values[metric] = self._self_ms(base)
            elif what in ("calls", "visits"):
                values[metric] = self.calls[base] / ops
        nodes = sum(self.calls[f"manifolds.{b}"] for b in NODE_BUILDERS)
        values.update(
            {
                "knots.alexander.useful_ratio": ratio(self.distinct["knots.alexander"], self.calls["knots.alexander"]),
                "knots.seifert_dim_max": self.maxima["knots.seifert_dim"],
                "linalg.laurent_det.dim_max": self.maxima["linalg.laurent_det.dim"],
                "ring.group_mul.terms_out": self.terms_out / ops,
                "manifolds.torus_records.visits_per_node": ratio(self.calls["manifolds.torus_records"], nodes),
                "swseries.series_terms_max": self.maxima["swseries.series_terms"],
                "swseries.sw_report.useful_ratio": ratio(
                    self.distinct["swseries.sw_report"], self.calls["swseries.sw_report"]
                ),
                "families.fingerprint.useful_ratio": ratio(
                    self.distinct["families.fingerprint"], self.calls["families.fingerprint"]
                ),
                "trace.overhead_ratio": overhead_ratio,
            }
        )
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}

    def write_spans(self, path):
        with open(path, "w") as handle:
            for op, name, start, end, parent in filter(None, self.spans):
                handle.write(json.dumps({"op": op, "name": name, "start_ns": start, "end_ns": end, "parent": parent}) + "\n")
