"""Span recorder for the traced benchmark run.

The traced worker wraps the public functions of each hopfmzv layer module in
every hopfmzv namespace that holds them (plus the character table of the
Birkhoff layer and the `CharacterTable` methods), so that each call into a
layer opens a span.  Nothing under src/ is edited; the wrapping exists only in
the traced process.

A span is (name, start, end, parent).  Spans stay in memory, in flat arrays,
and are written out when the worker ends.  A span's self time is its duration
minus the durations of its child spans (one thread, so children never
overlap).  Self times include the recorder's own cost for the span's direct
children; the run-level difference is reported as trace.overhead_s.

Counts come from argument and result sizes and from `cache_info()` deltas of
the modules' lru caches, read from outside.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import weakref
from array import array
from collections import Counter

# layer module -> private names that are called across modules
LAYERS = {
    "series": (),
    "realizations": ("_ps_mul",),
    "coproduct": (),
    "shuffle": ("map_wordsum",),
    "birkhoff": (),
    "bernoulli": (),
}

# t-side and q-side operators of the realizations module ("operator lab")
QLAB = frozenset(
    f"realizations.{n}"
    for n in (
        "y_powerseries", "op_J", "op_delta", "_ps_mul", "li_J", "li_nested",
        "y_bivariate", "op_Eq", "op_Dq", "op_Pq", "mul_bivariate",
        "eval_t_eq_q", "qchar_realization", "qz_series", "qz_rational",
    )
)

TABLE_METHODS = ("chi", "chi_bar", "chi_minus", "chi_plus")
VALUE_FUNCTIONS = ("zeta_plus", "qzeta_plus", "zeta_plus_via_primitives")
COPRODUCT_ENUMERATIONS = ("coproduct_recursive", "coproduct_combinatorial")
SHUFFLE_PRODUCTS = ("shuffle_lambda", "shuffle_zero", "ordinary_shuffle", "sho_positive")


class Recorder:
    """In-memory span store plus the counters measured at the same calls."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span_name: str, fn, after=None):
        """fn with a span around each call; `after(args, result)` counts."""
        nid = self.name_id(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, out)
                return out
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        return traced

    def span_totals(self) -> dict[str, dict[str, float]]:
        """{span name: {"calls": n, "self_s": seconds}}."""
        totals = {n: {"calls": 0, "self_s": 0.0} for n in self.names}
        own = self_times(self.parent, self.start, self.end)
        for nid, s in zip(self.name, own):
            t = totals[self.names[nid]]
            t["calls"] += 1
            t["self_s"] += s
        return totals

    def dump(self, path) -> None:
        """Write every span: names table plus parallel arrays."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                },
                fh,
            )


def self_times(parent, start, end) -> list[float]:
    """Self time of each span: its duration minus its children's durations."""
    dur = [e - s for s, e in zip(start, end)]
    own = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= dur[i]
    return own


def _mul_stats(maxima, counts):
    def after(args, out):
        a, b = args[0].coeffs, args[1].coeffs
        n = len(out.coeffs)
        counts["series.mul.madds"] += _madds(a, b, n)
        maxima["series.mul.max_window"] = max(maxima["series.mul.max_window"], n)
        bits = max((c.denominator.bit_length() for c in out.coeffs), default=0)
        maxima["series.mul.max_den_bits"] = max(maxima["series.mul.max_den_bits"], bits)

    return after


def _madds(a, b, n) -> int:
    """Multiply-adds of the truncated convolution, zero coefficients skipped."""
    lb = min(len(b), n)
    nonzero_b = [0] * (lb + 1)  # nonzero_b[m] = nonzero entries of b[:m]
    for j in range(lb):
        nonzero_b[j + 1] = nonzero_b[j] + (1 if b[j] else 0)
    return sum(nonzero_b[min(n - i, lb)] for i in range(min(len(a), n)) if a[i])


def _caches(mod):
    """The module's lru caches, by global name (read before any wrapping)."""
    return {n: f for n, f in vars(mod).items() if hasattr(f, "cache_info")}


class Trace:
    """A recorder plus the cache baselines it reports deltas against."""

    def __init__(self, rec: Recorder, caches):
        self.rec = rec
        self.caches = caches
        self.finalizers: list = []
        self.base = self._cache_counts()

    def add_rows(self, memo) -> None:
        self.rec.counts["birkhoff.memo_rows"] += len(memo)

    def _cache_counts(self) -> dict[str, tuple[int, int]]:
        out = {}
        for layer, caches in self.caches.items():
            for name, fn in caches.items():
                info = fn.cache_info()
                out[f"{layer}.{name}"] = (info.hits, info.misses)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer count and self time this process measured."""
        for fin in self.finalizers:
            fin()  # tables still alive: count their rows now
        totals = self.rec.span_totals()
        out: Counter = Counter()

        def add(metric, span, key):
            out[metric] += totals.get(span, {}).get(key, 0)

        for op in ("mul", "add", "scale", "diff"):
            add(f"series.{op}.calls", f"series.series_{op}", "calls")
        for op in ("mul", "add", "scale"):
            add(f"series.{op}.self_s", f"series.series_{op}", "self_s")
        for ch in ("phi", "psi"):
            add(f"realizations.{ch}.calls", f"realizations.{ch}", "calls")
            add(f"realizations.{ch}.self_s", f"realizations.{ch}", "self_s")
        add("bernoulli.calls", "bernoulli.bernoulli", "calls")
        add("bernoulli.self_s", "bernoulli.bernoulli", "self_s")
        for fn in VALUE_FUNCTIONS:
            add("birkhoff.values", f"birkhoff.{fn}", "calls")
        for span, t in totals.items():
            layer = span.split(".", 1)[0]
            if layer in ("series", "birkhoff"):
                out[f"{layer}.self_s"] += t["self_s"]
            elif layer in ("coproduct", "shuffle"):
                out[f"{layer}.calls"] += t["calls"]
                out[f"{layer}.self_s"] += t["self_s"]
            if span in QLAB:
                out["realizations.qlab.calls"] += t["calls"]
                out["realizations.qlab.self_s"] += t["self_s"]

        now = self._cache_counts()
        for key, (hits, misses) in now.items():
            layer, name = key.split(".", 1)
            if layer == "realizations":
                group = "realizations.psi_factor" if name == "psi_factor" else "realizations.planned"
            elif layer in ("coproduct", "shuffle"):
                group = f"{layer}.memo"
            else:
                continue
            base_hits, base_misses = self.base[key]
            out[f"{group}.hits"] += hits - base_hits
            out[f"{group}.misses"] += misses - base_misses
        return {**out, **self.rec.counts, **self.rec.maxima}


def install() -> Trace:
    """Wrap every layer in every hopfmzv namespace; returns the live trace."""
    import hopfmzv.birkhoff as birkhoff

    rec = Recorder()
    counts, maxima = rec.counts, rec.maxima

    def count_terms(metric):
        def after(args, out):
            counts[metric] += len(out)

        return after

    def bernoulli_index(args, out):
        maxima["bernoulli.max_index"] = max(maxima["bernoulli.max_index"], args[0])

    hooks = {
        "series.series_mul": _mul_stats(maxima, counts),
        "bernoulli.bernoulli": bernoulli_index,
    }
    for name in COPRODUCT_ENUMERATIONS:
        hooks[f"coproduct.{name}"] = count_terms("coproduct.terms")
    for name in SHUFFLE_PRODUCTS:
        hooks[f"shuffle.{name}"] = count_terms("shuffle.terms")

    modules = {layer: importlib.import_module(f"hopfmzv.{layer}") for layer in LAYERS}
    caches = {layer: _caches(mod) for layer, mod in modules.items()}
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer, mod in modules.items():
        for attr in (*mod.__all__, *LAYERS[layer]):
            fn = getattr(mod, attr, None)
            if not callable(fn) or isinstance(fn, type):
                continue
            if getattr(fn, "__module__", None) != mod.__name__:
                continue
            span = f"{layer}.{attr}"
            wrapped[id(fn)] = (fn, rec.wrap(span, fn, hooks.get(span)))

    for modname, mod in list(sys.modules.items()):
        if modname != "hopfmzv" and not modname.startswith("hopfmzv."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrapped.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
    # CharacterTable picks its character from this dict, not from globals
    birkhoff._KINDS = {
        kind: (wrapped[id(char)][1] if id(char) in wrapped else char, lam)
        for kind, (char, lam) in birkhoff._KINDS.items()
    }

    table = birkhoff.CharacterTable
    for meth in TABLE_METHODS:
        setattr(table, meth, rec.wrap(f"birkhoff.CharacterTable.{meth}", getattr(table, meth)))
    trace = Trace(rec, caches)
    init = table.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        counts["birkhoff.tables_built"] += 1
        memo = getattr(self, "_memo", None)
        if memo is not None:
            trace.finalizers.append(weakref.finalize(self, trace.add_rows, memo))

    table.__init__ = counted_init
    return trace
