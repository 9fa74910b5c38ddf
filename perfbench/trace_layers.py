"""Per-layer tracing of bifill from outside the package.

Tracer.install() replaces each traced function with a wrapper at every
bifill module that holds it as a global, the module that defines it and the
modules that import it by name (bifill.analysis.divides,
bifill.search.is_abs_irreducible, ...), and each traced method on its class.
Nothing inside src/ changes.

A wrapped call keeps a frame on a stack, so every function gets its self time:
its duration minus the time of the traced calls made inside it. Calls made
millions of times (Field.mul, BiPoly.eval, divides, ...) only add to a count
and a total; the others also record a span (name, start, end, parent span,
self time) in memory, and write_spans() writes them out at the end.
"""

from __future__ import annotations

import json
import os
import sys
import time

# (metric prefix, module, attribute, kind). kind is "leaf" (calls no traced
# function, so it keeps no frame), "agg" (count and times) or "span".
TRACED = (
    ("gf.Field.mul", "bifill.gf", "Field.mul", "leaf"),
    ("gf.Field.inv", "bifill.gf", "Field.inv", "leaf"),
    ("gf.extension_field", "bifill.gf", "extension_field", "agg"),
    ("gf.unipoly_gcd", "bifill.gf", "unipoly_gcd", "agg"),
    ("gf.unipoly_factor", "bifill.gf", "unipoly_factor", "agg"),
    ("bipoly.BiPoly.eval", "bifill.bipoly", "BiPoly.eval", "agg"),
    ("bipoly.BiPoly.__mul__", "bifill.bipoly", "BiPoly.__mul__", "agg"),
    ("bipoly.divides", "bifill.bipoly", "divides", "agg"),
    ("bipoly.resultant_elim", "bifill.bipoly", "resultant_elim", "agg"),
    ("filling.is_filling", "bifill.filling", "is_filling", "agg"),
    ("filling.decompose", "bifill.filling", "decompose", "span"),
    ("geom.count_points", "bifill.geom", "count_points", "span"),
    ("analysis.find_factor", "bifill.analysis", "find_factor", "span"),
    ("analysis.is_abs_irreducible", "bifill.analysis", "is_abs_irreducible", "span"),
    ("analysis.certify_smooth", "bifill.analysis", "certify_smooth", "span"),
    ("analysis.conjugate_norms", "bifill.analysis", "conjugate_norms", "span"),
    ("search.census", "bifill.search", "census", "span"),
    ("search.filling_space_basis", "bifill.search", "filling_space_basis", "span"),
    ("families.construct", "bifill.families", "construct", "span"),
    ("bounds.check_attainment", "bifill.bounds", "check_attainment", "span"),
    ("cli.main", "bifill.cli", "main", "span"),
)

# Every per-layer metric the traced run prints: (name, unit, better).
PER_LAYER = (
    ("gf.Field.mul.calls", "count", "lower"),
    ("gf.Field.inv.calls", "count", "lower"),
    ("gf.extension_field.calls", "count", "lower"),
    ("gf.extension_field.self_s", "s", "lower"),
    ("gf.unipoly_gcd.calls", "count", "lower"),
    ("gf.unipoly_gcd.self_s", "s", "lower"),
    ("gf.unipoly_factor.calls", "count", "lower"),
    ("bipoly.BiPoly.eval.calls", "count", "lower"),
    ("bipoly.BiPoly.eval.self_s", "s", "lower"),
    ("bipoly.BiPoly.__mul__.calls", "count", "lower"),
    ("bipoly.divides.calls", "count", "lower"),
    ("bipoly.divides.self_s", "s", "lower"),
    ("bipoly.divides.hit_ratio", "ratio", "higher"),
    ("bipoly.resultant_elim.calls", "count", "lower"),
    ("bipoly.resultant_elim.self_s", "s", "lower"),
    ("geom.count_points.calls", "count", "lower"),
    ("geom.count_points.self_s", "s", "lower"),
    ("filling.is_filling.self_s", "s", "lower"),
    ("filling.decompose.self_s", "s", "lower"),
    ("analysis.find_factor.calls", "count", "lower"),
    ("analysis.find_factor.self_s", "s", "lower"),
    ("analysis.find_factor.exhausted_ratio", "ratio", "lower"),
    ("analysis.is_abs_irreducible.calls", "count", "lower"),
    ("analysis.is_abs_irreducible.ms.p50", "ms", "lower"),
    ("analysis.is_abs_irreducible.ms.p99", "ms", "lower"),
    ("analysis.is_abs_irreducible.infeasible", "count", "lower"),
    ("analysis.certify_smooth.calls", "count", "lower"),
    ("analysis.certify_smooth.self_s", "s", "lower"),
    ("analysis.conjugate_norms.self_s", "s", "lower"),
    ("search.census.self_s", "s", "lower"),
    ("search.filling_space_basis.self_s", "s", "lower"),
    ("families.construct.self_s", "s", "lower"),
    ("bounds.check_attainment.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "hits", "none", "infeasible", "durations")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.hits = 0  # returns other than None
        self.none = 0  # returns of None
        self.infeasible = 0  # calls that raised Infeasible
        self.durations = []  # seconds per call, spans only


def percentile(values, p):
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    s = sorted(values)
    k = max(1, -(-len(s) * p // 100))
    return s[int(k) - 1]


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stats = {name: Stat() for name, *_ in TRACED}
        self.spans = []  # [name, start, end, parent index or -1, self seconds]
        self.frame = [0.0]  # traced time spent inside the current call
        self.span = -1  # index of the innermost open span
        self._undo = []

    # -- wrapping ------------------------------------------------------------

    def _leaf(self, orig, st):
        clock = self.clock
        tracer = self

        def wrapper(*args):
            t0 = clock()
            try:
                return orig(*args)
            finally:
                dt = clock() - t0
                st.calls += 1
                st.total_s += dt
                st.self_s += dt
                tracer.frame[0] += dt

        return wrapper

    def _framed(self, name, orig, st, record_span):
        clock = self.clock
        tracer = self
        from bifill.errors import Infeasible

        def wrapper(*args, **kwargs):
            parent = tracer.frame
            frame = tracer.frame = [0.0]
            if record_span:
                outer = tracer.span
                idx = tracer.span = len(tracer.spans)
                tracer.spans.append(None)
            result = returned = None
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
                returned = True
                return result
            except Infeasible:
                st.infeasible += 1
                raise
            finally:
                t1 = clock()
                dur = t1 - t0
                tracer.frame = parent
                parent[0] += dur
                own = dur - frame[0]
                st.calls += 1
                st.total_s += dur
                st.self_s += own
                if returned:
                    if result is None:
                        st.none += 1
                    else:
                        st.hits += 1
                if record_span:
                    st.durations.append(dur)
                    tracer.spans[idx] = (name, t0 - tracer.origin, t1 - tracer.origin, outer, own)
                    tracer.span = outer

        return wrapper

    def install(self):
        for name, modname, attr, kind in TRACED:
            st = self.stats[name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(sys.modules[modname], cls_name)
                orig = owner.__dict__[meth]
                holders = [(owner, meth)]
            else:
                orig = getattr(sys.modules[modname], attr)
                holders = [
                    (mod, attr)
                    for mname, mod in list(sys.modules.items())
                    if mname.split(".")[0] == "bifill" and getattr(mod, attr, None) is orig
                ]
            if kind == "leaf":
                wrapper = self._leaf(orig, st)
            else:
                wrapper = self._framed(name, orig, st, kind == "span")
            for holder, key in holders:
                setattr(holder, key, wrapper)
                self._undo.append((holder, key, orig))

    def uninstall(self):
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Every PER_LAYER metric except trace_overhead, which needs an
        untraced run: {name: {"value": v, "unit": u}}."""
        s = self.stats
        iai = s["analysis.is_abs_irreducible"]
        ff = s["analysis.find_factor"]
        dv = s["bipoly.divides"]
        values = {
            "bipoly.divides.hit_ratio": dv.hits / dv.calls if dv.calls else 0.0,
            "analysis.find_factor.exhausted_ratio": ff.none / ff.calls if ff.calls else 0.0,
            "analysis.is_abs_irreducible.ms.p50": 1000 * percentile(iai.durations, 50),
            "analysis.is_abs_irreducible.ms.p99": 1000 * percentile(iai.durations, 99),
            "analysis.is_abs_irreducible.infeasible": iai.infeasible,
        }
        out = {}
        for name, unit, _better in PER_LAYER:
            if name == "trace_overhead":
                continue
            if name not in values:
                prefix, field = name.rsplit(".", 1)
                values[name] = s[prefix].calls if field == "calls" else s[prefix].self_s
            out[name] = {"value": values[name], "unit": unit}
        return out

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "spans": [
                {"name": n, "start_s": t0, "end_s": t1, "parent": p, "self_s": own}
                for n, t0, t1, p, own in self.spans
            ],
            "totals": {
                name: {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s}
                for name, st in self.stats.items()
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
