"""Span tracer for one traced pass, installed from outside the library.

Every wrapped callable pushes a frame on one stack (vpq is single-threaded)
and, on return, adds its duration to the parent frame's child time, so
self time is the duration minus the time its children cover.  The tracer's
own cost (wrapper bookkeeping and the probes that compute per-layer
counters) is charged to no layer: see `Tracer` and `calibrate`.  Calls into
the hot scalar arithmetic (Poly and RationalFunction operators, poly_gcd,
poly_divexact) run more than ten million times in a symbolic suite pass;
they are counted and timed exactly through the same stack but not stored
as individual spans, which keeps a suite pass to about 560,000 spans.  Every
other wrapped call is stored as a span: name, start, end, trace overhead
below it, parent span and pass id, in compact columns written out once the
pass is over.

Wrappers are installed at the attribute each caller looks up: class
attributes for methods (each family's ``coeff``, ``RationalFunction.__mul__``
and its reflected twin), every module global bound to a wrapped function
(``vpq.scalar.poly_gcd`` is read by global lookup, ``suite`` and
``caseaudit`` bind names with ``from`` imports), and the suite's check
dispatch table.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time
from array import array

_RAISED = object()
HOT_PREFIXES = ("scalar.poly", "scalar.rf.")

# (module, attribute, span name): module-level functions
_FUNCTIONS = [
    ("vpq.scalar", "poly_gcd", "scalar.poly_gcd"),
    ("vpq.scalar", "poly_divexact", "scalar.poly_divexact"),
    ("vpq.modules", "relation_residual", "modules.relation_residual"),
    ("vpq.modules", "verify_module", "modules.verify_module"),
    ("vpq.modules", "find_intertwiner", "modules.find_intertwiner"),
    ("vpq.modules", "find_submodules_ex", "modules.find_submodules_ex"),
    ("vpq.algebra", "eta", "algebra.eta"),
    ("vpq.algebra", "central_coefficient", "algebra.central_coefficient"),
    ("vpq.algebra", "hom_jacobi_residual", "algebra.hom_jacobi_residual"),
    ("vpq.algebra", "verify_algebra", "algebra.verify_algebra"),
    ("vpq.classify", "identity_audit", "classify.identity_audit"),
    ("vpq.classify", "degeneracy_table_audit",
     "classify.degeneracy_table_audit"),
    ("vpq.classify", "l2_display_audit", "classify.l2_display_audit"),
    ("vpq.caseaudit", "case_constants_audit",
     "caseaudit.case_constants_audit"),
    ("vpq.caseaudit", "family_consistency", "caseaudit.family_consistency"),
    ("vpq.uqsl2", "rep_relation_audit", "uqsl2.rep_relation_audit"),
    ("vpq.uqsl2", "quadratic_in_x_fit", "uqsl2.quadratic_in_x_fit"),
    ("vpq.cli", "main", "cli.main"),
]

# (module, class, attribute, span name): methods
_METHODS = [
    ("vpq.scalar", "Poly", "__mul__", "scalar.poly.mul"),
    ("vpq.scalar", "RationalFunction", "__add__", "scalar.rf.add"),
    ("vpq.scalar", "RationalFunction", "__radd__", "scalar.rf.add"),
    ("vpq.scalar", "RationalFunction", "__mul__", "scalar.rf.mul"),
    ("vpq.scalar", "RationalFunction", "__rmul__", "scalar.rf.mul"),
    ("vpq.scalar", "RationalFunction", "__truediv__", "scalar.rf.div"),
    ("vpq.scalar", "RationalFunction", "__rtruediv__", "scalar.rf.div"),
    ("vpq.scalar", "RationalFunction", "__pow__", "scalar.rf.pow"),
    ("vpq.scalar", "ScalarContext", "qint", "scalar.qint"),
    ("vpq.modules", "Mab", "coeff", "modules.coeff"),
    ("vpq.modules", "ExcAlpha", "coeff", "modules.coeff"),
    ("vpq.modules", "ExcAlphaPrime", "coeff", "modules.coeff"),
    ("vpq.modules", "ExcBeta", "coeff", "modules.coeff"),
    ("vpq.modules", "ExcBetaPrime", "coeff", "modules.coeff"),
    ("vpq.modules", "TableRule", "coeff", "modules.coeff"),
    ("vpq.report", "ResidualReport", "record", "report.record"),
    ("vpq.report", "ResidualReport", "expect", "report.expect"),
    ("vpq.report", "ResidualReport", "finding", "report.finding"),
    ("vpq.report", "ResidualReport", "note", "report.note"),
    ("vpq.report", "ResidualReport", "section", "report.section"),
    ("vpq.report", "ResidualReport", "merge_child", "report.merge_child"),
    ("vpq.report", "ResidualReport", "to_dict", "report.to_dict"),
    ("vpq.suite", "JsonReport", "serialize", "suite.serialize"),
]


PASS_ID = 1     # a traced run stores the spans of its one traced pass


def _unreduced(args, kwargs):
    """RationalFunction.__init__ normalises (calls poly_gcd) unless told not to."""
    return not kwargs.get("_reduced", False)


class Tracer:
    """Stack of open calls, per-name aggregates and the stored span table.

    A wrapper reads the clock four times: on entry (te), around the wrapped
    call (t0, t1) and on exit (t2).  The call's own time is t1 - t0; the
    parent is charged t2 - te plus `residual_ns`, the calibrated cost of the
    wrapper outside its own clock reads, as child time, so the trace's
    bookkeeping and probes land in nobody's self time.  The same amount,
    less t1 - t0, is added to the parent's overhead tally, and inclusive
    times subtract the overhead below them.  A call that bypasses the
    tracer (`when` false) charges its parent `bypass_ns` instead.
    """

    def __init__(self):
        # set by install(); a throwaway tracer in calibrate() keeps 0
        self.residual_ns = self.when_residual_ns = self.bypass_ns = 0
        self.names = []
        self._ids = {}
        self.calls = []
        self.self_ns = []
        self.outer_ns = []      # inclusive time of outermost calls only
        self._depth = []
        # root frame: [child time, span index to parent new spans under,
        # trace overhead below]
        self.stack = [[0, -1, 0]]
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_over = array("q")
        self.span_parent = array("q")
        self.span_pass = array("H")
        self.counters = {}
        self.seen = {}
        self._keep = []         # objects whose id() keys a distinct set

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            for col in (self.calls, self.self_ns, self.outer_ns, self._depth):
                col.append(0)
        return i

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def note_key(self, name, key, keep=()):
        """Record a call key; returns True when the key was seen before."""
        seen = self.seen.setdefault(name, set())
        if key in seen:
            return True
        seen.add(key)
        self._keep.extend(keep)
        return False

    def wrap(self, name, fn, probe=None, when=None):
        """Wrap fn; probe(args, result) runs after each traced call that
        returns, outside its timed interval, and `when(args, kwargs)` false
        makes a call bypass the tracer."""
        i = self._id(name)
        span = not name.startswith(HOT_PREFIXES)
        stack, calls, self_ns = self.stack, self.calls, self.self_ns
        outer_ns, depth = self.outer_ns, self._depth
        names, starts, ends = self.span_name, self.span_start, self.span_end
        overs, parents, passes = self.span_over, self.span_parent, self.span_pass
        residual = self.residual_ns if when is None else self.when_residual_ns
        bypass = self.bypass_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                parent = stack[-1]
                parent[0] += bypass
                parent[2] += bypass
                return fn(*args, **kwargs)
            te = clock()
            parent = stack[-1]
            if span:
                frame = [0, len(starts), 0]
                names.append(i)
                starts.append(0)
                ends.append(0)
                overs.append(0)
                parents.append(parent[1])
                passes.append(PASS_ID)
            else:
                frame = [0, parent[1], 0]
            stack.append(frame)
            depth[i] += 1
            result = _RAISED
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                calls[i] += 1
                self_ns[i] += d - frame[0]
                depth[i] -= 1
                if not depth[i]:
                    outer_ns[i] += d - frame[2]
                if span:
                    j = frame[1]
                    starts[j] = t0
                    ends[j] = t1
                    overs[j] = frame[2]
                if probe is not None and result is not _RAISED:
                    probe(args, result)
                full = clock() - te + residual
                parent[0] += full
                parent[2] += frame[2] + full - d
            return result

        return functools.update_wrapper(traced, fn)

    # -- installation ---------------------------------------------------------

    def install(self):
        """Calibrate, then wrap every traced callable of the imported vpq
        package."""
        self.residual_ns, self.when_residual_ns, self.bypass_ns = calibrate()
        mods = {n: m for n, m in sys.modules.items()
                if n == "vpq" or n.startswith("vpq.")}
        probes = self._probes(mods)
        for modname, attr, name in _FUNCTIONS:
            orig = getattr(mods[modname], attr)
            wrapped = self.wrap(name, orig, probe=probes.get(name))
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
        for modname, clsname, attr, name in _METHODS:
            cls = getattr(mods[modname], clsname)
            setattr(cls, attr, self.wrap(name, vars(cls)[attr],
                                         probe=probes.get(name)))
        rf = mods["vpq.scalar"].RationalFunction
        rf.__init__ = self.wrap("scalar.rf.normalize", vars(rf)["__init__"],
                                when=_unreduced)
        handlers = mods["vpq.suite"]._HANDLERS
        for check, fn in list(handlers.items()):
            handlers[check] = self.wrap("suite.check.%s" % check, fn)

    def _probes(self, mods):
        count, note_key = self.count, self.note_key
        rf_cls = mods["vpq.scalar"].RationalFunction

        def gcd(args, g):
            a, b = args[0], args[1]
            if not a.is_const() and not b.is_const():
                count("gcd.nonconst")
            if g.is_const() and g.const_value() == 1:
                count("gcd.trivial")
            n = max(len(a.terms), len(b.terms))
            if n > self.counters.get("gcd.max_terms", 0):
                self.counters["gcd.max_terms"] = n
        def mul(args, _):
            count("poly.term_products", len(args[0].terms) * len(args[1].terms))
        def add(args, _):
            o = rf_cls._coerce(args[0], args[1])
            if o is not NotImplemented and args[0].den == o.den:
                count("rf.add.same_den")
        def qint(args, _):
            if note_key("qint", (id(args[0]), int(args[1])), (args[0],)):
                count("qint.hit")
        def coeff(args, _):
            rule, ctx, n, k = args
            note_key("coeff", (id(rule), id(ctx), n, k), (rule, ctx))
        def eta(args, _):
            note_key("eta", (id(args[0]), args[1], args[2]), (args[0],))
        def central(args, _):
            note_key("central", (id(args[0]), args[1]), (args[0],))
        return {"scalar.poly_gcd": gcd, "scalar.poly.mul": mul,
                "scalar.rf.add": add, "scalar.qint": qint,
                "modules.coeff": coeff, "algebra.eta": eta,
                "algebra.central_coefficient": central}

    # -- results --------------------------------------------------------------

    def _agg(self, name):
        i = self._ids.get(name)
        if i is None:
            return 0, 0.0, 0.0
        return self.calls[i], self.self_ns[i] / 1e9, self.outer_ns[i] / 1e9

    def _ratio(self, num, den):
        return num / den if den else 0.0

    def metrics(self, check_names):
        """Per-layer metrics; a name that never ran reports 0."""
        out = {}
        c = self.counters

        def calls_self(prefix):
            n, s, _ = self._agg(prefix)
            out[prefix + ".calls"] = (n, "count")
            out[prefix + ".self_s"] = (s, "s")
            return n

        def inclusive(name, key=None):
            out[key or name + ".s"] = (self._agg(name)[2], "s")

        n = calls_self("scalar.poly_gcd")
        out["scalar.poly_gcd.nonconst_calls"] = (c.get("gcd.nonconst", 0), "count")
        out["scalar.poly_gcd.trivial_ratio"] = (
            self._ratio(c.get("gcd.trivial", 0), n), "ratio")
        out["scalar.poly_gcd.max_terms"] = (c.get("gcd.max_terms", 0), "count")
        calls_self("scalar.poly_divexact")
        calls_self("scalar.poly.mul")
        out["scalar.poly.mul.term_products"] = (
            c.get("poly.term_products", 0), "count")
        for op in ("add", "mul", "div", "pow", "normalize"):
            n = calls_self("scalar.rf." + op)
            if op == "add":
                out["scalar.rf.add.same_den_ratio"] = (
                    self._ratio(c.get("rf.add.same_den", 0), n), "ratio")
        n = self._agg("scalar.qint")[0]
        out["scalar.qint.calls"] = (n, "count")
        out["scalar.qint.hit_ratio"] = (self._ratio(c.get("qint.hit", 0), n),
                                        "ratio")
        n = calls_self("modules.coeff")
        out["modules.coeff.distinct_ratio"] = (
            self._ratio(len(self.seen.get("coeff", ())), n), "ratio")
        calls_self("modules.relation_residual")
        for fn in ("verify_module", "find_intertwiner", "find_submodules_ex"):
            inclusive("modules." + fn)
        for fn, key in (("eta", "eta"), ("central_coefficient", "central")):
            n = self._agg("algebra." + fn)[0]
            out["algebra.%s.calls" % fn] = (n, "count")
            out["algebra.%s.distinct_ratio" % fn] = (
                self._ratio(len(self.seen.get(key, ())), n), "ratio")
        calls_self("algebra.hom_jacobi_residual")
        inclusive("algebra.verify_algebra")
        for name in ("classify.identity_audit", "classify.degeneracy_table_audit",
                     "classify.l2_display_audit",
                     "caseaudit.case_constants_audit",
                     "caseaudit.family_consistency",
                     "uqsl2.rep_relation_audit", "uqsl2.quadratic_in_x_fit"):
            inclusive(name)
        out["report.record.calls"] = (self._agg("report.record")[0], "count")
        out["report.self_s"] = (
            sum(self._agg(n)[1] for n in self.names if n.startswith("report.")),
            "s")
        inclusive("suite.serialize", "suite.serialize_s")
        for check in check_names:
            inclusive("suite.check." + check)
        inclusive("cli.main")
        i = self._ids.get("scalar.field_identity")
        if i is not None:       # rf-field only
            ms = [(self.span_end[j] - self.span_start[j] - self.span_over[j])
                  / 1e6
                  for j in range(len(self.span_name)) if self.span_name[j] == i]
            cuts = statistics.quantiles(ms, n=100, method="inclusive")
            out["scalar.field_identity.p50_ms"] = (cuts[49], "ms")
            out["scalar.field_identity.p95_ms"] = (cuts[94], "ms")
        return out

    def overhead_s(self):
        """Trace overhead taken out of the times, over the whole pass."""
        return self.stack[0][2] / 1e9

    def write_spans(self, path):
        """Write the span table as gzip'd tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tparent\tpass\tname\tstart_ns\tend_ns\t"
                     "overhead_ns\n")
            for j in range(len(self.span_name)):
                fh.write("%d\t%d\t%d\t%s\t%d\t%d\t%d\n" % (
                    j, self.span_parent[j], self.span_pass[j],
                    self.names[self.span_name[j]], self.span_start[j],
                    self.span_end[j], self.span_over[j]))
        return len(self.span_name)



def calibrate(n=20000, repeats=7):
    """Per-call cost of a wrapper outside its own clock reads, in whole ns:
    for a plain wrapper, for one with a `when` test, and for a bypassed
    call.  Each is what a caller pays for n calls to a wrapped no-op beyond
    what it pays calling the no-op directly, less the no-op's own time as
    the wrapper measures it; medians of `repeats` timings on a throwaway
    tracer.  The no-op takes two positional arguments, like the hot calls
    (`poly_gcd(a, b)`, `a * b`), and the direct calls go through a loop of
    their own, so the interpreter specialises them as it does in vpq."""
    def noop(a, b, _reduced=False):
        pass

    def direct(fn):
        for _ in range(n):
            fn(1, 2)

    def wrapped(fn):
        for _ in range(n):
            fn(1, 2)

    def direct_reduced(fn):
        for _ in range(n):
            fn(1, 2, _reduced=True)

    def wrapped_reduced(fn):
        for _ in range(n):
            fn(1, 2, _reduced=True)

    def timed(loop, fn):
        c0 = time.perf_counter_ns()
        loop(fn)
        return time.perf_counter_ns() - c0

    plain, tested, bypassed = [], [], []
    for _ in range(repeats):
        t = Tracer()
        outer = t.wrap("calibrate", wrapped)
        caller = t._ids["calibrate"]
        for when, out in ((None, plain), (_unreduced, tested)):
            inner = t.wrap("scalar.rf.calibrate", noop, when=when)
            callee = t._ids["scalar.rf.calibrate"]
            before = t.self_ns[caller], t.self_ns[callee]
            outer(inner)
            base = timed(direct, noop)
            out.append((t.self_ns[caller] - before[0]
                        - base + t.self_ns[callee] - before[1]) / n)
        skipped = t.wrap("scalar.rf.calibrate", noop, when=_unreduced)
        bypassed.append((timed(wrapped_reduced, skipped)
                         - timed(direct_reduced, noop)) / n)
    return tuple(max(round(statistics.median(v)), 0)
                 for v in (plain, tested, bypassed))
