"""The four workloads: inputs made from the seed, one set-up and one pass.

Each workload has `setup(vpq, seed, out_dir)`, the work a user pays before
any identity is checked; `run_pass(vpq, state, wrap, mark)`, one full
verification pass, the only timed part; and `summarize(state, raw)`, which
turns the pass's raw result into residuals attempted, residuals nonzero, a
sha256 of the report and, for the suites, a per-check summary.  `wrap(name,
fn)` lets the traced run put a span around benchmark-side calls; untraced,
it returns fn unchanged.  `run_pass` calls `mark()` after each suite
check, each of formal's calls and each field triple, and `split_on_records`
adds a call after every RECORDS_PER_MARK residuals recorded; at these points
the untraced worker may run a reference slice (see worker.py), so no long
stretch of a pass goes without one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# the three points of the acceptance suite and tests
POINTS = (("2", "3"), ("5", "7"), ("-3/2", "1/4"))

# rf-field: seeded triples on top of the pinned counterexamples; at this
# size seeds agree to about 8% despite the heavy tail of per-triple cost
RF_TRIPLES = 3000

# a suite pass records about 31,000 residuals and formal's about 14,000, so
# the stretches between marks last tens of milliseconds
RECORDS_PER_MARK = 100


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _marked(fn, mark):
    """fn, calling mark() after each call."""
    def marked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            mark()
    return marked


@contextlib.contextmanager
def split_on_records(vpq, mark):
    """Call mark() after every RECORDS_PER_MARK residuals recorded."""
    cls = vpq.ResidualReport
    record = cls.record
    count = itertools.count(1)

    def counted(self, *args, **kwargs):
        if next(count) % RECORDS_PER_MARK == 0:
            mark()
        return record(self, *args, **kwargs)

    cls.record = counted
    try:
        yield
    finally:
        cls.record = record


# -- suites ------------------------------------------------------------------

def suite_doc(backend, seed):
    """The frozen acceptance suite with the seed and backend substituted."""
    doc = json.loads((DATA / "acceptance_suite.json").read_text())
    doc["seed"] = seed
    doc["context"]["backend"] = backend
    return doc


def suite_check_names():
    doc = json.loads((DATA / "acceptance_suite.json").read_text())
    return sorted({spec["check"] for spec in doc["checks"]})


class Suite:
    """`vpq suite --config ... --json ...` through `vpq.cli.main`."""

    def __init__(self, backend):
        self.backend = backend

    def setup(self, vpq, seed, out_dir):
        doc = suite_doc(self.backend, seed)
        # what `vpq suite` does before its first check, guard loop included;
        # the pass repeats it inside cli.main
        config = vpq.SuiteConfig.from_dict(doc)
        config.build_context()
        tag = "%s-%d" % (self.backend, seed)
        cfg = out_dir / ("suite-%s.json" % tag)
        cfg.write_text(json.dumps(doc, indent=2))
        return {"config": str(cfg), "report": out_dir / ("report-%s.json" % tag)}

    def run_pass(self, vpq, state, wrap, mark):
        handlers = vpq.suite._HANDLERS
        for check, fn in list(handlers.items()):
            handlers[check] = _marked(fn, mark)
        with contextlib.redirect_stdout(io.StringIO()):
            code = vpq.cli.main(["suite", "--config", state["config"],
                                 "--json", str(state["report"])])
        return {"exit": code}

    def summarize(self, state, raw):
        data = state["report"].read_bytes()
        state["report"].unlink()
        report = json.loads(data)
        checks = [[c["check"], c["counts"]["checked"], c["counts"]["failed"],
                   sorted(f["id"] for f in c["findings"])]
                  for c in report["checks"]]
        return {"exit": raw["exit"], "attempted": report["totals"]["checked"],
                "nonzero": report["totals"]["failed"], "digest": _sha(data),
                "checks": checks}


# -- formal parameters ---------------------------------------------------------

def _qint_sweep(vpq, f):
    """Pascal and reflection residuals for |m|, |n| <= 20."""
    rep = vpq.ResidualReport("formal-qint", {"mmax": 20})
    for m in range(-20, 21):
        rep.record("reflection", (m,), vpq.reflection_residual(f, m))
        for n in range(-20, 21):
            rep.record("pascal", (m, n), vpq.pascal_residual(f, m, n))
    return rep


class Formal:
    """Sweeps where poly_gcd does multivariate work.

    At each acceptance point the module parameters (a, b) stay formal; then
    p and q go formal too.  The three points differ in cost by up to half,
    so a pass visits all of them (in a seed-chosen order) rather than one
    seed-picked point, which would make the spread across seeds exceed the
    wall_s bound.
    """

    def setup(self, vpq, seed, out_dir):
        order = list(POINTS)
        random.Random(seed).shuffle(order)
        return {"points": [vpq.ScalarContext.symbolic(p, q) for p, q in order],
                "formal": vpq.ScalarContext.symbolic()}

    def run_pass(self, vpq, state, wrap, mark):
        reports = []

        def run(fn, *args):
            reports.append(_marked(fn, mark)(*args))

        for ctx in state["points"]:
            a, b = ctx.var("a"), ctx.var("b")
            run(vpq.verify_module, ctx, vpq.Mab(a, b), 6, 10)
            run(vpq.identity_audit, ctx, a, b)
            run(vpq.l2_display_audit, ctx, a, b, 6)
            run(vpq.degeneracy_table_audit, ctx)
        f = state["formal"]
        run(_qint_sweep, vpq, f)
        run(vpq.verify_algebra, f, 6)
        run(vpq.verify_module, f, vpq.Mab(f.var("a"), f.var("b")), 4, 6)
        return {"exit": 0, "reports": reports}

    def summarize(self, state, raw):
        dicts = [r.to_dict() for r in raw["reports"]]
        data = json.dumps(dicts, sort_keys=True).encode()
        return {"exit": 0, "attempted": sum(r.checked for r in raw["reports"]),
                "nonzero": sum(r.failed for r in raw["reports"]),
                "digest": _sha(data)}


# -- field identities ------------------------------------------------------------

def _rf_terms(rng):
    """One draw shaped like tests/test_scalar.py::rfs, as term lists."""
    num = [[rng.randint(-5, 5), rng.randint(0, 3), rng.randint(0, 3)]
           for _ in range(rng.randint(0, 4))]
    den = [[rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 2)]
           for _ in range(rng.randint(0, 3))] + [[1, 0, 0]]
    return {"num": num, "den": den}


def field_corpus(seed):
    """Pinned counterexamples first, then RF_TRIPLES seeded triples."""
    pinned = json.loads((DATA / "pinned_triples.json").read_text())["triples"]
    triples = [[t["a"], t["b"], t["c"]] for t in pinned]
    rng = random.Random(seed)
    triples += [[_rf_terms(rng) for _ in range(3)] for _ in range(RF_TRIPLES)]
    return triples


def _distributes(a, b, c):
    lhs = a * (b + c)
    return lhs, lhs == a * b + a * c


def _undoes(a, b):
    lhs = (a * b) / b
    return lhs, lhs == a


class Field:
    """a*(b+c) == a*b + a*c and (a*b)/b == a over a seeded corpus in Z(p,q).

    Building the corpus as RationalFunctions normalises every input with
    poly_gcd, the same work Hypothesis does when it draws `rfs`, so it is
    part of the pass; set-up only draws the term lists.
    """

    def setup(self, vpq, seed, out_dir):
        return {"corpus": field_corpus(seed)}

    def run_pass(self, vpq, state, wrap, mark):
        p, q = vpq.Poly.var("p"), vpq.Poly.var("q")

        def poly(terms):
            total = vpq.Poly()
            for c, i, j in terms:
                total = total + vpq.Poly.const(c) * p ** i * q ** j
            return total

        distributes = wrap("scalar.field_identity", _distributes)
        undoes = wrap("scalar.field_identity", _undoes)
        results = []
        for triple in state["corpus"]:
            a, b, c = [vpq.RationalFunction(poly(rf["num"]), poly(rf["den"]))
                       for rf in triple]
            results.append(distributes(a, b, c))
            if not b.is_zero():
                results.append(undoes(a, b))
            mark()
        return {"exit": 0, "results": results}

    def summarize(self, state, raw):
        results = raw["results"]
        data = "\n".join(str(lhs) for lhs, _ in results).encode()
        return {"exit": 0, "attempted": len(results),
                "nonzero": sum(1 for _, ok in results if not ok),
                "digest": _sha(data)}


WORKLOADS = {
    "suite-numeric": Suite("numeric"),
    "suite-symbolic": Suite("symbolic"),
    "formal": Formal(),
    "rf-field": Field(),
}
