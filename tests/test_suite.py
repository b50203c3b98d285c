"""Suite-level contracts: the two backends agree, the bundled suite's report
bytes stay fixed, and no config escapes the exit-code contract (0 clean,
1 nonzero residual, 2 usage error)."""

import contextlib
import functools
import hashlib
import io
import json
from fractions import Fraction
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vpq import classify, cli, modules, scalar, suite
from vpq.algebra import hom_jacobi_residual, skew_residual, verify_algebra
from vpq.modules import (ExcAlpha, ExcBeta, ExcBetaPrime, Mab,
                         find_intertwiner, relation_residual, verify_module)
from vpq.scalar import ScalarContext, is_zero, pascal_residual, scalar_str
from vpq.suite import _CHECKS, _HANDLERS, SuiteConfig, run_suite


@functools.lru_cache(maxsize=None)
def _bundled_report(backend):
    doc = json.loads(resources.files("vpq").joinpath(
        "data/acceptance_suite.json").read_text())
    doc["context"]["backend"] = backend
    return run_suite(SuiteConfig.from_dict(doc))


def _bundled_suite(backend):
    return _bundled_report(backend).to_dict()


def _without_backend(x):
    if isinstance(x, dict):
        return {k: _without_backend(v) for k, v in x.items() if k != "backend"}
    if isinstance(x, list):
        return [_without_backend(v) for v in x]
    return x


def test_bundled_suite_agrees_on_both_backends():
    num = _bundled_suite("numeric")
    sym = _bundled_suite("symbolic")
    assert num["context"]["p"] == "2" and num["context"]["q"] == "3"

    def summary(doc):
        return [(c["check"], c["counts"],
                 [(f["identity"], f["indices"]) for f in c["failures"]],
                 sorted(f["id"] for f in c["findings"]))
                for c in doc["checks"]]

    assert summary(num) == summary(sym)
    # at a rational point every scalar string agrees too
    assert _without_backend(num) == _without_backend(sym)


# sha256 of the serialized bundled suite; a change that alters any report
# byte on purpose updates these and says why
_BUNDLED_SHA256 = {
    "numeric": "7efd5733f281de6afa87ee8b593136283a563cad51394e89e37190b3a3950273",
    "symbolic": "ba0327ee2a6b64de94207d195517be3145e348b4ec771f319b5950bca1e28071",
}


@pytest.mark.parametrize("backend", sorted(_BUNDLED_SHA256))
def test_bundled_suite_bytes_are_unchanged(backend):
    data = _bundled_report(backend).serialize().encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == _BUNDLED_SHA256[backend]


def test_legacy_guard_window_is_validated_and_not_reported():
    # configs written for older versions carry guard_window; it bounds
    # nothing, so it runs and leaves no trace in the report
    doc = {"context": {"p": "2", "q": "3", "guard_window": 64},
           "checks": [{"check": "qint-identities", "mmax": 2},
                      {"check": "verify-algebra", "window": 2}]}
    report = run_suite(SuiteConfig.from_dict(doc)).to_dict()
    assert report["totals"]["checked"] > 0 and report["totals"]["failed"] == 0
    assert "guard_window" not in json.dumps(report)
    for check in report["checks"]:
        assert check["params"]["guard"] == {"mode": "rational-point"}


# -- mutant table -----------------------------------------------------------------
#
# Deliberate breaks of the program, each a monkeypatch, and the checks of the
# bundled numeric suite that fail under it.  The sweeps count some residuals
# as zero by a proof (a pair's mirror, the diagonal, a repeated-index triple)
# rather than computing them; this table shows that every break is still
# caught.

def _reparam(cls, name, make):
    """cls.name evaluated on make(rule), the rule with a broken parameter."""
    real = getattr(cls, name)
    return lambda self, ctx, *args: real(make(self), ctx, *args)


_upow = ScalarContext.upow
_hu = ScalarContext.hu
_shift_params = modules.shift_params
_second_solution = classify.second_solution
_MUTANTS = {
    "u^n read as u^(n+1)": (
        [(ScalarContext, "upow", lambda self, n: _upow(self, n + 1))],
        {"verify-algebra", "verify-module", "sampled-modules",
         "sampled-families", "is-reducible-grid", "iso", "sampled-iso",
         "quadratic-roots", "l2-display", "fg-recurrences", "case-constants",
         "family-consistency"}),
    "Mab reads -b": (
        [(Mab, name, _reparam(Mab, name, lambda r: Mab(r.a, -r.b)))
         for name in ("coeff", "parts_row")],
        {"is-reducible-grid", "quadratic-roots", "l2-display",
         "fg-recurrences", "case-constants", "family-consistency"}),
    "ExcAlpha's line entry reads alpha + 1": (
        [(ExcAlpha, "coeff",
          _reparam(ExcAlpha, "coeff", lambda r: ExcAlpha(r.t + 1)))],
        {"family-consistency"}),
    "ExcBetaPrime takes the given reading": (
        [(ExcBetaPrime, "coeff", _reparam(
            ExcBetaPrime, "coeff", lambda r: ExcBetaPrime(r.t, "given")))],
        {"sampled-families", "family-consistency"}),
    "shift_params shifts by m + 1": (
        [(modules, "shift_params",
          lambda ctx, a, b, m: _shift_params(ctx, a, b, m + 1))],
        {"iso", "sampled-iso"}),
    "second_solution + 2": (
        [(classify, "second_solution",
          lambda ctx, a, b: _second_solution(ctx, a, b) + 2)],
        {"quadratic-roots"}),
    # a shifted off moves the rows and the line's entry together, and the
    # shifted family is no longer a module
    "ExcAlpha's rows read h(n+k)": (
        [(ExcAlpha, "off", (1, 0))],
        {"sampled-families", "family-consistency"}),
    "ExcBeta's rows read h(n+k)": (
        [(ExcBeta, "off", (1, 0))],
        {"sampled-families", "family-consistency"}),
    "ExcBetaPrime's rows read h(k+1)": (
        [(ExcBetaPrime, "off", (0, 1))],
        {"sampled-families", "family-consistency"}),
    # every Mab row reads c(n,k)/2 with b halved; the module sweeps judge
    # by rows, and a nonzero row numerator whose value is zero fails as
    # module-row-value
    "the h/u basis doubles its denominator": (
        [(ScalarContext, "hu",
          lambda self, k: _hu(self, k)[:2] + (2 * _hu(self, k)[2],))],
        {"verify-module", "sampled-modules", "is-reducible-grid",
         "l2-display", "fg-recurrences", "case-constants",
         "family-consistency"}),
}


@pytest.mark.parametrize("mutant", list(_MUTANTS))
def test_bundled_suite_catches_each_mutant(mutant, monkeypatch, tmp_path):
    patches, caught = _MUTANTS[mutant]
    for obj, attr, value in patches:
        monkeypatch.setattr(obj, attr, value)
    bundled = resources.files("vpq").joinpath("data/acceptance_suite.json")
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["suite", "--config", str(bundled), "--json", str(out)])
    report = json.loads(out.read_text())
    assert code == 1
    assert {c["check"] for c in report["checks"]
            if c["counts"]["failed"]} == caught


# -- config fuzzer --------------------------------------------------------------

# mostly valid values, with a few of every kind of bad one
_RATS = ["0", "1", "-1", "5", "-1/5", "1/3", "-1/2", "3/2"] * 3 + [
    "1/0", "0.5", "x", 2]
_STRS = ["mab:a=1/3,b=-2", "mab:a=-1/2,b=0", "alpha:alpha=0", "alphap:t=1",
         "beta:beta=-1", "betap:betap=1/2"] * 3 + [
    "mab:a=1/0,b=0", "nope:x=1", "", "all", "generators"]


def _value(kind):
    if kind == "int":
        return st.integers(-1, 4)
    if kind == "rat":
        return st.sampled_from(_RATS)
    return st.sampled_from(_STRS)


def _check_spec(name):
    # required keys are usually present; any key may be left out
    table = _CHECKS[name]
    required = {k: _value(kind) for k, (kind, default, *_) in table.items()
                if default is None}
    optional = {k: _value(kind) for k, (kind, default, *_) in table.items()
                if default is not None}
    return st.tuples(
        st.fixed_dictionaries({"check": st.just(name), **required},
                              optional=optional),
        st.sampled_from([None] * 9 + sorted(required) if required else [None]),
    ).map(lambda pair: {k: v for k, v in pair[0].items() if k != pair[1]})


configs = st.fixed_dictionaries({
    "context": st.fixed_dictionaries({
        "p": st.sampled_from(["2", "5", "-3/2"] * 3 + ["0", "3"]),
        "q": st.sampled_from(["3", "7", "1/4"] * 3 + ["1", "-2"]),
        "backend": st.sampled_from(["numeric", "symbolic"]),
    }),
    "seed": st.integers(0, 3),
    "checks": st.lists(st.sampled_from(sorted(_CHECKS)).flatmap(_check_spec),
                       min_size=1, max_size=2),
})


def _run_config(doc, tmp):
    """`vpq suite` on doc: its exit code, stdout, stderr and, on exit 0,
    its JSON report."""
    config = Path(tmp) / "suite.json"
    report = Path(tmp) / "report.json"
    config.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["suite", "--config", str(config),
                       "--json", str(report)])
    data = json.loads(report.read_text()) if rc == 0 else None
    return rc, out.getvalue(), err.getvalue(), data


@given(configs)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_every_config_keeps_the_exit_code_contract(doc):
    # the code is correct, so a config is clean (0) or a usage error (2);
    # a clean config is clean on the other backend too, with the same report
    with tempfile.TemporaryDirectory() as tmp:
        rc, out, err, report = _run_config(doc, tmp)
        assert rc in (0, 2), err
        if rc == 2:
            lines = err.splitlines()
            assert out == "" and "Traceback" not in err
            assert len(lines) == 1 and lines[0].startswith("vpq: ")
            return
        assert report["totals"]["failed"] == 0
        context = doc["context"]
        other = {**doc, "context": {**context, "backend": {
            "numeric": "symbolic", "symbolic": "numeric"}[context["backend"]]}}
        rc, _, err, other_report = _run_config(other, tmp)
        assert rc == 0, err
        assert _without_backend(other_report) == _without_backend(report)


@pytest.mark.parametrize("backend", ["numeric", "symbolic"])
def test_sampled_iso_never_draws_the_shifted_partner_as_unrelated(
        monkeypatch, backend):
    # (2, 0) shifted by m = -2 is (13/4, 0); its partner b' = 9/4 has the
    # same step products, and at b = 0 it admits an intertwiner too, so an
    # unrelated draw equal to either is drawn again
    ctx = (ScalarContext.numeric(2, 3) if backend == "numeric"
           else ScalarContext.symbolic("2", "3"))
    two, zero = ctx.scalar(Fraction(2)), ctx.zero
    partner = Mab(ctx.scalar(Fraction(13, 4)), ctx.scalar(Fraction(9, 4)))
    assert find_intertwiner(ctx, Mab(two, zero), partner, -2, 4) is not None
    draws = iter(Fraction(v) for v in ("2", "0", "2", "0", "13/4", "9/4",
                                       "13/4", "0", "1", "1"))
    monkeypatch.setattr(suite, "_rand_fraction",
                        lambda rng, nonzero=False: next(draws))

    class Rng:
        @staticmethod
        def randint(lo, hi):
            return -2

    rep = suite._check_sampled_iso(
        ctx, {"count": 1, "mmax": 2, "kmax": 4}, Rng())
    assert next(draws, None) is None
    assert rep.checked == 2 and rep.failed == 0
    assert rep.sections["plain_samples"] == [
        {"a": "2", "b": "0", "a2": "1", "b2": "1", "m": -2}]


# -- numerator sweeps ------------------------------------------------------------
#
# qint-identities, verify-algebra and verify-module judge each residual by
# its numerator over a common denominator, count the zeros in bulk and
# reduce only a nonzero residual.  The references below reduce every
# residual, one call per index, as the sweeps did before.

def _context(point):
    if point == "formal":
        return ScalarContext.symbolic()
    backend, p, q = point
    make = (ScalarContext.symbolic if backend == "symbolic"
            else ScalarContext.numeric)
    return make(p, q)


def _failures(rep):
    return [(f["identity"], f["indices"], f["residual"])
            for f in rep.to_dict()["failures"]]


def _reduced_qint_failures(ctx, mmax):
    out = []
    for m in range(-mmax, mmax + 1):
        r = ctx.qint(-m) + ctx.ppow(-m) * ctx.qpow(-m) * ctx.qint(m)
        if not is_zero(r):
            out.append(("reflection", [m], scalar_str(r)))
        for n in range(-mmax, mmax + 1):
            r = (ctx.qint(m + n) - ctx.ppow(n) * ctx.qint(m)
                 - ctx.qpow(m) * ctx.qint(n))
            assert scalar_str(pascal_residual(ctx, m, n)) == scalar_str(r)
            if not is_zero(r):
                out.append(("pascal", [m, n], scalar_str(r)))
    return out


def _reduced_algebra_failures(ctx, w):
    out, cocycle = [], []
    for n in range(-w, w + 1):
        for m in range(n, w + 1):
            r = skew_residual(ctx, n, m)
            if not r.is_zero():
                out.append(("skew", [n, m], str(r)))
    for k in range(-w, w + 1):
        for l in range(k, w + 1):
            for m in range(l, w + 1):
                r = hom_jacobi_residual(ctx, k, l, m)
                if r.coeffs:
                    out.append(("hom-jacobi", [k, l, m], str(r)))
                if k + l + m == 0:
                    text = scalar_str(r.central)
                    cocycle.append({"indices": [k, l, m], "residual": text})
                    if not is_zero(r.central):
                        out.append(("central-cocycle", [k, l, m], text))
    return out, cocycle


def _reduced_module_failures(ctx, rule, nmax, kmax):
    out = []
    for n in range(-nmax, nmax + 1):
        for m in range(-nmax, nmax + 1):
            for k in range(-kmax, kmax + 1):
                r = relation_residual(ctx, rule, n, m, k)
                if not is_zero(r):
                    out.append(("module-relation", [n, m, k], scalar_str(r)))
    return out


@pytest.mark.parametrize("point", [
    ("numeric", "2", "3"), ("numeric", "5/2", "-3/4"),
    ("symbolic", "2", "3"), "formal"], ids=str)
def test_numerator_sweeps_report_what_reduction_reports(point):
    """With one cached [3] off by one (and so h(3), read after it), the
    numerator sweeps report the same failures, indices and residual
    strings as reducing every residual does, and the same counts."""
    ctx = _context(point)
    ctx._qint_cache[3] = ctx.qint(3) + 1
    mmax, w, nmax, kmax = (3, 3, 2, 3) if point == "formal" else (4, 4, 3, 5)

    rep = _HANDLERS["qint-identities"](ctx, {"mmax": mmax}, None)
    want = _reduced_qint_failures(ctx, mmax)
    assert want and _failures(rep) == want
    assert rep.checked == (2 * mmax + 1) * (2 * mmax + 2)

    rep = verify_algebra(ctx, w)
    want, cocycle = _reduced_algebra_failures(ctx, w)
    assert {f[0] for f in want} == {"skew", "hom-jacobi", "central-cocycle"}
    assert _failures(rep) == want
    assert rep.to_dict()["sections"]["central_cocycle_residuals"] == cocycle
    n = 2 * w + 1
    assert rep.checked == (n * (n + 1) // 2 + n * (n + 1) * (n + 2) // 6
                           + len(cocycle))

    rule = Mab(ctx.scalar("1/3"), ctx.scalar(-2))
    rep = verify_module(ctx, rule, nmax, kmax)
    want = _reduced_module_failures(ctx, rule, nmax, kmax)
    assert want and _failures(rep) == want
    assert rep.checked == (2 * nmax + 1) ** 2 * (2 * kmax + 1)
    assert rep.failed == len(want)


_FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
                        "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                        "__pow__", "__neg__")


@pytest.mark.parametrize("point", [("numeric", "2", "3"), "formal"], ids=str)
def test_passing_numerator_sweeps_reduce_nothing(monkeypatch, point):
    """Once the context's one-index caches are warm, passing
    qint-identities and verify-algebra sweeps take ring products only: no
    poly_gcd at formal p, q and no Fraction arithmetic on the numeric
    backend."""
    ctx = _context(point)

    def sweeps():
        return [_HANDLERS["qint-identities"](ctx, {"mmax": 8}, None),
                verify_algebra(ctx, 4)]

    warm = [rep.to_dict() for rep in sweeps()]
    assert all(d["counts"]["failed"] == 0 < d["counts"]["checked"]
               for d in warm)

    def reduced(*args):
        raise AssertionError("a passing sweep reduced a residual")

    if point == "formal":
        monkeypatch.setattr(scalar, "poly_gcd", reduced)
    else:
        for name in _FRACTION_ARITHMETIC:
            monkeypatch.setattr(Fraction, name, reduced)
    reports = sweeps()
    monkeypatch.undo()
    assert [rep.to_dict() for rep in reports] == warm
