"""Pinned-basis case analysis: junction weights, action constants, and the
constraint identities tying them together."""

from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from vpq import cli
from vpq.caseaudit import (
    annihilator_spectrum,
    case1_constants,
    case2_constants,
    case3_constants,
    case4_constants,
    case_constants_audit,
    case_tag,
    constraint_residuals,
    family_consistency,
    find_j0_all,
    quadratic_in_x_check,
)
from vpq.modules import ExcAlpha, ExcAlphaPrime, ExcBeta, ExcBetaPrime, Mab
from vpq.scalar import ScalarContext, is_zero, scalar_str


def test_annihilator_spectrum(ctx):
    a = Fraction(1, 7)
    assert annihilator_spectrum(ctx, Mab(a, a * 3), -1, 8) == [0]
    assert annihilator_spectrum(ctx, Mab(Fraction(0), Fraction(0)), 1, 8) == [0]


@pytest.mark.parametrize("backend", ["numeric", "symbolic"])
def test_annihilator_spectrum_matches_the_value_scan(backend):
    # the spectrum reads one row of numerators; the reference tests each
    # value c(n, k); the reducible points put zeros off k = 0
    ctx = (ScalarContext.numeric(2, 3) if backend == "numeric"
           else ScalarContext.symbolic("2", "3"))
    rules = [ExcAlpha(Fraction(1, 2)), ExcAlphaPrime(Fraction(-2)),
             ExcBeta(Fraction(3)), ExcBetaPrime(Fraction(1, 5)),
             Mab(Fraction(1, 7), Fraction(3, 7))]
    for m in (-2, 1, 3):
        rules += [Mab(-ctx.hq(m), -ctx.upow(m)), Mab(-ctx.hq(m), ctx.zero)]
    spectra = []
    for rule in rules:
        for n in (-2, -1, 1, 2):
            want = [k for k in range(-6, 7)
                    if is_zero(rule.coeff(ctx, n, k))]
            got = annihilator_spectrum(ctx, rule, n, 6)
            assert got == want, (rule.describe(), n)
            spectra.append(got)
    assert any(s != sorted(-k for k in s) for s in spectra)


def test_quadratic_in_x_fit_coefficients(ctx):
    a = Fraction(1, 7)
    rep = quadratic_in_x_check(ctx, Mab(a, a * 3), 8)
    d = rep.to_dict()
    assert rep.failed == 0
    assert d["sections"]["fit_down-up"] == ["-5/28", "1/7", "1"]
    assert d["sections"]["fit_up-down"] == ["0", "-4/7", "1"]


@given(st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                    max_denominator=4),
       st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                    max_denominator=4))
@settings(max_examples=40)
def test_step_products_are_quadratic_in_x(ctx, a, b):
    # the three-node fit extends exactly across the whole window
    assert quadratic_in_x_check(ctx, Mab(a, b), 6).failed == 0


def test_junction_weight_solutions(ctx):
    assert find_j0_all(ctx, Fraction(-1, 2), 12) == [-3]
    assert find_j0_all(ctx, Fraction(0), 12) == [0]
    assert find_j0_all(ctx, Fraction(1, 7), 12) == []


def test_junction_equation_is_c2_of_the_line_module():
    # find_j0_all reads the junction weights as the zeros of c(2, j) on
    # M(a, aq); at formal p, q, a that row is the junction equation
    ctx = ScalarContext.symbolic()
    p, q, a, J = ctx.p, ctx.q, ctx.var("a"), ctx.qint
    rule = Mab(a, a * q)
    for j in range(-12, 13):
        equation = (p ** -j * J(j) - a * p ** -j * q ** j
                    - a * p ** (-j - 2) * q ** (j + 1) * J(2))
        assert (rule.coeff(ctx, 2, j) - equation).is_zero(), j


def test_case_tags(ctx):
    # thresholds at a = 0, a = -1/p, a = -1/(p+q)
    assert case_tag(ctx, Fraction(5)).tag == "Case1"
    assert case_tag(ctx, Fraction(-1, 5)).tag == "Case2"
    assert case_tag(ctx, Fraction(-1, 2)).tag == "Case3"
    assert case_tag(ctx, Fraction(0)).tag == "Case4"
    assert case_tag(ctx, Fraction(2)).b == 6  # induced b = a q


def test_case1_constants(ctx):
    cc = case1_constants(ctx, Fraction(5))
    assert (cc.H, cc.D, cc.E, cc.Fc, cc.Gc) == (
        Fraction(-26, 3), Fraction(-100, 9), Fraction(-97, 6),
        Fraction(10, 3), Fraction(11, 2))


def test_case2_constants(ctx):
    cc = case2_constants(ctx)
    assert cc.H == 0
    assert cc.E == Fraction(3, 10)     # p^{-1} q/(p+q)
    assert cc.Fc == Fraction(-2, 15)   # -p q^{-1}/(p+q)
    assert cc.Gc == Fraction(3, 10)    # q/(p(p+q)); the catalogued
    assert cc.D == Fraction(-2, 15)    # value p^{-1}q/(p-q) is a finding


def test_case3_constants(ctx):
    cc = case3_constants(ctx, Fraction(1))
    assert (cc.H, cc.D, cc.E, cc.Fc, cc.Gc) == (
        Fraction(-3, 4), Fraction(1, 2), Fraction(-75, 16),
        Fraction(-1, 3), Fraction(0))


def test_case4_constants(ctx):
    cc = case4_constants(ctx, Fraction(1))
    assert (cc.H, cc.D, cc.E, cc.Fc, cc.Gc) == (
        Fraction(-8, 9), Fraction(-140, 81), Fraction(-1, 3),
        Fraction(0), Fraction(1, 2))


def test_constraints_gate_on_junction_weight(ctx):
    res3 = constraint_residuals(ctx, Fraction(-1, 2),
                                case3_constants(ctx, Fraction(1)), -3)
    assert res3["FH"] is None  # gated at j0 = -3
    assert all(v == 0 for k, v in res3.items() if v is not None)
    res4 = constraint_residuals(ctx, Fraction(0),
                                case4_constants(ctx, Fraction(1)), 0)
    assert res4["GH"] is None  # gated at j0 = 0
    assert all(v == 0 for k, v in res4.items() if v is not None)


@given(st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                    max_denominator=4))
@settings(max_examples=30)
def test_edh_constraint_is_parameter_free(ctx, t):
    # the deformation parameter cancels from the E/D/H combination
    for cc, j0 in ((case3_constants(ctx, t), -3),
                   (case4_constants(ctx, t), 0)):
        a = Fraction(-1, 2) if cc.Fc != 0 else Fraction(0)
        assert constraint_residuals(ctx, a, cc, j0)["ED-H"] == 0


def test_case_audits_are_clean(ctx):
    for a in (Fraction(5), Fraction(-1, 5), Fraction(-1, 2), Fraction(0)):
        assert case_constants_audit(ctx, a).failed == 0


def test_case_audit_window_must_reach_minus_3(ctx):
    # the Case3 junction weight at a = -1/2 is -3; a window of 2 misses it
    # and would fail a correct case
    with pytest.raises(ValueError, match="window >= 3"):
        case_constants_audit(ctx, Fraction(-1, 2), window=2)
    rep = case_constants_audit(ctx, Fraction(-1, 2), window=3)
    assert rep.failed == 0 < rep.checked


def test_case2_audit_findings(ctx):
    d = case_constants_audit(ctx, Fraction(-1, 5)).to_dict()
    ids = sorted(f["id"] for f in d["findings"])
    assert ids == ["EG-catalogued-value", "G-catalogued-value"]
    by_id = {f["id"]: f for f in d["findings"]}
    # the product E*G the text ties to p^{-2}q^2/(p^2-q^2) actually lands at
    # q^2/(p^2 (p+q)^2) = 9/100 here
    assert "9/100" in str(by_id["EG-catalogued-value"]["data"])


def test_case4_audit_findings(ctx):
    d = case_constants_audit(ctx, Fraction(0)).to_dict()
    assert [f["id"] for f in d["findings"]] == ["G-narrative-sign"]


def test_case1_and_case3_audits_have_no_findings(ctx):
    assert case_constants_audit(ctx, Fraction(5)).to_dict()["findings"] == []
    assert case_constants_audit(ctx, Fraction(-1, 2)).to_dict()["findings"] == []


def test_case_audit_at_other_points():
    ctx = ScalarContext.numeric("5", "7")
    for a in (Fraction(3), Fraction(-1, 12), Fraction(-1, 5), Fraction(0)):
        rep = case_constants_audit(ctx, a)
        assert rep.failed == 0


def test_family_consistency_sweep(ctx):
    rep = family_consistency(ctx, 4)
    d = rep.to_dict()
    assert rep.failed == 0
    assert d["counts"]["checked"] == 737
    # the only adjudication surfacing here is the betap bracket pair
    assert {f["id"] for f in d["findings"]} == {"betap-literal-reading"}


@pytest.mark.parametrize("backend", ["numeric", "symbolic", "formal-pq"])
def test_family_consistency_reads_the_swept_rows(backend, monkeypatch,
                                                 capsys):
    # a mutant that shifts the alpha family's h argument: rows and values
    # both read `off`, so the closed forms, judged on the rows the module
    # sweeps read, fail, and so does the pinned raising display, read from
    # coeff; so does the bundled suite.  Each closed-form failure off the
    # line reads as the value of the mutant's row entry less the closed form
    ctx = {"numeric": ScalarContext.numeric(2, 3),
           "symbolic": ScalarContext.symbolic("2", "3"),
           "formal-pq": ScalarContext.symbolic()}[backend]
    monkeypatch.setattr(ExcAlpha, "off", (1, 0))
    rep = family_consistency(ctx, 2 if backend == "formal-pq" else 6)
    assert rep.failed > 0
    assert {f["identity"] for f in rep.failures} == {
        "alpha-closed-form", "pinned-raise-display"}
    off_line = [f for f in rep.failures
                if f["identity"] == "alpha-closed-form"
                and f["indices"][1] != -1]
    for fail in off_line[:6]:
        n, j = fail["indices"]     # off the line, so alpha plays no part
        got = ctx.join(*ExcAlpha(ctx.one).parts_row(ctx, n, [j])[0])
        want = ctx.ppow(-n - j - 1) * ctx.qint(n + j + 1)
        assert fail["residual"] == scalar_str(got - want)
    if backend == "numeric":
        bundled = resources.files("vpq").joinpath("data/acceptance_suite.json")
        assert cli.main(["suite", "--config", str(bundled)]) == 1
        assert "FAIL family-consistency" in capsys.readouterr().out
