"""Degeneracy classification of the linear x-factors and the product
identities tying them together."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vpq import classify
from vpq.classify import (
    ADJUSTED_LINES,
    PAIR_ORDER,
    XPolynomial,
    closed_form_f,
    closed_form_g,
    condition_scalar,
    degeneracy_profile,
    degeneracy_table_audit,
    fg_recurrence_audit,
    fgi_polynomials,
    identity_audit,
    l2_coefficients,
    l2_display_audit,
    quadratic_roots,
    quadratic_roots_audit,
    second_solution,
    x_factors,
)
from vpq.modules import Mab, MemoRule
from vpq.scalar import ScalarContext, scalar_str


small_fracs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=5)

coeff_lists = st.lists(small_fracs, min_size=0, max_size=4)


@given(coeff_lists, coeff_lists)
def test_xpoly_add_then_eval(u, v):
    a, b = XPolynomial(u), XPolynomial(v)
    x = Fraction(3, 7)
    assert (a + b).eval(x) == a.eval(x) + b.eval(x)


@given(coeff_lists, coeff_lists)
def test_xpoly_mul_then_eval(u, v):
    a, b = XPolynomial(u), XPolynomial(v)
    x = Fraction(-2, 5)
    assert (a * b).eval(x) == a.eval(x) * b.eval(x)


def test_xpoly_degree_sentinels():
    assert XPolynomial([]).degree() is None
    assert XPolynomial([Fraction(0)]).degree() is None
    assert XPolynomial([]).degree_str() == "-inf"
    assert XPolynomial([Fraction(1), Fraction(0)]).degree() == 0
    assert XPolynomial([0, 0, Fraction(2)]).degree() == 2


def test_xpoly_serialize_is_exact():
    p = XPolynomial([Fraction(-5, 28), Fraction(1, 7), Fraction(1)])
    assert p.serialize() == ["-5/28", "1/7", "1"]


@given(st.lists(small_fracs, min_size=3, max_size=3),
       st.lists(small_fracs, min_size=3, max_size=3, unique=True))
def test_xpoly_through_recovers_a_quadratic(coeffs, xs):
    poly = XPolynomial(coeffs)
    assert XPolynomial.through([(x, poly.eval(x)) for x in xs]) == poly


def test_x_factor_constant_terms(ctx):
    fx = x_factors(ctx, Fraction(1), Fraction(1))
    # every factor is monic linear in x
    for key, poly in fx.items():
        assert poly.degree() == 1
        assert poly.coeff(1) == 1
    assert fx["f1"].coeff(0) == Fraction(-3, 2)
    assert fx["g1"].coeff(0) == Fraction(-2, 3)
    assert fx["E1"].coeff(0) == Fraction(1, 4)
    assert fx["W+"].coeff(0) == Fraction(-14, 9)


def test_variant_factors_differ_from_adjudicated(ctx):
    fx = x_factors(ctx, Fraction(1), Fraction(1))
    for variant, base in (("g2_given", "g2"), ("g3_apq", "g3"),
                          ("W+_given", "W+")):
        assert not (fx[variant] - fx[base]).is_zero()


def test_case_assignments(ctx):
    assert degeneracy_profile(ctx, Fraction(1), Fraction(1)).case == 1
    assert degeneracy_profile(ctx, Fraction(5), Fraction(0)).case == 2
    assert degeneracy_profile(ctx, Fraction(-1), Fraction(4)).case == 3
    assert degeneracy_profile(ctx, Fraction(2), Fraction(3)).case == 4


def test_case_pair_patterns(ctx):
    prof = degeneracy_profile(ctx, Fraction(-1), Fraction(4))
    assert {k for k, v in prof.pairs.items() if v} == \
        {"f1=g3", "f1=g4", "f2=g3", "f2=g4"}
    prof = degeneracy_profile(ctx, Fraction(2), Fraction(3))
    assert {k for k, v in prof.pairs.items() if v} == \
        {"f3=g1", "f3=g2", "f4=g1", "f4=g2"}


def test_uncatalogued_coincidence_gets_case_zero(ctx):
    # a - b(p^2+q^2)/(p^3-q^3)... the f3=g3 / f4=g4 line at p=2, q=3
    prof = degeneracy_profile(ctx, Fraction(14), Fraction(19))
    assert prof.case == 0
    assert {k for k, v in prof.pairs.items() if v} == {"f3=g3", "f4=g4"}


@given(small_fracs, small_fracs)
@settings(max_examples=80)
def test_conditions_track_literal_equalities(ctx, a, b):
    """The adjudicated vanishing conditions match factor equality exactly."""
    prof = degeneracy_profile(ctx, a, b)
    assert all(prof.agreement.values())


def test_pair_order_covers_all_sixteen():
    assert len(PAIR_ORDER) == 16
    assert len(set(PAIR_ORDER)) == 16
    assert set(ADJUSTED_LINES) <= {"%s=%s" % pq for pq in PAIR_ORDER}


def test_identity_audit_rejects_float_parameters(ctx):
    # in floats, rounding would read as failed identities
    with pytest.raises(TypeError, match="not an exact scalar"):
        identity_audit(ctx, 0.3, 0.1)


def test_degeneracy_table_audit_needs_symbolic(ctx):
    with pytest.raises(ValueError):
        degeneracy_table_audit(ctx)


def test_degeneracy_table_audit_formal(sym):
    rep = degeneracy_table_audit(sym)
    d = rep.to_dict()
    assert rep.failed == 0
    assert d["counts"]["checked"] == 16
    assert [f["id"] for f in d["findings"]] == ["table-line-adjusted"] * 4


def test_degeneracy_table_audit_at_pinned_points():
    for p, q in (("2", "3"), ("5", "7"), ("-3/2", "1/4")):
        rep = degeneracy_table_audit(ScalarContext.symbolic(p, q))
        assert rep.failed == 0


def test_second_solution_involutes(ctx):
    a, b = Fraction(2), Fraction(1, 4)
    b2 = second_solution(ctx, a, b)
    assert b2 == Fraction(3, 4)
    assert second_solution(ctx, a, b2) == b


def test_quadratic_roots(ctx):
    assert quadratic_roots(ctx, Fraction(2), Fraction(1, 4)) == \
        (Fraction(1, 4), Fraction(3, 4))


def test_quadratic_roots_reports_a_partner_off_the_quadratic(ctx, monkeypatch):
    # the "1 - a(p-q) - b" reading of the partner is not a root at (2, 3)
    monkeypatch.setattr(classify, "second_solution",
                        lambda ctx, a, b: 1 - a * (ctx.p - ctx.q) - b)
    with pytest.raises(ValueError) as err:
        quadratic_roots(ctx, Fraction(2), Fraction(1, 4))
    assert str(err.value) == (
        "quadratic roots: partner b'=11/4 of b=1/4 fails the defining "
        "quadratic c(1,0)·c(-1,1) (a=2, p=2, q=3)")


def test_quadratic_roots_audit(ctx):
    rep = quadratic_roots_audit(ctx, Fraction(2), Fraction(1, 4))
    d = rep.to_dict()
    assert rep.failed == 0
    assert d["sections"]["root_sum"] == "1"
    assert [f["id"] for f in d["findings"]] == ["second-solution-sign"]


def test_identity_audit_constants(ctx):
    d = identity_audit(ctx, Fraction(1), Fraction(1)).to_dict()
    assert d["counts"]["failed"] == 0
    assert d["sections"]["F"] == "15/16"
    assert d["sections"]["G"] == "-20/243"


def test_identity_audit_f_constant_closed_form(ctx):
    # F(a,b) = b q (p+q)(ap-aq+b+1)(ap-aq+2b+1)/p^5
    p, q = Fraction(2), Fraction(3)
    for a, b in ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(1, 3)),
                 (Fraction(-1, 5), Fraction(4))):
        expected = (b * q * (p + q) * (a * p - a * q + b + 1)
                    * (a * p - a * q + 2 * b + 1) / p ** 5)
        d = identity_audit(ctx, a, b).to_dict()
        assert d["sections"]["F"] == str(expected)


@given(small_fracs, small_fracs)
@settings(max_examples=25, deadline=None)
def test_identity_audit_never_fails_only_finds(ctx, a, b):
    rep = identity_audit(ctx, a, b)
    assert rep.failed == 0


def test_identity_audit_finding_inventory(ctx):
    d = identity_audit(ctx, Fraction(1), Fraction(1)).to_dict()
    ids = sorted(f["id"] for f in d["findings"])
    assert ids == ["deg-le-1-reading", "deg-le-1-reading",
                   "grand-product-reading", "quintic-product-reading",
                   "second-difference-reading"]


def test_identity_audit_formal_parameters_at_pinned_points():
    # formal (a, b) over exact rational (p, q); fully formal p, q makes the
    # grand-product gcd reduction blow up without adding coverage
    for p, q in (("2", "3"), ("5", "7"), ("-3/2", "1/4")):
        sctx = ScalarContext.symbolic(p, q)
        rep = identity_audit(sctx, sctx.var("a"), sctx.var("b"))
        assert rep.failed == 0


def test_closed_forms_match_recurrence(ctx):
    rep = fg_recurrence_audit(ctx, Fraction(1), Fraction(1),
                              Fraction(15, 16), Fraction(-20, 243), 4)
    assert rep.failed == 0
    assert rep.to_dict()["counts"]["checked"] > 0


def test_closed_form_returns_none_on_vanishing_denominator(ctx):
    # (a,b) = (-1/2,-3/2) kills the k=0 step coefficient
    assert closed_form_f(ctx, Mab(Fraction(-1, 2), Fraction(-3, 2)),
                         Fraction(1), -2) is None
    assert closed_form_g(ctx, Mab(Fraction(-1, 2), Fraction(0)),
                         Fraction(1), 3) is not None


def test_l2_coefficient_values(ctx):
    c2, cm2 = l2_coefficients(ctx, Mab(Fraction(1), Fraction(1)), 2)
    assert c2 == Fraction(21199, 176)
    assert cm2 == Fraction(-3, 28)


def test_l2_coefficients_raise_on_vanishing_factor(ctx):
    with pytest.raises(ValueError):
        l2_coefficients(ctx, Mab(Fraction(-1, 2), Fraction(-3, 2)), -2)


def test_cm2_readings_differ_only_in_the_b_terms(ctx):
    # the given reading reads a and b from the rule's parameters
    for j in (-3, 2, 4):
        rule = Mab(Fraction(5), Fraction(0))
        assert l2_coefficients(ctx, rule, j, "given") == \
            l2_coefficients(ctx, rule, j)
        rule = Mab(Fraction(5), Fraction(1))
        assert l2_coefficients(ctx, rule, j, "given")[1] != \
            l2_coefficients(ctx, rule, j)[1]


def _outcome(fn, *args):
    """A reader's result as exact strings, None, or its ValueError text."""
    try:
        out = fn(*args)
    except ValueError as exc:
        return "raises: %s" % exc
    if out is None:
        return None
    return [scalar_str(v) for v in (out if isinstance(out, tuple) else (out,))]


@pytest.mark.parametrize("point", ["numeric", "formal"])
def test_rule_readers_agree_over_memo_and_bare_rule(point):
    if point == "numeric":
        c = ScalarContext.numeric(2, 3)
        params = [(Fraction(1), Fraction(1)),
                  (Fraction(-1, 2), Fraction(-3, 2))]
    else:
        c = ScalarContext.symbolic("2", "3")
        params = [(c.var("a"), c.var("b"))]
    F0, G0 = Fraction(15, 16), Fraction(-20, 243)
    values = 0
    for a, b in params:
        bare = Mab(a, b)
        memo = MemoRule(c, bare)
        for j in range(-4, 5):
            for fn, args in ((closed_form_f, (F0, j)),
                             (closed_form_g, (G0, j)),
                             (l2_coefficients, (j, "adjusted")),
                             (l2_coefficients, (j, "given"))):
                got = _outcome(fn, c, memo, *args)
                assert got == _outcome(fn, c, bare, *args)
                values += isinstance(got, list)
    assert values > 30


def test_l2_display_audit(ctx):
    d = l2_display_audit(ctx, Fraction(1), Fraction(1), 4).to_dict()
    assert d["counts"]["failed"] == 0
    assert {f["id"] for f in d["findings"]} == {"cm2-display-reading"}
    assert "variant_partner_matches" in d["sections"]


def test_condition_scalar_is_linear_in_parameters(ctx):
    for fi, gj in PAIR_ORDER:
        c00 = condition_scalar(ctx, Fraction(0), Fraction(0), fi, gj)
        c10 = condition_scalar(ctx, Fraction(1), Fraction(0), fi, gj)
        c01 = condition_scalar(ctx, Fraction(0), Fraction(1), fi, gj)
        got = condition_scalar(ctx, Fraction(2), Fraction(-3), fi, gj)
        assert got == c00 + 2 * (c10 - c00) + (-3) * (c01 - c00)


def test_fgi_polynomials_reading_switch(ctx):
    adjusted = fgi_polynomials(ctx, Fraction(1), Fraction(1))
    given = fgi_polynomials(ctx, Fraction(1), Fraction(1), reading="given")
    assert not (adjusted[5] - given[5]).is_zero()  # g2 slot
    for i in (0, 1, 2, 3, 4, 6, 7):
        assert (adjusted[i] - given[i]).is_zero()
