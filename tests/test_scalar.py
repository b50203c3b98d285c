"""Exact scalar layer: rational functions, quantum integers, guards.

The arithmetic here backs every residual check in the package, so the ring
and field axioms get property-based coverage rather than a handful of
spot values.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import sympy

from vpq.scalar import (
    GuardError,
    Poly,
    RationalFunction,
    ScalarContext,
    _prs_gcd,
    is_zero,
    parse_rational,
    pascal_residual,
    poly_divexact,
    poly_gcd,
    qint,
    reflection_residual,
    scalar_str,
)


small_fractions = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=6)


def _poly_from(coeffs):
    # coeffs: list of (c, i, j) -> sum c * p^i * q^j
    p, q = Poly.var("p"), Poly.var("q")
    total = Poly.const(0)
    for c, i, j in coeffs:
        term = Poly.const(c) * p ** i * q ** j
        total = total + term
    return total


poly_terms = st.lists(
    st.tuples(st.integers(-5, 5), st.integers(0, 3), st.integers(0, 3)),
    min_size=0, max_size=4)

polys = st.builds(_poly_from, poly_terms)


@given(polys, polys)
def test_poly_add_commutes(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_poly_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys, polys)
@settings(max_examples=60)
def test_poly_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys)
def test_poly_sub_self_is_zero(a):
    assert (a - a).is_zero()


@given(polys, st.integers(0, 4))
def test_poly_pow_matches_repeated_mul(a, n):
    expected = Poly.const(1)
    for _ in range(n):
        expected = expected * a
    assert a ** n == expected


def _rf_from(coeffs, dencoeffs):
    num = _poly_from(coeffs)
    den = _poly_from(dencoeffs) + Poly.const(1)  # keep it nonzero
    return RationalFunction(num, den)


rfs = st.builds(
    _rf_from,
    poly_terms,
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2),
                       st.integers(0, 2)), min_size=0, max_size=3))


@given(rfs, rfs)
def test_rf_add_commutes(a, b):
    assert a + b == b + a


def _rf(num, den):
    return RationalFunction(_poly_from(num), _poly_from(den))


@given(rfs, rfs, rfs)
@settings(max_examples=60)
# a triple whose gcds once took ~250 ms under the primitive PRS
@example(_rf([(4, 3, 0), (3, 0, 3)], [(1, 1, 2), (1, 0, 0)]),
         _rf([(1, 3, 0), (2, 0, 3)], [(1, 2, 2), (1, 0, 0)]),
         _rf([(1, 1, 0)], [(3, 2, 2), (3, 2, 0), (1, 0, 0)]))
def test_rf_field_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(rfs, rfs, rfs)
# 1/(p+1) + p/(p+1) = 1 cancels the shared denominator factor
@example(_rf([(1, 0, 0)], [(1, 1, 0), (1, 0, 0)]),
         _rf([(1, 1, 0)], [(1, 1, 0), (1, 0, 0)]),
         _rf([(1, 0, 0)], [(1, 1, 0)]))
def test_rf_sum_is_reduced_without_renormalising(a, b, c):
    # __add__ builds its result as already reduced, both when the summands'
    # denominators are coprime and when they share factors (a/c + b/c)
    sums = [a + (-a), a + b]
    if not c.is_zero():
        sums.append(a / c + b / c)
    for s in sums:
        g = poly_gcd(s.num, s.den)
        assert g.is_const() and g.const_value() == 1
        again = RationalFunction(s.num, s.den)
        assert (again.num, again.den) == (s.num, s.den)
    assert sums[0].is_zero() and sums[0].den == Poly.const(1)


_SYMS = sympy.symbols("p q a b")


def _to_sympy(poly):
    return sum((c * sympy.Mul(*[s ** k for s, k in zip(_SYMS, e)])
                for e, c in poly.terms.items()), sympy.Integer(0))


gcd_polys = st.builds(_poly_from, st.lists(
    st.tuples(st.integers(-9, 9), st.integers(0, 3), st.integers(0, 3)),
    min_size=1, max_size=4))


@given(gcd_polys, gcd_polys, gcd_polys, st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_poly_gcd_agrees_with_prs_and_sympy(f, g, h, k):
    # a common factor h (times an integer) makes the gcd nontrivial
    a, b = f * h * Poly.const(k), g * h
    ours = poly_gcd(a, b)
    prs = _prs_gcd(a, b)
    assert ours == (prs if prs.is_zero() or prs.lead_sign() > 0 else -prs)
    if not ours.is_zero():
        assert ours.lead_sign() > 0
        poly_divexact(a, ours)
        poly_divexact(b, ours)
    diff = sympy.expand(_to_sympy(ours) - sympy.gcd(_to_sympy(a), _to_sympy(b)))
    assert diff == 0 or sympy.expand(
        _to_sympy(ours) + sympy.gcd(_to_sympy(a), _to_sympy(b))) == 0


def test_poly_divexact_rejects_nondivisors_and_divides_zero():
    p, q = Poly.var("p"), Poly.var("q")
    with pytest.raises(ValueError):
        poly_divexact(p * p + q, p + q)
    with pytest.raises(ValueError):
        poly_divexact(p + Poly.const(1), p * q + Poly.const(1))
    assert poly_divexact(Poly(), p + q).is_zero()
    assert poly_divexact((p + q) * (p - q), p - q) == p + q


@given(rfs)
def test_rf_double_negation(a):
    assert -(-a) == a


@given(rfs, rfs)
def test_rf_div_undoes_mul(a, b):
    if b.is_zero():
        return
    assert (a * b) / b == a


@given(rfs)
def test_rf_eval_is_a_homomorphism(a):
    # one slot per variable: (p, q, a, b)
    pt = (Fraction(5, 3), Fraction(-7, 2), Fraction(1), Fraction(1))
    b = a * a + a
    try:
        av = a.eval(pt)
    except ZeroDivisionError:
        return  # denominator happens to vanish at the sample point
    assert b.eval(pt) == av * av + av


def test_parse_rational_accepts_fraction_strings():
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" 3/5 ") == Fraction(3, 5)


def test_parse_rational_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rational("x")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


def test_context_scalar_is_the_one_conversion(ctx, sym):
    for c in (ctx, sym):
        for v in (3, Fraction(3), "3", " 6/2 "):
            s = c.scalar(v)
            assert s == 3 and type(s) is type(c.p)
        assert c.scalar(c.p) is c.p
        assert c.zero == c.scalar(0) and c.one == c.scalar(1)
        for bad in ("1/0", "0.5", "x"):
            with pytest.raises(ValueError):
                c.scalar(bad)
        for bad in (0.5, 1e3, None, [1]):
            with pytest.raises(TypeError):
                c.scalar(bad)
    a = sym.var("a")
    assert sym.scalar(a) is a
    with pytest.raises(ValueError, match="symbolic parameter"):
        ctx.scalar(a)
    assert not hasattr(ScalarContext, "from_int")
    assert not hasattr(ScalarContext, "from_fraction")


def test_guard_rejects_degenerate_points():
    with pytest.raises(GuardError):
        ScalarContext.numeric(2, 2)  # p = q degenerates [n]
    with pytest.raises(GuardError):
        ScalarContext.numeric(1, -1)
    with pytest.raises(GuardError):
        ScalarContext.numeric(-2, 2)  # q/p = -1 is a root of unity
    with pytest.raises(GuardError):
        ScalarContext.numeric(0, 3)


def test_guard_rejects_q_minus_p_at_any_window():
    # the only rational roots of unity are +-1, so the guard is closed form
    for window in (1, 2, 64):
        with pytest.raises(GuardError):
            ScalarContext.numeric(2, -2, guard_window=window)
        with pytest.raises(GuardError):
            ScalarContext.symbolic("-3/2", "3/2", guard_window=window)
    # a huge window costs nothing and is still echoed
    big = ScalarContext.numeric("5/2", "-3/4", guard_window=10 ** 7)
    assert big.describe()["guard"]["window"] == 10 ** 7


@pytest.mark.parametrize("make", [
    lambda: ScalarContext.numeric("5/2", "-3/4"),
    lambda: ScalarContext.symbolic("2", "3"),
    ScalarContext.symbolic,
])
def test_context_caches_match_direct_powers(make):
    c = make()
    p, q = c.p, c.q
    for n in range(-5, 6):
        for _ in range(2):  # a miss, then a hit
            assert c.ppow(n) == p ** n
            assert c.qpow(n) == q ** n
            assert c.qint(n) == (p ** n - q ** n) / (p - q)
            assert c.upow(n) == p ** -n * q ** n == (q / p) ** n
            assert c.hq(n) == p ** -n * qint(c, n)
        assert c.hq(n) is c.hq(n)


def test_caches_belong_to_their_context():
    c23 = ScalarContext.numeric(2, 3)
    c57 = ScalarContext.numeric(5, 7)
    assert c23.hq(3) == Fraction(19, 8)
    assert c57.hq(3) == Fraction(109, 125)
    assert c23.upow(-2) == Fraction(4, 9) and c57.upow(-2) == Fraction(25, 49)


def test_is_zero_is_exact_on_both_backends(sym):
    assert is_zero(0) and is_zero(Fraction(0)) and is_zero(sym.zero)
    assert not is_zero(Fraction(1, 10 ** 30))
    assert not is_zero(sym.qint(2))
    assert is_zero(sym.qint(2) - sym.p - sym.q)


def test_quantum_integer_values(ctx):
    # [n] = (p^n - q^n)/(p - q) at p=2, q=3
    assert qint(ctx, 0) == 0
    assert qint(ctx, 1) == 1
    assert qint(ctx, 2) == 5
    assert qint(ctx, 3) == 19
    assert qint(ctx, -1) == Fraction(-1, 6)


def test_quantum_integer_symbolic(sym):
    assert scalar_str(sym.qint(2)) == "p + q"
    assert sym.is_zero(sym.qint(0))


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_pascal_rule(ctx, m, n):
    # [m+n] = p^n [m] + q^m [n]
    assert pascal_residual(ctx, m, n) == 0


@given(st.integers(-20, 20))
def test_reflection_rule(ctx, n):
    # [-n] = -(pq)^{-n} [n]
    assert reflection_residual(ctx, n) == 0


def test_pascal_and_reflection_formal(sym):
    for m in range(-6, 7):
        assert sym.is_zero(reflection_residual(sym, m))
        for n in range(-6, 7):
            assert sym.is_zero(pascal_residual(sym, m, n))


@given(st.integers(-12, 12))
def test_qint_matches_sympy_closed_form(n):
    """Cross-check against an independent evaluation of the closed form."""
    p, q = sympy.Rational(5, 2), sympy.Rational(-3, 4)
    expected = (p ** n - q ** n) / (p - q)
    ctx = ScalarContext.numeric("5/2", "-3/4")
    assert qint(ctx, n) == Fraction(int(expected.p), int(expected.q))


def test_symbolic_qint_matches_sympy():
    p, q = sympy.symbols("p q")
    sctx = ScalarContext.symbolic()
    for n in range(-5, 6):
        ours = sympy.sympify(scalar_str(qint(sctx, n)))
        theirs = (p ** n - q ** n) / (p - q)
        assert sympy.simplify(ours - theirs) == 0


def test_context_describe_round_trips():
    ctx = ScalarContext.numeric("5/2", "-3/4", guard_window=32)
    d = ctx.describe()
    assert d["backend"] == "numeric"
    assert d["p"] == "5/2" and d["q"] == "-3/4"
    assert d["guard"]["window"] == 32


def test_symbolic_context_accepts_pinned_constants():
    sctx = ScalarContext.symbolic("2", "3")
    assert sctx.is_zero(sctx.qint(2) - 5)
