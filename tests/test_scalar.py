"""Exact scalar layer: rational functions, quantum integers, guards.

The arithmetic here backs every residual check in the package, so the ring
and field axioms get property-based coverage rather than a handful of
spot values.
"""

import inspect
import math
import operator
import re
import types
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import sympy

from vpq import cli, scalar, suite
from vpq.algebra import hom_jacobi_residual, skew_residual, verify_algebra
from vpq.classify import identity_audit, l2_display_audit
from vpq.modules import ExcBetaPrime, Mab, relation_residual, verify_module
from vpq.scalar import (
    _EMAX,
    VARS,
    GuardError,
    Poly,
    RationalFunction,
    ScalarContext,
    _interpolate,
    _prs_gcd,
    _unpack,
    is_zero,
    parse_rational,
    pascal_residual,
    poly_divexact,
    poly_gcd,
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
    assert hash(a + b) == hash(b + a)


@given(polys, polys, polys)
def test_poly_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys, polys)
@settings(max_examples=60)
def test_poly_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys, polys)
@example(Poly.const(3), Poly.const(3))
@example(Poly.const(-1), Poly())
def test_poly_sub_self_is_zero(a, r):
    assert (a - a).is_zero()
    # subtraction in place drops zero sums, as addition does
    for x in (r, a, a + r, -a):
        assert a - x == a + (-x)


ground_ints = st.one_of(st.sampled_from((0, 1, -1)), st.integers(),
                        st.integers(2 ** 64, 2 ** 200).map(lambda x: -x),
                        st.integers(2 ** 64, 2 ** 200))


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(4), 0.5, None,
                                 0, 3, 2 ** 70])
def test_poly_rejects_an_operand_that_is_no_poly(bad):
    # ring_sum is where ints and Polys meet; the operators take Polys only
    assert not any(hasattr(Poly, name)
                   for name in ("__radd__", "__rsub__", "__rmul__"))
    p = Poly.var("p") + Poly.const(1)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(p, bad)
        with pytest.raises(TypeError):
            op(bad, p)


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


_SYMS = sympy.symbols(VARS)


def _to_sympy(poly):
    return sum((c * sympy.Mul(*[s ** k for s, k in zip(_SYMS, _unpack(e))])
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


# -- constant denominators, as every value at a rational point has ----------

const_den_rfs = st.builds(
    lambda terms, d: RationalFunction(_poly_from(terms), Poly.const(d)),
    poly_terms, st.integers(1, 12))


def _unreduced_parts(x):
    if isinstance(x, RationalFunction):
        return x.num, x.den
    return Poly.const(x.numerator), Poly.const(x.denominator)


@given(const_den_rfs, st.one_of(const_den_rfs, st.integers(-6, 6),
                                small_fractions))
@settings(max_examples=80, deadline=None)
@example(RationalFunction(Poly.const(1), Poly.const(6)), Fraction(-1, 6))
@example(RationalFunction(_poly_from([(4, 1, 0), (2, 0, 0)]), Poly.const(3)),
         RationalFunction(_poly_from([(3, 0, 1)]), Poly.const(8)))
def test_constant_denominators_reduce_as_the_unreduced_quotient(x, y):
    # the int gcd path gives the normal form RationalFunction builds from
    # the unreduced parts by poly_gcd, and the value sympy's cancel gives,
    # whichever side an int or a Fraction operand is on
    (xn, xd), (yn, yd) = _unreduced_parts(x), _unreduced_parts(y)
    cases = [(x + y, xn * yd + yn * xd, xd * yd),
             (y + x, xn * yd + yn * xd, xd * yd),
             (x - y, xn * yd - yn * xd, xd * yd),
             (y - x, yn * xd - xn * yd, xd * yd),
             (x * y, xn * yn, xd * yd),
             (y * x, xn * yn, xd * yd)]
    if not yn.is_zero():
        cases.append((x / y, xn * yd, xd * yn))
    if not xn.is_zero():
        cases.append((y / x, yn * xd, yd * xn))
    for got, num, den in cases:
        want = RationalFunction(num, den)
        assert (got.num, got.den) == (want.num, want.den)
        assert sympy.cancel(_to_sympy(got.num) / _to_sympy(got.den)
                            - _to_sympy(num) / _to_sympy(den)) == 0


def test_rf_ops_at_a_point_call_no_poly_gcd(monkeypatch):
    # with formal a, b at (2,3) every denominator is constant, so the
    # audits' RationalFunction ops reduce by int gcds alone; a gcd in
    # RationalFunction(...) itself, as ctx.join builds, is not an op
    ctx = ScalarContext.symbolic("2", "3")
    a, b = ctx.var("a"), ctx.var("b")
    depth, ops, gcds = [0], [], []

    def op(real):
        def wrapper(*args):
            ops.append(1)
            depth[0] += 1
            try:
                return real(*args)
            finally:
                depth[0] -= 1
        return wrapper

    def gcd(f, g):
        gcds.append(depth[0] > 0)
        return real_gcd(f, g)

    real_gcd = scalar.poly_gcd
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(RationalFunction, name,
                            op(vars(RationalFunction)[name]))
    monkeypatch.setattr(scalar, "poly_gcd", gcd)
    identity_audit(ctx, a, b)
    l2_display_audit(ctx, a, b, 6)
    audits = (len(ops), gcds.count(True))
    del gcds[:]
    (a + 1) / (b - 2) + a / b     # control: non-constant denominators
    monkeypatch.undo()
    assert audits[0] > 500 and audits[1] == 0
    assert any(gcds)


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
    with pytest.raises(GuardError):
        ScalarContext.numeric(2, -2)
    with pytest.raises(GuardError):
        ScalarContext.symbolic("-3/2", "3/2")


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
            assert c.hq(n) == p ** -n * c.qint(n)
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
    # exact types take the fast road, their subclasses the isinstance one

    class Int(int):
        pass

    class Frac(Fraction):
        pass

    assert is_zero(False) and not is_zero(True)
    assert is_zero(Int(0)) and not is_zero(Int(-4))
    assert is_zero(Frac(0, 3)) and not is_zero(Frac(1, 3))
    assert is_zero(Poly()) and not is_zero(Poly.var("p"))
    # a float residual such as -2.8e-17 is rounding, not an exact scalar
    for bad in (0.0, 0.3, -2.7755575615628914e-17, Fraction(2) - 0.5,
                "0", None):
        with pytest.raises(TypeError, match="not an exact scalar"):
            is_zero(bad)


def test_exact_parts_split_a_scalar_of_either_backend(sym):
    # ctx.parts is the one split; a Fraction or an int gives ints under
    # every context, and anything else is no exact scalar
    n23 = ScalarContext.numeric("2", "3")
    s23 = ScalarContext.symbolic("2", "3")
    for c in (n23, s23, sym):
        assert c.parts(Fraction(-6, 4)) == (-3, 2)
        assert c.parts(7) == (7, 1)
        for bad in (0.5, "1/2", None):
            with pytest.raises(TypeError, match="not an exact scalar"):
                c.parts(bad)
    x = sym.qint(-2)
    num, den = sym.parts(x)
    assert (num, den) == (x.num, x.den)
    assert RationalFunction(num, den) == x
    # a constant part is an int on the symbolic backend too, each part on
    # its own
    for v, want in ((s23.hq(3), (19, 8)), (s23.zero, (0, 1)),
                    (s23.upow(-2), (4, 9))):
        num, den = s23.parts(v)
        assert (num, den) == want and type(num) is type(den) is int
    a, b = s23.var("a"), s23.var("b")
    num, den = s23.parts(a + b * s23.hq(3))
    assert isinstance(num, Poly) and str(num) == "8*a + 19*b"
    assert den == 8 and type(den) is int
    # ctx.join is its inverse, and reduces unreduced parts
    for c, v in ((n23, n23.hq(-2)), (s23, s23.hq(3)),
                 (s23, a + b * s23.hq(3)), (sym, sym.qint(-2)),
                 (sym, sym.var("a") / sym.hq(2))):
        num, den = c.parts(v)
        assert type(c.join(num, den)) is type(v) and c.join(num, den) == v
        assert str(c.join(scalar.ring_sum((-6, num)),
                          scalar.ring_sum((-6, den)))) == str(v)


def test_context_parts_ground_only_at_a_point(sym):
    # at a point both backends give the same int parts where constant; at
    # formal p, q both parts stay Polys whatever the exponent's sign
    s23 = ScalarContext.symbolic("2", "3")
    n23 = ScalarContext.numeric("2", "3")
    for k in (-2, 0, 3):
        for sv, nv in ((s23.hq(k), n23.hq(k)), (s23.upow(k), n23.upow(k))):
            got = s23.parts(sv)
            assert got == n23.parts(nv) and type(got[0]) is int
    assert n23.parts(n23.hq(-2)) == s23.parts(s23.hq(-2)) == (-5, 9)
    num, den = s23.parts(s23.var("a") + s23.hq(2))
    assert isinstance(num, Poly) and str(num) == "4*a + 5"
    assert den == 4 and type(den) is int
    for v in (sym.qint(2), sym.ppow(-1), sym.upow(0), sym.hq(0), sym.one):
        got = sym.parts(v)
        assert got == (v.num, v.den)
        assert all(isinstance(x, Poly) for x in got)


@pytest.mark.parametrize("make", [
    lambda: ScalarContext.numeric("5/2", "-3/4"),
    lambda: ScalarContext.symbolic("2", "3"),
    ScalarContext.symbolic,
])
def test_split_holds_the_parts_of_each_cached_value(make):
    # ctx.split(name, n) is ctx.parts of the cached value, split once: a
    # second read hands back the same pair
    c = make()
    for name in ("ppow", "qpow", "qint", "upow", "hq"):
        for n in range(-25, 26):
            got = c.split(name, n)
            assert got == c.parts(getattr(c, name)(n)), (name, n)
            assert c.split(name, n) is got


def test_formal_qint_is_built_in_normal_form():
    # [n] at formal p, q is built without a division; its parts are those
    # of the reduced quotient (p^n - q^n)/(p - q), n = 0 included
    c = ScalarContext.symbolic()
    p, q = c.p, c.q
    for n in range(-45, 46):
        got = c.qint(n)
        want = (p ** n - q ** n) / (p - q)
        assert (got.num, got.den) == (want.num, want.den), n


def test_quantum_integer_values(ctx):
    # [n] = (p^n - q^n)/(p - q) at p=2, q=3
    assert ctx.qint(0) == 0
    assert ctx.qint(1) == 1
    assert ctx.qint(2) == 5
    assert ctx.qint(3) == 19
    assert ctx.qint(-1) == Fraction(-1, 6)


def test_quantum_integer_symbolic(sym):
    assert scalar_str(sym.qint(2)) == "p + q"
    assert is_zero(sym.qint(0))


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
        assert is_zero(reflection_residual(sym, m))
        for n in range(-6, 7):
            assert is_zero(pascal_residual(sym, m, n))


@given(st.integers(-12, 12))
def test_qint_matches_sympy_closed_form(n):
    """Cross-check against an independent evaluation of the closed form."""
    p, q = sympy.Rational(5, 2), sympy.Rational(-3, 4)
    expected = (p ** n - q ** n) / (p - q)
    ctx = ScalarContext.numeric("5/2", "-3/4")
    assert ctx.qint(n) == Fraction(int(expected.p), int(expected.q))


def test_symbolic_qint_matches_sympy():
    p, q = sympy.symbols("p q")
    sctx = ScalarContext.symbolic()
    for n in range(-5, 6):
        ours = sympy.sympify(scalar_str(sctx.qint(n)))
        theirs = (p ** n - q ** n) / (p - q)
        assert sympy.simplify(ours - theirs) == 0


def test_context_describe_round_trips():
    ctx = ScalarContext.numeric("5/2", "-3/4")
    d = ctx.describe()
    assert d["backend"] == "numeric"
    assert d["p"] == "5/2" and d["q"] == "-3/4"
    assert d["guard"] == {"mode": "rational-point"}


def test_symbolic_context_accepts_pinned_constants():
    sctx = ScalarContext.symbolic("2", "3")
    assert is_zero(sctx.qint(2) - 5)


def test_method_twins_are_gone():
    import vpq
    from vpq import classify, modules
    assert not hasattr(ScalarContext, "is_zero")
    assert not hasattr(scalar, "qint")
    assert not hasattr(modules, "coeff")
    assert not hasattr(RationalFunction, "from_int")
    assert not hasattr(RationalFunction, "from_fraction")
    assert not hasattr(classify.XPolynomial, "x")
    assert not {"coeff", "qint"} & set(vpq.__all__)


# -- packed monomials ----------------------------------------------------------

def _monomial(exps, mod=scalar):
    """The packed key of prod VARS[i]^exps[i], built through Poly."""
    m = mod.Poly.const(1)
    for name, d in zip(VARS, exps):
        m = m * mod.Poly.var(name) ** d
    (e, c), = m.terms.items()
    assert c == 1
    return e


exponents = st.tuples(*[st.integers(0, 40)] * len(VARS))


@given(exponents, exponents)
def test_packed_order_is_lex_order(x, y):
    ex, ey = _monomial(x), _monomial(y)
    assert _unpack(ex) == x and _unpack(ey) == y
    assert (ex < ey) == (x < y) and (ex == ey) == (x == y)


def test_exponent_past_the_field_raises_instead_of_carrying():
    p, q, b = Poly.var("p"), Poly.var("q"), Poly.var("b")
    for v in (p, b):    # the top field and the lowest one
        assert v ** 16383 * v ** 16384 == v ** _EMAX
        with pytest.raises(ValueError, match="exponent above 32767"):
            v ** 20000 * v ** 20000
        with pytest.raises(ValueError, match="exponent above 32767"):
            (v * Poly.const(3)) ** (_EMAX + 1)
        with pytest.raises(ValueError, match="exponent above 32767"):
            (v ** 16384) ** 2
    with pytest.raises(ValueError, match="exponent above 32767"):
        (p + b ** 20000) * (q + b ** 20000)
    assert str(b ** _EMAX * p) == "p*b^32767"
    # balanced base-2 digits of 2^32768: one digit, at index 32768
    assert str(_interpolate(Poly.const(2 ** _EMAX), VARS.index("q"), 2)) \
        == "q^32767"
    with pytest.raises(ValueError, match="exponent above 32767"):
        _interpolate(Poly.const(2 ** (_EMAX + 1)), VARS.index("q"), 2)


# -- ring_sum, the fused kernel of the fraction-free numerators ---------------

def _term_poly(terms):
    """sum c·prod VARS[i]^exps[i] over (c, exps) in terms, by Poly operators."""
    total = Poly()
    for c, exps in terms:
        m = Poly.const(c)
        for name, d in zip(VARS, exps):
            m = m * Poly.var(name) ** d
        total = total + m
    return total


def _terms(exps, size):
    return st.lists(st.tuples(st.integers(-9, 9).filter(bool), exps),
                    min_size=size[0], max_size=size[1])


small_exps = st.tuples(*[st.integers(0, 3)] * len(VARS))
# exponents near the limit, so that a product of two or three passes it
large_exps = st.tuples(*[st.sampled_from((0, 1, 16383, 16384, _EMAX - 1,
                                          _EMAX))] * len(VARS))

ring_factors = st.one_of(
    ground_ints, st.just(Poly()),
    _terms(small_exps, (1, 1)).map(_term_poly),     # monomials
    _terms(small_exps, (2, 5)).map(_term_poly))
nonzero_large_factors = st.one_of(
    st.integers(-5, 5).filter(bool),
    _terms(large_exps, (1, 3)).map(_term_poly).filter(bool))


def _by_operators(products):
    """The sum of the products, each multiplied out left to right by the
    Poly operators, with every int factor lifted by Poly.const; an int when
    no factor is a Poly."""
    total = Poly()
    for factors in products:
        acc = Poly.const(1)
        for f in factors:
            acc = acc * (Poly.const(f) if type(f) is int else f)
        total = total + acc
    if all(type(f) is int for factors in products for f in factors):
        return total.const_value()
    return total


def _passes_emax(factors):
    """Whether the product of these nonzero factors has a degree above
    _EMAX in some variable."""
    return any(sum(f.degree_in(i) for f in factors if isinstance(f, Poly))
               > _EMAX for i in range(len(VARS)))


_P, _Q, _A, _B = map(Poly.var, ("p", "q", "a", "b"))


@given(st.lists(st.lists(ring_factors, max_size=5).map(tuple), max_size=4))
@settings(max_examples=150, derandomize=True, deadline=None)
# products with 0, 1, 2 and 3 multi-term factors: the last two go straight
# into the sum, and a third is multiplied out first
@example([(3, _P, -2), (5, _Q * _A)])
@example([(2, _P + _Q, _B), (-1, _Q, _P + _Q * _A)])
@example([(_P + _Q, -3, _A - _B), (_A - _B, _Q + _P), (7, _P * _Q)])
@example([(_P + _Q + _A, _A, _B - _Q, _P - _A * _B),
          (-1, _B - _Q, _P + _Q + _A, _P * _A - _A * _A * _B)])
def test_ring_sum_matches_the_poly_operators(products):
    got = scalar.ring_sum(*products)
    want = _by_operators(products)
    assert got == want
    # an int exactly when no factor is a Poly
    assert type(got) is type(want)
    assert (type(got) is int) == all(type(f) is int
                                      for factors in products
                                      for f in factors)


@given(st.lists(st.lists(nonzero_large_factors, min_size=1, max_size=4)
                .map(tuple), min_size=1, max_size=3))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_ring_sum_raises_past_emax_as_the_operators_do(products):
    if any(map(_passes_emax, products)):
        with pytest.raises(ValueError, match="exponent above 32767"):
            scalar.ring_sum(*products)
        with pytest.raises(ValueError, match="exponent above 32767"):
            _by_operators(products)
    else:
        assert scalar.ring_sum(*products) == _by_operators(products)


def test_ring_sum_raises_on_a_term_that_cancels_and_on_a_carry():
    p, q, b = Poly.var("p"), Poly.var("q"), Poly.var("b")
    top, half = b ** _EMAX, b ** 16384
    assert scalar.ring_sum((top, -1, p), (p, top)) == Poly()
    for products in (
            # b^32768 cancels between the two products
            ((top, b), (-1, b, top)),
            ((half + q, 2, half), (-2, half, half + q)),
            # b^32767·b^32767·b^2 would carry into a's field as a·b^0
            ((top, top, b ** 2),),
            ((3, top, q, top, b),),
            ((top, top, top),),
            # and so would every term of the two multi-term factors
            ((top, top + top * q, b ** 2 + b ** 2 * q),),
            # the partial key b^32767·b^32767 of the penultimate factor
            # sets the guard bit, which b^2 would carry away, and the two
            # products cancel
            ((top, top + q, b ** 2 + p), (-1, top, top + q, b ** 2 + p)),
            ((top + q, top + p, b ** 2 + q),
             (-1, top + q, top + p, b ** 2 + q))):
        with pytest.raises(ValueError, match="exponent above 32767"):
            scalar.ring_sum(*products)


def test_exponent_overflow_is_a_usage_error_in_the_cli(capsys, monkeypatch):
    def overflowing(ctx, spec, rng):
        p = Poly.var("p")
        return p ** 20000 * p ** 20000

    monkeypatch.setitem(suite._HANDLERS, "verify-algebra", overflowing)
    rc = cli.main(["verify-algebra", "--window", "1"])
    out = capsys.readouterr()
    assert rc == 2 and out.out == ""
    assert out.err == "vpq: exponent above 32767, the limit of a packed " \
        "monomial\n"


_VARS_LINE = re.compile(r"^VARS = \(.*\)$", re.M)


def _scalar_module(names):
    """vpq.scalar's own source, executed afresh with VARS = names."""
    text, found = _VARS_LINE.subn(lambda m: "VARS = %r" % (names,),
                                  inspect.getsource(scalar))
    assert found == 1
    mod = types.ModuleType("vpq_scalar_%d" % len(names))
    exec(compile(text, scalar.__file__, "exec"), mod.__dict__)
    return mod


# a 4-field layout and a 7-field one, whatever VARS holds
_NARROW = _scalar_module(VARS[:4])
_WIDE = _scalar_module(VARS[:4] + ("U", "V", "W"))

four_var_terms = st.lists(
    st.tuples(st.integers(-5, 5), *[st.integers(0, 3)] * 4),
    min_size=1, max_size=4)


def _poly_in(mod, terms):
    total = mod.Poly()
    for c, *exps in terms:
        total = total + mod.Poly.const(c) * mod.Poly(
            {_monomial(exps, mod): 1})
    return total


@given(four_var_terms, four_var_terms, four_var_terms)
@settings(max_examples=40, deadline=None)
def test_seven_variable_layout_prints_four_variable_polys_identically(
        f, g, h):
    assume(not _poly_in(_NARROW, g).is_zero())
    assume(not _poly_in(_NARROW, h).is_zero())
    outs = []
    for mod in (_NARROW, _WIDE):
        pf, pg, ph = (_poly_in(mod, t) for t in (f, g, h))
        prod = pf * pg * ph
        outs.append([
            str(pf), str(prod), str(ph ** 3),
            str(mod.poly_divexact(prod, pg)),
            str(mod.poly_gcd(pf * ph, pg * ph)),
            str(mod.RationalFunction(pf, pg) + mod.RationalFunction(ph, pg)),
            str(mod.RationalFunction(pf * ph, pg * ph)),
        ])
    assert outs[0] == outs[1]


def test_seven_variable_layout_orders_new_variables_last():
    u, p = _WIDE.Poly.var("U"), _WIDE.Poly.var("p")
    w = _WIDE.Poly.var("W")
    assert str((u + p) * (u - w)) == "p*U - p*W + U^2 - U*W"
    assert _WIDE.poly_gcd(u * p * p, u * u * w) == u


@pytest.mark.parametrize("const", [1, -1, 6, -4])
@pytest.mark.parametrize("other", [
    [(1, 1, 0), (2, 0, 1)],         # p + 2q, content 1
    [(3, 1, 1), (-2, 0, 0)],        # 3pq - 2, content 1
    [(4, 1, 0), (6, 0, 2)],         # 4p + 6q^2, content 2
    [(6, 2, 0), (-9, 0, 0)],        # 6p^2 - 9, content 3
    [(-12, 0, 0)],
    [(1, 0, 0)],
])
def test_trivial_gcd_constant_branch(const, other):
    """With a constant operand the gcd is the gcd of the two contents, in
    either order and also when the constant is ±1; checked against the PRS
    and sympy."""
    c, b = Poly.const(const), _poly_from(other)
    want = Poly.const(math.gcd(const, b.content()))
    for x, y in ((c, b), (b, c)):
        assert scalar._trivial_gcd(x, y) == want
        assert _prs_gcd(x, y) == want
        assert sympy.gcd(_to_sympy(x), _to_sympy(y)) == _to_sympy(want)


def test_prs_fallback_gives_the_same_reports(monkeypatch):
    """The formal sweeps come out the same with the heuristic gcd off, so
    _prs_gcd, _prem, _content_in and _coeffs_in are checked end to end.
    The sweeps judge zero residuals by numerators and reduce only the
    context's one-index values, so the single skew and twisted Jacobi
    residuals, which reduce every sum, bring the PRS calls over a
    hundred."""
    def reports():
        f = ScalarContext.symbolic()
        w = range(-6, 7)
        return [verify_module(f, Mab(f.var("a"), f.var("b")), 2, 3).to_dict(),
                verify_algebra(f, window=7).to_dict(),
                [str(skew_residual(f, n, m)) for n in w for m in w],
                [str(hom_jacobi_residual(f, k, l, m))
                 for k in w for l in w for m in w if k <= l <= m]]

    heuristic = reports()
    prs_calls = []
    prs = scalar._prs_gcd

    def counting(a, b):
        prs_calls.append(1)
        return prs(a, b)

    monkeypatch.setattr(scalar, "_HEU_TRIES", 0)
    monkeypatch.setattr(scalar, "_prs_gcd", counting)
    assert reports() == heuristic
    assert len(prs_calls) > 100


# -- evaluation homomorphism ----------------------------------------------------

_NMAX, _KMAX = 2, 2


@pytest.fixture(scope="module")
def formal_values():
    """Formal Mab coefficients and residuals, and the nonzero residuals of
    the betap "given" reading, keyed by what they are."""
    f = ScalarContext.symbolic()
    a, b = f.var("a"), f.var("b")
    mab, given = Mab(a, b), ExcBetaPrime(a, reading="given")
    out = {}
    pairs = range(-_NMAX, _NMAX + 1)
    for n in range(-2 * _NMAX, 2 * _NMAX + 1):
        for k in range(-_KMAX - _NMAX, _KMAX + _NMAX + 1):
            out["coeff", n, k] = mab.coeff(f, n, k)
    for n in pairs:
        for m in pairs:
            for k in range(-_KMAX, _KMAX + 1):
                out["mab", n, m, k] = relation_residual(f, mab, n, m, k)
                out["given", n, m, k] = relation_residual(f, given, n, m, k)
    assert sum(not v.is_zero() for v in out.values()) > 20
    return out


nonzero_fractions = small_fractions.filter(bool)


@given(nonzero_fractions, nonzero_fractions, small_fractions, small_fractions)
@settings(max_examples=25, deadline=None)
def test_formal_values_evaluate_to_the_numeric_ones(formal_values, p, q, a, b):
    try:
        ctx = ScalarContext.numeric(p, q)
    except GuardError:
        assume(False)
    mab, given = Mab(a, b), ExcBetaPrime(a, reading="given")
    for key, value in formal_values.items():
        kind, *idx = key
        if kind == "coeff":
            expected = mab.coeff(ctx, *idx)
        else:
            expected = relation_residual(
                ctx, mab if kind == "mab" else given, *idx)
        assert value.eval((p, q, a, b)) == expected, key
