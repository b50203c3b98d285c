"""Bracket structure: skew symmetry, twisted Jacobi, central term."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vpq import algebra
from vpq.algebra import (
    AlgebraElement,
    central_coefficient,
    eta,
    generation_check,
    hom_jacobi_residual,
    skew_residual,
    verify_algebra,
)
from vpq.scalar import ScalarContext, is_zero


idx = st.integers(-8, 8)


# -- oracles: the bracket and the twisting map on algebra elements ---------
#
# The library sums each axiom residual from structure constants; these
# compose it from elements instead, as a reference the kernels must equal.

def _generator(ctx, n, scale=1):
    return AlgebraElement({int(n): ctx.one * scale}, ctx.zero)


def _center(ctx):
    return AlgebraElement({}, ctx.one)


def _zero(ctx):
    return AlgebraElement({}, ctx.zero)


def _add(x, y):
    # AlgebraElement drops the coefficients that sum to zero
    coeffs = dict(x.coeffs)
    for n, c in y.coeffs.items():
        coeffs[n] = coeffs.get(n, 0) + c
    return AlgebraElement(coeffs, x.central + y.central)


def _sub(x, y):
    return _add(x, AlgebraElement({n: -c for n, c in y.coeffs.items()},
                                  -y.central))


def _scale(x, s):
    return AlgebraElement({n: c * s for n, c in x.coeffs.items()},
                          x.central * s)


def bracket(ctx, x, y):
    """Bilinear bracket; C is central, so central parts of x,y drop out.
    The structure constants are read through `algebra`, so a test that
    perturbs them there perturbs the bracket too."""
    out = _zero(ctx)
    for n, cn in x.coeffs.items():
        for m, cm in y.coeffs.items():
            s = cn * cm
            term = {n + m: algebra.eta(ctx, n, m) * s}
            z = (algebra.central_coefficient(ctx, n) * s if n + m == 0
                 else ctx.zero)
            out = _add(out, AlgebraElement(term, z))
    return out


def hom_twist(ctx, x):
    """The twisting map: L_n -> (1 + (q/p)^n) L_n, C -> C."""
    return AlgebraElement(
        {n: c * (1 + ctx.upow(n)) for n, c in x.coeffs.items()}, x.central)


@given(idx, idx)
def test_skew_symmetry(ctx, n, m):
    assert skew_residual(ctx, n, m).is_zero()


@given(idx, idx, idx)
@settings(max_examples=150)
def test_twisted_jacobi_including_center(ctx, k, l, m):
    assert hom_jacobi_residual(ctx, k, l, m).is_zero()


@given(idx, idx)
def test_central_part_drops_from_nested_brackets(ctx, k, l):
    # [x, C] = 0 for every x, so nesting against the center is inert
    x = _generator(ctx, k)
    c = _center(ctx)
    assert bracket(ctx, x, c).is_zero()
    assert bracket(ctx, c, x).is_zero()


def test_central_cocycle_vanishes_on_zero_sum_triples(ctx):
    for k in range(-6, 7):
        for l in range(-6, 7):
            m = -k - l
            if abs(m) > 6:
                continue
            assert hom_jacobi_residual(ctx, k, l, m).central == 0


def test_structure_constant_values(ctx):
    # eta(n, m) = [n]/p^n - [m]/p^m
    assert eta(ctx, 1, 0) == Fraction(1, 2)
    assert eta(ctx, 2, 1) == Fraction(5, 4) - Fraction(1, 2)
    assert eta(ctx, 1, 1) == 0


def test_central_coefficient_values(ctx):
    # the anomaly weight attached to [L_n, L_{-n}]
    assert central_coefficient(ctx, 0) == 0
    assert central_coefficient(ctx, 1) == 0  # [0] factor kills it
    assert central_coefficient(ctx, 2) == Fraction(95, 2808)
    assert central_coefficient(ctx, 3) == Fraction(1235, 9072)
    # skew symmetry of the bracket forces an odd anomaly weight
    assert central_coefficient(ctx, -2) == -central_coefficient(ctx, 2)


def test_bracket_of_generators(ctx):
    x = _generator(ctx, 1)
    y = _generator(ctx, 2)
    z = bracket(ctx, x, y)
    assert set(z.coeffs) == {3}
    assert z.coeffs[3] == eta(ctx, 1, 2)
    assert z.central == 0


def test_bracket_central_term_on_opposite_pair(ctx):
    z = bracket(ctx, _generator(ctx, 2), _generator(ctx, -2))
    assert z.central == central_coefficient(ctx, 2)


@given(idx, idx, small := st.integers(-3, 3), st.integers(-3, 3))
def test_bracket_is_bilinear(ctx, n, m, s, t):
    x = _generator(ctx, n, scale=s)
    y = _generator(ctx, m, scale=t)
    lhs = bracket(ctx, x, y)
    rhs = _scale(bracket(ctx, _generator(ctx, n), _generator(ctx, m)), s * t)
    assert _sub(lhs, rhs).is_zero()


def test_twist_scales_each_generator(ctx):
    x = _generator(ctx, 3)
    tw = hom_twist(ctx, x)
    assert set(tw.coeffs) == {3}
    assert tw.coeffs[3] == 1 + Fraction(3, 2) ** 3


def test_twist_fixes_the_center(ctx):
    # the twisted Jacobi sweep never needs a twist on C; it stays put
    c = _center(ctx)
    tw = hom_twist(ctx, c)
    assert not tw.coeffs
    assert tw.central == c.central


def test_verify_algebra_sweep_is_clean(ctx):
    rep = verify_algebra(ctx, 4)
    assert rep.failed == 0
    assert rep.to_dict()["counts"]["checked"] > 0


def test_verify_algebra_at_other_points():
    for p, q in (("5", "7"), ("-3/2", "1/4")):
        rep = verify_algebra(ScalarContext.numeric(p, q), 3)
        assert rep.failed == 0


def test_verify_algebra_symbolic(sym):
    assert verify_algebra(sym, 2).failed == 0


def test_generation_reaches_every_window_index(ctx):
    rep = generation_check(ctx, 8)
    assert rep.failed == 0
    targets = {step["target"] for step in rep.to_dict()["sections"]["ladder"]}
    assert targets == {n for n in range(-8, 9) if abs(n) > 2}


def test_generation_ladder_coefficients_are_nonzero(ctx):
    for step in generation_check(ctx, 6).to_dict()["sections"]["ladder"]:
        assert Fraction(step["coefficient"]) != 0


# -- the structure-constant kernels against the bracket composition --------

def _composed_skew(ctx, n, m):
    ln = _generator(ctx, n)
    lm = _generator(ctx, m)
    return _add(bracket(ctx, ln, lm), bracket(ctx, lm, ln))


def _composed_jacobi(ctx, k, l, m):
    gens = [_generator(ctx, i) for i in (k, l, m)]
    acc = _zero(ctx)
    for i in range(3):
        x, y, z = gens[i], gens[(i + 1) % 3], gens[(i + 2) % 3]
        acc = _add(acc, bracket(ctx, hom_twist(ctx, x), bracket(ctx, y, z)))
    return acc


def _same(a, b):
    return _sub(a, b).is_zero() and str(a) == str(b)


@pytest.mark.parametrize("point", [(2, 3), ("5/2", "-3/4"), "formal"])
@pytest.mark.parametrize("perturbed", [False, True])
def test_kernels_equal_the_bracket_composition(monkeypatch, point, perturbed):
    """For |k|, |l|, |m| <= 4 the residuals summed from structure constants
    equal the bracket/twist composition, both for the true constants (all
    zero) and for perturbed ones that make every kind of term nonzero."""
    ctx = (ScalarContext.symbolic() if point == "formal"
           else ScalarContext.numeric(*point))
    if perturbed:
        true_eta, true_central = eta, central_coefficient
        monkeypatch.setattr(algebra, "eta", lambda c, n, m:
                            true_eta(c, n, m) + n - 2 * m)
        monkeypatch.setattr(algebra, "central_coefficient", lambda c, n:
                            true_central(c, n) + n * n)
    generator_parts = central_parts = 0
    window = range(-4, 5)
    for k in window:
        for l in window:
            got = skew_residual(ctx, k, l)
            assert _same(got, _composed_skew(ctx, k, l)), (k, l)
            for m in window:
                got = hom_jacobi_residual(ctx, k, l, m)
                assert _same(got, _composed_jacobi(ctx, k, l, m)), (k, l, m)
                generator_parts += bool(got.coeffs)
                central_parts += not is_zero(got.central)
    if perturbed:
        assert generator_parts > 500 and central_parts > 30
    else:
        assert generator_parts == central_parts == 0


def _failures(rep):
    return {f["identity"] for f in rep.to_dict()["failures"]}


def _wrong_structure_constants(monkeypatch, eta_scale=None, central_shift=None):
    """Perturb eta(n,m) to eta·eta_scale(n,m) and c(n) to
    c + central_shift(n), both as the single residuals read them (reduced
    values) and as verify_algebra's sweep reads them (numerator and
    denominator parts), so the two paths see the same wrong constants."""
    sc = algebra._StructureConstants
    if eta_scale is not None:
        true_eta, true_parts = eta, sc.eta
        monkeypatch.setattr(algebra, "eta", lambda c, n, m:
                            true_eta(c, n, m) * eta_scale(n, m))

        def eta_parts(self, n, m):
            num, den = true_parts(self, n, m)
            return num * eta_scale(n, m), den
        monkeypatch.setattr(sc, "eta", eta_parts)
    if central_shift is not None:
        true_central, true_parts = central_coefficient, sc.central
        monkeypatch.setattr(algebra, "central_coefficient", lambda c, n:
                            true_central(c, n) + central_shift(n))

        def central_parts(self, n):
            num, den = true_parts(self, n)
            return num + central_shift(n) * den, den
        monkeypatch.setattr(sc, "central", central_parts)


def test_verify_algebra_fails_on_a_wrong_central_coefficient(ctx, monkeypatch):
    # c(n) + n stays odd in n, so only the cocycle can see it
    _wrong_structure_constants(monkeypatch, central_shift=lambda n: n)
    rep = verify_algebra(ctx, 3)
    assert rep.failed > 0
    assert _failures(rep) == {"central-cocycle"}
    for f in rep.to_dict()["failures"]:
        detail = str(hom_jacobi_residual(ctx, *f["indices"]).central)
        assert f["residual"] == detail != "0"


def test_verify_algebra_fails_on_a_wrong_eta(ctx, monkeypatch):
    # eta(n,m)·(n-m)^2 stays antisymmetric, so skew symmetry still holds
    _wrong_structure_constants(monkeypatch, eta_scale=lambda n, m: (n - m) ** 2)
    rep = verify_algebra(ctx, 3)
    assert "hom-jacobi" in _failures(rep)
    assert "skew" not in _failures(rep)
    for f in rep.to_dict()["failures"]:
        if f["identity"] == "hom-jacobi":
            detail = str(hom_jacobi_residual(ctx, *f["indices"]))
            assert f["residual"] == detail != "0"
