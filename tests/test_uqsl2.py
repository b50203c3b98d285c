"""Finite-dimensional comparison representations for the one-parameter
quantum group, and their quadratic-in-x eigenvalue structure."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vpq.uqsl2 import (
    Uqsl2Rep,
    ef_coefficient,
    fe_coefficient,
    k_eigenvalue,
    one_param_qint,
    quadratic_in_x_fit,
    rep_relation_audit,
)


good_q = st.fractions(
    min_value=Fraction(-7), max_value=Fraction(7),
    max_denominator=5).filter(lambda q: q not in (0, 1, -1))


def test_balanced_qint_values():
    assert one_param_qint(2, 3) == Fraction(21, 4)
    assert one_param_qint(2, 0) == 0
    assert one_param_qint(2, 1) == 1
    assert one_param_qint(Fraction(3, 2), 2) == Fraction(13, 6)


def test_balanced_qint_rejects_degenerate_q():
    for q in (0, 1, -1):
        with pytest.raises(ValueError):
            one_param_qint(q, 2)


@given(good_q, st.integers(-10, 10))
def test_balanced_qint_is_odd_in_n(q, n):
    assert one_param_qint(q, -n) == -one_param_qint(q, n)


@given(good_q, st.integers(-10, 10))
def test_balanced_qint_inverts_with_q(q, n):
    # q -> 1/q fixes the balanced form
    assert one_param_qint(Fraction(1) / q, n) == one_param_qint(q, n)


def test_rep_validation():
    with pytest.raises(ValueError):
        Uqsl2Rep(2, 4, 2)  # omega must be a sign
    with pytest.raises(ValueError):
        Uqsl2Rep(1, -2, 2)
    with pytest.raises(ValueError):
        Uqsl2Rep(1, 4, 1)
    rep = Uqsl2Rep(-1, 5, Fraction(3, 2))
    assert rep.weights() == [-5, -3, -1, 1, 3, 5]


def test_rep_takes_exact_q_only():
    # in floats, whether ef-fe-commutator passes depends on rounding
    for q in (0.3, 0.5):
        with pytest.raises(TypeError, match="not an exact scalar"):
            Uqsl2Rep(1, 4, q)
        with pytest.raises(TypeError, match="not an exact scalar"):
            one_param_qint(q, 2)
    assert Uqsl2Rep(1, 4, "3/10").q == Fraction(3, 10)
    assert rep_relation_audit(Uqsl2Rep(1, 4, "3/10")).failed == 0
    with pytest.raises(ValueError, match="exact rational"):
        Uqsl2Rep(1, 4, "0.3")


def test_weight_parity_is_enforced():
    rep = Uqsl2Rep(1, 4, 2)
    with pytest.raises(ValueError):
        fe_coefficient(rep, 1)  # odd weight on an even ladder


def test_fe_coefficient_value():
    rep = Uqsl2Rep(1, 4, 2)
    assert fe_coefficient(rep, 0) == Fraction(105, 8)  # [2][3] at q=2


def test_k_eigenvalue_and_sign():
    rep = Uqsl2Rep(-1, 2, 3)
    assert k_eigenvalue(rep, 2) == -9
    assert k_eigenvalue(rep, -2) == Fraction(-1, 9)


@given(st.sampled_from([1, -1]), st.integers(0, 8), good_q)
@settings(max_examples=60)
def test_fe_ef_mirror_symmetry(omega, two_l, q):
    rep = Uqsl2Rep(omega, two_l, q)
    for two_m in rep.weights():
        assert fe_coefficient(rep, two_m) == ef_coefficient(rep, -two_m)


def test_relation_audit_over_ladder_sizes():
    for q in (2, Fraction(3, 2), 5):
        for omega in (1, -1):
            for two_l in range(0, 9):
                rep = rep_relation_audit(Uqsl2Rep(omega, two_l, q))
                assert rep.failed == 0


def test_ladder_ends_annihilate():
    rep = Uqsl2Rep(1, 6, Fraction(5, 3))
    assert fe_coefficient(rep, 6) == 0
    assert ef_coefficient(rep, -6) == 0


def test_quadratic_fit_on_even_ladders():
    for two_l in (4, 6, 8):
        for omega in (1, -1):
            out = quadratic_in_x_fit(Uqsl2Rep(omega, two_l, 2))
            d = out.to_dict()
            assert out.failed == 0
            assert d["sections"]["trivial_fit"] is False
            assert d["counts"]["checked"] > 0


def test_quadratic_fit_flags_trivial_ladders():
    for two_l in (0, 2):
        d = quadratic_in_x_fit(Uqsl2Rep(1, two_l, 2)).to_dict()
        assert d["sections"]["trivial_fit"] is True
        assert d["counts"]["checked"] == 0


def test_quadratic_fit_rejects_odd_ladders():
    with pytest.raises(ValueError):
        quadratic_in_x_fit(Uqsl2Rep(1, 5, 2))
