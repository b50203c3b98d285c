"""Degeneracy classification of the linear x-factors and the product
identities tying them together."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vpq import classify
from vpq.classify import (
    ADJUSTED_LINES,
    PAIR_ORDER,
    XPolynomial,
    condition_scalar,
    degeneracy_profile,
    degeneracy_table_audit,
    fg_recurrence_audit,
    identity_audit,
    l2_coefficients,
    l2_display_audit,
    quadratic_roots,
    quadratic_roots_audit,
    second_solution,
    x_factors,
)
from vpq import modules
from vpq.modules import CoefficientRule, Mab, MemoRule, relation_residual
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


def _closed_form_f(ctx, rule, F0, j):
    """f(j) = u^{3j} F0 / (c(-1,j+2) c(-1,j+1)); None on zero denominator.
    The oracle of what the deformed rule adds to c(2, j)."""
    den = rule.coeff(ctx, -1, j + 2) * rule.coeff(ctx, -1, j + 1)
    if den == 0:
        return None
    return ctx.upow(3 * j) * F0 / den


def _closed_form_g(ctx, rule, G0, j):
    """g(j) = u^{3j} G0 / (c(1,j-2) c(1,j-1)); None on zero denominator.
    The oracle of what the deformed rule adds to c(-2, j)."""
    den = rule.coeff(ctx, 1, j - 2) * rule.coeff(ctx, 1, j - 1)
    if den == 0:
        return None
    return ctx.upow(3 * j) * G0 / den


class _ValueDeformed(CoefficientRule):
    """The deformed rule by value arithmetic: mab(a, b) plus the oracle
    closed forms on its ±2 rows; c(±2, k) raises where the closed form has
    no value."""

    def __init__(self, a, b, F0, G0):
        self.mab = Mab(a, b)
        self.closed = {2: (_closed_form_f, F0), -2: (_closed_form_g, G0)}

    def coeff(self, ctx, n, k):
        value = self.mab.coeff(ctx, n, k)
        if n not in self.closed:
            return value
        form, const = self.closed[n]
        closed = form(ctx, self.mab, const, k)
        if closed is None:
            raise ValueError("no closed form at k=%d" % k)
        return value + closed


def test_closed_forms_match_recurrence(ctx, sym):
    # the deformed rule passes the three pairs, at a point and at formal
    # p, q; the audit derives F0 and G0 itself
    rep = fg_recurrence_audit(ctx, Fraction(1), Fraction(1), 4)
    assert (rep.params["F0"], rep.params["G0"]) == ("15/16", "-20/243")
    assert rep.failed == 0 and rep.checked == 3 * 9 and not rep.notes
    rep = fg_recurrence_audit(sym, sym.var("a"), sym.var("b"), 1)
    assert rep.failed == 0 and rep.checked == 3 * 3


def test_closed_form_returns_none_on_vanishing_denominator(ctx):
    # (a,b) = (-1/2,-3/2) kills the k=0 step coefficient
    a, b = Fraction(-1, 2), Fraction(-3, 2)
    assert _closed_form_f(ctx, Mab(a, b), Fraction(1), -2) is None
    assert _closed_form_g(ctx, Mab(a, Fraction(0)), Fraction(1), 3) \
        is not None
    # the deformed rule has no c(2, -2) there, and the audit names it
    with pytest.raises(ValueError, match="zero denominator at k=-2"):
        classify._Deformed(a, b, Fraction(1), Fraction(1)).coeff(ctx, 2, -2)
    assert fg_recurrence_audit(ctx, a, b, 6).notes[0] == (
        "pair (-1,2) skipped at j=-2: c2 denominator dn(j+2) vanishes at "
        "j=-2")


@pytest.mark.parametrize("ab", [("-1/2", "-3/2"), ("0", "0")],
                         ids=["-1/2,-3/2", "0,0"])
def test_fg_audit_skips_where_the_value_path_is_undefined(ctx, ab):
    """The audit skips exactly the (pair, j) whose value-path relation
    reads a closed form with no value, and passes the rest."""
    a, b = (Fraction(v) for v in ab)
    rep = fg_recurrence_audit(ctx, a, b, 6)
    notes, failures = _fg_oracle(ctx, a, b, 6)
    assert [n.partition(":")[0] for n in rep.notes] == notes
    assert rep.failures == failures == [] and rep.failed == 0
    assert rep.checked == 3 * 13 - len(notes) > 0


def test_l2_coefficient_values(ctx):
    c2, cm2 = l2_coefficients(ctx, Mab(Fraction(1), Fraction(1)), 2)
    assert c2 == Fraction(21199, 176)
    assert cm2 == Fraction(-3, 28)


def test_l2_coefficients_raise_on_vanishing_factor(ctx):
    with pytest.raises(ValueError):
        l2_coefficients(ctx, Mab(Fraction(-1, 2), Fraction(-3, 2)), -2)


def _cm2_given(ctx, rule, j):
    """The literal typeset reading of cm2, in the rule's parameters a and b:
    it differs from the adjusted one in the first factor's exponent and one
    bracket sign.  Call it only where `l2_coefficients` returns, so no
    denominator vanishes.  The oracle for the audit's literal reading."""
    p, q = ctx.p, ctx.q
    params = rule.params()
    a, b = params["a"], params["b"]
    first = (p ** -j * ctx.qint(j) - a * p ** -j * q ** j
             - b * p ** (-j - 1) * q ** j * ctx.qint(-1))
    second = (p ** (-j + 2) * ctx.qint(j - 2) - a * p ** (-j + 2) * q ** (j - 2)
              - b * p ** -j * q ** (j - 2) * ctx.qint(-2))
    return (first * rule.coeff(ctx, -1, j - 1) * second
            / (rule.coeff(ctx, 1, j - 2) * rule.coeff(ctx, 1, j - 1)))


def test_cm2_readings_differ_only_in_the_b_terms(ctx):
    # the given reading reads a and b from the rule's parameters
    for j in (-3, 2, 4):
        rule = Mab(Fraction(5), Fraction(0))
        assert _cm2_given(ctx, rule, j) == l2_coefficients(ctx, rule, j)[1]
        rule = Mab(Fraction(5), Fraction(1))
        assert _cm2_given(ctx, rule, j) != l2_coefficients(ctx, rule, j)[1]


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
            for fn, args in ((_closed_form_f, (F0, j)),
                             (_closed_form_g, (G0, j)),
                             (l2_coefficients, (j,))):
                got = _outcome(fn, c, memo, *args)
                assert got == _outcome(fn, c, bare, *args)
                values += isinstance(got, list)
            if isinstance(got, list):    # the literal cm2 where l2 exists
                got = _outcome(_cm2_given, c, memo, j)
                assert got == _outcome(_cm2_given, c, bare, j)
                values += 1
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


def _audit_reports(point):
    if point == "formal:p,q":
        return [degeneracy_table_audit(ScalarContext.symbolic())]
    if point.startswith("formal"):
        pq = point.partition(":")[2] or "2,3"
        c = ScalarContext.symbolic(*pq.split(","))
        a, b = c.var("a"), c.var("b")
        return [identity_audit(c, a, b), l2_display_audit(c, a, b, 6),
                degeneracy_table_audit(c), fg_recurrence_audit(c, a, b, 6)]
    c = ScalarContext.numeric(2, 3)
    a, b = (Fraction(v) for v in point.split(","))
    return [l2_display_audit(c, a, b, 6), fg_recurrence_audit(c, a, b, 6)]


# sha256 of each audit's serialized report where the bundled suite does not
# reach: formal a, b at each point of the formal workload ("formal" is
# (2,3)), the degeneracy table at formal p, q ("formal:p,q"), and numeric
# points whose sweeps skip j with notes, which fixes the order of notes,
# records and findings
_AUDIT_SHA256 = {
    "formal": {
        "identity-audit": "3c3baf079fb550942a989076268dc94f6d33a3c65b2d4df52ced86cbdb018772",
        "l2-display": "2d0d7f90df610afc3aafb5048dbb8ec5a3dfdfa60372de2c609c28e58a685ad0",
        "degeneracy-table": "f9b3fe912688a62787f18c98c742b677684fa5e7b9a02c0c790ed6c65641cec5",
        "fg-recurrences": "ac179e93e97d301d8a3f55fe3f7b41fa1bac4936ca63e51ffca61b3abc97759c",
    },
    "formal:5,7": {
        "identity-audit": "793f091145860507ca0d25ec9fa1959408760d6ab94b068667af55096f9b965b",
        "l2-display": "77c07cf3abbefd14e2bca6a122117b12ba158c672444423a85f9783b3ed97438",
        "degeneracy-table": "a81cc2441e1c6dc3edd9e398ad4ae6dd850b271b3252ca7a4580b8d583177c90",
        "fg-recurrences": "16ee586258774ac12d3dde491914d2daad04084a7a4bbe79cddec608807f1f4f",
    },
    "formal:-3/2,1/4": {
        "identity-audit": "258665fc3c1ad6ccd6fd0b8811bf4301395ee68023988abc16ae1d3812d45ab9",
        "l2-display": "a2cb3d1d504afecda3e034d57e0435bcc4028360c61c8306578d8fdb97d564ea",
        "degeneracy-table": "c4bac7a20d543adfc1ef32543a43105e9a2ccc6aa38196a64899b5f903f4f1f1",
        "fg-recurrences": "12f7d6577e338ebb5ff0e6eae334ef430b6361439271dae45c3b35df9b5a26d8",
    },
    "formal:p,q": {
        "degeneracy-table": "b007aa305040495a1ae413f6dc562505d89fcd88a7ab624b8f87a933b8ef8aaf",
    },
    "-1/2,-3/2": {
        "l2-display": "0017421cc288b9794254c214b647904ccce8fcef5da84a4235da068f9c88bc07",
        "fg-recurrences": "ba41a0c9d021cebf3396bec30db09adbd2590af742a12325b48561759bc70d38",
    },
    "0,0": {
        "l2-display": "0dc9381607914401b583abeee8409e3848ecc360612be7bbcf378fcc32b9a3e0",
        "fg-recurrences": "38863992fac7372f2b8e5b6a9d75e7707bb3a793fc78a69304b2eb2f794b62aa",
    },
}


@pytest.mark.parametrize("point", sorted(_AUDIT_SHA256))
def test_audit_bytes_are_unchanged(point):
    got = {}
    for rep in _audit_reports(point):
        data = json.dumps(rep.to_dict(), sort_keys=True, indent=2)
        got[rep.name] = hashlib.sha256(data.encode("utf-8")).hexdigest()
    assert got == _AUDIT_SHA256[point]


def test_audits_compute_each_value_once(monkeypatch):
    """identity_audit and degeneracy_table_audit build the x-factors once.
    The weight-two audits build them once too, call no
    value helper (no ±2 coefficient, rule value or relation residual) on a
    passing sweep, and reduce exactly once per finding: their residuals are
    judged by numerators."""
    c = ScalarContext.symbolic("2", "3")
    a, b = c.var("a"), c.var("b")
    jmax = 6
    calls = []

    def counted(owner, name, key):
        real = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls.append(key)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    for name in ("x_factors", "l2_coefficients"):
        counted(classify, name, name)
    counted(modules, "relation_residual", "relation_residual")
    counted(Mab, "coeff", "Mab.coeff")
    counted(ScalarContext, "join", "join")

    def count(audit, *args):
        calls.clear()
        rep = audit(*args)
        assert rep.failed == 0
        return {k: calls.count(k) for k in calls}, rep

    assert count(identity_audit, c, a, b)[0] == {"x_factors": 1}
    assert count(degeneracy_table_audit, c)[0] == {"x_factors": 1}
    # formal a, b at the three points of the formal workload: every j has
    # its ±2 coefficients and a literal-cm2 finding
    for pq in (("2", "3"), ("5", "7"), ("-3/2", "1/4")):
        pc = ScalarContext.symbolic(*pq)
        pa, pb = pc.var("a"), pc.var("b")
        got, rep = count(fg_recurrence_audit, pc, pa, pb, jmax)
        assert got == {"x_factors": 1} and rep.checked == 3 * (2 * jmax + 1)
        got, rep = count(l2_display_audit, pc, pa, pb, jmax)
        assert len(rep.findings) == 2 * jmax + 1
        assert got == {"x_factors": 1, "join": len(rep.findings)}


def _l2_oracle(ctx, a, b, jmax):
    """Notes, failures and finding residuals of `l2_display_audit` by value
    arithmetic: `l2_coefficients`, the closed forms, `rule.coeff` and the
    typeset cm2 (`_cm2_given`), read through the module names the audit
    uses for F, G and the partner."""
    F, G = classify.fg_constants(x_factors(ctx, a, b))
    rule = Mab(a, b)
    partner = Mab(a, classify.second_solution(ctx, a, b))
    l2, notes, failures, findings = {}, [], [], []
    for j in range(-jmax, jmax + 3):
        try:
            l2[j] = l2_coefficients(ctx, rule, j)
        except ValueError as exc:
            if j <= jmax:
                notes.append("skipped j=%d: %s" % (j, exc))
    for j in range(-jmax, jmax + 1):
        if j not in l2:
            continue
        c2, cm2 = l2[j]
        gj = _closed_form_g(ctx, rule, G, j)
        wm2 = rule.coeff(ctx, -2, j)
        found = [("c2-display", c2 - rule.coeff(ctx, 2, j)
                  - _closed_form_f(ctx, rule, F, j)),
                 ("cm2-display", cm2 - wm2 - gj)]
        given = _cm2_given(ctx, rule, j) - wm2 - gj
        if given != 0:
            findings.append(scalar_str(given))
        if j + 2 in l2:
            found.append(("gauge-product", c2 * l2[j + 2][1]
                          - partner.coeff(ctx, 2, j)
                          * partner.coeff(ctx, -2, j + 2)))
        failures += [{"identity": name, "indices": [j],
                      "residual": scalar_str(r)}
                     for name, r in found if r != 0]
    return notes, failures, findings


def _fg_oracle(ctx, a, b, jmax):
    """The skipped (pair, j) and the failures of `fg_recurrence_audit` by
    value arithmetic: `relation_residual` on `_ValueDeformed`, built from
    the constants `classify.fg_constants` gives, which is undefined where
    a closed form it reads has no value."""
    F0, G0 = classify.fg_constants(x_factors(ctx, a, b))
    rule = _ValueDeformed(a, b, F0, G0)
    notes, failures = [], []
    for n, m in ((-1, 2), (1, -2), (2, -2)):
        for j in range(-jmax, jmax + 1):
            try:
                r = relation_residual(ctx, rule, n, m, j)
            except ValueError:
                notes.append("pair (%d,%d) skipped at j=%d" % (n, m, j))
                continue
            if r != 0:
                failures.append({"identity": "module-relation",
                                 "indices": [n, m, j],
                                 "residual": scalar_str(r)})
    return notes, failures


def _weight_two_point(point):
    """The context and (a, b) of the weight-two failure tests: (2,3) with
    formal a, b, or with a = b = 1."""
    if point == "formal":
        c = ScalarContext.symbolic("2", "3")
        return c, c.var("a"), c.var("b")
    return ScalarContext.numeric(2, 3), Fraction(1), Fraction(1)


@pytest.mark.parametrize("point", ["formal", "numeric"])
def test_weight_two_failures_read_as_the_value_path(monkeypatch, point):
    """With F and G shifted by 1 and the partner by 1, every c2-display,
    cm2-display and gauge-product residual fails, and so does every (2,-2)
    relation of the deformed rule; its (-1,2) and (1,-2) relations hold for
    any F and G.  Each failure, reduced once from its numerator, reads as
    the value path's residual, and each literal-cm2 finding as the typeset
    formula's."""
    c, a, b = _weight_two_point(point)
    jmax = 4
    real_fg, real_partner = classify.fg_constants, classify.second_solution

    def shifted_fg(fx):
        F, G = real_fg(fx)
        return F + 1, G + 1

    monkeypatch.setattr(classify, "fg_constants", shifted_fg)
    monkeypatch.setattr(classify, "second_solution",
                        lambda ctx, a, b: real_partner(ctx, a, b) + 1)
    rep = l2_display_audit(c, a, b, jmax)
    notes, failures, findings = _l2_oracle(c, a, b, jmax)
    assert rep.failures == failures
    assert rep.notes == notes
    assert [f["data"]["residual"] for f in rep.findings] == findings
    assert rep.checked == rep.failed == 3 * (2 * jmax + 1)
    assert {f["identity"] for f in failures} == {
        "c2-display", "cm2-display", "gauge-product"}

    rep = fg_recurrence_audit(c, a, b, jmax)
    notes, failures = _fg_oracle(c, a, b, jmax)
    assert rep.failures == failures
    assert rep.notes == notes == []
    assert rep.checked == 3 * (2 * jmax + 1)
    assert rep.failed == 2 * jmax + 1
    assert {tuple(f["indices"][:2]) for f in failures} == {(2, -2)}


_BREAKS = {
    "F0+1": lambda F, G: (F + 1, G),
    "G0+1": lambda F, G: (F, G + 1),
    "-F0": lambda F, G: (-F, G),
}


@pytest.mark.parametrize("point", ["numeric", "formal"])
@pytest.mark.parametrize("brk", sorted(_BREAKS))
def test_deformation_breaks_fail_the_pair_that_ties_f_to_g(
        monkeypatch, brk, point):
    """F0 + 1, G0 + 1 and -F0 each fail the (2,-2) relation at every j,
    at (2,3) with a = b = 1 and with formal a, b, while (-1,2) and (1,-2)
    still hold; each failure reads as the value path's residual."""
    c, a, b = _weight_two_point(point)
    jmax = 3
    real = classify.fg_constants
    monkeypatch.setattr(classify, "fg_constants",
                        lambda fx: _BREAKS[brk](*real(fx)))
    rep = fg_recurrence_audit(c, a, b, jmax)
    assert rep.failures == _fg_oracle(c, a, b, jmax)[1]
    assert [f["indices"] for f in rep.failures] == [
        [2, -2, j] for j in range(-jmax, jmax + 1)]


@pytest.mark.parametrize("point", ["numeric", "formal"])
def test_fg_audit_fails_when_u_steps_by_2u(monkeypatch, point):
    """A context whose u^n reads as (2u)^n breaks the deformed rule and mab
    under it; the audit fails, and each failure reads as the value path's
    residual."""
    c, a, b = _weight_two_point(point)
    real_upow = c.upow
    monkeypatch.setattr(c, "upow", lambda n: real_upow(n) * Fraction(2) ** n)
    rep = fg_recurrence_audit(c, a, b, 3)
    notes, failures = _fg_oracle(c, a, b, 3)
    assert rep.failed > 0 and rep.failures == failures
    assert rep.notes == notes == []


@pytest.mark.parametrize("pq", [("2", "3"), ()], ids=["point", "formal"])
def test_degeneracy_table_failure_shows_the_formal_difference(monkeypatch, pq):
    """A failing table line reports fi - gj at formal a, b as its residual."""
    c = ScalarContext.symbolic(*pq)
    real = classify._condition_ratio

    def broken(ctx, fi, gj):
        r = real(ctx, fi, gj)
        return r + 1 if (fi, gj) == ("f3", "g3") else r

    monkeypatch.setattr(classify, "_condition_ratio", broken)
    rep = degeneracy_table_audit(c)
    fx = x_factors(c, c.var("a"), c.var("b"))
    assert rep.failures == [{
        "identity": "equivalence", "indices": ["f3=g3"],
        "residual": str((fx["f3"] - fx["g3"]).coeff(0))}]


@pytest.mark.parametrize("pq", [("2", "3"), ()], ids=["point", "formal"])
def test_degeneracy_table_line_fails_on_a_vanishing_form(monkeypatch, pq):
    """A line fails when its condition form, or its difference, vanishes
    identically: zero is no nonzero multiple of anything.  It reports the
    difference at formal a, b, which is 0 in the second case."""
    c = ScalarContext.symbolic(*pq)
    fx = x_factors(c, c.var("a"), c.var("b"))
    real_condition, real_factors = classify.condition_scalar, x_factors

    def no_condition(ctx, a, b, fi, gj):
        if (fi, gj) == ("f3", "g3"):
            return ctx.zero
        return real_condition(ctx, a, b, fi, gj)

    monkeypatch.setattr(classify, "condition_scalar", no_condition)
    assert degeneracy_table_audit(c).failures == [{
        "identity": "equivalence", "indices": ["f3=g3"],
        "residual": str((fx["f3"] - fx["g3"]).coeff(0))}]
    monkeypatch.setattr(classify, "condition_scalar", real_condition)

    def g3_is_f3(ctx, a, b):
        out = real_factors(ctx, a, b)
        out["g3"] = out["f3"]
        return out

    monkeypatch.setattr(classify, "x_factors", g3_is_f3)
    failures = degeneracy_table_audit(c).failures
    assert {"identity": "equivalence", "indices": ["f3=g3"],
            "residual": "0"} in failures
    assert {f["indices"][0] for f in failures} <= {
        "f1=g3", "f2=g3", "f3=g3", "f4=g3"}


def test_cubic_differences_are_constant_at_formal_parameters(sym):
    """Both cubic differences have degree 0 at formal p, q, a, b, so F and
    G are their values at x = 0 everywhere, as `fg_constants` reads them."""
    fx = x_factors(sym, sym.var("a"), sym.var("b"))
    f12e1, f34e2, g12wp, g34wm = classify._cubics(fx)
    d_f, d_g = f12e1 - f34e2, g12wp - g34wm
    assert d_f.degree() == d_g.degree() == 0
    assert (d_f.coeff(0), d_g.coeff(0)) == classify.fg_constants(fx)
