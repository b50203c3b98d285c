"""Audits for the one-sided annihilation analysis of the weight modules.

When the lowering operator kills a weight vector the module parameters
collapse onto the line b = a q, and the action is pinned weight by weight
up to five scalars H, D, E, F, G tied together by product constraints.
Four parameter cases arise (generic a, a = -1/(p+q), a = -1/p, a = 0); the
last two produce the one-parameter exceptional families.  This module
instantiates each case's constants, evaluates every applicable constraint
residual exactly, and checks the exceptional families against the
case-derivation formulas.
"""

from __future__ import annotations

from .classify import XPolynomial
from .modules import (ExcAlpha, ExcAlphaPrime, ExcBeta, ExcBetaPrime, Mab,
                      MemoRule, verify_module)
from .report import ResidualReport
from .scalar import is_zero, scalar_str


def annihilator_spectrum(ctx, rule, n, window):
    """All weights k with |k| <= window annihilated by the level-n action."""
    n = int(n)
    window = int(window)
    ks = range(-window, window + 1)
    return [k for k, (num, _) in zip(ks, rule.parts_row(ctx, n, ks))
            if is_zero(num)]


def quadratic_in_x_check(ctx, rule, window):
    """Both one-step compositions are quadratic in x = q^{-j}[j].

    Fits a degree-<=2 polynomial through three sample weights and verifies
    exact agreement at every other |j| <= window, for the coefficient of
    v_j in u^{-2j} = p^{2j} q^{-2j} times the down-up and up-down
    compositions.  The sweep reads the rule through one MemoRule.
    """
    window = int(window)
    if window < 4:
        raise ValueError("quadratic_in_x_check needs window >= 4")
    rep = ResidualReport("quadratic-in-x", {
        "rule": rule.describe(), "window": window, **ctx.describe()})
    memo = MemoRule(ctx, rule)
    xs = {j: ctx.q ** -j * ctx.qint(j) for j in range(-window, window + 1)}

    def composite(kind, j):
        if kind == "down-up":
            pair = memo.coeff(ctx, 1, j) * memo.coeff(ctx, -1, j + 1)
        else:
            pair = memo.coeff(ctx, -1, j) * memo.coeff(ctx, 1, j - 1)
        return ctx.upow(-2 * j) * pair

    for kind in ("down-up", "up-down"):
        nodes = [0, 1, 2]
        fit = XPolynomial.through([(xs[k], composite(kind, k)) for k in nodes])
        rep.section("fit_%s" % kind, fit.serialize())
        for j in range(-window, window + 1):
            if j in nodes:
                continue
            rep.record("x-quadratic", (kind, j),
                       composite(kind, j) - fit.eval(xs[j]))
    return rep


def find_j0_all(ctx, a, window):
    """All integer roots in the window of the junction-weight equation,
    nearest zero first.  The equation p^{-j}[j] - a p^{-j} q^j
    - a p^{-j-2} q^{j+1}[2] = 0 is c(2, j) = 0 on the line module
    M(a, aq), so the roots are the weights that module's L_2 kills."""
    return sorted(annihilator_spectrum(ctx, Mab(a, a * ctx.q), 2, window),
                  key=lambda j: (abs(j), j))


class CaseTag:
    """Which of the four parameter cases a lies in, plus the induced b."""

    def __init__(self, tag, a, b):
        self.tag = tag
        self.a = a
        self.b = b

    def to_dict(self):
        return {"tag": self.tag, "a": scalar_str(self.a),
                "b": scalar_str(self.b)}


def case_tag(ctx, a):
    p, q = ctx.p, ctx.q
    if is_zero(a):
        tag = "Case4"
    elif is_zero(a + 1 / p):
        tag = "Case3"
    elif is_zero(a + 1 / (p + q)):
        tag = "Case2"
    else:
        tag = "Case1"
    return CaseTag(tag, a, a * q)


class CaseConstants:
    """The five action scalars of the pinned-basis analysis.

    Fc and Gc are the lowering constants (L_{-2} on v_0 and v_1); the
    letters F, G are reserved for the constant cubic differences elsewhere.
    """

    def __init__(self, H, D, E, Fc, Gc):
        self.H = H
        self.D = D
        self.E = E
        self.Fc = Fc
        self.Gc = Gc

    def to_dict(self):
        return {k: scalar_str(v) for k, v in
                (("H", self.H), ("D", self.D), ("E", self.E),
                 ("Fc", self.Fc), ("Gc", self.Gc))}


def case1_constants(ctx, a):
    p, q = ctx.p, ctx.q
    J = ctx.qint
    return CaseConstants(
        H=p * J(-1) - a * p * q ** -1 - a,
        D=p ** 2 * J(-2) - a * p ** 2 * q ** -2 - a * q ** -1 * J(2),
        E=p * J(-1) - a * p * q ** -1 - a * p ** -1 * J(2),
        Fc=p * q ** -1 * a,
        Gc=a + p ** -1)


def case2_constants(ctx):
    # H = 0 pins E, Fc directly; Gc and D follow from the EG and DF products
    p, q = ctx.p, ctx.q
    E = p ** -1 * q / (p + q)
    Fc = -(p * q ** -1) / (p + q)
    Gc = q / (p * (p + q))
    D = (p ** 2 * q ** -2 / (p + q) ** 2) / Fc
    return CaseConstants(H=ctx.zero, D=D, E=E, Fc=Fc, Gc=Gc)


def case3_constants(ctx, alpha):
    # the alpha family values: H carries the free parameter, Gc vanishes
    p, q = ctx.p, ctx.q
    J = ctx.qint
    return CaseConstants(
        H=-q * J(-1) + J(-1) * J(2) * p ** -1 * q * alpha,
        D=p ** -1,
        E=-(q ** 2) * J(-2) + J(-2) * J(3) * p ** -2 * q ** 2 * alpha,
        Fc=p * J(-1),
        Gc=ctx.zero)


def case4_constants(ctx, alphap):
    # the alpha' family values: H and D carry the free parameter, Fc vanishes
    p, q = ctx.p, ctx.q
    J = ctx.qint
    return CaseConstants(
        H=p * J(-1) + p * q ** -1 * J(-1) * J(2) * alphap,
        D=p ** 2 * J(-2) + p ** 2 * q ** -2 * J(-2) * J(3) * alphap,
        E=p * J(-1),
        Fc=ctx.zero,
        Gc=p ** -1)


def constraint_residuals(ctx, a, cc, j0):
    """Exact residual of each constraint; None where the gate closes it.

    The FH and GH products were derived assuming the junction weight avoids
    -3 and 0 respectively, so those residuals only apply when it does.
    """
    p, q = ctx.p, ctx.q
    J = ctx.qint
    out = {
        "ED-H": (q ** -1 * cc.E - p ** -1 * q ** 2 * J(-1) * cc.D
                 - p ** -1 * (q ** -1 * J(2) - q ** 2 * J(-1)) * cc.H),
        "EG": (cc.E * cc.Gc
               - (p * J(-1) - a * p * q ** -1 - a * p ** -1 * J(2))
               * (p ** -1 - a * p ** -1 * q - a * p * q ** 2 * J(-2))),
        "DF": (cc.D * cc.Fc
               - (p ** 2 * J(-2) - a * p ** 2 * q ** -2 - a * q ** -1 * J(2))
               * (-a - a * p ** 2 * q * J(-2))),
        "FH": None,
        "GH": None,
    }
    if j0 != -3:
        out["FH"] = cc.Fc * cc.H + p * q ** -2 * a * (1 + J(2) * a)
    if j0 != 0:
        out["GH"] = cc.Gc * cc.H + q ** -1 * (1 + J(2) * a) * (a + p ** -1)
    return out


def _apply_constraints(rep, ctx, a, cc, j0, label):
    for cid, res in constraint_residuals(ctx, a, cc, j0).items():
        if res is None:
            rep.note("%s: %s gated off (j0=%s)" % (label, cid, j0))
        else:
            rep.record(cid, (label,), res)


def case_constants_audit(ctx, a, window=12):
    """Instantiate the case's constants and audit every applicable
    constraint, recording the catalogued-value discrepancies as findings.

    The window must reach the junction weight -3 (Case3 at a = -1/2, and
    the gate Case1's j0 must avoid), so it is at least 3."""
    window = int(window)
    if window < 3:
        raise ValueError("case_constants_audit needs window >= 3")
    p, q = ctx.p, ctx.q
    J = ctx.qint
    tag = case_tag(ctx, a)
    j0_hits = find_j0_all(ctx, a, window)
    j0 = j0_hits[0] if j0_hits else None
    rep = ResidualReport("case-constants", {
        "a": scalar_str(a), "case": tag.tag, "window": window,
        **ctx.describe()})
    rep.section("tag", tag.to_dict())
    rep.section("j0", j0 if j0 is not None else "none")
    if len(j0_hits) > 1:
        rep.finding("j0-multiplicity",
                    "junction equation has several roots in the window",
                    {"roots": j0_hits})

    if tag.tag == "Case1":
        cc = case1_constants(ctx, a)
        rep.section("constants", cc.to_dict())
        rep.expect("j0-avoids-gates", (), j0 not in (-3, 0),
                   "j0=%s" % j0)
        rep.expect("H-nonzero", (), not is_zero(cc.H), scalar_str(cc.H))
        _apply_constraints(rep, ctx, a, cc, j0, "case1")
    elif tag.tag == "Case2":
        cc = case2_constants(ctx)
        rep.section("constants", cc.to_dict())
        _apply_constraints(rep, ctx, a, cc, j0, "case2")
        rep.record("DF-value", ("case2",),
                   cc.D * cc.Fc - p ** 2 * q ** -2 / (p + q) ** 2)
        eg_true = cc.E * cc.Gc
        eg_cat = p ** -2 * q ** 2 / (p ** 2 - q ** 2)
        if not is_zero(eg_true - eg_cat):
            rep.finding(
                "EG-catalogued-value",
                "catalogued EG value disagrees with the constraint-"
                "consistent product",
                {"catalogued": scalar_str(eg_cat),
                 "consistent": scalar_str(eg_true)})
        gc_cat = p ** -1 * q / (p - q)
        if not is_zero(cc.Gc - gc_cat):
            rep.finding(
                "G-catalogued-value",
                "catalogued G value disagrees with the constraint-"
                "consistent one",
                {"catalogued": scalar_str(gc_cat),
                 "consistent": scalar_str(cc.Gc)})
    elif tag.tag == "Case3":
        rep.expect("j0-is-minus-3", (), j0 == -3, "j0=%s" % j0)
        for av in ("0", "1"):
            cc = case3_constants(ctx, ctx.scalar(av))
            rep.section("constants_alpha=%s" % av, cc.to_dict())
            _apply_constraints(rep, ctx, a, cc, j0, "case3[alpha=%s]" % av)
            rep.record("DF-value", ("case3", av), cc.D * cc.Fc - J(-1))
            rep.record("EG-value", ("case3", av), cc.E * cc.Gc)
            rep.record("GH-value", ("case3", av), cc.Gc * cc.H)
            rep.expect("G-zero", ("case3", av), is_zero(cc.Gc),
                       scalar_str(cc.Gc))
    else:
        rep.expect("j0-is-0", (), j0 == 0, "j0=%s" % j0)
        for av in ("0", "1"):
            cc = case4_constants(ctx, ctx.scalar(av))
            rep.section("constants_alphap=%s" % av, cc.to_dict())
            _apply_constraints(rep, ctx, a, cc, j0, "case4[alphap=%s]" % av)
            rep.record("EG-value", ("case4", av), cc.E * cc.Gc - J(-1))
            rep.record("DF-value", ("case4", av), cc.D * cc.Fc)
            rep.record("FH-value", ("case4", av), cc.Fc * cc.H)
            rep.expect("F-zero", ("case4", av), is_zero(cc.Fc),
                       scalar_str(cc.Fc))
        gc = case4_constants(ctx, ctx.zero).Gc
        if not is_zero(gc - (-(p ** -1))):
            rep.finding(
                "G-narrative-sign",
                "narrative sets G = -1/p but the EG product and the family "
                "formulas force G = +1/p",
                {"narrative": scalar_str(-(p ** -1)),
                 "consistent": scalar_str(gc)})
    return rep


# -- exceptional families vs the case derivations ---------------------------

def _alpha_display(ctx, n, alpha):
    # the raising/lowering value on the pinned weight in the alpha family
    J = ctx.qint
    return (-ctx.qpow(n) * J(-n)
            + J(-n) * J(n + 1) * ctx.ppow(-n) * ctx.qpow(n) * alpha)


def _alphap_display(ctx, n, alphap):
    J = ctx.qint
    return (ctx.ppow(n) * J(-n)
            + ctx.ppow(n) * ctx.qpow(-n) * J(-n) * J(n + 1) * alphap)


def family_consistency(ctx, window):
    """Exceptional families against the case-derivation formulas.

    Sections case1..case4 check the derived closed forms (generic line,
    both exceptional families including the pinned-weight displays);
    caseII-beta and caseII-betap run the mirror families through the full
    defining relation, with the literal-reading failures of the last one
    reported as findings.
    """
    window = int(window)
    p, q = ctx.p, ctx.q
    J, P, Q = ctx.qint, ctx.ppow, ctx.qpow
    rep = ResidualReport("family-consistency", {
        "window": window, **ctx.describe()})

    # case 1 and case 2 land back on the b = aq line
    for key, aval in (("case1", "5"), ("case1", "1/7"), ("case2", None)):
        a = ctx.scalar(aval) if aval is not None else -1 / (p + q)
        rule = Mab(a, a * q)
        child = ResidualReport("line-formula", {"a": scalar_str(a)})
        for n in (-2, -1, 0, 1, 2):
            for j in range(-window, window + 1):
                want = (P(-j) * J(j) - a * P(-j) * Q(j)
                        - a * P(-j - n) * Q(j + 1) * J(n))
                child.record("line-closed-form", (n, j),
                             rule.coeff(ctx, n, j) - want)
        label = key if aval is None else "%s[a=%s]" % (key, aval)
        rep.merge_child(label, child)

    # case 3: the alpha family
    for av in ("0", "1"):
        alpha = ctx.scalar(av)
        fam = ExcAlpha(alpha)
        child = ResidualReport("alpha-family", {"alpha": av})
        for n in (-2, -1, 1, 2):
            for j in range(-window, window + 1):
                got = fam.coeff(ctx, n, j)
                if j == -1:
                    want = _alpha_display(ctx, n, alpha)
                else:
                    want = P(-n - j - 1) * J(n + j + 1)
                child.record("alpha-closed-form", (n, j), got - want)
        H = fam.coeff(ctx, 1, -1)
        child.record("pinned-raise-display", (2, -1),
                     fam.coeff(ctx, 2, -1)
                     - (P(-2) * Q(3) * J(-1) + P(-2) * J(3) * H))
        child.record("pinned-lower-display", (-2, -1),
                     fam.coeff(ctx, -2, -1)
                     - (P(3) * J(-3) + P(3) * Q(-3) * H))
        rep.merge_child("case3[alpha=%s]" % av, child)

    # case 4: the alpha' family
    for av in ("0", "1"):
        alphap = ctx.scalar(av)
        fam = ExcAlphaPrime(alphap)
        child = ResidualReport("alphap-family", {"alphap": av})
        for n in (-2, -1, 1, 2):
            for j in range(-window, window + 1):
                got = fam.coeff(ctx, n, j)
                if j == -n:
                    want = _alphap_display(ctx, n, alphap)
                else:
                    want = P(-j) * J(j)
                child.record("alphap-closed-form", (n, j), got - want)
        Hp = fam.coeff(ctx, 1, -1)
        child.record("pinned-raise-display", (2, -2),
                     fam.coeff(ctx, 2, -2)
                     - (P(2) * Q(-3) - P(3) * q * J(-3) * Hp))
        child.record("pinned-lower-display", (-2, 2),
                     fam.coeff(ctx, -2, 2)
                     - (P(-3) * J(3) + P(-3) * Q(3) * Hp))
        rep.merge_child("case4[alphap=%s]" % av, child)

    # mirror families: verified through the defining relation only
    for key, fam in (("caseII-beta", ExcBeta(ctx.one)),
                     ("caseII-betap", ExcBetaPrime(ctx.one))):
        child = verify_module(ctx, fam, 2, window)
        rep.merge_child(key, child)
    given = verify_module(ctx, ExcBetaPrime(ctx.one, reading="given"),
                          2, window)
    for fail in given.failures:
        rep.finding(
            "betap-literal-reading",
            "literal pinned-weight formula of the mirror-prime family "
            "breaks the defining relation",
            fail)
    return rep
