"""Classification machinery in the spectral variable x = q^{-j}[j].

Everything index-dependent about the two-parameter family collapses, under
the substitution x = q^{-j}[j], into polynomials in x whose coefficients are
scalars in (a, b).  This module builds the eight named linear factors, the
auxiliary linear factors appearing in the cubic differences, the sixteen
degeneracy conditions, and the audits for the constant-difference claims.

Several displayed formulas in the source material admit two candidate
readings (a sign or exponent differs between occurrences).  Audits compute
both: the reading with identically zero residual is labelled "adjusted", the
other "given", and the choice is recorded as a finding, never silently.
"""

from __future__ import annotations

from .modules import Mab, MemoRule
from .report import ResidualReport
from .scalar import is_zero, scalar_str

DEGREE_NEG_INF = "-inf"


class XPolynomial:
    """Dense polynomial in x with backend scalars, ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and is_zero(cs[-1]):
            cs.pop()
        self.coeffs = cs

    @staticmethod
    def through(points):
        """The Lagrange interpolant of degree < len(points) through the
        (x, y) pairs; the x values must be distinct."""
        fit = XPolynomial([])
        for k, (xk, yk) in enumerate(points):
            basis = XPolynomial([yk])
            for l, (xl, _) in enumerate(points):
                if l != k:
                    den = xk - xl
                    basis = basis * XPolynomial([-xl / den, 1 / den])
            fit = fit + basis
        return fit

    def degree(self):
        """Exact degree; None is the zero polynomial's sentinel."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def degree_str(self):
        d = self.degree()
        return DEGREE_NEG_INF if d is None else str(d)

    def is_zero(self):
        return not self.coeffs

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return XPolynomial([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __neg__(self):
        return XPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return XPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return XPolynomial(out)

    def scale(self, s):
        return XPolynomial([c * s for c in self.coeffs])

    def eval(self, s):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * s + c
        return 0 if acc is None else acc

    def __eq__(self, other):
        return (self - other).is_zero()

    def serialize(self):
        return [scalar_str(c) for c in self.coeffs]

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join("(%s)·x^%d" % (scalar_str(c), i)
                          for i, c in enumerate(self.coeffs))

    __repr__ = __str__


def _linear(ctx, const):
    return XPolynomial([const, ctx.one])


def x_factors(ctx, a, b):
    """Every named monic linear factor, both readings where two circulate.

    Keys f1..f4, g1..g4, E1, E2, W-, W+ are the adjudicated forms; the
    variant keys g2_given, g3_apq, W+_given are the literal typeset forms
    that differ (one exponent sign, one missing inverse, one stray p).
    """
    p, q = ctx.p, ctx.q
    J = ctx.qint
    out = {
        "f1": -a - b * p ** -1,
        "f2": p ** -1 - a * p ** -1 * q - b * p ** -2 * q,
        "f3": p ** -2 * J(2) - a * p ** -2 * q ** 2 - b * p ** -1 * q ** 2 * J(-1),
        "f4": p ** -1 - a * p ** -1 * q - b * q * J(-1),
        "g1": -a - b * p * J(-1),
        "g2": p * J(-1) - a * p * q ** -1 - b * p ** 2 * q ** -1 * J(-1),
        "g2_given": p * J(-1) - a * p * q ** -1 - b * p ** 2 * q * J(-1),
        "g3": p * J(-1) - a * p * q ** -1 - b * q ** -1,
        "g3_apq": p * J(-1) - a * p * q - b * q ** -1,
        "g4": p ** 2 * J(-2) - a * p ** 2 * q ** -2 - b * p * q ** -2,
        "E1": p ** -2 * J(2) - a * p ** -2 * q ** 2 - b * q ** 2 * J(-2),
        "E2": -a - b * p ** -2 * J(2),
        "W-": -a - b * p ** 2 * J(-2),
        "W+": p ** 2 * J(-2) - a * p ** 2 * q ** -2 - b * q ** -2 * J(2),
        "W+_given": p ** 2 * J(-2) - a * p ** 2 * q ** -2 - b * p * q ** -2 * J(2),
    }
    return {k: _linear(ctx, v) for k, v in out.items()}


# the sixteen table lines in display order
PAIR_ORDER = (
    ("f1", "g1"), ("f2", "g1"), ("f1", "g2"), ("f2", "g2"),
    ("f1", "g3"), ("f2", "g3"), ("f1", "g4"), ("f2", "g4"),
    ("f3", "g1"), ("f4", "g1"), ("f3", "g2"), ("f4", "g2"),
    ("f3", "g3"), ("f4", "g3"), ("f3", "g4"), ("f4", "g4"),
)

# table lines whose printed right-hand side does not match the polynomials;
# the adjudicated conditions below are the ones the equalities actually obey
ADJUSTED_LINES = ("f1=g2", "f2=g2", "f1=g4", "f2=g4")


def _condition_ratio(ctx, fi, gj):
    """Adjudicated R in the line `fi = gj  iff  a - b R = -1/(p-q)`.

    Returns None for the (f1,g1) line, whose condition is plain b = 0.
    """
    p, q = ctx.p, ctx.q
    key = (fi, gj)
    if key == ("f1", "g1"):
        return None
    if key in (("f2", "g1"), ("f1", "g2")):
        return (p ** 2 + q ** 2) / (p * q * (p - q))
    if key == ("f2", "g2"):
        return (p ** 2 - p * q + q ** 2) / (p * q * (p - q))
    if gj == "g3" and fi in ("f1", "f2"):
        return -(p ** -1)
    if gj == "g4" and fi in ("f1", "f2"):
        return -(p ** -1)
    if fi in ("f3", "f4") and gj in ("g1", "g2"):
        return q ** -1
    if key in (("f3", "g3"), ("f4", "g4")):
        return -(p ** 2 + q ** 2) / (p ** 3 - q ** 3)
    if key == ("f4", "g3"):
        return -1 / (p - q)
    if key == ("f3", "g4"):
        return -(p ** 2 - p * q + q ** 2) / ((p - q) * (p ** 2 + q ** 2))
    raise KeyError(key)


def condition_scalar(ctx, a, b, fi, gj):
    """Linear form whose vanishing is the adjudicated condition for fi = gj."""
    r = _condition_ratio(ctx, fi, gj)
    if r is None:
        return b
    return a - b * r + 1 / (ctx.p - ctx.q)


class DegeneracyProfile:
    """The sixteen literal-equality booleans plus the four-way case tag.

    `case` is 1..4 per the catalogued coincidence patterns; 0 marks a
    profile outside those patterns (isolated coincidences exist on special
    parameter lines the catalogue does not cover).
    """

    def __init__(self, pairs, conditions, case):
        self.pairs = pairs
        self.conditions = conditions
        self.case = case

    @property
    def agreement(self):
        return {k: self.pairs[k] == self.conditions[k] for k in self.pairs}

    def to_dict(self):
        return {
            "pairs": dict(self.pairs),
            "conditions": dict(self.conditions),
            "agreement": self.agreement,
            "case": self.case,
        }


def _case_from_pairs(pairs):
    true_keys = {k for k, v in pairs.items() if v}
    if not true_keys:
        return 1
    if true_keys == {"f1=g1"}:
        return 2
    if true_keys == {"f1=g3", "f1=g4", "f2=g3", "f2=g4"}:
        return 3
    if true_keys == {"f3=g1", "f3=g2", "f4=g1", "f4=g2"}:
        return 4
    return 0


def degeneracy_profile(ctx, a, b):
    """Evaluate all sixteen equalities literally and via the conditions."""
    return _profile(ctx, a, b, x_factors(ctx, a, b))


def _profile(ctx, a, b, fx):
    pairs = {}
    conditions = {}
    for fi, gj in PAIR_ORDER:
        key = "%s=%s" % (fi, gj)
        pairs[key] = (fx[fi] - fx[gj]).is_zero()
        conditions[key] = is_zero(condition_scalar(ctx, a, b, fi, gj))
    return DegeneracyProfile(pairs, conditions, _case_from_pairs(pairs))


def degeneracy_table_audit(ctx):
    """Bidirectional equivalence of all sixteen table lines, symbolically.

    With free (a, b) the difference fi - gj is a linear form; the line holds
    bidirectionally iff that form is a nonzero scalar multiple of the
    condition form.  Requires the symbolic backend.
    """
    if ctx.backend != "symbolic":
        raise ValueError("degeneracy_table_audit needs the symbolic backend")
    # linear-form coefficients come from the values at three (a, b) corners;
    # x_factors is affine in (a, b), so a failing line's difference at formal
    # a, b is dc[0]·a + dc[1]·b + dc[2]
    corners = ((ctx.zero, ctx.zero), (ctx.one, ctx.zero), (ctx.zero, ctx.one))
    fx_at = [x_factors(ctx, aa, bb) for aa, bb in corners]
    rep = ResidualReport("degeneracy-table", ctx.describe())
    for fi, gj in PAIR_ORDER:
        key = "%s=%s" % (fi, gj)
        dc = _linear_form([(f[fi] - f[gj]).coeff(0) for f in fx_at])
        cc = _linear_form([condition_scalar(ctx, aa, bb, fi, gj)
                           for aa, bb in corners])
        ok = _proportional(dc, cc)
        rep.expect("equivalence", (key,), ok, "" if ok else scalar_str(
            dc[0] * ctx.var("a") + dc[1] * ctx.var("b") + dc[2]))
    for key in ADJUSTED_LINES:
        fi, gj = key.split("=")
        rep.finding(
            "table-line-adjusted",
            "printed right-hand side of line %s deviates; adjudicated "
            "condition used" % key,
            {"pair": key,
             "adjudicated_R": scalar_str(_condition_ratio(ctx, fi, gj))})
    return rep


def _linear_form(values):
    """Coefficients (alpha, beta, gamma) of a form alpha·a + beta·b + gamma
    from its values at (a, b) = (0, 0), (1, 0), (0, 1)."""
    g, at_a, at_b = values
    return at_a - g, at_b - g, g


def _proportional(u, v):
    """Whether two coefficient triples are nonzero scalar multiples."""
    if all(is_zero(x) for x in u) or all(is_zero(x) for x in v):
        return False
    for i in range(3):
        for j in range(3):
            if not is_zero(u[i] * v[j] - u[j] * v[i]):
                return False
    return True


def second_solution(ctx, a, b):
    """The partner parameter b' sharing the same step-product data as b.

    Characterized by: the mab coefficient products c(1,j)·c(-1,j+1) of the
    (a,b) and (a,b') rules agree for every j.  The closed form is
    -1 - a(p-q) - b (an involution in b).
    """
    return -1 - a * (ctx.p - ctx.q) - b


def _step_product(ctx, a, bb):
    rule = Mab(a, bb)
    return rule.coeff(ctx, 1, 0) * rule.coeff(ctx, -1, 1)


def quadratic_roots(ctx, a, b):
    """Both solutions of the step-product quadratic through a given root b.

    The defining constraint is c(1,0)·c(-1,1) = const, quadratic in the b
    parameter; b is one root and the returned pair is (b, partner).  The
    partner is verified against the constraint before returning.
    """
    partner = second_solution(ctx, a, b)
    if not is_zero(_step_product(ctx, a, partner) - _step_product(ctx, a, b)):
        raise ValueError(
            "quadratic roots: partner b'=%s of b=%s fails the defining "
            "quadratic c(1,0)·c(-1,1) (a=%s, p=%s, q=%s)"
            % (scalar_str(partner), scalar_str(b), scalar_str(a),
               scalar_str(ctx.p), scalar_str(ctx.q)))
    return (b, partner)


def quadratic_roots_audit(ctx, a, b):
    """Root relations of the step-product quadratic, with both candidate
    partner readings compared."""
    rep = ResidualReport("quadratic-roots", {
        "a": scalar_str(a), "b": scalar_str(b), **ctx.describe()})
    target = _step_product(ctx, a, b)
    good = second_solution(ctx, a, b)
    rep.record("partner-root-constraint", ("adjusted",),
               _step_product(ctx, a, good) - target)
    variant = 1 - a * (ctx.p - ctx.q) - b
    vres = _step_product(ctx, a, variant) - target
    if not is_zero(vres):
        rep.finding(
            "second-solution-sign",
            "catalogued partner form 1 - a(p-q) - b fails the defining "
            "quadratic; the verified form is -1 - a(p-q) - b",
            {"variant_residual": scalar_str(vres)})
    # Vieta: expand the quadratic Q(t) = c(1,0)c(-1,1)|_{b=t} - target
    q0 = _step_product(ctx, a, ctx.zero) - target
    q1 = _step_product(ctx, a, ctx.one) - target
    qm1 = _step_product(ctx, a, -ctx.one) - target
    lead = ((q1 + qm1) - 2 * q0) / 2
    lin = (q1 - qm1) / 2
    rep.record("vieta-sum", (), (b + good) * lead + lin)
    rep.record("vieta-product", (), b * good * lead - q0)
    rep.section("root_sum", scalar_str(b + good))
    return rep


# -- cubic differences and the grand identity -------------------------------

def _prod(*polys):
    out = polys[0]
    for t in polys[1:]:
        out = out * t
    return out


def _cubics(fx):
    """The cubic products f1·f2·E1, f3·f4·E2, g1·g2·W+ and g3·g4·W- of the
    two differences, adjusted reading."""
    return (_prod(fx["f1"], fx["f2"], fx["E1"]),
            _prod(fx["f3"], fx["f4"], fx["E2"]),
            _prod(fx["g1"], fx["g2"], fx["W+"]),
            _prod(fx["g3"], fx["g4"], fx["W-"]))


def _constant(ctx, d):
    """The value of d when it is constant in x, else None."""
    if d.degree() is None:
        return ctx.zero
    return d.coeff(0) if d.degree() == 0 else None


def fg_constants(ctx, fx):
    """The constants F and G of the two cubic differences.

    Returns (F, G, d_f, d_g): d_f is the first and d_g the adjusted second
    difference, expanded in x; F (G) is None when d_f (d_g) depends on x.
    """
    f12e1, f34e2, g12wp, g34wm = _cubics(fx)
    d_f = f12e1 - f34e2
    d_g = g12wp - g34wm
    return _constant(ctx, d_f), _constant(ctx, d_g), d_f, d_g


def _fg_failure(rep, d_f, d_g):
    """Fail rep on the first cubic difference that is not constant in x."""
    name, d = ("first", d_f) if (d_f.degree() or 0) > 0 else ("second", d_g)
    rep.expect("%s-difference-constant" % name, (), False, d.degree_str())
    return rep


def identity_audit(ctx, a, b):
    """Audit of the constant-difference claims and the grand identity.

    Both cubic differences are expanded exactly.  The first is constant in x
    outright; the second is constant only under the adjusted reading of its
    factors, and the scalar relation F = -p^{-6} q^6 G holds only there.
    The typeset variants are expanded too and reported as findings with
    exact coefficients.  The x-factors are built once, and each cubic and
    quartic product of them is expanded once and shared by the differences,
    the quintic factors, the grand identity and the quintic product identity
    under both readings.
    """
    p, q = ctx.p, ctx.q
    fx = x_factors(ctx, a, b)
    rep = ResidualReport("identity-audit", {
        "a": scalar_str(a), "b": scalar_str(b), **ctx.describe()})

    f12e1, f34e2, g12wp, g34wm = _cubics(fx)
    g12wp_giv = _prod(fx["g1"], fx["g2_given"], fx["W+_given"])
    d_f = f12e1 - f34e2
    d_g_adj = g12wp - g34wm
    d_g_given = g12wp_giv - _prod(fx["g4"], fx["g3"], fx["E2"])
    F, G = _constant(ctx, d_f), _constant(ctx, d_g_adj)

    rep.section("first_difference", {
        "degree": d_f.degree_str(), "coefficients": d_f.serialize()})
    rep.section("second_difference_adjusted", {
        "degree": d_g_adj.degree_str(), "coefficients": d_g_adj.serialize()})
    rep.section("second_difference_given", {
        "degree": d_g_given.degree_str(), "coefficients": d_g_given.serialize()})

    rep.expect("first-difference-constant", (),
               (d_f.degree() or 0) <= 0, d_f.degree_str())
    rep.expect("second-difference-constant", (),
               (d_g_adj.degree() or 0) <= 0, d_g_adj.degree_str())
    if (d_g_given.degree() or 0) > 0:
        rep.finding(
            "second-difference-reading",
            "the given reading of the second cubic difference is not "
            "constant in x; the adjusted reading is",
            {"given_degree": d_g_given.degree_str(),
             "given_coefficients": d_g_given.serialize()})

    if F is None or G is None:
        rep.expect("minus-p6q6-ratio", (), False, "difference not constant")
        return rep
    r6 = p ** 6 * q ** -6
    r6inv = p ** -6 * q ** 6
    rep.record("minus-p6q6-ratio", (), F + r6inv * G)
    rep.section("F", scalar_str(F))
    rep.section("G", scalar_str(G))

    # residual quintic factors, typeset and adjusted
    r6F = r6 * F
    f5_adj = g34wm - g12wp - XPolynomial([r6F])
    g5_adj = d_f - XPolynomial([F])
    f5_typ = _prod(fx["f1"], fx["f2"], fx["W-"]) - g12wp_giv \
        - XPolynomial([r6F])
    g5_typ = _prod(fx["g4"], fx["g3_apq"], fx["E1"]) - f34e2 \
        - XPolynomial([F])
    rep.section("f5", {
        "adjusted_degree": f5_adj.degree_str(),
        "adjusted_coefficients": f5_adj.serialize(),
        "given_degree": f5_typ.degree_str(),
        "given_coefficients": f5_typ.serialize()})
    rep.section("g5", {
        "adjusted_degree": g5_adj.degree_str(),
        "adjusted_coefficients": g5_adj.serialize(),
        "given_degree": g5_typ.degree_str(),
        "given_coefficients": g5_typ.serialize()})
    rep.expect("deg-f5-le-1", ("adjusted",),
               f5_adj.degree() is None or f5_adj.degree() <= 1,
               f5_adj.degree_str())
    rep.expect("deg-g5-le-1", ("adjusted",),
               g5_adj.degree() is None or g5_adj.degree() <= 1,
               g5_adj.degree_str())
    for name, poly in (("f5", f5_typ), ("g5", g5_typ)):
        if poly.degree() is not None and poly.degree() > 1:
            rep.finding(
                "deg-le-1-reading",
                "typeset %s has degree %s (> 1); the adjusted reading "
                "vanishes identically" % (name, poly.degree_str()),
                {"degree": poly.degree_str(), "coefficients": poly.serialize()})

    # grand identity p^-4 q^4 f1f2f3f4 (p^6 q^-6 F g3g4W- + G g1g2W+
    # + p^6 q^-6 FG) = g1g2g3g4 (F f1f2E1 + p^-6 q^6 G f3f4E2 + p^-6 q^6 FG):
    # identically zero under the adjusted reading; the literal typeset
    # reading, with the same scalar F, G, is a finding
    FG = F * G
    f1234 = _prod(fx["f1"], fx["f2"], fx["f3"], fx["f4"])
    g1234 = _prod(fx["g1"], fx["g2"], fx["g3"], fx["g4"])
    g1234_giv = _prod(fx["g1"], fx["g2_given"], fx["g3"], fx["g4"])
    lhs_const = XPolynomial([r6 * FG])
    scale4 = p ** -4 * q ** 4
    rhs = f12e1.scale(F) + f34e2.scale(r6inv * G) + XPolynomial([r6inv * FG])

    def grand(g34w, g12w, gs):
        lhs = f1234 * (g34w.scale(r6F) + g12w.scale(G) + lhs_const)
        return lhs.scale(scale4) - gs * rhs

    grand_adj = grand(g34wm, g12wp, g1234)
    rep.expect("grand-product", ("adjusted",), grand_adj.is_zero(),
               "degree %s" % grand_adj.degree_str())
    grand_giv = grand(_prod(fx["g4"], fx["g3_apq"], fx["W-"]), g12wp_giv,
                      g1234_giv)
    if not grand_giv.is_zero():
        rep.finding(
            "grand-product-reading",
            "literal reading of the grand identity leaves a nonzero "
            "residual; the adjusted reading is identically zero",
            {"degree": grand_giv.degree_str(),
             "coefficients": grand_giv.serialize()})

    # quintic product identity under both readings
    prod_adj = f1234 * f5_adj - g1234 * g5_adj
    rep.expect("quintic-product", ("adjusted",), prod_adj.is_zero(),
               "degree %s" % prod_adj.degree_str())
    prod_giv = f1234 * f5_typ - g1234_giv * g5_typ
    if not prod_giv.is_zero():
        rep.finding(
            "quintic-product-reading",
            "quintic product identity fails under the typeset quintic "
            "factors; holds (trivially, 0 = 0) under the adjusted ones",
            {"degree": prod_giv.degree_str(),
             "coefficients": prod_giv.serialize()})

    rep.section("degeneracy", _profile(ctx, a, b, fx).to_dict())
    return rep


# -- displayed action coefficients and the recurrences -----------------------

def closed_form_f(ctx, rule, F0, j):
    """f(j) = u^{3j} F0 / (c(-1,j+2) c(-1,j+1)); None on zero denominator."""
    den = rule.coeff(ctx, -1, j + 2) * rule.coeff(ctx, -1, j + 1)
    if is_zero(den):
        return None
    return ctx.upow(3 * j) * F0 / den


def closed_form_g(ctx, rule, G0, j):
    """g(j) = u^{3j} G0 / (c(1,j-2) c(1,j-1)); None on zero denominator."""
    den = rule.coeff(ctx, 1, j - 2) * rule.coeff(ctx, 1, j - 1)
    if is_zero(den):
        return None
    return ctx.upow(3 * j) * G0 / den


def fg_recurrence_audit(ctx, a, b, jmax):
    """The two step recurrences against the closed forms, swept over j.

    F0 and G0 are the constants of the two cubic differences at (a, b).
    The sweep reads the mab(a, b) coefficients through one MemoRule."""
    F0, G0, d_f, d_g = fg_constants(ctx, x_factors(ctx, a, b))
    if F0 is None or G0 is None:
        return _fg_failure(ResidualReport("fg-recurrences", {}), d_f, d_g)
    rule = MemoRule(ctx, Mab(a, b))
    rep = ResidualReport("fg-recurrences", {
        "a": scalar_str(a), "b": scalar_str(b),
        "F0": scalar_str(F0), "G0": scalar_str(G0),
        "jmax": int(jmax), **ctx.describe()})
    fs = {j: closed_form_f(ctx, rule, F0, j) for j in range(-jmax - 1, jmax + 1)}
    gs = {j: closed_form_g(ctx, rule, G0, j) for j in range(-jmax, jmax + 2)}
    p3, q3 = ctx.p ** 3, ctx.q ** 3
    pm3, qm3 = ctx.p ** -3, ctx.q ** -3
    for j in range(-jmax, jmax + 1):
        fj, fjm1 = fs[j], fs[j - 1]
        if fj is None or fjm1 is None:
            rep.note("f-recurrence skipped at j=%d (zero denominator)" % j)
        else:
            rep.record("f-step", (j,),
                       qm3 * fj * rule.coeff(ctx, -1, j + 2)
                       - pm3 * fjm1 * rule.coeff(ctx, -1, j))
        gj, gjp1 = gs[j], gs[j + 1]
        if gj is None or gjp1 is None:
            rep.note("g-recurrence skipped at j=%d (zero denominator)" % j)
        else:
            rep.record("g-step", (j,),
                       p3 * gjp1 * rule.coeff(ctx, 1, j)
                       - q3 * gj * rule.coeff(ctx, 1, j - 2))
    return rep


def l2_coefficients(ctx, rule, j):
    """The displayed rational coefficients of the ±2 actions on v_j.

    Returns (c2, cm2), built from the rule's c(±1,·) and c(±2,·).  cm2 is
    the adjusted reading of its display, the one consistent with the
    recurrences; `_cm2_given` is the literal one.  Vanishing denominators
    raise with the offending factor named.
    """
    j = int(j)
    c = lambda n, k: rule.coeff(ctx, n, k)
    den1 = c(-1, j + 2)
    den2 = c(-1, j + 1)
    if is_zero(den1):
        raise ValueError("c2 denominator dn(j+2) vanishes at j=%d" % j)
    if is_zero(den2):
        raise ValueError("c2 denominator dn(j+1) vanishes at j=%d" % j)
    c2 = c(1, j) * c(1, j + 1) * c(-2, j + 2) / (den1 * den2)
    den3 = c(1, j - 2)
    den4 = c(1, j - 1)
    if is_zero(den3):
        raise ValueError("cm2 denominator up(j-2) vanishes at j=%d" % j)
    if is_zero(den4):
        raise ValueError("cm2 denominator up(j-1) vanishes at j=%d" % j)
    cm2 = c(-1, j) * c(-1, j - 1) * c(2, j - 2) / (den3 * den4)
    return c2, cm2


def _cm2_given(ctx, rule, j):
    """The literal reading of cm2, in the rule's parameters a and b; it
    differs in the first factor's exponent and one bracket sign.  Call it
    only where `l2_coefficients` returns, so no denominator vanishes."""
    p, q = ctx.p, ctx.q
    params = rule.params()
    a, b = params["a"], params["b"]
    first = (p ** -j * ctx.qint(j) - a * p ** -j * q ** j
             - b * p ** (-j - 1) * q ** j * ctx.qint(-1))
    second = (p ** (-j + 2) * ctx.qint(j - 2) - a * p ** (-j + 2) * q ** (j - 2)
              - b * p ** -j * q ** (j - 2) * ctx.qint(-2))
    return (first * rule.coeff(ctx, -1, j - 1) * second
            / (rule.coeff(ctx, 1, j - 2) * rule.coeff(ctx, 1, j - 1)))


def l2_display_audit(ctx, a, b, jmax):
    """Sweep of the displayed ±2 coefficients against rule values and the
    closed forms, plus the gauge-invariant product against the partner
    parameters.  The sweep reads the mab(a, b) coefficients through one
    MemoRule, and computes the adjusted (c2, cm2) once for each j in
    [-jmax, jmax + 2]: the gauge product at j reads cm2 at j + 2."""
    rep = ResidualReport("l2-display", {
        "a": scalar_str(a), "b": scalar_str(b), "jmax": int(jmax),
        **ctx.describe()})
    F, G, d_f, d_g = fg_constants(ctx, x_factors(ctx, a, b))
    if F is None or G is None:
        return _fg_failure(rep, d_f, d_g)
    rule = MemoRule(ctx, Mab(a, b))
    partner = Mab(a, second_solution(ctx, a, b))
    variant = Mab(a, 1 - a * (ctx.p - ctx.q) - b)
    variant_hits = 0
    l2 = {}
    for j in range(-jmax, jmax + 3):
        try:
            l2[j] = l2_coefficients(ctx, rule, j)
        except ValueError as exc:
            if j <= jmax:
                rep.note("skipped j=%d: %s" % (j, exc))
    # where l2[j] exists, no denominator of the closed forms vanishes
    for j in range(-jmax, jmax + 1):
        if j not in l2:
            continue
        c2, cm2 = l2[j]
        rep.record("c2-display", (j,), c2 - rule.coeff(ctx, 2, j)
                   - closed_form_f(ctx, rule, F, j))
        gj = closed_form_g(ctx, rule, G, j)
        wm2 = rule.coeff(ctx, -2, j)
        rep.record("cm2-display", (j,), cm2 - wm2 - gj)
        given = _cm2_given(ctx, rule, j) - wm2 - gj
        if not is_zero(given):
            rep.finding(
                "cm2-display-reading",
                "literal cm2 display fails at j=%d; adjusted reading "
                "passes" % j,
                {"j": j, "residual": scalar_str(given)})
        if j + 2 in l2:
            gauge = c2 * l2[j + 2][1]
            rep.record("gauge-product", (j,), gauge
                       - partner.coeff(ctx, 2, j) * partner.coeff(ctx, -2, j + 2))
            if is_zero(gauge - variant.coeff(ctx, 2, j)
                       * variant.coeff(ctx, -2, j + 2)):
                variant_hits += 1
    rep.section("variant_partner_matches", variant_hits)
    return rep
