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

`fg_constants` alone derives the constants F and G of the two cubic
differences, as their values at x = 0.  `degeneracy_table_audit` reads the
factors once, at formal a and b.

The weight-two audits (`l2_display_audit`, `fg_recurrence_audit`) read
their rule in rows of parts and judge each residual by its fraction-free
numerator, as `modules.verify_module` does: a passing residual takes ring
products only, and only a failure or a finding is reduced, once.
`l2_coefficients` computes the ±2 displays as values.  The deformation
of mab by the closed forms at F and G is checked as a module.
"""

from __future__ import annotations

from .modules import Mab, MemoRule, _sweep_pairs
from .report import ResidualReport
from .scalar import VARS, is_zero, ring_sum, scalar_str

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

    With formal a, b the difference fi - gj is a linear form in them; the
    line holds bidirectionally iff that form is a nonzero scalar multiple of
    the condition form: both are nonzero and their quotient involves
    neither a nor b.  A failing line reports the difference.  Requires the
    symbolic backend.
    """
    if ctx.backend != "symbolic":
        raise ValueError("degeneracy_table_audit needs the symbolic backend")
    a, b = ctx.var("a"), ctx.var("b")
    fx = x_factors(ctx, a, b)
    rep = ResidualReport("degeneracy-table", ctx.describe())
    for fi, gj in PAIR_ORDER:
        key = "%s=%s" % (fi, gj)
        d = (fx[fi] - fx[gj]).coeff(0)
        c = condition_scalar(ctx, a, b, fi, gj)
        ok = not is_zero(d) and not is_zero(c) and _free_of_ab(d / c)
        rep.expect("equivalence", (key,), ok, "" if ok else scalar_str(d))
    for key in ADJUSTED_LINES:
        fi, gj = key.split("=")
        rep.finding(
            "table-line-adjusted",
            "printed right-hand side of line %s deviates; adjudicated "
            "condition used" % key,
            {"pair": key,
             "adjudicated_R": scalar_str(_condition_ratio(ctx, fi, gj))})
    return rep


_AB = {VARS.index("a"), VARS.index("b")}


def _free_of_ab(x):
    """Whether the reduced RationalFunction x involves neither a nor b."""
    return _AB.isdisjoint(x.num.variables() + x.den.variables())


def second_solution(ctx, a, b):
    """The partner parameter b' sharing the same step-product data as b.

    Characterized by: the mab coefficient products c(1,j)·c(-1,j+1) of the
    (a,b) and (a,b') rules agree for every j.  The closed form is
    -1 - a(p-q) - b (an involution in b).
    """
    return -1 - a * (ctx.p - ctx.q) - b


def _variant_partner(ctx, a, b):
    """The catalogued partner form 1 - a(p-q) - b, which fails the defining
    quadratic; audits compare it with `second_solution`."""
    return 1 - a * (ctx.p - ctx.q) - b


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
    vres = _step_product(ctx, a, _variant_partner(ctx, a, b)) - target
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


def fg_constants(fx):
    """The constants F and G of the two cubic differences
    f1·f2·E1 - f3·f4·E2 and g1·g2·W+ - g3·g4·W- (adjusted reading).

    Both differences are constant in x at every p, q, a, b (expanded at
    formal ones they have degree 0), so F and G are their values at x = 0:
    products of the factors' constant terms, with no expansion in x.
    """
    at0 = lambda *keys: _prod(*(fx[k].coeff(0) for k in keys))
    return (at0("f1", "f2", "E1") - at0("f3", "f4", "E2"),
            at0("g1", "g2", "W+") - at0("g3", "g4", "W-"))


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
    F, G = fg_constants(fx)

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


# -- displayed action coefficients and the weight-two deformation -----------
#
# A residual's numerator and denominator are built from the parts of the
# rule's rows and of the cached u^{3j}, F and G.  A failure or a finding is
# reduced by `ctx.join` from those same parts, so it prints as the value
# arithmetic would.  A part is an int or a Poly, so every numerator and
# denominator is one `ring_sum`, written as its list of factors.

def _residual(ctx, num, den):
    """The residual num/den: the context's zero when num is zero, else
    reduced once."""
    return ctx.zero if is_zero(num) else ctx.join(num, den)


def _rows(ctx, rule, ns, ks):
    """{n: {k: parts of c(n, k)}} for n in ns and k in ks, one row each."""
    return {n: dict(zip(ks, rule.parts_row(ctx, n, ks))) for n in ns}


def _product(*xs):
    """Parts of the product of scalars given by their parts."""
    nums, dens = zip(*xs)
    return ring_sum(nums), ring_sum(dens)


class _Deformed(Mab):
    """mab(a, b) with the closed forms f(k) = u^{3k} F0/(c(-1,k+2) c(-1,k+1))
    and g(k) = u^{3k} G0/(c(1,k-2) c(1,k-1)) added to its rows c(2, k) and
    c(-2, k), by one `ring_sum` on their parts; `coeff` is the reduced
    value of the parts, so `relation_residual` reads the same numbers."""

    def __init__(self, a, b, F0, G0):
        super().__init__(a, b)
        self.const = {2: F0, -2: G0}

    def coeff(self, ctx, n, k):
        return ctx.join(*self.parts_row(ctx, n, [k])[0])

    def parts_row(self, ctx, n, ks):
        row = super().parts_row(ctx, n, ks)
        if n not in self.const:
            return row
        s = -n // 2     # the closed form at k divides by c(s,k-2s) c(s,k-s)
        far = super().parts_row(ctx, s, [k - 2 * s for k in ks])
        near = super().parts_row(ctx, s, [k - s for k in ks])
        kn, kd = ctx.parts(self.const[n])
        out = []
        for k, (bn, bd), x, y in zip(ks, row, far, near):
            dn, dd = _product(x, y)
            if is_zero(dn):
                raise ValueError("the closed form in row %d has a zero "
                                 "denominator at k=%d" % (n, k))
            un, ud = ctx.split("upow", 3 * k)
            out.append((ring_sum((bn, ud, kd, dn), (un, kn, dd, bd)),
                        ring_sum((bd, ud, kd, dn))))
        return out


def fg_recurrence_audit(ctx, a, b, jmax):
    """`_Deformed` at the constants F0, G0 of the two cubic differences at
    (a, b) as a module, on the `verify_module` kernel: the pairs (-1, 2)
    and (1, -2), which step f and g, and (2, -2), which ties F0 to G0, on
    v_j, j in [-jmax, jmax].  A j whose reads meet a vanishing closed-form
    denominator is skipped with a note naming the pair and the denominator.
    (1, 2) and (-1, -2) read c(±3, ·), which the deformation leaves alone."""
    F0, G0 = fg_constants(x_factors(ctx, a, b))
    rep = ResidualReport("fg-recurrences", {
        "a": scalar_str(a), "b": scalar_str(b),
        "F0": scalar_str(F0), "G0": scalar_str(G0),
        "jmax": int(jmax), **ctx.describe()})
    rule = MemoRule(ctx, _Deformed(a, b, F0, G0))
    c = _rows(ctx, rule, (1, -1), range(-jmax - 4, jmax + 5))
    why = {(n, i): _vanishing_denominator(      # why c(n, i) is undefined
        i, lambda r, k: r == -n // 2 and is_zero(c[r][k][0]))
        for n in (2, -2) for i in range(-jmax - 2, jmax + 3)}
    pairs = []
    for n, m in ((-1, 2), (1, -2), (2, -2)):
        ks = []
        for j in range(-jmax, jmax + 1):
            reads = ((m, j), (n, m + j), (n, j), (m, n + j), (n + m, j))
            bad = next(filter(None, map(why.get, reads)), None)
            if bad is None:
                ks.append(j)
            else:
                rep.note("pair (%d,%d) skipped at j=%d: %s" % (n, m, j, bad))
        if len(ks) == 2 * jmax + 1:     # none skipped: memo reads are slices
            ks = range(-jmax, jmax + 1)
        pairs.append((n, m, ks))
    if not any(ks for _, _, ks in pairs):
        raise ValueError(_checks_nothing("fg-recurrences", a, b, jmax))
    _sweep_pairs(ctx, rule, rep, pairs)
    return rep


# the denominators c(n, j + dk) of the ±2 coefficients at j, in the order
# they are tested, each with the name a vanishing one is reported under;
# the c2 ones are those of f(j), the cm2 ones those of g(j)
_L2_DENOMINATORS = ((-1, 2, "c2 denominator dn(j+2)"),
                    (-1, 1, "c2 denominator dn(j+1)"),
                    (1, -2, "cm2 denominator up(j-2)"),
                    (1, -1, "cm2 denominator up(j-1)"))


def _checks_nothing(check, a, b, jmax):
    """The error for a sweep over j whose every j is skipped."""
    return ("%s checks nothing at a=%s, b=%s: a denominator vanishes at "
            "every j with |j| <= %d" % (check, scalar_str(a), scalar_str(b),
                                         jmax))


def _vanishing_denominator(j, vanishes):
    """The message for the first ±2 denominator c(n, k) at j for which
    vanishes(n, k) holds, else None."""
    for n, dk, name in _L2_DENOMINATORS:
        if vanishes(n, j + dk):
            return "%s vanishes at j=%d" % (name, j)
    return None


def l2_coefficients(ctx, rule, j):
    """The displayed rational coefficients of the ±2 actions on v_j.

    Returns (c2, cm2), built from the rule's c(±1,·) and c(±2,·).  cm2 is
    the adjusted reading of its display, the one consistent with the
    recurrences.  Vanishing denominators raise with the offending factor
    named.
    """
    j = int(j)
    c = lambda n, k: rule.coeff(ctx, n, k)
    bad = _vanishing_denominator(j, lambda n, k: is_zero(c(n, k)))
    if bad is not None:
        raise ValueError(bad)
    c2 = c(1, j) * c(1, j + 1) * c(-2, j + 2) / (c(-1, j + 2) * c(-1, j + 1))
    cm2 = c(-1, j) * c(-1, j - 1) * c(2, j - 2) / (c(1, j - 2) * c(1, j - 1))
    return c2, cm2


def _display(coeff, u, const, w):
    """Parts of (A - U·K)/D - W: a ±2 coefficient A/D less its closed form
    U·K/D and its rule value W.  coeff = (D, A), the parts of the products
    of its denominators and of its numerators; u, const and w are the parts
    of u^{3j}, K and W.  The coefficient and its closed form share D, so D
    enters the denominator once."""
    ((dn, dd), (an, ad)), (un, ud), (kn, kd), (wn, wd) = coeff, u, const, w
    return (ring_sum((dd, wd, ud, kd, an), (-1, ad, ud, kd, wn, dn),
                     (-1, dd, un, ad, wd, kn)),
            ring_sum((ad, wd, ud, kd, dn)))


def _gauge(top, bottom, x, y):
    """Parts of top/bottom - X·Y, for X and Y given by their parts."""
    (xn, xd), (yn, yd) = x, y
    return (ring_sum((xd, yd, top), (-1, xn, yn, bottom)),
            ring_sum((xd, yd, bottom)))


def l2_display_audit(ctx, a, b, jmax):
    """Sweep of the displayed ±2 coefficients against rule values and the
    closed forms, plus the gauge-invariant product against the partner
    parameters.

    The sweep reads the rows c(±1, ·) and c(±2, ·) of mab(a, b) once, and
    c(2, ·), c(-2, ·) of the partner and of the variant partner.  It builds
    the parts of the adjusted (c2, cm2) once for each j in [-jmax, jmax + 2]
    (the gauge product at j reads cm2 at j + 2) and judges every residual by
    its numerator.  Each factor of the literal cm2 is a mab coefficient with
    b rescaled: c(1, j) of mab(a, b[-1]) and c(2, j - 2) of
    mab(a, b[-2]/[2]), so the literal reading is two more rows.  Only a
    failing residual or a finding is reduced."""
    rep = ResidualReport("l2-display", {
        "a": scalar_str(a), "b": scalar_str(b), "jmax": int(jmax),
        **ctx.describe()})
    F, G = fg_constants(x_factors(ctx, a, b))
    c = _rows(ctx, Mab(a, b), (1, -1, 2, -2), range(-jmax - 2, jmax + 5))
    partner, variant = (_rows(ctx, Mab(a, bb), (2, -2), range(-jmax, jmax + 3))
                        for bb in (second_solution(ctx, a, b),
                                   _variant_partner(ctx, a, b)))
    first = _rows(ctx, Mab(a, b * ctx.qint(-1)), (1,),
                  range(-jmax, jmax + 1))[1]
    second = _rows(ctx, Mab(a, b * ctx.qint(-2) / ctx.qint(2)), (2,),
                   range(-jmax - 2, jmax - 1))[2]
    fp, gp = ctx.parts(F), ctx.parts(G)
    l2 = {}     # j -> c2 and cm2, each as (denominators, numerators)
    for j in range(-jmax, jmax + 3):
        bad = _vanishing_denominator(j, lambda n, k: is_zero(c[n][k][0]))
        if bad is not None:
            if j <= jmax:
                rep.note("skipped j=%d: %s" % (j, bad))
            continue
        l2[j] = ((_product(c[-1][j + 2], c[-1][j + 1]),
                  _product(c[1][j], c[1][j + 1], c[-2][j + 2])),
                 (_product(c[1][j - 2], c[1][j - 1]),
                  _product(c[-1][j], c[-1][j - 1], c[2][j - 2])))
    if not any(j in l2 for j in range(-jmax, jmax + 1)):
        raise ValueError(_checks_nothing("l2-display", a, b, jmax))
    variant_hits = 0
    for j in range(-jmax, jmax + 1):
        if j not in l2:
            continue
        c2, cm2 = l2[j]
        u = ctx.split("upow", 3 * j)
        rep.record("c2-display", (j,), _residual(
            ctx, *_display(c2, u, fp, c[2][j])))
        rep.record("cm2-display", (j,), _residual(
            ctx, *_display(cm2, u, gp, c[-2][j])))
        given = _display((cm2[0], _product(first[j], c[-1][j - 1],
                                           second[j - 2])), u, gp, c[-2][j])
        if not is_zero(given[0]):
            rep.finding(
                "cm2-display-reading",
                "literal cm2 display fails at j=%d; adjusted reading "
                "passes" % j,
                {"j": j, "residual": scalar_str(ctx.join(*given))})
        if j + 2 in l2:
            # c2(j)·cm2(j+2) = top/bottom against c(2,j)·c(-2,j+2) of
            # the partner, and of the variant partner
            ((dn, dd), (an, ad)), ((dn2, dd2), (an2, ad2)) = c2, l2[j + 2][1]
            top, bottom = _product((an, ad), (dd, dn), (an2, ad2), (dd2, dn2))
            rep.record("gauge-product", (j,), _residual(ctx, *_gauge(
                top, bottom, partner[2][j], partner[-2][j + 2])))
            if is_zero(_gauge(top, bottom, variant[2][j],
                              variant[-2][j + 2])[0]):
                variant_hits += 1
    rep.section("variant_partner_matches", variant_hits)
    return rep
