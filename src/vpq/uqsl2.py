"""Finite-dimensional checks for the one-parameter quantum sl2.

The comparison point for the two-parameter theory is the classical fact
that on a (2l+1)-dimensional representation the FE and EF products act by
scalars built from one-parameter quantum integers, and that suitably scaled
those scalars are quadratic in x = q^{-m}[m].  The raising and lowering
operators themselves have square-root matrix entries, so they are never
represented here; everything is phrased through K eigenvalues and the
EF/FE products, which stay rational.

Half-integer spins are handled with doubled integer indices: two_l = 2l,
two_m = 2m, with the weight ladder two_m in {-two_l, -two_l+2, ..., two_l}.
"""

from __future__ import annotations

from fractions import Fraction

from .classify import XPolynomial
from .report import ResidualReport
from .scalar import is_zero, parse_rational, scalar_str


def _rat(v):
    """q as a Fraction: an int, a Fraction or a rational string, the values
    ``ScalarContext.scalar`` takes; anything else raises TypeError."""
    if isinstance(v, str):
        return parse_rational(v)
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    raise TypeError("not an exact scalar: %r" % (v,))


def one_param_qint(q, n):
    """The balanced quantum integer (q^n - q^{-n})/(q - q^{-1})."""
    q = _rat(q)
    n = int(n)
    if is_zero(q) or is_zero(q * q - 1):
        raise ValueError("one_param_qint needs q != 0 and q^2 != 1")
    return (q ** n - q ** -n) / (q - q ** -1)


class Uqsl2Rep:
    """Spin-two_l/2 representation data: sign omega, ladder size, parameter q.

    `qint` holds [n] for every n the ladder reads (l - m, l + m + 1 and
    the weights m), each computed once."""

    def __init__(self, omega, two_l, q):
        omega = int(omega)
        if omega not in (1, -1):
            raise ValueError("omega must be +1 or -1")
        two_l = int(two_l)
        if two_l < 0:
            raise ValueError("two_l must be a nonnegative integer")
        q = _rat(q)
        if is_zero(q) or is_zero(q * q - 1):
            raise ValueError("q must satisfy q != 0 and q^2 != 1")
        self.omega = omega
        self.two_l = two_l
        self.q = q
        self.qint = {n: one_param_qint(q, n)
                     for n in range(-two_l, two_l + 2)}

    def weights(self):
        """Doubled weights from lowest to highest."""
        return list(range(-self.two_l, self.two_l + 1, 2))

    def _check_weight(self, two_m):
        two_m = int(two_m)
        if (two_m - self.two_l) % 2 != 0:
            raise ValueError("weight %d has wrong parity for two_l=%d"
                             % (two_m, self.two_l))
        if abs(two_m) > self.two_l:
            raise ValueError("weight %d outside the ladder of two_l=%d"
                             % (two_m, self.two_l))
        return two_m

    def describe(self):
        return {"omega": self.omega, "two_l": self.two_l,
                "q": scalar_str(self.q)}


def k_eigenvalue(rep, two_m):
    """K acts on the weight-two_m line by omega * q^{two_m}."""
    two_m = rep._check_weight(two_m)
    return rep.omega * rep.q ** two_m


def fe_coefficient(rep, two_m):
    """Scalar of FE on the weight-two_m line: omega [l-m][l+m+1]."""
    two_m = rep._check_weight(two_m)
    lm = (rep.two_l - two_m) // 2
    lp = (rep.two_l + two_m) // 2
    return rep.omega * rep.qint[lm] * rep.qint[lp + 1]


def ef_coefficient(rep, two_m):
    """Scalar of EF on the weight-two_m line: omega [l+m][l-m+1]."""
    two_m = rep._check_weight(two_m)
    lm = (rep.two_l - two_m) // 2
    lp = (rep.two_l + two_m) // 2
    return rep.omega * rep.qint[lp] * rep.qint[lm + 1]


def rep_relation_audit(rep):
    """The commutation and ladder relations, eigenvalue by eigenvalue.

    Checks EF - FE = (K - K^{-1})/(q - q^{-1}) on every weight line, the
    K-eigenvalue ratio q^2 between adjacent weights, and annihilation at
    the two ends of the ladder.
    """
    q = rep.q
    rep_out = ResidualReport("uqsl2-relations", rep.describe())
    for two_m in rep.weights():
        k = k_eigenvalue(rep, two_m)
        rep_out.record("ef-fe-commutator", (two_m,),
                       ef_coefficient(rep, two_m) - fe_coefficient(rep, two_m)
                       - (k - k ** -1) / (q - q ** -1))
        if two_m + 2 <= rep.two_l:
            rep_out.record("k-ladder-ratio", (two_m,),
                           k_eigenvalue(rep, two_m + 2) - q ** 2 * k)
    rep_out.record("top-annihilation", (rep.two_l,),
                   fe_coefficient(rep, rep.two_l))
    rep_out.record("bottom-annihilation", (-rep.two_l,),
                   ef_coefficient(rep, -rep.two_l))
    return rep_out


def quadratic_in_x_fit(rep):
    """The scaled FE and EF scalars are quadratic in x = q^{-m}[m].

    Fits a degree-<=2 polynomial through the three lowest integer weights
    and verifies exact agreement at every other one.  Needs even two_l so
    that the weights are integers; with two_l in {0, 2} there is nothing
    left to verify and the report carries a trivial_fit flag instead.
    """
    if rep.two_l % 2 != 0:
        raise ValueError("x = q^{-m}[m] needs integer weights; two_l=%d "
                         "is odd" % rep.two_l)
    q = rep.q
    out = ResidualReport("uqsl2-x-quadratic", rep.describe())
    ms = [two_m // 2 for two_m in rep.weights()]
    xs = {m: q ** -m * rep.qint[m] for m in ms}
    trivial = len(ms) <= 3
    out.section("trivial_fit", trivial)

    def scaled(kind, m):
        coeff = fe_coefficient if kind == "FE" else ef_coefficient
        return q ** (-2 * m) * coeff(rep, 2 * m)

    for kind in ("FE", "EF"):
        nodes = ms[:3]
        fit = XPolynomial.through([(xs[k], scaled(kind, k)) for k in nodes])
        for m in ms:
            if m in nodes:
                continue
            out.record("x-quadratic", (kind, m),
                       scaled(kind, m) - fit.eval(xs[m]))
    return out
