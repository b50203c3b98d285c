"""Exact scalar arithmetic for the two-parameter deformed algebra.

Two interchangeable backends sit behind one tiny protocol:

* numeric  -- scalars are ``fractions.Fraction``
* symbolic -- scalars are :class:`RationalFunction`, reduced quotients of
  integer polynomials in the fixed variable tuple ``(p, q, a, b)``

Every operation is exact.  There are no floats anywhere and equality of
reduced rational functions is representation equality: a value has exactly
one normal form (gcd removed, denominator sign fixed).
"""

from __future__ import annotations

import math
from fractions import Fraction

VARS = ("p", "q", "a", "b")
_NV = len(VARS)
_ZEXP = (0,) * _NV


class GuardError(ValueError):
    """Raised when a context is built from parameters the theory excludes."""


def parse_rational(text):
    """Parse '7', '-3/5' etc. into a Fraction.  Floats and zero
    denominators are rejected with ValueError."""
    s = str(text).strip()
    if "." in s or "e" in s.lower():
        raise ValueError("exact rational expected, got %r" % (text,))
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (text,)) from None


# ---------------------------------------------------------------------------
# integer polynomials in p, q, a, b (sparse exponent-tuple -> coefficient)
# ---------------------------------------------------------------------------

class Poly:
    """Multivariate polynomial over Z with a canonical sparse representation.

    Terms map exponent tuples (one slot per entry of VARS) to nonzero int
    coefficients.  The zero polynomial is the empty dict.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t[e] = c
        self.terms = t
        self._hash = None

    # construction ---------------------------------------------------------

    @staticmethod
    def const(n):
        return Poly({_ZEXP: int(n)}) if n else Poly()

    @staticmethod
    def var(name):
        i = VARS.index(name)
        e = [0] * _NV
        e[i] = 1
        return Poly({tuple(e): 1})

    # predicates -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and _ZEXP in self.terms)

    def const_value(self):
        if not self.terms:
            return 0
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return self.terms[_ZEXP]

    def variables(self):
        """Indices of variables that actually occur."""
        seen = set()
        for e in self.terms:
            for i in range(_NV):
                if e[i]:
                    seen.add(i)
        return sorted(seen)

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, 0) + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        r = Poly.__new__(Poly)
        r.terms = t
        r._hash = None
        return r

    def __neg__(self):
        r = Poly.__new__(Poly)
        r.terms = {e: -c for e, c in self.terms.items()}
        r._hash = None
        return r

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return Poly()
        if len(other.terms) == 1:
            self, other = other, self
        if len(self.terms) == 1:
            # distinct exponents stay distinct under a monomial shift
            (e1, c1), = self.terms.items()
            t = {(e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3]):
                 c1 * c2 for e2, c2 in other.terms.items()}
            r = Poly.__new__(Poly)
            r.terms = t
            r._hash = None
            return r
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                s = t.get(e, 0) + c1 * c2
                if s:
                    t[e] = s
                else:
                    del t[e]
        r = Poly.__new__(Poly)
        r.terms = t
        r._hash = None
        return r

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            return Poly({(e[0] * n, e[1] * n, e[2] * n, e[3] * n): c ** n})
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # ordering helpers (lex on exponent tuples) ----------------------------

    def lead(self):
        """(exponent, coefficient) of the lex-largest term."""
        e = max(self.terms)
        return e, self.terms[e]

    def lead_sign(self):
        return 1 if self.terms[max(self.terms)] > 0 else -1

    def content(self):
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, abs(c))
            if g == 1:
                break
        return g

    def degree_in(self, i):
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    # evaluation -----------------------------------------------------------

    def eval(self, values):
        """Evaluate at a 4-tuple of Fractions."""
        acc = Fraction(0)
        for e, c in self.terms.items():
            t = Fraction(c)
            for i in range(_NV):
                if e[i]:
                    t *= values[i] ** e[i]
            acc += t
        return acc

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = []
            for i in range(_NV):
                if e[i] == 1:
                    factors.append(VARS[i])
                elif e[i] > 1:
                    factors.append("%s^%d" % (VARS[i], e[i]))
            if not factors:
                body = str(abs(c))
            else:
                body = "*".join(factors)
                if abs(c) != 1:
                    body = "%d*%s" % (abs(c), body)
            parts.append(("- " if c < 0 else "+ ") + body)
        out = " ".join(parts)
        if out.startswith("+ "):
            out = out[2:]
        elif out.startswith("- "):
            out = "-" + out[2:]
        return out

    __repr__ = __str__


# -- exact division and multivariate gcd ------------------------------------

def _coeffs_in(p, i):
    """Split p by the exponent of variable i: degree -> Poly in the others."""
    buckets = {}
    for e, c in p.terms.items():
        d = e[i]
        e0 = list(e)
        e0[i] = 0
        buckets.setdefault(d, {})[tuple(e0)] = c
    return {d: Poly(t) for d, t in buckets.items()}


def poly_divexact(a, b):
    """Exact division a/b; raises ValueError when it does not divide."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return Poly()
    if b.is_const():
        bc = b.const_value()
        t = {}
        for e, c in a.terms.items():
            qc, r = divmod(c, bc)
            if r:
                raise ValueError("inexact polynomial division")
            t[e] = qc
        return Poly(t)
    if len(b.terms) == 1:
        # monomial divisor: shift exponents, divide coefficients
        (eb, cb), = b.terms.items()
        t = {}
        for e, c in a.terms.items():
            ee = (e[0] - eb[0], e[1] - eb[1], e[2] - eb[2], e[3] - eb[3])
            if ee[0] < 0 or ee[1] < 0 or ee[2] < 0 or ee[3] < 0:
                raise ValueError("inexact polynomial division")
            qc, r = divmod(c, cb)
            if r:
                raise ValueError("inexact polynomial division")
            t[ee] = qc
        return Poly(t)
    # an exact quotient has degree deg_i(a) - deg_i(b) in every variable,
    # which also bounds the loop when b does not divide a
    top = [a.degree_in(i) - b.degree_in(i) for i in range(_NV)]
    if min(top) < 0:
        raise ValueError("inexact polynomial division")
    q = {}
    r = a
    eb, cb = b.lead()
    while r.terms:
        er, cr = r.lead()
        ee = tuple(er[i] - eb[i] for i in range(_NV))
        if any(x < 0 or x > t for x, t in zip(ee, top)):
            raise ValueError("inexact polynomial division")
        qc, rem = divmod(cr, cb)
        if rem:
            raise ValueError("inexact polynomial division")
        q[ee] = q.get(ee, 0) + qc
        r = r - Poly({ee: qc}) * b
    return Poly(q)


def _prem(a, b, i):
    """Pseudo-remainder of a by b with respect to variable i."""
    db = b.degree_in(i)
    bc = _coeffs_in(b, i)
    lb = bc[db]
    r = a
    while True:
        dr = r.degree_in(i)
        if dr < db or r.is_zero():
            return r
        rc = _coeffs_in(r, i)
        lr = rc[dr]
        shift = [0] * _NV
        shift[i] = dr - db
        r = r * lb - Poly({tuple(shift): 1}) * lr * b


def _content_in(p, i):
    cs = _coeffs_in(p, i)
    g = Poly()
    for d in sorted(cs):
        g = poly_gcd(g, cs[d])
        if g.is_const() and abs(g.const_value()) == 1:
            break
    return g


def poly_gcd(a, b):
    """gcd over Z[p,q,a,b], sign-normalized so the lex leading coeff is > 0.

    Trivial shapes are answered directly; the rest go to the heuristic gcd,
    with the primitive PRS as the fallback when no evaluation point works.
    """
    g = _trivial_gcd(a, b) or _heu_gcd(a, b) or _prs_gcd(a, b)
    return g if g.is_zero() or g.lead_sign() > 0 else -g


def _trivial_gcd(a, b):
    """gcd of the shapes that need no elimination, else None."""
    if a.is_zero():
        return b if b.is_zero() or b.lead_sign() > 0 else -b
    if b.is_zero():
        return a if a.lead_sign() > 0 else -a
    if a.is_const() or b.is_const():
        return Poly.const(math.gcd(a.content(), b.content()))
    if a.terms == b.terms:
        return a if a.lead_sign() > 0 else -a
    # single-term fast path: a monomial divides exactly what its exponents allow
    if len(a.terms) == 1 or len(b.terms) == 1:
        if len(b.terms) == 1:
            a, b = b, a
        (ea, ca), = a.terms.items()
        e = ea
        for eb in b.terms:
            e = tuple(min(e[i], eb[i]) for i in range(_NV))
            if not any(e):
                break
        return Poly({e: math.gcd(abs(ca), b.content())})
    if not set(a.variables()) & set(b.variables()):
        return Poly.const(math.gcd(a.content(), b.content()))
    return None


# -- heuristic gcd (GCDHEU: Char, Geddes & Gonnet 1989; Liao & Fateman 1995) --
#
# Evaluate one variable at a large integer xi, take the gcd of the images
# (recursively, down to integers), rebuild a candidate from the balanced
# base-xi digits of its coefficients and keep it only if it divides both
# inputs.  With xi >= 2*min(|a|, |b|) + 2 (max-norms) a candidate that
# divides both is the gcd; otherwise a larger xi is tried.

_HEU_TRIES = 6


def _eval_var(p, i, x):
    """p with variable i replaced by the integer x."""
    t = {}
    for e, c in p.terms.items():
        d = e[i]
        if d:
            e = e[:i] + (0,) + e[i + 1:]
            c *= x ** d
        t[e] = t.get(e, 0) + c
    return Poly(t)


def _interpolate(h, i, x):
    """Polynomial in variable i whose balanced base-x digits give h's
    integer coefficients (h does not contain variable i)."""
    t = {}
    half = x // 2
    for e, c in h.terms.items():
        d = 0
        while c:
            r = c % x
            if r > half:
                r -= x
            if r:
                t[e[:i] + (d,) + e[i + 1:]] = r
            c = (c - r) // x
            d += 1
    return Poly(t)


def _heu_gcd(a, b):
    """gcd(a, b) up to sign, or None when every evaluation point failed."""
    g = _trivial_gcd(a, b)
    if g is not None:
        return g
    cont = Poly.const(math.gcd(a.content(), b.content()))
    a, b = poly_divexact(a, cont), poly_divexact(b, cont)
    i = max(set(a.variables()) | set(b.variables()))
    x = 2 * min(max(map(abs, a.terms.values())),
                max(map(abs, b.terms.values()))) + 29
    for _ in range(_HEU_TRIES):
        aa = _eval_var(a, i, x)
        bb = _eval_var(b, i, x)
        if not (aa.is_zero() or bb.is_zero()):
            gg = _heu_gcd(aa, bb)
            if gg is None:
                return None
            h = _interpolate(gg, i, x)
            h = poly_divexact(h, Poly.const(h.content()))
            if _divides(h, a) and _divides(h, b):
                return h * cont
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    return None


def _divides(d, p):
    try:
        poly_divexact(p, d)
    except ValueError:
        return False
    return True


# -- primitive PRS (fallback) -----------------------------------------------

def _prs_gcd(a, b):
    """gcd by primitive pseudo-remainder sequences in one common variable."""
    g = _trivial_gcd(a, b)
    if g is not None:
        return g
    i = min(set(a.variables()) & set(b.variables()))
    ca = _content_in(a, i)
    cb = _content_in(b, i)
    c = poly_gcd(ca, cb)
    pa = poly_divexact(a, ca)
    pb = poly_divexact(b, cb)
    if pa.degree_in(i) < pb.degree_in(i):
        pa, pb = pb, pa
    while not pb.is_zero():
        r = _prem(pa, pb, i)
        pa = pb
        if r.is_zero():
            pb = Poly()
        else:
            pb = poly_divexact(r, _content_in(r, i))
    if pa.degree_in(i) == 0:
        return c
    g = poly_divexact(pa, _content_in(pa, i))
    g = c * g
    if g.lead_sign() < 0:
        g = -g
    return g


# ---------------------------------------------------------------------------
# reduced rational functions
# ---------------------------------------------------------------------------

class RationalFunction:
    """Quotient of two integer polynomials in canonical reduced form.

    Normal form: gcd(num, den) = 1 and the denominator's lex leading
    coefficient is positive.  Equal values therefore have equal components.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _reduced=False):
        if den is None:
            den = Poly.const(1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not _reduced:
            if num.is_zero():
                den = Poly.const(1)
            else:
                g = poly_gcd(num, den)
                if not (g.is_const() and g.const_value() == 1):
                    num = poly_divexact(num, g)
                    den = poly_divexact(den, g)
            if den.lead_sign() < 0:
                num, den = -num, -den
        self.num = num
        self.den = den

    # construction ---------------------------------------------------------

    @staticmethod
    def from_int(n):
        return RationalFunction(Poly.const(n), Poly.const(1), _reduced=True)

    @staticmethod
    def from_fraction(fr):
        fr = Fraction(fr)
        return RationalFunction(
            Poly.const(fr.numerator), Poly.const(fr.denominator), _reduced=True)

    @staticmethod
    def var(name):
        return RationalFunction(Poly.var(name), Poly.const(1), _reduced=True)

    # predicates -----------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    # arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, int):
            return RationalFunction.from_int(other)
        if isinstance(other, Fraction):
            return RationalFunction.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        g = poly_gcd(self.den, o.den)
        if g.is_const() and g.const_value() == 1:
            num = self.num * o.den + o.num * self.den
            den = self.den * o.den
        else:
            db = poly_divexact(self.den, g)
            dd = poly_divexact(o.den, g)
            num = self.num * dd + o.num * db
            h = poly_gcd(num, g)
            if not (h.is_const() and h.const_value() == 1):
                num = poly_divexact(num, h)
                g = poly_divexact(g, h)
            den = db * dd * g
        # Henrici: num is coprime to den, whose factors all lead positive;
        # a zero sum has equal denominators, so it comes out as 0/1
        return RationalFunction(num, den, _reduced=True)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return RationalFunction.from_int(0)
        g1 = poly_gcd(self.num, o.den)
        g2 = poly_gcd(o.num, self.den)
        n1 = self.num if g1.is_const() and g1.const_value() == 1 else poly_divexact(self.num, g1)
        d2 = o.den if g1.is_const() and g1.const_value() == 1 else poly_divexact(o.den, g1)
        n2 = o.num if g2.is_const() and g2.const_value() == 1 else poly_divexact(o.num, g2)
        d1 = self.den if g2.is_const() and g2.const_value() == 1 else poly_divexact(self.den, g2)
        num = n1 * n2
        den = d1 * d2
        if den.lead_sign() < 0:
            num, den = -num, -den
        return RationalFunction(num, den, _reduced=True)

    __rmul__ = __mul__

    def _reciprocal(self):
        # components already coprime; swapping keeps them so
        num, den = self.den, self.num
        if den.lead_sign() < 0:
            num, den = -num, -den
        return RationalFunction(num, den, _reduced=True)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        n = int(n)
        if n == 0:
            return RationalFunction.from_int(1)
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return self._reciprocal() ** (-n)
        # components stay coprime under powers, no re-reduction needed
        return RationalFunction(self.num ** n, self.den ** n, _reduced=True)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def eval(self, values):
        d = self.den.eval(values)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.eval(values) / d

    def __str__(self):
        if self.den.is_const() and self.den.const_value() == 1:
            return str(self.num)
        ns = str(self.num)
        if len(self.num.terms) > 1:
            ns = "(%s)" % ns
        ds = str(self.den)
        if len(self.den.terms) > 1 or "*" in ds:
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------

def scalar_str(x):
    """Canonical exact string for a scalar of either backend."""
    return str(x)


def is_zero(x):
    """Exact zero test for a scalar of either backend (or for anything
    with an ``is_zero`` method); the only passing residual is this zero."""
    test = getattr(x, "is_zero", None)
    return x == 0 if test is None else test()


def _guarded_point(p, q):
    """Parse a rational point (p, q) and reject the ones the theory excludes.

    The guard wants (q/p)^k != 1 for every k >= 1.  The only rational roots
    of unity are 1 and -1, so that is exactly q != p and q != -p.
    """
    p = parse_rational(p)
    q = parse_rational(q)
    if p == 0 or q == 0:
        raise GuardError("p and q must be nonzero")
    if p == q:
        raise GuardError("p = q is excluded (quantum integers degenerate)")
    if q in (1, -1):
        raise GuardError("q in {1, -1} is excluded")
    if q == -p:
        raise GuardError("q = -p is excluded: (q/p)^2 = 1 violates the "
                         "unit-ratio guard")
    return p, q


class ScalarContext:
    """Carries the backend, the deformation parameters and the guard window.

    ``p`` and ``q`` are scalars of the active backend.  Code built on top of
    the context only ever uses ``+ - * / **`` on scalars, so both backends
    run the same source.  ``scalar`` is the one conversion of an outside
    value (int, Fraction, rational string) into a scalar.

    The context is the one cache layer: ``ppow``, ``qpow``, ``qint``,
    ``upow`` (u^n = p^{-n} q^n) and ``hq`` (h(n) = p^{-n}[n]) are computed
    once per exponent.  ``guard_window`` is only echoed in reports.
    """

    def __init__(self, backend, p, q, guard_window=64, formal=False):
        self.backend = backend
        self.p = p
        self.q = q
        self.guard_window = int(guard_window)
        self.formal = formal
        self.zero = self.scalar(0)
        self.one = self.scalar(1)
        self._qint_cache = {}
        self._ppow_cache = {}
        self._qpow_cache = {}
        self._upow_cache = {}
        self._hq_cache = {}

    # constructors ----------------------------------------------------------

    @staticmethod
    def numeric(p, q, guard_window=64):
        pf, qf = _guarded_point(p, q)
        return ScalarContext("numeric", pf, qf, guard_window)

    @staticmethod
    def symbolic(p=None, q=None, guard_window=64):
        """Symbolic context.  p/q omitted means a formal variable."""
        if (p is None) != (q is None):
            raise GuardError("p and q must be both formal or both constant")
        if p is None:
            return ScalarContext(
                "symbolic",
                RationalFunction.var("p"),
                RationalFunction.var("q"),
                guard_window,
                formal=True)
        pf, qf = _guarded_point(p, q)
        return ScalarContext(
            "symbolic",
            RationalFunction.from_fraction(pf),
            RationalFunction.from_fraction(qf),
            guard_window)

    # scalar helpers ---------------------------------------------------------

    def scalar(self, v):
        """The one conversion of an outside value into a scalar of this
        backend: an int, a Fraction, a rational string or a scalar of this
        backend.  Anything else (a float, a symbolic value under the
        numeric backend) is rejected."""
        if isinstance(v, str):
            v = parse_rational(v)
        numeric = self.backend == "numeric"
        if isinstance(v, Fraction if numeric else RationalFunction):
            return v
        if isinstance(v, (int, Fraction)):
            return Fraction(v) if numeric else RationalFunction.from_fraction(v)
        if isinstance(v, RationalFunction):
            raise ValueError("symbolic parameter in a numeric context")
        raise TypeError("not an exact scalar: %r" % (v,))

    def var(self, name):
        if self.backend != "symbolic":
            raise GuardError("free variables need the symbolic backend")
        return RationalFunction.var(name)

    is_zero = staticmethod(is_zero)

    def guard_report(self):
        return {
            "window": self.guard_window,
            "mode": "formal" if self.formal else "rational-point",
            "unit_ratio_checked": not self.formal,
            "q_not_unit_checked": not self.formal,
        }

    def describe(self):
        return {
            "backend": self.backend,
            "p": scalar_str(self.p),
            "q": scalar_str(self.q),
            "guard": self.guard_report(),
        }

    # memoised one-index quantities --------------------------------------------

    def ppow(self, n):
        """p**n."""
        hit = self._ppow_cache.get(n)
        if hit is None:
            hit = self._ppow_cache[n] = self.p ** n
        return hit

    def qpow(self, n):
        """q**n."""
        hit = self._qpow_cache.get(n)
        if hit is None:
            hit = self._qpow_cache[n] = self.q ** n
        return hit

    def qint(self, n):
        """The two-parameter integer (p^n - q^n)/(p - q), any integer n."""
        n = int(n)
        hit = self._qint_cache.get(n)
        if hit is None:
            hit = self._qint_cache[n] = (
                (self.ppow(n) - self.qpow(n)) / (self.p - self.q))
        return hit

    def upow(self, n):
        """u^n = p^{-n} q^n, the n-th power of u = q/p."""
        hit = self._upow_cache.get(n)
        if hit is None:
            hit = self._upow_cache[n] = self.ppow(-n) * self.qpow(n)
        return hit

    def hq(self, n):
        """h(n) = p^{-n}[n]; every structure constant is built from h and u."""
        hit = self._hq_cache.get(n)
        if hit is None:
            hit = self._hq_cache[n] = self.ppow(-n) * self.qint(n)
        return hit


def qint(ctx, n):
    return ctx.qint(n)


def pascal_residual(ctx, m, n):
    """[m+n] - p^n [m] - q^m [n]; identically zero."""
    return ctx.qint(m + n) - ctx.ppow(n) * ctx.qint(m) - ctx.qpow(m) * ctx.qint(n)


def reflection_residual(ctx, n):
    """[-n] + (pq)^(-n) [n]; identically zero."""
    return ctx.qint(-n) + ctx.ppow(-n) * ctx.qpow(-n) * ctx.qint(n)
