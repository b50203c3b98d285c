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
from functools import reduce
from operator import or_

VARS = ("p", "q", "a", "b")
_NV = len(VARS)

# A monomial is one int: a _BITS-wide field per variable, VARS[0] in the top
# field, so int order on packed monomials is lex order on exponent vectors.
# The top bit of every field is a guard bit (Monagan & Pearce, CASC 2007):
# an exponent above _EMAX sets it and raises instead of carrying into the
# next field, and d divides e exactly when (e | _GUARD) - d keeps every
# guard bit set.
_BITS = 16
_EMAX = (1 << (_BITS - 1)) - 1
_FIELD = (1 << _BITS) - 1
_SHIFTS = tuple(_BITS * (_NV - 1 - i) for i in range(_NV))
_LOW = sum(1 << s for s in _SHIFTS)
_GUARD = _LOW << (_BITS - 1)
_ZEXP = 0
_ONE = {_ZEXP: 1}


def _overflow():
    return ValueError("exponent above %d, the limit of a packed monomial"
                      % _EMAX)


def _unpack(e):
    """Exponents of the packed monomial e, in VARS order."""
    return tuple((e >> s) & _FIELD for s in _SHIFTS)


def _fmin(x, y):
    """Fieldwise minimum of two packed monomials."""
    m = ((((x | _GUARD) - y) & _GUARD) >> (_BITS - 1)) * _FIELD  # x >= y
    return (y & m) | (x & ~m)


def _fmax(x, y):
    """Fieldwise maximum of two packed monomials."""
    m = ((((x | _GUARD) - y) & _GUARD) >> (_BITS - 1)) * _FIELD  # x >= y
    return (x & m) | (y & ~m)


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
# integer polynomials in p, q, a, b (sparse packed monomial -> coefficient)
# ---------------------------------------------------------------------------

class Poly:
    """Multivariate polynomial over Z with a canonical sparse representation.

    Terms map packed monomials (one int per monomial, one field per entry of
    VARS, see ``_BITS``) to nonzero int coefficients.  The zero polynomial is
    the empty dict.  An exponent above ``_EMAX`` raises ValueError.
    ``+``, ``-`` and ``*`` take Poly operands only; any other operand, an
    int included, is a TypeError.  `ring_sum` is where ints and Polys
    meet.  A Poly is a plain value: no operation changes one, and equal
    polynomials hash equal however they were built.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t[e] = c
        self.terms = t

    # construction ---------------------------------------------------------

    @staticmethod
    def const(n):
        return Poly({_ZEXP: int(n)}) if n else Poly()

    @staticmethod
    def var(name):
        return Poly({1 << _SHIFTS[VARS.index(name)]: 1})

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
        e = reduce(or_, self.terms, 0)
        return [i for i, s in enumerate(_SHIFTS) if (e >> s) & _FIELD]

    # arithmetic -----------------------------------------------------------

    def _combine(self, other, sign):
        """self + sign·other for a Poly other, in one copied dict with zero
        sums dropped."""
        if not isinstance(other, Poly):
            return NotImplemented
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, 0) + sign * c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        r = Poly.__new__(Poly)
        r.terms = t
        return r

    def __add__(self, other):
        return self._combine(other, 1)

    def __neg__(self):
        r = Poly.__new__(Poly)
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.terms or not other.terms:
            return Poly()
        if len(other.terms) == 1:
            self, other = other, self
        if len(self.terms) == 1:
            # distinct exponents stay distinct under a monomial shift
            (e1, c1), = self.terms.items()
            t = {e1 + e2: c1 * c2 for e2, c2 in other.terms.items()}
        else:
            t = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = e1 + e2
                    s = t.get(e, 0) + c1 * c2
                    if s:
                        t[e] = s
                    else:
                        del t[e]
        # fields below the guard bit sum without a carry, so a guard bit
        # left set in the result is the only sign of an overflow
        if reduce(or_, t, 0) & _GUARD:
            raise _overflow()
        r = Poly.__new__(Poly)
        r.terms = t
        return r

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if len(self.terms) == 1:
            # e * n multiplies every field by n once each is <= _EMAX // n
            (e, c), = self.terms.items()
            if n and (e + (_EMAX - _EMAX // n) * _LOW) & _GUARD:
                raise _overflow()
            return Poly({e * n: c ** n})
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # ordering helpers (lex on exponents, int order on packed monomials) ---

    def lead(self):
        """(packed monomial, coefficient) of the lex-largest term."""
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
        s = _SHIFTS[i]
        return max((e >> s) & _FIELD for e in self.terms)

    # evaluation -----------------------------------------------------------

    def eval(self, values):
        """Evaluate at a tuple of Fractions, one per entry of VARS."""
        acc = Fraction(0)
        for e, c in self.terms.items():
            t = Fraction(c)
            for v, d in zip(values, _unpack(e)):
                if d:
                    t *= v ** d
            acc += t
        return acc

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = []
            for name, d in zip(VARS, _unpack(e)):
                if d == 1:
                    factors.append(name)
                elif d > 1:
                    factors.append("%s^%d" % (name, d))
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


def ring_sum(*products):
    """The sum of products of ints and Polys, each product a tuple of its
    factors: the kernel of the fraction-free numerators whose parts are
    Polys, and the one place where ints and Polys meet (Poly operators
    take Polys only).

    In each product the int factors and one-term Polys fold into one
    coefficient and one monomial shift.  The other factors are multiplied
    term by term, the last two straight into one accumulating dict (the
    3-term by 3-term product is the common shape): each partial key of
    the penultimate factor is checked against the guard bits before a
    key of the last is added to it, so no intermediate Poly is built, and
    zero sums are dropped once, at the end.
    The sum is an int when no factor is a Poly and a Poly otherwise.  A
    product with a zero factor adds nothing; every term of any other is
    checked against ``_EMAX`` before zeros are dropped, so a product whose
    degree in a variable passes it raises ValueError even where its terms
    cancel in the sum.  No Poly operator is called.
    """
    acc = {}
    ring = False
    for factors in products:
        c, shift, multi = 1, _ZEXP, []
        for f in factors:
            if type(f) is int:
                c *= f
                continue
            ring = True
            t = f.terms
            if len(t) == 1:
                (e, x), = t.items()
                c *= x
                shift += e
                # a third field summed onto one past the guard can carry
                if shift & _GUARD:
                    raise _overflow()
            elif t:
                multi.append(t)
            else:
                c = 0
        if not c:
            continue
        if not multi:
            acc[shift] = acc.get(shift, 0) + c
            continue
        last = multi.pop()
        if not multi:
            for e2, c2 in last.items():
                e = shift + e2
                acc[e] = acc.get(e, 0) + c * c2
            continue
        terms = {shift: c}
        pen = multi.pop()
        for t in multi:
            out = {}
            for e1, c1 in terms.items():
                for e2, c2 in t.items():
                    e = e1 + e2
                    out[e] = out.get(e, 0) + c1 * c2
            if reduce(or_, out, 0) & _GUARD:
                raise _overflow()
            terms = out
        for e0, c0 in terms.items():
            for e1, c1 in pen.items():
                e01 = e0 + e1
                # checked before the third field is summed onto it
                if e01 & _GUARD:
                    raise _overflow()
                c01 = c0 * c1
                for e2, c2 in last.items():
                    e = e01 + e2
                    acc[e] = acc.get(e, 0) + c01 * c2
    if not ring:
        return acc.get(_ZEXP, 0)
    # fields below the guard bit sum without a carry, so a guard bit left
    # set in a key is the only sign of an overflow
    if reduce(or_, acc, 0) & _GUARD:
        raise _overflow()
    r = Poly.__new__(Poly)
    r.terms = {e: x for e, x in acc.items() if x}
    return r


# -- exact division and multivariate gcd ------------------------------------

def _coeffs_in(p, i):
    """Split p by the exponent of variable i: degree -> Poly in the others."""
    s = _SHIFTS[i]
    rest = ~(_FIELD << s)
    buckets = {}
    for e, c in p.terms.items():
        buckets.setdefault((e >> s) & _FIELD, {})[e & rest] = c
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
            ee = ((e | _GUARD) - eb) ^ _GUARD
            if ee & _GUARD:
                raise ValueError("inexact polynomial division")
            qc, r = divmod(c, cb)
            if r:
                raise ValueError("inexact polynomial division")
            t[ee] = qc
        return Poly(t)
    # an exact quotient has degree deg_i(a) - deg_i(b) in every variable,
    # which also bounds the loop when b does not divide a; top keeps its
    # guard bits set, so top - ee clears one exactly where ee leaves the box
    top = (reduce(_fmax, a.terms) | _GUARD) - reduce(_fmax, b.terms)
    if top & _GUARD != _GUARD:
        raise ValueError("inexact polynomial division")
    q = {}
    r = dict(a.terms)
    eb, cb = b.lead()
    bterms = b.terms.items()
    while r:
        er = max(r)
        ee = ((er | _GUARD) - eb) ^ _GUARD
        if ee & _GUARD or (top - ee) & _GUARD != _GUARD:
            raise ValueError("inexact polynomial division")
        qc, rem = divmod(r[er], cb)
        if rem:
            raise ValueError("inexact polynomial division")
        # the lead falls strictly, so each quotient monomial comes once
        q[ee] = qc
        for e2, c2 in bterms:
            e = ee + e2
            s = r.get(e, 0) - qc * c2
            if s:
                r[e] = s
            else:
                del r[e]
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
        r = r * lb - Poly({(dr - db) << _SHIFTS[i]: 1}) * lr * b


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
    Each of the three returns a positive lead on its own.
    """
    return _trivial_gcd(a, b) or _heu_gcd(a, b) or _prs_gcd(a, b)


def _trivial_gcd(a, b):
    """gcd of the shapes that need no elimination, else None."""
    if a.is_zero():
        return b if b.is_zero() or b.lead_sign() > 0 else -b
    if b.is_zero():
        return a if a.lead_sign() > 0 else -a
    if a.is_const() or b.is_const():
        if b.is_const():
            a, b = b, a
        # a ±1 constant settles it without reading the other side
        g = a.content()
        return Poly.const(g if g == 1 else math.gcd(g, b.content()))
    if a.terms == b.terms:
        return a if a.lead_sign() > 0 else -a
    # single-term fast path: a monomial divides exactly what its exponents allow
    if len(a.terms) == 1 or len(b.terms) == 1:
        if len(b.terms) == 1:
            a, b = b, a
        (e, ca), = a.terms.items()
        for eb in b.terms:
            e = _fmin(e, eb)
            if not e:
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
    s = _SHIFTS[i]
    t = {}
    for e, c in p.terms.items():
        d = (e >> s) & _FIELD
        if d:
            e ^= d << s
            c *= x ** d
        t[e] = t.get(e, 0) + c
    return Poly(t)


def _interpolate(h, i, x):
    """Polynomial in variable i whose balanced base-x digits give h's
    integer coefficients (h does not contain variable i)."""
    s = _SHIFTS[i]
    t = {}
    half = x // 2
    for e, c in h.terms.items():
        d = 0
        while c:
            r = c % x
            if r > half:
                r -= x
            if r:
                if d > _EMAX:
                    raise _overflow()
                t[e | d << s] = r
            c = (c - r) // x
            d += 1
    return Poly(t)


def _heu_gcd(a, b):
    """gcd(a, b) of two inputs _trivial_gcd did not answer, or None when
    every evaluation point failed.  The balanced digits of the positive-lead
    image gcd give a positive lead."""
    cont = Poly.const(math.gcd(a.content(), b.content()))
    a, b = poly_divexact(a, cont), poly_divexact(b, cont)
    i = max(set(a.variables()) | set(b.variables()))
    x = 2 * min(max(map(abs, a.terms.values())),
                max(map(abs, b.terms.values()))) + 29
    for _ in range(_HEU_TRIES):
        aa = _eval_var(a, i, x)
        bb = _eval_var(b, i, x)
        if not (aa.is_zero() or bb.is_zero()):
            gg = _trivial_gcd(aa, bb) or _heu_gcd(aa, bb)
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

    ``+`` and ``*`` keep the normal form without reducing their result:
    they cancel gcds of the operands' parts (Henrici, JACM 1956).  Where
    both denominators are constant, as for every value at a rational
    point, those gcds are ``math.gcd`` of ints: a constant d divides a
    Poly exactly when it divides its content, and content is
    multiplicative (Gauss's lemma), so no ``poly_gcd`` is called.  ``-``,
    ``/`` and int or Fraction operands reach the same paths.
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
                if g.terms != _ONE:
                    num = poly_divexact(num, g)
                    den = poly_divexact(den, g)
            if den.lead_sign() < 0:
                num, den = -num, -den
        self.num = num
        self.den = den

    # construction ---------------------------------------------------------

    @staticmethod
    def var(name):
        return RationalFunction(Poly.var(name), Poly.const(1), _reduced=True)

    # predicates -----------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    # arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return _rf_const(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        d1, d2 = self.den.terms, o.den.terms
        if len(d1) == len(d2) == 1 and _ZEXP in d1 and _ZEXP in d2:
            # constant denominators: Henrici's reduction on ints.  With
            # g = gcd(d1, d2), a/d1 + b/d2 = (a·d2/g + b·d1/g)/(d1·d2/g),
            # and only gcd(g, content of that numerator) can cancel.
            d1, d2 = d1[_ZEXP], d2[_ZEXP]
            g = math.gcd(d1, d2)
            s1, s2 = d2 // g, d1 // g
            t = ({e: c * s1 for e, c in self.num.terms.items()} if s1 != 1
                 else dict(self.num.terms))
            for e, c in o.num.terms.items():
                x = t.get(e, 0) + c * s2
                if x:
                    t[e] = x
                else:
                    del t[e]
            if not t:
                return _rf_const(0)
            h = math.gcd(g, *t.values())
            if h != 1:
                t = {e: c // h for e, c in t.items()}
            num = Poly.__new__(Poly)
            num.terms = t
            return RationalFunction(num, Poly({_ZEXP: s1 * d1 // h}),
                                    _reduced=True)
        if d1 == d2:
            # a/d + b/d: only gcd(a + b, d) can cancel.  Reduced summands
            # with a zero sum always share d, so every zero sum ends here.
            num = self.num + o.num
            if num.is_zero():
                return _rf_const(0)
            den = self.den
            g = poly_gcd(num, den)
            if g.terms != _ONE:
                num = poly_divexact(num, g)
                den = poly_divexact(den, g)
            return RationalFunction(num, den, _reduced=True)
        g = poly_gcd(self.den, o.den)
        if g.terms == _ONE:
            num = self.num * o.den + o.num * self.den
            den = self.den * o.den
        else:
            db = poly_divexact(self.den, g)
            dd = poly_divexact(o.den, g)
            num = self.num * dd + o.num * db
            h = poly_gcd(num, g)
            if h.terms != _ONE:
                num = poly_divexact(num, h)
                g = poly_divexact(g, h)
            den = db * dd * g
        # Henrici: num is coprime to den, whose factors all lead positive
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
            return _rf_const(0)
        d1, d2 = self.den.terms, o.den.terms
        if len(d1) == len(d2) == 1 and _ZEXP in d1 and _ZEXP in d2:
            # constant denominators: n1/d1 · n2/d2 cancels only
            # gcd(content(n1), d2) and gcd(content(n2), d1), and content
            # is multiplicative (Gauss), so the product is reduced
            d1, d2 = d1[_ZEXP], d2[_ZEXP]
            n1, n2 = self.num, o.num
            g1 = math.gcd(d2, *n1.terms.values())
            g2 = math.gcd(d1, *n2.terms.values())
            if g1 != 1:
                n1 = Poly.__new__(Poly)
                n1.terms = {e: c // g1 for e, c in self.num.terms.items()}
            if g2 != 1:
                n2 = Poly.__new__(Poly)
                n2.terms = {e: c // g2 for e, c in o.num.terms.items()}
            den = Poly({_ZEXP: d1 // g2 * (d2 // g1)})
            return RationalFunction(n1 * n2, den, _reduced=True)
        g1 = poly_gcd(self.num, o.den)
        g2 = poly_gcd(o.num, self.den)
        n1, d2 = self.num, o.den
        if g1.terms != _ONE:
            n1, d2 = poly_divexact(n1, g1), poly_divexact(d2, g1)
        n2, d1 = o.num, self.den
        if g2.terms != _ONE:
            n2, d1 = poly_divexact(n2, g2), poly_divexact(d1, g2)
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
            return _rf_const(1)
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
        if self.den.terms == _ONE:
            return str(self.num)
        ns = str(self.num)
        if len(self.num.terms) > 1:
            ns = "(%s)" % ns
        ds = str(self.den)
        if len(self.den.terms) > 1 or "*" in ds:
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)

    __repr__ = __str__


def _rf_const(v):
    """The int or Fraction v as a constant RationalFunction."""
    return RationalFunction(Poly.const(v.numerator), Poly.const(v.denominator),
                            _reduced=True)


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------

def scalar_str(x):
    """Canonical exact string for a scalar of either backend."""
    return str(x)


def is_zero(x):
    """The one exact zero test, for a scalar of either backend (or anything
    with an ``is_zero`` method); the only passing residual is this zero.
    Anything else, such as a float, is no exact scalar and raises
    TypeError."""
    # exact types first: the kernels test int and Poly numerators, and an
    # isinstance test against Fraction goes through
    # ABCMeta.__instancecheck__; subclasses (bool, say) take the slow road
    t = type(x)
    if t is int or t is Fraction:
        return x == 0
    test = getattr(x, "is_zero", None)
    if test is not None:
        return test()
    if isinstance(x, (int, Fraction)):
        return x == 0
    raise TypeError("not an exact scalar: %r" % (x,))


def _ground(f):
    """The int value of the Poly f when it is constant (zero included),
    else f itself."""
    t = f.terms
    if not t:
        return 0
    if len(t) == 1 and _ZEXP in t:
        return t[_ZEXP]
    return f


def _formal_qint(n):
    """[n] at formal p, q in normal form: [k] = sum_{i<k} p^{k-1-i} q^i
    over 1, and [-k] = -[k]/(pq)^k for k > 0.  The terms p^{k-1} and
    q^{k-1} of [k] keep p and q from dividing it, so the parts are coprime
    and no gcd is needed."""
    k = abs(n)
    if k > _EMAX:
        raise _overflow()
    sp, sq = _SHIFTS[VARS.index("p")], _SHIFTS[VARS.index("q")]
    sign = 1 if n > 0 else -1
    num = Poly.__new__(Poly)
    num.terms = {((k - 1 - i) << sp) + (i << sq): sign for i in range(k)}
    den = Poly.__new__(Poly)
    den.terms = {_ZEXP if n >= 0 else (k << sp) + (k << sq): 1}
    return RationalFunction(num, den, _reduced=True)


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
    """Carries the backend and the deformation parameters p, q.

    ``p`` and ``q`` are scalars of the active backend.  Code built on top of
    the context only ever uses ``+ - * / **`` on scalars, so both backends
    run the same source.  ``scalar`` is the one conversion of an outside
    value (int, Fraction, rational string) into a scalar.

    The context caches one-index values: ``ppow``, ``qpow``, ``qint``,
    ``upow`` (u^n = p^{-n} q^n) and ``hq`` (h(n) = p^{-n}[n]) are computed
    once per exponent, and ``split(name, n)`` holds their ``parts``, split
    once per exponent, for the fraction-free kernels.  ``hu(k)`` holds the
    numerators of h(k) and u^k over one common denominator, the basis of
    every ``modules.Mab`` row, aligned once per k.  A sweep caches its
    rule's coefficients in one ``modules.MemoRule``; ``verify_algebra``
    has ``_StructureConstants``.
    """

    def __init__(self, backend, p, q, formal=False):
        self.backend = backend
        self.p = p
        self.q = q
        self.formal = formal
        self.zero = self.scalar(0)
        self.one = self.scalar(1)
        self._qint_cache = {}
        self._ppow_cache = {}
        self._qpow_cache = {}
        self._upow_cache = {}
        self._hq_cache = {}
        self._split_cache = {}
        self._hu_cache = {}

    # constructors ----------------------------------------------------------

    @staticmethod
    def numeric(p, q):
        pf, qf = _guarded_point(p, q)
        return ScalarContext("numeric", pf, qf)

    @staticmethod
    def symbolic(p=None, q=None):
        """Symbolic context.  p/q omitted means a formal variable."""
        if (p is None) != (q is None):
            raise GuardError("p and q must be both formal or both constant")
        if p is None:
            return ScalarContext(
                "symbolic",
                RationalFunction.var("p"),
                RationalFunction.var("q"),
                formal=True)
        pf, qf = _guarded_point(p, q)
        return ScalarContext("symbolic", _rf_const(pf), _rf_const(qf))

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
            return Fraction(v) if numeric else _rf_const(v)
        if isinstance(v, RationalFunction):
            raise ValueError("symbolic parameter in a numeric context")
        raise TypeError("not an exact scalar: %r" % (v,))

    def var(self, name):
        if self.backend != "symbolic":
            raise GuardError("free variables need the symbolic backend")
        return RationalFunction.var(name)

    def describe(self):
        return {
            "backend": self.backend,
            "p": scalar_str(self.p),
            "q": scalar_str(self.q),
            "guard": {"mode": "formal" if self.formal else "rational-point"},
        }

    def parts(self, x):
        """(numerator, denominator) of a scalar of this context: the one
        split of a scalar into parts, as the fraction-free kernels read it.
        The denominator is never zero, so x is zero exactly when the
        numerator is.  A Fraction or an int gives ints.  At a point each
        part of a RationalFunction is an int when that Poly is constant, so
        every part of an h(k), u^k, [n] or power is an int even while a
        and b stay formal.  At formal p, q both parts stay Polys: there p^n
        has denominator 1 for n >= 0 and p^-n for n < 0, so grounding would
        mix ints and Polys by the sign of an exponent.  `ring_sum`, where
        ints and Polys meet, takes any mix, but `algebra`'s
        `_StructureConstants` multiplies its parts with Poly operators,
        and each kernel that selects its evaluation by ``ctx.formal``
        expects Poly parts there, so both must see Polys only.  Anything
        else (a float) raises TypeError under every context.  The parts of
        a cached one-index value are read through `split`, which calls
        this once per exponent."""
        if isinstance(x, RationalFunction):
            if self.formal:
                return x.num, x.den
            return _ground(x.num), _ground(x.den)
        # Fraction first: the numeric backend's scalars are Fractions
        if isinstance(x, (Fraction, int)):
            return x.numerator, x.denominator
        raise TypeError("not an exact scalar: %r" % (x,))

    def join(self, num, den):
        """The scalar num/den of this context, reduced: the inverse of
        `parts`.  num and den are ints or Polys, den nonzero.  A kernel
        that judged a residual nonzero by its numerator reduces it here
        once, and the result prints as the value arithmetic would."""
        if self.backend == "numeric":
            return Fraction(num, den)
        num, den = (Poly.const(x) if isinstance(x, int) else x
                    for x in (num, den))
        return RationalFunction(num, den)

    # memoised one-index quantities --------------------------------------------

    def split(self, name, n):
        """`parts` of the cached one-index value ``name`` at n, where name
        is "ppow", "qpow", "qint", "upow" or "hq": split once per exponent,
        so a row kernel reads the parts of h(k) or u^k with one lookup."""
        key = (name, n)
        hit = self._split_cache.get(key)
        if hit is None:
            hit = self._split_cache[key] = self.parts(getattr(self, name)(n))
        return hit

    def hu(self, k):
        """(h', u', L) with h(k) = h'/L and u^k = u'/L, L the lcm of the
        denominators of their parts (`split`), aligned once per k.  At a
        point the two denominators are ints, and L is their lcm, from one
        `math.gcd`; at formal p, q they are monomials c·m, and L is the lcm
        of the coefficients times the fieldwise maximum of the monomials.
        All three are ints at a point and Polys at formal p, q."""
        hit = self._hu_cache.get(k)
        if hit is None:
            hn, hd = self.split("hq", k)
            un, ud = self.split("upow", k)
            if type(hd) is int:
                g = math.gcd(hd, ud)
                hit = hn * (ud // g), un * (hd // g), hd // g * ud
            else:
                (eh, ch), = hd.terms.items()
                (eu, cu), = ud.terms.items()
                g, e = math.gcd(ch, cu), _fmax(eh, eu)
                hit = (hn * Poly({e - eh: cu // g}),
                       un * Poly({e - eu: ch // g}), Poly({e: ch // g * cu}))
            self._hu_cache[k] = hit
        return hit

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
        """The two-parameter integer (p^n - q^n)/(p - q), any integer n.
        At formal p, q it is built in normal form (`_formal_qint`), with no
        division and no gcd."""
        n = int(n)
        hit = self._qint_cache.get(n)
        if hit is None:
            hit = self._qint_cache[n] = (
                _formal_qint(n) if self.formal else
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


def pascal_numerators(ctx, m, ns):
    """Numerators of the `pascal_residual`s (m, n), n in ns, over a common
    denominator.

    Write the three terms [m+n], p^n [m] and q^m [n] as t_i = N_i/D_i from
    the parts of the cached qint, ppow and qpow values (`ScalarContext.split`).
    Every D_i is nonzero, so the residual t1 - t2 - t3 is zero exactly when
    N1·D2·D3 - N2·D1·D3 - N3·D1·D2 is: ring products only (ints or Polys),
    no gcd and no reduced quotient.  At formal p, q the parts are Polys and
    `ring_sum` takes the three products; at a point they are ints.
    """
    split = ctx.split
    am, bm = split("qint", m)
    qm, dqm = split("qpow", m)
    out = []
    for n in ns:
        n1, d1 = split("qint", m + n)
        pn, dpn = split("ppow", n)
        an, bn = split("qint", n)
        if ctx.formal:
            out.append(ring_sum((n1, dpn, bm, dqm, bn),
                                (-1, am, pn, d1, dqm, bn),
                                (-1, an, qm, d1, dpn, bm)))
            continue
        d2 = dpn * bm
        d3 = dqm * bn
        out.append(n1 * (d2 * d3) - am * (pn * d1 * d3)
                   - an * (qm * d1 * d2))
    return out


def pascal_residual(ctx, m, n):
    """[m+n] - p^n [m] - q^m [n]; identically zero.

    Judged by its numerator (`pascal_numerators`): a zero one gives the
    context's zero, and only a nonzero one is reduced, so a failure reads
    as the exact reduced residual.
    """
    if is_zero(pascal_numerators(ctx, m, (n,))[0]):
        return ctx.zero
    return ctx.qint(m + n) - ctx.ppow(n) * ctx.qint(m) - ctx.qpow(m) * ctx.qint(n)


def reflection_residual(ctx, n):
    """[-n] + (pq)^(-n) [n]; identically zero.  Judged by its numerator
    N1·D2 + N2·D1 as `pascal_residual` is; only a nonzero one is reduced."""
    n1, d1 = ctx.split("qint", -n)
    pn, dpn = ctx.split("ppow", -n)
    qn, dqn = ctx.split("qpow", -n)
    an, bn = ctx.split("qint", n)
    if ctx.formal:
        num = ring_sum((n1, dpn, dqn, bn), (an, pn, qn, d1))
    else:
        num = n1 * (dpn * dqn * bn) + an * (pn * qn * d1)
    if is_zero(num):
        return ctx.zero
    return ctx.qint(-n) + ctx.ppow(-n) * ctx.qpow(-n) * ctx.qint(n)
