"""The deformed Witt/Virasoro bracket, its twisting map and the axioms.

Generators L_n (n in Z) plus one central element C.  The bracket is

    [L_n, L_m] = eta(n,m) L_{n+m} + delta_{m+n,0} central_coefficient(n) C

with eta(n,m) = [n]/p^n - [m]/p^m = h(n) - h(m), while the twisting map
scales L_n by 1 + u^n (u = q/p) and fixes C.  On generators each axiom
residual is a sum of these structure constants; the single checks return
it as an exact residual element, and the verifiers sweep the sums over
index windows, each constant computed once per sweep.
"""

from __future__ import annotations

from .report import ResidualReport
from .scalar import is_zero, scalar_str


class AlgebraElement:
    """Finite linear combination of generators plus a central part."""

    __slots__ = ("coeffs", "central")

    def __init__(self, coeffs=None, central=0):
        self.coeffs = {}
        if coeffs:
            for n, c in coeffs.items():
                if not is_zero(c):
                    self.coeffs[int(n)] = c
        self.central = central

    @staticmethod
    def generator(ctx, n, scale=1):
        return AlgebraElement({int(n): ctx.one * scale}, ctx.zero)

    @staticmethod
    def center(ctx, scale=1):
        return AlgebraElement({}, ctx.one * scale)

    @staticmethod
    def zero(ctx):
        return AlgebraElement({}, ctx.zero)

    def __add__(self, other):
        coeffs = dict(self.coeffs)
        for n, c in other.coeffs.items():
            s = coeffs.get(n, 0) + c
            if is_zero(s):
                coeffs.pop(n, None)
            else:
                coeffs[n] = s
        return AlgebraElement(coeffs, self.central + other.central)

    def __neg__(self):
        return AlgebraElement({n: -c for n, c in self.coeffs.items()}, -self.central)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        return AlgebraElement({n: c * s for n, c in self.coeffs.items()}, self.central * s)

    def is_zero(self):
        return not self.coeffs and is_zero(self.central)

    def __eq__(self, other):
        return (self - other).is_zero()

    def __str__(self):
        parts = []
        for n in sorted(self.coeffs):
            parts.append("%s·L[%d]" % (scalar_str(self.coeffs[n]), n))
        if not is_zero(self.central):
            parts.append("%s·C" % scalar_str(self.central))
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def eta(ctx, n, m):
    """Structure constant [n]/p^n - [m]/p^m of the non-central part."""
    return ctx.hq(n) - ctx.hq(m)


def central_coefficient(ctx, n):
    """Coefficient of C in [L_n, L_{-n}].

    (q/p)^{-n} / (6 (1 + (q/p)^n)) * [n-1]/p^{n-1} * [n]/p^n * [n+1]/p^{n+1}
    The context guard keeps 1 + (q/p)^n away from zero at rational points.
    """
    return (ctx.upow(-n) / ((1 + ctx.upow(n)) * 6)
            * ctx.hq(n - 1) * ctx.hq(n) * ctx.hq(n + 1))


def bracket(ctx, x, y):
    """Bilinear bracket; C is central, so central parts of x,y drop out."""
    out = AlgebraElement.zero(ctx)
    for n, cn in x.coeffs.items():
        for m, cm in y.coeffs.items():
            s = cn * cm
            term = {n + m: eta(ctx, n, m) * s}
            z = central_coefficient(ctx, n) * s if n + m == 0 else ctx.zero
            out = out + AlgebraElement(term, z)
    return out


def hom_twist(ctx, x):
    """The twisting map: L_n -> (1 + (q/p)^n) L_n, C -> C."""
    return AlgebraElement(
        {n: c * (1 + ctx.upow(n)) for n, c in x.coeffs.items()}, x.central)


class _StructureConstants:
    """eta(n, m), central_coefficient(n) and the twist factor 1 + u^n under
    one context, each computed once.

    `verify_algebra` holds one for its sweep, so the memo dies with the
    sweep; a single residual call holds its own.
    """

    __slots__ = ("ctx", "_eta", "_central", "_twist")

    def __init__(self, ctx):
        self.ctx = ctx
        self._eta = {}
        self._central = {}
        self._twist = {}

    def eta(self, n, m):
        hit = self._eta.get((n, m))
        if hit is None:
            hit = self._eta[n, m] = eta(self.ctx, n, m)
        return hit

    def central(self, n):
        hit = self._central.get(n)
        if hit is None:
            hit = self._central[n] = central_coefficient(self.ctx, n)
        return hit

    def twist(self, n):
        hit = self._twist.get(n)
        if hit is None:
            hit = self._twist[n] = 1 + self.ctx.upow(n)
        return hit


def _skew(sc, n, m):
    """(coefficient of L_{n+m}, coefficient of C) in [L_n, L_m] + [L_m, L_n]."""
    central = sc.central(n) + sc.central(m) if n + m == 0 else sc.ctx.zero
    return sc.eta(n, m) + sc.eta(m, n), central


def _hom_jacobi(sc, k, l, m):
    """(coefficient of L_{k+l+m}, coefficient of C) in the twisted Jacobi sum.

    The cyclic term for (x, y, z) is [twist(L_x), [L_y, L_z]]
    = (1 + u^x) eta(y,z) (eta(x,y+z) L_{x+y+z} + delta_{x+y+z,0} c_x C);
    the central part of [L_y, L_z] drops out of the outer bracket.
    """
    gen = central = sc.ctx.zero
    zero_sum = k + l + m == 0
    for x, y, z in ((k, l, m), (l, m, k), (m, k, l)):
        s = sc.twist(x) * sc.eta(y, z)
        gen = gen + s * sc.eta(x, y + z)
        if zero_sum:
            central = central + s * sc.central(x)
    return gen, central


def skew_residual(ctx, n, m):
    """[L_n, L_m] + [L_m, L_n]; zero including the central part."""
    gen, central = _skew(_StructureConstants(ctx), n, m)
    return AlgebraElement({n + m: gen}, central)


def hom_jacobi_residual(ctx, k, l, m):
    """[twist(L_k),[L_l,L_m]] + [twist(L_l),[L_m,L_k]] + [twist(L_m),[L_k,L_l]]."""
    gen, central = _hom_jacobi(_StructureConstants(ctx), k, l, m)
    return AlgebraElement({k + l + m: gen}, central)


def central_cocycle_residual(ctx, k, l, m):
    """Central part of the twisted Jacobi sum (meaningful when k+l+m=0)."""
    return hom_jacobi_residual(ctx, k, l, m).central


def verify_algebra(ctx, window):
    """Sweep skew symmetry and the twisted Jacobi identity over a window.

    Each residual is a sum of cached structure constants; the residual
    element is spelled out only for a failure's detail.
    """
    rep = ResidualReport("verify-algebra", {
        "window": int(window), **ctx.describe()})
    w = int(window)
    sc = _StructureConstants(ctx)
    for n in range(-w, w + 1):
        for m in range(n, w + 1):
            gen, central = _skew(sc, n, m)
            ok = is_zero(gen) and is_zero(central)
            rep.expect("skew", (n, m), ok,
                       "" if ok else str(AlgebraElement({n + m: gen}, central)))
    cocycle = []
    for k in range(-w, w + 1):
        for l in range(k, w + 1):
            for m in range(l, w + 1):
                gen, central = _hom_jacobi(sc, k, l, m)
                ok = is_zero(gen)
                rep.expect("hom-jacobi", (k, l, m), ok, "" if ok else str(
                    AlgebraElement({k + l + m: gen}, central)))
                if k + l + m == 0:
                    rep.record("central-cocycle", (k, l, m), central)
                    cocycle.append(
                        {"indices": [k, l, m], "residual": scalar_str(central)})
    rep.section("central_cocycle_residuals", cocycle)
    return rep


def generation_check(ctx, window):
    """Derive every L_n with 2 < |n| <= window from L_{±1}, L_{±2}.

    Greedy ladder: L_{n+1} = [L_n, L_1]/eta(n,1) going up and the mirror
    going down.  The guard makes every ladder coefficient nonzero, so the
    check is a constructive witness that the generators suffice.
    """
    rep = ResidualReport("generation-check", {
        "window": int(window), **ctx.describe()})
    chain = []
    w = int(window)
    for n in range(2, w):
        c = eta(ctx, n, 1)
        ok = not is_zero(c)
        rep.expect("ladder-up", (n, 1), ok, "vanishing ladder coefficient")
        if ok:
            chain.append({
                "target": n + 1, "from": [n, 1], "coefficient": scalar_str(c)})
    for n in range(-2, -w, -1):
        c = eta(ctx, n, -1)
        ok = not is_zero(c)
        rep.expect("ladder-down", (n, -1), ok, "vanishing ladder coefficient")
        if ok:
            chain.append({
                "target": n - 1, "from": [n, -1], "coefficient": scalar_str(c)})
    rep.section("ladder", chain)
    rep.note("all generators within the window are reached from L[±1], L[±2]")
    return rep
