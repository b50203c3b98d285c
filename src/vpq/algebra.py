"""The deformed Witt/Virasoro bracket, its twisting map and the axioms.

Generators L_n (n in Z) plus one central element C.  The bracket is

    [L_n, L_m] = eta(n,m) L_{n+m} + delta_{m+n,0} central_coefficient(n) C

with eta(n,m) = [n]/p^n - [m]/p^m = h(n) - h(m), while the twisting map
scales L_n by 1 + u^n (u = q/p) and fixes C.  The axiom checks below return
exact residual elements; the verifiers sweep them over index windows.
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


def skew_residual(ctx, n, m):
    """[L_n, L_m] + [L_m, L_n]; zero including the central part."""
    ln = AlgebraElement.generator(ctx, n)
    lm = AlgebraElement.generator(ctx, m)
    return bracket(ctx, ln, lm) + bracket(ctx, lm, ln)


def hom_jacobi_residual(ctx, k, l, m):
    """[twist(L_k),[L_l,L_m]] + [twist(L_l),[L_m,L_k]] + [twist(L_m),[L_k,L_l]]."""
    gens = [AlgebraElement.generator(ctx, i) for i in (k, l, m)]
    acc = AlgebraElement.zero(ctx)
    for i in range(3):
        x, y, z = gens[i], gens[(i + 1) % 3], gens[(i + 2) % 3]
        acc = acc + bracket(ctx, hom_twist(ctx, x), bracket(ctx, y, z))
    return acc


def central_cocycle_residual(ctx, k, l, m):
    """Central part of the twisted Jacobi sum (meaningful when k+l+m=0)."""
    return hom_jacobi_residual(ctx, k, l, m).central


def verify_algebra(ctx, window):
    """Sweep skew symmetry and the twisted Jacobi identity over a window."""
    rep = ResidualReport("verify-algebra", {
        "window": int(window), **ctx.describe()})
    w = int(window)
    for n in range(-w, w + 1):
        for m in range(n, w + 1):
            r = skew_residual(ctx, n, m)
            rep.expect("skew", (n, m), r.is_zero(), str(r))
    cocycle = []
    for k in range(-w, w + 1):
        for l in range(k, w + 1):
            for m in range(l, w + 1):
                r = hom_jacobi_residual(ctx, k, l, m)
                noncentral = AlgebraElement(r.coeffs, ctx.zero)
                rep.expect("hom-jacobi", (k, l, m), noncentral.is_zero(), str(r))
                if k + l + m == 0:
                    rep.record("central-cocycle", (k, l, m), r.central)
                    cocycle.append(
                        {"indices": [k, l, m], "residual": scalar_str(r.central)})
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
