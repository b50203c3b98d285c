"""The deformed Witt/Virasoro bracket, its twisting map and the axioms.

Generators L_n (n in Z) plus one central element C.  The bracket is

    [L_n, L_m] = eta(n,m) L_{n+m} + delta_{m+n,0} central_coefficient(n) C

with eta(n,m) = [n]/p^n - [m]/p^m = h(n) - h(m), while the twisting map
scales L_n by 1 + u^n (u = q/p) and fixes C.  On generators each axiom
residual is a sum of products of these structure constants.  The single
checks sum reduced scalars and return an exact residual element.
`verify_algebra` sweeps the sums over an index window by their numerators:
it holds the unreduced parts of each constant once per sweep, tests each
sum over the product of its denominators with ring products only, counts
the zeros in bulk and reduces only a nonzero residual, for its detail.
"""

from __future__ import annotations

from .report import ResidualReport
from .scalar import is_zero, ring_sum, scalar_str


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

    def is_zero(self):
        return not self.coeffs and is_zero(self.central)

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


class _StructureConstants:
    """Unreduced (numerator, denominator) parts of eta(n, m),
    central_coefficient(n) and the twist factor 1 + u^n under one context,
    each built once from the parts of the cached h and u values
    (`ScalarContext.split`) by ring products only: no gcd and no Fraction or
    RationalFunction.

    Every denominator is nonzero (the context guard keeps 1 + u^n away
    from zero), so a sum of products of these is zero exactly when its
    numerator over the product of the denominators is.  `verify_algebra`
    holds one for its sweep, so the memo dies with the sweep.
    """

    __slots__ = ("ctx", "_six", "_eta", "_central", "_twist")

    def __init__(self, ctx):
        self.ctx = ctx
        self._six = ctx.parts(ctx.scalar(6))[0]
        self._eta = {}
        self._central = {}
        self._twist = {}

    def eta(self, n, m):
        """h(n) - h(m)."""
        hit = self._eta.get((n, m))
        if hit is None:
            ctx = self.ctx
            an, bn = ctx.split("hq", n)
            am, bm = ctx.split("hq", m)
            hit = self._eta[n, m] = (an * bm - am * bn, bn * bm)
        return hit

    def central(self, n):
        """u^{-n} h(n-1) h(n) h(n+1) / (6 (1 + u^n))."""
        hit = self._central.get(n)
        if hit is None:
            ctx = self.ctx
            num, den = ctx.split("upow", -n)
            tn, td = self.twist(n)
            num, den = num * td, den * tn * self._six
            for j in (n - 1, n, n + 1):
                hn, hd = ctx.split("hq", j)
                num, den = num * hn, den * hd
            hit = self._central[n] = (num, den)
        return hit

    def twist(self, n):
        """1 + u^n."""
        hit = self._twist.get(n)
        if hit is None:
            ctx = self.ctx
            un, ud = ctx.split("upow", n)
            hit = self._twist[n] = (ud + un, ud)
        return hit


def _sum_numerator(terms):
    """Numerator of a sum of (numerator, denominator) terms over the product
    of their denominators."""
    num, den = terms[0]
    for n, d in terms[1:]:
        num, den = num * d + n * den, den * d
    return num


def _ring_numerator(terms):
    """The numerator `_sum_numerator` gives, by one `ring_sum`: a term is a
    pair (numerator factors, denominator factors), and the products are
    N_i·prod_{j != i} D_j.  The sweep takes it at formal p, q, where the
    parts are Polys; at a point they are ints and int expressions are
    faster."""
    products = []
    for i, (num, _) in enumerate(terms):
        for j, (_, den) in enumerate(terms):
            if j != i:
                num += den
        products.append(num)
    return ring_sum(*products)


def _skew_numerators(sc, n, m):
    """Numerators of the (L_{n+m}, C) coefficients of `skew_residual`; the
    central one is None unless n + m = 0."""
    def total(x, y):
        (a, ad), (b, bd) = x, y
        if sc.ctx.formal:
            return ring_sum((a, bd), (b, ad))
        return a * bd + b * ad

    gen = total(sc.eta(n, m), sc.eta(m, n))
    if n + m:
        return gen, None
    return gen, total(sc.central(n), sc.central(m))


def _hom_jacobi_numerators(sc, k, l, m):
    """Numerators of the (L_{k+l+m}, C) coefficients of
    `hom_jacobi_residual`; the central one is None unless k + l + m = 0."""
    gen, central = [], []
    zero_sum = k + l + m == 0
    ring = sc.ctx.formal
    for x, y, z in ((k, l, m), (l, m, k), (m, k, l)):
        tn, td = sc.twist(x)
        en, ed = sc.eta(y, z)
        an, ad = sc.eta(x, y + z)
        if ring:
            gen.append(((tn, en, an), (td, ed, ad)))
        else:
            sn, sd = tn * en, td * ed
            gen.append((sn * an, sd * ad))
        if zero_sum:
            cn, cd = sc.central(x)
            central.append(((tn, en, cn), (td, ed, cd)) if ring
                           else (sn * cn, sd * cd))
    add = _ring_numerator if ring else _sum_numerator
    return add(gen), add(central) if zero_sum else None


def skew_residual(ctx, n, m):
    """[L_n, L_m] + [L_m, L_n]; zero including the central part."""
    central = (central_coefficient(ctx, n) + central_coefficient(ctx, m)
               if n + m == 0 else ctx.zero)
    return AlgebraElement({n + m: eta(ctx, n, m) + eta(ctx, m, n)}, central)


def hom_jacobi_residual(ctx, k, l, m):
    """[twist(L_k),[L_l,L_m]] + [twist(L_l),[L_m,L_k]] + [twist(L_m),[L_k,L_l]].

    The cyclic term for (x, y, z) is [twist(L_x), [L_y, L_z]]
    = (1 + u^x) eta(y,z) (eta(x,y+z) L_{x+y+z} + delta_{x+y+z,0} c_x C);
    the central part of [L_y, L_z] drops out of the outer bracket.  The
    sum is taken over reduced scalars.
    """
    gen = central = ctx.zero
    zero_sum = k + l + m == 0
    for x, y, z in ((k, l, m), (l, m, k), (m, k, l)):
        s = (1 + ctx.upow(x)) * eta(ctx, y, z)
        gen = gen + s * eta(ctx, x, y + z)
        if zero_sum:
            central = central + s * central_coefficient(ctx, x)
    return AlgebraElement({k + l + m: gen}, central)


def verify_algebra(ctx, window):
    """Sweep skew symmetry, the twisted Jacobi identity and its central
    cocycle over a window.

    Each residual is judged by its numerator: the sum of products of
    structure-constant parts (`_StructureConstants`) over the product of
    their denominators, ring products only.  The zeros are counted with one
    `record_zeros` call.  Only a nonzero numerator is reduced, by
    `skew_residual` or `hom_jacobi_residual` at its indices, so a failure
    reads as the exact residual element, in index order.

    A triple k <= l <= m with k == l or l == m is counted as zero without
    a numerator once the skew sweep has recorded no failure: skew symmetry
    over the same window gives eta(y,z) = -eta(z,y) and eta(x,x) = 0, so
    two of its cyclic terms cancel and the third is zero, in both
    coefficients.  If skew symmetry fails, every triple is computed.
    """
    rep = ResidualReport("verify-algebra", {
        "window": int(window), **ctx.describe()})
    w = int(window)
    sc = _StructureConstants(ctx)
    zeros = 0
    for n in range(-w, w + 1):
        for m in range(n, w + 1):
            gen, central = _skew_numerators(sc, n, m)
            if is_zero(gen) and (central is None or is_zero(central)):
                zeros += 1
            else:
                rep.expect("skew", (n, m), False,
                           str(skew_residual(ctx, n, m)))
    cocycle = []
    zero_text = scalar_str(ctx.zero)
    skew = rep.failed == 0
    for k in range(-w, w + 1):
        for l in range(k, w + 1):
            for m in range(l, w + 1):
                if skew and (k == l or l == m):
                    gen, central = 0, None if k + l + m else 0
                else:
                    gen, central = _hom_jacobi_numerators(sc, k, l, m)
                residual = None
                if is_zero(gen):
                    zeros += 1
                else:
                    residual = hom_jacobi_residual(ctx, k, l, m)
                    rep.expect("hom-jacobi", (k, l, m), False, str(residual))
                if central is None:
                    continue
                if is_zero(central):
                    zeros += 1
                    text = zero_text
                else:
                    if residual is None:
                        residual = hom_jacobi_residual(ctx, k, l, m)
                    rep.record("central-cocycle", (k, l, m), residual.central)
                    text = scalar_str(residual.central)
                cocycle.append({"indices": [k, l, m], "residual": text})
    rep.record_zeros(zeros)
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
