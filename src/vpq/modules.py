"""Weight modules with one-dimensional weight spaces.

A module here is a coefficient rule c(n,k) acting by L_n v_k = c(n,k) v_{k+n}
on basis vectors indexed by Z.  The defining axiom, checked everywhere by
`relation_residual` (the sweep judges it by its numerator first), is

    p^{-n} q^n L_n L_m - p^{-m} q^m L_m L_n = ([m]/p^m - [n]/p^n) L_{m+n}

and the central element acts as zero on every family.

A rule gives single values through `coeff` and whole rows through
`parts_row(ctx, n, ks)`: an unreduced (numerator, denominator) pair for each
c(n, k), k in ks, every denominator nonzero.  Parts come from
`ScalarContext.parts`, and those of the cached h(k), u^k, [n] and powers
from `ScalarContext.split`, which splits each once per exponent: at a
point, on either backend, a constant part is an int and only the rest are
Polys, so a row is int arithmetic even with formal a, b; at formal p, q
every part is a Poly.  The module sweep, the submodule graph and the
intertwiner read rows and test numerators.  The sweep's pair kernel
(`_pair_numerators`) has three forms, picked by the parts its memo has
handed out: all-int parts keep int expressions; at a point, where every
denominator is an int but a numerator is a Poly in a, b, it works on int
columns, one per monomial of a row's numerators (`MemoRule.columns`); where
a denominator is a Poly (formal p, q, or a rule's own formal denominator)
it sums its products with `scalar.ring_sum`, the one place where ints and
Polys meet (Poly operators take Polys only), as the other kernels with a
Poly part do.  A row of `Mab` is built from the parts of a, b and the
context's basis `ScalarContext.hu`, the numerators of h(k) and u^k over one
common denominator, aligned once per k and shared by every row on the
context, by ring products only, and reduces nothing.  An exceptional
family's rows and values read one record (`_OneLineRule`): its entry is
h(j) off its special line, in a row the split of a cached h value, and
h(j) + u^j [x n + y][z n + w] t on it.  A value is
reduced only where a report prints it, or where `find_intertwiner`
returns h, which it propagates by parts.
A sweep that rereads coefficients reads them through one `MemoRule`, which
caches values and keeps each row as one list over a span of k, so a read
over a range of k is one slice; the module sweep plans its reads, so each
row it reads over one interval of k is filled by one call.  The submodule
search holds the action graph as one bitmask of targets per index.

Families:

* mab(a, b)     -- the two-parameter family
* alpha(t)      -- one-parameter exception with special target index -1
* alphap(t)     -- one-parameter exception with special source index -n
* beta(t)       -- mirror of alpha with special target index +1
* betap(t)      -- mirror of alphap; its exceptional line is shipped in the
                   adjudicated reading (see `ExcBetaPrime`), the catalogued
                   variant is kept for audits

`TableRule`, an explicit finite map, is a rule for tests and benchmarks
(counterexamples and fuzzing), not a family: `parse_family` does not
accept it.
"""

from __future__ import annotations

from .report import ResidualReport
from .scalar import (_GUARD, _ZEXP, Poly, _overflow, is_zero, parse_rational,
                     ring_sum, scalar_str)


class CoefficientRule:
    """Base class: a family name, parameters and the coefficient function."""

    family = "abstract"

    def coeff(self, ctx, n, k):
        raise NotImplementedError

    def parts_row(self, ctx, n, ks):
        """[(numerator, denominator) of c(n, k) for k in ks], unreduced; the
        numerator is zero exactly when c(n, k) is.  At a point each part
        is an int whenever it is constant and a Poly otherwise; at formal
        p, q each is a Poly (see `ScalarContext.parts`)."""
        return [ctx.parts(self.coeff(ctx, n, k)) for k in ks]

    def params(self):
        return {}

    def describe(self):
        ps = ",".join("%s=%s" % (k, scalar_str(v))
                      for k, v in sorted(self.params().items()))
        return "%s:%s" % (self.family, ps) if ps else self.family


class MemoRule(CoefficientRule):
    """One rule under one context, each value and row entry computed once.

    A sweep wraps its rule for its own duration, so the memo dies with the
    sweep.  Under any other context it evaluates the rule afresh.  Row n
    is kept as one list over a contiguous span of k, with the span's first
    k; an entry never asked for is a hole (None).  A read whose ks is a
    `range` with every entry present is one slice; any other read indexes
    the list.  The missing entries of a read are filled by one call of the
    wrapped rule's `parts_row` on exactly those ks, so the memo computes
    nothing it was not asked for (a `TableRule` raises outside its window,
    and a rule may raise where an entry is undefined).  As it fills a row
    it notes whether any part it has handed out is a Poly (`_ring`) and
    whether, at a point, every denominator is still an int (`_int_dens`),
    so the pair kernel knows which of its three forms to take.  `columns`
    reads a row whose denominators are ints by monomial.
    """

    def __init__(self, ctx, rule):
        self.ctx = ctx
        self.rule = rule
        self.family = rule.family
        self._memo = {}
        # n -> (first k of its span, [parts, None for a hole], hole count)
        self._rows = {}
        # n -> (first k, length, columns, denominators) of a row with no hole
        self._cols = {}
        self._ring = False
        self._int_dens = not ctx.formal

    def coeff(self, ctx, n, k):
        if ctx is not self.ctx:
            return self.rule.coeff(ctx, n, k)
        hit = self._memo.get((n, k))
        if hit is None:
            hit = self._memo[n, k] = self.rule.coeff(ctx, n, k)
        return hit

    def parts_row(self, ctx, n, ks):
        """The wrapped rule's row, its missing entries filled by one call."""
        if ctx is not self.ctx:
            return self.rule.parts_row(ctx, n, ks)
        if not ks:
            return []
        entry = self._rows.get(n)
        if type(ks) is not range or ks.step != 1:
            lo, row = self._fill(ctx, n, entry, ks)
            return [row[k - lo] for k in ks]
        if entry is None:
            row = self._got(self.rule.parts_row(ctx, n, ks))
            self._rows[n] = ks.start, row, 0
            return row[:]
        lo, row, holes = entry
        if holes or ks.start < lo or ks.stop - lo > len(row):
            lo, row = self._fill(ctx, n, entry, ks)
        return row[ks.start - lo:ks.stop - lo]

    def _fill(self, ctx, n, entry, ks):
        """(first k, list) of row n, whose span (`entry`, None for a new
        row) is grown with holes to cover ks and whose holes at ks are
        filled by one call of the wrapped rule."""
        first, last = min(ks), max(ks)
        lo, row, holes = entry or (first, [], 0)
        if first < lo:
            row[:0] = [None] * (lo - first)
            holes += lo - first
            lo = first
        if last >= lo + len(row):
            holes += last + 1 - lo - len(row)
            row.extend([None] * (last + 1 - lo - len(row)))
        self._rows[n] = lo, row, holes
        if not holes:
            return lo, row
        missing = [k for k in dict.fromkeys(ks) if row[k - lo] is None]
        if missing:
            got = self._got(self.rule.parts_row(ctx, n, missing))
            for k, parts in zip(missing, got):
                row[k - lo] = parts
            self._rows[n] = lo, row, holes - len(missing)
        return lo, row

    def _got(self, got):
        """got, the parts of a fill, noted: does any hold a Poly, and is
        any denominator one?"""
        for num, den in got:
            if type(den) is Poly:
                self._ring, self._int_dens = True, False
                break
            if type(num) is Poly:
                self._ring = True
        return got

    def columns(self, ctx, n, ks):
        """Row n at ks, which `parts_row` has read, by monomial:
        ({packed monomial: [its coefficient in each numerator]}, [each
        denominator]), for a row whose denominators are ints.  A row with
        no hole is turned into columns once per filled span, and a read
        over a `range` of k is then one slice per column; any other read
        takes the columns of its own entries."""
        entry = self._rows.get(n)
        if entry is None or entry[2] or type(ks) is not range or ks.step != 1:
            return _columns(self.parts_row(ctx, n, ks))
        lo, row, _ = entry
        hit = self._cols.get(n)
        if hit is None or hit[:2] != (lo, len(row)):
            hit = self._cols[n] = (lo, len(row), *_columns(row))
        i, j = ks.start - lo, ks.stop - lo
        return {e: c[i:j] for e, c in hit[2].items()}, hit[3][i:j]

    def params(self):
        return self.rule.params()


def _columns(parts):
    """({packed monomial: [its coefficient in each numerator]}, [each
    denominator]) of a list of parts; an int numerator is a constant."""
    cols, dens, size = {}, [], len(parts)
    for i, (num, den) in enumerate(parts):
        dens.append(den)
        for e, c in (num.terms.items() if type(num) is Poly
                     else ((_ZEXP, num),) if num else ()):
            col = cols.get(e)
            if col is None:
                col = cols[e] = [0] * size
            col[i] = c
    return cols, dens


class Mab(CoefficientRule):
    """c(n,k) = p^{-k}[k] - a p^{-k} q^k - b p^{-k-n} q^k [n]
    = h(k) - u^k (a + b h(n))."""

    family = "mab"

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def coeff(self, ctx, n, k):
        return ctx.hq(k) - ctx.upow(k) * (self.a + self.b * ctx.hq(n))

    def parts_row(self, ctx, n, ks):
        """c(n,k) = h(k) - u^k A_n with A_n = a + b h(n), all from parts
        over the context's basis `ctx.hu`, where h(k) = h'/L and u^k = u'/L
        share one denominator L: A_n's from those of a, b and h(n) = h'/L
        (an int expression when every part is an int, else one
        `ring_sum`), then each entry as (h'·Ad - u'·An, L·Ad).  A row
        reduces nothing: no gcd, no Fraction and no RationalFunction."""
        basis = ctx.hu
        an, ad = ctx.parts(self.a)
        bn, bd = ctx.parts(self.b)
        gn, _, gd = basis(n)
        if Poly not in {type(an), type(ad), type(bn), type(bd), type(gd)}:
            An = an * bd * gd + bn * gn * ad
            Ad = ad * bd * gd
            return [(h * Ad - u * An, L * Ad) for h, u, L in map(basis, ks)]
        An = ring_sum((an, bd, gd), (bn, gn, ad))
        Ad = ring_sum((ad, bd, gd))
        if type(Ad) is int:     # a point: every L is an int too
            return [(ring_sum((h, Ad), (-u, An)), L * Ad)
                    for h, u, L in map(basis, ks)]
        return [(ring_sum((h, Ad), (-u, An)), ring_sum((L, Ad)))
                for h, u, L in map(basis, ks)]

    def params(self):
        return {"a": self.a, "b": self.b}


class _OneLineRule(CoefficientRule):
    """An exceptional family: one parameter t and one special line.

    With j = k + e n + f, c(n, k) is the cached h(j) off the line
    k = c n + d and h(j) + u^j [x n + y][z n + w] t on it, where
    (c, d) = `line`, (e, f) = `off` and (x, y, z, w) = `pair`.  A family
    is these three records; its docstring gives the paper's formula."""

    reading = "adjusted"    # of the pair; only ExcBetaPrime has another

    def __init__(self, t):
        self.t = t

    def coeff(self, ctx, n, k):
        c, d = self.line
        e, f = self.off
        j = k + e * n + f
        if k != c * n + d:
            return ctx.hq(j)
        x, y, z, w = self.pair
        return (ctx.hq(j) + ctx.upow(j) * ctx.qint(x * n + y)
                * ctx.qint(z * n + w) * self.t)

    def parts_row(self, ctx, n, ks):
        """Off the line each entry is the cached split of its h value
        (`ctx.split`); only the line's entry is evaluated by `coeff`."""
        c, d = self.line
        e, f = self.off
        special, shift, split = c * n + d, e * n + f, ctx.split
        return [ctx.parts(self.coeff(ctx, n, k)) if k == special
                else split("hq", k + shift) for k in ks]

    def params(self):
        out = {self.family: self.t}
        if self.reading != "adjusted":
            out["reading"] = self.reading
        return out


# each family binds coeff itself: perfbench/spans.py wraps vars(cls)["coeff"]


class ExcAlpha(_OneLineRule):
    """c(n,k) = p^{-n-k-1}[n+k+1] away from k=-1;
    c(n,-1) = -q^n[-n] + [-n][n+1] p^{-n} q^n * alpha.
    As -q^j[-j] = h(j), these are h(n+k+1) and h(n) + u^n [-n][n+1] alpha."""

    family = "alpha"
    line, off, pair = (0, -1), (1, 1), (-1, 0, 1, 1)
    coeff = _OneLineRule.coeff


class ExcAlphaPrime(_OneLineRule):
    """c(n,k) = p^{-k}[k] away from k=-n;
    c(n,-n) = p^n[-n] + p^n q^{-n} [-n][n+1] * alphap.
    These are h(k) and h(-n) + u^{-n} [-n][n+1] alphap."""

    family = "alphap"
    line, off, pair = (-1, 0), (0, 0), (-1, 0, 1, 1)
    coeff = _OneLineRule.coeff


class ExcBeta(_OneLineRule):
    """c(n,k) = -q^{n+k-1}[-n-k+1] away from k=1;
    c(n,1) = -q^n[-n] + p^{-n} q^n [n][-n+1] * beta.
    As -q^j[-j] = h(j), these are h(n+k-1) and h(n) + u^n [n][-n+1] beta."""

    family = "beta"
    line, off, pair = (0, 1), (1, -1), (1, 0, -1, 1)
    coeff = _OneLineRule.coeff


class ExcBetaPrime(_OneLineRule):
    """c(n,k) = p^{-k}[k] away from k=-n; exceptional line on k=-n,
    c(n,-n) = h(-n) + u^{-n} [n][-n+1] * betap.

    Two candidate readings exist for the bracket pair in the exceptional
    coefficient.  The catalogued form [n][n+1] fails the module axiom at
    generator triples unless pq = 1; the adjudicated form [n][-n+1]
    (mirroring `ExcBeta`) passes it identically, so it is the default.
    `reading="given"` keeps the catalogued variant available to audits.
    """

    family = "betap"
    line, off, pair = (-1, 0), (0, 0), (1, 0, -1, 1)
    coeff = _OneLineRule.coeff

    def __init__(self, t, reading="adjusted"):
        if reading not in ("adjusted", "given"):
            raise ValueError("reading must be 'adjusted' or 'given'")
        super().__init__(t)
        self.reading = reading
        if reading == "given":
            self.pair = (1, 0, 1, 1)


class TableRule(CoefficientRule):
    """Explicit finite coefficient map; queries outside it are an error."""

    family = "table"

    def __init__(self, entries, window):
        self.entries = dict(entries)
        self.window = int(window)

    def coeff(self, ctx, n, k):
        if (n, k) not in self.entries:
            raise ValueError("table rule queried outside its window: (%d,%d)" % (n, k))
        return ctx.scalar(self.entries[(n, k)])

    def params(self):
        return {"window": self.window, "size": len(self.entries)}


_FAMILIES = {
    "mab": (Mab, ("a", "b")),
    "alpha": (ExcAlpha, ("alpha",)),
    "alphap": (ExcAlphaPrime, ("alphap",)),
    "beta": (ExcBeta, ("beta",)),
    "betap": (ExcBetaPrime, ("betap",)),
}

# accepted aliases in family spec strings, e.g. alphap:α'=1/2
_PARAM_ALIASES = {
    "α": "alpha", "β": "beta", "α'": "alphap", "β'": "betap",
    "a'": "alphap", "b'": "betap",
}


def parse_family(spec):
    """Parse 'mab:a=1/3,b=-2' / 'alpha:α=0' ... into a CoefficientRule."""
    text = spec.strip()
    name, _, rest = text.partition(":")
    name = name.strip()
    if name not in _FAMILIES:
        raise ValueError("unknown family %r (expected one of %s)"
                         % (name, "/".join(sorted(_FAMILIES))))
    cls, fields = _FAMILIES[name]
    given = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ValueError("bad family parameter %r" % item)
            key = key.strip()
            key = _PARAM_ALIASES.get(key, key)
            if len(fields) == 1 and key in ("param", "t"):
                key = fields[0]
            if key not in fields:
                raise ValueError("family %s has no parameter %r" % (name, key))
            if key in given:
                raise ValueError("family %s repeats parameter %r" % (name, key))
            given[key] = parse_rational(val)
    missing = [f for f in fields if f not in given]
    if missing:
        raise ValueError("family %s missing parameters: %s" % (name, missing))
    return cls(*[given[f] for f in fields])


def relation_residual(ctx, rule, n, m, k):
    """Defining-axiom residual on v_k for the generator pair (n, m):
    u^n c(m,k) c(n,m+k) - u^m c(n,k) c(m,n+k) - (h(m) - h(n)) c(n+m,k)."""
    c = rule.coeff
    return (ctx.upow(n) * c(ctx, m, k) * c(ctx, n, m + k)
            - ctx.upow(m) * c(ctx, n, k) * c(ctx, m, n + k)
            - (ctx.hq(m) - ctx.hq(n)) * c(ctx, n + m, k))


def _shifted(ks, s):
    """The indices k + s for k in ks; a range stays a range, so a
    `MemoRule` reads it as one slice."""
    if type(ks) is range:
        return range(ks.start + s, ks.stop + s, ks.step)
    return [k + s for k in ks]


def _pair_reads(read, ctx, n, m, ks):
    """read(ctx, row, indices) of each coefficient row the residuals of
    the pair (n, m) on v_k, k in ks, read: c(m,k), c(n,m+k), c(n,k),
    c(m,n+k) and c(n+m,k)."""
    return (read(ctx, m, ks), read(ctx, n, _shifted(ks, m)),
            read(ctx, n, ks), read(ctx, m, _shifted(ks, n)),
            read(ctx, n + m, ks))


def _pair_numerators(ctx, rule, n, m, ks):
    """Numerators of the `relation_residual`s on v_k, k in ks, for the
    generator pair (n, m), over a common denominator; each entry is zero
    exactly when its numerator is.

    Write the three terms of the residual as t_i = N_i/D_i, with N_i and
    D_i the products of the numerators and of the denominators of t_i's
    factors.  Every D_i is nonzero, so the residual t1 - t2 - t3 is zero
    exactly when N1·D2·D3 - N2·D1·D3 - N3·D1·D2 is.  That takes ring
    products only (ints or Polys): no gcd and no reduced quotient.  The
    memo's parts pick one of three kernels.  All-int parts keep int
    expressions, which Python evaluates faster than any loop over factors.
    At a point where a numerator is a Poly but every denominator is an int,
    `_pair_columns` takes the products by monomial over int columns, and
    each entry is an int that is nonzero exactly where the numerator is.
    Where a denominator is a Poly (formal p, q, or a formal denominator
    of the rule's own), `ring_sum` takes the three products.
    """
    a1, b1 = ctx.split("upow", n)
    a2, b2 = ctx.split("upow", m)
    hm, dhm = ctx.split("hq", m)
    hn, dhn = ctx.split("hq", n)
    reads = _pair_reads(rule.parts_row, ctx, n, m, ks)
    if rule._ring and not rule._int_dens:
        # the factors that do not depend on k, folded once per pair
        k1 = ring_sum((a1, b2, dhm, dhn))
        k2 = ring_sum((-1, a2, b1, dhm, dhn))
        k3 = ring_sum((hn, dhm, b1, b2), (-1, hm, dhn, b1, b2))
        return [ring_sum((k1, nm, nnm, dn, dmn, ds),
                         (k2, nn, nmn, dm, dnm, ds),
                         (k3, ns, dm, dnm, dn, dmn))
                for (nm, dm), (nnm, dnm), (nn, dn), (nmn, dmn), (ns, ds)
                in zip(*reads)]
    a3, b3 = hm * dhn - hn * dhm, dhm * dhn    # h(m) - h(n)
    if rule._ring:
        return _pair_columns(_pair_reads(rule.columns, ctx, n, m, ks),
                             a1, b1, a2, b2, a3, b3)
    out = []
    for (nm, dm), (nnm, dnm), (nn, dn), (nmn, dmn), (ns, ds) in zip(*reads):
        d1 = b1 * dm * dnm
        d2 = b2 * dn * dmn
        out.append((b3 * ds) * (a1 * d2 * nm * nnm - a2 * d1 * nn * nmn)
                   - a3 * (d1 * d2) * ns)
    return out


def _pair_columns(reads, a1, b1, a2, b2, a3, b3):
    """The int kernel of `_pair_numerators` over columns: with the int
    factors of each k folded into w1, w2, w3 as the int kernel folds them,
    the numerator is w1·N(m,k)·N(n,m+k) + w2·N(n,k)·N(m,n+k) + w3·N(n+m,k),
    and its coefficient of the monomial e1 + e2 gathers, for each term, the
    columns e1 and e2 of its two numerators, one list per pair of columns.
    A degree past ``_EMAX`` raises the ValueError `ring_sum` raises, where
    that product is nonzero at some k.  Returns, for each k, an int that is
    nonzero exactly where some column of the numerator is."""
    (cm, cnm, cn, cmn, cs), dens = zip(*reads)
    w1, w2, w3 = [], [], []
    for dm, dnm, dn, dmn, ds in zip(*dens):
        d1 = b1 * dm * dnm
        d2 = b2 * dn * dmn
        w1.append(b3 * ds * a1 * d2)
        w2.append(-b3 * ds * a2 * d1)
        w3.append(-a3 * d1 * d2)
    zero = [0] * len(w3)
    out = {}
    for w, left, right in ((w1, cm, cnm), (w2, cn, cmn)):
        for e1, x in left.items():
            for e2, y in right.items():
                e = e1 + e2
                if e & _GUARD:      # checked as ring_sum checks it
                    if any(u * v * z for u, v, z in zip(w, x, y)):
                        raise _overflow()
                    continue
                out[e] = [s + u * v * z
                          for s, u, v, z in zip(out.get(e, zero), w, x, y)]
    for e, x in cs.items():
        out[e] = [s + u * v for s, u, v in zip(out.get(e, zero), w3, x)]
    flags = zero
    for col in out.values():
        flags = [f or c for f, c in zip(flags, col)]
    return flags


def _read_ahead(ctx, memo, pairs):
    """Read once, through memo, each row whose `range` reads by
    `_pair_reads` over pairs join into one interval of k.  That
    interval holds exactly the entries those reads ask for, so the memo
    computes nothing more, and each of the reads is then one slice.  A row
    whose reads leave a gap, and every read over a list of ks, stay lazy."""
    spans = {}      # row -> the set of its reads, each as (start, stop)

    def note(ctx, row, ks):
        spans.setdefault(row, set()).add((ks.start, ks.stop))

    for n, m, ks in pairs:
        if type(ks) is range and ks.step == 1 and ks:
            _pair_reads(note, ctx, n, m, ks)
    for row, reads in spans.items():
        reads = sorted(reads)
        lo, hi = reads[0]
        for start, stop in reads:
            if start > hi:
                break
            if stop > hi:
                hi = stop
        else:
            memo.parts_row(ctx, row, range(lo, hi))


def _sweep_pairs(ctx, memo, rep, pairs):
    """Record the defining axiom on v_k for each (n, m, ks) in pairs.

    Each pair is one row of numerators (`_pair_numerators`, through the
    `MemoRule` memo).  Its zeros are counted with one `record_zeros` call;
    only a nonzero one is reduced, by `relation_residual`, and recorded in
    k order as `module-relation` (n, m, k); one that reduces to zero means
    the rule's rows and values disagree, a fault of the program, and is
    recorded as a failed `module-row-value` (n, m, k).  The axiom is
    antisymmetric, R(n,m,k) = -R(m,n,k) for any rule, so a later (m, n)
    with the same ks records the negated residuals of (n, m) (the same
    exact values, so the same bytes) without a sweep, and a diagonal pair
    (n, n), its own mirror, is zero: it reads its rows, so an entry the
    rule cannot give still raises, and forms no numerator.  The rows the
    pairs read are planned first (`_read_ahead`); a mirrored pair would
    read the same entries as the pair it mirrors.
    """
    _read_ahead(ctx, memo, pairs)
    pending = {}    # (n, m) -> its failures, until (m, n) is due
    for n, m, ks in pairs:
        if n == m:
            _pair_reads(memo.parts_row, ctx, n, m, ks)
            failures = {}
        elif (m, n) in pending:
            failures = {k: -r for k, r in pending.pop((m, n)).items()}
        else:
            nums = _pair_numerators(ctx, memo, n, m, ks)
            if memo._ring and not memo._int_dens:   # Polys, from ring_sum
                nonzero = [k for k, x in zip(ks, nums) if not is_zero(x)]
            else:
                nonzero = [k for k, x in zip(ks, nums) if x]
            failures = pending[n, m] = {
                k: relation_residual(ctx, memo, n, m, k) for k in nonzero}
        rep.record_zeros(len(ks) - len(failures))
        for k, r in failures.items():
            if is_zero(r):      # the rows and the values disagree
                rep.expect("module-row-value", (n, m, k), False,
                           "%s: nonzero row numerator, zero value"
                           % memo.describe())
            else:
                rep.record("module-relation", (n, m, k), r)


def verify_module(ctx, rule, nmax, kmax, pair_filter="all"):
    """Sweep the defining axiom over the window; returns a ResidualReport.

    The sweep reads the rule through one `MemoRule`, so the parts of each
    c(n,k) are computed once, and judges each pair by numerators
    (`_sweep_pairs`), each unordered pair n != m once.  The diagonal
    n = m is counted as zero without a numerator, since its residual is
    zero for any rule: its first two terms are equal and its third carries
    h(n) - h(n) = 0; its coefficient reads are still made.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    if kmax < nmax:
        raise ValueError("kmax must be >= nmax")
    if pair_filter not in ("all", "generators"):
        raise ValueError("pair_filter must be 'all' or 'generators'")
    rep = ResidualReport("verify-module", {
        "family": rule.describe(), "nmax": int(nmax), "kmax": int(kmax),
        "pair_filter": pair_filter, **ctx.describe()})
    ks, ns = range(-kmax, kmax + 1), range(-nmax, nmax + 1)
    _sweep_pairs(ctx, MemoRule(ctx, rule), rep, [
        (n, m, ks) for n in ns for m in ns
        if pair_filter == "all" or max(abs(n), abs(m), abs(n + m)) <= 2])
    return rep


def _row_window(n, window):
    """The k with k and k + n both in [-window, window]."""
    return range(max(-window, -window - n), min(window, window - n) + 1)


def _edges(ctx, rule, window):
    """Directed action graph on indices |k| <= window (all n, not just ±1,±2):
    k -> k + n wherever c(n, k) has a nonzero numerator, one row per n.
    Index k is bit k + window, and the result lists, for each index from
    -window up, the bitmask of its targets.  Each row is read once, so no
    memo: an int numerator is tested as an int, any other by `is_zero`."""
    adj = [0] * (2 * window + 1)
    for n in range(-2 * window, 2 * window + 1):
        if n == 0:
            continue
        ks = _row_window(n, window)
        for k, (num, _) in zip(ks, rule.parts_row(ctx, n, ks)):
            if num if type(num) is int else not is_zero(num):
                adj[k + window] |= 1 << (k + n + window)
    return adj


def _reach(adj):
    """The bitmask of indices each index reaches (itself included), by
    Warshall's closure over the bit rows of `_edges`: once every row has
    taken in row j wherever it reaches j, paths through 0..j are closed."""
    reach = [mask | 1 << i for i, mask in enumerate(adj)]
    for j, rj in enumerate(reach):
        bit = 1 << j
        for i, ri in enumerate(reach):
            if ri & bit:
                reach[i] = ri | rj
    return reach


SUBMODULE_CAP = 2 ** 12


def find_submodules(ctx, rule, window):
    """All proper nonempty index sets closed under the action, within window."""
    return find_submodules_ex(ctx, rule, window)[0]


def find_submodules_ex(ctx, rule, window):
    """(subsets, truncated).  Computes the set of indices each index reaches
    under the action (`_reach`, as bitmasks); indices with equal reach sets
    form one component, and a set of components is closed exactly when it
    contains the reach of each of its members.  Closed sets are enumerated
    by an include/exclude search over the components, highest first:
    including one forces in its reach, excluding one forces out everything
    that reaches it.  Every branch left open still has a closed completion,
    so the time follows the number of closed sets, and they come in
    increasing bitmask order.  Capped at
    SUBMODULE_CAP results, the first that order meets; windows used here
    keep it far below the cap unless the rule has no edges at all.
    """
    window = int(window)
    by_reach = {}
    for i, r in enumerate(_reach(_edges(ctx, rule, window))):
        by_reach.setdefault(r, []).append(i - window)
    comps = list(by_reach.values())
    nc = len(comps)
    succ = [sum(1 << j for j, comp in enumerate(comps)
                if r >> (comp[0] + window) & 1)
            for r in by_reach]
    pred = [sum(1 << j for j in range(nc) if succ[j] >> i & 1)
            for i in range(nc)]
    results = []
    full = (1 << nc) - 1
    truncated = False
    # (highest undecided component, included mask, excluded mask); the
    # exclude branch is pushed last so it is searched first
    todo = [(nc - 1, 0, 0)]
    while todo:
        i, inc, exc = todo.pop()
        while i >= 0 and (inc | exc) >> i & 1:
            i -= 1
        if i >= 0:
            todo.append((i - 1, inc | succ[i], exc))
            todo.append((i - 1, inc, exc | pred[i]))
            continue
        if inc in (0, full):
            continue
        members = []
        for i in range(nc):
            if inc >> i & 1:
                members.extend(comps[i])
        results.append(sorted(members))
        if len(results) >= SUBMODULE_CAP:
            truncated = True
            break
    results.sort(key=lambda s: (len(s), s))
    return results, truncated


def is_reducible_closed_form(ctx, a, b, mmax):
    """Witness m with a = -p^{-m}[m] and b in {-p^{-m} q^m, 0}, if any."""
    if is_zero(a + 1 / (ctx.p - ctx.q)):
        raise ValueError("a = -1/(p-q) is outside this criterion's domain")
    for m in sorted(range(-int(mmax), int(mmax) + 1), key=lambda x: (abs(x), x)):
        if not is_zero(a + ctx.hq(m)):
            continue
        if is_zero(b) or is_zero(b + ctx.upow(m)):
            return m
    return None


def shift_params(ctx, a, b, m):
    """Parameters of the isomorphic copy under index shift by m."""
    scale = ctx.upow(-m)
    return ((a + ctx.hq(m)) * scale, b * scale)


def find_intertwiner(ctx, ruleA, ruleB, m, window):
    """Diagonal intertwiner h with h_{k+n} cA(n,k) = h_k cB(n,k+m), or None.

    Propagates h from h_0 = 1 along the n=1 constraints, branching with a
    fresh unit scale when a chain decouples (both adjacent coefficients
    zero), then validates every constraint with |n| <= 2 inside the window.
    Each rule is read through one `MemoRule`, so the validation rereads
    the n=1 rows of the propagation from it.  h is propagated by parts, a
    ring product per step, the validation compares cross-multiplied parts,
    and each h_k is reduced once at the end (`ctx.join`), so the values
    returned are the exact reduced ones.
    """
    window = int(window)
    A, B = MemoRule(ctx, ruleA), MemoRule(ctx, ruleB)
    ks = _row_window(1, window)     # j of the constraint joining h_j, h_{j+1}
    c = dict(zip(ks, zip(A.parts_row(ctx, 1, ks),
                         B.parts_row(ctx, 1, _shifted(ks, m)))))
    ring = A._ring or B._ring
    one = ctx.parts(ctx.one)
    h = {0: one}
    for step in (1, -1):
        for k in range(0, step * window, step):
            (an, ad), (bn, bd) = c[min(k, k + step)]
            if is_zero(an) and is_zero(bn):
                h[k + step] = one
                continue
            if is_zero(an) or is_zero(bn):
                return None
            if step < 0:    # h_{k-1} = h_k cA/cB, else h_{k+1} = h_k cB/cA
                an, ad, bn, bd = bn, bd, an, ad
            hn, hd = h[k]
            h[k + step] = ((ring_sum((hn, bn, ad)), ring_sum((hd, bd, an)))
                           if ring else (hn * bn * ad, hd * bd * an))
    for n in range(-2, 3):
        ks = _row_window(n, window)
        rowA = A.parts_row(ctx, n, ks)
        rowB = B.parts_row(ctx, n, _shifted(ks, m))
        ring = A._ring or B._ring
        for k, (an, ad), (bn, bd) in zip(ks, rowA, rowB):
            hn0, hd0 = h[k]
            hn1, hd1 = h[k + n]
            if ring:
                if not is_zero(ring_sum((hn1, an, hd0, bd),
                                        (-1, hn0, bn, hd1, ad))):
                    return None
            elif hn1 * an * hd0 * bd != hn0 * bn * hd1 * ad:
                return None
    return {k: ctx.join(*parts) for k, parts in h.items()}
