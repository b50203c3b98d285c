"""Suite configuration, check dispatch, and deterministic JSON reporting.

A suite is a JSON document: a scalar context (p, q as rational strings),
an optional RNG seed, and an ordered list of check specs.  Every check maps
to one ResidualReport; the collected report serializes with sorted keys and
exact scalar strings only, so identical configs give byte-identical output.
Findings (catalogued-text adjudications) are separate from failures and do
not affect the exit status.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from . import algebra, caseaudit, classify, modules, uqsl2
from .modules import Mab, parse_family
from .report import ResidualReport
from .scalar import (ScalarContext, is_zero, parse_rational,
                     pascal_numerators, pascal_residual, reflection_residual,
                     scalar_str)

VERSION = "0.1.0"


class SuiteConfigError(ValueError):
    pass


def _want_str_rational(spec, key, where):
    v = spec[key]
    if not isinstance(v, str):
        raise SuiteConfigError(
            "%s: %r must be a rational string, got %r" % (where, key, v))
    try:
        parse_rational(v)
    except ValueError as exc:
        raise SuiteConfigError("%s: bad rational %r: %s" % (where, key, exc))
    return v


def _want_int(spec, key, where, minimum=None):
    v = spec[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise SuiteConfigError("%s: %r must be an integer" % (where, key))
    if minimum is not None and v < minimum:
        raise SuiteConfigError("%s: %r must be >= %d" % (where, key, minimum))
    return v


# per-check key tables: name -> {key: (kind, default[, minimum])}; a None
# default means required.  Each minimum is the least value at which the
# check still checks something (or at which its sweep is defined), so a
# config can never pass vacuously.
_CHECKS = {
    "qint-identities": {"mmax": ("int", 20, 0)},
    "verify-algebra": {"window": ("int", 4, 0)},
    "generation": {"window": ("int", 6, 3)},
    "verify-module": {"family": ("str", None), "nmax": ("int", 4, 1),
                      "kmax": ("int", 8, 1), "filter": ("str", "all")},
    "sampled-modules": {"count": ("int", 5, 1), "nmax": ("int", 6, 1),
                        "kmax": ("int", 10, 1)},
    "sampled-families": {"count": ("int", 3, 1), "kmax": ("int", 8, 2)},
    "submodules": {"family": ("str", None), "window": ("int", 8, 0)},
    "is-reducible-grid": {"mmax": ("int", 4, 0), "window": ("int", 8, 0)},
    "iso": {"a": ("rat", None), "b": ("rat", None), "m": ("int", None),
            "kmax": ("int", 8, 0)},
    "sampled-iso": {"count": ("int", 10, 1), "mmax": ("int", 4, 0),
                    "kmax": ("int", 8, 0)},
    "classify": {"a": ("rat", None), "b": ("rat", None)},
    "audit-identities": {"a": ("rat", None), "b": ("rat", None)},
    "degeneracy-table": {},
    "roots": {"a": ("rat", None), "b": ("rat", None)},
    "l2-display": {"a": ("rat", None), "b": ("rat", None),
                   "jmax": ("int", 6, 0)},
    "fg-recurrences": {"a": ("rat", None), "b": ("rat", None),
                       "jmax": ("int", 6, 0)},
    "case-audit": {"a": ("rat", None), "window": ("int", 12, 3)},
    "family-consistency": {"window": ("int", 6, 2)},
    "annihilator": {"family": ("str", None), "n": ("int", -1),
                    "window": ("int", 8, 0)},
    "quadratic-in-x": {"a": ("rat", None), "window": ("int", 8, 4)},
    "uqsl2": {"two_l": ("int", None, 0), "omega": ("int", None),
              "q": ("rat", None)},
    "uqsl2-x": {"two_l": ("int", None, 0), "omega": ("int", None),
                "q": ("rat", None)},
}


class SuiteConfig:
    """Validated suite description; rejects unknown keys everywhere."""

    def __init__(self, context, seed, checks):
        self.context = context
        self.seed = seed
        self.checks = checks

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise SuiteConfigError("config root must be an object")
        unknown = set(doc) - {"context", "seed", "checks"}
        if unknown:
            raise SuiteConfigError("unknown config keys: %s" % sorted(unknown))
        if "context" not in doc or "checks" not in doc:
            raise SuiteConfigError("config needs 'context' and 'checks'")
        rawctx = doc["context"]
        if not isinstance(rawctx, dict):
            raise SuiteConfigError("'context' must be an object")
        cunknown = set(rawctx) - {"p", "q", "backend", "guard_window"}
        if cunknown:
            raise SuiteConfigError("unknown context keys: %s" % sorted(cunknown))
        if "p" not in rawctx or "q" not in rawctx:
            raise SuiteConfigError("context needs 'p' and 'q'")
        context = {
            "p": _want_str_rational(rawctx, "p", "context"),
            "q": _want_str_rational(rawctx, "q", "context"),
            "backend": rawctx.get("backend", "numeric"),
        }
        if context["backend"] not in ("numeric", "symbolic"):
            raise SuiteConfigError("backend must be 'numeric' or 'symbolic'")
        # guard_window bounds nothing (the guard is closed form); configs
        # written for older versions carry it, so it is validated, not kept
        window = rawctx.get("guard_window", 1)
        if (isinstance(window, bool) or not isinstance(window, int)
                or window < 1):
            raise SuiteConfigError("guard_window must be a positive integer")
        seed = doc.get("seed")
        if seed is not None and (isinstance(seed, bool)
                                 or not isinstance(seed, int)):
            raise SuiteConfigError("seed must be an integer or null")
        rawchecks = doc["checks"]
        if not isinstance(rawchecks, list):
            raise SuiteConfigError("'checks' must be a list")
        if not rawchecks:
            # a suite that checks nothing must not pass
            raise SuiteConfigError("'checks' must name at least one check")
        checks = []
        for i, spec in enumerate(rawchecks):
            where = "checks[%d]" % i
            if not isinstance(spec, dict) or "check" not in spec:
                raise SuiteConfigError("%s: missing 'check' name" % where)
            name = spec["check"]
            if name not in _CHECKS:
                raise SuiteConfigError("%s: unknown check %r" % (where, name))
            table = _CHECKS[name]
            unknown = set(spec) - set(table) - {"check"}
            if unknown:
                raise SuiteConfigError(
                    "%s (%s): unknown keys %s" % (where, name, sorted(unknown)))
            norm = {"check": name}
            for key, (kind, default, *minimum) in table.items():
                if key not in spec:
                    if default is None:
                        raise SuiteConfigError(
                            "%s (%s): missing required key %r"
                            % (where, name, key))
                    norm[key] = default
                    continue
                if kind == "int":
                    norm[key] = _want_int(spec, key, where, *minimum)
                elif kind == "rat":
                    norm[key] = _want_str_rational(spec, key, where)
                else:
                    v = spec[key]
                    if not isinstance(v, str):
                        raise SuiteConfigError(
                            "%s: %r must be a string" % (where, key))
                    norm[key] = v
            if name == "is-reducible-grid" and \
                    norm["window"] < max(norm["mmax"], 1):
                # the witness supports of every m up to mmax must fit
                raise SuiteConfigError(
                    "%s (%s): 'window' must be >= max('mmax', 1) = %d"
                    % (where, name, max(norm["mmax"], 1)))
            checks.append(norm)
        return cls(context, seed, checks)

    @classmethod
    def from_path(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SuiteConfigError("config is not valid JSON: %s" % exc)
        return cls.from_dict(doc)

    def build_context(self):
        make = (ScalarContext.symbolic if self.context["backend"] == "symbolic"
                else ScalarContext.numeric)
        return make(self.context["p"], self.context["q"])


def _rand_fraction(rng, nonzero=False):
    while True:
        num = rng.randint(-12, 12)
        if nonzero and num == 0:
            continue
        return Fraction(num, rng.randint(1, 12))


# -- check handlers ----------------------------------------------------------

def _check_qint(ctx, spec, rng):
    mmax = spec["mmax"]
    rep = ResidualReport("qint-identities", {"mmax": mmax, **ctx.describe()})
    ns = range(-mmax, mmax + 1)
    for m in ns:
        rep.record("reflection", (m,), reflection_residual(ctx, m))
        # one row of Pascal numerators; only a nonzero one is reduced
        bad = [n for n, x in zip(ns, pascal_numerators(ctx, m, ns))
               if not is_zero(x)]
        rep.record_zeros(len(ns) - len(bad))
        for n in bad:
            rep.record("pascal", (m, n), pascal_residual(ctx, m, n))
    return rep


def _check_verify_algebra(ctx, spec, rng):
    return algebra.verify_algebra(ctx, spec["window"])


def _check_generation(ctx, spec, rng):
    return algebra.generation_check(ctx, spec["window"])


def _check_verify_module(ctx, spec, rng):
    rule = parse_family(spec["family"])
    return modules.verify_module(ctx, rule, spec["nmax"], spec["kmax"],
                                 pair_filter=spec["filter"])


def _check_sampled_modules(ctx, spec, rng):
    rep = ResidualReport("sampled-modules", {
        "count": spec["count"], "nmax": spec["nmax"], "kmax": spec["kmax"],
        **ctx.describe()})
    samples = []
    for _ in range(spec["count"]):
        a = _rand_fraction(rng)
        b = _rand_fraction(rng)
        samples.append({"a": str(a), "b": str(b)})
        child = modules.verify_module(ctx, Mab(a, b), spec["nmax"],
                                      spec["kmax"])
        rep.merge_child("a=%s,b=%s" % (a, b), child)
    rep.section("samples", samples)
    return rep


def _check_sampled_families(ctx, spec, rng):
    rep = ResidualReport("sampled-families", {
        "count": spec["count"], "kmax": spec["kmax"], **ctx.describe()})
    samples = []
    for fam_name in ("alpha", "alphap", "beta", "betap"):
        cls = modules._FAMILIES[fam_name][0]
        for _ in range(spec["count"]):
            t = _rand_fraction(rng, nonzero=True)
            samples.append({"family": fam_name, "param": str(t)})
            child = modules.verify_module(ctx, cls(t), 2, spec["kmax"],
                                          pair_filter="generators")
            rep.merge_child("%s=%s" % (fam_name, t), child)
    rep.section("samples", samples)
    return rep


def _check_submodules(ctx, spec, rng):
    rule = parse_family(spec["family"])
    subs, truncated = modules.find_submodules_ex(ctx, rule, spec["window"])
    rep = ResidualReport("submodules", {
        "family": rule.describe(), "window": spec["window"],
        **ctx.describe()})
    rep.section("submodules", [sorted(s) for s in subs])
    rep.section("count", len(subs))
    rep.section("truncated", truncated)
    if truncated:
        rep.note("enumeration capped; listing is incomplete")
    return rep


def _check_is_reducible_grid(ctx, spec, rng):
    rep = ResidualReport("is-reducible-grid", {
        "mmax": spec["mmax"], "window": spec["window"], **ctx.describe()})
    variant_irreducible = []
    for m in range(-spec["mmax"], spec["mmax"] + 1):
        a = -ctx.hq(m)
        for label, b in (("b=-p^-m q^m", -ctx.upow(m)),
                         ("b=0", ctx.zero)):
            subs = modules.find_submodules(ctx, Mab(a, b), spec["window"])
            rep.expect("statement-branch-reducible", (label, m),
                       len(subs) > 0, "no proper invariant subspace found")
            witness = modules.is_reducible_closed_form(ctx, a, b, spec["mmax"])
            rep.expect("closed-form-witness", (label, m), witness == m,
                       "witness=%s" % witness)
        if m != 0:
            bv = -ctx.ppow(-m) * ctx.qpow(-m)
            subs = modules.find_submodules(ctx, Mab(a, bv), spec["window"])
            rep.expect("variant-branch-irreducible", (m,), len(subs) == 0,
                       "found %d invariant subspaces" % len(subs))
            if not subs:
                variant_irreducible.append(m)
    if variant_irreducible:
        rep.finding(
            "reducibility-exponent",
            "the exponent variant b = -p^-m q^-m from the derivation text "
            "yields irreducible modules for m != 0; the statement's "
            "b = -p^-m q^+m (and b = 0) are the reducible branches",
            {"irreducible_at": variant_irreducible})
    return rep


def _ab(ctx, spec):
    """The check's rational parameters a, b as scalars of the context."""
    return ctx.scalar(spec["a"]), ctx.scalar(spec["b"])


def _check_iso(ctx, spec, rng):
    a, b = _ab(ctx, spec)
    m = spec["m"]
    a2, b2 = modules.shift_params(ctx, a, b, m)
    rep = ResidualReport("iso", {
        "a": scalar_str(a), "b": scalar_str(b), "m": m,
        "kmax": spec["kmax"], **ctx.describe()})
    rep.section("a_shift", scalar_str(a2))
    rep.section("b_shift", scalar_str(b2))
    h = modules.find_intertwiner(ctx, Mab(a, b), Mab(a2, b2), m,
                                 spec["kmax"])
    rep.expect("intertwiner-exists", (m,), h is not None,
               "no diagonal intertwiner")
    if h is not None:
        r = min(2, spec["kmax"])
        rep.section("intertwiner_sample",
                    {str(k): scalar_str(h[k]) for k in range(-r, r + 1)})
    return rep


def _check_sampled_iso(ctx, spec, rng):
    rep = ResidualReport("sampled-iso", {
        "count": spec["count"], "mmax": spec["mmax"], "kmax": spec["kmax"],
        **ctx.describe()})
    shifted, plain = [], []
    for _ in range(spec["count"]):
        a = _rand_fraction(rng)
        b = _rand_fraction(rng)
        m = rng.randint(-spec["mmax"], spec["mmax"])
        shifted.append({"a": str(a), "b": str(b), "m": m})
        a2, b2 = modules.shift_params(ctx, a, b, m)
        h = modules.find_intertwiner(ctx, Mab(a, b), Mab(a2, b2), m,
                                     spec["kmax"])
        rep.expect("shifted-admits-intertwiner", (str(a), str(b), m),
                   h is not None, "no diagonal intertwiner")
    for _ in range(spec["count"]):
        a = _rand_fraction(rng)
        b = _rand_fraction(rng)
        m = rng.randint(-spec["mmax"], spec["mmax"])
        while True:
            a2 = _rand_fraction(rng)
            b2 = _rand_fraction(rng)
            sa, sb = modules.shift_params(ctx, a, b, m)
            if not (sa == ctx.scalar(a2) and sb == ctx.scalar(b2)):
                break
        plain.append({"a": str(a), "b": str(b),
                      "a2": str(a2), "b2": str(b2), "m": m})
        h = modules.find_intertwiner(ctx, Mab(a, b), Mab(a2, b2), m,
                                     spec["kmax"])
        rep.expect("unrelated-admits-none", (str(a), str(b), str(a2),
                                             str(b2), m),
                   h is None, "unexpected intertwiner")
    rep.section("shifted_samples", shifted)
    rep.section("plain_samples", plain)
    return rep


def _check_classify(ctx, spec, rng):
    a, b = _ab(ctx, spec)
    prof = classify.degeneracy_profile(ctx, a, b)
    rep = ResidualReport("classify", {
        "a": scalar_str(a), "b": scalar_str(b), **ctx.describe()})
    rep.section("profile", prof.to_dict())
    rep.expect("pairs-match-conditions", (),
               all(prof.agreement.values()), str(prof.agreement))
    if prof.case == 0:
        rep.finding("case-outside-catalogue",
                    "coincidence pattern matches none of the four "
                    "catalogued cases",
                    prof.to_dict())
    rep.section("partner_b", scalar_str(classify.second_solution(ctx, a, b)))
    return rep


def _check_audit_identities(ctx, spec, rng):
    return classify.identity_audit(ctx, *_ab(ctx, spec))


def _check_degeneracy_table(ctx, spec, rng):
    sctx = ScalarContext.symbolic(scalar_str(ctx.p), scalar_str(ctx.q))
    return classify.degeneracy_table_audit(sctx)


def _check_roots(ctx, spec, rng):
    return classify.quadratic_roots_audit(ctx, *_ab(ctx, spec))


def _check_l2_display(ctx, spec, rng):
    return classify.l2_display_audit(ctx, *_ab(ctx, spec), spec["jmax"])


def _check_fg_recurrences(ctx, spec, rng):
    a, b = _ab(ctx, spec)
    F0, G0, d_f, d_g = classify.fg_constants(ctx, classify.x_factors(ctx, a, b))
    if F0 is None or G0 is None:
        return classify.fg_failure(ResidualReport("fg-recurrences", {}), d_f, d_g)
    return classify.fg_recurrence_audit(ctx, a, b, F0, G0, spec["jmax"])


def _check_case_audit(ctx, spec, rng):
    return caseaudit.case_constants_audit(ctx, ctx.scalar(spec["a"]),
                                          window=spec["window"])


def _check_family_consistency(ctx, spec, rng):
    return caseaudit.family_consistency(ctx, spec["window"])


def _check_annihilator(ctx, spec, rng):
    rule = parse_family(spec["family"])
    ks = caseaudit.annihilator_spectrum(ctx, rule, spec["n"], spec["window"])
    rep = ResidualReport("annihilator", {
        "family": rule.describe(), "n": spec["n"],
        "window": spec["window"], **ctx.describe()})
    rep.section("spectrum", ks)
    rep.expect("at-most-two", (), len(ks) <= 2, str(ks))
    return rep


def _check_quadratic_in_x(ctx, spec, rng):
    a = ctx.scalar(spec["a"])
    return caseaudit.quadratic_in_x_check(ctx, Mab(a, a * ctx.q),
                                          spec["window"])


def _uqsl2_rep(spec):
    # the representation carries its own q, apart from the context's
    return uqsl2.Uqsl2Rep(spec["omega"], spec["two_l"],
                          parse_rational(spec["q"]))


def _check_uqsl2(ctx, spec, rng):
    return uqsl2.rep_relation_audit(_uqsl2_rep(spec))


def _check_uqsl2_x(ctx, spec, rng):
    return uqsl2.quadratic_in_x_fit(_uqsl2_rep(spec))


_HANDLERS = {
    "qint-identities": _check_qint,
    "verify-algebra": _check_verify_algebra,
    "generation": _check_generation,
    "verify-module": _check_verify_module,
    "sampled-modules": _check_sampled_modules,
    "sampled-families": _check_sampled_families,
    "submodules": _check_submodules,
    "is-reducible-grid": _check_is_reducible_grid,
    "iso": _check_iso,
    "sampled-iso": _check_sampled_iso,
    "classify": _check_classify,
    "audit-identities": _check_audit_identities,
    "degeneracy-table": _check_degeneracy_table,
    "roots": _check_roots,
    "l2-display": _check_l2_display,
    "fg-recurrences": _check_fg_recurrences,
    "case-audit": _check_case_audit,
    "family-consistency": _check_family_consistency,
    "annihilator": _check_annihilator,
    "quadratic-in-x": _check_quadratic_in_x,
    "uqsl2": _check_uqsl2,
    "uqsl2-x": _check_uqsl2_x,
}

assert set(_HANDLERS) == set(_CHECKS)


class JsonReport:
    """Stable machine-readable result of a suite run."""

    def __init__(self, config, reports):
        self.config = config
        self.reports = reports

    @property
    def failed(self):
        return sum(r.failed for r in self.reports)

    def to_dict(self):
        return {
            "tool": "vpq",
            "version": VERSION,
            "context": dict(self.config.context),
            "seed": self.config.seed,
            "checks": [r.to_dict() for r in self.reports],
            "totals": {
                "checked": sum(r.checked for r in self.reports),
                "passed": sum(r.passed for r in self.reports),
                "failed": self.failed,
                "findings": sum(len(r.findings) for r in self.reports),
            },
        }

    def serialize(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def run_suite(config):
    """Execute every check in order; sampling is seeded and reproducible."""
    ctx = config.build_context()
    rng = random.Random(config.seed if config.seed is not None else 0)
    reports = []
    for spec in config.checks:
        reports.append(_HANDLERS[spec["check"]](ctx, spec, rng))
    return JsonReport(config, reports)
