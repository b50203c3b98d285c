"""Command-line driver.

Every subcommand is sugar for a one-check suite, so terminal runs and
config-file runs share the same dispatch, the same JSON schema, and the
same exit-code contract: 0 all identities hold, 1 at least one nonzero
residual, 2 usage or configuration error.  Findings (documented
adjudications of the source text) never affect the exit code.
"""

from __future__ import annotations

import argparse
import sys

from .scalar import parse_rational
from .suite import SuiteConfig, SuiteConfigError, run_suite


# flags shared by several subcommands: name -> argparse keyword arguments
_SHARED = {
    "p": dict(default="2", metavar="RAT",
              help="first deformation parameter (rational string)"),
    "q": dict(default="3", metavar="RAT",
              help="second deformation parameter (rational string)"),
    "backend": dict(choices=("numeric", "symbolic"), default="numeric"),
    "seed": dict(type=int, default=None,
                 help="seed for sampled checks (recorded in report)"),
    "window": dict(type=int, default=None, metavar="N",
                   help="sweep half-width"),
}
_CONTEXT = ("p", "q", "backend", "seed")


def build_parser():
    top = argparse.ArgumentParser(
        prog="vpq",
        description="exact verification of the two-parameter deformed "
                    "Virasoro algebra and its weight modules")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_text, flags=_CONTEXT):
        """A subcommand taking --json and the named shared flags."""
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument("--" + flag, **_SHARED[flag])
        p.add_argument("--json", default=None, metavar="PATH",
                       help="write the full JSON report here")
        return p

    # size flags default to None: the check's own default (suite._CHECKS)
    add("verify-algebra", "skew-symmetry, twisted Jacobi, central cocycle",
        _CONTEXT + ("window",))

    p = add("verify-module", "defining relation sweep for one family")
    p.add_argument("--family", required=True,
                   help="e.g. mab:a=1/3,b=-2 or alpha:alpha=0")
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--filter", choices=("all", "generators"), default=None)

    p = add("submodules", "enumerate invariant weight-subspace supports",
            _CONTEXT + ("window",))
    p.add_argument("--family", required=True)

    p = add("iso", "shifted parameters and the diagonal intertwiner")
    p.add_argument("--a", required=True, metavar="RAT")
    p.add_argument("--b", required=True, metavar="RAT")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--kmax", type=int, default=None)

    p = add("classify", "degeneracy profile of the eight linear factors")
    p.add_argument("--a", required=True, metavar="RAT")
    p.add_argument("--b", required=True, metavar="RAT")

    p = add("audit-identities", "cubic-difference and product identities")
    p.add_argument("--a", required=True, metavar="RAT")
    p.add_argument("--b", required=True, metavar="RAT")
    p.add_argument("--table", action="store_true",
                   help="also audit the sixteen-line degeneracy table "
                        "symbolically")

    p = add("case-audit", "case constants, junction weight, families",
            _CONTEXT + ("window",))
    p.add_argument("--a", default=None, metavar="RAT",
                   help="case representative; omit to only run the family "
                        "consistency sweep")
    p.add_argument("--families", action="store_true",
                   help="also run the exceptional-family consistency sweep")

    # --q is the representation's own parameter; the context is pinned
    p = add("uqsl2", "one-parameter quantum sl2 representation checks",
            ("q", "seed"))
    p.add_argument("--two-l", dest="two_l", required=True, type=int)
    p.add_argument("--omega", required=True, type=int, choices=(1, -1))

    p = add("suite", "run a JSON suite configuration", ())
    p.add_argument("--config", required=True, metavar="PATH")

    return top


def _one_check_config(args, checks, context=None):
    """Suite config of the given checks; a None value takes the default."""
    doc = {
        "context": context or {"p": args.p, "q": args.q,
                               "backend": args.backend},
        "checks": [{k: v for k, v in spec.items() if v is not None}
                   for spec in checks],
    }
    if args.seed is not None:
        doc["seed"] = args.seed
    return SuiteConfig.from_dict(doc)


def _build_config(args):
    cmd = args.command
    if cmd == "suite":
        return SuiteConfig.from_path(args.config)
    if cmd == "verify-algebra":
        return _one_check_config(args, [{"check": cmd, "window": args.window}])
    if cmd == "verify-module":
        return _one_check_config(args, [{
            "check": "verify-module", "family": args.family,
            "nmax": args.nmax, "kmax": args.kmax, "filter": args.filter}])
    if cmd == "submodules":
        return _one_check_config(args, [{
            "check": cmd, "family": args.family, "window": args.window}])
    if cmd == "iso":
        return _one_check_config(args, [{
            "check": "iso", "a": args.a, "b": args.b, "m": args.m,
            "kmax": args.kmax}])
    if cmd == "classify":
        return _one_check_config(args, [
            {"check": "classify", "a": args.a, "b": args.b},
            {"check": "roots", "a": args.a, "b": args.b}])
    if cmd == "audit-identities":
        checks = [{"check": "audit-identities", "a": args.a, "b": args.b}]
        if args.table:
            checks.append({"check": "degeneracy-table"})
        return _one_check_config(args, checks)
    if cmd == "case-audit":
        checks = []
        if args.a is not None:
            checks.append({"check": "case-audit", "a": args.a,
                           "window": args.window})
        if args.families or args.a is None:
            checks.append({"check": "family-consistency",
                           "window": args.window})
        return _one_check_config(args, checks)
    if cmd == "uqsl2":
        checks = [{"check": "uqsl2", "two_l": args.two_l,
                   "omega": args.omega, "q": args.q}]
        if args.two_l % 2 == 0:
            checks.append({"check": "uqsl2-x", "two_l": args.two_l,
                           "omega": args.omega, "q": args.q})
        # the rep carries its own q; pin a neutral two-parameter context so
        # --q 2 does not collide with the context guard p != q
        return _one_check_config(args, checks, {"p": "2", "q": "3"})
    raise SuiteConfigError("unknown command %r" % cmd)


def _summarize(report, stream):
    for check in report.reports:
        status = "ok" if not check.failed else "FAIL"
        print("%-4s %-20s checked=%-6d passed=%-6d failed=%-4d findings=%d"
              % (status, check.name, check.checked, check.passed,
                 check.failed, len(check.findings)), file=stream)
        for fail in check.failures[:5]:
            print("     residual %s at %s = %s"
                  % (fail["identity"], fail["indices"], fail["residual"]),
                  file=stream)
        if len(check.failures) > 5:
            print("     ... %d more failures" % (len(check.failures) - 5),
                  file=stream)
        for finding in check.findings:
            print("     finding[%s]: %s" % (finding["id"], finding["detail"]),
                  file=stream)
        # query-style checks carry their answer in sections, not in counts
        if check.name == "submodules":
            supports = check.sections.get("submodules", [])
            for support in supports:
                print("     support {%s}"
                      % ", ".join(str(k) for k in support), file=stream)
            if not supports:
                print("     no proper invariant supports in this window",
                      file=stream)
            if check.sections.get("truncated"):
                print("     (support list truncated)", file=stream)
        elif check.name == "iso":
            print("     shifted parameters a'=%s b'=%s"
                  % (check.sections.get("a_shift"),
                     check.sections.get("b_shift")), file=stream)
    tot = report.to_dict()["totals"]
    print("total checked=%d passed=%d failed=%d findings=%d"
          % (tot["checked"], tot["passed"], tot["failed"], tot["findings"]),
          file=stream)


_RAT_FLAGS = ("--a", "--b", "--p", "--q")


def _glue_negative_rationals(argv):
    """Join `--a -1/5` into `--a=-1/5` so argparse keeps the value."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in _RAT_FLAGS and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            nxt = argv[i + 1]
            try:
                parse_rational(nxt)
            except ValueError:
                out.append(tok)
            else:
                out.append("%s=%s" % (tok, nxt))
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_glue_negative_rationals(list(argv)))
    try:
        report = run_suite(_build_config(args))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(report.serialize())
    except (OSError, ValueError) as exc:
        print("vpq: %s" % exc, file=sys.stderr)
        return 2
    _summarize(report, sys.stdout)
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
