"""Command-line driver.

Every subcommand is sugar for a one-check suite, so terminal runs and
config-file runs share the same dispatch, the same JSON schema, and the
same exit-code contract: 0 all identities hold, 1 at least one nonzero
residual, 2 usage or configuration error.  Findings (documented
adjudications of the source text) never affect the exit code.
"""

from __future__ import annotations

import argparse
import os
import sys

from .scalar import parse_rational
from .suite import _CHECKS, SuiteConfig, run_suite


# flags: name -> argparse keyword arguments.  A flag named by a check key
# (suite._CHECKS) carries its value into that check's spec; a size flag
# defaults to None, which takes the check's own default
_FLAGS = {
    "p": dict(default="2", metavar="RAT",
              help="first deformation parameter (rational string)"),
    "q": dict(default="3", metavar="RAT",
              help="second deformation parameter (rational string)"),
    "backend": dict(choices=("numeric", "symbolic"), default="numeric"),
    "seed": dict(type=int, default=None,
                 help="seed for sampled checks (recorded in report)"),
    "window": dict(type=int, default=None, metavar="N",
                   help="sweep half-width"),
    "family": dict(required=True,
                   help="e.g. mab:a=1/3,b=-2 or alpha:alpha=0"),
    "nmax": dict(type=int, default=None),
    "kmax": dict(type=int, default=None),
    "filter": dict(choices=("all", "generators"), default=None),
    "a": dict(required=True, metavar="RAT"),
    "b": dict(required=True, metavar="RAT"),
    "m": dict(required=True, type=int),
    "two_l": dict(required=True, type=int),
    "omega": dict(required=True, type=int, choices=(1, -1)),
}
_CONTEXT = ("p", "q", "backend", "seed")

# subcommand -> (help text, the checks it runs, its own flags, which may
# override _FLAGS).  It takes the context flags and every key of its
# checks; `_checks` picks the checks a run needs
_COMMANDS = {
    "verify-algebra": ("skew-symmetry, twisted Jacobi, central cocycle",
                       ("verify-algebra",), {}),
    "verify-module": ("defining relation sweep for one family",
                      ("verify-module",), {}),
    "submodules": ("enumerate invariant weight-subspace supports",
                   ("submodules",), {}),
    "iso": ("shifted parameters and the diagonal intertwiner", ("iso",), {}),
    "classify": ("degeneracy profile of the eight linear factors",
                 ("classify", "roots"), {}),
    "audit-identities": (
        "cubic-difference and product identities",
        ("audit-identities", "degeneracy-table"),
        {"table": dict(action="store_true",
                       help="also audit the sixteen-line degeneracy table "
                            "symbolically")}),
    "case-audit": (
        "case constants, junction weight, families",
        ("case-audit", "family-consistency"),
        {"a": dict(default=None, metavar="RAT",
                   help="case representative; omit to only run the family "
                        "consistency sweep"),
         "families": dict(action="store_true",
                          help="also run the exceptional-family consistency "
                               "sweep")}),
    "uqsl2": ("one-parameter quantum sl2 representation checks",
              ("uqsl2", "uqsl2-x"), {}),
    "suite": ("run a JSON suite configuration", (),
              {"config": dict(required=True, metavar="PATH")}),
}
# the context flags of the subcommands that do not take all four: a suite
# config holds its own context, and uqsl2's representation carries its own
# q (the --q flag), so its context is pinned to _UQSL2_CONTEXT, where --q 2
# does not collide with the context guard p != q
_CONTEXT_OF = {"suite": (), "uqsl2": ("seed",)}
_UQSL2_CONTEXT = {"p": "2", "q": "3"}


def build_parser():
    top = argparse.ArgumentParser(
        prog="vpq",
        description="exact verification of the two-parameter deformed "
                    "Virasoro algebra and its weight modules")
    sub = top.add_subparsers(dest="command", required=True)
    for cmd, (help_text, checks, own) in _COMMANDS.items():
        p = sub.add_parser(cmd, help=help_text)
        flags = {**_FLAGS, **own}
        keys = [k for check in checks for k in _CHECKS[check]]
        for flag in dict.fromkeys((*_CONTEXT_OF.get(cmd, _CONTEXT), *keys,
                                   *own)):
            p.add_argument("--" + flag.replace("_", "-"), **flags[flag])
        p.add_argument("--json", default=None, metavar="PATH",
                       help="write the full JSON report here")
    return top


def _checks(args):
    """The checks a subcommand run needs, from its table entry."""
    checks = _COMMANDS[args.command][1]
    if args.command == "audit-identities" and not args.table:
        return checks[:1]
    if args.command == "case-audit":
        # --a runs the case audit; --families, or no --a, the family sweep
        wanted = (args.a is not None, args.families or args.a is None)
        return [c for c, on in zip(checks, wanted) if on]
    if args.command == "uqsl2" and args.two_l % 2:
        return checks[:1]       # the x fit needs integer weights
    return checks


def _build_config(args):
    """Suite config of a run; a flag left at None takes the check default."""
    if args.command == "suite":
        return SuiteConfig.from_path(args.config)
    doc = {
        "context": (_UQSL2_CONTEXT if args.command == "uqsl2" else
                    {"p": args.p, "q": args.q, "backend": args.backend}),
        "checks": [{"check": c, **{k: v for k in _CHECKS[c]
                                   if (v := getattr(args, k)) is not None}}
                   for c in _checks(args)],
    }
    if args.seed is not None:
        doc["seed"] = args.seed
    return SuiteConfig.from_dict(doc)


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
          file=stream, flush=True)


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
    try:
        _summarize(report, sys.stdout)
    except BrokenPipeError:
        # the reader left (`| head -1`; _summarize flushes, so it shows
        # here): keep the verdict and send the flush at exit to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
