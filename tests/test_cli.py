"""Command-line driver: exit codes, JSON reports, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from vpq import cli
from vpq.report import ResidualReport
from vpq.suite import (_CHECKS, JsonReport, SuiteConfig, SuiteConfigError,
                       run_suite)


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_module(*argv, stdout=subprocess.PIPE):
    """`python -m *argv` in a child process that imports this vpq."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


def test_verify_algebra_ok(capsys):
    rc, out, _ = run(capsys, "verify-algebra", "--window", "2")
    assert rc == 0
    assert "total checked=" in out
    assert "failed=0" in out


def test_classify_reports_the_case(capsys, tmp_path):
    path = tmp_path / "out.json"
    rc, out, _ = run(capsys, "classify", "--a", "5", "--b", "0",
                     "--json", str(path))
    assert rc == 0
    doc = json.loads(path.read_text())
    classify = next(c for c in doc["checks"] if c["check"] == "classify")
    assert classify["sections"]["profile"]["case"] == 2
    assert doc["totals"]["failed"] == 0


def test_iso_subcommand_shift_values(capsys, tmp_path):
    path = tmp_path / "iso.json"
    rc, _, _ = run(capsys, "iso", "--a", "0", "--b", "1", "--m", "1",
                   "--json", str(path))
    assert rc == 0
    doc = json.loads(path.read_text())
    iso = doc["checks"][0]
    assert iso["sections"]["a_shift"] == "1/3"
    assert iso["sections"]["b_shift"] == "2/3"


def test_iso_text_output_shows_shift(capsys):
    rc, out, _ = run(capsys, "iso", "--a", "0", "--b", "1", "--m", "1")
    assert rc == 0
    assert "a'=1/3" in out
    assert "b'=2/3" in out


def test_submodules_text_output_lists_supports(capsys):
    rc, out, _ = run(capsys, "submodules", "--family", "mab:a=-1/2,b=-3/2",
                     "--window", "5")
    assert rc == 0
    assert "support {-5, -4, -3, -2, 0, 1, 2, 3, 4, 5}" in out


def test_submodules_text_output_when_none(capsys):
    rc, out, _ = run(capsys, "submodules", "--family", "mab:a=1/3,b=1/3",
                     "--window", "4")
    assert rc == 0
    assert "no proper invariant supports" in out


def test_negative_rational_values_survive_argparse(capsys):
    rc, out, _ = run(capsys, "case-audit", "--a", "-1/5")
    assert rc == 0
    assert "finding[G-catalogued-value]" in out


def test_negative_window_flag_still_errors(capsys):
    # gluing only touches rational-valued flags, not e.g. --window
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-algebra", "--window"])
    assert exc.value.code == 2


def test_uqsl2_subcommand(capsys):
    rc, out, _ = run(capsys, "uqsl2", "--two-l", "4", "--omega", "1",
                     "--q", "2")
    assert rc == 0
    assert "uqsl2-relations" in out
    assert "uqsl2-x-quadratic" in out
    # there --q is the parameter of U_q(sl2), not a deformation parameter
    with pytest.raises(SystemExit):
        cli.main(["uqsl2", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--q RAT the parameter q of U_q(sl2)" in help_text
    assert "deformation" not in help_text


def test_uqsl2_odd_ladder_skips_the_fit(capsys):
    rc, out, _ = run(capsys, "uqsl2", "--two-l", "5", "--omega", "-1",
                     "--q", "3")
    assert rc == 0
    assert "uqsl2-x-quadratic" not in out


def test_verify_module_filter_flag(capsys):
    rc, _, _ = run(capsys, "verify-module", "--family", "alpha:alpha=1/2",
                   "--nmax", "2", "--kmax", "5", "--filter", "generators")
    assert rc == 0


def test_degenerate_context_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "verify-algebra", "--p", "2", "--q", "2")
    assert rc == 2
    assert "vpq:" in err


def test_unknown_family_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "verify-module", "--family", "nope:x=1")
    assert rc == 2
    assert "unknown family" in err


def test_repeated_family_parameter_is_a_usage_error(capsys):
    # a repeated parameter must not let its last value win silently
    rc, out, err = run(capsys, "submodules", "--family", "mab:a=1,b=2,a=3")
    assert rc == 2 and out == ""
    assert err.startswith("vpq: ") and "repeats parameter 'a'" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_python_dash_m_vpq_runs_the_cli():
    proc = run_module("vpq", "verify-algebra", "--window", "1")
    assert proc.returncode == 0, proc.stderr
    assert "total checked=" in proc.stdout and "failed=0" in proc.stdout


def test_closed_stdout_keeps_the_verdict():
    # a reader that leaves early (`| head -1`) must not turn a clean run
    # into exit 1 with a BrokenPipeError traceback
    r, w = os.pipe()
    os.close(r)
    try:
        proc = run_module("vpq.cli", "case-audit", "--a", "-1/5", stdout=w)
    finally:
        os.close(w)
    assert proc.returncode == 0 and proc.stderr == ""


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-algebra", "--frobnicate"])
    assert exc.value.code == 2


def test_missing_config_file_is_a_usage_error(capsys, tmp_path):
    rc, _, err = run(capsys, "suite", "--config",
                     str(tmp_path / "absent.json"))
    assert rc == 2


def test_invalid_config_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "context": {"p": "2", "q": "3"},
        "checks": [{"check": "qint-identities", "mmax": 4, "bogus": 1}],
    }))
    rc, _, err = run(capsys, "suite", "--config", str(path))
    assert rc == 2
    assert "bogus" in err


def test_empty_checks_list_is_a_usage_error(capsys, tmp_path):
    # a suite that checks nothing used to exit 0 with "total checked=0"
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"context": {"p": "2", "q": "3"},
                                "checks": []}))
    rc, out, err = run(capsys, "suite", "--config", str(path))
    assert rc == 2
    assert err.startswith("vpq: ") and "at least one check" in err
    assert "Traceback" not in err and "checked=" not in out


@pytest.mark.parametrize("check", ["l2-display", "fg-recurrences"])
def test_a_check_whose_every_j_is_skipped_is_a_usage_error(capsys, tmp_path,
                                                            check):
    # at (2,3) with a = -1/2, b = -3/2 a denominator vanishes at j = 0, the
    # only j of jmax 0: such a check used to print "ok ... checked=0"
    path = tmp_path / "skipped.json"
    spec = {"check": check, "a": "-1/2", "b": "-3/2"}

    def run_at(jmax):
        path.write_text(json.dumps({"context": {"p": "2", "q": "3"},
                                    "checks": [{**spec, "jmax": jmax}]}))
        return run(capsys, "suite", "--config", str(path))

    assert run_at(1)[0] == 0    # j = 1 is checked
    rc, out, err = run_at(0)
    assert rc == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("vpq: %s checks nothing"
                                                   % check)
    assert "Traceback" not in err


def test_suite_runs_are_byte_identical(capsys, tmp_path):
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({
        "context": {"p": "2", "q": "3"},
        "seed": 7,
        "checks": [
            {"check": "qint-identities", "mmax": 6},
            {"check": "sampled-modules", "count": 2, "nmax": 2, "kmax": 4},
            {"check": "roots", "a": "2", "b": "1/4"},
        ],
    }))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(["suite", "--config", str(config),
                     "--json", str(out1)]) == 0
    assert cli.main(["suite", "--config", str(config),
                     "--json", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_exit_code_1_on_nonzero_residual(capsys, monkeypatch):
    config = SuiteConfig.from_dict({
        "context": {"p": "2", "q": "3"},
        "checks": [{"check": "qint-identities", "mmax": 2}],
    })
    failing = ResidualReport("qint-identities", {})
    failing.record("forced", (0,), 1)
    monkeypatch.setattr(cli, "run_suite",
                        lambda cfg: JsonReport(config, [failing]))
    rc, out, _ = run(capsys, "verify-algebra")
    assert rc == 1
    assert "FAIL" in out


def test_config_rejections():
    base = {"context": {"p": "2", "q": "3"}, "checks": []}
    bad = [
        {},  # missing keys
        {**base, "extra": 1},
        {"context": {"p": "2"}, "checks": []},
        {"context": {"p": "2", "q": "3", "r": "5"}, "checks": []},
        {"context": {"p": "2", "q": "3", "backend": "fast"}, "checks": []},
        {"context": {"p": "2", "q": "3", "guard_window": 0}, "checks": []},
        {**base, "seed": "seven"},
        {**base, "checks": [{"check": "made-up"}]},
        {**base, "checks": [{"check": "iso", "a": "1"}]},  # missing b, m
        {**base, "checks": [{"check": "qint-identities", "mmax": "four"}]},
    ]
    for doc in bad:
        with pytest.raises(SuiteConfigError):
            SuiteConfig.from_dict(doc)


def test_run_suite_seed_is_recorded(tmp_path):
    config = SuiteConfig.from_dict({
        "context": {"p": "2", "q": "3"},
        "seed": 99,
        "checks": [{"check": "sampled-modules", "count": 1,
                    "nmax": 2, "kmax": 4}],
    })
    doc = json.loads(run_suite(config).serialize())
    assert doc["seed"] == 99
    assert doc["tool"] == "vpq"
    assert doc["totals"]["failed"] == 0


def test_guard_bypass_is_a_usage_error(capsys, tmp_path):
    # guard_window 1 used to let q = -p through to a ZeroDivisionError
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({
        "context": {"p": "2", "q": "-2", "guard_window": 1},
        "checks": [{"check": "verify-algebra", "window": 2}]}))
    rc, _, err = run(capsys, "suite", "--config", str(config))
    assert rc == 2
    assert "q = -p" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify-algebra", "--window", "-3"),
    ("verify-module", "--family", "mab:a=1,b=1", "--nmax", "-1"),
    ("verify-module", "--family", "mab:a=1,b=1", "--kmax", "-2"),
    ("submodules", "--family", "mab:a=0,b=0", "--window", "-1"),
    ("iso", "--a", "0", "--b", "1", "--m", "1", "--kmax", "-1"),
    ("case-audit", "--a", "5", "--window", "-4"),
    ("uqsl2", "--two-l", "-2", "--omega", "1"),
])
def test_negative_sizes_are_usage_errors(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert "must be >=" in err and out == ""


def test_vacuous_check_sizes_are_rejected():
    base = {"context": {"p": "2", "q": "3"}}
    for spec in ({"check": "qint-identities", "mmax": -1},
                 {"check": "verify-algebra", "window": -3},
                 {"check": "generation", "window": 2},
                 {"check": "sampled-modules", "count": 0},
                 {"check": "sampled-families", "count": -1},
                 {"check": "sampled-iso", "count": 2, "mmax": -1},
                 {"check": "is-reducible-grid", "mmax": -1},
                 {"check": "l2-display", "a": "1", "b": "1", "jmax": -1},
                 {"check": "fg-recurrences", "a": "1", "b": "1", "jmax": -6},
                 {"check": "family-consistency", "window": 1},
                 {"check": "quadratic-in-x", "a": "1/7", "window": 3},
                 {"check": "case-audit", "a": "-1/2", "window": 2},
                 {"check": "annihilator", "family": "mab:a=1/3,b=-2",
                  "window": 0}):
        with pytest.raises(SuiteConfigError, match="must be >="):
            SuiteConfig.from_dict({**base, "checks": [spec]})
    # the smallest accepted sizes still check something
    doc = {**base, "checks": [{"check": "verify-algebra", "window": 0},
                              {"check": "generation", "window": 3},
                              {"check": "qint-identities", "mmax": 0},
                              {"check": "case-audit", "a": "-1/2",
                               "window": 3}]}
    for rep in run_suite(SuiteConfig.from_dict(doc)).reports:
        assert rep.checked > 0 and rep.failed == 0


@pytest.mark.parametrize("kmax,want", [(0, 2), (1, 0)])
def test_sampled_iso_window_zero_is_a_usage_error(capsys, tmp_path, kmax,
                                                  want):
    # at kmax 0 an unrelated pair meets only the n = 0 constraint, which
    # pins a2 alone; this seed used to exit 1 there on correct code
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({
        "context": {"p": "2", "q": "3"}, "seed": 9,
        "checks": [{"check": "sampled-iso", "kmax": kmax}]}))
    rc, out, err = run(capsys, "suite", "--config", str(config))
    assert rc == want and "Traceback" not in err
    if want == 2:
        assert out == "" and err.startswith("vpq:")
        assert "'kmax' must be >= 1" in err


@pytest.mark.parametrize("mmax,window", [(4, 0), (4, 1), (4, 2), (4, 3),
                                          (0, 0)])
def test_reducible_grid_window_below_mmax_is_a_usage_error(
        capsys, tmp_path, mmax, window):
    # the witness supports need window >= max(mmax, 1); smaller windows
    # used to fail statement-branch-reducible and exit 1
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({
        "context": {"p": "2", "q": "3"},
        "checks": [{"check": "verify-algebra", "window": 1},
                   {"check": "is-reducible-grid", "mmax": mmax,
                    "window": window}]}))
    rc, out, err = run(capsys, "suite", "--config", str(config))
    assert rc == 2 and out == ""
    assert err.startswith("vpq:") and "must be >=" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mmax,window", [(4, 4), (0, 1)])
def test_reducible_grid_smallest_windows_pass(mmax, window):
    doc = {"context": {"p": "2", "q": "3"},
           "checks": [{"check": "is-reducible-grid", "mmax": mmax,
                       "window": window}]}
    rep, = run_suite(SuiteConfig.from_dict(doc)).reports
    assert rep.checked > 0 and rep.failed == 0


@pytest.mark.parametrize("argv", [
    ("verify-module", "--family", "mab:a=1/0,b=0"),
    ("submodules", "--family", "alpha:alpha=1/0"),
    ("iso", "--a", "1/0", "--b", "1", "--m", "1"),
])
def test_zero_denominator_is_a_usage_error(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("vpq:") and "zero denominator" in err


@pytest.mark.parametrize("check", ["submodules", "annihilator"])
def test_zero_denominator_family_in_config_is_a_usage_error(
        capsys, tmp_path, check):
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({
        "context": {"p": "2", "q": "3"},
        "checks": [{"check": check, "family": "betap:betap=2/0"}]}))
    rc, out, err = run(capsys, "suite", "--config", str(config))
    assert rc == 2 and out == ""
    assert "zero denominator" in err and "Traceback" not in err


@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_unwritable_json_path_is_a_usage_error(capsys, tmp_path, target):
    rc, out, err = run(capsys, "verify-algebra", "--window", "1",
                       "--json", str(tmp_path / target))
    assert rc == 2 and out == ""
    assert err.startswith("vpq:")


@pytest.mark.parametrize("argv", [
    ("classify", "--a", "1", "--b", "1", "--window", "5"),
    ("verify-module", "--family", "mab:a=1,b=1", "--window", "3"),
    ("iso", "--a", "0", "--b", "1", "--m", "1", "--window", "3"),
    ("audit-identities", "--a", "1", "--b", "1", "--window", "3"),
    ("uqsl2", "--two-l", "2", "--omega", "1", "--window", "3"),
    ("uqsl2", "--two-l", "2", "--omega", "1", "--p", "5"),
    ("uqsl2", "--two-l", "2", "--omega", "1", "--backend", "symbolic"),
    ("suite", "--config", "suite.json", "--window", "3"),
    ("suite", "--config", "suite.json", "--p", "5"),
    ("suite", "--config", "suite.json", "--q", "5"),
    ("suite", "--config", "suite.json", "--backend", "symbolic"),
    ("suite", "--config", "suite.json", "--seed", "1"),
])
def test_flags_a_subcommand_would_ignore_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_size_flags_default_to_the_check_defaults(capsys, tmp_path):
    path = tmp_path / "out.json"
    rc, _, _ = run(capsys, "verify-module", "--family", "mab:a=1,b=1",
                   "--json", str(path))
    assert rc == 0
    params = json.loads(path.read_text())["checks"][0]["params"]
    table = _CHECKS["verify-module"]
    assert (params["nmax"], params["kmax"], params["pair_filter"]) == (
        table["nmax"][1], table["kmax"][1], table["filter"][1])
    rc, _, _ = run(capsys, "iso", "--a", "0", "--b", "1", "--m", "1",
                   "--json", str(path))
    assert rc == 0
    params = json.loads(path.read_text())["checks"][0]["params"]
    assert params["kmax"] == _CHECKS["iso"]["kmax"][1]


# -- the subcommand table ---------------------------------------------------------

# `vpq suite` reads its checks from a config, fuzzed in test_suite.py
_SUBCOMMANDS = sorted(set(cli._COMMANDS) - {"suite"})


def _check_keys(command):
    """The keys of the checks the subcommand runs, each once."""
    return list(dict.fromkeys(k for check in cli._COMMANDS[command][1]
                              for k in _CHECKS[check]))


def _switches(command):
    """The subcommand's own on/off flags."""
    own = cli._COMMANDS[command][2]
    return ["--" + f for f, kw in own.items() if kw.get("action")]


# a value for every key a subcommand takes, none of them a check default
_KEY_VALUES = {"window": "5", "family": "mab:a=1/3,b=-2", "nmax": "2",
               "kmax": "3", "filter": "generators", "a": "-1/5", "b": "2",
               "m": "1", "two_l": "2", "omega": "-1", "q": "5"}


@pytest.mark.parametrize("command", _SUBCOMMANDS)
def test_subcommand_specs_carry_exactly_the_check_keys(command):
    # with every flag given, each check of the table runs, and its spec
    # holds each of its keys, at the flag's value, and nothing else
    argv = [command, *_switches(command)]
    for key in _check_keys(command):
        argv += ["--" + key.replace("_", "-"), _KEY_VALUES[key]]
    config = cli._build_config(
        cli.build_parser().parse_args(cli._glue_negative_rationals(argv)))
    assert [s["check"] for s in config.checks] == list(
        cli._COMMANDS[command][1])
    for spec in config.checks:
        table = _CHECKS[spec["check"]]
        assert set(spec) == {"check", *table}
        for key, (kind, *_) in table.items():
            value = _KEY_VALUES[key]
            assert spec[key] == (int(value) if kind == "int" else value)


# mostly valid values, with a few of every kind of bad one; sizes are
# drawn from -2..3, so some fall below a check's minimum
_ARGV_VALUES = {
    "int": st.integers(-2, 3).map(str),
    "rat": st.sampled_from(["0", "1", "-1", "2", "-1/5", "1/3", "3/2"] * 3
                           + ["1/0", "0.5", "x"]),
    "family": st.sampled_from(["mab:a=1/3,b=-2", "alpha:alpha=0",
                               "betap:betap=1/2"] * 2
                              + ["mab:a=1/0,b=0", "nope"]),
    "filter": st.sampled_from(["all", "generators"] * 2 + ["some"]),
    "omega": st.sampled_from(["1", "-1"] * 2 + ["0"]),
    "backend": st.sampled_from(["numeric", "symbolic"] * 2 + ["exact"]),
    "p": st.sampled_from(["2", "5", "-3/2"] * 2 + ["0", "1/0"]),
    "q": st.sampled_from(["3", "7", "1/4"] * 2 + ["1", "x"]),
    "seed": st.integers(0, 3).map(str),
}
# keys no subcommand takes (count, jmax, ...) are foreign everywhere
_EVERY_KEY = sorted({k for keys in _CHECKS.values() for k in keys})


def _kind(flag):
    """The _ARGV_VALUES entry a flag's value is drawn from."""
    if flag in _ARGV_VALUES:
        return flag
    return next(check[flag][0] for check in _CHECKS.values() if flag in check)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(_SUBCOMMANDS))
    keys = _check_keys(command)
    # each key of its checks is usually there (a missing one may be
    # required), a context flag sometimes, a foreign flag rarely
    flags = [k for k in keys if draw(st.sampled_from([True] * 5 + [False]))]
    flags += [k for k in cli._CONTEXT
              if k not in keys and draw(st.sampled_from([False, False, True]))]
    if draw(st.sampled_from([False] * 5 + [True])):
        flags.append(draw(st.sampled_from(
            [k for k in _EVERY_KEY if k not in keys])))
    argv = [command, *(s for s in _switches(command) if draw(st.booleans()))]
    for flag in flags:
        argv += ["--" + flag.replace("_", "-"),
                 draw(_ARGV_VALUES[_kind(flag)])]
    return argv


@given(argvs())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_every_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:       # argparse's usage errors
            rc = exc.code
    assert rc in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert out.getvalue() == "", argv
