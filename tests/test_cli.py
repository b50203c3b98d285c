"""Command-line driver: exit codes, JSON reports, determinism."""

import json
import os
import subprocess
import sys

import pytest

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
                 {"check": "case-audit", "a": "-1/2", "window": 2}):
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
