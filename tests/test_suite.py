"""Suite-level contracts: the two backends agree, the bundled suite's report
bytes stay fixed, and no config escapes the exit-code contract (0 clean,
1 nonzero residual, 2 usage error)."""

import contextlib
import functools
import hashlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vpq import cli
from vpq.suite import _CHECKS, SuiteConfig, run_suite


@functools.lru_cache(maxsize=None)
def _bundled_report(backend):
    doc = json.loads(resources.files("vpq").joinpath(
        "data/acceptance_suite.json").read_text())
    doc["context"]["backend"] = backend
    return run_suite(SuiteConfig.from_dict(doc))


def _bundled_suite(backend):
    return _bundled_report(backend).to_dict()


def _without_backend(x):
    if isinstance(x, dict):
        return {k: _without_backend(v) for k, v in x.items() if k != "backend"}
    if isinstance(x, list):
        return [_without_backend(v) for v in x]
    return x


def test_bundled_suite_agrees_on_both_backends():
    num = _bundled_suite("numeric")
    sym = _bundled_suite("symbolic")
    assert num["context"]["p"] == "2" and num["context"]["q"] == "3"

    def summary(doc):
        return [(c["check"], c["counts"],
                 [(f["identity"], f["indices"]) for f in c["failures"]],
                 sorted(f["id"] for f in c["findings"]))
                for c in doc["checks"]]

    assert summary(num) == summary(sym)
    # at a rational point every scalar string agrees too
    assert _without_backend(num) == _without_backend(sym)


# sha256 of the serialized bundled suite; a change that alters any report
# byte on purpose updates these and says why
_BUNDLED_SHA256 = {
    "numeric": "1b112d6528961027fbda7b11ad452282a0109c4907aff512f4593c79dc5f37e6",
    "symbolic": "996fd5a24df4c8c997dc5a86c2a516bdafee4185d2e3f62d981e4388eee81935",
}


@pytest.mark.parametrize("backend", sorted(_BUNDLED_SHA256))
def test_bundled_suite_bytes_are_unchanged(backend):
    data = _bundled_report(backend).serialize().encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == _BUNDLED_SHA256[backend]


def test_legacy_guard_window_is_validated_and_not_reported():
    # configs written for older versions carry guard_window; it bounds
    # nothing, so it runs and leaves no trace in the report
    doc = {"context": {"p": "2", "q": "3", "guard_window": 64},
           "checks": [{"check": "qint-identities", "mmax": 2},
                      {"check": "verify-algebra", "window": 2}]}
    report = run_suite(SuiteConfig.from_dict(doc)).to_dict()
    assert report["totals"]["checked"] > 0 and report["totals"]["failed"] == 0
    assert "guard_window" not in json.dumps(report)
    for check in report["checks"]:
        assert check["params"]["guard"] == {"mode": "rational-point"}


# -- config fuzzer --------------------------------------------------------------

# mostly valid values, with a few of every kind of bad one
_RATS = ["0", "1", "-1", "5", "-1/5", "1/3", "-1/2", "3/2"] * 3 + [
    "1/0", "0.5", "x", 2]
_STRS = ["mab:a=1/3,b=-2", "mab:a=-1/2,b=0", "alpha:alpha=0", "alphap:t=1",
         "beta:beta=-1", "betap:betap=1/2"] * 3 + [
    "mab:a=1/0,b=0", "nope:x=1", "", "all", "generators"]


def _value(kind):
    if kind == "int":
        return st.integers(-1, 4)
    if kind == "rat":
        return st.sampled_from(_RATS)
    return st.sampled_from(_STRS)


def _check_spec(name):
    # required keys are usually present; any key may be left out
    table = _CHECKS[name]
    required = {k: _value(kind) for k, (kind, default, *_) in table.items()
                if default is None}
    optional = {k: _value(kind) for k, (kind, default, *_) in table.items()
                if default is not None}
    return st.tuples(
        st.fixed_dictionaries({"check": st.just(name), **required},
                              optional=optional),
        st.sampled_from([None] * 9 + sorted(required) if required else [None]),
    ).map(lambda pair: {k: v for k, v in pair[0].items() if k != pair[1]})


configs = st.fixed_dictionaries({
    "context": st.fixed_dictionaries({
        "p": st.sampled_from(["2", "5", "-3/2"] * 3 + ["0", "3"]),
        "q": st.sampled_from(["3", "7", "1/4"] * 3 + ["1", "-2"]),
        "backend": st.sampled_from(["numeric", "symbolic"]),
    }),
    "seed": st.integers(0, 3),
    "checks": st.lists(st.sampled_from(sorted(_CHECKS)).flatmap(_check_spec),
                       min_size=1, max_size=2),
})


@given(configs)
@settings(max_examples=40, deadline=None)
def test_every_config_keeps_the_exit_code_contract(doc):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "suite.json"
        report = Path(tmp) / "report.json"
        config.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = cli.main(["suite", "--config", str(config),
                           "--json", str(report)])
        if rc == 2:
            assert err.getvalue().startswith("vpq: ")
            return
        assert rc in (0, 1)
        failed = json.loads(report.read_text())["totals"]["failed"]
        assert (rc == 1) == (failed > 0)
