"""The traced benchmark run: the one run that installs perfbench's span
tracer over vpq (`perfbench/spans.py`), which wraps each family's `coeff`
in its own class body, module globals by name and the scalar operators."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["suite-numeric", "formal"])
def test_traced_benchmark_run_exits_0_and_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
