"""vpq benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload suite-numeric --seed 1 --seconds 40 --trace 0

Every pass runs in a fresh worker process (perfbench/worker.py), one at a
time, so peak RSS is the pass's own and nothing is cached between passes.
With --trace 0 the run sets up at least 45 times and runs at least three
passes, more until --seconds have been measured, and reports wall_s and
setup_s (medians, each time rescaled to reference speed by the reference
slices timed beside it: see reference.py), residuals_per_s and
peak_rss_mb.  With --trace 1 it runs one untraced and one traced pass and
reports the per-layer metrics.  Either way every pass is checked (see
README.md); a breach makes the run print correct=false and exit 1.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0      # no worker starts after this; a run must end by 180 s
SETUPS_PER_PASS = 6
MIN_SETUPS = 45
MIN_PASSES = 3


class Run:
    """Worker launches and gate bookkeeping for one benchmark invocation."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.t_start = time.monotonic()
        self.errors = []        # one line per breach, printed as FAIL
        self.attempted = 0
        self.nonzero = 0        # nonzero residuals
        self.broken = 0         # items that raised plus gate mismatches
        self.passes = []        # wall time and part times of each pass

    def left(self):
        return DEADLINE_S - (time.monotonic() - self.t_start)

    def breach(self, text):
        self.errors.append(text)
        self.broken += 1

    def worker(self, mode, workload=None):
        """Run one worker; returns its JSON record, or None when it failed."""
        workload = workload or self.workload
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(self.seed), "--mode", mode, "--out-dir", str(OUT)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(self.left(), 1.0))
        except subprocess.TimeoutExpired:
            self.breach("%s %s worker timed out" % (workload, mode))
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.breach("%s %s worker exited %d: %s"
                        % (workload, mode, proc.returncode, tail[0]))
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setups(self, n):
        """Records of n set-up-only workers (fewer if some fail)."""
        recs = [self.worker("setup") for _ in range(n)]
        return [r for r in recs if r is not None]

    def check_pass(self, rec, label):
        """Gate one pass; returns the record when it counts as measured."""
        if rec is None:
            return None
        self.attempted += rec["attempted"]
        self.nonzero += rec["nonzero"]
        if rec["nonzero"]:
            self.errors.append("%s: %d nonzero residuals" % (label, rec["nonzero"]))
        elif rec["exit"] != 0:
            self.breach("%s: exit code %d" % (label, rec["exit"]))
        return rec

    def same_digest(self, recs, label):
        digests = {r["digest"] for r in recs}
        if len(digests) > 1:
            self.breach("%s: report sha256 differs (%d variants)"
                        % (label, len(digests)))

    def failed(self):
        return self.nonzero + self.broken


def percentile_line(values):
    """Median plus the highest percentile with at least ten samples beyond."""
    n = len(values)
    med = statistics.median(values)
    if n < 11:
        return "median %.4f, n=%d (no percentile has 10 samples beyond it)" % (med, n)
    k = n - 10
    pct = 100.0 * k / n
    return "median %.4f, p%.1f %.4f, n=%d" % (med, pct, sorted(values)[k - 1], n)


def at_ref_speed(rec):
    """A worker's time rescaled to the host speed at which a reference slice
    takes reference.SLICE_S, by the slices timed beside it."""
    return reference.SLICE_S / rec["ref_s"]


def untraced(run, seconds):
    run.worker("setup")  # fills the bytecode cache in a fresh checkout
    setups, passes = [], []
    t0 = time.monotonic()
    last = 0.0
    # set-ups are spread between the passes, so that they see the host in
    # the states the passes see
    while len(passes) < MIN_PASSES or time.monotonic() - t0 < seconds:
        if passes and run.left() < 1.5 * last + 10:
            break
        setups += run.setups(SETUPS_PER_PASS)
        t = time.monotonic()
        rec = run.check_pass(run.worker("pass"), "pass %d" % len(passes))
        last = time.monotonic() - t
        if rec is None:
            break
        passes.append(rec)
    setups += run.setups(MIN_SETUPS - len(setups))
    run.same_digest(passes, "passes of seed %d" % run.seed)
    if not passes or not setups:
        return {}, {}
    run.passes = [{k: r[k] for k in ("wall_s", "ref_s", "slices")}
                  for r in passes]
    walls = [r["wall_s"] * at_ref_speed(r) for r in passes]
    setup_times = [r["setup_s"] * at_ref_speed(r) for r in setups]
    wall = statistics.median(walls)
    per_pass = passes[0]["attempted"]
    metrics = {
        "wall_s": (wall, "s"),
        "residuals_per_s": (per_pass / wall, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in passes), "MiB"),
    }
    notes = {
        "wall_s": "%s; as timed: median %.4f, reference slice %.3f ms"
                  % (percentile_line(walls),
                     statistics.median(r["wall_s"] for r in passes),
                     1e3 * statistics.median(r["ref_s"] for r in passes)),
        "residuals_per_s": "%d residuals per pass" % per_pass,
        "setup_s": "%s; as timed: median %.4f"
                   % (percentile_line(setup_times),
                      statistics.median(r["setup_s"] for r in setups)),
        "peak_rss_mb": "median of %d fresh worker processes" % len(passes),
    }
    return metrics, notes


OTHER_BACKEND = {"suite-numeric": "suite-symbolic",
                 "suite-symbolic": "suite-numeric"}


def cross_backend(run, rec):
    """The suite on the other backend, same seed, must agree check by check
    on counts and finding ids."""
    other = OTHER_BACKEND[run.workload]
    ref = run.check_pass(run.worker("pass", workload=other),
                         "%s reference pass" % other)
    if ref is not None and ref["checks"] != rec["checks"]:
        diff = [i for i, (x, y) in enumerate(zip(ref["checks"], rec["checks"]))
                if x != y]
        run.breach("numeric and symbolic reports disagree on checks %s" % diff)


def traced(run):
    plain = run.check_pass(run.worker("pass"), "untraced pass")
    tr = run.check_pass(run.worker("traced"), "traced pass")
    if plain is None or tr is None:
        return {}, {}
    run.same_digest([plain, tr], "traced vs untraced pass")
    if run.workload in OTHER_BACKEND:
        cross_backend(run, plain)
    metrics = {k: tuple(v) for k, v in tr["metrics"].items()}
    metrics["trace_overhead_ratio"] = (tr["wall_s"] / plain["wall_s"], "ratio")
    notes = {"trace_overhead_ratio":
             "traced %.3f s / untraced %.3f s; %.3f s of it is trace overhead, "
             "taken out of every time (per call %d ns, %d ns with a test, "
             "%d ns bypassed), which leaves %.3f s; %d spans in %s"
             % ((tr["wall_s"], plain["wall_s"], tr["overhead_s"])
                + tuple(tr["calibration_ns"])
                + (tr["wall_s"] - tr["overhead_s"], tr["spans"],
                   tr["spans_path"]))}
    return metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=20260814)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "vpq" / "__init__.py").is_file():
        print("perfbench: no vpq sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed)
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "seconds": args.seconds, "python": platform.python_version(),
           "nproc": os.cpu_count()}
    print("perfbench %s" % " ".join("%s=%s" % kv for kv in env.items()))
    if args.trace:
        metrics, notes = traced(run)
    else:
        metrics, notes = untraced(run, args.seconds)
    attempted = max(run.attempted, 1)
    failed = run.failed()
    correct = not run.errors and bool(metrics)
    for name, (value, unit) in metrics.items():
        shown = "%d" % value if isinstance(value, int) else "%.6g" % value
        print("%-40s %14s %-6s %s" % (name, shown, unit, notes.get(name, "")))
    print("%-40s %14.6g %-6s %d of %d residuals attempted"
          % ("error_rate", failed / attempted, "ratio", failed, attempted))
    for err in run.errors:
        print("FAIL %s" % err)
    record = dict(env, correct=correct, attempted=attempted, failed=failed,
                  errors=run.errors, passes=run.passes,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (OUT / ("result-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
