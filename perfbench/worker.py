"""One fresh interpreter: set up a workload and, unless --mode setup, run
one pass of it, traced or not.  Prints one JSON line with its samples.

    python3 perfbench/worker.py --workload NAME --seed N --mode pass

Set-up time runs from just before `import vpq` to the end of the
workload's set-up, so interpreter start-up is excluded.  vpq is imported
from the `src/` directory next to this one, never from anywhere else.
Set-up workers and untraced passes also time reference slices (see
reference.py): SETUP_SLICES right after set-up (after one that warms up), and during a pass one at
the first `mark()` that comes REF_GAP_S or more after the last slice.  The
slices are not part of the pass's time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SLICES = 8
REF_GAP_S = 0.1


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "pass", "traced"))
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    out_dir = Path(args.out_dir)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import vpq
    import vpq.cli
    if Path(vpq.__file__).resolve().parent != SRC / "vpq":
        raise SystemExit("perfbench: imported vpq from %s, not %s"
                         % (vpq.__file__, SRC / "vpq"))
    state = workload.setup(vpq, args.seed, out_dir)
    out = {"setup_s": time.perf_counter() - t0}
    # imported only now: it loads fractions, which `import vpq` must pay for
    import reference
    if args.mode == "setup":
        reference.run_slice()   # the first slice of a process runs cold
        out["ref_s"] = sum(reference.run_slice()
                           for _ in range(SETUP_SLICES)) / SETUP_SLICES
        print(json.dumps(out))
        return 0

    if args.mode == "traced":
        import spans
        tracer = spans.Tracer()
        tracer.install()
        t1 = time.perf_counter()
        raw = workload.run_pass(vpq, state, tracer.wrap, lambda: None)
        out["wall_s"] = time.perf_counter() - t1
    else:
        tracer = None
        refs = []
        last_ref = time.perf_counter()

        def mark():
            nonlocal last_ref
            if time.perf_counter() - last_ref >= REF_GAP_S:
                refs.append(reference.run_slice())
                last_ref = time.perf_counter()

        t1 = time.perf_counter()
        with workloads.split_on_records(vpq, mark):
            raw = workload.run_pass(vpq, state, lambda name, fn: fn, mark)
        refs.append(reference.run_slice())
        out["wall_s"] = time.perf_counter() - t1 - sum(refs)
        out["ref_s"] = sum(refs) / len(refs)
        out["slices"] = len(refs)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(workload.summarize(state, raw))
    if tracer is not None:
        out["metrics"] = tracer.metrics(workloads.suite_check_names())
        out["calibration_ns"] = [tracer.residual_ns, tracer.when_residual_ns,
                                 tracer.bypass_ns]
        out["overhead_s"] = tracer.overhead_s()
        path = out_dir / ("spans-%s-%d.tsv.gz" % (args.workload, args.seed))
        out["spans"] = tracer.write_spans(path)
        out["spans_path"] = str(path.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
