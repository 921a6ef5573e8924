"""One pass of a workload, in the fresh interpreter it must run in.

Started by run.py, once per pass.  Set-up is everything from interpreter
start to the moment printed as ``ready``: importing rigiditylab from the
checkout's ``src``, generating the pass's inputs and, in a traced pass,
installing the spans.  The jobs then run back to back through
``rigiditylab.cli.main`` with their output captured; checking that output
is left to run.py, outside the timed region.  The last line of standard
output is one JSON object with the pass's measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _peak_rss_kb() -> int:
    """Peak resident memory of this process image.  ru_maxrss would also
    count the parent's memory at fork, which Linux carries across exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rigiditylab.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"rigiditylab imported from {cli.__file__}, "
                         f"not from {src}")
    return cli


def _run_job(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed job, not a failed benchmark
        rc = None
        err.write(traceback.format_exc())
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    cli = _import_library()
    import workloads
    workdir = workloads.WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workloads.jobs(args.workload, args.seed, args.pass_index,
                              str(workdir))
        if args.workers != 1:
            jobs = [(label, argv + ["--workers", str(args.workers)])
                    for label, argv in jobs]
        tracer = None
        if args.trace:
            import spans
            tracer = spans.install()
        ready = time.perf_counter()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0

        results = []
        self_before = 0.0
        for _, argv in jobs:
            results.append(_run_job(cli, argv))
            if tracer is not None:
                self_now = tracer.self_total()
                results[-1] += (self_now - self_before,)
                self_before = self_now
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other passes may still use it
            workloads.WORKDIR.rmdir()

    doc = {
        "ready": ready,
        "pass_s": sum(r[0] for r in results),
        "rss_kb": _peak_rss_kb(),
        "jobs": [{"label": label, "s": r[0], "rc": r[1], "out": r[2],
                  "err": r[3], **({"self_s": r[4]} if tracer else {})}
                 for (label, _), r in zip(jobs, results)],
    }
    if tracer is not None:
        doc["spans"] = {name: {"calls": c, "s": total, "self_s": total - child}
                        for name, (c, total, child) in tracer.stats.items()}
        doc["counts"] = tracer.counts
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
