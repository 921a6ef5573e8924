"""rigiditylab benchmark: CLI workloads timed end to end, or traced by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rigidity-batch --seed 1 --seconds 30 --trace 0

Workloads: census-psl3, census-hurwitz, rigidity-batch and
rootdata-exceptional (see workloads.py and NOTES.md).  One client runs a
closed loop: passes over the workload's jobs run back to back, each pass
in a fresh interpreter (worker.py), with --workers 1 and no threads, until
--seconds have been spent measuring (at least two passes).  A fresh
interpreter per pass keeps the library's process-wide caches cold, as they
are for a user running one CLI job per process.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
alternates untraced and traced passes on the same inputs and reports the
per-layer metrics from the spans of spans.py, plus the tracing overhead.
Reported times are scaled to a nominal machine speed by a reference loop
timed between the passes (see REF_NOMINAL_S).  Every job's exit code and
output are checked after its pass, outside the timed region.  The last
line of standard output is the result object; the line before it records
the machine, the run, the raw times and each metric's samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import workloads  # noqa: E402  (the script's own directory is on sys.path)

DEFAULT_SEED = 1
MIN_PASSES = 2
SETUP_PROBES = 5
# Every run must end within 180 s; leave room to kill and report.
RUN_DEADLINE_S = 170.0

# The speed of the host drifts by a quarter and more within a minute (a
# 2-vCPU virtual machine whose cores are shared), for the library and for
# a plain interpreter loop alike.  So a run also times a fixed reference
# loop, in blocks before and after every pass, and scales the times of a
# pass (pass, jobs, spans) to a nominal speed: by REF_NOMINAL_S over the
# median loop time of the two blocks around it.  REF_NOMINAL_S is near
# that median on an Intel Xeon vCPU at 2.1 GHz under Python 3.11.7.
# Set-up time, mostly process start, does not follow the loop, so it is
# reported raw.  The context line keeps the raw times.
REF_LOOP = 200_000
REF_NOMINAL_S = 0.05
REF_SHARE = 0.15  # seconds of reference loop per second of pass
REF_MIN_BLOCK_S = 0.3

END_TO_END = {
    "pass_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.main.self_s": "s",
    "ff.matmul.calls": "count",
    "ff.matmul.s": "s",
    "ff.matmul.mults": "count",
    "ff.elim.calls": "count",
    "ff.elim.s": "s",
    "matgrp.generating_pair.s": "s",
    "matgrp.closure.calls": "count",
    "matgrp.closure.s": "s",
    "matgrp.closure.elements": "count",
    "matgrp.closure.useful_ratio": "ratio",
    "matgrp.conjugacy_classes.s": "s",
    "matgrp.order_of.calls": "count",
    "matgrp.order_of.s": "s",
    "matgrp.table_inv.s": "s",
    "matgrp.table_mul.calls": "count",
    "matgrp.table_mul.s": "s",
    "matgrp.load_tuple.s": "s",
    "matgrp.projective_order.calls": "count",
    "matgrp.projective_order.s": "s",
    "matgrp.element_order.calls": "count",
    "matgrp.element_order.s": "s",
    "matgrp.is_absolutely_irreducible.s": "s",
    "adjoint.ad_matrix.calls": "count",
    "adjoint.ad_matrix.s": "s",
    "adjoint.class_dim.s": "s",
    "adjoint.smoothness_flags.s": "s",
    "coinv.coinvariant_dim.s": "s",
    "rigidity.cocycle_spaces.s": "s",
    "rigidity.tangent_product_rank.s": "s",
    "rigidity.central_lift.calls": "count",
    "rigidity.central_lift.s": "s",
    "rigidity.rigidity_verdict.self_s": "s",
    "census.census.s": "s",
    "census.census.self_s": "s",
    "rootdata.j_scan.calls": "count",
    "rootdata.j_scan.s": "s",
    "rootdata.j_scan.evals_bound": "count",
    "rootdata.rigid_tuples.self_s": "s",
    "ff.self_s": "s",
    "matgrp.self_s": "s",
    "adjoint.self_s": "s",
    "coinv.self_s": "s",
    "rigidity.self_s": "s",
    "census.self_s": "s",
    "rootdata.self_s": "s",
    "trace.overhead_s": "s",
}

LAYERS = ("cli", "ff", "matgrp", "adjoint", "coinv", "rigidity", "census",
          "rootdata")

# Spans that must fire in every traced pass of a workload.
_CENSUS_SPANS = ("ff.matmul", "ff.elim", "matgrp.generating_pair",
                 "matgrp.closure", "matgrp.conjugacy_classes",
                 "matgrp.order_of", "matgrp.table_inv", "matgrp.table_mul",
                 "census.census")
EXPECTED_SPANS = {
    "census-psl3": _CENSUS_SPANS,
    "census-hurwitz": _CENSUS_SPANS,
    "rigidity-batch": (
        "ff.matmul", "ff.elim", "matgrp.load_tuple",
        "matgrp.projective_order", "matgrp.element_order",
        "matgrp.is_absolutely_irreducible", "adjoint.ad_matrix",
        "adjoint.class_dim", "adjoint.smoothness_flags",
        "coinv.coinvariant_dim", "rigidity.cocycle_spaces",
        "rigidity.tangent_product_rank", "rigidity.central_lift",
        "rigidity.rigidity_verdict"),
    "rootdata-exceptional": ("rootdata.j_scan", "rootdata.rigid_tuples"),
}


def _reference_block(seconds: float) -> list[float]:
    """Time the reference loop repeatedly for about the given seconds."""
    samples = []
    end = time.perf_counter() + seconds
    while not samples or time.perf_counter() < end:
        t0 = time.perf_counter()
        table, acc = {}, 0
        for i in range(REF_LOOP):
            table[i % 251, i % 241] = acc
            acc = (acc + i * i) % 7919
        samples.append(time.perf_counter() - t0)
    return samples


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def spawn_worker(workload: str, seed: int, pass_index: int,
                 deadline: float, trace: int = 0, setup_only: bool = False,
                 workers: int = 1) -> dict:
    """Run worker.py for one pass (or set-up only) and return its record,
    with setup_s measured from the spawn."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(pass_index),
           "--trace", str(trace), "--workers", str(workers)]
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items()
           if k != "RIGIDITYLAB_WORK_CAP"}
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {pass_index} of {workload} overran the "
                         f"{RUN_DEADLINE_S:.0f} s run deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            # A killed worker leaves its input directory behind.
            shutil.rmtree(workloads.WORKDIR / str(proc.pid),
                          ignore_errors=True)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    doc = json.loads(lines[-1])
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by both processes.
    doc["setup_s"] = doc["ready"] - spawned
    return doc


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_rigidity_report(text: str) -> list[str]:
    r = json.loads(text)
    problems = []
    if r["df_rank"] != r["span_dim"]:
        problems.append("df_rank != span_dim")
    if 2 * (r["span_dim"] + r["coinv_dim"]) != r["two_dim_g"]:
        problems.append("span_dim + coinv_dim != two_dim_g / 2")
    if r["z1_dim"] < r["b1_dim"]:
        problems.append("z1_dim < b1_dim")
    if r["sum_class_dims"] != sum(r["class_dims"]):
        problems.append("sum_class_dims != sum(class_dims)")
    return problems


def _job_problems(workload: str, seed: int, pass_index: int, job_index: int,
                  job: dict, digests: dict) -> list[str]:
    if job["rc"] != 0:
        return [f"exit code {job['rc']}: {job['err'].strip()[-300:]}"]
    problems = []
    if workload == "rigidity-batch":
        key = f"{workload}/{seed}/{pass_index}/{job_index}"
        want = digests.get(key) if seed == DEFAULT_SEED else None
        try:
            problems += _check_rigidity_report(job["out"])
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable report: {exc!r}")
    else:
        key = f"{workload}/{job_index}"
        want = digests[key]
    if want is not None and not digest(job["out"]).startswith(want):
        problems.append(f"output digest differs from {key}")
    return problems


def _percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks; 50 is the median."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _summary(values: list[float]) -> dict:
    q = (statistics.quantiles(values, n=4) if len(values) > 1
         else [values[0]] * 3)
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "samples": len(values)}


def _commit() -> str:
    # Without this check git would report the commit of any repository
    # that happens to enclose an exported checkout.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Run:
    """One benchmark run: its passes, checks and failure tally."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: int):
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.digests = json.loads((HERE / "digests.json").read_text())
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, pass_index: int, **kw) -> dict:
        return spawn_worker(self.workload, self.seed, pass_index,
                            self.deadline, **kw)

    def check(self, pass_index: int, doc: dict) -> None:
        for i, job in enumerate(doc["jobs"]):
            self.attempted += 1
            found = _job_problems(self.workload, self.seed, pass_index, i,
                                  job, self.digests)
            if found:
                self.failed += 1
                self.problems += [f"pass {pass_index} job {i} "
                                  f"({job['label']}): {p}" for p in found]
            if pass_index > 0:
                # Outputs are checked; dropping them keeps the parent's
                # memory flat over a run.
                del job["out"], job["err"]

    def check_workers(self, reference: dict) -> None:
        """The census must print the same bytes with two workers."""
        if self.workload != "census-hurwitz":
            return
        doc = self.spawn(0, workers=2)
        for i, (job, ref) in enumerate(zip(doc["jobs"], reference["jobs"])):
            self.attempted += 1
            if job["rc"] != 0 or job["out"] != ref["out"]:
                self.failed += 1
                self.problems.append(f"--workers 2 job {i}: output differs "
                                     "from --workers 1")

    def check_spans(self, pass_index: int, doc: dict) -> None:
        for name in EXPECTED_SPANS[self.workload]:
            if doc["spans"].get(name, {}).get("calls", 0) == 0:
                self.problems.append(f"pass {pass_index}: span {name} "
                                     "never fired")
        for i, job in enumerate(doc["jobs"]):
            if abs(job["self_s"] - job["s"]) > 0.002 + 0.01 * job["s"]:
                self.problems.append(
                    f"pass {pass_index} job {i}: self times add up to "
                    f"{job['self_s']:.6f} s of {job['s']:.6f} s traced")

    def measure(self):
        """Set-up probes, then passes until the measuring time is spent.

        A reference block follows every pass, and one precedes the first,
        so that each pass gets the scale of the two blocks around it.  A
        traced run pairs each untraced pass with a traced one on the same
        inputs and needs no set-up probes, as it reports no set-up time.
        """
        setups = [self.spawn(0, setup_only=True)["setup_s"]
                  for _ in range(0 if self.trace else SETUP_PROBES)]
        blocks = [_reference_block(REF_MIN_BLOCK_S)]
        plain, traced = [], []
        start = time.perf_counter()
        index = 0
        while (index < (1 if self.trace else MIN_PASSES)
               or time.perf_counter() - start < self.seconds):
            for trace in (0, 1) if self.trace else (0,):
                doc = self.spawn(index, trace=trace)
                self.check(index, doc)
                blocks.append(_reference_block(
                    max(REF_MIN_BLOCK_S, REF_SHARE * doc["pass_s"])))
                doc["scale"] = REF_NOMINAL_S / statistics.median(
                    blocks[-2] + blocks[-1])
                if trace:
                    self.check_spans(index, doc)
                    traced.append(doc)
                else:
                    setups.append(doc["setup_s"])
                    plain.append(doc)
            index += 1
        self.check_workers(plain[0])
        refs = [r for block in blocks for r in block]
        return setups, refs, plain, traced


def end_to_end(run: Run, setups, refs, plain) -> tuple[dict, dict]:
    """Median pass, per-job percentiles, set-up and memory, with pass and
    job times scaled to the nominal speed.  The detail keeps them raw.

    The job percentiles are taken within each pass, then the median over
    passes.  Pooled over a run, a percentile of a workload with few
    distinct jobs falls on one order statistic of one job (or between two
    jobs) and swings with that job's noise."""
    def per_pass(pct: float, scaled: bool = True) -> float:
        return statistics.median(
            _percentile([j["s"] * 1000 * (doc["scale"] if scaled else 1)
                         for j in doc["jobs"]], pct)
            for doc in plain)

    pct = workloads.TAIL_PERCENTILE[run.workload] or 50
    passes = [doc["pass_s"] for doc in plain]
    scaled_jobs = [j["s"] * 1000 * doc["scale"] for doc in plain
                   for j in doc["jobs"]]
    rss = [doc["rss_kb"] / 1024 for doc in plain]
    values = {
        "pass_s": statistics.median(doc["pass_s"] * doc["scale"]
                                    for doc in plain),
        "job_p50_ms": per_pass(50),
        "job_tail_ms": per_pass(pct),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    by_label: dict[str, list[float]] = {}
    for doc in plain:
        for j in doc["jobs"]:
            by_label.setdefault(j["label"], []).append(j["s"] * 1000)
    detail = {
        "raw": {"pass_s": statistics.median(passes),
                "job_p50_ms": per_pass(50, scaled=False),
                "job_tail_ms": per_pass(pct, scaled=False)},
        "reference_s": _summary(refs),
        "pass_s": _summary(passes),
        "setup_s": _summary(setups),
        "peak_rss_mb": _summary(rss),
        "job_p50_ms": {"samples": len(scaled_jobs), "passes": len(plain)},
        "job_tail_ms": {"percentile": pct, "samples": len(scaled_jobs),
                        "beyond": sum(1 for t in scaled_jobs
                                      if t > values["job_tail_ms"])},
        "job_ms_by_label": {k: _summary(v) for k, v in by_label.items()},
    }
    return values, detail


def _span_value(doc: dict, name: str) -> float:
    """One span field, counter or layer self time of a traced pass."""
    spans, counts = doc["spans"], doc["counts"]
    if name in counts:
        return counts[name]
    if name == "matgrp.closure.useful_ratio":
        built = counts["matgrp.closure.elements"]
        return counts["matgrp.closure.kept"] / built if built else 0.0
    head, field = name.rsplit(".", 1)
    if head in LAYERS:
        value = sum(s["self_s"] for n, s in spans.items()
                    if n.split(".", 1)[0] == head)
    else:
        value = spans.get(head, {}).get(field, 0)
    return value if field == "calls" else value * doc["scale"]


def per_layer(plain, traced) -> tuple[dict, dict]:
    """Medians over traced passes; times scaled like pass_s."""
    values = {name: statistics.median(_span_value(doc, name)
                                      for doc in traced)
              for name in PER_LAYER if name != "trace.overhead_s"}
    untraced = statistics.median(d["pass_s"] * d["scale"] for d in plain)
    traced_s = statistics.median(d["pass_s"] * d["scale"] for d in traced)
    values["trace.overhead_s"] = traced_s - untraced
    total = sum(values[f"{layer}.self_s"] for layer in LAYERS
                if layer != "cli") + values["cli.main.self_s"]
    detail = {
        "traced_passes": len(traced), "untraced_passes": len(plain),
        "untraced_pass_s": untraced, "traced_pass_s": traced_s,
        "raw_untraced_pass_s": statistics.median(d["pass_s"] for d in plain),
        "raw_traced_pass_s": statistics.median(d["pass_s"] for d in traced),
        "self_share": {layer: values["cli.main.self_s" if layer == "cli"
                                     else f"{layer}.self_s"] / total
                       for layer in LAYERS} if total else {},
    }
    return values, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    # On SIGTERM, unwind through spawn_worker's cleanup, which kills and
    # reaps the running pass.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    try:
        setups, refs, plain, traced = run.measure()
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        values, detail = per_layer(plain, traced)
        units = PER_LAYER
    else:
        values, detail = end_to_end(run, setups, refs, plain)
        units = END_TO_END
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "commit": _commit(),
        "passes": len(plain), "fail_frac": run.failed / run.attempted,
        "metrics": detail, "problems": run.problems[:20],
    }
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
