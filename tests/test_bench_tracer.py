"""The benchmark's tracer still finds every library name it wraps.

``perfbench/spans.py`` looks its span targets and call sites up by name
and raises when one is missing, which fails every traced benchmark run.
Installing it here, in a fresh interpreter so the wrappers never reach
this test process, turns a renamed or dropped entry point into a test
failure.  Running one traced census job, one traced verdict, and one
traced ``rootdata`` and ``rigid-tuples`` job there checks that every span
the benchmark expects of its census-hurwitz, rigidity-batch and
rootdata-exceptional passes actually fires.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import importlib, pkgutil
import rigiditylab
for info in pkgutil.iter_modules(rigiditylab.__path__):
    importlib.import_module("rigiditylab." + info.name)
import spans
spans.install()
print("installed")
"""


JOBS_SCRIPT = """
import contextlib, io, json, sys
from rigiditylab import cli  # imports every module install() wraps
import spans
from run import EXPECTED_SPANS
tracer = spans.install()
jobs = {
    "census-hurwitz": [["census", "--type", "A", "--rank", "1", "--q", "7",
                        "--signature", "2,3,7"]],
    "rigidity-batch": [["rigidity", "--in", sys.argv[1]]],
    "rootdata-exceptional": [
        ["rootdata", "--type", "E", "--rank", "6", "--d-max", "3"],
        ["rigid-tuples", "--type", "F", "--rank", "4", "--n", "3",
         "--a-max", "6"]],
}
calls = {}
for workload, argvs in jobs.items():
    before = {name: stat[0] for name, stat in tracer.stats.items()}
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    calls[workload] = {name: stat[0] - before[name]
                       for name, stat in tracer.stats.items()}
print(json.dumps({"calls": calls, "counts": tracer.counts,
                  "expected": {w: EXPECTED_SPANS[w] for w in jobs}}))
"""


def _run(*argv) -> str:
    path = [str(ROOT / "src"), str(ROOT / "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_benchmark_tracer_installs():
    assert _run(SCRIPT).strip() == "installed"


@pytest.fixture(scope="module")
def traced_jobs():
    # one census-hurwitz job, one verdict of an SL3/F5 tuple, and an E6
    # j_d table and F4 rigid-tuples job, traced in one fresh interpreter
    tuple_path = ROOT / "tests" / "golden" / "tuples" / "sl3_f5.json"
    return json.loads(_run(JOBS_SCRIPT, str(tuple_path)))


def test_traced_verdict_fires_the_linear_algebra_spans(traced_jobs):
    # A verdict reaches every product, elimination and Ad matrix through
    # the wrapped names; a product or elimination routed around them would
    # leave its span reading zero.
    calls = traced_jobs["calls"]["rigidity-batch"]
    for name in ("ff.matmul", "ff.elim", "adjoint.ad_matrix",
                 "rigidity.cocycle_spaces"):
        assert calls[name] > 0, name
    assert traced_jobs["counts"]["ff.matmul.mults"] > 0


@pytest.mark.parametrize("workload", ["census-hurwitz", "rigidity-batch",
                                      "rootdata-exceptional"])
def test_traced_job_fires_the_benchmark_expected_spans(traced_jobs, workload):
    # a traced benchmark pass fails when one of these spans reads zero
    calls = traced_jobs["calls"][workload]
    silent = [name for name in traced_jobs["expected"][workload]
              if calls.get(name, 0) == 0]
    assert not silent, silent


def test_traced_j_scans_count_their_evaluation_bound(traced_jobs):
    # the E6 table scans d = 2 and 3, each bounded by d^6 times 36 roots;
    # the rigid-tuples job takes its j values from the alcove alone
    assert traced_jobs["calls"]["rootdata-exceptional"]["rootdata.j_scan"] == 3
    assert traced_jobs["counts"]["rootdata.j_scan.evals_bound"] == (
        (2 ** 6 + 3 ** 6) * 36)
