"""The benchmark's tracer still finds every library name it wraps.

``perfbench/spans.py`` looks its span targets and call sites up by name
and raises when one is missing, which fails every traced benchmark run.
Installing it here, in a fresh interpreter so the wrappers never reach
this test process, turns a renamed or dropped entry point into a test
failure; running one traced verdict there checks that the linear-algebra
spans actually fire.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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


VERDICT_SCRIPT = """
import json, sys
from rigiditylab import cli, matgrp, rigidity  # install() wraps all three
import spans
tracer = spans.install()
t = matgrp.load_tuple(sys.argv[1])
rigidity.rigidity_verdict(t)
print(json.dumps({"stats": tracer.stats, "counts": tracer.counts}))
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


def test_traced_verdict_fires_the_linear_algebra_spans():
    # An SL3/F5 verdict reaches every product, elimination and Ad matrix
    # through the wrapped names; a product or elimination routed around
    # them would leave its span reading zero.
    tuple_path = ROOT / "tests" / "golden" / "tuples" / "sl3_f5.json"
    doc = json.loads(_run(VERDICT_SCRIPT, str(tuple_path)))
    calls = {name: stat[0] for name, stat in doc["stats"].items()}
    for name in ("ff.matmul", "ff.elim", "adjoint.ad_matrix",
                 "rigidity.cocycle_spaces"):
        assert calls[name] > 0, name
    assert doc["counts"]["ff.matmul.mults"] > 0
