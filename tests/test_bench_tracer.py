"""The benchmark's tracer still finds every library name it wraps.

``perfbench/spans.py`` looks its span targets and call sites up by name
and raises when one is missing, which fails every traced benchmark run.
Installing it here, in a fresh interpreter so the wrappers never reach
this test process, turns a renamed or dropped entry point into a test
failure.
"""

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


def test_benchmark_tracer_installs():
    path = [str(ROOT / "src"), str(ROOT / "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"
