"""The benchmark's tracer still reaches every function it times."""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_bindings_resolve():
    """perfbench/selfcheck.py's binding half, without the probe run.

    perfbench/ lies outside the test paths, so this guard is what catches
    a refactor that renames or rebinds a traced function.
    """
    script = ("import json, sys; sys.path.insert(0, 'perfbench'); "
              "import selfcheck; print(json.dumps(selfcheck.binding_problems()))")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []
