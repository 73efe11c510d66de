"""Check that the tracing wrappers see every call they should.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  It checks that no binding of a
traced function escaped the wrappers anywhere in bottsam, then traces the
A2 (1,2) basis-change probe run twice in fresh processes and requires
exactly 88 ``section_basis_glue`` calls and 30,158 ``nullspace`` calls,
with identical counts in both runs.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402

EXPECTED = {"sections.section_basis_glue": 88, "kernel.nullspace": 30158}


def binding_problems() -> list[str]:
    """Bindings that the wrappers missed, in the current process."""
    originals = tracing.install(tracing.Tracer())
    problems = [f"unwrapped: {name}" for name in tracing.unbound(originals)]
    for module, attr in (("bottsam.sections", "nullspace"),
                         ("bottsam.cli", "rank"),
                         ("bottsam.picard", "bs_character"),
                         ("bottsam.okounkov", "bs_character")):
        if not hasattr(getattr(importlib.import_module(module), attr),
                       "__wrapped__"):
            problems.append(f"unwrapped: {module}.{attr}")
    return problems


def probe_counts(root: str, path: str) -> dict:
    """Counts of one traced A2 (1,2) probe run in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "probe",
                    "A2", "1,2", "--trace", path], cwd=root, env=env,
                   check=True)
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    os.remove(path)
    stats = tracing.summarize(data["spans"])
    counts = {f"{name}.{field}": entry[field]
              for name, entry in stats.items()
              for field in ("calls", "size", "leaves", "probes")}
    counts.update(data["counts"])
    return counts


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    problems = binding_problems()
    work = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(work, exist_ok=True)
    first = probe_counts(root, os.path.join(work, "probe-1.json"))
    second = probe_counts(root, os.path.join(work, "probe-2.json"))
    for name, calls in EXPECTED.items():
        if first.get(f"{name}.calls") != calls:
            problems.append(f"{name}: {first.get(f'{name}.calls')} calls, "
                            f"expected {calls}")
    if first != second:
        problems.append("two traced probe runs gave different counts")
    for line in problems:
        print(line)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
