"""The CLI jobs reproduce the benchmark's recorded outputs exactly.

Every job of the benchmark's ``nef-cli`` and ``offnef-cli`` pools runs
in-process, and the SHA-256 digest of its JSON document must equal the one
recorded in ``perfbench/reference.json``.  The off-nef jobs build the basis
change and take the glue route, so they gate its output byte for byte.  The
files under ``perfbench/`` are only read.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from bottsam import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
worker = _load("worker")

with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as f:
    REFERENCE = json.load(f)["jobs"]


def _check(job, capsys):
    assert cli.main(job["argv"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert worker.digest(payload) \
        == REFERENCE[workloads.job_key(job)]["digest"]


@pytest.mark.parametrize("job", workloads.pool("nef-cli"),
                         ids=workloads.job_key)
def test_nef_job_matches_its_reference_digest(job, capsys):
    _check(job, capsys)


@pytest.mark.parametrize("job", workloads.pool("offnef-cli"),
                         ids=workloads.job_key)
def test_offnef_job_matches_its_reference_digest(job, capsys):
    _check(job, capsys)
