"""The CLI jobs and API sessions reproduce the benchmark's recorded outputs.

Every job of the benchmark's ``nef-cli`` and ``offnef-cli`` pools runs
in-process, and the SHA-256 digest of its JSON document must equal the one
recorded in ``perfbench/reference.json``.  The off-nef jobs build the basis
change and take the glue route, so they gate its output byte for byte.
Sessions of the ``cone-session`` pool that together run every recorded
step are checked the same way, step by step, with their identity flags.
The files under ``perfbench/`` are only read.
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
    RECORDED = json.load(f)
REFERENCE = RECORDED["jobs"]


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


def _steps(job):
    """What a session runs: its sweep steps, its volume classes and its
    restriction class, each tagged with the word."""
    word = (job["type"], tuple(job["word"]))
    return ({(word, "global", tuple(step)) for step in job["sweep"]}
            | {(word, "volume", tuple(c)) for c in job["volume"]}
            | {(word, "restriction", tuple(job["restriction"]))})


def _covering_sessions():
    """Pool sessions, picked greedily by the steps they add, until every
    step any pool session runs is run by one of them."""
    pool = workloads.pool("cone-session")
    left = set().union(*map(_steps, pool))
    chosen = []
    while left:
        job = max(pool, key=lambda job: len(_steps(job) & left))
        chosen.append(job)
        left -= _steps(job)
    return chosen


COVERING = _covering_sessions()


def test_covering_sessions_run_every_recorded_step():
    """Three sessions per word suffice; each step a session runs must be
    recorded (the digest test looks it up), and the distinct steps they
    run number as many as the recorded ones."""
    assert len(COVERING) == 6
    assert len(set().union(*map(_steps, COVERING))) \
        == len(RECORDED["steps"]) == 20


@pytest.mark.parametrize("job", COVERING, ids=lambda job: (
    f"{job['type']}-res{''.join(map(str, job['restriction']))}"))
def test_session_steps_match_their_reference_digests(job):
    steps = worker.run_session(job)["steps"]
    assert len(steps) == len(_steps(job))
    for key, got in steps.items():
        assert got == RECORDED["steps"][key], key
