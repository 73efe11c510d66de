"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q perfbench

The last test runs selfcheck.py, two traced A2 (1,2) probe runs, and takes
about a minute.
"""

from __future__ import annotations

import os
import subprocess
import sys

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_same_seed_gives_the_same_jobs():
    for name in workloads.WORKLOADS:
        assert workloads.rounds(name, 7, 20) == workloads.rounds(name, 7, 20)


def test_another_seed_gives_other_jobs_from_the_same_pool():
    for name in workloads.WORKLOADS:
        first = workloads.rounds(name, 1, 20)
        second = workloads.rounds(name, 2, 20)
        assert first != second
        pool = workloads.pool(name)
        assert all(job in pool for batch in first + second for job in batch)


def test_every_round_draws_once_from_each_stratum():
    for name, spec in workloads.WORKLOADS.items():
        for batch in workloads.rounds(name, 3, 10):
            assert len(batch) == len(spec["strata"])
            assert all(sum(job in stratum for job in batch) == 1
                       for stratum in spec["strata"])


def test_more_rounds_runs_one_round_and_stops_before_overrunning():
    assert workloads.more_rounds(0.0, 0, 0)
    assert not workloads.more_rounds(20.0, 1, 30)
    assert workloads.more_rounds(10.0, 1, 30)


def test_self_time_subtracts_child_spans():
    spans = [["outer", 0.0, 10.0, -1, 0, 0],
             ["inner", 1.0, 4.0, 0, 0, 5],
             ["inner", 5.0, 6.0, 0, 0, 2]]
    stats = tracing.summarize(spans)
    assert stats["outer"]["self_s"] == 6.0
    assert stats["inner"]["calls"] == 2
    assert stats["inner"]["size"] == 7
    assert stats["inner"]["leaves"] == 2
    assert stats["outer"]["leaves"] == 0


def test_probe_spans_count_glue_calls_nested_in_the_basis_change():
    spans = [["picard.compute_basis_change", 0.0, 5.0, -1, 0, 0],
             ["x", 0.5, 4.0, 0, 0, 0],
             ["sections.section_basis_glue", 1.0, 2.0, 1, 0, 3],
             ["sections.section_basis_glue", 6.0, 7.0, -1, 0, 3]]
    metrics = tracing.per_layer(tracing.summarize(spans), {})
    assert metrics["picard.compute_basis_change.probes"] == (1, "count")
    assert metrics["sections.section_basis_glue.dim_sum"] == (6, "count")


def test_wrappers_reach_every_binding_and_count_the_probe_run():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selfcheck.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
