"""Workload pools and the seeded job generator.

Each workload is a list of strata.  A stratum is a list of interchangeable
job variants whose cost is close at the commit that defined the benchmark.
One round draws one variant from every stratum and shuffles the round, so
every round holds the same mix of work whatever the seed; the seed changes
which variants run and in which order.  A run repeats rounds (see run.py).
The CLI rounds hold four jobs, three of them of similar cost, so the median
job time of a one-round run is the mean of two jobs rather than one job.

How the repository's CLI commands map onto these workloads:

* ``body`` on a nef class and ``weights`` go to ``nef-cli``.
* ``body`` on a length-3 word goes to both ``nef-cli`` (nef classes of
  A2 (1,2,1)) and ``offnef-cli`` (effective classes off the nef cone).
* ``global`` goes to ``cone-session``, which runs the global-cone
  saturation sweep through the API, the way the README shows it.
* ``verify --quick`` is deliberately not a workload: it is a check battery
  whose layers the three workloads already cover.
* ``benchmarks/bench_kernel.py`` is deliberately not a workload: it times
  the sparse echelon kernel, at most 2% of profiled time.

Left out so that a round fits in a run at the defining commit: ``body``
on A3 (1,2,3) (55 s at level 2), nef levels above 8, and the sweep step
(10, 5) of cone-session (about 15 s alone).  ``body`` on B2 (1,2,1) is left
out too: at 10 s a job, nef or not, it would make the median job time
depend on the draw.  For the same reason the off-nef repeated-letter jobs
stay at level 2, where level 3 costs 15-40% more, and the nef body on
A2 (1,2,1) can:1,1,1 stays at level 4, where level 3 costs 13% less.
"""

from __future__ import annotations

import random


def _body(cartan: str, word: str, bundle: str, level: int) -> dict:
    return {"kind": "cli",
            "argv": ["body", "--type", cartan, "--word", word,
                     "--bundle", bundle, "--max-level", str(level)]}


def _weights(cartan: str, word: str, bundle: str, mu: str,
             level: int) -> dict:
    return {"kind": "cli",
            "argv": ["weights", "--type", cartan, "--word", word,
                     "--bundle", bundle, "--mu", mu,
                     "--max-level", str(level)]}


def _session(cartan: str, word: tuple[int, ...],
             volume: tuple[tuple[int, ...], ...],
             restriction: tuple[int, ...]) -> dict:
    return {"kind": "session", "type": cartan, "word": list(word),
            "sweep": [[4, 2], [6, 3], [8, 4]],
            "volume": [list(c) for c in volume], "volume_level": 8,
            "restriction": list(restriction), "restriction_level": 4}


_NEF_LENGTH2 = [_body(t, "1,2", b, lv) for t, b, lv in (
    ("A2", "can:1,1", 6), ("A2", "can:1,1", 8), ("A2", "can:2,1", 6),
    ("A2", "can:2,1", 7), ("B2", "can:1,1", 6), ("B2", "can:2,1", 6))]

_VOLUME_SETS = (((1, 1), (2, 1), (1, 2)), ((1, 1), (1, 2), (2, 2)),
                ((2, 1), (1, 2), (2, 2)), ((1, 1), (2, 1), (2, 2)))

_RESTRICTIONS = ((0, 1), (1, 1), (1, 2))

WORKLOADS: dict[str, dict] = {
    "nef-cli": {
        "why": "one fresh bottsam process per job on nef classes; at the "
               "defining commit each job pays the basis-change probe run "
               "that the nef path does not need, so removing it and the "
               "nef-path layers (polyhedra, spanning route, adapted bases, "
               "weights) show here",
        "strata": [
            _NEF_LENGTH2,
            [_body("A2", "1,2,1", "can:1,1,1", 4)],
            [_weights("A2", "1,2,1", "can:0,1,1", "0,0", lv)
             for lv in (4, 5)],
            [_body("A2", "1,2,1", b, 4) for b in ("can:1,0,1", "can:0,1,1")],
        ],
    },
    "offnef-cli": {
        "why": "one fresh bottsam process per job on effective classes off "
               "the nef cone; every job needs the basis change and the "
               "glue route (sections, _poly, _kernel), while the probe-run "
               "skip and polyhedra work predict no change",
        "strata": [
            [_body("A2", "1,2,1", "eff:0,0,1", 2)],
            [_body("A2", "1,2,1", "eff:0,1,0", 2)],
            [_body("A2", "1,2,1", "eff:1,0,1", 2)],
            [_body(t, "1,2", "eff:1,2", 6) for t in ("A2", "B2")],
        ],
    },
    "cone-session": {
        "why": "one process running API sessions on a fresh engine: a "
               "global-cone saturation sweep, three volume checks and a "
               "restriction check; caches are reused across calls and the "
               "probe run is paid once, so glue, polyhedra and okounkov "
               "caching work all show here",
        "strata": [
            [_session(t, (1, 2), vols, res)
             for t in ("A2", "B2") for vols in _VOLUME_SETS
             for res in _RESTRICTIONS],
        ],
    },
}


def setup_words(workload: str) -> list[tuple[str, list[int]]]:
    """The (Cartan type, word) pairs whose lattices a workload builds."""
    pairs = set()
    for stratum in WORKLOADS[workload]["strata"]:
        for job in stratum:
            if job["kind"] == "session":
                pairs.add((job["type"], tuple(job["word"])))
            else:
                argv = job["argv"]
                word = argv[argv.index("--word") + 1]
                pairs.add((argv[argv.index("--type") + 1],
                           tuple(int(v) for v in word.split(","))))
    return [(t, list(w)) for t, w in sorted(pairs)]


def pool(workload: str) -> list[dict]:
    """Every distinct job a workload can draw."""
    return [job for stratum in WORKLOADS[workload]["strata"]
            for job in stratum]


def rounds(workload: str, seed: int, count: int) -> list[list[dict]]:
    """The first ``count`` rounds of a run, fixed by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(count):
        jobs = [rng.choice(stratum)
                for stratum in WORKLOADS[workload]["strata"]]
        rng.shuffle(jobs)
        out.append(jobs)
    return out


def job_key(job: dict) -> str:
    """The reference key of a CLI job: its command line."""
    return " ".join(job["argv"])


def more_rounds(elapsed: float, done: int, seconds: float) -> bool:
    """Start another round only if one more of average length still fits.

    The first round always runs, so a run holds at least one whole round.
    """
    return done == 0 or elapsed + elapsed / done <= seconds
