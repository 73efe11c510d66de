"""Record the reference outputs that the benchmark's output gate checks.

    python3 perfbench/record.py

Run from the root of a source checkout at the commit whose outputs are the
reference.  Every pool job must exit 0.  Each CLI job's output is stored as
the SHA-256 digest of its sorted-key JSON together with its identity flags
(``certified``, ``count_match``, ``dilation_match``, ``saturated``,
``equal``, ``contained``); session steps are stored the same way, keyed by
word, step and class, so any draw of volume classes is covered.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, REFERENCE, Context, spawn, environment
from worker import digest, identity_flags
import workloads


def _covering_sessions() -> list[dict]:
    """Sessions that together run every step any pool session can run."""
    sessions = {}
    for job in workloads.pool("cone-session"):
        key = (job["type"], tuple(job["word"]), tuple(job["restriction"]))
        merged = sessions.setdefault(key, dict(job, volume=[]))
        merged["volume"] = sorted({tuple(c) for c in merged["volume"]}
                                  | {tuple(c) for c in job["volume"]})
    return [dict(job, volume=[list(c) for c in job["volume"]])
            for job in sessions.values()]


def main() -> int:
    ctx = Context(os.getcwd())
    reference = {"jobs": {}, "steps": {}}
    for name in ("nef-cli", "offnef-cli"):
        for job in workloads.pool(name):
            child = spawn(ctx, ["-m", "bottsam.cli"] + job["argv"])
            key = workloads.job_key(job)
            if child.code != 0:
                print(f"job failed ({child.code}): {key}\n{child.err}",
                      file=sys.stderr)
                return 1
            payload = json.loads(child.out)
            reference["jobs"][key] = {"digest": digest(payload),
                                      "flags": identity_flags(payload)}
            print(f"{child.wall_s:7.2f} s  {key}", flush=True)
    spec = json.dumps({"rounds": [[job] for job in _covering_sessions()],
                       "seconds": float("inf")})
    child = spawn(ctx, [os.path.join(HERE, "worker.py"), "sessions",
                        "--peak", ctx.path("peak.txt")], spec)
    lines = [json.loads(line) for line in child.out.splitlines()]
    failed = [line["error"] for line in lines if "error" in line]
    if child.code != 0 or failed:
        print(f"sessions failed ({child.code}): {failed}\n{child.err}",
              file=sys.stderr)
        return 1
    for line in lines:
        reference["steps"].update(line["steps"])
    print(f"{child.wall_s:7.2f} s  {len(lines)} covering sessions")
    child = spawn(ctx, [os.path.join(HERE, "worker.py"), "setup"])
    reference["env"] = environment(ctx, json.loads(child.out)["kernel"])
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
