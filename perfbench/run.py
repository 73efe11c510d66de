"""The bottsam benchmark: seeded closed-loop workloads, end to end or traced.

    python3 perfbench/run.py --workload nef-cli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it puts ``src`` on PYTHONPATH
and builds nothing.  One client runs one job at a time, and the next job
starts when the previous one ends.  Jobs come in rounds (workloads.py); a
run keeps starting rounds while one more fits in ``--seconds``, and always
runs at least one.

``--trace 0`` reports the end-to-end metrics: ``jobs_per_min``,
``job_s.p50`` (job times are CPU times of the job process; see Outcome),
``setup_s`` (median of fresh interpreters that import bottsam and build
the workload's lattices and engines) and ``peak_rss_mb``;
``failed_ratio`` is printed in the summary and carried by the
``failed``/``attempted`` fields.  ``--trace 1`` runs one round
untraced and the same round traced, and reports the per-layer metrics of
the traced round with the tracing overhead.  Every job's output is checked
against reference.json, recorded by record.py; a mismatch fails the job.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result
set, with the environment, goes to ``--out`` (default under
``.bench_build/perfbench/results``); compare.py compares result sets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import digest, identity_flags  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
SETUP_REPEATS = 9
MAX_ROUNDS = 1000
WARM_UP = ["body", "--type", "A1", "--word", "1", "--bundle", "can:1",
           "--max-level", "2"]


class Context:
    """Paths, child environment and reference outputs for one run."""

    def __init__(self, root: str):
        self.root = root
        self.work = os.path.join(root, ".bench_build", "perfbench")
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"),
                        os.environ.get("PYTHONPATH")) if p)
        self.reference = {"jobs": {}, "steps": {}}
        if os.path.exists(REFERENCE):
            with open(REFERENCE, encoding="utf-8") as handle:
                self.reference = json.load(handle)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


class Child:
    """What one finished child process did: exit code, CPU time, wall time
    and its output."""

    def __init__(self, code, usage, wall_s, out, err):
        self.code = code
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.wall_s = wall_s
        self.out = out
        self.err = err


def spawn(ctx: Context, argv: list[str], stdin_text: str | None = None
           ) -> Child:
    """Run a child of this interpreter to completion and reap it."""
    out_path, err_path = ctx.path("stdout.txt"), ctx.path("stderr.txt")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable] + argv, cwd=ctx.root, env=ctx.env, stdout=out,
            stderr=err, stdin=subprocess.PIPE if stdin_text else None,
            text=True)
        try:
            if stdin_text:
                proc.stdin.write(stdin_text)
                proc.stdin.close()
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall_s = time.perf_counter() - start
    with open(out_path) as out, open(err_path) as err:
        return Child(proc.returncode, usage, wall_s, out.read(), err.read())


def _gate(expected: dict | None, produced: dict) -> str | None:
    """Why an output fails the gate, or None when it passes.

    ``produced`` holds the output's digest and identity flags; a flag that
    was true in the reference must still be true, and the digest must match.
    """
    if expected is None:
        return "no reference output recorded"
    broken = [k for k, v in expected["flags"].items()
              if v and not produced["flags"].get(k)]
    if broken:
        return "identity flags not true: " + ", ".join(broken)
    if produced["digest"] != expected["digest"]:
        return "output differs from the reference"
    return None


class Outcome:
    """Job times, failures, memory and spans of one batch of rounds.

    A job's time is the CPU time (user + system) of the process that ran
    it.  The jobs are single-threaded and do no I/O worth the name, so on
    an idle machine CPU time equals wall time; unlike wall time, it leaves
    out the time a virtual CPU spends descheduled by its host (on a shared
    2-vCPU VM, up to half of the wall time of a CPU loop).  Wall times are
    kept in the result set too.
    """

    def __init__(self):
        self.cpu_s: list[float] = []
        self.wall_s: list[float] = []
        self.errors: list[str] = []
        self.peak_kib = 0
        self.stats: dict = {}
        self.counts: dict = {}

    def add(self, cpu_s: float, wall_s: float, error: str | None) -> None:
        self.cpu_s.append(cpu_s)
        self.wall_s.append(wall_s)
        if error is not None:
            self.errors.append(error)

    def add_peak(self, path: str) -> None:
        """Fold in a job process's peak RSS, as the worker wrote it."""
        if os.path.exists(path):
            with open(path, encoding="ascii") as handle:
                self.peak_kib = max(self.peak_kib, int(handle.read()))
            os.remove(path)

    def add_trace(self, path: str) -> None:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        os.remove(path)
        tracing.merge(self.stats, tracing.summarize(data["spans"]))
        for name, value in data["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + value

    @property
    def p50(self) -> float:
        return statistics.median(self.cpu_s)


def _cli_job(ctx: Context, job: dict, index: int, traced: bool,
             outcome: Outcome) -> None:
    spans, peak = ctx.path(f"spans-{index}.json"), ctx.path("peak.txt")
    argv = [os.path.join(HERE, "worker.py"), "cli", "--peak", peak,
            "--job", str(index)]
    if traced:
        argv += ["--trace", spans]
    child = spawn(ctx, argv + ["--"] + job["argv"])
    outcome.add_peak(peak)
    if child.code != 0:
        error = f"exit {child.code}: {child.err.strip()[-300:]}"
    else:
        try:
            payload = json.loads(child.out)
            produced = {"digest": digest(payload),
                        "flags": identity_flags(payload)}
            error = _gate(ctx.reference["jobs"].get(workloads.job_key(job)),
                          produced)
        except json.JSONDecodeError:
            error = "output is not JSON"
    outcome.add(child.cpu_s, child.wall_s, error)
    if traced and os.path.exists(spans):
        outcome.add_trace(spans)


def run_cli(ctx: Context, rounds: list[list[dict]], seconds: float,
            traced: bool) -> Outcome:
    outcome = Outcome()
    start = time.perf_counter()
    done = 0
    while done < len(rounds) and workloads.more_rounds(
            time.perf_counter() - start, done, seconds):
        for job in rounds[done]:
            _cli_job(ctx, job, len(outcome.cpu_s), traced, outcome)
        done += 1
    return outcome


def run_sessions(ctx: Context, rounds: list[list[dict]], seconds: float,
                 traced: bool) -> Outcome:
    outcome = Outcome()
    spans, peak = ctx.path("spans-sessions.json"), ctx.path("peak.txt")
    argv = [os.path.join(HERE, "worker.py"), "sessions", "--peak", peak]
    if traced:
        argv += ["--trace", spans]
    child = spawn(ctx, argv, json.dumps({"rounds": rounds,
                                          "seconds": seconds}))
    outcome.add_peak(peak)
    if child.code != 0:
        outcome.add(child.cpu_s, child.wall_s, f"session worker exit "
                    f"{child.code}: {child.err.strip()[-300:]}")
        return outcome
    for line in map(json.loads, child.out.splitlines()):
        if "error" in line:
            outcome.add(line["cpu_s"], line["wall_s"], line["error"])
            continue
        errors = []
        for key, produced in line["steps"].items():
            why = _gate(ctx.reference["steps"].get(key), produced)
            if why is not None:
                errors.append(f"{key}: {why}")
        outcome.add(line["cpu_s"], line["wall_s"],
                    "; ".join(errors) or None)
    if traced:
        outcome.add_trace(spans)
    return outcome


def measure_setup(ctx: Context, workload: str) -> tuple[list[float], str]:
    """setup_s samples from fresh interpreters, and the kernel in use."""
    pairs = [f"{t}:{','.join(map(str, w))}"
             for t, w in workloads.setup_words(workload)]
    samples, kernel = [], "unknown"
    for _ in range(SETUP_REPEATS):
        child = spawn(ctx, [os.path.join(HERE, "worker.py"), "setup"]
                       + pairs)
        if child.code != 0:
            raise RuntimeError(f"set-up failed: {child.err.strip()[-300:]}")
        report = json.loads(child.out)
        samples.append(report["setup_s"])
        kernel = report["kernel"]
    return samples, kernel


def environment(ctx: Context, kernel: str) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ctx.root, ".git")):
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ctx.root,
                               capture_output=True, text=True)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {"kernel": kernel, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit}


def run_workload(ctx: Context, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """One run of one workload: metrics, job counts and failures."""
    child = spawn(ctx, ["-m", "bottsam.cli"] + WARM_UP)
    if child.code != 0:
        raise RuntimeError(f"warm-up job failed: {child.err.strip()[-300:]}")
    setup, kernel = measure_setup(ctx, workload)
    run = run_sessions if workload == "cone-session" else run_cli
    plan = workloads.rounds(workload, seed, MAX_ROUNDS)
    if not trace:
        outcome = run(ctx, plan, seconds, False)
        ok = len(outcome.cpu_s) - len(outcome.errors)
        metrics = {
            "jobs_per_min": (60.0 * ok / sum(outcome.cpu_s), "1/min"),
            "job_s.p50": (outcome.p50, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (outcome.peak_kib / 1024.0, "MB"),
        }
        samples = {"jobs_per_min": ok, "setup_s": len(setup),
                   "peak_rss_mb": 1 if run is run_sessions
                   else len(outcome.cpu_s)}
        checked = [outcome]
    else:
        untraced = run(ctx, plan[:1], 0, False)
        outcome = run(ctx, plan[:1], 0, True)
        metrics = tracing.per_layer(outcome.stats, outcome.counts)
        metrics["trace.jobs"] = (len(outcome.cpu_s), "count")
        metrics["trace.job_s.p50"] = (outcome.p50, "s")
        metrics["trace.overhead_s"] = (outcome.p50 - untraced.p50, "s")
        samples = {}
        checked = [untraced, outcome]
    attempted = sum(len(o.cpu_s) for o in checked)
    errors = [e for o in checked for e in o.errors]
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "env": environment(ctx, kernel),
            "attempted": attempted, "failed": len(errors), "errors": errors,
            "job_cpu_s": outcome.cpu_s, "job_wall_s": outcome.wall_s,
            "setup_samples": setup,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
            "samples": samples}


def _summary(result: dict) -> list[str]:
    lines = [f"{result['workload']} seed {result['seed']}: "
             f"{result['attempted']} jobs, {result['failed']} failed"]
    rows = dict(result["metrics"])
    if not result["trace"]:
        rows["failed_ratio"] = {
            "value": result["failed"] / result["attempted"],
            "unit": "ratio"}
    for name, metric in rows.items():
        count = result["samples"].get(name, len(result["job_cpu_s"]))
        lines.append(f"  {name:<40} {metric['value']:>14.6g} "
                     f"{metric['unit']:<6} n={count}")
    lines.extend(f"  failed: {error}" for error in result["errors"])
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result set file to write")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bottsam", "cli.py")):
        print("error: run from the root of a bottsam source checkout "
              "(src/bottsam is missing)", file=sys.stderr)
        return 2
    ctx = Context(root)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    results = [run_workload(ctx, name, args.seed, args.seconds,
                            bool(args.trace)) for name in names]
    out = args.out or os.path.join(
        ctx.work, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    for result in results:
        print("\n".join(_summary(result)))
    print("env " + json.dumps(results[0]["env"], sort_keys=True))
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
