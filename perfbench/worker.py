"""Child processes of the benchmark; run.py starts each one fresh.

    worker.py setup TYPE:WORD ...                  time import + engine setup
    worker.py cli --peak F [--trace F] [--job N] -- ARGV   one CLI job
    worker.py sessions --peak F [--trace F]        cone sessions; spec on stdin
    worker.py probe TYPE WORD --trace F            one traced probe run

A CLI job calls ``bottsam.cli.main`` with its arguments, as the ``bottsam``
console script does, and then writes its own peak resident set to the
``--peak`` file.  bottsam is imported only after the clock starts (setup)
or after the tracer is ready to wrap it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

# The benchmark's own modules (tracing, workloads) and hashlib are imported
# where they are used, so that an untraced CLI job loads no more than the
# bottsam CLI itself does and its peak resident set stays the job's own.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

IDENTITY_FLAGS = ("certified", "count_match", "dilation_match", "saturated",
                  "equal", "contained")


def digest(payload) -> str:
    """SHA-256 of the sorted-key JSON text of a document."""
    import hashlib
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def identity_flags(payload, path: str = "") -> dict[str, bool]:
    """Every identity flag in a document, keyed by its JSON path."""
    found = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            where = f"{path}.{key}"
            if key in IDENTITY_FLAGS and isinstance(value, bool):
                found[where] = value
            else:
                found.update(identity_flags(value, where))
    elif isinstance(payload, list):
        for index, value in enumerate(payload):
            found.update(identity_flags(value, f"{path}[{index}]"))
    return found


def _plain(value):
    """Rationals as [numerator, denominator] strings, the CLI's convention."""
    if isinstance(value, Fraction):
        return [str(value.numerator), str(value.denominator)]
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _write_peak(path: str) -> None:
    """Write this process's own peak resident set in KiB, from /proc.

    The parent cannot use getrusage's ru_maxrss for this: across fork and
    exec Linux carries the parent's peak into the child's, so every job
    would report at least the benchmark's own footprint.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        peak = next(line.split()[1] for line in status
                    if line.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as handle:
        handle.write(peak)


def _setup(pairs: list[str]) -> None:
    start = time.process_time()
    import bottsam
    for pair in pairs:
        cartan, word = pair.split(":")
        lattice = bottsam.PicardLattice(
            bottsam.CartanDatum.from_type(cartan),
            bottsam.WeylWord([int(v) for v in word.split(",")]))
        bottsam.OkounkovEngine(lattice)
    seconds = time.process_time() - start
    from bottsam import _kernel
    print(json.dumps({"setup_s": seconds, "kernel": _kernel.IMPLEMENTATION}))


def _cli(peak: str, path: str | None, job: int, argv: list[str]) -> int:
    tracer = None
    if path is not None:
        import tracing
        tracer = tracing.Tracer(job)
        tracing.install(tracer)
    import bottsam.cli
    try:
        return bottsam.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(path)
        _write_peak(peak)


def run_session(job: dict) -> dict:
    """One API session on a fresh engine: its CPU and wall time, and the
    digest and identity flags of every step's output."""
    from bottsam import (Basis, CartanDatum, DivisorClass, OkounkovEngine,
                         PicardLattice, WeylWord)
    from bottsam.polyhedra import cone_payload
    name = f"{job['type']} {','.join(map(str, job['word']))}"
    results = []
    cpu, wall = time.process_time(), time.perf_counter()
    lattice = PicardLattice(CartanDatum.from_type(job["type"]),
                            WeylWord(job["word"]))
    engine = OkounkovEngine(lattice)
    for levels, box in job["sweep"]:
        results.append((f"{name} global {levels},{box}",
                        engine.global_cone(levels, box)))
    level = job["volume_level"]
    for coords in job["volume"]:
        results.append((f"{name} volume can:{coords} level {level}",
                        engine.volume_check(
                            DivisorClass(coords, Basis.CANONICAL), level)))
    level = job["restriction_level"]
    results.append((f"{name} restriction can:{job['restriction']} "
                    f"level {level}",
                    engine.restriction_check(
                        DivisorClass(job["restriction"], Basis.CANONICAL),
                        level)))
    report = {"cpu_s": time.process_time() - cpu,
              "wall_s": time.perf_counter() - wall, "steps": {}}
    for key, value in results:
        if hasattr(value, "cone"):
            value = {"generators": [[str(v) for v in g]
                                    for g in value.generators],
                     "cone": cone_payload(value.cone),
                     "saturated": value.saturated}
        payload = _plain(value)
        report["steps"][key] = {"digest": digest(payload),
                                "flags": identity_flags(payload)}
    return report


def _sessions(peak: str, path: str | None) -> None:
    import tracing
    from workloads import more_rounds
    spec = json.load(sys.stdin)
    tracer = None
    if path is not None:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    done = 0
    rounds = spec["rounds"]
    while done < len(rounds) and more_rounds(
            time.perf_counter() - start, done, spec["seconds"]):
        for job in rounds[done]:
            if tracer is not None:
                tracer.job += 1
            cpu, wall = time.process_time(), time.perf_counter()
            try:
                line = run_session(job)
            except Exception as exc:  # a failed job is counted, not fatal
                line = {"cpu_s": time.process_time() - cpu,
                        "wall_s": time.perf_counter() - wall,
                        "error": f"{type(exc).__name__}: {exc}"}
            print(json.dumps(line), flush=True)
        done += 1
    if tracer is not None:
        tracer.dump(path)
    _write_peak(peak)


def _probe(cartan: str, word: str, path: str) -> None:
    import tracing
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import bottsam
    lattice = bottsam.PicardLattice(
        bottsam.CartanDatum.from_type(cartan),
        bottsam.WeylWord([int(v) for v in word.split(",")]))
    lattice.change
    tracer.dump(path)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    modes.add_parser("setup").add_argument("pairs", nargs="*")
    cli = modes.add_parser("cli")
    cli.add_argument("--peak", required=True)
    cli.add_argument("--trace")
    cli.add_argument("--job", type=int, default=0)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    sessions = modes.add_parser("sessions")
    sessions.add_argument("--peak", required=True)
    sessions.add_argument("--trace")
    probe = modes.add_parser("probe")
    probe.add_argument("cartan")
    probe.add_argument("word")
    probe.add_argument("--trace", required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        _setup(args.pairs)
    elif args.mode == "cli":
        rest = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return _cli(args.peak, args.trace, args.job, rest)
    elif args.mode == "sessions":
        _sessions(args.peak, args.trace)
    else:
        _probe(args.cartan, args.word, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
