"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py --base A1.json A2.json --new B1.json B2.json

Each file is a result set written by run.py.  For every workload and
end-to-end metric it prints both medians, the change as a share of the base
median, the base's quartile spread, and whether the change is worse than
the bound in BENCHMARK.json.  It refuses to compare result sets whose
kernel implementation differs, so a built compiled kernel cannot pass for
a gain or a loss of the code.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(paths: list[str]) -> list[dict]:
    results = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            results.extend(r for r in json.load(handle) if not r["trace"])
    return results


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.new)
    kernels = {r["env"]["kernel"] for r in base + new}
    if len(kernels) != 1:
        print(f"error: result sets use different kernel implementations "
              f"{sorted(kernels)}; refusing to compare", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    print(f"{'workload':<13} {'metric':<13} {'base':>11} {'new':>11} "
          f"{'change':>8} {'spread':>7}  verdict")
    for workload in sorted({r["workload"] for r in base}):
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            before = [r["metrics"][name]["value"] for r in base
                      if r["workload"] == workload]
            after = [r["metrics"][name]["value"] for r in new
                     if r["workload"] == workload]
            if not before or not after:
                continue
            b, a = statistics.median(before), statistics.median(after)
            change = (a - b) / b
            worse = change if lower else -change
            verdict = "worse than bound" if worse > metric["bound"] \
                else "within bound"
            print(f"{workload:<13} {name:<13} {b:>11.4f} {a:>11.4f} "
                  f"{change:>+8.1%} {_spread(before):>7.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
