"""Fail CI when a benchmark regresses against the committed baseline.

Usage::

    python benchmarks/perf_guard.py BENCH_1.json [BENCH_2.json ...] \
        [--baseline benchmarks/BENCH_baseline.json] [--threshold 1.25]

Reads one or more fresh pytest-benchmark JSON exports (separate runs of
the same benchmarks) and compares each test's min-of-rounds time against
``BENCH_baseline.json``.  With several runs, a test's fresh time is the
median of its per-run minimums, so one run disturbed by a noisy host
cannot fail a row on its own; a row slow in most runs still fails.
Absolute times are not comparable across machines (a CI runner is not
the box the baseline was recorded on), so the check is *relative*:
every test's fresh/baseline ratio is normalised by the median ratio
across all tests — a uniformly slower machine scales every ratio
equally and passes, while one test regressing on its own stands out
against the others and fails.

Exit status 0 when every test is within ``threshold`` (default 1.25,
i.e. a >25% relative regression fails) of the normalised baseline,
1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_minimums(path: Path) -> dict[str, float]:
    """Min-of-rounds seconds per test, from either JSON schema."""
    data = json.loads(path.read_text())
    if "benchmarks" not in data:
        raise SystemExit(f"{path}: not a benchmark JSON (no 'benchmarks' key)")
    bench = data["benchmarks"]
    if isinstance(bench, dict):  # committed baseline schema
        return {name: entry["min_ms"] / 1000.0 for name, entry in bench.items()}
    return {b["name"]: b["stats"]["min"] for b in bench}  # pytest-benchmark


def median_minimums(paths: list[Path]) -> dict[str, float]:
    """Per test, the median over runs of its min-of-rounds seconds; a
    test must appear in every run to be reported."""
    runs = [load_minimums(path) for path in paths]
    names = set.intersection(*(set(run) for run in runs))
    return {name: statistics.median(run[name] for run in runs)
            for name in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", type=Path, nargs="+",
                        help="pytest-benchmark JSON of each fresh run")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).parent / "BENCH_baseline.json")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="max allowed normalised slowdown (1.25 = +25%%)")
    args = parser.parse_args(argv)

    fresh = median_minimums(args.fresh)
    baseline = load_minimums(args.baseline)

    missing = sorted(set(baseline) - set(fresh))
    if missing:
        print(f"perf_guard: tests missing from a fresh run: "
              f"{', '.join(missing)}")
        return 1
    if len(args.fresh) > 1:
        print(f"perf_guard: fresh time = median of {len(args.fresh)} runs' "
              f"min-of-rounds")

    ratios = {name: fresh[name] / baseline[name] for name in baseline}
    scale = statistics.median(ratios.values())
    print(f"perf_guard: machine-speed scale (median ratio) = {scale:.3f}")

    failed = False
    for name in sorted(baseline):
        normalised = ratios[name] / scale
        status = "ok"
        if normalised > args.threshold:
            status = "REGRESSION"
            failed = True
        print(f"  {name}: baseline {baseline[name] * 1000:.3f} ms, "
              f"fresh {fresh[name] * 1000:.3f} ms, "
              f"normalised x{normalised:.3f} [{status}]")
    if failed:
        print(f"perf_guard: FAIL (>{(args.threshold - 1) * 100:.0f}% "
              f"normalised regression)")
        return 1
    print("perf_guard: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
