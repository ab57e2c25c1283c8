"""Benchmark regression guard over published result JSONs.

Three checks, all driven by the result JSONs under
``benchmarks/results/``:

* ``--tolerance`` (default 1.25): fail when a metric of the current
  run exceeds ``baseline * tolerance`` -- e.g. the server p99 against
  its committed baseline.
* ``--min-speedup`` (optional): fail when ``baseline_metric /
  current_metric`` falls below the given factor -- used on the
  before/after pairs a benchmark rewrites on every run, so the
  speedup is measured on the current code.
* ``--floor`` (optional): fail when ``current < baseline * floor`` --
  the bigger-is-better guard for rates (cache hit rate, coalesce
  rate, throughput) where the other two modes point the wrong way.

Exit status 0 when every metric passes, 1 otherwise.

Usage (the CI smoke job, after ``bench_ablation_solvers.py`` ran)::

    python benchmarks/check_regression.py \
        --baseline benchmarks/results/ablation_solvers.before.json \
        --current benchmarks/results/ablation_solvers.after.json \
        --metric exact_total_ms --min-speedup 3.0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: str) -> dict:
    with Path(path).open() as fh:
        return json.load(fh)


def lookup(data: dict, metric: str) -> float:
    try:
        value = data[metric]
    except KeyError:
        raise SystemExit(
            f"metric {metric!r} missing from result JSON "
            f"(available: {sorted(k for k in data if k != 'rows')})"
        )
    return float(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", required=True, help="committed baseline result JSON"
    )
    parser.add_argument(
        "--current", required=True, help="freshly produced result JSON"
    )
    parser.add_argument(
        "--metric",
        action="append",
        required=True,
        help="top-level numeric field to compare (repeatable)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.25,
        help="fail when current > baseline * tolerance (default 1.25)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail when baseline / current < this factor "
        "(checks a recorded speedup instead of a regression)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=None,
        help="fail when current < baseline * floor "
        "(bigger-is-better metrics: hit rates, throughput)",
    )
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    current = load(args.current)
    failures = []
    for metric in args.metric:
        base = lookup(baseline, metric)
        cur = lookup(current, metric)
        if args.floor is not None:
            limit = base * args.floor
            verdict = cur >= limit
            print(
                f"{metric}: current {cur:.6f} vs baseline {base:.6f} "
                f"(floor {limit:.6f} = {args.floor:.2f}x) "
                f"{'ok' if verdict else 'FAIL'}"
            )
        elif args.min_speedup is not None:
            speedup = base / cur if cur else float("inf")
            verdict = speedup >= args.min_speedup
            print(
                f"{metric}: baseline {base:.6f} / current {cur:.6f} = "
                f"{speedup:.2f}x (need >= {args.min_speedup:.2f}x) "
                f"{'ok' if verdict else 'FAIL'}"
            )
        else:
            limit = base * args.tolerance
            verdict = cur <= limit
            print(
                f"{metric}: current {cur:.6f} vs baseline {base:.6f} "
                f"(limit {limit:.6f} = {args.tolerance:.2f}x) "
                f"{'ok' if verdict else 'FAIL'}"
            )
        if not verdict:
            failures.append(metric)

    if failures:
        print(f"regression guard FAILED for: {', '.join(failures)}")
        return 1
    print("regression guard passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
