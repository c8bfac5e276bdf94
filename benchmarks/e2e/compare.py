"""Compare a parent tree and a change tree on the end-to-end benchmark.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py PARENT_TREE CHANGE_TREE
        [--pairs 10] [--workload NAME ...] [--seed S] [--out DIR]

Both sides run with this harness; only the program differs: each run's
child interpreters get ``PYTHONPATH`` pointed at ``<tree>/src``. For
every pair, one single-repetition run per side goes back to back, the
side that runs first alternating between pairs, so slow drift of the
machine hits both sides of a pair alike. Pair ``i`` uses seed
``S + i`` on both sides.

For each (end-to-end metric, workload) the verdict is:

* ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's
  interquartile range;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json, or more operations failed;
* ``unresolved``: either side's interquartile range, as a share of its
  median, is wider than the bound;
* ``unchanged``: none of the above.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import DEFAULT_OUT, E2E_METRICS, HERE, WORKLOADS, measure, quartiles

BENCHMARK = HERE.parents[1] / "BENCHMARK.json"


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Verdict for one metric from paired samples (see module docs)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    if wins >= 0.9 * len(parent) and gain > p_q3 - p_q1:
        return "improved"
    if -gain > bound * abs(p_med):
        return "regressed"
    if (p_q3 - p_q1) > bound * abs(p_med) or (c_q3 - c_q1) > bound * abs(c_med):
        return "unresolved"
    return "unchanged"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT / "compare")
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    sides = {"parent": args.parent.resolve() / "src", "change": args.change.resolve() / "src"}
    for side, src in sides.items():
        if not (src / "repro").is_dir():
            parser.error(f"{side} tree has no src/repro: {src}")
    out_dir = args.out.resolve()
    report: dict = {}
    for name in args.workload or list(WORKLOADS):
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(
                    measure(name, args.seed + i, 0, False, out_dir / side, src=sides[side])
                )
        failed = {side: sum(s["failed"] for s in r) for side, r in runs.items()}
        rows = {}
        for metric, (_unit, better) in E2E_METRICS.items():
            parent = [s["metrics"][metric] for s in runs["parent"]]
            change = [s["metrics"][metric] for s in runs["change"]]
            rows[metric] = {
                "parent": quartiles(parent),
                "change": quartiles(change),
                "verdict": (
                    "regressed" if failed["change"] > failed["parent"]
                    else verdict(parent, change, better, bounds[metric])
                ),
            }
        report[name] = {"failed": failed, "metrics": rows}
        print(f"== {name}: {args.pairs} pairs, failed parent={failed['parent']} "
              f"change={failed['change']} ==")
        for metric, row in rows.items():
            p, c = row["parent"], row["change"]
            print(f"  {metric:<18} parent {p[1]:>12.4f} [{p[0]:.4f}, {p[2]:.4f}]  "
                  f"change {c[1]:>12.4f} [{c[0]:.4f}, {c[2]:.4f}]  {row['verdict']}")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "compare.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
