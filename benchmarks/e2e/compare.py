"""Compare benchmark runs of a parent (A) and a change (B).

Usage::

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

A and B hold the records ``run.py --out`` appends (``run.py --pairs N
--parent REV`` writes both).  Runs pair up by workload and seed.  For
every end-to-end metric of ``BENCHMARK.json`` and every workload the
verdict is one of:

* ``gain`` — the change wins at least 9 of 10 pairs (ties count for
  neither) and its median differs from the parent's by more than the
  parent's interquartile range;
* ``REGRESSION`` — the change's median is worse than the parent's by
  more than the metric's ``bound`` (a share of the parent's median);
* ``unresolved`` — the spread (interquartile range over median) of
  either side exceeds the bound, unless every change run reads better
  than every parent run;
* ``no regression`` otherwise.

Exits 1 if any pairing regressed.
"""

from __future__ import annotations

import collections
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _iqr(values: List[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def decide(parent: List[float], change: List[float], better: str,
           bound: float) -> str:
    """Verdict for one metric x workload; ``parent[i]`` and
    ``change[i]`` are one pair (same seed)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    if len(parent) < 2:
        spread, gap_needed = float("inf"), float("inf")
    else:
        gap_needed = _iqr(parent)
        spread = max(_iqr(parent) / abs(med_p), _iqr(change) / abs(med_c))
    if wins >= 0.9 * len(parent) and sign * (med_c - med_p) > gap_needed:
        return "gain"
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (med_p - med_c) > bound * abs(med_p):
        return "REGRESSION"
    return "no regression"


def _load(path: str) -> Dict[Tuple[str, int], dict]:
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record.get("trace"):
                    runs[(record["workload"], record["seed"])] = record
    return runs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = _load(argv[0]), _load(argv[1])
    pairs: Dict[str, List[Tuple[dict, dict]]] = collections.defaultdict(list)
    for key in sorted(set(parent) & set(change)):
        pairs[key[0]].append((parent[key], change[key]))
    regressed = False
    print(f"{'workload':18s} {'metric':18s} {'parent median [q1,q3]':>28s} "
          f"{'change median':>14s} {'wins':>6s}  verdict")
    for workload, runs in sorted(pairs.items()):
        incorrect = sum(not c["correct"] for _p, c in runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [p["metrics"][name] for p, _c in runs]
            b = [c["metrics"][name] for _p, c in runs]
            verdict = decide(a, b, metric["better"], metric["bound"])
            regressed |= verdict == "REGRESSION"
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
            q = statistics.quantiles(a, n=4) if len(a) > 1 else [a[0]] * 3
            print(f"{workload:18s} {name:18s} "
                  f"{statistics.median(a):10.4g} [{q[0]:.4g},{q[2]:.4g}] "
                  f"{statistics.median(b):14.4g} {wins:>3d}/{len(runs):<2d}"
                  f"  {verdict}")
        if incorrect:
            regressed = True
            print(f"{workload:18s} {incorrect} change run(s) failed checks")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
