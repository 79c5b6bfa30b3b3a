"""Before/after table from two result sets written by ``bench/series.py``.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

For every workload and end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles, the pairs (same workload and seed) the change
won, and a verdict:

* ``better``: the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's own quartile distance;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved``: either side's quartile distance exceeds the bound;
* ``same``: within the bound, or every change run beats every parent run
  without meeting the rule for ``better``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict[tuple[str, int], dict]:
    runs = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("result") and not rec.get("trace"):
                runs[(rec["workload"], rec["seed"])] = rec["result"]
    return runs


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], wins: int, pairs: int, metric: dict) -> str:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    bound = metric["bound"]
    if pairs and wins >= 0.9 * pairs and sign * (cm - pm) > p3 - p1:
        return "better"
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse"
    all_beat = min(sign * c for c in change) > max(sign * p for p in parent)
    if not all_beat and pm and cm and max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm)) > bound:
        return "unresolved"
    return "same"


def table(parent: dict, change: dict, metrics: list[dict]) -> list[str]:
    rows = [f"{'workload':8s} {'metric':22s} {'unit':5s} {'parent median [q1, q3]':>34s} "
            f"{'change median [q1, q3]':>34s} {'delta':>8s} {'won':>6s}  verdict"]
    for workload in sorted({w for w, _ in parent} | {w for w, _ in change}):
        seeds_p = sorted(s for w, s in parent if w == workload)
        seeds_c = sorted(s for w, s in change if w == workload)
        common = sorted(set(seeds_p) & set(seeds_c))
        for m in metrics:
            name, sign = m["name"], (1.0 if m["better"] == "higher" else -1.0)
            pv = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds_p]
            cv = [change[(workload, s)]["metrics"][name]["value"] for s in seeds_c]
            if not pv or not cv:
                rows.append(f"{workload:8s} {name:22s} missing on one side")
                continue
            wins = sum(
                sign * change[(workload, s)]["metrics"][name]["value"]
                > sign * parent[(workload, s)]["metrics"][name]["value"]
                for s in common
            )
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            delta = f"{100 * (cm - pm) / pm:+7.1f}%" if pm else "n/a"
            rows.append(
                f"{workload:8s} {name:22s} {m['unit']:5s} "
                f"{pm:11.4g} [{p1:9.4g}, {p3:9.4g}] {cm:11.4g} [{c1:9.4g}, {c3:9.4g}] "
                f"{delta:>8s} {wins:2d}/{len(common):<3d}  {verdict(pv, cv, wins, len(common), m)}"
            )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(argv[0]), load(argv[1])
    print("\n".join(table(parent, change, spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
