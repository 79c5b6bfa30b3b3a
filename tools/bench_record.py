"""Write a parent/change benchmark series to one JSON file for the repository.

    python tools/bench_record.py PARENT.jsonl CHANGE.jsonl --out BENCH_13.json --note TEXT

The two inputs are result files of ``bench/series.py`` (one run per line).
For every workload and end-to-end metric of BENCHMARK.json the file keeps
each seed's value on both sides, each side's quartiles, the pairs (same
workload and seed) the change won and the verdict ``bench/compare.py``
gives.  ``--note`` records how the series was run, for example the
environment both sides shared.  The machine description is the first parent
run's metadata.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("python", "numpy", "blas", "blas_threads", "nproc", "cpu_model", "platform")

sys.path.insert(0, str(HERE / "bench"))
try:
    from compare import load, quartiles, verdict
finally:
    sys.path.pop(0)


def machine(path: Path) -> dict:
    with open(path) as fh:
        for line in fh:
            meta = json.loads(line).get("meta")
            if meta:
                return {k: meta[k] for k in MACHINE_KEYS if k in meta}
    return {}


def record(parent: dict, change: dict, metrics: list[dict]) -> dict:
    """Per workload: the common seeds and, per metric, both series and the verdict."""
    out = {}
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        rows = {}
        for m in metrics:
            name, sign = m["name"], (1.0 if m["better"] == "higher" else -1.0)
            pv = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds]
            cv = [change[(workload, s)]["metrics"][name]["value"] for s in seeds]
            wins = sum(sign * c > sign * p for p, c in zip(pv, cv))
            rows[name] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                "parent": pv,
                "change": cv,
                "parent_q1_median_q3": list(quartiles(pv)),
                "change_q1_median_q3": list(quartiles(cv)),
                "won": wins,
                "verdict": verdict(pv, cv, wins, len(seeds), m),
            }
        out[workload] = {"seeds": seeds, "metrics": rows}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--note", default="")
    args = ap.parse_args(argv)
    spec = json.loads((HERE / "BENCHMARK.json").read_text())
    doc = {
        "schema": 1,
        "note": args.note,
        "run_seconds": spec["run_seconds"],
        "machine": machine(args.parent),
        "workloads": record(load(args.parent), load(args.change), spec["end_to_end"]),
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
