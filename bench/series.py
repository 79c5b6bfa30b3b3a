"""Run the benchmark over several seeds and keep every result.

    python3 bench/series.py --runs 10 --out DIR [--trace 1] [--root LABEL=CHECKOUT ...]

Each run is ``python3 bench/run.py`` in a fresh process, from the root of
the named checkout (default: this one, labelled ``this``), for every
workload of BENCHMARK.json, with seeds 1 to ``--runs`` and its
``run_seconds``.  With two roots the runs alternate, and which side goes
first alternates with the seed.  Results go to ``DIR/<label>.jsonl``, one
line per run with the run's metadata; ``bench/compare.py`` reads two such
files.  A summary of every end-to-end metric (median, quartiles, spread) is
printed per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    rec = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "exit": proc.returncode, "wall_s": time.perf_counter() - t0, "result": None}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        rec["result"] = json.loads(lines[-1])
        meta = root / "bench" / "out" / f"{workload}-seed{seed}-trace{trace}" / "meta.json"
        if meta.is_file():
            rec["meta"] = json.loads(meta.read_text())
    else:
        rec["stderr"] = proc.stderr[-2000:]
    return rec


def spread_table(records: list[dict], metrics: list[str]) -> list[str]:
    rows = []
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload and r["result"]]
        rows.append(f"{workload}: {len(runs)} runs, "
                    f"{sum(not r['result']['correct'] for r in runs)} incorrect, "
                    f"{sum(r['result']['failed'] for r in runs)} failed requests")
        for name in metrics:
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            unit = runs[0]["result"]["metrics"][name]["unit"]
            spread = (q3 - q1) / med if med else float("nan")
            rows.append(f"  {name:24s} median {med:12.5g} {unit:5s} q1 {q1:12.5g} q3 {q3:12.5g}"
                        f"  spread {spread:7.3f}")
    return rows


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", action="append", default=[], metavar="LABEL=CHECKOUT")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()

    roots = [tuple(r.split("=", 1)) for r in args.root] or [("this", str(ROOT))]
    args.out.mkdir(parents=True, exist_ok=True)
    records: dict[str, list[dict]] = {label: [] for label, _ in roots}
    for seed in range(1, args.runs + 1):
        order = roots if seed % 2 else roots[::-1]
        for workload in (w["name"] for w in spec["workloads"]):
            for label, root in order:
                rec = run_once(Path(root), workload, seed, spec["run_seconds"], args.trace)
                rec["label"] = label
                records[label].append(rec)
                with open(args.out / f"{label}.jsonl", "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
                status = "ok" if rec["result"] else f"exit {rec['exit']}"
                print(f"[{label}] {workload} seed {seed}: {status} in {rec['wall_s']:.0f} s", flush=True)
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[section]]
    for label, recs in records.items():
        print(f"== {label}")
        print("\n".join(spread_table(recs, names)))
    return 0 if all(r["result"] for recs in records.values() for r in recs) else 1


if __name__ == "__main__":
    sys.exit(main())
