"""Check that this checkout and another give the same ``sjc`` outputs on a workload.

    python tools/same_outputs.py OTHER_CHECKOUT --workload fields --seeds 1 2 3

For each seed the requests of the benchmark workload are generated once, by
``bench/workloads.py`` of this checkout, into a temporary directory.  Each
checkout then runs every distinct request through its own
``sjclab.cli.main`` in a fresh interpreter (one per checkout and seed), on
the same input paths and in the same output directory.  The exit code,
stdout, stderr and the SHA-256 of every output file must agree.  Prints the
counts and the first differing requests; exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SHOWN = 5  # differing requests printed per seed

# Runs in the child: argv lists on stdin, one result per request on stdout.
RUNNER = r"""
import contextlib, hashlib, io, json, os, shutil, sys, traceback
from pathlib import Path

import sjclab.cli

src = Path(sys.argv[1]).resolve()
if src not in Path(sjclab.__file__).resolve().parents:
    raise SystemExit(f"sjclab was imported from {sjclab.__file__}, not {src}")
work = Path(sys.argv[2])
results = []
for argv in json.load(sys.stdin):
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sjclab.cli.main(["--out-dir", str(work)] + argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "raised"
            traceback.print_exc()
    files = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(work.iterdir())
    }
    results.append({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files})
json.dump(results, sys.stdout)
"""


def generate(workload: str, seed: int, in_dir: str) -> list[list[str]]:
    """Argument lists of every request of one seed, in order."""
    sys.path.insert(0, str(HERE / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    rounds = workloads.WORKLOADS[workload](seed, in_dir)
    return [list(req.argv) for reqs in rounds for req in reqs]


def run_checkout(checkout: Path, argvs: list[list[str]], work: Path) -> list[dict]:
    src = checkout / "src"
    if not (src / "sjclab" / "__init__.py").is_file():
        raise SystemExit(f"error: no sjclab sources under {src}")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(src), str(work)],
        input=json.dumps(argvs), capture_output=True, text=True, env=env, cwd=work.parent,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: runner failed in {checkout}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def differing_fields(a: dict, b: dict) -> list[str]:
    return [key for key in ("exit", "stdout", "stderr", "files") if a[key] != b[key]]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", type=Path, help="root of the other checkout")
    ap.add_argument("--workload", required=True, choices=("algebra", "fields", "index"))
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    other = args.other.resolve()
    total_diff = 0
    for seed in args.seeds:
        with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
            in_dir = Path(tmp) / "inputs"
            in_dir.mkdir()
            requests = generate(args.workload, seed, str(in_dir))
            distinct = list(dict.fromkeys(json.dumps(a) for a in requests))
            runs = [json.loads(a) for a in distinct]
            mine = run_checkout(HERE, runs, Path(tmp) / "work")
            theirs = run_checkout(other, runs, Path(tmp) / "work")
        diffs = [
            (run, keys)
            for run, a, b in zip(runs, mine, theirs)
            if (keys := differing_fields(a, b))
        ]
        files = sum(len(r["files"]) for r in mine)
        print(
            f"{args.workload} seed {seed}: {len(requests)} requests, {len(runs)} distinct, "
            f"{files} output files; {len(runs) - len(diffs)} same, {len(diffs)} differ"
        )
        for run, keys in diffs[:SHOWN]:
            print(f"  differs in {', '.join(keys)}: sjc {' '.join(run)}")
        total_diff += len(diffs)
    return 1 if total_diff else 0


if __name__ == "__main__":
    sys.exit(main())
