"""Closed-loop verdict benchmark for sjclab.

    python3 bench/run.py --workload {algebra,fields,index} --seed N --seconds S --trace {0,1}

One client in this process sends ``sjc`` requests to ``sjclab.cli.main`` one
after another, stdout captured, and checks each verdict (exit status and
``report.json``) against the verdict known from how the input was built.
The loop completes whole rounds until ``--seconds`` have passed and at least
100 requests ran.  The last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A traced run repeats the first round as a pass until ``--seconds`` have
passed, sends every request twice, untraced and then under the span tracer,
requires identical verdicts and reports the per-layer metrics per pass.

sjclab is imported from ``src/`` of the checkout this file sits in; without
it the run exits with status 1 before printing a result.  The inputs are
generated in child processes, so that the peak resident set of this process
covers only sjclab and its requests.  Per-request records, spans and run
metadata go to ``bench/out/``.
"""

from __future__ import annotations

import os

# The BLAS thread count is fixed here, before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_REQUESTS = 100   # so that at least ten samples lie beyond p90
IMPORT_REPEATS = 15
SETUP_REPEATS = 5
HARD_STOP_S = 150.0  # never start a new round after this much loop time

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sjclab.cli; "
    "print(time.perf_counter() - t)"
)
# argv: workload, seed, input directory; stdout: pickled (seconds, rounds)
GENERATE = (
    "import pickle, sys, time; import workloads; t = time.perf_counter(); "
    "rounds = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3]); "
    "sys.stdout.buffer.write(pickle.dumps((time.perf_counter() - t, rounds)))"
)


def import_sjclab():
    if not (SRC / "sjclab" / "__init__.py").is_file():
        raise SystemExit(f"error: no sjclab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sjclab.cli

    if SRC.resolve() not in Path(sjclab.__file__).resolve().parents:
        raise SystemExit(f"error: sjclab was imported from {sjclab.__file__}, not {SRC}")
    return sjclab.cli


def child(code: str, *args: str) -> bytes:
    """Run ``code`` in a fresh interpreter that sees sjclab and the benchmark's modules."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, cwd=ROOT,
        capture_output=True, timeout=120, check=True,
    )
    return out.stdout


def run_metadata(args) -> dict:
    import numpy as np

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    caches = {}
    for entry in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches[f"L{read(entry / 'level')}-{read(entry / 'type').lower()}"] = read(entry / "size")
    cpu_model = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": openblas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "platform": platform.platform(),
    }


class SpeedProbe:
    """A fixed kernel timed between requests: how fast the machine runs now.

    The reference machine's clock speed drifts by up to 1.6x over seconds
    (shared host, turbo), which would dominate every timing.  The kernel
    exercises the engines the program runs on: the interpreter on ints and
    dicts, a LAPACK SVD and an FFT.  A request's ``speed`` is REF_MS over the
    mean kernel time just before and just after it; latency times speed is
    its latency at the speed at which the kernel takes REF_MS.  Each timing
    follows an untimed run of the kernel: a large request evicts the
    kernel's data from the caches, and the cold run would read as a slow
    machine.
    """

    REF_MS = 2.0  # kernel median on the reference machine, rounded

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((80, 80))
        self.grid = rng.standard_normal((8, 64, 64)) + 0j
        self.last_ms = self.kernel_ms()

    def kernel_ms(self) -> float:
        self.kernel()
        t0 = time.perf_counter()
        self.kernel()
        return 1e3 * (time.perf_counter() - t0)

    def kernel(self) -> None:
        acc, table = 0, {}
        for k in range(3000):
            acc += k * k
            table[k & 63] = acc
        self.np.linalg.svd(self.matrix, compute_uv=False)
        self.np.fft.fft2(self.grid)

    def speed_since_last(self) -> float:
        before, self.last_ms = self.last_ms, self.kernel_ms()
        return 2 * self.REF_MS / (before + self.last_ms)


class Client:
    """Sends one request at a time to ``cli.main`` and judges the verdict."""

    def __init__(self, cli, work_dir: Path, judge):
        self.cli = cli
        self.work_dir = work_dir
        self.judge = judge
        self.probe = SpeedProbe()

    def send(self, req) -> dict:
        report_path = self.work_dir / "report.json"
        report_path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        code, exc = None, ""
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(["--out-dir", str(self.work_dir)] + req.argv)
        except SystemExit as e:  # argparse rejects a request
            code = e.code
        except Exception:  # a request that crashes must not stop the loop
            exc = traceback.format_exc()
        latency, cpu = time.perf_counter() - t0, time.process_time() - c0
        speed = self.probe.speed_since_last()
        failing: dict[str, object] = {}
        if code in (0, 1) and not report_path.is_file():
            exc = f"exit {code} without report.json"
        elif code in (0, 1):
            report = json.loads(report_path.read_text())
            failing = {c["name"]: c["value"] for c in report["checks"] if not c["passed"]}
            if report["passed"] != (code == 0):
                exc = f"report.json passed={report['passed']} contradicts exit {code}"
        if exc:
            status, reason = "wrong", exc.strip().splitlines()[-1]
        else:
            status, reason = self.judge(req, code, failing, err.getvalue())
        return {
            "kind": req.kind,
            "config": req.config,
            "seed": req.seed,
            "latency_ms": 1e3 * latency,
            "cpu_ms": 1e3 * cpu,
            "speed": speed,
            "verdict": {"exit": code, "failing": sorted(failing)},
            "expected": {"exit": req.expected.exit_code, "failing": list(req.expected.failing)},
            "status": status,
            "reason": reason,
        }


def closed_loop(send, rounds, seconds: float, min_requests: int) -> tuple[list, int, float, float]:
    """Send whole rounds until ``seconds`` have passed and ``min_requests`` were sent."""
    results = []
    t0, c0 = time.perf_counter(), time.process_time()
    r = 0
    while True:
        for req in rounds[r % len(rounds)]:
            results.append(send(req))
        r += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and len(results) >= min_requests):
            break
    return results, r, time.perf_counter() - t0, time.process_time() - c0


def end_to_end(records, setup_s: float) -> dict:
    """Timings in reference-speed units (see SpeedProbe); counts as they are."""
    lat = [r["latency_ms"] * r["speed"] for r in records]
    good = sum(r["status"] == "expected" for r in records)
    return {
        "verdicts_per_s": 1e3 * good / sum(lat),
        "verdict_p50_ms": statistics.median(lat),
        "verdict_p90_ms": statistics.quantiles(lat, n=10)[8],
        "cpu_ms_per_verdict": sum(r["cpu_ms"] * r["speed"] for r in records) / len(records),
        "correct_verdict_ratio": good / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cli = import_sjclab()
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    in_dir, work_dir = run_dir / "inputs", run_dir / "work"
    work_dir.mkdir(parents=True)
    in_dir.mkdir()
    meta = run_metadata(args)

    # set-up: import in a fresh interpreter plus input generation and writing,
    # each in a child process and scaled to reference speed like the request
    # timings; every generation writes the same files
    probe = SpeedProbe()

    def at_reference_speed(seconds: float) -> float:
        return seconds * probe.speed_since_last()

    imports, generations = [], []
    for _ in range(IMPORT_REPEATS):
        probe.speed_since_last()
        imports.append(at_reference_speed(float(child(IMPORT_PROBE))))
    for _ in range(SETUP_REPEATS):
        probe.speed_since_last()
        seconds, rounds = pickle.loads(child(GENERATE, args.workload, str(args.seed), str(in_dir)))
        generations.append(at_reference_speed(seconds))
    setup_s = statistics.median(imports) + statistics.median(generations)

    client = Client(cli, work_dir, workloads.judge)
    first = {}
    for req in rounds[0]:
        first.setdefault(req.kind, req)
    for req in first.values():  # warm-up, untimed: one request of each kind
        client.send(req)

    if args.trace:
        # each request runs untraced and then traced, back to back, so the
        # overhead ratio compares neighbours in time; a pass is the first
        # round, so that per-pass counts do not depend on how many passes fit
        tracer = Tracer()

        def send_pair(req):
            plain = client.send(req)
            tracer.request += 1
            tracer.install()
            try:
                return plain, dict(client.send(req), traced=True)
            finally:
                tracer.uninstall()

        pairs, passes, wall, cpu = closed_loop(send_pair, rounds[:1], args.seconds, 1)
        records = [plain for plain, _ in pairs]
        traced = [t for _, t in pairs]
        mismatch = [i for i, (a, b) in enumerate(pairs) if a["verdict"] != b["verdict"]]
        if mismatch:
            print(f"traced verdicts differ from untraced ones at requests {mismatch[:10]}", file=sys.stderr)
        untraced_s = sum(r["latency_ms"] for r in records) / 1e3
        traced_s = sum(r["latency_ms"] for r in traced) / 1e3
        metrics = tracer.layer_metrics(traced_s, passes)
        metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
        tracer.write(run_dir / "spans.jsonl")
    else:
        records, passes, wall, cpu = closed_loop(client.send, rounds, args.seconds, MIN_REQUESTS)
        traced, mismatch = [], []
        metrics = end_to_end(records, setup_s)
    failed = sum(r["status"] == "wrong" for r in records)
    correct = failed == 0 and not mismatch

    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    with open(run_dir / "requests.jsonl", "w") as fh:
        for rec in records + traced:
            fh.write(json.dumps(rec) + "\n")
    meta.update(import_s=imports, generation_s=generations, rounds=passes, loop_wall_s=wall, loop_cpu_s=cpu)
    (run_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    shutil.rmtree(in_dir)
    shutil.rmtree(work_dir)

    by_kind: dict[str, list[int]] = {}
    for rec in records:
        tally = by_kind.setdefault(rec["kind"], [0, 0, 0])
        tally[("expected", "known_defect", "wrong").index(rec["status"])] += 1
    raw = [r["latency_ms"] for r in records]
    print(f"{args.workload} seed {args.seed}: {len(records)} requests in {wall:.1f} s, raw latency "
          f"p50 {statistics.median(raw):.1f} ms, mean speed {statistics.mean(r['speed'] for r in records):.3f}",
          file=sys.stderr)
    for kind, (ok, defect, wrong) in sorted(by_kind.items()):
        print(f"  {kind:40s} expected {ok:4d}  known defect {defect:4d}  wrong {wrong:4d}", file=sys.stderr)
    for rec in records:
        if rec["status"] == "wrong":
            print(f"  WRONG {rec['kind']} {rec['config']}: {rec['reason']}", file=sys.stderr)
    for name in units:
        print(f"  {name:40s} {metrics[name]:14.6g} {units[name]}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
