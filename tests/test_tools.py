import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSameOutputs:
    def test_checkout_matches_itself(self, capsys):
        same_outputs = load_tool("same_outputs")
        assert same_outputs.main([str(REPO), "--workload", "index", "--seeds", "1"]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("index seed 1: ") and line.endswith(", 0 differ")

    def test_changed_stdout_names_the_request(self, tmp_path, capsys, monkeypatch):
        same_outputs = load_tool("same_outputs")
        seen = []

        def run_checkout(checkout, argvs, work):
            seen.append(argvs)
            results = [{"exit": 0, "stdout": "[PASS]\n", "stderr": "", "files": {}} for _ in argvs]
            if checkout != same_outputs.HERE:
                results[3]["stdout"] = "[FAIL]\n"
            return results

        monkeypatch.setattr(same_outputs, "run_checkout", run_checkout)
        assert same_outputs.main([str(tmp_path), "--workload", "index", "--seeds", "1"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith(", 1 differ")
        assert out[1:] == [f"  differs in stdout: sjc {' '.join(seen[0][3])}"]


class TestBenchRecord:
    def write_series(self, path, speed):
        """Ten seeds of one workload: verdicts_per_s from ``speed``, every other metric 1.0."""
        names = [m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]]
        with open(path, "w") as fh:
            for seed in range(1, 11):
                metrics = {n: {"value": 1.0, "unit": "u"} for n in names}
                metrics["verdicts_per_s"]["value"] = speed(seed)
                result = {"correct": True, "failed": 0, "metrics": metrics}
                meta = {"python": "3.x", "nproc": 2, "import_s": [0.1]}
                rec = {"workload": "algebra", "seed": seed, "trace": 0, "result": result, "meta": meta}
                fh.write(json.dumps(rec) + "\n")

    def test_series_and_verdicts(self, tmp_path):
        bench_record = load_tool("bench_record")
        self.write_series(tmp_path / "parent.jsonl", lambda seed: 100.0 + seed)
        self.write_series(tmp_path / "change.jsonl", lambda seed: 130.0 + seed)
        out = tmp_path / "BENCH.json"
        args = [str(tmp_path / "parent.jsonl"), str(tmp_path / "change.jsonl"), "--out", str(out)]
        assert bench_record.main(args + ["--note", "pinned"]) == 0
        doc = json.loads(out.read_text())
        assert doc["note"] == "pinned" and doc["machine"] == {"python": "3.x", "nproc": 2}
        algebra = doc["workloads"]["algebra"]
        assert algebra["seeds"] == list(range(1, 11))
        speed = algebra["metrics"]["verdicts_per_s"]
        assert speed["parent"] == [100.0 + s for s in range(1, 11)]
        assert speed["won"] == 10 and speed["verdict"] == "better"
        assert speed["parent_q1_median_q3"][1] == 105.5
        assert algebra["metrics"]["peak_rss_mb"]["verdict"] == "same"
