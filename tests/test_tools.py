import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def load_same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", REPO / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSameOutputs:
    def test_checkout_matches_itself(self, capsys):
        same_outputs = load_same_outputs()
        assert same_outputs.main([str(REPO), "--workload", "index", "--seeds", "1"]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("index seed 1: ") and line.endswith(", 0 differ")

    def test_changed_stdout_names_the_request(self, tmp_path, capsys, monkeypatch):
        same_outputs = load_same_outputs()
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
