import dataclasses
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fields_oracle import dense, gzeros, pack
from input_writers import write_field_bundle, write_flat_map
from sjclab import serialize, suites
from sjclab.cli import main
from sjclab.fields import ComponentMap, Gravitino, max_abs
from sjclab.patch import ReducedPatch
from sjclab.serialize import FLAT_MAP_MAX_L, read_field_bundle, read_flat_map
from sjclab.suites import holomorphic_base_map
from sjclab.superfield import SuperField


def run(args, tmp_path):
    return main(["--out-dir", str(tmp_path)] + args)


class TestSuitesViaCli:
    def test_flat_suite(self, tmp_path):
        assert run(["flat", "--seed", "7", "--trials", "30"], tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema"] == 1
        assert all("tol" in c for c in report["checks"])

    def test_identities_suite(self, tmp_path):
        assert run(["identities", "--trials", "6", "--energy-trials", "4"], tmp_path) == 0

    def test_index_suite_sphere(self, tmp_path):
        assert run(["index", "--surface", "sphere", "--degree", "1", "--cutoff", "8"], tmp_path) == 0
        assert (tmp_path / "singular_values.csv").exists()

    def test_index_suite_torus(self, tmp_path):
        assert run(["index", "--surface", "torus", "--cutoff", "6"], tmp_path) == 0

    def test_bochner_suite(self, tmp_path):
        assert run(["bochner", "--cutoff", "10"], tmp_path) == 0

    def test_moduli_suite(self, tmp_path):
        assert run(["moduli", "--n", "2", "--genus", "0", "--c1a", "3"], tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        first = report["checks"][0]
        assert first["value"] == "10|6"

    def test_linearize_suite(self, tmp_path):
        assert run(["linearize", "--grid", "16", "--model", "flat"], tmp_path) == 0

    def test_linearize_reports_a_nan_block(self, tmp_path):
        # a step of 1e300 makes combined's cauchy_riemann and dirac errors NaN:
        # the report stays strict JSON, naming the value as a string, and the
        # overflow warns nothing on stderr
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(suites.__file__))}
        cmd = [sys.executable, "-m", "sjclab.cli", "--out-dir", str(tmp_path), "linearize", "--grid", "8", "--step", "1e300"]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert done.returncode == 1 and done.stderr == ""

        def no_constants(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads((tmp_path / "report.json").read_text(), parse_constant=no_constants)
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["value"] for c in failed] == ["NaN"]
        assert "(value=NaN)" in done.stdout

    def test_reports_byte_stable(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        main(["--out-dir", str(tmp_path / "a"), "flat", "--seed", "3", "--trials", "10"])
        main(["--out-dir", str(tmp_path / "b"), "flat", "--seed", "3", "--trials", "10"])
        assert (tmp_path / "a/report.json").read_bytes() == (tmp_path / "b/report.json").read_bytes()

    def test_csv_outputs_byte_stable(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        for sub in ("a", "b"):
            main(["--out-dir", str(tmp_path / sub), "bochner", "--cutoff", "8"])
        assert (tmp_path / "a/singular_values.csv").read_bytes() == (
            tmp_path / "b/singular_values.csv"
        ).read_bytes()

    def test_out_dir_after_subcommand(self, tmp_path):
        assert main(["flat", "--trials", "5", "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "report.json").exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        assert run(["verify-flat", str(tmp_path / "missing.json")], tmp_path) == 2

    def test_suites_back_to_back_match_fresh_processes(self, tmp_path):
        argvs = [["flat", "--seed", "3", "--trials", "5"], ["index", "--surface", "torus", "--cutoff", "6"]]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(suites.__file__))}
        for k, argv in enumerate(argvs):
            out = tmp_path / f"alone{k}"
            cmd = [sys.executable, "-m", "sjclab.cli", "--out-dir", str(out)] + argv
            assert subprocess.run(cmd, env=env, capture_output=True).returncode == 0
        for k, argv in enumerate(argvs):
            assert main(["--out-dir", str(tmp_path / f"same{k}")] + argv) == 0
        for k in range(len(argvs)):
            alone, same = tmp_path / f"alone{k}", tmp_path / f"same{k}"
            assert (same / "report.json").read_bytes() == (alone / "report.json").read_bytes()


class TestSuiteTable:
    def test_runner_signatures_match_params(self):
        for name, suite in suites.SUITES.items():
            assert list(inspect.signature(suite.runner).parameters) == [p.name for p in suite.params], name

    def test_defaults_in_range(self):
        for suite in suites.SUITES.values():
            for p in suite.params:
                if p.default is not None:
                    p.check(p.default)

    def test_run_fills_defaults(self):
        report, csvs = suites.run("moduli", {"c1a": 0})
        assert report["config"] == {"n": 2, "genus": 0, "c1a": 0, "dimx": 0} and csvs == {}

    def test_run_checks_choices(self):
        with pytest.raises(ValueError, match="--surface must be one of sphere, torus, got plane"):
            suites.run("index", {"surface": "plane"})


# each flag out of its declared range or choices, with the flag the error must name
BAD_FLAGS = [
    (["index", "--surface", "torus", "--cutoff", "6", "--target-rank", "0"], "--target-rank"),
    (["index", "--surface", "torus", "--cutoff", "6", "--target-rank", "-1"], "--target-rank"),
    (["index", "--threshold", "-1"], "--threshold"),
    (["index", "--threshold", "nan"], "--threshold"),
    (["flat", "--trials", "0"], "--trials"),
    (["flat", "--trials", "-5"], "--trials"),
    (["identities", "--trials", "0", "--energy-trials", "0"], "--trials"),
    (["identities", "--energy-trials", "0"], "--energy-trials"),
    (["verify-components", "BUNDLE", "--tol", "inf"], "--tol"),
    (["verify-components", "BUNDLE", "--tol", "nan"], "--tol"),
    (["verify-components", "BUNDLE", "--tol", "-1"], "--tol"),
    (["linearize", "--step", "0"], "--step"),
    (["linearize", "--step", "nan"], "--step"),
    (["linearize", "--grid", "4000"], "--grid"),
    (["linearize", "--grid", "324"], "--grid"),
    (["linearize", "--grid", "3"], "--grid"),
    (["flat", "--seed", "-1"], "--seed"),
    (["moduli", "--n", "0"], "--n"),
    (["moduli", "--genus", "-1"], "--genus"),
    (["moduli", "--dimx", "-1"], "--dimx"),
]


@pytest.mark.parametrize("argv,flag", BAD_FLAGS, ids=[" ".join(a) for a, _ in BAD_FLAGS])
def test_out_of_range_flag_exit_2(argv, flag, tmp_path, capsys, monkeypatch):
    def no_work(**kwargs):
        raise AssertionError("suite ran before its parameters were checked")

    for name, suite in suites.SUITES.items():
        monkeypatch.setitem(suites.SUITES, name, dataclasses.replace(suite, runner=no_work))
    if "BUNDLE" in argv:
        bundle, *_ = TestVerifyComponents()._solution_bundle(tmp_path)
        argv = [str(bundle) if a == "BUNDLE" else a for a in argv]
    assert run(argv, tmp_path) == 2
    assert f"error: {flag} must be " in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_non_finite_values_in_reports(tmp_path, capsys, monkeypatch):
    # a check value is written as a JSON string; any other non-finite number
    # exits 2 before report.json is opened
    assert [suites._check("c", False, v, 1.0, "oracle")["value"] for v in (np.nan, np.inf, -np.inf)] == [
        "NaN", "Infinity", "-Infinity",
    ]
    stray = ({"checks": [], "config": {"h": float("inf")}, "passed": True}, {})
    monkeypatch.setattr(suites, "run", lambda name, params: stray)
    assert run(["flat"], tmp_path) == 2
    assert "not JSON compliant" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


class TestVerifyFlat:
    def test_holomorphic_file_passes(self, tmp_path):
        L = 2
        comp = SuperField.from_text(
            L, "1.0 * x1 + (0+1j) * x2 + 1.0 * e3 * l1 + (0+1j) * e4 * l1"
        )
        path = tmp_path / "map.json"
        write_flat_map(path, L, [comp])
        L2, comps = read_flat_map(path)
        assert L2 == L and comps[0] == comp
        assert run(["verify-flat", str(path)], tmp_path) == 0

    def test_nonholomorphic_file_fails(self, tmp_path):
        L = 2
        comp = SuperField.from_text(L, "1.0 * x1")  # depends on zbar
        path = tmp_path / "map.json"
        write_flat_map(path, L, [comp])
        code = main(["--out-dir", str(tmp_path), "verify-flat", str(path)])
        assert code == 1
        report = json.loads((tmp_path / "report.json").read_text())
        by_name = {c["name"]: c for c in report["checks"]}
        assert not by_name["first-order residual vanishes"]["passed"]
        assert by_name["residual agrees with the holomorphy criterion"]["passed"]


@pytest.mark.parametrize("dead", ["none", "some", "all"])
@pytest.mark.parametrize("shape", [(16, 8, 8), (16, 8, 8, 2, 3)])
def test_point_max_over_live_blocks_matches_all_blocks(dead, shape):
    # masks that are not live (+0.0 or -0.0 in the dense field) hold no maximum:
    # the per-point maxima over the packed blocks are those over every block,
    # byte for byte, also with a live block that is all zero
    rng = np.random.default_rng(len(shape))
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    zero = {"none": [], "some": [0, 3, 4, 9, 15], "all": list(range(16))}[dead]
    block[zero] = 0.0
    if zero:
        block[zero[-1]] = complex(-0.0, -0.0)
    expected = np.abs(block).max(axis=(0, *range(3, block.ndim)))
    packed = pack(block)
    for field in (packed, packed.grow(tuple(range(16)))):
        got = suites._point_max(field)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    if dead == "all":
        assert not np.signbit(got).any() and not got.any()


class TestVerifyComponents:
    def _solution_bundle(self, tmp_path):
        rng = np.random.default_rng(0)
        L, M = 2, 8
        model_desc = {"kind": "flat", "n": 1}
        J0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        v = np.array([1.0, -2.0])
        psi = gzeros(L, (M, M, 2, 2))
        psi[1, :, :, 0, :] = v
        psi[1, :, :, 1, :] = v @ J0
        cmap = dataclasses.replace(holomorphic_base_map(L, M, 2), psi=psi)
        grav = Gravitino.zero(L, M)
        patch = ReducedPatch(M)
        path = tmp_path / "bundle.txt"
        write_field_bundle(path, cmap, grav, patch, model_desc)
        return path, cmap, grav, patch

    def test_roundtrip(self, tmp_path):
        path, cmap, grav, patch = self._solution_bundle(tmp_path)
        cmap2, grav2, patch2, desc = read_field_bundle(path)
        assert cmap2.psi.masks == cmap.psi.masks == (1,) and max_abs(cmap2.psi - cmap.psi) <= 1e-15
        assert np.abs(cmap2.phi_linear - cmap.phi_linear).max() == 0.0
        assert np.all(patch2.lam == 1.0)
        assert desc == {"kind": "flat", "n": 1}

    def test_solution_passes(self, tmp_path):
        path, *_ = self._solution_bundle(tmp_path)
        assert run(["verify-components", str(path)], tmp_path) == 0
        assert (tmp_path / "residual_field.csv").exists()

    def test_nonsolution_fails(self, tmp_path):
        rng = np.random.default_rng(1)
        L, M = 2, 8
        cmap = ComponentMap.zero(L, M, 2)
        cmap.phi_linear = np.array([[1.0, 0.0], [0.0, -1.0]])
        grav = Gravitino.zero(L, M)
        path = tmp_path / "bad.txt"
        write_field_bundle(path, cmap, grav, ReducedPatch(M), {"kind": "flat", "n": 1})
        assert run(["verify-components", str(path)], tmp_path) == 1

    def test_curved_gauge_roundtrip(self, tmp_path):
        L, M = 2, 8
        xs = np.arange(M) / M
        x1, x2 = np.meshgrid(xs, xs, indexing="ij")
        lam = np.exp(0.1 * np.sin(2 * np.pi * x1))
        patch = ReducedPatch(M, lam=lam)
        cmap = ComponentMap.zero(L, M, 2)
        grav = Gravitino.zero(L, M)
        path = tmp_path / "curved.txt"
        write_field_bundle(path, cmap, grav, patch, {"kind": "flat", "n": 1})
        _, _, patch2, _ = read_field_bundle(path)
        assert not patch2.uniform_gauge
        assert np.abs(patch2.lam - lam).max() <= 1e-15


def _edit_records(path, edit):
    header, *records = path.read_text().splitlines()
    rows = edit([r.split() for r in records])
    path.write_text("\n".join([header] + [" ".join(r) for r in rows] + [""]))


class TestIndexLimits:
    @pytest.mark.parametrize("degree,cutoff", [(1, 24), (0, 60), (0, 84)])
    def test_large_sphere_cutoff_passes(self, degree, cutoff, tmp_path):
        # cutoffs where the monomial Grams of a sector pass condition 1e14
        argv = ["index", "--surface", "sphere", "--degree", str(degree), "--cutoff", str(cutoff)]
        assert run(argv, tmp_path) == 0
        rep = json.loads((tmp_path / "report.json").read_text())["index_report"]
        assert (rep["kernel_dim"], rep["cokernel_dim"]) == (degree + 1, 0)
        assert rep["conclusive"] and 0.0 < rep["basis_orthonormality_defect"] <= 1e-12

    @pytest.mark.parametrize(
        "argv,first",
        [
            (["index", "--surface", "sphere", "--degree", "0", "--cutoff", "201"], True),
            (["index", "--surface", "sphere", "--degree", "0", "--cutoff", "3000000"], True),
            (["index", "--surface", "sphere", "--degree", "67", "--cutoff", "69"], False),  # D10 at 203
            (["bochner", "--cutoff", "201"], True),
            (["bochner", "--cutoff", "3000000"], True),
        ],
    )
    def test_sphere_cutoff_over_limit_exit_2(self, argv, first, tmp_path, capsys, monkeypatch):
        from sjclab import indexlab

        def no_rule(n):
            raise AssertionError("quadrature built before the limit check")

        if first:
            monkeypatch.setattr(indexlab, "_gauss_legendre", no_rule)
        assert run(argv, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"is above the limit of {indexlab.SPHERE_CUTOFF_LIMIT}" in err
        assert not (tmp_path / "report.json").exists()

    def test_kept_value_near_the_cut_is_inconclusive(self, tmp_path):
        # sigma_1 = sqrt(3/2) lies 19x above the cut 0.01 sqrt(40): no zero mode sits
        # near it, so the gap ratio is unbounded, but the kept margin is below 1e3
        argv = ["index", "--surface", "sphere", "--degree", "1", "--cutoff", "8", "--threshold", "0.01"]
        assert run(argv, tmp_path) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failing == ["kernel of dbar on O(1)"]
        rep = report["index_report"]
        assert rep["kernel_dim"] == 2 and not rep["conclusive"]
        assert rep["kept_margin"] == pytest.approx(np.sqrt(1.5) / (0.01 * np.sqrt(40)), rel=1e-12)

    def test_torus_cutoff_64(self, tmp_path):
        argv = ["index", "--surface", "torus", "--target-rank", "1", "--cutoff", "64"]
        assert run(argv, tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["index_report"]["kernel_dim"] == 4
        assert report["index_report"]["numeric_index"] == 0

    @pytest.mark.parametrize("rank,cutoff", [(1, 100000), (1, 257), (2, 129)])
    def test_torus_cutoff_over_limit_exit_2(self, rank, cutoff, tmp_path, capsys, monkeypatch):
        from sjclab import indexlab

        def no_modes(M):
            raise AssertionError("mode arrays allocated before the limit check")

        monkeypatch.setattr(indexlab, "_torus_modes", no_modes)
        argv = ["index", "--surface", "torus", "--target-rank", str(rank), "--cutoff", str(cutoff)]
        assert run(argv, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"above the limit of {indexlab.TORUS_ENTRY_LIMIT} entries" in err
        assert f"torus cutoff {cutoff} at target rank {rank}" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [["index", "--surface", "sphere", "--cutoff", "8"], ["index", "--surface", "torus", "--cutoff", "6"],
         ["bochner", "--cutoff", "8"]],
        ids=["sphere", "torus", "bochner"],
    )
    def test_singular_values_csv_holds_numbers(self, argv, tmp_path):
        assert run(argv, tmp_path) == 0
        header, *rows = (tmp_path / "singular_values.csv").read_text().splitlines()
        assert header == "index,sigma" and rows
        for i, row in enumerate(rows):
            index, sigma = row.split(",")
            assert int(index) == i and float(sigma) >= 0.0


TORUS_CHECKS = [
    "torus Dirac anti-self-adjointness",
    "torus Dirac kernel (constant spinors)",
    "torus Dirac index",
    "torus adjoint deviation",
    "torus index sum",
]


class TestTorusIndexChecks:
    @pytest.mark.parametrize("rank,cutoff", [(1, 6), (1, 14), (2, 8)])
    def test_check_list(self, rank, cutoff, tmp_path):
        argv = ["index", "--surface", "torus", "--target-rank", str(rank), "--cutoff", str(cutoff)]
        assert run(argv, tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert [c["name"] for c in report["checks"]] == TORUS_CHECKS

    def test_broken_adjoint_at_a_high_mode_fails(self, tmp_path, monkeypatch):
        """The chiral checks see every mode of the request's own operator.

        A Hermitian, chirality-swapping term on mode (4, 0), which exists only
        at cutoff >= 8, breaks D01 = -D10*.  A relation checked on a separate
        operator at cutoff 6 has no such mode and would still PASS.
        """
        from sjclab import indexlab

        build = indexlab.build_dirac_torus

        def broken(n_target, M):
            op = build(n_target, M)
            (stack,) = op.stacks
            if "mode (4,0)" in stack.labels:
                # adds 0.5i times the block: Hermitian, and chirality-swapping like the block
                stack.matrix[stack.labels.index("mode (4,0)")] *= 1 + 0.5j
            return op

        monkeypatch.setattr(indexlab, "build_dirac_torus", broken)
        assert run(["index", "--surface", "torus", "--cutoff", "10"], tmp_path) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        assert "torus adjoint deviation" in failing


def _set(rec, k, token):
    rec = list(rec)
    rec[k] = token
    return rec


# record edits on an 8x8 bundle, and a fragment the error message must contain
BAD_RECORDS = {
    "ragged": (lambda rs: rs[:5] + [rs[5][:-1]] + rs[6:], "malformed field bundle record"),
    "short": (lambda rs: [r[:-2] for r in rs], "values, expected"),
    "missing": (lambda rs: rs[:-1], "63 of the M^2 = 64 grid records"),
    "half-missing": (lambda rs: rs[::2], "32 of the M^2 = 64 grid records"),
    "duplicate": (lambda rs: rs[:-1] + [rs[9]], "duplicate records for grid point (1, 1)"),
    "out-of-range": (lambda rs: rs[:-1] + [_set(rs[-1], 0, "8")], "grid index (8, 7)"),
    "negative": (lambda rs: rs[:-1] + [_set(rs[-1], 1, "-1")], "grid index (7, -1)"),
    "non-integer": (lambda rs: rs[:-1] + [_set(rs[-1], 1, "6.5")], "grid index (7, 6.5)"),
    "nan": (lambda rs: rs[:3] + [_set(rs[3], 20, "nan")] + rs[4:], "non-finite value in record 4"),
    "inf": (lambda rs: rs[:3] + [_set(rs[3], 2, "inf")] + rs[4:], "non-finite value in record 4"),
    "lam": (lambda rs: [_set(rs[0], 2, "0.0")] + rs[1:], "lam must be positive"),
}


def _without(header, key):
    return {k: v for k, v in header.items() if k != key}


# edits of the header and the record text (records kept unless the edit returns
# a replacement body), and a fragment the error message must contain
BAD_HEADERS = {
    "no-records": (lambda h, body: (h, ""), "error: field bundle has 0 of the M^2 = 64 grid records"),
    "huge-M": (lambda h, body: (dict(h, M=1 << 20), None), "error: field bundle has 64 of the M^2 = 1099511627776 grid"),
    "list": (lambda h, body: ([h], None), "error: field bundle header must be a JSON object"),
    "small-M": (lambda h, body: (dict(h, M=3), None), "header needs M as a JSON integer >= 4, got 3"),
    "no-M": (lambda h, body: (_without(h, "M"), None), "header needs M as a JSON integer >= 4, got null"),
    "string-M": (lambda h, body: (dict(h, M="8"), None), 'header needs M as a JSON integer >= 4, got "8"'),
    "no-L": (lambda h, body: (_without(h, "L"), None), "header needs L as a JSON integer 0..64, got null"),
    "no-dim": (lambda h, body: (_without(h, "dim"), None), "header needs dim as a JSON integer >= 1, got null"),
    "no-phi-linear": (lambda h, body: (_without(h, "phi_linear"), None), "header needs phi_linear as a 2x2 array"),
    "nan-phi-linear": (lambda h, body: (dict(h, phi_linear=[[1.0, None], [0.0, 1.0]]), None), "of finite numbers"),
    "bool-phi-linear": (
        lambda h, body: (dict(h, phi_linear=[[True, False], [False, True]]), None), "header needs phi_linear as a 2x2 array"
    ),
    "string-phi-linear": (
        lambda h, body: (dict(h, phi_linear=[["1", "0"], ["0", "1"]]), None), "header needs phi_linear as a 2x2 array"
    ),
    "huge-phi-linear": (lambda h, body: (dict(h, phi_linear=[[10**400, 0], [0, 1]]), None), "of finite numbers"),
    "no-model": (lambda h, body: (_without(h, "model"), None), "header needs model as a JSON object with a string kind"),
    "no-kind": (lambda h, body: (dict(h, model={"n": 1}), None), "header needs model as a JSON object with a string kind"),
    "no-n": (lambda h, body: (dict(h, model={"kind": "flat"}), None), "error: model 'flat' has no 'n'"),
    "lambda-value": (
        lambda h, body: (dict(h, **{"lambda": "curved"}), None), 'header needs lambda as "flat" or "grid", got "curved"'
    ),
    # the first record's lam, under the header's "flat"
    "lambda-flat-over-curved": (
        lambda h, body: (h, body.replace(" 1.0 ", " 1.5 ", 1)), 'header says lambda "flat", but lam is not 1.0'
    ),
}


# model headers that must exit 2, and the message naming the bad key
BAD_MODELS = {
    "float-n": ({"kind": "flat", "n": 1.7}, "model 'flat' needs n as a JSON integer >= 1, got 1.7"),
    "bool-n": ({"kind": "flat", "n": True}, "model 'flat' needs n as a JSON integer >= 1, got true"),
    "string-n": ({"kind": "flat", "n": "x"}, 'model \'flat\' needs n as a JSON integer >= 1, got "x"'),
    "zero-n": ({"kind": "flat", "n": 0}, "model 'flat' needs n as a JSON integer >= 1, got 0"),
    "hsc-bool-n": (
        {"kind": "constant-hsc", "n": True, "sigma": 4.0},
        "model 'constant-hsc' needs n as a JSON integer >= 1, got true",
    ),
    # Fubini-Study goes through the same check of n, which must be 1
    "fs-n-5": (
        {"kind": "fubini-study-CP1", "n": 5},
        "model 'fubini-study-CP1' needs n as the JSON integer 1, got 5",
    ),
    "fs-string-n": (
        {"kind": "fubini-study-CP1", "n": "abc"},
        'model \'fubini-study-CP1\' needs n as the JSON integer 1, got "abc"',
    ),
    "fs-no-n": ({"kind": "fubini-study-CP1"}, "model 'fubini-study-CP1' has no 'n'"),
    "nan-sigma": (
        {"kind": "constant-hsc", "n": 1, "sigma": float("nan")},
        "model 'constant-hsc' needs sigma as a finite JSON number, got NaN",
    ),
    "string-sigma": (
        {"kind": "constant-hsc", "n": 1, "sigma": "4.0"},
        'model \'constant-hsc\' needs sigma as a finite JSON number, got "4.0"',
    ),
    "bool-sigma": (
        {"kind": "constant-hsc", "n": 1, "sigma": False},
        "model 'constant-hsc' needs sigma as a finite JSON number, got false",
    ),
    "huge-sigma": (
        {"kind": "constant-hsc", "n": 1, "sigma": 10**400},
        "model 'constant-hsc' needs sigma as a finite JSON number, got 1000",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_MODELS))
def test_bad_model_header_exit_2(case, tmp_path, capsys):
    model, message = BAD_MODELS[case]
    L, M = 2, 8
    path = tmp_path / "zero.txt"
    write_field_bundle(path, ComponentMap.zero(L, M, 2), Gravitino.zero(L, M), ReducedPatch(M), model)
    assert run(["verify-components", str(path)], tmp_path) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("n", [24, 10**6])
def test_model_dimension_checked_before_the_model_is_built(n, tmp_path, capsys):
    # a constant-hsc model of rank n holds a (2n)^4 curvature tensor: 82 MiB at n = 24
    L, M = 2, 8
    path = tmp_path / "zero.txt"
    model = {"kind": "constant-hsc", "n": n, "sigma": 4.0}
    write_field_bundle(path, ComponentMap.zero(L, M, 2), Gravitino.zero(L, M), ReducedPatch(M), model)
    tracemalloc.start()
    try:
        code = run(["verify-components", str(path)], tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"error: map has 2 target components, model needs {2 * n}" in capsys.readouterr().err
    assert peak < 5 * 2**20


class TestBundleValidation:
    @pytest.mark.parametrize("case", sorted(BAD_HEADERS))
    def test_bad_header_exit_2(self, case, tmp_path, capsys):
        path, *_ = TestVerifyComponents()._solution_bundle(tmp_path)
        header, body = path.read_text().split("\n", 1)
        edit, message = BAD_HEADERS[case]
        new_header, new_body = edit(json.loads(header), body)
        path.write_text(json.dumps(new_header) + "\n" + (body if new_body is None else new_body))
        assert run(["verify-components", str(path)], tmp_path) == 2
        assert message in capsys.readouterr().err

    def test_deeply_nested_header_exit_2(self, tmp_path, capsys):
        # json raises RecursionError here, which is no ValueError
        path, *_ = TestVerifyComponents()._solution_bundle(tmp_path)
        body = path.read_text().split("\n", 1)[1]
        path.write_text("[" * 200000 + "\n" + body)
        assert run(["verify-components", str(path)], tmp_path) == 2
        assert f"error: field bundle header of {path} nests JSON too deeply to parse" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("gauge", [None, "grid", "flat"])
    def test_lambda_key_is_optional(self, gauge, tmp_path):
        # a flat lam column passes under "flat", under "grid" and with no key
        path, *_ = TestVerifyComponents()._solution_bundle(tmp_path)
        header, body = path.read_text().split("\n", 1)
        header = _without(json.loads(header), "lambda")
        path.write_text(json.dumps(header if gauge is None else dict(header, **{"lambda": gauge})) + "\n" + body)
        assert run(["verify-components", str(path)], tmp_path) == 0

    @pytest.mark.parametrize("case", sorted(BAD_RECORDS))
    def test_bad_records_exit_2(self, case, tmp_path, capsys):
        path, *_ = TestVerifyComponents()._solution_bundle(tmp_path)
        edit, message = BAD_RECORDS[case]
        _edit_records(path, edit)
        assert run(["verify-components", str(path)], tmp_path) == 2
        assert message in capsys.readouterr().err

    @staticmethod
    def _generic_bundle(tmp_path):
        # generic doubles on a curved gauge, on several masks of every field
        rng = np.random.default_rng(5)
        L, M = 2, 8
        phi, psi, F, chi = (gzeros(L, (M, M) + shape) for shape in ((2,), (2, 2), (2,), (2, 2)))
        phi[0] = rng.standard_normal((M, M, 2))
        phi[3] = rng.standard_normal((M, M, 2))
        psi[1:3] = rng.standard_normal((2, M, M, 2, 2)) + 1j * rng.standard_normal((2, M, M, 2, 2))
        F[0] = rng.standard_normal((M, M, 2)) + 1j * rng.standard_normal((M, M, 2))
        chi[2] = rng.standard_normal((M, M, 2, 2)) * 1e-300
        cmap = ComponentMap(L=L, phi_linear=np.zeros((2, 2)), phi_periodic=phi, psi=psi, F=F)
        grav = Gravitino(L=L, chi=chi)
        patch = ReducedPatch(M, lam=np.exp(rng.uniform(-0.1, 0.1, size=(M, M))))
        path = tmp_path / "generic.txt"
        write_field_bundle(path, cmap, grav, patch, {"kind": "flat", "n": 1})
        return path, L

    @staticmethod
    def _assert_read_as_tokens(path, L):
        # every value against a per-token float() parse of its record
        cmap2, grav2, patch2, _ = read_field_bundle(path)
        for record in path.read_text().splitlines()[1:]:
            tokens = record.split()
            i, j = int(tokens[0]), int(tokens[1])
            assert patch2.lam[i, j] == float(tokens[2])
            vals = [float(t) for t in tokens[3:]]
            expected = [complex(re, im) for re, im in zip(vals[0::2], vals[1::2])]
            got = np.concatenate(
                [dense(a, L)[:, i, j].ravel() for a in (cmap2.phi_periodic, cmap2.psi, cmap2.F, grav2.chi)]
            )
            assert got.tolist() == expected

    def test_reader_matches_token_loop(self, tmp_path):
        self._assert_read_as_tokens(*self._generic_bundle(tmp_path))

    def test_reader_chunks_match_token_loop(self, tmp_path, monkeypatch):
        # five records per np.loadtxt call: the 64 shuffled records arrive in 13 chunks
        path, L = self._generic_bundle(tmp_path)
        _edit_records(path, lambda rs: [rs[k] for k in np.random.default_rng(1).permutation(len(rs))])
        one_chunk, *_ = read_field_bundle(path)
        monkeypatch.setattr(serialize, "READ_CHUNK_VALUES", 5 * len(path.read_text().splitlines()[1].split()))
        self._assert_read_as_tokens(path, L)
        chunked, *_ = read_field_bundle(path)
        for name in ("phi_periodic", "psi", "F"):
            assert getattr(chunked, name).masks == getattr(one_chunk, name).masks
        _edit_records(path, lambda rs: rs[:40] + [_set(rs[40], 20, "nan")] + rs[41:])
        with pytest.raises(ValueError, match="non-finite value in record 41$"):
            read_field_bundle(path)

    def test_records_in_any_order(self, tmp_path):
        path, cmap, *_ = TestVerifyComponents()._solution_bundle(tmp_path)
        _edit_records(path, lambda rs: rs[::-1])
        cmap2, *_ = read_field_bundle(path)
        assert cmap2.psi.masks == cmap.psi.masks and np.array_equal(cmap2.psi.blocks, cmap.psi.blocks)
        assert run(["verify-components", str(path)], tmp_path) == 0


class TestFlatMapValidation:
    @pytest.mark.parametrize(
        "n,texts",
        [
            (2, ["1.0 * x1 + (0+1j) * x2"]),
            (0, []),
            (None, ["1.0 * x1 + (0+1j) * x2"]),
            (True, ["1.0 * x1 + (0+1j) * x2"]),
            (1.0, ["1.0 * x1 + (0+1j) * x2"]),
        ],
        ids=["n-mismatch", "empty", "n-missing", "bool-n", "float-n"],
    )
    def test_bad_header_exit_2(self, n, texts, tmp_path, capsys):
        payload = {"schema": 1, "L": 2, "components_z": texts}
        if n is not None:
            payload["n"] = n
        path = tmp_path / "map.json"
        path.write_text(json.dumps(payload))
        assert run(["verify-flat", str(path)], tmp_path) == 2
        err = capsys.readouterr().err
        assert "n as a JSON integer, n == len(components_z) >= 1" in err and f"got n={json.dumps(n)}" in err

    @pytest.mark.parametrize(
        "payload,message",
        [
            ([1], "unsupported flat-map schema"),
            ({"schema": 1, "L": 2, "n": 1, "components_z": [3]}, "literal strings"),
            ({"schema": 1, "L": 2, "n": 1}, "flat map has no components_z list"),
        ],
        ids=["not-an-object", "non-string-component", "no-components"],
    )
    def test_malformed_payload_exit_2(self, payload, message, tmp_path, capsys):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(payload))
        assert run(["verify-flat", str(path)], tmp_path) == 2
        assert message in capsys.readouterr().err

    def test_deeply_nested_payload_exit_2(self, tmp_path, capsys):
        # json raises RecursionError here, which is no ValueError
        path = tmp_path / "map.json"
        path.write_text("[" * 200000)
        assert run(["verify-flat", str(path)], tmp_path) == 2
        assert f"error: flat map {path} nests JSON too deeply to parse" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "L,code",
        [(None, 2), (2.7, 2), ("2", 2), (True, 2), (-1, 2), (FLAT_MAP_MAX_L + 1, 2), (0, 0), (FLAT_MAP_MAX_L, 0)],
        ids=["missing", "float", "string", "bool", "negative", "above-bound", "zero", "at-bound"],
    )
    def test_generator_count_checked(self, L, code, tmp_path, capsys):
        payload = {"schema": 1, "n": 1, "components_z": ["1.0 * x1 + (0+1j) * x2"]}
        if L is not None:
            payload["L"] = L
        path = tmp_path / "map.json"
        path.write_text(json.dumps(payload))
        assert run(["verify-flat", str(path)], tmp_path) == code
        err = capsys.readouterr().err
        assert ("error: flat" in err and "generator count L" in err) if code else err == ""


Z = "1.0 * x1 + (0+1j) * x2"  # the holomorphic coordinate z


class TestLiteralParsing:
    """A term is the product of its factors in the written order; anything else exits 2."""

    def _verify(self, text, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"schema": 1, "L": 2, "n": 1, "components_z": [text]}))
        return run(["verify-flat", str(path)], tmp_path)

    @pytest.mark.parametrize(
        "text,code",
        [
            # e4 e3 = -e3 e4, so this is 4i e3 e4: a theta theta_bar term
            ("(0+2j) * e3 e4 + (0-2j) * e4 e3", 1),
            # l1 e3 = -e3 l1, so this is z + theta l1
            (Z + " + -1.0 * l1 * e3 + (0+1j) * e4 * l1", 0),
            # e3 e3 = 0, so this is z
            (Z + " + 1.0 * e3 e3 l1", 0),
            # an exponent sign is not read as a term separator
            ("1e+20 * x1 + (0+1e+20j) * x2", 0),
        ],
        ids=["e4-e3", "l1-e3", "e3-e3", "exponent-plus"],
    )
    def test_written_order(self, text, code, tmp_path):
        assert self._verify(text, tmp_path) == code
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["checks"][0]["passed"] == (code == 0)

    @pytest.mark.parametrize(
        "text,token",
        [
            ("1.0 * x1^-1", "'x1^-1'"),
            ("1.0 * x12", "'x12'"),
            ("1.0 * x1^", "'x1^'"),
            ("nan * x1", "'nan'"),
            ("inf", "'inf'"),
            ("1 0 * x1", "'1 0'"),
            ("1_0 * x1", "'1_0'"),
            ("x1 * * x2", "'x1 * * x2'"),
            ("x1 +", "term 2"),
            ("x1 + + x2", "term 2"),
            # complex() reads Arabic-Indic and full-width digits: 10 * x1 and x1
            pytest.param("\u0661\u0660 * x1", "bad coefficient '\u0661\u0660'", id="arabic-indic-digits"),
            pytest.param("\uff11 * x1", "bad coefficient '\uff11'", id="full-width-digit"),
            # a power past the cap is named before int() meets its 5000 digits
            pytest.param(
                "1.0 * x1^" + "1" * 5000, "x power 'x1^111111111111111111111'... in superfield literal", id="long-power"
            ),
        ],
    )
    def test_bad_literal_exit_2(self, text, token, tmp_path, capsys):
        assert self._verify(text, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and token in err
        assert not (tmp_path / "report.json").exists()


REPO = Path(__file__).resolve().parents[1]


def readme_suite_examples() -> list[list[str]]:
    """The argument lists of the ``sjc`` lines in the README "Suites:" block."""
    text = (REPO / "README.md").read_text()
    block = text.split("Suites:\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#")[0].split()[1:] for line in block.splitlines() if line.startswith("sjc ")]


class TestReadmeExamples:
    @pytest.mark.parametrize(
        "argv",
        readme_suite_examples(),
        ids=" ".join,
    )
    def test_example_passes(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(REPO)
        assert run(argv, tmp_path) == 0

    def test_examples_cover_every_suite(self):
        assert {a[0] for a in readme_suite_examples()} == set(suites.SUITES)

    def test_sample_map_is_written_by_write_flat_map(self, tmp_path):
        L = 2
        z_plus_theta_l1 = SuperField.coordinate_z(L) + SuperField.theta(L) * SuperField.base_generator(L, 1)
        write_flat_map(tmp_path / "map.json", L, [z_plus_theta_l1])
        sample = REPO / "samples" / "holomorphic_map.json"
        assert (tmp_path / "map.json").read_bytes() == sample.read_bytes()

    def test_sample_bundle_is_written_by_write_field_bundle(self, tmp_path):
        # M = 8, L = 2, psi on the odd mask 0b01, chi zero: the bundle CI runs through sjc
        path, cmap, grav, _ = TestVerifyComponents()._solution_bundle(tmp_path)
        assert (cmap.L, cmap.M, cmap.psi.masks, grav.chi.masks) == (2, 8, (1,), ())
        assert path.read_bytes() == (REPO / "samples" / "solution_bundle.txt").read_bytes()

    def test_sample_bundle_passes(self, tmp_path):
        assert run(["verify-components", str(REPO / "samples" / "solution_bundle.txt")], tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] and len(report["checks"]) == 4
        assert all(c["passed"] and c["value"] == 0.0 for c in report["checks"])
