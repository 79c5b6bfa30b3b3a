import numpy as np
import pytest

from sjclab.targets import (
    ModelError,
    hsc_curvature_lowered,
    make_const_hsc,
    make_flat,
    make_fs_cp1,
    make_model,
    standard_J,
)
from targets_oracle import sectional_value, validate_model, with_synthetic_nablaJ


def fs_christoffel_jet(y):
    """dG[l, k, i, j] = d/dy^l Gamma^k_{ij} of the metric e^{2 rho} delta, rho = -log(1 + |y|^2).

    Gamma^k_{ij} = delta_ki d_j rho + delta_kj d_i rho - delta_ij d_k rho, so the
    jet is the same pattern on the Hessian H of rho.
    """
    s = 1.0 + y @ y
    H = -2.0 * (s * np.eye(2) - 2.0 * np.outer(y, y)) / s**2
    d = np.eye(2)
    return np.einsum("ki,jl->lkij", d, H) + np.einsum("kj,il->lkij", d, H) - np.einsum("ij,kl->lkij", d, H)


def curvature_from_christoffels(model, y):
    """Oracle: R(e_i, e_j) e_l from the connection coefficients and their jets."""
    G = model.christoffel_at(y)
    dG = fs_christoffel_jet(y)
    R = np.zeros((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            for l in range(2):
                for k in range(2):
                    R[i, j, l, k] = (
                        dG[i][k, j, l]
                        - dG[j][k, i, l]
                        + sum(G[k, i, m] * G[m, j, l] - G[k, j, m] * G[m, i, l] for m in range(2))
                    )
    return R


class TestModelValidation:
    @pytest.mark.parametrize(
        "model,tol",
        [
            (make_flat(2), 1e-12),
            (make_const_hsc(4.0, 2), 1e-12),
            (make_const_hsc(-4.0, 1), 1e-12),
            (make_fs_cp1(), 1e-9),
        ],
        ids=["flat", "hsc4", "hsc-4", "fs-cp1"],
    )
    def test_invariants_at_100_points(self, model, tol):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.8, 0.8, size=(100, model.dim))
        rep = validate_model(model, pts, tol=tol)
        assert rep.passed, {k: v for k, v in rep.checks.items() if not v["passed"]}

    def test_flat_deviations_exactly_zero(self):
        rep = validate_model(make_flat(1), np.zeros((3, 2)), tol=0.0)
        assert rep.passed

    def test_corrupted_J_fails(self):
        model = make_flat(1)
        bad = type(model)(
            kind="flat",
            n=1,
            J_at=lambda y: np.eye(2),  # not a complex structure
            metric_at=model.metric_at,
            christoffel_at=model.christoffel_at,
            nablaJ_at=model.nablaJ_at,
            curvature_at=model.curvature_at,
        )
        rep = validate_model(bad, np.zeros((1, 2)))
        assert not rep.checks["J_squared"]["passed"]

    def test_descriptor_roundtrip(self):
        m = make_model({"kind": "constant-hsc", "n": 2, "sigma": -4.0}, 4)
        y = np.zeros(4)
        assert m.n == 2 and np.array_equal(m.curvature_at(y), make_const_hsc(-4.0, 2).curvature_at(y))
        with pytest.raises(ModelError):
            make_model({"kind": "nope"}, 2)


class TestConstantHsc:
    def test_sigma_zero_is_flat(self):
        m = make_const_hsc(0.0, 2)
        assert np.abs(m.curvature_at(np.zeros(4))).max() == 0.0

    @pytest.mark.parametrize("sigma", [4.0, -4.0])
    def test_sectional_value_on_unit_vectors(self, sigma):
        rng = np.random.default_rng(1)
        m = make_const_hsc(sigma, 2)
        for _ in range(20):
            X = rng.standard_normal(4)
            X /= np.linalg.norm(X)
            assert abs(sectional_value(m, np.zeros(4), X) - sigma) <= 1e-12

    def test_matches_fubini_study_at_origin(self):
        fs = make_fs_cp1()
        hsc = make_const_hsc(4.0, 1)
        y0 = np.zeros(2)
        assert np.abs(fs.curvature_at(y0) - hsc.curvature_at(y0)).max() <= 1e-14

    def test_tensor_formula_antisymmetry_generic_metric(self):
        # the closed form keeps its symmetries for any compatible (n, J) pair
        J = standard_J(1)
        n_mat = 2.7 * np.eye(2)
        R = hsc_curvature_lowered(4.0, n_mat, J)
        assert np.abs(R + R.transpose(1, 0, 2, 3)).max() <= 1e-14
        assert np.abs(R - R.transpose(2, 3, 0, 1)).max() <= 1e-14


class TestFubiniStudy:
    def test_curvature_consistent_with_christoffels(self):
        fs = make_fs_cp1()
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(50):
            y = rng.uniform(-0.9, 0.9, size=2)
            worst = max(
                worst,
                float(np.abs(curvature_from_christoffels(fs, y) - fs.curvature_op_at(y)).max()),
            )
        assert worst <= 1e-9

    def test_christoffel_jet_matches_finite_differences(self):
        # the jet the curvature test uses, against the model's Christoffels
        fs = make_fs_cp1()
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(10):
            y = rng.uniform(-0.5, 0.5, size=2)
            dG = fs_christoffel_jet(y)
            for l in range(2):
                e = np.zeros(2)
                e[l] = h
                fd = (fs.christoffel_at(y + e) - fs.christoffel_at(y - e)) / (2 * h)
                assert np.abs(fd - dG[l]).max() <= 1e-6

    def test_sectional_value_everywhere_four(self):
        fs = make_fs_cp1()
        rng = np.random.default_rng(4)
        for _ in range(20):
            y = rng.uniform(-0.7, 0.7, size=2)
            X = rng.standard_normal(2)
            X = X / np.sqrt(X @ fs.metric_at(y) @ X)
            assert abs(sectional_value(fs, y, X) - 4.0) <= 1e-10


class TestSyntheticNablaJ:
    def test_anticommutes_with_J_and_metric_antisymmetric(self):
        rng = np.random.default_rng(8)
        base = make_flat(2)
        seeds = rng.standard_normal((4, 4, 4))
        model = with_synthetic_nablaJ(base, seeds)
        J = model.J_at(np.zeros(4))
        nJ = model.nablaJ_at(np.zeros(4))
        for a in range(4):
            A = nJ[a]
            assert np.abs(A @ J + J @ A).max() <= 1e-12
            assert np.abs(A + A.T).max() <= 1e-12
        rep = validate_model(model, np.zeros((2, 4)), tol=1e-12)
        assert rep.checks["nabla_bar_J"]["passed"]


CHART_FIELDS = (
    "J_at",
    "metric_at",
    "christoffel_at",
    "nablaJ_at",
    "curvature_at",
    "curvature_op_at",
)


def pointwise(ev, ys):
    return np.array([[ev(y) for y in row] for row in ys])


class TestBatchedEvaluators:
    def test_fubini_study_batch_equals_pointwise(self):
        fs = make_fs_cp1()
        ys = np.random.default_rng(9).uniform(-1.5, 1.5, size=(12, 9, 2))
        for name in CHART_FIELDS:
            ev = getattr(fs, name)
            batch = ev(ys)
            assert batch.shape[:2] == ys.shape[:2], name
            assert np.array_equal(batch, pointwise(ev, ys)), name

    def test_synthetic_nablaJ_batch_equals_pointwise(self):
        rng = np.random.default_rng(10)
        for base in (make_flat(2), make_fs_cp1()):
            dim = base.dim
            model = with_synthetic_nablaJ(base, rng.standard_normal((dim, dim, dim)))
            ys = rng.uniform(-1.0, 1.0, size=(7, 5, dim))
            batch = model.nablaJ_at(ys)
            assert batch.shape == (7, 5, dim, dim, dim)
            assert np.array_equal(batch, pointwise(model.nablaJ_at, ys))

    def test_constant_charts_broadcast_read_only(self):
        m = make_const_hsc(4.0, 2)
        ys = np.zeros((3, 4, 4))
        R = m.curvature_at(ys)
        assert R.shape == (3, 4, 4, 4, 4, 4)
        assert np.array_equal(R, np.broadcast_to(m.curvature_at(np.zeros(4)), R.shape))
        assert not R.flags.writeable

    @pytest.mark.parametrize(
        "model",
        [
            make_flat(1),
            make_const_hsc(-4.0, 2),
            with_synthetic_nablaJ(make_const_hsc(4.0, 1), np.ones((2, 2, 2))),
        ],
        ids=["flat", "hsc-n2", "hsc+synthetic"],
    )
    def test_constant_chart_curvature_op_broadcast_read_only(self, model):
        # evaluated once, yet equal to R n^-1 formed at every point
        assert model.constant_chart
        ys = np.random.default_rng(11).uniform(-1.0, 1.0, size=(3, 4, model.dim))
        Rop = model.curvature_op_at(ys)
        assert Rop.shape == (3, 4) + (model.dim,) * 4 and not Rop.flags.writeable
        per_point = model.curvature_at(ys) @ np.linalg.inv(model.metric_at(ys))[..., None, None, :, :]
        assert np.array_equal(Rop, per_point)
        assert np.array_equal(Rop, pointwise(model.curvature_op_at, ys))
        assert not make_fs_cp1().constant_chart
