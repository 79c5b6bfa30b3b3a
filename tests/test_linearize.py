from dataclasses import replace

import numpy as np
import pytest

from sjclab import components as C
from sjclab.fields import ComponentMap, Gravitino, GridField, max_abs
from sjclab.patch import ReducedPatch
from sjclab.spin import project_q
from sjclab.suites import holomorphic_base_map, random_direction_fields
from sjclab.targets import make_const_hsc, make_flat, make_fs_cp1


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    L, M = 2, 32
    model = make_flat(1)
    patch = ReducedPatch(M)
    cmap = holomorphic_base_map(L, M, model.dim)
    dirs = random_direction_fields(rng, L, M, model.dim)
    return L, M, model, patch, cmap, dirs


def test_xi_block_is_linearized_cauchy_riemann(setup):
    L, M, model, patch, cmap, (rho, xi, zeta, sigma) = setup
    rep = C.linearization_fd_checks(cmap, patch, model, {"xi": C.Directions(xi=xi)})["xi"]
    assert rep["passed"]
    # the only responding block is the third
    assert rep["blocks"]["cauchy_riemann"]["rel_error_h2"] <= 1e-6


def test_sigma_block_is_quarter(setup):
    L, M, model, patch, cmap, (rho, xi, zeta, sigma) = setup
    rep = C.linearization_fd_checks(cmap, patch, model, {"sigma": C.Directions(sigma=sigma)})["sigma"]
    assert rep["passed"]
    # explicit quarter: the finite difference of the second component is sigma/4
    grav0 = Gravitino.zero(L, M)
    h = 1e-3
    base = C.evaluate_base(model, cmap, patch)  # F leaves phi in place
    plus, minus = replace(cmap, F=cmap.F + h * sigma), replace(cmap, F=cmap.F - h * sigma)
    d = (C.operator_components(plus, grav0, base)[1] - C.operator_components(minus, grav0, base)[1]) / (2 * h)
    assert max_abs(d - 0.25 * sigma) <= 1e-9


def test_rho_block_responds_only_in_dirac_slot(setup):
    L, M, model, patch, cmap, (rho, xi, zeta, sigma) = setup
    grav0 = Gravitino.zero(L, M)
    h = 1e-3
    chi_plus = Gravitino(L=L, chi=h * rho)
    chi_minus = Gravitino(L=L, chi=-h * rho)
    base = C.evaluate_base(model, cmap, patch)
    cp = C.operator_components(cmap, chi_plus, base)
    cm = C.operator_components(cmap, chi_minus, base)
    d4 = (cp[3] - cm[3]) / (2 * h)
    qrho = rho.map(project_q, 1)
    expected = 2.0 * C.vee_q_pairing(qrho, base.dphi)
    assert max_abs(d4 - expected) <= 1e-9
    for p, m in zip(cp[:3], cm[:3]):
        assert max_abs((p - m) / (2 * h)) <= 1e-9


def test_zeta_block(setup):
    L, M, model, patch, cmap, (rho, xi, zeta, sigma) = setup
    rep = C.linearization_fd_checks(cmap, patch, model, {"zeta": C.Directions(zeta=zeta)})["zeta"]
    assert rep["passed"]


def test_combined_directions_with_richardson(setup):
    L, M, model, patch, cmap, dirs_tuple = setup
    rho, xi, zeta, sigma = dirs_tuple
    combined = C.Directions(rho=rho, xi=xi, zeta=zeta, sigma=sigma)
    rep = C.linearization_fd_checks(cmap, patch, model, {"combined": combined})["combined"]
    assert rep["passed"]
    for block in rep["blocks"].values():
        assert block["richardson_error"] <= 1e-6


def test_constant_hsc_model():
    rng = np.random.default_rng(1)
    L, M = 2, 16
    model = make_const_hsc(4.0, 1)
    patch = ReducedPatch(M)
    cmap = holomorphic_base_map(L, M, model.dim)
    dirs = random_direction_fields(rng, L, M, model.dim)
    combined = C.Directions(rho=dirs[0], xi=dirs[1], zeta=dirs[2], sigma=dirs[3])
    rep = C.linearization_fd_checks(cmap, patch, model, {"combined": combined})["combined"]
    assert rep["passed"]


def test_precondition_rejects_nonholomorphic_base():
    rng = np.random.default_rng(2)
    L, M = 2, 16
    model = make_flat(1)
    patch = ReducedPatch(M)
    cmap = ComponentMap.zero(L, M, 2)
    cmap.phi_linear = np.array([[1.0, 0.0], [0.0, -1.0]])  # antiholomorphic
    dirs = random_direction_fields(rng, L, M, 2)
    with pytest.raises(C.PreconditionError):
        C.linearization_fd_checks(cmap, patch, model, {"xi": C.Directions(xi=dirs[1])})


def test_fubini_study_model():
    # position-dependent chart tensors: the Christoffel terms of d_phi_operator
    # and twisted_dirac are live, where flat and constant-hsc have Gamma = 0
    rng = np.random.default_rng(3)
    L, M = 2, 16
    model = make_fs_cp1()
    patch = ReducedPatch(M)
    cmap = holomorphic_base_map(L, M, model.dim)
    rho, xi, zeta, _ = random_direction_fields(rng, L, M, model.dim)
    assert xi.masks[0] == 0
    body_xi = GridField((0,), xi.blocks[:1])  # this chart needs a soul-free phi
    assert np.abs(C.model_grids(model, cmap, patch)[0]).max() > 0.1
    # one direction at a time: along a combined line Gamma(phi) meets zeta, and
    # the O(h^2) error of the Dirac block (7.7e-6 at h/2) exceeds the tolerance
    named = {"xi": C.Directions(xi=body_xi), "zeta": C.Directions(zeta=zeta), "rho": C.Directions(rho=rho)}
    for name, rep in C.linearization_fd_checks(cmap, patch, model, named).items():
        assert rep["passed"], name
        assert max(b["rel_error_h2"] for b in rep["blocks"].values()) <= 1e-12, name


def test_named_directions_share_one_base_check(setup, monkeypatch):
    L, M, model, patch, cmap, (rho, xi, zeta, sigma) = setup
    named = {
        "xi": C.Directions(xi=xi),
        "sigma": C.Directions(sigma=sigma),
        "zeta": C.Directions(zeta=zeta),
        "rho": C.Directions(rho=rho),
        "combined": C.Directions(rho=rho, xi=xi, zeta=zeta, sigma=sigma),
    }
    singles = {
        name: C.linearization_fd_checks(cmap, patch, model, {name: d})[name]
        for name, d in named.items()
    }
    calls = {"residual_components": 0, "model_grids": 0, "dphi_frame": 0}

    def counted(name):
        fn = getattr(C, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(C, name, counted(name))
    assert C.linearization_fd_checks(cmap, patch, model, named) == singles
    assert calls["residual_components"] == 1
    # the base residual, the base, and the four points along each of xi and combined
    assert calls["model_grids"] <= 10 and calls["dphi_frame"] <= 10


def test_named_directions_reject_nonholomorphic_base():
    L, M = 2, 16
    cmap = ComponentMap.zero(L, M, 2)
    cmap.phi_linear = np.array([[1.0, 0.0], [0.0, -1.0]])
    dirs = random_direction_fields(np.random.default_rng(2), L, M, 2)
    with pytest.raises(C.PreconditionError):
        C.linearization_fd_checks(
            cmap, ReducedPatch(M), make_flat(1), {"xi": C.Directions(xi=dirs[1])}
        )
