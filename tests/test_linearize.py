from dataclasses import replace

import numpy as np
import pytest

from sjclab import components as C
from sjclab.fields import ComponentMap, Gravitino, max_abs
from sjclab.patch import ReducedPatch
from sjclab.spin import project_q
from sjclab.suites import holomorphic_base_map, random_direction_fields
from sjclab.targets import make_const_hsc, make_flat


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
    base = C.model_grids(model, cmap, patch), C.dphi_frame(cmap, patch)  # F leaves phi in place
    plus, minus = replace(cmap, F=cmap.F + h * sigma), replace(cmap, F=cmap.F - h * sigma)
    d = (
        C.operator_components(plus, grav0, patch, *base)[1]
        - C.operator_components(minus, grav0, patch, *base)[1]
    ) / (2 * h)
    assert max_abs(d - 0.25 * sigma) <= 1e-9


def test_rho_block_responds_only_in_dirac_slot(setup):
    L, M, model, patch, cmap, (rho, xi, zeta, sigma) = setup
    grav0 = Gravitino.zero(L, M)
    h = 1e-3
    chi_plus = Gravitino(L=L, chi=h * rho)
    chi_minus = Gravitino(L=L, chi=-h * rho)
    grids, dphi = C.model_grids(model, cmap, patch), C.dphi_frame(cmap, patch)
    cp = C.operator_components(cmap, chi_plus, patch, grids, dphi)
    cm = C.operator_components(cmap, chi_minus, patch, grids, dphi)
    d4 = (cp[3] - cm[3]) / (2 * h)
    qrho = rho.map(project_q)
    expected = 2.0 * C.vee_q_pairing(qrho, dphi, L)
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


def test_operator_components_rejects_non_kahler():
    from targets_oracle import with_synthetic_nablaJ

    rng = np.random.default_rng(3)
    L, M = 2, 8
    model = with_synthetic_nablaJ(make_flat(2), rng.standard_normal((4, 4, 4)))
    cmap = ComponentMap.zero(L, M, 4)
    patch = ReducedPatch(M)
    base = C.model_grids(model, cmap, patch), C.dphi_frame(cmap, patch)
    with pytest.raises(C.PreconditionError):
        C.operator_components(cmap, Gravitino.zero(L, M), patch, *base)


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
