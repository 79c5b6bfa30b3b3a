"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with ``pytest -s`` to see them.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from sjclab import components as C
from sjclab import indexlab as il
from sjclab.classify import BochnerInput, ModuliDimQuery, bochner_classify, moduli_dimension
from sjclab.energy import energy_identity_residual
from sjclab.fields import ComponentMap, Gravitino, odd_masks
from sjclab.fierz import (
    fierz_check,
    random_admissible_curvature,
    random_admissible_nabla_curvature,
    random_odd_spinor,
)
from sjclab.patch import ReducedPatch
from sjclab.suites import (
    holomorphic_base_map,
    random_direction_fields,
    random_flat_z_component,
)
from sjclab.superfield import (
    FlatTargetJ,
    components_from_complex,
    flat_sjc_residual,
    holomorphy_equivalence_check,
)
from sjclab.targets import make_const_hsc, make_flat, standard_J
from test_indexlab import assemble


def report(number: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"\nacceptance {number}: {status} -- {detail}")
    assert passed, f"acceptance criterion {number} failed: {detail}"


def test_criterion_1_flat_model_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    J = FlatTargetJ(standard_J(1))
    trials = 100
    agree = 0
    for t in range(trials):
        holo = t % 2 == 0
        zc = random_flat_z_component(rng, 2, holo)
        ys = components_from_complex([zc])
        res_zero = all(r.is_zero() for r in flat_sjc_residual(ys, J))
        manual = holomorphy_equivalence_check([zc])
        if res_zero == manual == holo:
            agree += 1
    elapsed = time.monotonic() - t0
    report(
        1,
        agree == trials and elapsed < 10.0,
        f"exact equivalence on {agree}/{trials} superfields in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_fierz_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(102)
    trials = 50
    worst = 0.0
    for t in range(trials):
        dim = 4 if t % 5 == 4 else 2
        R = random_admissible_curvature(rng, dim)
        dR = random_admissible_nabla_curvature(rng, dim)
        psi = random_odd_spinor(rng, L=4, dim=dim)
        rep = fierz_check(R, psi, nablaR=dR)
        worst = max(worst, rep["max_deviation"])
    elapsed = time.monotonic() - t0
    report(
        2,
        worst == 0.0 and elapsed < 30.0,
        f"both chains and derivative variant exactly zero on {trials} tensors "
        f"in {elapsed:.2f}s (< 30s)",
    )


def test_criterion_3_energy_identity():
    rng = np.random.default_rng(103)
    failures = 0
    for t in range(20):
        n = 1 + t % 2
        J = FlatTargetJ(standard_J(n))
        comps = [
            random_flat_z_component(rng, 2, holomorphic=bool(rng.random() < 0.4))
            for _ in range(n)
        ]
        if not energy_identity_residual(components_from_complex(comps), J).is_zero():
            failures += 1
    report(3, failures == 0, "identity exactly zero on 20 random flat-model maps")


def test_criterion_4_component_equation_sanity():
    M = 32
    # holomorphic grid map with vanishing odd and auxiliary data
    cmap = holomorphic_base_map(2, M, 2, slope=2.0 - 1.0j)
    res1 = C.residual_components(
        cmap, Gravitino.zero(2, M), ReducedPatch(M), make_flat(1)
    ).max_norm()
    # Kahler target with a holomorphic twisted-spinor section
    rng = np.random.default_rng(104)
    model = make_const_hsc(4.0, 1)
    J0 = model.J_at(np.zeros(2))
    psi = np.zeros((16, M, M, 2, 2), dtype=complex)
    for m in odd_masks(4):
        v = rng.integers(-2, 3, size=2).astype(complex)
        psi[m, :, :, 0, :] = v
        psi[m, :, :, 1, :] = v @ J0
    cmap2 = replace(ComponentMap.zero(4, M, 2), psi=psi)
    res2 = C.residual_components(
        cmap2, Gravitino.zero(4, M), ReducedPatch(M), model
    ).max_norm()
    report(
        4,
        res1 <= 1e-8 and res2 <= 1e-8,
        f"holomorphic map residual {res1:.2e}, section case {res2:.2e} (tol 1e-8 at M=32)",
    )


def test_criterion_5_linearization_blocks():
    rng = np.random.default_rng(105)
    M = 32
    model = make_flat(1)
    patch = ReducedPatch(M)
    cmap = holomorphic_base_map(2, M, 2)
    rho, xi, zeta, sigma = random_direction_fields(rng, 2, M, 2)
    rep = C.linearization_fd_checks(
        cmap,
        patch,
        model,
        {"combined": C.Directions(rho=rho, xi=xi, zeta=zeta, sigma=sigma)},
        h=1e-3,
        rel_tol=1e-6,
    )["combined"]
    worst = max(
        max(b["rel_error_h2"], b["richardson_error"]) for b in rep["blocks"].values()
    )
    report(
        5,
        rep["passed"],
        f"all four blocks within 1e-6 under step halving (worst {worst:.2e})",
    )


def test_criterion_6_index_formulas():
    t0 = time.monotonic()
    ok = True
    details = []
    for k in range(-2, 6):
        rep = il.numeric_index(il.build_dbar_sphere(k, abs(k) + 6))
        expected = max(k + 1, 0)
        if rep.kernel_dim != expected:
            ok = False
            details.append(f"O({k}) kernel {rep.kernel_dim} != {expected}")
    for d in (1, 2, 3):
        rep = il.numeric_index(il.build_dirac10_sphere(d, 8 + 2 * d))
        if rep.numeric_index_real != 4 * d:
            ok = False
            details.append(f"degree-{d} index {rep.numeric_index_real} != {4 * d}")
    top = il.build_dirac_torus(1, 8)
    A = assemble(top)
    asa = float(np.abs(A + A.conj().T).max())
    trep = il.numeric_index(top)
    if trep.numeric_index != 0 or asa > 1e-10:
        ok = False
        details.append(f"torus index {trep.numeric_index}, asa {asa:.1e}")
    elapsed = time.monotonic() - t0
    report(
        6,
        ok and elapsed < 60.0,
        f"dbar kernels, Dirac-half indices, torus checks in {elapsed:.2f}s (< 60s)"
        + ("; " + "; ".join(details) if details else ""),
    )


def test_criterion_7_bochner_classifier_and_gap():
    expected = {
        # (genus, sign sigma, below threshold): (D10, D01)
        (0, +1, True): ("bijective", "injective"),
        (0, +1, False): ("surjective", "injective"),
        (1, +1, False): ("surjective", "injective"),
        (2, +1, False): ("surjective", "injective"),
        (0, -1, True): ("injective", "bijective"),
        (0, -1, False): ("injective", "surjective"),
        (1, -1, False): ("injective", "surjective"),
        (2, -1, False): ("injective", "surjective"),
    }
    ok = True
    for (p, sgn, below), want in expected.items():
        sigma = 4.0 * sgn
        emax = 0.1 if below else 0.5
        emin = 0.05 if p == 1 else 0.0
        v = bochner_classify(BochnerInput(p, sigma, emin, emax))
        if (v.D10, v.D01) != want:
            ok = False
    # the genus-zero bijectivity threshold flags the trivial class
    v = bochner_classify(BochnerInput(0, 4.0, 0.0, 0.2))
    ok = ok and v.implies_trivial_class and v.threshold == pytest.approx(0.25)
    gap = il.numeric_index(il.build_dirac01_sphere(-1, 10))
    sigma_min = gap.singular_values.min()
    report(
        7,
        ok and sigma_min > 0.1 and gap.kernel_dim == 0,
        f"case table reproduced; spectral gap {sigma_min:.4f} > 0.1 at cutoff 10",
    )


def test_criterion_8_moduli_dimensions():
    ok = True
    for n in (1, 2, 3, 5):
        d = moduli_dimension(ModuliDimQuery(n=n, genus=0, c1A=0, dimX=0))
        ok = ok and (d.relative_even, d.relative_odd) == (2 * n, 0)
        for k in (0, 1, 2, 3):
            c1 = k * (n + 1)
            d = moduli_dimension(ModuliDimQuery(n=n, genus=0, c1A=c1, dimX=0))
            ok = ok and (d.relative_even, d.relative_odd) == (
                2 * n + 2 * k * (n + 1),
                2 * k * (n + 1),
            )
    report(8, ok, "trivial-class and projective-target dimension formulas exact")
