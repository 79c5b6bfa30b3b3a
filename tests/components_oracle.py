"""Reference operations on component fields for the tests.

``spinor_holomorphic_part`` is the complement (1 - I (x) J)/2 of the
projector ``components.antiholomorphic_part``.  ``sr_vector`` is the cubic
curvature contraction of ``sjclab.fierz`` on one point, for comparison
with the grid contraction ``components.sr_contraction``.
``weyl_rescale_fields`` and ``weyl_covariance_check`` transform the fields
under a conformal rescaling and compare the residual blocks of
``components.residual_components`` with their expected weights.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from fields_oracle import dense
from sjclab import fierz
from sjclab.components import residual_components
from sjclab.fields import ComponentMap, GridField, Gravitino, max_abs
from sjclab.patch import ReducedPatch
from sjclab.spin import EPS_UPPER, ISPIN_MAP
from sjclab.targets import AlmostKahlerModel


def spinor_holomorphic_part(psi: GridField, J: np.ndarray) -> GridField:
    """(1/2)(1 - I (x) J) on a spinor-valued field."""
    return psi.map(lambda p: 0.5 * (p - np.einsum("sxyac,xycd->sxyad", ISPIN_MAP.apply(p, -2), J)))


def sr_vector(psi: np.ndarray, R: np.ndarray) -> np.ndarray:
    """SR[alpha, e, mask] = eps^{kappa lambda} (R(psi_alpha, psi_kappa) psi_lambda)^e."""
    R = np.asarray(R, dtype=float)
    psi, L = fierz._check_spinor(fierz._as_spinor(psi), R.shape[0])
    V = dense(fierz._cubic(fierz._pairs(psi, L), psi, R, L), L)
    return np.einsum("kl,xakle->aex", EPS_UPPER, V)


def weyl_rescale_fields(
    cmap: ComponentMap, grav: Gravitino, factor: np.ndarray
) -> tuple[ComponentMap, Gravitino]:
    """Transform frame components under a conformal rescaling by ``factor``.

    phi is unchanged; psi and the gravitino components pick up factor^{-1},
    F picks up factor^{-2}.
    """
    u = np.asarray(factor, dtype=float)
    new = replace(cmap, psi=cmap.psi / u[None, :, :, None, None], F=cmap.F / u[None, :, :, None] ** 2)
    return new, Gravitino(L=grav.L, chi=grav.chi / u[None, :, :, None, None])


def weyl_covariance_check(
    cmap: ComponentMap,
    grav: Gravitino,
    patch: ReducedPatch,
    model: AlmostKahlerModel,
    rescale: float,
    tol: float = 1e-8,
) -> dict:
    """Check homogeneous scaling of the residual blocks under a constant rescaling.

    Frame-component weights are (u^-1, u^-2, u^-2, u^-3); the third block is
    invariant as a one-form (its u^-2 is the frame conversion).  Returns a
    report with per-block deviations between the transformed-data residuals
    and the rescaled originals.
    """
    M = patch.M
    u = np.full((M, M), float(rescale))
    base = residual_components(cmap, grav, patch, model).blocks()
    cmap2, grav2 = weyl_rescale_fields(cmap, grav, u)
    new = residual_components(cmap2, grav2, ReducedPatch(M, lam=patch.lam * u), model).blocks()
    # (frame, abstract) weight exponents; cauchy_riemann is invariant once
    # the frame factor is removed
    weights = {"chirality": (-1, -1), "auxiliary": (-2, -2), "cauchy_riemann": (-2, 0), "dirac": (-3, -3)}
    report = {"blocks": {}, "passed": True}
    for name, (expected, abstract) in weights.items():
        b = base[name]
        dev = max_abs(new[name] - u.reshape((1, M, M) + (1,) * (b.blocks.ndim - 3)) ** expected * b)
        entry = {
            "frame_weight_exponent": expected,
            "abstract_weight_exponent": abstract,
            "max_deviation": dev,
            "passed": bool(dev / (1.0 + max_abs(b)) <= tol),
        }
        report["blocks"][name] = entry
        report["passed"] = report["passed"] and entry["passed"]
    return report
