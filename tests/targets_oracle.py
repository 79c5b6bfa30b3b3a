"""Reference checks of the target models for the tests.

``validate_model`` evaluates the algebraic invariants of an almost Kahler
model (J^2 = -1, the compatibility of omega, J and the metric, the
symmetries of the curvature, the vanishing of the almost complex
derivative of J) at sample points; ``sectional_value`` is the holomorphic
sectional curvature.  ``with_synthetic_nablaJ`` patches a model with an
artificial derivative of J: every model of ``sjclab.targets`` is Kahler,
so this is how the tests reach the non-Kahler branches of
``sjclab.components`` (``j_endomorphism``, the trace block of the residual
and the derivative-of-J term of the operator).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from sjclab.targets import AlmostKahlerModel, ModelError


def with_synthetic_nablaJ(model: AlmostKahlerModel, seeds: np.ndarray) -> AlmostKahlerModel:
    """Patch a model with an artificial covariant derivative of J.

    seeds[a] is an antisymmetric matrix B_a; nablaJ_a = B_a J - J B_a, which
    anticommutes with J and is metric-antisymmetric, as a genuine nablaJ must.
    """
    seeds = np.asarray(seeds, dtype=float)
    dim = model.dim
    if seeds.shape != (dim, dim, dim):
        raise ModelError("seeds must have shape (dim, dim, dim)")
    B = 0.5 * (seeds - seeds.transpose(0, 2, 1))

    def nablaJ_at(y):
        J = model.J_at(y)[..., None, :, :]
        return B @ J - J @ B

    return dataclasses.replace(model, kind=model.kind + "+synthetic-nablaJ", nablaJ_at=nablaJ_at)


def sectional_value(model: AlmostKahlerModel, y: np.ndarray, X: np.ndarray) -> float:
    """n(R(X, JX) JX, X) for a unit vector X: the holomorphic sectional value."""
    R = model.curvature_at(y)
    JX = X @ model.J_at(y)  # (J X)^c = X^b J[b, c]
    return float(np.einsum("abcd,a,b,c,d->", R, X, JX, JX, X))


@dataclass
class ModelReport:
    checks: dict

    @property
    def passed(self) -> bool:
        return all(v["passed"] for v in self.checks.values())


def validate_model(model: AlmostKahlerModel, sample_points: np.ndarray, tol: float = 1e-12) -> ModelReport:
    """Evaluate the model invariants at sample points; report max deviations."""
    devs: dict[str, float] = {}
    min_eig = np.inf
    for y in np.atleast_2d(sample_points):
        J, n_mat, R, nJ = model.J_at(y), model.metric_at(y), model.curvature_at(y), model.nablaJ_at(y)
        omega = -J @ n_mat  # omega(X, Y) = -n(JX, Y)
        point = {
            "J_squared": J @ J + np.eye(model.dim),
            "omega_J_invariance": J @ omega @ J.T - omega,  # omega(JX, JY) = omega(X, Y)
            "metric_symmetric": n_mat - n_mat.T,
            "metric_compatibility": J @ omega - n_mat,  # n(X, Y) = omega(JX, Y)
            "curvature_antisym_12": R + R.transpose(1, 0, 2, 3),
            "curvature_antisym_34": R + R.transpose(0, 1, 3, 2),
            "curvature_pair_symmetry": R - R.transpose(2, 3, 0, 1),
            "bianchi": R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3),
            # nabla_bar J = (1/2)(A - J A J) with A = nabla J; zero whenever A J = -J A
            "nabla_bar_J": 0.5 * (nJ - J @ nJ @ J),
        }
        for name, dev in point.items():
            devs[name] = max(devs.get(name, 0.0), float(np.abs(dev).max()))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(n_mat).min()))
    checks = {name: {"max_deviation": d, "tol": tol, "passed": d <= tol} for name, d in devs.items()}
    checks["metric_positive"] = {"min_eigenvalue": min_eig, "passed": min_eig > 0}
    return ModelReport(checks)
