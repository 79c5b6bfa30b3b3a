"""Reference checks of the target models for the tests.

``validate_model`` evaluates the algebraic invariants of a Kahler model in
a holomorphic chart at sample points: the compatibility of the metric with
the standard J (n(JX, JY) = n(X, Y)), the complex bilinearity of the
Christoffel symbols (Gamma(JX, Y) = J Gamma(X, Y), which makes the chart
holomorphic and J parallel) and the symmetries of the curvature.
``sectional_value`` is the holomorphic sectional curvature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sjclab.targets import AlmostKahlerModel, standard_J


def sectional_value(model: AlmostKahlerModel, y: np.ndarray, X: np.ndarray) -> float:
    """n(R(X, JX) JX, X) for a unit vector X: the holomorphic sectional value."""
    R = model.curvature_at(y)
    JX = X @ standard_J(model.n)  # (J X)^c = X^b J[b, c]
    return float(np.einsum("abcd,a,b,c,d->", R, X, JX, JX, X))


@dataclass
class ModelReport:
    checks: dict

    @property
    def passed(self) -> bool:
        return all(v["passed"] for v in self.checks.values())


def validate_model(model: AlmostKahlerModel, sample_points: np.ndarray, tol: float = 1e-12) -> ModelReport:
    """Evaluate the model invariants at sample points; report max deviations."""
    J = standard_J(model.n)
    devs: dict[str, float] = {}
    min_eig = np.inf
    for y in np.atleast_2d(sample_points):
        n_mat, G, R = model.metric_at(y), model.christoffel_at(y), model.curvature_at(y)
        point = {
            "J_squared": J @ J + np.eye(model.dim),
            "metric_symmetric": n_mat - n_mat.T,
            "metric_J_invariance": J @ n_mat @ J.T - n_mat,  # n(JX, JY) = n(X, Y)
            # Gamma(JX, Y)^k = J[b, i] X^b Gamma^k_{ij} Y^j and (J Gamma(X, Y))^c = Gamma(X, Y)^k J[k, c]
            "christoffel_J_linearity": np.einsum("bi,kij->kbj", J, G) - np.einsum("kc,kbj->cbj", J, G),
            "curvature_antisym_12": R + R.transpose(1, 0, 2, 3),
            "curvature_antisym_34": R + R.transpose(0, 1, 3, 2),
            "curvature_pair_symmetry": R - R.transpose(2, 3, 0, 1),
            "bianchi": R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3),
        }
        for name, dev in point.items():
            devs[name] = max(devs.get(name, 0.0), float(np.abs(dev).max()))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(n_mat).min()))
    checks = {name: {"max_deviation": d, "tol": tol, "passed": d <= tol} for name, d in devs.items()}
    checks["metric_positive"] = {"min_eigenvalue": min_eig, "passed": min_eig > 0}
    return ModelReport(checks)
