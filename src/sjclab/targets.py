"""Almost Kahler target models with exact chart evaluators.

Three kinds are provided:

* ``flat``: R^{2n} with the standard structures and zero curvature, the
  ``constant-hsc`` model at sigma = 0.
* ``constant-hsc``: a pointwise algebraic model carrying the closed-form
  curvature tensor of constant holomorphic sectional curvature sigma in an
  orthonormal chart (metric delta, standard J, vanishing Christoffels).
* ``fubini-study-CP1``: the affine chart of the projective line with the
  metric of holomorphic sectional curvature 4, with closed-form
  Christoffels and curvature.

All evaluators take a chart point y, or a stack of points y[..., :], and
return plain numpy arrays with the same leading axes; constant tensors come
back as read-only broadcast views; ``constant_chart`` marks the models
whose chart tensors are the same at every point.  Index
conventions: J e_b = sum_c J[b, c] e_c, curvature_lowered[a, b, c, d] =
n(R(e_a, e_b) e_c, e_d), christoffel[k][i, j] = Gamma^k_{ij}.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class ModelError(ValueError):
    pass


def standard_J(n: int) -> np.ndarray:
    m = np.zeros((2 * n, 2 * n))
    for b in range(n):
        m[2 * b, 2 * b + 1] = 1.0
        m[2 * b + 1, 2 * b] = -1.0
    return m


@dataclass(frozen=True)
class AlmostKahlerModel:
    kind: str
    n: int
    J_at: Callable[[np.ndarray], np.ndarray]
    metric_at: Callable[[np.ndarray], np.ndarray]
    christoffel_at: Callable[[np.ndarray], np.ndarray]
    nablaJ_at: Callable[[np.ndarray], np.ndarray]
    curvature_at: Callable[[np.ndarray], np.ndarray]
    sigma: float | None = None
    dchristoffel_at: Callable[[np.ndarray], np.ndarray] | None = None
    constant_chart: bool = False  # every chart tensor is the same at all chart points

    @property
    def dim(self) -> int:
        return 2 * self.n

    def omega_at(self, y: np.ndarray) -> np.ndarray:
        """omega(X, Y) = -n(JX, Y); omega[a, b] = omega(e_a, e_b)."""
        J = self.J_at(y)
        n = self.metric_at(y)
        return -J @ n

    def curvature_op_at(self, y: np.ndarray) -> np.ndarray:
        """R(e_a, e_b) e_c = sum_d Rop[a, b, c, d] e_d.

        Constant charts evaluate it once and return a read-only broadcast view.
        """
        point = np.zeros(self.dim) if self.constant_chart else y
        R = self.curvature_at(point)
        ninv = np.linalg.inv(self.metric_at(point))
        op = R @ ninv[..., None, None, :, :]
        if self.constant_chart:
            return np.broadcast_to(op, np.shape(y)[:-1] + op.shape)
        return op

    def descriptor(self) -> dict:
        d = {"kind": self.kind, "n": self.n}
        if self.sigma is not None:
            d["sigma"] = self.sigma
        return d


def _const(arr: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    arr = np.asarray(arr, dtype=float)

    def ev(y: np.ndarray) -> np.ndarray:
        return np.broadcast_to(arr, np.shape(y)[:-1] + arr.shape)

    return ev


def hsc_curvature_lowered(sigma: float, n_mat: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Closed-form curvature of constant holomorphic sectional curvature sigma.

    n(R(X,Y)Z,W) = (sigma/4) (n(X,W)n(Y,Z) - n(X,Z)n(Y,W) + n(Z,JX)n(Y,JW)
                   - n(X,JW)n(JY,Z) - 2 n(X,JY)n(Z,JW))
    """
    nJ = J @ n_mat  # nJ[a, b] = n(J e_a, e_b)
    # n(e_a, J e_b) = n(J e_b, e_a) = nJ[b, a]
    nJT = nJ.T
    R = (
        np.einsum("ad,bc->abcd", n_mat, n_mat)
        - np.einsum("ac,bd->abcd", n_mat, n_mat)
        + np.einsum("ca,bd->abcd", nJT, nJT)
        - np.einsum("ad,bc->abcd", nJT, nJ)
        - 2.0 * np.einsum("ab,cd->abcd", nJT, nJT)
    )
    return (sigma / 4.0) * R


def make_const_hsc(sigma: float, n: int) -> AlmostKahlerModel:
    """Pointwise model with the constant-hsc curvature tensor in a flat chart."""
    dim = 2 * n
    J = standard_J(n)
    R = hsc_curvature_lowered(sigma, np.eye(dim), J)
    zeros3 = np.zeros((dim, dim, dim))
    return AlmostKahlerModel(
        kind="constant-hsc",
        n=n,
        J_at=_const(J),
        metric_at=_const(np.eye(dim)),
        christoffel_at=_const(zeros3),
        nablaJ_at=_const(zeros3),
        curvature_at=_const(R),
        sigma=float(sigma),
        dchristoffel_at=_const(np.zeros((dim, dim, dim, dim))),
        constant_chart=True,
    )


def make_flat(n: int) -> AlmostKahlerModel:
    """R^{2n}: the constant-hsc model at sigma = 0, whose curvature is zero."""
    return dataclasses.replace(make_const_hsc(0.0, n), kind="flat")


def make_fs_cp1() -> AlmostKahlerModel:
    """Affine chart of the projective line, holomorphic sectional curvature 4.

    Chart metric E(y) delta with E = (1 + |y|^2)^(-2); Gauss curvature 4.
    """
    J = standard_J(1)
    # Powers go through np.float_power, which rounds like libm pow (Python's
    # float **); the SIMD loops of np.power can differ in the last bit.
    pw = np.float_power

    def r2(y):
        return pw(y[..., 0], 2) + pw(y[..., 1], 2)

    def metric_at(y):
        E = pw(1.0 + r2(y), -2)
        return E[..., None, None] * np.eye(2)

    def conformal_gamma(d1, d2):
        # Gamma^k_{ij} of the conformal metric e^{2 rho} delta from grad rho = (d1, d2);
        # linear in (d1, d2), so the same pattern carries the jet
        g = np.empty(np.shape(d1) + (2, 2, 2))
        g[..., 0, 0, 0] = g[..., 1, 0, 1] = g[..., 1, 1, 0] = d1
        g[..., 0, 0, 1] = g[..., 0, 1, 0] = g[..., 1, 1, 1] = d2
        g[..., 0, 1, 1] = -d1
        g[..., 1, 0, 0] = -d2
        return g

    def christoffel_at(y):
        # rho = log E / 2 = -log(1 + |y|^2)
        s = 1.0 + r2(y)
        return conformal_gamma(-2.0 * y[..., 0] / s, -2.0 * y[..., 1] / s)

    def dchristoffel_at(y):
        # dGamma[..., l, k, i, j] = d/dy^l Gamma^k_{ij}, from the Hessian of rho
        s = 1.0 + r2(y)
        denom = pw(s, 2)
        h11 = -2.0 * (s - 2.0 * pw(y[..., 0], 2)) / denom
        h22 = -2.0 * (s - 2.0 * pw(y[..., 1], 2)) / denom
        h12 = 4.0 * y[..., 0] * y[..., 1] / denom
        return np.stack([conformal_gamma(h11, h12), conformal_gamma(h12, h22)], axis=-4)

    def curvature_at(y):
        # constant Gauss curvature 4: R(X,Y)Z = K (n(Y,Z) X - n(X,Z) Y)
        K = 4.0
        n_mat = metric_at(y)
        return K * (
            np.einsum("...bc,...ad->...abcd", n_mat, n_mat)
            - np.einsum("...ac,...bd->...abcd", n_mat, n_mat)
        )

    return AlmostKahlerModel(
        kind="fubini-study-CP1",
        n=1,
        J_at=_const(J),
        metric_at=metric_at,
        christoffel_at=christoffel_at,
        nablaJ_at=_const(np.zeros((2, 2, 2))),
        curvature_at=curvature_at,
        sigma=4.0,
        dchristoffel_at=dchristoffel_at,
    )


def _header_value(descriptor: dict, key: str, ok: Callable[[object], bool], what: str):
    """``descriptor[key]``, or a ModelError naming the key."""
    kind = descriptor["kind"]
    if key not in descriptor:
        raise ModelError(f"model {kind!r} has no {key!r}")
    value = descriptor[key]
    if not ok(value):
        raise ModelError(f"model {kind!r} needs {key} as {what}, got {json.dumps(value)}")
    return value


def make_model(descriptor: dict, dim: int) -> AlmostKahlerModel:
    """The model a bundle header names, for a map with ``dim`` target components.

    ``n`` must be a JSON integer >= 1 with 2n = ``dim``, checked before the
    model is built (a constant-hsc model holds a (2n)^4 curvature tensor), and
    ``sigma`` a finite JSON number.
    """
    kind = descriptor["kind"]
    if kind == "fubini-study-CP1":
        return make_fs_cp1()
    if kind not in ("flat", "constant-hsc"):
        raise ModelError(f"unknown model kind {kind!r}")
    sigma = 0.0
    if kind == "constant-hsc":  # type() rejects bools; abs() rejects NaN, inf and huge integers
        finite = lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max  # noqa: E731
        sigma = float(_header_value(descriptor, "sigma", finite, "a finite JSON number"))
    n = _header_value(descriptor, "n", lambda v: type(v) is int and v >= 1, "a JSON integer >= 1")
    if 2 * n != dim:
        raise ModelError(f"map has {dim} target components, model needs {2 * n}")
    return make_flat(n) if kind == "flat" else make_const_hsc(sigma, n)


def with_synthetic_nablaJ(model: AlmostKahlerModel, seeds: np.ndarray) -> AlmostKahlerModel:
    """Patch a model with an artificial covariant derivative of J.

    seeds[a] is an antisymmetric matrix B_a; nablaJ_a = B_a J - J B_a, which
    anticommutes with J and is metric-antisymmetric, as a genuine nablaJ must.
    Used to exercise the non-Kahler code paths in regression tests.
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


def nabla_bar(
    model: AlmostKahlerModel,
    y: np.ndarray,
    X: np.ndarray,
    Y_value: np.ndarray,
    Y_jet: np.ndarray,
) -> np.ndarray:
    """Almost complex covariant derivative: nabla_X Y - (1/2) J (nabla_X J) Y.

    Y_jet[l, b] = d/dy^l Y^b; the first-order jet of Y at y.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    dim = model.dim
    if X.shape != (dim,) or Y_value.shape != (dim,) or Y_jet.shape != (dim, dim):
        raise ModelError("shape mismatch in nabla_bar arguments")
    Gamma = model.christoffel_at(y)
    nablaXY = X @ Y_jet + np.einsum("kij,i,j->k", Gamma, X, Y_value)
    nJ = model.nablaJ_at(y)
    J = model.J_at(y)
    correction = 0.5 * J @ np.einsum("a,abc,c->b", X, nJ, Y_value)
    return nablaXY - correction


def sectional_value(model: AlmostKahlerModel, y: np.ndarray, X: np.ndarray) -> float:
    """n(R(X, JX) JX, X) for a unit vector X: the holomorphic sectional value."""
    R = model.curvature_at(y)
    J = model.J_at(y)
    JX = X @ J  # (J X)^c = X^b J[b, c]
    return float(np.einsum("abcd,a,b,c,d->", R, X, JX, JX, X))


@dataclass
class ModelReport:
    kind: str
    checks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v["passed"] for v in self.checks.values())


def validate_model(
    model: AlmostKahlerModel,
    sample_points: np.ndarray,
    tol: float = 1e-12,
) -> ModelReport:
    """Evaluate the model invariants at sample points; report max deviations."""
    report = ModelReport(kind=model.kind)
    devs: dict[str, float] = {
        "J_squared": 0.0,
        "omega_J_invariance": 0.0,
        "metric_symmetric": 0.0,
        "metric_positive": np.inf,
        "metric_compatibility": 0.0,
        "curvature_antisym_12": 0.0,
        "curvature_antisym_34": 0.0,
        "curvature_pair_symmetry": 0.0,
        "bianchi": 0.0,
        "nabla_bar_J": 0.0,
    }
    dim = model.dim
    for y in np.atleast_2d(sample_points):
        J = model.J_at(y)
        n_mat = model.metric_at(y)
        omega = model.omega_at(y)
        devs["J_squared"] = max(devs["J_squared"], float(np.abs(J @ J + np.eye(dim)).max()))
        # omega(JX, JY) = omega(X, Y):  J omega J^T = omega
        devs["omega_J_invariance"] = max(
            devs["omega_J_invariance"], float(np.abs(J @ omega @ J.T - omega).max())
        )
        devs["metric_symmetric"] = max(
            devs["metric_symmetric"], float(np.abs(n_mat - n_mat.T).max())
        )
        devs["metric_positive"] = min(
            devs["metric_positive"], float(np.linalg.eigvalsh(n_mat).min())
        )
        # n(X, Y) = omega(JX, Y)
        devs["metric_compatibility"] = max(
            devs["metric_compatibility"], float(np.abs(J @ omega - n_mat).max())
        )
        R = model.curvature_at(y)
        devs["curvature_antisym_12"] = max(
            devs["curvature_antisym_12"], float(np.abs(R + R.transpose(1, 0, 2, 3)).max())
        )
        devs["curvature_antisym_34"] = max(
            devs["curvature_antisym_34"], float(np.abs(R + R.transpose(0, 1, 3, 2)).max())
        )
        devs["curvature_pair_symmetry"] = max(
            devs["curvature_pair_symmetry"], float(np.abs(R - R.transpose(2, 3, 0, 1)).max())
        )
        bianchi = R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)
        devs["bianchi"] = max(devs["bianchi"], float(np.abs(bianchi).max()))
        # nabla_bar J = (1/2)(A - J A J) with A = nabla J; zero whenever A J = -J A
        nJ = model.nablaJ_at(y)
        for a in range(dim):
            A = nJ[a]
            devs["nabla_bar_J"] = max(
                devs["nabla_bar_J"], float(np.abs(0.5 * (A - J @ A @ J)).max())
            )
    for name, dev in devs.items():
        if name == "metric_positive":
            report.checks[name] = {"min_eigenvalue": dev, "passed": bool(dev > 0)}
        else:
            report.checks[name] = {"max_deviation": dev, "tol": tol, "passed": bool(dev <= tol)}
    return report
