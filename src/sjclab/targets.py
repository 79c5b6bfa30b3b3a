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
from dataclasses import dataclass
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
    constant_chart: bool = False  # every chart tensor is the same at all chart points

    @property
    def dim(self) -> int:
        return 2 * self.n

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

    def christoffel_at(y):
        # Gamma^k_{ij} of the conformal metric e^{2 rho} delta, rho = log E / 2 = -log(1 + |y|^2)
        s = 1.0 + r2(y)
        d1, d2 = -2.0 * y[..., 0] / s, -2.0 * y[..., 1] / s  # grad rho
        g = np.empty(np.shape(d1) + (2, 2, 2))
        g[..., 0, 0, 0] = g[..., 1, 0, 1] = g[..., 1, 1, 0] = d1
        g[..., 0, 0, 1] = g[..., 0, 1, 0] = g[..., 1, 1, 1] = d2
        g[..., 0, 1, 1] = -d1
        g[..., 1, 0, 0] = -d2
        return g

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

    ``n`` must be a JSON integer >= 1 (exactly 1 for ``fubini-study-CP1``)
    with 2n = ``dim``, checked before the model is built (a constant-hsc
    model holds a (2n)^4 curvature tensor), and ``sigma`` a finite JSON number.
    """
    kind = descriptor["kind"]
    if kind not in ("flat", "constant-hsc", "fubini-study-CP1"):
        raise ModelError(f"unknown model kind {kind!r}")
    sigma = 0.0
    if kind == "constant-hsc":  # type() rejects bools; abs() rejects NaN, inf and huge integers
        finite = lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max  # noqa: E731
        sigma = float(_header_value(descriptor, "sigma", finite, "a finite JSON number"))
    fs = kind == "fubini-study-CP1"
    valid_n = lambda v: type(v) is int and (v == 1 if fs else v >= 1)  # noqa: E731
    n = _header_value(descriptor, "n", valid_n, "the JSON integer 1" if fs else "a JSON integer >= 1")
    if 2 * n != dim:
        raise ModelError(f"map has {dim} target components, model needs {2 * n}")
    if fs:
        return make_fs_cp1()
    return make_flat(n) if kind == "flat" else make_const_hsc(sigma, n)
