"""Two-dimensional spin conventions: gamma matrices, spinor pairings, projectors.

Fixed representation: gamma1 = diag(1, -1), gamma2 = offdiag(1, 1), so the
spinor complex structure is I = gamma1 gamma2 = [[0, 1], [-1, 0]].  The
antisymmetric spinor pairing eps has eps_{34} = +1 = eps^{34}; indices are
raised/lowered by left contraction.  All spinor-index contractions in this
package contract the second matrix index: (A v)_a = A[a, b] v_b.

Constant-matrix contractions go through :func:`contract`, one real
``np.matmul`` with a plain matrix: the frame complex structure I, eps
raising, lowering and pairing, the Clifford contraction sum_k gamma^k x_k
(:data:`CLIFFORD`, also with I), the P/Q projectors, and the
antiholomorphic projector (1 + I (x) J)/2 of :mod:`sjclab.components`, J
being the constant complex structure of every target chart.  Each row of
these matrices has one or two nonzero entries, each +-1 or +-1/2, so an
output entry is an exact copy, negation or halving of one input entry,
plus at most one more such term, and the zero entries add exact zeros.  On
finite data (short of halving a subnormal) the contraction therefore
returns what ``np.einsum`` returns bit for bit, in any summation order and
with fused multiply-adds, up to the sign of an exact zero.  A packed grid
field is contracted on its live blocks by ``field.map(contract, MATRIX, 1)``,
its grid axes last (:mod:`sjclab.fields`), so the matmul runs over whole
contiguous M x M slabs.  Position-dependent contractions (Christoffel
symbols, curvature) stay with ``np.einsum`` and ``gcontract``.
"""

from __future__ import annotations

import math

import numpy as np

GAMMA = np.array([
    [[1.0, 0.0], [0.0, -1.0]],   # gamma^1
    [[0.0, 1.0], [1.0, 0.0]],    # gamma^2
])

ISPIN = GAMMA[0] @ GAMMA[1]          # [[0, 1], [-1, 0]]
IFRAME = np.array([[0.0, 1.0], [-1.0, 0.0]])   # I f_1 = f_2 on the frame index

EPS_LOWER = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eps_{34} = +1
EPS_UPPER = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eps^{34} = +1

# gamma with its second spinor index lowered by eps; these are the matrices
# written gamma_{t sigma}^{tau} in the cubic curvature identities.
GAMMA_EPS = np.array([GAMMA[0] @ EPS_LOWER, GAMMA[1] @ EPS_LOWER])

# Gamma symbols of the odd frames: Gamma[t][mu, nu] coincides with GAMMA[t].
GAMMA_SYM = GAMMA

# P/Q projector tensors on one-forms with spinor values:
# (P chi)_a = (1/2) gamma^a gamma^b chi_b,  (Q chi)_a = (1/2) gamma^b gamma^a chi_b.
PMAT = np.zeros((2, 2, 2, 2))
QMAT = np.zeros((2, 2, 2, 2))
for _a in range(2):
    for _b in range(2):
        PMAT[_a, :, _b, :] = 0.5 * (GAMMA[_a] @ GAMMA[_b])
        QMAT[_a, :, _b, :] = 0.5 * (GAMMA[_b] @ GAMMA[_a])


def clifford_deviation() -> float:
    """Max deviation of gamma^a gamma^b + gamma^b gamma^a - 2 delta^{ab}."""
    dev = 0.0
    for a in range(2):
        for b in range(2):
            acomm = GAMMA[a] @ GAMMA[b] + GAMMA[b] @ GAMMA[a]
            dev = max(dev, float(np.abs(acomm - 2.0 * (a == b) * np.eye(2)).max()))
    return dev


def gamma_sandwich_deviation() -> float:
    """Max deviation of sum_b gamma^b gamma^a gamma_b, which vanishes in 2d."""
    dev = 0.0
    for a in range(2):
        s = sum(GAMMA[b] @ GAMMA[a] @ GAMMA[b] for b in range(2))
        dev = max(dev, float(np.abs(s).max()))
    return dev


def contract(x: np.ndarray, matrix: np.ndarray, axis: int, in_axes: int = 1) -> np.ndarray:
    """Contract the last ``in_axes`` axes of ``matrix`` with the axes of x that start at ``axis``.

    The output axes of ``matrix`` take their place:
    out[..., i, ...] = sum_j matrix[i, j] x[..., j, ...].  x is made
    C-contiguous as ``result_type(x, float)`` and viewed as float64
    (lead, cols, rest), a complex array with its real and imaginary parts
    interleaved in rest, so one real matmul does both parts.
    """
    x = np.asarray(x)
    axis = axis % x.ndim
    n_out = matrix.ndim - in_axes
    in_shape = matrix.shape[n_out:]
    if in_axes < 1 or n_out < 0 or x.shape[axis : axis + in_axes] != in_shape:
        raise ValueError(f"axes {x.shape[axis:axis + in_axes]} do not match the {in_axes} input axes of {matrix.shape}")
    lead, trail = x.shape[:axis], x.shape[axis + in_axes :]
    dtype = np.result_type(x, float)
    # sizes written out, not -1, so that an array with no blocks reshapes too
    rows, cols = math.prod(matrix.shape[:n_out]), math.prod(in_shape)
    width = math.prod(trail) * (2 if dtype.kind == "c" else 1)
    flat = np.ascontiguousarray(x, dtype=dtype).reshape(-1).view(np.float64)
    out = np.matmul(matrix.reshape(rows, cols), flat.reshape(math.prod(lead), cols, width))
    return out.view(dtype).reshape(lead + matrix.shape[:n_out] + trail)


# sum over (k, a) of gamma^k[b, a] x_{k a} and of (gamma^k I)[b, a] x_{k a}
CLIFFORD = np.ascontiguousarray(GAMMA.transpose(1, 0, 2))
CLIFFORD_I = np.einsum("kab,bc->akc", GAMMA, ISPIN)


def project_q(chi: np.ndarray, axis: int = -2) -> np.ndarray:
    """Spin-3/2 part Q chi of a (form, spinor)-indexed array whose (k, kappa) axes start at ``axis``."""
    return contract(chi, QMAT, axis, 2)


def project_pq_pointwise(chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a (form, spinor)-indexed array chi[..., k, kappa] into (P chi, Q chi)."""
    return contract(chi, PMAT, -2, 2), project_q(chi)


def delta_gamma(chi: np.ndarray, axis: int = -2) -> np.ndarray:
    """delta_gamma: one-forms with spinor values to spinors, X tensor s -> gamma(X) s.

    The (form, spinor) axes of ``chi`` start at ``axis``; the spinor axis takes their place.
    """
    return contract(chi, CLIFFORD, axis, 2)
