"""Two-dimensional spin conventions: gamma matrices, spinor pairings, projectors.

Fixed representation: gamma1 = diag(1, -1), gamma2 = offdiag(1, 1), so the
spinor complex structure is I = gamma1 gamma2 = [[0, 1], [-1, 0]].  The
antisymmetric spinor pairing eps has eps_{34} = +1 = eps^{34}; indices are
raised/lowered by left contraction.  All spinor-index contractions in this
package contract the second matrix index: (A v)_a = A[a, b] v_b.

Constant-matrix contractions on grid fields go through :class:`SignedMatrix`:
the frame complex structure I, eps raising, lowering and pairing, the
Clifford contraction sum_k gamma^k x_k (also with I), the P/Q projectors,
and the antiholomorphic projector (1 + I (x) J)/2 of
:mod:`sjclab.components`, J being the constant complex structure of every
target chart.  Each row of these matrices has one or two entries, each
+-1 or +-1/2, so an output entry is a copy, negation or halving of one input
entry, plus at most one more such term.  Those products are exact and a sum
of two terms is commutative, so on finite data the kernel returns what
``np.einsum`` returns bit for bit (up to the sign of an exact zero), without
the multiply-adds by zero.  The kernels act on arrays; a packed grid field
is contracted on its live blocks by ``field.map(MAP.apply, axis)``, its
grid axes last (:mod:`sjclab.fields`), so every row of a signed matrix
copies, negates, halves or adds whole contiguous M x M slabs.
Position-dependent contractions (Christoffel symbols, curvature) stay with
``np.einsum`` and ``gcontract``.
"""

from __future__ import annotations

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


class SignedMatrix:
    """A constant matrix whose rows each hold one or two entries in {+-1, +-1/2}.

    ``matrix`` has shape ``out_shape + in_shape`` with ``in_axes`` (1 or 2)
    input axes.  The structure is checked on construction, so a matrix that
    loses it fails at import instead of computing something else.
    """

    _WEIGHTS = (1.0, -1.0, 0.5, -0.5)

    def __init__(self, matrix: np.ndarray, in_axes: int = 1):
        matrix = np.asarray(matrix, dtype=float)
        if in_axes not in (1, 2) or matrix.ndim < in_axes:
            raise ValueError("a signed matrix acts on one or two axes")
        self.matrix = matrix
        self.out_shape = matrix.shape[: matrix.ndim - in_axes]
        self.in_shape = matrix.shape[matrix.ndim - in_axes :]
        rows = []
        for row in matrix.reshape(-1, *self.in_shape):
            cols = np.argwhere(row)
            weights = [float(row[tuple(c)]) for c in cols]
            if not 1 <= len(cols) <= 2 or any(w not in self._WEIGHTS for w in weights):
                raise ValueError(f"row {row.tolist()} needs one or two entries in +-1, +-1/2")
            rows.append([(tuple(int(i) for i in c), w) for c, w in zip(cols, weights)])
        self.rows = rows

    def apply(self, x: np.ndarray, axis: int) -> np.ndarray:
        """Contract the input axes with the axes of x that start at ``axis``.

        The output axes take their place: out[..., i, ...] = sum_j M[i, j] x[..., j, ...].
        """
        x = np.asarray(x)
        axis = axis % x.ndim
        n_in = len(self.in_shape)
        if x.shape[axis : axis + n_in] != self.in_shape:
            raise ValueError(f"axes {x.shape[axis:axis + n_in]} do not match {self.in_shape}")
        lead, trail = x.shape[:axis], x.shape[axis + n_in :]
        out = np.empty(lead + (len(self.rows),) + trail, dtype=np.result_type(x, float))
        pre = (slice(None),) * axis
        for i, ((col, w), *rest) in enumerate(self.rows):
            row = out[pre + (i, ...)]
            src = x[pre + col]
            if w == 1.0:
                np.copyto(row, src)
            elif w == -1.0:
                np.negative(src, out=row)
            else:
                np.multiply(src, w, out=row)
            for col, w in rest:
                src = x[pre + col]
                if w == 1.0:
                    np.add(row, src, out=row)
                elif w == -1.0:
                    np.subtract(row, src, out=row)
                else:
                    row += w * src
        return out.reshape(lead + self.out_shape + trail)


# The constant contractions of the component calculus, built from the matrices above.
IFRAME_MAP = SignedMatrix(IFRAME)  # (I T)_k = I[k, l] T_l
EPS_UPPER_MAP = SignedMatrix(EPS_UPPER)  # eps^{ab} x_b
EPS_LOWER_MAP = SignedMatrix(EPS_LOWER)  # eps_{ab} x^b
EPS_LOWER_PAIRING = SignedMatrix(EPS_LOWER, in_axes=2)  # eps_{ab} x^{ab}
# sum over (k, a) of gamma^k[b, a] x_{k a} and of (gamma^k I)[b, a] x_{k a}
GAMMA_MAP = SignedMatrix(GAMMA.transpose(1, 0, 2), in_axes=2)
GAMMA_I_MAP = SignedMatrix(np.einsum("kab,bc->akc", GAMMA, ISPIN), in_axes=2)
PMAT_MAP = SignedMatrix(PMAT, in_axes=2)
QMAT_MAP = SignedMatrix(QMAT, in_axes=2)


def project_q(chi: np.ndarray, axis: int = -2) -> np.ndarray:
    """Spin-3/2 part Q chi of a (form, spinor)-indexed array whose (k, kappa) axes start at ``axis``."""
    return QMAT_MAP.apply(chi, axis)


def project_pq_pointwise(chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a (form, spinor)-indexed array chi[..., k, kappa] into (P chi, Q chi)."""
    return PMAT_MAP.apply(chi, -2), project_q(chi)


def delta_gamma(chi: np.ndarray, axis: int = -2) -> np.ndarray:
    """delta_gamma: one-forms with spinor values to spinors, X tensor s -> gamma(X) s.

    The (form, spinor) axes of ``chi`` start at ``axis``; the spinor axis takes their place.
    """
    return GAMMA_MAP.apply(chi, axis)
