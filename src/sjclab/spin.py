"""Two-dimensional spin conventions: gamma matrices, spinor pairings, projectors.

Fixed representation: gamma1 = diag(1, -1), gamma2 = offdiag(1, 1), so the
spinor complex structure is I = gamma1 gamma2 = [[0, 1], [-1, 0]].  The
antisymmetric spinor pairing eps has eps_{34} = +1 = eps^{34}; indices are
raised/lowered by left contraction.  All spinor-index contractions in this
package contract the second matrix index: (A v)_a = A[a, b] v_b.
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


def project_pq_pointwise(chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a (form, spinor)-indexed array chi[..., k, kappa] into (P chi, Q chi)."""
    p = np.einsum("aibj,...bj->...ai", PMAT, chi)
    q = np.einsum("aibj,...bj->...ai", QMAT, chi)
    return p, q


def delta_gamma(chi: np.ndarray) -> np.ndarray:
    """delta_gamma: one-forms with spinor values to spinors, X tensor s -> gamma(X) s."""
    return np.einsum("kab,...kb->...a", GAMMA, chi)
