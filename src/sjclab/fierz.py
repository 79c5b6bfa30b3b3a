"""Exact cubic curvature-contraction identities in Grassmann arithmetic.

For an admissible curvature tensor R and odd spinor coefficients
psi_mu (mu in {3, 4}), with SR_alpha = eps^{kappa lambda}
R(psi_alpha, psi_kappa) psi_lambda, the following hold for every index
triple (mu, nu, sigma):

  (A)  6 R(psi_mu, psi_nu) psi_sigma
          = 2 (Gamma^t_{mu nu} G_t[sigma, tau] - delta_{mu nu} I[sigma, tau]) SR_tau

  (B)  6 R(psi_mu, psi_nu) psi_sigma
          = (delta_{nu sigma} I[mu, tau] - Gamma^t_{nu sigma} G_t[mu, tau]
             + 3 I[nu, sigma] delta[mu, tau]) SR_tau

where G_t are the gamma matrices with the second spinor index lowered by
eps.  Chain (B) carries the antisymmetric completion term
3 I[nu, sigma] SR_mu; without it the two-term form fails on mixed triples
(checked exactly), since the map (nu, sigma) -> R(psi_mu, psi_nu) psi_sigma
is not symmetric.  Both chains also hold with R replaced by a derivative
tensor contracted with a fourth odd spinor coefficient.

Layout: the coefficients psi_mu^a are one complex array of shape
(2, dim, 2^L) whose last axis runs over the basis monomial masks of
:mod:`sjclab.grassmann`.  On entry psi is packed once by mask
(``fields.GridField``), and every graded product is ``fields.gcontract``
on the live masks, with no further scan.  R, and
each nabla_p R, is contracted over (a, b) on the pair products
psi_mu^a psi_nu^b before the remaining factors are multiplied in.

Exactness: a check is exact, and agrees coefficient by coefficient with
the sparse reference algebra of the tests (``tests/grassmann_oracle.py``),
when every partial sum is an integer below 2^53 in magnitude, because then
floating-point addition is exact in any order.  Gaussian-integer psi and
integer-valued R and nabla R of the sizes used here satisfy this, so
deviations of identically-zero quantities are exactly 0.0.
"""

from __future__ import annotations

import numpy as np

from .fields import GridField, gcontract, odd_masks
from .spin import EPS_UPPER, GAMMA_EPS, GAMMA_SYM, ISPIN


class CurvatureSymmetryError(ValueError):
    pass


def check_curvature_symmetries(R: np.ndarray) -> None:
    """Reject tensors without the full curvature symmetries (exactly), with diagnosis."""
    R = np.asarray(R)
    problems = []
    if np.abs(R + np.einsum("bacd->abcd", R)).max() > 0:
        problems.append("not antisymmetric in the first index pair")
    if np.abs(R + np.einsum("abdc->abcd", R)).max() > 0:
        problems.append("not antisymmetric in the second index pair")
    if np.abs(R - np.einsum("cdab->abcd", R)).max() > 0:
        problems.append("pair symmetry fails")
    bianchi = R + np.einsum("acdb->abcd", R) + np.einsum("adbc->abcd", R)
    if np.abs(bianchi).max() > 0:
        problems.append("first Bianchi identity fails")
    if problems:
        raise CurvatureSymmetryError("; ".join(problems))


def check_nabla_curvature_symmetries(dR: np.ndarray) -> None:
    dR = np.asarray(dR)
    for p in range(dR.shape[0]):
        try:
            check_curvature_symmetries(dR[p])
        except CurvatureSymmetryError as exc:
            raise CurvatureSymmetryError(f"slot {p}: {exc}") from None


def random_admissible_curvature(
    rng: np.random.Generator, dim: int, scale: int = 3
) -> np.ndarray:
    """Integer-valued tensor with all algebraic curvature symmetries.

    Antisymmetrize both pairs, symmetrize the pair exchange, then remove
    the cyclic part; every step preserves integrality (an overall factor 3
    is kept to clear the Bianchi projector's denominator).
    """
    T = rng.integers(-scale, scale + 1, size=(dim, dim, dim, dim)).astype(float)
    A = T - np.einsum("bacd->abcd", T)
    A = A - np.einsum("abdc->abcd", A)
    S = A + np.einsum("cdab->abcd", A)
    cyc = S + np.einsum("acdb->abcd", S) + np.einsum("adbc->abcd", S)
    R = 3.0 * S - cyc
    check_curvature_symmetries(R)
    return R


def random_admissible_nabla_curvature(
    rng: np.random.Generator, dim: int, scale: int = 2
) -> np.ndarray:
    return np.stack(
        [random_admissible_curvature(rng, dim, scale) for _ in range(dim)]
    )


def random_odd_spinor(rng: np.random.Generator, L: int, dim: int, scale: int = 2) -> np.ndarray:
    """psi[mu, a, mask]: odd Gaussian-integer Grassmann coefficients over L generators."""
    psi = np.zeros((2, dim, 1 << L), dtype=complex)
    odd = odd_masks(L)
    for mu in range(2):
        for a in range(dim):
            for m in odd:
                re, im = rng.integers(-scale, scale + 1), rng.integers(-scale, scale + 1)
                psi[mu, a, m] = complex(re, im)
    return psi


def _as_spinor(psi) -> np.ndarray:
    """psi as a complex array; nested rows of per-entry coefficient vectors must share one length."""
    try:
        return np.asarray(psi, dtype=complex)
    except ValueError:
        sizes = sorted({np.shape(entry)[-1] for row in psi for entry in row if np.ndim(entry)})
        if len(sizes) > 1:
            raise ValueError(f"psi mixes generator counts: its entries have {sizes} coefficients") from None
        raise


def _check_spinor(psi: np.ndarray, dim: int) -> tuple[GridField, int]:
    """Check psi[mu, a, mask] against R's dimension and for oddness; returns psi packed by mask, and L."""
    if psi.ndim != 3 or len(psi) != 2:
        raise ValueError(f"psi must have 2 rows (mu = 3, 4) of shape (dim, 2^L), got shape {psi.shape}")
    if psi.shape[1] != dim:
        raise ValueError(f"psi rows have {psi.shape[1]} entries but R has dimension {dim}")
    size = psi.shape[2]
    if size < 1 or size & (size - 1):
        raise ValueError(f"psi mask axis has length {size}, not a power of two")
    packed = GridField.pack(np.moveaxis(psi, -1, 0))
    even = [i for i, m in enumerate(packed.masks) if bin(m).count("1") % 2 == 0]
    if even:
        mu, a, i = np.argwhere(np.moveaxis(packed.blocks[even], 0, -1))[0]
        raise ValueError(f"psi[{mu}][{a}] is not odd: it has the even monomial {packed.masks[even[i]]:#b}")
    return packed, size.bit_length() - 1


def _pairs(psi: GridField, L: int) -> GridField:
    """P[mask, mu, nu, a, b] = psi_mu^a psi_nu^b."""
    return gcontract(psi, psi, "ma,nb->mnab", L)


def _cubic(P: GridField, psi: GridField, R: np.ndarray, L: int) -> GridField:
    """V[mask, mu, nu, sigma, e] = (R(psi_mu, psi_nu) psi_sigma)^e, R contracted on P first."""
    return gcontract(P.map(np.tensordot, R, 2), psi, "mnce,sc->mnse", L)


def _chain_operators() -> np.ndarray:
    """(2, 8, 8) maps V -> 6 V - RHS(SR) of chains A and B, on flattened (mu, nu, sigma).

    With SR_tau = eps^{kappa lambda} V[tau, kappa, lambda], the right-hand
    sides are sum_tau C[mu, nu, sigma, tau] SR_tau for the coefficient
    tensors C of the module docstring.
    """
    delta = np.eye(2)
    coeff_a = 2.0 * (
        np.einsum("tmn,tsu->mnsu", GAMMA_SYM, GAMMA_EPS) - np.einsum("mn,su->mnsu", delta, ISPIN)
    )
    coeff_b = (
        np.einsum("ns,mu->mnsu", delta, ISPIN)
        - np.einsum("tns,tmu->mnsu", GAMMA_SYM, GAMMA_EPS)
        + 3.0 * np.einsum("ns,mu->mnsu", ISPIN, delta)
    )
    rhs = np.einsum("cmnsu,kl->cmnsukl", np.stack([coeff_a, coeff_b]), EPS_UPPER)
    return 6.0 * np.eye(8) - rhs.reshape(2, 8, 8)


_CHAINS = _chain_operators()


def _chain_deviations(V: GridField) -> tuple[float, float]:
    """Max coefficient deviation of chains A and B for V[mask, mu, nu, sigma, ...]."""
    dev = np.abs(_CHAINS @ np.moveaxis(V.blocks, 0, -1).reshape(8, -1)).reshape(2, -1).max(axis=1, initial=0.0)
    return float(dev[0]), float(dev[1])


def fierz_check(
    R: np.ndarray,
    psi: np.ndarray,
    nablaR: np.ndarray | None = None,
) -> dict:
    """Evaluate both identity chains; returns per-chain max coefficient deviation.

    ``psi`` is the (2, R.shape[0], 2^L) array of odd coefficients psi[mu, a, mask].
    When ``nablaR`` is given the same chains are also evaluated for that
    derivative tensor contracted against each psi_rho; this needs at least
    four base generators for a nonvacuous quartic test.
    """
    R = np.asarray(R, dtype=float)
    dim = R.shape[0] if R.ndim else 0
    if R.shape != (dim,) * 4:
        raise ValueError(f"R must have shape (dim,)*4, got {R.shape}")
    check_curvature_symmetries(R)
    psi, L = _check_spinor(_as_spinor(psi), dim)
    if nablaR is not None:
        if L < 4:
            raise ValueError("the derivative identities need at least 4 generators")
        nablaR = np.asarray(nablaR, dtype=float)
        if nablaR.shape != (dim,) * 5:
            raise ValueError(f"nablaR must have shape {(dim,) * 5}, got {nablaR.shape}")
        check_nabla_curvature_symmetries(nablaR)
    P = _pairs(psi, L)
    dev_a, dev_b = _chain_deviations(_cubic(P, psi, R, L))
    report = {"chain_a": dev_a, "chain_b": dev_b, "max_deviation": max(dev_a, dev_b)}
    if nablaR is not None:
        # psi_rho^p (nabla_p R)(psi_mu, psi_nu) psi_sigma; the even pair
        # product commutes past psi_rho^p, leaving P[rho, sigma, p, c]
        Qd = P.map(np.tensordot, np.moveaxis(nablaR, 0, 2), 2)
        dev_da, dev_db = _chain_deviations(gcontract(Qd, P, "mnpce,rspc->mnsre", L))
        report["chain_a_derivative"] = dev_da
        report["chain_b_derivative"] = dev_db
        report["max_deviation"] = max(report["max_deviation"], dev_da, dev_db)
    return report
