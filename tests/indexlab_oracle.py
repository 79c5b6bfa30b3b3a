"""The monomial-Gram engine for the sphere and dense torus operators, as references for the tests.

The sphere operators are built as one dense global matrix each, over the
level-M weighted monomials e_ab = z^a zbar^b (1+|z|^2)^-M listed box by
box: dbar e_ab = b e'_{a,b-1} + (b - M) e'_{a+1,b} with integer entries, and
the two Gram matrices from the closed-form radial integrals by a double
loop.  ``dense_index`` takes one global SVD of the Cholesky-whitened matrix
after rescaling both Grams to unit diagonal.  Those Grams reach condition
1e14 by cutoff 22, so this engine agrees with the orthonormal sector bases
of ``sjclab.indexlab`` only to about eps * cond; it serves at cutoffs <= 16.
The torus operators are built mode by mode with ``np.kron``.  ``dirac01``
makes the antiholomorphic Dirac half of a sphere dbar operator out of its
blocks.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from sjclab import indexlab as il
from sjclab.spin import GAMMA


def radial_integral(p: int, s: int) -> float:
    """integral over the plane of r^{2p} (1+r^2)^(-s), p <= s - 2, equal to pi p! (s-p-2)!/(s-1)!."""
    return math.pi * math.factorial(p) * math.factorial(s - p - 2) / math.factorial(s - 1)


def dense_gram(monomials, s, scale):
    size = len(monomials)
    g = np.zeros((size, size))
    for i, (a, b) in enumerate(monomials):
        for j, (c, d) in enumerate(monomials):
            if a - b != c - d:
                continue
            p = (a + b + c + d) // 2
            g[i, j] = scale * radial_integral(p, s)
    return g


def dense_dbar(k, M):
    """(A, domain Gram, codomain Gram) of dbar on O(k) in the level-M and level-(M+1) boxes, row-major."""
    dom = [(a, b) for a in range(k + M + 1) for b in range(M + 1)]
    cod = [(c, d) for c in range(k + M + 2) for d in range(M)]
    cod_index = {mon: i for i, mon in enumerate(cod)}
    A = np.zeros((len(cod), len(dom)), dtype=complex)
    for j, (a, b) in enumerate(dom):
        if b > 0:
            A[cod_index[(a, b - 1)], j] += b
        if b - M != 0:
            A[cod_index[(a + 1, b)], j] += b - M
    s = 2 * M + k + 2
    gd = dense_gram(dom, s, 4.0 * 2.0 ** (k / 2.0))
    gc = dense_gram(cod, s, 2.0 * 2.0 ** (k / 2.0))
    return A, gd, gc


def dense_dirac01(k, M):
    """Minus the Gram adjoint Gd^-1 A^H Gc of dbar, with the two Grams swapped."""
    A, gd, gc = dense_dbar(k, M)
    return -np.linalg.solve(gd, A.conj().T @ gc), gc, gd


def dirac01(op):
    """The antiholomorphic Dirac half of a sphere dbar operator: minus its adjoint, -W^H per block.

    The diagonal of -W^H at its offset cols - rows is minus the conjugate of
    W's, so the off-diagonal norm is dbar's.
    """
    stacks = [-s.conj().swapaxes(-1, -2) for s in op.stacks]
    return dataclasses.replace(op, tag=op.tag.replace("dbar", "D01"), stacks=stacks)


def dense_torus(n, M):
    freqs = np.fft.fftfreq(M, d=1.0 / M).astype(int)
    modes = [(int(k1), int(k2)) for k1 in freqs for k2 in freqs]
    w = 4 * n
    A = np.zeros((len(modes) * w, len(modes) * w), dtype=complex)
    for i, (k1, k2) in enumerate(modes):
        block = -2j * np.pi * (k1 * GAMMA[0] + k2 * GAMMA[1])
        A[i * w : (i + 1) * w, i * w : (i + 1) * w] = np.kron(block, np.eye(2 * n))
    return A, np.eye(A.shape[1]), np.eye(A.shape[0])


def dense_torus_chiral(n, M, part):
    A, _, _ = dense_torus(n, M)
    b10, b01 = il._chirality_bases(n)
    modes = M * M
    big10, big01 = np.kron(np.eye(modes), b10), np.kron(np.eye(modes), b01)
    if part == "10":
        A = big01.conj().T @ A @ big10
    else:
        A = big10.conj().T @ A @ big01
    return A, np.eye(A.shape[1]), np.eye(A.shape[0])


def unit_diagonal_condition(gd, gc):
    """The larger condition number of the two Grams rescaled to unit diagonal."""
    return max(np.linalg.cond(g / np.outer(np.sqrt(np.diag(g)), np.sqrt(np.diag(g)))) for g in (gd, gc))


def dense_index(A, gd, gc, threshold=1e-8):
    """(kernel, cokernel, descending singular values) from one global whitened SVD."""
    sd, sc = np.sqrt(np.diag(gd)), np.sqrt(np.diag(gc))
    a = A * sc[:, None] / sd[None, :]
    ld = np.linalg.cholesky(gd / np.outer(sd, sd))
    lc = np.linalg.cholesky(gc / np.outer(sc, sc))
    sv = np.linalg.svd(lc.conj().T @ a @ np.linalg.inv(ld.conj().T), compute_uv=False)
    rank = int((sv > threshold * max(sv.max(), 1.0)).sum()) if sv.size else 0
    return A.shape[1] - rank, A.shape[0] - rank, sv


def two_part_conclusive(sv, threshold):
    """The former decision on descending singular values: the gap ratio and the kept margin both reach GAP_REQUIREMENT.

    The gap ratio is the smallest kept value over the largest dropped one
    (floored at 1e-300, unbounded when either side is empty); the kept margin
    is the smallest kept value over the cut.
    """
    cut = threshold * max(sv.max(initial=0.0), 1.0)
    kept, dropped = sv[sv > cut], sv[sv <= cut]
    gap = kept.min() / max(dropped.max(), 1e-300) if kept.size and dropped.size else np.inf
    return bool(gap >= il.GAP_REQUIREMENT and (not kept.size or kept.min() / cut >= il.GAP_REQUIREMENT))
