"""Discretized Cauchy-Riemann and Dirac operators with exact kernels and cokernels.

Sphere operators act on degree-k line bundles over the projective line,
on the affine chart, between the spans of the level-m weighted monomials

    e_ab = z^a zbar^b (1 + |z|^2)^(-m),   0 <= a <= k+m, 0 <= b <= m,

which are exactly the restrictions of bidegree-(k+m, m) bihomogeneous
functions; the chart dbar maps the level-m box into the level-(m+1)
codomain box (0 <= c <= k+m+1, 0 <= d <= m-1) with

    dbar e_ab = b e'_{a, b-1} + (b - m) e'_{a+1, b},

so at every admissible cutoff the kernel is exactly the degree-<=k
holomorphic polynomials and the complex index is exactly k + 1.  Inner
products use the round metrics (domain weight (1+|z|^2)^(-k-2) times the
level weight).

Torus operators are Fourier-diagonal on the flat square torus with the
periodic spin structure.

Every operator here is block-diagonal, is stored only as its blocks, and is
written in orthonormal bases, so its adjoint is the conjugate transpose
and its singular values are those of its blocks:

* sphere: dbar preserves the U(1) charge, mapping the domain sector of
  charge q = a - b into the codomain sector of charge q + 1.  In
  t = |z|^2 / (1 + |z|^2) each sector's inner product is a Jacobi weight,
  and each sector gets the orthonormal Jacobi polynomials of that weight,
  from their three-term recurrence evaluated at the nodes of one
  Gauss-Legendre rule that integrates every entry exactly (see
  ``build_dbar_sphere``).  The monomials themselves are never used: their
  Gram matrices reach condition 1e14 by cutoff 22.
* torus: the Dirac operator is diagonal in the Fourier modes k, with
  block -2 pi i (k1 gamma^1 + k2 gamma^2) (x) I per mode; the chiral
  halves split mode by mode too.

Blocks of one shape are stacked on a leading axis.  In the Jacobi bases
every sphere block is a single diagonal, at offset cols - rows, up to
roundoff: the build records the largest Frobenius norm of a block's part off
that diagonal, and the singular values are read off the diagonal, each
within that norm of a true one by Weyl's inequality.  Torus blocks of one
shape go through LAPACK in one SVD call.  For a block-diagonal matrix the
union of the block spectra is the global spectrum, so kernel and cokernel
are the global ones.  No
dense global matrix is assembled, and no block records where its
coordinates sit in the global bases: the verdicts read only spectra and
block shapes.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .spin import GAMMA, ISPIN
from .targets import standard_J

# Smallest ratio of the smallest kept singular value to the rank cut for which
# an index report that keeps a value is conclusive.  Every dropped value lies
# at or below the cut, so the ratio of the smallest kept to the largest
# dropped value is at least as large.
GAP_REQUIREMENT = 1e3
# Largest sphere cutoff, checked before anything is allocated: at cutoff 200
# the blocks of dbar O(0) hold 5.4M entries (43 MB), those of O(198) 107 MB.
SPHERE_CUTOFF_LIMIT = 200
# Largest accepted entry of |Gram - I| of a sphere sector basis under its quadrature.
ORTHONORMALITY_LIMIT = 1e-10
# Largest count of basis values (sectors x degrees x nodes) the sphere build
# holds at once, unless one sector alone needs more: 128 KiB a copy.
SPHERE_BATCH_VALUES = 1 << 14
# Largest torus mode array (modes x block entries), checked before allocation:
# cutoff 256 at target rank 1, 128 at rank 2.
TORUS_ENTRY_LIMIT = 1 << 20
TORUS_CUTOFF_MIN = 4  # smallest torus mode cutoff


class IndexLabError(ValueError):
    pass


# -- closed-form oracles -------------------------------------------------------


def h_oracle(k: int) -> tuple[int, int]:
    """(h0, h1) for the degree-k line bundle by two-chart monomial counting.

    z^a is a global section iff the second chart sees w^(k-a), that is
    0 <= a <= k; by Serre duality h1 counts the sections of degree -k-2.
    """
    return max(k + 1, 0), max(-k - 1, 0)


def sphere_spectrum(k: int, M: int) -> np.ndarray:
    """Nonzero singular values of dbar on O(k) at cutoff M, descending, in closed form.

    sigma_l = sqrt(l (l + k + 1) / 2) with multiplicity k + 2l + 1, for
    l = max(1, -k)..M: the levels of the round Laplacian on the bundle that
    the level-M box resolves.
    """
    levels = np.arange(M, max(1, -k) - 1, -1)
    return np.repeat(np.sqrt(levels * (levels + k + 1) / 2), k + 2 * levels + 1)


# -- block storage ----------------------------------------------------------------


def _herm(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


@dataclass
class OperatorMatrix:
    """A block-diagonal operator between two orthonormal coordinate spaces.

    It is stored only as its diagonal blocks: each of ``stacks`` holds the
    blocks of one shape on a leading axis, (blocks, rows, cols), and the
    blocks run down the diagonal in stack order.  ``shape`` is (codomain
    dimension, domain dimension).  ``orthonormality_defect`` is the largest
    entry of |Gram - I| of its bases, as far as they are computed (0.0 for
    bases that are orthonormal by construction).  ``offdiagonal_norm`` is set
    for an operator whose blocks are each a single diagonal at offset
    cols - rows up to roundoff: the largest Frobenius norm of a block's part
    off that diagonal.  It is None for any other operator.
    """

    stacks: list[np.ndarray]
    tag: str
    is_complex_linear: bool
    orthonormality_defect: float = 0.0
    offdiagonal_norm: float | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return sum(s.shape[0] * s.shape[1] for s in self.stacks), sum(s.shape[0] * s.shape[2] for s in self.stacks)


def adjoint_deviation(op: OperatorMatrix, other: OperatorMatrix) -> float:
    """Largest entry of |A^H + B|, block by block.

    A is a block of ``op`` and B the matching block of ``other``.  Zero when
    ``other`` is minus the adjoint of ``op`` (``op`` itself when it is
    anti-self-adjoint).  Each block of ``other`` must have the transposed
    shape of its block of ``op``.
    """
    if [t.shape for t in other.stacks] != [s.shape[:1] + s.shape[:0:-1] for s in op.stacks]:
        raise IndexLabError(f"{op.tag} and {other.tag} have different block layouts")
    return max((float(np.abs(_herm(s) + t).max()) for s, t in zip(op.stacks, other.stacks) if s.size), default=0.0)


# -- sphere operators -------------------------------------------------------------


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1] (Golub and Welsch 1969), read-only.

    The nodes are the eigenvalues of the Jacobi matrix of the Legendre
    recurrence on [0, 1], the weights the squared first components of its
    eigenvectors (the weight's mass is 1).  Cached per node count, so every
    caller shares the two arrays.
    """
    j = np.arange(1.0, n)
    nodes, vectors = np.linalg.eigh(np.diag(np.full(n, 0.5)) + np.diag(j / (2 * np.sqrt(4 * j * j - 1)), -1))
    # mirrored pairs averaged: the rule is symmetric about 1/2, so t reversed stands for 1 - t
    rule = (nodes + 1 - nodes[::-1]) / 2, (vectors[0] ** 2 + vectors[0, ::-1] ** 2) / 2
    for a in rule:
        a.flags.writeable = False
    return rule


def _jacobi_recurrence(alpha: np.ndarray, beta: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Recurrence (a, c) of the orthonormal polynomials for t^alpha (1-t)^beta on [0, 1], one row per weight.

    c_{j+1} p_{j+1} = (t - a_j) p_j - c_j p_{j-1} for j = 0..size - 2: the
    Jacobi coefficients on [-1, 1], exponent beta at s = 1 and alpha at
    s = -1 (Gautschi 2004, section 1.5), moved to t = (1 + s) / 2.
    """
    ea, eb = beta[:, None].astype(float), alpha[:, None].astype(float)
    j = np.arange(1.0, size)
    s = 2 * j + ea + eb
    shift = np.concatenate([(eb - ea) / (ea + eb + 2), (eb * eb - ea * ea) / (s * (s + 2))], axis=1)
    step = 4 * j * (j + ea) * (j + eb) * (j + ea + eb) / (s * s * (s + 1) * (s - 1))
    return (1 + shift) / 2, np.concatenate([np.zeros_like(ea), np.sqrt(step) / 2], axis=1)


def _sector_bases(alpha: np.ndarray, beta: np.ndarray, size: np.ndarray, nodes: tuple) -> np.ndarray:
    """The first size[s] orthonormal polynomials for each weight t^alpha[s] (1-t)^beta[s], at the nodes.

    ``nodes`` is (t, log t, log(1 - t), log w) of a Gauss-Legendre rule on
    [0, 1].  Returns V, with V[s, j, i] = sqrt(w_i t_i^alpha (1-t_i)^beta)
    p_j(t_i) for j < size[s] and 0 beyond, so V[s] V[s]^T is the Gram matrix
    of the p_j under the rule (p_0 is normalised by it).  The root is taken
    in logs, so no power overflows; the recurrence runs on the rooted values,
    for every row to the largest size, and the rows past a sector's size are
    zeroed after.
    """
    t, log_t, log_u, log_w = nodes
    depth = int(size.max())
    a, c = _jacobi_recurrence(alpha, beta, depth)
    v = np.zeros((depth, size.size, t.size))  # degree first while the recurrence runs
    root = np.exp(0.5 * (log_w + alpha[:, None] * log_t + beta[:, None] * log_u))
    v[0] = root / np.linalg.norm(root, axis=1, keepdims=True)
    x = t - a.T[:, :, None]
    for j in range(depth - 1):  # c_0 = 0 meets the zero row v[-1] at j = 0
        np.multiply(x[j], v[j], out=v[j + 1])
        v[j + 1] -= c[:, j, None] * v[j - 1]
        v[j + 1] /= c[:, j + 1, None]
    v[np.arange(depth)[:, None] >= size] = 0.0
    return v.transpose(1, 0, 2)


def _sector_blocks(k: int, M: int, q, b0, top, nb, nd, nodes: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of dbar on O(k) for the sectors of charges q, padded with zeros to the largest block.

    Sector k - q mirrors sector q, as t -> 1 - t swaps the exponents of both
    its weights: its polynomials are (-1)^j p_j(1 - t), read off the
    reversed nodes, and its Gram matrices are the twin's with signs flipped.
    So a sector q > k - q whose twin is among the given ones is not computed.
    Returns the blocks and the Gram defects, (domain, codomain) by sector, a
    mirror sector carrying its twin's.
    """
    t, u = nodes[0], nodes[0][::-1]  # 1 - t, the rule being symmetric
    at = np.full(k + 2 * M + 1, -1)
    at[q + M] = np.arange(q.size)
    # both sides in one pass, domain sectors then codomain sectors
    size = np.concatenate([nb, nd])
    alpha, beta = np.abs(np.concatenate([q, q + 1])), np.abs(np.concatenate([k - q, k - q + 1]))
    own = np.tile((q <= k - q) | (at[k - q + M] < 0), 2)
    basis = _sector_bases(alpha[own], beta[own], size[own], nodes)
    mirror = np.tile(at[k - q + M], 2) + np.repeat([0, q.size], q.size)
    source = (np.cumsum(own) - 1)[np.where(own, np.arange(own.size), mirror)]  # the computed row behind each row
    v = basis[source]
    j = np.arange(v.shape[1])
    v[~own] = v[~own, :, ::-1] * (-1.0) ** j[:, None]
    v, vt = v[: q.size], v[q.size :]
    # t (1 - t) p_j' = j ((j + beta) / (2j + alpha + beta) - t) p_j + (2j + alpha + beta + 1) c_j p_{j-1}
    # (the Jacobi structure relation), so the image of p_j needs p_j and p_{j-1} only
    alpha, beta = alpha[: q.size, None], beta[: q.size, None]
    _, c = _jacobi_recurrence(alpha[:, 0], beta[:, 0], j.size)
    shift = j * (j + beta) / np.maximum(2 * j + alpha + beta, 1)
    root = np.sqrt(2 * t * u)
    image = ((((top - M)[:, None] - j)[:, :, None] * t + b0[:, None, None] * u + shift[:, :, None]) / root) * v
    image[:, 1:] += ((2 * j + alpha + beta + 1) * c)[:, 1:, None] / root * v[:, :-1]
    gram = basis @ basis.swapaxes(1, 2) - (j < size[own, None])[:, :, None] * np.eye(j.size)
    return vt @ image.swapaxes(1, 2), np.abs(gram).max(axis=(1, 2))[source].reshape(2, q.size)


def _offdiagonal_norm(padded: np.ndarray, nb: np.ndarray, nd: np.ndarray) -> float:
    """Largest Frobenius norm of a block's part off its diagonal at offset nb - nd, over a padded batch.

    Block s is padded[s, :nd[s], :nb[s]]; the padding is left out.  The
    diagonal is zeroed in a copy: the squared norm less the squared diagonal
    would cancel catastrophically.
    """
    i, j = np.arange(padded.shape[1])[:, None], np.arange(padded.shape[2])
    off = (i < nd[:, None, None]) & (j < nb[:, None, None]) & (j - i != (nb - nd)[:, None, None])
    return float(np.linalg.norm(np.where(off, padded, 0.0), axis=(1, 2)).max())


def build_dbar_sphere(k: int, M: int) -> OperatorMatrix:
    """Matrix of dbar on the degree-k bundle at level cutoff M, in orthonormal sector bases.

    M >= |k| + 2 is required so both boxes are nonempty and resolved, and
    M <= SPHERE_CUTOFF_LIMIT.  In t = |z|^2 / (1 + |z|^2) the domain sector
    of charge q spans z^q (1+|z|^2)^-M t^b0 (1-t)^-N p(t), p of degree
    N - b0, where b0..N is its range of second exponents b; the codomain
    sector q + 1 likewise, with d0..N' and (1+|z|^2)^-(M+1).  The norm of
    each side is a Jacobi weight: 4 2^(k/2) pi t^|q| (1-t)^|k-q| on the
    domain, 2 2^(k/2) pi t^|q+1| (1-t)^|k-q+1| on the codomain.  Every basis
    is orthonormal for its weight, and dbar acts as (1 - t) d/dt - M on the
    polynomial part in x = t / (1 - t), so with the rooted values of
    ``_sector_bases``

        W[i, j] = sum over nodes of p~_i [((N - M) t + b0 (1 - t)) p_j + t (1 - t) p_j'] / sqrt(2 t (1 - t)).

    Every integrand is a polynomial of degree 2M + k, which the one
    Gauss-Legendre rule of M + k//2 + 1 nodes integrates exactly; a basis
    whose Gram matrix under that rule is off the identity by more than
    ORTHONORMALITY_LIMIT is refused, naming its sector.

    Stacks come by decreasing block size (the mirror sectors q = -j and
    q = k + j share a shape), sectors by ascending charge within a stack.
    The sectors are built in batches of at most SPHERE_BATCH_VALUES basis
    values (or one sector), each batch padded to its largest block.

    The image of p_j holds p_j and p_{j-1} only, and the codomain basis is
    the domain's shifted by one exponent, so every block is a single
    diagonal at offset cols - rows up to roundoff.  The largest Frobenius
    norm of a block's part off it, measured on each batch before it is
    scattered into the stacks, is the operator's ``offdiagonal_norm``.
    """
    if M > SPHERE_CUTOFF_LIMIT:
        raise IndexLabError(f"sphere cutoff {M} is above the limit of {SPHERE_CUTOFF_LIMIT}; lower the cutoff")
    if M < abs(k) + 2:
        raise IndexLabError(f"cutoff {M} too small for degree {k}")
    t, w = _gauss_legendre(M + k // 2 + 1)
    nodes = (t, np.log(t), np.log(t[::-1]), np.log(w))
    # sector q: second exponents b = b0..N (domain), d = d0..N' (codomain)
    q = np.arange(-M, k + M + 1)
    b0, d0 = np.maximum(0, -q), np.maximum(0, -q - 1)
    top = np.minimum(M, k + M - q)
    nb, nd = top - b0 + 1, np.minimum(M - 1, k + M - q) - d0 + 1
    # sectors grouped by block shape, the largest first, charges ascending within a shape
    order = np.lexsort((q, -nd, -nb))
    q, b0, top, nb, nd = q[order], b0[order], top[order], nb[order], nd[order]
    bounds = [0, *(np.flatnonzero(np.diff(nb * (M + 2) + nd)) + 1).tolist(), q.size]
    stacks = [np.empty((stop - start, nd[start], nb[start])) for start, stop in zip(bounds[:-1], bounds[1:])]
    stack_of = np.repeat(np.arange(len(stacks)), np.diff(bounds))
    defects, first, offdiagonal = [], 0, 0.0
    while first < q.size:
        end = min(q.size, first + max(1, SPHERE_BATCH_VALUES // (2 * int(nb[first]) * t.size)))
        cut = slice(first, end)
        padded, err = _sector_blocks(k, M, q[cut], b0[cut], top[cut], nb[cut], nd[cut], nodes)
        defects.append(err)
        offdiagonal = max(offdiagonal, _offdiagonal_norm(padded, nb[cut], nd[cut]))
        for g in range(stack_of[first], stack_of[end - 1] + 1):
            lo, hi = max(bounds[g], first), min(bounds[g + 1], end)
            _, rows, cols = stacks[g].shape
            stacks[g][lo - bounds[g] : hi - bounds[g]] = padded[lo - first : hi - first, :rows, :cols]
        first = end
    err = np.concatenate(defects, axis=1)
    side, i = np.unravel_index(np.argmax(err), err.shape)
    if err[side, i] > ORTHONORMALITY_LIMIT:
        raise IndexLabError(
            f"sphere {('domain', 'codomain')[side]} basis of sector q={q[i]} is not orthonormal: "
            f"Gram defect {err[side, i]:.3g} exceeds {ORTHONORMALITY_LIMIT:.0e}"
        )
    return OperatorMatrix(
        tag=f"dbar O({k})",
        is_complex_linear=True,
        stacks=stacks,
        orthonormality_defect=float(err[side, i]),
        offdiagonal_norm=offdiagonal,
    )


def build_dirac10_sphere(target_degree_d: int, M: int) -> OperatorMatrix:
    """Holomorphic Dirac half along a degree-d sphere-to-sphere map.

    The pulled-back tangent bundle has splitting type O(2d); twisting by
    the dual spinor bundle O(-1) reduces the operator to dbar on O(2d-1).
    """
    op = build_dbar_sphere(2 * target_degree_d - 1, M)
    op.tag = f"D10 degree-{target_degree_d} sphere map"
    return op


# -- torus operators -------------------------------------------------------------


def _torus_modes(M: int) -> np.ndarray:
    """(M^2, 2) Fourier modes (k1, k2), k1 outer."""
    freqs = np.fft.fftfreq(M, d=1.0 / M).astype(int)
    return np.stack(np.meshgrid(freqs, freqs, indexing="ij"), axis=-1).reshape(-1, 2)


def build_dirac_torus(n_target: int, M: int) -> OperatorMatrix:
    """Twisted Dirac operator on the flat square torus, Fourier modes.

    Block-diagonal over modes with block -2 pi i (k1 gamma^1 + k2 gamma^2)
    per complexified target component; anti-self-adjoint; kernel = the
    constant spinors.
    """
    if M < TORUS_CUTOFF_MIN:
        raise IndexLabError(f"torus cutoff {M} is below the minimum of {TORUS_CUTOFF_MIN}")
    dim_t = 2 * n_target
    width = 2 * dim_t
    entries = M * M * width * width
    if entries > TORUS_ENTRY_LIMIT:
        raise IndexLabError(
            f"torus cutoff {M} at target rank {n_target} needs {M * M} modes of "
            f"{width}x{width} blocks ({entries} entries), above the limit of "
            f"{TORUS_ENTRY_LIMIT} entries; lower the cutoff"
        )
    modes = _torus_modes(M)
    k1, k2 = modes[:, 0, None, None], modes[:, 1, None, None]
    block = -2j * np.pi * (k1 * GAMMA[0] + k2 * GAMMA[1])
    # np.kron(block, eye) for every mode at once
    full = (block[:, :, None, :, None] * np.eye(dim_t)[None, None, :, None, :]).reshape(
        len(modes), width, width
    )
    return OperatorMatrix(
        tag=f"Dirac torus n={n_target}",
        is_complex_linear=False,
        stacks=[full],
    )


def _chirality_bases(n_target: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the (1,0) and (0,1) subspaces of spinor x target.

    On coefficients v[alpha, b] the tensor structure acts by
    ((I x J) v)[alpha, c] = ISPIN[alpha, beta] J[b, c] v[beta, b]; it squares
    to +1, so the chirality halves are its eigenspaces.
    """
    dim_t = 2 * n_target
    J = standard_J(n_target)
    big = np.einsum("ab,dc->acbd", ISPIN, J).reshape(2 * dim_t, 2 * dim_t)
    p01 = 0.5 * (np.eye(2 * dim_t) + big)
    p10 = 0.5 * (np.eye(2 * dim_t) - big)

    def image_basis(P):
        u, s, _ = np.linalg.svd(P)
        rank = int(np.sum(s > 0.5))
        return u[:, :rank]

    return image_basis(p10), image_basis(p01)


def torus_chiral_halves(full: OperatorMatrix) -> tuple[OperatorMatrix, OperatorMatrix]:
    """The chiral halves (D10, D01) of a ``build_dirac_torus`` operator.

    The operator swaps the two chirality subspaces, so each half maps one
    of them onto the other, mode by mode, in orthonormal bases.
    """
    (modes,) = full.stacks
    n_target = modes.shape[-1] // 4
    b10, b01 = _chirality_bases(n_target)
    defect = max(float(np.abs(_herm(b) @ b - np.eye(b.shape[1])).max()) for b in (b10, b01))
    d10, d01 = (
        OperatorMatrix(
            tag=f"D{part} torus n={n_target}",
            is_complex_linear=False,
            stacks=[cod.conj().T @ modes @ dom],
            orthonormality_defect=defect,
        )
        for part, dom, cod in (("10", b10, b01), ("01", b01, b10))
    )
    return d10, d01


# -- kernel / cokernel reports ---------------------------------------------------


@dataclass
class IndexReport:
    tag: str
    kernel_dim: int
    cokernel_dim: int
    threshold: float
    conclusive: bool
    is_complex_linear: bool
    singular_values: np.ndarray
    basis_orthonormality_defect: float
    kept_margin: float | None  # smallest kept singular value / cut
    offdiagonal_norm: float | None  # bound on |read - true| singular value; None after SVD

    @property
    def kernel_dim_real(self) -> int:
        return 2 * self.kernel_dim if self.is_complex_linear else self.kernel_dim

    @property
    def cokernel_dim_real(self) -> int:
        return 2 * self.cokernel_dim if self.is_complex_linear else self.cokernel_dim

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.name != "singular_values"}
        out.update(kernel_dim_real=self.kernel_dim_real, cokernel_dim_real=self.cokernel_dim_real)
        return out


def _singular_values(op: OperatorMatrix) -> np.ndarray:
    """Singular values of all blocks, descending, zero-padded to min(shape).

    An operator with an ``offdiagonal_norm`` epsilon has them read off its
    block diagonals: a block is its diagonal D plus a part E with
    ||E||_2 <= ||E||_F <= epsilon, D's singular values are |diagonal|, and
    |sigma_i(D + E) - sigma_i(D)| <= ||E||_2 (Weyl's inequality, Golub and
    Van Loan, Matrix Computations, Cor. 8.6.2).  Any other operator takes
    one LAPACK SVD per block shape.
    """
    if op.offdiagonal_norm is None:
        pieces = [np.linalg.svd(s, compute_uv=False).ravel() for s in op.stacks if s.size]
    else:
        pieces = [np.abs(np.diagonal(s, s.shape[2] - s.shape[1], 1, 2)).ravel() for s in op.stacks]
    sv = np.sort(np.concatenate([np.zeros(0), *pieces]))[::-1]
    return np.concatenate([sv, np.zeros(min(op.shape) - sv.size)])


def numeric_index(op: OperatorMatrix, threshold: float = 1e-8) -> IndexReport:
    """Kernel/cokernel dimensions from singular values below a relative threshold.

    The report is conclusive when nothing is kept or the kept margin, the
    smallest kept singular value over the cut, reaches GAP_REQUIREMENT, and,
    for singular values read off the block diagonals, the off-diagonal norm
    is at most the cut.  Each true singular value then lies within the cut
    of a read one: the kept ones stay at or above (GAP_REQUIREMENT - 1) cut,
    the dropped ones at or below 2 cut, so the kernel count is certified.
    """
    sv = _singular_values(op)
    ncod, ndom = op.shape
    cut = threshold * max(sv.max(initial=0.0), 1.0)
    kept = sv[sv > cut]
    kept_margin = float(kept.min() / cut) if kept.size else None
    offdiagonal = op.offdiagonal_norm
    return IndexReport(
        tag=op.tag,
        kernel_dim=ndom - kept.size,
        cokernel_dim=ncod - kept.size,
        threshold=threshold,
        conclusive=(kept_margin is None or kept_margin >= GAP_REQUIREMENT)
        and bool(offdiagonal is None or offdiagonal <= cut),
        is_complex_linear=op.is_complex_linear,
        singular_values=sv,
        basis_orthonormality_defect=op.orthonormality_defect,
        kept_margin=kept_margin,
        offdiagonal_norm=offdiagonal,
    )
