"""Discretized Cauchy-Riemann and Dirac operators with exact index bookkeeping.

Sphere operators act on degree-k line bundles over the projective line,
realized on the affine chart by level-m weighted monomial bases

    e_ab = z^a zbar^b (1 + |z|^2)^(-m),   0 <= a <= k+m, 0 <= b <= m,

which are exactly the restrictions of bidegree-(k+m, m) bihomogeneous
functions; the chart dbar maps the level-m box into the level-(m+1)
codomain box (0 <= c <= k+m+1, 0 <= d <= m-1) with

    dbar e_ab = b e'_{a, b-1} + (b - m) e'_{a+1, b},

so at every admissible cutoff the kernel is exactly the degree-<=k
holomorphic polynomials and the complex index is exactly k + 1.
Inner products use the round metrics (domain weight (1+|z|^2)^(-k-2)
pattern times the level weight), all radial integrals in closed form.

Torus operators are Fourier-diagonal on the flat square torus with the
periodic spin structure.

Every operator here is block-diagonal and is stored only as its blocks:

* sphere: dbar preserves the U(1) charge, mapping the domain sector of
  charge q = a - b into the codomain sector of charge q + 1.  Both Gram
  matrices are block-diagonal by charge; the sector block of monomials
  with second exponents b, d is the Hankel matrix of radial integrals
  R(b + d + q) (codomain: R(b + d + q + 1)), read from one table of
  R(p) per operator.  Each sector is built straight from its charge:
  there is no global monomial basis, only the positions of the sector's
  monomials in the two boxes.  All sectors are built in one pass, each
  array of a block shape gathered in one indexing step.  Blocks are
  labelled by the domain charge of dbar.
* torus: the Dirac operator is diagonal in the Fourier modes k, with
  block -2 pi i (k1 gamma^1 + k2 gamma^2) (x) I per mode; the chiral
  halves split mode by mode too.

Gram checks, whitened SVDs and adjoints run block by block, with blocks of
one shape stacked on a leading axis (all torus modes go through LAPACK in
one batched call).  The Gram rescale, eigenvalues, Cholesky factors and
inverse factors run once per matrix size, over every block of both sides:
LAPACK sees each matrix alone, so the bits are those of per-block calls.
Nothing is padded.  The Cholesky factors are taken only once the Gram gate
has passed.  For a block-diagonal matrix the union of the block spectra is
the global spectrum, so kernel, cokernel and the Gram gate are the global
ones.  No dense global matrix is assembled.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .spin import GAMMA, ISPIN
from .targets import standard_J

# Largest accepted condition number of a unit-diagonal Gram matrix.
GRAM_CONDITION_LIMIT = 1e14
# Smallest ratio of the smallest kept to the largest dropped singular value
# for which an index report is conclusive.
GAP_REQUIREMENT = 1e3
# Largest torus mode array (modes x block entries), checked before allocation:
# cutoff 256 at target rank 1, 128 at rank 2.
TORUS_ENTRY_LIMIT = 1 << 20


class IndexLabError(ValueError):
    pass


# -- dimension-count oracles ---------------------------------------------------


def h_oracle(k: int) -> tuple[int, int]:
    """(h0, h1) for the degree-k line bundle by two-chart monomial counting.

    z^a is a global section iff the second chart sees w^(k-a), that is
    0 <= a <= k; by Serre duality h1 counts the sections of degree -k-2.
    """
    return max(k + 1, 0), max(-k - 1, 0)


def riemann_roch(n: int, p: int, c1A: int) -> int:
    """Real index of a rank-n Cauchy-Riemann operator over genus p."""
    return 2 * n * (1 - p) + 2 * c1A


def dirac10_index(c1A: int) -> int:
    """Real index of the holomorphic half of the twisted Dirac operator."""
    return 2 * c1A


# -- block storage ----------------------------------------------------------------


def _herm(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


@dataclass
class BlockStack:
    """Diagonal blocks of one shape, stacked on a leading axis.

    ``matrix[i]`` maps the domain coordinates ``dom[i]`` to the codomain
    coordinates ``cod[i]`` (positions in the operator's global bases);
    ``gram_domain[i]`` and ``gram_codomain[i]`` are the two inner products
    restricted to those coordinates.  A Gram matrix shared by every block
    (the torus modes) is stored once, with leading axis 1, and broadcasts.
    """

    matrix: np.ndarray         # (n, rows, cols)
    gram_domain: np.ndarray    # (n or 1, cols, cols)
    gram_codomain: np.ndarray  # (n or 1, rows, rows)
    dom: np.ndarray            # (n, cols) int
    cod: np.ndarray            # (n, rows) int
    labels: list[str]

    def adjoint(self) -> BlockStack:
        """Gram adjoint of every block: Gd^-1 A^H Gc."""
        return BlockStack(
            matrix=np.linalg.solve(self.gram_domain, _herm(self.matrix) @ self.gram_codomain),
            gram_domain=self.gram_codomain,
            gram_codomain=self.gram_domain,
            dom=self.cod,
            cod=self.dom,
            labels=self.labels,
        )

    def normalized(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Diagonal rescale to unit-norm basis vectors (spectrum unchanged)."""
        return _normalized([self])[0]


def _shared_identity(gram: np.ndarray) -> bool:
    """Whether ``gram`` is the identity, stored once for every block."""
    return gram.shape[0] == 1 and np.array_equal(gram[0], np.eye(gram.shape[-1]))


class OperatorMatrix:
    """A block-diagonal operator between two Gram-weighted coordinate spaces.

    It is stored only as its ``stacks`` of diagonal blocks; ``shape`` is
    (codomain dimension, domain dimension).
    """

    def __init__(self, *, stacks: list[BlockStack], tag: str, is_complex_linear: bool):
        self.stacks = stacks
        self.tag = tag
        self.is_complex_linear = is_complex_linear
        self.shape = (sum(s.cod.size for s in stacks), sum(s.dom.size for s in stacks))

    def adjoint(self) -> OperatorMatrix:
        """Adjoint with respect to the two Gram inner products, block by block."""
        return OperatorMatrix(
            tag=f"({self.tag})*",
            is_complex_linear=self.is_complex_linear,
            stacks=[s.adjoint() for s in self.stacks],
        )


def adjoint_deviation(op: OperatorMatrix, other: OperatorMatrix) -> float:
    """Largest entry of |A^H Gc + Gd B| = |Gd (op* + other)|, block by block.

    A is a block of ``op`` and B the matching block of ``other``; op* is the
    Gram adjoint Gd^-1 A^H Gc.  Zero when ``other`` is minus the adjoint of
    ``op`` (``op`` itself when it is anti-self-adjoint), with no inverse
    taken; with identity Grams (the torus) it is |op* + other| exactly.
    ``other`` must map each codomain block of ``op`` back to its domain block.
    """
    if len(op.stacks) != len(other.stacks) or not all(
        np.array_equal(s.cod, t.dom) and np.array_equal(s.dom, t.cod)
        for s, t in zip(op.stacks, other.stacks)
    ):
        raise IndexLabError(f"{op.tag} and {other.tag} have different block layouts")
    return max(
        (
            float(np.abs(_herm(s.matrix) @ s.gram_codomain + s.gram_domain @ t.matrix).max())
            for s, t in zip(op.stacks, other.stacks)
            if s.matrix.size
        ),
        default=0.0,
    )


# -- sphere operators -------------------------------------------------------------


# 170! is the largest factorial below the double range; 171! overflows.
_FACTORIAL_LIMIT = 170


def _radial_integral(p: int, s: int) -> float:
    """integral over the plane of r^{2p} (1+r^2)^(-s), p <= s - 2, equal to pi p! (s-p-2)!/(s-1)!.

    The largest factorial is (s-1)!, so the closed form stays in double
    range if and only if s - 1 <= 170.  That is checked before any
    factorial is taken: for a huge s the factorials alone take minutes.
    """
    if s - 1 > _FACTORIAL_LIMIT:
        raise IndexLabError(
            f"sphere Gram entries overflow double precision: the weight integral of "
            f"r^{2 * p} (1+r^2)^-{s} is not representable; lower the cutoff"
        )
    return math.pi * math.factorial(p) * math.factorial(s - p - 2) / math.factorial(s - 1)


def build_dbar_sphere(k: int, M: int) -> OperatorMatrix:
    """Matrix of dbar on the degree-k bundle at level cutoff M, by charge sector.

    M >= |k| + 2 is required so both boxes are nonempty and resolved.  The
    domain sector of charge q holds the e_ab with a = b + q, at position
    a (M + 1) + b; its image, codomain sector q + 1, holds the e'_cd with
    c = d + q + 1, at position c M + d.  The sectors q = -M..k + M are built
    in one pass: their bounds are arrays, and every block of one shape (the
    mirror sectors q = -j and q = k + j share one) is gathered in one
    indexing step per array.  Stacks come in order of each shape's first
    charge, sectors by ascending charge within a stack.
    """
    if M < abs(k) + 2:
        raise IndexLabError(f"cutoff {M} too small for degree {k}")
    # every equal-charge pair has (a + b + c + d) / 2 in 0..k + 2M
    radial = np.array([_radial_integral(p, 2 * M + k + 2) for p in range(k + 2 * M + 1)])
    # weight 2^{k/2} (1+r^2)^{-k} for the bundle metric and (1+r^2)^{-2M} for
    # the level weight, times 4 (1+r^2)^{-2} for the round area form on the
    # domain, times the pointwise norm of dzbar and the area form on the codomain
    table_dom = 4.0 * 2.0 ** (k / 2.0) * radial
    table_cod = 2.0 * 2.0 ** (k / 2.0) * radial
    # sector q: second exponents b = b0..b0 + nb - 1 (domain), d = d0..d0 + nd - 1 (codomain)
    q = np.arange(-M, k + M + 1)
    b0, d0 = np.maximum(0, -q), np.maximum(0, -q - 1)
    nb = np.minimum(M, k + M - q) - b0 + 1
    nd = np.minimum(M - 1, k + M - q) - d0 + 1
    # sectors grouped by block shape: groups by first charge, charges ascending within
    _, first, shape_of, count = np.unique(
        nd * (M + 2) + nb, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first[shape_of], kind="stable")
    q, b0, d0, nb, nd = q[order], b0[order], d0[order], nb[order].tolist(), nd[order].tolist()
    # e_ab -> b e'_{a, b-1} + (b - M) e'_{a+1, b}: coefficient of e'_{.d} in dbar e_{.b},
    # for d in 0..M-1 and b in 0..M, flattened; both images have charge q + 1
    d, b = np.arange(M)[:, None], np.arange(M + 1)
    coeff = (np.where(d == b - 1, b, 0) + np.where(d == b, b - M, 0)).astype(complex).ravel()
    # entry (r, c) of a sector's blocks sits at its offset plus a fixed template
    r = np.arange(M + 1)
    hankel, coeff_step = r[:, None] + r, r[:, None] * (M + 1) + r
    coeff_at = d0 * (M + 1) + b0
    gram_dom_at, gram_cod_at = 2 * b0 + q, 2 * d0 + q + 1
    dom_at, cod_at = (b0 + q) * (M + 1) + b0, (d0 + q + 1) * M + d0
    dom_step, cod_step = (M + 2) * r, (M + 1) * r
    labels = [f"sector q={x}" for x in q.tolist()]
    stacks, start = [], 0
    for end in np.cumsum(count[np.argsort(first)]).tolist():
        rows, cols, sel = nd[start], nb[start], slice(start, end)
        stacks.append(BlockStack(
            matrix=coeff[coeff_at[sel, None, None] + coeff_step[:rows, :cols]],
            gram_domain=table_dom[gram_dom_at[sel, None, None] + hankel[:cols, :cols]],
            gram_codomain=table_cod[gram_cod_at[sel, None, None] + hankel[:rows, :rows]],
            dom=dom_at[sel, None] + dom_step[:cols],
            cod=cod_at[sel, None] + cod_step[:rows],
            labels=labels[sel],
        ))
        start = end
    return OperatorMatrix(tag=f"dbar O({k})", is_complex_linear=True, stacks=stacks)


def build_dirac10_sphere(target_degree_d: int, M: int) -> OperatorMatrix:
    """Holomorphic Dirac half along a degree-d sphere-to-sphere map.

    The pulled-back tangent bundle has splitting type O(2d); twisting by
    the dual spinor bundle O(-1) reduces the operator to dbar on O(2d-1).
    """
    op = build_dbar_sphere(2 * target_degree_d - 1, M)
    op.tag = f"D10 degree-{target_degree_d} sphere map"
    return op


def build_dirac01_sphere(k: int, M: int) -> OperatorMatrix:
    """Antiholomorphic Dirac half: minus the Gram adjoint of the dbar matrix."""
    op = build_dbar_sphere(k, M)
    return OperatorMatrix(
        tag=f"D01 O({k})",
        is_complex_linear=True,
        stacks=[dataclasses.replace(s, matrix=-s.matrix) for s in op.adjoint().stacks],
    )


# -- torus operators -------------------------------------------------------------


def _torus_modes(M: int) -> np.ndarray:
    """(M^2, 2) Fourier modes (k1, k2), k1 outer."""
    freqs = np.fft.fftfreq(M, d=1.0 / M).astype(int)
    return np.stack(np.meshgrid(freqs, freqs, indexing="ij"), axis=-1).reshape(-1, 2)


def _orthonormal_stack(matrix: np.ndarray, labels: list[str]) -> BlockStack:
    """Blocks in order along the diagonal (the torus modes), with orthonormal bases."""
    n, rows, cols = matrix.shape
    return BlockStack(
        matrix=matrix,
        gram_domain=np.eye(cols)[None],
        gram_codomain=np.eye(rows)[None],
        dom=np.arange(n * cols).reshape(n, cols),
        cod=np.arange(n * rows).reshape(n, rows),
        labels=labels,
    )


def build_dirac_torus(n_target: int, M: int) -> OperatorMatrix:
    """Twisted Dirac operator on the flat square torus, Fourier modes.

    Block-diagonal over modes with block -2 pi i (k1 gamma^1 + k2 gamma^2)
    per complexified target component; anti-self-adjoint; kernel = the
    constant spinors.
    """
    if M < 4:
        raise IndexLabError("resolution too small")
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
        stacks=[_orthonormal_stack(full, [f"mode ({a},{b})" for a, b in modes.tolist()])],
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
    n_target = modes.matrix.shape[-1] // 4
    b10, b01 = _chirality_bases(n_target)
    d10, d01 = (
        OperatorMatrix(
            tag=f"D{part} torus n={n_target}",
            is_complex_linear=False,
            stacks=[_orthonormal_stack(cod.conj().T @ modes.matrix @ dom, modes.labels)],
        )
        for part, dom, cod in (("10", b10, b01), ("01", b01, b10))
    )
    return d10, d01


# -- kernel / cokernel / index reports -------------------------------------------


@dataclass
class IndexReport:
    tag: str
    kernel_dim: int
    cokernel_dim: int
    numeric_index: int
    formula_index: int | None
    singular_gap_ratio: float
    threshold: float
    conclusive: bool
    is_complex_linear: bool
    singular_values: np.ndarray
    gram_domain_condition: float
    gram_codomain_condition: float
    gram_worst_block: str
    gram_worst_condition: float
    kept_margin: float | None  # smallest kept singular value / cut

    @property
    def kernel_dim_real(self) -> int:
        return 2 * self.kernel_dim if self.is_complex_linear else self.kernel_dim

    @property
    def cokernel_dim_real(self) -> int:
        return 2 * self.cokernel_dim if self.is_complex_linear else self.cokernel_dim

    @property
    def numeric_index_real(self) -> int:
        return 2 * self.numeric_index if self.is_complex_linear else self.numeric_index

    def as_dict(self) -> dict:
        gap = self.singular_gap_ratio
        return {
            "tag": self.tag,
            "kernel_dim": self.kernel_dim,
            "cokernel_dim": self.cokernel_dim,
            "numeric_index": self.numeric_index,
            "kernel_dim_real": self.kernel_dim_real,
            "cokernel_dim_real": self.cokernel_dim_real,
            "numeric_index_real": self.numeric_index_real,
            "formula_index": self.formula_index,
            # None encodes an unbounded ratio (exact zero modes)
            "singular_gap_ratio": gap if np.isfinite(gap) else None,
            "threshold": self.threshold,
            "conclusive": self.conclusive,
            "is_complex_linear": self.is_complex_linear,
            "gram_domain_condition": self.gram_domain_condition,
            "gram_codomain_condition": self.gram_codomain_condition,
            "gram_worst_block": self.gram_worst_block,
            "gram_worst_condition": self.gram_worst_condition,
            "kept_margin": self.kept_margin,
        }


def _condition(eigs: np.ndarray) -> np.ndarray:
    """max / min eigenvalue along the last axis; inf where the minimum is not positive."""
    lo, hi = eigs.min(axis=-1), eigs.max(axis=-1)
    return np.where(lo > 0, hi / np.where(lo > 0, lo, 1.0), np.inf)


def _by_size(mats: list[np.ndarray], fn) -> list:
    """``[fn(m) for m in mats]`` for stacks of square matrices, one ``fn`` call per size and dtype.

    ``fn`` returns an array, or a tuple of arrays, with the stack on axis 0.
    numpy's linalg gufuncs call LAPACK once per matrix of a stack, so each
    matrix gets bit for bit what a call on its own stack gives.  Matrices of
    different sizes never share a call: padding them to one size would
    change the bits.
    """
    groups: dict[tuple, list[int]] = {}
    for i, m in enumerate(mats):
        groups.setdefault((m.shape[-1], m.dtype), []).append(i)
    out = [None] * len(mats)
    for idx in groups.values():
        res = fn(np.concatenate([mats[i] for i in idx]))
        start = 0
        for i in idx:
            cut = slice(start, start + len(mats[i]))
            out[i] = tuple(r[cut] for r in res) if isinstance(res, tuple) else res[cut]
            start = cut.stop
    return out


def _unit_diagonal(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stack of Gram matrices rescaled to unit diagonal, and the scales (zero norms kept at 1)."""
    s = np.sqrt(np.diagonal(gram, axis1=-2, axis2=-1).real)
    s = np.where(s == 0, 1.0, s)
    return gram / (s[:, :, None] * s[:, None, :]), s


def _normalized(stacks: list[BlockStack]) -> list[tuple]:
    """``BlockStack.normalized`` of every stack, the Grams of both sides rescaled in one pass per size.

    Stacks whose two Grams are the shared identity are returned as they are.
    """
    out = [(s.matrix, s.gram_domain, s.gram_codomain) for s in stacks]
    scaled = [i for i, (_, gd, gc) in enumerate(out) if not (_shared_identity(gd) and _shared_identity(gc))]
    n = len(scaled)
    units = _by_size([out[i][1] for i in scaled] + [out[i][2] for i in scaled], _unit_diagonal)
    for i, (gd, sd), (gc, sc) in zip(scaled, units[:n], units[n:]):
        out[i] = (stacks[i].matrix * sc[:, :, None] / sd[:, None, :], gd, gc)
    return out


def _eig_range(grams: np.ndarray) -> np.ndarray:
    """(smallest, largest) eigenvalue of each Hermitian matrix of a stack."""
    e = np.linalg.eigvalsh(grams)
    return np.stack([e.min(axis=-1), e.max(axis=-1)], axis=-1)


def _gram_gate(op: OperatorMatrix, normalized: list[tuple]) -> tuple[float, float, str, float]:
    """Condition numbers of both unit-diagonal Gram matrices, checked against the limit.

    The global condition number is taken over the union of the block
    eigenvalues.  Returns (domain, codomain, worst block, its condition),
    the worst block being the one with the largest condition of its own
    (the first such, domain side first, blocks in stack order).  One
    ``eigvalsh`` call per matrix size serves every block of both sides.
    """
    grams = [
        (side, st.labels, parts[which])
        for side, which in (("domain", 1), ("codomain", 2))
        for st, parts in zip(op.stacks, normalized)
        if parts[which].shape[-1]
    ]
    ranges = _by_size([g for *_, g in grams], _eig_range)
    conds = {}
    for side in ("domain", "codomain"):
        # a block's (min, max) pair holds the extremes of its eigenvalues
        side_ranges = [r for (s, *_), r in zip(grams, ranges) if s == side]
        conds[side] = float(_condition(np.concatenate(side_ranges).ravel())) if side_ranges else 1.0
    worst, worst_cond = "", 0.0
    if grams:
        block_cond = _condition(np.concatenate(ranges))
        i = int(np.argmax(block_cond))
        worst_cond = float(block_cond[i])
        for side, labels, g in grams:
            if i < len(g):
                worst = f"{side} Gram of {labels[i]}"
                break
            i -= len(g)
    for side, cond in conds.items():
        if cond > GRAM_CONDITION_LIMIT:
            raise IndexLabError(
                f"ill-conditioned Gram matrix: {side} condition {cond:.4g} exceeds "
                f"{GRAM_CONDITION_LIMIT:.0e}; worst block: {worst} (condition {worst_cond:.4g})"
            )
    return conds["domain"], conds["codomain"], worst, worst_cond


def _singular_values(op: OperatorMatrix, normalized: list[tuple]) -> np.ndarray:
    """Whitened singular values of all blocks, descending, zero-padded to min(shape).

    The whitening factors of every block come at once: one ``cholesky``
    per Gram size over both sides, then one ``inv`` per domain size.  The
    SVD is one call per block shape.
    """
    blocks = [parts for parts in normalized if parts[0].shape[-1] and parts[0].shape[-2]]
    mats = [a for a, _, _ in blocks]
    # orthonormal bases need no whitening
    white = [i for i, (_, gd, gc) in enumerate(blocks) if not (_shared_identity(gd) and _shared_identity(gc))]
    n = len(white)
    upper = _by_size(  # L^H of each Cholesky factor L
        [blocks[i][1] for i in white] + [blocks[i][2] for i in white], lambda g: _herm(np.linalg.cholesky(g))
    )
    for i, lc, inv_ld in zip(white, upper[n:], _by_size(upper[:n], np.linalg.inv)):
        mats[i] = lc @ mats[i] @ inv_ld
    pieces = [np.zeros(0)] + [np.linalg.svd(a, compute_uv=False).ravel() for a in mats]
    sv = np.sort(np.concatenate(pieces))[::-1]
    return np.concatenate([sv, np.zeros(min(op.shape) - sv.size)])


def numeric_index(
    op: OperatorMatrix,
    threshold: float = 1e-8,
    formula_index: int | None = None,
) -> IndexReport:
    """Kernel/cokernel dimensions from singular values below a relative threshold."""
    normalized = _normalized(op.stacks)
    cond_dom, cond_cod, worst, worst_cond = _gram_gate(op, normalized)
    sv = _singular_values(op, normalized)
    ncod, ndom = op.shape
    kept_margin = None
    if sv.size == 0:
        rank = 0
        gap = np.inf
    else:
        smax = sv.max()
        cut = threshold * max(smax, 1.0)
        nonzero = sv[sv > cut]
        zero = sv[sv <= cut]
        rank = nonzero.size
        if nonzero.size:
            kept_margin = float(nonzero.min() / cut)
        if zero.size and nonzero.size:
            gap = float(nonzero.min() / max(zero.max(), 1e-300))
        else:
            gap = np.inf
    kernel = ndom - rank
    coker = ncod - rank
    conclusive = bool(gap >= GAP_REQUIREMENT)
    return IndexReport(
        tag=op.tag,
        kernel_dim=kernel,
        cokernel_dim=coker,
        numeric_index=kernel - coker,
        formula_index=formula_index,
        singular_gap_ratio=float(gap),
        threshold=threshold,
        conclusive=conclusive,
        is_complex_linear=op.is_complex_linear,
        singular_values=sv,
        gram_domain_condition=cond_dom,
        gram_codomain_condition=cond_cod,
        gram_worst_block=worst,
        gram_worst_condition=worst_cond,
        kept_margin=kept_margin,
    )
