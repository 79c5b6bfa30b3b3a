"""Grid fields with Grassmann-valued components, and the (phi, psi, F) + chi data.

A Grassmann-valued grid field over the base algebra on L generators is
packed (:class:`GridField`): a sorted tuple ``masks`` of its live basis
monomial masks and one contiguous complex array ``blocks`` holding those
blocks only, the mask axis first and the M x M grid on axes 1 and 2.  A
mask that is not listed reads zero.  A dense ``(2^L, M, M, ...)`` array is
packed once, by :meth:`GridField.pack` (the bundle reader packs its records
itself).  Kernels that map each block alone run on ``blocks``
(:meth:`GridField.map`), sums align the two mask tuples, and products are
mask convolutions with anticommutation signs (:func:`gcontract`) whose live
masks follow from the mask algebra.  A block that cancels to zero stays
listed; a zero read where a dense field held -0.0 reads +0.0.

The map component phi is stored as an affine part plus a periodic part:
phi(x) = linear . x + periodic(x).  Only the periodic part is ever
differentiated, so maps with non-periodic affine behaviour (the torus
covers) keep exact derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partialmethod

import numpy as np

from .grassmann import merge_sign


class FieldError(ValueError):
    pass


@dataclass(eq=False)
class GridField:
    """A packed grid field: sorted live ``masks`` and their ``blocks``, mask axis first.

    Fields are values: a kernel writes only into arrays it made.  ``+`` and
    ``-`` align the mask tuples, a mask missing on one side adding nothing
    (x - 0 is x, bit for bit); ``*`` and ``/`` take a scalar or an array
    that broadcasts against ``blocks``.
    """

    masks: tuple[int, ...]
    blocks: np.ndarray
    __array_ufunc__ = None  # array * field defers to __rmul__

    @classmethod
    def pack(cls, dense) -> "GridField":
        """The blocks of a dense (2^L, M, ...) array with a nonzero entry, copied (-0.0 is zero)."""
        dense = np.asarray(dense, dtype=complex)
        live = np.flatnonzero(dense.reshape(len(dense), -1).any(axis=1))
        return cls(tuple(live.tolist()), dense[live])

    @classmethod
    def zero(cls, shape: tuple[int, ...]) -> "GridField":
        return cls((), np.zeros((0,) + tuple(shape), dtype=complex))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.blocks.shape

    def map(self, fn, *args) -> "GridField":
        """``fn(blocks, *args)`` on the same masks, for an ``fn`` that maps each block alone and linearly."""
        return GridField(self.masks, fn(self.blocks, *args))

    def grow(self, masks: tuple[int, ...]) -> "GridField":
        """This field on the sorted superset ``masks``, in a new array with zero blocks added."""
        out = np.zeros((len(masks),) + self.blocks.shape[1:], dtype=self.blocks.dtype)
        out[np.searchsorted(masks, self.masks)] = self.blocks
        return GridField(masks, out)

    def _combine(self, other, op) -> "GridField":
        if not isinstance(other, GridField):
            return NotImplemented
        if not other.masks:
            return self
        if self.masks == other.masks:
            return GridField(self.masks, op(self.blocks, other.blocks))
        out = self.grow(tuple(sorted(set(self.masks).union(other.masks))))
        at = np.searchsorted(out.masks, other.masks)
        out.blocks[at] = op(out.blocks[at], other.blocks)
        return out

    __add__ = partialmethod(_combine, op=np.add)
    __sub__ = partialmethod(_combine, op=np.subtract)

    def __neg__(self):
        return GridField(self.masks, -self.blocks)

    def __mul__(self, factor):
        return NotImplemented if isinstance(factor, GridField) else GridField(self.masks, self.blocks * factor)

    __rmul__ = __mul__

    def __truediv__(self, divisor):
        return GridField(self.masks, self.blocks / divisor)


@lru_cache(maxsize=None)
def _rows(L: int) -> np.ndarray:
    """Every mask pair with a nonzero product sign, as rows (mo, ma, mb, sign).

    Sorted by product mask mo = ma | mb, then ma, then mb: at most 3^L rows.
    """
    size = 1 << L
    rows = sorted(
        (ma | mb, ma, mb, merge_sign(ma, mb)) for ma in range(size) for mb in range(size) if not ma & mb
    )
    return np.array(rows, dtype=np.intp).reshape(-1, 4)


@lru_cache(maxsize=256)
def _live_rows(L: int, masks_a: tuple[int, ...], masks_b: tuple[int, ...]) -> tuple:
    """The rows of ``_rows(L)`` whose two factor masks are live, laid out depth by depth.

    Returns ``(ia, ib, sign, masks, widths, gather)``: each row's block
    positions in the two factors and its sign; the sorted product masks that
    have rows.  Depth k holds the k-th row (in ``_rows`` order) of each of
    the first ``widths[k]`` product masks, taken by falling row count, and
    ``gather`` puts the depth-0 rows in mask order (None when they are).
    """
    pos_a, pos_b = np.full((2, 1 << L), -1, dtype=np.intp)
    pos_a[np.array(masks_a, dtype=np.intp)] = np.arange(len(masks_a))
    pos_b[np.array(masks_b, dtype=np.intp)] = np.arange(len(masks_b))
    mo, ma, mb, sign = _rows(L).T
    rows = np.stack([mo, pos_a[ma], pos_b[mb], sign], axis=1)
    rows = rows[(rows[:, 1] >= 0) & (rows[:, 2] >= 0)]
    masks, starts, counts = np.unique(rows[:, 0], return_index=True, return_counts=True)
    by_count = np.argsort(-counts, kind="stable")
    starts, counts = starts[by_count], counts[by_count]
    widths = [int(np.count_nonzero(counts > k)) for k in range(counts.max(initial=0))]
    order = [start + k for k, width in enumerate(widths) for start in starts[:width]]
    _, ia, ib, sign = rows[np.array(order, dtype=np.intp)].reshape(-1, 4).T
    in_order = len(order) == len(masks) and np.array_equal(by_count, np.arange(len(masks)))
    return ia, ib, sign, tuple(masks.tolist()), widths, None if in_order else np.argsort(by_count)


def gcontract(a: GridField, b: GridField, spec: str, L: int) -> GridField:
    """Mask-convolved einsum: Grassmann product with index contraction.

    ``spec`` is an einsum signature for the blocks (without the mask axis).
    One einsum contracts every pair of live blocks whose product sign is
    nonzero.  Each product mask then sums its pairs in ``_rows`` order, one
    depth at a time: bit for bit the sums of adding each pair in turn to a
    zeroed output, up to the sign of a zero.  The product lists the masks
    that have pairs, whatever their sums.
    """
    ia, ib, sign, masks, widths, gather = _live_rows(L, a.masks, b.masks)
    rows = np.einsum("..." + spec.replace(",", ",...").replace("->", "->..."), a.blocks[ia], b.blocks[ib])
    rows *= sign.reshape((-1,) + (1,) * (rows.ndim - 1))
    # each mask's running sum is its row at depth 0
    start = len(masks)
    for width in widths[1:]:
        rows[:width] += rows[start:start + width]
        start += width
    return GridField(masks, np.ascontiguousarray(rows) if gather is None else rows.take(gather, axis=0))


def even_masks(L: int) -> list[int]:
    return [m for m in range(1 << L) if bin(m).count("1") % 2 == 0]


def odd_masks(L: int) -> list[int]:
    return [m for m in range(1 << L) if bin(m).count("1") % 2 == 1]


def _as_field(field, L: int, parity: str, what: str) -> GridField:
    """``field`` packed, a dense (2^L, ...) array packed here; its masks must have ``parity``."""
    if not isinstance(field, GridField):
        field = np.asarray(field, dtype=complex)
        if len(field) != 1 << L:
            raise FieldError(f"{what}: leading axis must have length 2^L")
        field = GridField.pack(field)
    for m in field.masks:
        if m >> L or bin(m).count("1") % 2 != (parity == "odd"):
            raise FieldError(f"{what} must be {parity} over {L} generators: mask {m:#b} is populated")
    return field


def max_abs(field: GridField) -> float:
    return float(np.abs(field.blocks).max(initial=0.0))


@dataclass
class ComponentMap:
    """The even/odd/auxiliary component fields of a map on the patch, packed.

    phi_linear: (2n, 2) real matrix (the affine part phi^b = sum_k c[b,k] x^k);
    phi_periodic: even, blocks (M, M, 2n), the real periodic part;
    psi: odd, blocks (M, M, 2, 2n), spinor index 0 <-> s^3, 1 <-> s^4;
    F: even, blocks (M, M, 2n).
    A field given as a dense (2^L, M, M, ...) array is packed on construction.
    """

    L: int
    phi_linear: np.ndarray
    phi_periodic: GridField
    psi: GridField
    F: GridField

    def __post_init__(self):
        self.phi_linear = np.asarray(self.phi_linear, dtype=float)
        self.phi_periodic = _as_field(self.phi_periodic, self.L, "even", "phi")
        self.psi = _as_field(self.psi, self.L, "odd", "psi")
        self.F = _as_field(self.F, self.L, "even", "F")
        if self.phi_linear.shape != (self.dim, 2):
            raise FieldError("phi_linear must have shape (2n, 2)")
        if np.abs(self.phi_periodic.blocks.imag).max(initial=0.0) > 0:
            raise FieldError("phi takes chart values: real per even subset")

    @property
    def M(self) -> int:
        return self.phi_periodic.shape[1]

    @property
    def dim(self) -> int:
        return self.phi_periodic.shape[-1]

    @classmethod
    def zero(cls, L: int, M: int, dim: int) -> "ComponentMap":
        zero = GridField.zero
        return cls(L, np.zeros((dim, 2)), zero((M, M, dim)), zero((M, M, 2, dim)), zero((M, M, dim)))

    def phi_body(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Body of phi on the grid, shape (M, M, 2n)."""
        lin = np.einsum("bk,kxy->xyb", self.phi_linear, np.stack([x1, x2]))
        phi = self.phi_periodic
        return lin + (phi.blocks[0].real if phi.masks[:1] == (0,) else 0.0)


@dataclass
class Gravitino:
    """chi: odd, blocks (M, M, 2, 2); indices (form k, spinor kappa).  Packed as in ComponentMap."""

    L: int
    chi: GridField

    def __post_init__(self):
        self.chi = _as_field(self.chi, self.L, "odd", "chi")

    @property
    def M(self) -> int:
        return self.chi.shape[1]

    @classmethod
    def zero(cls, L: int, M: int) -> "Gravitino":
        return cls(L=L, chi=GridField.zero((M, M, 2, 2)))
