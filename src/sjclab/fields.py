"""Grid fields with Grassmann-valued components, and the (phi, psi, F) + chi data.

A Grassmann-valued grid field over the base algebra on L generators is a
complex array whose leading axis runs over the 2^L basis monomial masks.
Products are mask convolutions with anticommutation signs.

The map component phi is stored as an affine part plus a periodic part:
phi(x) = linear . x + periodic(x).  Only the periodic part is ever
differentiated, so maps with non-periodic affine behaviour (the torus
covers) keep exact derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grassmann import merge_sign


class FieldError(ValueError):
    pass


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
def _live_rows(L: int, nz_a: bytes, nz_b: bytes) -> tuple:
    """The rows of ``_rows(L)`` whose factor blocks are both nonzero, laid out depth by depth.

    Returns ``(ma, mb, sign, masks, widths)``.  The product masks ``masks``
    are ordered by falling row count; depth k holds the k-th row (in
    ``_rows`` order) of each of the first ``widths[k]`` masks.
    """
    rows = _rows(L)
    rows = rows[np.frombuffer(nz_a, dtype=bool)[rows[:, 1]] & np.frombuffer(nz_b, dtype=bool)[rows[:, 2]]]
    masks, starts, counts = np.unique(rows[:, 0], return_index=True, return_counts=True)
    by_count = np.argsort(-counts, kind="stable")
    masks, starts, counts = masks[by_count], starts[by_count], counts[by_count]
    widths = [int(np.count_nonzero(counts > k)) for k in range(counts.max(initial=0))]
    order = [start + k for k, width in enumerate(widths) for start in starts[:width]]
    _, ma, mb, sign = rows[np.array(order, dtype=np.intp)].reshape(-1, 4).T
    return ma, mb, sign, masks, widths


def gcontract(a: np.ndarray, b: np.ndarray, spec: str, L: int) -> np.ndarray:
    """Mask-convolved einsum: Grassmann product with index contraction.

    ``spec`` is an einsum signature for the per-mask blocks (without the
    leading mask axis).  One einsum contracts every pair of nonzero blocks
    whose product sign is nonzero.  Each product mask then sums its pairs in
    ``_rows`` order, one depth at a time, and adds the sum to zero: bit for
    bit the sums of adding each pair in turn to a zeroed output.
    """
    nz_a = a.any(axis=tuple(range(1, a.ndim)))
    nz_b = b.any(axis=tuple(range(1, b.ndim)))
    ma, mb, sign, masks, widths = _live_rows(L, nz_a.tobytes(), nz_b.tobytes())
    rows = np.einsum("..." + spec.replace(",", ",...").replace("->", "->..."), a[ma], b[mb])
    rows *= sign.reshape((-1,) + (1,) * (rows.ndim - 1))
    # each mask's running sum is its row at depth 0
    start = len(masks)
    for width in widths[1:]:
        rows[:width] += rows[start:start + width]
        start += width
    out = np.zeros((1 << L,) + rows.shape[1:], dtype=complex)
    out[masks] += rows[:len(masks)]  # 0 + sum: a sum of -0.0 reads +0.0
    return out


def on_live_masks(fn, field: np.ndarray, *args) -> np.ndarray:
    """``fn(field, *args)`` for an ``fn`` that maps each mask block alone and linearly.

    ``fn`` runs on the blocks of ``field`` that hold a nonzero entry, gathered
    into one contiguous array, and its result is scattered into zeros: a block
    of zeros (-0.0 included, as in ``gcontract``) maps to +0.0.  When every
    block is live, ``fn`` gets the field as it is.
    """
    field = np.asarray(field)
    live = field.any(axis=tuple(range(1, field.ndim)))
    if live.all():
        return fn(field, *args)
    part = fn(field[live], *args)
    out = np.zeros(field.shape[:1] + part.shape[1:], dtype=part.dtype)
    out[live] = part
    return out


def gzeros(L: int, shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros((1 << L,) + tuple(shape), dtype=complex)


def even_masks(L: int) -> list[int]:
    return [m for m in range(1 << L) if bin(m).count("1") % 2 == 0]


def odd_masks(L: int) -> list[int]:
    return [m for m in range(1 << L) if bin(m).count("1") % 2 == 1]


def check_parity(field: np.ndarray, L: int, parity: str, what: str) -> None:
    masks = odd_masks(L) if parity == "even" else even_masks(L)
    for m in masks:
        if np.any(field[m]):
            raise FieldError(f"{what} must be {parity}: mask {m:#b} is populated")


def max_abs(field: np.ndarray) -> float:
    return float(np.abs(field).max()) if field.size else 0.0


@dataclass
class ComponentMap:
    """The even/odd/auxiliary component fields of a map on the patch.

    phi_linear: (2n, 2) real matrix (the affine part phi^b = sum_k c[b,k] x^k);
    phi_periodic: (2^L, M, M, 2n) even Grassmann-valued periodic part;
    psi: (2^L, M, M, 2, 2n) odd, spinor index 0 <-> s^3, 1 <-> s^4;
    F: (2^L, M, M, 2n) even.
    """

    L: int
    phi_linear: np.ndarray
    phi_periodic: np.ndarray
    psi: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        self.phi_linear = np.asarray(self.phi_linear, dtype=float)
        self.phi_periodic = np.asarray(self.phi_periodic, dtype=complex)
        self.psi = np.asarray(self.psi, dtype=complex)
        self.F = np.asarray(self.F, dtype=complex)
        size = 1 << self.L
        if self.phi_periodic.shape[0] != size or self.psi.shape[0] != size or self.F.shape[0] != size:
            raise FieldError("leading axes must have length 2^L")
        if self.phi_linear.shape != (self.dim, 2):
            raise FieldError("phi_linear must have shape (2n, 2)")
        check_parity(self.phi_periodic, self.L, "even", "phi")
        check_parity(self.F, self.L, "even", "F")
        check_parity(self.psi, self.L, "odd", "psi")
        if np.abs(self.phi_periodic.imag).max(initial=0.0) > 0:
            raise FieldError("phi takes chart values: real per even subset")

    @property
    def M(self) -> int:
        return self.phi_periodic.shape[1]

    @property
    def dim(self) -> int:
        return self.phi_periodic.shape[-1]

    @classmethod
    def zero(cls, L: int, M: int, dim: int) -> "ComponentMap":
        return cls(
            L=L,
            phi_linear=np.zeros((dim, 2)),
            phi_periodic=gzeros(L, (M, M, dim)),
            psi=gzeros(L, (M, M, 2, dim)),
            F=gzeros(L, (M, M, dim)),
        )

    def phi_body(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Body of phi on the grid, shape (M, M, 2n)."""
        lin = np.einsum("bk,kxy->xyb", self.phi_linear, np.stack([x1, x2]))
        return lin + self.phi_periodic[0].real

    def copy(self) -> "ComponentMap":
        return ComponentMap(
            L=self.L,
            phi_linear=self.phi_linear.copy(),
            phi_periodic=self.phi_periodic.copy(),
            psi=self.psi.copy(),
            F=self.F.copy(),
        )


@dataclass
class Gravitino:
    """chi: (2^L, M, M, 2, 2) odd; indices (form k, spinor kappa)."""

    L: int
    chi: np.ndarray

    def __post_init__(self):
        self.chi = np.asarray(self.chi, dtype=complex)
        if self.chi.shape[0] != 1 << self.L:
            raise FieldError("leading axis must have length 2^L")
        check_parity(self.chi, self.L, "odd", "chi")

    @property
    def M(self) -> int:
        return self.chi.shape[1]

    @classmethod
    def zero(cls, L: int, M: int) -> "Gravitino":
        return cls(L=L, chi=gzeros(L, (M, M, 2, 2)))
