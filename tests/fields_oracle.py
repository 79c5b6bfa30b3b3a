"""The dense grid-field kernels that packed fields replaced, kept as test oracles.

A dense field is a complex array whose leading axis runs over all 2^L
basis monomial masks.  ``on_live_masks`` runs a per-block kernel on the
blocks of a dense field that hold a nonzero entry and scatters the result
into zeros; ``dense_gcontract`` is the mask-convolved einsum on dense
fields, which finds the live blocks of both factors by scanning them.
``dense`` unpacks a :class:`sjclab.fields.GridField` and ``pack`` is the
constructors' packing step.  ``einsum_contract`` is the einsum form of
:func:`sjclab.spin.contract`, and ``CONTRACTIONS`` lists the constant
contractions of the package that the tests pin.

``_rows`` is the full table of the 3^L mask pairs with a nonzero product
sign, and ``full_table_live_rows`` the row layout of ``gcontract`` taken from
it by the positions of the live masks among all 2^L: the reference for
``sjclab.fields._live_rows``, which lists the live pairs directly.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from sjclab.fields import GridField
from sjclab.grassmann import merge_sign

pack = GridField.pack


def dense(field: GridField, L: int) -> np.ndarray:
    """``field`` on all 2^L masks, zeros where it has no block."""
    out = np.zeros((1 << L,) + field.blocks.shape[1:], dtype=complex)
    out[np.array(field.masks, dtype=np.intp)] = field.blocks
    return out


def gzeros(L: int, shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros((1 << L,) + tuple(shape), dtype=complex)


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


def full_table_live_rows(L: int, masks_a: tuple[int, ...], masks_b: tuple[int, ...]) -> tuple:
    """The rows of ``_rows(L)`` whose two factor masks are live, in the layout of ``fields._live_rows``."""
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


@lru_cache(maxsize=256)
def _dense_live_rows(L: int, nz_a: bytes, nz_b: bytes) -> tuple:
    """The rows of ``_rows(L)`` whose factor blocks are both nonzero, laid out depth by depth."""
    rows = _rows(L)
    rows = rows[np.frombuffer(nz_a, dtype=bool)[rows[:, 1]] & np.frombuffer(nz_b, dtype=bool)[rows[:, 2]]]
    masks, starts, counts = np.unique(rows[:, 0], return_index=True, return_counts=True)
    by_count = np.argsort(-counts, kind="stable")
    masks, starts, counts = masks[by_count], starts[by_count], counts[by_count]
    widths = [int(np.count_nonzero(counts > k)) for k in range(counts.max(initial=0))]
    order = [start + k for k, width in enumerate(widths) for start in starts[:width]]
    _, ma, mb, sign = rows[np.array(order, dtype=np.intp)].reshape(-1, 4).T
    return ma, mb, sign, masks, widths


def dense_gcontract(a: np.ndarray, b: np.ndarray, spec: str, L: int) -> np.ndarray:
    """Mask-convolved einsum on dense fields: each product mask sums its pairs in
    ``_rows`` order and adds the sum to zero (a sum of -0.0 reads +0.0)."""
    nz_a = a.any(axis=tuple(range(1, a.ndim)))
    nz_b = b.any(axis=tuple(range(1, b.ndim)))
    ma, mb, sign, masks, widths = _dense_live_rows(L, nz_a.tobytes(), nz_b.tobytes())
    rows = np.einsum("..." + spec.replace(",", ",...").replace("->", "->..."), a[ma], b[mb])
    rows *= sign.reshape((-1,) + (1,) * (rows.ndim - 1))
    start = len(masks)
    for width in widths[1:]:
        rows[:width] += rows[start:start + width]
        start += width
    out = np.zeros((1 << L,) + rows.shape[1:], dtype=complex)
    out[masks] += rows[:len(masks)]
    return out


def on_live_masks(fn, field: np.ndarray, *args) -> np.ndarray:
    """``fn(field, *args)`` for an ``fn`` that maps each mask block alone and linearly.

    ``fn`` runs on the blocks of ``field`` that hold a nonzero entry, gathered
    into one contiguous array, and its result is scattered into zeros: a block
    of zeros (-0.0 included) maps to +0.0.  When every block is live, ``fn``
    gets the field as it is.
    """
    field = np.asarray(field)
    live = field.any(axis=tuple(range(1, field.ndim)))
    if live.all():
        return fn(field, *args)
    part = fn(field[live], *args)
    out = np.zeros(field.shape[:1] + part.shape[1:], dtype=part.dtype)
    out[live] = part
    return out


def einsum_contract(x: np.ndarray, matrix: np.ndarray, axis: int, in_axes: int) -> np.ndarray:
    """``matrix``'s last ``in_axes`` axes contracted with x's axes from ``axis`` on, by one np.einsum."""
    n_out = matrix.ndim - in_axes
    outs, ins = list(range(10, 10 + n_out)), list(range(20, 20 + in_axes))
    lead, trail = list(range(axis)), list(range(30, 30 + x.ndim - axis - in_axes))
    return np.einsum(matrix, outs + ins, x, lead + ins + trail, lead + outs + trail)


# every constant contraction of the package, under the id its tests run with:
# (the name of its matrix in sjclab.spin, in_axes)
CONTRACTIONS = {
    "IFRAME_MAP": ("IFRAME", 1),
    "EPS_UPPER_MAP": ("EPS_UPPER", 1),
    "EPS_LOWER_MAP": ("EPS_LOWER", 1),
    "EPS_LOWER_PAIRING": ("EPS_LOWER", 2),
    "GAMMA_MAP": ("CLIFFORD", 2),
    "GAMMA_I_MAP": ("CLIFFORD_I", 2),
    "PMAT_MAP": ("PMAT", 2),
    "QMAT_MAP": ("QMAT", 2),
}
