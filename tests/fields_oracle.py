"""The dense grid-field kernels that packed fields replaced, kept as test oracles.

A dense field is a complex array whose leading axis runs over all 2^L
basis monomial masks.  ``on_live_masks`` runs a per-block kernel on the
blocks of a dense field that hold a nonzero entry and scatters the result
into zeros; ``dense_gcontract`` is the mask-convolved einsum on dense
fields, which finds the live blocks of both factors by scanning them.
``dense`` unpacks a :class:`sjclab.fields.GridField` and ``pack`` is the
constructors' packing step.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from sjclab.fields import GridField, _rows

pack = GridField.pack


def dense(field: GridField, L: int) -> np.ndarray:
    """``field`` on all 2^L masks, zeros where it has no block."""
    out = np.zeros((1 << L,) + field.blocks.shape[1:], dtype=complex)
    out[np.array(field.masks, dtype=np.intp)] = field.blocks
    return out


def gzeros(L: int, shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros((1 << L,) + tuple(shape), dtype=complex)


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
