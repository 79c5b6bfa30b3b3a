"""File formats: superfield literal inputs and component-field bundles.

A flat-map file (for ``sjc verify-flat``) is JSON:

    {"schema": 1, "L": 2, "n": 1,
     "components_z": ["x1 + (0+1j) * x2 + e3 * l1", ...]}

listing the complex target components as superfield literal strings
(grammar in ``sjclab.superfield``); ``schema`` is the JSON integer 1 (not
true or 1.0), ``L`` is a JSON integer in 0..``FLAT_MAP_MAX_L``, and ``n`` is
a JSON integer equal to the number of components, which must be at least
one.

A field bundle (for ``sjc verify-components``) is a JSON header line
followed by one text record per grid point:

    i j lam  phi...  psi...  F...  chi...

where each field block lists, for every base-monomial mask in increasing
order, the real and imaginary parts of every component.  The header is a
JSON object with ``"schema"`` the JSON integer 1, integers M >= 4, L in
0..``FLAT_MAP_MAX_L`` and dim >= 1, the affine part of phi as a dim x 2
``phi_linear`` of finite JSON numbers (not bools or strings), and a
``model`` object with a string ``kind``.  An optional ``lambda`` key says
how the conformal factor varies: ``"grid"``, or ``"flat"`` when every lam
is exactly 1.0.  A bundle holds exactly M^2
records, all of the same length; (i, j) are integers in [0, M), each pair
occurring once, in any order; every value is finite and lam is positive.
Any other input raises ValueError naming the defect; a malformed record is
named by its 1-based number among the records.
"""

from __future__ import annotations

import itertools
import json
import warnings

import numpy as np

from .fields import ComponentMap, Gravitino, GridField
from .patch import ReducedPatch
from .superfield import SuperField

# Largest base generator count a flat-map file may declare.  The suites use
# 2 and 4.  Each odd monomial is an (L + 2)-bit mask and ``to_text`` walks
# l1..lL for every term, so with no bound one token such as l10000000 builds
# a 10^7-bit mask; 64 leaves ample room above the suites.
FLAT_MAP_MAX_L = 64

# Values per np.loadtxt call of read_field_bundle (1 MiB of float64).  The chunks
# together hold the whole body, but no one allocation is the body's size: freeing
# a block that large would raise glibc's mmap threshold to it, and later arrays
# below it would stay on the heap.  Only the live blocks are copied out.
READ_CHUNK_VALUES = 1 << 17


def _schema_is_1(payload) -> bool:
    """True when ``payload`` is a JSON object whose ``schema`` is the JSON integer 1, not true or 1.0."""
    return isinstance(payload, dict) and type(payload.get("schema")) is int and payload["schema"] == 1


def read_flat_map(path) -> tuple[int, list[SuperField]]:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except RecursionError:
            raise ValueError(f"flat map {path} nests JSON too deeply to parse") from None
    if not _schema_is_1(payload):
        raise ValueError("unsupported flat-map schema")
    if "L" not in payload:
        raise ValueError("flat map has no generator count L")
    L = payload["L"]
    if type(L) is not int or not 0 <= L <= FLAT_MAP_MAX_L:
        raise ValueError(
            f"flat-map generator count L must be a JSON integer in 0..{FLAT_MAP_MAX_L}, got {json.dumps(L)}"
        )
    if "components_z" not in payload:
        raise ValueError("flat map has no components_z list")
    texts = payload["components_z"]
    n = payload.get("n")
    if not isinstance(texts, list) or not texts or type(n) is not int or n != len(texts):
        raise ValueError(
            f"flat map needs n as a JSON integer, n == len(components_z) >= 1, got n={json.dumps(n)} "
            f"and {len(texts) if isinstance(texts, list) else 'no'} components"
        )
    if not all(isinstance(text, str) for text in texts):
        raise ValueError("flat-map components_z must be superfield literal strings")
    return L, [SuperField.from_text(L, text) for text in texts]


def _header_int(header: dict, key: str, low: int, high: int | None = None) -> int:
    value = header.get(key)
    if type(value) is not int or value < low or (high is not None and value > high):
        span = f"{low}..{high}" if high is not None else f">= {low}"
        raise ValueError(f"field bundle header needs {key} as a JSON integer {span}, got {json.dumps(value)}")
    return value


def _malformed_record(path, first: int, width: int, error: ValueError) -> ValueError:
    """The error naming the first record, from record ``first`` (1-based) on, that is not
    ``width`` numbers.  ``np.loadtxt`` counts rows within its own call, and blames the
    record after a short or long one, so the records are parsed again one by one.  A byte
    that is not UTF-8 is read as U+FFFD, so its token names the record too."""
    with open(path, errors="replace") as fh:
        fh.readline()
        records = itertools.islice(filter(str.split, fh), first - 1, None)  # a blank line is no record
        for number, line in enumerate(records, first):
            try:
                values = np.loadtxt([line], ndmin=2, comments=None)
            except ValueError as exc:
                return ValueError(f"malformed field bundle record {number}: {str(exc).replace(' at row 0,', ' at')}")
            if values.shape[1] != width:
                return ValueError(f"malformed field bundle record {number}: {values.shape[1]} values, expected {width}")
    return ValueError(f"malformed field bundle record: {error}")


def read_field_bundle(path):
    with open(path) as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError as exc:
            raise ValueError(f"field bundle header is not a JSON line: {exc}") from None
        except RecursionError:
            raise ValueError(f"field bundle header of {path} nests JSON too deeply to parse") from None
        if not isinstance(header, dict):
            raise ValueError("field bundle header must be a JSON object")
        if not _schema_is_1(header):
            raise ValueError("unsupported field bundle schema")
        M = _header_int(header, "M", 4)
        L = _header_int(header, "L", 0, FLAT_MAP_MAX_L)
        dim = _header_int(header, "dim", 1)
        rows = header.get("phi_linear")
        try:
            numbers = all(type(v) in (int, float) for row in rows for v in row)  # no bools or strings
            phi_linear = np.array(rows, dtype=float) if numbers else None
        except (TypeError, ValueError, OverflowError):
            phi_linear = None
        if phi_linear is None or phi_linear.shape != (dim, 2) or not np.isfinite(phi_linear).all():
            raise ValueError(f"field bundle header needs phi_linear as a {dim}x2 array of finite numbers")
        gauge = header.get("lambda", "grid")
        if gauge not in ("flat", "grid"):
            raise ValueError(f'field bundle header needs lambda as "flat" or "grid", got {json.dumps(gauge)}')
        model = header.get("model")
        if not isinstance(model, dict) or not isinstance(model.get("kind"), str):
            raise ValueError("field bundle header needs model as a JSON object with a string kind")
        S = 1 << L
        shapes = ((dim,), (2, dim), (dim,), (2, 2))  # phi, psi, F, chi per mask
        sizes = [2 * S * int(np.prod(shape)) for shape in shapes]  # float columns of each field
        width = 3 + sum(sizes)
        parts, rows = [], max(1, READ_CHUNK_VALUES // width)
        try:
            with warnings.catch_warnings():  # an empty body is reported below
                warnings.simplefilter("ignore", UserWarning)
                while (part := np.loadtxt(fh, ndmin=2, comments=None, max_rows=rows)).size:
                    parts.append(part)
        except ValueError as exc:
            raise _malformed_record(path, 1 + sum(map(len, parts)), width, exc) from None
    for part, first in zip(parts, np.cumsum([1] + [len(part) for part in parts])):
        if part.shape[1] != width:  # every record of the part has this width
            raise ValueError(f"malformed field bundle record {first}: {part.shape[1]} values, expected {width}")
        if not np.isfinite([part.min(), part.max()]).all():  # NaN propagates
            bad = ~np.isfinite(part).all(axis=1)
            raise ValueError(f"non-finite value in record {first + int(np.argmax(bad))}")
    ij = np.concatenate([part[:, :2] for part in parts] or [np.empty((0, 2))])  # none: the count reports it
    bad = (ij != np.round(ij)).any(axis=1) | (ij < 0).any(axis=1) | (ij >= M).any(axis=1)
    if bad.any():
        i, j = ij[np.argmax(bad)]
        raise ValueError(f"grid index ({i:g}, {j:g}) is not a pair of integers in [0, {M})")
    order = (ij[:, 0] * M + ij[:, 1]).astype(np.intp)
    # the record count first: it bounds the M^2 counters below by the file size
    if len(order) != M * M:
        raise ValueError(f"field bundle has {len(order)} of the M^2 = {M * M} grid records")
    counts = np.bincount(order, minlength=M * M)
    if counts.max() > 1:
        raise ValueError(f"duplicate records for grid point {divmod(int(np.argmax(counts)), M)}")
    grid = slice(None) if np.array_equal(order, np.arange(M * M)) else np.argsort(order)  # record per point
    lam = np.concatenate([part[:, 2] for part in parts])[grid].reshape(M, M)
    if (lam <= 0).any():
        raise ValueError("the conformal factor lam must be positive")
    if gauge == "flat" and (lam != 1.0).any():
        raise ValueError('field bundle header says lambda "flat", but lam is not 1.0 at every grid point')
    # each field keeps the mask blocks with a nonzero entry (-0.0 is zero), seen as
    # complex from the interleaved (re, im) columns and copied grid-last, in grid order
    nonzero = np.any([part.any(axis=0) for part in parts], axis=0)  # per column
    fields = []
    for shape, size, off in zip(shapes, sizes, np.cumsum([3] + sizes)):
        live = np.flatnonzero(nonzero[off : off + size].reshape(S, -1).any(axis=1))
        per_mask = (part[:, off : off + size].reshape(len(part), S, -1) for part in parts)
        blocks = np.concatenate([values[:, live].view(complex).transpose(1, 2, 0) for values in per_mask], axis=2)
        fields.append(GridField(tuple(live.tolist()), blocks[..., grid].reshape((len(live),) + shape + (M, M))))
    phi, psi, F, chi = fields
    patch = ReducedPatch(M, lam=lam)
    cmap = ComponentMap(L=L, phi_linear=phi_linear, phi_periodic=phi, psi=psi, F=F)
    return cmap, Gravitino(L=L, chi=chi), patch, model
