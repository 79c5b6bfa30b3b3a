"""Reference sphere build and index steps for the tests: one sector, one stack at a time.

``build_dbar_sphere`` builds dbar on O(k) sector by sector, q = -M..k + M,
with a dozen small numpy steps per sector, then stacks the sectors of each
block shape in order of first appearance.  ``gram_gate`` and
``singular_values`` take the Gram eigenvalues, the Cholesky factors and
their inverse with one LAPACK call per stack and side, after ``normalized``
rescales each stack's two Grams on their own.  ``sjclab.indexlab``
builds every sector in one pass and batches the factorisations by matrix
size; the tests require the same bytes.
"""

from __future__ import annotations

import numpy as np

from sjclab import indexlab as il


def _stacks_by_shape(blocks: list[tuple]) -> list[il.BlockStack]:
    """Stack blocks (matrix, gram_domain, gram_codomain, dom, cod, label) of equal shape."""
    groups: dict[tuple[int, int], list[tuple]] = {}
    for blk in blocks:
        groups.setdefault(blk[0].shape, []).append(blk)
    stacks = []
    for group in groups.values():
        *arrays, labels = zip(*group)
        stacks.append(il.BlockStack(*map(np.stack, arrays), labels=list(labels)))
    return stacks


def build_dbar_sphere(k: int, M: int) -> il.OperatorMatrix:
    radial = np.array([il._radial_integral(p, 2 * M + k + 2) for p in range(k + 2 * M + 1)])
    table_dom = 4.0 * 2.0 ** (k / 2.0) * radial
    table_cod = 2.0 * 2.0 ** (k / 2.0) * radial
    blocks = []
    for q in range(-M, k + M + 1):
        b = np.arange(max(0, -q), min(M, k + M - q) + 1)
        d = np.arange(max(0, -q - 1), min(M - 1, k + M - q) + 1)
        A = np.where(d[:, None] == b - 1, b, 0) + np.where(d[:, None] == b, b - M, 0)
        blocks.append((
            A.astype(complex),
            table_dom[b[:, None] + b[None, :] + q],
            table_cod[d[:, None] + d[None, :] + q + 1],
            (b + q) * (M + 1) + b,
            (d + q + 1) * M + d,
            f"sector q={q}",
        ))
    return il.OperatorMatrix(tag=f"dbar O({k})", is_complex_linear=True, stacks=_stacks_by_shape(blocks))


def normalized(stack: il.BlockStack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``BlockStack.normalized`` on one stack, each side rescaled on its own."""
    if il._shared_identity(stack.gram_domain) and il._shared_identity(stack.gram_codomain):
        return stack.matrix, stack.gram_domain, stack.gram_codomain
    sd = np.sqrt(np.diagonal(stack.gram_domain, axis1=-2, axis2=-1).real)
    sc = np.sqrt(np.diagonal(stack.gram_codomain, axis1=-2, axis2=-1).real)
    sd = np.where(sd == 0, 1.0, sd)
    sc = np.where(sc == 0, 1.0, sc)
    gd = stack.gram_domain / (sd[:, :, None] * sd[:, None, :])
    gc = stack.gram_codomain / (sc[:, :, None] * sc[:, None, :])
    return stack.matrix * sc[:, :, None] / sd[:, None, :], gd, gc


def gram_gate(op: il.OperatorMatrix, normalized: list[tuple]) -> tuple[float, float, str, float]:
    """``indexlab._gram_gate`` with one ``eigvalsh`` per stack and side."""
    worst, worst_cond = "", 0.0
    conds = {}
    for side, which in (("domain", 1), ("codomain", 2)):
        eigs = []
        for st, parts in zip(op.stacks, normalized):
            g = parts[which]
            if g.shape[-1] == 0:
                continue
            e = np.linalg.eigvalsh(g)
            eigs.append(e.ravel())
            block_cond = il._condition(e)
            i = int(np.argmax(block_cond))
            if block_cond[i] > worst_cond:
                worst, worst_cond = f"{side} Gram of {st.labels[i]}", float(block_cond[i])
        conds[side] = float(il._condition(np.concatenate(eigs))) if eigs else 1.0
    for side, cond in conds.items():
        if cond > il.GRAM_CONDITION_LIMIT:
            raise il.IndexLabError(
                f"ill-conditioned Gram matrix: {side} condition {cond:.4g} exceeds "
                f"{il.GRAM_CONDITION_LIMIT:.0e}; worst block: {worst} (condition {worst_cond:.4g})"
            )
    return conds["domain"], conds["codomain"], worst, worst_cond


def singular_values(op: il.OperatorMatrix, normalized: list[tuple]) -> np.ndarray:
    """``indexlab._singular_values`` with two ``cholesky`` calls and one ``inv`` per stack."""
    pieces = [np.zeros(0)]
    for a, gd, gc in normalized:
        if a.shape[-1] == 0 or a.shape[-2] == 0:
            continue
        if not (il._shared_identity(gd) and il._shared_identity(gc)):
            ld = np.linalg.cholesky(gd)
            lc = np.linalg.cholesky(gc)
            a = il._herm(lc) @ a @ np.linalg.inv(il._herm(ld))
        pieces.append(np.linalg.svd(a, compute_uv=False).ravel())
    sv = np.sort(np.concatenate(pieces))[::-1]
    return np.concatenate([sv, np.zeros(min(op.shape) - sv.size)])
