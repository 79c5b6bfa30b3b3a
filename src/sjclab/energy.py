"""Pointwise energy identity for flat-model superfield maps.

For the flat superconformal frames the squared norm of the first-order
operator satisfies, identically in the supercoordinates,

    (1/2) eps^{ab} n(A_a, A_b)
        = eps^{ab} n(D_a Y, D_b Y) + eps^{ab} n(J I_a^m D_m Y, D_b Y)

with A_a = D_a Y + J I_a^m D_m Y and eps^{34} = +1, I the almost complex
structure on the odd frames (I D_3 = D_4).  The residual returned here is
LHS - RHS as a superfield; it vanishes exactly.
"""

from __future__ import annotations

from .superfield import FlatTargetJ, SuperField, apply_D3, apply_D4


def _frame_derivatives(components: list[SuperField]) -> tuple[list[SuperField], list[SuperField]]:
    return [apply_D3(y) for y in components], [apply_D4(y) for y in components]


def _pair(u: list[SuperField], v: list[SuperField]) -> SuperField:
    """Flat metric pairing sum_b u^b v^b (order matters: odd entries)."""
    acc = SuperField.zero(u[0].L)
    for ub, vb in zip(u, v):
        acc = acc + ub * vb
    return acc


def energy_identity_residual(
    components: list[SuperField], J: FlatTargetJ
) -> SuperField:
    """LHS - RHS of the pointwise energy identity; exactly zero."""
    if len(components) != J.dim:
        raise ValueError(f"expected {J.dim} components, got {len(components)}")
    d3, d4 = _frame_derivatives(components)
    # I D_3 = D_4, I D_4 = -D_3 on the odd frame index
    jid3 = J.apply(d4)                  # J I_3^m D_m
    jid4 = J.apply([-y for y in d3])    # J I_4^m D_m
    a3 = [x + y for x, y in zip(d3, jid3)]
    a4 = [x + y for x, y in zip(d4, jid4)]
    # eps^{34} = +1 = -eps^{43}
    lhs = (_pair(a3, a4) - _pair(a4, a3)) * 0.5
    rhs = (
        _pair(d3, d4)
        - _pair(d4, d3)
        + _pair(jid3, d4)
        - _pair(jid4, d3)
    )
    return lhs - rhs
