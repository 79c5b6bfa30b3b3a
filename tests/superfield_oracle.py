"""Reference superfield sums and frames for the tests: the product-built forms.

``add`` is the two-pass sum: add every coefficient, then drop the zeros.
``apply_D3`` and ``apply_D4`` build the flat frames from the eta derivative
``deta``, generic ``SuperField`` products and that sum, as
``d/deta + eta3 * d/dx + eta4 * d/dx``.  ``sjclab.superfield`` computes both
in one pass over the terms; the tests require the same keys in the same
order, with bit-identical coefficients.  ``apply_D`` is the holomorphic
frame (D3 - i D4) / 2, the partner of ``sjclab.superfield.apply_Dbar``.
"""

from __future__ import annotations

from sjclab.superfield import SuperField


def add(x: SuperField, y: SuperField) -> SuperField:
    terms = dict(x.terms)
    for k, c in y.terms.items():
        terms[k] = terms.get(k, 0) + c
    return SuperField._derived(x.L, terms)


def deta(field: SuperField, bit: int) -> SuperField:
    """Left derivative with respect to e3 (bit=1) or e4 (bit=2)."""
    terms = {}
    for (m, a, b), c in field.terms.items():
        if m & bit:
            s = -1 if m & (bit - 1) else 1  # only e3 lies below e4
            terms[(m ^ bit, a, b)] = c * s
    return SuperField._derived(field.L, terms)


def apply_D3(field: SuperField) -> SuperField:
    """D3 = d/de3 + e3 d/dx1 + e4 d/dx2."""
    L = field.L
    return add(
        add(deta(field, 1), SuperField.eta(L, 3) * field.dx1()),
        SuperField.eta(L, 4) * field.dx2(),
    )


def apply_D4(field: SuperField) -> SuperField:
    """D4 = d/de4 + e3 d/dx2 - e4 d/dx1."""
    L = field.L
    return add(
        add(deta(field, 2), SuperField.eta(L, 3) * field.dx2()),
        -(SuperField.eta(L, 4) * field.dx1()),
    )


def apply_D(field: SuperField) -> SuperField:
    """D = (D3 - i D4) / 2 = d/dtheta + theta d/dz."""
    return (apply_D3(field) + apply_D4(field) * (-1j)) * 0.5
