"""Reference superfield maps for the tests: the product-built forms.

``add`` is the two-pass sum: add every coefficient, then drop the zeros.
``conjugate`` is the graded star, which ``components_from_complex`` of
``sjclab.superfield`` applies inline.
``apply_D3`` and ``apply_D4`` build the flat frames from the eta derivative
``deta``, generic ``SuperField`` products and that sum, as
``d/deta + eta3 * d/dx + eta4 * d/dx``.  ``apply_Dbar``, ``dzbar``,
``theta_components``, ``components_from_complex``, ``j_apply`` (for
``apply_J``: the products with the entries of ``standard_J(n)``) and
``flat_sjc_residual`` compose those frames with scalar products and that
sum.  ``sjclab.superfield`` computes each map in
one pass over the terms; the tests require the same keys in the same order,
with bit-identical coefficients.  ``apply_D`` is the holomorphic frame
(D3 - i D4) / 2, the partner of ``sjclab.superfield.apply_Dbar``.

``from_text`` is the literal parser token by token, as it was before its
symbol factors were cached: a regex match per x power and a merge sign per
odd symbol.  It takes no stand on malformed literals (it drops empty terms
and factors and strips inner spaces from a coefficient), so the tests
compare it with ``SuperField.from_text`` on well-formed literals only.
``split_sum_per_character``, its splitter, is the reference for
``_split_sum``.
"""

from __future__ import annotations

from sjclab.grassmann import merge_sign, reversal_sign
from sjclab.superfield import (
    MAX_DEGREE,
    _X_POWER,
    SuperField,
    _odd_bit,
)
from sjclab.targets import standard_J


def add(x: SuperField, y: SuperField) -> SuperField:
    terms = dict(x.terms)
    for k, c in y.terms.items():
        terms[k] = terms.get(k, 0) + c
    return SuperField._derived(x.L, terms)


def conjugate(F: SuperField) -> SuperField:
    """Graded star: fixes x, eta and base generators, reverses products."""
    return SuperField._derived(F.L, {k: c.conjugate() * reversal_sign(k[0]) for k, c in F.terms.items()})


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


def apply_Dbar(field: SuperField) -> SuperField:
    """Dbar = (D3 + i D4) / 2 = d/dtheta_bar + theta_bar d/dzbar."""
    return add(apply_D3(field), apply_D4(field) * 1j) * 0.5


def dzbar(field: SuperField) -> SuperField:
    return add(field.dx1(), field.dx2() * 1j) * 0.5


def theta_components(field: SuperField) -> tuple[SuperField, SuperField, SuperField, SuperField]:
    """Eta-free f, g, h, k with field = f + theta g + theta_bar h + theta theta_bar k."""
    c0, c3, c4, c34 = (
        SuperField._derived(
            field.L, {(m & ~3, a, b): c for (m, a, b), c in field.terms.items() if m & 3 == em}
        )
        for em in range(4)
    )
    g = add(c3, c4 * (-1j)) * 0.5
    h = add(c3, c4 * 1j) * 0.5
    k = c34 * (0.5j)  # theta theta_bar = -2i e3 e4
    return c0, g, h, k


def components_from_complex(z_components: list[SuperField]) -> list[SuperField]:
    """Real map components (r^1, s^1, r^2, s^2, ...) from Z^b = r^b + i s^b."""
    out = []
    for zc in z_components:
        zbar = conjugate(zc)
        out.append(add(zc, zbar) * 0.5)
        out.append(add(zc, -zbar) * (-0.5j))
    return out


def j_apply(vec: list[SuperField]) -> list[SuperField]:
    """(J v)^b = sum_c v^c J[c, b] for J = standard_J(n), skipping the zero entries of J."""
    J = standard_J(len(vec) // 2)
    out = []
    for b in range(len(vec)):
        acc = SuperField.zero(vec[0].L)
        for c in range(len(vec)):
            jcb = J[c, b]
            if jcb:
                acc = add(acc, vec[c] * jcb)
        out.append(acc)
    return out


def flat_sjc_residual(components: list[SuperField]) -> list[SuperField]:
    """Residuals D3(Y^b) + D4(Y^c) J_c^b of the flat-model first-order system, J standard."""
    d3 = [apply_D3(y) for y in components]
    jd4 = j_apply([apply_D4(y) for y in components])
    return [add(r, s) for r, s in zip(d3, jd4)]


def from_text(L: int, text: str) -> SuperField:
    """Parse a well-formed literal symbol by symbol."""
    text = text.strip()
    if text in ("0", ""):
        return SuperField(L)
    terms: dict[tuple[int, int, int], complex] = {}
    for chunk in (c for c in split_sum_per_character(text) if c):
        coeff, sign, mask, powers = 1.0 + 0j, 1, 0, [0, 0]
        saw_coeff = False
        for factor in (f.strip() for f in chunk.split("*")):
            tokens = factor.split()
            if not tokens:
                continue
            if not saw_coeff and not any(t.startswith(("x", "e", "l")) for t in tokens):
                coeff, saw_coeff = complex(factor.replace(" ", "")), True
                continue
            for tok in tokens:
                power = _X_POWER.fullmatch(tok)
                if power:
                    powers[int(power[1]) - 1] += int(power[2] or 1)
                else:
                    bit = _odd_bit(tok, L)
                    sign *= merge_sign(mask, bit)  # 0 once a symbol repeats
                    mask |= bit
        if sum(powers) > MAX_DEGREE:
            raise ValueError(f"superfield literal term {chunk!r} has degree {sum(powers)}")
        if sign:
            key = (mask, *powers)
            terms[key] = terms.get(key, 0) + (coeff if sign > 0 else -coeff)
    return SuperField._derived(L, terms)


def split_sum_per_character(text: str) -> list[str]:
    """Reference splitter: one pass over the characters, tracking the parenthesis depth.

    Chunks are stripped, and an empty chunk is kept.
    """
    chunks = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "+" and depth == 0 and not (
            len(current) > 1 and current[-1] in "eE" and current[-2] in "0123456789."
        ):
            chunks.append("".join(current))
            current = []
        else:
            current.append(ch)
    chunks.append("".join(current))
    return [c.strip() for c in chunks]
