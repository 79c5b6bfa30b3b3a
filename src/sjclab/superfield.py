"""Symbolic superfields on the flat R^{2|2} patch over a base R^{0|L}.

Coordinates are kept real and primitive: x1, x2 on the body, odd e3, e4
(the eta coordinates), and base generators l1..lL.  The complex views
z = x1 + i x2 and theta = e3 + i e4 are derived linear combinations.

A superfield is one sparse dict ``{(mask, a, b): coeff}`` standing for the
sum of ``coeff * x1^a x2^b * monomial(mask)``.  The mask runs over the odd
generators in the order (e3, e4, l1, ..., lL): bit 0 is e3, bit 1 is e4 and
bit k+1 is lk, and a monomial lists its generators in that order, so the
signs of products come from ``grassmann.merge_sign``.  Zero coefficients are
never stored, so structural equality is algebraic equality.  All operations
are exact on exact data.

A map to the flat target R^{2n} is 2n even components, and J is the standard
``targets.standard_J``: every constant J compatible with the flat metric is
that one after an orthogonal change of target coordinates.

The maps that the flat-model checks apply are each one index map over the
terms, with no intermediate ``SuperField``: the frames ``apply_D3`` and
``apply_D4`` (the eta derivative, then the e3 part, then the e4 part),
``apply_Dbar``, ``theta_components``, ``components_from_complex``,
``apply_J`` and ``flat_sjc_residual``.  Each gives the keys, key order and
coefficient bits of its composition from ``SuperField`` products, scalar
products and sums (kept as test oracles), with the same rounding order and
zero dropping, so later sums accumulate in the same order and an exact
zero is found or lost exactly as the composition finds or loses it.

Literal grammar (``SuperField.from_text``; ``to_text`` writes it back):

* a literal is ``0`` or a sum of terms joined by ``+`` outside parentheses;
* a term is ``*``-separated factors.  At most one factor is a finite
  complex number such as ``2.0``, ``-1.5`` or ``(0+1j)`` (default 1), one
  ASCII literal with no inner spaces or underscores; every other factor is a
  space-separated list of the symbols ``x1``, ``x2``, ``x1^n``, ``x2^n``
  (n >= 0), ``e3``, ``e4`` and ``l1`` .. ``lL``.  The coefficient is the
  first factor that does not start with ``x``, ``e`` or ``l``;
* no term and no factor is empty: ``x1 +``, ``x1 + + x2`` and
  ``x1 * * x2`` are malformed;
* a term is the product of its factors in the order written: ``e4 e3``
  is ``-e3 e4``, ``l1 * e3`` is ``-e3 l1`` and a repeated odd symbol gives 0;
* a term's degree in (x1, x2) is at most ``MAX_DEGREE``.

Anything else raises ValueError naming the offending token, factor or term.
"""

from __future__ import annotations

import functools
import math
import re

from .grassmann import GrassmannError, format_complex, merge_sign, reversal_sign

MAX_DEGREE = 8  # highest (x1, x2) degree of a literal term
_ONE = complex(1.0)  # the coefficient of a bare eta, as a product factor

# odd symbol -> generator bit, before the base generators l1..lL at bits 2..
_ETA_BITS = {"e3": 1, "e4": 2}
_X_POWER = re.compile(r"x([12])(?:\^([0-9]+))?")
_BASE_GEN = re.compile(r"l([1-9][0-9]*)")
# every '+' but the sign of an exponent such as 1e+20
_PLUS = re.compile(r"(?<![0-9.][eE])\+")
# text that complex() reads but a coefficient literal may not hold
_NOT_IN_COEFF = re.compile(r"[\s_]")


class SuperField:
    """Function on the flat R^{2|2} patch with coefficients over the base algebra.

    ``terms`` maps (mask, a, b) -> coeff for ``coeff * x1^a x2^b * monomial(mask)``.
    """

    __slots__ = ("L", "terms")

    def __init__(self, L: int, terms: dict[tuple[int, int, int], complex] | None = None):
        if not isinstance(L, int) or L < 0:
            raise GrassmannError(f"number of base generators must be an integer >= 0, got {L!r}")
        limit = 4 << L
        clean: dict[tuple[int, int, int], complex] = {}
        for (mask, a, b), c in (terms or {}).items():
            if not 0 <= mask < limit:
                raise GrassmannError(f"monomial mask {mask:#b} references generators beyond L={L}")
            if a < 0 or b < 0:
                raise ValueError("negative exponents")
            c = complex(c)
            if c != 0:
                clean[(mask, a, b)] = c
        self.L = L
        self.terms = clean

    @classmethod
    def _derived(cls, L: int, terms: dict[tuple[int, int, int], complex]) -> "SuperField":
        """Result of an operation on valid fields: zeros dropped, nothing re-checked."""
        out = cls.__new__(cls)
        out.L = L
        out.terms = {k: c for k, c in terms.items() if c != 0}
        return out

    @classmethod
    def _wrap(cls, L: int, terms: dict[tuple[int, int, int], complex]) -> "SuperField":
        """Wrap terms that hold no zero coefficient, with no copy and no check."""
        out = cls.__new__(cls)
        out.L = L
        out.terms = terms
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, L: int) -> "SuperField":
        return cls(L)

    @classmethod
    def const(cls, L: int, value: complex) -> "SuperField":
        return cls(L, {(0, 0, 0): value})

    @classmethod
    def coordinate_x1(cls, L: int) -> "SuperField":
        return cls(L, {(0, 1, 0): 1.0})

    @classmethod
    def coordinate_x2(cls, L: int) -> "SuperField":
        return cls(L, {(0, 0, 1): 1.0})

    @classmethod
    def coordinate_z(cls, L: int) -> "SuperField":
        return cls(L, {(0, 1, 0): 1.0, (0, 0, 1): 1j})

    @classmethod
    def eta(cls, L: int, index: int) -> "SuperField":
        if index not in (3, 4):
            raise GrassmannError("eta index must be 3 or 4")
        return cls(L, {(1 << (index - 3), 0, 0): 1.0})

    @classmethod
    def theta(cls, L: int) -> "SuperField":
        return cls.eta(L, 3) + cls.eta(L, 4) * 1j

    @classmethod
    def theta_bar(cls, L: int) -> "SuperField":
        return cls.eta(L, 3) + cls.eta(L, 4) * (-1j)

    @classmethod
    def base_generator(cls, L: int, index: int) -> "SuperField":
        if not 1 <= index <= L:
            raise GrassmannError(f"base generator index {index} out of range 1..{L}")
        return cls(L, {(1 << (index + 1), 0, 0): 1.0})

    # -- algebra -------------------------------------------------------

    def _check_compatible(self, other: "SuperField") -> None:
        if self.L != other.L:
            raise GrassmannError("mixed base generator counts")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = SuperField.const(self.L, other)
        if not isinstance(other, SuperField):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        _accumulate(terms, other.terms.items())
        return SuperField._wrap(self.L, terms)

    __radd__ = __add__

    def __neg__(self):
        return SuperField._derived(self.L, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = SuperField.const(self.L, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return SuperField._derived(self.L, {k: c * other for k, c in self.terms.items()})
        if not isinstance(other, SuperField):
            return NotImplemented
        self._check_compatible(other)
        terms: dict[tuple[int, int, int], complex] = {}
        for (ma, a1, b1), ca in self.terms.items():
            for (mb, a2, b2), cb in other.terms.items():
                s = merge_sign(ma, mb)
                if s:
                    key = (ma | mb, a1 + a2, b1 + b2)
                    terms[key] = terms.get(key, 0) + ca * cb * s
        return SuperField._derived(self.L, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, float, complex)):
            other = SuperField.const(self.L, other)
        if not isinstance(other, SuperField):
            return NotImplemented
        return self.L == other.L and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- grading ---------------------------------------------------------

    def parity(self) -> str:
        """'even', 'odd', or 'mixed' (zero counts as even)."""
        odd = None
        for mask, _, _ in self.terms:
            bit = mask.bit_count() & 1
            if odd is None:
                odd = bit
            elif bit != odd:
                return "mixed"
        return "odd" if odd else "even"

    # -- derivations -------------------------------------------------------

    def dx1(self) -> "SuperField":
        return SuperField._derived(
            self.L, {(m, a - 1, b): a * c for (m, a, b), c in self.terms.items() if a}
        )

    def dx2(self) -> "SuperField":
        return SuperField._derived(
            self.L, {(m, a, b - 1): b * c for (m, a, b), c in self.terms.items() if b}
        )

    def dzbar(self) -> "SuperField":
        """d/dzbar = (d/dx1 + i d/dx2) / 2, rounded as (dx1 + dx2 * 1j) * 0.5."""
        return SuperField._wrap(self.L, _half_sum(self.dx1().terms, self.dx2().terms, 1j))

    # -- component views --------------------------------------------------

    def theta_components(self) -> tuple["SuperField", "SuperField", "SuperField", "SuperField"]:
        """Eta-free f, g, h, k with self = f + theta g + theta_bar h + theta theta_bar k.

        One pass splits the terms by their eta part c0 + e3 c3 + e4 c4 + e3 e4
        c34; then g = (c3 + c4 * -1j) * 0.5, h = (c3 + c4 * 1j) * 0.5 and
        k = c34 * 0.5j, since theta theta_bar = -2i e3 e4.
        """
        c0, c3, c4, k = {}, {}, {}, {}
        parts = (c0, c3, c4)
        for (m, a, b), c in self.terms.items():
            eta = m & 3
            if eta == 3:
                c = c * 0.5j
                if c != 0:
                    k[(m ^ 3, a, b)] = c
            else:
                parts[eta][(m ^ eta, a, b)] = c
        L = self.L
        g, h = (SuperField._wrap(L, _half_sum(c3, c4, w)) for w in (-1j, 1j))
        return SuperField._wrap(L, c0), g, h, SuperField._wrap(L, k)

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """Terms ordered by eta bits, base bits, then the x1 and x2 exponents."""
        if not self.terms:
            return "0"
        parts = []
        for m, a, b in sorted(self.terms, key=lambda k: (k[0] & 3, k[0] >> 2, k[1], k[2])):
            factors = [format_complex(self.terms[(m, a, b)])]
            mono = [f"x{i}^{e}" for i, e in ((1, a), (2, b)) if e]
            odd = [name for name, bit in _ETA_BITS.items() if m & bit]
            gens = [f"l{i}" for i in range(1, self.L + 1) if m >> (i + 1) & 1]
            factors.extend(" ".join(group) for group in (mono, odd, gens) if group)
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    @classmethod
    def from_text(cls, L: int, text: str) -> "SuperField":
        """Parse a literal (grammar in the module docstring)."""
        out = cls(L)  # checks L
        text = text.strip()
        if text in ("0", ""):
            return out
        terms: dict[tuple[int, int, int], complex] = {}
        for n, chunk in enumerate(_split_sum(text), 1):
            if not chunk:
                raise ValueError(f"term {n} of superfield literal {text!r} is empty")
            coeff, sign, mask, a, b = _ONE, 1, 0, 0, 0
            saw_coeff = False
            for factor in chunk.split("*"):
                factor = factor.strip()
                if not factor:
                    raise ValueError(f"empty factor in superfield literal term {chunk!r}")
                if not saw_coeff and factor[0] not in "xel":
                    coeff, saw_coeff = _parse_coeff(factor), True
                    continue
                fmask, fsign, fa, fb = _symbol_factor(L, factor)
                sign *= fsign * merge_sign(mask, fmask)  # 0 once a symbol repeats
                mask |= fmask
                a += fa
                b += fb
            if a + b > MAX_DEGREE:
                raise ValueError(
                    f"superfield literal term {chunk!r} has degree {a + b}, above the cap {MAX_DEGREE}"
                )
            if sign:
                key = (mask, a, b)
                terms[key] = terms.get(key, 0) + (coeff if sign > 0 else -coeff)
        return cls._derived(L, terms)

    def __repr__(self):
        return f"SuperField(L={self.L}, {self.to_text()})"


def _odd_bit(tok: str, L: int) -> int:
    gen = _BASE_GEN.fullmatch(tok)
    if gen and int(gen[1]) <= L:
        return 1 << (int(gen[1]) + 1)
    if tok in _ETA_BITS:
        return _ETA_BITS[tok]
    raise ValueError(
        f"bad token {tok!r} in superfield literal; symbols are "
        f"x1, x2, x1^n, x2^n (n >= 0), e3, e4 and l1..l{L}"
    )


@functools.lru_cache(maxsize=1024)  # a literal file repeats a few dozen symbol factors
def _symbol_factor(L: int, factor: str) -> tuple[int, int, int, int]:
    """(mask, sign, a, b) of a symbol factor: its odd symbols multiplied in the
    order written give sign * monomial(mask) (sign 0 once a symbol repeats),
    and its x powers give x1^a x2^b.

    Merging the factor into a term's monomial ``m`` then takes the sign
    ``sign * merge_sign(m, mask)``, the product of the per-symbol merge signs.
    """
    mask, sign, powers = 0, 1, [0, 0]
    for tok in factor.split():
        power = _X_POWER.fullmatch(tok)
        if power:
            # a power past the cap is refused before int() reads its digits, however many
            digits = (power[2] or "1").lstrip("0")
            if len(digits) > len(str(MAX_DEGREE)):
                shown = repr(tok[:24]) + ("..." if len(tok) > 24 else "")
                raise ValueError(f"x power {shown} in superfield literal is above the degree cap {MAX_DEGREE}")
            powers[int(power[1]) - 1] += int(digits or 0)
        else:
            bit = _odd_bit(tok, L)
            sign *= merge_sign(mask, bit)
            mask |= bit
    return mask, sign, powers[0], powers[1]


def _parse_coeff(factor: str) -> complex:
    c = None
    if factor.isascii() and not _NOT_IN_COEFF.search(factor):  # complex() reads other digits too
        try:
            c = complex(factor)
        except ValueError:
            pass
    if c is None:
        raise ValueError(f"bad coefficient {factor!r} in superfield literal")
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError(f"non-finite coefficient {factor!r} in superfield literal")
    return c


def _split_sum(text: str) -> list[str]:
    """Split a sum on '+' outside parentheses and outside exponents like 1e+20.

    Chunks are stripped; an empty one (``x1 +``) is kept, for the parser to reject.
    """
    chunks, pending = [], []
    depth = 0
    for piece in _PLUS.split(text):
        # a '+' splits only at parenthesis depth 0; the pieces between are joined again
        pending.append(piece)
        depth += piece.count("(") - piece.count(")")
        if depth == 0:
            chunks.append("+".join(pending).strip())
            pending = []
    if pending:
        chunks.append("+".join(pending).strip())
    return chunks


# -- the flat superconformal frames ------------------------------------------


def _accumulate(terms: dict, items) -> None:
    """Add each (key, coeff) of items to terms in order, dropping a key whose sum is 0."""
    for k, c in items:
        c = terms.get(k, 0) + c
        if c != 0:
            terms[k] = c
        else:
            terms.pop(k, None)


def _half_sum(p: dict, q: dict, w: complex) -> dict:
    """Terms of (P + Q * w) * 0.5 for w = 1j or -1j, from the terms of P and Q.

    Same keys, key order and coefficient bits as the ``SuperField`` scalar
    products and sum: the keys of P, then those only in Q; a key only in Q
    takes ``0 + q * w`` as the sum adds it; a zero is dropped after the sum
    and after the halving.  ``q * w`` is nonzero for nonzero q, so the
    product ``Q * w`` drops nothing.
    """
    out = {}
    for k, c in p.items():
        if k in q:
            c = c + q[k] * w
        c = c * 0.5
        if c != 0:
            out[k] = c
    for k, c in q.items():
        if k not in p:
            c = (0 + c * w) * 0.5
            if c != 0:
                out[k] = c
    return out


# eta bit, axis of the e3 part, axis and sign of the e4 part
_D3 = (1, 1, 2, 1)  # D3 = d/de3 + e3 d/dx1 + e4 d/dx2
_D4 = (2, 2, 1, -1)  # D4 = d/de4 + e3 d/dx2 - e4 d/dx1


def _frame(terms: dict, bit: int, e3_axis: int, e4_axis: int, e4_sign: int) -> dict:
    """Terms of d/deta + e3 d/dx_(e3_axis) + e4_sign e4 d/dx_(e4_axis), eta at ``bit``.

    Same terms, key order and coefficient bits as the product form
    ``deta + eta3 * dx + eta4 * dx`` built from ``SuperField`` products and
    sums.  One pass over the terms forms the three parts; the e3 and e4
    parts are then added to the eta derivative in that order, with the
    sum's own rounding and zero dropping (``_accumulate``).  Each part's
    coefficient is rounded as the generic product forms it: the eta
    factor's 1.0 times the derivative's, times the merge sign, added to 0;
    a minus sign then negates it, as ``SuperField.__sub__`` does.
    """
    out = {}  # the left eta derivative; c * s is nonzero for nonzero c
    e3_part, e4_part = [], []
    for key, c in terms.items():
        m, a, b = key
        if m & bit:
            out[(m ^ bit, a, b)] = c * (-1 if m & (bit - 1) else 1)  # only e3 lies below e4
        p = key[e3_axis]
        if p and not m & 1:  # e3 is the lowest generator: merge sign 1
            k = (m | 1, a - 1, b) if e3_axis == 1 else (m | 1, a, b - 1)
            e3_part.append((k, 0 + _ONE * (p * c) * 1))
        p = key[e4_axis]
        if p and not m & 2:
            k = (m | 2, a - 1, b) if e4_axis == 1 else (m | 2, a, b - 1)
            v = 0 + _ONE * (p * c) * (-1 if m & 1 else 1)
            e4_part.append((k, v if e4_sign > 0 else -v))
    _accumulate(out, e3_part)
    _accumulate(out, e4_part)
    return out


def apply_D3(field: SuperField) -> SuperField:
    """D3 = d/de3 + e3 d/dx1 + e4 d/dx2."""
    return SuperField._wrap(field.L, _frame(field.terms, *_D3))


def apply_D4(field: SuperField) -> SuperField:
    """D4 = d/de4 + e3 d/dx2 - e4 d/dx1."""
    return SuperField._wrap(field.L, _frame(field.terms, *_D4))


def apply_Dbar(field: SuperField) -> SuperField:
    """Dbar = (D3 + i D4) / 2 = d/dtheta_bar + theta_bar d/dzbar, as (D3 + D4 * 1j) * 0.5 rounds it."""
    return SuperField._wrap(
        field.L, _half_sum(_frame(field.terms, *_D3), _frame(field.terms, *_D4), 1j)
    )


def _apply_J_terms(vec: list[dict]) -> list[dict]:
    """Terms of ``apply_J`` from the terms of v: each entry ``0 + v * w`` for the
    one nonzero column entry w = -1.0 or 1.0 of J, with its zeros dropped, as
    ``zero() + v^c * J[c, b]`` rounds it.  v must have 2n > 0 entries.
    """
    if not vec or len(vec) % 2:
        raise ValueError(f"expected a nonzero, even number of map components, got {len(vec)}")
    out = []
    for b in range(len(vec)):
        w = 1.0 if b & 1 else -1.0
        out.append({k: p for k, v in vec[b ^ 1].items() if (p := 0 + v * w) != 0})
    return out


def apply_J(vec: list[SuperField]) -> list[SuperField]:
    """The standard J of R^{2n} on v: (J v)^{2b} = -v^{2b+1} and (J v)^{2b+1} = v^{2b}."""
    return [SuperField._wrap(v.L, t) for v, t in zip(vec, _apply_J_terms([v.terms for v in vec]))]


def flat_sjc_residual(components: list[SuperField]) -> list[SuperField]:
    """Residuals D3(Y^b) + D4(Y^c) J_c^b of the flat-model first-order system, J standard.

    Each J-column term of the D4 part is added into the terms of D3(Y^b), as
    ``apply_D3(y) + apply_J(...)[b]`` rounds it.
    """
    for y in components:
        if y.parity() != "even":
            raise ValueError("map components must be even superfields")
    jd4 = _apply_J_terms([_frame(y.terms, *_D4) for y in components])
    out = []
    for y, s in zip(components, jd4):
        terms = _frame(y.terms, *_D3)
        _accumulate(terms, s.items())
        out.append(SuperField._wrap(y.L, terms))
    return out


def components_from_complex(z_components: list[SuperField]) -> list[SuperField]:
    """Real map components (r^1, s^1, r^2, s^2, ...) from Z^b = r^b + i s^b.

    One pass per component: with zbar the graded star of Z, r = (Z + zbar) * 0.5
    and s = (Z + -zbar) * -0.5j, rounded as the ``SuperField`` sums and scalar
    products round them; zbar has the keys of Z, so no key moves.
    """
    out = []
    for zc in z_components:
        real, imag = {}, {}
        for key, c in zc.terms.items():
            cb = c.conjugate() * reversal_sign(key[0])
            x = (c + cb) * 0.5
            if x != 0:
                real[key] = x
            x = (c + -cb) * -0.5j
            if x != 0:
                imag[key] = x
        out += (SuperField._wrap(zc.L, real), SuperField._wrap(zc.L, imag))
    return out


def holomorphy_equivalence_check(z_components: list[SuperField]) -> tuple[bool, bool]:
    """Holomorphy of the components by two routes: (Dbar kills every one, h = k = 0 and dzbar f = dzbar g = 0).

    The routes agree on every input; the suites report a disagreement, which
    signals an implementation fault, as a failing check.
    """
    via_dbar = all(apply_Dbar(zc).is_zero() for zc in z_components)
    via_expansion = True
    for zc in z_components:
        if zc.parity() not in ("even",):
            raise ValueError("expected even superfields")
        f, g, h, k = zc.theta_components()
        if not (h.is_zero() and k.is_zero() and f.dzbar().is_zero() and g.dzbar().is_zero()):
            via_expansion = False
            break
    return via_dbar, via_expansion
