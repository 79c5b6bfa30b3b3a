"""Exact reference arithmetic for the tests: the sparse Grassmann algebra.

``GrassmannElement`` is an element of the complex Grassmann algebra on
generators l1, ..., lL, stored as a dict from basis monomial masks (bit i set
means generator l(i+1) is present, generators in increasing index order) to
complex coefficients.  Zero coefficients are pruned, so structural equality
is algebraic equality.  The tests compare the dense engine of ``sjclab``
(``fields.gcontract``, and ``fierz`` built on it) and the flat superfield
dicts against it with ``==``.
It shares only ``merge_sign`` and ``reversal_sign`` with them, and
``tests/test_grassmann.py`` checks products against a bubble sort.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from sjclab.grassmann import GrassmannError, format_complex, merge_sign, reversal_sign
from sjclab.superfield import SuperField


class GrassmannElement:
    """Element of the complex Grassmann algebra on L generators.

    Immutable after construction; zero coefficients are pruned.
    """

    __slots__ = ("L", "terms")

    def __init__(self, L: int, terms: dict[int, complex] | None = None):
        if L < 0:
            raise GrassmannError("number of generators must be >= 0")
        self.L = L
        clean: dict[int, complex] = {}
        if terms:
            limit = 1 << L
            for mask, coeff in terms.items():
                if not 0 <= mask < limit:
                    raise GrassmannError(
                        f"monomial mask {mask:#b} references generators beyond L={L}"
                    )
                c = complex(coeff)
                if c != 0:
                    clean[mask] = clean.get(mask, 0) + c
            clean = {m: c for m, c in clean.items() if c != 0}
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def scalar(cls, L: int, value: complex) -> "GrassmannElement":
        return cls(L, {0: value})

    @classmethod
    def zero(cls, L: int) -> "GrassmannElement":
        return cls(L, {})

    @classmethod
    def generator(cls, L: int, index: int) -> "GrassmannElement":
        """The generator l<index>, 1-based."""
        if not 1 <= index <= L:
            raise GrassmannError(f"generator index {index} out of range 1..{L}")
        return cls(L, {1 << (index - 1): 1.0})

    @classmethod
    def monomial(cls, L: int, indices: Iterable[int], coeff: complex = 1.0) -> "GrassmannElement":
        """Product of listed generators in the given order (signs applied)."""
        out = cls.scalar(L, coeff)
        for i in indices:
            out = out * cls.generator(L, i)
        return out

    # -- ring structure ------------------------------------------------

    def _check_compatible(self, other: "GrassmannElement") -> None:
        if self.L != other.L:
            raise GrassmannError(f"mixed generator counts: {self.L} vs {other.L}")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = GrassmannElement.scalar(self.L, other)
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return GrassmannElement(self.L, terms)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement(self.L, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, GrassmannElement) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return GrassmannElement(self.L, {m: c * other for m, c in self.terms.items()})
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        self._check_compatible(other)
        terms: dict[int, complex] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                s = merge_sign(ma, mb)
                if s:
                    m = ma | mb
                    terms[m] = terms.get(m, 0) + s * ca * cb
        return GrassmannElement(self.L, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = GrassmannElement.scalar(self.L, 1.0)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, float, complex)):
            other = GrassmannElement.scalar(self.L, other)
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self.L == other.L and self.terms == other.terms

    def __hash__(self):
        return hash((self.L, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __bool__(self):
        return bool(self.terms)

    # -- structure maps -------------------------------------------------

    def parity(self) -> str:
        """'even', 'odd', or 'mixed' (zero counts as even)."""
        if not self.terms:
            return "even"
        lengths = {bin(m).count("1") % 2 for m in self.terms}
        if lengths == {0}:
            return "even"
        if lengths == {1}:
            return "odd"
        return "mixed"

    def body(self) -> complex:
        return self.terms.get(0, 0j)

    def soul(self) -> "GrassmannElement":
        return GrassmannElement(self.L, {m: c for m, c in self.terms.items() if m != 0})

    def body_soul(self) -> tuple[complex, "GrassmannElement"]:
        return self.body(), self.soul()

    def left_derive(self, index: int) -> "GrassmannElement":
        """Left odd derivative with respect to generator l<index>."""
        if not 1 <= index <= self.L:
            raise GrassmannError(f"generator index {index} out of range 1..{self.L}")
        bit = 1 << (index - 1)
        terms: dict[int, complex] = {}
        for m, c in self.terms.items():
            if not m & bit:
                continue
            # sign from moving the derivative past generators below `index`
            below = m & (bit - 1)
            s = -1 if bin(below).count("1") % 2 else 1
            terms[m ^ bit] = terms.get(m ^ bit, 0) + s * c
        return GrassmannElement(self.L, terms)

    def conjugate(self) -> "GrassmannElement":
        """Graded star: antilinear, fixes generators, reverses products."""
        return GrassmannElement(
            self.L,
            {m: reversal_sign(m) * c.conjugate() for m, c in self.terms.items()},
        )

    def is_real(self, tol: float = 0.0) -> bool:
        """Real restriction predicate: fixed by the graded star."""
        diff = self - self.conjugate()
        return all(abs(c) <= tol for c in diff.terms.values())

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        """Deterministic text form ``c * l1^i1...`` with sorted monomials."""
        if not self.terms:
            return "0"
        parts = []
        for mask in sorted(self.terms):
            c = self.terms[mask]
            coeff = format_complex(c)
            gens = " ".join(f"l{i + 1}" for i in range(self.L) if mask & (1 << i))
            parts.append(f"{coeff} * {gens}" if gens else coeff)
        return " + ".join(parts)

    def __repr__(self):
        return f"GrassmannElement(L={self.L}, {self.to_text()})"


def evaluate(field: SuperField, x1: float, x2: float) -> GrassmannElement:
    """Collapse a superfield at (x1, x2) to a Grassmann number over (e3, e4, l1..lL)."""
    terms: dict[int, complex] = {}
    for (m, a, b), c in field.terms.items():
        terms[m] = terms.get(m, 0) + c * x1**a * x2**b
    return GrassmannElement(field.L + 2, terms)


def elements(dense: np.ndarray) -> GrassmannElement | list:
    """Nested lists of GrassmannElements from an array whose last axis is the mask."""
    L = dense.shape[-1].bit_length() - 1
    if dense.ndim == 1:
        return GrassmannElement(L, dict(enumerate(dense)))
    return [elements(sub) for sub in dense]
