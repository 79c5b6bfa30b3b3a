"""Symbolic superfields on the flat R^{2|2} patch over a base R^{0|L}.

Coordinates are kept real and primitive: x1, x2 on the body, odd e3, e4
(the eta coordinates), and base generators l1..lL.  The complex views
z = x1 + i x2 and theta = e3 + i e4 are derived linear combinations.

A superfield stores, for every pair (eta monomial, base monomial), a
bivariate polynomial coefficient in (x1, x2).  All operations are exact.
"""

from __future__ import annotations

import numpy as np

from .grassmann import (
    GrassmannElement,
    GrassmannError,
    merge_sign,
    reversal_sign,
    format_complex,
    parse_complex,
    split_sum,
)

DEFAULT_DEGREE_CAP = 8


class PolyFn:
    """Complex bivariate polynomial in (x1, x2), canonical and pruned."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], complex] | None = None):
        clean: dict[tuple[int, int], complex] = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                if i < 0 or j < 0:
                    raise ValueError("negative exponents")
                c = complex(c)
                if c != 0:
                    clean[(i, j)] = clean.get((i, j), 0) + c
            clean = {k: v for k, v in clean.items() if v != 0}
        self.coeffs = clean

    @classmethod
    def zero(cls) -> "PolyFn":
        return cls({})

    @classmethod
    def const(cls, value: complex) -> "PolyFn":
        return cls({(0, 0): value})

    @classmethod
    def x1(cls) -> "PolyFn":
        return cls({(1, 0): 1.0})

    @classmethod
    def x2(cls) -> "PolyFn":
        return cls({(0, 1): 1.0})

    @classmethod
    def z(cls) -> "PolyFn":
        return cls({(1, 0): 1.0, (0, 1): 1j})

    @classmethod
    def zbar(cls) -> "PolyFn":
        return cls({(1, 0): 1.0, (0, 1): -1j})

    @classmethod
    def from_z_poly(cls, coeffs: dict[tuple[int, int], complex]) -> "PolyFn":
        """Polynomial given in (z, zbar) monomials: {(a, b): c} -> c z^a zbar^b."""
        out = cls.zero()
        for (a, b), c in coeffs.items():
            out = out + cls.const(c) * cls.z() ** a * cls.zbar() ** b
        return out

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = PolyFn.const(other)
        if not isinstance(other, PolyFn):
            return NotImplemented
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + v
        return PolyFn(coeffs)

    __radd__ = __add__

    def __neg__(self):
        return PolyFn({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = PolyFn.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return PolyFn({k: v * other for k, v in self.coeffs.items()})
        if not isinstance(other, PolyFn):
            return NotImplemented
        coeffs: dict[tuple[int, int], complex] = {}
        for (i, j), a in self.coeffs.items():
            for (k, l), b in other.coeffs.items():
                key = (i + k, j + l)
                coeffs[key] = coeffs.get(key, 0) + a * b
        return PolyFn(coeffs)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        out = PolyFn.const(1.0)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, float, complex)):
            other = PolyFn.const(other)
        if not isinstance(other, PolyFn):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    def dx1(self) -> "PolyFn":
        return PolyFn({(i - 1, j): i * c for (i, j), c in self.coeffs.items() if i > 0})

    def dx2(self) -> "PolyFn":
        return PolyFn({(i, j - 1): j * c for (i, j), c in self.coeffs.items() if j > 0})

    def dz(self) -> "PolyFn":
        return (self.dx1() + self.dx2() * (-1j)) * 0.5

    def dzbar(self) -> "PolyFn":
        return (self.dx1() + self.dx2() * 1j) * 0.5

    def conjugate(self) -> "PolyFn":
        return PolyFn({k: v.conjugate() for k, v in self.coeffs.items()})

    def degree(self) -> int:
        return max((i + j for i, j in self.coeffs), default=0)

    def evaluate(self, x1: complex, x2: complex) -> complex:
        return sum(c * x1**i * x2**j for (i, j), c in self.coeffs.items())

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j) in sorted(self.coeffs):
            c = format_complex(self.coeffs[(i, j)])
            mono = []
            if i:
                mono.append(f"x1^{i}")
            if j:
                mono.append(f"x2^{j}")
            parts.append(f"{c} * {' '.join(mono)}" if mono else c)
        return " + ".join(parts)

    def __repr__(self):
        return f"PolyFn({self.to_text()})"


# eta monomial masks: bit 0 -> e3, bit 1 -> e4
ETA_NONE, ETA_3, ETA_4, ETA_34 = 0, 1, 2, 3


class SuperField:
    """Function on the flat R^{2|2} patch with coefficients over the base algebra.

    terms maps (eta_mask, base_mask) -> PolyFn.  The combined odd symbol
    order is (e3, e4, l1, ..., lL); signs in products follow from it.
    """

    __slots__ = ("L", "terms", "degree_cap")

    def __init__(
        self,
        L: int,
        terms: dict[tuple[int, int], PolyFn] | None = None,
        degree_cap: int | None = None,
    ):
        self.L = L
        self.degree_cap = degree_cap
        clean: dict[tuple[int, int], PolyFn] = {}
        if terms:
            base_limit = 1 << L
            for (em, bm), p in terms.items():
                if not 0 <= em < 4:
                    raise GrassmannError("eta mask out of range")
                if not 0 <= bm < base_limit:
                    raise GrassmannError("base mask references generators beyond L")
                if not isinstance(p, PolyFn):
                    p = PolyFn.const(p)
                if p:
                    if (em, bm) in clean:
                        p = clean[(em, bm)] + p
                    if p:
                        clean[(em, bm)] = p
                    elif (em, bm) in clean:
                        del clean[(em, bm)]
        self.terms = {k: v for k, v in clean.items() if v}
        if degree_cap is not None:
            bad = max((p.degree() for p in self.terms.values()), default=0)
            if bad > degree_cap:
                raise ValueError(f"polynomial degree {bad} exceeds cap {degree_cap}")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, L: int) -> "SuperField":
        return cls(L, {})

    @classmethod
    def from_poly(cls, L: int, p: PolyFn) -> "SuperField":
        return cls(L, {(0, 0): p})

    @classmethod
    def const(cls, L: int, value: complex) -> "SuperField":
        return cls.from_poly(L, PolyFn.const(value))

    @classmethod
    def coordinate_x1(cls, L: int) -> "SuperField":
        return cls.from_poly(L, PolyFn.x1())

    @classmethod
    def coordinate_x2(cls, L: int) -> "SuperField":
        return cls.from_poly(L, PolyFn.x2())

    @classmethod
    def coordinate_z(cls, L: int) -> "SuperField":
        return cls.from_poly(L, PolyFn.z())

    @classmethod
    def coordinate_zbar(cls, L: int) -> "SuperField":
        return cls.from_poly(L, PolyFn.zbar())

    @classmethod
    def eta(cls, L: int, index: int) -> "SuperField":
        if index not in (3, 4):
            raise GrassmannError("eta index must be 3 or 4")
        return cls(L, {(1 << (index - 3), 0): PolyFn.const(1.0)})

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
        return cls(L, {(0, 1 << (index - 1)): PolyFn.const(1.0)})

    @classmethod
    def from_grassmann(cls, g: GrassmannElement) -> "SuperField":
        return cls(g.L, {(0, m): PolyFn.const(c) for m, c in g.terms.items()})

    # -- algebra -------------------------------------------------------

    def _combined_mask(self, em: int, bm: int) -> int:
        return em | (bm << 2)

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = SuperField.const(self.L, other)
        if isinstance(other, PolyFn):
            other = SuperField.from_poly(self.L, other)
        if not isinstance(other, SuperField):
            return NotImplemented
        if self.L != other.L:
            raise GrassmannError("mixed base generator counts")
        terms = dict(self.terms)
        for k, p in other.terms.items():
            terms[k] = terms.get(k, PolyFn.zero()) + p
        return SuperField(self.L, terms)

    __radd__ = __add__

    def __neg__(self):
        return SuperField(self.L, {k: -p for k, p in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = SuperField.const(self.L, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return SuperField(self.L, {k: p * other for k, p in self.terms.items()})
        if isinstance(other, PolyFn):
            return SuperField(self.L, {k: p * other for k, p in self.terms.items()})
        if isinstance(other, GrassmannElement):
            other = SuperField.from_grassmann(other)
        if not isinstance(other, SuperField):
            return NotImplemented
        if self.L != other.L:
            raise GrassmannError("mixed base generator counts")
        terms: dict[tuple[int, int], PolyFn] = {}
        for (ea, ba), pa in self.terms.items():
            ma = self._combined_mask(ea, ba)
            for (eb, bb), pb in other.terms.items():
                mb = self._combined_mask(eb, bb)
                s = merge_sign(ma, mb)
                if not s:
                    continue
                key = (ea ^ eb, ba ^ bb)
                piece = pa * pb * s
                terms[key] = terms.get(key, PolyFn.zero()) + piece
        return SuperField(self.L, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, PolyFn)):
            return self * other
        if isinstance(other, GrassmannElement):
            return SuperField.from_grassmann(other) * self
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
        if not self.terms:
            return "even"
        lengths = {
            (bin(em).count("1") + bin(bm).count("1")) % 2 for em, bm in self.terms
        }
        if lengths == {0}:
            return "even"
        if lengths == {1}:
            return "odd"
        return "mixed"

    # -- derivations -------------------------------------------------------

    def dx1(self) -> "SuperField":
        return SuperField(self.L, {k: p.dx1() for k, p in self.terms.items()})

    def dx2(self) -> "SuperField":
        return SuperField(self.L, {k: p.dx2() for k, p in self.terms.items()})

    def _deta(self, bit: int) -> "SuperField":
        """Left derivative with respect to e3 (bit=1) or e4 (bit=2)."""
        terms: dict[tuple[int, int], PolyFn] = {}
        for (em, bm), p in self.terms.items():
            if not em & bit:
                continue
            below = em & (bit - 1)
            s = -1 if bin(below).count("1") % 2 else 1
            key = (em ^ bit, bm)
            terms[key] = terms.get(key, PolyFn.zero()) + p * s
        return SuperField(self.L, terms)

    def deta3(self) -> "SuperField":
        return self._deta(1)

    def deta4(self) -> "SuperField":
        return self._deta(2)

    def conjugate(self) -> "SuperField":
        """Graded star: fixes x, eta and base generators, reverses products."""
        terms: dict[tuple[int, int], PolyFn] = {}
        for (em, bm), p in self.terms.items():
            s = reversal_sign(self._combined_mask(em, bm))
            terms[(em, bm)] = p.conjugate() * s
        return SuperField(self.L, terms)

    # -- component views --------------------------------------------------

    def eta_component(self, em: int) -> dict[int, PolyFn]:
        return {bm: p for (e, bm), p in self.terms.items() if e == em}

    def body_map(self) -> dict[int, PolyFn]:
        """Restriction along the underlying even manifold (eta -> 0)."""
        return self.eta_component(ETA_NONE)

    def theta_components(self) -> tuple["BaseValuedFn", "BaseValuedFn", "BaseValuedFn", "BaseValuedFn"]:
        """Decompose as f + theta g + theta_bar h + theta theta_bar k."""
        c0 = BaseValuedFn(self.L, self.eta_component(ETA_NONE))
        c3 = BaseValuedFn(self.L, self.eta_component(ETA_3))
        c4 = BaseValuedFn(self.L, self.eta_component(ETA_4))
        c34 = BaseValuedFn(self.L, self.eta_component(ETA_34))
        f = c0
        g = (c3 + c4 * (-1j)) * 0.5
        h = (c3 + c4 * 1j) * 0.5
        k = c34 * (0.5j)   # theta theta_bar = -2i e3 e4
        return f, g, h, k

    def berezin_top(self) -> dict[int, PolyFn]:
        """Coefficient of theta theta_bar (the rescaled e3 e4 coefficient)."""
        return ((BaseValuedFn(self.L, self.eta_component(ETA_34))) * (0.5j)).parts

    def evaluate(self, x1: float, x2: float) -> GrassmannElement:
        """Collapse to a Grassmann number over generators (e3, e4, l1..lL)."""
        terms: dict[int, complex] = {}
        for (em, bm), p in self.terms.items():
            mask = em | (bm << 2)
            v = p.evaluate(x1, x2)
            if v != 0:
                terms[mask] = terms.get(mask, 0) + v
        return GrassmannElement(self.L + 2, terms)

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (em, bm) in sorted(self.terms, key=lambda k: (k[0], k[1])):
            p = self.terms[(em, bm)]
            for (i, j) in sorted(p.coeffs):
                factors = [format_complex(p.coeffs[(i, j)])]
                mono = []
                if i:
                    mono.append(f"x1^{i}")
                if j:
                    mono.append(f"x2^{j}")
                if mono:
                    factors.append(" ".join(mono))
                etas = []
                if em & 1:
                    etas.append("e3")
                if em & 2:
                    etas.append("e4")
                if etas:
                    factors.append(" ".join(etas))
                gens = [f"l{i + 1}" for i in range(self.L) if bm & (1 << i)]
                if gens:
                    factors.append(" ".join(gens))
                parts.append(" * ".join(factors))
        return " + ".join(parts)

    @classmethod
    def from_text(cls, L: int, text: str, degree_cap: int = DEFAULT_DEGREE_CAP) -> "SuperField":
        """Parse the literal format ``coeff * x1^a x2^b * e3 e4 * l1 ...``."""
        text = text.strip()
        out = cls.zero(L)
        if text in ("0", ""):
            return out
        for chunk in split_sum(text):
            coeff = 1.0 + 0j
            poly = PolyFn.const(1.0)
            em = 0
            bm_indices: list[int] = []
            saw_coeff = False
            for factor in (f.strip() for f in chunk.split("*")):
                if not factor:
                    continue
                tokens = factor.split()
                if not saw_coeff and not any(
                    t.startswith(("x", "e", "l")) for t in tokens
                ):
                    coeff = parse_complex(factor)
                    saw_coeff = True
                    continue
                for tok in tokens:
                    if tok.startswith("x1"):
                        exp = int(tok[3:]) if "^" in tok else 1
                        poly = poly * PolyFn.x1() ** exp
                    elif tok.startswith("x2"):
                        exp = int(tok[3:]) if "^" in tok else 1
                        poly = poly * PolyFn.x2() ** exp
                    elif tok == "e3":
                        em |= 1
                    elif tok == "e4":
                        em |= 2
                    elif tok.startswith("l"):
                        bm_indices.append(int(tok[1:]))
                    else:
                        raise ValueError(f"bad token {tok!r} in superfield literal")
            term = cls(L, {(em, 0): poly * coeff})
            for i in bm_indices:
                term = term * cls.base_generator(L, i)
            out = out + term
        if out.degree_cap is None:
            max_deg = max((p.degree() for p in out.terms.values()), default=0)
            if max_deg > degree_cap:
                raise ValueError(f"degree {max_deg} exceeds cap {degree_cap}")
        return out

    def __repr__(self):
        return f"SuperField(L={self.L}, {self.to_text()})"


class BaseValuedFn:
    """A base-Grassmann-valued coefficient function: base mask -> PolyFn."""

    __slots__ = ("L", "parts")

    def __init__(self, L: int, parts: dict[int, PolyFn] | None = None):
        self.L = L
        self.parts = {m: p for m, p in (parts or {}).items() if p}

    def __add__(self, other):
        parts = dict(self.parts)
        for m, p in other.parts.items():
            q = parts.get(m, PolyFn.zero()) + p
            if q:
                parts[m] = q
            elif m in parts:
                del parts[m]
        return BaseValuedFn(self.L, parts)

    def __mul__(self, scalar):
        return BaseValuedFn(self.L, {m: p * scalar for m, p in self.parts.items()})

    def dzbar(self) -> "BaseValuedFn":
        return BaseValuedFn(self.L, {m: p.dzbar() for m, p in self.parts.items()})

    def is_zero(self) -> bool:
        return not self.parts

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        return isinstance(other, BaseValuedFn) and self.parts == other.parts


# -- the flat superconformal frames ------------------------------------------


def apply_D3(field: SuperField) -> SuperField:
    """D3 = d/de3 + e3 d/dx1 + e4 d/dx2."""
    L = field.L
    return (
        field.deta3()
        + SuperField.eta(L, 3) * field.dx1()
        + SuperField.eta(L, 4) * field.dx2()
    )


def apply_D4(field: SuperField) -> SuperField:
    """D4 = d/de4 + e3 d/dx2 - e4 d/dx1."""
    L = field.L
    return (
        field.deta4()
        + SuperField.eta(L, 3) * field.dx2()
        - SuperField.eta(L, 4) * field.dx1()
    )


def apply_D(field: SuperField) -> SuperField:
    """D = (D3 - i D4) / 2 = d/dtheta + theta d/dz."""
    return (apply_D3(field) + apply_D4(field) * (-1j)) * 0.5


def apply_Dbar(field: SuperField) -> SuperField:
    """Dbar = (D3 + i D4) / 2 = d/dtheta_bar + theta_bar d/dzbar."""
    return (apply_D3(field) + apply_D4(field) * 1j) * 0.5


class FlatTargetJ:
    """Constant almost complex structure on R^{2n}: J e_b = sum_c J[b, c] e_c."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError("J must be a square matrix of even size")
        if not np.allclose(m @ m, -np.eye(m.shape[0]), atol=1e-12):
            raise ValueError("J^2 must be -Id")
        self.matrix = m
        self.dim = m.shape[0]


def flat_sjc_residual(components: list[SuperField], J: FlatTargetJ) -> list[SuperField]:
    """Residuals D3(Y^b) + D4(Y^c) J_c^b of the flat-model first-order system."""
    if len(components) != J.dim:
        raise ValueError(f"expected {J.dim} components, got {len(components)}")
    for y in components:
        if y.parity() not in ("even",):
            raise ValueError("map components must be even superfields")
    d3 = [apply_D3(y) for y in components]
    d4 = [apply_D4(y) for y in components]
    out = []
    for b in range(J.dim):
        r = d3[b]
        for c in range(J.dim):
            jcb = J.matrix[c, b]
            if jcb:
                r = r + d4[c] * jcb
        out.append(r)
    return out


def components_from_complex(z_components: list[SuperField]) -> list[SuperField]:
    """Real map components (r^1, s^1, r^2, s^2, ...) from Z^b = r^b + i s^b."""
    out = []
    for zc in z_components:
        zbar = zc.conjugate()
        out.append((zc + zbar) * 0.5)
        out.append((zc - zbar) * (-0.5j))
    return out


def holomorphy_equivalence_check(z_components: list[SuperField]) -> bool:
    """True iff Dbar kills every component iff (h = k = 0, dzbar f = dzbar g = 0).

    Both routes are computed; disagreement raises (it would signal an
    implementation fault, not bad input).
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
    if via_dbar != via_expansion:
        raise AssertionError(
            "holomorphy routes disagree: Dbar test %s, expansion test %s"
            % (via_dbar, via_expansion)
        )
    return via_dbar


def berezin_top(field: SuperField) -> dict[int, PolyFn]:
    return field.berezin_top()
