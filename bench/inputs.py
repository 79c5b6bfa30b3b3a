"""Seeded input files for the benchmark, with verdicts known from construction.

Both file formats are written here, not through ``sjclab.serialize``: the
program only ever receives the bytes, so a change to the program's writers
cannot change what the benchmark feeds it.

* Flat-map literals (``sjc verify-flat``): complex components built as
  ``f(z) + theta g(z)`` are holomorphic by construction; adding a ``zbar``
  power, a ``thetabar`` term or a ``theta thetabar`` term makes them
  non-holomorphic by construction.
* Field bundles (``sjc verify-components``): constant constrained spinors on
  an affine holomorphic (flat) or constant (curved target) map solve the
  component equations; Weyl rescaling maps solutions to solutions on a
  curved conformal factor; each perturbation breaks a named residual block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb

import numpy as np

# Standard complex structure on R^2 in the row convention (J v)^c = v^b J[b, c].
J0 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class Expected:
    """A verdict known from how the input was built.

    ``failing`` lists check names that must fail (exit 1); an empty tuple
    with ``exit_code`` 0 means every check passes.
    """

    exit_code: int
    failing: tuple[str, ...] = ()


PASS = Expected(0)


# -- flat-map literals -------------------------------------------------------


def _x_terms(coeff: complex, a: int, b: int) -> dict[tuple[int, int], complex]:
    """c z^a zbar^b expanded in x1^i x2^j (only a == 0 or b == 0 is used)."""
    out: dict[tuple[int, int], complex] = {}
    power, sign = (a, 1j) if b == 0 else (b, -1j)
    for k in range(power + 1):
        c = coeff * comb(power, k) * sign**k
        if c != 0:
            out[(power - k, k)] = out.get((power - k, k), 0) + c
    return out


def _coeff(rng, kind: str) -> complex:
    if kind == "gauss":
        while True:
            c = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            if c:
                return c
    return complex(rng.standard_normal(), rng.standard_normal())


def _fmt(c: complex) -> str:
    return repr(c.real) if c.imag == 0 else f"({c.real!r}{c.imag:+}j)"


class _Literal:
    """Sum of terms coeff * x1^i x2^j * e3 e4 * l..., keyed by monomials."""

    def __init__(self):
        self.terms: dict[tuple[int, int, int, tuple[int, ...]], complex] = {}

    def add_poly(self, poly: dict[tuple[int, int], complex], eta: int, gens: tuple[int, ...], scale=1.0):
        for (i, j), c in poly.items():
            key = (i, j, eta, gens)
            self.terms[key] = self.terms.get(key, 0) + c * scale

    def text(self) -> str:
        parts = []
        for (i, j, eta, gens), c in sorted(self.terms.items()):
            if c == 0:
                continue
            factors = [_fmt(c)]
            mono = " ".join(f"x{k}^{e}" for k, e in ((1, i), (2, j)) if e)
            if mono:
                factors.append(mono)
            etas = " ".join(name for bit, name in ((1, "e3"), (2, "e4")) if eta & bit)
            if etas:
                factors.append(etas)
            if gens:
                factors.append(" ".join(f"l{g}" for g in gens))
            parts.append(" * ".join(factors))
        return " + ".join(parts) if parts else "0"


def _holomorphic_poly(rng, kind: str, degree: int, constant: bool = True) -> dict:
    poly: dict[tuple[int, int], complex] = {}
    for a in range(0 if constant else 1, degree + 1):
        if a == degree or rng.random() < 0.6:
            for key, c in _x_terms(_coeff(rng, kind), a, 0).items():
                poly[key] = poly.get(key, 0) + c
    return poly


def _base_monomials(L: int, parity: int) -> list[tuple[int, ...]]:
    out = []
    for mask in range(1 << L):
        gens = tuple(g + 1 for g in range(L) if mask >> g & 1)
        if len(gens) % 2 == parity:
            out.append(gens)
    return out


def holomorphic_component(rng, L: int, kind: str, degree: int) -> _Literal:
    """Z = f(z) + theta g(z): f even, g odd over the base algebra."""
    lit = _Literal()
    lit.add_poly(_holomorphic_poly(rng, kind, degree), 0, ())
    even = _base_monomials(L, 0)[1:]
    for gens in even[: int(rng.integers(0, len(even) + 1))]:
        lit.add_poly(_holomorphic_poly(rng, kind, int(rng.integers(0, degree + 1))), 0, gens)
    for gens in _base_monomials(L, 1):
        if rng.random() < 0.7:
            g = _holomorphic_poly(rng, kind, int(rng.integers(0, degree + 1)))
            lit.add_poly(g, 1, gens)  # theta = e3 + i e4
            lit.add_poly(g, 2, gens, scale=1j)
    return lit


def break_holomorphy(rng, lit: _Literal, L: int, kind: str, degree: int) -> None:
    """Add one term that Dbar does not annihilate."""
    how = int(rng.integers(0, 3))
    if how == 0:  # c zbar^k in the body
        lit.add_poly(_x_terms(_coeff(rng, kind), 0, int(rng.integers(1, degree + 1))), 0, ())
    elif how == 1:  # thetabar times an odd base monomial
        gens = _base_monomials(L, 1)[int(rng.integers(0, L))]
        c = {(0, 0): _coeff(rng, kind)}
        lit.add_poly(c, 1, gens)
        lit.add_poly(c, 2, gens, scale=-1j)
    else:  # theta thetabar = -2i e3 e4
        lit.add_poly({(0, 0): _coeff(rng, kind)}, 3, (), scale=-2j)


FLAT_RESIDUAL = "first-order residual vanishes"


def write_flat_map(path, rng, L: int, n: int, kind: str, degree: int, holomorphic: bool) -> Expected:
    comps = [holomorphic_component(rng, L, kind, degree) for _ in range(n)]
    if not holomorphic:
        break_holomorphy(rng, comps[int(rng.integers(0, n))], L, kind, degree)
    payload = {"schema": 1, "L": L, "n": n, "components_z": [c.text() for c in comps]}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return PASS if holomorphic else Expected(1, (FLAT_RESIDUAL,))


# -- field bundles -----------------------------------------------------------

MODELS = {
    "flat": {"kind": "flat", "n": 1},
    "hsc+4": {"kind": "constant-hsc", "n": 1, "sigma": 4.0},
    "hsc-4": {"kind": "constant-hsc", "n": 1, "sigma": -4.0},
    "fs-cp1": {"kind": "fubini-study-CP1", "n": 1},
}

BLOCK_CHECK = "residual block {}"


@dataclass
class Bundle:
    M: int
    L: int
    model: str
    lam: np.ndarray
    phi_linear: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    F: np.ndarray
    chi: np.ndarray
    broken: list[str] = field(default_factory=list)


def _odd_masks(L: int) -> list[int]:
    return [m for m in range(1 << L) if bin(m).count("1") % 2 == 1]


def solution_bundle(rng, model: str, M: int, L: int) -> Bundle:
    """Constant section psi_4 = psi_3 J over a holomorphic or constant map."""
    S, dim = 1 << L, 2
    phi_linear = np.zeros((dim, 2))
    phi = np.zeros((S, M, M, dim), dtype=complex)
    if model == "flat":
        a, b = rng.uniform(-1.5, 1.5, size=2)
        phi_linear[:] = [[a, -b], [b, a]]  # z -> (a + ib) z
    else:
        radius = 0.5 if model == "fs-cp1" else 1.0
        phi[0] = rng.uniform(-radius, radius, size=dim)
    psi = np.zeros((S, M, M, 2, dim), dtype=complex)
    for m in _odd_masks(L):
        if rng.random() < 0.8:
            v = rng.integers(-2, 3, size=dim) + 1j * rng.integers(-2, 3, size=dim)
            psi[m, :, :, 0, :] = v
            psi[m, :, :, 1, :] = v @ J0
    return Bundle(
        M=M, L=L, model=model, lam=np.ones((M, M)), phi_linear=phi_linear, phi=phi, psi=psi,
        F=np.zeros((S, M, M, dim), dtype=complex), chi=np.zeros((S, M, M, 2, 2), dtype=complex),
    )


def weyl_rescale(rng, b: Bundle) -> None:
    """Solutions stay solutions: lambda -> u lambda, psi, chi -> /u, F -> /u^2."""
    xs = np.arange(b.M) / b.M
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    p1, p2 = rng.uniform(0, 2 * np.pi, size=2)
    a1, a2 = rng.uniform(0.02, 0.08, size=2)
    u = np.exp(a1 * np.sin(2 * np.pi * x1 + p1) + a2 * np.cos(2 * np.pi * x2 + p2))
    b.lam = b.lam * u
    b.psi = b.psi / u[None, :, :, None, None]
    b.chi = b.chi / u[None, :, :, None, None]
    b.F = b.F / u[None, :, :, None] ** 2


def perturb(rng, b: Bundle) -> None:
    """Break one named residual block by an O(0.1) change; others may break too."""
    how = int(rng.integers(0, 3))
    xs = np.arange(b.M) / b.M
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    amp = rng.uniform(0.05, 0.2)
    if how == 0:
        b.F[0, :, :, int(rng.integers(0, 2))] += amp * np.cos(2 * np.pi * x1)
        b.broken.append("auxiliary")
    elif how == 1:
        m = _odd_masks(b.L)[int(rng.integers(0, 2))]
        b.psi[m, :, :, 1, :] += amp * (1 + 0.5j)
        b.broken.append("chirality")
    else:
        # a real body wave with dzbar != 0; soul-free, so every chart accepts it
        b.phi[0, :, :, 0] += amp * np.sin(2 * np.pi * x1)
        b.broken.append("cauchy_riemann")


def _record_values(arr: np.ndarray, M: int) -> np.ndarray:
    """(S, M, M, ...) -> (M*M, 2 * S * prod(...)) interleaved real/imag."""
    per_point = np.moveaxis(arr, 0, 2).reshape(M * M, -1)
    out = np.empty((M * M, 2 * per_point.shape[1]))
    out[:, 0::2] = per_point.real
    out[:, 1::2] = per_point.imag
    return out


def write_bundle(path, b: Bundle) -> Expected:
    header = {
        "schema": 1,
        "M": b.M,
        "L": b.L,
        "dim": 2,
        "model": MODELS[b.model],
        "lambda": "flat" if np.all(b.lam == 1.0) else "grid",
        "phi_linear": [list(map(float, row)) for row in b.phi_linear],
    }
    values = np.concatenate(
        [_record_values(a, b.M) for a in (b.phi, b.psi, b.F, b.chi)], axis=1
    ).tolist()
    lam = b.lam.reshape(-1).tolist()
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for p, row in enumerate(values):
            i, j = divmod(p, b.M)
            fh.write(f"{i} {j} {lam[p]!r} " + " ".join(map(repr, row)) + "\n")
    if b.broken:
        return Expected(1, tuple(BLOCK_CHECK.format(name) for name in b.broken))
    return PASS
