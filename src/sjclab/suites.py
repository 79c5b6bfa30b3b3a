"""Batch verification suites behind the command-line interface.

``SUITES`` maps each suite name to its runner, help line and parameters;
the command line is generated from it and ``run`` checks every parameter
against it before any work.  Every runner returns ``(report, csvs)``: a
report dict with ``schema`` 1, a list of checks (each carrying its
tolerance and the kind of evidence backing the expected value:
``identity`` for exact-arithmetic zeros, ``oracle`` for independently
counted/derived values, ``formula`` for closed-form arithmetic,
``spectral`` for singular-value assertions) and a global ``passed`` flag,
and the CSV files to write next to it, by name, as lists of rows.
Reports are deterministic for a fixed seed and config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import classify as clf
from . import components as comp
from . import indexlab as il
from .energy import energy_identity_residual
from .fields import ComponentMap, GridField, even_masks, odd_masks
from .fierz import (
    fierz_check,
    random_admissible_curvature,
    random_admissible_nabla_curvature,
    random_odd_spinor,
)
from .patch import ReducedPatch
from .spin import GAMMA, ISPIN, clifford_deviation, gamma_sandwich_deviation, project_pq_pointwise, delta_gamma
from .superfield import (
    FlatTargetJ,
    SuperField,
    apply_Dbar,
    components_from_complex,
    flat_sjc_residual,
    holomorphy_equivalence_check,
)
from .targets import hsc_curvature_lowered, make_const_hsc, make_flat, make_model, standard_J


def _check(name: str, passed: bool, value, tol, kind: str) -> dict:
    return {
        "name": name,
        "passed": bool(passed),
        "value": value,
        "tol": tol,
        "kind": kind,
    }


def _exact_zero(name: str, deviation: float) -> dict:
    return _check(name, deviation == 0.0, deviation, 0.0, "identity")


def _report(suite: str, config: dict, checks: list[dict]) -> dict:
    from . import __version__

    return {
        "schema": 1,
        "version": __version__,
        "suite": suite,
        "config": config,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


# -- random flat-model data ------------------------------------------------------


def _gauss_int(rng, scale=2) -> complex:
    return complex(int(rng.integers(-scale, scale + 1)), int(rng.integers(-scale, scale + 1)))


_I_POWERS = (1, 1j, -1, -1j)


def _random_poly(rng, L: int, holomorphic: bool, max_deg=2) -> SuperField:
    """Random sum of c z^a zbar^b (Gaussian-integer c), expanded in x1, x2."""
    terms: dict[tuple[int, int, int], complex] = {}
    for a in range(max_deg + 1):
        for b in range(0, (0 if holomorphic else max_deg - a) + 1):
            if a == 0 and b == 0 and rng.random() < 0.5:
                continue
            if rng.random() < 0.6:
                c = _gauss_int(rng)
                # z^a zbar^b = sum_{j,k} C(a,j) C(b,k) i^j (-i)^k x1^(a+b-j-k) x2^(j+k)
                for j in range(a + 1):
                    for k in range(b + 1):
                        key = (0, a + b - j - k, j + k)
                        term = c * math.comb(a, j) * math.comb(b, k) * _I_POWERS[(j - k) % 4]
                        terms[key] = terms.get(key, 0) + term
    return SuperField(L, terms)


def _random_odd_fn(rng, L: int, holomorphic: bool) -> SuperField:
    out = SuperField.zero(L)
    for gen in range(1, L + 1):
        if rng.random() < 0.7:
            out = out + SuperField.base_generator(L, gen) * _random_poly(rng, L, holomorphic, max_deg=1)
    return out


def _residual_vanishes(ys: list[SuperField], J: FlatTargetJ) -> bool:
    return all(r.is_zero() for r in flat_sjc_residual(ys, J))


def random_flat_z_component(rng, L: int, holomorphic: bool) -> SuperField:
    f = _random_poly(rng, L, holomorphic)
    g = _random_odd_fn(rng, L, holomorphic)
    z = f + SuperField.theta(L) * g
    if not holomorphic:
        h = _random_odd_fn(rng, L, False)
        k = _random_poly(rng, L, False, max_deg=1)
        z = z + SuperField.theta_bar(L) * h + SuperField.theta(L) * SuperField.theta_bar(L) * k
        if apply_Dbar(z).is_zero():
            # force a violation so the negative branch is genuinely negative
            z = z + SuperField.theta_bar(L) * SuperField.base_generator(L, 1)
    return z


FLAT_L = 2  # odd base generators of the random flat-model superfields


def suite_flat(seed: int, trials: int) -> tuple[dict, dict]:
    rng = np.random.default_rng(seed)
    L = FLAT_L
    checks = []
    J = FlatTargetJ(standard_J(1))

    const = [SuperField.const(L, 1.0), SuperField.const(L, -2.0)]
    checks.append(_check("constant map residual", _residual_vanishes(const, J), 0.0, 0.0, "identity"))
    hol = components_from_complex([SuperField.coordinate_z(L)])
    ok = _residual_vanishes(hol, J)
    checks.append(_check("holomorphic coordinate map residual", ok, 0.0, 0.0, "identity"))
    anti = [SuperField.coordinate_x1(L), -SuperField.coordinate_x2(L)]
    ok = not _residual_vanishes(anti, J)
    checks.append(_check("antiholomorphic map fails", ok, 1.0, 0.0, "identity"))

    agreements = 0
    for t in range(trials):
        holo = t % 2 == 0
        z = random_flat_z_component(rng, L, holo)
        res_zero = _residual_vanishes(components_from_complex([z]), J)
        equiv = holomorphy_equivalence_check([z])
        if res_zero == equiv == holo:
            agreements += 1
    checks.append(
        _check(
            f"residual/holomorphy equivalence on {trials} random superfields",
            agreements == trials,
            agreements,
            0,
            "identity",
        )
    )
    return _report("flat", {"seed": seed, "trials": trials, "L": L}, checks), {}


def suite_identities(seed: int, trials: int, energy_trials: int) -> tuple[dict, dict]:
    rng = np.random.default_rng(seed)
    checks = [
        _exact_zero("Clifford relation", clifford_deviation()),
        _exact_zero("two-dimensional gamma sandwich", gamma_sandwich_deviation()),
        _exact_zero("spinor complex structure", float(np.abs(GAMMA[0] @ GAMMA[1] - ISPIN).max())),
    ]

    chi = rng.standard_normal((5, 2, 2))
    p, q = project_pq_pointwise(chi)
    dev = max(
        float(np.abs(p + q - chi).max()),
        float(np.abs(project_pq_pointwise(p)[0] - p).max()),
        float(np.abs(project_pq_pointwise(q)[1] - q).max()),
        float(np.abs(project_pq_pointwise(q)[0]).max()),
        float(np.abs(delta_gamma(q)).max()),
    )
    checks.append(_check("gravitino projector identities", dev <= 1e-14, dev, 1e-14, "identity"))

    worst = 0.0
    derivative_worst = 0.0
    for t in range(trials):
        dim = 4 if t % 5 == 4 else 2
        if t % 7 == 0:
            R = hsc_curvature_lowered(4.0, np.eye(dim), standard_J(dim // 2))
        else:
            R = random_admissible_curvature(rng, dim)
        psi = random_odd_spinor(rng, L=4, dim=dim)
        dR = random_admissible_nabla_curvature(rng, dim)
        rep = fierz_check(R, psi, nablaR=dR)
        worst = max(worst, rep["chain_a"], rep["chain_b"])
        derivative_worst = max(
            derivative_worst, rep["chain_a_derivative"], rep["chain_b_derivative"]
        )
    checks.append(_exact_zero(f"cubic curvature identity chains ({trials} tensors)", worst))
    checks.append(
        _exact_zero(f"derivative-tensor identity chains ({trials} tensors)", derivative_worst)
    )

    n_targets = [1, 2]
    energy_ok = True
    for t in range(energy_trials):
        n = n_targets[t % 2]
        J = FlatTargetJ(standard_J(n))
        comps = []
        for _ in range(n):
            comps.append(random_flat_z_component(rng, 2, holomorphic=bool(rng.random() < 0.3)))
        ys = components_from_complex(comps)
        resid = energy_identity_residual(ys, J)
        if not resid.is_zero():
            energy_ok = False
    checks.append(
        _check(
            f"pointwise energy identity ({energy_trials} random maps)",
            energy_ok,
            0.0,
            0.0,
            "identity",
        )
    )
    cfg = {"seed": seed, "trials": trials, "energy_trials": energy_trials}
    return _report("identities", cfg, checks), {}


def _sigma_rows(sv: np.ndarray) -> list[str]:
    # one repr per distinct bit pattern: a torus spectrum repeats each value many times
    bits, which = np.unique(sv.view(np.uint64), return_inverse=True)
    text = [repr(s) for s in bits.view(np.float64).tolist()]
    return ["index,sigma"] + [f"{i},{text[j]}" for i, j in enumerate(which.tolist())]


def suite_index(
    surface: str, degree: int, cutoff: int, target_rank: int, threshold: float
) -> tuple[dict, dict]:
    checks = []
    if surface == "sphere":
        op = il.build_dbar_sphere(degree, cutoff)
        h0, h1 = il.h_oracle(degree)
        rep = il.numeric_index(op, threshold=threshold, formula_index=il.riemann_roch(1, 0, degree))
        checks.append(
            _check(
                f"kernel of dbar on O({degree})",
                rep.kernel_dim == h0 and rep.conclusive,
                rep.kernel_dim,
                threshold,
                "oracle",
            )
        )
        checks.append(
            _check(
                f"cokernel of dbar on O({degree})",
                rep.cokernel_dim == h1,
                rep.cokernel_dim,
                threshold,
                "oracle",
            )
        )
        checks.append(
            _check(
                f"real index of dbar on O({degree})",
                rep.numeric_index_real == il.riemann_roch(1, 0, degree),
                rep.numeric_index_real,
                0,
                "formula",
            )
        )
        if degree >= 1:
            d10 = il.build_dirac10_sphere(degree, cutoff + 2 * degree)
            rep10 = il.numeric_index(
                d10, threshold=threshold, formula_index=il.dirac10_index(2 * degree)
            )
            checks.append(
                _check(
                    f"real index of the holomorphic Dirac half, degree {degree}",
                    rep10.numeric_index_real == 4 * degree,
                    rep10.numeric_index_real,
                    0,
                    "formula",
                )
            )
    else:
        op = il.build_dirac_torus(target_rank, cutoff)
        asa = il.adjoint_deviation(op, op)
        checks.append(_check("torus Dirac anti-self-adjointness", asa <= 1e-12, asa, 1e-12, "identity"))
        rep = il.numeric_index(op, threshold=threshold, formula_index=0)
        checks.append(
            _check(
                "torus Dirac kernel (constant spinors)",
                rep.kernel_dim == 4 * target_rank,
                rep.kernel_dim,
                threshold,
                "oracle",
            )
        )
        checks.append(
            _check("torus Dirac index", rep.numeric_index == 0, rep.numeric_index, 0, "formula")
        )
        d10, d01 = il.torus_chiral_halves(op)
        dev = il.adjoint_deviation(d10, d01)
        checks.append(_check("torus adjoint deviation", dev <= 1e-10, dev, 1e-10, "identity"))
        # a numeric index, kernel - cokernel, is dim domain - dim codomain at any rank: no SVD needed
        total = sum(half.shape[1] - half.shape[0] for half in (d10, d01))
        checks.append(_check("torus index sum", total == 0, total, 0, "identity"))
    csvs = {"singular_values.csv": _sigma_rows(rep.singular_values)}
    cfg = {
        "surface": surface,
        "degree": degree,
        "cutoff": cutoff,
        "target_rank": target_rank,
        "threshold": threshold,
    }
    report = _report("index", cfg, checks)
    report["index_report"] = rep.as_dict()
    return report, csvs


_BOCHNER_TABLE = [
    # (genus, sigma, emin, emax, expected D10, expected D01)
    (0, 4.0, 0.0, 0.125, "bijective", "injective"),
    (0, 4.0, 0.0, 0.5, "surjective", "injective"),
    (0, 0.0, 0.0, 0.3, "bijective", "bijective"),
    (1, 4.0, 0.1, 0.5, "surjective", "injective"),
    (1, 4.0, 0.0, 0.0, "inconclusive", "inconclusive"),
    (2, 4.0, 0.0, 0.5, "surjective", "injective"),
    (0, -4.0, 0.0, 0.125, "injective", "bijective"),
    (0, -4.0, 0.0, 0.5, "injective", "surjective"),
    (1, -4.0, 0.1, 0.5, "injective", "surjective"),
    (2, -4.0, 0.0, 0.5, "injective", "surjective"),
    (1, 0.0, 0.0, 0.3, "inconclusive", "inconclusive"),
    (2, 0.0, 0.0, 0.3, "inconclusive", "inconclusive"),
]


def suite_bochner(cutoff: int, seed: int) -> tuple[dict, dict]:
    rng = np.random.default_rng(seed)
    checks = []
    table_ok = True
    for genus, sigma, emin, emax, exp10, exp01 in _BOCHNER_TABLE:
        v = clf.bochner_classify(
            clf.BochnerInput(genus=genus, sigma=sigma, energy_min=emin, energy_max=emax)
        )
        if (v.D10, v.D01) != (exp10, exp01):
            table_ok = False
    checks.append(_check("constant-curvature case table", table_ok, None, None, "oracle"))

    swap_ok = True
    for _ in range(25):
        genus = int(rng.integers(0, 3))
        sigma = float(rng.choice([-6.0, -4.0, -1.0, 1.0, 4.0, 6.0]))
        emin = float(rng.uniform(0, 0.5))
        emax = emin + float(rng.uniform(0, 0.5))
        a = clf.bochner_classify(clf.BochnerInput(genus, sigma, emin, emax))
        b = clf.bochner_classify(clf.BochnerInput(genus, -sigma, emin, emax))
        if (a.D10, a.D01) != (b.D01, b.D10):
            swap_ok = False
    checks.append(_check("verdict swap under sigma negation", swap_ok, None, None, "identity"))

    gap_sphere = il.numeric_index(il.build_dirac01_sphere(-1, cutoff))
    sigma_sphere = float(gap_sphere.singular_values.min())
    checks.append(
        _check(
            "sphere antiholomorphic-half spectral gap (flat target)",
            sigma_sphere > 0.1 and gap_sphere.kernel_dim == 0,
            sigma_sphere,
            0.1,
            "spectral",
        )
    )
    _, d01 = il.torus_chiral_halves(il.build_dirac_torus(1, 8))
    gap_torus = il.numeric_index(d01)
    sigma_torus = float(gap_torus.singular_values.min())
    checks.append(
        _check(
            "flat torus has zero modes and no gap",
            sigma_torus <= 1e-12 and gap_torus.kernel_dim > 0,
            sigma_torus,
            1e-12,
            "oracle",
        )
    )
    neg = il.numeric_index(il.build_dbar_sphere(3, cutoff))
    sv = neg.singular_values
    nonzero_min = float(sv[sv > 1e-8 * sv.max()].min())
    checks.append(
        _check(
            "positive-degree control: kernel 4, surjective with gap",
            neg.kernel_dim == 4 and neg.cokernel_dim == 0 and nonzero_min > 0.1,
            nonzero_min,
            0.1,
            "spectral",
        )
    )
    csvs = {"singular_values.csv": _sigma_rows(gap_sphere.singular_values)}
    return _report("bochner", {"cutoff": cutoff, "seed": seed}, checks), csvs


def suite_moduli(n: int, genus: int, c1a: int, dimx: int) -> tuple[dict, dict]:
    checks = []
    dims = clf.moduli_dimension(clf.ModuliDimQuery(n=n, genus=genus, c1A=c1a, dimX=dimx))
    checks.append(
        _check(
            "requested dimensions",
            True,
            dims.as_dict()["total"],
            None,
            "formula",
        )
    )
    flat = clf.moduli_dimension(clf.ModuliDimQuery(n=n, genus=0, c1A=0, dimX=0))
    checks.append(
        _check(
            "trivial-class genus-zero dimension 2n|0",
            (flat.relative_even, flat.relative_odd) == (2 * n, 0),
            flat.as_dict()["relative"],
            None,
            "formula",
        )
    )
    proj_ok = True
    for k in range(0, 4):
        c1 = clf.projective_target_c1A(n, k)
        d = clf.moduli_dimension(clf.ModuliDimQuery(n=n, genus=0, c1A=c1, dimX=0))
        if (d.relative_even, d.relative_odd) != (2 * n + 2 * k * (n + 1), 2 * k * (n + 1)):
            proj_ok = False
    checks.append(
        _check("projective-target dimension formula", proj_ok, None, None, "formula")
    )
    euler_ok = True
    for nn in range(1, 4):
        for p in range(0, 3):
            for c1 in range(-3, 4):
                d = clf.moduli_dimension(clf.ModuliDimQuery(n=nn, genus=p, c1A=c1, dimX=0))
                if d.relative_even - d.relative_odd != 2 * nn * (1 - p):
                    euler_ok = False
    checks.append(
        _check("even-minus-odd equals 2n(1-p)", euler_ok, None, None, "identity")
    )
    return _report("moduli", {"n": n, "genus": genus, "c1a": c1a, "dimx": dimx}, checks), {}


def holomorphic_base_map(L: int, M: int, dim: int, slope: complex = 1.0 + 0.5j) -> ComponentMap:
    """Affine holomorphic torus map: first complex component z -> slope z."""
    cmap = ComponentMap.zero(L, M, dim)
    lin = np.zeros((dim, 2))
    lin[0, 0], lin[0, 1] = slope.real, -slope.imag
    lin[1, 0], lin[1, 1] = slope.imag, slope.real
    cmap.phi_linear = lin
    return cmap


def random_direction_fields(rng, L: int, M: int, dim: int):
    """Band-limited periodic direction fields (rho, xi, zeta, sigma): two random modes per block."""

    def trig_field(shape, parity):
        masks = even_masks(L) if parity == "even" else odd_masks(L)
        out = np.zeros((len(masks), M, M) + shape, dtype=complex)
        xs = np.arange(M) / M
        x1, x2 = np.meshgrid(xs, xs, indexing="ij")
        for block in out:
            for _ in range(2):
                k1, k2 = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
                amp = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                wave = np.exp(2j * np.pi * (k1 * x1 + k2 * x2))
                block += wave.reshape((M, M) + (1,) * len(shape)) * amp
        return GridField(tuple(masks), out)

    xi = trig_field((dim,), "even")
    sigma = trig_field((dim,), "even")
    zeta = trig_field((2, dim), "odd")
    rho = trig_field((2, 2), "odd")
    # map directions stay chart-valued: real in every even subset
    xi = xi.map(lambda b: b.real.astype(complex))
    return rho, xi, zeta, sigma


LINEARIZE_REL_TOL = 1e-6
# A linearize run peaks at about 7.3 kB per grid point with the flat model and
# 9.8 kB with constant-hsc (tracemalloc, M = 16..48); a 1 GiB budget at 10 KiB
# per point caps the grid at M = 323, so either model stays under 1 GiB.
LINEARIZE_GRID_LIMIT = math.isqrt((1 << 30) // (10 << 10))


def suite_linearize(grid: int, model: str, seed: int, step: float) -> tuple[dict, dict]:
    rng = np.random.default_rng(seed)
    L = 2
    M, h, rel_tol = grid, step, LINEARIZE_REL_TOL
    target = make_flat(1) if model == "flat" else make_const_hsc(4.0, 1)
    patch = ReducedPatch(M)
    cmap = holomorphic_base_map(L, M, target.dim)
    rho, xi, zeta, sigma = random_direction_fields(rng, L, M, target.dim)
    named_dirs = {
        "xi": comp.Directions(xi=xi),
        "sigma": comp.Directions(sigma=sigma),
        "zeta": comp.Directions(zeta=zeta),
        "rho": comp.Directions(rho=rho),
        "combined": comp.Directions(rho=rho, xi=xi, zeta=zeta, sigma=sigma),
    }
    reports = comp.linearization_fd_checks(cmap, patch, target, named_dirs, h=h, rel_tol=rel_tol)
    checks = []
    for name, rep in reports.items():
        worst = float(np.max([b["rel_error_h2"] for b in rep["blocks"].values()]))  # NaN propagates
        checks.append(_check(f"linearization blocks along {name}", rep["passed"], worst, rel_tol, "oracle"))
    cfg = {"M": M, "model": model, "seed": seed, "h": h, "rel_tol": rel_tol}
    return _report("linearize", cfg, checks), {}


def suite_verify_flat(path: str) -> tuple[dict, dict]:
    from .serialize import read_flat_map

    L, comps = read_flat_map(path)
    J = FlatTargetJ(standard_J(len(comps)))
    res_zero = _residual_vanishes(components_from_complex(comps), J)
    equivalent = holomorphy_equivalence_check(comps)
    checks = [
        _check("first-order residual vanishes", res_zero, None, 0.0, "identity"),
        _check(
            "residual agrees with the holomorphy criterion",
            res_zero == equivalent,
            None,
            0.0,
            "identity",
        ),
    ]
    return _report("verify-flat", {"path": str(path), "L": L, "n": len(comps)}, checks), {}


def _point_max(field: GridField) -> np.ndarray:
    """Largest modulus at each grid point over the live mask blocks and the components; +0.0 if none."""
    return np.abs(field.blocks).max(axis=(0, *range(3, field.blocks.ndim)), initial=0.0)


def suite_verify_components(path: str, tol: float) -> tuple[dict, dict]:
    from .serialize import read_field_bundle

    cmap, grav, patch, model_desc = read_field_bundle(path)
    model = make_model(model_desc, cmap.dim)
    blocks = comp.residual_components(cmap, grav, patch, model).blocks()
    # per grid point, the largest modulus over masks and components of each block:
    # a mask that is not live reads +0.0, so the maxima run over the live ones
    point_max = np.stack([_point_max(block) for block in blocks.values()], axis=-1)
    norms = dict(zip(blocks, point_max.max(axis=(0, 1)).tolist()))
    checks = [
        _check(f"residual block {name}", value <= tol, value, tol, "oracle")
        for name, value in norms.items()
    ]
    rows = ["i,j," + ",".join(blocks)]
    for i, row in enumerate(point_max.tolist()):
        rows.extend(",".join(map(repr, (i, j, *vals))) for j, vals in enumerate(row))
    report = _report("verify-components", {"path": str(path), "tol": tol, "model": model_desc}, checks)
    return report, {"residual_field.csv": rows}


# -- the suite table ---------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One suite parameter: its flag, type, default, allowed values and help.

    A flag without leading dashes is positional and required.  Floats must be
    finite; ``at_least``/``above``/``at_most`` bound the value inclusively,
    strictly and inclusively.
    """

    flag: str
    type: type
    default: object
    help: str
    choices: tuple[str, ...] | None = None
    at_least: float | None = None
    above: float | None = None
    at_most: float | None = None

    @property
    def name(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")

    @property
    def allowed(self) -> str:
        """The allowed range in words; empty when the type alone decides."""
        words = ["finite"] if self.type is float else []
        if self.at_most is not None:
            words.append(f"between {self.at_least} and {self.at_most}")
        elif self.at_least is not None:
            words.append(f">= {self.at_least}")
        elif self.above is not None:
            words.append(f"> {self.above}")
        return " and ".join(words)

    def check(self, value) -> None:
        if self.choices is not None and value not in self.choices:
            raise ValueError(f"{self.flag} must be one of {', '.join(self.choices)}, got {value}")
        ok = (
            (self.type is not float or math.isfinite(value))
            and (self.at_least is None or value >= self.at_least)
            and (self.above is None or value > self.above)
            and (self.at_most is None or value <= self.at_most)
        )
        if not ok:
            raise ValueError(f"{self.flag} must be {self.allowed}, got {value}")


@dataclass(frozen=True)
class Suite:
    runner: Callable[..., tuple[dict, dict]]
    help: str
    params: tuple[Param, ...]


_SEED = Param("--seed", int, 7, "random seed", at_least=0)


SUITES: dict[str, Suite] = {
    "flat": Suite(suite_flat, "flat-model first-order system checks", (
        _SEED,
        Param("--trials", int, 100, "random superfields checked", at_least=1),
    )),
    "identities": Suite(suite_identities, "exact algebraic identity checks", (
        _SEED,
        Param("--trials", int, 50, "random curvature tensors checked", at_least=1),
        Param("--energy-trials", int, 20, "random maps for the energy identity", at_least=1),
    )),
    "index": Suite(suite_index, "kernel/cokernel/index numerics", (
        Param("--surface", str, "sphere", "base surface", choices=("sphere", "torus")),
        Param("--degree", int, 1, "line-bundle degree (sphere)"),
        Param("--cutoff", int, 8, "basis cutoff"),
        Param("--target-rank", int, 1, "complex target rank (torus)", at_least=1),
        Param("--threshold", float, 1e-8, "relative singular-value rank cut", above=0.0),
    )),
    "bochner": Suite(suite_bochner, "curvature-positivity classification and gaps", (
        Param("--cutoff", int, 10, "sphere basis cutoff"),
        _SEED,
    )),
    "moduli": Suite(suite_moduli, "moduli dimension calculator", (
        Param("--n", int, 2, "complex dimension of the target", at_least=1),
        Param("--genus", int, 0, "genus of the source surface", at_least=0),
        Param("--c1a", int, 3, "first Chern class paired with the curve class"),
        Param("--dimx", int, 0, "gravitino parameters added to the odd total", at_least=0),
    )),
    "linearize": Suite(suite_linearize, "finite-difference linearization blocks", (
        Param("--grid", int, 32, "grid points per side", at_least=4, at_most=LINEARIZE_GRID_LIMIT),
        Param("--model", str, "flat", "target model", choices=("flat", "constant-hsc")),
        _SEED,
        Param("--step", float, 1e-3, "finite-difference step", above=0.0),
    )),
    "verify-flat": Suite(suite_verify_flat, "check a superfield literal file", (
        Param("path", str, None, "superfield literal JSON file"),
    )),
    "verify-components": Suite(suite_verify_components, "check a component-field bundle", (
        Param("path", str, None, "field bundle file"),
        Param("--tol", float, 1e-8, "residual tolerance", at_least=0.0),
    )),
}


def run(name: str, params: dict) -> tuple[dict, dict]:
    """Run suite ``name``; parameters left out take their table defaults.

    Every value is checked against its choices and range before any work, and
    a breach raises ValueError naming the flag.
    """
    suite = SUITES[name]
    params = {**{p.name: p.default for p in suite.params}, **params}
    for p in suite.params:
        p.check(params[p.name])
    return suite.runner(**params)
