"""Curvature-positivity classification of the chiral Dirac halves, and the
moduli dimension calculator.

The classifier encodes the constant-curvature case table: on a genus-p
domain with normalized scalar curvature s in {+2, 0, -2} mapping to a
target of constant holomorphic sectional curvature sigma, the curvature
term controlling the kernel of the chirality-(0,1) half is

    (1/4) s |Psi|^2  -+  (sigma/4) (|n(dphi, Psi)|^2 + |dphi|^2 |Psi|^2),

with the upper sign on the (1,0) half.  Inputs outside the table yield
the verdict "inconclusive"; for sigma < 0 the two operator verdicts swap.
"""

from __future__ import annotations

from dataclasses import dataclass


SCALAR_BY_GENUS = {0: 2.0, 1: 0.0}


def normalized_scalar(p: int) -> float:
    return SCALAR_BY_GENUS.get(p, -2.0)


@dataclass
class BochnerInput:
    genus: int
    sigma: float
    energy_min: float
    energy_max: float

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if self.energy_min < 0 or self.energy_max < self.energy_min:
            raise ValueError("energy bounds must satisfy 0 <= min <= max")


@dataclass
class BochnerVerdicts:
    D10: str
    D01: str
    threshold: float | None = None
    implies_trivial_class: bool = False
    case: str = ""


def _classify_nonneg_sigma(inp: BochnerInput, sigma: float) -> BochnerVerdicts:
    """Verdicts for ``inp`` with the curvature sign made nonnegative: ``sigma`` = |inp.sigma|."""
    p, s = inp.genus, normalized_scalar(inp.genus)
    emin, emax = inp.energy_min, inp.energy_max
    if sigma == 0:
        if p == 0:
            return BochnerVerdicts(
                D10="bijective", D01="bijective", case="flat target, positive scalar"
            )
        return BochnerVerdicts(
            D10="inconclusive", D01="inconclusive", case="flat target, s <= 0"
        )
    if p == 0:
        thr = s / (2.0 * sigma)
        if emax <= thr and emin < thr:
            return BochnerVerdicts(
                D10="bijective",
                D01="injective",
                threshold=thr,
                implies_trivial_class=True,
                case="genus 0, energy below threshold",
            )
        return BochnerVerdicts(
            D10="surjective", D01="injective", threshold=thr, case="genus 0"
        )
    if p == 1:
        if emax > 0:
            return BochnerVerdicts(
                D10="surjective", D01="injective", case="genus 1, nonconstant"
            )
        return BochnerVerdicts(
            D10="inconclusive", D01="inconclusive", case="genus 1, constant map"
        )
    thr = s / (2.0 * sigma)
    if emin >= thr and emax > thr:
        return BochnerVerdicts(
            D10="surjective", D01="injective", threshold=thr, case="genus > 1"
        )
    return BochnerVerdicts(
        D10="inconclusive", D01="inconclusive", threshold=thr, case="genus > 1"
    )


def bochner_classify(inp: BochnerInput) -> BochnerVerdicts:
    """Verdicts for the two chiral halves; total and pure."""
    if inp.sigma >= 0:
        return _classify_nonneg_sigma(inp, inp.sigma)
    v = _classify_nonneg_sigma(inp, -inp.sigma)
    return BochnerVerdicts(
        D10=v.D01,
        D01=v.D10,
        threshold=v.threshold,
        implies_trivial_class=False,
        case=v.case + " (roles reversed for negative sigma)",
    )


@dataclass
class ModuliDimQuery:
    n: int
    genus: int
    c1A: int
    dimX: int = 0

    def __post_init__(self):
        if self.n < 1 or self.genus < 0 or self.dimX < 0:
            raise ValueError("need n >= 1, genus >= 0, dimX >= 0")


@dataclass
class ModuliDimensions:
    relative_even: int
    relative_odd: int
    total_even: int
    total_odd: int

    def as_dict(self) -> dict:
        return {
            "relative_even": self.relative_even,
            "relative_odd": self.relative_odd,
            "total_even": self.total_even,
            "total_odd": self.total_odd,
            "relative": f"{self.relative_even}|{self.relative_odd}",
            "total": f"{self.total_even}|{self.total_odd}",
        }


def moduli_dimension(q: ModuliDimQuery) -> ModuliDimensions:
    """Relative dimension (even|odd) of the solution space, plus the
    gravitino parameters in the odd total."""
    even = 2 * q.n * (1 - q.genus) + 2 * q.c1A
    odd = 2 * q.c1A
    return ModuliDimensions(
        relative_even=even,
        relative_odd=odd,
        total_even=even,
        total_odd=odd + q.dimX,
    )
