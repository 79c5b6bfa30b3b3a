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
class BochnerVerdicts:
    D10: str
    D01: str
    threshold: float | None = None
    implies_trivial_class: bool = False
    case: str = ""


def _classify_nonneg_sigma(p: int, sigma: float, emin: float, emax: float) -> BochnerVerdicts:
    """Verdicts at genus ``p`` for a nonnegative curvature ``sigma``."""
    s = normalized_scalar(p)
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


def bochner_classify(genus: int, sigma: float, energy_min: float, energy_max: float) -> BochnerVerdicts:
    """Verdicts for the two chiral halves; ValueError unless genus >= 0 and 0 <= energy_min <= energy_max."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if energy_min < 0 or energy_max < energy_min:
        raise ValueError("energy bounds must satisfy 0 <= min <= max")
    if sigma >= 0:
        return _classify_nonneg_sigma(genus, sigma, energy_min, energy_max)
    v = _classify_nonneg_sigma(genus, -sigma, energy_min, energy_max)
    return BochnerVerdicts(
        D10=v.D01,
        D01=v.D10,
        threshold=v.threshold,
        implies_trivial_class=False,
        case=v.case + " (roles reversed for negative sigma)",
    )


def moduli_dimension(n: int, genus: int, c1A: int) -> tuple[int, int]:
    """Relative dimension (even, odd) of the solution space in a class with first Chern number c1A,
    for a target of complex dimension n >= 1 and a source of genus >= 0."""
    if n < 1 or genus < 0:
        raise ValueError("need n >= 1, genus >= 0")
    return 2 * n * (1 - genus) + 2 * c1A, 2 * c1A
