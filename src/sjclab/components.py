"""Component-field form of the first-order operator on the periodic patch.

Implements the antiholomorphic projector (1 + I (x) J)/2, the endomorphism
built from the derivative of J, the cubic curvature contraction, the
twisted Dirac operator, the four residual fields whose joint vanishing
characterizes solutions, the component fields of the operator itself,
and the finite-difference validation of the linearization blocks.  Every
grid derivative goes through :meth:`ReducedPatch.grad`, and the residual
and the operator share one copy of each term they have in common.

The operators (``twisted_dirac``, ``d_phi_operator``,
``operator_components``, ``analytic_linearization_blocks``) take an
evaluated base: the chart tensors along phi from :func:`model_grids` and
dphi from :func:`dphi_frame`, computed once by the caller for each
distinct phi.

Every field is packed (:mod:`sjclab.fields`): the kernels run on the live
mask blocks only, and products know their live masks from the mask
algebra.  Spinor-index conventions follow
:mod:`sjclab.spin`.  The pairings written with a spinor-index lowering use
eps (eps_{34} = +1); the metric dual on form indices is trivial in
orthonormal frames.  These two reconstructions are each isolated in one
helper (``vee_q_pairing``, ``q_norm_squared``) and validated through the
linearization and conformal-covariance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .fields import ComponentMap, FieldError, Gravitino, GridField, gcontract, max_abs
from .patch import ReducedPatch
from .spin import (
    EPS_GAMMA_MAP,
    EPS_LOWER_MAP,
    EPS_LOWER_PAIRING,
    EPS_UPPER_MAP,
    GAMMA_I_MAP,
    GAMMA_MAP,
    ISPIN_MAP,
    delta_gamma,
    project_q,
)
from .targets import AlmostKahlerModel


class PreconditionError(ValueError):
    pass


# Largest residual of a linearization base point that still counts as holomorphic.
PRECONDITION_TOL = 1e-8


# -- basic geometric data along the map ---------------------------------------


def model_grids(model: AlmostKahlerModel, cmap: ComponentMap, patch: ReducedPatch):
    """Chart tensors along the body of phi, each evaluated once on the grid.

    Position-dependent models require phi to have no nilpotent (soul)
    corrections; constant-chart models accept any even phi.
    """
    dim = model.dim
    if cmap.dim != dim:
        raise FieldError(f"map has {cmap.dim} target components, model needs {dim}")
    phi = cmap.phi_periodic
    souls = phi.blocks[1:] if phi.masks[:1] == (0,) else phi.blocks
    if not model.constant_chart and np.abs(souls).max(initial=0.0) > 0:
        raise FieldError("position-dependent chart tensors need a soul-free phi")
    body = cmap.phi_body(patch.x1, patch.x2)
    return tuple(at(body) for at in (model.J_at, model.christoffel_at, model.nablaJ_at, model.curvature_op_at))


def dphi_frame(cmap: ComponentMap, patch: ReducedPatch) -> GridField:
    """Frame derivative of phi: blocks (M, M, 2, dim), index order (k, b); mask 0 is live."""
    d = cmap.phi_periodic.map(patch.grad)
    if d.masks[:1] != (0,):
        d = d.grow((0,) + d.masks)
    d.blocks[0, :, :, 0, :] += cmap.phi_linear[:, 0]
    d.blocks[0, :, :, 1, :] += cmap.phi_linear[:, 1]
    d.blocks *= patch.frame_factor()[None, :, :, None, None]
    return d


def antiholomorphic_part(T: GridField, J: np.ndarray) -> GridField:
    """(1/2)(1 + I (x) J) on a one-form- or spinor-valued field T[..., a, b].

    I is the same matrix [[0, 1], [-1, 0]] on frame and on spinor indices.
    """
    return T.map(lambda t: 0.5 * (t + np.einsum("sxyac,xycd->sxyad", ISPIN_MAP.apply(t, -2), J)))


def j_endomorphism(psi: GridField, nablaJ: np.ndarray) -> GridField:
    """j_mu = contraction of psi_mu with the derivative of J.

    Returns blocks (M, M, 2, dim, dim): for each spinor index an odd
    endomorphism of the pulled-back tangent space.
    """
    return psi.map(lambda p: np.einsum("sxyma,xyabc->sxymbc", p, nablaJ))


def sr_contraction(psi: GridField, Rop: np.ndarray, L: int) -> GridField:
    """Cubic curvature contraction SR(psi)_alpha = eps^{kl} R(psi_alpha, psi_k) psi_l.

    eps (entries 0, +-1) folds exactly into the third factor.  The body-valued
    Rop is contracted once, after the Grassmann products, so coefficients
    that cancel in the odd cubic Z cancel exactly.  Z keeps the spinor index
    n of eps^{no}: the final sum then runs term by term in the order of the
    full triple product eps^{no} psi psi psi Rop, and rounds as it does.
    """
    pair = gcontract(psi, psi, "xyma,xynb->xymanb", L)  # blocks (M,M,2,dim,2,dim)
    Z = gcontract(pair, psi.map(EPS_UPPER_MAP.apply, -2), "xymanb,xync->xymanbc", L)
    return Z.map(lambda z: np.einsum("sxymanbc,xyabce->sxyme", z, Rop))


def _gamma_dphi(Gamma: np.ndarray, dphi: GridField) -> GridField:
    """The connection endomorphisms Gamma(dphi_k, .) of the pullback bundle."""
    return dphi.map(lambda d: np.einsum("xyecd,sxykc->sxyked", Gamma, d))


def twisted_dirac(psi: GridField, patch: ReducedPatch, grids, dphi: GridField, L: int) -> GridField:
    """Twisted Dirac operator on the spinor-valued field psi at the base (grids, dphi).

    (D psi)_beta = (1/2) omega_k (gamma^k I)[beta, alpha] psi_alpha
                   - gamma^k[beta, alpha] nabla_k psi_alpha
    with the pullback connection nabla_k psi = f_k psi + Gamma(dphi_k, psi).
    """
    _, Gamma, _, _ = grids
    nabla = psi.map(patch.grad)  # blocks (M, M, k, alpha, dim)
    nabla.blocks *= patch.frame_factor()[None, :, :, None, None, None]
    if np.abs(Gamma).max() > 0:
        conn = _gamma_dphi(Gamma, dphi)
        nabla = nabla + gcontract(conn, psi, "xyked,xyad->xykae", L)
    omega = patch.spin_connection()
    out = nabla.map(GAMMA_MAP.apply, -3)
    np.negative(out.blocks, out=out.blocks)
    if np.abs(omega).max() > 0:
        # omega_k psi_a, then (gamma^k I)[b, a] summed over (k, a)
        opsi = psi.map(lambda p: omega[None, :, :, :, None, None] * p[:, :, :, None])
        out = out + 0.5 * opsi.map(GAMMA_I_MAP.apply, -3)
    return out


def vee_q_pairing(qchi: GridField, oneform: GridField, L: int) -> GridField:
    """<vee Q chi, T> for a one-form-valued T: spinor-valued output.

    The form slot is dualized with the (orthonormal-frame) metric and
    contracted against T's form slot; the free spinor index is lowered
    with eps.
    """
    paired = gcontract(qchi, oneform, "xykc,xykb->xycb", L)  # sum over k
    return paired.map(EPS_LOWER_MAP.apply, -2)


def q_norm_squared(qchi: GridField, L: int) -> GridField:
    """|Q chi|^2 with the eps pairing on spinor indices, g on form indices."""
    sq = gcontract(qchi, qchi, "xykc,xykt->xyct", L)
    return sq.map(EPS_LOWER_PAIRING.apply, -2)


def gravitino_psi_pairing(chi_part: GridField, psi: GridField, L: int) -> GridField:
    """<chi, psi>_k = chi_k^kappa psi_kappa: one-form-valued."""
    return gcontract(chi_part, psi, "xykc,xycb->xykb", L)


def delta_gamma_tensor_F(chi: GridField, F: GridField, L: int) -> GridField:
    """delta_gamma(chi) (x) F with the spinor index lowered by eps."""
    lowered = chi.map(lambda c: EPS_LOWER_MAP.apply(delta_gamma(c), -1))
    return gcontract(lowered, F, "xya,xyb->xyab", L)


def j_trace_block3(jend: GridField, psi: GridField, J: np.ndarray, L: int) -> GridField:
    """(1/4) Tr(gamma (x) jJ) psi: one-form-valued correction in block 3."""
    jJ = jend.map(lambda j: np.einsum("sxymbc,xycd->sxymbd", j, J))
    t = gcontract(jJ, psi, "xymbc,xyab->xymac", L)
    return 0.25 * t.map(EPS_GAMMA_MAP.apply, -3)


@dataclass
class Residuals:
    """The four residual fields; all vanish exactly on solutions."""

    chirality: GridField       # (1 + I (x) J) psi
    auxiliary: GridField       # F
    cauchy_riemann: GridField  # dbar phi + <Q chi, psi> + j-term
    dirac: GridField           # D psi - 2 <vee Q chi, dphi> + |Q chi|^2 psi - SR/3

    def blocks(self) -> dict[str, GridField]:
        return dict(vars(self))  # the fields in declaration order

    def max_norms(self) -> dict[str, float]:
        return {k: max_abs(v) for k, v in self.blocks().items()}

    def max_norm(self) -> float:
        return max(self.max_norms().values())


def _dirac_terms(cmap, qchi, patch, grids, dphi) -> GridField:
    """D psi - 2 <vee Q chi, dphi> + |Q chi|^2 psi, shared by residual and operator."""
    L = cmap.L
    out = twisted_dirac(cmap.psi, patch, grids, dphi, L)
    out = out - 2.0 * vee_q_pairing(qchi, dphi, L)
    nq = q_norm_squared(qchi, L)
    return out + gcontract(nq, cmap.psi, "xy,xyab->xyab", L)


def residual_components(
    cmap: ComponentMap,
    grav: Gravitino,
    patch: ReducedPatch,
    model: AlmostKahlerModel,
) -> Residuals:
    """The four component equations of the first-order system.

    Exact solutions give residuals at roundoff only for a smooth conformal
    factor, which a ``--tol`` verdict assumes: with a factor that is only C²
    the spectral residual converges only as M^-3 (1.2e-4 at M = 32).
    """
    if cmap.M != patch.M or grav.M != patch.M:
        raise FieldError("grid size mismatch")
    L = cmap.L
    J, _, nablaJ, Rop = grids = model_grids(model, cmap, patch)

    # block 1: chirality constraint
    r1 = 2.0 * antiholomorphic_part(cmap.psi, J)

    # block 2: auxiliary field
    r2 = cmap.F

    # block 3: perturbed Cauchy-Riemann equation
    dphi = dphi_frame(cmap, patch)
    dbar_phi = antiholomorphic_part(dphi, J)
    qchi = grav.chi.map(project_q)
    r3 = dbar_phi + gravitino_psi_pairing(qchi, cmap.psi, L)
    if np.abs(nablaJ).max() > 0:
        jend = j_endomorphism(cmap.psi, nablaJ)
        r3 = r3 + j_trace_block3(jend, cmap.psi, J, L)

    # block 4: Dirac-type equation
    r4 = _dirac_terms(cmap, qchi, patch, grids, dphi)
    if np.abs(Rop).max() > 0:
        r4 = r4 - sr_contraction(cmap.psi, Rop, L) / 3.0

    return Residuals(chirality=r1, auxiliary=r2, cauchy_riemann=r3, dirac=r4)


def operator_components(
    cmap: ComponentMap, grav: Gravitino, patch: ReducedPatch, grids, dphi: GridField
) -> tuple[GridField, GridField, GridField, GridField]:
    """Component fields (c1, c2, c3, c4) of the first-order operator itself.

    ``grids`` and ``dphi`` are the base evaluated at cmap's phi.  They carry
    the normalization whose linearization at a holomorphic map has the block
    form (zeta^{0,1}, sigma/4, -D_phi xi, -Dhat zeta + ...).  Restricted to
    Kahler models, where the J-derivative terms vanish.
    """
    J, _, nablaJ, Rop = grids
    if np.abs(nablaJ).max() > 0:
        raise PreconditionError("operator components are implemented for Kahler models only")
    L = cmap.L

    c1 = antiholomorphic_part(cmap.psi, J)
    c2 = 0.25 * cmap.F

    pairing = gravitino_psi_pairing(grav.chi, cmap.psi, L)
    c3 = -antiholomorphic_part(dphi + pairing, J)

    inner = _dirac_terms(cmap, grav.chi.map(project_q), patch, grids, dphi)
    inner = inner + delta_gamma_tensor_F(grav.chi, cmap.F, L)
    if np.abs(Rop).max() > 0:
        inner = inner - sr_contraction(cmap.psi, Rop, L) / 6.0
    c4 = -antiholomorphic_part(inner, J)
    return c1, c2, c3, c4


# -- linearization -------------------------------------------------------------


@dataclass
class Directions:
    """Tangent directions (rho, xi, zeta, sigma) at (phi, 0, 0) with chi = 0."""

    rho: GridField | None = None    # gravitino direction (odd)
    xi: GridField | None = None     # even map direction
    zeta: GridField | None = None   # odd spinor direction
    sigma: GridField | None = None  # even auxiliary direction


def d_phi_operator(xi: GridField, patch: ReducedPatch, grids, dphi: GridField, L: int) -> GridField:
    """Linearized Cauchy-Riemann operator at the base (grids, dphi) applied to xi."""
    J, Gamma, nablaJ, _ = grids
    dxi = xi.map(patch.grad)
    dxi.blocks *= patch.frame_factor()[None, :, :, None, None]
    if np.abs(Gamma).max() > 0:
        conn = _gamma_dphi(Gamma, dphi)
        dxi = dxi + gcontract(conn, xi, "xyked,xyd->xyke", L)
    if np.abs(nablaJ).max() > 0:
        jxi = gcontract(
            xi.map(lambda x: np.einsum("xyabc,sxya->sxybc", nablaJ, x)), dphi, "xybc,xykc->xykb", L
        )
        dxi = dxi - 0.5 * jxi.map(lambda j: np.einsum("sxykb,xybc->sxykc", j, J))
    return antiholomorphic_part(dxi, J)


def analytic_linearization_blocks(
    dirs: Directions, patch: ReducedPatch, grids, dphi: GridField, L: int
) -> tuple[GridField, GridField, GridField, GridField]:
    """Expected derivative blocks (zeta^{0,1}, sigma/4, -D_phi xi, -Dhat zeta + rho term) at the base."""
    J, _, nablaJ, _ = grids
    if np.abs(nablaJ).max() > 0:
        raise PreconditionError("analytic blocks implemented for Kahler models")
    M, dim = patch.M, J.shape[-1]
    b1 = b3 = b4 = GridField.zero((M, M, 2, dim))
    b2 = GridField.zero((M, M, dim))
    if dirs.zeta is not None:
        b1 = antiholomorphic_part(dirs.zeta, J)
        dz = twisted_dirac(dirs.zeta, patch, grids, dphi, L)
        b4 = b4 - antiholomorphic_part(dz, J)
    if dirs.sigma is not None:
        b2 = 0.25 * dirs.sigma
    if dirs.xi is not None:
        b3 = -d_phi_operator(dirs.xi, patch, grids, dphi, L)
    if dirs.rho is not None:
        b4 = b4 + 2.0 * vee_q_pairing(dirs.rho.map(project_q), dphi, L)
    return b1, b2, b3, b4


def linearization_fd_checks(
    cmap: ComponentMap,
    patch: ReducedPatch,
    model: AlmostKahlerModel,
    named_dirs: dict[str, Directions],
    h: float = 1e-3,
    rel_tol: float = 1e-6,
) -> dict[str, dict]:
    """Central finite differences of the operator components versus the blocks.

    One report per named direction.  The base point must be a holomorphic
    map with vanishing odd and auxiliary data; it is checked once for all
    directions, and its chart tensors and dphi are evaluated once, for the
    analytic blocks and for every point that leaves phi in place.  The step
    is Richardson-halved and both approximations are compared against the
    analytic blocks.
    """
    base = residual_components(cmap, Gravitino.zero(cmap.L, patch.M), patch, model)
    if base.max_norm() > PRECONDITION_TOL:
        raise PreconditionError(
            f"base map is not holomorphic: residual {base.max_norm():.3e}"
        )
    grids, dphi = model_grids(model, cmap, patch), dphi_frame(cmap, patch)
    return {
        name: _fd_report(cmap, patch, model, grids, dphi, dirs, h, rel_tol)
        for name, dirs in named_dirs.items()
    }


def _fd_report(
    cmap: ComponentMap,
    patch: ReducedPatch,
    model: AlmostKahlerModel,
    grids,
    dphi: GridField,
    dirs: Directions,
    h: float,
    rel_tol: float,
) -> dict:
    L = cmap.L
    M = patch.M

    def at(t: float) -> tuple[GridField, ...]:
        moved = {
            name: getattr(cmap, name) + t * d
            for name, d in (("phi_periodic", dirs.xi), ("psi", dirs.zeta), ("F", dirs.sigma))
            if d is not None
        }
        point = replace(cmap, **moved)
        chi = GridField.zero((M, M, 2, 2)) if dirs.rho is None else t * dirs.rho
        # only xi moves phi: every other point keeps the base's chart tensors and dphi
        base = (grids, dphi) if dirs.xi is None else (model_grids(model, point, patch), dphi_frame(point, patch))
        return operator_components(point, Gravitino(L=L, chi=chi), patch, *base)

    def central(step: float) -> tuple[GridField, ...]:
        plus = at(step)
        minus = at(-step)
        return tuple((p - m) / (2.0 * step) for p, m in zip(plus, minus))

    d_h = central(h)
    d_h2 = central(h / 2.0)
    analytic = analytic_linearization_blocks(dirs, patch, grids, dphi, L)
    names = [f.name for f in fields(Residuals)]
    report = {"blocks": {}, "passed": True, "step": h}
    for name, fd_h, fd_h2, ref in zip(names, d_h, d_h2, analytic):
        scale = 1.0 + max_abs(ref)
        err_h = max_abs(fd_h - ref) / scale
        err_h2 = max_abs(fd_h2 - ref) / scale
        richardson = max_abs((4.0 * fd_h2 - fd_h) / 3.0 - ref) / scale
        entry = {
            "rel_error_h": err_h,
            "rel_error_h2": err_h2,
            "richardson_error": richardson,
            "passed": bool(err_h2 <= rel_tol and richardson <= rel_tol),
        }
        report["blocks"][name] = entry
        report["passed"] = report["passed"] and entry["passed"]
    return report
