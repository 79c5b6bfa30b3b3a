from dataclasses import replace

import numpy as np
import pytest

from components_oracle import spinor_holomorphic_part, sr_vector, weyl_covariance_check, weyl_rescale_fields
from fields_oracle import dense, dense_gcontract, gzeros, pack
from input_writers import write_field_bundle
from sjclab import components as C
from sjclab.cli import main
from sjclab.fields import ComponentMap, FieldError, Gravitino, max_abs, odd_masks
from sjclab.patch import ReducedPatch
from sjclab.spin import EPS_LOWER, EPS_UPPER, GAMMA, IFRAME, ISPIN, QMAT, project_q
from sjclab.suites import holomorphic_base_map, random_direction_fields
from sjclab.targets import make_const_hsc, make_flat, make_fs_cp1
from targets_oracle import with_synthetic_nablaJ


def grid_waves(M):
    xs = np.arange(M) / M
    return np.meshgrid(xs, xs, indexing="ij")


def triple_product_sr(psi, Rop, L):
    """Reference SR on a dense psi: the full triple product psi psi psi, then eps and Rop in one einsum."""
    pair = dense_gcontract(psi, psi, "xyma,xynb->xymanb", L)
    tri = dense_gcontract(pair, psi, "xymanb,xyoc->xymanboc", L)
    return np.einsum("sxymanboc,no,xyabce->sxyme", tri, EPS_UPPER, Rop)


def base_at(model, cmap, patch):
    """The evaluated base the operators take: chart tensors and dphi at cmap's phi."""
    return C.model_grids(model, cmap, patch), C.dphi_frame(cmap, patch)


def constrained_constant_psi(L, M, model, rng):
    """Constant dense spinor field with the chirality constraint psi_4 = J psi_3."""
    J0 = model.J_at(np.zeros(model.dim))
    psi = gzeros(L, (M, M, 2, model.dim))
    for m in odd_masks(L):
        v = rng.integers(-2, 3, size=model.dim).astype(complex)
        psi[m, :, :, 0, :] = v
        psi[m, :, :, 1, :] = v @ J0
    return psi


# -- einsum oracle: every constant spin/frame matrix contracted with np.einsum, on dense fields --


def _einsum_antihol_form(T, J):
    rot = np.einsum("kl,sxylb->sxykb", IFRAME, T)
    return 0.5 * (T + np.einsum("sxykb,xybc->sxykc", rot, J))


def _einsum_antihol_spinor(psi, J):
    rot = np.einsum("ab,sxybc->sxyac", ISPIN, psi)
    return 0.5 * (psi + np.einsum("sxyac,xycd->sxyad", rot, J))


def _einsum_q(chi):
    return np.einsum("aibj,sxybj->sxyai", QMAT, chi)


def _einsum_sr(psi, Rop, L):
    pair = dense_gcontract(psi, psi, "xyma,xynb->xymanb", L)
    Z = dense_gcontract(pair, np.einsum("no,sxyoc->sxync", EPS_UPPER, psi), "xymanb,xync->xymanbc", L)
    if not Z.any():
        return np.zeros(psi.shape, dtype=complex)
    return np.einsum("sxymanbc,xyabce->sxyme", Z, Rop)


def per_axis_grad(field, M):
    """(d/dx^1, d/dx^2) on axis 3, each through its own fft2/ifft2 pair.

    The Nyquist wavenumber of an even M differentiates to zero.
    """
    ft = np.fft.fft2(np.asarray(field, dtype=complex), axes=(1, 2))
    k = 2j * np.pi * np.fft.fftfreq(M, d=1.0 / M)
    if M % 2 == 0:
        k[M // 2] = 0.0
    tail = (1,) * (ft.ndim - 3)
    d1 = np.fft.ifft2(ft * k.reshape((M, 1) + tail), axes=(1, 2))
    d2 = np.fft.ifft2(ft * k.reshape((1, M) + tail), axes=(1, 2))
    return np.stack([d1, d2], axis=3)


def _oracle_dphi(cmap, patch):
    d = per_axis_grad(dense(cmap.phi_periodic, cmap.L), patch.M)
    d[0, :, :, 0, :] += cmap.phi_linear[:, 0]
    d[0, :, :, 1, :] += cmap.phi_linear[:, 1]
    return d * patch.frame_factor()[None, :, :, None, None]


def _einsum_dirac(psi, patch, Gamma, dphi, L):
    ff = patch.frame_factor()[None, :, :, None, None, None]
    nabla = per_axis_grad(psi, patch.M) * ff
    if np.abs(Gamma).max() > 0:
        conn = np.einsum("xyecd,sxykc->sxyked", Gamma, dphi)
        nabla = nabla + dense_gcontract(conn, psi, "xyked,xyad->xykae", L)
    gamma_i = np.einsum("kab,bc->kac", GAMMA, ISPIN)
    omega = patch.spin_connection()
    out = -np.einsum("kba,sxykae->sxybe", GAMMA, nabla)
    if np.abs(omega).max() > 0:
        out = out + 0.5 * np.einsum("xyk,kba,sxyae->sxybe", omega, gamma_i, psi)
    return out


def _einsum_dirac_terms(psi, qchi, patch, Gamma, dphi, L):
    out = _einsum_dirac(psi, patch, Gamma, dphi, L)
    paired = dense_gcontract(qchi, dphi, "xykc,xykb->xycb", L)
    out = out - 2.0 * np.einsum("ac,sxycb->sxyab", EPS_LOWER, paired)
    sq = dense_gcontract(qchi, qchi, "xykc,xykt->xyct", L)
    nq = np.einsum("ct,sxyct->sxy", EPS_LOWER, sq)
    return out + dense_gcontract(nq, psi, "xy,xyab->xyab", L)


def einsum_residual_components(cmap, grav, patch, model):
    L = cmap.L
    psi, F, chi = dense(cmap.psi, L), dense(cmap.F, L), dense(grav.chi, L)
    J, Gamma, nablaJ, Rop = C.model_grids(model, cmap, patch)
    r1 = psi + np.einsum("sxyac,xycd->sxyad", np.einsum("ab,sxybc->sxyac", ISPIN, psi), J)
    dphi = _oracle_dphi(cmap, patch)
    qchi = _einsum_q(chi)
    r3 = _einsum_antihol_form(dphi, J) + dense_gcontract(qchi, psi, "xykc,xycb->xykb", L)
    if np.abs(nablaJ).max() > 0:
        jJ = np.einsum("sxymbc,xycd->sxymbd", np.einsum("sxyma,xyabc->sxymbc", psi, nablaJ), J)
        t = dense_gcontract(jJ, psi, "xymbc,xyab->xymac", L)
        r3 = r3 + 0.25 * np.einsum("mn,kna,sxymac->sxykc", EPS_UPPER, GAMMA, t)
    r4 = _einsum_dirac_terms(psi, qchi, patch, Gamma, dphi, L)
    if np.abs(Rop).max() > 0:
        r4 = r4 - _einsum_sr(psi, Rop, L) / 3.0
    return (r1, F, r3, r4)


def einsum_operator_components(cmap, grav, patch, model):
    L = cmap.L
    psi, F, chi = dense(cmap.psi, L), dense(cmap.F, L), dense(grav.chi, L)
    J, Gamma, _, Rop = C.model_grids(model, cmap, patch)
    c1 = _einsum_antihol_spinor(psi, J)
    dphi = _oracle_dphi(cmap, patch)
    pairing = dense_gcontract(chi, psi, "xykc,xycb->xykb", L)
    c3 = -_einsum_antihol_form(dphi + pairing, J)
    inner = _einsum_dirac_terms(psi, _einsum_q(chi), patch, Gamma, dphi, L)
    dg = np.einsum("kct,sxykt->sxyc", GAMMA, chi)
    lowered = np.einsum("ac,sxyc->sxya", EPS_LOWER, dg)
    inner = inner + dense_gcontract(lowered, F, "xya,xyb->xyab", L)
    if np.abs(Rop).max() > 0:
        inner = inner - _einsum_sr(psi, Rop, L) / 6.0
    return (c1, 0.25 * F, c3, -_einsum_antihol_spinor(inner, J))


def generic_fields(rng, L, M, model):
    """Generic complex psi, F, gravitino and (chart-admissible) phi on the patch."""
    rho, xi, zeta, sigma = random_direction_fields(rng, L, M, model.dim)
    cmap = replace(holomorphic_base_map(L, M, model.dim), psi=zeta, F=sigma)
    if model.constant_chart:
        cmap = replace(cmap, phi_periodic=xi)
    else:  # soul-free body near the chart origin
        body = gzeros(L, xi.shape[1:])
        body[0] = 0.1 * xi.blocks[0]
        cmap = replace(cmap, phi_linear=np.zeros_like(cmap.phi_linear), phi_periodic=body)
    return cmap, Gravitino(L=L, chi=rho)


class TestEinsumOracle:
    MODELS = {
        "flat": make_flat(1),
        "constant-hsc": make_const_hsc(4.0, 1),
        "fs-cp1": make_fs_cp1(),
    }

    @staticmethod
    def _patch(M, gauge):
        if gauge == "unit":
            return ReducedPatch(M)
        x1, x2 = grid_waves(M)
        lam = np.exp(0.1 * np.sin(2 * np.pi * x1) + 0.05 * np.cos(2 * np.pi * x2))
        return ReducedPatch(M, lam=lam)

    @pytest.mark.parametrize("gauge", ["unit", "curved"])
    @pytest.mark.parametrize("model_name", list(MODELS))
    @pytest.mark.parametrize("L", [2, 4])
    def test_residual_and_operator_match_einsum(self, L, model_name, gauge):
        rng = np.random.default_rng(40 + L)
        M = 8
        model = self.MODELS[model_name]
        patch = self._patch(M, gauge)
        cmap, grav = generic_fields(rng, L, M, model)
        assert max_abs(grav.chi) > 0
        assert (np.abs(patch.spin_connection()).max() > 0) == (gauge == "curved")
        res = C.residual_components(cmap, grav, patch, model)
        ref = einsum_residual_components(cmap, grav, patch, model)
        for (name, new), old in zip(res.blocks().items(), ref):
            assert np.abs(old).max() > 0, name
            assert np.array_equal(dense(new, L), old), name
        ops = C.operator_components(cmap, grav, patch, *base_at(model, cmap, patch))
        ref = einsum_operator_components(cmap, grav, patch, model)
        for k, (new, old) in enumerate(zip(ops, ref)):
            assert np.abs(old).max() > 0, k
            assert np.array_equal(dense(new, L), old), k

    def test_j_trace_block_matches_einsum(self):
        rng = np.random.default_rng(44)
        L, M = 4, 4
        model = with_synthetic_nablaJ(make_flat(2), rng.standard_normal((4, 4, 4)))
        cmap, grav = generic_fields(rng, L, M, model)
        res = C.residual_components(cmap, grav, ReducedPatch(M), model)
        ref = einsum_residual_components(cmap, grav, ReducedPatch(M), model)
        for new, old in zip(res.blocks().values(), ref):
            assert np.array_equal(dense(new, L), old)
        # the j-term is in play
        assert np.abs(C.model_grids(model, cmap, ReducedPatch(M))[2]).max() > 0


class TestGrad:
    @pytest.mark.parametrize("M", [4, 7, 8, 16])
    @pytest.mark.parametrize("shape", [(3,), (3, 2, 4)], ids=["scalar", "spinor"])
    def test_equals_per_axis_route_bit_for_bit(self, M, shape):
        rng = np.random.default_rng(M)
        dims = (shape[0], M, M) + shape[1:]
        field = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        out = ReducedPatch(M).grad(field)
        assert out.shape == dims[:3] + (2,) + dims[3:]
        assert np.array_equal(out, per_axis_grad(field, M))

    def test_nyquist_mode_of_real_data_differentiates_to_zero(self):
        # cos(8 pi x1) is the Nyquist mode at M = 8: its real interpolant has
        # derivative 0, where keeping the -M/2 wavenumber gives +-25.1j
        patch = ReducedPatch(8)
        out = patch.grad(np.cos(8 * np.pi * patch.x1)[None])
        assert np.abs(out).max() <= 1e-12
        # and real data keeps a real gradient at every even M
        field = np.random.default_rng(5).standard_normal((2, 16, 16))
        assert np.abs(ReducedPatch(16).grad(field).imag).max() <= 1e-13


class TestTwistedDirac:
    def test_constant_spinor_flat(self):
        L, M = 2, 8
        patch = ReducedPatch(M)
        model = make_flat(1)
        cmap = ComponentMap.zero(L, M, 2)
        psi = gzeros(L, (M, M, 2, 2))
        psi[1] = 1.0
        out = C.twisted_dirac(pack(psi), patch, *base_at(model, cmap, patch), L)
        assert max_abs(out) == 0.0

    def test_plane_wave_symbol(self):
        # Fourier symbol oracle: D(e^{2 pi i k x} c) = -2 pi i (k1 g1 + k2 g2) c
        L, M = 1, 32
        patch = ReducedPatch(M)
        model = make_flat(1)
        cmap = ComponentMap.zero(L, M, 2)
        x1, x2 = grid_waves(M)
        rng = np.random.default_rng(0)
        base = base_at(model, cmap, patch)
        for k1, k2 in [(1, 0), (3, -2), (-5, 7)]:
            c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            psi = gzeros(L, (M, M, 2, 2))
            psi[1] = np.exp(2j * np.pi * (k1 * x1 + k2 * x2))[..., None, None] * c
            out = C.twisted_dirac(pack(psi), patch, *base, L)
            symbol = -2j * np.pi * (k1 * GAMMA[0] + k2 * GAMMA[1])
            expected = np.einsum("ba,xyae->xybe", symbol, psi[1])
            assert np.abs(dense(out, L)[1] - expected).max() <= 1e-10

    def test_chirality_commutation_flat_target(self):
        # (1 + I x J) D psi = D (1 - I x J) psi when the J-derivative vanishes
        L, M = 2, 16
        patch = ReducedPatch(M)
        model = make_flat(1)
        cmap = ComponentMap.zero(L, M, 2)
        rng = np.random.default_rng(1)
        _, _, zeta, _ = random_direction_fields(rng, L, M, 2)
        base = base_at(model, cmap, patch)
        J, _, _, _ = base[0]
        lhs = 2 * C.antiholomorphic_part(C.twisted_dirac(zeta, patch, *base, L), J)
        rhs = C.twisted_dirac(2 * spinor_holomorphic_part(zeta, J), patch, *base, L)
        assert max_abs(lhs - rhs) <= 1e-9
        # and with the signs swapped
        lhs2 = 2 * spinor_holomorphic_part(C.twisted_dirac(zeta, patch, *base, L), J)
        rhs2 = C.twisted_dirac(2 * C.antiholomorphic_part(zeta, J), patch, *base, L)
        assert max_abs(lhs2 - rhs2) <= 1e-9

    # a smooth conformal factor, and one that is only C^2 (|sin|^3)
    @pytest.mark.parametrize(
        "log_lam",
        [
            lambda x1, x2: 0.1 * np.sin(2 * np.pi * x1) + 0.07 * np.cos(2 * np.pi * x2),
            lambda x1, x2: 0.1 * np.abs(np.sin(np.pi * x1)) ** 3 + 0.07 * np.abs(np.sin(np.pi * x2)) ** 3,
        ],
        ids=["smooth", "c2"],
    )
    def test_anti_self_adjoint_curved_gauge(self, log_lam):
        L, M = 1, 48
        x1, x2 = grid_waves(M)
        lam = np.exp(log_lam(x1, x2))
        patch = ReducedPatch(M, lam=lam)
        model = make_flat(1)
        cmap = ComponentMap.zero(L, M, 2)
        rng = np.random.default_rng(2)

        def rand_spinor():
            f = gzeros(L, (M, M, 2, 2))
            for kk1 in range(-2, 3):
                for kk2 in range(-2, 3):
                    amp = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                    f[1] += np.exp(2j * np.pi * (kk1 * x1 + kk2 * x2))[..., None, None] * amp
            return f

        psi, Psi = rand_spinor(), rand_spinor()
        w = patch.lam**4 / M**2  # volume weight per grid cell
        base = base_at(model, cmap, patch)

        def pair(a, b):
            return np.sum(a[1] * b[1] * w[..., None, None])

        def dirac(f):
            return dense(C.twisted_dirac(pack(f), patch, *base, L), L)

        val = pair(dirac(psi), Psi) + pair(psi, dirac(Psi))
        scale = abs(pair(psi, psi)) + abs(pair(Psi, Psi))
        assert abs(val) / scale <= 1e-13

    def test_resolution_guard(self):
        with pytest.raises(Exception):
            ReducedPatch(3)


class TestResiduals:
    def test_all_zero_data(self):
        L, M = 2, 8
        res = C.residual_components(
            ComponentMap.zero(L, M, 2), Gravitino.zero(L, M), ReducedPatch(M), make_flat(1)
        )
        assert res.max_norm() == 0.0

    def test_affine_holomorphic_map(self):
        L, M = 2, 32
        cmap = holomorphic_base_map(L, M, 2, slope=1.5 - 0.25j)
        res = C.residual_components(cmap, Gravitino.zero(L, M), ReducedPatch(M), make_flat(1))
        assert res.max_norm() <= 1e-12

    def test_antiholomorphic_map_fails(self):
        L, M = 2, 16
        cmap = ComponentMap.zero(L, M, 2)
        cmap.phi_linear = np.array([[1.0, 0.0], [0.0, -1.0]])
        res = C.residual_components(cmap, Gravitino.zero(L, M), ReducedPatch(M), make_flat(1))
        assert res.max_norms()["cauchy_riemann"] > 0.5

    def test_holomorphic_section_flat_and_curved(self):
        rng = np.random.default_rng(3)
        for model in (make_flat(1), make_const_hsc(4.0, 1)):
            L, M = 4, 8
            cmap = (
                holomorphic_base_map(L, M, 2)
                if model.kind == "flat"
                else ComponentMap.zero(L, M, 2)
            )
            cmap = replace(cmap, psi=constrained_constant_psi(L, M, model, rng))
            res = C.residual_components(cmap, Gravitino.zero(L, M), ReducedPatch(M), model)
            assert res.max_norm() == 0.0, model.kind

    def test_wrong_chirality_detected(self):
        L, M = 2, 8
        model = make_flat(1)
        J0 = model.J_at(np.zeros(2))
        psi = gzeros(L, (M, M, 2, 2))
        v = np.array([1.0, 2.0])
        psi[1, :, :, 0, :] = v
        psi[1, :, :, 1, :] = -(v @ J0)
        cmap = replace(ComponentMap.zero(L, M, 2), psi=psi)
        res = C.residual_components(cmap, Gravitino.zero(L, M), ReducedPatch(M), model)
        assert res.max_norms()["chirality"] > 1.0

    def test_residual_parity(self):
        from sjclab.fields import even_masks

        rng = np.random.default_rng(4)
        L, M = 2, 8
        model = make_flat(1)
        rho, xi, zeta, sigma = random_direction_fields(rng, L, M, 2)
        cmap = replace(holomorphic_base_map(L, M, 2), phi_periodic=xi, psi=zeta, F=sigma)
        res = C.residual_components(cmap, Gravitino(L=L, chi=rho), ReducedPatch(M), model)
        for name, parity in [
            ("chirality", "odd"),
            ("auxiliary", "even"),
            ("cauchy_riemann", "even"),
            ("dirac", "odd"),
        ]:
            block = res.blocks()[name]
            wrong = even_masks(L) if parity == "odd" else odd_masks(L)
            assert block.masks and not set(block.masks) & set(wrong), name

    def test_grid_mismatch_error(self):
        with pytest.raises(FieldError):
            C.residual_components(
                ComponentMap.zero(2, 8, 2), Gravitino.zero(2, 16), ReducedPatch(16), make_flat(1)
            )

    def test_curved_chart_needs_soulless_phi(self):
        L, M = 2, 8
        phi = gzeros(L, (M, M, 2))
        phi[3] = 0.1  # even soul correction
        cmap = replace(ComponentMap.zero(L, M, 2), phi_periodic=phi)
        with pytest.raises(FieldError):
            C.residual_components(cmap, Gravitino.zero(L, M), ReducedPatch(M), make_fs_cp1())

    def test_fubini_study_constant_map_with_section(self):
        # position-dependent chart tensors: constant map based away from the
        # chart origin, with a covariantly constant constrained section
        rng = np.random.default_rng(13)
        L, M = 4, 8
        model = make_fs_cp1()
        phi = gzeros(L, (M, M, 2))
        phi[0, :, :, :] = np.array([0.3, -0.2])
        cmap = replace(ComponentMap.zero(L, M, 2), phi_periodic=phi, psi=constrained_constant_psi(L, M, model, rng))
        res = C.residual_components(cmap, Gravitino.zero(L, M), ReducedPatch(M), model)
        assert res.max_norm() <= 1e-12

    def test_fubini_study_nonconstant_map_cauchy_riemann_block(self):
        # the Cauchy-Riemann block only sees dphi and J, independent of Gamma
        L, M = 2, 16
        model = make_fs_cp1()
        x1, x2 = grid_waves(M)
        phi = gzeros(L, (M, M, 2))
        phi[0, :, :, 0] = 0.1 * np.sin(2 * np.pi * x1)
        phi[0, :, :, 1] = 0.1 * np.cos(2 * np.pi * x2)
        cmap = replace(ComponentMap.zero(L, M, 2), phi_periodic=phi)
        patch = ReducedPatch(M)
        res = C.residual_components(cmap, Gravitino.zero(L, M), patch, model)
        J0 = model.J_at(np.zeros(2))
        dphi = dense(C.dphi_frame(cmap, patch), L)
        expected = 0.5 * (
            dphi
            + np.einsum(
                "kl,sxylb,bc->sxykc",
                np.array([[0.0, 1.0], [-1.0, 0.0]]),
                dphi,
                J0,
            )
        )
        assert np.abs(dense(res.blocks()["cauchy_riemann"], L) - expected).max() <= 1e-12

    def test_grid_sr_matches_exact_engine(self):
        # the grid contraction and the Fierz chains' SR were written
        # independently; they must agree coefficient by coefficient
        from sjclab.fierz import random_admissible_curvature, random_odd_spinor

        rng = np.random.default_rng(21)
        L, M, dim = 4, 4, 2
        psi = random_odd_spinor(rng, L=L, dim=dim)
        R = random_admissible_curvature(rng, dim)
        psi_grid = gzeros(L, (M, M, 2, dim))
        psi_grid[:] = np.moveaxis(psi, -1, 0)[:, None, None]
        Rop = np.broadcast_to(R, (M, M, dim, dim, dim, dim))
        sr_grid = dense(C.sr_contraction(pack(psi_grid), Rop, L), L)
        sr = np.moveaxis(sr_vector(psi, R), -1, 0)[:, None, None]
        assert np.abs(sr).max() > 0.0
        assert np.abs(sr_grid - sr).max() <= 1e-12

    def test_sr_collapse_on_kahler_constraint(self):
        rng = np.random.default_rng(5)
        L, M = 4, 4
        model = make_const_hsc(4.0, 1)
        psi = constrained_constant_psi(L, M, model, rng)
        Rop = np.broadcast_to(model.curvature_op_at(np.zeros(2)), (M, M, 2, 2, 2, 2))
        assert max_abs(C.sr_contraction(pack(psi), Rop, L)) == 0.0
        # unconstrained control is nonzero
        psi2 = psi.copy()
        psi2[1, :, :, 1, :] = np.array([1.0, 3.0])
        psi2[2, :, :, 1, :] = np.array([-2.0, 1.0])
        psi2[4, :, :, 1, :] = np.array([1.0, -1.0])
        assert max_abs(C.sr_contraction(pack(psi2), Rop, L)) > 0.0

    @pytest.mark.parametrize("dim", [2, 4])
    def test_sr_matches_triple_product_on_generic_data(self, dim):
        rng = np.random.default_rng(30 + dim)
        L, M = 4, 4
        psi = gzeros(L, (M, M, 2, dim))
        for m in odd_masks(L):
            psi[m] = rng.standard_normal((M, M, 2, dim)) + 1j * rng.standard_normal((M, M, 2, dim))
        Rop = rng.standard_normal((M, M) + (dim,) * 4)
        ref = triple_product_sr(psi, Rop, L)
        sr = dense(C.sr_contraction(pack(psi), Rop, L), L)
        assert np.abs(ref).max() > 1.0
        assert np.abs(sr - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "model",
        [make_const_hsc(4.0, 1), make_const_hsc(-4.0, 2), make_fs_cp1()],
        ids=["hsc+4", "hsc-4-n2", "fs-cp1"],
    )
    def test_sr_exact_zero_on_constrained_gaussian_spinors(self, model):
        # psi_4 = psi_3 J with Gaussian-integer coefficients: the reference
        # cancels to exactly zero, and so must the curvature-last contraction
        rng = np.random.default_rng(31)
        L, M, dim = 4, 4, model.dim
        J0 = model.J_at(np.zeros(dim))
        for _ in range(5):
            psi = gzeros(L, (M, M, 2, dim))
            for m in odd_masks(L):
                v = rng.integers(-2, 3, size=dim) + 1j * rng.integers(-2, 3, size=dim)
                psi[m, :, :, 0, :] = v
                psi[m, :, :, 1, :] = v @ J0
            Rop = model.curvature_op_at(rng.uniform(-1.0, 1.0, size=(M, M, dim)))
            assert np.all(triple_product_sr(psi, Rop, L) == 0)
            assert np.all(C.sr_contraction(pack(psi), Rop, L).blocks == 0)

    def test_sr_vanishes_below_three_generators(self):
        rng = np.random.default_rng(32)
        L, M = 2, 4
        psi = gzeros(L, (M, M, 2, 2))
        for m in odd_masks(L):
            psi[m] = rng.standard_normal((M, M, 2, 2))
        sr = C.sr_contraction(pack(psi), rng.standard_normal((M, M, 2, 2, 2, 2)), L)
        assert sr.masks == () and sr.shape[1:] == psi.shape[1:]


class TestModelGrids:
    def test_fubini_study_grids_match_pointwise_charts(self):
        L, M = 2, 8
        model = make_fs_cp1()
        patch = ReducedPatch(M)
        x1, x2 = grid_waves(M)
        phi = gzeros(L, (M, M, 2))
        phi[0, :, :, 0] = 0.3 * np.sin(2 * np.pi * x1)
        phi[0, :, :, 1] = 0.2 * np.cos(2 * np.pi * x2) - 0.1
        cmap = replace(ComponentMap.zero(L, M, 2), phi_periodic=phi)
        body = cmap.phi_body(patch.x1, patch.x2)
        grids = C.model_grids(model, cmap, patch)
        evaluators = (model.J_at, model.christoffel_at, model.nablaJ_at, model.curvature_op_at)
        for grid, ev in zip(grids, evaluators):
            pointwise = np.array([[ev(body[i, j]) for j in range(M)] for i in range(M)])
            assert np.array_equal(grid, pointwise)

    def test_constant_chart_grids_broadcast(self):
        L, M = 2, 8
        model = make_const_hsc(-4.0, 2)
        phi = gzeros(L, (M, M, 4))
        phi[3] = 0.5  # a soul is fine for constant charts
        cmap = replace(ComponentMap.zero(L, M, 4), phi_periodic=phi)
        J, Gamma, nablaJ, Rop = C.model_grids(model, cmap, ReducedPatch(M))
        y0 = np.zeros(4)
        assert J.shape == (M, M, 4, 4) and np.array_equal(J[3, 5], model.J_at(y0))
        assert Gamma.shape == (M, M, 4, 4, 4) and not Gamma.any()
        assert nablaJ.shape == (M, M, 4, 4, 4) and not nablaJ.any()
        assert np.array_equal(Rop, np.broadcast_to(model.curvature_op_at(y0), Rop.shape))


class TestChiralReduction:
    def test_holomorphic_half_is_clifford_contraction_of_dbar(self):
        # D^{1,0} zeta = delta_gamma((0,1)-part of nabla zeta) exactly, where
        # the Clifford action on dual spinors carries the dual-action sign;
        # this identification is what reduces the sphere operators to dbar
        rng = np.random.default_rng(20)
        L, M = 2, 16
        model = make_flat(1)
        patch = ReducedPatch(M)
        cmap = ComponentMap.zero(L, M, 2)
        base = base_at(model, cmap, patch)
        J, _, _, _ = base[0]
        _, _, zeta, _ = random_direction_fields(rng, L, M, 2)
        z10 = spinor_holomorphic_part(zeta, J)
        lhs = C.antiholomorphic_part(C.twisted_dirac(z10, patch, *base, L), J)
        dz = patch.grad(dense(z10, L))
        rot = np.einsum("kl,sxylae->sxykae", IFRAME, dz)
        antihol_form = 0.5 * (dz + np.einsum("sxykae,xyef->sxykaf", rot, J))
        rhs = -np.einsum("kba,sxykae->sxybe", GAMMA, antihol_form)
        assert np.abs(dense(lhs, L) - rhs).max() <= 1e-10


class TestGravitinoTerms:
    def test_pairing_antiholomorphic_at_holomorphic_map(self):
        rng = np.random.default_rng(6)
        L, M = 2, 16
        model = make_flat(1)
        patch = ReducedPatch(M)
        cmap = holomorphic_base_map(L, M, 2, slope=1.0 + 0.5j)
        J, _, _, _ = C.model_grids(model, cmap, patch)
        rho, _, _, _ = random_direction_fields(rng, L, M, 2)
        T = C.vee_q_pairing(rho.map(project_q), C.dphi_frame(cmap, patch), L)
        assert max_abs(2 * C.antiholomorphic_part(T, J) - 2 * T) <= 1e-12

    def test_pure_gauge_gravitino_drops_out(self):
        # chi_k = gamma_k s has Q chi = 0, so it cannot move the residual
        rng = np.random.default_rng(7)
        L, M = 2, 16
        model = make_flat(1)
        patch = ReducedPatch(M)
        cmap = holomorphic_base_map(L, M, 2)
        s = gzeros(L, (M, M, 2))
        s[1] = rng.standard_normal((M, M, 2))
        chi = np.einsum("kab,sxyb->sxyka", GAMMA, s)
        res = C.residual_components(cmap, Gravitino(L=L, chi=chi), patch, model)
        assert res.max_norm() <= 1e-12

    def test_q_norm_parity_and_reality(self):
        rng = np.random.default_rng(8)
        L, M = 2, 8
        rho, _, _, _ = random_direction_fields(rng, L, M, 2)
        nq = dense(C.q_norm_squared(rho.map(project_q), L), L)
        assert np.abs(nq[0]).max() == 0.0  # no body: quadratic in odd values
        assert np.abs(nq[1]).max() == 0.0 and np.abs(nq[2]).max() == 0.0


class TestJEndomorphism:
    def test_vanishes_for_kahler_models(self):
        L, M = 2, 8
        for model in (make_flat(2), make_const_hsc(4.0, 2), make_fs_cp1()):
            dim = model.dim
            nablaJ = np.broadcast_to(
                model.nablaJ_at(np.zeros(dim)), (M, M, dim, dim, dim)
            )
            psi = gzeros(L, (M, M, 2, dim))
            psi[1] = 1.0
            jend = C.j_endomorphism(pack(psi), nablaJ)
            assert max_abs(jend) == 0.0

    def test_anticommutes_with_J_synthetic(self):
        # two complex target dimensions: in one, all antisymmetric seeds
        # commute with J and the synthetic derivative collapses to zero
        rng = np.random.default_rng(9)
        L, M, dim = 2, 4, 4
        base = make_flat(2)
        model = with_synthetic_nablaJ(base, rng.standard_normal((dim, dim, dim)))
        J0 = model.J_at(np.zeros(dim))
        nJ0 = model.nablaJ_at(np.zeros(dim))
        assert np.abs(nJ0).max() > 0.1
        nablaJ = np.broadcast_to(nJ0, (M, M, dim, dim, dim))
        psi = gzeros(L, (M, M, 2, dim))
        psi[1] = rng.standard_normal((M, M, 2, dim))
        jend = C.j_endomorphism(pack(psi), nablaJ).blocks
        anti = np.einsum("sxymbc,cd->sxymbd", jend, J0) + np.einsum(
            "bc,sxymcd->sxymbd", J0, jend
        )
        assert np.abs(anti).max() <= 1e-12

    def test_j_terms_regression_values(self):
        # non-Kahler code path: frozen numbers pin the reconstructed
        # contraction order of the trace terms
        L, M, dim = 2, 4, 4
        base = make_flat(2)
        seeds = np.zeros((dim, dim, dim))
        seeds[0][0, 2] = 1.0
        seeds[0][2, 0] = -1.0
        model = with_synthetic_nablaJ(base, seeds)
        nJ0 = model.nablaJ_at(np.zeros(dim))
        assert np.abs(nJ0).max() > 0.0
        psi = gzeros(L, (M, M, 2, dim))
        psi[1, :, :, 0, 0] = 1.0
        psi[2, :, :, 1, 2] = 2.0
        cmap = replace(ComponentMap.zero(L, M, dim), psi=psi)
        res = C.residual_components(cmap, Gravitino.zero(L, M), ReducedPatch(M), model)
        norms = res.max_norms()
        assert norms["chirality"] == pytest.approx(2.0, abs=1e-14)
        assert norms["cauchy_riemann"] == pytest.approx(0.5, abs=1e-14)
        assert norms["auxiliary"] == 0.0
        assert norms["dirac"] == 0.0


class TestWeylCovariance:
    def _data(self, rng, L, M):
        model = make_flat(1)
        rho, xi, zeta, sigma = random_direction_fields(rng, L, M, 2)
        cmap = replace(holomorphic_base_map(L, M, 2), phi_periodic=xi, psi=zeta, F=sigma)
        return cmap, Gravitino(L=L, chi=rho), model

    def test_identity_rescale(self):
        rng = np.random.default_rng(10)
        cmap, grav, model = self._data(rng, 2, 16)
        rep = weyl_covariance_check(cmap, grav, ReducedPatch(16), model, 1.0)
        assert rep["passed"]
        assert all(b["max_deviation"] == 0.0 for b in rep["blocks"].values())

    def test_constant_rescale_exact_weights(self):
        rng = np.random.default_rng(11)
        cmap, grav, model = self._data(rng, 2, 16)
        rep = weyl_covariance_check(cmap, grav, ReducedPatch(16), model, 2.0)
        assert rep["passed"]
        assert [b["frame_weight_exponent"] for b in rep["blocks"].values()] == [-1, -2, -2, -3]
        assert [b["abstract_weight_exponent"] for b in rep["blocks"].values()] == [-1, -2, 0, -3]

    def test_random_rescale_preserves_solutions(self):
        rng = np.random.default_rng(12)
        L, M = 2, 32
        model = make_flat(1)
        sol = replace(holomorphic_base_map(L, M, 2), psi=constrained_constant_psi(L, M, model, rng))
        grav = Gravitino.zero(L, M)
        assert C.residual_components(sol, grav, ReducedPatch(M), model).max_norm() == 0.0
        x1, x2 = grid_waves(M)
        u = np.exp(0.05 * np.sin(2 * np.pi * x1) + 0.03 * np.cos(2 * np.pi * x2))
        sol2, grav2 = weyl_rescale_fields(sol, grav, u)
        res = C.residual_components(sol2, grav2, ReducedPatch(M, lam=u), model)
        assert res.max_norm() <= 1e-12


class TestResidualFieldCsv:
    def test_rows_match_pointwise_maxima(self, tmp_path):
        # a perturbed FS-CP1 bundle: every block is nonzero somewhere
        rng = np.random.default_rng(33)
        L, M = 4, 8
        model = make_fs_cp1()
        x1, x2 = grid_waves(M)
        phi, F = gzeros(L, (M, M, 2)), gzeros(L, (M, M, 2))
        phi[0, :, :, 0] = 0.2 + 0.1 * np.sin(2 * np.pi * x1)
        psi = constrained_constant_psi(L, M, model, rng)
        psi[1, :, :, 1, :] += 0.1 * (1 + 0.5j) * np.cos(2 * np.pi * x2)[..., None]
        F[0, :, :, 1] = 0.1 * np.cos(2 * np.pi * x1)
        cmap = replace(ComponentMap.zero(L, M, 2), phi_periodic=phi, psi=psi, F=F)
        grav = Gravitino.zero(L, M)
        patch = ReducedPatch(M)
        path = tmp_path / "bundle.txt"
        write_field_bundle(path, cmap, grav, patch, {"kind": "fubini-study-CP1", "n": 1})
        assert main(["--out-dir", str(tmp_path), "verify-components", str(path)]) == 1
        rows = (tmp_path / "residual_field.csv").read_text().splitlines()
        res = C.residual_components(cmap, grav, patch, model)
        expected = ["i,j,chirality,auxiliary,cauchy_riemann,dirac"]
        for i in range(M):
            for j in range(M):
                vals = [float(np.abs(b.blocks[:, i, j]).max()) for b in res.blocks().values()]
                expected.append(f"{i},{j}," + ",".join(repr(v) for v in vals))
        assert rows == expected
        assert all(float(v) > 0 for v in rows[1].split(",")[2:])
