from dataclasses import replace

import numpy as np
import pytest

from components_oracle import spinor_holomorphic_part, sr_vector, weyl_covariance_check, weyl_rescale_fields
from fields_oracle import dense, dense_gcontract, gzeros, pack
from input_writers import write_field_bundle
from sjclab import components as C
from sjclab.cli import main
from sjclab.fields import ComponentMap, FieldError, Gravitino, max_abs, odd_masks
from sjclab.patch import PatchError, ReducedPatch
from sjclab.spin import EPS_LOWER, EPS_UPPER, GAMMA, IFRAME, ISPIN, QMAT, project_q
from sjclab.suites import holomorphic_base_map, random_direction_fields
from sjclab.targets import make_const_hsc, make_flat, make_fs_cp1, standard_J


def grid_waves(M):
    xs = np.arange(M) / M
    return np.meshgrid(xs, xs, indexing="ij")


def triple_product_sr(psi, Rop, L):
    """Reference SR on a dense psi: the full triple product psi psi psi, then eps and Rop in one einsum."""
    pair = dense_gcontract(psi, psi, "maxy,nbxy->manbxy", L)
    tri = dense_gcontract(pair, psi, "manbxy,ocxy->manbocxy", L)
    return np.einsum("smanbocxy,no,abcexy->smexy", tri, EPS_UPPER, Rop)


def constrained_constant_psi(L, M, model, rng):
    """Constant dense spinor field with the chirality constraint psi_4 = J psi_3."""
    J0 = standard_J(model.n)
    psi = gzeros(L, (2, model.dim, M, M))
    for m in odd_masks(L):
        v = rng.integers(-2, 3, size=model.dim).astype(complex)
        psi[m, 0] = v[:, None, None]
        psi[m, 1] = (v @ J0)[:, None, None]
    return psi


# -- einsum oracle: every constant spin/frame matrix contracted with np.einsum, on dense fields --


def j_grid(model, M):
    """The standard J of the model's chart at every grid point, as the einsum oracles contract it."""
    return np.broadcast_to(standard_J(model.n)[:, :, None, None], (model.dim, model.dim, M, M))


def _einsum_antihol_form(T, J):
    rot = np.einsum("kl,slbxy->skbxy", IFRAME, T)
    return 0.5 * (T + np.einsum("skbxy,bcxy->skcxy", rot, J))


def _einsum_antihol_spinor(psi, J):
    rot = np.einsum("ab,sbcxy->sacxy", ISPIN, psi)
    return 0.5 * (psi + np.einsum("sacxy,cdxy->sadxy", rot, J))


def _einsum_q(chi):
    return np.einsum("aibj,sbjxy->saixy", QMAT, chi)


def _einsum_sr(psi, Rop, L):
    pair = dense_gcontract(psi, psi, "maxy,nbxy->manbxy", L)
    Z = dense_gcontract(pair, np.einsum("no,socxy->sncxy", EPS_UPPER, psi), "manbxy,ncxy->manbcxy", L)
    if not Z.any():
        return np.zeros(psi.shape, dtype=complex)
    return np.einsum("smanbcxy,abcexy->smexy", Z, Rop)


def per_axis_grad(field, M):
    """(d/dx^1, d/dx^2) on axis 1, each through its own fft2/ifft2 pair over the grid axes (-2, -1).

    The Nyquist wavenumber of an even M differentiates to zero.
    """
    ft = np.fft.fft2(np.asarray(field, dtype=complex))
    k = 2j * np.pi * np.fft.fftfreq(M, d=1.0 / M)
    if M % 2 == 0:
        k[M // 2] = 0.0
    d1 = np.fft.ifft2(ft * k[:, None])
    d2 = np.fft.ifft2(ft * k)
    return np.stack([d1, d2], axis=1)


# C[k, l] of the Cartan structure equations for the coframe lambda^2 dx^a
CARTAN = np.array([[0.0, 1.0], [-1.0, 0.0]])


def oracle_geometry(lam):
    """(lambda^-2, omega) from the conformal factor alone, omega_k = -lambda^-4 C[k, l] d_l(lambda^2).

    omega is None on a uniform lam, whose spectral derivative need not be
    exactly zero, and where it is zero at every grid point.
    """
    if np.all(lam == lam.flat[0]):
        return lam ** -2, None
    u = lam ** 2
    du = per_axis_grad(u[None], len(lam))[0].real
    omega = -np.einsum("kl,lxy->kxy", CARTAN, du) / u ** 2
    return lam ** -2, omega if omega.any() else None


def _oracle_dphi(cmap, patch):
    d = per_axis_grad(dense(cmap.phi_periodic, cmap.L), patch.M)
    d[0, 0] += cmap.phi_linear[:, 0, None, None]
    d[0, 1] += cmap.phi_linear[:, 1, None, None]
    return d * oracle_geometry(patch.lam)[0]


def _einsum_dirac(psi, patch, Gamma, dphi, L):
    frame, omega = oracle_geometry(patch.lam)
    nabla = per_axis_grad(psi, patch.M) * frame
    if Gamma is not None:  # model_grids gives None for a zero tensor
        conn = np.einsum("ecdxy,skcxy->skedxy", Gamma, dphi)
        nabla = nabla + dense_gcontract(conn, psi, "kedxy,adxy->kaexy", L)
    gamma_i = np.einsum("kab,bc->kac", GAMMA, ISPIN)
    out = -np.einsum("kba,skaexy->sbexy", GAMMA, nabla)
    if omega is not None:
        out = out + 0.5 * np.einsum("kxy,kba,saexy->sbexy", omega, gamma_i, psi)
    return out


def _einsum_dirac_terms(psi, qchi, patch, Gamma, dphi, L):
    out = _einsum_dirac(psi, patch, Gamma, dphi, L)
    paired = dense_gcontract(qchi, dphi, "kcxy,kbxy->cbxy", L)
    out = out - 2.0 * np.einsum("ac,scbxy->sabxy", EPS_LOWER, paired)
    sq = dense_gcontract(qchi, qchi, "kcxy,ktxy->ctxy", L)
    nq = np.einsum("ct,sctxy->sxy", EPS_LOWER, sq)
    return out + dense_gcontract(nq, psi, "xy,abxy->abxy", L)


def einsum_residual_components(cmap, grav, patch, model):
    L = cmap.L
    psi, F, chi = dense(cmap.psi, L), dense(cmap.F, L), dense(grav.chi, L)
    Gamma, Rop = C.model_grids(model, cmap, patch)
    J = j_grid(model, patch.M)
    r1 = psi + np.einsum("sacxy,cdxy->sadxy", np.einsum("ab,sbcxy->sacxy", ISPIN, psi), J)
    dphi = _oracle_dphi(cmap, patch)
    qchi = _einsum_q(chi)
    r3 = _einsum_antihol_form(dphi, J) + dense_gcontract(qchi, psi, "kcxy,cbxy->kbxy", L)
    r4 = _einsum_dirac_terms(psi, qchi, patch, Gamma, dphi, L)
    if Rop is not None:
        r4 = r4 - _einsum_sr(psi, Rop, L) / 3.0
    return (r1, F, r3, r4)


def einsum_operator_components(cmap, grav, patch, model):
    L = cmap.L
    psi, F, chi = dense(cmap.psi, L), dense(cmap.F, L), dense(grav.chi, L)
    Gamma, Rop = C.model_grids(model, cmap, patch)
    J = j_grid(model, patch.M)
    c1 = _einsum_antihol_spinor(psi, J)
    dphi = _oracle_dphi(cmap, patch)
    pairing = dense_gcontract(chi, psi, "kcxy,cbxy->kbxy", L)
    c3 = -_einsum_antihol_form(dphi + pairing, J)
    inner = _einsum_dirac_terms(psi, _einsum_q(chi), patch, Gamma, dphi, L)
    dg = np.einsum("kct,sktxy->scxy", GAMMA, chi)
    lowered = np.einsum("ac,scxy->saxy", EPS_LOWER, dg)
    inner = inner + dense_gcontract(lowered, F, "axy,bxy->abxy", L)
    if Rop is not None:
        inner = inner - _einsum_sr(psi, Rop, L) / 6.0
    return (c1, 0.25 * F, c3, -_einsum_antihol_spinor(inner, J))


def einsum_d_phi_operator(xi, patch, model, Gamma, dphi, L):
    """D_phi xi = (1/2)(1 + I (x) J)(d xi lambda^-2 + Gamma(dphi, xi)) on a dense xi."""
    dxi = per_axis_grad(xi, patch.M) * oracle_geometry(patch.lam)[0]
    if Gamma is not None:
        conn = np.einsum("ecdxy,skcxy->skedxy", Gamma, dphi)
        dxi = dxi + dense_gcontract(conn, xi, "kedxy,dxy->kexy", L)
    return _einsum_antihol_form(dxi, j_grid(model, patch.M))


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
        assert (patch.omega is not None) == (gauge == "curved")
        base = C.evaluate_base(model, cmap, patch)
        res = C.residual_components(cmap, grav, base)
        ref = einsum_residual_components(cmap, grav, patch, model)
        for (name, new), old in zip(res.blocks().items(), ref):
            assert np.abs(old).max() > 0, name
            assert np.array_equal(dense(new, L), old), name
        ops = C.operator_components(cmap, grav, base)
        ref = einsum_operator_components(cmap, grav, patch, model)
        for k, (new, old) in enumerate(zip(ops, ref)):
            assert np.abs(old).max() > 0, k
            assert np.array_equal(dense(new, L), old), k

    @pytest.mark.parametrize("gauge", ["unit", "curved"])
    @pytest.mark.parametrize("model_name", list(MODELS))
    def test_d_phi_operator_matches_einsum(self, model_name, gauge):
        # at the fs-cp1 base the Christoffel term Gamma(dphi, xi) is live
        L, M = 2, 8
        rng = np.random.default_rng(60)
        model = self.MODELS[model_name]
        patch = self._patch(M, gauge)
        cmap, _ = generic_fields(rng, L, M, model)
        xi = random_direction_fields(rng, L, M, model.dim)[1]
        base = C.evaluate_base(model, cmap, patch)
        assert (base.conn is not None) == (model_name == "fs-cp1")
        got = dense(C.d_phi_operator(xi, base), L)
        Gamma = C.model_grids(model, cmap, patch)[0]
        want = einsum_d_phi_operator(dense(xi, L), patch, model, Gamma, _oracle_dphi(cmap, patch), L)
        assert np.abs(want).max() > 0
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("gauge", ["unit", "curved"])
    def test_christoffel_term_enters_both_operators_through_the_base(self, gauge):
        # at a generic, non-holomorphic fs-cp1 base, negating base.conn is the
        # einsum oracle with Gamma -> -Gamma in d_phi_operator and twisted_dirac alike
        L, M = 2, 8
        rng = np.random.default_rng(61)
        model = self.MODELS["fs-cp1"]
        patch = self._patch(M, gauge)
        cmap, _ = generic_fields(rng, L, M, model)
        _, xi, zeta, _ = random_direction_fields(rng, L, M, model.dim)
        base = C.evaluate_base(model, cmap, patch)
        flipped = replace(base, conn=-base.conn)
        Gamma, dphi = C.model_grids(model, cmap, patch)[0], _oracle_dphi(cmap, patch)
        for op, oracle, field in (
            (C.d_phi_operator, lambda f, G: einsum_d_phi_operator(f, patch, model, G, dphi, L), xi),
            (C.twisted_dirac, lambda f, G: _einsum_dirac(f, patch, G, dphi, L), zeta),
        ):
            got, got_flipped = dense(op(field, base), L), dense(op(field, flipped), L)
            assert np.array_equal(got, oracle(dense(field, L), Gamma))
            assert np.array_equal(got_flipped, oracle(dense(field, L), -Gamma))
            assert not np.array_equal(got, got_flipped)

    @pytest.mark.parametrize("lam", [None, 1.0, 2.0, np.full((8, 8), 2.0)], ids=["default", "1", "2", "grid-2"])
    def test_uniform_gauge_has_no_spin_connection(self, lam):
        patch = ReducedPatch(8, lam=lam)
        assert patch.omega is None
        assert np.array_equal(patch.frame, oracle_geometry(patch.lam)[0])

    @pytest.mark.parametrize("M", [8, 16])
    def test_curved_gauge_geometry_matches_oracle(self, M):
        patch = self._patch(M, "curved")
        frame, omega = oracle_geometry(patch.lam)
        assert omega is not None and np.abs(omega).max() > 0.1
        assert np.array_equal(patch.frame, frame)
        assert np.array_equal(patch.omega, omega)


class TestAntiholomorphicPart:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_signed_map_equals_einsum_with_standard_J(self, dim):
        # generic complex and real data on a spinor- or form-valued field: the
        # signed rows return the einsum projector's values (up to the sign of zeros)
        rng = np.random.default_rng(60 + dim)
        L, M = 2, 4
        model = make_flat(dim // 2)
        field = rng.standard_normal((1 << L, 2, dim, M, M)) + 1j * rng.standard_normal((1 << L, 2, dim, M, M))
        for data in (field, field.real.astype(complex)):
            got = dense(C.antiholomorphic_part(pack(data)), L)
            assert np.array_equal(got, _einsum_antihol_spinor(data, j_grid(model, M)))
            assert np.array_equal(got, _einsum_antihol_form(data, j_grid(model, M)))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_projector_is_idempotent_and_kills_the_holomorphic_half(self, dim):
        rng = np.random.default_rng(70 + dim)
        L, M = 2, 4
        psi = pack(rng.standard_normal((1 << L, 2, dim, M, M)) + 0j)
        once = C.antiholomorphic_part(psi)
        assert max_abs(once) > 0 and max_abs(C.antiholomorphic_part(once) - once) == 0.0
        assert max_abs(C.antiholomorphic_part(spinor_holomorphic_part(psi))) == 0.0


class TestGrad:
    @pytest.mark.parametrize("M", [4, 7, 8, 16])
    @pytest.mark.parametrize("shape", [(3,), (3, 2, 4)], ids=["scalar", "spinor"])
    def test_equals_per_axis_route_bit_for_bit(self, M, shape):
        rng = np.random.default_rng(M)
        dims = shape + (M, M)
        field = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        out = ReducedPatch(M).grad(field)
        assert out.shape == dims[:1] + (2,) + dims[1:]
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
        psi = gzeros(L, (2, 2, M, M))
        psi[1] = 1.0
        out = C.twisted_dirac(pack(psi), C.evaluate_base(model, cmap, patch))
        assert max_abs(out) == 0.0

    def test_plane_wave_symbol(self):
        # Fourier symbol oracle: D(e^{2 pi i k x} c) = -2 pi i (k1 g1 + k2 g2) c
        L, M = 1, 32
        patch = ReducedPatch(M)
        model = make_flat(1)
        cmap = ComponentMap.zero(L, M, 2)
        x1, x2 = grid_waves(M)
        rng = np.random.default_rng(0)
        base = C.evaluate_base(model, cmap, patch)
        for k1, k2 in [(1, 0), (3, -2), (-5, 7)]:
            c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            psi = gzeros(L, (2, 2, M, M))
            psi[1] = c[:, :, None, None] * np.exp(2j * np.pi * (k1 * x1 + k2 * x2))
            out = C.twisted_dirac(pack(psi), base)
            symbol = -2j * np.pi * (k1 * GAMMA[0] + k2 * GAMMA[1])
            expected = np.einsum("ba,aexy->bexy", symbol, psi[1])
            assert np.abs(dense(out, L)[1] - expected).max() <= 1e-10

    def test_chirality_commutation_flat_target(self):
        # (1 + I x J) D psi = D (1 - I x J) psi when the J-derivative vanishes
        L, M = 2, 16
        patch = ReducedPatch(M)
        model = make_flat(1)
        cmap = ComponentMap.zero(L, M, 2)
        rng = np.random.default_rng(1)
        _, _, zeta, _ = random_direction_fields(rng, L, M, 2)
        base = C.evaluate_base(model, cmap, patch)
        lhs = 2 * C.antiholomorphic_part(C.twisted_dirac(zeta, base))
        rhs = C.twisted_dirac(2 * spinor_holomorphic_part(zeta), base)
        assert max_abs(lhs - rhs) <= 1e-9
        # and with the signs swapped
        lhs2 = 2 * spinor_holomorphic_part(C.twisted_dirac(zeta, base))
        rhs2 = C.twisted_dirac(2 * C.antiholomorphic_part(zeta), base)
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
            f = gzeros(L, (2, 2, M, M))
            for kk1 in range(-2, 3):
                for kk2 in range(-2, 3):
                    amp = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                    f[1] += amp[:, :, None, None] * np.exp(2j * np.pi * (kk1 * x1 + kk2 * x2))
            return f

        psi, Psi = rand_spinor(), rand_spinor()
        w = patch.lam**4 / M**2  # volume weight per grid cell
        base = C.evaluate_base(model, cmap, patch)

        def pair(a, b):
            return np.sum(a[1] * b[1] * w)

        def dirac(f):
            return dense(C.twisted_dirac(pack(f), base), L)

        val = pair(dirac(psi), Psi) + pair(psi, dirac(Psi))
        scale = abs(pair(psi, psi)) + abs(pair(Psi, Psi))
        assert abs(val) / scale <= 1e-13

    def test_resolution_guard(self):
        with pytest.raises(Exception):
            ReducedPatch(3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", ["scalar", "grid"])
    def test_non_finite_conformal_factor_rejected(self, bad, where):
        # NaN compares False with 0, so the positivity test alone would let it through
        lam = bad if where == "scalar" else np.where(np.eye(8, dtype=bool), bad, 1.0)
        with pytest.raises(PatchError, match="finite"):
            ReducedPatch(8, lam=lam)


class TestResiduals:
    def test_all_zero_data(self):
        L, M = 2, 8
        cmap = ComponentMap.zero(L, M, 2)
        res = C.residual_components(cmap, Gravitino.zero(L, M), C.evaluate_base(make_flat(1), cmap, ReducedPatch(M)))
        assert res.max_norm() == 0.0

    def test_affine_holomorphic_map(self):
        L, M = 2, 32
        cmap = holomorphic_base_map(L, M, 2, slope=1.5 - 0.25j)
        res = C.residual_components(cmap, Gravitino.zero(L, M), C.evaluate_base(make_flat(1), cmap, ReducedPatch(M)))
        assert res.max_norm() <= 1e-12

    def test_antiholomorphic_map_fails(self):
        L, M = 2, 16
        cmap = ComponentMap.zero(L, M, 2)
        cmap.phi_linear = np.array([[1.0, 0.0], [0.0, -1.0]])
        res = C.residual_components(cmap, Gravitino.zero(L, M), C.evaluate_base(make_flat(1), cmap, ReducedPatch(M)))
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
            res = C.residual_components(cmap, Gravitino.zero(L, M), C.evaluate_base(model, cmap, ReducedPatch(M)))
            assert res.max_norm() == 0.0, model.kind

    def test_wrong_chirality_detected(self):
        L, M = 2, 8
        model = make_flat(1)
        J0 = standard_J(1)
        psi = gzeros(L, (2, 2, M, M))
        v = np.array([1.0, 2.0])
        psi[1, 0] = v[:, None, None]
        psi[1, 1] = -(v @ J0)[:, None, None]
        cmap = replace(ComponentMap.zero(L, M, 2), psi=psi)
        res = C.residual_components(cmap, Gravitino.zero(L, M), C.evaluate_base(model, cmap, ReducedPatch(M)))
        assert res.max_norms()["chirality"] > 1.0

    def test_residual_parity(self):
        from sjclab.fields import even_masks

        rng = np.random.default_rng(4)
        L, M = 2, 8
        model = make_flat(1)
        rho, xi, zeta, sigma = random_direction_fields(rng, L, M, 2)
        cmap = replace(holomorphic_base_map(L, M, 2), phi_periodic=xi, psi=zeta, F=sigma)
        res = C.residual_components(cmap, Gravitino(L=L, chi=rho), C.evaluate_base(model, cmap, ReducedPatch(M)))
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
        cmap8, cmap16 = ComponentMap.zero(2, 8, 2), ComponentMap.zero(2, 16, 2)
        with pytest.raises(FieldError, match="map is on a 8x8 grid"):
            C.evaluate_base(make_flat(1), cmap8, ReducedPatch(16))
        base = C.evaluate_base(make_flat(1), cmap16, ReducedPatch(16))
        with pytest.raises(FieldError, match="gravitino is on a 8x8 grid"):
            C.residual_components(cmap16, Gravitino.zero(2, 8), base)

    def test_curved_chart_needs_soulless_phi(self):
        L, M = 2, 8
        phi = gzeros(L, (2, M, M))
        phi[3] = 0.1  # even soul correction
        cmap = replace(ComponentMap.zero(L, M, 2), phi_periodic=phi)
        with pytest.raises(FieldError):
            C.residual_components(cmap, Gravitino.zero(L, M), C.evaluate_base(make_fs_cp1(), cmap, ReducedPatch(M)))

    def test_fubini_study_constant_map_with_section(self):
        # position-dependent chart tensors: constant map based away from the
        # chart origin, with a covariantly constant constrained section
        rng = np.random.default_rng(13)
        L, M = 4, 8
        model = make_fs_cp1()
        phi = gzeros(L, (2, M, M))
        phi[0] = np.array([0.3, -0.2])[:, None, None]
        cmap = replace(ComponentMap.zero(L, M, 2), phi_periodic=phi, psi=constrained_constant_psi(L, M, model, rng))
        res = C.residual_components(cmap, Gravitino.zero(L, M), C.evaluate_base(model, cmap, ReducedPatch(M)))
        assert res.max_norm() <= 1e-12

    def test_fubini_study_nonconstant_map_cauchy_riemann_block(self):
        # the Cauchy-Riemann block only sees dphi and J, independent of Gamma
        L, M = 2, 16
        model = make_fs_cp1()
        x1, x2 = grid_waves(M)
        phi = gzeros(L, (2, M, M))
        phi[0, 0] = 0.1 * np.sin(2 * np.pi * x1)
        phi[0, 1] = 0.1 * np.cos(2 * np.pi * x2)
        cmap = replace(ComponentMap.zero(L, M, 2), phi_periodic=phi)
        patch = ReducedPatch(M)
        res = C.residual_components(cmap, Gravitino.zero(L, M), C.evaluate_base(model, cmap, patch))
        J0 = standard_J(1)
        dphi = dense(C.dphi_frame(cmap, patch), L)
        expected = 0.5 * (
            dphi
            + np.einsum(
                "kl,slbxy,bc->skcxy",
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
        psi_grid = gzeros(L, (2, dim, M, M))
        psi_grid[:] = np.moveaxis(psi, -1, 0)[..., None, None]
        Rop = np.broadcast_to(R[..., None, None], (dim, dim, dim, dim, M, M))
        sr_grid = dense(C.sr_contraction(pack(psi_grid), Rop), L)
        sr = np.moveaxis(sr_vector(psi, R), -1, 0)[..., None, None]
        assert np.abs(sr).max() > 0.0
        assert np.abs(sr_grid - sr).max() <= 1e-12

    def test_sr_collapse_on_kahler_constraint(self):
        rng = np.random.default_rng(5)
        L, M = 4, 4
        model = make_const_hsc(4.0, 1)
        psi = constrained_constant_psi(L, M, model, rng)
        Rop = np.broadcast_to(model.curvature_op_at(np.zeros(2))[..., None, None], (2, 2, 2, 2, M, M))
        assert max_abs(C.sr_contraction(pack(psi), Rop)) == 0.0
        # unconstrained control is nonzero
        psi2 = psi.copy()
        psi2[1, 1] = np.array([1.0, 3.0])[:, None, None]
        psi2[2, 1] = np.array([-2.0, 1.0])[:, None, None]
        psi2[4, 1] = np.array([1.0, -1.0])[:, None, None]
        assert max_abs(C.sr_contraction(pack(psi2), Rop)) > 0.0

    @pytest.mark.parametrize("dim", [2, 4])
    def test_sr_matches_triple_product_on_generic_data(self, dim):
        rng = np.random.default_rng(30 + dim)
        L, M = 4, 4
        psi = gzeros(L, (2, dim, M, M))
        for m in odd_masks(L):
            psi[m] = rng.standard_normal((2, dim, M, M)) + 1j * rng.standard_normal((2, dim, M, M))
        Rop = rng.standard_normal((dim,) * 4 + (M, M))
        ref = triple_product_sr(psi, Rop, L)
        sr = dense(C.sr_contraction(pack(psi), Rop), L)
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
        J0 = standard_J(model.n)
        for _ in range(5):
            psi = gzeros(L, (2, dim, M, M))
            for m in odd_masks(L):
                v = rng.integers(-2, 3, size=dim) + 1j * rng.integers(-2, 3, size=dim)
                psi[m, 0] = v[:, None, None]
                psi[m, 1] = (v @ J0)[:, None, None]
            Rop = np.moveaxis(model.curvature_op_at(rng.uniform(-1.0, 1.0, size=(M, M, dim))), (0, 1), (-2, -1))
            assert np.all(triple_product_sr(psi, Rop, L) == 0)
            assert np.all(C.sr_contraction(pack(psi), Rop).blocks == 0)

    def test_sr_vanishes_below_three_generators(self):
        rng = np.random.default_rng(32)
        L, M = 2, 4
        psi = gzeros(L, (2, 2, M, M))
        for m in odd_masks(L):
            psi[m] = rng.standard_normal((2, 2, M, M))
        sr = C.sr_contraction(pack(psi), rng.standard_normal((2, 2, 2, 2, M, M)))
        assert sr.masks == () and sr.shape[1:] == psi.shape[1:]


class TestModelGrids:
    def test_fubini_study_grids_match_pointwise_charts(self):
        L, M = 2, 8
        model = make_fs_cp1()
        patch = ReducedPatch(M)
        x1, x2 = grid_waves(M)
        phi = gzeros(L, (2, M, M))
        phi[0, 0] = 0.3 * np.sin(2 * np.pi * x1)
        phi[0, 1] = 0.2 * np.cos(2 * np.pi * x2) - 0.1
        cmap = replace(ComponentMap.zero(L, M, 2), phi_periodic=phi)
        body = cmap.phi_body(patch.x1, patch.x2)
        grids = C.model_grids(model, cmap, patch)
        evaluators = (model.christoffel_at, model.curvature_op_at)
        assert len(grids) == len(evaluators)
        for grid, ev in zip(grids, evaluators):
            pointwise = np.array([[ev(body[:, i, j]) for j in range(M)] for i in range(M)])
            assert grid.flags.c_contiguous
            assert np.array_equal(grid, np.moveaxis(pointwise, (0, 1), (-2, -1)))

    def test_constant_chart_grids_broadcast(self):
        L, M = 2, 8
        model = make_const_hsc(-4.0, 2)
        phi = gzeros(L, (4, M, M))
        phi[3] = 0.5  # a soul is fine for constant charts
        cmap = replace(ComponentMap.zero(L, M, 4), phi_periodic=phi)
        Gamma, Rop = C.model_grids(model, cmap, ReducedPatch(M))
        y0 = np.zeros(4)
        assert Gamma is None  # zero at every point
        assert Rop.shape == (4, 4, 4, 4, M, M)
        assert np.array_equal(Rop, np.broadcast_to(model.curvature_op_at(y0)[..., None, None], Rop.shape))

    @pytest.mark.parametrize("model", [make_flat(1), make_const_hsc(0.0, 2)], ids=["flat", "constant-hsc at 0"])
    def test_zero_chart_tensors_are_none(self, model):
        M = 8
        cmap = ComponentMap.zero(2, M, model.dim)
        assert C.model_grids(model, cmap, ReducedPatch(M)) == (None, None)

    def test_position_dependent_zero_is_decided_on_the_grid(self):
        # the Fubini-Study Christoffels vanish at the chart origin only: a map
        # constant at the origin has Gamma = None, one that leaves it does not
        L, M = 2, 8
        model = make_fs_cp1()
        patch = ReducedPatch(M)
        cmap = ComponentMap.zero(L, M, 2)
        Gamma, Rop = C.model_grids(model, cmap, patch)
        assert Gamma is None and Rop.any()
        phi = gzeros(L, (2, M, M))
        phi[0, 0, 3, 5] = 0.25  # one grid point off the origin
        Gamma, _ = C.model_grids(model, replace(cmap, phi_periodic=phi), patch)
        assert np.count_nonzero(np.abs(Gamma).max(axis=(0, 1, 2))) == 1


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
        base = C.evaluate_base(model, cmap, patch)
        J = j_grid(model, M)
        _, _, zeta, _ = random_direction_fields(rng, L, M, 2)
        z10 = spinor_holomorphic_part(zeta)
        lhs = C.antiholomorphic_part(C.twisted_dirac(z10, base))
        dz = patch.grad(dense(z10, L))
        rot = np.einsum("kl,slaexy->skaexy", IFRAME, dz)
        antihol_form = 0.5 * (dz + np.einsum("skaexy,efxy->skafxy", rot, J))
        rhs = -np.einsum("kba,skaexy->sbexy", GAMMA, antihol_form)
        assert np.abs(dense(lhs, L) - rhs).max() <= 1e-10


class TestGravitinoTerms:
    def test_pairing_antiholomorphic_at_holomorphic_map(self):
        rng = np.random.default_rng(6)
        L, M = 2, 16
        patch = ReducedPatch(M)
        cmap = holomorphic_base_map(L, M, 2, slope=1.0 + 0.5j)
        rho, _, _, _ = random_direction_fields(rng, L, M, 2)
        T = C.vee_q_pairing(rho.map(project_q, 1), C.dphi_frame(cmap, patch))
        assert max_abs(2 * C.antiholomorphic_part(T) - 2 * T) <= 1e-12

    def test_pure_gauge_gravitino_drops_out(self):
        # chi_k = gamma_k s has Q chi = 0, so it cannot move the residual
        rng = np.random.default_rng(7)
        L, M = 2, 16
        model = make_flat(1)
        patch = ReducedPatch(M)
        cmap = holomorphic_base_map(L, M, 2)
        s = gzeros(L, (2, M, M))
        s[1] = rng.standard_normal((2, M, M))
        chi = np.einsum("kab,sbxy->skaxy", GAMMA, s)
        res = C.residual_components(cmap, Gravitino(L=L, chi=chi), C.evaluate_base(model, cmap, patch))
        assert res.max_norm() <= 1e-12

    def test_q_norm_parity_and_reality(self):
        rng = np.random.default_rng(8)
        L, M = 2, 8
        rho, _, _, _ = random_direction_fields(rng, L, M, 2)
        nq = dense(C.q_norm_squared(rho.map(project_q, 1)), L)
        assert np.abs(nq[0]).max() == 0.0  # no body: quadratic in odd values
        assert np.abs(nq[1]).max() == 0.0 and np.abs(nq[2]).max() == 0.0


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
        assert C.residual_components(sol, grav, C.evaluate_base(model, sol, ReducedPatch(M))).max_norm() == 0.0
        x1, x2 = grid_waves(M)
        u = np.exp(0.05 * np.sin(2 * np.pi * x1) + 0.03 * np.cos(2 * np.pi * x2))
        sol2, grav2 = weyl_rescale_fields(sol, grav, u)
        res = C.residual_components(sol2, grav2, C.evaluate_base(model, sol2, ReducedPatch(M, lam=u)))
        assert res.max_norm() <= 1e-12


class TestResidualFieldCsv:
    def test_rows_match_pointwise_maxima(self, tmp_path):
        # a perturbed FS-CP1 bundle: every block is nonzero somewhere
        rng = np.random.default_rng(33)
        L, M = 4, 8
        model = make_fs_cp1()
        x1, x2 = grid_waves(M)
        phi, F = gzeros(L, (2, M, M)), gzeros(L, (2, M, M))
        phi[0, 0] = 0.2 + 0.1 * np.sin(2 * np.pi * x1)
        psi = constrained_constant_psi(L, M, model, rng)
        psi[1, 1] += 0.1 * (1 + 0.5j) * np.cos(2 * np.pi * x2)
        F[0, 1] = 0.1 * np.cos(2 * np.pi * x1)
        cmap = replace(ComponentMap.zero(L, M, 2), phi_periodic=phi, psi=psi, F=F)
        grav = Gravitino.zero(L, M)
        patch = ReducedPatch(M)
        path = tmp_path / "bundle.txt"
        write_field_bundle(path, cmap, grav, patch, {"kind": "fubini-study-CP1", "n": 1})
        assert main(["--out-dir", str(tmp_path), "verify-components", str(path)]) == 1
        rows = (tmp_path / "residual_field.csv").read_text().splitlines()
        res = C.residual_components(cmap, grav, C.evaluate_base(model, cmap, patch))
        expected = ["i,j,chirality,auxiliary,cauchy_riemann,dirac"]
        for i in range(M):
            for j in range(M):
                vals = [float(np.abs(b.blocks[..., i, j]).max()) for b in res.blocks().values()]
                expected.append(f"{i},{j}," + ",".join(repr(v) for v in vals))
        assert rows == expected
        assert all(float(v) > 0 for v in rows[1].split(",")[2:])
