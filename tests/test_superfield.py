import numpy as np
import pytest

from sjclab.superfield import (
    FlatTargetJ,
    PolyFn,
    SuperField,
    apply_D,
    apply_D3,
    apply_D4,
    apply_Dbar,
    berezin_top,
    components_from_complex,
    flat_sjc_residual,
    holomorphy_equivalence_check,
)
from sjclab.suites import random_flat_z_component
from sjclab.targets import standard_J


L = 2


def sf_theta():
    return SuperField.theta(L)


def sf_theta_bar():
    return SuperField.theta_bar(L)


class TestDerivations:
    def test_d3_on_coordinates(self):
        assert apply_D3(SuperField.coordinate_x1(L)) == SuperField.eta(L, 3)
        assert apply_D3(SuperField.eta(L, 3)) == SuperField.const(L, 1.0)
        assert apply_D4(SuperField.coordinate_x1(L)) == -SuperField.eta(L, 4)

    def test_dbar_on_holomorphic(self):
        phi = SuperField.coordinate_z(L) + sf_theta() * SuperField.base_generator(L, 1)
        assert apply_Dbar(phi).is_zero()

    def test_dbar_on_zbar(self):
        assert apply_Dbar(SuperField.coordinate_zbar(L)) == sf_theta_bar()

    def test_dbar_on_theta_thetabar(self):
        assert apply_Dbar(sf_theta() * sf_theta_bar()) == -sf_theta()

    def test_dbar_matches_displayed_expansion(self):
        f = PolyFn.from_z_poly({(1, 1): 2.0, (2, 0): 1.0})
        gp = PolyFn.from_z_poly({(0, 1): 1.0})
        hp = PolyFn.from_z_poly({(1, 0): 3.0})
        kp = PolyFn.from_z_poly({(2, 0): 1.0})
        g = SuperField.base_generator(L, 1) * gp
        h = SuperField.base_generator(L, 2) * hp
        k = SuperField.from_poly(L, kp)
        phi = (
            SuperField.from_poly(L, f)
            + sf_theta() * g
            + sf_theta_bar() * h
            + sf_theta() * sf_theta_bar() * k
        )
        expected = (
            h
            - sf_theta() * k
            + sf_theta_bar() * SuperField.from_poly(L, f.dzbar())
            - sf_theta() * sf_theta_bar() * (SuperField.base_generator(L, 1) * gp.dzbar())
        )
        assert apply_Dbar(phi) == expected

    def test_frame_algebra_on_random_fields(self):
        rng = np.random.default_rng(0)
        for _ in range(6):
            F = random_flat_z_component(rng, L, holomorphic=False)
            assert apply_D3(apply_D3(F)) == F.dx1()
            assert apply_D4(apply_D4(F)) == -F.dx1()
            assert apply_D3(apply_D4(F)) + apply_D4(apply_D3(F)) == 2 * F.dx2()

    def test_complex_frame_squares(self):
        # D D = d/dz and Dbar Dbar = d/dzbar; the cross anticommutator vanishes
        rng = np.random.default_rng(1)
        for _ in range(6):
            F = random_flat_z_component(rng, L, holomorphic=False)
            dz = (F.dx1() + F.dx2() * (-1j)) * 0.5
            dzbar = (F.dx1() + F.dx2() * 1j) * 0.5
            assert apply_D(apply_D(F)) == dz
            assert apply_Dbar(apply_Dbar(F)) == dzbar
            assert (apply_D(apply_Dbar(F)) + apply_Dbar(apply_D(F))).is_zero()

    def test_parity_flip(self):
        F = SuperField.coordinate_x1(L)
        assert F.parity() == "even"
        assert apply_D3(F).parity() == "odd"


class TestFlatResidual:
    def test_constant_map(self):
        J = FlatTargetJ(standard_J(1))
        res = flat_sjc_residual([SuperField.const(L, 2.0), SuperField.const(L, 0.0)], J)
        assert all(r.is_zero() for r in res)

    def test_holomorphic_coordinate_map(self):
        J = FlatTargetJ(standard_J(1))
        ys = components_from_complex([SuperField.coordinate_z(L)])
        assert ys[0] == SuperField.coordinate_x1(L)
        assert ys[1] == SuperField.coordinate_x2(L)
        assert all(r.is_zero() for r in flat_sjc_residual(ys, J))

    def test_antiholomorphic_map_fails(self):
        J = FlatTargetJ(standard_J(1))
        ys = [SuperField.coordinate_x1(L), -SuperField.coordinate_x2(L)]
        res = flat_sjc_residual(ys, J)
        assert not all(r.is_zero() for r in res)

    def test_component_count_mismatch(self):
        J = FlatTargetJ(standard_J(2))
        with pytest.raises(ValueError):
            flat_sjc_residual([SuperField.const(L, 1.0)], J)

    def test_odd_component_rejected(self):
        J = FlatTargetJ(standard_J(1))
        with pytest.raises(ValueError):
            flat_sjc_residual([SuperField.eta(L, 3), SuperField.const(L, 0.0)], J)


class TestHolomorphyEquivalence:
    def test_holomorphic_pair(self):
        z = SuperField.coordinate_z(L)
        comp = z * z + sf_theta() * (SuperField.base_generator(L, 1) * PolyFn.z())
        assert holomorphy_equivalence_check([comp])

    def test_modulus_squared_fails(self):
        comp = SuperField.from_poly(L, PolyFn.from_z_poly({(1, 1): 1.0}))
        assert not holomorphy_equivalence_check([comp])

    def test_zero_map(self):
        assert holomorphy_equivalence_check([SuperField.zero(L)])

    def test_cross_validation_random(self):
        rng = np.random.default_rng(2)
        J = FlatTargetJ(standard_J(1))
        for t in range(60):
            holo = t % 2 == 0
            zc = random_flat_z_component(rng, L, holo)
            ys = components_from_complex([zc])
            res_zero = all(r.is_zero() for r in flat_sjc_residual(ys, J))
            assert res_zero == holomorphy_equivalence_check([zc]) == holo


class TestBerezin:
    def test_top_coefficient_examples(self):
        th, tb = sf_theta(), sf_theta_bar()
        assert berezin_top(th * tb * SuperField.coordinate_x1(L)) == {0: PolyFn.x1()}
        assert berezin_top(th * SuperField.base_generator(L, 1)) == {}
        z = SuperField.coordinate_z(L)
        assert berezin_top(z + th * tb * (z * z)) == {0: PolyFn.z() * PolyFn.z()}

    def test_linear(self):
        th, tb = sf_theta(), sf_theta_bar()
        a = th * tb * SuperField.coordinate_x1(L)
        b = th * tb * SuperField.coordinate_x2(L)
        top = berezin_top(a * 2 + b * (1j))
        assert top == {0: PolyFn.x1() * 2 + PolyFn.x2() * 1j}


class TestLiterals:
    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        for t in range(20):
            F = random_flat_z_component(rng, L, holomorphic=t % 2 == 0)
            assert SuperField.from_text(L, F.to_text()) == F

    def test_literal_grammar(self):
        F = SuperField.from_text(2, "2.0 * x1^2 x2 * e3 * l1 + (0+1j) * e3 e4")
        x = SuperField.coordinate_x1(2)
        y = SuperField.coordinate_x2(2)
        expected = (
            SuperField.eta(2, 3) * SuperField.base_generator(2, 1) * (PolyFn.x1() ** 2 * PolyFn.x2() * 2.0)
            + SuperField.eta(2, 3) * SuperField.eta(2, 4) * 1j
        )
        assert F == expected

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            SuperField.from_text(2, "1.0 * x1^9")


class TestRingLaws:
    def test_associativity_and_distributivity(self):
        rng = np.random.default_rng(5)
        for _ in range(12):
            a = random_flat_z_component(rng, L, holomorphic=False)
            b = random_flat_z_component(rng, L, holomorphic=True)
            c = random_flat_z_component(rng, L, holomorphic=False)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_odd_factors_anticommute(self):
        th = SuperField.theta(L)
        tb = SuperField.theta_bar(L)
        l1 = SuperField.base_generator(L, 1)
        assert th * l1 == -(l1 * th)
        assert (th * th).is_zero()  # odd squares vanish
        assert not (th * tb).is_zero()  # theta theta_bar = -2i e3 e4
        e3 = SuperField.eta(L, 3)
        assert (e3 * e3).is_zero()


class TestConjugation:
    def test_real_coordinates_fixed(self):
        for F in (SuperField.coordinate_x1(L), SuperField.eta(L, 3)):
            assert F.conjugate() == F

    def test_z_conjugates_to_zbar(self):
        assert SuperField.coordinate_z(L).conjugate() == SuperField.coordinate_zbar(L)
        assert sf_theta().conjugate() == sf_theta_bar()

    def test_theta_thetabar_is_real(self):
        ttb = sf_theta() * sf_theta_bar()
        assert ttb.conjugate() == ttb

    def test_product_reversal(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = random_flat_z_component(rng, L, holomorphic=False)
            b = random_flat_z_component(rng, L, holomorphic=True)
            assert (a * b).conjugate() == b.conjugate() * a.conjugate()
