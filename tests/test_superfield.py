import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import superfield_oracle
from grassmann_oracle import GrassmannElement, evaluate
from sjclab.superfield import (
    FlatTargetJ,
    SuperField,
    apply_D3,
    apply_D4,
    apply_Dbar,
    components_from_complex,
    flat_sjc_residual,
    holomorphy_equivalence_check,
    _split_sum,
)
from sjclab.suites import random_flat_z_component
from sjclab.targets import standard_J


L = 2


def sf_theta():
    return SuperField.theta(L)


def sf_theta_bar():
    return SuperField.theta_bar(L)


def sf_zbar():
    return SuperField(L, {(0, 1, 0): 1.0, (0, 0, 1): -1j})


class TestDerivations:
    def test_d3_on_coordinates(self):
        assert apply_D3(SuperField.coordinate_x1(L)) == SuperField.eta(L, 3)
        assert apply_D3(SuperField.eta(L, 3)) == SuperField.const(L, 1.0)
        assert apply_D4(SuperField.coordinate_x1(L)) == -SuperField.eta(L, 4)

    def test_dbar_on_holomorphic(self):
        phi = SuperField.coordinate_z(L) + sf_theta() * SuperField.base_generator(L, 1)
        assert apply_Dbar(phi).is_zero()

    def test_dbar_on_zbar(self):
        assert apply_Dbar(sf_zbar()) == sf_theta_bar()

    def test_dbar_on_theta_thetabar(self):
        assert apply_Dbar(sf_theta() * sf_theta_bar()) == -sf_theta()

    def test_dbar_matches_displayed_expansion(self):
        z, zb = SuperField.coordinate_z(L), sf_zbar()
        f = z * zb * 2.0 + z * z
        gp = zb
        g = SuperField.base_generator(L, 1) * gp
        h = SuperField.base_generator(L, 2) * (z * 3.0)
        k = z * z
        phi = (
            f
            + sf_theta() * g
            + sf_theta_bar() * h
            + sf_theta() * sf_theta_bar() * k
        )
        expected = (
            h
            - sf_theta() * k
            + sf_theta_bar() * f.dzbar()
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
        D = superfield_oracle.apply_D
        for _ in range(6):
            F = random_flat_z_component(rng, L, holomorphic=False)
            dz = (F.dx1() + F.dx2() * (-1j)) * 0.5
            dzbar = (F.dx1() + F.dx2() * 1j) * 0.5
            assert D(D(F)) == dz
            assert apply_Dbar(apply_Dbar(F)) == dzbar
            assert (D(apply_Dbar(F)) + apply_Dbar(D(F))).is_zero()

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
        comp = z * z + sf_theta() * (SuperField.base_generator(L, 1) * z)
        assert holomorphy_equivalence_check([comp])

    def test_modulus_squared_fails(self):
        comp = SuperField.coordinate_z(L) * sf_zbar()
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
    # the top coefficient: theta theta_bar, eta-free
    def test_top_coefficient_examples(self):
        th, tb = sf_theta(), sf_theta_bar()
        assert (th * tb * SuperField.coordinate_x1(L)).theta_components()[3] == SuperField.coordinate_x1(L)
        assert (th * SuperField.base_generator(L, 1)).theta_components()[3] == SuperField.zero(L)
        z = SuperField.coordinate_z(L)
        assert (z + th * tb * (z * z)).theta_components()[3] == z * z

    def test_linear(self):
        th, tb = sf_theta(), sf_theta_bar()
        a = th * tb * SuperField.coordinate_x1(L)
        b = th * tb * SuperField.coordinate_x2(L)
        top = (a * 2 + b * (1j)).theta_components()[3]
        assert top == SuperField.coordinate_x1(L) * 2 + SuperField.coordinate_x2(L) * 1j


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
            SuperField.eta(2, 3) * SuperField.base_generator(2, 1) * (x * x * y * 2.0)
            + SuperField.eta(2, 3) * SuperField.eta(2, 4) * 1j
        )
        assert F == expected

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            SuperField.from_text(2, "1.0 * x1^9")

    def test_text_term_order(self):
        # eta bits, then base bits, then the x1 and x2 exponents
        F = SuperField.from_text(2, "1.0 * e4 + 2.0 * l1 + 3.0 * e3 l1 + 4.0 * x1 + 5.0 * x2")
        assert F.to_text() == "5.0 * x2^1 + 4.0 * x1^1 + 2.0 * l1 + 3.0 * e3 * l1 + 1.0 * e4"

    def test_written_order_gives_the_sign(self):
        e3, e4 = SuperField.eta(2, 3), SuperField.eta(2, 4)
        l1, l2 = SuperField.base_generator(2, 1), SuperField.base_generator(2, 2)
        assert SuperField.from_text(2, "1.0 * e4 e3") == -(e3 * e4)
        assert SuperField.from_text(2, "1.0 * l1 * e3") == l1 * e3 == -(e3 * l1)
        assert SuperField.from_text(2, "2.0 * l2 e4 * x1 * l1 e3") == l2 * e4 * l1 * e3 * 2 * SuperField.coordinate_x1(2)
        assert SuperField.from_text(2, "(0+2j) * e3 e4 + (0-2j) * e4 e3") == e3 * e4 * 4j

    def test_repeated_odd_symbol_is_zero(self):
        for text in ("1.0 * e3 e3", "1.0 * l1 * x1 l1", "1.0 * e4 l2 e4"):
            assert SuperField.from_text(2, text).is_zero()
        assert SuperField.from_text(2, "1.0 * e3 e3 + 2.0 * x2") == SuperField.coordinate_x2(2) * 2

    def test_exponents_and_coefficient_position(self):
        x = SuperField.coordinate_x1(2)
        assert SuperField.from_text(2, "x1 x1^2 * 3.0") == x * x * x * 3
        assert SuperField.from_text(2, "1.5 * x1^0") == SuperField.const(2, 1.5)
        assert SuperField.from_text(2, "1e+20 * x1 + 1e-20") == x * 1e20 + 1e-20
        F = SuperField(2, {(0, 0, 0): 1e20, (0b110, 1, 2): -2.5e-30})
        assert SuperField.from_text(2, F.to_text()) == F

    @pytest.mark.parametrize(
        "text,token",
        [
            ("1.0 * x3", "'x3'"),
            ("1.0 * l3", "'l3'"),
            ("1.0 * l0", "'l0'"),
            ("1.0 * l", "'l'"),
            ("1.0 * e5", "'e5'"),
            ("(1+infj) * e3 e4", "'(1+infj)'"),
            ("-x1", "'-x1'"),
            ("2.0 * x1 * 3.0", "'3.0'"),
            ("1.0 * x1^5 x2^4", "degree 9"),
        ],
    )
    def test_bad_literal_names_token(self, text, token):
        with pytest.raises(ValueError) as info:
            SuperField.from_text(2, text)
        assert token in str(info.value)


def split_sum_per_character(text: str) -> list[str]:
    """Reference splitter: one pass over the characters, tracking the parenthesis depth."""
    chunks = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "+" and depth == 0 and not (
            len(current) > 1 and current[-1] in "eE" and current[-2] in "0123456789."
        ):
            chunks.append("".join(current))
            current = []
        else:
            current.append(ch)
    chunks.append("".join(current))
    return [c for c in (c.strip() for c in chunks) if c]


class TestSplitSum:
    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="0123456789.eE+-()j x*", max_size=40))
    def test_chunks_equal_per_character_splitter(self, text):
        assert _split_sum(text) == split_sum_per_character(text)

    @pytest.mark.parametrize(
        "text",
        ["1e+20 + 2.0", "(1+2j) + x1", "+e+1", "1.e+5+E+2", "((1+2j)+3) + 4", ")+(", "1++2", " + "],
    )
    def test_chunks_on_edge_cases(self, text):
        assert _split_sum(text) == split_sum_per_character(text)

    @pytest.mark.parametrize("text", ["(1+2j * x1", "1.0 * x1 + (0+1j", "(1+2j)) * x1 + (2.0"])
    def test_unbalanced_parentheses_rejected(self, text):
        with pytest.raises(ValueError):
            SuperField.from_text(2, text)


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
        assert SuperField.coordinate_z(L).conjugate() == sf_zbar()
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


def random_field(rng, L: int) -> SuperField:
    """Gaussian-integer coefficients on random odd monomials and x-powers up to 2."""
    terms = {}
    for _ in range(int(rng.integers(1, 9))):
        key = (int(rng.integers(0, 4 << L)), int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        terms[key] = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
    return SuperField(L, terms)


class TestGrassmannOracle:
    """Evaluation at a point is a ring map into GrassmannElement on L + 2 generators."""

    @pytest.mark.parametrize("L", [2, 4])
    def test_product_and_conjugate_commute_with_evaluation(self, L):
        rng = np.random.default_rng(10 + L)
        for _ in range(40):
            F, G = random_field(rng, L), random_field(rng, L)
            x1, x2 = (int(v) for v in rng.integers(-3, 4, size=2))
            Fp, Gp = evaluate(F, x1, x2), evaluate(G, x1, x2)
            assert Fp.L == L + 2
            assert evaluate(F * G, x1, x2) == Fp * Gp
            assert evaluate(F.conjugate(), x1, x2) == Fp.conjugate()
            assert evaluate(F + G, x1, x2) == Fp + Gp

    def test_generator_layout(self):
        # bit 0 e3, bit 1 e4, bit k+1 lk, as in evaluate
        for field, mask in (
            (SuperField.eta(3, 3), 0b1),
            (SuperField.eta(3, 4), 0b10),
            (SuperField.base_generator(3, 1), 0b100),
            (SuperField.base_generator(3, 3), 0b10000),
        ):
            assert evaluate(field, 0, 0) == GrassmannElement.generator(5, mask.bit_length())

    def test_evaluate_values(self):
        assert evaluate(SuperField.coordinate_z(3), 2, 5) == GrassmannElement.scalar(5, 2 + 5j)
        F = SuperField(3, {(0b101, 2, 1): 3.0, (0, 0, 3): 1j})
        assert evaluate(F, 2, -1) == GrassmannElement(5, {0b101: -12.0, 0: -1j})

    def test_constructor_checks(self):
        with pytest.raises(ValueError, match="beyond L=1"):
            SuperField(1, {(0b1000, 0, 0): 1.0})
        with pytest.raises(ValueError, match="negative exponents"):
            SuperField(2, {(0, -1, 0): 1.0})
        with pytest.raises(ValueError, match=">= 0"):
            SuperField(-1)
        assert SuperField(2, {(0b11, 1, 0): 0.0}).is_zero()


# Coefficient parts: signed zeros and small values often, so that sums cancel
# exactly and -0.0 meets +0.0; generic finite doubles otherwise.
_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def generic_fields(draw):
    """Fields whose terms mostly share one base monomial and low powers, so frame parts collide."""
    L = draw(st.integers(0, 4))
    base = draw(st.integers(0, (1 << L) - 1)) << 2
    near = st.tuples(st.integers(0, 3).map(base.__or__), st.integers(0, 1), st.integers(0, 1))
    anywhere = st.tuples(st.integers(0, (4 << L) - 1), st.integers(0, 3), st.integers(0, 3))
    coeffs = st.builds(complex, _PARTS, _PARTS)
    return SuperField(L, draw(st.dictionaries(near | anywhere, coeffs, max_size=16)))


def bits(field: SuperField) -> list:
    """Keys in order with the exact coefficient text (repr tells -0.0 from 0.0)."""
    return [(k, repr(c)) for k, c in field.terms.items()]


L64 = 1 << 65  # the mask bit of base generator l64


class TestOnePassOracle:
    """The one-pass frames and sum equal the product-built ones bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(generic_fields())
    @example(SuperField(0, {(0b11, 0, 0): 1.0, (0, 0, 1): 1.0}))  # D4 cancels at e3
    @example(SuperField(0, {(0b11, 0, 0): 1.0, (0, 0, 1): -1.0}))  # D3 cancels at e4
    @example(SuperField(64, {(L64 | 0b01, 1, 2): 2 - 0.0j, (L64, 2, 1): -0.0 + 1j}))
    def test_frames_match_products(self, field):
        assert bits(apply_D3(field)) == bits(superfield_oracle.apply_D3(field))
        assert bits(apply_D4(field)) == bits(superfield_oracle.apply_D4(field))

    @settings(max_examples=400, deadline=None)
    @given(generic_fields(), st.data())
    def test_sum_matches_two_pass_sum(self, x, data):
        # the second field reuses keys of the first, with values that may cancel
        keys = st.sampled_from(sorted(x.terms)) if x.terms else st.just((0, 0, 0))
        y = SuperField(x.L, data.draw(st.dictionaries(keys, st.builds(complex, _PARTS, _PARTS))))
        y = superfield_oracle.add(y, -x) if data.draw(st.booleans()) else y
        assert bits(x + y) == bits(superfield_oracle.add(x, y))
        assert bits(y + x) == bits(superfield_oracle.add(y, x))

    def test_frames_match_products_on_every_signed_zero_pair(self):
        # Two frame parts meet on at most one key pair; this covers every pair of
        # terms near e3 e4 with coefficient parts in {+-0.0, +-1.0}, which hits
        # each way -0.0 can meet +0.0 when two parts add.
        parts = (0.0, -0.0, 1.0, -1.0)
        values = [c for c in (complex(x, y) for x in parts for y in parts) if c != 0]
        keys = [(m, a, b) for m in range(4) for a in (0, 1) for b in (0, 1)]
        for k1, k2 in itertools.combinations(keys, 2):
            for c1, c2 in itertools.product(values, repeat=2):
                field = SuperField(0, {k1: c1, k2: c2})
                assert bits(apply_D3(field)) == bits(superfield_oracle.apply_D3(field))
                assert bits(apply_D4(field)) == bits(superfield_oracle.apply_D4(field))

    def test_examples_cancel(self):
        cancel_e3 = SuperField(0, {(0b11, 0, 0): 1.0, (0, 0, 1): 1.0})
        cancel_e4 = SuperField(0, {(0b11, 0, 0): 1.0, (0, 0, 1): -1.0})
        assert apply_D4(cancel_e3).is_zero() and not apply_D3(cancel_e3).is_zero()
        assert apply_D3(cancel_e4).is_zero() and not apply_D4(cancel_e4).is_zero()

    def test_frames_on_random_flat_maps(self):
        rng = np.random.default_rng(12)
        for t in range(40):
            z = random_flat_z_component(rng, 4, holomorphic=t % 2 == 0)
            for y in components_from_complex([z]):
                assert bits(apply_D3(y)) == bits(superfield_oracle.apply_D3(y))
                assert bits(apply_D4(y)) == bits(superfield_oracle.apply_D4(y))
