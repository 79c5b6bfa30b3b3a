import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassmann_oracle import GrassmannElement
from sjclab.grassmann import GrassmannError
from sjclab.superfield import SuperField


def brute_force_product(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    """Independent oracle: expand by distributivity with explicit bubble sort."""
    terms = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            seq = [i for i in range(a.L) if ma & (1 << i)] + [
                i for i in range(b.L) if mb & (1 << i)
            ]
            sign = 1
            swapped = True
            zero = False
            while swapped:
                swapped = False
                for i in range(len(seq) - 1):
                    if seq[i] == seq[i + 1]:
                        zero = True
                        break
                    if seq[i] > seq[i + 1]:
                        seq[i], seq[i + 1] = seq[i + 1], seq[i]
                        sign = -sign
                        swapped = True
                if zero:
                    break
            if zero:
                continue
            mask = 0
            for i in seq:
                mask |= 1 << i
            terms[mask] = terms.get(mask, 0) + sign * ca * cb
    return GrassmannElement(a.L, terms)


def random_element(rng, L, parity=None):
    masks = range(1 << L)
    if parity == "even":
        masks = [m for m in masks if bin(m).count("1") % 2 == 0]
    elif parity == "odd":
        masks = [m for m in masks if bin(m).count("1") % 2 == 1]
    terms = {}
    for m in masks:
        if rng.random() < 0.6:
            terms[m] = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
    return GrassmannElement(L, terms)


class TestExamples:
    def test_anticommutation(self):
        l1 = GrassmannElement.generator(2, 1)
        l2 = GrassmannElement.generator(2, 2)
        assert l1 * l2 == GrassmannElement(2, {0b11: 1})
        assert l2 * l1 == GrassmannElement(2, {0b11: -1})

    def test_square_of_even(self):
        l1 = GrassmannElement.generator(2, 1)
        l2 = GrassmannElement.generator(2, 2)
        e = 1 + l1 * l2
        assert e * e == 1 + 2 * (l1 * l2)

    def test_difference_of_squares_oracle(self):
        l1 = GrassmannElement.generator(2, 1)
        l2 = GrassmannElement.generator(2, 2)
        prod = (l1 + l2) * (l1 - l2)
        assert prod == brute_force_product(l1 + l2, l1 - l2)
        assert prod == -2 * (l1 * l2)

    def test_parity_classification(self):
        l1 = GrassmannElement.generator(2, 1)
        l2 = GrassmannElement.generator(2, 2)
        assert (1 + l1 * l2).parity() == "even"
        assert l1.parity() == "odd"
        assert (1 + l1).parity() == "mixed"

    def test_body_soul(self):
        l1 = GrassmannElement.generator(2, 1)
        l2 = GrassmannElement.generator(2, 2)
        body, soul = (3 + l1 * l2).body_soul()
        assert body == 3 and soul == l1 * l2
        assert GrassmannElement.zero(2).body_soul() == (0, GrassmannElement.zero(2))
        assert l1.body_soul() == (0, l1)

    def test_left_derivative(self):
        l1 = GrassmannElement.generator(3, 1)
        l2 = GrassmannElement.generator(3, 2)
        l3 = GrassmannElement.generator(3, 3)
        assert (l1 * l2).left_derive(1) == l2
        assert (l1 * l2 * l3).left_derive(2) == -(l1 * l3)
        assert (l1 * l2).left_derive(3) == GrassmannElement.zero(3)

    def test_errors(self):
        with pytest.raises(GrassmannError):
            GrassmannElement.generator(2, 1) * GrassmannElement.generator(3, 1)
        with pytest.raises(GrassmannError):
            GrassmannElement.generator(2, 3)
        with pytest.raises(GrassmannError):
            GrassmannElement.generator(2, 1).left_derive(5)


class TestProperties:
    def test_ring_laws(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            a, b, c = (random_element(rng, 3) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == brute_force_product(a, b)

    def test_supercommutativity(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            pa = "even" if rng.random() < 0.5 else "odd"
            pb = "even" if rng.random() < 0.5 else "odd"
            a, b = random_element(rng, 3, pa), random_element(rng, 3, pb)
            sign = -1 if (pa == "odd" and pb == "odd") else 1
            assert a * b == sign * (b * a)

    def test_nilpotency_of_souls(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_element(rng, 3)
            s = a.soul()
            assert s ** (3 + 1) == GrassmannElement.zero(3)

    def test_leibniz_rule(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            pa = "even" if rng.random() < 0.5 else "odd"
            a = random_element(rng, 3, pa)
            b = random_element(rng, 3, "even" if rng.random() < 0.5 else "odd")
            for i in (1, 2, 3):
                lhs = (a * b).left_derive(i)
                sign = -1 if pa == "odd" else 1
                rhs = a.left_derive(i) * b + sign * (a * b.left_derive(i))
                assert lhs == rhs

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_merge_sign_matches_bubble_sort(self, ma, mb):
        a = GrassmannElement(4, {ma: 1.0})
        b = GrassmannElement(4, {mb: 1.0})
        assert a * b == brute_force_product(a, b)

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(-3, 3)), max_size=5))
    def test_conjugation_is_involutive_antihomomorphism(self, data):
        a = GrassmannElement(3, {m: complex(c, 1) for m, c in data})
        assert a.conjugate().conjugate() == a

    def test_conjugation_reverses_products(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            a, b = random_element(rng, 3), random_element(rng, 3)
            assert (a * b).conjugate() == b.conjugate() * a.conjugate()

    def test_real_restriction(self):
        l1 = GrassmannElement.generator(2, 1)
        l2 = GrassmannElement.generator(2, 2)
        assert (1 + l1 * l2 * 1j).is_real()  # (l1 l2)* = -l1 l2, i* = -i
        assert (l1 * 1).is_real()
        assert not (l1 * 1j).is_real()

    def test_serialization_roundtrip(self):
        # the text form is a superfield literal; l_k sits at bit k+1 there
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = random_element(rng, 3)
            expected = SuperField(3, {(m << 2, 0, 0): c for m, c in a.terms.items()})
            assert SuperField.from_text(3, a.to_text()) == expected

    def test_serialization_deterministic(self):
        a = GrassmannElement(2, {0b11: 2.0, 0: 1.0})
        assert a.to_text() == "1.0 + 2.0 * l1 l2"
