import numpy as np
import pytest

from sjclab.classify import bochner_classify, moduli_dimension, normalized_scalar


class TestBochnerClassifier:
    def test_genus_zero_below_threshold_bijective(self):
        v = bochner_classify(genus=0, sigma=4.0, energy_min=0.0, energy_max=0.125)
        assert v.D10 == "bijective"
        assert v.implies_trivial_class
        assert v.threshold == pytest.approx(0.25)

    def test_genus_zero_generic(self):
        v = bochner_classify(genus=0, sigma=4.0, energy_min=0.0, energy_max=0.5)
        assert (v.D10, v.D01) == ("surjective", "injective")

    def test_genus_one_nonconstant(self):
        v = bochner_classify(genus=1, sigma=4.0, energy_min=0.1, energy_max=0.5)
        assert v.D10 == "surjective"

    def test_genus_one_constant_map_inconclusive(self):
        v = bochner_classify(genus=1, sigma=4.0, energy_min=0.0, energy_max=0.0)
        assert (v.D10, v.D01) == ("inconclusive", "inconclusive")

    def test_flat_target_genus_zero_both_bijective(self):
        v = bochner_classify(genus=0, sigma=0.0, energy_min=0.0, energy_max=0.3)
        assert (v.D10, v.D01) == ("bijective", "bijective")

    def test_flat_target_higher_genus_inconclusive(self):
        for p in (1, 2, 5):
            v = bochner_classify(genus=p, sigma=0.0, energy_min=0.0, energy_max=0.3)
            assert (v.D10, v.D01) == ("inconclusive", "inconclusive")

    def test_sigma_negation_swaps_verdicts(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = int(rng.integers(0, 4))
            sigma = float(rng.choice([-6.0, -4.0, -1.5, 1.5, 4.0, 6.0]))
            emin = float(rng.uniform(0, 0.4))
            emax = emin + float(rng.uniform(0, 0.4))
            a = bochner_classify(p, sigma, emin, emax)
            b = bochner_classify(p, -sigma, emin, emax)
            assert (a.D10, a.D01) == (b.D01, b.D10)

    def test_negative_sigma_bijectivity_moves_to_antiholomorphic_half(self):
        v = bochner_classify(genus=0, sigma=-4.0, energy_min=0.0, energy_max=0.1)
        assert v.D01 == "bijective" and v.D10 == "injective"

    def test_scalar_normalization(self):
        assert normalized_scalar(0) == 2.0
        assert normalized_scalar(1) == 0.0
        assert normalized_scalar(2) == -2.0
        assert normalized_scalar(7) == -2.0

    def test_energy_bound_validation(self):
        with pytest.raises(ValueError):
            bochner_classify(genus=0, sigma=4.0, energy_min=0.5, energy_max=0.1)
        with pytest.raises(ValueError):
            bochner_classify(genus=-1, sigma=4.0, energy_min=0.0, energy_max=0.1)

    def test_total_function_on_grid(self):
        # never raises; inconclusive is a verdict, not an error
        for p in range(0, 3):
            for sigma in (-4.0, 0.0, 4.0):
                for emax in (0.0, 0.1, 0.3, 1.0):
                    v = bochner_classify(p, sigma, 0.0, emax)
                    assert v.D10 in {"surjective", "injective", "bijective", "inconclusive"}
                    assert v.D01 in {"surjective", "injective", "bijective", "inconclusive"}


class TestModuliDimension:
    def test_flat_target(self):
        for n in (1, 2, 5):
            even, odd = moduli_dimension(n=n, genus=0, c1A=0)
            assert (even, odd) == (2 * n, 0)

    def test_projective_targets(self):
        for n in (1, 2, 3):
            for k in (0, 1, 2):
                c1 = k * (n + 1)  # c1 of CP^n on k lines
                even, odd = moduli_dimension(n=n, genus=0, c1A=c1)
                assert even == 2 * n + 2 * k * (n + 1)
                assert odd == 2 * k * (n + 1)

    def test_worked_number(self):
        even, odd = moduli_dimension(n=2, genus=0, c1A=3)
        assert (even, odd) == (10, 6)

    def test_euler_consistency(self):
        for n in (1, 2, 3):
            for p in (0, 1, 2):
                for c1 in range(-4, 5):
                    even, odd = moduli_dimension(n=n, genus=p, c1A=c1)
                    assert even - odd == 2 * n * (1 - p)

    def test_validation(self):
        with pytest.raises(ValueError):
            moduli_dimension(n=0, genus=0, c1A=0)
        with pytest.raises(ValueError):
            moduli_dimension(n=1, genus=-1, c1A=0)
