import tracemalloc
from itertools import product

import numpy as np
import pytest

from components_oracle import sr_vector
from grassmann_oracle import GrassmannElement, elements
from sjclab import fierz
from sjclab.fierz import (
    CurvatureSymmetryError,
    check_curvature_symmetries,
    fierz_check,
    random_admissible_curvature,
    random_admissible_nabla_curvature,
    random_odd_spinor,
)
from sjclab.spin import EPS_UPPER, GAMMA_EPS, GAMMA_SYM, ISPIN
from sjclab.targets import hsc_curvature_lowered, standard_J


# -- sparse brute-force reference, term by term on GrassmannElements ----------
#
# brute_force_sr and sparse_fierz_report take the dense psi array, as the
# engine does; the helpers below them take its entries as GrassmannElements.


def cubic_monomials(psi):
    """psi_mu^a psi_nu^b psi_sigma^c as GrassmannElements, keyed (mu, a, nu, b, sigma, c)."""
    idx = [(mu, a) for mu in range(2) for a in range(len(psi[0]))]
    return {
        i + j + k: psi[i[0]][i[1]] * psi[j[0]][j[1]] * psi[k[0]][k[1]]
        for i in idx
        for j in idx
        for k in idx
    }


def sparse_cubic(monos, T, L):
    """V[mu, nu, sigma][e] = (T(psi_mu, psi_nu) psi_sigma)^e, term by term."""
    dim = T.shape[0]
    V = {}
    for mu, nu, sg in product(range(2), repeat=3):
        acc = [GrassmannElement.zero(L)] * dim
        for a, b, c, e in product(range(dim), repeat=4):
            if T[a, b, c, e]:
                acc[e] = acc[e] + monos[mu, a, nu, b, sg, c] * T[a, b, c, e]
        V[mu, nu, sg] = acc
    return V


def sparse_sr(V):
    """SR_tau^e = eps^{kappa lambda} V[tau, kappa, lambda][e], with eps^{34} = +1."""
    return [[x - y for x, y in zip(V[tau, 0, 1], V[tau, 1, 0])] for tau in range(2)]


def brute_force_sr(psi, R):
    psi = elements(psi)
    return sparse_sr(sparse_cubic(cubic_monomials(psi), R, psi[0][0].L))


def sparse_chains(V, L, completion=3.0):
    """Max coefficient deviations of chains A and B; ``completion`` weights I[nu, sigma] SR_mu."""
    dim = len(V[0, 0, 0])
    sr = sparse_sr(V)
    dev_a = dev_b = 0.0
    for mu, nu, sg in product(range(2), repeat=3):
        for e in range(dim):
            rhs_a = rhs_b = GrassmannElement.zero(L)
            for tau in range(2):
                coeff_a = 2.0 * (
                    sum(GAMMA_SYM[t][mu, nu] * GAMMA_EPS[t][sg, tau] for t in range(2))
                    - (mu == nu) * ISPIN[sg, tau]
                )
                coeff_b = (
                    (nu == sg) * ISPIN[mu, tau]
                    - sum(GAMMA_SYM[t][nu, sg] * GAMMA_EPS[t][mu, tau] for t in range(2))
                    + completion * ISPIN[nu, sg] * (mu == tau)
                )
                rhs_a = rhs_a + sr[tau][e] * coeff_a
                rhs_b = rhs_b + sr[tau][e] * coeff_b
            lhs = V[mu, nu, sg][e] * 6.0
            dev_a = max([dev_a] + [abs(c) for c in (lhs - rhs_a).terms.values()])
            dev_b = max([dev_b] + [abs(c) for c in (lhs - rhs_b).terms.values()])
    return dev_a, dev_b


def sparse_fierz_report(R, psi, nablaR=None, completion=3.0):
    """The fierz_check report, computed on sparse GrassmannElements."""
    psi = elements(psi)
    L = psi[0][0].L
    monos = cubic_monomials(psi)
    dev_a, dev_b = sparse_chains(sparse_cubic(monos, R, L), L, completion)
    report = {"chain_a": dev_a, "chain_b": dev_b, "max_deviation": max(dev_a, dev_b)}
    if nablaR is not None:
        dim = R.shape[0]
        Vp = [sparse_cubic(monos, nablaR[p], L) for p in range(dim)]
        dev_da = dev_db = 0.0
        for rho in range(2):
            # psi_rho^p (nabla_p R)(psi_mu, psi_nu) psi_sigma
            Vd = {
                key: [
                    sum((psi[rho][p] * Vp[p][key][e] for p in range(dim)), GrassmannElement.zero(L))
                    for e in range(dim)
                ]
                for key in Vp[0]
            }
            da, db = sparse_chains(Vd, L, completion)
            dev_da, dev_db = max(dev_da, da), max(dev_db, db)
        report["chain_a_derivative"] = dev_da
        report["chain_b_derivative"] = dev_db
        report["max_deviation"] = max(report["max_deviation"], dev_da, dev_db)
    return report


class TestSRContraction:
    def test_zero_curvature(self):
        rng = np.random.default_rng(0)
        psi = random_odd_spinor(rng, L=4, dim=2)
        sr = sr_vector(psi, np.zeros((2, 2, 2, 2)))
        assert sr.shape == (2, 2, 16) and np.abs(sr).max() == 0.0

    def test_vanishes_when_one_spinor_component_vanishes(self):
        # every monomial of the contraction contains a factor from each row
        rng = np.random.default_rng(1)
        psi = random_odd_spinor(rng, L=4, dim=2)
        psi[1] = 0.0
        R = random_admissible_curvature(rng, 2)
        sr = sr_vector(psi, R)
        assert np.abs(sr).max() == 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for t in range(5):
            dim = 2 if t % 2 else 4
            psi = random_odd_spinor(rng, L=4, dim=dim)
            R = random_admissible_curvature(rng, dim)
            assert elements(sr_vector(psi, R)) == brute_force_sr(psi, R)

    def test_cubic_vanishes_below_three_generators(self):
        rng = np.random.default_rng(3)
        psi = random_odd_spinor(rng, L=2, dim=2)
        R = random_admissible_curvature(rng, 2)
        sr = sr_vector(psi, R)
        assert sr.shape == (2, 2, 4) and np.abs(sr).max() == 0.0


class TestIdentityChains:
    def test_random_admissible_tensors_exact(self):
        rng = np.random.default_rng(4)
        for t in range(20):
            dim = 4 if t % 5 == 4 else 2
            R = random_admissible_curvature(rng, dim)
            psi = random_odd_spinor(rng, L=4, dim=dim)
            rep = fierz_check(R, psi)
            assert rep["chain_a"] == 0.0
            assert rep["chain_b"] == 0.0

    def test_constant_hsc_tensor_exact(self):
        rng = np.random.default_rng(5)
        for dim in (2, 4):
            R = hsc_curvature_lowered(4.0, np.eye(dim), standard_J(dim // 2))
            psi = random_odd_spinor(rng, L=4, dim=dim)
            rep = fierz_check(R, psi)
            assert rep["max_deviation"] == 0.0

    def test_derivative_variant_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            R = random_admissible_curvature(rng, 2)
            dR = random_admissible_nabla_curvature(rng, 2)
            psi = random_odd_spinor(rng, L=4, dim=2)
            rep = fierz_check(R, psi, nablaR=dR)
            assert rep["chain_a_derivative"] == 0.0
            assert rep["chain_b_derivative"] == 0.0

    def test_two_term_second_chain_fails(self):
        # the antisymmetric completion term in chain B is genuinely needed
        rng = np.random.default_rng(7)
        psi = random_odd_spinor(rng, L=4, dim=2)
        R = random_admissible_curvature(rng, 2)
        V = sparse_cubic(cubic_monomials(elements(psi)), R, 4)
        assert sparse_chains(V, 4) == (0.0, 0.0)
        _, bad = sparse_chains(V, 4, completion=0.0)
        assert bad > 0.0

    def test_two_term_second_chain_fails_in_dense_engine(self, monkeypatch):
        # with the two-term chain B in both operator slots, every deviation
        # in the report must match the sparse two-term value; coefficients
        # agree exactly and only the complex modulus is rounded
        rng = np.random.default_rng(16)
        R = random_admissible_curvature(rng, 2)
        dR = random_admissible_nabla_curvature(rng, 2)
        psi = random_odd_spinor(rng, L=4, dim=2)
        completion = 3.0 * np.einsum("ns,mu,kl->mnsukl", ISPIN, np.eye(2), EPS_UPPER)
        two_term = fierz._CHAINS[1] + completion.reshape(8, 8)
        monkeypatch.setattr(fierz, "_CHAINS", np.stack([two_term, two_term]))
        ref = sparse_fierz_report(R, psi, dR, completion=0.0)
        b, db = ref["chain_b"], ref["chain_b_derivative"]
        assert b > 0.0 and db > 0.0
        expected = {
            "chain_a": b,
            "chain_b": b,
            "max_deviation": max(b, db),
            "chain_a_derivative": db,
            "chain_b_derivative": db,
        }
        rep = fierz_check(R, psi, nablaR=dR)
        assert rep == pytest.approx(expected, rel=1e-15)

    def test_matches_sparse_reference_exactly(self):
        # the suite's case mix: dim 4 every fifth tensor, the constant-hsc
        # tensor every seventh, derivative chains throughout
        rng = np.random.default_rng(12)
        for t in range(40):
            dim = 4 if t % 5 == 4 else 2
            if t % 7 == 0:
                R = hsc_curvature_lowered(4.0, np.eye(dim), standard_J(dim // 2))
            else:
                R = random_admissible_curvature(rng, dim)
            psi = random_odd_spinor(rng, L=4, dim=dim)
            dR = random_admissible_nabla_curvature(rng, dim)
            rep = fierz_check(R, psi, nablaR=dR)
            assert rep == sparse_fierz_report(R, psi, dR)

    @pytest.mark.parametrize("L, dim", [(2, 2), (2, 4), (5, 2), (5, 4)])
    def test_matches_sparse_reference_other_generator_counts(self, L, dim):
        rng = np.random.default_rng(13 + L + dim)
        R = random_admissible_curvature(rng, dim)
        psi = random_odd_spinor(rng, L=L, dim=dim)
        if L < 4:
            assert fierz_check(R, psi) == sparse_fierz_report(R, psi)
        else:
            dR = random_admissible_nabla_curvature(rng, dim)
            rep = fierz_check(R, psi, nablaR=dR)
            assert rep == sparse_fierz_report(R, psi, dR)

    def test_no_large_temporaries(self):
        # the traced peak of one call bounds every array it allocates; a
        # large temporary is served by mmap, and freeing it raises glibc's
        # dynamic mmap threshold, which changes the speed of every later
        # allocation in the process
        rng = np.random.default_rng(14)
        R = random_admissible_curvature(rng, 4)
        dR = random_admissible_nabla_curvature(rng, 4)
        psi = random_odd_spinor(rng, L=4, dim=4)
        fierz_check(R, psi, nablaR=dR)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fierz_check(R, psi, nablaR=dR)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 256 * 1024

    def test_derivative_variant_needs_four_generators(self):
        rng = np.random.default_rng(8)
        psi = random_odd_spinor(rng, L=2, dim=2)
        R = random_admissible_curvature(rng, 2)
        dR = random_admissible_nabla_curvature(rng, 2)
        with pytest.raises(ValueError):
            fierz_check(R, psi, nablaR=dR)


class TestAdmissibility:
    def test_random_generator_has_all_symmetries(self):
        rng = np.random.default_rng(9)
        for dim in (2, 4, 6):
            R = random_admissible_curvature(rng, dim)
            check_curvature_symmetries(R)
            assert R.dtype == float and np.all(R == np.round(R))

    def test_symmetry_violation_rejected_with_diagnosis(self):
        rng = np.random.default_rng(10)
        T = rng.standard_normal((2, 2, 2, 2))
        psi = random_odd_spinor(rng, L=4, dim=2)
        with pytest.raises(CurvatureSymmetryError) as err:
            fierz_check(T, psi)
        assert "antisymmetric" in str(err.value) or "Bianchi" in str(err.value)

    def test_bianchi_violation_diagnosed(self):
        # antisymmetrized and pair-symmetrized, but without the cyclic projection
        rng = np.random.default_rng(11)
        T = rng.integers(-3, 4, size=(4, 4, 4, 4)).astype(float)
        A = T - np.einsum("bacd->abcd", T)
        A = A - np.einsum("abdc->abcd", A)
        S = A + np.einsum("cdab->abcd", A)
        with pytest.raises(CurvatureSymmetryError) as err:
            check_curvature_symmetries(S)
        assert "Bianchi" in str(err.value)


class TestInputValidation:
    @staticmethod
    def _case(name):
        rng = np.random.default_rng(15)
        R2 = random_admissible_curvature(rng, 2)
        R4 = random_admissible_curvature(rng, 4)
        psi2 = random_odd_spinor(rng, L=4, dim=2)
        psi4 = random_odd_spinor(rng, L=4, dim=4)
        if name == "psi dim 2, R dim 4":
            return dict(R=R4, psi=psi2)
        if name == "psi dim 4, R dim 2":
            return dict(R=R2, psi=psi4)
        if name == "one psi row":
            return dict(R=R2, psi=psi2[:1])
        if name == "even entry":
            psi2[1, 0, 0b11] += 1.0
            return dict(R=R2, psi=psi2)
        if name == "mixed generator counts":
            rows = [list(row) for row in psi2]
            rows[0][1] = random_odd_spinor(rng, L=5, dim=1)[0][0]
            return dict(R=R2, psi=rows)
        if name == "mask axis of length 12":
            return dict(R=R2, psi=psi2[:, :, :12])
        if name == "nablaR shape":
            dR = random_admissible_nabla_curvature(rng, 2)[:1]
            return dict(R=R2, psi=psi2, nablaR=dR)
        raise KeyError(name)

    @pytest.mark.parametrize(
        "name, message",
        [
            ("psi dim 2, R dim 4", "R has dimension 4"),
            ("psi dim 4, R dim 2", "R has dimension 2"),
            ("one psi row", "2 rows"),
            ("even entry", "not odd"),
            ("mixed generator counts", "mixes generator counts"),
            ("mask axis of length 12", "not a power of two"),
            ("nablaR shape", "nablaR must have shape"),
        ],
    )
    def test_rejected_with_message(self, name, message):
        with pytest.raises(ValueError, match=message):
            fierz_check(**self._case(name))
