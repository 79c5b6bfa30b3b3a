import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import indexlab_oracle
from indexlab_oracle import dirac01
from sjclab import indexlab as il


def assemble(op):
    """One dense global array of an operator: its blocks down the diagonal, in stack order."""
    out = np.zeros(op.shape, dtype=np.result_type(*op.stacks))
    row = col = 0
    for block in (b for s in op.stacks for b in s):
        out[row : row + block.shape[0], col : col + block.shape[1]] = block
        row, col = row + block.shape[0], col + block.shape[1]
    return out


def single_block(matrix, tag):
    """An operator stored as one block covering both whole bases."""
    return il.OperatorMatrix(stacks=[matrix[None]], tag=tag, is_complex_linear=True)


def conjugate_transpose(op):
    """The operator of the conjugate-transposed blocks: the adjoint, the bases being orthonormal."""
    return il.OperatorMatrix(stacks=[s.conj().swapaxes(1, 2) for s in op.stacks], tag="adjoint", is_complex_linear=True)


def torus_half(n, M, part):
    """The chiral half "10" or "01" of the torus Dirac operator at target rank n, cutoff M."""
    d10, d01 = il.torus_chiral_halves(il.build_dirac_torus(n, M))
    return {"10": d10, "01": d01}[part]


def exact_spectrum(k, M):
    """Nonzero singular values of dbar on O(k) at cutoff M, descending.

    sigma_l = sqrt(l (l + k + 1) / 2) with multiplicity k + 2l + 1, for
    l = max(1, -k)..M: the levels of the round Laplacian on the bundle
    that the level-M box resolves.
    """
    levels = range(max(1, -k), M + 1)
    return np.repeat([np.sqrt(l * (l + k + 1) / 2) for l in levels], [k + 2 * l + 1 for l in levels])[::-1]


class TestOracles:
    def test_h_oracle_examples(self):
        assert il.h_oracle(3) == (4, 0)
        assert il.h_oracle(-1) == (0, 0)
        assert il.h_oracle(-3) == (0, 2)
        assert il.h_oracle(0) == (1, 0)

    def test_euler_characteristic(self):
        for k in range(-6, 7):
            h0, h1 = il.h_oracle(k)
            assert h0 - h1 == k + 1

    def test_closed_form_spectrum(self):
        # the library's closed form, which the index suite checks against, is this file's oracle
        for k in range(-6, 9):
            for M in (abs(k) + 2, abs(k) + 7, 40):
                assert np.array_equal(il.sphere_spectrum(k, M), exact_spectrum(k, M))

    def test_exact_spectrum_counts_the_box(self):
        # rank = dim domain - h0 = dim codomain - h1
        for k in range(-6, 9):
            for M in range(abs(k) + 2, abs(k) + 6):
                h0, h1 = il.h_oracle(k)
                rank = exact_spectrum(k, M).size
                assert rank == (k + M + 1) * (M + 1) - h0 == (k + M + 2) * M - h1


class TestSphereOperators:
    @pytest.mark.parametrize("k", range(-4, 7))
    def test_kernel_matches_oracle(self, k):
        M = abs(k) + 4
        rep = il.numeric_index(il.build_dbar_sphere(k, M))
        h0, h1 = il.h_oracle(k)
        assert rep.kernel_dim == h0
        assert rep.cokernel_dim == h1
        assert rep.conclusive

    @pytest.mark.parametrize("k", [0, 2, 4, 9])
    def test_holomorphic_sections_are_exact_kernel_vectors(self, k):
        # in sector q = 0..k the constant polynomial p_0 is z^q itself: dbar maps it to exactly 0
        M = k + 4
        op = il.build_dbar_sphere(k, M)
        full = [s for s in op.stacks if s.shape[1:] == (M, M + 1)]
        (stack,) = full
        assert stack.shape[0] == k + 1  # the sectors q = 0..k
        assert np.all(stack[:, :, 0] == 0.0)
        assert (np.linalg.svd(stack[:, :, 1:], compute_uv=False) > 0.5).all()

    @pytest.mark.parametrize("k", range(-4, 7))
    def test_sector_positions_tile_both_boxes(self, k):
        # one block per charge q, shaped (codomain monomials of charge q + 1, domain monomials of charge q)
        for M in range(abs(k) + 2, abs(k) + 9):
            op = il.build_dbar_sphere(k, M)
            assert op.shape == ((k + M + 2) * M, (k + M + 1) * (M + 1))
            dom = [a - b for a in range(k + M + 1) for b in range(M + 1)]
            cod = [c - d - 1 for c in range(k + M + 2) for d in range(M)]
            expected = sorted((cod.count(q), dom.count(q)) for q in range(-M, k + M + 1))
            assert sorted(s.shape[1:] for s in op.stacks for _ in s) == expected

    def test_stacks_by_decreasing_size(self):
        op = il.build_dbar_sphere(2, 6)
        sizes = [s.shape[1:] for s in op.stacks]
        assert sizes == sorted(set(sizes), reverse=True)
        # mirror sectors share a shape: q = -1 and q = 3
        assert op.stacks[1].shape == (2, 6, 6)

    def test_cutoff_stability_of_index(self):
        for k in (-3, -1, 0, 2, 4):
            r1 = il.numeric_index(il.build_dbar_sphere(k, abs(k) + 4))
            r2 = il.numeric_index(il.build_dbar_sphere(k, abs(k) + 6))
            assert (r1.kernel_dim, r1.cokernel_dim) == (r2.kernel_dim, r2.cokernel_dim) == il.h_oracle(k)

    def test_dirac10_for_low_degree_maps(self):
        # the twisted bundle is O(2d - 1): h0 = 2d (real 4d), h1 = 0
        for d in (1, 2, 3):
            op = il.build_dirac10_sphere(d, 8 + 2 * d)
            rep = il.numeric_index(op)
            assert (rep.kernel_dim, rep.cokernel_dim) == il.h_oracle(2 * d - 1) == (2 * d, 0)
            assert rep.kernel_dim_real == 4 * d
            assert rep.conclusive

    def test_cutoff_guard(self):
        with pytest.raises(il.IndexLabError):
            il.build_dbar_sphere(3, 2)

    @pytest.mark.parametrize("k,M", [(0, 201), (-5, 10**7), (10**9, 10**9)])
    def test_cutoff_limit_before_any_allocation(self, k, M, monkeypatch):
        def no_rule(n):
            raise AssertionError("quadrature built before the limit check")

        monkeypatch.setattr(il, "_gauss_legendre", no_rule)
        with pytest.raises(il.IndexLabError, match=f"sphere cutoff {M} is above the limit of 200"):
            il.build_dbar_sphere(k, M)

    def test_cutoff_limit_is_inclusive(self):
        # the smallest operator at the limit: O(-198) has one-dimensional sectors
        rep = il.numeric_index(il.build_dbar_sphere(-198, il.SPHERE_CUTOFF_LIMIT))
        assert (rep.kernel_dim, rep.cokernel_dim) == il.h_oracle(-198)


# degrees -4..9 at cutoffs from the smallest admissible one up to 84
EXACT_CASES = [(k, M) for k in range(-4, 10) for M in sorted({abs(k) + 2, abs(k) + 5, 16, 24, 40, 60, 84})]


class TestExactSpectrum:
    @pytest.mark.parametrize("k,M", EXACT_CASES)
    def test_singular_values_and_kernels(self, k, M):
        rep = il.numeric_index(il.build_dbar_sphere(k, M))
        exact = exact_spectrum(k, M)
        sv = rep.singular_values
        smax = exact[0]
        assert sv.shape == (min((k + M + 2) * M, (k + M + 1) * (M + 1)),)
        assert np.abs(sv[: exact.size] - exact).max() <= 1e-12 * smax
        assert np.all(sv[exact.size :] <= 1e-12 * smax)
        assert (rep.kernel_dim, rep.cokernel_dim) == il.h_oracle(k)
        assert rep.conclusive
        assert 0.0 < rep.basis_orthonormality_defect <= 1e-12

    @pytest.mark.parametrize("k,M", [(-1, 8), (-1, 40), (2, 30), (5, 84)])
    def test_dirac01_spectrum(self, k, M):
        rep = il.numeric_index(dirac01(il.build_dbar_sphere(k, M)))
        exact = exact_spectrum(k, M)
        assert np.abs(rep.singular_values[: exact.size] - exact).max() <= 1e-12 * exact[0]
        assert (rep.kernel_dim, rep.cokernel_dim) == il.h_oracle(k)[::-1]


def offdiagonal_norm(stack):
    """Largest Frobenius norm over the blocks of a stack of their entries off the diagonal at offset cols - rows."""
    _, rows, cols = stack.shape
    return np.linalg.norm(np.where(np.eye(rows, cols, cols - rows) == 0, stack, 0.0), axis=(1, 2)).max(initial=0.0)


# degrees -6..8 at cutoffs up to 40, and the two largest operators at the cutoff limit
DIAGONAL_CASES = [(k, M) for k in range(-6, 9) for M in sorted({abs(k) + 2, abs(k) + 5, 16, 40})] + [(0, 200), (198, 200)]


class TestDiagonalRead:
    @pytest.mark.parametrize("k,M", DIAGONAL_CASES)
    def test_blocks_are_diagonals_read_as_their_svd(self, k, M):
        # the part off the diagonal at offset cols - rows is roundoff, and |diagonal| is LAPACK's spectrum
        smax = exact_spectrum(k, M)[0]
        ops = [il.build_dbar_sphere(k, M)] + ([dirac01(il.build_dbar_sphere(k, M))] if M <= 40 else [])
        for op in ops:
            eps = max(offdiagonal_norm(s) for s in op.stacks)
            assert op.offdiagonal_norm == pytest.approx(eps, rel=1e-12, abs=1e-300)
            assert op.offdiagonal_norm <= 1e-11 * smax
            svd = np.sort(np.concatenate([np.linalg.svd(s, compute_uv=False).ravel() for s in op.stacks]))[::-1]
            rep = il.numeric_index(op)
            assert np.abs(rep.singular_values[: svd.size] - svd).max() <= 1e-14 * smax
            assert not rep.singular_values[svd.size :].any()
            assert rep.offdiagonal_norm == op.offdiagonal_norm and rep.conclusive

    def test_dirac01_keeps_the_dbar_norm(self):
        d01 = dirac01(il.build_dbar_sphere(3, 20))
        assert d01.offdiagonal_norm == il.build_dbar_sphere(3, 20).offdiagonal_norm

    def test_torus_operators_carry_none(self):
        full = il.build_dirac_torus(1, 6)
        for op in (full, *il.torus_chiral_halves(full)):
            assert op.offdiagonal_norm is None and il.numeric_index(op).offdiagonal_norm is None

    @pytest.mark.parametrize(
        "build",
        [il.build_dbar_sphere, lambda k, M: dirac01(il.build_dbar_sphere(k, M)), il.build_dirac10_sphere],
        ids=["build_dbar_sphere", "dirac01", "build_dirac10_sphere"],
    )
    def test_sphere_index_takes_no_svd(self, build, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("LAPACK SVD called for a sphere operator")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert il.numeric_index(build(2, 12)).conclusive

    @pytest.mark.parametrize("scale,conclusive", [(0.5, True), (2.0, False)])
    def test_offdiagonal_entry_against_the_cut(self, scale, conclusive, monkeypatch):
        # one entry off the diagonal of each batch's first block, at a multiple of the rank cut
        k, M = 1, 12
        cut = 1e-8 * exact_spectrum(k, M)[0]
        blocks = il._sector_blocks

        def injected(k, M, q, b0, top, nb, nd, nodes):
            padded, err = blocks(k, M, q, b0, top, nb, nd, nodes)
            padded[0, nd[0] - 1, 0] += scale * cut
            return padded, err

        clean = il.build_dbar_sphere(k, M)
        monkeypatch.setattr(il, "_sector_blocks", injected)
        rep = il.numeric_index(il.build_dbar_sphere(k, M))
        assert rep.offdiagonal_norm == pytest.approx(np.hypot(scale * cut, clean.offdiagonal_norm), rel=1e-6)
        assert (rep.kernel_dim, rep.cokernel_dim) == il.h_oracle(k)
        assert rep.kept_margin >= il.GAP_REQUIREMENT and rep.conclusive is conclusive


class TestSectorBases:
    @pytest.mark.parametrize("alpha,beta,size", [(0, 0, 12), (3, 0, 9), (0, 7, 20), (40, 2, 30), (25, 25, 50)])
    def test_orthonormal_under_a_finer_rule(self, alpha, beta, size):
        # the recurrence, not the rule: a rule with 9 more nodes sees the same identity Gram
        for extra in (0, 9):
            n = size + (alpha + beta + 1) // 2 + extra
            t, w = il._gauss_legendre(n)
            nodes = (t, np.log(t), np.log(t[::-1]), np.log(w))
            (basis,) = il._sector_bases(np.array([alpha]), np.array([beta]), np.array([size]), nodes)
            assert np.abs(basis @ basis.T - np.eye(size)).max() <= 1e-13

    @pytest.mark.parametrize("alpha,beta", [(0, 3), (2, 9), (30, 1)])
    def test_mirror_weight_is_the_reflection(self, alpha, beta):
        # the build reads the sector of t^beta (1-t)^alpha off its twin: (-1)^j times the reversed values
        size, n = 10, 10 + (alpha + beta) // 2 + 1
        t, w = il._gauss_legendre(n)
        nodes = (t, np.log(t), np.log(t[::-1]), np.log(w))
        (direct,) = il._sector_bases(np.array([beta]), np.array([alpha]), np.array([size]), nodes)
        (twin,) = il._sector_bases(np.array([alpha]), np.array([beta]), np.array([size]), nodes)
        assert np.abs(direct - twin[:, ::-1] * (-1.0) ** np.arange(size)[:, None]).max() <= 1e-13

    def test_legendre_values(self):
        # alpha = beta = 0: the shifted Legendre polynomials sqrt(2j + 1) P_j(2t - 1)
        t, w = il._gauss_legendre(6)
        nodes = (t, np.log(t), np.log(t[::-1]), np.log(w))
        (basis,) = il._sector_bases(np.zeros(1, int), np.zeros(1, int), np.array([3]), nodes)
        expected = [np.ones_like(t), np.sqrt(3) * (2 * t - 1), np.sqrt(5) * (6 * t * t - 6 * t + 1)]
        for j in range(3):
            assert np.abs(basis[j] / np.sqrt(w) - expected[j]).max() <= 1e-13

    @pytest.mark.parametrize("alpha,beta", [(0, 0), (3, 1), (0, 5), (6, 6)])
    def test_structure_relation(self, alpha, beta):
        # t (1 - t) p_j' = j ((j + beta) / (2j + alpha + beta) - t) p_j + (2j + alpha + beta + 1) c_j p_{j-1},
        # p_j' from the interpolating polynomial through the unrooted values
        size, n = 7, 12
        t, w = il._gauss_legendre(n)
        nodes = (t, np.log(t), np.log(t[::-1]), np.log(w))
        (basis,) = il._sector_bases(np.array([alpha]), np.array([beta]), np.array([size]), nodes)
        p = basis / np.sqrt(w * t**alpha * (1 - t) ** beta)
        _, c = il._jacobi_recurrence(np.array([alpha]), np.array([beta]), size)
        P = np.polynomial.Polynomial
        for j in range(1, size):
            slope = P.fit(t, p[j], j, domain=[0, 1], window=[0, 1]).deriv()(t)
            rhs = j * ((j + beta) / (2 * j + alpha + beta) - t) * p[j] + (2 * j + alpha + beta + 1) * c[0, j] * p[j - 1]
            assert np.abs(t * (1 - t) * slope - rhs).max() <= 1e-9 * np.abs(p[j]).max()

    def test_cached_rule_builds_identical_stacks(self, monkeypatch):
        t, w = il._gauss_legendre(7)
        assert il._gauss_legendre(7)[0] is t
        with pytest.raises(ValueError):
            w[0] = 0.0
        cached = [il.build_dbar_sphere(k, M) for k, M in [(0, 8), (3, 20), (-5, 9)]]
        monkeypatch.setattr(il, "_gauss_legendre", il._gauss_legendre.__wrapped__)
        fresh = [il.build_dbar_sphere(k, M) for k, M in [(0, 8), (3, 20), (-5, 9)]]
        for a, b in zip(cached, fresh):
            assert all(np.array_equal(s, r) for s, r in zip(a.stacks, b.stacks, strict=True))
            assert (a.orthonormality_defect, a.offdiagonal_norm) == (b.orthonormality_defect, b.offdiagonal_norm)

    def test_gauss_legendre_rule(self):
        for n in (1, 2, 7, 40):
            t, w = il._gauss_legendre(n)
            # exact for t^p, p <= 2n - 1: integral 1 / (p + 1)
            for p in range(2 * n):
                assert abs(w @ t**p - 1 / (p + 1)) <= 1e-14

    def test_defect_beyond_the_limit_is_refused(self, monkeypatch):
        monkeypatch.setattr(il, "ORTHONORMALITY_LIMIT", 1e-20)
        with pytest.raises(il.IndexLabError) as err:
            il.build_dbar_sphere(1, 6)
        pattern = r"sphere (domain|codomain) basis of sector q=-?\d+ is not orthonormal: Gram defect \S+ exceeds 1e-20"
        assert re.fullmatch(pattern, str(err.value))

    def test_report_carries_the_defect(self):
        op = il.build_dbar_sphere(3, 20)
        rep = il.numeric_index(op)
        assert rep.basis_orthonormality_defect == op.orthonormality_defect
        assert 0.0 < op.orthonormality_defect <= 1e-13
        d01 = dirac01(il.build_dbar_sphere(3, 20))
        assert d01.orthonormality_defect == op.orthonormality_defect
        assert il.numeric_index(il.build_dirac_torus(1, 6)).basis_orthonormality_defect == 0.0
        for half in il.torus_chiral_halves(il.build_dirac_torus(1, 6)):
            assert 0.0 <= half.orthonormality_defect <= 1e-15


class TestTorusOperators:
    def test_anti_self_adjoint(self):
        A = assemble(il.build_dirac_torus(1, 8))
        assert np.abs(A + A.conj().T).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_kernel_and_index(self, n):
        rep = il.numeric_index(il.build_dirac_torus(n, 6))
        assert rep.kernel_dim == 4 * n
        assert rep.cokernel_dim == 4 * n  # anti-self-adjoint: the cokernel is the kernel

    def test_kernel_matches_fourier_zero_modes(self):
        # the kernel is exactly the k = 0 Fourier block
        op = il.build_dirac_torus(1, 6)
        sv = il.numeric_index(op).singular_values
        zero = (sv <= 1e-12).sum()
        assert zero == 4

    def test_chiral_halves_have_half_kernel(self):
        d10, d01 = il.torus_chiral_halves(il.build_dirac_torus(1, 6))
        assert il.numeric_index(d10).kernel_dim == 2
        assert il.numeric_index(d01).kernel_dim == 2


class TestAdjointRelation:
    @pytest.mark.parametrize("op", [il.build_dbar_sphere(1, 6), il.build_dirac_torus(1, 4)], ids=["sphere", "torus"])
    def test_adjoint_is_the_conjugate_transpose(self, op):
        assert np.array_equal(assemble(conjugate_transpose(op)), assemble(op).conj().T)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("M", [4, 6, 8, 14])
    def test_deviation_equals_the_adjoint_sum(self, n, M):
        # |A^H + B| block by block is |op* + other| of the assembled arrays exactly
        full = il.build_dirac_torus(n, M)
        d10, d01 = il.torus_chiral_halves(full)
        for op, other in ((full, full), (d10, d01), (d01, d10), (d10, d10)):
            summed = float(np.abs(assemble(op).conj().T + assemble(other)).max())
            assert il.adjoint_deviation(op, other) == summed

    @pytest.mark.parametrize("k,M", [(-4, 6), (-1, 6), (0, 8), (1, 6), (3, 12), (6, 30)])
    def test_sphere_dirac01_is_minus_the_transpose(self, k, M):
        dbar, d01 = il.build_dbar_sphere(k, M), dirac01(il.build_dbar_sphere(k, M))
        assert d01.shape == dbar.shape[::-1] and d01.tag == f"D01 O({k})"
        for s, t in zip(dbar.stacks, d01.stacks, strict=True):
            assert np.array_equal(t, -s.conj().swapaxes(-1, -2))
        assert il.adjoint_deviation(dbar, d01) == 0.0
        scale = max(np.abs(s).max() for s in dbar.stacks)
        assert il.adjoint_deviation(dbar, conjugate_transpose(dbar)) == 2 * scale

    def test_adjoint_layout_mismatch_rejected(self):
        with pytest.raises(il.IndexLabError, match="block layouts"):
            il.adjoint_deviation(il.build_dbar_sphere(1, 6), il.build_dbar_sphere(1, 6))


class TestBochnerGap:
    def test_sphere_flat_target_gap_matches_curvature_bound(self):
        rep = il.numeric_index(dirac01(il.build_dbar_sphere(-1, 10)))
        sigma_min = rep.singular_values.min()
        assert rep.kernel_dim == 0
        assert sigma_min > 0.1
        # round normalization: the lowest mode saturates the curvature bound
        # sqrt(s / 4) at scalar curvature s = 2
        assert abs(sigma_min - np.sqrt(0.5)) <= 1e-13

    def test_adjoint_half_has_identical_singular_values(self):
        a = il.numeric_index(il.build_dbar_sphere(-1, 8)).singular_values
        b = il.numeric_index(dirac01(il.build_dbar_sphere(-1, 8))).singular_values
        assert np.abs(a - b).max() <= 1e-13 * a.max()

    def test_torus_flat_target_zero_modes(self):
        rep = il.numeric_index(torus_half(1, 8, "01"))
        assert rep.singular_values.min() <= 1e-12
        assert rep.kernel_dim > 0

    def test_positive_degree_control(self):
        rep = il.numeric_index(il.build_dbar_sphere(3, 9))
        sv = rep.singular_values
        assert rep.kernel_dim == 4 and rep.cokernel_dim == 0
        assert sv[sv > 1e-8 * sv.max()].min() > 0.1


class TestReports:
    def test_inconclusive_flag_on_tiny_gap(self):
        # a singular value just below threshold with one barely above (2.5x the cut)
        # is inconclusive
        op = single_block(np.diag([1.0, 5e-9, 1e-9]).astype(complex), "synthetic")
        rep = il.numeric_index(op, threshold=2e-9)
        assert not rep.conclusive

    def test_inconclusive_on_a_small_kept_margin_with_exact_zero_modes(self):
        # the zero mode is exact, so kept over dropped is unbounded; the kept value 5e-8 is only 5x the cut
        op = single_block(np.diag([1.0, 5e-8, 0.0]).astype(complex), "synthetic")
        rep = il.numeric_index(op)
        assert rep.kept_margin == pytest.approx(5.0)
        assert rep.kernel_dim == 1 and not rep.conclusive
        wide = il.numeric_index(single_block(np.diag([1.0, 1e-4, 0.0]).astype(complex), "synthetic"))
        assert wide.kept_margin == pytest.approx(1e4) and wide.conclusive

    def test_kept_value_near_the_cut_is_inconclusive(self):
        # sigma_1 = sqrt(3/2) is 19x the cut 0.01 * sqrt(40); default thresholds keep ~1e7
        rep = il.numeric_index(il.build_dbar_sphere(1, 8), threshold=0.01)
        assert rep.kernel_dim == 2 and rep.kept_margin < il.GAP_REQUIREMENT and not rep.conclusive
        assert il.numeric_index(il.build_dbar_sphere(1, 8)).kept_margin > 1e7

    def test_real_complex_bookkeeping(self):
        rep = il.numeric_index(il.build_dbar_sphere(2, 6))
        assert rep.kernel_dim_real == 2 * rep.kernel_dim
        assert rep.cokernel_dim_real == 2 * rep.cokernel_dim
        top = il.numeric_index(il.build_dirac_torus(1, 4))
        assert top.kernel_dim_real == top.kernel_dim  # real representation
        assert top.cokernel_dim_real == top.cokernel_dim

    def test_report_dict(self):
        rep = il.numeric_index(il.build_dbar_sphere(1, 6))
        d = rep.as_dict()
        assert (d["kernel_dim"], d["cokernel_dim"]) == (2, 0)
        assert (d["kernel_dim_real"], d["cokernel_dim_real"]) == (4, 0)
        # no rank-independent bookkeeping: the index ndom - ncod is a shape count
        assert not any("index" in key for key in d)
        assert d["basis_orthonormality_defect"] == rep.basis_orthonormality_defect
        assert d["offdiagonal_norm"] == rep.offdiagonal_norm <= 1e-13
        assert "kept_margin" in d and not any(key.startswith("gram_") for key in d)
        assert "singular_gap_ratio" not in d

    @settings(max_examples=300, deadline=None)
    @given(
        top=st.floats(0.0, 1e6),
        threshold=st.floats(1e-300, 1.0),
        free=st.lists(st.floats(0.0, 1.0), max_size=8),
        at_cut=st.lists(st.sampled_from([0.0, 1.0, 1.0 + 2**-52, 1e3 * (1 - 2**-52), 1e3, 1e3 * (1 + 2**-52)]), max_size=6),
    )
    def test_kept_margin_rule_is_the_two_part_decision(self, top, threshold, free, at_cut):
        # every dropped value lies at or below a cut of at least 1e-300, so the gap ratio never decides;
        # the spectrum: its largest value top, fractions of it (0 among them), and multiples of the cut
        cut = threshold * max(top, 1.0)
        sv = np.sort([top] + [top * f for f in free] + [cut * m for m in at_cut if cut * m <= top])[::-1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(il, "_singular_values", lambda op: sv)
            rep = il.numeric_index(single_block(np.zeros((sv.size, sv.size)), "spectrum"), threshold=threshold)
        assert rep.conclusive == indexlab_oracle.two_part_conclusive(sv, threshold)

    def test_kept_margin_finite_with_exact_zero_modes(self):
        rep = il.numeric_index(il.build_dirac_torus(1, 6))
        sv = rep.singular_values
        assert (sv == 0.0).sum() == 4  # the k = 0 block is exactly zero
        cut = 1e-8 * sv.max()
        assert rep.kept_margin == sv[sv > cut].min() / cut
        assert np.isfinite(rep.kept_margin) and rep.kept_margin > 1.0


# -- the monomial-Gram engine at cutoffs <= 16 ---------------------------------------
#
# The operators as one dense global matrix each over the monomial boxes
# (``indexlab_oracle``), with one whitened global SVD.  Whitening amplifies
# roundoff by the Gram condition number, so the agreement is
# max(1e-12, eps * cond) * smax.

SPHERE_CASES = [(k, M) for k in range(-4, 7) for M in sorted({abs(k) + 2, abs(k) + 5, 12, 16})]
ORACLE_CASES = (
    [(f"dbar O({k}) M={M}", lambda k=k, M=M: il.build_dbar_sphere(k, M),
      lambda k=k, M=M: indexlab_oracle.dense_dbar(k, M)) for k, M in SPHERE_CASES]
    + [(f"D01 O({k}) M={M}", lambda k=k, M=M: dirac01(il.build_dbar_sphere(k, M)),
        lambda k=k, M=M: indexlab_oracle.dense_dirac01(k, M))
       for k, M in [(-3, 6), (-1, 8), (0, 10), (2, 8)]]
    + [(f"D10 d={d} M={M}", lambda d=d, M=M: il.build_dirac10_sphere(d, M),
        lambda d=d, M=M: indexlab_oracle.dense_dbar(2 * d - 1, M)) for d, M in [(1, 10), (2, 12), (3, 14)]]
    + [(f"torus n={n} M={M}", lambda n=n, M=M: il.build_dirac_torus(n, M),
        lambda n=n, M=M: indexlab_oracle.dense_torus(n, M)) for n in (1, 2) for M in (4, 6, 8)]
    + [(f"D{p} torus n={n} M={M}", lambda n=n, M=M, p=p: torus_half(n, M, p),
        lambda n=n, M=M, p=p: indexlab_oracle.dense_torus_chiral(n, M, p))
       for n in (1, 2) for M in (4, 6, 8) for p in ("10", "01")]
)
TORUS_CASES = [case for case in ORACLE_CASES if "torus" in case[0]]

# The sphere requests of the benchmark's index workload (degree, cutoff); a
# request of degree d >= 1 also builds the holomorphic Dirac half at cutoff + 2d.
BENCH_SPHERE = [
    (-2, 8), (-1, 16), (0, 12), (0, 20), (1, 8), (1, 16), (2, 8), (2, 12), (3, 8),
    (4, 8), (5, 8), (-2, 20), (-1, 8), (0, 8), (1, 12), (-2, 12), (0, 16), (-1, 12), (1, 10), (-2, 10), (0, 10), (-1, 10),
    (1, 24), (-1, 28), (3, 24), (-2, 26),
]


class TestAgainstMonomialGramEngine:
    @pytest.mark.parametrize("name,build,oracle", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_index_and_singular_values(self, name, build, oracle):
        op = build()
        A, gd, gc = oracle()
        rep = il.numeric_index(op)
        kernel, coker, sv = indexlab_oracle.dense_index(A, gd, gc)
        assert op.shape == A.shape
        assert (rep.kernel_dim, rep.cokernel_dim) == (kernel, coker)
        assert rep.singular_values.shape == sv.shape
        cond = indexlab_oracle.unit_diagonal_condition(gd, gc)
        tol = max(1e-12, np.finfo(float).eps * cond) * sv.max()
        assert np.abs(rep.singular_values - np.sort(sv)[::-1]).max() <= tol

    @pytest.mark.parametrize("name,build,oracle", TORUS_CASES, ids=[c[0] for c in TORUS_CASES])
    def test_assembled_torus_arrays(self, name, build, oracle):
        A, _, _ = oracle()
        assert np.abs(assemble(build()) - A).max() <= 1e-12 * np.abs(A).max()

    def test_benchmark_sphere_operators(self):
        # every operator of the benchmark's sphere requests, up to cutoff 30
        for degree, cutoff in BENCH_SPHERE:
            ops = [(degree, cutoff)] + ([(2 * degree - 1, cutoff + 2 * degree)] if degree >= 1 else [])
            for k, M in ops:
                rep = il.numeric_index(il.build_dbar_sphere(k, M))
                exact = exact_spectrum(k, M)
                assert (rep.kernel_dim, rep.cokernel_dim) == il.h_oracle(k), (k, M)
                assert np.abs(rep.singular_values[: exact.size] - exact).max() <= 1e-12 * exact[0], (k, M)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("M", [4, 6, 8])
    def test_torus_mode_singular_values_closed_form(self, n, M):
        for op, mult in ((il.build_dirac_torus(n, M), 4 * n),
                         (torus_half(n, M, "10"), 2 * n),
                         (torus_half(n, M, "01"), 2 * n)):
            (stack,) = op.stacks
            sv = np.linalg.svd(stack, compute_uv=False)
            modes = il._torus_modes(M)
            expected = 2 * np.pi * np.hypot(modes[:, 0], modes[:, 1])
            assert sv.shape == (M * M, mult)
            assert np.abs(sv - expected[:, None]).max() <= 1e-14 * expected.max()

    @pytest.mark.parametrize("n,M", [(1, 4), (1, 8), (2, 6)])
    def test_torus_singular_values_are_the_stack_svd(self, n, M):
        # one SVD per block shape: the torus stacks go to LAPACK as they are
        full = il.build_dirac_torus(n, M)
        for op in (full, *il.torus_chiral_halves(full)):
            (stack,) = op.stacks
            direct = np.sort(np.linalg.svd(stack, compute_uv=False).ravel())[::-1]
            assert np.array_equal(il.numeric_index(op).singular_values, direct)
