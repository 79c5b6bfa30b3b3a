import math
import sys

import numpy as np
import pytest

import indexlab_oracle
from sjclab import indexlab as il
from sjclab.spin import GAMMA


def assemble(op, part="matrix"):
    """One dense global array of an operator from its blocks: the matrix or a Gram matrix."""
    rows, cols = {"matrix": ("cod", "dom"), "gram_domain": ("dom", "dom"), "gram_codomain": ("cod", "cod")}[part]
    size = {"cod": op.shape[0], "dom": op.shape[1]}
    blocks = [getattr(s, part) for s in op.stacks]
    out = np.zeros((size[rows], size[cols]), dtype=np.result_type(*blocks))
    for s, blk in zip(op.stacks, blocks):
        out[getattr(s, rows)[:, :, None], getattr(s, cols)[:, None, :]] = blk
    return out


def single_block(matrix, gram_domain, gram_codomain, tag):
    """An operator stored as one block covering both whole bases."""
    rows, cols = matrix.shape
    stack = il.BlockStack(
        matrix[None], gram_domain[None], gram_codomain[None], np.arange(cols)[None], np.arange(rows)[None], [tag]
    )
    return il.OperatorMatrix(stacks=[stack], tag=tag, is_complex_linear=True)


def torus_half(n, M, part):
    """The chiral half "10" or "01" of the torus Dirac operator at target rank n, cutoff M."""
    d10, d01 = il.torus_chiral_halves(il.build_dirac_torus(n, M))
    return {"10": d10, "01": d01}[part]


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

    def test_formula_values(self):
        assert il.riemann_roch(3, 0, 0) == 6
        assert il.riemann_roch(2, 1, 0) == 0
        assert il.dirac10_index(2) == 4
        # the degree-1 sphere-to-sphere holomorphic Dirac half twists the
        # tangent pullback (c1 = 2) by the dual spinor bundle (c1 = -1)
        assert il.riemann_roch(1, 0, 2 - 1) == il.dirac10_index(2) == 4
        assert il.riemann_roch(1, 0, 2) == 6  # untwisted rank-1 operator


class TestSphereOperators:
    @pytest.mark.parametrize("k", range(-4, 7))
    def test_kernel_matches_oracle(self, k):
        M = abs(k) + 4
        rep = il.numeric_index(il.build_dbar_sphere(k, M))
        h0, h1 = il.h_oracle(k)
        assert rep.kernel_dim == h0
        assert rep.cokernel_dim == h1
        assert rep.conclusive
        assert rep.numeric_index_real == il.riemann_roch(1, 0, k)

    def test_exact_kernel_representatives(self):
        for k in (0, 2, 4):
            M = k + 4
            op = il.build_dbar_sphere(k, M)
            # z^a0 expands as sum_j binom(M, j) e_{a0+j, j}, at position a (M + 1) + b
            vecs = np.zeros((k + 1, op.shape[1]))
            for a0 in range(k + 1):
                for j in range(M + 1):
                    vecs[a0, (a0 + j) * (M + 1) + j] = math.comb(M, j)
            assert np.abs(assemble(op) @ vecs.T).max() == 0.0

    @pytest.mark.parametrize("k", range(-4, 7))
    def test_sector_positions_tile_both_boxes(self, k):
        for M in range(abs(k) + 2, abs(k) + 9):
            op = il.build_dbar_sphere(k, M)
            assert op.shape == ((k + M + 2) * M, (k + M + 1) * (M + 1))
            dom = np.concatenate([s.dom.ravel() for s in op.stacks])
            cod = np.concatenate([s.cod.ravel() for s in op.stacks])
            assert np.array_equal(np.sort(dom), np.arange(op.shape[1]))
            assert np.array_equal(np.sort(cod), np.arange(op.shape[0]))

    def test_cutoff_stability_of_index(self):
        for k in (-3, -1, 0, 2, 4):
            r1 = il.numeric_index(il.build_dbar_sphere(k, abs(k) + 4))
            r2 = il.numeric_index(il.build_dbar_sphere(k, abs(k) + 6))
            assert r1.numeric_index == r2.numeric_index

    def test_dirac10_for_low_degree_maps(self):
        for d in (1, 2, 3):
            op = il.build_dirac10_sphere(d, 8 + 2 * d)
            rep = il.numeric_index(op)
            assert rep.numeric_index_real == 4 * d
            assert rep.kernel_dim == 2 * d
            assert rep.cokernel_dim == 0

    def test_cutoff_guard(self):
        with pytest.raises(il.IndexLabError):
            il.build_dbar_sphere(3, 2)


class TestTorusOperators:
    def test_anti_self_adjoint(self):
        A = assemble(il.build_dirac_torus(1, 8))
        assert np.abs(A + A.conj().T).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_kernel_and_index(self, n):
        rep = il.numeric_index(il.build_dirac_torus(n, 6), formula_index=0)
        assert rep.kernel_dim == 4 * n
        assert rep.numeric_index == 0

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
    def test_gram_adjoint_is_honest(self):
        # <A v, w>_cod = <v, A* w>_dom for random vectors
        rng = np.random.default_rng(0)
        op = il.build_dbar_sphere(1, 6)
        A, gd, gc = (assemble(op, part) for part in ("matrix", "gram_domain", "gram_codomain"))
        a_star = assemble(op.adjoint())
        for _ in range(5):
            v = rng.standard_normal(A.shape[1])
            w = rng.standard_normal(A.shape[0])
            lhs = (A @ v).conj() @ gc @ w
            rhs = v.conj() @ gd @ (a_star @ w)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("M", [4, 6, 8, 14])
    def test_deviation_equals_solve_route_bit_for_bit(self, n, M):
        # with identity Grams, A^H Gc + Gd B is Gd^-1 A^H Gc + B exactly
        full = il.build_dirac_torus(n, M)
        d10, d01 = il.torus_chiral_halves(full)
        for op, other in ((full, full), (d10, d01), (d01, d10), (d10, d10)):
            solved = max(float(np.abs(s.matrix + t.matrix).max()) for s, t in zip(op.adjoint().stacks, other.stacks))
            assert il.adjoint_deviation(op, other) == solved

    @pytest.mark.parametrize("k,M", [(-1, 6), (0, 8), (1, 6), (3, 12)])
    def test_sphere_dirac01_is_minus_the_adjoint(self, k, M):
        dbar, d01 = il.build_dbar_sphere(k, M), il.build_dirac01_sphere(k, M)
        scale = max(np.abs(il._herm(s.matrix) @ s.gram_codomain).max() for s in dbar.stacks)
        assert il.adjoint_deviation(dbar, d01) <= 1e-14 * scale
        plus = il.OperatorMatrix(stacks=dbar.adjoint().stacks, tag="+dbar*", is_complex_linear=True)
        assert il.adjoint_deviation(dbar, plus) == pytest.approx(2 * scale, rel=1e-12)


class TestBochnerGap:
    def test_sphere_flat_target_gap_matches_curvature_bound(self):
        rep = il.numeric_index(il.build_dirac01_sphere(-1, 10))
        sigma_min = rep.singular_values.min()
        assert rep.kernel_dim == 0
        assert sigma_min > 0.1
        # round normalization: the lowest mode saturates the curvature bound
        # sqrt(s / 4) at scalar curvature s = 2
        assert abs(sigma_min - np.sqrt(0.5)) <= 1e-9

    def test_adjoint_half_has_identical_singular_values(self):
        a = il.numeric_index(il.build_dbar_sphere(-1, 8)).singular_values
        b = il.numeric_index(il.build_dirac01_sphere(-1, 8)).singular_values
        assert np.abs(a - b).max() <= 1e-10

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
        # a singular value just below threshold with one barely above trips
        # the gap sanity requirement
        mat = np.diag([1.0, 5e-9, 1e-9])
        op = single_block(mat.astype(complex), np.eye(3), np.eye(3), "synthetic")
        rep = il.numeric_index(op, threshold=2e-9)
        assert not rep.conclusive

    def test_real_complex_bookkeeping(self):
        rep = il.numeric_index(il.build_dbar_sphere(2, 6))
        assert rep.kernel_dim_real == 2 * rep.kernel_dim
        assert rep.numeric_index_real == 2 * rep.numeric_index
        top = il.numeric_index(il.build_dirac_torus(1, 4))
        assert top.kernel_dim_real == top.kernel_dim  # real representation

    def test_ill_conditioned_gram_rejected(self):
        g = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        op = single_block(np.eye(2, dtype=complex), g, np.eye(2), "bad")
        with pytest.raises(il.IndexLabError):
            il.numeric_index(op)

    def test_report_dict(self):
        rep = il.numeric_index(il.build_dbar_sphere(1, 6), formula_index=4)
        d = rep.as_dict()
        assert d["formula_index"] == 4
        assert d["numeric_index_real"] == 4


# -- dense global oracle -----------------------------------------------------------
#
# The operators as one dense global matrix each, the reference the block
# engine is compared against: a Python double loop for the Gram matrices,
# a global loop for dbar, np.kron per torus mode, and one normalized,
# whitened global SVD.


def dense_gram(monomials, s, scale):
    size = len(monomials)
    g = np.zeros((size, size))
    for i, (a, b) in enumerate(monomials):
        for j, (c, d) in enumerate(monomials):
            if a - b != c - d:
                continue
            p = (a + b + c + d) // 2
            g[i, j] = scale * il._radial_integral(p, s)
    return g


def dense_dbar(k, M):
    # the level-M domain box and the level-(M+1) codomain box, row-major
    dom = [(a, b) for a in range(k + M + 1) for b in range(M + 1)]
    cod = [(c, d) for c in range(k + M + 2) for d in range(M)]
    cod_index = {mon: i for i, mon in enumerate(cod)}
    A = np.zeros((len(cod), len(dom)), dtype=complex)
    for j, (a, b) in enumerate(dom):
        if b > 0:
            A[cod_index[(a, b - 1)], j] += b
        if b - M != 0:
            A[cod_index[(a + 1, b)], j] += b - M
    s = 2 * M + k + 2
    gd = dense_gram(dom, s, 4.0 * 2.0 ** (k / 2.0))
    gc = dense_gram(cod, s, 2.0 * 2.0 ** (k / 2.0))
    return A, gd, gc


def dense_dirac01(k, M):
    A, gd, gc = dense_dbar(k, M)
    return -np.linalg.solve(gd, A.conj().T @ gc), gc, gd


def dense_torus(n, M):
    freqs = np.fft.fftfreq(M, d=1.0 / M).astype(int)
    modes = [(int(k1), int(k2)) for k1 in freqs for k2 in freqs]
    w = 4 * n
    A = np.zeros((len(modes) * w, len(modes) * w), dtype=complex)
    for i, (k1, k2) in enumerate(modes):
        block = -2j * np.pi * (k1 * GAMMA[0] + k2 * GAMMA[1])
        A[i * w : (i + 1) * w, i * w : (i + 1) * w] = np.kron(block, np.eye(2 * n))
    return A, np.eye(A.shape[1]), np.eye(A.shape[0])


def dense_torus_chiral(n, M, part):
    A, _, _ = dense_torus(n, M)
    b10, b01 = il._chirality_bases(n)
    modes = M * M
    big10, big01 = np.kron(np.eye(modes), b10), np.kron(np.eye(modes), b01)
    if part == "10":
        A = big01.conj().T @ A @ big10
    else:
        A = big10.conj().T @ A @ big01
    return A, np.eye(A.shape[1]), np.eye(A.shape[0])


def dense_gate(gd, gc):
    """True when the global normalized Gram matrices pass the 1e14 gate."""
    sd, sc = np.sqrt(np.diag(gd)), np.sqrt(np.diag(gc))
    ed = np.linalg.eigvalsh(gd / np.outer(sd, sd))
    ec = np.linalg.eigvalsh(gc / np.outer(sc, sc))
    return not (ed.min() <= 0 or ec.min() <= 0 or ed.max() / ed.min() > 1e14 or ec.max() / ec.min() > 1e14)


def dense_index(A, gd, gc, threshold=1e-8):
    """(kernel, cokernel, descending singular values) from one global SVD."""
    sd, sc = np.sqrt(np.diag(gd)), np.sqrt(np.diag(gc))
    a = A * sc[:, None] / sd[None, :]
    ld = np.linalg.cholesky(gd / np.outer(sd, sd))
    lc = np.linalg.cholesky(gc / np.outer(sc, sc))
    sv = np.linalg.svd(lc.conj().T @ a @ np.linalg.inv(ld.conj().T), compute_uv=False)
    rank = int((sv > threshold * max(sv.max(), 1.0)).sum()) if sv.size else 0
    return A.shape[1] - rank, A.shape[0] - rank, sv


# (name, block operator, dense oracle) constructors per case
SPHERE_CASES = [(k, M) for k in range(-4, 7) for M in sorted({abs(k) + 2, abs(k) + 5, 12})]
ORACLE_CASES = (
    [(f"dbar O({k}) M={M}", lambda k=k, M=M: il.build_dbar_sphere(k, M), lambda k=k, M=M: dense_dbar(k, M))
     for k, M in SPHERE_CASES]
    + [(f"D01 O({k}) M={M}", lambda k=k, M=M: il.build_dirac01_sphere(k, M), lambda k=k, M=M: dense_dirac01(k, M))
       for k, M in [(-3, 6), (-1, 8), (0, 10), (2, 8)]]
    + [(f"D10 d={d} M={M}", lambda d=d, M=M: il.build_dirac10_sphere(d, M),
        lambda d=d, M=M: dense_dbar(2 * d - 1, M)) for d, M in [(1, 10), (2, 12), (3, 14)]]
    + [(f"torus n={n} M={M}", lambda n=n, M=M: il.build_dirac_torus(n, M), lambda n=n, M=M: dense_torus(n, M))
       for n in (1, 2) for M in (4, 6, 8)]
    + [(f"D{p} torus n={n} M={M}", lambda n=n, M=M, p=p: torus_half(n, M, p),
        lambda n=n, M=M, p=p: dense_torus_chiral(n, M, p))
       for n in (1, 2) for M in (4, 6, 8) for p in ("10", "01")]
)

# The sphere requests of the benchmark's index workload (degree, cutoff); a
# request of degree d >= 1 also builds the holomorphic Dirac half at cutoff + 2d.
BENCH_SPHERE = [
    (-2, 8), (-1, 16), (0, 12), (0, 20), (1, 8), (1, 16), (2, 8), (2, 12), (3, 8),
    (4, 8), (5, 8), (-2, 20), (-1, 8), (0, 8), (1, 12), (-2, 12), (0, 16), (-1, 12), (1, 10), (-2, 10), (0, 10), (-1, 10),
    (1, 24), (-1, 28), (3, 24), (-2, 26),
]


def _bench_sphere_operators(degree, cutoff):
    """(k, M) of the dbar operators one sphere index request builds."""
    return [(degree, cutoff)] + ([(2 * degree - 1, cutoff + 2 * degree)] if degree >= 1 else [])


class TestBlockEngineAgainstDenseOracle:
    @pytest.mark.parametrize("name,build,oracle", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_index_and_singular_values(self, name, build, oracle):
        op = build()
        A, gd, gc = oracle()
        rep = il.numeric_index(op)
        kernel, coker, sv = dense_index(A, gd, gc)
        assert (rep.kernel_dim, rep.cokernel_dim) == (kernel, coker)
        assert rep.numeric_index == kernel - coker
        assert rep.singular_values.shape == sv.shape
        # Whitening amplifies roundoff by the Gram condition number in both
        # computations (each is off from the exact sqrt-of-half-integer sphere
        # values by ~eps * cond), so the agreement is 1e-12 * smax only while
        # eps * cond stays below 1e-12.
        cond = max(rep.gram_domain_condition, rep.gram_codomain_condition)
        tol = max(1e-12, np.finfo(float).eps * cond) * sv.max()
        assert np.abs(rep.singular_values - np.sort(sv)[::-1]).max() <= tol

    @pytest.mark.parametrize("name,build,oracle", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_assembled_dense_arrays(self, name, build, oracle):
        op = build()
        A, gd, gc = oracle()
        assert op.shape == A.shape
        # the Gram matrices come from the same radial integrals: bit for bit
        assert np.array_equal(assemble(op, "gram_domain"), gd)
        assert np.array_equal(assemble(op, "gram_codomain"), gc)
        # D01 is a solve with the raw Gram matrix, whose roundoff scales with
        # its condition (the dense solve leaks it into cross-sector entries
        # that the per-sector solve keeps at exactly 0)
        cond = max(np.linalg.cond(gd), np.linalg.cond(gc))
        tol = max(1e-12, np.finfo(float).eps * cond) * np.abs(A).max()
        assert np.abs(assemble(op) - A).max() <= tol

    @pytest.mark.parametrize("k,M", SPHERE_CASES)
    def test_dbar_matrix_exact(self, k, M):
        assert np.array_equal(assemble(il.build_dbar_sphere(k, M)), dense_dbar(k, M)[0])

    @pytest.mark.parametrize("k,M", [(-4, 6), (0, 3), (1, 16), (3, 24), (-1, 28), (5, 30)])
    def test_table_gram_equals_double_loop(self, k, M):
        op = il.build_dbar_sphere(k, M)
        _, gd, gc = dense_dbar(k, M)
        assert np.array_equal(assemble(op, "gram_domain"), gd)
        assert np.array_equal(assemble(op, "gram_codomain"), gc)

    def test_gate_decision_on_benchmark_sphere_operators(self):
        rejected = []
        for degree, cutoff in BENCH_SPHERE:
            for k, M in _bench_sphere_operators(degree, cutoff):
                _, gd, gc = dense_dbar(k, M)
                try:
                    il.numeric_index(il.build_dbar_sphere(k, M))
                    passed = True
                except il.IndexLabError:
                    passed = False
                assert passed == dense_gate(gd, gc), (k, M)
                if not passed:
                    rejected.append((degree, cutoff))
        # exactly the four large-cutoff requests are rejected
        assert sorted(set(rejected)) == [(-2, 26), (-1, 28), (1, 24), (3, 24)]

    def test_closest_configuration_to_the_gate(self):
        # dbar O(1) at cutoff 24: domain condition 1.097e14 against the 1e14 gate
        with pytest.raises(il.IndexLabError, match=r"domain condition 1\.09\d*e\+14"):
            il.numeric_index(il.build_dbar_sphere(1, 24))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("M", [4, 6, 8])
    def test_torus_mode_singular_values_closed_form(self, n, M):
        for op, mult in ((il.build_dirac_torus(n, M), 4 * n),
                         (torus_half(n, M, "10"), 2 * n),
                         (torus_half(n, M, "01"), 2 * n)):
            (stack,) = op.stacks
            sv = np.linalg.svd(stack.matrix, compute_uv=False)
            modes = il._torus_modes(M)
            expected = 2 * np.pi * np.hypot(modes[:, 0], modes[:, 1])
            assert sv.shape == (M * M, mult)
            assert np.abs(sv - expected[:, None]).max() <= 1e-14 * expected.max()

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("M", [4, 6, 8])
    def test_torus_stacks_skip_the_identity_whitening(self, n, M):
        # both Grams are the shared identity, so the unit-norm rescale and the
        # Cholesky whitening would multiply by 1: the blocks go to the SVD as
        # they are, with the singular values of the full path bit for bit
        for op in (il.build_dirac_torus(n, M), torus_half(n, M, "10"), torus_half(n, M, "01")):
            (stack,) = op.stacks
            a, gd, gc = stack.normalized()
            assert a is stack.matrix and gd is stack.gram_domain and gc is stack.gram_codomain
            ld, lc = np.linalg.cholesky(gd), np.linalg.cholesky(gc)
            w = lc.conj().swapaxes(-1, -2) @ a @ np.linalg.inv(ld.conj().swapaxes(-1, -2))
            full = np.sort(np.linalg.svd(w, compute_uv=False).ravel())[::-1]
            assert np.array_equal(il._singular_values(op, [(a, gd, gc)]), full)

    def test_adjoint_layout_mismatch_rejected(self):
        with pytest.raises(il.IndexLabError, match="block layouts"):
            il.adjoint_deviation(il.build_dbar_sphere(1, 6), il.build_dbar_sphere(1, 6))


# -- one-pass build and size-batched factorisations against the per-sector oracle --

STACK_FIELDS = ("matrix", "gram_domain", "gram_codomain", "dom", "cod")


def same_bytes(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def gate_or_error(gate, op, normalized):
    try:
        return gate(op, normalized)
    except il.IndexLabError as err:
        return str(err)


def report_or_error(op):
    try:
        return il.numeric_index(op)
    except il.IndexLabError as err:
        return str(err)


class TestOnePassAgainstPerSectorOracle:
    @pytest.mark.parametrize("k", range(-5, 8))
    def test_sectors_byte_equal(self, k):
        for M in range(abs(k) + 2, 31):
            op, ref = il.build_dbar_sphere(k, M), indexlab_oracle.build_dbar_sphere(k, M)
            assert (op.tag, op.shape, op.is_complex_linear) == (ref.tag, ref.shape, ref.is_complex_linear)
            assert [s.labels for s in op.stacks] == [s.labels for s in ref.stacks], (k, M)
            for s, t in zip(op.stacks, ref.stacks):
                for field in STACK_FIELDS:
                    assert same_bytes(getattr(s, field), getattr(t, field)), (k, M, field, s.labels)

    @pytest.mark.parametrize("k", range(-5, 8))
    def test_index_steps_byte_equal(self, k):
        # both Dirac halves: dbar, and D01 with the sides of every Gram swapped
        for M in range(abs(k) + 2, 31):
            for op in (il.build_dbar_sphere(k, M), il.build_dirac01_sphere(k, M)):
                self.check_against_per_stack_calls(op)

    @pytest.mark.parametrize("n,M", [(1, 4), (1, 8), (2, 6)])
    def test_torus_index_steps_byte_equal(self, n, M):
        full = il.build_dirac_torus(n, M)
        for op in (full, *il.torus_chiral_halves(full)):
            self.check_against_per_stack_calls(op)

    @staticmethod
    def check_against_per_stack_calls(op):
        per_stack = [indexlab_oracle.normalized(s) for s in op.stacks]
        batched = il._normalized(op.stacks)
        assert all(same_bytes(u, v) for s, x in zip(op.stacks, per_stack) for u, v in zip(s.normalized(), x))
        for x, y in zip(per_stack, batched, strict=True):
            assert all(same_bytes(u, v) for u, v in zip(x, y)), op.tag
        expected = gate_or_error(indexlab_oracle.gram_gate, op, per_stack)
        assert gate_or_error(il._gram_gate, op, batched) == expected
        rep = report_or_error(op)
        if isinstance(expected, str):
            assert rep == expected  # the same "ill-conditioned Gram matrix" message
            return
        sv = indexlab_oracle.singular_values(op, per_stack)
        assert same_bytes(rep.singular_values, sv), op.tag
        got = (rep.gram_domain_condition, rep.gram_codomain_condition, rep.gram_worst_block, rep.gram_worst_condition)
        assert [x.hex() if isinstance(x, float) else x for x in got] == [
            x.hex() if isinstance(x, float) else x for x in expected
        ]

    def test_indefinite_gram_fails_the_gate_before_any_cholesky(self):
        # eigenvalues 3 and -1: a Cholesky factorisation would raise LinAlgError,
        # so this error proves the gate ran first, over every block of both sides
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        broken = il.BlockStack(
            np.ones((1, 2, 2), dtype=complex), np.eye(2)[None], bad[None],
            np.array([[0, 1]]), np.array([[0, 1]]), ["synthetic block"],
        )
        stacks = [*il.build_dbar_sphere(1, 6).stacks, broken]
        op = il.OperatorMatrix(stacks=stacks, tag="indefinite", is_complex_linear=True)
        with pytest.raises(il.IndexLabError) as err:
            il.numeric_index(op)
        assert str(err.value).startswith("ill-conditioned Gram matrix: codomain condition inf exceeds 1e+14")
        assert str(err.value).endswith("worst block: codomain Gram of synthetic block (condition inf)")


class TestObservability:
    def test_sphere_report_conditioning(self):
        rep = il.numeric_index(il.build_dbar_sphere(1, 16))
        _, gd, gc = dense_dbar(1, 16)
        for cond, g in ((rep.gram_domain_condition, gd), (rep.gram_codomain_condition, gc)):
            s = np.sqrt(np.diag(g))
            assert abs(cond - np.linalg.cond(g / np.outer(s, s))) <= 1e-3 * cond
        assert rep.gram_worst_block.startswith(("domain Gram of sector q=", "codomain Gram of sector q="))
        assert 1.0 <= rep.gram_worst_condition <= max(rep.gram_domain_condition, rep.gram_codomain_condition)
        d = rep.as_dict()
        for key in ("gram_domain_condition", "gram_codomain_condition", "gram_worst_block",
                    "gram_worst_condition", "kept_margin"):
            assert key in d

    def test_kept_margin_finite_with_exact_zero_modes(self):
        rep = il.numeric_index(il.build_dirac_torus(1, 6))
        sv = rep.singular_values
        assert (sv == 0.0).sum() == 4  # the k = 0 block is exactly zero
        cut = 1e-8 * sv.max()
        assert rep.kept_margin == sv[sv > cut].min() / cut
        assert np.isfinite(rep.kept_margin) and rep.kept_margin > 1.0
        assert rep.gram_worst_block == "domain Gram of mode (0,0)" and rep.gram_worst_condition == 1.0

    def test_gram_error_names_worst_sector(self):
        with pytest.raises(il.IndexLabError) as err:
            il.numeric_index(il.build_dbar_sphere(-1, 28))
        msg = str(err.value)
        assert msg.startswith("ill-conditioned Gram matrix: ")
        assert "worst block: " in msg and "Gram of sector q=" in msg and "(condition " in msg

    def test_radial_integral_overflow_is_an_index_error(self):
        with pytest.raises(il.IndexLabError, match="overflow double precision"):
            il.build_dbar_sphere(0, 90)

    def test_radial_integral_limit_is_the_last_finite_factorial(self, monkeypatch):
        # (s - 1)! is the largest factorial of the closed form: 170! is a double, 171! is not
        assert math.isfinite(float(math.factorial(il._FACTORIAL_LIMIT)))
        assert math.factorial(il._FACTORIAL_LIMIT + 1) > sys.float_info.max
        assert math.isfinite(il._radial_integral(0, 171)) and math.isfinite(il._radial_integral(169, 171))
        # degrees 0 and 1 build at cutoff 84 (s = 170, 171); no degree k >= 0 builds at cutoff 85
        assert il.build_dbar_sphere(0, 84).shape and il.build_dbar_sphere(1, 84).shape
        for k in range(0, 4):
            with pytest.raises(il.IndexLabError, match=rf"r\^0 \(1\+r\^2\)\^-{2 * 85 + k + 2} is not"):
                il.build_dbar_sphere(k, 85)

        # past the limit no factorial is taken, however large the exponent
        def no_factorial(n):
            raise AssertionError(f"factorial({n}) taken")

        monkeypatch.setattr(math, "factorial", no_factorial)
        for s in (172, 6_000_002):
            with pytest.raises(il.IndexLabError, match=rf"r\^0 \(1\+r\^2\)\^-{s} is not representable"):
                il._radial_integral(0, s)
