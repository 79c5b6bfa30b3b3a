import numpy as np
import pytest

from sjclab import spin
from sjclab.spin import (
    EPS_LOWER,
    EPS_UPPER,
    GAMMA,
    GAMMA_EPS,
    IFRAME,
    ISPIN,
    PMAT,
    QMAT,
    SignedMatrix,
    clifford_deviation,
    delta_gamma,
    gamma_sandwich_deviation,
    project_pq_pointwise,
    project_q,
)


def test_clifford_relation():
    assert clifford_deviation() == 0.0


def test_spinor_complex_structure():
    assert np.array_equal(GAMMA[0] @ GAMMA[1], ISPIN)
    assert np.array_equal(ISPIN @ ISPIN, -np.eye(2))
    assert np.array_equal(IFRAME @ IFRAME, -np.eye(2))


def test_gamma_sandwich_vanishes_in_2d():
    assert gamma_sandwich_deviation() == 0.0


def test_eps_raising_convention():
    # eps^{ab} eps_{bc} = -delta^a_c under left contraction with eps_{34} = +1
    assert np.array_equal(EPS_UPPER @ EPS_LOWER, -np.eye(2))
    assert np.array_equal(GAMMA_EPS[0], GAMMA[0] @ EPS_LOWER)


def test_projectors_complementary_idempotent():
    rng = np.random.default_rng(0)
    chi = rng.standard_normal((7, 2, 2))
    p, q = project_pq_pointwise(chi)
    assert np.abs(p + q - chi).max() <= 1e-14
    p2, _ = project_pq_pointwise(p)
    _, q2 = project_pq_pointwise(q)
    assert np.abs(p2 - p).max() <= 1e-14
    assert np.abs(q2 - q).max() <= 1e-14
    # cross projections vanish
    assert np.abs(project_pq_pointwise(p)[1]).max() <= 1e-14
    assert np.abs(project_pq_pointwise(q)[0]).max() <= 1e-14


def test_zero_gravitino():
    p, q = project_pq_pointwise(np.zeros((3, 2, 2)))
    assert np.abs(p).max() == 0.0 and np.abs(q).max() == 0.0


def test_pure_gauge_killed_by_q():
    rng = np.random.default_rng(1)
    for _ in range(10):
        s = rng.standard_normal(2)
        chi = np.einsum("kab,b->ka", GAMMA, s)  # chi_k = gamma_k s
        _, q = project_pq_pointwise(chi)
        assert np.abs(q).max() <= 1e-14


def test_delta_gamma_kills_q_and_fixes_p():
    rng = np.random.default_rng(2)
    chi = rng.standard_normal((5, 2, 2))
    p, q = project_pq_pointwise(chi)
    assert np.abs(delta_gamma(q)).max() <= 1e-14
    assert np.abs(delta_gamma(p) - delta_gamma(chi)).max() <= 1e-14


def test_q_part_anticommutes_with_complex_structures():
    # I_k^l (Q chi)_l^kappa = -(Q chi)_k^tau I_tau^kappa (right contraction)
    rng = np.random.default_rng(3)
    chi = rng.standard_normal((2, 2))
    _, q = project_pq_pointwise(chi)
    lhs = np.einsum("kl,la->ka", IFRAME, q)
    rhs = -np.einsum("ka,ab->kb", q, ISPIN)
    assert np.abs(lhs - rhs).max() <= 1e-14
    # and the P part commutes
    p, _ = project_pq_pointwise(chi)
    lhs = np.einsum("kl,la->ka", IFRAME, p)
    rhs = np.einsum("ka,ab->kb", p, ISPIN)
    assert np.abs(lhs - rhs).max() <= 1e-14


def test_projector_tensors_match_definitions():
    for a in range(2):
        for b in range(2):
            assert np.array_equal(PMAT[a, :, b, :], 0.5 * GAMMA[a] @ GAMMA[b])
            assert np.array_equal(QMAT[a, :, b, :], 0.5 * GAMMA[b] @ GAMMA[a])


SIGNED = {name: k for name, k in vars(spin).items() if isinstance(k, SignedMatrix)}


def test_every_constant_contraction_has_a_signed_matrix():
    assert set(SIGNED) == {
        "ISPIN_MAP", "IFRAME_MAP", "EPS_UPPER_MAP", "EPS_LOWER_MAP", "EPS_LOWER_PAIRING",
        "GAMMA_MAP", "GAMMA_I_MAP", "EPS_GAMMA_MAP", "PMAT_MAP", "QMAT_MAP",
    }


@pytest.mark.parametrize("name", sorted(SIGNED))
@pytest.mark.parametrize("axis", [0, 1, 3])
def test_signed_matrix_equals_einsum(name, axis):
    # generic complex data, contracted axes in front, in the middle and after grid axes
    kernel = SIGNED[name]
    rng = np.random.default_rng(50 + axis)
    shape = (2, 5, 3)[:axis] + (4,) * (axis - 3) + kernel.in_shape + (3, 2)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    n_in, n_out = len(kernel.in_shape), len(kernel.out_shape)
    lead, trail = list(range(axis)), [30, 31]
    outs, ins = list(range(10, 10 + n_out)), list(range(20, 20 + n_in))
    ref = np.einsum(kernel.matrix, outs + ins, x, lead + ins + trail, lead + outs + trail)
    for ax in (axis, axis - x.ndim):
        got = kernel.apply(x, ax)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got, ref)
    real = x.real.copy()
    assert np.array_equal(
        kernel.apply(real, axis),
        np.einsum(kernel.matrix, outs + ins, real, lead + ins + trail, lead + outs + trail),
    )


def test_signed_matrices_are_built_from_the_spin_constants():
    assert np.array_equal(SIGNED["ISPIN_MAP"].matrix, ISPIN)
    assert np.array_equal(SIGNED["IFRAME_MAP"].matrix, IFRAME)
    assert np.array_equal(SIGNED["EPS_UPPER_MAP"].matrix, EPS_UPPER)
    assert np.array_equal(SIGNED["EPS_LOWER_MAP"].matrix, EPS_LOWER)
    assert np.array_equal(SIGNED["EPS_LOWER_PAIRING"].matrix, EPS_LOWER)
    assert np.array_equal(SIGNED["PMAT_MAP"].matrix, PMAT)
    assert np.array_equal(SIGNED["QMAT_MAP"].matrix, QMAT)
    for k in range(2):
        assert np.array_equal(SIGNED["GAMMA_MAP"].matrix[:, k, :], GAMMA[k])
        assert np.array_equal(SIGNED["GAMMA_I_MAP"].matrix[:, k, :], GAMMA[k] @ ISPIN)


@pytest.mark.parametrize(
    "matrix, in_axes",
    [
        (2.0 * ISPIN, 1),                       # entry outside +-1, +-1/2
        (np.array([[0.3, 0.0], [0.0, 1.0]]), 1),
        (np.array([[1.0, 1.0, 1.0]]), 1),        # three entries in a row
        (np.array([[0.0, 0.0], [1.0, 0.0]]), 1),  # empty row
        (GAMMA.transpose(1, 0, 2) + 0.5, 2),     # gamma with the structure broken
        (ISPIN, 3),
    ],
)
def test_signed_matrix_rejects_broken_structure(matrix, in_axes):
    with pytest.raises(ValueError):
        SignedMatrix(matrix, in_axes=in_axes)


def test_signed_matrix_rejects_mismatched_axes():
    with pytest.raises(ValueError):
        spin.GAMMA_MAP.apply(np.zeros((3, 2, 3)), -2)


def test_project_q_is_the_q_half():
    rng = np.random.default_rng(4)
    chi = rng.standard_normal((3, 4, 2, 2)) + 1j * rng.standard_normal((3, 4, 2, 2))
    assert np.array_equal(project_q(chi), project_pq_pointwise(chi)[1])
    assert np.array_equal(project_q(chi), np.einsum("aibj,...bj->...ai", QMAT, chi))
