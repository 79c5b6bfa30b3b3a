import ast
import math
from pathlib import Path

import numpy as np
import pytest

from fields_oracle import CONTRACTIONS, einsum_contract
from sjclab import spin
from sjclab.components import _antiholomorphic_map
from sjclab.spin import (
    CLIFFORD,
    CLIFFORD_I,
    EPS_LOWER,
    EPS_UPPER,
    GAMMA,
    GAMMA_EPS,
    IFRAME,
    ISPIN,
    PMAT,
    QMAT,
    clifford_deviation,
    contract,
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


SRC = Path(spin.__file__).parent

SIGNED = {key: (getattr(spin, name), in_axes) for key, (name, in_axes) in CONTRACTIONS.items()}
# with the antiholomorphic projectors (1 + I (x) J)/2 of components on two target dimensions
KERNELS = {**SIGNED, **{f"antiholomorphic_map({dim})": (_antiholomorphic_map(dim), 2) for dim in (2, 4)}}


def check_signed(matrix, in_axes):
    """Raise ValueError unless every row of ``matrix``, its last ``in_axes`` axes
    flattened, holds one or two nonzero entries, each +-1 or +-1/2."""
    if in_axes not in (1, 2) or matrix.ndim < in_axes:
        raise ValueError("a contraction matrix acts on one or two axes")
    for row in matrix.reshape(-1, math.prod(matrix.shape[matrix.ndim - in_axes :])):
        entries = row[row != 0].tolist()
        if not 1 <= len(entries) <= 2 or not set(entries) <= {1.0, -1.0, 0.5, -0.5}:
            raise ValueError(f"row {row.tolist()} needs one or two entries in +-1, +-1/2")


def contractions_in_src():
    """(matrix source, in_axes) of every ``contract`` call in src/sjclab, direct
    or as ``field.map(contract, matrix, axis[, in_axes])``."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            args = node.args
            is_map = isinstance(node.func, ast.Attribute) and node.func.attr == "map"
            if is_map and args and ast.unparse(args[0]) == "contract":
                args = [None, *args[1:]]  # the field's blocks take the place of x
            elif ast.unparse(node.func) != "contract":
                continue
            keywords = {k.arg: k.value for k in node.keywords}
            in_axes = args[3] if len(args) > 3 else keywords.get("in_axes", ast.Constant(1))
            matrix = args[1] if len(args) > 1 else keywords["matrix"]
            name = matrix.func.id if isinstance(matrix, ast.Call) else ast.unparse(matrix)
            found.add((name, ast.literal_eval(in_axes)))
    return found


def test_every_constant_contraction_has_a_signed_matrix():
    # so that every matrix src contracts with is under the structure and einsum tests below
    assert contractions_in_src() == set(CONTRACTIONS.values()) | {("_antiholomorphic_map", 2)}


STRUCTURES = SIGNED | {f"antiholomorphic_map({dim})": (_antiholomorphic_map(dim), 2) for dim in (2, 4, 6, 8)}


@pytest.mark.parametrize("name", list(STRUCTURES))
def test_contraction_matrices_have_signed_rows(name):
    # what makes contract exact: every output entry is one exact term or one rounded sum of two
    check_signed(*STRUCTURES[name])


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("axis", [0, 1, 3])
def test_signed_matrix_equals_einsum(name, axis):
    # generic complex data, contracted axes in front, in the middle and after grid axes
    matrix, in_axes = KERNELS[name]
    rng = np.random.default_rng(50 + axis)
    shape = (2, 5, 3)[:axis] + (4,) * (axis - 3) + matrix.shape[matrix.ndim - in_axes :] + (3, 2)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = einsum_contract(x, matrix, axis, in_axes)
    for ax in (axis, axis - x.ndim):
        got = contract(x, matrix, ax, in_axes)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got, ref)
    real = x.real.copy()
    got = contract(real, matrix, axis, in_axes)
    assert got.dtype == np.float64 and np.array_equal(got, einsum_contract(real, matrix, axis, in_axes))


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_contract_on_views_integers_and_zero_blocks(name):
    matrix, in_axes = KERNELS[name]
    in_shape = matrix.shape[matrix.ndim - in_axes :]
    rng = np.random.default_rng(len(name))
    # a strided view: every other block, the grid axes transposed
    base = rng.standard_normal((6,) + in_shape + (5, 4)) + 1j * rng.standard_normal((6,) + in_shape + (5, 4))
    view = base[::2].swapaxes(-2, -1)
    assert not view.flags.c_contiguous
    assert np.array_equal(contract(view, matrix, 1, in_axes), einsum_contract(view, matrix, 1, in_axes))
    # the contracted axes last, on a strided view
    tail = base[..., 1, 2]
    assert np.array_equal(contract(tail, matrix, -in_axes, in_axes), einsum_contract(tail, matrix, 1, in_axes))
    # integers contract as floats
    ints = rng.integers(-3, 4, size=(3,) + in_shape + (4,))
    got = contract(ints, matrix, 1, in_axes)
    assert got.dtype == np.float64 and np.array_equal(got, einsum_contract(ints.astype(float), matrix, 1, in_axes))
    # a field with no live blocks, and one with empty grid axes
    for shape in ((0,) + in_shape + (4, 4), (2,) + in_shape + (0, 4)):
        for dtype in (float, complex):
            got = contract(np.zeros(shape, dtype=dtype), matrix, 1, in_axes)
            assert got.shape == einsum_contract(np.zeros(shape), matrix, 1, in_axes).shape and got.dtype == dtype


def test_signed_matrices_are_built_from_the_spin_constants():
    assert SIGNED["IFRAME_MAP"][0] is IFRAME
    assert SIGNED["EPS_UPPER_MAP"][0] is EPS_UPPER
    assert SIGNED["EPS_LOWER_MAP"][0] is SIGNED["EPS_LOWER_PAIRING"][0] is EPS_LOWER
    assert SIGNED["PMAT_MAP"][0] is PMAT
    assert SIGNED["QMAT_MAP"][0] is QMAT
    for k in range(2):
        assert np.array_equal(CLIFFORD[:, k, :], GAMMA[k])
        assert np.array_equal(CLIFFORD_I[:, k, :], GAMMA[k] @ ISPIN)


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
    # the structure check above has teeth
    with pytest.raises(ValueError):
        check_signed(matrix, in_axes)


def test_signed_matrix_rejects_mismatched_axes():
    with pytest.raises(ValueError):
        contract(np.zeros((3, 2, 3)), CLIFFORD, -2, 2)
    with pytest.raises(ValueError):
        contract(np.zeros((3, 2, 2)), ISPIN, 1, 3)  # more input axes than the matrix has
    with pytest.raises(ValueError):
        contract(np.zeros((3, 2, 2)), ISPIN, 1, 0)


def test_project_q_is_the_q_half():
    rng = np.random.default_rng(4)
    chi = rng.standard_normal((3, 4, 2, 2)) + 1j * rng.standard_normal((3, 4, 2, 2))
    assert np.array_equal(project_q(chi), project_pq_pointwise(chi)[1])
    assert np.array_equal(project_q(chi), np.einsum("aibj,...bj->...ai", QMAT, chi))
