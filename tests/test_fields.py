import numpy as np
import pytest

from grassmann_oracle import GrassmannElement, elements
from sjclab.components import _gamma_dphi, antiholomorphic_part, j_endomorphism
from sjclab.fields import (
    ComponentMap,
    FieldError,
    Gravitino,
    even_masks,
    gcontract,
    gzeros,
    odd_masks,
    on_live_masks,
)
from sjclab.grassmann import merge_sign
from sjclab.patch import ReducedPatch
from sjclab.spin import EPS_LOWER_PAIRING, GAMMA_MAP, ISPIN_MAP, QMAT_MAP


def test_mask_parities():
    assert even_masks(2) == [0, 3]
    assert odd_masks(2) == [1, 2]
    assert len(even_masks(4)) == 8


def gaussian_integers(rng, shape):
    return rng.integers(-3, 4, size=shape) + 1j * rng.integers(-3, 4, size=shape)


def gaussian_factor(rng, L, shape, masks):
    """Gaussian-integer factor whose blocks outside ``masks`` are zero."""
    out = np.zeros((1 << L,) + shape, dtype=complex)
    out[masks] = gaussian_integers(rng, (len(masks),) + shape)
    return out


@pytest.mark.parametrize("L", [3, 4])
def test_gcontract_matches_scalar_engine(L):
    # the mask convolution must agree with the exact algebra, entry by entry
    # and under an index contraction: on factors with a nonzero body, on
    # odd-only and bodiless even factors (as fierz passes them) and on
    # factors with empty mask blocks
    rng = np.random.default_rng(L)
    size = 1 << L
    odd, even = odd_masks(L), even_masks(L)
    for _ in range(10):
        a = gaussian_integers(rng, (size, 2, 3))
        b = gaussian_integers(rng, (size, 2, 3))
        a[0] = rng.integers(1, 4, size=(2, 3))
        b[0] = rng.integers(1, 4, size=(2, 3)) * 1j
        sparse = sorted(rng.choice(size, size=size // 2, replace=False))
        pairs = [
            (a, b),
            (gaussian_factor(rng, L, (2, 3), odd), gaussian_factor(rng, L, (2, 3), odd)),
            (gaussian_factor(rng, L, (2, 3), even[1:]), gaussian_factor(rng, L, (2, 3), odd)),
            (gaussian_factor(rng, L, (2, 3), sparse), b),
            (gaussian_factor(rng, L, (2, 3), odd[:2]), gaussian_factor(rng, L, (2, 3), [])),
        ]
        for a, b in pairs:
            ga, gb = elements(np.moveaxis(a, 0, -1)), elements(np.moveaxis(b, 0, -1))
            prod = elements(np.moveaxis(gcontract(a, b, "ij,ij->ij", L), 0, -1))
            assert prod == [[x * y for x, y in zip(u, v)] for u, v in zip(ga, gb)]
            contracted = elements(np.moveaxis(gcontract(a, b, "ij,kj->ik", L), 0, -1))
            assert contracted == [
                [sum((x * y for x, y in zip(u, v)), GrassmannElement.zero(L)) for v in gb] for u in ga
            ]


def looped_gcontract(a, b, spec, L):
    """One einsum per pair of nonzero mask blocks, added in (ma, mb) order."""
    size = 1 << L
    nz_a = [bool(a[m].any()) for m in range(size)]
    nz_b = [bool(b[m].any()) for m in range(size)]
    out = np.zeros((size,) + np.einsum(spec, a[0], b[0]).shape, dtype=complex)
    for ma in range(size):
        for mb in range(size):
            s = merge_sign(ma, mb)
            if s and nz_a[ma] and nz_b[mb]:
                out[ma | mb] += s * np.einsum(spec, a[ma], b[mb])
    return out


def generic_factor(rng, L, shape, masks):
    """Non-integer complex factor whose blocks outside ``masks`` are zero.

    A third of the entries in the blocks at ``masks`` are -0.0, so that
    products and sums meet signed zeros.
    """
    out = np.zeros((1 << L,) + shape, dtype=complex)
    values = rng.standard_normal((len(masks),) + shape) + 1j * rng.standard_normal((len(masks),) + shape)
    values[rng.random(values.shape) < 1 / 3] = complex(-0.0, -0.0)
    out[masks] = values
    return out


# (spec, shape of a's blocks, shape of b's blocks): the component products on
# (M, M, 2, dim) grids, and tiny fierz-like operands
ORDER_CASES = [
    ("xyma,xynb->xymanb", (6, 6, 2, 4), (6, 6, 2, 4)),
    ("xymanb,xync->xymanbc", (6, 6, 2, 4, 2, 4), (6, 6, 2, 4)),
    ("xyked,xyad->xykae", (5, 5, 2, 4, 4), (5, 5, 2, 4)),
    ("xykc,xykb->xycb", (5, 5, 2, 2), (5, 5, 2, 4)),
    ("xy,xyab->xyab", (4, 4), (4, 4, 2, 4)),
    ("ma,nb->mnab", (2, 3), (2, 3)),
    ("mnce,sc->mnse", (2, 2, 3, 3), (2, 3)),
    ("mnpce,rspc->mnsre", (2, 2, 3, 3, 3), (2, 2, 3, 3)),
    ("ij,kj->ik", (2, 3), (3, 3)),
]


@pytest.mark.parametrize("L", [2, 3, 4])
@pytest.mark.parametrize("spec, shape_a, shape_b", ORDER_CASES, ids=[c[0] for c in ORDER_CASES])
def test_gcontract_sums_in_the_loop_order(L, spec, shape_a, shape_b):
    # bit for bit, on data whose sums round: each product mask adds its
    # pairs from zero in (ma, mb) order, so the residual CSVs keep their bytes
    rng = np.random.default_rng([L, len(spec)])
    size = 1 << L
    odd, even = odd_masks(L), even_masks(L)
    sparse = sorted(rng.choice(size, size=max(1, size // 2), replace=False))
    factors = [
        (generic_factor(rng, L, shape_a, range(size)), generic_factor(rng, L, shape_b, range(size))),
        (generic_factor(rng, L, shape_a, odd), generic_factor(rng, L, shape_b, odd)),
        (generic_factor(rng, L, shape_a, even[1:]), generic_factor(rng, L, shape_b, odd)),
        (generic_factor(rng, L, shape_a, sparse), generic_factor(rng, L, shape_b, [0] + odd[1:])),
        (generic_factor(rng, L, shape_a, []), generic_factor(rng, L, shape_b, odd)),
    ]
    for a, b in factors:
        got, want = gcontract(a, b, spec, L), looped_gcontract(a, b, spec, L)
        assert np.array_equal(got, want)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()  # signed zeros too


def live_block_kernels(rng, M, dim):
    """(name, path through on_live_masks, the kernel on the whole field, block shape)."""
    patch = ReducedPatch(M)
    J = rng.standard_normal((M, M, dim, dim))
    nablaJ = rng.standard_normal((M, M, dim, dim, dim))
    Gamma = rng.standard_normal((M, M, dim, dim, dim))
    Rop = rng.standard_normal((M, M, dim, dim, dim, dim))
    sr = "sxymanbc,xyabce->sxyme"  # the last einsum of sr_contraction
    return [
        ("grad", patch.grad, patch._grad, (M, M, 2, dim)),
        ("ISPIN_MAP", lambda f: ISPIN_MAP.apply(f, -2), lambda f: ISPIN_MAP._apply(f, 3), (M, M, 2, dim)),
        ("GAMMA_MAP", lambda f: GAMMA_MAP.apply(f, -3), lambda f: GAMMA_MAP._apply(f, 3), (M, M, 2, 2, dim)),
        ("QMAT_MAP", lambda f: QMAT_MAP.apply(f, -2), lambda f: QMAT_MAP._apply(f, 3), (M, M, 2, 2)),
        (
            "EPS_LOWER_PAIRING",
            lambda f: EPS_LOWER_PAIRING.apply(f, -2),
            lambda f: EPS_LOWER_PAIRING._apply(f, 3),
            (M, M, 2, 2),
        ),
        (
            "antiholomorphic_part",
            lambda f: antiholomorphic_part(f, J),
            lambda f: 0.5 * (f + np.einsum("sxyac,xycd->sxyad", ISPIN_MAP._apply(f, 3), J)),
            (M, M, 2, dim),
        ),
        (
            "j_endomorphism",
            lambda f: j_endomorphism(f, nablaJ),
            lambda f: np.einsum("sxyma,xyabc->sxymbc", f, nablaJ),
            (M, M, 2, dim),
        ),
        (
            "Gamma(dphi_k, .)",
            lambda f: _gamma_dphi(Gamma, f),
            lambda f: np.einsum("xyecd,sxykc->sxyked", Gamma, f),
            (M, M, 2, dim),
        ),
        (
            "sr_contraction, last einsum",
            lambda f: on_live_masks(lambda z: np.einsum(sr, z, Rop), f),
            lambda f: np.einsum(sr, f, Rop),
            (M, M, 2, dim, 2, dim, dim),
        ),
    ]


def record_view(values):
    """``values`` as the bundle reader holds a field: a strided view into float records."""
    S, M = values.shape[:2]
    size = values[0, 0, 0].size * S
    data = np.zeros((M * M, 3 + 2 * size + 4))  # index and lam columns first, more fields after
    per_point = data[:, 3:].view(complex)[:, :size].reshape((M, M, S) + values.shape[3:])
    per_point[...] = np.moveaxis(values, 0, 2)
    view = np.moveaxis(per_point, 2, 0)
    assert np.shares_memory(view, data) and not view.flags.c_contiguous
    return view


def masked_field(rng, L, shape, pattern):
    """A generic field whose zero blocks follow ``pattern``; the last zero block is all -0.0."""
    size = 1 << L
    live = {
        "none": range(size),
        "all": [],
        "parity": odd_masks(L),
        "random": sorted(rng.choice(size, size=size // 2, replace=False)),
    }[pattern]
    field = generic_factor(rng, L, shape, live)
    dead = sorted(set(range(size)) - set(live))
    if dead:
        field[dead[-1]] = complex(-0.0, -0.0)
    return field


@pytest.mark.parametrize("L", [2, 4])
@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("M", [8, 16])
def test_live_mask_kernels_match_the_whole_field(L, dim, M):
    # each kernel maps one mask block alone, so running it on the live blocks
    # only gives the live blocks' bytes, and +0.0 in every zero block
    rng = np.random.default_rng([L, dim, M])
    for name, live_path, whole, shape in live_block_kernels(rng, M, dim):
        for pattern in ("none", "all", "parity", "random"):
            field = masked_field(rng, L, shape, pattern)
            live = field.any(axis=tuple(range(1, field.ndim)))
            for layout, f in (("contiguous", field), ("records", record_view(field))):
                got, want = live_path(f), whole(f)
                case = f"{name}, {pattern} zero blocks, {layout}"
                assert got.shape == want.shape and np.array_equal(got, want), case
                assert got[live].tobytes() == want[live].tobytes(), case
                dead = got[~live]
                assert not dead.any() and not np.signbit(dead.view(float)).any(), case


def test_gcontract_anticommutes_on_grids():
    L = 2
    a = gzeros(L, (4, 4))
    b = gzeros(L, (4, 4))
    a[1] = 2.0
    b[2] = 3.0
    out = gcontract(a, b, "xy,xy->xy", L)
    assert np.all(out[3] == 6.0)
    assert np.abs(out[[0, 1, 2]]).max() == 0.0
    # anticommutation: swapping the odd factors flips the sign
    out2 = gcontract(b, a, "xy,xy->xy", L)
    assert np.all(out2[3] == -6.0)


def test_component_map_parity_enforced():
    with pytest.raises(FieldError):
        cm = ComponentMap.zero(2, 8, 2)
        cm.psi[0, 0, 0, 0, 0] = 1.0  # even mask in an odd field
        ComponentMap(
            L=2,
            phi_linear=cm.phi_linear,
            phi_periodic=cm.phi_periodic,
            psi=cm.psi,
            F=cm.F,
        )


def test_component_map_phi_reality_enforced():
    cm = ComponentMap.zero(2, 8, 2)
    cm.phi_periodic[3, 0, 0, 0] = 1j
    with pytest.raises(FieldError):
        ComponentMap(
            L=2,
            phi_linear=cm.phi_linear,
            phi_periodic=cm.phi_periodic,
            psi=cm.psi,
            F=cm.F,
        )


def test_gravitino_parity_enforced():
    chi = gzeros(2, (8, 8, 2, 2))
    chi[3] = 1.0
    with pytest.raises(FieldError):
        Gravitino(L=2, chi=chi)


def test_phi_body_combines_affine_and_periodic():
    cm = ComponentMap.zero(2, 4, 2)
    cm.phi_linear = np.array([[1.0, 0.0], [0.0, 2.0]])
    cm.phi_periodic[0, :, :, 0] = 5.0
    xs = np.arange(4) / 4
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    body = cm.phi_body(x1, x2)
    assert np.abs(body[..., 0] - (x1 + 5.0)).max() == 0.0
    assert np.abs(body[..., 1] - 2.0 * x2).max() == 0.0
