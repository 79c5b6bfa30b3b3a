from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fields_oracle import dense, dense_gcontract, gzeros, on_live_masks, pack
from grassmann_oracle import GrassmannElement, elements
from sjclab.components import _gamma_dphi, antiholomorphic_part, j_endomorphism
from sjclab.fields import (
    ComponentMap,
    FieldError,
    Gravitino,
    GridField,
    even_masks,
    gcontract,
    odd_masks,
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


def same_up_to_zero_signs(got, want):
    """Equal bit for bit once every -0.0 reads +0.0."""
    return got.shape == want.shape and (got + 0.0).tobytes() == (want + 0.0).tobytes()


def packed_gcontract(a, b, spec, L):
    """gcontract on the packed dense factors, unpacked again."""
    return dense(gcontract(pack(a), pack(b), spec, L), L)


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
            prod = elements(np.moveaxis(packed_gcontract(a, b, "ij,ij->ij", L), 0, -1))
            assert prod == [[x * y for x, y in zip(u, v)] for u, v in zip(ga, gb)]
            contracted = elements(np.moveaxis(packed_gcontract(a, b, "ij,kj->ik", L), 0, -1))
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
    # bit for bit up to the sign of zeros, on data whose sums round: each
    # product mask adds its pairs in (ma, mb) order, so the residual CSVs keep
    # their bytes; the product lists exactly the masks that have pairs
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
        pa, pb = pack(a), pack(b)
        product = gcontract(pa, pb, spec, L)
        assert product.blocks.flags.c_contiguous
        assert product.masks == tuple(sorted({x | y for x in pa.masks for y in pb.masks if not x & y}))
        assert same_up_to_zero_signs(dense(product, L), looped_gcontract(a, b, spec, L))


def record_view(values):
    """``values`` as a strided view into float records, the mask axis not outermost in memory."""
    S, M = values.shape[:2]
    size = values[0, 0, 0].size * S
    data = np.zeros((M * M, 3 + 2 * size + 4))  # index and lam columns first, more fields after
    per_point = data[:, 3:].view(complex)[:, :size].reshape((M, M, S) + values.shape[3:])
    per_point[...] = np.moveaxis(values, 0, 2)
    view = np.moveaxis(per_point, 2, 0)
    assert np.shares_memory(view, data) and not view.flags.c_contiguous
    return view


def masked_field(rng, L, shape, live):
    """A generic field with blocks at ``live``; the last dead block is all -0.0."""
    field = generic_factor(rng, L, shape, live)
    dead = sorted(set(range(1 << L)) - set(live))
    if dead:
        field[dead[-1]] = complex(-0.0, -0.0)
    return field


def live_block_kernels(rng, M, dim):
    """(name, the kernel on a packed field, the kernel on a whole dense field, block shape)."""
    patch = ReducedPatch(M)
    J = rng.standard_normal((M, M, dim, dim))
    nablaJ = rng.standard_normal((M, M, dim, dim, dim))
    Gamma = rng.standard_normal((M, M, dim, dim, dim))
    Rop = rng.standard_normal((M, M, dim, dim, dim, dim))
    sr = "sxymanbc,xyabce->sxyme"  # the last einsum of sr_contraction
    return [
        ("grad", lambda f: f.map(patch.grad), patch.grad, (M, M, 2, dim)),
        ("ISPIN_MAP", lambda f: f.map(ISPIN_MAP.apply, -2), lambda f: ISPIN_MAP.apply(f, 3), (M, M, 2, dim)),
        ("GAMMA_MAP", lambda f: f.map(GAMMA_MAP.apply, -3), lambda f: GAMMA_MAP.apply(f, 3), (M, M, 2, 2, dim)),
        ("QMAT_MAP", lambda f: f.map(QMAT_MAP.apply, -2), lambda f: QMAT_MAP.apply(f, 3), (M, M, 2, 2)),
        (
            "EPS_LOWER_PAIRING",
            lambda f: f.map(EPS_LOWER_PAIRING.apply, -2),
            lambda f: EPS_LOWER_PAIRING.apply(f, 3),
            (M, M, 2, 2),
        ),
        (
            "antiholomorphic_part",
            lambda f: antiholomorphic_part(f, J),
            lambda f: 0.5 * (f + np.einsum("sxyac,xycd->sxyad", ISPIN_MAP.apply(f, 3), J)),
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
            lambda f: f.map(lambda z: np.einsum(sr, z, Rop)),
            lambda f: np.einsum(sr, f, Rop),
            (M, M, 2, dim, 2, dim, dim),
        ),
    ]


@pytest.mark.parametrize("L", [2, 4])
@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("M", [8, 16])
def test_packed_kernels_match_the_whole_field(L, dim, M):
    # each kernel maps one mask block alone, so running it on the packed live
    # blocks gives the live blocks' bytes of the whole-field kernel, also when
    # the field is packed from a strided record view
    rng = np.random.default_rng([L, dim, M])
    size = 1 << L
    patterns = {
        "none dead": list(range(size)),
        "all dead": [],
        "parity": odd_masks(L),
        "random": sorted(rng.choice(size, size=size // 2, replace=False)),
    }
    for name, packed_path, whole, shape in live_block_kernels(rng, M, dim):
        for pattern, live in patterns.items():
            field = masked_field(rng, L, shape, live)
            for layout, f in (("contiguous", field), ("records", record_view(field))):
                packed = pack(f)
                assert packed.masks == tuple(live) and packed.blocks.flags.c_contiguous
                got, want = packed_path(packed), whole(f)
                case = f"{name}, {pattern}, {layout}"
                assert got.masks == packed.masks, case
                assert got.blocks.tobytes() == want[live].tobytes(), case


# -- the dense kernels as oracle, on random live-mask sets ----------------------------


@st.composite
def live_mask_cases(draw):
    L = draw(st.integers(0, 4))
    masks = st.lists(st.integers(0, (1 << L) - 1), unique=True).map(sorted)
    return L, draw(masks), draw(masks), draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(live_mask_cases())
@example((0, [], [], False, 0))  # nothing live
@example((3, list(range(8)), list(range(8)), False, 1))  # every block live
@example((4, [1, 2, 5, 6], [0, 3], False, 2))  # dead blocks, the last all -0.0
@example((2, [1, 2], [1, 2], True, 3))  # the product at 0b11 cancels to exact zero
def test_packed_kernels_match_the_dense_oracle(case):
    # b = a when ``cancel``: the two orders of an odd x odd pair carry opposite
    # signs and equal products, so such a product mask sums to exactly zero
    L, live_a, live_b, cancel, seed = case
    rng = np.random.default_rng(seed)
    M, patch = 4, ReducedPatch(4)
    a = masked_field(rng, L, (M, M, 2, 2), live_a)
    b = a.copy() if cancel else masked_field(rng, L, (M, M, 2, 2), live_b)
    J = rng.standard_normal((M, M, 2, 2))
    pa, pb = pack(a), pack(b)
    assert pa.masks == tuple(live_a)
    for spec in ("xyka,xykb->xyab", "xyka,xyka->xyka"):
        product = gcontract(pa, pb, spec, L)
        assert same_up_to_zero_signs(dense(product, L), dense_gcontract(a, b, spec, L))
    if cancel and live_a == [1, 2]:  # the elementwise product: listed, and exactly zero
        assert product.masks == (3,) and not product.blocks.any()
    kernels = [
        (lambda f: f.map(patch.grad), patch.grad),
        (lambda f: f.map(GAMMA_MAP.apply, -2), lambda f: GAMMA_MAP.apply(f, -2)),
        (lambda f: f.map(ISPIN_MAP.apply, -2), lambda f: ISPIN_MAP.apply(f, -2)),
        (
            lambda f: antiholomorphic_part(f, J),
            lambda f: 0.5 * (f + np.einsum("sxyac,xycd->sxyad", ISPIN_MAP.apply(f, -2), J)),
        ),
    ]
    for packed_path, kernel in kernels:
        assert same_up_to_zero_signs(dense(packed_path(pa), L), on_live_masks(kernel, a))


# -- packed fields ---------------------------------------------------------------------


def test_pack_keeps_the_nonzero_blocks_only():
    field = gzeros(3, (4, 4, 2))
    field[2, 1, 1, 0] = 1.0
    field[5] = complex(-0.0, -0.0)
    field[6, 3, 3, 1] = -0.0 + 1e-300j
    packed = pack(field)
    assert packed.masks == (2, 6) and packed.shape == (2, 4, 4, 2)
    assert packed.blocks.tobytes() == field[[2, 6]].tobytes()
    assert np.array_equal(dense(packed, 3), field)


def test_sums_align_on_the_union_of_masks():
    rng = np.random.default_rng(3)
    x = pack(generic_factor(rng, 3, (4, 4), [1, 2, 7]))
    y = pack(generic_factor(rng, 3, (4, 4), [0, 2]))
    zero = GridField.zero((4, 4))
    assert (x - zero).blocks.tobytes() == x.blocks.tobytes() and (x + zero).masks == x.masks
    for got, want in ((x + y, dense(x, 3) + dense(y, 3)), (x - y, dense(x, 3) - dense(y, 3))):
        assert got.masks == (0, 1, 2, 7) and np.array_equal(dense(got, 3), want)
    assert np.array_equal(dense(zero - x, 3), -dense(x, 3)) and (zero - x).masks == x.masks
    scaled = 0.5 * x / 4.0 * np.arange(4.0)[None, :, None]
    assert np.array_equal(scaled.blocks, 0.5 * x.blocks / 4.0 * np.arange(4.0)[None, :, None])
    assert np.array_equal((-x).blocks, -x.blocks)


def test_gcontract_anticommutes_on_grids():
    L = 2
    a = gzeros(L, (4, 4))
    b = gzeros(L, (4, 4))
    a[1] = 2.0
    b[2] = 3.0
    out = gcontract(pack(a), pack(b), "xy,xy->xy", L)
    assert out.masks == (3,) and np.all(out.blocks == 6.0)
    # anticommutation: swapping the odd factors flips the sign
    out2 = gcontract(pack(b), pack(a), "xy,xy->xy", L)
    assert np.all(out2.blocks == -6.0)


def test_component_map_parity_enforced():
    cm = ComponentMap.zero(2, 8, 2)
    psi = gzeros(2, (8, 8, 2, 2))
    psi[0, 0, 0, 0, 0] = 1.0  # even mask in an odd field
    with pytest.raises(FieldError, match="psi must be odd"):
        replace(cm, psi=psi)
    # packed fields are checked on their mask tuple
    with pytest.raises(FieldError, match="mask 0b11"):
        replace(cm, psi=GridField((3,), np.ones((1, 8, 8, 2, 2), dtype=complex)))
    with pytest.raises(FieldError, match="mask 0b100"):
        replace(cm, psi=GridField((4,), np.ones((1, 8, 8, 2, 2), dtype=complex)))
    with pytest.raises(FieldError, match="2\\^L"):
        replace(cm, F=gzeros(3, (8, 8, 2)))


def test_component_map_phi_reality_enforced():
    cm = ComponentMap.zero(2, 8, 2)
    phi = gzeros(2, (8, 8, 2))
    phi[3, 0, 0, 0] = 1j
    with pytest.raises(FieldError):
        replace(cm, phi_periodic=phi)


def test_gravitino_parity_enforced():
    chi = gzeros(2, (8, 8, 2, 2))
    chi[3] = 1.0
    with pytest.raises(FieldError):
        Gravitino(L=2, chi=chi)


def test_phi_body_combines_affine_and_periodic():
    lin = np.array([[1.0, 0.0], [0.0, 2.0]])
    cm = replace(ComponentMap.zero(2, 4, 2), phi_linear=lin)
    xs = np.arange(4) / 4
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    assert np.array_equal(cm.phi_body(x1, x2), np.stack([x1, 2.0 * x2], axis=-1))
    phi = gzeros(2, (4, 4, 2))
    phi[0, :, :, 0] = 5.0
    body = replace(cm, phi_periodic=phi).phi_body(x1, x2)
    assert np.abs(body[..., 0] - (x1 + 5.0)).max() == 0.0
    assert np.abs(body[..., 1] - 2.0 * x2).max() == 0.0
