from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fields_oracle import (
    CONTRACTIONS,
    dense,
    dense_gcontract,
    einsum_contract,
    full_table_live_rows,
    gzeros,
    on_live_masks,
    pack,
)
from grassmann_oracle import GrassmannElement, elements
from sjclab.components import _antiholomorphic_map, _gamma_dphi, antiholomorphic_part
from sjclab.fields import (
    ComponentMap,
    FieldError,
    Gravitino,
    GridField,
    _live_rows,
    even_masks,
    gcontract,
    odd_masks,
)
from sjclab.grassmann import merge_sign
from sjclab.patch import ReducedPatch
from sjclab import spin
from sjclab.spin import CLIFFORD, EPS_LOWER, IFRAME, ISPIN, QMAT, contract
from sjclab.targets import standard_J


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
    return dense(gcontract(pack(a), pack(b), spec), L)


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
# (2, dim, M, M) grids, the same products with the grid axes first, and tiny
# fierz-like operands
ORDER_CASES = [
    ("maxy,nbxy->manbxy", (2, 4, 6, 6), (2, 4, 6, 6)),
    ("manbxy,ncxy->manbcxy", (2, 4, 2, 4, 6, 6), (2, 4, 6, 6)),
    ("kedxy,adxy->kaexy", (2, 4, 4, 5, 5), (2, 4, 5, 5)),
    ("kcxy,kbxy->cbxy", (2, 2, 5, 5), (2, 4, 5, 5)),
    ("xy,abxy->abxy", (4, 4), (2, 4, 4, 4)),
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
        product = gcontract(pa, pb, spec)
        assert product.blocks.flags.c_contiguous
        assert product.masks == tuple(sorted({x | y for x in pa.masks for y in pb.masks if not x & y}))
        assert same_up_to_zero_signs(dense(product, L), looped_gcontract(a, b, spec, L))


@st.composite
def sorted_mask_subsets(draw):
    L = draw(st.integers(0, 6))
    masks = st.lists(st.integers(0, (1 << L) - 1), unique=True, max_size=1 << L).map(lambda m: tuple(sorted(m)))
    return L, draw(masks), draw(masks)


@settings(max_examples=300, deadline=None)
@given(sorted_mask_subsets())
@example((0, (), ()))
@example((0, (0,), (0,)))
@example((2, (1, 2), ()))
@example((2, (0, 1, 2), (0, 1, 2)))  # mask 0 has one pair, masks 1, 2 and 3 two: not in count order
@example((3, (1, 2), (1, 2, 4)))  # pair counts 2, 1, 1 fall in mask order, yet two depths need a gather
@example((3, (1, 2), (0,)))  # one pair per product mask: no gather
@example((6, tuple(range(64)), tuple(range(64))))
def test_live_rows_equal_the_full_table(case):
    # the live pairs listed directly give the rows, depth layout and gather of
    # the full 3^L-row table read at the live masks' positions
    L, masks_a, masks_b = case
    got, want = _live_rows(masks_a, masks_b), full_table_live_rows(L, masks_a, masks_b)
    for name, x, y in zip(("ia", "ib", "sign"), got[:3], want[:3]):
        assert np.array_equal(x, y) and x.dtype == y.dtype, name
    assert got[3:5] == want[3:5]
    assert (got[5] is None) == (want[5] is None)
    if want[5] is not None:
        assert np.array_equal(got[5], want[5])


def record_view(values):
    """``values`` (S, ..., M, M) as a strided view into per-point float records, the grid outermost in memory."""
    S, M = len(values), values.shape[-1]
    size = values[..., 0, 0].size
    data = np.zeros((M * M, 3 + 2 * size + 4))  # index and lam columns first, more fields after
    per_point = data[:, 3:].view(complex)[:, :size].reshape((M, M, S) + values.shape[1:-2])
    view = np.moveaxis(per_point, (0, 1), (-2, -1))
    view[...] = values
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
    Gamma = rng.standard_normal((dim, dim, dim, M, M))
    Rop = rng.standard_normal((dim, dim, dim, dim, M, M))
    sr = "smanbcxy,abcexy->smexy"  # the last einsum of sr_contraction
    return [
        ("grad", lambda f: f.map(patch.grad), patch.grad, (2, dim, M, M)),
        ("IFRAME", lambda f: f.map(contract, IFRAME, 1), lambda f: contract(f, IFRAME, 1), (2, dim, M, M)),
        (
            "CLIFFORD",
            lambda f: f.map(contract, CLIFFORD, 1, 2),
            lambda f: contract(f, CLIFFORD, 1, 2),
            (2, 2, dim, M, M),
        ),
        ("QMAT", lambda f: f.map(contract, QMAT, 1, 2), lambda f: contract(f, QMAT, 1, 2), (2, 2, M, M)),
        (
            "EPS_LOWER pairing",
            lambda f: f.map(contract, EPS_LOWER, 1, 2),
            lambda f: contract(f, EPS_LOWER, 1, 2),
            (2, 2, M, M),
        ),
        (
            "antiholomorphic_part",
            antiholomorphic_part,
            lambda f: contract(f, _antiholomorphic_map(dim), 1, 2),
            (2, dim, M, M),
        ),
        (
            "Gamma(dphi_k, .)",
            lambda f: _gamma_dphi(Gamma, f),
            lambda f: np.einsum("ecdxy,skcxy->skedxy", Gamma, f),
            (2, dim, M, M),
        ),
        (
            "sr_contraction, last einsum",
            lambda f: f.map(lambda z: np.einsum(sr, z, Rop)),
            lambda f: np.einsum(sr, f, Rop),
            (2, dim, 2, dim, dim, M, M),
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
    a = masked_field(rng, L, (2, 2, M, M), live_a)
    b = a.copy() if cancel else masked_field(rng, L, (2, 2, M, M), live_b)
    J = standard_J(1)
    pa, pb = pack(a), pack(b)
    assert pa.masks == tuple(live_a)
    for spec in ("kaxy,kbxy->abxy", "kaxy,kaxy->kaxy"):
        product = gcontract(pa, pb, spec)
        assert same_up_to_zero_signs(dense(product, L), dense_gcontract(a, b, spec, L))
    if cancel and live_a == [1, 2]:  # the elementwise product: listed, and exactly zero
        assert product.masks == (3,) and not product.blocks.any()
    kernels = [
        (lambda f: f.map(patch.grad), patch.grad),
        (lambda f: f.map(contract, CLIFFORD, 1, 2), lambda f: contract(f, CLIFFORD, 1, 2)),
        (lambda f: f.map(contract, IFRAME, 1), lambda f: contract(f, IFRAME, 1)),
        (antiholomorphic_part, lambda f: 0.5 * (f + np.einsum("ab,sbcxy,cd->sadxy", ISPIN, f, J))),
    ]
    for packed_path, kernel in kernels:
        assert same_up_to_zero_signs(dense(packed_path(pa), L), on_live_masks(kernel, a))


# -- grid-last kernels against their grid-first formulation -----------------------------


def grid_first(blocks):
    """(S, ..., M, M) -> (S, M, M, ...): the grid axes moved to positions 1 and 2."""
    return np.moveaxis(blocks, (-2, -1), (1, 2))


def grid_last(blocks):
    """(S, M, M, ...) -> (S, ..., M, M)."""
    return np.moveaxis(blocks, (1, 2), (-2, -1))


def grid_last_spec(spec):
    """An einsum signature written grid-first, with x and y moved to the end of every operand."""
    terms = spec.replace("->", ",").split(",")
    moved = [t.replace("x", "").replace("y", "") + "xy"[: ("x" in t) + ("y" in t)] for t in terms]
    return ",".join(moved[:-1]) + "->" + moved[-1]


def grid_first_grad(blocks, M):
    """The spectral gradient on grid-first blocks[S, M, M, ...], stacked on axis 3."""
    ft = np.fft.fft2(blocks, axes=(1, 2))
    k = 2j * np.pi * np.fft.fftfreq(M, d=1.0 / M)
    if M % 2 == 0:
        k[M // 2] = 0.0
    tail = (1,) * (ft.ndim - 3)
    out = np.empty(ft.shape[:3] + (2,) + ft.shape[3:], dtype=complex)
    for a, shape in enumerate(((M, 1), (1, M))):
        d = np.multiply(ft, k.reshape(shape + tail), out=out[:, :, :, a])
        np.fft.ifft(d, axis=2, out=d)
        np.fft.ifft(d, axis=1, out=d)
    return out


GRID_MS = [4, 5, 16]


@pytest.mark.parametrize("M", GRID_MS)
@pytest.mark.parametrize("shape", [(), (3,), (2, 4), (2, 2, 4)])
def test_grad_equals_the_grid_first_gradient(M, shape):
    rng = np.random.default_rng([M, len(shape)])
    x = generic_factor(rng, 2, shape + (M, M), range(4))
    got = ReducedPatch(M).grad(x)
    assert got.shape == (4, 2) + shape + (M, M) and got.flags.c_contiguous
    assert got.tobytes() == grid_last(grid_first_grad(grid_first(x), M)).tobytes()


SIGNED_MAPS = {key: (getattr(spin, name), in_axes) for key, (name, in_axes) in CONTRACTIONS.items()} | {
    f"antiholomorphic({dim})": (_antiholomorphic_map(dim), 2) for dim in (2, 4)
}


@pytest.mark.parametrize("M", GRID_MS)
@pytest.mark.parametrize("name", list(SIGNED_MAPS))
def test_signed_matrix_equals_the_grid_first_contraction(name, M):
    # the input axes first among the non-grid axes, one trailing axis behind them
    matrix, in_axes = SIGNED_MAPS[name]
    rng = np.random.default_rng([M, len(name)])
    x = generic_factor(rng, 2, matrix.shape[matrix.ndim - in_axes :] + (3, M, M), range(4))
    got = contract(x, matrix, 1, in_axes)
    assert got.tobytes() == grid_last(contract(grid_first(x), matrix, 3, in_axes)).tobytes()
    assert got.tobytes() == grid_last(einsum_contract(grid_first(x), matrix, 3, in_axes)).tobytes()


# (grid-first spec, shapes of a's and b's non-grid axes): the products and
# contractions of the component calculus, summed ones included
CONTRACTIONS = [
    ("xyma,xynb->xymanb", (2, 4), (2, 4)),
    ("xymanb,xync->xymanbc", (2, 4, 2, 4), (2, 4)),
    ("xyked,xyad->xykae", (2, 4, 4), (2, 4)),
    ("xyked,xyd->xyke", (2, 4, 4), (4,)),
    ("xykc,xykb->xycb", (2, 2), (2, 4)),
    ("xykc,xykt->xyct", (2, 2), (2, 2)),
    ("xykc,xycb->xykb", (2, 2), (2, 4)),
    ("xya,xyb->xyab", (2,), (4,)),
    ("xy,xyab->xyab", (), (2, 4)),
]


@pytest.mark.parametrize("M", GRID_MS)
@pytest.mark.parametrize("spec, shape_a, shape_b", CONTRACTIONS, ids=[c[0] for c in CONTRACTIONS])
def test_gcontract_equals_the_grid_first_contraction(spec, shape_a, shape_b, M):
    rng = np.random.default_rng([M, len(spec)])
    a = pack(generic_factor(rng, 4, shape_a + (M, M), odd_masks(4)))
    b = pack(generic_factor(rng, 4, shape_b + (M, M), [0] + odd_masks(4)[1:]))
    got = gcontract(a, b, grid_last_spec(spec))
    want = gcontract(GridField(a.masks, grid_first(a.blocks)), GridField(b.masks, grid_first(b.blocks)), spec)
    assert got.masks == want.masks
    assert got.blocks.tobytes() == grid_last(want.blocks).tobytes()


@pytest.mark.parametrize("M", GRID_MS)
@pytest.mark.parametrize("dim", [2, 4])
def test_chart_contractions_equal_the_grid_first_einsum(dim, M):
    # the summed einsums against a chart tensor, whose grid axes lead in the
    # grid-first layout: the last contraction of sr_contraction (16 terms at
    # dim 2) and the connection Gamma(dphi_k, .)
    rng = np.random.default_rng([M, dim])
    Z = generic_factor(rng, 2, (2, dim, 2, dim, dim, M, M), range(4))
    dphi = generic_factor(rng, 2, (2, dim, M, M), range(4))
    Rop = rng.standard_normal((dim,) * 4 + (M, M))
    Gamma = rng.standard_normal((dim,) * 3 + (M, M))

    def chart_first(tensor):
        return np.ascontiguousarray(np.moveaxis(tensor, (-2, -1), (0, 1)))

    sr, conn = "sxymanbc,xyabce->sxyme", "xyecd,sxykc->sxyked"
    got = np.einsum(grid_last_spec(sr), Z, Rop)
    assert got.tobytes() == grid_last(np.einsum(sr, grid_first(Z), chart_first(Rop))).tobytes()
    got = _gamma_dphi(Gamma, pack(dphi)).blocks
    assert got.tobytes() == grid_last(np.einsum(conn, chart_first(Gamma), grid_first(dphi))).tobytes()


# -- packed fields ---------------------------------------------------------------------


def test_pack_keeps_the_nonzero_blocks_only():
    field = gzeros(3, (2, 4, 4))
    field[2, 0, 1, 1] = 1.0
    field[5] = complex(-0.0, -0.0)
    field[6, 1, 3, 3] = -0.0 + 1e-300j
    packed = pack(field)
    assert packed.masks == (2, 6) and packed.shape == (2, 2, 4, 4)
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
    out = gcontract(pack(a), pack(b), "xy,xy->xy")
    assert out.masks == (3,) and np.all(out.blocks == 6.0)
    # anticommutation: swapping the odd factors flips the sign
    out2 = gcontract(pack(b), pack(a), "xy,xy->xy")
    assert np.all(out2.blocks == -6.0)


def test_component_map_parity_enforced():
    cm = ComponentMap.zero(2, 8, 2)
    psi = gzeros(2, (2, 2, 8, 8))
    psi[0, 0, 0, 0, 0] = 1.0  # even mask in an odd field
    with pytest.raises(FieldError, match="psi must be odd"):
        replace(cm, psi=psi)
    # packed fields are checked on their mask tuple
    with pytest.raises(FieldError, match="mask 0b11"):
        replace(cm, psi=GridField((3,), np.ones((1, 2, 2, 8, 8), dtype=complex)))
    with pytest.raises(FieldError, match="mask 0b100"):
        replace(cm, psi=GridField((4,), np.ones((1, 2, 2, 8, 8), dtype=complex)))
    with pytest.raises(FieldError, match="2\\^L"):
        replace(cm, F=gzeros(3, (2, 8, 8)))


def test_component_map_phi_reality_enforced():
    cm = ComponentMap.zero(2, 8, 2)
    phi = gzeros(2, (2, 8, 8))
    phi[3, 0, 0, 0] = 1j
    with pytest.raises(FieldError):
        replace(cm, phi_periodic=phi)


def test_gravitino_parity_enforced():
    chi = gzeros(2, (2, 2, 8, 8))
    chi[3] = 1.0
    with pytest.raises(FieldError):
        Gravitino(L=2, chi=chi)


def test_field_shapes_must_match_phi():
    # psi and F take 2n and M from phi, chi takes M from itself; a mismatch names the field
    cm = ComponentMap.zero(2, 8, 2)
    for psi_shape in [(2, 4, 8, 8), (2, 2, 16, 16)]:  # target dimension 4, or a 16x16 grid, on a dim-2 8x8 map
        psi = gzeros(2, psi_shape)
        psi[1] = 1.0
        with pytest.raises(FieldError, match=r"psi blocks must have shape \(2, 2, 8, 8\) to match phi"):
            replace(cm, psi=psi)
    with pytest.raises(FieldError, match="F blocks"):
        replace(cm, F=gzeros(2, (4, 8, 8)))
    with pytest.raises(FieldError, match="phi blocks"):
        replace(cm, phi_periodic=gzeros(2, (2, 8, 4)))
    for chi_shape in [(2, 3, 8, 8), (2, 2, 8, 4), (2, 2, 8)]:
        with pytest.raises(FieldError, match="chi blocks"):
            Gravitino(L=2, chi=gzeros(2, chi_shape))


def test_phi_body_combines_affine_and_periodic():
    lin = np.array([[1.0, 0.0], [0.0, 2.0]])
    cm = replace(ComponentMap.zero(2, 4, 2), phi_linear=lin)
    xs = np.arange(4) / 4
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    assert np.array_equal(cm.phi_body(x1, x2), np.stack([x1, 2.0 * x2]))
    phi = gzeros(2, (2, 4, 4))
    phi[0, 0] = 5.0
    body = replace(cm, phi_periodic=phi).phi_body(x1, x2)
    assert np.abs(body[0] - (x1 + 5.0)).max() == 0.0
    assert np.abs(body[1] - 2.0 * x2).max() == 0.0
