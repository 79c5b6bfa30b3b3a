import numpy as np
import pytest

from grassmann_oracle import GrassmannElement, elements
from sjclab.fields import (
    ComponentMap,
    FieldError,
    Gravitino,
    even_masks,
    gcontract,
    gzeros,
    odd_masks,
)


def test_mask_parities():
    assert even_masks(2) == [0, 3]
    assert odd_masks(2) == [1, 2]
    assert len(even_masks(4)) == 8


def gaussian_integers(rng, shape):
    return rng.integers(-3, 4, size=shape) + 1j * rng.integers(-3, 4, size=shape)


@pytest.mark.parametrize("L", [3, 4])
def test_gcontract_matches_scalar_engine(L):
    # the mask convolution must agree with the exact algebra, entry by entry
    # and under an index contraction, on factors with a nonzero body
    rng = np.random.default_rng(L)
    size = 1 << L
    for _ in range(10):
        a = gaussian_integers(rng, (size, 2, 3))
        b = gaussian_integers(rng, (size, 2, 3))
        a[0] = rng.integers(1, 4, size=(2, 3))
        b[0] = rng.integers(1, 4, size=(2, 3)) * 1j
        ga, gb = elements(np.moveaxis(a, 0, -1)), elements(np.moveaxis(b, 0, -1))
        prod = elements(np.moveaxis(gcontract(a, b, "ij,ij->ij", L), 0, -1))
        assert prod == [[x * y for x, y in zip(u, v)] for u, v in zip(ga, gb)]
        contracted = elements(np.moveaxis(gcontract(a, b, "ij,kj->ik", L), 0, -1))
        assert contracted == [
            [sum((x * y for x, y in zip(u, v)), GrassmannElement.zero(L)) for v in gb] for u in ga
        ]


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
