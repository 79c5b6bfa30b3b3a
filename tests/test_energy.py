import numpy as np

from grassmann_oracle import GrassmannElement, evaluate
from sjclab.energy import energy_identity_residual
from sjclab.superfield import (
    FlatTargetJ,
    SuperField,
    apply_D3,
    apply_D4,
    components_from_complex,
)
from sjclab.suites import random_flat_z_component
from sjclab.targets import standard_J


def numeric_oracle(components, J, x1, x2):
    """Evaluate both sides at a numeric point as Grassmann numbers.

    Independent route: collapse the superfields first, then do the frame
    derivative combinatorics on plain Grassmann elements.
    """
    L = components[0].L
    d3 = [evaluate(apply_D3(y), x1, x2) for y in components]
    d4 = [evaluate(apply_D4(y), x1, x2) for y in components]
    dim = J.dim

    def apply_j(vec):
        out = []
        for b in range(dim):
            acc = GrassmannElement.zero(L + 2)
            for c in range(dim):
                if J.matrix[c, b]:
                    acc = acc + vec[c] * J.matrix[c, b]
            out.append(acc)
        return out

    jid3 = apply_j(d4)
    jid4 = apply_j([g * (-1) for g in d3])
    a3 = [x + y for x, y in zip(d3, jid3)]
    a4 = [x + y for x, y in zip(d4, jid4)]

    def pair(u, v):
        acc = GrassmannElement.zero(L + 2)
        for ub, vb in zip(u, v):
            acc = acc + ub * vb
        return acc

    lhs = (pair(a3, a4) - pair(a4, a3)) * 0.5
    rhs = pair(d3, d4) - pair(d4, d3) + pair(jid3, d4) - pair(jid4, d3)
    return lhs - rhs


def test_zero_map():
    J = FlatTargetJ(standard_J(1))
    res = energy_identity_residual([SuperField.zero(2), SuperField.zero(2)], J)
    assert res.is_zero()


def test_linear_coordinate_map():
    J = FlatTargetJ(standard_J(1))
    res = energy_identity_residual(
        [SuperField.coordinate_x1(2), SuperField.zero(2)], J
    )
    assert res.is_zero()


def test_twenty_random_maps_exact():
    rng = np.random.default_rng(0)
    for t in range(20):
        n = 1 + t % 2
        J = FlatTargetJ(standard_J(n))
        comps = [
            random_flat_z_component(rng, 2, holomorphic=bool(rng.random() < 0.4))
            for _ in range(n)
        ]
        ys = components_from_complex(comps)
        assert energy_identity_residual(ys, J).is_zero()


def test_numeric_point_oracle():
    rng = np.random.default_rng(1)
    J = FlatTargetJ(standard_J(1))
    for _ in range(5):
        comps = [random_flat_z_component(rng, 2, holomorphic=False)]
        ys = components_from_complex(comps)
        for _ in range(3):
            x1, x2 = rng.uniform(-2, 2, size=2)
            resid = numeric_oracle(ys, J, x1, x2)
            assert all(abs(c) <= 1e-9 for c in resid.terms.values())
