"""Writers of the two input formats ``sjc`` reads, for the tests.

``write_flat_map`` writes a flat-map file for ``sjc verify-flat`` and
``write_field_bundle`` a field bundle for ``sjc verify-components``; both
formats are described in ``sjclab.serialize``, whose readers the tests
run on these files.
"""

from __future__ import annotations

import json

import numpy as np

from fields_oracle import dense
from sjclab.fields import ComponentMap, Gravitino
from sjclab.patch import ReducedPatch
from sjclab.superfield import SuperField


def write_flat_map(path, L: int, components_z: list[SuperField]) -> None:
    payload = {"schema": 1, "L": L, "n": len(components_z), "components_z": [c.to_text() for c in components_z]}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_field_bundle(path, cmap: ComponentMap, grav: Gravitino, patch: ReducedPatch, model: dict) -> None:
    M = patch.M
    header = {
        "schema": 1,
        "M": M,
        "L": cmap.L,
        "dim": cmap.dim,
        "model": model,
        "lambda": "flat" if np.all(patch.lam == 1.0) else "grid",
        "phi_linear": [list(map(float, row)) for row in cmap.phi_linear],
    }
    # per point: each field's blocks on every mask in order, (re, im) of every component
    fields = (cmap.phi_periodic, cmap.psi, cmap.F, grav.chi)
    blocks = [np.moveaxis(dense(a, cmap.L), (-2, -1), (0, 1)).reshape(M, M, -1) for a in fields]
    values = np.concatenate(blocks, axis=-1)
    values = np.stack([values.real, values.imag], axis=-1).reshape(M, M, -1)
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for i in range(M):
            for j in range(M):
                rec = [str(i), str(j), repr(float(patch.lam[i, j]))] + [repr(v) for v in values[i, j].tolist()]
                fh.write(" ".join(rec) + "\n")
