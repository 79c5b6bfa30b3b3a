"""Verification laboratory for super J-holomorphic curve computations.

Modules:

* :mod:`sjclab.grassmann` -- sign conventions of the Grassmann algebra;
* :mod:`sjclab.superfield` -- symbolic superfields on the flat patch and
  the flat-model first-order system;
* :mod:`sjclab.targets` -- Kahler target models in holomorphic charts;
* :mod:`sjclab.spin`, :mod:`sjclab.patch`, :mod:`sjclab.fields`,
  :mod:`sjclab.components`, :mod:`sjclab.fierz`, :mod:`sjclab.energy` --
  the component-field calculus on the periodic patch;
* :mod:`sjclab.indexlab` -- discretized operators and their kernels and cokernels;
* :mod:`sjclab.classify`, :mod:`sjclab.suites`, :mod:`sjclab.cli` --
  classification, batch suites and the command line.

Every public function, class and method of the package has a caller in
the package or is one of the names in ``__all__``, the library surface
that README documents.  The references and fixtures the tests use (the
sparse Grassmann algebra, superfield evaluation at a point, the dense
global index matrices, model invariants, conformal covariance, the
input-file writers) live under ``tests/``, not in the package.
"""

from .superfield import (
    SuperField,
    apply_D3,
    apply_D4,
    apply_Dbar,
    apply_J,
    components_from_complex,
    flat_sjc_residual,
    holomorphy_equivalence_check,
)
from .targets import AlmostKahlerModel, make_const_hsc, make_flat, make_fs_cp1, make_model
from .classify import (
    BochnerVerdicts,
    bochner_classify,
    moduli_dimension,
)
from .indexlab import (
    IndexReport,
    OperatorMatrix,
    build_dbar_sphere,
    build_dirac10_sphere,
    build_dirac_torus,
    h_oracle,
    numeric_index,
)

__all__ = [
    "SuperField", "apply_D3", "apply_D4", "apply_Dbar", "apply_J",
    "components_from_complex", "flat_sjc_residual", "holomorphy_equivalence_check",
    "AlmostKahlerModel", "make_const_hsc", "make_flat", "make_fs_cp1", "make_model",
    "BochnerVerdicts", "bochner_classify", "moduli_dimension",
    "IndexReport", "OperatorMatrix", "build_dbar_sphere", "build_dirac10_sphere",
    "build_dirac_torus", "h_oracle", "numeric_index",
]
__version__ = "0.1.0"
