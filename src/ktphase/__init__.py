"""Boundary phase-space workbench for Lagrangian field theories.

From a declarative theory (coordinates, fields, backgrounds, Lagrangian
density) the package derives the field equations, the boundary 1-form whose
vertical differential is the presymplectic 2-form, and the non-evolutionary
constraint densities -- all over exact rationals -- and then verifies kernels,
gauge generators, constraint brackets, and conservation laws with exact
pointwise linear algebra and a numeric lattice backend.

Layers:

* :mod:`ktphase.expr`      -- exact-rational expressions over jet variables;
* :mod:`ktphase.calc_var`  -- variation, integration by parts, boundary data;
* :mod:`ktphase.pointlin`  -- exact (k,l)-form algebra at a boundary point;
* :mod:`ktphase.lattice`   -- periodic-grid numeric verification;
* :mod:`ktphase.theories`  -- the builtin theory corpus and golden records;
* :mod:`ktphase.verify`    -- check drivers shared by tests and the CLI;
* :mod:`ktphase.cli`       -- theory files, reports, the ``ktphase`` command.
"""

from . import errors
from .calc_var import (
    BackgroundDecl,
    BoundaryChart,
    BoundarySplit,
    ChartField,
    FieldDecl,
    LocalVarForm,
    TheorySpec,
    boundary_restrict,
    constraint_extract,
    ibp_split,
    variation,
    verify_chart,
    vertical_delta,
)
from .cli import emit_report, emit_theory, parse_theory, run_pipeline
from .expr import Context, Expr, JetVar, SymbolMeta, diff_jet, evaluate, normalize, total_derivative
from .pointlin import (
    PForm,
    coframe_kernel_dim,
    injective_w21,
    internal_act,
    structural_fix,
    wedge,
)
from .theories import builtin, chart, constraint_set, gauge_direction, golden

__version__ = "0.1.0"

# the lattice imports numpy, so its names load on first use (PEP 562) and
# deriving a theory does not pay for numpy
_LATTICE_NAMES = (
    "LatticeGrid", "LatticeModel", "TwoFormMatrix",
    "assemble_two_form", "two_form_rank", "random_smear",
    "hamiltonian_vector_field", "poisson_bracket", "evolve_em",
    "symplectic_current_check", "coisotropy_check",
)

__all__ = [
    "errors",
    # expressions
    "Context", "Expr", "JetVar", "SymbolMeta",
    "normalize", "diff_jet", "total_derivative", "evaluate",
    # variational pipeline
    "TheorySpec", "FieldDecl", "BackgroundDecl", "LocalVarForm", "BoundarySplit",
    "BoundaryChart", "ChartField",
    "variation", "ibp_split", "vertical_delta", "boundary_restrict",
    "constraint_extract", "verify_chart",
    # pointwise algebra
    "PForm", "wedge", "internal_act", "coframe_kernel_dim",
    "injective_w21", "structural_fix",
    # lattice
    *_LATTICE_NAMES,
    # corpus and front end
    "builtin", "golden", "chart", "constraint_set", "gauge_direction",
    "parse_theory", "emit_theory", "run_pipeline", "emit_report",
]


def __getattr__(name):
    if name in _LATTICE_NAMES:
        from . import lattice
        return getattr(lattice, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
