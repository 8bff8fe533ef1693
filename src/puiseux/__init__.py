"""Term-by-term Puiseux series solutions of polynomial systems.

Exact rational arithmetic throughout: candidate first-term weights come from
the generator-level tropical prevariety, coefficients from lex Groebner
elimination with rational roots found by exact real-root isolation and
verified exactly, and every emitted truncation
carries a residual-order certificate.
"""

from .expansion import (
    Branch,
    BranchBudgetExceeded,
    ExpandOptions,
    StepData,
    denominator_lcm,
    expand,
    recenter,
    starting_data,
    verify_residual,
)
from .lpoly import (
    LPoly,
    ramify,
    shift_y,
    substitute_y,
    weighted_order,
)
from .problem import ProblemError, parse_problem, render_poly
from .solver import BudgetExceeded, rational_roots, torus_solutions
from .tropical import candidate_etas
from .values import WeightMatrix

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "BranchBudgetExceeded",
    "BudgetExceeded",
    "ExpandOptions",
    "LPoly",
    "ProblemError",
    "StepData",
    "WeightMatrix",
    "candidate_etas",
    "denominator_lcm",
    "expand",
    "parse_problem",
    "ramify",
    "rational_roots",
    "recenter",
    "render_poly",
    "shift_y",
    "starting_data",
    "substitute_y",
    "torus_solutions",
    "verify_residual",
    "weighted_order",
]
