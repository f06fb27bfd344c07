"""meanosc: exact mean-oscillation and Muckenhoupt-weight computations.

A library and CLI for piecewise-constant functions on the interval, the
line, and the circle: exact averages, centered moments, and value
distributions; homogenization/gluing construction DAGs; supremum searches
for oscillation seminorms and weight constants; simple martingale
validation and compilation to circle functions; and the classical sharp
constants these computations are checked against.
"""

from .constants import bellman_value, c3p, classic_jn_constants, jn_weak_envelope, lp_equiv_constant
from .construct import (
    ConstructExpr,
    QueryResult,
    constant,
    expr_from_dict,
    glue,
    homogenize,
    leaf,
    materialize,
    periodize,
    query,
    required_pieces,
)
from .distributions import DiscreteDistribution, dist_mix, tv_distance
from .errors import BudgetError, InputError, InternalError
from .martingales import (
    ApDomain,
    MartingaleTree,
    MartNode,
    MomentDomain,
    ValidationReport,
    compile_to_circle,
    log_staircase,
    power_staircase,
    validate_membership,
)
from .search import (
    SearchConfig,
    SearchReport,
    a_inf_constant,
    ap_constant,
    bmo_norm,
    circle_bmo_norm,
    exp_integral,
    reverse_holder_ratio,
    weak_distribution,
)
from .stepfun import (
    CIRCLE,
    Circle,
    Interval,
    IntervalQuery,
    MonotoneMap,
    StepFunction,
    average,
    central_moment,
    compose_monotone,
    distribution,
    monotone_rearrangement,
)

__version__ = "0.1.0"

__all__ = [
    "CIRCLE",
    "ApDomain",
    "BudgetError",
    "Circle",
    "ConstructExpr",
    "DiscreteDistribution",
    "InputError",
    "InternalError",
    "Interval",
    "IntervalQuery",
    "MartNode",
    "MartingaleTree",
    "MomentDomain",
    "MonotoneMap",
    "QueryResult",
    "SearchConfig",
    "SearchReport",
    "StepFunction",
    "ValidationReport",
    "a_inf_constant",
    "ap_constant",
    "average",
    "bellman_value",
    "bmo_norm",
    "c3p",
    "central_moment",
    "circle_bmo_norm",
    "classic_jn_constants",
    "compile_to_circle",
    "compose_monotone",
    "constant",
    "dist_mix",
    "distribution",
    "exp_integral",
    "expr_from_dict",
    "glue",
    "homogenize",
    "jn_weak_envelope",
    "leaf",
    "log_staircase",
    "lp_equiv_constant",
    "materialize",
    "monotone_rearrangement",
    "periodize",
    "power_staircase",
    "query",
    "required_pieces",
    "reverse_holder_ratio",
    "tv_distance",
    "validate_membership",
    "weak_distribution",
]
