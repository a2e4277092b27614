"""Green's function analysis and Lyapunov-type bounds for Hadamard
fractional boundary value problems with two derivative orders.

The library computes the closed-form maximum of the Green's function, the
resulting integral bound on the coefficient, eigenvalue thresholds, and
nonexistence verdicts, and cross-validates the closed forms numerically
(quadrature operators, brute-force maximization, and a Nystrom eigenvalue
estimate of the equivalent integral equation).
"""

from .bounds import (
    LyapunovReport,
    eigenvalue_bound,
    integrate_abs_q,
    lambda_nonexistence_check,
    lyapunov_bound,
    lyapunov_report,
    nonexistence_check,
    reference_bound_kappa0,
)
from .coefficient import Coefficient, Constant, Table, eval_coefficient, load_table
from .errors import (
    BoundaryOrderUnsupported,
    ConvergenceFailure,
    DifferenceInstability,
    DomainInvalid,
    EvalError,
    ExpressionSyntaxError,
    HadamardBVPError,
    NonFiniteResult,
    OrderOutOfRange,
    OutOfTableRange,
    QuadratureFailure,
    ResourceLimit,
    ResultUnderflow,
    UnknownIdentifier,
)
from .gammafn import gamma, reciprocal_gamma
from .kernel import (
    GreenMaxReport,
    MaxBranch,
    critical_x2,
    diag_h,
    discriminant,
    green_eval,
    green_max,
    mho,
    omega,
    t_hat,
    t_star,
    xi1,
    xi2,
    zeta,
)
from .params import FracParams, Verdict, VerdictKind, log_ratio, validate

__version__ = "0.1.0"

# The array modules (the brute-force grid, the quadrature operators and the
# Nystrom matrix) and the expression parser load on first use (PEP 562), so
# that the commands that do not need them do not pay for them, or for numpy,
# at start-up.
_LAZY = {
    "expression": ("Expression", "parse_expr", "pretty"),
    "fredholm": ("NystromResult", "min_eigenvalue_modulus", "nystrom_matrix"),
    "grid": ("green_max_bruteforce",),
    "operators": (
        "OperatorKind", "composition_check", "hadamard_derivative", "hadamard_integral",
        "power_rule_reference",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = name if name in _LAZY else _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f".{module}", __name__)
    value = loaded if module == name else getattr(loaded, name)
    globals()[name] = value
    return value

__all__ = [
    "__version__",
    # parameters and verdicts
    "FracParams", "Verdict", "VerdictKind", "log_ratio", "validate",
    # special functions
    "gamma", "reciprocal_gamma",
    # kernel
    "GreenMaxReport", "MaxBranch", "xi1", "xi2", "green_eval", "diag_h",
    "zeta", "discriminant", "critical_x2", "t_star", "t_hat", "omega",
    "mho", "green_max", "green_max_bruteforce",
    # bounds
    "LyapunovReport", "lyapunov_bound", "eigenvalue_bound", "lyapunov_report",
    "nonexistence_check", "lambda_nonexistence_check", "integrate_abs_q",
    "reference_bound_kappa0",
    # operators
    "OperatorKind", "hadamard_integral", "hadamard_derivative",
    "power_rule_reference", "composition_check",
    # coefficients
    "Coefficient", "Constant", "Expression", "Table", "parse_expr", "pretty",
    "eval_coefficient", "load_table",
    # fredholm
    "NystromResult", "nystrom_matrix", "min_eigenvalue_modulus",
    # errors
    "HadamardBVPError", "DomainInvalid", "OrderOutOfRange",
    "BoundaryOrderUnsupported", "ResourceLimit", "QuadratureFailure",
    "DifferenceInstability", "ConvergenceFailure", "NonFiniteResult", "ResultUnderflow",
    "EvalError", "OutOfTableRange", "UnknownIdentifier", "ExpressionSyntaxError",
]
