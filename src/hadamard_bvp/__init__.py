"""Green's function analysis and Lyapunov-type bounds for Hadamard
fractional boundary value problems with two derivative orders.

The library computes the closed-form maximum of the Green's function, the
resulting integral bound on the coefficient, eigenvalue thresholds, and
nonexistence verdicts, and cross-validates the closed forms numerically
(quadrature operators, brute-force maximization, and a Nystrom eigenvalue
estimate of the equivalent integral equation).
"""

__version__ = "0.1.0"

# The package's one export table: each public name under the module that
# defines it.  A module loads on first use of its name or of one of its names
# (PEP 562), so `import hadamard_bvp` loads none of them, and what a command
# loads is decided by the imports of the modules it uses.
_LAZY = {
    "bounds": (
        "LyapunovReport", "eigenvalue_bound", "integrate_abs_q", "lambda_nonexistence_check",
        "lyapunov_bound", "lyapunov_report", "nonexistence_check", "reference_bound_kappa0",
    ),
    "coefficient": ("Coefficient", "Constant", "Table", "eval_coefficient", "load_table"),
    "errors": (
        "BoundaryOrderUnsupported", "ConvergenceFailure", "DifferenceInstability", "DomainInvalid",
        "EvalError", "ExpressionSyntaxError", "HadamardBVPError", "NonFiniteResult",
        "OrderOutOfRange", "OutOfTableRange", "QuadratureFailure", "ResourceLimit",
        "ResultUnderflow", "UnknownIdentifier",
    ),
    "expression": ("Expression", "parse_expr", "pretty"),
    "fredholm": ("NystromResult", "min_eigenvalue_modulus", "nystrom_matrix"),
    "grid": ("green_max_bruteforce",),
    "kernel": (
        "GreenMaxReport", "MaxBranch", "critical_x2", "diag_h", "discriminant", "green_eval",
        "green_max", "mho", "omega", "t_hat", "t_star", "xi1", "xi2", "zeta",
    ),
    "operators": (
        "OperatorKind", "composition_check", "hadamard_derivative", "hadamard_integral",
        "power_rule_reference",
    ),
    "params": (
        "FracParams", "Verdict", "VerdictKind", "gamma", "log_ratio", "reciprocal_gamma", "validate",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}
__all__ = ["__version__", *_LAZY_MODULE]


def __getattr__(name: str):
    module = name if name in _LAZY else _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f".{module}", __name__)
    value = loaded if module == name else getattr(loaded, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """Every public name, loaded or not, and the names already bound."""
    return sorted({*globals(), *__all__})
