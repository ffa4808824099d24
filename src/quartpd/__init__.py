"""Positive definiteness of 4th-order symmetric tensors (quartic forms).

Exact analytic criteria for binary quartics and a cyclic ternary family,
exact Bernstein subdivision for ternary quartics (``quartpd.bernstein``,
loaded by the first dim-3 decision that reaches it, not by this package),
the staged pipeline ``classify`` over them, whose every decisive verdict
is exact and whose ``Decision`` names the deciding stage, its verdict and
each stage's wall time, a numeric sphere-minimization oracle that reports
the minimum and the zero set and decides no verdict, and a verification
harness for ternary quartic inequalities.
"""

from .binary import BinaryQuartic, classify as classify_binary
from .cyclic import CyclicTernary, RelaxedCyclicTernary, classify as classify_family, embed
from .inequalities import (
    InequalityReport,
    WeightedInequality,
    builtin_catalog,
    verify,
)
from .oracle import (
    OracleConfig,
    OracleResult,
    sphere_minimize,
    zero_set_probe,
)
from .pipeline import Decision, classify
from .tensor import SymmetricTensor4, diag_ones, multiplicity
from .verdict import Kind, Verdict

__all__ = [
    "BinaryQuartic",
    "CyclicTernary",
    "Decision",
    "InequalityReport",
    "Kind",
    "OracleConfig",
    "OracleResult",
    "RelaxedCyclicTernary",
    "SymmetricTensor4",
    "Verdict",
    "WeightedInequality",
    "builtin_catalog",
    "classify",
    "classify_binary",
    "classify_family",
    "diag_ones",
    "embed",
    "multiplicity",
    "sphere_minimize",
    "verify",
    "zero_set_probe",
]
