"""Positive definiteness of 4th-order symmetric tensors (quartic forms).

Exact analytic criteria for binary quartics and a cyclic ternary family,
exact Bernstein subdivision for ternary quartics (``quartpd.bernstein``,
loaded by the first dim-3 decision that reaches it, not by this package),
the staged pipeline ``classify`` over them, whose every decisive verdict
is exact and whose ``Decision`` names the deciding stage, its verdict and
each stage's wall time, a numeric sphere-minimization oracle that reports
the minimum and the zero set and decides no verdict, and a verification
harness for ternary quartic inequalities.

No decision needs the oracle or the harness, so ``quartpd.oracle`` and
``quartpd.inequalities`` are loaded on first use of either module or one of
its names here, not with this package.
"""

import importlib

from .binary import BinaryQuartic
from .cyclic import embed
from .pipeline import Decision, classify
from .tensor import SymmetricTensor4, diag_ones, multiplicity
from .verdict import Kind, Verdict

_LAZY = {
    "oracle": ("OracleConfig", "OracleResult", "sphere_minimize", "zero_set_probe"),
    "inequalities": ("InequalityReport", "WeightedInequality", "builtin_catalog", "verify"),
}


def __getattr__(name: str):
    """``oracle`` and ``inequalities``, and the names they export here, each
    module imported on first use."""
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = importlib.import_module(f"{__name__}.{module}")
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BinaryQuartic",
    "Decision",
    "InequalityReport",
    "Kind",
    "OracleConfig",
    "OracleResult",
    "SymmetricTensor4",
    "Verdict",
    "WeightedInequality",
    "builtin_catalog",
    "classify",
    "diag_ones",
    "embed",
    "multiplicity",
    "sphere_minimize",
    "verify",
    "zero_set_probe",
]
