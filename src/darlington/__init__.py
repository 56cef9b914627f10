"""Darlington-type lifts of rational matrix Herglotz functions in several
variables, numerical class membership checks, and the classical
one-variable lossless realization.

The names below are the public surface, each documented in README.md;
everything else is reachable from its module.
"""

from .checks import (
    SampleConfig,
    Tolerances,
    check_cayley_inner,
    check_nevanlinna,
    check_positive_real,
    check_real_stable,
    check_stable,
    lemma11_probe,
    lemma12_probe,
    pencil_probe,
)
from .fileio import FileFormatError, load_function, save_function
from .lift import lift, restrict_at_i
from .poly import DimensionMismatch, MatrixPoly
from .rational import (
    NearPole,
    RationalMatrixFunction,
    coprime_probe,
    identity_equal,
    rotate_to_nevanlinna,
    rotate_to_positive_real,
)
from .realization import SplitFailed, realize_1d

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MatrixPoly",
    "DimensionMismatch",
    "RationalMatrixFunction",
    "NearPole",
    "coprime_probe",
    "identity_equal",
    "rotate_to_nevanlinna",
    "rotate_to_positive_real",
    "lift",
    "restrict_at_i",
    "SplitFailed",
    "realize_1d",
    "SampleConfig",
    "Tolerances",
    "check_nevanlinna",
    "check_cayley_inner",
    "check_positive_real",
    "check_stable",
    "check_real_stable",
    "pencil_probe",
    "lemma11_probe",
    "lemma12_probe",
    "FileFormatError",
    "load_function",
    "save_function",
]
