"""Darlington-type lifts of rational matrix Herglotz functions in several
variables, numerical class membership checks, and the classical
one-variable lossless realization."""

from .checks import (
    CheckReport,
    PencilProbe,
    SampleConfig,
    SingularCayley,
    Tolerances,
    check_cayley_inner,
    check_nevanlinna,
    check_positive_real,
    check_real_stable,
    check_stable,
    disk_to_upper,
    double_cayley_eval,
    lemma11_probe,
    lemma12_probe,
    pencil_probe,
    upper_to_disk,
)
from .fileio import (
    FileFormatError,
    dumps_deterministic,
    function_from_dict,
    function_to_dict,
    load_function,
    save_function,
)
from .lift import (
    DarlingtonLift,
    Decomposition,
    ZeroDenominatorPencil,
    decompose,
    lift,
    restrict_at_i,
)
from .poly import DimensionMismatch, MatrixPoly
from .rational import (
    NearPole,
    RationalMatrixFunction,
    coprime_probe,
    identity_equal,
    rotate_to_nevanlinna,
    rotate_to_positive_real,
)
from .realization import (
    LFTRealization,
    NotOneVariable,
    NotScalar,
    ReconstructionMismatch,
    SplitFailed,
    realize_1d,
)

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
    "Decomposition",
    "DarlingtonLift",
    "ZeroDenominatorPencil",
    "decompose",
    "lift",
    "restrict_at_i",
    "LFTRealization",
    "NotScalar",
    "NotOneVariable",
    "SplitFailed",
    "ReconstructionMismatch",
    "realize_1d",
    "SampleConfig",
    "Tolerances",
    "CheckReport",
    "PencilProbe",
    "SingularCayley",
    "check_nevanlinna",
    "check_cayley_inner",
    "check_positive_real",
    "check_stable",
    "check_real_stable",
    "pencil_probe",
    "lemma11_probe",
    "lemma12_probe",
    "double_cayley_eval",
    "disk_to_upper",
    "upper_to_disk",
    "FileFormatError",
    "dumps_deterministic",
    "function_to_dict",
    "function_from_dict",
    "load_function",
    "save_function",
]
