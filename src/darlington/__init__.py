"""Darlington-type lifts of rational matrix Herglotz functions in several
variables, numerical class membership checks, and the classical
one-variable lossless realization.

The names below are the public surface, each documented in README.md;
everything else is reachable from its module.  Each name is imported from
its module on first use (PEP 562), so ``import darlington`` loads neither
numpy nor any module.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# module: the public names it defines
_MODULES = {
    "poly": "MatrixPoly DimensionMismatch",
    "rational": "RationalMatrixFunction NearPole coprime_probe identity_equal "
                "rotate_to_nevanlinna rotate_to_positive_real",
    "lift": "lift restrict_at_i",
    "realization": "SplitFailed realize_1d",
    "config": "SampleConfig Tolerances",
    "checks": "check_nevanlinna check_cayley_inner check_positive_real check_stable "
              "check_real_stable pencil_probe lemma11_probe lemma12_probe",
    "fileio": "FileFormatError load_function save_function",
}
_SOURCE = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _SOURCE[name], __name__), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    """Binds no submodule over a public name: ``import darlington.lift`` would
    otherwise hide the function ``lift`` behind its module."""

    def __setattr__(self, name, value):
        if not (name in _SOURCE and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
