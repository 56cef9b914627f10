"""What the package and the command line load at start-up, each case in a
fresh interpreter: no numpy for ``import darlington``, ``import
darlington.cli`` or a refused argument, and the one-thread BLAS default."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from darlington import MatrixPoly, RationalMatrixFunction, save_function

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# runs main on argv, then prints whether numpy is loaded and the BLAS variables
RUN_MAIN = """
import os, sys
from darlington.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print("numpy" in sys.modules, *(os.environ.get(v) for v in %r))
sys.exit(code)
""" % (BLAS,)


def python(code, *argv, **env):
    """code run in a fresh interpreter with the BLAS variables unset but for env."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS + ("DARLINGTON_SEED",)}
    base["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, "-c", code, *argv], env={**base, **env},
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("module", ["darlington", "darlington.cli"])
def test_import_loads_no_numpy(module):
    proc = python("import sys, %s; assert 'numpy' not in sys.modules, sorted(sys.modules)"
                  % module)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("bad, message", [
    (["--samples", "-1"], "SampleConfig needs an integer count >= 1, got -1"),
    (["--samples", "0"], "SampleConfig needs an integer count >= 1, got 0"),
    (["--imag-floor", "0"], "SampleConfig needs 0 < imag_floor < box_radius (10.0), got 0.0"),
    (["--imag-floor", "-1"], "SampleConfig needs 0 < imag_floor < box_radius (10.0), got -1.0"),
    (["--box-radius", "0"], "SampleConfig needs box_radius > 0 with 2 * box_radius finite, "
                            "got 0.0"),
    (["--psd-slack", "nan"], "Tolerances needs a finite psd_slack >= 0, got nan"),
])
def test_refused_argument_loads_no_numpy(tmp_path, bad, message):
    missing = str(tmp_path / "missing.json")
    proc = python(RUN_MAIN, "check", missing, "--class", "nevanlinna", *bad)
    assert proc.returncode == 2
    assert proc.stderr == "darlington check: error: %s\n" % message
    assert proc.stdout == "False None None None\n"


def test_bad_coordinates_are_refused_before_the_file_is_read(tmp_path):
    proc = python(RUN_MAIN, "eval", str(tmp_path / "missing.json"), "--at=inf")
    assert proc.returncode == 2
    assert proc.stderr == "error: --at coordinates must be finite, got inf\n"
    assert proc.stdout == "False None None None\n"


def test_bad_seed_variable_loads_no_numpy(tmp_path):
    missing = str(tmp_path / "missing.json")
    proc = python(RUN_MAIN, "check", missing, "--class", "nevanlinna", DARLINGTON_SEED="x")
    assert proc.returncode == 2
    assert proc.stderr == "error: DARLINGTON_SEED must be an integer, got 'x'\n"
    assert proc.stdout == "False None None None\n"


# runs main on argv after checking that importing the command line did not
# load secrets, then prints whether main did
SECRETS = """
import sys
from darlington.cli import main
assert "secrets" not in sys.modules
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print("secrets" in sys.modules)
"""


@pytest.mark.parametrize("argv, loaded", [(["--samples", "0"], False), (["--seed", "0"], True)])
def test_only_seed_zero_loads_secrets(tmp_path, argv, loaded):
    # secrets brings hashlib and hmac; only the OS entropy of --seed 0 needs it
    proc = python(SECRETS, "check", str(tmp_path / "missing.json"), "--class", "nevanlinna",
                  *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "%s\n" % loaded


def test_realization_loads_no_checks():
    # nor does rational, the home of the univariate helpers both use
    for module, avoided in (("realization", ("checks", "lift", "fileio")),
                            ("rational", ("checks", "lift", "realization", "fileio"))):
        proc = python("import sys, darlington.%s; loaded = [m for m in %r if 'darlington.' + m "
                      "in sys.modules]; assert not loaded, loaded" % (module, avoided))
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("first", ["importlib.import_module('darlington.lift')",
                                   "import darlington.checks"])
def test_submodule_import_keeps_the_lift_function(first):
    proc = python("import importlib, types; %s; from darlington import lift; "
                  "assert isinstance(lift, types.FunctionType), lift" % first)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def doc(tmp_path):
    # -1/(z1 + i), nevanlinna frame
    f = RationalMatrixFunction(MatrixPoly.from_scalar_terms(1, {(0,): -1.0}),
                               MatrixPoly.from_scalar_terms(1, {(1,): 1.0, (0,): 1j}))
    path = str(tmp_path / "f.json")
    save_function(path, f, "nevanlinna")
    return path


def test_main_defaults_blas_to_one_thread(doc):
    proc = python(RUN_MAIN, "eval", doc, "--at", "1j")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True 1 1 1"


def test_main_keeps_a_users_blas_setting(doc):
    proc = python(RUN_MAIN, "eval", doc, "--at", "1j", OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True 2 1 1"


def test_main_leaves_the_environment_alone_once_numpy_is_loaded(doc):
    proc = python("import numpy\n" + RUN_MAIN, "eval", doc, "--at", "1j")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True None None None"
