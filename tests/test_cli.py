"""End-to-end command line behavior: reports, exit codes, determinism."""

import itertools
import json
import warnings

import pytest

from darlington import MatrixPoly, RationalMatrixFunction, save_function
from darlington.cli import main


def sp(d, coeffs):
    return MatrixPoly.from_scalar_terms(d, coeffs)


def one(d):
    return MatrixPoly.constant(d, 1.0)


def write(tmp_path, name, f, frame):
    path = tmp_path / name
    save_function(str(path), f, frame)
    return str(path)


@pytest.fixture
def neg_inv(tmp_path):
    # -1/(z1 + i), nevanlinna frame
    f = RationalMatrixFunction(sp(1, {(0,): -1.0}), sp(1, {(1,): 1.0, (0,): 1j}))
    return write(tmp_path, "neg_inv.json", f, "nevanlinna")


@pytest.fixture
def pr_simple(tmp_path):
    # 1/(s+1), positive-real frame
    f = RationalMatrixFunction(sp(1, {(0,): 1.0}), sp(1, {(1,): 1.0, (0,): 1.0}))
    return write(tmp_path, "pr_simple.json", f, "positive-real")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


FAST = ["--samples", "60"]


@pytest.fixture
def poly(tmp_path):
    # z1 + i as a polynomial document, nevanlinna frame
    f = RationalMatrixFunction(sp(1, {(1,): 1.0, (0,): 1j}), one(1))
    return write(tmp_path, "poly.json", f, "nevanlinna")


# ----------------------------------------------------------------------
# lift


def test_lift_emits_function_file(neg_inv, capsys):
    code, doc = run(capsys, ["lift", neg_inv])
    assert code == 0
    assert doc["d"] == 2 and doc["m"] == 1 and doc["frame"] == "nevanlinna"
    # -1/(z1 + z2): two denominator terms, one numerator term
    assert len(doc["num_terms"]) == 1 and len(doc["den_terms"]) == 2


def test_lift_rejects_wrong_frame(pr_simple, capsys):
    code, doc = run(capsys, ["lift", pr_simple])
    assert code == 3 and doc is None


def test_lift_takes_no_den_floor(neg_inv, capsys):
    # lift evaluates nothing, so it has no pole floor to set
    with pytest.raises(SystemExit) as exc:
        main(["lift", neg_inv, "--den-floor", "1e-3"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_lift_writes_output_file(neg_inv, tmp_path, capsys):
    out = tmp_path / "lifted.json"
    code, doc = run(capsys, ["lift", neg_inv, "-o", str(out)])
    assert code == 0 and doc is None
    assert json.loads(out.read_text())["d"] == 2


# ----------------------------------------------------------------------
# verify


def test_verify_passes_and_reports(neg_inv, capsys):
    code, doc = run(capsys, ["verify", neg_inv] + FAST)
    assert code == 0
    assert set(doc) == {"command", "inputs", "seed", "tolerances", "verdicts", "witnesses"}
    assert doc["command"] == "verify"
    assert doc["verdicts"] == {
        "identity-at-i": "pass",
        "pieces-structured": "pass",
        "input-nevanlinna": "pass",
        "lift-cayley-inner": "pass",
    }
    ev = doc["witnesses"]["lift-cayley-inner"]
    assert set(ev) == {"verdict", "worst_margin", "samples_used", "witness", "boundary"}
    assert ev["witness"] is None


def test_evidence_says_how_the_boundary_was_decided_and_why_it_is_inconclusive(
        neg_inv, tmp_path, capsys):
    # a lift's boundary is exact; -i/(i z1) has its boundary sampled, and its
    # evidence names no boundary.  An inconclusive report carries its note;
    # the other evidence keeps exactly its four keys
    from darlington.checks import EXACT_BOUNDARY

    _, doc = run(capsys, ["verify", neg_inv] + FAST)
    assert doc["witnesses"]["lift-cayley-inner"]["boundary"] == EXACT_BOUNDARY
    assert set(doc["witnesses"]["input-nevanlinna"]) == {
        "verdict", "worst_margin", "samples_used", "witness"}
    times_i = RationalMatrixFunction(sp(1, {(0,): -1j}), sp(1, {(1,): 1j}))
    code, doc = run(capsys, ["check", write(tmp_path, "times-i.json", times_i, "nevanlinna"),
                             "--class", "cayley-inner"] + FAST)
    assert code == 0 and set(doc["witnesses"]["cayley-inner"]) == {
        "verdict", "worst_margin", "samples_used", "witness"}
    path = poly_file(tmp_path, "fine.json", sp(2, {(1, 0): 1.0, (0, 1): 1.0}))
    code, doc = run(capsys, ["stable", path] + FAST)
    assert code == 6
    assert doc["witnesses"]["stable"]["note"] == "no zero found; sampling cannot prove stability"


def test_verify_is_byte_deterministic(neg_inv, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", neg_inv, "-o", str(a)] + FAST) == 0
    assert main(["verify", neg_inv, "-o", str(b)] + FAST) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_verify_flags_non_member(tmp_path, capsys):
    f = RationalMatrixFunction(sp(1, {(1,): -1.0}), one(1))  # -z1
    path = write(tmp_path, "bad.json", f, "nevanlinna")
    code, doc = run(capsys, ["verify", path] + FAST)
    assert code == 5
    assert doc["verdicts"]["input-nevanlinna"] == "fail"
    assert doc["witnesses"]["input-nevanlinna"]["witness"] is not None


def test_verify_rejects_wrong_frame(pr_simple, capsys):
    code, _ = run(capsys, ["verify", pr_simple] + FAST)
    assert code == 3


# ----------------------------------------------------------------------
# check


def test_check_pass_fail_inconclusive(neg_inv, tmp_path, capsys):
    code, doc = run(capsys, ["check", neg_inv, "--class", "nevanlinna"] + FAST)
    assert code == 0 and doc["verdicts"]["nevanlinna"] == "pass"
    code, doc = run(capsys, ["check", neg_inv, "--class", "cayley-inner"] + FAST)
    assert code == 1 and doc["verdicts"]["cayley-inner"] == "fail"
    assert doc["inputs"]["class"] == "cayley-inner"


def test_check_positive_real_frame(pr_simple, capsys):
    code, doc = run(capsys, ["check", pr_simple, "--class", "positive-real"] + FAST)
    assert code == 0


def test_check_requires_class(neg_inv):
    with pytest.raises(SystemExit) as exc:
        main(["check", neg_inv])
    assert exc.value.code == 2


def test_check_seed_flag_and_env(neg_inv, capsys, monkeypatch):
    code, doc = run(capsys, ["check", neg_inv, "--class", "nevanlinna", "--seed", "7"] + FAST)
    assert doc["seed"] == 7
    monkeypatch.setenv("DARLINGTON_SEED", "99")
    code, doc = run(capsys, ["check", neg_inv, "--class", "nevanlinna"] + FAST)
    assert doc["seed"] == 99
    for bad in ("not-a-number", "-3"):
        monkeypatch.setenv("DARLINGTON_SEED", bad)
        code, doc = run(capsys, ["check", neg_inv, "--class", "nevanlinna"] + FAST)
        assert code == 2 and doc is None


BAD_SAMPLING_ARGUMENTS = [
    # (arguments, what stderr must name)
    (["--seed", "-1"], "got -1"),
    (["--samples", "0"], "got 0"),
    (["--samples", "-1"], "got -1"),
    (["--box-radius", "0"], "got 0.0"),
    (["--box-radius", "inf"], "got inf"),
    (["--box-radius", "1e308"], "got 1e+308"),
    (["--imag-floor", "0"], "got 0.0"),
    (["--imag-floor", "-1"], "got -1.0"),
    (["--imag-floor", "10", "--box-radius", "10"], "got 10.0"),
    (["--psd-slack", "nan"], "got nan"),
    (["--reality-slack", "-1"], "got -1.0"),
    (["--den-floor", "inf"], "got inf"),
    (["--seed", "1.5"], "'1.5'"),
    (["--box-radius", "nan"], "got nan"),
    (["--reality-slack", "inf"], "got inf"),
]


@pytest.mark.parametrize("bad, named", BAD_SAMPLING_ARGUMENTS,
                         ids=["bad%d" % i for i in range(len(BAD_SAMPLING_ARGUMENTS))])
def test_bad_sampling_argument_exits_2(neg_inv, tmp_path, capsys, bad, named):
    # the same refusal for a missing function file: arguments are checked
    # before any file is read
    for path in (neg_inv, str(tmp_path / "missing.json")):
        with pytest.raises(SystemExit) as exc:
            main(["check", path, "--class", "nevanlinna"] + bad)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err and "cannot read" not in captured.err


def test_bad_argument_is_one_stderr_line(neg_inv, capsys):
    for bad, message in [
        # a value that SampleConfig refuses
        (["--samples", "0"], "SampleConfig needs an integer count >= 1, got 0"),
        # a token that argparse refuses: no usage block either
        (["--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(["check", neg_inv, "--class", "nevanlinna"] + bad)
        assert exc.value.code == 2
        assert capsys.readouterr().err == "darlington check: error: %s\n" % message


def test_bad_command_is_one_stderr_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_bad_seed_variable_is_refused_before_the_file_is_read(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DARLINGTON_SEED", "x")
    assert main(["check", str(tmp_path / "missing.json"), "--class", "nevanlinna"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: DARLINGTON_SEED must be an integer, got 'x'\n"


def test_eval_refuses_a_negative_den_floor(neg_inv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", neg_inv, "--at", "1j", "--den-floor", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "den_floor >= 0, got -1.0" in captured.err


def test_check_seed_zero_draws_entropy(neg_inv, capsys):
    _, a = run(capsys, ["check", neg_inv, "--class", "nevanlinna", "--seed", "0"] + FAST)
    _, b = run(capsys, ["check", neg_inv, "--class", "nevanlinna", "--seed", "0"] + FAST)
    assert a["seed"] != b["seed"]


# each option with a value main accepts, and each command's options as
# README documents them
OPTIONS = {"--seed": ["7"], "--samples": ["60"], "--box-radius": ["10"],
           "--imag-floor": ["0.01"], "--no-edge-points": [], "--psd-slack": ["1e-8"],
           "--reality-slack": ["1e-8"], "--den-floor": ["1e-12"], "--class": ["nevanlinna"],
           "--real": [], "--at": ["1j"]}
SAMPLING_OPTIONS = {"--seed", "--samples", "--box-radius", "--imag-floor", "--no-edge-points",
                    "--psd-slack", "--reality-slack", "--den-floor"}
DOCUMENTED = {"lift": set(), "verify": SAMPLING_OPTIONS, "check": SAMPLING_OPTIONS | {"--class"},
              "stable": SAMPLING_OPTIONS | {"--real"}, "realize1d": SAMPLING_OPTIONS,
              "eval": {"--den-floor", "--at"}}
REQUIRED = {"check": ["--class", "nevanlinna"], "eval": ["--at", "1j"]}
# options must be written in full: each prefix below names an option of
# some command, and --real=1 would read as --reality-slack=1 on check
ABBREVIATED = {"--se": ["7"], "--samp": ["60"], "--box": ["10"], "--imag": ["0.01"],
               "--no-edge": [], "--psd": ["1e-8"], "--reality": ["1e-8"], "--den": ["1e-12"],
               "--cl": ["nevanlinna"], "--real=1": [], "--a": ["1j"], "--out": ["x.json"]}


@pytest.mark.parametrize("command, option",
                         list(itertools.product(DOCUMENTED, [*OPTIONS, *ABBREVIATED])))
def test_each_command_takes_exactly_its_documented_options(tmp_path, capsys, command, option):
    # on a missing file, the parser refuses an option the command does not
    # take, and an option it takes gets as far as reading the file
    missing = str(tmp_path / "missing.json")
    values = {**OPTIONS, **ABBREVIATED}[option]
    try:
        code = main([command, missing, *REQUIRED.get(command, []), option, *values])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    if option in DOCUMENTED[command]:
        assert err.startswith("error: cannot read %s" % missing), err
    else:
        assert err.startswith(("darlington: error: ", "darlington %s: error: " % command)), err


# ----------------------------------------------------------------------
# stable


def poly_file(tmp_path, name, p):
    f = RationalMatrixFunction(p, one(p.d))
    return write(tmp_path, name, f, "nevanlinna")


def test_stable_finds_root(tmp_path, capsys):
    path = poly_file(tmp_path, "unstable.json", sp(1, {(2,): 1.0, (0,): 1.0}))
    code, doc = run(capsys, ["stable", path] + FAST)
    assert code == 1
    ev = doc["witnesses"]["stable"]
    assert ev["witness"]["abs_value"] < 1e-10


def test_stable_inconclusive_when_no_root(tmp_path, capsys):
    path = poly_file(tmp_path, "fine.json", sp(2, {(1, 0): 1.0, (0, 1): 1.0}))
    code, doc = run(capsys, ["stable", path] + FAST)
    assert code == 6
    assert doc["verdicts"]["stable"] == "inconclusive"


def test_stable_evidence_gives_the_descent_iterations(tmp_path, capsys):
    # (z1 + i)(z2 + i) has no upper zero; its starts retire once their rate
    # cannot reach the threshold, well before the 50-iteration cap.  A
    # one-variable hunt takes roots and descends 0 iterations
    path = poly_file(tmp_path, "fine.json",
                     sp(2, {(1, 1): 1.0, (1, 0): 1j, (0, 1): 1j, (0, 0): -1.0}))
    code, doc = run(capsys, ["stable", path])
    assert code == 6 and doc["witnesses"]["stable"]["descent_iterations"] == 8
    path = poly_file(tmp_path, "root.json", sp(1, {(1,): 1.0, (0,): -1j}))
    code, doc = run(capsys, ["stable", path])
    assert code == 1 and doc["witnesses"]["stable"]["descent_iterations"] == 0


def test_stable_real_flag(tmp_path, capsys):
    path = poly_file(tmp_path, "complexed.json", sp(1, {(1,): 1.0, (0,): 1j}))
    code, doc = run(capsys, ["stable", path, "--real"] + FAST)
    assert code == 1
    assert doc["verdicts"]["real-stable"] == "fail"
    code, _ = run(capsys, ["stable", path] + FAST)
    assert code == 6  # without --real the complex shift is allowed


def test_stable_rejects_true_rational(tmp_path, capsys):
    f = RationalMatrixFunction(one(1), sp(1, {(1,): 1.0, (0,): 1.0}))
    path = write(tmp_path, "rational.json", f, "nevanlinna")
    code, _ = run(capsys, ["stable", path] + FAST)
    assert code == 2


# ----------------------------------------------------------------------
# realize1d


def test_realize1d_reports_block(pr_simple, capsys):
    code, doc = run(capsys, ["realize1d", pr_simple] + FAST)
    assert code == 0
    real = doc["witnesses"]["realization"]
    assert real["variant"] == "lft"
    assert real["kappa"] == pytest.approx(1.0)
    assert real["r"] == 1
    assert real["a"]["frame"] == "positive-real"
    assert doc["verdicts"]["block-positive-real"] == "pass"


def test_realize1d_reports_a_second_order_ladder(tmp_path, capsys):
    # (2s^2 + 2s + 1)/(s^2 + s + 1), the document the console-script CI step runs
    f = RationalMatrixFunction(sp(1, {(2,): 2.0, (1,): 2.0, (0,): 1.0}),
                               sp(1, {(2,): 1.0, (1,): 1.0, (0,): 1.0}))
    code, doc = run(capsys, ["realize1d", write(tmp_path, "ladder.json", f, "positive-real")])
    assert code == 0
    assert doc["verdicts"] == {"block-positive-real": "pass", "reconstruction": "pass"}
    assert doc["witnesses"]["realization"]["variant"] == "lft"


def test_realize1d_rejects_wrong_frame(neg_inv, capsys):
    code, _ = run(capsys, ["realize1d", neg_inv] + FAST)
    assert code == 3


def test_realize1d_rejects_matrix_input(tmp_path, capsys):
    import numpy as np

    f = RationalMatrixFunction(MatrixPoly.constant(1, np.eye(2), m=2), one(1))
    path = write(tmp_path, "matrix.json", f, "positive-real")
    code, _ = run(capsys, ["realize1d", path] + FAST)
    assert code == 3


def test_realize1d_rejects_several_variables(tmp_path, capsys):
    f = RationalMatrixFunction(sp(2, {(1, 0): 1.0}), one(2))
    path = write(tmp_path, "two_vars.json", f, "positive-real")
    assert main(["realize1d", path] + FAST) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "precondition: input has 2 variables; expected 1\n"


def test_realize1d_rejects_non_real_coefficients(tmp_path, capsys):
    # (s + 2 + i)/(s + 1) passes the positive-real check, yet has no real realization
    f = RationalMatrixFunction(sp(1, {(1,): 1.0, (0,): 2.0 + 1j}), sp(1, {(1,): 1.0, (0,): 1.0}))
    path = write(tmp_path, "non_real.json", f, "positive-real")
    assert main(["check", path, "--class", "positive-real"] + FAST) == 0
    capsys.readouterr()
    assert main(["realize1d", path] + FAST) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precondition: input has non-real coefficients")
    assert len(captured.err.splitlines()) == 1


def test_realize1d_rejects_non_positive_real(tmp_path, capsys):
    import numpy as np

    f = RationalMatrixFunction(sp(1, {(0,): -1.0}), sp(1, {(1,): 1.0, (0,): 1.0}))
    path = write(tmp_path, "negated.json", f, "positive-real")
    code, doc = run(capsys, ["realize1d", path] + FAST)
    assert code == 5
    assert doc["verdicts"] == {"positive-real": "fail", "reconstruction": "fail"}
    assert doc["witnesses"]["reconstruction"]["cause"] == "input"
    witness = doc["witnesses"]["positive-real"]["witness"]
    s = complex(*witness["point"][0])
    value = f.eval(np.array([s]))[0, 0]
    assert value.real < 0.0 and value.real == pytest.approx(witness["min_eig"])


def test_realize1d_blames_itself_on_positive_real_input(pr_simple, capsys, monkeypatch):
    import darlington.realization as realization
    from darlington import SplitFailed

    def refuse(f):
        raise SplitFailed("refused")

    monkeypatch.setattr(realization, "realize_1d", refuse)
    code, doc = run(capsys, ["realize1d", pr_simple] + FAST)
    assert code == 4
    assert doc["verdicts"] == {"positive-real": "pass", "reconstruction": "fail"}
    assert doc["witnesses"]["reconstruction"] == {"split_failed": "refused", "cause": "library"}


# ----------------------------------------------------------------------
# report shape


SAMPLED_INPUTS = {"function", "d", "m", "frame", "samples", "box_radius", "imag_floor",
                  "edge_points"}


@pytest.mark.parametrize("argv, doc, extra", [
    (["verify"], "neg_inv", {}),
    (["check", "--class", "nevanlinna"], "neg_inv", {"class": "nevanlinna"}),
    (["stable"], "poly", {"real": False}),
    (["realize1d"], "pr_simple", {}),
])
def test_sampling_report_inputs(argv, doc, extra, request, capsys):
    path = request.getfixturevalue(doc)
    _, rep = run(capsys, argv[:1] + [path] + argv[1:] + FAST + ["--no-edge-points"])
    inputs = rep["inputs"]
    assert set(inputs) == SAMPLED_INPUTS | set(extra)
    assert inputs["edge_points"] is False and inputs["samples"] == 60
    assert {k: inputs[k] for k in extra} == extra


def test_eval_report_inputs(neg_inv, capsys):
    _, rep = run(capsys, ["eval", neg_inv, "--at", "1j"])
    assert set(rep["inputs"]) == {"function", "d", "m", "frame", "point"}
    assert rep["inputs"]["point"] == [[0.0, 1.0]]


# ----------------------------------------------------------------------
# eval


def test_eval_value(neg_inv, capsys):
    code, doc = run(capsys, ["eval", neg_inv, "--at", "1j"])
    assert code == 0
    re, im = doc["witnesses"]["value"][0][0]
    # -1/(i + i) = i/2
    assert re == pytest.approx(0.0) and im == pytest.approx(0.5)


def test_eval_negative_coordinate(neg_inv, capsys):
    code, doc = run(capsys, ["eval", neg_inv, "--at=-2+0j"])
    assert code == 0
    re, im = doc["witnesses"]["value"][0][0]
    # -1/(-2 + i) = (2 + i)/5
    assert re == pytest.approx(0.4) and im == pytest.approx(0.2)


def test_eval_near_pole(neg_inv, capsys):
    code = main(["eval", neg_inv, "--at=-1j"])
    err = capsys.readouterr().err
    assert code == 7
    assert "array(" not in err and "below the pole floor 1e-12" in err


def test_eval_wrong_arity(neg_inv, capsys):
    code, _ = run(capsys, ["eval", neg_inv, "--at", "1j,2j"])
    assert code == 2
    code, _ = run(capsys, ["eval", neg_inv, "--at", "fish"])
    assert code == 2


def test_eval_empty_point(tmp_path, neg_inv, capsys):
    # an empty --at is zero coordinates: the point of a 0-variable function
    f = RationalMatrixFunction(MatrixPoly.constant(0, 2.0 - 1j), one(0))
    code, doc = run(capsys, ["eval", write(tmp_path, "const.json", f, "nevanlinna"), "--at="])
    assert code == 0
    assert doc["inputs"]["point"] == [] and doc["witnesses"]["value"] == [[[2.0, -1.0]]]
    code = main(["eval", neg_inv, "--at="])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--at gave 0 coordinates for a 1-variable function" in captured.err


@pytest.mark.parametrize("at", ["--at=inf", "--at=nanj", "--at=1e400"])
def test_eval_non_finite_coordinate(neg_inv, capsys, at):
    code, doc = run(capsys, ["eval", neg_inv, at])
    assert code == 2 and doc is None


def test_eval_non_finite_value(tmp_path, capsys):
    f = RationalMatrixFunction(sp(1, {(1,): 1e300}), one(1))
    path = write(tmp_path, "big.json", f, "nevanlinna")
    code = main(["eval", path, "--at", "1e10+1j"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "1e10+1j" in captured.err


# ----------------------------------------------------------------------
# input handling


def test_unreadable_input(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    code, _ = run(capsys, ["check", str(broken), "--class", "nevanlinna"])
    assert code == 2
    code, _ = run(capsys, ["check", str(tmp_path / "absent.json"), "--class", "nevanlinna"])
    assert code == 2


def test_stdin_roundtrip(neg_inv, capsys, monkeypatch):
    import io

    text = open(neg_inv).read()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, doc = run(capsys, ["eval", "-", "--at", "2j"])
    assert code == 0


def test_normalization_overflow_exits_2(tmp_path, capsys):
    f = RationalMatrixFunction(sp(1, {(0,): 1e308}), sp(1, {(1,): 1e-308}))
    path = write(tmp_path, "overflow.json", f, "nevanlinna")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's RuntimeWarning would raise here
        code = main(["verify", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "leading denominator coefficient (1e-308+0j)" in captured.err


# 1e10 / (z1 + 1e-300i z2): the lift divides by the 1e-300i coefficient
TINY_COEFF = RationalMatrixFunction(sp(2, {(0, 0): 1e10}), sp(2, {(1, 0): 1.0, (0, 1): 1e-300j}))
# each names its stage and an exponent of the input, with d entries, not one
# of an intermediate polynomial: (0, 1, 1) of the lifted denominator, or (4,)
# of a product in the closure
LIFT_OVERFLOW = ("lift normalization overflows: a non-finite coefficient after dividing by "
                 "1e-300, the imaginary part of the denominator's (0, 1) coefficient")
OVERFLOW_ERRORS = {
    "lift": LIFT_OVERFLOW,
    "verify": LIFT_OVERFLOW,
    "realize1d": "coupling numerator overflows: a non-finite coefficient after dividing by "
                 "1e-300, the magnitude of the denominator's (1,) coefficient",
}


@pytest.mark.parametrize("command, frame, f", [
    ("lift", "nevanlinna", TINY_COEFF),
    ("verify", "nevanlinna", TINY_COEFF),
    # 1e10 s / (s^2 + 1e-300 s + 1): the realization divides its 1e-290
    # coupling numerator by the square of the 1e-300 coefficient
    ("realize1d", "positive-real", RationalMatrixFunction(
        sp(1, {(1,): 1e10}), sp(1, {(2,): 1.0, (1,): 1e-300, (0,): 1.0}))),
])
def test_coefficient_overflow_in_a_command_exits_2(tmp_path, capsys, command, frame, f):
    path = write(tmp_path, "overflow.json", f, frame)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: %s\n" % OVERFLOW_ERRORS[command]


def test_coupling_overflow_exits_2(tmp_path, capsys):
    # (s + 1) / (s^2 + 1e-300 s + 1): the coupling numerator is divided by
    # (1e-300)^2, which is 0 in floating point; this ended in an IndexError
    f = RationalMatrixFunction(sp(1, {(1,): 1.0, (0,): 1.0}),
                               sp(1, {(2,): 1.0, (1,): 1e-300, (0,): 1.0}))
    path = write(tmp_path, "overflow.json", f, "positive-real")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["realize1d", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: coupling numerator overflows: a non-finite coefficient after "
                            "dividing by 1e-300, the magnitude of the denominator's (1,) "
                            "coefficient\n")


@pytest.mark.parametrize("argv, code", [
    (["check", "--class", "nevanlinna"], 1),
    (["stable"], 6),
])
def test_overflowing_values_leave_one_stderr_line(tmp_path, capsys, argv, code):
    # 1e300 z1^9 overflows at part of the sample; the checks drop or
    # outvote those values without a numpy RuntimeWarning on stderr.  It is
    # written in two variables, where stable samples and descends too
    path = poly_file(tmp_path, "ovf.json", sp(2, {(9, 0): 1e300}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = main([argv[0], path] + argv[1:])
    captured = capsys.readouterr()
    assert got == code
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.out)


def test_one_variable_stable_values_only_its_lifted_roots(tmp_path, capsys):
    # in one variable, stable draws no sample: 1e300 z1^9 is valued only at
    # its nine roots 0, lifted onto the floor 5e-4 i, where nothing
    # overflows.  |p| there is 1e300 * (5e-4)^9, below 1e-10 * 1e300: the
    # same "fail" as z1^9's, with no zero in the upper half-plane
    path = poly_file(tmp_path, "ovf.json", sp(1, {(9,): 1e300}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = run(capsys, ["stable", path])
    assert code == 1
    ev = doc["witnesses"]["stable"]
    assert ev["samples_used"] == 9 and ev["witness"]["point"] == [[0.0, 0.0005]]
