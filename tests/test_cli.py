"""End-to-end command line behavior: reports, exit codes, determinism."""

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
    assert set(ev) == {"verdict", "worst_margin", "samples_used", "witness"}
    assert ev["witness"] is None


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


@pytest.mark.parametrize("bad", [
    ["--seed", "-1"],
    ["--samples", "0"],
    ["--samples", "-1"],
    ["--box-radius", "0"],
    ["--box-radius", "inf"],
    ["--box-radius", "1e308"],
    ["--imag-floor", "0"],
    ["--imag-floor", "-1"],
    ["--imag-floor", "10", "--box-radius", "10"],
    ["--psd-slack", "nan"],
    ["--reality-slack", "-1"],
    ["--den-floor", "inf"],
])
def test_bad_sampling_argument_exits_2(neg_inv, capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(["check", neg_inv, "--class", "nevanlinna"] + bad)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_check_seed_zero_draws_entropy(neg_inv, capsys):
    _, a = run(capsys, ["check", neg_inv, "--class", "nevanlinna", "--seed", "0"] + FAST)
    _, b = run(capsys, ["check", neg_inv, "--class", "nevanlinna", "--seed", "0"] + FAST)
    assert a["seed"] != b["seed"]


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


def test_realize1d_rejects_wrong_frame(neg_inv, capsys):
    code, _ = run(capsys, ["realize1d", neg_inv] + FAST)
    assert code == 3


def test_realize1d_rejects_matrix_input(tmp_path, capsys):
    import numpy as np

    f = RationalMatrixFunction(MatrixPoly.constant(1, np.eye(2), m=2), one(1))
    path = write(tmp_path, "matrix.json", f, "positive-real")
    code, _ = run(capsys, ["realize1d", path] + FAST)
    assert code == 3


def test_realize1d_rejects_non_positive_real(tmp_path, capsys):
    f = RationalMatrixFunction(sp(1, {(0,): -1.0}), sp(1, {(1,): 1.0, (0,): 1.0}))
    path = write(tmp_path, "negated.json", f, "positive-real")
    code, _ = run(capsys, ["realize1d", path] + FAST)
    assert code == 5


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
    code, _ = run(capsys, ["eval", neg_inv, "--at=-1j"])
    assert code == 7


def test_eval_wrong_arity(neg_inv, capsys):
    code, _ = run(capsys, ["eval", neg_inv, "--at", "1j,2j"])
    assert code == 2
    code, _ = run(capsys, ["eval", neg_inv, "--at", "fish"])
    assert code == 2


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


@pytest.mark.parametrize("argv, code", [
    (["check", "--class", "nevanlinna"], 1),
    (["stable"], 6),
])
def test_overflowing_values_leave_one_stderr_line(tmp_path, capsys, argv, code):
    # 1e300 z1^9 overflows at part of the sample; the checks drop or
    # outvote those values without a numpy RuntimeWarning on stderr
    path = poly_file(tmp_path, "ovf.json", sp(1, {(9,): 1e300}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = main([argv[0], path] + argv[1:])
    captured = capsys.readouterr()
    assert got == code
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.out)
