import json

import numpy as np
import pytest

from darlington import (
    FileFormatError,
    MatrixPoly,
    RationalMatrixFunction,
    load_function,
    save_function,
)
from darlington.fileio import dumps_deterministic, function_from_dict, function_to_dict


def sample_function():
    num = MatrixPoly(2, 2, {
        (1, 0): np.array([[1.0, 0.5j], [-0.5j, 2.0]]),
        (0, 0): np.eye(2),
    })
    den = MatrixPoly.from_scalar_terms(2, {(0, 1): 1.0, (0, 0): 1j})
    return RationalMatrixFunction(num, den)


def test_round_trip_preserves_terms(tmp_path):
    f = sample_function()
    path = tmp_path / "f.json"
    save_function(str(path), f, "nevanlinna")
    g, frame = load_function(str(path))
    assert frame == "nevanlinna"
    assert g.num == f.num and g.den == f.den


def test_serialization_is_deterministic(tmp_path):
    f = sample_function()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_function(str(a), f, "positive-real")
    save_function(str(b), f, "positive-real")
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_terms_emitted_in_canonical_order():
    f = sample_function()
    doc = function_to_dict(f, "nevanlinna")
    assert [t["exponents"] for t in doc["num_terms"]] == [[1, 0], [0, 0]]
    assert doc["schema_version"] == 1
    assert set(doc) == {"schema_version", "d", "m", "frame", "num_terms", "den_terms"}


def test_rejects_unknown_frame():
    with pytest.raises(FileFormatError):
        function_to_dict(sample_function(), "upper")


def rejects(mutate, match=None):
    doc = function_to_dict(sample_function(), "nevanlinna")
    mutate(doc)
    with pytest.raises(FileFormatError, match=match):
        function_from_dict(doc)


def test_rejects_wrong_schema_version():
    rejects(lambda d: d.update(schema_version=2))
    # 1 only as the integer, as for d, m and the exponents
    for version in (True, 1.0):
        rejects(lambda d: d.update(schema_version=version), r"^schema_version must be 1$")


def test_rejects_bad_dimensions():
    rejects(lambda d: d.update(d=-1))
    rejects(lambda d: d.update(m=0))
    rejects(lambda d: d.update(m=True))


def test_rejects_malformed_terms():
    rejects(lambda d: d.update(num_terms="nope"))
    rejects(lambda d: d["num_terms"][0].update(exponents=[1]))
    rejects(lambda d: d["num_terms"][0].update(exponents=[1, -1]))
    rejects(lambda d: d["num_terms"][0].update(matrix=[[[1.0, 0.0]]]))
    rejects(lambda d: d["num_terms"][0]["matrix"][0].__setitem__(0, [1.0]))
    rejects(lambda d: d["num_terms"][0]["matrix"][0].__setitem__(0, [1.0, True]))


def test_rejects_duplicate_exponents():
    def dup(d):
        d["num_terms"].append(dict(d["num_terms"][0]))
    rejects(dup)


def test_rejects_zero_denominator():
    rejects(lambda d: d.update(den_terms=[]))


def test_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FileFormatError):
        load_function(str(path))
    with pytest.raises(FileFormatError):
        load_function(str(tmp_path / "missing.json"))


def test_dumps_deterministic_rejects_nan():
    with pytest.raises(ValueError):
        dumps_deterministic({"x": float("nan")})


def test_stdio_paths(tmp_path, capsys, monkeypatch):
    import io

    f = sample_function()
    save_function("-", f, "nevanlinna")
    text = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    g, frame = load_function("-")
    assert g.num == f.num and frame == "nevanlinna"


def test_integer_cells_accepted():
    doc = function_to_dict(sample_function(), "nevanlinna")
    doc = json.loads(json.dumps(doc))  # floats like 1.0 survive; plant an int
    doc["den_terms"][0]["matrix"][0][0] = [1, 0]
    g, _ = function_from_dict(doc)
    assert g.den.leading_coefficient()[1][0, 0] == 1.0
