"""JSON interchange for rational matrix functions.

The on-disk form is a flat term list per polynomial: each term carries an
exponent tuple and an m x m matrix of [re, im] pairs.  Output term order is
the canonical graded-lex-descending order, so serialization is
deterministic; input term order is free but duplicate exponents are
rejected.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .poly import MatrixPoly
from .rational import RationalMatrixFunction

SCHEMA_VERSION = 1
FRAMES = ("nevanlinna", "positive-real")


class FileFormatError(ValueError):
    """The JSON document does not describe a valid function."""


def json_pairs(values):
    """A complex array as nested lists of [re, im] float pairs, the JSON form
    of coefficients, points and values."""
    values = np.asarray(values)
    return np.stack((values.real, values.imag), axis=-1).tolist()


def _poly_to_terms(p):
    return [
        {"exponents": list(e), "matrix": json_pairs(a)}
        for e, a in p.ordered_terms()
    ]


def function_to_dict(f, frame):
    if frame not in FRAMES:
        raise FileFormatError("frame must be one of %r, got %r" % (FRAMES, frame))
    return {
        "schema_version": SCHEMA_VERSION,
        "d": f.d,
        "m": f.m,
        "frame": frame,
        "num_terms": _poly_to_terms(f.num),
        "den_terms": _poly_to_terms(f.den),
    }


def _require(cond, msg):
    if not cond:
        raise FileFormatError(msg)


def _parse_terms(raw, d, m, label):
    _require(isinstance(raw, list), "%s must be a list of terms" % label)
    terms = {}
    for k, item in enumerate(raw):
        where = "%s[%d]" % (label, k)
        _require(isinstance(item, dict), "%s must be an object" % where)
        exps = item.get("exponents")
        _require(isinstance(exps, list) and len(exps) == d,
                 "%s.exponents must be a list of %d integers" % (where, d))
        _require(all(isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in exps),
                 "%s.exponents must be non-negative integers" % where)
        mat = item.get("matrix")
        _require(isinstance(mat, list) and len(mat) == m, "%s.matrix must have %d rows" % (where, m))
        coeff = []
        for row in mat:
            _require(isinstance(row, list) and len(row) == m,
                     "%s.matrix rows must have %d entries" % (where, m))
            out_row = []
            for cell in row:
                _require(isinstance(cell, list) and len(cell) == 2
                         and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in cell),
                         "%s.matrix entries must be [re, im] pairs" % where)
                _require(all(math.isfinite(float(v)) for v in cell),
                         "%s.matrix entries must be finite" % where)
                out_row.append(complex(float(cell[0]), float(cell[1])))
            coeff.append(out_row)
        key = tuple(exps)
        _require(key not in terms, "%s repeats exponents %r" % (label, key))
        terms[key] = coeff
    return terms


def function_from_dict(obj):
    """Parse a function document; returns (function, frame)."""
    _require(isinstance(obj, dict), "document must be a JSON object")
    _require(type(obj.get("schema_version")) is int and obj["schema_version"] == SCHEMA_VERSION,
             "schema_version must be %d" % SCHEMA_VERSION)
    d, m = obj.get("d"), obj.get("m")
    _require(isinstance(d, int) and not isinstance(d, bool) and d >= 0, "d must be an integer >= 0")
    _require(isinstance(m, int) and not isinstance(m, bool) and m >= 1, "m must be an integer >= 1")
    frame = obj.get("frame")
    _require(frame in FRAMES, "frame must be one of %r" % (FRAMES,))
    num_terms = _parse_terms(obj.get("num_terms"), d, m, "num_terms")
    den_terms = _parse_terms(obj.get("den_terms"), d, 1, "den_terms")
    try:
        num = MatrixPoly(d, m, num_terms)
        den = MatrixPoly(d, 1, den_terms)
        f = RationalMatrixFunction(num, den)
        f.normalize()  # lift and realize1d normalize; reject an overflow here
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc
    return f, frame


def dumps_deterministic(payload):
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_text(path, text):
    """Write text to a path ('-' writes stdout)."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def save_function(path, f, frame):
    write_text(path, dumps_deterministic(function_to_dict(f, frame)))


def load_function(path):
    """Read a function document from a path ('-' reads stdin)."""
    try:
        if path == "-":
            obj = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError("invalid JSON: %s" % exc) from exc
    except OSError as exc:
        raise FileFormatError("cannot read %s: %s" % (path, exc)) from exc
    return function_from_dict(obj)
