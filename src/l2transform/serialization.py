"""JSON expression documents.

Three document kinds mirror the three expression types:

    {"kind": "gexpr", "terms": [{"c": "1/2", "k": 0, "a": "-1"}, ...]}
    {"kind": "sexpr", "terms": [{"c": "1/2", "a": "0", "m": 1}, ...]}
    {"kind": "lpoly", "terms": [{"degree": 1, "c": "2"}, ...]}

Rationals travel as strings "p" or "p/q" so no value ever passes through a
float.  Parsing a canonical document and serializing the result reproduces
the input byte for byte; schema violations raise SchemaError carrying the
JSON path of the offending field.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Union

from .algebra import GExpr, GTerm, _is_count
from .errors import SchemaError
from .pde import LPoly
from .transform import SExpr, STerm

Expression = Union[GExpr, SExpr, LPoly]

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def rational_from_string(text: str, path: str = "$") -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise SchemaError(f"expected a rational string 'p' or 'p/q', got {text!r}", path)
    if "/" in text and int(text.split("/")[1]) == 0:
        raise SchemaError(f"zero denominator in {text!r}", path)
    return Fraction(text)


def rational_to_string(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _require_int(value, path: str) -> int:
    if not _is_count(value, 0):
        raise SchemaError(f"expected an integer >= 0, got {value!r}", path)
    return value


def _require_keys(obj: dict, keys: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object, got {type(obj).__name__}", path)
    missing = keys - obj.keys()
    if missing:
        raise SchemaError(f"missing field(s) {sorted(missing)}", path)
    extra = obj.keys() - keys
    if extra:
        raise SchemaError(f"unknown field(s) {sorted(extra)}", path)


def parse_document(text: str) -> dict:
    """Parse and validate a document, returning the raw validated dict."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", "$") from exc
    _require_keys(doc, {"kind", "terms"}, "$")
    kind = doc["kind"]
    if kind not in ("gexpr", "sexpr", "lpoly"):
        raise SchemaError(f"unknown kind {kind!r}", "$.kind")
    terms = doc["terms"]
    if not isinstance(terms, list):
        raise SchemaError("terms must be an array", "$.terms")
    fields = {"gexpr": {"c", "k", "a"}, "sexpr": {"c", "a", "m"}, "lpoly": {"degree", "c"}}[kind]
    for i, term in enumerate(terms):
        path = f"$.terms[{i}]"
        _require_keys(term, fields, path)
        rational_from_string(term["c"], f"{path}.c")
        if kind == "gexpr":
            rational_from_string(term["a"], f"{path}.a")
            _require_int(term["k"], f"{path}.k")
        elif kind == "sexpr":
            rational_from_string(term["a"], f"{path}.a")
            _require_int(term["m"], f"{path}.m")
        else:
            _require_int(term["degree"], f"{path}.degree")
    return doc


def document_to_object(doc: dict) -> Expression:
    kind = doc["kind"]
    if kind == "gexpr":
        return GExpr(tuple(
            GTerm(Fraction(t["c"]), t["k"], Fraction(t["a"])) for t in doc["terms"]
        ))
    if kind == "sexpr":
        return SExpr(tuple(
            STerm(Fraction(t["c"]), Fraction(t["a"]), t["m"]) for t in doc["terms"]
        ))
    return LPoly(tuple((t["degree"], Fraction(t["c"])) for t in doc["terms"]))


def object_to_document(obj: Expression) -> dict:
    if isinstance(obj, GExpr):
        return {
            "kind": "gexpr",
            "terms": [
                {"c": rational_to_string(t.c), "k": t.k, "a": rational_to_string(t.a)}
                for t in obj.terms
            ],
        }
    if isinstance(obj, SExpr):
        return {
            "kind": "sexpr",
            "terms": [
                {"c": rational_to_string(t.c), "a": rational_to_string(t.a), "m": t.m}
                for t in obj.terms
            ],
        }
    if isinstance(obj, LPoly):
        return {
            "kind": "lpoly",
            "terms": [
                {"degree": d, "c": rational_to_string(c)} for d, c in obj.coefficients
            ],
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def loads(text: str) -> Expression:
    return document_to_object(parse_document(text))


def dumps(obj: Expression) -> str:
    return render_json(object_to_document(obj))


def render_json(value) -> str:
    """Deterministic compact JSON with floats at 17 significant digits.

    Key order is the construction order of the dicts (reports are built in
    a fixed order), so repeated runs are byte-identical.
    """
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(k)}:{render_json(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in value) + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return json.dumps(value)
