"""JSON expression documents.

Three document kinds mirror the three expression types:

    {"kind": "gexpr", "terms": [{"c": "1/2", "k": 0, "a": "-1"}, ...]}
    {"kind": "sexpr", "terms": [{"c": "1/2", "a": "0", "m": 1}, ...]}
    {"kind": "lpoly", "terms": [{"degree": 1, "c": "2"}, ...]}

Each kind is one row of the table `_KINDS`.  `loads` validates and builds
in one walk over a document's row, and `object_to_document` writes from the
same rows.  Rationals travel as strings "p" or "p/q" so no value ever passes
through a float.  Parsing a canonical document and serializing the result
reproduces the input byte for byte; schema violations raise SchemaError
carrying the JSON path of the offending field.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Optional, Union

from .algebra import GExpr, GTerm, LPoly, _is_count
from .errors import SchemaError
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
    return str(Fraction(value))


def _count(value, path: str) -> int:
    if not _is_count(value, 0):
        raise SchemaError(f"expected an integer >= 0, got {value!r}", path)
    return value


# One row per kind: the expression type (built from a tuple of terms), the
# term constructor (called with the field values in document order), the
# expression's terms as such value tuples, and the fields in document order,
# each mapped to its reader.
_KINDS = {
    "gexpr": (GExpr, GTerm, lambda e: e.terms,
              {"c": rational_from_string, "k": _count, "a": rational_from_string}),
    "sexpr": (SExpr, STerm, lambda e: e.terms,
              {"c": rational_from_string, "a": rational_from_string, "m": _count}),
    "lpoly": (LPoly, lambda degree, c: (degree, c), lambda p: p.coefficients,
              {"degree": _count, "c": rational_from_string}),
}


def _require_keys(obj: dict, keys, path: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object, got {type(obj).__name__}", path)
    missing = keys - obj.keys()
    if missing:
        raise SchemaError(f"missing field(s) {sorted(missing)}", path)
    extra = obj.keys() - keys
    if extra:
        raise SchemaError(f"unknown field(s) {sorted(extra)}", path)


def loads(text: str, kind: Optional[str] = None) -> Expression:
    """Validate a document and build its expression in one walk.  With
    `kind` given, a document of another kind is refused at `$.kind` before
    any term is read."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", "$") from exc
    _require_keys(doc, {"kind", "terms"}, "$")
    name = doc["kind"]
    if not isinstance(name, str) or name not in _KINDS:
        raise SchemaError(f"unknown kind {name!r}", "$.kind")
    if kind is not None and name != kind:
        raise SchemaError(f"expected a {kind} document, got {name}", "$.kind")
    terms = doc["terms"]
    if not isinstance(terms, list):
        raise SchemaError("terms must be an array", "$.terms")
    expression, build_term, _, fields = _KINDS[name]
    built = []
    for i, term in enumerate(terms):
        path = f"$.terms[{i}]"
        _require_keys(term, fields.keys(), path)
        built.append(build_term(*(read(term[field], f"{path}.{field}")
                                  for field, read in fields.items())))
    return expression(tuple(built))


def object_to_document(obj: Expression) -> dict:
    for name, (expression, _, term_values, fields) in _KINDS.items():
        if isinstance(obj, expression):
            return {"kind": name, "terms": [  # str() of a Fraction is its "p" or "p/q" form
                {field: value if read is _count else str(value)
                 for (field, read), value in zip(fields.items(), values)}
                for values in term_values(obj)
            ]}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Expression) -> str:
    return render_json(object_to_document(obj))


def render_json(value) -> str:
    """Deterministic compact JSON with floats at 17 significant digits.

    Key order is the construction order of the dicts (reports are built in
    a fixed order), so repeated runs are byte-identical.  A tuple renders as
    an array, so terms come only through object_to_document; a non-finite
    float has no JSON form and raises OverflowError.
    """
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(k)}:{render_json(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in value) + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise OverflowError(f"non-finite float {value!r} has no JSON form")
        return format(value, ".17g")
    return json.dumps(value)
