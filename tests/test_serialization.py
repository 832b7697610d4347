"""Document round trips and schema diagnostics."""

import json
import math
from fractions import Fraction as F

import pytest

from l2transform import GTerm, LPoly, SchemaError, algebra, lpoly, serialization
from l2transform.serialization import (
    dumps, loads, rational_from_string, rational_to_string, render_json,
)
from l2transform.transform import STerm, pole

CORPUS = [
    '{"kind":"gexpr","terms":[]}',
    '{"kind":"gexpr","terms":[{"c":"1","k":0,"a":"1/2"}]}',
    '{"kind":"gexpr","terms":[{"c":"-3/7","k":2,"a":"-1"},{"c":"5","k":0,"a":"0"}]}',
    '{"kind":"sexpr","terms":[{"c":"1/2","a":"0","m":1}]}',
    '{"kind":"sexpr","terms":[{"c":"2","a":"0","m":0},{"c":"-1/3","a":"1/2","m":2}]}',
    '{"kind":"lpoly","terms":[{"degree":0,"c":"1"},{"degree":3,"c":"-2/5"}]}',
]


class TestRoundTrip:
    def test_single_gaussian(self):
        e = loads('{"kind":"gexpr","terms":[{"c":"1","k":0,"a":"1/2"}]}')
        assert e == algebra.gaussian("1/2")

    @pytest.mark.parametrize("doc", CORPUS)
    def test_serialize_after_parse_is_identity(self, doc):
        assert dumps(loads(doc)) == doc

    @pytest.mark.parametrize("doc", CORPUS)
    def test_typed_parse_of_its_own_kind(self, doc):
        assert dumps(loads(doc, json.loads(doc)["kind"])) == doc

    def test_corpus_covers_every_kind(self):
        assert {json.loads(doc)["kind"] for doc in CORPUS} == set(serialization._KINDS)

    def test_lpoly_degrees_out_of_order_canonicalize(self):
        doc = '{"kind":"lpoly","terms":[{"degree":3,"c":"-2/5"},{"degree":0,"c":"1"}]}'
        assert loads(doc) == loads(CORPUS[5])
        assert dumps(loads(doc)) == CORPUS[5]

    def test_parse_after_serialize_is_identity(self):
        for obj in (algebra.gaussian("1/2", c=F(-2, 3), k=1),
                    pole(F(1, 2), F(1, 2), 1) + pole(3, 0, 0),
                    lpoly({0: 1, 2: F(7, 9)})):
            assert loads(dumps(obj)) == obj

    @pytest.mark.parametrize("build", [
        lambda n: algebra.monomial(1, n), lambda n: pole(1, 0, n), lambda n: lpoly({n: 1}),
    ])
    def test_integer_fields_round_trip_and_booleans_are_refused(self, build):
        doc = dumps(build(1))
        assert "true" not in doc and loads(doc) == build(1)
        with pytest.raises(ValueError):  # True == 1, but a bool would be written as true
            build(True)

    def test_non_canonical_input_canonicalizes(self):
        e = loads('{"kind":"gexpr","terms":[{"c":"1","k":0,"a":"0"},{"c":"2","k":0,"a":"0"}]}')
        assert e == algebra.constant(3)


class TestSchemaErrors:
    def test_zero_denominator(self):
        with pytest.raises(SchemaError) as exc:
            loads('{"kind":"gexpr","terms":[{"c":"1/0","k":0,"a":"0"}]}')
        assert exc.value.path == "$.terms[0].c"

    def test_float_rational_rejected(self):
        with pytest.raises(SchemaError):
            loads('{"kind":"gexpr","terms":[{"c":"0.5","k":0,"a":"0"}]}')

    def test_numeric_rational_rejected(self):
        with pytest.raises(SchemaError):
            loads('{"kind":"gexpr","terms":[{"c":1,"k":0,"a":"0"}]}')

    @pytest.mark.parametrize("kind", ["wexpr", [], {}, 1, None])
    def test_unknown_kind(self, kind):
        with pytest.raises(SchemaError) as exc:
            loads(json.dumps({"kind": kind, "terms": []}))
        assert exc.value.path == "$.kind"

    @pytest.mark.parametrize("terms", [[{"c": "1/0", "a": "0", "m": -1}], [1], {}])
    @pytest.mark.parametrize("kind", ["gexpr", "lpoly"])
    def test_kind_is_checked_before_any_term(self, kind, terms):
        doc = json.dumps({"kind": "sexpr", "terms": terms})
        with pytest.raises(SchemaError) as exc:
            loads(doc, kind)
        assert (exc.value.path, str(exc.value)) == (
            "$.kind", f"$.kind: expected a {kind} document, got sexpr")
        with pytest.raises(SchemaError) as exc:
            loads(doc)
        assert exc.value.path.startswith("$.terms")

    def test_missing_field(self):
        with pytest.raises(SchemaError) as exc:
            loads('{"kind":"gexpr","terms":[{"c":"1","k":0}]}')
        assert "a" in str(exc.value)

    def test_unknown_field(self):
        with pytest.raises(SchemaError):
            loads('{"kind":"gexpr","terms":[{"c":"1","k":0,"a":"0","b":"1"}]}')

    def test_negative_multiplicity(self):
        with pytest.raises(SchemaError):
            loads('{"kind":"sexpr","terms":[{"c":"1","a":"0","m":-1}]}')

    def test_boolean_is_not_an_integer(self):
        with pytest.raises(SchemaError):
            loads('{"kind":"gexpr","terms":[{"c":"1","k":true,"a":"0"}]}')

    # one integer rule for the schema and the constructors: an int >= 0
    # that is not a bool
    @pytest.mark.parametrize("bad", [True, -1, 1.5, "1"])
    @pytest.mark.parametrize("kind, field, term, build", [
        ("gexpr", "k", {"c": "1", "k": 0, "a": "0"}, lambda v: GTerm(F(1), v, F(0))),
        ("sexpr", "m", {"c": "1", "a": "0", "m": 1}, lambda v: STerm(F(1), F(0), v)),
        ("lpoly", "degree", {"degree": 0, "c": "1"}, lambda v: LPoly(((v, F(1)),))),
    ])
    def test_integer_fields_follow_the_constructor_rule(self, bad, kind, field, term, build):
        doc = json.dumps({"kind": kind, "terms": [{**term, field: bad}]})
        with pytest.raises(SchemaError) as exc:
            loads(doc)
        assert exc.value.path == f"$.terms[0].{field}"
        with pytest.raises(ValueError):
            build(bad)

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            loads("{not json")

    def test_non_object_top_level(self):
        with pytest.raises(SchemaError):
            loads("[1,2]")


class TestRationalStrings:
    def test_round_trip(self):
        for text in ("0", "-7", "3/4", "-22/7"):
            assert rational_to_string(rational_from_string(text)) == text

    def test_reduction_on_output(self):
        assert rational_to_string(F(2, 4)) == "1/2"

    def test_rejects_whitespace(self):
        with pytest.raises(SchemaError):
            rational_from_string(" 1/2")

    # a trailing newline, and Arabic-Indic digits (which int() would accept)
    @pytest.mark.parametrize("text", ["1\n", "\u0661\u0662", "1/2\n", "\u0661/2"])
    def test_only_the_documented_grammar_parses(self, text):
        doc = json.dumps({"kind": "gexpr", "terms": [{"c": "1", "k": 0, "a": text}]})
        with pytest.raises(SchemaError) as exc:
            loads(doc)
        assert exc.value.path == "$.terms[0].a"


class TestRenderJson:
    def test_floats_use_17_significant_digits(self):
        assert render_json(1 / 3) == "0.33333333333333331"
        assert render_json(0.5) == "0.5"

    def test_nested_structures(self):
        doc = {"a": [1, 2.5], "b": {"c": None, "d": True}}
        assert render_json(doc) == '{"a":[1,2.5],"b":{"c":null,"d":true}}'

    def test_deterministic(self):
        doc = {"x": 0.1, "y": [1e-17, 3.0]}
        assert render_json(doc) == render_json(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_are_refused(self, value):
        with pytest.raises(OverflowError):
            render_json({"residual": [1.0, value]})

    @pytest.mark.parametrize("obj", [algebra.gaussian("1/2", c=F(-2, 3), k=1),
                                     pole(F(1, 2), F(1, 2), 1) + pole(3, 0, 0)])
    def test_documents_hold_no_tuples(self, obj):
        # terms are tuples, and render_json would write one as an array
        doc = serialization.object_to_document(obj)
        assert type(doc["terms"]) is list
        for term in doc["terms"]:
            assert type(term) is dict and not any(isinstance(v, tuple) for v in term.values())

    def test_only_expressions_are_documents(self):
        with pytest.raises(TypeError, match="cannot serialize int"):
            serialization.object_to_document(3)
