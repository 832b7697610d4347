"""CLI tests: every subcommand, the documented exit codes, output
stability across repeated runs, and the modules a subcommand loads."""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2transform import GExpr, GTerm, lpoly
from l2transform.cli import main
from l2transform.serialization import dumps, loads
from l2transform.transform import SExpr, STerm, forward

from support import child_env

ONE = '{"kind":"gexpr","terms":[{"c":"1","k":0,"a":"0"}]}'
EXP_HALF = '{"kind":"gexpr","terms":[{"c":"1","k":0,"a":"1/2"}]}'
EXP_X2 = '{"kind":"gexpr","terms":[{"c":"1","k":0,"a":"1"}]}'
RATIO_ONE = '{"kind":"lpoly","terms":[{"degree":0,"c":"1"}]}'
RATIO_1_T3 = '{"kind":"lpoly","terms":[{"degree":0,"c":"1"},{"degree":1,"c":"1/3"}]}'
CONST_SEXPR = '{"kind":"sexpr","terms":[{"c":"1/2","a":"0","m":0}]}'


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, doc in (("one", ONE), ("exp_half", EXP_HALF), ("exp_x2", EXP_X2),
                      ("ratio_one", RATIO_ONE), ("ratio_1_t3", RATIO_1_T3),
                      ("const_sexpr", CONST_SEXPR)):
        p = tmp_path / f"{name}.json"
        p.write_text(doc)
        paths[name] = str(p)
    return paths


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommands:
    def test_transform(self, files, capsys):
        code, out, _ = run_cli(["transform", files["one"]], capsys)
        assert code == 0
        assert out.strip() == '{"kind":"sexpr","terms":[{"c":"1/2","a":"0","m":1}]}'

    def test_invert_round_trip(self, files, capsys, tmp_path):
        code, out, _ = run_cli(["transform", files["exp_half"]], capsys)
        assert code == 0
        p = tmp_path / "fwd.json"
        p.write_text(out)
        code, out, _ = run_cli(["invert", str(p)], capsys)
        assert code == 0
        assert out.strip() == EXP_HALF

    def test_convolve(self, files, capsys):
        code, out, _ = run_cli(["convolve", files["one"], files["one"]], capsys)
        assert code == 0
        assert json.loads(out) == {"kind": "gexpr",
                                   "terms": [{"c": "1/2", "k": 1, "a": "0"}]}

    def test_starpow(self, files, capsys):
        code, out, _ = run_cli(["starpow", files["exp_half"], "--n", "2"], capsys)
        assert code == 0
        assert json.loads(out)["terms"] == [{"c": "1/2", "k": 1, "a": "1/2"}]

    def test_quad(self, files, capsys):
        code, out, _ = run_cli(["quad", files["one"], "--s", "1"], capsys)
        assert code == 0
        assert abs(json.loads(out)["value"] - 0.5) < 1e-9

    def test_solve_each_family(self, files, capsys):
        code, out, _ = run_cli(["solve", "--family", "A", "--n", "5"], capsys)
        assert code == 0 and json.loads(out)["family"] == "A"
        for fam in "BCD":
            code, out, _ = run_cli(
                ["solve", "--family", fam, "--ratio", files["ratio_one"], "--n", "5"],
                capsys)
            assert code == 0 and json.loads(out)["family"] == fam

    def test_solve_freeze_profile(self, files, capsys):
        code, out, _ = run_cli(
            ["solve", "--family", "C", "--ratio", files["ratio_one"], "--n", "4",
             "--convention", "paper", "--freeze-t", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "gexpr"
        assert {"c": "1", "k": 0, "a": "0"} in doc["terms"]

    def test_residual(self, files, capsys):
        code, out, _ = run_cli(
            ["residual", "--family", "D", "--ratio", files["ratio_one"],
             "--grid", "0.5,2,3,0.5,2,3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["max_abs"] <= 1e-12
        assert len(doc["points"]) == 9
        assert doc["truncation_bound"] == 0

    def test_deep_residual(self, capsys):
        # the tail bound of a depth past 98 keeps its factorials in range
        code, out, _ = run_cli(
            ["residual", "--family", "A", "--n", "120", "--grid", "0.2,2,4,0.5,2,4"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["max_abs"] <= 1e-12
        assert 0 <= doc["truncation_bound"] < math.inf

    def test_deep_folded_residual(self, files, capsys):
        # the folded row's tail bound sums its terms by ratios, so 200! never forms
        code, out, _ = run_cli(
            ["residual", "--family", "B", "--convention", "paper", "--ratio", files["ratio_1_t3"],
             "--n", "200", "--grid", "0.2,2,4,0.5,2,4"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["depth"] == 200 and len(doc["points"]) == 16
        assert doc["fd_max_deviation"] <= 1e-4 * max(1.0, doc["max_abs"])
        assert 0 <= doc["truncation_bound"] < math.inf

    def test_classify(self, files, capsys):
        code, out, _ = run_cli(
            ["classify", files["exp_half"], "--samples", "2,6,17"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["exact_rate"] == "1/2"
        assert doc["is_exponential_order"] is False
        assert doc["is_exp_squared_order"] is True
        assert abs(doc["estimated_rate"] - 0.5) < 0.01

    def test_bound_check(self, files, capsys):
        code, out, _ = run_cli(
            ["bound-check", files["exp_x2"], files["exp_half"],
             "--samples", "0.5,4,10"], capsys)
        assert code == 0
        assert json.loads(out)["holds"] is False


GOLDEN = Path(__file__).parent / "golden"
# name of the recorded stdout in tests/golden -> l2t solve arguments; the
# ratio is 1 + t/3 for every family that takes one
SOLVE_GOLDEN = {
    "solve_A": ["--family", "A", "--n", "6"],
    "solve_B_derived": ["--family", "B", "--ratio", "*", "--n", "6", "--convention", "derived"],
    "solve_B_paper": ["--family", "B", "--ratio", "*", "--n", "6", "--convention", "paper"],
    "solve_C_derived": ["--family", "C", "--ratio", "*", "--n", "6", "--convention", "derived"],
    "solve_C_paper": ["--family", "C", "--ratio", "*", "--n", "6", "--convention", "paper"],
    "solve_D": ["--family", "D", "--ratio", "*", "--n", "6"],
    "profile_A": ["--family", "A", "--n", "6", "--freeze-t", "1/2"],
    "profile_C_derived": ["--family", "C", "--ratio", "*", "--n", "6",
                          "--convention", "derived", "--freeze-t", "3/2"],
    "profile_C_paper": ["--family", "C", "--ratio", "*", "--n", "6",
                        "--convention", "paper", "--freeze-t", "3/2"],
}


class TestSolveGolden:
    @pytest.mark.parametrize("name", sorted(SOLVE_GOLDEN))
    def test_stdout_is_byte_identical_to_the_recording(self, name, files, capsys):
        args = [files["ratio_1_t3"] if a == "*" else a for a in SOLVE_GOLDEN[name]]
        code, out, _ = run_cli(["solve", *args], capsys)
        assert code == 0
        assert out == (GOLDEN / f"{name}.json").read_text()


# name of the recorded stdout in tests/golden -> l2t residual arguments, all
# with RESIDUAL_ARGS; the ratio is 1 + t/3 for every family that takes one
RESIDUAL_ARGS = ["--n", "12", "--grid", "0.2,2,4,0.5,2,4"]
RESIDUAL_GOLDEN = {
    "residual_A": ["--family", "A"],
    "residual_B_derived": ["--family", "B", "--ratio", "*", "--convention", "derived"],
    "residual_B_paper": ["--family", "B", "--ratio", "*", "--convention", "paper"],
    "residual_C_derived": ["--family", "C", "--ratio", "*", "--convention", "derived"],
    "residual_C_paper": ["--family", "C", "--ratio", "*", "--convention", "paper"],
    "residual_D": ["--family", "D", "--ratio", "*"],
}


def _same_document(got, want, path="$") -> None:
    """Exact equality of everything but floats; floats within 1e-13
    relative, so that a libm with other last bits cannot fail the test."""
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert math.isclose(got, want, rel_tol=1e-13), f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            _same_document(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _same_document(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


class TestResidualGolden:
    @pytest.mark.parametrize("name", sorted(RESIDUAL_GOLDEN))
    def test_report_matches_the_recording(self, name, files, capsys):
        args = [files["ratio_1_t3"] if a == "*" else a for a in RESIDUAL_GOLDEN[name]]
        code, out, _ = run_cli(["residual", *args, *RESIDUAL_ARGS], capsys)
        assert code == 0
        _same_document(json.loads(out), json.loads((GOLDEN / f"{name}.json").read_text()))


class TestExitCodes:
    def test_schema_error_is_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"kind":"gexpr","terms":[{"c":"1/0","k":0,"a":"0"}]}')
        code, _, err = run_cli(["transform", str(p)], capsys)
        assert code == 2
        assert json.loads(err)["code"] == 2

    def test_missing_file_is_2(self, capsys):
        code, _, err = run_cli(["transform", "/nonexistent.json"], capsys)
        assert code == 2

    def test_wrong_kind_is_2(self, files, capsys):
        code, _, err = run_cli(["transform", files["const_sexpr"]], capsys)
        assert code == 2
        assert json.loads(err)["message"] == "$.kind: expected a gexpr document, got sexpr"

    def test_usage_error_is_2(self, files, capsys):
        code, _, _ = run_cli(["solve", "--family", "B", "--n", "5"], capsys)
        assert code == 2

    @pytest.mark.parametrize("command", ["solve", "residual"])
    @pytest.mark.parametrize("family", ["A", "D"])
    def test_paper_convention_of_a_row_without_one_is_2(self, command, family, files, capsys):
        args = [command, "--family", family, "--n", "3"]
        if family == "D":
            args += ["--ratio", files["ratio_one"]]
        code, out, err = run_cli(args + ["--convention", "paper"], capsys)
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert set(doc) == {"code", "message"} and doc["code"] == 2
        code, out, _ = run_cli(args + ["--convention", "derived"], capsys)
        assert code == 0 and json.loads(out)["convention"] is None

    @pytest.mark.parametrize("grid", [
        "0.5,2,2,0,1,2",        # t bound 0: the log spacing would divide by it
        "-1,2,2,0.5,1,2",       # negative x bound
        "0.5,2,2,0.5,1,-3",     # no t points at all
        "0.5,2,0,0.5,1,2",      # no x points at all
        "1e-6,1,2,0.5,1,2",     # x within the finite-difference step of 0
        "0.5,2,2,nan,1,2",      # NaN t bound
        "0.5,inf,2,0.5,1,2",    # infinite x bound: the log spacing overflows
        "0.5,2,2,0.5,inf,2",    # infinite t bound: t^3 of an infinite t
    ])
    def test_bad_residual_grid_is_2(self, grid, files, capsys):
        code, out, err = run_cli(
            ["residual", "--family", "A", "--n", "5", "--grid", grid], capsys)
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert set(doc) == {"code", "message"} and doc["code"] == 2

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_starpow_non_positive_n_is_2(self, n, files, capsys):
        code, out, err = run_cli(["starpow", files["exp_half"], "--n", n], capsys)
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert set(doc) == {"code", "message"} and doc["code"] == 2

    @pytest.mark.parametrize("text", ["1\n", "\u0661\u0662"])
    def test_rational_outside_the_grammar_is_2(self, text, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"kind": "gexpr", "terms": [{"c": text, "k": 0, "a": "0"}]}))
        code, out, err = run_cli(["transform", str(p)], capsys)
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert set(doc) == {"code", "message"} and "$.terms[0].c" in doc["message"]

    @pytest.mark.parametrize("s", ["nan", "0", "-1", "inf"])
    def test_quad_at_a_bad_s_is_2(self, s, files, capsys):
        code, out, err = run_cli(["quad", files["one"], "--s", s], capsys)
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        doc = json.loads(line)
        assert set(doc) == {"code", "message"} and doc["code"] == 2

    @pytest.mark.parametrize("samples", ["nan,2,10", "0.5,nan,10", "2,0.5,10", "0.5,2,0"])
    def test_bound_check_at_bad_samples_is_2(self, samples, files, capsys):
        code, out, err = run_cli(
            ["bound-check", files["exp_x2"], files["exp_half"], "--samples", samples], capsys)
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert set(json.loads(line)) == {"code", "message"}

    def test_divergent_integral_is_3(self, files, capsys):
        code, _, err = run_cli(["quad", files["exp_x2"], "--s", "1"], capsys)
        assert code == 3
        assert "Divergent" in json.loads(err)["message"]

    def test_quad_exits_3_only_past_float_range(self, tmp_path, capsys):
        # T{x^240}(s) = 120! / (2 s^242): 3.3e198 at s = 1, 1.7e344 at s = 1/4
        p = tmp_path / "k120.json"
        p.write_text('{"kind":"gexpr","terms":[{"c":"1","k":120,"a":"0"}]}')
        code, out, _ = run_cli(["quad", str(p), "--s", "1"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.factorial(120) / 2, rel=1e-12)
        code, out, err = run_cli(["quad", str(p), "--s", "0.25"], capsys)
        assert code == 3 and out == ""
        assert "OverflowError" in json.loads(err)["message"]

    def test_non_finite_result_is_3(self, files, capsys):
        # the residual is NaN at x = 37.5, which JSON cannot hold
        code, out, err = run_cli(
            ["residual", "--family", "C", "--ratio", files["ratio_one"], "--n", "12",
             "--grid", "36,37.5,2,0.5,1,2"], capsys)
        assert code == 3 and out == ""
        (line,) = err.splitlines()
        doc = json.loads(line)
        assert set(doc) == {"code", "message"} and doc["code"] == 3

    def test_impulse_content_is_4(self, files, capsys):
        code, _, err = run_cli(["invert", files["const_sexpr"]], capsys)
        assert code == 4
        assert json.loads(err)["code"] == 4


class TestStability:
    def test_repeated_runs_are_byte_identical(self, files):
        cmd = [sys.executable, "-m", "l2transform.cli",
               "residual", "--family", "C", "--ratio", files["ratio_one"],
               "--n", "12", "--grid", "0.2,2,3,0.5,2,3"]
        env = child_env()
        first = subprocess.run(cmd, capture_output=True, check=True, env=env)
        second = subprocess.run(cmd, capture_output=True, check=True, env=env)
        assert first.stdout == second.stdout

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr(sys, "stdin", io.StringIO(ONE))
        code, out, _ = run_cli(["transform", "-"], capsys)
        assert code == 0
        assert json.loads(out)["kind"] == "sexpr"


# Prints, as its last line, the l2transform submodules loaded after importing
# the CLI, after `transform` and after `solve`.
_LOADED_MODULES = """
import json, sys
import l2transform.cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith("l2transform."))

steps = [loaded()]
for argv in (["transform", sys.argv[1]], ["solve", "--family", "A", "--n", "3"]):
    assert l2transform.cli.main(argv) == 0, argv
    steps.append(loaded())
print(json.dumps(steps))
"""
_LAZY = {"l2transform.pde", "l2transform.growth", "l2transform.quadrature",
         "l2transform.convolution"}


class TestLazyLoading:
    def test_a_subcommand_loads_only_the_modules_it_calls(self, files):
        proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, files["one"]],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        after_import, after_transform, after_solve = json.loads(proc.stdout.splitlines()[-1])
        assert not _LAZY & set(after_import)
        assert not _LAZY & set(after_transform)
        assert "l2transform.pde" in after_solve

    def test_literal_choices_match_the_enums(self):
        from l2transform import cli, pde
        assert sorted(cli._FAMILIES) == sorted(f.value for f in pde.Family)
        assert sorted(cli._CONVENTIONS) == sorted(c.value for c in pde.Convention)


def run_in_process(args, docs):
    """main(args) with each "{name}" argument replaced by a temporary file
    holding docs[name]; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in docs.items():
            (Path(tmp) / f"{name}.json").write_text(text)
        args = [str(Path(tmp) / f"{a[1:-1]}.json") if a[:1] == "{" else a for a in args]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    return code, out.getvalue(), err.getvalue()


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=9)
gexprs = st.lists(st.builds(GTerm, rationals, st.integers(0, 4), rationals), max_size=4).map(
    lambda terms: GExpr(tuple(terms)))
proper_sexprs = st.lists(st.builds(STerm, rationals, rationals, st.integers(1, 4)), max_size=4).map(
    lambda terms: SExpr(tuple(terms)))
lpolys = st.dictionaries(st.integers(0, 5), rationals, max_size=4).map(lpoly)


class TestRoundTripProperties:
    @given(gexprs)
    @settings(max_examples=60, deadline=None)
    def test_gexpr_through_transform_and_invert(self, e):
        code, out, err = run_in_process(["transform", "{e}"], {"e": dumps(e)})
        assert (code, err) == (0, "") and loads(out) == forward(e)
        code, out, err = run_in_process(["invert", "{s}"], {"s": out})
        assert (code, err) == (0, "") and loads(out) == e

    @given(proper_sexprs)
    @settings(max_examples=60, deadline=None)
    def test_sexpr_through_invert_and_transform(self, s):
        code, out, err = run_in_process(["invert", "{s}"], {"s": dumps(s)})
        assert (code, err) == (0, "")
        code, out, err = run_in_process(["transform", "{e}"], {"e": out})
        assert (code, err) == (0, "") and loads(out) == s

    @given(lpolys)
    @settings(max_examples=40, deadline=None)
    def test_lpoly_through_solve(self, p):
        code, out, err = run_in_process(
            ["solve", "--family", "D", "--n", "1", "--ratio", "{p}"], {"p": dumps(p)})
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert loads(json.dumps(doc["ratio"])) == p
        assert loads(json.dumps(doc["ratio_antiderivative"])) == p.antiderivative()


VALID_TERMS = {
    "gexpr": {"c": "1/2", "k": 1, "a": "-1"},
    "sexpr": {"c": "1/2", "a": "0", "m": 1},
    "lpoly": {"degree": 2, "c": "3"},
}
INTEGER_FIELD = {"gexpr": "k", "sexpr": "m", "lpoly": "degree"}
RATIONAL_GRAMMAR = re.compile(r"-?[0-9]+(/[0-9]+)?")
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4))
bad_rationals = st.one_of(
    st.text(max_size=6).filter(lambda text: not RATIONAL_GRAMMAR.fullmatch(text)),
    st.sampled_from(["1/0", "-3/0", "0.5", "1e3", " 1", "1/", "/2", "+1"]),
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(), max_size=2),
)
bad_integers = st.one_of(
    st.booleans(), st.integers(max_value=-1), st.none(), st.text(max_size=3),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def malformed_documents(draw):
    """JSON text that `l2t transform` must refuse with exit 2: a gexpr, sexpr
    or lpoly document with exactly one defect, or a valid document of a
    kind other than gexpr."""
    kind = draw(st.sampled_from(sorted(VALID_TERMS)))
    term = dict(VALID_TERMS[kind])
    doc = {"kind": kind, "terms": [term]}
    defect = draw(st.sampled_from([
        "kind", "rational", "integer", "extra field", "missing field", "terms",
        "term", "extra top-level field", "missing top-level field", "top level",
        "not json", "other kind",
    ]))
    if defect == "kind":
        doc["kind"] = draw(json_scalars.filter(lambda k: k not in VALID_TERMS))
    elif defect == "rational":
        field = draw(st.sampled_from(sorted(set(term) - {INTEGER_FIELD[kind]})))
        term[field] = draw(bad_rationals)
    elif defect == "integer":
        term[INTEGER_FIELD[kind]] = draw(bad_integers)
    elif defect == "extra field":
        term[draw(st.text(max_size=4).filter(lambda key: key not in term))] = "1"
    elif defect == "missing field":
        del term[draw(st.sampled_from(sorted(term)))]
    elif defect == "terms":
        doc["terms"] = draw(st.one_of(
            json_scalars, st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)))
    elif defect == "term":
        doc["terms"] = [draw(st.one_of(json_scalars, st.lists(st.integers(), max_size=2)))]
    elif defect == "extra top-level field":
        doc[draw(st.text(max_size=6).filter(lambda key: key not in doc))] = []
    elif defect == "missing top-level field":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif defect == "top level":
        doc = draw(st.one_of(json_scalars, st.lists(json_scalars, max_size=3)))
    elif defect == "not json":
        return draw(st.sampled_from(["", "{", "{not json}", "[1,", "kind: gexpr"]))
    elif kind == "gexpr":  # other kind
        doc = {"kind": "sexpr", "terms": [VALID_TERMS["sexpr"]]}
    return json.dumps(doc)


class TestSchemaFuzz:
    @given(malformed_documents())
    @settings(max_examples=200, deadline=None)
    def test_malformed_document_exits_2_with_one_error_line(self, text):
        code, out, err = run_in_process(["transform", "{doc}"], {"doc": text})
        assert code == 2 and out == ""
        assert "Traceback" not in err
        (line,) = err.splitlines()
        doc = json.loads(line)
        assert set(doc) == {"code", "message"} and doc["code"] == 2
