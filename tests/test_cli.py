import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, fixture_path
from oracles import is_divisible
from test_cech import FIELDS, NOT_DIVISIBLE, RANK_DEFICIENT

from svtlab import cache, cech, ideals, simplicial
from svtlab.cli import _dumps, main, parse_ideal_document
from svtlab.fields import FieldSpec
from svtlab.ideals import SquareFreeIdeal, VariableContext


def all_subsets_document(n, k):
    """The ideal of all k-subsets of n variables, C(n, k) generators."""
    names = [f"x{j}" for j in range(1, n + 1)]
    return {"variables": names, "ideal": {"generators": [list(c) for c in combinations(names, k)]}}


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_generators_schema(self):
        doc = {"variables": ["x", "y"], "ideal": {"generators": [["x", "y"]]}}
        I = parse_ideal_document(doc)
        assert I.generator_lists() == [["x", "y"]]

    def test_primes_schema(self):
        doc = {
            "variables": ["x1", "x2", "x3", "x4"],
            "ideal": {"intersection_of_primes": [["x1", "x2"], ["x3", "x4"]]},
        }
        I = parse_ideal_document(doc)
        assert I.r == 4

    def test_bad_schema(self):
        from svtlab.cli import InputError

        with pytest.raises(InputError):
            parse_ideal_document({"variables": ["x"], "ideal": {}})
        with pytest.raises(InputError):
            parse_ideal_document({"variables": ["x", "x"], "ideal": {"generators": [["x"]]}})
        # a string or an object in place of a list is not iterated as its
        # characters or keys
        for doc in [
            {"variables": "xyz", "ideal": {"generators": [["x", "y"], ["z"]]}},
            {"variables": {"x": 0, "y": 1}, "ideal": {"generators": [["x"]]}},
            {"variables": ["x", "y", "z"], "ideal": {"generators": ["xy", "z"]}},
            {"variables": ["x", "y", "z"], "ideal": {"generators": "xy"}},
            {"variables": ["x", "y", "z"], "ideal": {"generators": {"x": ["y"]}}},
            {"variables": ["x", "y", "z"], "ideal": {"intersection_of_primes": ["xy", "z"]}},
            {"variables": ["x", "y", "z"], "ideal": {"intersection_of_primes": [{"x": 1}]}},
        ]:
            with pytest.raises(InputError):
                parse_ideal_document(doc)


class TestCommands:
    def test_cohomology_cache_miss_then_hit(self, capsys, cache_dir):
        args = [
            "cohomology", "--input", fixture_path("two_planes.json"),
            "--cache-dir", cache_dir,
        ]
        code, out, _ = invoke(capsys, *args)
        assert code == 0
        first = json.loads(out)
        assert first["cache"] == "miss"
        code, out, _ = invoke(capsys, *args)
        second = json.loads(out)
        assert second["cache"] == "hit"
        assert first["table"] == second["table"]
        assert {(e["i"], tuple(e["pattern"])) for e in first["table"]} == {
            (2, ("x1", "x2")), (2, ("x3", "x4")), (3, ("x1", "x2", "x3", "x4")),
        }

    def test_analyze_two_blocks(self, capsys, cache_dir):
        code, out, _ = invoke(
            capsys, "analyze", "--input", fixture_path("ex43.json"),
            "--cache-dir", cache_dir,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"] == {
            "agreement": True,
            "cd": 5,
            "connected": True,
            "depth": 3,
            "dim_quotient": 5,
            "height": 3,
            "q": 5,
            "vanishing_top_minus_one": True,
        }
        assert doc["sentinels"] == {"hlv": True, "grade": True}

    def test_svt_disconnected(self, capsys):
        code, out, _ = invoke(
            capsys, "svt", "--input", fixture_path("ex46.json"), "--no-cache",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"]["connected"] is False
        assert doc["verdicts"]["vanishing_top_minus_one"] is False
        assert doc["verdicts"]["agreement"] is True
        assert "table" not in doc

    def test_graph_dot_export(self, capsys, tmp_path):
        dot_file = str(tmp_path / "g.dot")
        code, out, _ = invoke(
            capsys, "graph", "--input", fixture_path("ex47.json"),
            "--kind", "theta", "--dot", dot_file,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["connected"] is True
        assert len(doc["vertices"]) == 3
        text = open(dot_file).read()
        assert text.startswith("graph") and "--" in text

    def test_graph_dot_disconnected(self, capsys, tmp_path):
        dot_file = str(tmp_path / "g.dot")
        code, out, _ = invoke(
            capsys, "graph", "--input", fixture_path("ex46.json"),
            "--kind", "theta", "--dot", dot_file,
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["vertices"]) == 2 and doc["edges"] == []
        text = open(dot_file).read()
        assert text.count("label=") == 2 and " -- " not in text

    def test_surjectivity_split_line(self, capsys):
        code, out, _ = invoke(
            capsys, "surjectivity", "--input", fixture_path("ex313.json"),
            "--degree", "1", "--monomial", "y", "--no-cache",
        )
        assert code == 0 and json.loads(out)["surjective"] is True
        code, out, _ = invoke(
            capsys, "surjectivity", "--input", fixture_path("ex313.json"),
            "--degree", "1", "--monomial", "x", "--no-cache",
        )
        assert code == 0 and json.loads(out)["surjective"] is False

    def test_surjectivity_three_axes(self, capsys, tmp_path):
        axes = tmp_path / "axes.json"
        axes.write_text(json.dumps({
            "variables": ["x1", "x2", "x3"],
            "ideal": {"generators": [["x1", "x2"], ["x1", "x3"], ["x2", "x3"]]},
        }))
        code, out, _ = invoke(
            capsys, "surjectivity", "--input", str(axes),
            "--degree", "2", "--monomial", "x1", "--no-cache",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["surjective"] is True and doc["divisible"] is True

    def test_surjectivity_fails_by_rank(self, capsys, tmp_path):
        # every target of x3 on H^3 has a nonzero source; one map has rank 1 onto k^2
        doc = tmp_path / "rank_deficient.json"
        doc.write_text(json.dumps(RANK_DEFICIENT))
        code, out, _ = invoke(
            capsys, "surjectivity", "--input", str(doc),
            "--degree", "3", "--monomial", "x3", "--no-cache",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["surjective"] is False and doc["divisible"] is False

    @pytest.mark.parametrize(
        "monomial", ["x1", ",".join(f"x{k}" for k in range(1, 9))],
        ids=["x1", "every-variable"],
    )
    def test_surjectivity_computes_each_map_once(self, capsys, monkeypatch, monomial):
        # row 7 of k8_edges has one comparison map per variable, onto k
        computed = []
        real = cech.multiplication_rank

        def spy(table, i, variable, pattern):
            computed.append((i, pattern, variable))
            return real(table, i, variable, pattern)

        monkeypatch.setattr(cech, "multiplication_rank", spy)
        code, out, _ = invoke(
            capsys, "surjectivity", "--input", fixture_path("k8_edges.json"),
            "--degree", "7", "--monomial", monomial, "--no-cache",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["surjective"] is True and doc["divisible"] is True
        assert sorted(computed) == [(7, 0b11111111, j) for j in range(8)]

    def test_mv_ok(self, capsys, tmp_path):
        second = tmp_path / "q2.json"
        second.write_text(json.dumps({
            "variables": ["x1", "x2", "x3", "x4"],
            "ideal": {"generators": [["x3"], ["x4"]]},
        }))
        first = tmp_path / "q1.json"
        first.write_text(json.dumps({
            "variables": ["x1", "x2", "x3", "x4"],
            "ideal": {"generators": [["x1"], ["x2"]]},
        }))
        code, out, _ = invoke(capsys, "mv", "--input", str(first), "--second", str(second))
        assert code == 0
        assert json.loads(out)["mayer_vietoris_consistent"] is True

    def test_sweep_with_log(self, capsys, tmp_path):
        log = str(tmp_path / "sweep.jsonl")
        code, out, _ = invoke(
            capsys, "sweep", "--vars", "4", "--trials", "5", "--seed", "2",
            "--log", log,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["agreements"] == 5 and doc["failures"] == 0
        lines = open(log).read().strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0]) == doc

    def test_cache_stats_and_clear(self, capsys, cache_dir):
        invoke(
            capsys, "cohomology", "--input", fixture_path("two_planes.json"),
            "--cache-dir", cache_dir,
        )
        code, out, _ = invoke(capsys, "cache", "--stats", "--cache-dir", cache_dir)
        assert code == 0 and json.loads(out)["entries"] == 1
        code, out, _ = invoke(capsys, "cache", "--clear", "--cache-dir", cache_dir)
        assert code == 0
        code, out, _ = invoke(capsys, "cache", "--stats", "--cache-dir", cache_dir)
        assert json.loads(out)["entries"] == 0

    def test_output_file(self, capsys, tmp_path):
        out_file = str(tmp_path / "r.json")
        code, out, _ = invoke(
            capsys, "cohomology", "--input", fixture_path("max_ideal_n2.json"),
            "--no-cache", "--output", out_file,
        )
        assert code == 0 and out == ""
        doc = json.loads(open(out_file).read())
        assert doc["table"] == [{"dim": 1, "i": 2, "pattern": ["x1", "x2"]}]


FIXTURE_NAMES = sorted(f for f in os.listdir(FIXTURES) if f.endswith(".json"))


class TestCrossCommand:
    """Every command reports the same ideal, field and table for one input."""

    @pytest.mark.parametrize("field", ["rationals", "2"])
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_commands_agree(self, capsys, name, field):
        src = fixture_path(name)
        with open(src) as fh:
            names = json.load(fh)["variables"]

        def run(*argv):
            code, out, err = invoke(capsys, *argv, "--input", src, "--max-vars", str(len(names)))
            assert code == 0 and err == "", err
            return json.loads(out)

        analyze = run("analyze", "--field", field, "--no-cache")
        svt = run("svt", "--field", field, "--no-cache")
        cohomology = run("cohomology", "--field", field, "--no-cache")
        graph = run("graph", "--kind", "theta")  # graph builds no table, so takes no field
        surjectivity = run(
            "surjectivity", "--degree", "0", "--monomial", names[0], "--field", field, "--no-cache"
        )
        mv = run("mv", "--second", src, "--field", field)

        without = {k: v for k, v in analyze.items() if k not in ("table", "sentinels", "timings")}
        assert {k: v for k, v in svt.items() if k != "timings"} == without
        for key in ("ideal", "field", "table"):
            assert cohomology[key] == analyze[key]
        for doc in (graph, surjectivity):
            assert doc["ideal"] == analyze["ideal"]
        assert mv["first"] == mv["second"] == analyze["ideal"]
        for doc in (analyze, svt, cohomology, surjectivity):
            assert doc["cache"] == "off"

    @pytest.mark.parametrize("field", ["rationals", "2"])
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_surjectivity_at_every_degree(self, capsys, name, field):
        # the CLI's own divisibility walk against the library and the
        # product-of-all-variables oracle, at every degree of every fixture
        src = fixture_path(name)
        with open(src) as fh:
            I = parse_ideal_document(json.load(fh))
        n = I.context.n
        table = cech.local_cohomology_table(I, FieldSpec.parse(field), cech.EngineLimits(max_vars=n))
        x = 1  # the support mask of the first variable
        not_divisible = []
        for i in range(-1, n + 2):
            code, out, err = invoke(
                capsys, "surjectivity", "--input", src, "--degree", str(i), "--monomial",
                I.context.names[0], "--field", field, "--no-cache", "--max-vars", str(n),
            )
            assert code == 0 and err == "", err
            doc = json.loads(out)
            assert doc["surjective"] == cech.is_multiplication_surjective(table, i, x)
            assert doc["divisible"] == is_divisible(table, i)
            if not doc["divisible"]:
                not_divisible.append(i)
        # rp2's table depends on the field: H^3 is not divisible over Q only
        rp2 = [3] if field == "rationals" else []
        assert not_divisible == (rp2 if name == "rp2.json" else NOT_DIVISIBLE[name])


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "analyze", "--input", "/nonexistent.json", "--no-cache")
        assert code == 1
        assert json.loads(err)["error"] in ("input_error", "io_error")

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = invoke(capsys, "analyze", "--input", str(bad), "--no-cache")
        assert code == 1

    def test_string_in_place_of_a_list(self, capsys, tmp_path):
        doc = tmp_path / "chars.json"
        doc.write_text(json.dumps({"variables": "xyz", "ideal": {"generators": ["xy", "z"]}}))
        code, out, err = invoke(capsys, "svt", "--input", str(doc), "--no-cache")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "input_error"

    @pytest.mark.parametrize(
        "doc, named",
        [
            ([{"variables": ["x"], "ideal": {"generators": [["x"]]}}], "the ideal document"),
            ({"variables": ["x", "y"], "ideal": None}, "'ideal'"),
            ({"variables": ["x", "y"], "ideal": "generators"}, "'ideal'"),
        ],
        ids=["top-level list", "null ideal", "string ideal"],
    )
    def test_non_object_names_its_place(self, capsys, tmp_path, doc, named):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "analyze", "--input", str(path), "--no-cache")
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["error"] == "input_error"
        assert error["message"] == f"{named} must be a JSON object"

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"ideal": {"generators": [["x"]]}}, "variables"),
            ({"variables": ["x"]}, "ideal"),
        ],
        ids=["no variables", "no ideal"],
    )
    def test_missing_key_is_named(self, capsys, tmp_path, doc, key):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "analyze", "--input", str(path), "--no-cache")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "input_error", "message": f"the ideal document has no '{key}' key"
        }

    @pytest.mark.parametrize(
        "generators, kind", [([], "zero"), ([[]], "unit")], ids=["zero", "unit"]
    )
    @pytest.mark.parametrize("n", [3, 9])  # 9 tops the default engine cap of 8
    def test_zero_and_unit_ideals_share_one_message(
        self, capsys, tmp_path, monkeypatch, generators, kind, n
    ):
        names = [f"x{k}" for k in range(1, n + 1)]
        bad, good = tmp_path / "bad.json", tmp_path / "good.json"
        bad.write_text(json.dumps({"variables": names, "ideal": {"generators": generators}}))
        good.write_text(json.dumps({"variables": names, "ideal": {"generators": [["x1", "x2"]]}}))
        monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "cache"))
        expected = {"error": "input_error", "message": f"the {kind} ideal is not accepted here"}
        cached = [
            ["analyze"],
            ["cohomology"],
            ["svt"],
            ["surjectivity", "--degree", "1", "--monomial", "x1"],
        ]
        for argv in (
            *[[*c, "--input", str(bad)] for c in cached],
            *[[*c, "--input", str(bad), "--no-cache"] for c in cached],
            ["graph", "--kind", "theta", "--input", str(bad)],
            ["graph", "--kind", "gamma", "--input", str(bad)],
            ["mv", "--input", str(bad), "--second", str(good)],
            ["mv", "--input", str(good), "--second", str(bad)],
        ):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert json.loads(err) == expected, argv
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "ideal, shown",
        [
            ({"generators": [["x1", "x9"]]}, "'x9'"),
            ({"generators": [["x1", ["x2"]]]}, "['x2']"),
            ({"generators": [[{"x2": 1}]]}, "{'x2': 1}"),
            ({"generators": [["x1", 2]]}, "2"),
            ({"intersection_of_primes": [["x1"], [["x2"]]]}, "['x2']"),
        ],
        ids=["unknown", "nested list", "object", "number", "nested list in a prime"],
    )
    def test_unknown_or_unhashable_variable_is_named(self, capsys, tmp_path, ideal, shown):
        path = tmp_path / "names.json"
        path.write_text(json.dumps({"variables": ["x1", "x2", "x3"], "ideal": ideal}))
        code, out, err = invoke(capsys, "analyze", "--input", str(path), "--no-cache")
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "input_error", "message": f"unknown variable {shown}"}

    def test_deeply_nested_document(self, capsys, tmp_path):
        # valid JSON, nested past what json.load reads without a RecursionError
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = invoke(capsys, "analyze", "--input", str(path), "--no-cache")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "input_error", "message": f"{path} nests too deeply to read"
        }

    def test_cap_exceeded(self, capsys):
        code, _, err = invoke(
            capsys, "cohomology", "--input", fixture_path("ex45_n3.json"), "--no-cache",
        )
        assert code == 2
        assert json.loads(err)["error"] == "cap_exceeded"

    @pytest.mark.parametrize(
        "command",
        [
            ["analyze"],
            ["cohomology"],
            ["svt"],
            ["surjectivity", "--degree", "4", "--monomial", "x11"],
        ],
        ids=["analyze", "cohomology", "svt", "surjectivity"],
    )
    def test_cached_table_does_not_lift_the_cap(self, capsys, cache_dir, command):
        src = fixture_path("ex45_n3.json")  # 9 variables
        code, _, _ = invoke(
            capsys, *command, "--input", src, "--cache-dir", cache_dir, "--max-vars", "9",
        )
        assert code == 0
        code, out, err = invoke(capsys, *command, "--input", src, "--cache-dir", cache_dir)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "cap_exceeded"

    def test_edge_ideal_of_k6_within_default_caps(self, capsys, tmp_path):
        # 6 variables and 15 generators: no budget on 2^15 Cech terms applies
        names = [f"x{k}" for k in range(1, 7)]
        doc = {
            "variables": names,
            "ideal": {"generators": [[a, b] for k, a in enumerate(names) for b in names[k + 1:]]},
        }
        path = tmp_path / "k6.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "analyze", "--input", str(path), "--no-cache")
        assert code == 0 and err == ""
        assert json.loads(out)["sentinels"] == {"hlv": True, "grade": True}

    def test_edge_ideal_of_k8_within_default_caps(self, capsys):
        # 28 generators: the generator count is not capped
        code, out, err = invoke(
            capsys, "analyze", "--input", fixture_path("k8_edges.json"), "--no-cache",
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["sentinels"] == {"hlv": True, "grade": True}
        assert payload["verdicts"]["cd"] + payload["verdicts"]["depth"] == 8

    @pytest.mark.parametrize("name", ["k8_edges.json", "ex43.json", "subsets"])
    def test_analyze_searches_the_minimal_primes_once(self, capsys, tmp_path, monkeypatch, name):
        if name == "subsets":
            path = tmp_path / "subsets.json"
            path.write_text(json.dumps(all_subsets_document(8, 4)))
            src = str(path)
        else:
            src = fixture_path(name)
        with open(src) as fh:
            doc = json.load(fh)
        I = parse_ideal_document(doc)
        # a document given by its primes parses with one search over them
        primes = doc["ideal"].get("intersection_of_primes")
        parses = [[I.context.mask_of(p) for p in primes]] if primes else []
        calls = []
        search = ideals._minimal_transversals
        monkeypatch.setattr(
            ideals, "_minimal_transversals", lambda supports: calls.append(supports) or search(supports)
        )
        code, _, err = invoke(capsys, "analyze", "--input", src, "--no-cache")
        assert code == 0 and err == ""
        assert [list(c) for c in calls] == parses + [list(I.generators)]
        assert len(parses) == (name == "ex43.json")

    def test_graph_on_all_four_subsets_of_eight_variables(self, capsys, tmp_path):
        # r = 70 at the default variable cap: the generator count is not capped
        path = tmp_path / "subsets.json"
        path.write_text(json.dumps(all_subsets_document(8, 4)))
        for kind in ("theta", "gamma"):
            code, out, err = invoke(capsys, "graph", "--input", str(path), "--kind", kind)
            assert code == 0 and err == ""
            payload = json.loads(out)
            assert len(payload["vertices"]) == 56  # the 5-subsets
            assert payload["connected"] is True

    def test_graph_refuses_nine_variables_at_default_cap(self, capsys):
        src = fixture_path("ex45_n3.json")  # 9 variables
        for kind in ("theta", "gamma"):
            code, out, err = invoke(capsys, "graph", "--input", src, "--kind", kind)
            assert code == 2 and out == ""
            assert json.loads(err)["error"] == "cap_exceeded"
            code, out, err = invoke(
                capsys, "graph", "--input", src, "--kind", kind, "--max-vars", "9",
            )
            assert code == 0 and err == ""
            assert json.loads(out)["kind"] == kind

    def test_cap_override_flag(self, capsys):
        code, out, _ = invoke(
            capsys, "svt", "--input", fixture_path("ex45_reduced.json"), "--no-cache",
        )
        assert code == 0
        assert json.loads(out)["verdicts"]["agreement"] is True

    def test_field_characteristic_over_the_bound(self, capsys):
        code, out, err = invoke(
            capsys, "svt", "--input", fixture_path("two_planes.json"), "--no-cache",
            "--field", "3317044064679887385961981",
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "input_error"

    @pytest.mark.parametrize(
        "flags, named",
        [(["--trials", "-5"], "-5"), (["--trials", "5", "--generator-bound", "0"], "0")],
        ids=["negative-trials", "zero-generator-bound"],
    )
    def test_sweep_refuses_impossible_counts(self, capsys, flags, named):
        code, out, err = invoke(capsys, "sweep", "--vars", "3", "--seed", "1", *flags)
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "input_error" and named in doc["message"]

    @pytest.mark.parametrize("trials", ["0", "1"])
    @pytest.mark.parametrize(
        "n, code, error", [("2", 1, "input_error"), ("12", 2, "cap_exceeded")]
    )
    def test_sweep_refuses_its_ring_before_any_trial(self, capsys, trials, n, code, error):
        got, out, err = invoke(capsys, "sweep", "--vars", n, "--trials", trials, "--seed", "1")
        assert got == code and out == ""
        assert json.loads(err)["error"] == error

    def test_unknown_flag(self, capsys):
        code, _, _ = invoke(capsys, "analyze", "--bogus")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--input", fixture_path("ex47.json"), "--bogus"],
            ["analyze"],
            [],
            ["frobnicate"],
            ["surjectivity", "--input", fixture_path("ex313.json"),
             "--degree", "two", "--monomial", "x"],
            # graph builds no table, so it takes no field
            ["graph", "--input", fixture_path("ex47.json"), "--kind", "theta",
             "--field", "2"],
            # the engine's one cap is on variables
            ["cohomology", "--input", fixture_path("ex47.json"), "--cell-budget", "10"],
            ["analyze", "--input", fixture_path("k8_edges.json"), "--max-generators", "30"],
        ],
        ids=["unknown-flag", "missing-input", "missing-command", "unknown-command",
             "bad-int", "graph-field-flag", "cell-budget-flag", "generator-cap-flag"],
    )
    def test_usage_error_is_one_json_line(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "input_error"

    def test_help_exits_zero(self, capsys):
        code, out, err = invoke(capsys, "analyze", "--help")
        assert code == 0 and "--input" in out and err == ""


class TestConsoleScript:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "svtlab.cli", "sweep", "--vars", "3",
             "--trials", "2", "--seed", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["failures"] == 0


# text with quotes, backslashes, control and non-ASCII characters (surrogates too)
_texts = st.text(st.characters(), max_size=8) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é€😀", "\ud800"])
_leaves = (
    _texts
    | st.integers()
    | st.integers(-(10**60), 10**60)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0, 1e300, 5e-324])
    | st.booleans()
    | st.none()
)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_texts, inner, max_size=4),
    max_leaves=30,
)


ROWS = cech.CohomologyTable.rows.func  # what a spy on the rows wraps


class TestWriter:
    """The payload writer reproduces json.dumps(indent=2, sort_keys=True)."""

    @given(_values)
    @settings(max_examples=300, deadline=None)
    @example([[], {}, (), {"": [{}], "a": ((),)}])
    @example({"é\"\n": [10**40, -(10**40), float("nan"), True, False, None, ("x", 1.5)]})
    def test_equals_indented_json_dumps(self, value):
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    @given(
        prefix=st.sampled_from(["x", 'a"', "b\\", "é", 'Ω\\"']),
        n=st.integers(3, 11),
        supports=st.lists(st.integers(1, (1 << 11) - 1), min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    @example(prefix="x", n=10, supports=[0b1000000011, 0b1100])  # x10 sorts before x2
    @example(prefix='a"', n=11, supports=[0b10000000001, 0b11000, 0b1100000])
    def test_table_rows_render_as_their_entries(self, field, prefix, n, supports):
        ctx = VariableContext(tuple(f"{prefix}{j}" for j in range(1, n + 1)))
        I = SquareFreeIdeal(ctx, [g & ctx.full_mask or 1 for g in supports])
        table = cech.local_cohomology_table(I, field, cech.EngineLimits(max_vars=n))
        # by i, then by the name lists compared as strings
        named = [
            {"i": i, "pattern": list(ctx.names_of(p)), "dim": d} for (i, p), d in table.dims.items()
        ]
        assert table.entries() == sorted(named, key=lambda e: (e["i"], e["pattern"]))
        expected = json.dumps({"table": table.entries()}, indent=2, sort_keys=True)
        assert _dumps({"table": table}) == expected
        with tempfile.TemporaryDirectory() as tmp:  # a hit's rows come from its entry
            cache.store(tmp, I, field, table)
            hit = cache.lookup(tmp, I, field)
        assert hit.rows == table.rows
        assert _dumps({"table": hit}) == expected

    @pytest.mark.parametrize("command", ["analyze", "cohomology"])
    def test_rows_built_once_on_a_miss_and_never_on_a_hit(
        self, capsys, cache_dir, monkeypatch, command
    ):
        built = []
        rows = functools.cached_property(lambda table: built.append(table) or ROWS(table))
        rows.__set_name__(cech.CohomologyTable, "rows")
        monkeypatch.setattr(cech.CohomologyTable, "rows", rows)
        argv = [command, "--input", fixture_path("ex43.json"), "--cache-dir", cache_dir]
        code, miss, _ = invoke(capsys, *argv)
        assert code == 0 and json.loads(miss)["cache"] == "miss" and len(built) == 1
        code, hit, _ = invoke(capsys, *argv)
        assert code == 0 and json.loads(hit)["cache"] == "hit" and len(built) == 1
        timeless = [{**json.loads(out), "cache": None, "timings": None} for out in (miss, hit)]
        assert timeless[0] == timeless[1]

    @pytest.mark.parametrize(
        "field, depth, cd", [("rationals", 3, 3), ("2", 2, 4), ("3", 3, 3)], ids=["Q", "GF(2)", "GF(3)"]
    )
    def test_analyze_hit_ranks_no_link(self, capsys, cache_dir, monkeypatch, field, depth, cd):
        argv = ["analyze", "--input", fixture_path("rp2.json"), "--field", field]
        argv += ["--cache-dir", cache_dir]
        code, miss, _ = invoke(capsys, *argv)
        assert code == 0 and json.loads(miss)["cache"] == "miss"
        real, calls = simplicial.reduced_cohomology, []
        monkeypatch.setattr(simplicial, "reduced_cohomology", lambda *a: calls.append(a) or real(*a))
        code, hit, _ = invoke(capsys, *argv)
        doc = json.loads(hit)
        assert (code, doc["cache"], calls) == (0, "hit", [])
        assert (doc["verdicts"]["depth"], doc["verdicts"]["cd"]) == (depth, cd)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_analyze_output_is_indented_json_of_itself(self, capsys, name):
        # timings are floats, and json reads each back to the same float
        with open(fixture_path(name)) as fh:
            n = len(json.load(fh)["variables"])
        code, out, _ = invoke(
            capsys, "analyze", "--input", fixture_path(name), "--no-cache", "--max-vars", str(n)
        )
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


_READERS = [
    ["analyze", "--no-cache"],
    ["cohomology", "--no-cache"],
    ["svt", "--no-cache"],
    ["graph", "--kind", "theta"],
    ["surjectivity", "--degree", "1", "--monomial", "x", "--no-cache"],
    ["mv", "--second"],  # the document itself follows
]


class TestVariableNames:
    """Names are checked to be non-empty strings before they are checked
    to be distinct, so an unhashable name reads as a rule, not a TypeError."""

    @given(value=_values, command=st.sampled_from(_READERS))
    @settings(max_examples=150, deadline=None)
    @example(value=[1], command=_READERS[0])
    @example(value={"x": 1}, command=_READERS[0])
    @example(value="", command=_READERS[0])
    def test_any_json_value_among_the_variables(self, value, command):
        doc = {"variables": ["x", value, "x"], "ideal": {"generators": [["x"]]}}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "names.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                argv = command + [path] if command[0] == "mv" else command
                code = main(argv + ["--input", path])
        assert code == 1 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        rule = "distinct" if isinstance(value, str) and value else "non-empty strings"
        assert json.loads(lines[0]) == {
            "error": "input_error", "message": f"variable names must be {rule}"
        }
