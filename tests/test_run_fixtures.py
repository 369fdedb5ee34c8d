"""scripts/run_fixtures.py: its exit code reports sentinel and agreement failures."""

import importlib.util
import json
import os

import pytest

from conftest import fixture_path

from svtlab.cli import parse_ideal_document

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "run_fixtures.py")


def load_script():
    spec = importlib.util.spec_from_file_location("run_fixtures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_main_returns_0_over_q(capsys):
    assert load_script().main([]) == 0
    out = capsys.readouterr().out
    assert "max_ideal_n2.json" in out and "agreement=False" in out  # m-primary: exempt
    assert "FAILED" not in out
    assert "SKIPPED" not in out  # ex45_n3 (9 variables) is checked, not skipped
    analyzed = out.splitlines()
    assert analyzed and all(line.endswith("duality=True") for line in analyzed)
    [ex45_n3] = [line for line in analyzed if line.startswith("ex45_n3.json")]
    assert ex45_n3.endswith("duality=True")


@pytest.mark.parametrize("field, depth_cd", [("0", "depth=3 cd=3"), ("2", "depth=2 cd=4")])
def test_projective_plane_depends_on_the_field(capsys, field, depth_cd):
    # 2-torsion in H~^1(RP^2) moves depth and cd over GF(2); both sides agree
    assert load_script().main(["--field", field]) == 0
    [rp2] = [line for line in capsys.readouterr().out.splitlines() if line.startswith("rp2.json")]
    assert depth_cd in rp2
    assert "agreement=True" in rp2 and rp2.endswith("duality=True")


def test_disagreement_on_a_positive_dimensional_fixture_returns_1(monkeypatch, capsys):
    script = load_script()
    with open(fixture_path("two_planes.json")) as fh:
        two_planes = parse_ideal_document(json.load(fh))
    real = script.svt_check

    def flipped(table):
        report = real(table)
        if table.ideal == two_planes:
            v = report["verdicts"]
            v["vanishing_top_minus_one"] = not v["vanishing_top_minus_one"]
            v["agreement"] = v["vanishing_top_minus_one"] == (
                v["connected"] and v["dim_quotient"] >= 2
            )
            assert v["dim_quotient"] >= 1 and not v["agreement"]
        return report

    monkeypatch.setattr(script, "svt_check", flipped)
    assert script.main([]) == 1
    assert "FAILED: two_planes.json" in capsys.readouterr().out


def test_duality_mismatch_returns_1(monkeypatch, capsys):
    script = load_script()
    with open(fixture_path("ex47.json")) as fh:
        ex47 = parse_ideal_document(json.load(fh))
    real = script.hochster_table

    def shifted(ideal, field):
        table = real(ideal, field)
        if ideal == ex47:
            key = min(table)
            table[key] += 1
        return table

    monkeypatch.setattr(script, "hochster_table", shifted)
    assert script.main([]) == 1
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines() if "duality=False" in line] == [
        "ex47.json"
    ]
    assert "FAILED: ex47.json" in out


def test_depth_off_the_lowest_hochster_row_returns_1(monkeypatch, capsys):
    script = load_script()
    with open(fixture_path("rp2.json")) as fh:
        rp2 = parse_ideal_document(json.load(fh))
    real = script.svt_check

    def shifted(table):
        report = real(table)
        if table.ideal == rp2:
            report["verdicts"]["depth"] += 1
        return report

    monkeypatch.setattr(script, "svt_check", shifted)
    assert script.main(["--field", "2"]) == 1
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines() if "hochster_depth=False" in line] == [
        "rp2.json"
    ]
    assert "FAILED: rp2.json" in out
