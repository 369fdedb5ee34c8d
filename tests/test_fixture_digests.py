"""Every fixture's `analyze` payload and comparison graphs, pinned by digest.

tests/data/fixture_digests.json holds the sha256 of each
`analyze --no-cache --max-vars 9` payload, less its `timings`, for all
fixtures over Q, GF(2) and GF(3), of each `graph --max-vars 9` JSON
followed by its `--dot` text, for both kinds, and of the stdout of a few
seeded `sweep` runs.  A change to the engine that keeps tables, verdicts,
depth, hypotheses, graphs and sweeps keeps every digest.
To write the file from the code as it stands:

    PYTHONPATH=src python tests/test_fixture_digests.py > tests/data/fixture_digests.json
"""

import hashlib
import json
import os
import tempfile
from contextlib import redirect_stdout
from io import StringIO

import pytest

from conftest import FIXTURES, fixture_path

from svtlab.cli import main

DIGESTS = os.path.join(os.path.dirname(__file__), "data", "fixture_digests.json")
FIELDS = ("rationals", "2", "3")
KINDS = ("theta", "gamma")
SWEEPS = (
    "--vars 3 --trials 20 --seed 4",
    "--vars 4 --trials 20 --seed 5",
    "--vars 7 --trials 200 --seed 6 --field 2",
    "--vars 6 --trials 300 --seed 9 --generator-bound 6 --field 3",
)


def payload_digest(name: str, field: str) -> str:
    out = StringIO()
    argv = ["analyze", "--input", fixture_path(name), "--no-cache", "--max-vars", "9"]
    with redirect_stdout(out):
        assert main(argv + ["--field", field]) == 0
    payload = json.loads(out.getvalue())
    del payload["timings"]
    text = json.dumps(payload, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def graph_digest(name: str, kind: str) -> str:
    out = StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        dot = os.path.join(tmp, "graph.dot")
        argv = ["graph", "--kind", kind, "--input", fixture_path(name), "--max-vars", "9"]
        with redirect_stdout(out):
            assert main(argv + ["--dot", dot]) == 0
        with open(dot) as fh:
            text = out.getvalue() + fh.read()
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_digest(args: str) -> str:
    out = StringIO()
    with redirect_stdout(out):
        assert main(["sweep"] + args.split()) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def fixture_names() -> list:
    return sorted(f for f in os.listdir(FIXTURES) if f.endswith(".json"))


def all_digests() -> dict:
    digests = {f"{name} {field}": payload_digest(name, field) for name in fixture_names() for field in FIELDS}
    for name in fixture_names():
        for kind in KINDS:
            digests[f"{name} graph {kind}"] = graph_digest(name, kind)
    for args in SWEEPS:
        digests[f"sweep {args}"] = sweep_digest(args)
    return digests


def _pinned() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def test_every_fixture_and_field_is_pinned():
    payloads = [f"{n} {f}" for n in fixture_names() for f in FIELDS]
    graphs = [f"{n} graph {k}" for n in fixture_names() for k in KINDS]
    sweeps = [f"sweep {a}" for a in SWEEPS]
    assert sorted(_pinned()) == sorted(payloads + graphs + sweeps)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", fixture_names())
def test_payload_matches_its_digest(name, field):
    assert payload_digest(name, field) == _pinned()[f"{name} {field}"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", fixture_names())
def test_graph_matches_its_digest(name, kind):
    assert graph_digest(name, kind) == _pinned()[f"{name} graph {kind}"]


@pytest.mark.parametrize("args", SWEEPS)
def test_sweep_matches_its_digest(args):
    assert sweep_digest(args) == _pinned()[f"sweep {args}"]


if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=2, sort_keys=True))
