"""Every fixture's `analyze` payload, pinned by digest.

tests/data/fixture_digests.json holds the sha256 of each
`analyze --no-cache --max-vars 9` payload, less its `timings`, for all
fixtures over Q, GF(2) and GF(3).  A change to the engine that keeps
tables, verdicts, depth and hypotheses keeps every digest.  To write the
file from the code as it stands:

    PYTHONPATH=src python tests/test_fixture_digests.py > tests/data/fixture_digests.json
"""

import hashlib
import json
import os
from contextlib import redirect_stdout
from io import StringIO

import pytest

from conftest import FIXTURES, fixture_path

from svtlab.cli import main

DIGESTS = os.path.join(os.path.dirname(__file__), "data", "fixture_digests.json")
FIELDS = ("rationals", "2", "3")


def payload_digest(name: str, field: str) -> str:
    out = StringIO()
    argv = ["analyze", "--input", fixture_path(name), "--no-cache", "--max-vars", "9"]
    with redirect_stdout(out):
        assert main(argv + ["--field", field]) == 0
    payload = json.loads(out.getvalue())
    del payload["timings"]
    text = json.dumps(payload, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def fixture_names() -> list:
    return sorted(f for f in os.listdir(FIXTURES) if f.endswith(".json"))


def all_digests() -> dict:
    return {f"{name} {field}": payload_digest(name, field) for name in fixture_names() for field in FIELDS}


def _pinned() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def test_every_fixture_and_field_is_pinned():
    assert sorted(_pinned()) == sorted(f"{n} {f}" for n in fixture_names() for f in FIELDS)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", fixture_names())
def test_payload_matches_its_digest(name, field):
    assert payload_digest(name, field) == _pinned()[f"{name} {field}"]


if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=2, sort_keys=True))
