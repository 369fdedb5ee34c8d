import json
import os

import pytest

from conftest import context_of, fixture_path
from oracles import maximal_ideal

import svtlab
from svtlab import cache
from svtlab.cli import main, parse_ideal_document
from svtlab.cech import local_cohomology_table
from svtlab.fields import FieldSpec
from svtlab.ideals import SquareFreeIdeal

Q = FieldSpec(0)


def make_ideal():
    ctx = context_of(4)
    return SquareFreeIdeal.intersection_of_primes(ctx, [["x1", "x2"], ["x3", "x4"]])


def test_roundtrip(tmp_path):
    d = str(tmp_path)
    I = make_ideal()
    assert cache.lookup(d, I, Q) is None
    table = local_cohomology_table(I, Q)
    cache.store(d, I, Q, table)
    hit = cache.lookup(d, I, Q)
    assert hit is not None
    assert hit.dims == table.dims
    assert hit.text == table.text


@pytest.mark.parametrize("name", ["two_planes.json", "k8_edges.json"])
def test_stored_bytes_equal_json_dump(tmp_path, capsys, name):
    # the entry's rows are the text of "table" in the cohomology payload
    d = str(tmp_path / "cache")
    assert main(["cohomology", "--input", fixture_path(name), "--cache-dir", d]) == 0
    payload = capsys.readouterr().out
    head, key, rest = payload.partition('\n  "table": ')
    assert key and rest.endswith("\n}\n")  # "table" is the payload's last key
    text = rest[: -len("\n}\n")]
    assert json.loads(text) == json.loads(payload)["table"]
    with open(fixture_path(name)) as fh:
        I = parse_ideal_document(json.load(fh))
    with open(os.path.join(d, cache.cache_key(I, Q) + ".json"), "rb") as fh:
        stored = fh.read()
    assert stored == ('{"engine": "%s", "entries": %s}' % (cache.ENGINE_VERSION, text)).encode()


def test_key_depends_on_field_and_ideal(tmp_path):
    I = make_ideal()
    ctx = I.context
    J = maximal_ideal(ctx)
    k = cache.cache_key(I, Q)
    assert k != cache.cache_key(I, FieldSpec(2))
    assert k != cache.cache_key(J, Q)
    assert k == cache.cache_key(I, FieldSpec(0))


def test_key_ignores_generator_order(tmp_path):
    ctx = context_of(4)
    a = SquareFreeIdeal(ctx, [0b0011, 0b1100])
    b = SquareFreeIdeal(ctx, [0b1100, 0b0011])
    assert cache.cache_key(a, Q) == cache.cache_key(b, Q)


def test_corrupt_entry_evicted(tmp_path):
    d = str(tmp_path)
    I = make_ideal()
    cache.store(d, I, Q, local_cohomology_table(I, Q))
    path = os.path.join(d, cache.cache_key(I, Q) + ".json")
    with open(path, "w") as fh:
        fh.write("{broken")
    assert cache.lookup(d, I, Q) is None
    assert not os.path.exists(path)


def test_version_mismatch_misses(tmp_path):
    d = str(tmp_path)
    I = make_ideal()
    cache.store(d, I, Q, local_cohomology_table(I, Q))
    path = os.path.join(d, cache.cache_key(I, Q) + ".json")
    doc = json.load(open(path))
    doc["engine"] = "0.0.0-other"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert cache.lookup(d, I, Q) is None


def test_old_engine_stamp_misses(tmp_path):
    d = str(tmp_path)
    I = make_ideal()
    cache.store(d, I, Q, local_cohomology_table(I, Q))
    path = os.path.join(d, cache.cache_key(I, Q) + ".json")
    doc = json.load(open(path))
    doc["engine"] = svtlab.__version__  # what the Cech-complex engine stamped
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert cache.lookup(d, I, Q) is None


class RawText(str):
    """A cache entry's text, planted as it stands rather than JSON-encoded."""


def plant(d, I, doc):
    """Write `doc` where the cache entry of (I, Q) lives; return its path."""
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, cache.cache_key(I, Q) + ".json")
    with open(path, "w") as fh:
        if isinstance(doc, RawText):
            fh.write(doc)
        else:
            json.dump(doc, fh)
    return path


def planted_entries(d, I, *entries):
    return plant(d, I, {"engine": svtlab.ENGINE_VERSION, "entries": list(entries)})


@pytest.mark.parametrize("doc", [None, [], 3, "entries"])
def test_non_object_entry_evicted(tmp_path, doc):
    d = str(tmp_path)
    I = make_ideal()
    path = plant(d, I, doc)
    assert cache.lookup(d, I, Q) is None
    assert not os.path.exists(path)


@pytest.mark.parametrize("i", [-1, 5, 9])
def test_degree_outside_range_evicted(tmp_path, i):
    d = str(tmp_path)
    I = make_ideal()  # n = 4
    path = planted_entries(d, I, {"i": i, "pattern": ["x1", "x2"], "dim": 1})
    assert cache.lookup(d, I, Q) is None
    assert not os.path.exists(path)


@pytest.mark.parametrize(
    "dim",
    [0, -1, True, 1.0, "1", None],
    ids=["zero", "negative", "true", "float", "string", "null"],
)
def test_dimension_not_a_positive_int_evicted(tmp_path, dim):
    # a zero served on a hit would read as a nonzero entry of its row
    d = str(tmp_path)
    I = make_ideal()
    path = planted_entries(d, I, {"i": 2, "pattern": ["x1", "x2"], "dim": dim})
    assert cache.lookup(d, I, Q) is None
    assert not os.path.exists(path)


def test_empty_pattern_evicted(tmp_path):
    d = str(tmp_path)
    I = make_ideal()
    path = planted_entries(d, I, {"i": 2, "pattern": [], "dim": 1})
    assert cache.lookup(d, I, Q) is None
    assert not os.path.exists(path)


def test_pattern_outside_support_union_evicted(tmp_path):
    d = str(tmp_path)
    I = SquareFreeIdeal(context_of(3), [0b011])  # (x1*x2)
    path = planted_entries(d, I, {"i": 1, "pattern": ["x1", "x3"], "dim": 1})
    assert cache.lookup(d, I, Q) is None
    assert not os.path.exists(path)


@pytest.mark.parametrize(
    "name", ["x9", ["x2"], {"x2": 1}, 2], ids=["unknown", "list", "object", "number"]
)
def test_pattern_with_an_unknown_or_unhashable_name_evicted(tmp_path, name):
    d = str(tmp_path)
    I = make_ideal()
    path = planted_entries(d, I, {"i": 2, "pattern": ["x1", name], "dim": 1})
    assert cache.lookup(d, I, Q) is None
    assert not os.path.exists(path)


def test_analyze_counts_an_unhashable_name_as_a_miss(tmp_path, capsys):
    d = str(tmp_path / "cache")
    src = fixture_path("two_planes.json")
    with open(src) as fh:
        I = parse_ideal_document(json.load(fh))
    planted_entries(d, I, {"i": 2, "pattern": [["x1"], "x2"], "dim": 1})
    assert main(["analyze", "--input", src, "--cache-dir", d]) == 0
    assert json.loads(capsys.readouterr().out)["cache"] == "miss"
    assert cache.lookup(d, I, Q) is not None


@pytest.mark.parametrize(
    "entries",
    [
        [(2, ["x3", "x4"]), (2, ["x1", "x2"]), (3, ["x1", "x2", "x3", "x4"])],
        [(2, ["x2", "x1"]), (2, ["x3", "x4"]), (3, ["x1", "x2", "x3", "x4"])],
        [(2, ["x1", "x2"]), (2, ["x3", "x4"]), (3, ["x4", "x1", "x2", "x3"])],
    ],
    ids=["rows out of order", "names out of order", "last names out of order"],
)
def test_entry_out_of_table_order_is_served_in_it(tmp_path, entries):
    # a planted entry need not list its rows as store does: the table orders them
    d = str(tmp_path)
    I = make_ideal()
    planted_entries(d, I, *[{"i": i, "pattern": p, "dim": 1} for i, p in entries])
    hit = cache.lookup(d, I, Q)
    assert hit.text == local_cohomology_table(I, Q).text


@pytest.mark.parametrize("field", ["rationals", "2", "3"], ids=["Q", "GF(2)", "GF(3)"])
def test_entry_in_the_compact_form_still_hits(tmp_path, capsys, field):
    # entries were once written as json.dumps(..., sort_keys=True) of dicts;
    # they hold the same entries, so they still hit and serve the same payload
    src = fixture_path("rp2.json")
    with open(src) as fh:
        I = parse_ideal_document(json.load(fh))
    spec = FieldSpec.parse(field)
    names_of = I.context.names_of
    dicts = sorted(
        [{"dim": d, "i": i, "pattern": list(names_of(p))}
         for (i, p), d in local_cohomology_table(I, spec).dims.items()],
        key=lambda e: (e["i"], e["pattern"]),
    )
    old = tmp_path / "old"
    old.mkdir()
    with open(old / (cache.cache_key(I, spec) + ".json"), "w") as fh:
        fh.write(json.dumps({"engine": "3", "entries": dicts}, sort_keys=True))

    def analyze(*flags):
        assert main(["analyze", "--input", src, "--field", field, *flags]) == 0
        return json.loads(capsys.readouterr().out)

    hit = analyze("--cache-dir", str(old))
    miss = analyze("--cache-dir", str(tmp_path / "fresh"))
    off = analyze("--no-cache")
    assert (hit["cache"], miss["cache"], off["cache"]) == ("hit", "miss", "off")
    hit, miss, off = [{**doc, "cache": None, "timings": None} for doc in (hit, miss, off)]
    assert hit == miss == off


def test_well_formed_planted_entry_is_served(tmp_path):
    # the checks bound what an entry may say, not whether it is true
    d = str(tmp_path)
    I = SquareFreeIdeal(context_of(3), [0b011])
    planted_entries(d, I, {"i": 1, "pattern": ["x1", "x2"], "dim": 2})
    assert cache.lookup(d, I, Q).dims == {(1, 0b011): 2}


H9 = {"engine": svtlab.ENGINE_VERSION, "entries": [{"i": 9, "pattern": ["x1"], "dim": 1}]}
# a proper nonzero ideal has H^{ht I}_I(S) nonzero, so no table is empty
NO_ENTRIES = {"engine": svtlab.ENGINE_VERSION, "entries": []}
# valid JSON, but nested past what json.load reads without a RecursionError
NESTED = RawText("[" * 100_000 + "]" * 100_000)


@pytest.mark.parametrize("doc", [None, [], H9, NO_ENTRIES, pytest.param(NESTED, id="nested")])
def test_analyze_recomputes_over_a_malformed_entry(tmp_path, capsys, doc):
    d = str(tmp_path / "cache")
    src = fixture_path("two_planes.json")
    with open(src) as fh:
        I = parse_ideal_document(json.load(fh))
    plant(d, I, doc)
    code = main(["analyze", "--input", src, "--cache-dir", d])
    out = capsys.readouterr()
    assert code == 0
    assert out.err == ""
    assert json.loads(out.out)["cache"] == "miss"
    assert cache.lookup(d, I, Q) is not None  # the recomputed table was stored


def test_clear_and_stats(tmp_path):
    d = str(tmp_path)
    I = make_ideal()
    assert cache.stats(d)["entries"] == 0
    cache.store(d, I, Q, local_cohomology_table(I, Q))
    assert cache.stats(d)["entries"] == 1
    assert cache.clear(d) == 1
    assert cache.stats(d)["entries"] == 0


def vanished_entry_listing(monkeypatch):
    """os.listdir that also names an entry another process has just removed."""
    listdir = os.listdir
    monkeypatch.setattr(os, "listdir", lambda path: listdir(path) + ["0" * 64 + ".json"])


def test_clear_skips_an_entry_removed_concurrently(tmp_path, monkeypatch):
    d = str(tmp_path)
    I = make_ideal()
    cache.store(d, I, Q, local_cohomology_table(I, Q))
    vanished_entry_listing(monkeypatch)
    assert cache.clear(d) == 1


def test_stats_skip_an_entry_removed_concurrently(tmp_path, monkeypatch):
    d = str(tmp_path)
    I = make_ideal()
    cache.store(d, I, Q, local_cohomology_table(I, Q))
    size = os.path.getsize(os.path.join(d, cache.cache_key(I, Q) + ".json"))
    vanished_entry_listing(monkeypatch)
    assert cache.stats(d) == {"dir": d, "entries": 1, "bytes": size}


def test_env_var_controls_default(monkeypatch, tmp_path):
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "envcache"))
    assert cache.default_cache_dir() == str(tmp_path / "envcache")
