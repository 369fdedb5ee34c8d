"""Self-tests of the benchmark: short runs are correct, and the checker
catches a wrong table.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import calibrate  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from svtlab import cache, cech  # noqa: E402
from svtlab.fields import FieldSpec  # noqa: E402

WORKLOADS = tuple(workloads.SETUP)


def short_run(name, tmp_path, seed=workloads.DEFAULT_SEED, trace=False, **kw):
    """One pass over a one-pass pool, set up once."""
    return workloads.run_workload(
        name, seed, 0.0, trace, str(tmp_path),
        pool_size=workloads.PASS[name], setups=1, min_items=1, **kw,
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_short_run_is_correct_and_matches_reference(name, tmp_path):
    record = short_run(name, tmp_path)
    assert record["failures"] == []
    assert record["attempted"] == workloads.PASS[name] + workloads.WARMUP_ITEMS
    assert set(record["metrics"]) == set(workloads.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in record["metrics"].values())


def _plant_extra_top_row(prepared):
    """A well-formed but wrong entry: H^n at the full pattern, which is
    nonzero only for m-primary ideals (the generator never makes one)."""
    n, I = prepared.ideals[0]
    path = os.path.join(prepared.cache_dir, cache.cache_key(I, FieldSpec(0)) + ".json")
    with open(path) as fh:
        entry = json.load(fh)
    entry["entries"].append({"i": n, "pattern": list(I.context.names), "dim": 1})
    with open(path, "w") as fh:
        json.dump(entry, fh)


def test_checker_catches_a_planted_wrong_cache_entry(tmp_path):
    seed = 7  # not the reference seed, so the digests cannot be what catches it
    clean = short_run("warm_analyze", tmp_path / "clean", seed=seed)
    planted = short_run("warm_analyze", tmp_path / "planted", seed=seed,
                        after_setup=_plant_extra_top_row)
    assert clean["failed"] / clean["attempted"] == 0
    assert planted["failed"] / planted["attempted"] > 0


def test_traced_run_reports_every_layer_and_skips_cech_when_warm(tmp_path):
    record = short_run("warm_analyze", tmp_path, trace=True, traced_passes=1)
    m = {k: v["value"] for k, v in record["metrics"].items()}
    assert record["failed"] == 0
    assert m["cech.table.calls"] == 0
    assert m["cache.hits"] == workloads.PASS["warm_analyze"]
    assert m["simplicial.hochster.calls"] > 0
    assert 0 < m["trace.overhead"] <= 1.5
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {d["name"]: d["unit"] for d in json.load(fh)["per_layer"]}
    assert declared == {k: v["unit"] for k, v in record["metrics"].items()}


def test_tracer_puts_every_original_back(tmp_path):
    before = (cech.local_cohomology_table, cech.GradedComplex.differential, cache.lookup)
    short_run("sweep", tmp_path, trace=True, traced_passes=1)
    assert (cech.local_cohomology_table, cech.GradedComplex.differential, cache.lookup) == before


def test_pools_depend_on_the_seed_only():
    assert gen.cold_pool(3, 24) == gen.cold_pool(3, 24)
    assert gen.cold_pool(3, 24) != gen.cold_pool(4, 24)
    shapes = [(n, len(g), f) for n, g, f in gen.cold_pool(3, 24)]
    assert shapes == [(n, len(g), f) for n, g, f in gen.cold_pool(4, 24)]
    for (_, a, _), (_, b, _) in zip(gen.cold_pool(3, 24), gen.cold_pool(4, 24)):
        assert sorted(map(gen.popcount, a)) == sorted(map(gen.popcount, b))
    for n, gens in gen.sweep_pool(5, 36, "sweep"):
        assert gen.dim_quotient(n, gens) >= 1
        assert all(2 <= gen.popcount(g) <= n - 1 for g in gens)


def test_calibration_samples_once_per_stretch_of_item_time():
    assert calibrate.kernel() == calibrate.EXPECTED_RANK
    meter = calibrate.Meter()
    assert meter.speed_since(0) > 0 and len(meter.samples) == 1
    meter.after_item(calibrate.EVERY_S / 2)
    assert len(meter.samples) == 1
    meter.after_item(calibrate.EVERY_S / 2)
    assert len(meter.samples) == 2


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
