"""Acceptance gate: ten criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
check uses exact integer comparisons (no tolerances).
"""

import json
import random
import time

import pytest

from conftest import context_of, fixture_path, seeded_random_ideals
from oracles import brute_force_facets, is_artinian, is_divisible, maximal_ideal, prime_ideal

from svtlab.analysis import (
    grade_check,
    hlv_check,
    mayer_vietoris_check,
    random_svt_sweep,
    svt_check,
)
from svtlab.cech import (
    EngineLimits,
    is_multiplication_surjective,
    is_vanishing,
    local_cohomology_table,
    q_invariant,
)
from svtlab.cli import main, parse_ideal_document
from svtlab.fields import FieldSpec
from svtlab.graphs import is_connected, punctured_spectrum_connected, theta_graph
from svtlab.ideals import (
    SquareFreeIdeal,
    VariableContext,
    dim_quotient,
    intersect,
    minimal_primes,
    sum_ideals,
)
from svtlab.simplicial import depth_quotient, finite_length, hochster_table

Q = FieldSpec(0)

ALL_FIXTURES = [
    "ex43.json",
    "ex45_reduced.json",
    "ex46.json",
    "ex47.json",
    "ex313.json",
    "two_planes.json",
    "max_ideal_n2.json",
    "ci_two_cubics.json",  # t = 9 > 2r = 4: the pattern side of the table
    "triangle_and_edge.json",  # m = n - r + 1: depth from its two bounds
]


def load_fixture(name):
    with open(fixture_path(name)) as fh:
        return parse_ideal_document(json.load(fh))


def report(number, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d}: {verdict}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


def test_criterion_01_two_block_fixture_full_story():
    start = time.monotonic()
    I = load_fixture("ex43.json")
    vertices, edges = theta_graph(I)
    primes = minimal_primes(I)
    table = local_cohomology_table(I, Q)
    checks = [
        len(vertices) == 2,
        edges == ((0, 1),),
        is_connected(vertices, edges),
        [I.context.prime_label(p) for p in primes] == ["P{x1,x2,x3}", "P{y1,y2,y3}"],
        all(I.context.n - p.bit_count() == 5 for p in primes),
        all(finite_length(prime_ideal(I.context, p), 2, Q) for p in primes),
        all(
            sum(d for (i, _), d in hochster_table(prime_ideal(I.context, p), Q).items() if i == 2)
            == 0
            for p in primes
        ),
        table.is_row_zero(7),
    ]
    elapsed = time.monotonic() - start
    report(1, all(checks) and elapsed < 60.0, f"{elapsed:.2f}s < 60s")


def test_criterion_02_disconnected_blocks_match_injective_hull():
    I = load_fixture("ex46.json")
    vertices, edges = theta_graph(I)
    table = local_cohomology_table(I, Q)
    m = maximal_ideal(I.context)
    m_table = local_cohomology_table(m, Q)
    full = I.context.full_mask
    checks = [
        not is_connected(vertices, edges),
        not table.is_row_zero(5),
        table.row(5) == {full: 1},
        table.row(5) == m_table.row(6),
    ]
    report(2, all(checks))


def test_criterion_03_three_plane_fixture():
    I = load_fixture("ex47.json")
    primes = minimal_primes(I)
    table = local_cohomology_table(I, Q)
    checks = [
        [I.context.prime_label(p) for p in primes]
        == ["P{x1,x2}", "P{x3,x4}", "P{x5,x6}"],
        is_connected(*theta_graph(I)),
        table.is_row_zero(5),
        depth_quotient(I, Q) >= 2,
    ]
    report(3, all(checks))


def test_criterion_04_block_family_reduction_and_cap():
    too_big = None
    try:
        local_cohomology_table(load_fixture("ex45_n3.json"), Q)
    except Exception as e:
        too_big = type(e).__name__
    I = load_fixture("ex45_reduced.json")
    table = local_cohomology_table(I, Q)
    checks = [
        too_big == "CapExceededError",
        is_connected(*theta_graph(I)),
        table.is_row_zero(I.context.n - 1),
    ]
    report(4, all(checks), "9-variable instance rejected; (3,3) reduction verified")


def test_criterion_05_surjectivity_fixtures():
    ctx3 = context_of(3)
    m_table = local_cohomology_table(maximal_ideal(ctx3), Q)
    m_checks = [
        is_multiplication_surjective(m_table, 3, 1 << j)
        for j in range(3)
    ] + [is_divisible(m_table, 3)]

    ctx2 = VariableContext(("x", "y"))
    y_table = local_cohomology_table(SquareFreeIdeal(ctx2, [0b10]), Q)  # (y)
    x = ctx2.mask_of(["x"])
    y = ctx2.mask_of(["y"])
    split_checks = [
        not is_multiplication_surjective(y_table, 1, x),
        is_multiplication_surjective(y_table, 1, y),
        not is_divisible(y_table, 1),
    ]
    report(5, all(m_checks + split_checks))


def test_criterion_06_sentinels_on_fixtures_and_random_instances():
    failures = 0
    for name in ALL_FIXTURES:
        table = local_cohomology_table(load_fixture(name), Q)
        if not (hlv_check(table) and grade_check(table)):
            failures += 1
    pair_pool = []
    for n in (3, 4, 5):
        count = 34 if n == 3 else 33
        for I in seeded_random_ideals(n, count, seed=1000 + n):
            table = local_cohomology_table(I, Q)
            if not (hlv_check(table) and grade_check(table)):
                failures += 1
            pair_pool.append(I)
    rng = random.Random(99)
    mv_done = 0
    while mv_done < 40:
        I, J = rng.sample(pair_pool, 2)
        if I.context != J.context:
            continue
        S, C = sum_ideals(I, J), intersect(I, J)
        if S.is_unit or C.is_zero:
            continue
        if not mayer_vietoris_check(I, J, Q):
            failures += 1
        mv_done += 1
    report(6, failures == 0, "100 random instances + fixtures + 40 MV pairs, 0 failures")


def test_criterion_07_vanishing_equivalence_sweep():
    start = time.monotonic()
    disagreements = 0
    trials = 0
    for n, count in ((3, 66), (4, 67), (5, 67)):
        summary = random_svt_sweep(n=n, generator_bound=4, trials=count, seed=7_000 + n)
        disagreements += summary["failures"]
        trials += summary["trials"]
    elapsed = time.monotonic() - start
    report(
        7,
        disagreements == 0 and trials == 200 and elapsed < 600.0,
        f"200 seeded trials, 0 disagreements, {elapsed:.1f}s < 600s",
    )


def test_criterion_08_q_invariant_of_coordinate_primes():
    checks = []
    for n in (4, 5, 6):
        ctx = context_of(n)
        # a coordinate prime with a 3-dimensional quotient
        p = SquareFreeIdeal.intersection_of_primes(
            ctx, [[f"x{i + 1}" for i in range(n - 3)]]
        )
        checks.append(q_invariant(local_cohomology_table(p, Q)) == n - 3)
    ctx = context_of(4)
    m = maximal_ideal(ctx)
    table = local_cohomology_table(m, Q)
    checks.append(q_invariant(table) is None)
    checks.append(all(is_artinian(table, i) for i in range(ctx.n + 1)))
    report(8, all(checks))


def test_criterion_09_dual_algorithm_consistency():
    mismatches = 0
    rng = random.Random(424242)
    for _ in range(500):
        n = rng.randint(3, 8)
        ctx = context_of(n)
        gens = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 5))]
        I = SquareFreeIdeal(ctx, gens)
        if I.is_zero or I.is_unit:
            continue  # both sides undefined for degenerate draws
        full = ctx.full_mask
        via_transversals = sorted(minimal_primes(I))
        via_facets = sorted(full & ~F for F in brute_force_facets(I))
        if via_transversals != via_facets:
            mismatches += 1
    report(9, mismatches == 0, "500 random ideals, n <= 8, 0 mismatches")


def test_criterion_10_determinism_and_cache_equality(tmp_path, capsys):
    ok = True
    for name in ALL_FIXTURES:
        out_a = tmp_path / (name + ".a")
        out_b = tmp_path / (name + ".b")
        out_c = tmp_path / (name + ".c")
        cache_dir = str(tmp_path / "cache")
        base = ["analyze", "--input", fixture_path(name)]
        # two cold runs, then a cache-hit run
        assert main(base + ["--no-cache", "--output", str(out_a)]) == 0
        assert main(base + ["--no-cache", "--output", str(out_b)]) == 0
        assert main(base + ["--cache-dir", cache_dir, "--output", str(out_c)]) == 0
        assert main(base + ["--cache-dir", cache_dir, "--output", str(out_c)]) == 0
        docs = [json.loads(p.read_text()) for p in (out_a, out_b, out_c)]
        tables = [json.dumps(d["table"], sort_keys=True) for d in docs]
        if not (tables[0] == tables[1] == tables[2]):
            ok = False
        if json.loads(out_c.read_text())["cache"] != "hit":
            ok = False
        # timings and cache state legitimately differ; everything else must not
        for d in docs:
            d.pop("timings", None)
            d.pop("cache", None)
        blobs = {json.dumps(d, sort_keys=True) for d in docs}
        if len(blobs) != 1:
            ok = False
    capsys.readouterr()
    report(10, ok, "byte-identical tables across reruns and cache hits")
