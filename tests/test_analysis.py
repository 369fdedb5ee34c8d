import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import context_of, fixture_path, proper_ideals
from oracles import hochster_table_all_faces, prime_ideal
from test_cech import FIELDS, projective_plane_ideal

from svtlab import analysis, cech, graphs, simplicial
from svtlab.cech import EngineLimits, local_cohomology_table
from svtlab.cli import _dumps, parse_ideal_document
from svtlab.fields import FieldSpec
from svtlab.ideals import (
    CapExceededError,
    CoordinatePrime,
    SquareFreeIdeal,
    VariableContext,
    dim_quotient,
    minimal_primes,
)
from svtlab.simplicial import finite_length
from svtlab.analysis import (
    grade_check,
    hlv_check,
    mayer_vietoris_check,
    random_square_free_ideal,
    random_svt_sweep,
    svt_check,
)

Q = FieldSpec(0)


def primes(ctx, *lists):
    return SquareFreeIdeal.intersection_of_primes(ctx, list(lists))


def _coned_spheres_wedge():
    """Two hollow tetrahedra on x1x2x3x4 and x1x9x10x11, each triangle
    coned by a vertex of its own, so K is two 2-spheres wedged at x1: n 15,
    r 71, m 4, depth 2."""
    facets = []
    for tetrahedron, apexes in (((0, 1, 2, 3), (4, 5, 6, 7)), ((0, 8, 9, 10), (11, 12, 13, 14))):
        for triangle, apex in zip(combinations(tetrahedron, 3), apexes):
            facets.append({*triangle, apex})
    return primes(
        context_of(15), *([f"x{v + 1}" for v in range(15) if v not in f] for f in facets)
    )


class TestSvtCheck:
    def test_two_blocks_eight_vars(self):
        ctx = VariableContext(("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"))
        I = primes(ctx, ["x1", "x2", "x3"], ["y1", "y2", "y3"])
        report = svt_check(local_cohomology_table(I, Q))
        assert report.connected
        assert report.vanishing_top_minus_one
        assert report.agreement
        assert report.dim_quotient == 5 and report.height == 3
        assert report.cd == 5 and report.depth == 3 and report.q == 5
        # both minimal primes have 5-dimensional quotients: hypotheses hold
        assert all(h.holds for h in report.hypotheses if h.name.startswith("dim"))

    def test_disconnected_blocks(self):
        ctx = context_of(6)
        I = primes(ctx, ["x1", "x2", "x3"], ["x4", "x5", "x6"])
        report = svt_check(local_cohomology_table(I, Q))
        assert not report.connected
        assert not report.vanishing_top_minus_one
        assert report.agreement

    def test_three_planes(self):
        ctx = context_of(6)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"], ["x5", "x6"])
        report = svt_check(local_cohomology_table(I, Q))
        assert report.connected and report.vanishing_top_minus_one
        assert report.agreement
        assert report.depth == 2

    def test_report_json_round_trips(self):
        ctx = context_of(4)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"])
        report = svt_check(local_cohomology_table(I, Q))
        again = json.loads(_dumps(report.payload()))
        assert again["verdicts"]["agreement"] is True
        assert again["verdicts"]["connected"] is False
        assert again["field"] == "rationals"
        assert {e["i"] for e in again["table"]} == {2, 3}

    def test_payload_holds_the_table_itself(self):
        table = local_cohomology_table(primes(context_of(4), ["x1", "x2"], ["x3", "x4"]), Q)
        report = svt_check(table)
        assert report.payload()["table"] is table

    def test_each_prime_labelled_once(self, monkeypatch):
        table = local_cohomology_table(primes(context_of(5), ["x1", "x2"], ["x3", "x4", "x5"]), Q)
        real, labelled = CoordinatePrime.label, []
        monkeypatch.setattr(CoordinatePrime, "label", lambda p: labelled.append(p) or real(p))
        names = [h.name for h in svt_check(table).hypotheses]
        assert len(labelled) == 2
        assert names == [
            "dim(S/P{x1,x2}) >= 3", "finite length of H^2_m(S/P{x1,x2})",
            "dim(S/P{x3,x4,x5}) >= 3", "finite length of H^2_m(S/P{x3,x4,x5})",
        ]

    def test_vacuous_flag_on_dim_two_primes(self):
        ctx = context_of(4)
        I = primes(ctx, ["x1", "x2"])  # dim(S/q) = 2: finite-length check is live
        report = svt_check(local_cohomology_table(I, Q))
        fl = [h for h in report.hypotheses if "finite" in h.name.lower()]
        assert fl and not fl[0].vacuous

        J = primes(ctx, ["x1"])  # dim(S/q) = 3: the check is vacuous
        report = svt_check(local_cohomology_table(J, Q))
        fl = [h for h in report.hypotheses if "finite" in h.name.lower()]
        assert fl and fl[0].vacuous

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    @pytest.mark.parametrize(
        "I, limits, depths",
        [
            # depth 3, 2 and 3: H~^1 of RP^2 is 2-torsion
            (projective_plane_ideal(), EngineLimits(), (3, 2, 3)),
            # m 4 > n - r + 1: the wedge point's disconnected link gives row 2
            (_coned_spheres_wedge(), EngineLimits(max_vars=15), (2, 2, 2)),
        ],
        ids=["rp2", "coned_spheres_wedge"],
    )
    def test_depth_is_read_off_the_table(self, monkeypatch, I, limits, depths, field):
        # cd(I) = pd(S/I) and depth = n - pd, so no link is ranked again
        table = local_cohomology_table(I, field, limits)
        calls = []
        for name in ("reduced_cohomology", "hochster_table", "depth_quotient"):
            real = getattr(simplicial, name)
            monkeypatch.setattr(
                simplicial, name, lambda *a, name=name, real=real: calls.append(name) or real(*a)
            )
        assert svt_check(table).depth == depths[FIELDS.index(field)]
        assert calls == []

    @given(proper_ideals())
    @settings(max_examples=20, deadline=None)
    def test_agreement_is_always_true(self, I):
        if dim_quotient(I) < 1:
            return
        assert svt_check(local_cohomology_table(I, Q)).agreement


class TestSentinels:
    def test_hlv_examples(self):
        ctx = context_of(4)
        assert hlv_check(local_cohomology_table(SquareFreeIdeal.maximal(ctx), Q))
        assert hlv_check(local_cohomology_table(primes(ctx, ["x1", "x2"], ["x3", "x4"]), Q))

    def test_grade_examples(self):
        ctx = context_of(4)
        assert grade_check(local_cohomology_table(primes(ctx, ["x1", "x2"], ["x3", "x4"]), Q))
        assert grade_check(local_cohomology_table(SquareFreeIdeal.from_supports(ctx, [0b1111]), Q))

    @given(proper_ideals())
    @settings(max_examples=25, deadline=None)
    def test_sentinels_hold_everywhere(self, I):
        table = local_cohomology_table(I, Q)
        assert hlv_check(table)
        assert grade_check(table)


class TestMayerVietoris:
    def test_two_blocks(self):
        ctx = VariableContext(("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"))
        q1 = primes(ctx, ["x1", "x2", "x3"])
        q2 = primes(ctx, ["y1", "y2", "y3"])
        assert mayer_vietoris_check(q1, q2, Q)

    @pytest.mark.parametrize("lossy_call", range(4))
    def test_fails_when_one_table_loses_an_entry(self, monkeypatch, lossy_call):
        # the tables are made for I, J, I + J and I cap J, in that order
        ctx = VariableContext(("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"))
        q1 = primes(ctx, ["x1", "x2", "x3"])
        q2 = primes(ctx, ["y1", "y2", "y3"])
        real, calls = cech.local_cohomology_table, []

        def lossy(*args):
            table = real(*args)
            if len(calls) == lossy_call:
                del table.dims[min(table.dims)]
            calls.append(table)
            return table

        monkeypatch.setattr(cech, "local_cohomology_table", lossy)
        assert not mayer_vietoris_check(q1, q2, Q)
        assert len(calls) == 4

    def test_rejects_unit_input(self):
        ctx = context_of(2)
        unit = SquareFreeIdeal.from_supports(ctx, [0])
        with pytest.raises(ValueError):
            mayer_vietoris_check(primes(ctx, ["x1"]), unit, Q)

    def test_all_fixture_pairs_in_a_common_ring(self):
        import json as _json

        from conftest import fixture_path
        from svtlab.cli import parse_ideal_document
        from svtlab.ideals import intersect, sum_ideals

        names = [
            "ex43.json", "ex45_reduced.json", "ex46.json", "ex47.json",
            "ex313.json", "two_planes.json", "max_ideal_n2.json", "k8_edges.json",
        ]
        ideals = []
        for name in names:
            with open(fixture_path(name)) as fh:
                ideals.append(parse_ideal_document(_json.load(fh)))
        checked = 0
        for a in range(len(ideals)):
            for b in range(a, len(ideals)):
                I, J = ideals[a], ideals[b]
                if I.context != J.context:
                    continue
                if sum_ideals(I, J).is_unit or intersect(I, J).is_zero:
                    continue
                assert mayer_vietoris_check(I, J, Q)
                checked += 1
        assert checked >= 4  # same-ring fixture pairs do exist

    @given(proper_ideals(min_n=4, max_n=5, max_gens=2), proper_ideals(min_n=4, max_n=5, max_gens=2))
    @settings(max_examples=15, deadline=None)
    def test_random_pairs(self, I, J):
        if I.context != J.context:
            return
        from svtlab.ideals import intersect, sum_ideals

        for K in (sum_ideals(I, J), intersect(I, J)):
            if K.is_zero or K.is_unit:
                return
        assert mayer_vietoris_check(I, J, Q)


class TestRandomGeneration:
    def test_deterministic_for_a_seed(self):
        ctx = context_of(5)
        one = random.Random(7)
        two = random.Random(7)
        assert [random_square_free_ideal(ctx, one) for _ in range(5)] == [
            random_square_free_ideal(ctx, two) for _ in range(5)
        ]

    @pytest.mark.parametrize(
        "n, seed, bound, draws, after",
        [
            (5, 2021, 4, [
                [["x1", "x2"], ["x1", "x3", "x4"]],
                [["x1", "x2", "x3", "x5"]],
                [["x4", "x5"]],
                [["x2", "x4"], ["x1", "x3", "x4"], ["x1", "x2", "x3", "x5"]],
            ], 555),
            (8, 7, 3, [
                [["x2", "x3"], ["x1", "x6", "x7"]],
                [["x1", "x4"], ["x4", "x7"]],
                [["x1", "x2", "x3", "x4", "x7", "x8"], ["x1", "x2", "x5", "x7", "x8"],
                 ["x1", "x3", "x4", "x5", "x6", "x7", "x8"]],
                [["x2", "x5"]],
            ], 61),
        ],
    )
    def test_first_draws_are_fixed(self, n, seed, bound, draws, after):
        # sweep output depends on the order of the RNG calls; `after` pins
        # how many calls the draws consumed
        ctx = context_of(n)
        rng = random.Random(seed)
        got = [random_square_free_ideal(ctx, rng, bound).generator_lists() for _ in draws]
        assert got == draws
        assert rng.randrange(1000) == after

    def test_constraints(self):
        ctx = context_of(4)
        rng = random.Random(3)
        for _ in range(50):
            I = random_square_free_ideal(ctx, rng)
            assert not I.is_zero and not I.is_unit
            assert dim_quotient(I) >= 1
            assert all(2 <= len(g) <= 3 for g in I.generator_lists())

    def test_rejects_tiny_rings(self):
        with pytest.raises(ValueError):
            random_square_free_ideal(context_of(2), random.Random(0))


class TestSweep:
    def test_small_sweep_all_agree(self):
        summary = random_svt_sweep(n=4, generator_bound=3, trials=25, seed=11, field=Q)
        assert summary.agreements == 25
        assert summary.failures == 0
        assert summary.first_counterexample is None

    def test_sweep_reproducible(self):
        a = random_svt_sweep(n=4, generator_bound=3, trials=10, seed=5).to_json()
        b = random_svt_sweep(n=4, generator_bound=3, trials=10, seed=5).to_json()
        assert a == b

    @pytest.mark.parametrize(
        "bound, trials, named",
        [(3, -5, "-5"), (0, 5, "0"), (-2, 0, "-2")],
        ids=["negative-trials", "zero-bound", "negative-bound"],
    )
    def test_impossible_counts_are_refused(self, bound, trials, named):
        with pytest.raises(ValueError, match=named):
            random_svt_sweep(n=4, generator_bound=bound, trials=trials, seed=1)

    @pytest.mark.parametrize("trials", [0, 1])
    @pytest.mark.parametrize("n", [0, 2])
    def test_tiny_ring_refused_before_any_trial(self, n, trials):
        with pytest.raises(ValueError, match="at least 3 variables"):
            random_svt_sweep(n=n, generator_bound=3, trials=trials, seed=1)

    @pytest.mark.parametrize("trials", [0, 1])
    def test_ring_over_the_cap_refused_before_any_trial(self, trials):
        with pytest.raises(CapExceededError):
            random_svt_sweep(n=9, generator_bound=3, trials=trials, seed=1)
        raised = EngineLimits(max_vars=9)
        summary = random_svt_sweep(n=9, generator_bound=3, trials=trials, seed=1, limits=raised)
        assert summary.agreements == trials

    @pytest.mark.parametrize(
        "n, cap", [(10**5, "context cap 16"), (10, "engine cap 8")], ids=["context", "engine"]
    )
    def test_ring_over_a_cap_refused_before_its_names_are_built(self, n, cap, monkeypatch):
        monkeypatch.setattr(analysis, "VariableContext", lambda names: pytest.fail("names built"))
        with pytest.raises(CapExceededError, match=f"^{n} variables exceeds the {cap}"):
            random_svt_sweep(n=n, generator_bound=3, trials=0, seed=1)

    @pytest.mark.parametrize("trials", [0, 1])
    @pytest.mark.parametrize("n, bound", [(3, 9), (8, 257), (8, 10**12)])
    def test_bound_over_2_to_the_n_refused_before_a_draw(self, n, bound, trials, monkeypatch):
        monkeypatch.setattr(analysis, "random_square_free_ideal", lambda *a: pytest.fail("drawn"))
        cap = f"bound {bound} exceeds the cap 2\\^{n} = {2**n}"
        with pytest.raises(CapExceededError, match=cap):
            random_svt_sweep(n=n, generator_bound=bound, trials=trials, seed=1)

    def test_bound_of_every_support_is_accepted(self):
        summary = random_svt_sweep(n=3, generator_bound=8, trials=6, seed=4)
        assert (summary.generator_bound, summary.agreements) == (8, 6)

    def test_zero_trials_is_an_empty_sweep(self):
        summary = random_svt_sweep(n=4, generator_bound=3, trials=0, seed=1)
        assert (summary.agreements, summary.failures) == (0, 0)

    def test_counterexample_reports_what_was_decided(self, monkeypatch):
        real = cech.is_vanishing
        monkeypatch.setattr(cech, "is_vanishing", lambda *a: not real(*a))
        summary = random_svt_sweep(n=4, generator_bound=3, trials=3, seed=2)
        assert summary.failures == 3
        cex = summary.first_counterexample
        ctx = context_of(4)
        I = SquareFreeIdeal.from_variable_lists(ctx, cex["generators"])
        assert cex["variables"] == list(ctx.names)
        assert cex["dim_quotient"] == dim_quotient(I)
        assert cex["connected"] == graphs.punctured_spectrum_connected(I)
        assert cex["vanishing"] is not real(I, 3, Q, EngineLimits())
        assert summary.to_json()["first_counterexample"] == cex


FIXTURES = [
    "ci_two_cubics.json", "ex313.json", "ex43.json", "ex45_n3.json", "ex45_reduced.json",
    "ex46.json", "ex47.json", "k8_edges.json", "max_ideal_n2.json", "rp2.json",
    "triangle_and_edge.json", "two_planes.json",
]


def assert_finite_length_hypotheses_match_hochster(I, field, limits=EngineLimits()):
    """The closed form svt_check uses for S/q against q's own Hochster table."""
    report = svt_check(local_cohomology_table(I, field, limits))
    by_name = {h.name: h for h in report.hypotheses}
    for p in minimal_primes(I):
        q = prime_ideal(p)
        fl = finite_length(q, 2, field)
        entry = hochster_table_all_faces(q, field).get((2, 0), 0)
        h = by_name[f"finite length of H^2_m(S/{p.label()})"]
        assert h.holds == fl
        assert h.evidence == (
            f"length {entry} at the origin column" if fl else "an off-origin column is nonzero"
        )
        assert h.vacuous == (I.context.n - p.height != 2)


class TestPrimeHypothesisClosedForm:
    @pytest.mark.parametrize("field", [Q, FieldSpec(2)], ids=lambda f: f.label())
    @given(proper_ideals(min_n=1, max_n=6, max_gens=5))
    @settings(max_examples=60, deadline=None)
    def test_random_ideals(self, field, I):
        assert_finite_length_hypotheses_match_hochster(I, field)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, name):
        with open(fixture_path(name)) as fh:
            I = parse_ideal_document(json.load(fh))
        # ex45_n3 has 9 variables, past the default cap
        limits = EngineLimits(max_vars=9)
        assert_finite_length_hypotheses_match_hochster(I, Q, limits)
