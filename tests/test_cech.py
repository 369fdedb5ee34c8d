import json
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import context_of, fixture_path, proper_ideals
from oracles import (
    cech_table_dims,
    is_artinian,
    is_divisible,
    localized_piece_dim,
    maximal_ideal,
    multiplication_rank_by_cocycles,
    multiplication_rank_by_three_ranks,
)

from svtlab import cech, simplicial
from svtlab.analysis import grade_check, hlv_check
from svtlab.cli import parse_ideal_document

from svtlab.fields import FieldSpec
from svtlab.graphs import components, theta_graph
from svtlab.ideals import (
    CapExceededError,
    SquareFreeIdeal,
    VariableContext,
    bits,
    dim_quotient,
    height,
    minimal_primes,
    stanley_reisner_facets,
)
from svtlab.simplicial import depth_quotient
from svtlab.cech import (
    DEFAULT_LIMITS,
    EngineLimits,
    build_graded_complex,
    cohomological_dimension,
    is_multiplication_surjective,
    is_vanishing,
    local_cohomology_table,
    multiplication_rank,
    pattern_table,
    q_invariant,
)

Q = FieldSpec(0)


def primes(ctx, *lists):
    return SquareFreeIdeal.intersection_of_primes(ctx, list(lists))


# the multiplication by x3 on H^3 fails onto {x1, x2, x4, x5} by rank alone
RANK_DEFICIENT = {
    "variables": ["x1", "x2", "x3", "x4", "x5"],
    "ideal": {
        "generators": [["x1", "x2"], ["x2", "x4"], ["x1", "x3", "x4"], ["x1", "x5"], ["x4", "x5"]]
    },
}


def rank_deficient_ideal():
    return parse_ideal_document(RANK_DEFICIENT)


def three_axes():
    """(x1x2, x1x3, x2x3): the three coordinate axes of 3-space."""
    return SquareFreeIdeal(context_of(3), [0b011, 0b101, 0b110])


class TestLimits:
    def test_variable_cap(self):
        ctx = VariableContext(tuple(f"z{i}" for i in range(9)))
        I = SquareFreeIdeal(ctx, [1])
        with pytest.raises(CapExceededError):
            local_cohomology_table(I, Q)

    def test_cap_override(self):
        ctx = VariableContext(tuple(f"z{i}" for i in range(9)))
        I = SquareFreeIdeal(ctx, [0b111111111])
        table = local_cohomology_table(I, Q, EngineLimits(max_vars=9))
        assert table.row(1)  # principal ideal: H^1 only


class TestGradedComplex:
    def test_localization_piece_classification(self):
        # one inverted monomial: the degree piece is k exactly when every
        # negative coordinate hits the inverted support
        ctx = context_of(3)
        I = SquareFreeIdeal(ctx, [0b011])
        for pattern in range(8):
            cx = build_graded_complex(I, pattern)
            active = bool(cx.active[1])
            degree = tuple(-1 if pattern & (1 << j) else 0 for j in range(3))
            assert active == (localized_piece_dim(0b011, degree) == 1)

    @given(proper_ideals(max_n=4))
    @settings(max_examples=40, deadline=None)
    def test_differential_squares_to_zero(self, I):
        pattern = I.support_union()
        cx = build_graded_complex(I, pattern)
        for k in range(I.r - 1):
            d0 = cx.differential(k)
            d1 = cx.differential(k + 1)
            for row in d0:
                acc = {}
                for j, v in row.items():
                    for l, w in d1[j].items():
                        acc[l] = acc.get(l, 0) + v * w
                assert all(v == 0 for v in acc.values())

    def test_empty_pattern_has_unit_term(self):
        ctx = context_of(2)
        I = SquareFreeIdeal(ctx, [0b01])
        cx = build_graded_complex(I, 0)
        assert cx.active[0] == [0]
        assert cx.active[1] == [1]

    def test_no_variable_cap(self):
        # the oracle pays 2^r, which n does not bound, so n past the
        # engine's default cap builds like any other
        ctx = context_of(DEFAULT_LIMITS.max_vars + 1)
        I = SquareFreeIdeal(ctx, [0b11, 0b1100, 1 << (ctx.n - 1)])
        cx = build_graded_complex(I, I.support_union())
        assert [len(level) for level in cx.active] == [0, 0, 0, 1]


class TestTableExamples:
    def test_principal_ideal(self):
        ctx = context_of(2)
        I = SquareFreeIdeal(ctx, [0b01])  # (x1)
        table = local_cohomology_table(I, Q)
        assert table.row(1) == {0b01: 1}
        assert cohomological_dimension(table) == 1

    def test_maximal_ideal_top_row(self):
        ctx = context_of(3)
        m = maximal_ideal(ctx)
        table = local_cohomology_table(m, Q)
        assert table.nonzero_rows() == [3]
        assert table.row(3) == {0b111: 1}
        assert is_artinian(table, 3)
        assert q_invariant(table) is None

    def test_two_blocks_eight_vars(self):
        ctx = VariableContext(("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"))
        I = primes(ctx, ["x1", "x2", "x3"], ["y1", "y2", "y3"])
        table = local_cohomology_table(I, Q)
        xs = ctx.mask_of(["x1", "x2", "x3"])
        ys = ctx.mask_of(["y1", "y2", "y3"])
        assert table.row(3) == {xs: 1, ys: 1}
        assert table.row(5) == {xs | ys: 1}
        assert is_vanishing(I, 7, Q)  # second-vanishing row i = n - 1
        assert cohomological_dimension(table) == 5
        assert not is_artinian(table, 3)
        assert q_invariant(table) == 5

    def test_disconnected_blocks_six_vars(self):
        ctx = context_of(6)
        I = primes(ctx, ["x1", "x2", "x3"], ["x4", "x5", "x6"])
        table = local_cohomology_table(I, Q)
        # top-minus-one row is the injective hull pattern: one class, full support
        assert not is_vanishing(I, 5, Q)
        assert table.row(5) == {0b111111: 1}
        m_table = local_cohomology_table(maximal_ideal(ctx), Q)
        assert table.row(5) == m_table.row(6)
        assert is_artinian(table, 5)

    def test_three_planes_six_vars(self):
        ctx = context_of(6)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"], ["x5", "x6"])
        table = local_cohomology_table(I, Q)
        assert is_vanishing(I, 5, Q)
        assert cohomological_dimension(table) == 4

    def test_two_planes_four_vars(self):
        ctx = context_of(4)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"])
        table = local_cohomology_table(I, Q)
        assert table.row(2) == {0b0011: 1, 0b1100: 1}
        assert table.row(3) == {0b1111: 1}
        assert q_invariant(table) == 2

    def test_entries_sorted_json(self):
        ctx = context_of(4)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"])
        table = local_cohomology_table(I, Q)
        entries = json.loads(table.text)
        assert entries == sorted(entries, key=lambda e: (e["i"], e["pattern"]))
        assert all(set(e) == {"i", "pattern", "dim"} for e in entries)


FIELDS = [FieldSpec(0), FieldSpec(2), FieldSpec(3)]


def projective_plane_ideal():
    """Stanley-Reisner ideal of the 6-vertex real projective plane, whose
    table has 2-torsion: it differs between Q and GF(2)."""
    triangles = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]
    faces = {sum(1 << (v - 1) for v in t) for t in triangles}
    non_faces = [
        F for F in range(1 << 6)
        if F.bit_count() == 3 and F not in faces
    ]
    return SquareFreeIdeal(context_of(6), non_faces)


# (x1x2, x3x4): facets x1x3, x1x4, x2x3, x2x4, so m = 2 = n - r
TWO_DISJOINT_EDGES = SquareFreeIdeal(context_of(4), [0b0011, 0b1100])


class TestAgainstCechOracle:
    """Both walks against the full 2^r Cech complex of every pattern."""

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    @given(proper_ideals(max_n=5, max_gens=6))
    @settings(max_examples=150, deadline=None)
    # (x1x2, x3x4): all nine covering patterns share one memo key
    @example(I=SquareFreeIdeal(context_of(4), [0b0011, 0b1100]))
    # (x1, x2) cap (x3, x4, x5): eleven covering patterns, eleven memo keys
    @example(I=primes(context_of(5), ["x1", "x2"], ["x3", "x4", "x5"]))
    # x1 * (x2, x3, x4): H^1 at N = {x1}, where K_N is the empty complex, and
    # H^3 at N = {x2, x3, x4} and [4], where K_N is a triangle's boundary
    @example(I=SquareFreeIdeal(context_of(4), [0b0011, 0b0101, 0b1001]))
    # (x1x2x3x4x5): t = 5 facets > 2r = 2, the pattern side of the rule
    @example(I=SquareFreeIdeal(context_of(5), [0b11111]))
    # (x1x2x3, x4x5): t = 6 facets > 2r = 4, the pattern side of the rule
    @example(I=SquareFreeIdeal(context_of(5), [0b00111, 0b11000]))
    # (x1x2, x2x3) in k[x1..x4]: x4 lies outside the union of the supports
    @example(I=SquareFreeIdeal(context_of(4), [0b0011, 0b0110]))
    def test_table_equals_oracle(self, field, I):
        oracle = cech_table_dims(I, field)
        assert local_cohomology_table(I, field).dims == oracle
        assert pattern_table(I, field).dims == oracle

    def test_torsion_table_equals_oracle(self):
        I = projective_plane_ideal()
        over_f2 = local_cohomology_table(I, FieldSpec(2)).dims
        assert over_f2 == cech_table_dims(I, FieldSpec(2))
        # over Q the two 2-torsion classes at the full pattern vanish and
        # nothing else moves
        full = 0b111111
        assert over_f2[(3, full)] == over_f2[(4, full)] == 1
        assert local_cohomology_table(I, Q).dims == {
            key: d for key, d in over_f2.items() if key[1] != full
        }

    @pytest.mark.parametrize(
        "I, calls",
        [
            # nine covering patterns, one memo key (two points on the generators)
            (SquareFreeIdeal(context_of(4), [0b0011, 0b1100]), 1),
            # eleven covering patterns, all distinct
            (primes(context_of(5), ["x1", "x2"], ["x3", "x4", "x5"]), 11),
            # (x1x2, x2x3) in k[x1..x4]: five covering patterns, four memo keys,
            # none holding x4, which lies outside the union of the supports
            (SquareFreeIdeal(context_of(4), [0b0011, 0b0110]), 4),
        ],
    )
    def test_each_class_computed_once_on_the_variables(self, monkeypatch, I, calls):
        seen = []
        reduced_cohomology = simplicial.reduced_cohomology

        def spy(facets, field):
            seen.append(facets)
            return reduced_cohomology(facets, field)

        monkeypatch.setattr(simplicial, "reduced_cohomology", spy)
        table = pattern_table(I, Q)
        # each class is computed once, on K_N for its smallest covering N,
        # in the order the submasks of the union meet the classes
        union, first = I.support_union(), {}
        for N in range(1, union + 1):
            if N & ~union or not all(g & N for g in I.generators):
                continue
            # the class: the maximal sets {t : j not in supp(f_t)}, j in N
            side = {
                sum(1 << t for t, g in enumerate(I.generators) if not g >> j & 1)
                for j in range(I.context.n) if N >> j & 1
            }
            key = frozenset(a for a in side if not any(a != b and a & b == a for b in side))
            first.setdefault(key, N)
        assert len(first) == calls
        assert seen == [cech._facets(I, N) for N in first.values()]
        assert table.dims == cech_table_dims(I, Q)

    def test_ex45_n3_with_raised_caps(self):
        with open(fixture_path("ex45_n3.json")) as fh:
            I = parse_ideal_document(json.load(fh))
        limits = EngineLimits(max_vars=9)
        table = pattern_table(I, Q, limits)
        assert hlv_check(table)
        assert grade_check(table)
        assert cohomological_dimension(table) + depth_quotient(I, Q) == I.context.n
        assert local_cohomology_table(I, Q, limits).dims == table.dims


def hochster_calls(run):
    """run()'s result and the field of each hochster_table call it made."""
    calls = []
    real = simplicial.hochster_table

    def spy(I, field):
        calls.append(field)
        return real(I, field)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplicial, "hochster_table", spy)
        return run(), calls


class TestWalkChoice:
    """The Hochster walk builds the table exactly when t <= 2r; the
    vanishing test never takes it."""

    @pytest.mark.parametrize(
        "I, hochster",
        [
            # (x1x2, x3x4): t = 4 = 2r, the last count on the Hochster side
            (SquareFreeIdeal(context_of(4), [0b0011, 0b1100]), True),
            # (x1x2x3x4x5, x6): t = 5 = 2r + 1, the first on the pattern side
            (SquareFreeIdeal(context_of(6), [0b011111, 0b100000]), False),
            # (x1x2x3x4x5): t = 5 > 2r = 2
            (SquareFreeIdeal(context_of(5), [0b11111]), False),
            # the maximal ideal: t = 1 <= 2r = 6
            (maximal_ideal(context_of(3)), True),
        ],
    )
    def test_walk_at_the_boundary(self, I, hochster):
        _, calls = hochster_calls(lambda: local_cohomology_table(I, Q))
        assert calls == ([Q] if hochster else [])

    @given(proper_ideals(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_hochster_walk_exactly_when_t_at_most_2r(self, I):
        t = len(simplicial.complex_from_ideal(I))
        table, calls = hochster_calls(lambda: local_cohomology_table(I, Q))
        assert calls == ([Q] if t <= 2 * I.r else [])
        assert table.dims == pattern_table(I, Q).dims
        rows = range(I.context.n + 1)
        _, calls = hochster_calls(lambda: [is_vanishing(I, i, Q) for i in rows])
        assert calls == []


def all_subsets_ideal(n, k):
    """The ideal of all k-subsets of n variables, C(n, k) generators."""
    return SquareFreeIdeal(
        context_of(n), [m for m in range(1 << n) if m.bit_count() == k]
    )


class TestHochsterDuality:
    """dim H^i_I(S)_N = dim H^{n-i}_m(S/I)_{[n] minus N}, entry by entry.

    The pattern walk works on the Dowker complexes of I and Hochster's
    formula on the links of the Stanley-Reisner complex, so neither is
    computed from the other.  Past r = 20 the 2^r Cech oracle cannot run,
    and this is the independent check.
    """

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    @given(proper_ideals(min_n=1, max_n=7, max_gens=6))
    @settings(max_examples=60, deadline=None)
    @example(I=all_subsets_ideal(8, 2))  # the edge ideal of K8, r = 28
    @example(I=all_subsets_ideal(8, 4))  # r = 70, the most at n = 8 (Sperner)
    def test_table_is_the_reindexed_hochster_table(self, field, I):
        n, full = I.context.n, I.context.full_mask
        hochster = simplicial.hochster_table(I, field)
        expected = {(n - i, full & ~face): d for (i, face), d in hochster.items()}
        assert pattern_table(I, field).dims == expected


def fixture_ideal(name):
    with open(fixture_path(name)) as fh:
        return parse_ideal_document(json.load(fh))


@st.composite
def prime_intersections(draw, min_n=3, max_n=8):
    """Intersections of 1..5 coordinate primes in a ring of min_n..max_n variables."""
    ctx = context_of(draw(st.integers(min_n, max_n)))
    masks = draw(st.lists(st.integers(1, ctx.full_mask), min_size=1, max_size=5))
    return SquareFreeIdeal.intersection_of_primes(ctx, [ctx.names_of(m) for m in masks])


def pd_from_the_dual(I, field):
    """1 + max(|N| - i) over the pattern table of I^v, the ideal of I's minimal primes."""
    dual = SquareFreeIdeal(I.context, minimal_primes(I))
    return 1 + max(p.bit_count() - i for i, p in pattern_table(dual, field).dims)


# random supports and prime intersections at n 3..8
IDEALS_3_TO_8 = st.one_of(proper_ideals(min_n=3, max_n=8, max_gens=6), prime_intersections())


class TestClosedForms:
    """Rows and invariants of the pattern table that other structures fix."""

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    @given(IDEALS_3_TO_8)
    @settings(max_examples=60, deadline=None)
    @example(I=fixture_ideal("two_planes.json"))  # {[n]: 1}
    @example(I=fixture_ideal("k8_edges.json"))  # eight height-7 primes and [n]: 7
    @example(I=fixture_ideal("ci_two_cubics.json"))  # empty
    def test_row_n_minus_1_in_closed_form(self, field, I):
        # H^{n-1}_I(S)_N is 1 at N = vars(P) for each minimal prime P of
        # height n - 1, c - 1 at N = [n] with c the components of Theta, and
        # 0 elsewhere; Theta is read off the minimal primes, not the table
        n = I.context.n
        expected = {p: 1 for p in minimal_primes(I) if p.bit_count() == n - 1}
        c = components(*theta_graph(I))
        if c > 1:
            expected[I.context.full_mask] = c - 1
        assert pattern_table(I, field).row(n - 1) == expected

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("two_planes.json", {0b1111: 1}),
            ("k8_edges.json", {0xFF: 7, **{0xFF & ~(1 << j): 1 for j in range(8)}}),
            ("ci_two_cubics.json", {}),
        ],
    )
    def test_row_n_minus_1_of_fixtures(self, name, expected):
        I = fixture_ideal(name)
        for field in FIELDS:
            assert pattern_table(I, field).row(I.context.n - 1) == expected

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    @given(IDEALS_3_TO_8)
    @settings(max_examples=60, deadline=None)
    @example(I=fixture_ideal("rp2.json"))  # cd 4 over GF(2), 3 over GF(3) and Q
    def test_pd_from_the_alexander_dual_is_cd(self, field, I):
        # the pattern table of I^v, generated by the minimal primes of I, is
        # the multigraded Betti table of I: beta_{j,N}(I) = T_{I^v}(|N| - j, N),
        # so pd(S/I) = 1 + max(|N| - i) over its nonzero entries, and
        # pd(S/I) = n - depth(S/I) = cd(I)
        assert pd_from_the_dual(I, field) == cohomological_dimension(local_cohomology_table(I, field))

    @pytest.mark.parametrize(
        "field, cd", [(Q, 3), (FieldSpec(2), 4), (FieldSpec(3), 3)], ids=["Q", "GF(2)", "GF(3)"]
    )
    def test_pd_from_the_alexander_dual_of_rp2(self, field, cd):
        assert pd_from_the_dual(fixture_ideal("rp2.json"), field) == cd


class TestStructuralInvariants:
    @given(proper_ideals())
    @settings(max_examples=30, deadline=None)
    def test_grade_and_dimension_bounds(self, I):
        table = local_cohomology_table(I, Q)
        h = height(I)
        rows = table.nonzero_rows()
        assert min(rows) == h  # vanishing below the height, nonzero at it
        assert max(rows) <= I.context.n

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    @given(proper_ideals(min_n=1, max_n=7, max_gens=6))
    @settings(max_examples=150, deadline=None)
    # m = n - r: the two bounds on the depth meet, depth 2
    @example(I=TWO_DISJOINT_EDGES)
    # triangle_and_edge, (x1x2, x2x3, x1x3, x4x5): m = n - r + 1, no
    # generator has a variable of its own, so beta_r = 0 and depth 2
    @example(I=SquareFreeIdeal(context_of(5), [0b00011, 0b00110, 0b00101, 0b11000]))
    # RP^2: m > n - r + 1; depth 3 over Q and GF(3), 2 over GF(2), from
    # H~^1 of the whole complex; cd 3, 4 and 3
    @example(I=projective_plane_ideal())
    # I = m: the EMPTY complex, depth 0
    @example(I=maximal_ideal(context_of(3)))
    # two planes meeting in a point: a disconnected complex, depth 1
    @example(I=primes(context_of(4), ["x1", "x2"], ["x3", "x4"]))
    # (x1 x2) in three variables: a cone over x3, Cohen-Macaulay of depth 2
    @example(I=SquareFreeIdeal(context_of(3), [0b011]))
    # an annulus of six triangles: H~^1 = k in every characteristic, depth 2
    @example(I=SquareFreeIdeal(
        context_of(6), [0b000111, 0b001100, 0b010001, 0b100010, 0b111000]
    ))
    # lk x6 has facets x2x3, x2x5, x3x5, x1x4x7, x1x5x7 in that order: the
    # last one joins the fourth to the rest, so connectivity needs a second pass
    @example(I=SquareFreeIdeal(
        context_of(7), [0b101, 0b1010, 0b1100, 0b10110, 0b11000, 0b100011, 0b1000010, 0b1000100]
    ))
    # lk x1 and lk x2x3 are both the hollow tetrahedron on x4..x7: its
    # H~^2 is row 3, the depth, at x1 and row 5, above m = 4, at x2x3
    @example(I=SquareFreeIdeal(context_of(7), [0b11, 0b101, 0b1111000]))
    def test_cd_equals_n_minus_depth(self, field, I):
        # independent oracle: cohomological dimension of a monomial ideal
        # (Mustata's formula on the Dowker complexes) matches n - depth(S/I),
        # with depth the lowest row of the Hochster table on the quotient side
        n, r = I.context.n, I.r
        depth = depth_quotient(I, field)
        assert cohomological_dimension(pattern_table(I, field)) == n - depth
        # a facet's link is EMPTY, so row m, the smallest facet size, is
        # nonzero; the Taylor resolution has length r, so pd(S/I) <= r and
        # Auslander-Buchsbaum gives depth >= n - r
        m = min(map(int.bit_count, stanley_reisner_facets(I)))
        assert n - r <= depth <= m
        # at m = n - r + 1, depth n - r would need the top Taylor Betti
        # number beta_r(S/I), nonzero exactly when each generator has a
        # variable no other has; those r variables span a minimal prime of
        # height r, so m = n - r
        if m <= n - r + 1:
            assert depth == m

    @given(proper_ideals())
    @settings(max_examples=25, deadline=None)
    def test_top_row_iff_m_primary(self, I):
        from svtlab.ideals import is_m_primary

        table = local_cohomology_table(I, Q)
        assert (not table.is_row_zero(I.context.n)) == is_m_primary(I)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    @given(proper_ideals(min_n=1, max_n=6, max_gens=5))
    @settings(max_examples=40, deadline=None)
    def test_row_zero_builds_no_row(self, field, I):
        table = local_cohomology_table(I, field)
        expected = [not table.row(i) for i in range(-1, I.context.n + 2)]

        def refuse(self, i):
            raise AssertionError("a row was built")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cech.CohomologyTable, "row", refuse)
            assert [table.is_row_zero(i) for i in range(-1, I.context.n + 2)] == expected

    @given(proper_ideals(max_n=4))
    @settings(max_examples=25, deadline=None)
    def test_redundant_generators_change_nothing(self, I):
        table = local_cohomology_table(I, Q)
        extra = [g | 1 for g in I.generators]  # multiples of existing generators
        J = SquareFreeIdeal(I.context, tuple(I.generators))
        K = SquareFreeIdeal(I.context, list(I.generators) + extra)
        assert K == J
        assert local_cohomology_table(K, Q).dims == table.dims

    @given(proper_ideals(max_n=4))
    @settings(max_examples=20, deadline=None)
    def test_field_choice_agrees_on_small_cases(self, I):
        # square-free monomial ideals in <= 4 variables have no torsion
        # surprises at p = 2 in these sizes; the tables must agree
        t0 = local_cohomology_table(I, Q)
        t2 = local_cohomology_table(I, FieldSpec(2))
        assert t0.dims == t2.dims

    def test_determinism(self):
        ctx = context_of(5)
        I = primes(ctx, ["x1", "x2"], ["x2", "x3"], ["x4", "x5"])
        a = local_cohomology_table(I, Q).text
        b = local_cohomology_table(I, Q).text
        assert a == b


class TestMultiplication:
    def test_maximal_ideal_fully_divisible(self):
        ctx = context_of(3)
        m = maximal_ideal(ctx)
        assert is_divisible(local_cohomology_table(m, Q), 3)

    def test_principal_split(self):
        # I = (y) in k[x, y]: y acts surjectively on H^1, x does not
        ctx = VariableContext(("x", "y"))
        I = SquareFreeIdeal(ctx, [0b10])
        x = ctx.mask_of(["x"])
        y = ctx.mask_of(["y"])
        table = local_cohomology_table(I, Q)
        assert is_multiplication_surjective(table, 1, y)
        assert not is_multiplication_surjective(table, 1, x)
        assert not is_divisible(table, 1)

    def test_unit_rejected(self):
        ctx = context_of(2)
        table = local_cohomology_table(SquareFreeIdeal(ctx, [0b01]), Q)
        with pytest.raises(ValueError):
            is_multiplication_surjective(table, 1, 0)

    @pytest.mark.parametrize("x", [-1, 0b100, 0b111])
    def test_mask_outside_the_context_rejected(self, x):
        ctx = context_of(2)
        table = local_cohomology_table(SquareFreeIdeal(ctx, [0b01]), Q)
        with pytest.raises(ValueError):
            is_multiplication_surjective(table, 1, x)

    def test_map_shape_and_iso_step(self):
        ctx = context_of(3)
        m = maximal_ideal(ctx)
        table = local_cohomology_table(m, Q)
        # H^3 at N = {x1, x2, x3} is k, and x1 sends it to N minus x1, where H^3 = 0
        assert (table.dim(3, 0b111), table.dim(3, 0b110)) == (1, 0)
        assert multiplication_rank(table, 3, 0, 0b111) == 0  # onto the zero target

    def test_zero_row_vacuously_divisible(self):
        ctx = context_of(3)
        I = primes(ctx, ["x1", "x2"])
        assert is_divisible(local_cohomology_table(I, Q), 1)  # H^1 = 0 below the height

    @given(proper_ideals(max_n=4))
    @settings(max_examples=15, deadline=None)
    def test_artinian_rows_divisible(self, I):
        # modules supported only at the closed point admit every variable
        # action surjectively in this graded model exactly when every
        # comparison map has zero target; verify the engine agrees
        table = local_cohomology_table(I, Q)
        n = I.context.n
        for i in table.nonzero_rows():
            if is_artinian(table, i):
                assert is_divisible(table, i)

    def test_composition_consistency(self):
        # surjectivity for x1*x2 coincides with surjectivity of both steps
        ctx = context_of(4)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"])
        table = local_cohomology_table(I, Q)
        x1 = ctx.mask_of(["x1"])
        x2 = ctx.mask_of(["x2"])
        x12 = ctx.mask_of(["x1", "x2"])
        for i in (2, 3):
            both = is_multiplication_surjective(table, i, x1) and (
                is_multiplication_surjective(table, i, x2)
            )
            assert is_multiplication_surjective(table, i, x12) == both

    def test_three_axes_x1_surjective_on_h2(self):
        # from the sequence for x1, the cokernel is H^2_{(x2x3)}(k[x2, x3]) = 0
        I = three_axes()
        x1 = I.context.mask_of(["x1"])
        table = local_cohomology_table(I, Q)
        assert is_multiplication_surjective(table, 2, x1)
        assert is_divisible(table, 2)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    def test_x3_fails_on_h3_by_rank(self, field):
        # every target of x3 on H^3 has a nonzero source, so the verdict
        # rests on the rank: onto {x1, x2, x4, x5} (dim 2) it is 1
        I = rank_deficient_ideal()
        table = local_cohomology_table(I, field)
        j, x3 = 2, I.context.mask_of(["x3"])
        targets = {N: d for N, d in table.row(3).items() if not N & x3}
        assert targets and all(table.dim(3, N | x3) for N in targets)
        onto = I.context.mask_of(["x1", "x2", "x4", "x5"])
        assert targets[onto] == 2
        assert multiplication_rank(table, 3, j, onto | x3) == 1
        assert multiplication_rank_by_three_ranks(I, 3, j, onto | x3, field) == 1
        assert not is_multiplication_surjective(table, 3, x3)

    @pytest.mark.parametrize("i", [-1, 4, 5])  # r = 3: degrees outside 0..r
    def test_degree_outside_the_complex_is_zero(self, i):
        table = local_cohomology_table(three_axes(), Q)
        assert (table.dim(i, 0b111), table.dim(i, 0b110)) == (0, 0)
        assert multiplication_rank(table, i, 0, 0b111) == 0


class TestMultiplicationAgainstOracles:
    """multiplication_rank's formula against explicit cocycle bases."""

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    @given(proper_ideals(min_n=2, max_n=5, max_gens=5))
    @settings(max_examples=100, deadline=None)
    @example(I=three_axes())
    @example(I=primes(context_of(4), ["x1", "x2"], ["x3", "x4"]))
    # (x1) in k[x1, x2]: N = {x1} has H^1 = k and N minus x1 is empty
    @example(I=SquareFreeIdeal(context_of(2), [0b01]))
    # the path x3 - x1 - x2 - x4: x4 on H^2 at N = {x1, x2, x4} is an
    # isomorphism k -> k
    @example(I=SquareFreeIdeal(context_of(4), [0b0011, 0b0101, 0b1010]))
    # (x1x2, x3x4): x1 on H^2 at N = {x1..x4} is k -> k with rank 1, and
    # r = 2 < |N|
    @example(I=SquareFreeIdeal(context_of(4), [0b0011, 0b1100]))
    # (x1x2x4, x2x3x4, x2x5, x3x5, x4x5): x1 on H^3 at N = {x1..x5} maps
    # k -> k with rank 0, so min(dim source, dim target) is not the rank
    @example(I=SquareFreeIdeal(
        context_of(5), [0b01011, 0b01110, 0b10010, 0b10100, 0b11000]
    ))
    def test_rank_equals_cocycle_oracle(self, field, I):
        n = I.context.n
        dims = cech_table_dims(I, field)
        table = local_cohomology_table(I, field)
        for i in range(I.r + 1):
            for j in range(n):
                for pattern in range(1 << n):
                    if not pattern >> j & 1:
                        continue
                    rank = multiplication_rank(table, i, j, pattern)
                    assert rank == multiplication_rank_by_cocycles(I, i, j, pattern, field)
                    target = dims.get((i, pattern & ~(1 << j)), 0)
                    assert 0 <= rank <= min(dims.get((i, pattern), 0), target)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    @given(proper_ideals(min_n=2, max_n=5, max_gens=5))
    @settings(max_examples=100, deadline=None)
    @example(I=three_axes())
    def test_top_degree_cokernel(self, field, I):
        # 0 -> S(-1) -> S -> S/x_j -> 0 and H^{cd+1}_I(S) = 0 make the
        # cokernel of x_j on H^cd_I(S) equal to H^cd_J(S/x_j), J generated
        # by the generators that miss j, in the other n - 1 variables
        n = I.context.n
        dims = cech_table_dims(I, field)
        cd = max(i for i, _ in dims)
        table = local_cohomology_table(I, field)
        for j in range(n):
            low = (1 << j) - 1
            J = SquareFreeIdeal(
                context_of(n - 1),
                [g & low | g >> (j + 1) << j for g in I.generators if not g >> j & 1],
            )
            cokernel_zero = all(i != cd for i, _ in cech_table_dims(J, field))
            x = 1 << j
            assert is_multiplication_surjective(table, cd, x) == cokernel_zero


# degrees i in -1..n+1 where H^i_I(S) is not divisible, over Q and GF(2)
NOT_DIVISIBLE = {
    "ci_two_cubics.json": [],
    "ex313.json": [1],
    "ex43.json": [3, 5],
    "ex45_n3.json": [4, 5],
    "ex45_reduced.json": [2, 3],
    "ex46.json": [3],
    "ex47.json": [2, 3],
    "k8_edges.json": [],
    "max_ideal_n2.json": [],
    "triangle_and_edge.json": [],  # Cohen-Macaulay: one row, H^3
    "two_planes.json": [2],
}


class TestMultiplicationOnTheDowkerSide:
    @pytest.mark.parametrize("field", [Q, FieldSpec(2)], ids=lambda f: f.label())
    @pytest.mark.parametrize("name", sorted(NOT_DIVISIBLE))
    def test_fixture_divisibility_without_cech(self, monkeypatch, field, name):
        def refuse(*args, **kwargs):
            raise AssertionError("a Cech complex was built")

        monkeypatch.setattr(cech, "build_graded_complex", refuse)
        monkeypatch.setattr(cech.GradedComplex, "differential", refuse)
        with open(fixture_path(name)) as fh:
            I = parse_ideal_document(json.load(fh))
        limits = EngineLimits(max_vars=9)
        table = local_cohomology_table(I, field, limits)
        degrees = range(-1, I.context.n + 2)
        assert [
            i for i in degrees if not is_divisible(table, i)
        ] == NOT_DIVISIBLE[name]
        # only k8_edges' verdicts need a map (no other fixture has a nonzero
        # target), so take the map at every nonzero entry as well
        for (i, pattern), d in table.dims.items():
            for j in bits(pattern):
                rank = multiplication_rank(table, i, j, pattern)
                assert 0 <= rank <= min(d, table.dim(i, pattern & ~(1 << j)))

    @pytest.mark.parametrize("field", [Q, FieldSpec(2)], ids=lambda f: f.label())
    def test_k8_edges_verdicts_compute_maps(self, monkeypatch, field):
        # row 7 is 7 at [8] and 1 at each [8] minus {j}: x_j maps onto a
        # nonzero target once per variable
        with open(fixture_path("k8_edges.json")) as fh:
            I = parse_ideal_document(json.load(fh))
        computed = []
        real = cech.multiplication_rank

        def spy(table, i, variable, pattern):
            rank = real(table, i, variable, pattern)
            computed.append((i, variable, pattern, rank))
            return rank

        monkeypatch.setattr(cech, "multiplication_rank", spy)
        table = local_cohomology_table(I, field)
        assert all(is_divisible(table, i) for i in range(-1, 10))
        full = I.context.full_mask
        assert sorted(computed) == [(7, j, full, 1) for j in range(8)]
        assert table.dim(7, full) == 7
        assert all(table.dim(7, full & ~(1 << j)) == 1 for j in range(8))

    @pytest.mark.parametrize("field", [Q, FieldSpec(2)], ids=lambda f: f.label())
    def test_pair_is_taken_only_up_to_degree_i_minus_2(self, monkeypatch, field):
        # the recurrence reads h^{k-2} for k <= i and no higher degree
        with open(fixture_path("k8_edges.json")) as fh:
            I = parse_ideal_document(json.load(fh))
        table = local_cohomology_table(I, field)
        full = I.context.full_mask
        expected = [multiplication_rank_by_three_ranks(I, i, 0, full, field) for i in range(10)]
        bounds = []
        real = simplicial.relative_cohomology

        def spy(outside, inside, field, max_degree=None):
            h = real(outside, inside, field, max_degree)
            bounds.append(max_degree)
            assert all(d <= max_degree for d in h)
            return h

        monkeypatch.setattr(simplicial, "relative_cohomology", spy)
        assert [multiplication_rank(table, i, 0, full) for i in range(10)] == expected
        assert bounds == [i - 2 for i in range(10)]
        assert expected[7] == 1

    @pytest.mark.parametrize("field", [Q, FieldSpec(2)], ids=lambda f: f.label())
    @pytest.mark.parametrize("name", ["k8_edges", "subsets"])
    def test_every_map_equals_three_rank_reference(self, field, name):
        # r = 28 and r = 70: beyond the reach of the 2^r Cech oracle
        if name == "subsets":
            ctx = context_of(8)
            I = SquareFreeIdeal.from_variable_lists(ctx, combinations(ctx.names, 4))
        else:
            with open(fixture_path("k8_edges.json")) as fh:
                I = parse_ideal_document(json.load(fh))
        table = local_cohomology_table(I, field)
        for i in table.nonzero_rows():
            for pattern in range(1, 1 << I.context.n):
                for j in bits(pattern):
                    assert multiplication_rank(table, i, j, pattern) == (
                        multiplication_rank_by_three_ranks(I, i, j, pattern, field)
                    )

    def test_nine_variables_refused_at_default_caps(self):
        # a map is read off a table, and local_cohomology_table is the one
        # place a table is made, so the cap is checked there
        ctx = VariableContext(tuple(f"z{i}" for i in range(9)))
        I = SquareFreeIdeal(ctx, [0b11, 0b1100])
        with pytest.raises(CapExceededError):
            local_cohomology_table(I, Q)
        # past the cap raised at construction, x_{z0}: H^2_{z0 z1 z2} -> H^2_{z1 z2} is k -> k
        table = local_cohomology_table(I, Q, EngineLimits(max_vars=9))
        assert multiplication_rank(table, 2, 0, 0b111) == 1
