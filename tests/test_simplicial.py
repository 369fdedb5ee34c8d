import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import context_of, fixture_path, proper_ideals
from oracles import (
    contains,
    hochster_table_all_faces,
    maximal_ideal,
    quotient_local_cohomology_dim,
    reduced_cohomology_by_elimination,
    reduced_euler_characteristic,
    relative_cohomology_by_elimination,
)
from test_cech import projective_plane_ideal

from svtlab import linalg, simplicial
from svtlab.cli import parse_ideal_document
from svtlab.fields import FieldSpec
from svtlab.ideals import IdealDomainError, SquareFreeIdeal, VariableContext
from svtlab.simplicial import (
    complex_from_ideal,
    depth_quotient,
    finite_length,
    hochster_table,
    link,
    maximal_faces,
    reduced_cohomology,
    relative_cohomology,
)

Q = FieldSpec(0)


def primes(ctx, *lists):
    return SquareFreeIdeal.intersection_of_primes(ctx, list(lists))


class TestComplexBasics:
    def test_void_vs_empty(self):
        void, empty = (), (0,)
        assert reduced_cohomology(void, Q) == {}
        assert reduced_cohomology(empty, Q) == {-1: 1}
        assert reduced_euler_characteristic(void) == 0
        assert reduced_euler_characteristic(empty) == -1

    def test_no_facets_is_void(self):
        # VOID holds no face, not even the empty one
        with pytest.raises(ValueError):
            link((), 0)
        assert reduced_cohomology((), Q) == {}

    def test_from_maximal_ideal(self):
        ctx = context_of(2)
        assert complex_from_ideal(maximal_ideal(ctx)) == (0,)

    def test_two_points(self):
        ctx = context_of(2)
        I = SquareFreeIdeal(ctx, [0b11])  # (x1*x2)
        delta = complex_from_ideal(I)
        assert delta == (0b01, 0b10)
        assert reduced_cohomology(delta, Q) == {0: 1}

    def test_full_simplex_acyclic(self):
        assert reduced_cohomology((0b111,), Q) == {}

    def test_hollow_triangle_is_circle(self):
        ctx = context_of(3)
        I = SquareFreeIdeal(ctx, [0b111])
        assert reduced_cohomology(complex_from_ideal(I), Q) == {1: 1}

    def test_disjoint_edges(self):
        ctx = context_of(4)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"])
        # complex = two disjoint edges
        assert reduced_cohomology(complex_from_ideal(I), Q) == {0: 1}


class TestLink:
    def test_link_of_empty_face_is_identity(self):
        ctx = context_of(4)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"])
        delta = complex_from_ideal(I)
        assert link(delta, 0) == delta

    def test_link_of_nonface_rejected(self):
        ctx = context_of(2)
        I = SquareFreeIdeal(ctx, [0b11])
        delta = complex_from_ideal(I)
        with pytest.raises(ValueError):
            link(delta, 0b11)

    def test_link_path_midpoint(self):
        assert link((0b011, 0b110), 0b010) == (0b001, 0b100)

    def test_link_of_facet_is_empty(self):
        ctx = context_of(2)
        I = SquareFreeIdeal(ctx, [0b11])
        delta = complex_from_ideal(I)
        assert link(delta, 0b01) == (0,)

    def test_link_in_hollow_triangle(self):
        ctx = context_of(3)
        I = SquareFreeIdeal(ctx, [0b111])
        delta = complex_from_ideal(I)
        assert link(delta, 0b001) == (0b010, 0b100)  # two points x2, x3


class TestEuler:
    @given(proper_ideals())
    @settings(max_examples=80, deadline=None)
    def test_euler_equals_alternating_betti(self, I):
        delta = complex_from_ideal(I)
        coh = reduced_cohomology(delta, Q)
        assert reduced_euler_characteristic(delta) == sum(
            (-1) ** d * b for d, b in coh.items()
        )

    @given(proper_ideals())
    @settings(max_examples=40, deadline=None)
    def test_cone_is_acyclic(self, I):
        # cone the Stanley-Reisner complex over a fresh vertex
        n = I.context.n
        cone = tuple(F | (1 << n) for F in complex_from_ideal(I))
        assert reduced_cohomology(cone, Q) == {}
        assert reduced_euler_characteristic(cone) == 0


class TestHochster:
    def test_two_points_table(self):
        # S/(x1*x2) = two coordinate lines: H^1_m lives in degrees supported
        # on a single line (or degree 0), each one-dimensional
        ctx = context_of(2)
        I = SquareFreeIdeal(ctx, [0b11])
        table = hochster_table(I, Q)
        assert table == {(1, 0b00): 1, (1, 0b01): 1, (1, 0b10): 1}

    def test_example_intersection_planes(self):
        ctx = context_of(4)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"])
        table = hochster_table(I, Q)
        # depth row: one class in degree 0 from the disconnected complex
        assert {F: d for (i, F), d in table.items() if i == 1} == {0: 1}
        # top row: one class per plane, supported on that plane's variables
        assert {F: d for (i, F), d in table.items() if i == 2} == {
            0b0011: 1, 0b1100: 1,
        }

    @given(proper_ideals(max_n=4))
    @settings(max_examples=25, deadline=None)
    def test_against_dense_quotient_cech_oracle(self, I):
        table = hochster_table(I, Q)
        n = I.context.n
        for face in range(1 << n):
            # degree a with a_j = -1 exactly on `face`
            a = tuple(-1 if face & (1 << j) else 0 for j in range(n))
            for i in range(n + 1):
                got = table.get((i, face), 0)
                assert got == quotient_local_cohomology_dim(I, i, a)


class TestDepthAndFiniteLength:
    def test_depth_examples(self):
        ctx = context_of(4)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"])
        assert depth_quotient(I, Q) == 1
        m = maximal_ideal(context_of(3))
        assert depth_quotient(m, Q) == 0

    def test_cohen_macaulay_prime(self):
        ctx = context_of(4)
        I = primes(ctx, ["x1", "x2"])
        assert depth_quotient(I, Q) == 2

    def test_finite_length_rows(self):
        ctx = context_of(4)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"])
        assert finite_length(I, 1, Q)       # H^1_m(S/I) = k, concentrated in degree 0
        assert finite_length(I, 0, Q)       # zero row is vacuously finite length
        assert not finite_length(I, 2, Q)   # top row is the full E(k)-like row

    @given(proper_ideals())
    @settings(max_examples=40, deadline=None)
    def test_depth_bounded_by_dim(self, I):
        from svtlab.ideals import dim_quotient

        assert 0 <= depth_quotient(I, Q) <= dim_quotient(I)


class TestFieldDependence:
    def test_projective_plane_distinguishes_characteristic(self):
        # minimal 6-vertex triangulation of the real projective plane
        triangles = [
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
            (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
        ]
        delta = tuple(sorted(sum(1 << (v - 1) for v in t) for t in triangles))
        over_q = reduced_cohomology(delta, FieldSpec(0))
        over_f2 = reduced_cohomology(delta, FieldSpec(2))
        assert over_q.get(2, 0) == 0
        assert over_f2.get(2, 0) == 1
        assert over_f2.get(1, 0) == 1


FIELDS = [FieldSpec(0), FieldSpec(2), FieldSpec(3)]


def _ranked_links(run):
    """run()'s result and the arguments after the facets of each
    reduced_cohomology call it made, keyed by the link's facets."""
    real, calls = simplicial.reduced_cohomology, []

    def spy(lk, *args):
        calls.append((lk, args))
        return real(lk, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplicial, "reduced_cohomology", spy)
        return run(), calls


def _facet_intersections(I):
    """The faces that equal the intersection of the facets holding them,
    found by trying every subset of the variables."""
    facets = simplicial.stanley_reisner_facets(I)
    found = []
    for face in range(1 << I.context.n):
        holding = [f for f in facets if face & f == face]
        if holding and face == _meet(holding):
            found.append(face)
    return facets, found


def _meet(masks):
    out = masks[0]
    for m in masks[1:]:
        out &= m
    return out


class TestSkippedLinks:
    """The cone test and the facet-intersection walk against full elimination."""

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    @given(proper_ideals(min_n=1, max_n=7, max_gens=6))
    @settings(max_examples=120, deadline=None)
    # I = m: the EMPTY complex, whose only face is the empty one
    @example(I=maximal_ideal(context_of(3)))
    # I = (x1): a simplex on x2..x5, one facet and a cone over every vertex
    @example(I=SquareFreeIdeal(context_of(5), [0b00001]))
    # (x1, x2) cap (x3, x4): two disjoint edges, the facets meet in the empty face
    @example(I=primes(context_of(4), ["x1", "x2"], ["x3", "x4"]))
    # the real projective plane: facets meet in the empty face, 2-torsion
    @example(I=projective_plane_ideal())
    # links with equal facet sizes, different cohomology: lk x1 is the hollow
    # triangle on x2, x4, x5 and lk x2 the path x5-x1-x4-x3
    @example(I=SquareFreeIdeal(context_of(5), [0b00101, 0b10100, 0b11010]))
    # five triangles on five vertices each: lk x5 is a hollow tetrahedron on
    # x1..x4 with the triangle x2x3x6 (H~^2 = k), lk x2 is acyclic
    @example(I=SquareFreeIdeal(context_of(6), [0b001111, 0b100001, 0b111000]))
    def test_table_equals_all_faces_oracle(self, field, I):
        assert hochster_table(I, field) == hochster_table_all_faces(I, field)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    @given(proper_ideals(min_n=1, max_n=6, max_gens=5))
    @settings(max_examples=60, deadline=None)
    @example(I=projective_plane_ideal())
    # lk x1 and lk x2x3 are both the hollow tetrahedron on x4..x7: equal
    # links of different faces are each ranked
    @example(I=SquareFreeIdeal(context_of(7), [0b11, 0b101, 0b1111000]))
    def test_table_ranks_each_facet_intersection_once(self, field, I):
        facets, faces = _facet_intersections(I)
        _, calls = _ranked_links(lambda: hochster_table(I, field))
        expected = [tuple(f & ~face for f in facets if face & f == face) for face in faces]
        assert sorted(lk for lk, _ in calls) == sorted(expected)
        assert all(args == (field,) for _, args in calls)

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6),
                st.integers(0, n),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_cone_is_acyclic_without_elimination(self, drawn):
        n, masks, apex = drawn
        # any complex on n vertices, coned over a vertex old (apex < n) or new
        cone = maximal_faces(m | 1 << apex for m in masks)
        assert reduced_cohomology_by_elimination(cone) == {}
        with pytest.MonkeyPatch.context() as m:
            m.setattr(linalg, "rank", lambda *a: pytest.fail("a cone needs no rank"))
            assert reduced_cohomology(cone, Q) == {}


def _fixture(name):
    with open(fixture_path(name)) as fh:
        return parse_ideal_document(json.load(fh))


def _two_planes():
    return _fixture("two_planes.json")


class TestRowsBelow:
    """depth_quotient, the lowest row of the Hochster table."""

    def test_disconnected_link_needs_no_rank(self, monkeypatch):
        # two planes: the facets x1x2 and x3x4 have EMPTY links, and the
        # empty face's link is a graph, row 1 from its two components
        monkeypatch.setattr(linalg, "rank", lambda *a: pytest.fail("no coboundary is ranked"))
        assert depth_quotient(_two_planes(), Q) == 1

    def test_zero_and_unit_ideals_refuse(self):
        ctx = context_of(3)
        for I in (SquareFreeIdeal(ctx, []), SquareFreeIdeal(ctx, [0])):
            with pytest.raises(IdealDomainError):
                depth_quotient(I, Q)


def _simplex_boundary(n):
    """The boundary of the simplex on n vertices: every (n-1)-subset."""
    full = (1 << n) - 1
    return tuple(sorted(full ^ 1 << v for v in range(n)))


_RP2 = tuple(sorted(
    sum(1 << (v - 1) for v in t) for t in [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]
))


@st.composite
def complexes(draw, max_n=7):
    """Any complex on at most max_n vertices: no masks gives VOID, only the
    empty mask gives EMPTY."""
    n = draw(st.integers(1, max_n))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    return maximal_faces(masks)


@st.composite
def graphs(draw, max_n=7):
    """Any complex of dimension at most 1 on at most max_n vertices: VOID,
    EMPTY, or vertices and edges."""
    n = draw(st.integers(1, max_n))
    small = st.sampled_from([m for m in range(1 << n) if m.bit_count() <= 2])
    masks = draw(st.lists(small, max_size=10))
    return maximal_faces(masks)


class TestStarLemma:
    """H~^d(K) = H^d(K, st v) against elimination on every face of K."""

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    @given(complexes())
    @settings(max_examples=150, deadline=None)
    @example(delta=(0,))
    @example(delta=())
    # the hollow triangle: a circle
    @example(delta=(0b011, 0b101, 0b110))
    # the boundary of the 4-simplex: a 3-sphere
    @example(delta=_simplex_boundary(5))
    # two points: st v is one of them, the other carries H~^0
    @example(delta=(0b01, 0b10))
    # the real projective plane: 2-torsion, H~^1 and H~^2 over GF(2) only
    @example(delta=_RP2)
    def test_equals_elimination_on_every_face(self, field, delta):
        assert reduced_cohomology(delta, field) == reduced_cohomology_by_elimination(delta, field)

    @given(complexes(max_n=8))
    @settings(max_examples=150, deadline=None)
    @example(delta=_RP2)  # each vertex in five triangles: x1
    # x2, x3, x4, x5 in two facets each: x2
    @example(delta=(0b00111, 0b11010, 0b11100))
    # x5 in three facets, x1 in two
    @example(delta=(0b10011, 0b10101, 0b11000))
    def test_star_vertex_in_most_facets_lowest_on_ties(self, delta):
        facets, calls = delta, []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(simplicial, "relative_cohomology", lambda *a: calls.append(a[:2]) or {})
            reduced_cohomology(facets, Q)
        if max(map(int.bit_count, facets), default=0) <= 2:
            assert calls == []
        else:
            # the largest mask holds the highest vertex
            counts = [sum(f >> v & 1 for f in facets) for v in range(max(facets).bit_length())]
            v = counts.index(max(counts))
            assert calls == [([f for f in facets if not f >> v & 1], [f for f in facets if f >> v & 1])]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_boundary_of_simplex_needs_no_rank(self, n):
        # every face but the one opposite v lies in st v: one face, no coboundary
        with pytest.MonkeyPatch.context() as m:
            m.setattr(linalg, "rank", lambda *a: pytest.fail("one face needs no rank"))
            assert reduced_cohomology(_simplex_boundary(n), Q) == {n - 2: 1}

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    @given(graphs())
    @settings(max_examples=150, deadline=None)
    # the hollow triangle: E - V + c = 3 - 3 + 1
    @example(delta=(0b011, 0b101, 0b110))
    # two disjoint hollow triangles
    @example(delta=(0b000011, 0b000101, 0b000110, 0b011000, 0b101000, 0b110000))
    # the tree x1x2, x2x3, x2x4 and the isolated vertices x5, x6, which are
    # facets but not edges
    @example(delta=(0b000011, 0b000110, 0b001010, 0b010000, 0b100000))
    # one edge: contractible
    @example(delta=(0b11,))
    def test_graph_needs_no_rank(self, field, delta):
        full = reduced_cohomology_by_elimination(delta, field)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(linalg, "rank", lambda *a: pytest.fail("a graph needs no rank"))
            assert reduced_cohomology(delta, field) == full


@st.composite
def pairs(draw, max_n=7):
    """(K, L) with K on at most max_n vertices and L a subcomplex holding
    the empty face: some facets of K, K induced on a vertex subset, or
    faces of some facets of K."""
    n = draw(st.integers(1, max_n))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    delta = maximal_faces(masks)
    chosen = draw(st.lists(st.sampled_from(delta), min_size=1))
    kind = draw(st.sampled_from(["facets", "induced", "faces"]))
    if kind == "induced":
        vertices = draw(st.integers(0, (1 << n) - 1))
        inside = [f & vertices for f in delta]
    elif kind == "faces":
        inside = [f & draw(st.integers(0, (1 << n) - 1)) for f in chosen]
    else:
        inside = chosen
    return delta, maximal_faces(inside)


def _star(delta, v):
    return tuple(f for f in delta if f >> v & 1)


class TestRelativeKernel:
    """H^d(K, L) against dense elimination on every face of K outside L."""

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    @given(pairs())
    @settings(max_examples=150, deadline=None)
    @example(pair=(_RP2, _RP2))  # L = K: no faces outside L
    @example(pair=(_RP2, (0,)))  # L = EMPTY: H^d(K)
    @example(pair=(_RP2, _star(_RP2, 0)))  # L = st v: H~^d(K) again
    @example(pair=(_simplex_boundary(4), (0,)))
    def test_equals_elimination_outside_the_subcomplex(self, field, pair):
        delta, sub = pair
        outside = [f for f in delta if not contains(sub, f)]
        assert relative_cohomology(outside, sub, field) == (
            relative_cohomology_by_elimination(delta, sub, field)
        )

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    @given(pairs(), st.integers(-2, 7))
    @settings(max_examples=100, deadline=None)
    @example(pair=(_RP2, (0,)), max_degree=1)
    def test_degree_bound_keeps_the_lower_degrees(self, field, pair, max_degree):
        delta, sub = pair
        outside = [f for f in delta if not contains(sub, f)]
        full = relative_cohomology(outside, sub, field)
        assert relative_cohomology(outside, sub, field, max_degree) == {
            d: h for d, h in full.items() if d <= max_degree
        }
