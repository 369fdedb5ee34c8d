import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import context_of, proper_ideals, seeded_random_ideals
from oracles import bfs_components, brute_force_quotient_height, prime_ideal

from svtlab import graphs
from svtlab.ideals import (
    SquareFreeIdeal,
    VariableContext,
    dim_quotient,
    is_m_primary,
    minimal_primes,
    sum_ideals,
)
from svtlab.graphs import (
    components,
    gamma_graph,
    is_connected,
    punctured_spectrum_connected,
    theta_graph,
    to_dot,
)


def primes(ctx, *lists):
    return SquareFreeIdeal.intersection_of_primes(ctx, list(lists))


# two planes meeting only at the origin, and a line meeting each of them:
# m has height 2 in S/I, by a chain through the line (x1,x3,x4) or (x2,x3,x5)
TWO_PLANES_AND_A_LINE = primes(
    context_of(5), ["x1", "x2", "x4", "x5"], ["x1", "x3", "x4"], ["x2", "x3", "x5"]
)

# three lines through the origin of 3-space: every pair's union holds the
# third prime, which has the least height, so each pair meets in height one
THREE_COORDINATE_AXES = primes(context_of(3), ["x1", "x2"], ["x2", "x3"], ["x1", "x3"])


@st.composite
def sparse_graphs(draw):
    """Graphs on 1..12 vertices with at most twice as many edges, so often
    with isolated vertices and several components."""
    t = draw(st.integers(1, 12))
    ends = st.integers(0, t - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=2 * t))
    edges = tuple(sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b}))
    vertices = tuple(1 << v for v in range(t))
    return vertices, edges


class TestTheta:
    def test_example_43_connected(self):
        ctx = VariableContext(("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"))
        I = primes(ctx, ["x1", "x2", "x3"], ["y1", "y2", "y3"])
        vertices, edges = theta_graph(I)
        assert len(vertices) == 2
        # q1+q2 leaves x4, y4 outside, so it is not m-primary: edge present
        assert edges == ((0, 1),)
        assert is_connected(vertices, edges)

    def test_example_46_disconnected(self):
        ctx = context_of(6)
        I = primes(ctx, ["x1", "x2", "x3"], ["x4", "x5", "x6"])
        vertices, edges = theta_graph(I)
        assert edges == ()
        assert not is_connected(vertices, edges)
        assert not punctured_spectrum_connected(I)

    def test_example_47_path(self):
        ctx = context_of(6)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"], ["x5", "x6"])
        _, edges = theta_graph(I)
        # any two of the three 2-variable primes sum to a 4-variable prime:
        # never m-primary in 6 variables, so the graph is complete
        assert edges == ((0, 1), (0, 2), (1, 2))
        assert punctured_spectrum_connected(I)

    def test_single_prime_connected(self):
        ctx = context_of(3)
        vertices, edges = theta_graph(primes(ctx, ["x1"]))
        assert len(vertices) == 1 and edges == () and is_connected(vertices, edges)

    def test_two_planes_in_4_vars_disconnected(self):
        ctx = context_of(4)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"])
        assert not punctured_spectrum_connected(I)

    @given(proper_ideals(max_n=6, max_gens=6))
    @settings(max_examples=120, deadline=None)
    def test_edges_match_sum_of_primes_definition(self, I):
        # the definition, on ideal objects: p_i + p_j is not m-primary
        ps = minimal_primes(I)
        expected = tuple(
            (i, j)
            for i in range(len(ps))
            for j in range(i + 1, len(ps))
            if not is_m_primary(
                sum_ideals(prime_ideal(I.context, ps[i]), prime_ideal(I.context, ps[j]))
            )
        )
        assert theta_graph(I) == (ps, expected)


class TestGamma:
    def test_vertices_are_max_dimensional(self):
        ctx = context_of(4)
        # mixed: a line and a plane
        I = primes(ctx, ["x1", "x2", "x3"], ["x3", "x4"])
        vertices, edges = gamma_graph(I)
        assert [ctx.prime_label(p) for p in vertices] == ["P{x3,x4}"]
        assert edges == ()

    def test_subgraph_of_theta_when_unmixed(self):
        ctx = context_of(6)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"], ["x5", "x6"])
        g_vertices, g_edges = gamma_graph(I)
        t_vertices, t_edges = theta_graph(I)
        assert g_vertices == t_vertices
        assert set(g_edges) <= set(t_edges)
        # no pair of these primes meets in codimension one in the quotient
        assert g_edges == ()

    def test_edge_when_primes_overlap(self):
        ctx = context_of(3)
        I = primes(ctx, ["x1"], ["x2"])
        _, edges = gamma_graph(I)
        assert edges == ((0, 1),)

    @given(proper_ideals())
    @settings(max_examples=60, deadline=None)
    def test_gamma_edges_within_theta_for_unmixed_dim_ge_2(self, I):
        ps = minimal_primes(I)
        if len({p.bit_count() for p in ps}) != 1 or dim_quotient(I) < 2:
            return
        assert set(gamma_graph(I)[1]) <= set(theta_graph(I)[1])

    @given(proper_ideals(max_n=6, max_gens=6))
    @settings(max_examples=80, deadline=None)
    @example(I=TWO_PLANES_AND_A_LINE)
    @example(I=THREE_COORDINATE_AXES)
    def test_matches_the_definition(self, I):
        # the chain oracle, not the size rule gamma_graph uses
        dim = dim_quotient(I)
        top = tuple(p for p in minimal_primes(I) if I.context.n - p.bit_count() == dim)
        expected = tuple(
            (i, j)
            for i in range(len(top))
            for j in range(i + 1, len(top))
            if brute_force_quotient_height(I, top[i] | top[j]) == 1
        )
        assert gamma_graph(I) == (top, expected)

    def test_disjoint_pairs_give_the_cube(self, monkeypatch):
        # (x1x2, x3x4, ..., x11x12): the 2^6 primes pick one variable per
        # pair, and two meet in height one iff they differ in one pair
        ctx = context_of(12)
        I = SquareFreeIdeal(ctx, [0b11 << 2 * k for k in range(6)])
        calls = []
        real = graphs.minimal_primes

        def spy(J):
            calls.append(J)
            return real(J)

        monkeypatch.setattr(graphs, "minimal_primes", spy)
        vertices, edges = gamma_graph(I)
        assert len(calls) <= 1
        assert len(vertices) == 64 and len(edges) == 192
        assert edges == tuple(sorted(edges))
        for i, j in edges:
            assert (vertices[i] ^ vertices[j]).bit_count() == 2


class TestConnectivityHelpers:
    def test_to_dot(self):
        ctx = context_of(4)
        I = primes(ctx, ["x1", "x2"], ["x2", "x3"])
        dot = to_dot("theta", *theta_graph(I), ctx)
        assert dot.startswith("graph theta {")
        assert 'P{x1,x2}' in dot and "v0 -- v1" in dot


class TestComponents:
    @given(sparse_graphs())
    @settings(max_examples=200, deadline=None)
    def test_matches_breadth_first_search(self, G):
        vertices, edges = G
        count = bfs_components(len(vertices), edges)
        assert components(vertices, edges) == count
        assert is_connected(vertices, edges) == (count == 1)

    def test_theta_and_gamma_of_seeded_ideals(self):
        rng = random.Random(18)
        sample = []
        for n in range(3, 8):
            sample += seeded_random_ideals(n, 40, seed=n)
            for _ in range(40):
                lists = [rng.sample(context_of(n).names, rng.randint(1, n - 1))
                         for _ in range(rng.randint(1, 4))]
                sample.append(primes(context_of(n), *lists))
        counts = {"theta": set(), "gamma": set()}
        for I in sample:
            for kind, (vertices, edges) in (("theta", theta_graph(I)), ("gamma", gamma_graph(I))):
                count = components(vertices, edges)
                assert count == bfs_components(len(vertices), edges)
                counts[kind].add(count)
        # the sample is not all connected, on either graph
        assert counts["theta"] >= {1, 2, 3} and counts["gamma"] >= {1, 2}

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            components((), ())
        with pytest.raises(ValueError):
            is_connected((), ())
