import pytest
from hypothesis import example, given, settings

from conftest import context_of, proper_ideals
from oracles import brute_force_quotient_height, prime_ideal

from svtlab import graphs
from svtlab.ideals import (
    SquareFreeIdeal,
    VariableContext,
    dim_quotient,
    is_m_primary,
    minimal_primes,
    popcount,
    sum_ideals,
)
from svtlab.graphs import (
    GAMMA,
    THETA,
    _quotient_height,
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


def quotient_height(I, mask):
    return _quotient_height(minimal_primes(I), mask)


class TestTheta:
    def test_example_43_connected(self):
        ctx = VariableContext(("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"))
        I = primes(ctx, ["x1", "x2", "x3"], ["y1", "y2", "y3"])
        G = theta_graph(I)
        assert G.kind == THETA
        assert len(G.vertices) == 2
        # q1+q2 leaves x4, y4 outside, so it is not m-primary: edge present
        assert G.edges == frozenset({(0, 1)})
        assert is_connected(G)

    def test_example_46_disconnected(self):
        ctx = context_of(6)
        I = primes(ctx, ["x1", "x2", "x3"], ["x4", "x5", "x6"])
        G = theta_graph(I)
        assert G.edges == frozenset()
        assert not is_connected(G)
        assert not punctured_spectrum_connected(I)

    def test_example_47_path(self):
        ctx = context_of(6)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"], ["x5", "x6"])
        G = theta_graph(I)
        # any two of the three 2-variable primes sum to a 4-variable prime:
        # never m-primary in 6 variables, so the graph is complete
        assert G.edges == frozenset({(0, 1), (0, 2), (1, 2)})
        assert punctured_spectrum_connected(I)

    def test_single_prime_connected(self):
        ctx = context_of(3)
        G = theta_graph(primes(ctx, ["x1"]))
        assert len(G.vertices) == 1 and is_connected(G)

    def test_two_planes_in_4_vars_disconnected(self):
        ctx = context_of(4)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"])
        assert not punctured_spectrum_connected(I)

    @given(proper_ideals(max_n=6, max_gens=6))
    @settings(max_examples=120, deadline=None)
    def test_edges_match_sum_of_primes_definition(self, I):
        # the definition, on ideal objects: p_i + p_j is not m-primary
        ps = minimal_primes(I)
        expected = {
            (i, j)
            for i in range(len(ps))
            for j in range(i + 1, len(ps))
            if not is_m_primary(sum_ideals(prime_ideal(ps[i]), prime_ideal(ps[j])))
        }
        assert theta_graph(I).edges == frozenset(expected)


class TestQuotientHeight:
    def test_example_43_sum(self):
        ctx = VariableContext(("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"))
        I = primes(ctx, ["x1", "x2", "x3"], ["y1", "y2", "y3"])
        union = ctx.mask_of(["x1", "x2", "x3", "y1", "y2", "y3"])
        assert quotient_height(I, union) == 3

    def test_height_zero_on_minimal_prime(self):
        ctx = context_of(4)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"])
        assert quotient_height(I, ctx.mask_of(["x1", "x2"])) == 0

    @given(proper_ideals(max_n=5))
    @settings(max_examples=60, deadline=None)
    @example(I=TWO_PLANES_AND_A_LINE)
    def test_matches_chain_oracle(self, I):
        # every coordinate prime containing I, mixed ideals included
        for mask in range(1, 1 << I.context.n):
            if all(g & mask for g in I.generators):
                assert quotient_height(I, mask) == brute_force_quotient_height(I, mask)


class TestGamma:
    def test_vertices_are_max_dimensional(self):
        ctx = context_of(4)
        # mixed: a line and a plane
        I = primes(ctx, ["x1", "x2", "x3"], ["x3", "x4"])
        G = gamma_graph(I)
        assert [p.label() for p in G.vertices] == ["P{x3,x4}"]

    def test_subgraph_of_theta_when_unmixed(self):
        ctx = context_of(6)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"], ["x5", "x6"])
        g = gamma_graph(I)
        t = theta_graph(I)
        assert g.vertices == t.vertices
        assert g.edges <= t.edges
        # no pair of these primes meets in codimension one in the quotient
        assert g.edges == frozenset()

    def test_edge_when_primes_overlap(self):
        ctx = context_of(3)
        I = primes(ctx, ["x1"], ["x2"])
        G = gamma_graph(I)
        assert G.edges == frozenset({(0, 1)})

    @given(proper_ideals())
    @settings(max_examples=60, deadline=None)
    def test_gamma_edges_within_theta_for_unmixed_dim_ge_2(self, I):
        ps = minimal_primes(I)
        if len({p.height for p in ps}) != 1 or dim_quotient(I) < 2:
            return
        assert gamma_graph(I).edges <= theta_graph(I).edges

    @given(proper_ideals(max_n=6, max_gens=6))
    @settings(max_examples=80, deadline=None)
    @example(I=TWO_PLANES_AND_A_LINE)
    def test_matches_the_definition(self, I):
        dim = dim_quotient(I)
        top = tuple(p for p in minimal_primes(I) if I.context.n - p.height == dim)
        expected = {
            (i, j)
            for i in range(len(top))
            for j in range(i + 1, len(top))
            if brute_force_quotient_height(I, top[i].variables | top[j].variables) == 1
        }
        G = gamma_graph(I)
        assert G.vertices == top and G.edges == frozenset(expected)

    def test_disjoint_pairs_give_the_cube(self, monkeypatch):
        # (x1x2, x3x4, ..., x11x12): the 2^6 primes pick one variable per
        # pair, and two meet in height one iff they differ in one pair
        ctx = context_of(12)
        I = SquareFreeIdeal.from_supports(ctx, [0b11 << 2 * k for k in range(6)])
        calls = []
        real = graphs.minimal_primes

        def spy(J):
            calls.append(J)
            return real(J)

        monkeypatch.setattr(graphs, "minimal_primes", spy)
        G = gamma_graph(I)
        assert len(calls) <= 1
        assert len(G.vertices) == 64 and len(G.edges) == 192
        for i, j in G.edges:
            assert popcount(G.vertices[i].variables ^ G.vertices[j].variables) == 2


class TestConnectivityHelpers:
    def test_to_dot(self):
        ctx = context_of(4)
        I = primes(ctx, ["x1", "x2"], ["x2", "x3"])
        dot = to_dot(theta_graph(I))
        assert dot.startswith("graph")
        assert 'P{x1,x2}' in dot and "v0 -- v1" in dot
