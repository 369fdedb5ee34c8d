import pytest
from hypothesis import example, given, settings

from conftest import context_of, proper_ideals
from oracles import brute_force_facets, brute_force_intersection_supports

from svtlab.ideals import (
    CapExceededError,
    ContextMismatchError,
    IdealDomainError,
    SquareFreeIdeal,
    VariableContext,
    dim_quotient,
    height,
    intersect,
    is_m_primary,
    minimal_primes,
    stanley_reisner_facets,
    sum_ideals,
)


def primes(ctx, *lists):
    return SquareFreeIdeal.intersection_of_primes(ctx, list(lists))


class TestContext:
    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            VariableContext(("x", "x"))

    def test_rejects_empty_names(self):
        with pytest.raises(ValueError):
            VariableContext(("x", ""))

    def test_rejects_too_many_variables(self):
        with pytest.raises(CapExceededError):
            VariableContext(tuple(f"x{i}" for i in range(17)))


class TestIntersect:
    def test_two_planes_derived(self):
        ctx = context_of(4)
        I = primes(ctx, ["x1", "x2"])
        J = primes(ctx, ["x3", "x4"])
        got = intersect(I, J)
        # oracle: enumerate all square-free monomials and test double membership
        assert list(got.generators) == brute_force_intersection_supports(I, J)
        assert got.generator_lists() == [
            ["x1", "x3"], ["x2", "x3"], ["x1", "x4"], ["x2", "x4"],
        ]

    def test_example_43_nine_products(self):
        ctx = VariableContext(("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"))
        I = primes(ctx, ["x1", "x2", "x3"], ["y1", "y2", "y3"])
        assert I.r == 9
        assert all(len(g) == 2 for g in I.generator_lists())

    def test_idempotent(self):
        ctx = context_of(4)
        I = SquareFreeIdeal.from_supports(ctx, [0b0011, 0b1100])
        assert intersect(I, I) == I

    def test_context_mismatch(self):
        I = SquareFreeIdeal.from_supports(context_of(3), [1])
        J = SquareFreeIdeal.from_supports(context_of(4), [1])
        with pytest.raises(ContextMismatchError):
            intersect(I, J)


class TestSum:
    def test_disjoint_primes(self):
        ctx = context_of(4)
        assert sum_ideals(
            primes(ctx, ["x1", "x2"]), primes(ctx, ["x3", "x4"])
        ) == SquareFreeIdeal.maximal(ctx)

    def test_example_43_sum_proper(self):
        ctx = VariableContext(("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"))
        s = sum_ideals(primes(ctx, ["x1", "x2", "x3"]), primes(ctx, ["y1", "y2", "y3"]))
        assert not s.is_unit
        assert not is_m_primary(s)  # y4 is missing

    def test_zero_neutral(self):
        ctx = context_of(3)
        I = SquareFreeIdeal.from_supports(ctx, [0b011])
        assert sum_ideals(I, SquareFreeIdeal(ctx, ())) == I

    def test_intersect_with_zero(self):
        ctx = context_of(3)
        I = SquareFreeIdeal.from_supports(ctx, [0b011, 0b100])
        zero = SquareFreeIdeal(ctx, ())
        assert intersect(I, zero).is_zero
        assert intersect(zero, I).is_zero


class TestMinimalPrimes:
    def test_example_47(self):
        ctx = context_of(6)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"], ["x5", "x6"])
        labels = [p.label() for p in minimal_primes(I)]
        assert labels == ["P{x1,x2}", "P{x3,x4}", "P{x5,x6}"]

    def test_principal(self):
        ctx = context_of(2)
        I = SquareFreeIdeal.from_supports(ctx, [0b11])
        assert [p.label() for p in minimal_primes(I)] == ["P{x1}", "P{x2}"]

    def test_example_43(self):
        ctx = VariableContext(("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"))
        I = primes(ctx, ["x1", "x2", "x3"], ["y1", "y2", "y3"])
        assert [p.label() for p in minimal_primes(I)] == [
            "P{x1,x2,x3}", "P{y1,y2,y3}",
        ]

    def test_rejects_zero_and_unit(self):
        ctx = context_of(3)
        with pytest.raises(IdealDomainError):
            minimal_primes(SquareFreeIdeal(ctx, ()))
        with pytest.raises(IdealDomainError):
            minimal_primes(SquareFreeIdeal.from_supports(ctx, [0]))

    @given(proper_ideals())
    @settings(max_examples=120, deadline=None)
    def test_duality_with_facets(self, I):
        # transversal search vs complements of the enumerated facets:
        # stanley_reisner_facets shares the search, so the oracle enumerates
        if I.is_zero or I.is_unit:
            return
        full = I.context.full_mask
        via_transversals = sorted(p.variables for p in minimal_primes(I))
        via_facets = sorted(full & ~F for F in brute_force_facets(I))
        assert via_transversals == via_facets
        assert stanley_reisner_facets(I) == tuple(brute_force_facets(I))

    @given(proper_ideals(min_n=1, max_n=10, max_gens=12))
    @settings(max_examples=150, deadline=None)
    # the candidate x1x2 holds x1, which is kept for meeting x1x3: the
    # smallest ideal whose search needs the filter against kept transversals
    @example(I=SquareFreeIdeal.from_supports(context_of(3), [0b011, 0b101]))
    def test_duality_at_the_engine_sizes(self, I):
        full = I.context.full_mask
        via_transversals = sorted(p.variables for p in minimal_primes(I))
        assert via_transversals == sorted(full & ~F for F in brute_force_facets(I))


class TestIsMPrimary:
    def test_maximal(self):
        ctx = context_of(4)
        assert is_m_primary(SquareFreeIdeal.maximal(ctx))

    def test_example_46_blocks(self):
        ctx = context_of(6)
        q1 = primes(ctx, ["x1", "x2", "x3"])
        q2 = primes(ctx, ["x4", "x5", "x6"])
        assert is_m_primary(sum_ideals(q1, q2))

    def test_prime_sum_iff_union_full(self):
        ctx = context_of(4)
        p = primes(ctx, ["x1", "x2"])
        q = primes(ctx, ["x2", "x3"])
        assert not is_m_primary(sum_ideals(p, q))
        r = primes(ctx, ["x3", "x4"])
        assert is_m_primary(sum_ideals(p, r))

    def test_zero_and_unit_are_not_m_primary(self):
        ctx = context_of(3)
        assert not is_m_primary(SquareFreeIdeal(ctx, ()))
        assert not is_m_primary(SquareFreeIdeal.from_supports(ctx, [0]))


class TestStanleyReisner:
    def test_principal_two_points(self):
        ctx = context_of(2)
        I = SquareFreeIdeal.from_supports(ctx, [0b11])
        assert stanley_reisner_facets(I) == (0b01, 0b10)

    def test_two_planes_derived(self):
        ctx = context_of(4)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"])
        assert list(stanley_reisner_facets(I)) == brute_force_facets(I)
        assert stanley_reisner_facets(I) == (0b0011, 0b1100)

    def test_maximal_ideal_empty_complex(self):
        ctx = context_of(2)
        assert stanley_reisner_facets(SquareFreeIdeal.maximal(ctx)) == (0,)


class TestDimensions:
    def test_example_43(self):
        ctx = VariableContext(("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"))
        I = primes(ctx, ["x1", "x2", "x3"], ["y1", "y2", "y3"])
        assert dim_quotient(I) == 5
        assert height(I) == 3

    def test_maximal(self):
        ctx = context_of(3)
        m = SquareFreeIdeal.maximal(ctx)
        assert dim_quotient(m) == 0
        assert height(m) == 3

    def test_two_planes(self):
        ctx = context_of(4)
        I = primes(ctx, ["x1", "x2"], ["x3", "x4"])
        assert dim_quotient(I) == 2
        assert height(I) == 2

    @given(proper_ideals())
    @settings(max_examples=60, deadline=None)
    def test_height_dim_complement_when_unmixed(self, I):
        if I.is_zero or I.is_unit:
            return
        heights = {p.height for p in minimal_primes(I)}
        if len(heights) == 1:
            assert height(I) + dim_quotient(I) == I.context.n


class TestAlgebraicLaws:
    @given(proper_ideals(), proper_ideals())
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, I, J):
        if I.context != J.context:
            return
        assert intersect(I, J) == intersect(J, I)
        assert sum_ideals(I, J) == sum_ideals(J, I)

    @given(proper_ideals(max_n=4), proper_ideals(max_n=4), proper_ideals(max_n=4))
    @settings(max_examples=40, deadline=None)
    def test_associativity(self, I, J, K):
        if not (I.context == J.context == K.context):
            return
        assert intersect(intersect(I, J), K) == intersect(I, intersect(J, K))
        assert sum_ideals(sum_ideals(I, J), K) == sum_ideals(I, sum_ideals(J, K))

    @given(proper_ideals())
    @settings(max_examples=60, deadline=None)
    def test_minimization_is_closure(self, I):
        # rebuilding from the stored generators changes nothing
        assert SquareFreeIdeal.from_supports(I.context, I.generators) == I
