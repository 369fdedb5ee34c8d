import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_rank
from svtlab.fields import MAX_CHARACTERISTIC, FieldSpec
from svtlab.linalg import rank

FIELDS = [FieldSpec(0), FieldSpec(2), FieldSpec(3)]


@st.composite
def small_int_matrices(draw):
    """Dense matrices up to 12 x 12 with entries in -4..4 (non-unit pivots included)."""
    m = draw(st.integers(1, 12))
    row = st.lists(st.integers(-4, 4), min_size=m, max_size=m)
    return draw(st.lists(row, max_size=12))


@st.composite
def large_entry_matrices(draw):
    """Dense matrices up to 8 x 8 with entries in -5..5 or within 5 of +-10^30."""
    m = draw(st.integers(1, 8))
    entry = st.one_of(
        st.integers(-5, 5),
        st.integers(10**30 - 5, 10**30 + 5),
        st.integers(-(10**30) - 5, -(10**30) + 5),
    )
    return draw(st.lists(st.lists(entry, min_size=m, max_size=m), max_size=8))


class TestFieldSpec:
    def test_parse(self):
        assert FieldSpec.parse("0").characteristic == 0
        assert FieldSpec.parse("7").characteristic == 7
        assert FieldSpec.parse("QQ").characteristic == 0

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            FieldSpec(6)
        with pytest.raises(ValueError):
            FieldSpec(1)


class TestLargeCharacteristic:
    """Primality is deterministic Miller-Rabin, so large p answer at once."""

    def test_nineteen_digit_prime(self):
        p = 9223372036854775783  # the largest prime below 2^63
        assert FieldSpec(p).label() == f"GF({p})"

    @pytest.mark.parametrize(
        "n",
        [
            561,  # the least Carmichael number
            3825123056546413051,  # a strong pseudoprime to the bases 2..23
            318665857834031151167461,  # a strong pseudoprime to the bases 2..37
            1000000007 * 998244353,  # a product of two 10-digit primes
        ],
    )
    def test_rejects_pseudoprimes(self, n):
        with pytest.raises(ValueError, match="0 or a prime"):
            FieldSpec(n)

    def test_rejects_characteristic_at_the_bound(self):
        # the bound is itself a strong pseudoprime to every base used
        with pytest.raises(ValueError, match="must be below"):
            FieldSpec(MAX_CHARACTERISTIC)
        with pytest.raises(ValueError, match="must be below"):
            FieldSpec(10**40)


class TestRank:
    def test_identity(self):
        rows = [{0: 1}, {1: 1}, {2: 1}]
        assert rank(rows, FieldSpec(0)) == 3
        assert rank(rows, FieldSpec(3)) == 3

    def test_dependent_rows(self):
        rows = [{0: 1, 1: 2}, {0: 2, 1: 4}]
        assert rank(rows, FieldSpec(0)) == 1

    def test_characteristic_sensitivity(self):
        rows = [{0: 2}]
        assert rank(rows, FieldSpec(0)) == 1
        assert rank(rows, FieldSpec(2)) == 0

    def test_non_unit_pivots(self):
        # forces the cross-multiplication fallback (no +/-1 entries)
        rows = [{0: 2, 1: 3}, {0: 5, 1: 7}, {0: 7, 1: 10}]
        assert rank(rows, FieldSpec(0)) == 2

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_dense_fraction_elimination(self, seed):
        rng = random.Random(seed)
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        dense = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        sparse = [
            {j: v for j, v in enumerate(row) if v} for row in dense
        ]
        F = FieldSpec(0)
        expected = dense_rank(dense, F)
        assert rank(sparse, F) == expected
        # every minor is at most 3^5 * 5^(5/2) < 13600 in absolute value (Hadamard),
        # so no nonzero minor vanishes mod 65537 (101 divides some 4 x 4 minors)
        assert rank(sparse, FieldSpec(65537)) == expected

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    @given(dense=small_int_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_rank_over_each_field(self, field, dense):
        sparse = [{j: v for j, v in enumerate(row) if v} for row in dense]
        assert rank(sparse, field) == dense_rank(dense, field)

    @pytest.mark.parametrize(
        "p",
        [
            9223372036854775783,  # the largest prime below 2^63
            999999999999999999999743,  # the largest prime below 10^24
        ],
    )
    @given(dense=large_entry_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_rank_at_large_characteristic(self, p, dense):
        field = FieldSpec(p)
        sparse = [{j: v for j, v in enumerate(row) if v} for row in dense]
        assert rank(sparse, field) == dense_rank(dense, field)

    def test_explicit_zero_entries(self):
        Q = FieldSpec(0)
        assert rank([{0: 0}], Q) == 0
        assert rank([{0: 0, 1: 0}, {}], Q) == 0
        # a zero at a column the pivot row does not reach used to be divided by
        assert rank([{0: 2, 1: 0}, {0: 3, 1: 5}], Q) == 2
        assert rank([{0: 3, 1: 0}], FieldSpec(3)) == 0

    @pytest.mark.parametrize(
        "dense",
        [
            [[2, -4, 6], [1, 1, 0]],  # a row whose entries are all even is zero
            [[-1, -3, 0], [1, 3, 0], [0, -3, 5]],  # odd negative entries are 1
            # column 70 apart from column 6 (70 - 64) and from column 0
            [[0] * 70 + [1], [0] * 6 + [1] + [0] * 64, [1] + [0] * 69 + [-3]],
            [[1] + [0] * 74 + [1], [0] * 74 + [3, -1], [1] + [0] * 73 + [1, 2, 0]],
        ],
        ids=["even_row", "odd_negative", "column_70", "columns_past_64"],
    )
    def test_gf2_bit_rows(self, dense):
        sparse = [{j: v for j, v in enumerate(row) if v} for row in dense]
        assert rank(sparse, FieldSpec(2)) == dense_rank(dense, FieldSpec(2))

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    @given(dense=small_int_matrices(), keep=st.lists(st.booleans(), min_size=144, max_size=144))
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_rank_with_zeros_kept(self, field, dense, keep):
        # some zero entries are stored explicitly, as a caller may pass them
        width = len(dense[0]) if dense else 0
        sparse = [
            {j: v for j, v in enumerate(row) if v or keep[i * width + j]}
            for i, row in enumerate(dense)
        ]
        assert rank(sparse, field) == dense_rank(dense, field)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label())
    @given(row=st.lists(st.integers(-4, 4), max_size=12), zero_rows=st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_one_nonzero_row_with_zeros_kept(self, field, row, zero_rows):
        # at most one nonzero row once the zeros are dropped
        sparse = [dict(enumerate(row))] + [{0: 0, 1: field.characteristic}] * zero_rows
        dense = [row] + [[0] * len(row)] * zero_rows if row else []
        assert rank(sparse, field) == dense_rank(dense, field)

    def test_does_not_mutate_rows(self):
        # callers may keep the rows they rank; these rows hit the scaling
        # path over Q, cancel and reduce mod p
        rows = [{0: 2, 1: 3}, {0: 5, 1: 7}, {0: 7, 1: 10}, {0: 4, 1: 6}, {}, {2: 9}]
        snapshot = [dict(r) for r in rows]
        for field in FIELDS:
            rank(rows, field)
            assert rows == snapshot


class TestDenseRankOracle:
    """The dense elimination in tests/oracles.py that the sparse ranks are checked against."""

    def test_rational_arithmetic(self):
        # the second row is half the first: the pivot 2 is inverted as 1/2
        assert dense_rank([[2, 1], [1, Fraction(1, 2)]], FieldSpec(0)) == 1
        assert dense_rank([[2, 1], [4, 3]], FieldSpec(0)) == 2

    def test_prime_arithmetic(self):
        # det [[3, 1], [1, 2]] = 5; 7 reduces to 0 mod 7
        assert dense_rank([[3, 1], [1, 2]], FieldSpec(0)) == 2
        assert dense_rank([[3, 1], [1, 2]], FieldSpec(3)) == 2
        assert dense_rank([[3, 1], [1, 2]], FieldSpec(5)) == 1
        assert dense_rank([[7, 14]], FieldSpec(7)) == 0
