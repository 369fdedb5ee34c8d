"""The local-cohomology table of a square-free monomial ideal.

For a square-free ideal I = (f_1, ..., f_r) the degree-a piece of the
localization S_{f_T} is one-dimensional exactly when every coordinate
that is negative in a lies in the support of f_T (a monomial survives
the localization iff its negative exponents can be cleared by the
inverted variables).  So the degree-a piece of the Cech complex depends
on a only through N = {j : a_j < 0}, and one finite sign complex per
"negativity pattern" N computes every graded piece of H^i_I(S).

The table is built by one of two walks over the same entries.

The pattern walk (pattern_table).  Per pattern N, position k of that
complex carries the k-subsets T of the generators with N contained in
the union of their supports.  The other subsets, those missing some j in
N, form the simplicial complex on the generators with facets
{t : j not in supp(f_t)} for j in N, and the long exact sequence against
the (acyclic) full simplex gives

    H^i_I(S)_N = H~^{i-2}({t : j not in supp(f_t)}, j in N),

which is Mustata's formula (G. Mustata, "Local cohomology at monomial
ideals", J. Symbolic Comput. 29, 2000) read on the generators.  By
Dowker's theorem (C. H. Dowker, "Homology groups of relations", Ann. of
Math. 56, 1952) the complex K_N on the variables of N with facets
N \\ supp(f_t), built from the same relation "j misses supp(f_t)", has the
same cohomology.  The walk computes every class on K_N with
simplicial.reduced_cohomology, and keys its memo by the generator-side
facets: patterns that share them share their cohomology, so each class is
computed once per table.

The Hochster walk.  Mustata's formula read through local duality is
Hochster's: dim H^i_I(S)_N = dim H^{n-i}_m(S/I)_{[n] \\ N} (M. Hochster,
"Cohen-Macaulay rings, combinatorics, and simplicial complexes", 1977).
So the table is simplicial.hochster_table(I, field) reindexed
(i, F) -> (n - i, [n] \\ F), a walk over the links of the intersections of
the t facets of the Stanley-Reisner complex, that is of the t minimal
primes.

local_cohomology_table takes the Hochster walk when t <= 2r and the
pattern walk otherwise; the rule and its measurements sit at
HOCHSTER_FACETS_PER_GENERATOR.  is_vanishing always takes the pattern
walk, so the sweep's vanishing side never runs on the Stanley-Reisner
complex that its combinatorial side (connectedness) reads.  Ranks are
taken exactly (integer elimination over Q, or mod p).

Multiplication by x_j sends pattern N to N \\ {j}.  L = K_{N \\ {j}} is the
subcomplex of K = K_N induced on N \\ {j}, and x_j is the restriction
H~^{i-2}(K) -> H~^{i-2}(L).  The faces of K outside L are those holding
j, so multiplication_rank passes the facets of K that hold j and the
facets of L to simplicial.relative_cohomology for h = H^*(K, L), and reads
the rank off the exact sequence
H^e(K, L) -> H~^e(K) -> H~^e(L) -> H^{e+1}(K, L), e = k - 2, with the
cohomology dimensions T(k, N) read from the table: rk_0 = 0 and, for
k = 1..i,

    rk_k = T(k, N) - h^{k-2} + T(k-1, N \\ {j}) - rk_{k-1}.

So h is computed only up to degree i - 2.  No cohomology basis is built,
and a map is onto iff its rank equals the target's entry in the table.

A CohomologyTable carries its ideal and field, and everything read off it
takes the table alone.  The variable cap is checked where a table is made:
in local_cohomology_table and pattern_table, and in the CLI before it
trusts a cached table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from . import simplicial
from .fields import FieldSpec
from .ideals import (
    CapExceededError,
    SquareFreeIdeal,
    bits,
    require_analyzable,
    stanley_reisner_facets,
)


@dataclass(frozen=True)
class EngineLimits:
    """The engine's one resource guard, the number of variables.

    Both walks rank complexes on at most n vertices: the pattern walk's
    K_N lives on N, and the Hochster walk's links live inside the facets
    of the Stanley-Reisner complex, subsets of [n].  So max_vars bounds
    the faces any one computation visits.  The generator count needs no
    cap of its own: minimized generators form an antichain, so by
    Sperner's theorem r <= C(n, n // 2), which is 70 at n = 8.
    """

    max_vars: int = 8

    def check(self, n: int):
        if n > self.max_vars:
            raise CapExceededError(
                f"{n} variables exceeds the engine cap {self.max_vars}"
                " (raise max_vars to override)"
            )


DEFAULT_LIMITS = EngineLimits()


# The 2^r sign complex, a test oracle that stays while perfbench/tracer.py wraps it.
@dataclass
class GradedComplex:
    """The Cech complex of one negativity pattern (the tests' oracle)."""

    r: int
    pattern: int
    supports: tuple  # generator support masks
    active: list  # active[k]: sorted list of k-subset masks of [r]

    def differential(self, k: int) -> list:
        """Sparse rows: sources = active[k], columns index active[k+1]."""
        if k < 0 or k >= self.r:
            return []
        src = self.active[k]
        tgt = {T: j for j, T in enumerate(self.active[k + 1])}
        rows = []
        for T in src:
            row = {}
            for s in range(self.r):
                b = 1 << s
                if T & b:
                    continue
                T2 = T | b
                j = tgt.get(T2)
                if j is not None:
                    row[j] = (-1) ** (T & (b - 1)).bit_count()
            rows.append(row)
        return rows


# A test oracle that stays while perfbench/tracer.py wraps it by name.  It
# visits all 2^r generator subsets, which no variable cap bounds, so it has none.
def build_graded_complex(I: SquareFreeIdeal, pattern: int) -> GradedComplex:
    supports = I.generators
    r = len(supports)
    unions = {0: 0}
    active: list = [[] for _ in range(r + 1)]
    if pattern == 0:
        active[0].append(0)
    # subsets in increasing mask order = lexicographic subset enumeration
    for T in range(1, 1 << r):
        low = T & -T
        u = unions[T ^ low] | supports[low.bit_length() - 1]
        unions[T] = u
        if pattern & u == pattern:
            active[T.bit_count()].append(T)
    return GradedComplex(r, pattern, supports, active)


@dataclass
class CohomologyTable:
    """Nonzero k-dimensions of the graded pieces H^i_I(S)_N."""

    ideal: SquareFreeIdeal
    field: FieldSpec
    dims: Dict[Tuple[int, int], int]  # (i, pattern mask) -> dim > 0

    @property
    def n(self) -> int:
        return self.ideal.context.n

    def dim(self, i: int, pattern: int) -> int:
        return self.dims.get((i, pattern), 0)

    def row(self, i: int) -> Dict[int, int]:
        return {p: d for (j, p), d in self.dims.items() if j == i}

    def is_row_zero(self, i: int) -> bool:
        for j, _ in self.dims:
            if j == i:
                return False
        return True

    def nonzero_rows(self) -> list:
        return sorted({i for i, _ in self.dims})

    @functools.cached_property
    def rows(self) -> tuple:
        """The nonzero entries as (i, pattern names, dim), sorted by i and
        then by the name lists compared as strings (x10 before x2).

        Built on first use, naming each distinct pattern once, so dims
        must not change after it; a cache hit sets them from the entry it
        read when that entry lists them in this order, so it builds none.
        """
        names_of = self.ideal.context.names_of
        named = {p: names_of(p) for _, p in self.dims}
        return tuple(sorted([(i, named[p], d) for (i, p), d in self.dims.items()]))

    def entries(self) -> list:
        """The rows as JSON-ready dicts."""
        return [{"i": i, "pattern": list(names), "dim": d} for i, names, d in self.rows]


# The Hochster walk builds the table when t <= 2r, with t the number of
# Stanley-Reisner facets (minimal primes) and r the number of generators.
# Each walk's time per ideal is the minimum of 25 runs (five rounds of
# five), summed in ms per pool: the benchmark's seed-1 pools (cold_analyze's
# 144 ideals, warm_analyze's 360 set-up ideals) and 48 seeded intersections
# of 2-5 coordinate primes at n 9..12 (CPython 3.11, one core of an Intel
# Xeon); in brackets, the ideals sent to the Hochster walk:
#
#   rule                  cold        warm set-up   prime intersections
#   pattern walk only   120.6  [0]     99.0   [0]      133.1  [0]
#   Hochster walk only   41.9 [144]   162.0 [360]        9.8 [48]
#   t <= r               88.6  [61]    98.0  [12]        9.8 [48]
#   t <= 1.5r            48.4 [129]    95.3  [54]        9.8 [48]
#   t <= 2r              42.1 [142]    95.3 [167]        9.8 [48]
#   t <= 3r              41.9 [144]   115.3 [275]        9.8 [48]
#   per-ideal best       41.9          88.4              9.8
#
# Few generators over many facets is where the pattern walk wins: its memo
# holds a handful of generator-side classes, while the Hochster walk
# visits every intersection of the t facets.
HOCHSTER_FACETS_PER_GENERATOR = 2


def local_cohomology_table(
    I: SquareFreeIdeal,
    field: FieldSpec = FieldSpec(0),
    limits: EngineLimits = DEFAULT_LIMITS,
) -> CohomologyTable:
    """Every graded piece of H^*_I(S), by the cheaper of the two walks.

    With t Stanley-Reisner facets and r generators, t <= 2r takes the
    Hochster table of S/I reindexed (i, F) -> (n - i, [n] \\ F), and
    otherwise the pattern walk (module docstring).
    """
    require_analyzable(I)
    limits.check(I.context.n)
    if len(stanley_reisner_facets(I)) > HOCHSTER_FACETS_PER_GENERATOR * I.r:
        dims = _pattern_dims(I, field)
    else:
        n, full = I.context.n, I.context.full_mask
        hochster = simplicial.hochster_table(I, field)
        dims = {(n - i, full & ~face): d for (i, face), d in hochster.items()}
    return CohomologyTable(I, field, dims)


def pattern_table(
    I: SquareFreeIdeal,
    field: FieldSpec = FieldSpec(0),
    limits: EngineLimits = DEFAULT_LIMITS,
) -> CohomologyTable:
    """Every graded piece of H^*_I(S) by the pattern walk alone."""
    require_analyzable(I)
    limits.check(I.context.n)
    return CohomologyTable(I, field, _pattern_dims(I, field))


def _pattern_dims(I: SquareFreeIdeal, field: FieldSpec) -> Dict[Tuple[int, int], int]:
    """The table's entries, one pattern class at a time.

    Patterns that are zero for every i are skipped without building a
    complex: N = {} (the Cech complex is the augmented full simplex),
    N not contained in the union of the supports (no active terms), and N
    disjoint from some generator's support (K_N is then the full simplex
    on N).
    """
    # misses[j]: the generators whose support does not contain variable j
    misses = [
        sum(1 << t for t, g in enumerate(I.generators) if not g >> j & 1)
        for j in range(I.context.n)
    ]
    union = I.support_union()
    memo: Dict[tuple, Dict[int, int]] = {}  # generator-side facets -> H~^*
    dims: Dict[Tuple[int, int], int] = {}
    patterns = []
    sub = union
    while sub:
        patterns.append(sub)
        sub = (sub - 1) & union
    for pattern in sorted(patterns):
        if any(not g & pattern for g in I.generators):
            continue
        key = simplicial.maximal_faces(misses[j] for j in bits(pattern))
        coh = memo.get(key)
        if coh is None:
            coh = memo[key] = simplicial.reduced_cohomology(_facets(I, pattern), field)
        for d, h in coh.items():
            dims[(d + 2, pattern)] = h
    return dims


def _facets(I: SquareFreeIdeal, pattern: int) -> tuple:
    """The facets N \\ supp(f_t) of K_N, sorted and irredundant."""
    return simplicial.maximal_faces(pattern & ~g for g in I.generators)


def is_vanishing(
    I: SquareFreeIdeal,
    i: int,
    field: FieldSpec = FieldSpec(0),
    limits: EngineLimits = DEFAULT_LIMITS,
) -> bool:
    """H^i_I(S) = 0, by the pattern walk whatever the ideal."""
    return pattern_table(I, field, limits).is_row_zero(i)


def cohomological_dimension(table: CohomologyTable) -> int:
    return max(table.nonzero_rows())


def q_invariant(table: CohomologyTable) -> Optional[int]:
    """Largest i with H^i_I(S) not artinian, or None when all are artinian."""
    full = table.ideal.context.full_mask
    bad = [i for i, p in table.dims if p != full]
    return max(bad) if bad else None


def multiplication_rank(table: CohomologyTable, i: int, variable: int, pattern: int) -> int:
    """Rank of x_j: H^i_I(S)_N -> H^i_I(S)_{N \\ {j}} for j in N.

    Patterns with j outside N change nothing under x_j and are
    isomorphisms, so only these comparison maps are computed.  The map is
    the restriction H~^{i-2}(K_N) -> H~^{i-2}(K_{N \\ {j}}) to the induced
    subcomplex, and its rank follows from the pair's exact sequence
    (module docstring).  The target is 0 when N \\ {j} is empty, and so is
    the rank.
    """
    I = table.ideal
    b = 1 << variable
    if not pattern & b:
        raise ValueError("the variable must lie in the source pattern")
    if not 0 <= i <= I.r:
        return 0
    target = pattern & ~b
    if not target:
        return 0
    # the faces of K_N outside K_{N \ {j}} are those holding j
    outside = [f for f in _facets(I, pattern) if f & b]
    h = simplicial.relative_cohomology(outside, _facets(I, target), table.field, i - 2)
    rank = 0
    for k in range(1, i + 1):
        rank = table.dim(k, pattern) - h.get(k - 2, 0) + table.dim(k - 1, target) - rank
    return rank


def is_multiplication_surjective(table: CohomologyTable, i: int, x: int) -> bool:
    """Surjectivity on H^i_I(S) of the square-free monomial whose support
    mask is x.

    Multiplication by a monomial factors through variable steps, and each
    step is an isomorphism on the graded pieces whose pattern it does not
    change; so surjectivity reduces to the comparison maps at (i, N, j)
    for j in x and j in N.  Each map is onto exactly when its rank
    equals the target's dimension, read from the table.
    """
    if not 0 < x <= table.ideal.context.full_mask:
        raise ValueError("the monomial needs a nonempty support inside the variable context")
    # only failures onto a nonzero target matter, so walk the nonzero row
    # entries whose pattern misses j; the source pattern is N | {j}
    row = sorted(table.row(i).items())
    for j in bits(x):
        b = 1 << j
        for target, dim in row:
            if target & b:
                continue
            if table.dim(i, target | b) == 0:
                return False
            if multiplication_rank(table, i, j, target | b) != dim:
                return False
    return True
