"""The local-cohomology table of a square-free monomial ideal.

For a square-free ideal I = (f_1, ..., f_r) the degree-a piece of the
localization S_{f_T} is one-dimensional exactly when every coordinate
that is negative in a lies in the support of f_T (a monomial survives
the localization iff its negative exponents can be cleared by the
inverted variables).  So the degree-a piece of the Cech complex depends
on a only through N = {j : a_j < 0}, and one finite sign complex per
"negativity pattern" N computes every graded piece of H^i_I(S).

Per pattern N, position k of that complex carries the k-subsets T of the
generators with N contained in the union of their supports.  The other
subsets, those missing some j in N, form the simplicial complex on the
generators with facets {t : j not in supp(f_t)} for j in N, and the long
exact sequence against the (acyclic) full simplex gives

    H^i_I(S)_N = H~^{i-2}({t : j not in supp(f_t)}, j in N),

which is Mustata's formula (G. Mustata, "Local cohomology at monomial
ideals", J. Symbolic Comput. 29, 2000) read on the generators.  By
Dowker's theorem (C. H. Dowker, "Homology groups of relations", Ann. of
Math. 56, 1952) the complex K_N on the variables of N with facets
N \\ supp(f_t), built from the same relation "j misses supp(f_t)", has the
same cohomology.  local_cohomology_table computes every class on K_N
with simplicial.reduced_cohomology, and keys its memo by the
generator-side facets: patterns that share them share their cohomology,
so each class is computed once per table call.  Ranks are taken exactly
(integer elimination over Q, or mod p).

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

No cohomology basis is built, and a map is onto iff its rank equals the
target's entry in the table.

A CohomologyTable carries its ideal and field, and everything read off it
takes the table alone.  The variable cap is checked where a table is made:
in local_cohomology_table, and in the CLI before it trusts a cached table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from . import simplicial
from .fields import FieldSpec
from .ideals import (
    CapExceededError,
    SquareFreeIdeal,
    SquareFreeMonomial,
    VariableContext,
    bits,
    popcount,
)


@dataclass(frozen=True)
class EngineLimits:
    """The engine's one resource guard, the number of variables.

    A pattern's complex K_N lives on |N| <= n vertices, so max_vars bounds
    the faces any one computation visits.  The generator count needs no
    cap of its own: minimized generators form an antichain, so by
    Sperner's theorem r <= C(n, n // 2), which is 70 at n = 8.
    """

    max_vars: int = 8

    def check(self, context: VariableContext):
        if context.n > self.max_vars:
            raise CapExceededError(
                f"{context.n} variables exceeds the engine cap {self.max_vars}"
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
                    row[j] = (-1) ** popcount(T & (b - 1))
            rows.append(row)
        return rows


# A test oracle that stays while perfbench/tracer.py wraps it by name.
def build_graded_complex(
    I: SquareFreeIdeal, pattern: int, limits: EngineLimits = DEFAULT_LIMITS
) -> GradedComplex:
    limits.check(I.context)
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
            active[popcount(T)].append(T)
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
        return not self.row(i)

    def nonzero_rows(self) -> list:
        return sorted({i for i, _ in self.dims})

    def entries(self) -> list:
        """Sorted JSON-ready triples, nonzero entries only."""
        names = self.ideal.context.names_of
        out = [
            {"i": i, "pattern": list(names(p)), "dim": d}
            for (i, p), d in self.dims.items()
        ]
        out.sort(key=lambda e: (e["i"], e["pattern"]))
        return out


def local_cohomology_table(
    I: SquareFreeIdeal,
    field: FieldSpec = FieldSpec(0),
    limits: EngineLimits = DEFAULT_LIMITS,
) -> CohomologyTable:
    """Every graded piece of H^*_I(S), one pattern class at a time.

    Patterns that are zero for every i are skipped without building a
    complex: N = {} (the Cech complex is the augmented full simplex),
    N not contained in the union of the supports (no active terms), and N
    disjoint from some generator's support (K_N is then the full simplex
    on N).
    """
    if not I.is_proper or I.is_zero:
        raise ValueError("local cohomology table needs a proper nonzero ideal")
    limits.check(I.context)
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
            delta = simplicial.SimplicialComplex._trusted(I.context.n, _facets(I, pattern))
            coh = memo[key] = simplicial.reduced_cohomology(delta, field)
        for d, h in coh.items():
            dims[(d + 2, pattern)] = h
    return CohomologyTable(I, field, dims)


def _facets(I: SquareFreeIdeal, pattern: int) -> tuple:
    """The facets N \\ supp(f_t) of K_N, sorted and irredundant."""
    return simplicial.maximal_faces(pattern & ~g for g in I.generators)


def is_vanishing(
    I: SquareFreeIdeal,
    i: int,
    field: FieldSpec = FieldSpec(0),
    limits: EngineLimits = DEFAULT_LIMITS,
) -> bool:
    return local_cohomology_table(I, field, limits).is_row_zero(i)


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
    h = simplicial.relative_cohomology(outside, _facets(I, target), table.field)
    rank = 0
    for k in range(1, i + 1):
        rank = table.dim(k, pattern) - h.get(k - 2, 0) + table.dim(k - 1, target) - rank
    return rank


def is_multiplication_surjective(table: CohomologyTable, i: int, x: SquareFreeMonomial) -> bool:
    """Surjectivity of x on H^i_I(S).

    Multiplication by a monomial factors through variable steps, and each
    step is an isomorphism on the graded pieces whose pattern it does not
    change; so surjectivity reduces to the comparison maps at (i, N, j)
    for j in supp(x) and j in N.  Each map is onto exactly when its rank
    equals the target's dimension, read from the table.
    """
    if x.is_unit:
        raise ValueError("multiplication by the unit monomial is trivially the identity")
    # only failures onto a nonzero target matter, so walk the nonzero row
    # entries whose pattern misses j; the source pattern is N | {j}
    row = sorted(table.row(i).items())
    for j in bits(x.support):
        b = 1 << j
        for target, dim in row:
            if target & b:
                continue
            if table.dim(i, target | b) == 0:
                return False
            if multiplication_rank(table, i, j, target | b) != dim:
                return False
    return True
