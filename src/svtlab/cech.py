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
trusts a cached table.  A table is its dims, and it leaves as its `text`, in
payloads and cache entries alike, rendered from the dims on a miss.
CohomologyTable.from_entries checks what the cache reads and renders each
entry with the same row template as it checks it, so a hit on an entry in
the table's order keeps the entry's own text.
"""

from __future__ import annotations

import functools
import json
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
    return GradedComplex(r, active)


_ESCAPE = json.encoder.encode_basestring_ascii
# A table's text: its {"dim", "i", "pattern"} objects, and the list of them,
# as json.dumps(..., indent=2, sort_keys=True) writes them at a top-level key.
_ROW = '{\n      "dim": %d,\n      "i": %d,\n      "pattern": [\n        %s\n      ]\n    }'
_SEP = ",\n        "  # between the escaped names of a row's pattern


def _listed(rows: list) -> str:
    return "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"


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
    def text(self) -> str:
        """The nonzero entries as JSON text, where payloads and cache entries
        hold a table, sorted by i and then by the name lists compared as
        strings (x10 before x2).  Rendered from dims on first use, naming
        each distinct pattern once and escaping each name once, so dims must
        not change after it; no pattern is empty (N = {} is zero)."""
        names_of = self.ideal.context.names_of
        named = {p: names_of(p) for _, p in self.dims}
        escaped = {s: _ESCAPE(s) for s in self.ideal.context.names}
        rows = sorted([(i, named[p], d) for (i, p), d in self.dims.items()])
        return _listed([_ROW % (d, i, _SEP.join([escaped[s] for s in names])) for i, names, d in rows])

    @classmethod
    def from_entries(cls, I: SquareFreeIdeal, field: FieldSpec, entries) -> "CohomologyTable":
        """The table of entries parsed from `text`, each trusted only if
        local_cohomology_table could have made it: 0 <= i <= n, a non-empty
        pattern inside the union of the generator supports, a positive
        integer dimension, no (i, pattern) twice, and at least one entry,
        since H^{ht I}_I(S) is nonzero; else ValueError, TypeError or
        KeyError.  Each entry is rendered as it is checked, and entries in
        the order `text` lists them become its text, so such a hit renders
        none from dims."""
        n = I.context.n
        union = I.support_union()
        dims, rows, last, ordered = {}, [], (), True
        for e in entries:
            i, names, d = e["i"], e["pattern"], e["dim"]
            if not isinstance(names, list):
                raise TypeError("cached pattern must be a list of variable names")
            mask, in_order = I.context.ordered_mask(names)
            if type(i) is not int or not 0 <= i <= n:
                raise ValueError(f"cached degree {i!r} is outside 0..{n}")
            if not mask or mask & ~union:
                raise ValueError("cached pattern is empty or outside the support union")
            if type(d) is not int or d <= 0:
                raise ValueError("cached dimension must be a positive integer")
            if (i, mask) in dims:
                raise ValueError("cached entry repeats a degree and pattern")
            dims[(i, mask)] = d
            rows.append(_ROW % (d, i, _SEP.join([_ESCAPE(s) for s in names])))
            ordered, last = ordered and in_order and (i, names) > last, (i, names)
        if not dims:
            raise ValueError("a cached table of a proper nonzero ideal cannot be empty")
        table = cls(I, field, dims)
        if ordered:
            table.text = _listed(rows)
        return table


# The Hochster walk builds the table when t <= 2r, with t the number of
# Stanley-Reisner facets (minimal primes) and r the number of generators.
# Each walk's time per ideal is the minimum of 25 runs (five rounds of
# five), summed in ms per pool: the benchmark's seed-1 pools (cold_analyze's
# 144 ideals, warm_analyze's 360 set-up ideals) and 48 seeded intersections
# of 2-5 coordinate primes of 2..n-2 variables at n 9..12 (CPython 3.11,
# one core of an Intel Xeon, graphs read without a rank, GF(2) then ranked
# on bit rows; the shared echelon adds 2.6 ms (Hochster walk) to 4.6 ms
# (pattern walk) to the 72 GF(2) cold tables, and moves no rule past
# another); in brackets, the ideals sent to the Hochster walk:
#
#   rule                  cold        warm set-up   prime intersections
#   pattern walk only   111.0  [0]     93.3   [0]      103.0  [0]
#   Hochster walk only   30.4 [144]   121.2 [360]        9.5 [48]
#   t <= r               79.5  [61]    92.3  [12]        9.5 [48]
#   t <= 1.5r            38.2 [129]    89.5  [54]        9.5 [48]
#   t <= 2r              31.1 [142]    85.8 [167]        9.5 [48]
#   t <= 3r              30.4 [144]    93.9 [275]        9.5 [48]
#   per-ideal best       30.4          79.1              9.5
#
# No rule beats t <= 2r on both pools: t <= 3r saves 0.7 ms cold and
# costs 8.1 ms warm.
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

    Only the nonempty submasks N of the union of the supports are visited,
    in increasing order (N = {} and N outside the union are zero for every
    i).  N is skipped without building a complex when the misses of its
    variables meet, that is when some generator's support misses N (K_N is
    then the full simplex on N); that meet is carried from N minus its
    lowest variable.
    """
    # misses[j]: the generators whose support does not contain variable j
    misses = [
        sum(1 << t for t, g in enumerate(I.generators) if not g >> j & 1)
        for j in range(I.context.n)
    ]
    union = I.support_union()
    memo: Dict[tuple, Dict[int, int]] = {}  # generator-side facets -> H~^*
    dims: Dict[Tuple[int, int], int] = {}
    meet = {0: (1 << I.r) - 1}  # meet[N]: the generators whose support misses N
    pattern = 0
    while pattern := (pattern - union) & union:
        low = pattern & -pattern
        cone = meet[pattern] = meet[pattern ^ low] & misses[low.bit_length() - 1]
        if cone:
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
