"""Simplicial complexes, reduced cohomology, and the Hochster table.

Faces are bitmasks over the ambient vertex set.  The degenerate cases are
kept apart on purpose: VOID has no faces at all, EMPTY has exactly the
empty face, and Hochster's formula needs H~^{-1}(EMPTY) = k.

Hochster's formula (M. Hochster, "Cohen-Macaulay rings, combinatorics, and
simplicial complexes", 1977) reads H^i_m(S/I)_F = H~^{i-|F|-1}(lk F) for the
Stanley-Reisner complex of I.  Five facts keep it cheap:

- One kernel, relative_cohomology, gives H^d(K, L) for a subcomplex L
  holding the empty face: the faces of K outside L are upward closed, and
  their cochains form a subcomplex with K's signs, so only those faces
  are enumerated and only their coboundaries ranked.  Star lemma: the
  star st v (the faces whose union with v is a face) is a cone over v, so
  H~^d(K) = H^d(K, st v); reduced_cohomology takes L = st v for a vertex
  in the most facets, and a cone (st v = K) leaves no faces at all.
- The facets of lk F are G minus F for the facets G that contain F, so
  lk F is a cone exactly when those facets meet in more than F.  Only a
  face that is an intersection of facets (the empty face included when
  all facets meet in it) can carry cohomology, and hochster_table visits
  only those.
- Reduced cohomology does not see vertex names, so hochster_table keys
  each link by its facets with their vertex union relabelled 0..k-1 in
  order, and ranks one complex per key; the memo lives for one call.
- depth_quotient builds only the rows below the smallest facet size m
  (a facet's link is EMPTY, so row m is nonzero): hochster_table(I, k, m)
  needs from lk F only the degrees d <= m - |F| - 2, reads d = 0 from
  the components of the link without a rank, and ranks no coboundary
  above the bound.
- S/P for a coordinate prime P is a polynomial ring in d = n - ht P
  variables (its complex is a simplex), so H^i_m(S/P) is nonzero only at
  i = d; analysis.svt_check uses that instead of a table per prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from . import linalg
from .fields import FieldSpec
from .ideals import (
    SquareFreeIdeal,
    popcount,
    stanley_reisner_facets,
)


@dataclass(frozen=True)
class SimplicialComplex:
    n: int  # ambient vertex count
    facets: tuple  # irredundant bitmasks; () is the VOID complex

    def __post_init__(self):
        facets = tuple(sorted(set(self.facets)))
        if any(
            f != g and f & g == f for f in facets for g in facets
        ):
            raise ValueError("facet list must be irredundant")
        object.__setattr__(self, "facets", facets)

    @classmethod
    def _trusted(cls, n: int, facets: tuple) -> "SimplicialComplex":
        """A complex on facets already sorted and irredundant, not re-checked."""
        delta = object.__new__(cls)
        delta.__dict__.update(n=n, facets=facets)
        return delta

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_empty(self) -> bool:
        return self.facets == (0,)

    def contains(self, face: int) -> bool:
        return any(face & f == face for f in self.facets)


def complex_from_ideal(I: SquareFreeIdeal) -> SimplicialComplex:
    """Stanley-Reisner complex of a proper square-free ideal."""
    return SimplicialComplex(I.context.n, stanley_reisner_facets(I))


# Used by the tests only; stays while perfbench/tracer.py wraps it by name.
def link(delta: SimplicialComplex, face: int) -> SimplicialComplex:
    """{G : G disjoint from face, G union face in delta}."""
    if not delta.contains(face):
        raise ValueError("face is not in the complex")
    # G1 - F inside G2 - F forces G1 inside G2, so these facets are
    # irredundant, and taking the same bits from each keeps their order
    facets = tuple(f & ~face for f in delta.facets if face & f == face)
    return SimplicialComplex._trusted(delta.n, facets)


def _relabelled(facets: tuple) -> SimplicialComplex:
    """The complex on facets with their vertex union renamed 0..k-1 in order."""
    union = 0
    for f in facets:
        union |= f
    out = []
    for f in facets:
        g, k, rest = 0, 1, union
        while rest:
            low = rest & -rest
            if f & low:
                g |= k
            k <<= 1
            rest ^= low
        out.append(g)
    return SimplicialComplex._trusted(popcount(union), tuple(sorted(out)))


def maximal_faces(masks) -> tuple:
    """The inclusion-maximal masks among `masks`, sorted."""
    kept = []
    for m in sorted(set(masks), key=popcount, reverse=True):
        if not any(m & k == m for k in kept):
            kept.append(m)
    return tuple(sorted(kept))


def _coboundary_rows(src: list, tgt: list) -> list:
    """Rows = faces in src (c vertices), columns = faces in tgt (c+1 vertices).

    The entry at (G minus v, G) is (-1)^(number of vertices of G below v);
    a G minus v outside src (a relative complex) gives no entry.
    """
    row_of = {f: i for i, f in enumerate(src)}
    rows = [{} for _ in src]
    for j, g in enumerate(tgt):
        sign = 1
        rest = g
        while rest:
            b = rest & -rest
            i = row_of.get(g ^ b)
            if i is not None:
                rows[i][j] = sign
            sign = -sign
            rest ^= b
    return rows


def relative_cohomology(outside, inside, field: FieldSpec, max_degree=None) -> Dict[int, int]:
    """dims of H^d(K, L; k) for 0 <= d <= max_degree (None: every d), nonzero only.

    L is a subcomplex of K holding the empty face, with facets `inside`;
    `outside` are the facets of K not in L, and every face of K outside L
    lies in one of them.
    """
    top = max(map(popcount, outside), default=0)
    levels = [set() for _ in range(top + 1)]
    for f in outside:
        levels[popcount(f)].add(f)
    # every face of a face outside L is outside L or in L
    for c in range(top, 1, -1):
        seen = set()
        for g in levels[c]:
            rest = g
            while rest:
                low = rest & -rest
                rest ^= low
                h = g ^ low
                if h not in seen:
                    seen.add(h)
                    if all(h & s != h for s in inside):
                        levels[c - 1].add(h)
    levels = [sorted(level) for level in levels]
    # H^d reads the faces with c = d + 1 vertices
    last = top if max_degree is None else min(top, max_degree + 1)
    # ranks[c]: rank of the coboundary from faces with c vertices to c + 1
    ranks = [0] * (top + 1)
    for c in range(1, min(last + 1, top)):
        if levels[c] and levels[c + 1]:
            ranks[c] = linalg.rank(_coboundary_rows(levels[c], levels[c + 1]), field)
    dims = {c - 1: len(levels[c]) - ranks[c] - ranks[c - 1] for c in range(1, last + 1)}
    return {d: h for d, h in dims.items() if h}


def reduced_cohomology(delta: SimplicialComplex, field: FieldSpec, max_degree=None) -> Dict[int, int]:
    """dims of H~^d(delta; k) for -1 <= d <= max_degree, nonzero entries only.

    Conventions: all dims of VOID are 0, and H~^{-1}(EMPTY) = 1.  Up to
    degree 0 no rank is needed: H~^0 has dimension (components - 1).
    Otherwise the dims are those of H^d(delta, st v) (the star lemma
    above), with v a vertex in the most facets and the lowest of those on
    ties.
    """
    if delta.is_empty:
        return {-1: 1}
    if delta.is_void:
        return {}
    if max_degree == 0:
        extra = _components(delta.facets) - 1
        return {0: extra} if extra else {}
    counts = [0] * delta.n
    for f in delta.facets:
        while f:
            low = f & -f
            counts[low.bit_length() - 1] += 1
            f ^= low
    v = 1 << counts.index(max(counts))
    # st v has the facets holding v; the facets missing v lie outside it
    return relative_cohomology(
        [f for f in delta.facets if not f & v], [f for f in delta.facets if f & v], field, max_degree
    )


def _components(facets: tuple) -> int:
    """The number of connected components of the complex on these nonempty facets."""
    count, left = 0, list(facets)
    while left:
        reach, before = left[0], 0
        while reach != before:
            before = reach
            for f in left:
                if f & reach:
                    reach |= f
        left = [f for f in left if not f & reach]
        count += 1
    return count


def hochster_table(I: SquareFreeIdeal, field: FieldSpec, below=None) -> Dict[Tuple[int, int], int]:
    """Nonzero entries (i, face mask F) -> dim H~^{i-|F|-1}(link F; k) for
    the rows i < below (None: every row).

    The degree-a piece of H^i_m(S/I) for a <= 0 with support F has this
    dimension when F is a face, and is 0 otherwise; so each nonempty F
    column carries infinitely many multidegrees.  Only intersections of
    facets are visited: the link of any other face is a cone.  Below a
    row, F needs only the degrees d <= below - |F| - 2 of its link.
    """
    delta = complex_from_ideal(I)
    closed, frontier = set(delta.facets), delta.facets
    while frontier:
        frontier = {a & b for a in frontier for b in delta.facets} - closed
        closed |= frontier
    memo: Dict[tuple, Dict[int, int]] = {}  # relabelled link facets -> H~^{<= bound}
    table = {}
    # by size, so the degree bound never rises and a memo entry covers it
    for face in sorted(closed, key=popcount):
        size = popcount(face)
        bound = None if below is None else below - size - 2
        if bound is not None and bound < 0:
            if bound == -1 and face in delta.facets:  # EMPTY link, H~^{-1} = k
                table[(size, face)] = 1
            continue
        facets = tuple(f & ~face for f in delta.facets if face & f == face)
        if bound == 0:  # degree 0 takes no rank, so the memo would save nothing
            coh = reduced_cohomology(SimplicialComplex._trusted(delta.n, facets), field, bound)
        else:
            lk = _relabelled(facets)
            coh = memo.get(lk.facets)
            if coh is None:
                coh = memo[lk.facets] = reduced_cohomology(lk, field, bound)
        for d, h in coh.items():
            if bound is None or d <= bound:
                table[(d + size + 1, face)] = h
    return table


def depth_quotient(I: SquareFreeIdeal, field: FieldSpec) -> int:
    """depth(S/I) = min i with H^i_m(S/I) nonzero.  Each facet's link is
    EMPTY, so row m, the smallest facet size, is nonzero and only the rows
    below it are built."""
    m = min(map(popcount, stanley_reisner_facets(I)))
    return min((i for i, _ in hochster_table(I, field, m)), default=m)


# Used by the tests only; stays while perfbench/tracer.py wraps it by name.
def finite_length(I: SquareFreeIdeal, i: int, field: FieldSpec) -> bool:
    """True iff H^i_m(S/I) has finite length: only the F = empty column may be nonzero."""
    return all(face == 0 for (row, face) in hochster_table(I, field) if row == i)
