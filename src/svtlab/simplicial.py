"""Simplicial complexes, reduced cohomology, and the Hochster table.

Faces are bitmasks over the ambient vertex set, and a complex is the
sorted tuple of its facets, none inside another.  The degenerate cases are
kept apart on purpose: VOID = () has no faces at all, EMPTY = (0,) has
exactly the empty face, and Hochster's formula needs H~^{-1}(EMPTY) = k.

Hochster's formula (M. Hochster, "Cohen-Macaulay rings, combinatorics, and
simplicial complexes", 1977) reads H^i_m(S/I)_F = H~^{i-|F|-1}(lk F) for the
Stanley-Reisner complex of I.  Four facts keep it cheap:

- One kernel, relative_cohomology, gives H^d(K, L) for a subcomplex L
  holding the empty face: the faces of K outside L are upward closed, and
  their cochains form a subcomplex with K's signs, so only those faces
  are enumerated and only their coboundaries ranked.  Star lemma: the
  star st v (the faces whose union with v is a face) is a cone over v, so
  H~^d(K) = H^d(K, st v); reduced_cohomology takes L = st v for a vertex
  in the most facets, and a cone (st v = K) leaves no faces at all.
- A complex of dimension at most 1 (a graph) needs no rank: rank d^0 =
  V - c over every field, for V vertices and c components, so H~^0 =
  c - 1 and H~^1 = E - V + c for E edges.  Of the 4,100 links that the
  table visits on the benchmark's seed-1 cold pool (142 of its 144
  ideals take the Hochster walk), 1,135 are EMPTY and 1,900 graphs.
- The facets of lk F are G minus F for the facets G that contain F (link),
  so lk F is a cone exactly when those facets meet in more than F.  Only a
  face that is an intersection of facets (the empty face included when
  all facets meet in it) can carry cohomology, and hochster_table
  visits only those.
- S/P for a coordinate prime P is a polynomial ring in d = n - ht P
  variables (its complex is a simplex), so H^i_m(S/P) is nonzero only at
  i = d; analysis.svt_check uses that instead of a table per prime.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Dict, Tuple

from . import linalg
from .fields import FieldSpec
from .ideals import SquareFreeIdeal, components, stanley_reisner_facets


# Used by the tests only; stays while perfbench/tracer.py wraps it by name.
def complex_from_ideal(I: SquareFreeIdeal) -> tuple:
    """Facets of the Stanley-Reisner complex of a proper square-free ideal."""
    return stanley_reisner_facets(I)


def link(facets: tuple, face: int) -> tuple:
    """Facets of lk F = {G : G disjoint from F, G union F a face}: the G minus F
    for the facets G holding F, sorted and irredundant as `facets` are."""
    lk = tuple(f & ~face for f in facets if face & f == face)
    if not lk:
        raise ValueError("face is not in the complex")
    return lk


def maximal_faces(masks) -> tuple:
    """The inclusion-maximal masks among `masks`, sorted."""
    kept = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
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
    top = max(map(int.bit_count, outside), default=0)
    levels = [set() for _ in range(top + 1)]
    for f in outside:
        levels[f.bit_count()].add(f)
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
                    for s in inside:
                        if h & s == h:
                            break
                    else:
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


def reduced_cohomology(facets: tuple, field: FieldSpec) -> Dict[int, int]:
    """dims of H~^d(K; k), nonzero entries only, for the complex K with
    these sorted, irredundant facets.

    Conventions: all dims of VOID are 0, and H~^{-1}(EMPTY) = 1.  For a
    graph (no facet of more than 2 vertices), the dims come from the
    components without a rank (the second fact above).  Otherwise they are
    those of H^d(K, st v) (the star lemma), with v a vertex in the most
    facets and the lowest of those on ties.
    """
    if facets == (0,):
        return {-1: 1}
    if not facets:
        return {}
    if max(map(int.bit_count, facets)) <= 2:
        # each facet is a vertex or an edge, so the facet sizes sum to
        # t + E for t facets and E edges
        c = components(facets)
        edges = sum(map(int.bit_count, facets)) - len(facets)
        dims = {0: c - 1, 1: edges - reduce(or_, facets).bit_count() + c}
        return {d: h for d, h in dims.items() if h}
    # planes[k] is bit k of every vertex's facet count, the facets added
    # one at a time with carries; from the top plane down, the vertices
    # whose bit is set (when any candidate's is) stay candidates
    planes = []
    for f in facets:
        k = 0
        while f:
            if k == len(planes):
                planes.append(f)
                break
            plane = planes[k]
            planes[k] = plane ^ f
            f &= plane
            k += 1
    v = -1
    for plane in reversed(planes):
        if v & plane:
            v &= plane
    v &= -v
    # st v has the facets holding v; the facets missing v lie outside it
    return relative_cohomology(
        [f for f in facets if not f & v], [f for f in facets if f & v], field
    )


def _intersections(facets: tuple) -> list:
    """Every intersection of one or more facets, smallest first."""
    closed, frontier = set(facets), facets
    while frontier:
        frontier = {a & b for a in frontier for b in facets} - closed
        closed |= frontier
    return sorted(closed, key=int.bit_count)


def hochster_table(I: SquareFreeIdeal, field: FieldSpec) -> Dict[Tuple[int, int], int]:
    """Nonzero entries (i, face mask F) -> dim H~^{i-|F|-1}(link F; k).

    The degree-a piece of H^i_m(S/I) for a <= 0 with support F has this
    dimension when F is a face, and is 0 otherwise; so each nonempty F
    column carries infinitely many multidegrees.  Only intersections of
    facets are visited: the link of any other face is a cone.
    """
    facets = stanley_reisner_facets(I)
    table = {}
    for face in _intersections(facets):
        size = face.bit_count()
        for d, h in reduced_cohomology(link(facets, face), field).items():
            table[(d + size + 1, face)] = h
    return table


# Used by the tests only; stays while perfbench/tracer.py wraps it by name.
def depth_quotient(I: SquareFreeIdeal, field: FieldSpec) -> int:
    """depth(S/I) = min i with H^i_m(S/I) nonzero, over any field."""
    return min(i for i, _ in hochster_table(I, field))


# Used by the tests only; stays while perfbench/tracer.py wraps it by name.
def finite_length(I: SquareFreeIdeal, i: int, field: FieldSpec) -> bool:
    """True iff H^i_m(S/I) has finite length: only the F = empty column may be nonzero."""
    return all(face == 0 for (row, face) in hochster_table(I, field) if row == i)
