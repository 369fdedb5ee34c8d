"""Independent brute-force oracles used by the tests.

Everything here recomputes quantities from first principles (monomial
membership, dense Cech complexes of the quotient ring, chain
enumeration, dense Gaussian elimination over Fraction or ints mod p)
without touching the production code paths it checks.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations

from svtlab import linalg
from svtlab.cech import (
    CohomologyTable,
    GradedComplex,
    build_graded_complex,
    is_multiplication_surjective,
)
from svtlab.fields import FieldSpec
from svtlab.ideals import SquareFreeIdeal, VariableContext, bits, intersect
from svtlab.simplicial import _coboundary_rows


def monomial_in_ideal(I: SquareFreeIdeal, support: int) -> bool:
    return any(g & support == g for g in I.generators)


def brute_force_intersection_supports(I, J):
    """All minimal square-free supports lying in both ideals, by enumeration."""
    n = I.context.n
    members = [
        s for s in range(1 << n)
        if monomial_in_ideal(I, s) and monomial_in_ideal(J, s)
    ]
    member_set = set(members)
    return sorted(
        s for s in members
        if not any(t != s and t & s == t for t in member_set)
    )


def brute_force_facets(I: SquareFreeIdeal):
    """Maximal F with no generator support inside, by full enumeration."""
    n = I.context.n
    faces = [F for F in range(1 << n) if not monomial_in_ideal(I, F)]
    fs = set(faces)
    return sorted(
        F for F in faces
        if all((F | (1 << v)) not in fs or F & (1 << v) for v in range(n))
    )


def localized_piece_dim(support_inverted: int, degree) -> int:
    """dim_k of the degree-a piece of S_{f}, f with the given support.

    Verified by explicit clearing: x^a lies in the localization iff some
    power of the inverted variables clears every negative exponent."""
    for m in range(0, 1 + max((-d for d in degree), default=0)):
        shifted = [
            d + m * (1 if support_inverted & (1 << j) else 0)
            for j, d in enumerate(degree)
        ]
        if all(s >= 0 for s in shifted):
            return 1
    return 0


def quotient_local_cohomology_dim(I: SquareFreeIdeal, i: int, degree, field=FieldSpec(0)) -> int:
    """dim H^i_m(S/I)_a from a dense Cech complex on all n variables over S/I.

    The degree-a piece of (S/I)_{x_T} is 1-dimensional iff the positive
    support of a union T is a face of the Stanley-Reisner complex and a
    is nonnegative off T; the differentials are the Cech signs wherever
    source and target are both nonzero."""
    n = I.context.n
    pos = 0
    for j, d in enumerate(degree):
        if d > 0:
            pos |= 1 << j
    neg = 0
    for j, d in enumerate(degree):
        if d < 0:
            neg |= 1 << j

    def active(T: int) -> bool:
        if neg & ~T:
            return False
        return not monomial_in_ideal(I, pos | T)

    terms = {k: [T for T in _subsets(n, k) if active(T)] for k in range(n + 1)}
    ranks = {}
    for k in range(n):
        tgt = {T: j for j, T in enumerate(terms[k + 1])}
        rows = []
        for T in terms[k]:
            row = {}
            for v in range(n):
                b = 1 << v
                if T & b:
                    continue
                j = tgt.get(T | b)
                if j is not None:
                    row[j] = (-1) ** (T & (b - 1)).bit_count()
            rows.append(row)
        ranks[k] = linalg.rank(rows, field)
    return len(terms.get(i, [])) - ranks.get(i, 0) - ranks.get(i - 1, 0)


def _subsets(n: int, k: int):
    out = []
    for comb in combinations(range(n), k):
        m = 0
        for v in comb:
            m |= 1 << v
        out.append(m)
    return sorted(out)


def maximal_ideal(context: VariableContext) -> SquareFreeIdeal:
    """The ideal of all the variables."""
    return SquareFreeIdeal(context, tuple(1 << i for i in range(context.n)))


def prime_ideal(context: VariableContext, mask: int) -> SquareFreeIdeal:
    """The coordinate prime on `mask` as an ideal, one variable per generator."""
    return SquareFreeIdeal(context, tuple(1 << i for i in bits(mask)))


def intersection_fold(context: VariableContext, prime_lists) -> SquareFreeIdeal:
    """The intersection of the coordinate primes on `prime_lists`, by
    pairwise intersection, one prime at a time."""
    result = None
    for vars_ in prime_lists:
        p = prime_ideal(context, context.mask_of(vars_))
        result = p if result is None else intersect(result, p)
    if result is None:
        raise ValueError("empty intersection of primes")
    return result


def is_artinian(table: CohomologyTable, i: int) -> bool:
    """H^i_I(S) is artinian iff it is supported only at the maximal ideal.

    Inverting any variable x_j kills an artinian module, and the graded
    pieces with j not in N assemble to H^i_I(S)_{x_j}; so artinian-ness is
    exactly the vanishing of every pattern except N = [n].
    """
    full = table.ideal.context.full_mask
    return all(p == full for p in table.row(i))


def is_divisible(table: CohomologyTable, i: int) -> bool:
    """Divisibility of H^i_I(S) by every nonzero monomial.

    A monomial acts as the composition of its variables, and it is
    surjective iff each of its variables is; so divisibility is
    surjectivity of the product of all the variables.  (Whether this
    extends to arbitrary nonzero ring elements in the graded model is
    deliberately not claimed.)
    """
    return is_multiplication_surjective(table, i, table.ideal.context.full_mask)


def brute_force_quotient_height(I: SquareFreeIdeal, prime_mask: int) -> int:
    """Longest chain of coordinate primes of S/I descending from prime_mask.

    Coordinate primes of S/I are the variable sets containing a minimal
    prime; chains step one variable at a time inside prime_mask."""
    containing = [
        P for P in range(1 << I.context.n)
        if P & prime_mask == P and _contains_minimal_prime(I, P)
    ]
    cset = set(containing)
    best = {}

    def depth(P):
        if P in best:
            return best[P]
        d = 0
        for v in bits(P):
            Q = P & ~(1 << v)
            if Q in cset:
                d = max(d, 1 + depth(Q))
        best[P] = d
        return d

    if prime_mask not in cset:
        raise ValueError("prime does not contain I")
    return depth(prime_mask)


def bfs_components(vertex_count: int, edges) -> int:
    """Connected components of a graph on 0..vertex_count-1, by breadth-first search."""
    neighbours = {v: set() for v in range(vertex_count)}
    for i, j in edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
    seen, count = set(), 0
    for start in range(vertex_count):
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            for w in neighbours[queue.popleft()] - seen:
                seen.add(w)
                queue.append(w)
    return count


def _contains_minimal_prime(I: SquareFreeIdeal, P: int) -> bool:
    # P contains I iff P is a transversal of the generator supports
    return all(g & P for g in I.generators)


def cech_table_dims(I: SquareFreeIdeal, field=FieldSpec(0)) -> dict:
    """(i, pattern) -> dim H^i_I(S)_N from the full sign complex of every pattern.

    The complex of pattern N has the generator subsets T whose supports
    cover N at position |T| (all 2^r subsets are visited), so this is the
    Cech complex itself, with no skipped pattern and no duality."""
    dims = {}
    for pattern in range(1 << I.context.n):
        cx = build_graded_complex(I, pattern)
        for i, d in _complex_dims(cx, field).items():
            dims[(i, pattern)] = d
    return dims


def _complex_dims(cx: GradedComplex, field: FieldSpec) -> dict:
    ranks = {}
    for k in range(cx.r):
        if cx.active[k] and cx.active[k + 1]:
            ranks[k] = linalg.rank(cx.differential(k), field)
        else:
            ranks[k] = 0
    dims = {}
    for k in range(cx.r + 1):
        h = len(cx.active[k]) - ranks.get(k, 0) - ranks.get(k - 1, 0)
        if h:
            dims[k] = h
    return dims


def hochster_table_all_faces(I: SquareFreeIdeal, field=FieldSpec(0)) -> dict:
    """(i, face) -> dim H~^{i-|F|-1}(lk F) over every face F of the complex.

    Hochster's formula face by face, each link by full elimination: no
    cone test and no restriction to intersections of facets.  The faces
    come from the brute-force facets, and each link from the faces, as
    those G disjoint from F whose union with F is a face."""
    faces = sorted(f for level in faces_by_card(tuple(brute_force_facets(I))) for f in level)
    face_set = set(faces)
    table = {}
    for face in faces:
        lk = [g for g in faces if not g & face and g | face in face_set]
        for d, h in reduced_cohomology_by_elimination(_facets_of(lk), field).items():
            table[(d + face.bit_count() + 1, face)] = h
    return table


def _union(facets) -> int:
    """The vertex set of a complex: the union of its facets."""
    union = 0
    for f in facets:
        union |= f
    return union


def contains(facets: tuple, face: int) -> bool:
    """Whether `face` is a face of the complex: some facet holds it."""
    return any(face & f == face for f in facets)


def _facets_of(faces) -> tuple:
    """The sorted faces of `faces` that lie in no other."""
    return tuple(sorted(f for f in faces if not any(f != g and f & g == f for g in faces)))


def faces_by_card(facets: tuple) -> list:
    """faces_by_card(facets)[c] is the sorted list of faces with c vertices.

    Every face is a submask of a facet, so one submask walk per facet
    finds them all; VOID has no cardinality levels at all.
    """
    if not facets:
        return []
    faces = set()
    for f in facets:
        sub = f
        while sub:
            faces.add(sub)
            sub = (sub - 1) & f
    levels = [[0]] + [[] for _ in range(max(map(int.bit_count, facets)))]
    for face in sorted(faces):
        levels[face.bit_count()].append(face)
    return levels


def reduced_euler_characteristic(facets: tuple) -> int:
    """sum over nonempty-and-empty faces of (-1)^(|F|-1); VOID gives 0."""
    return sum(
        (-1) ** (c - 1) * len(level) for c, level in enumerate(faces_by_card(facets))
    )


def reduced_cohomology_by_elimination(facets: tuple, field=FieldSpec(0)) -> dict:
    """d -> dim H~^d of the complex with these facets, nonzero only, from
    the rank of every coboundary."""
    levels = faces_by_card(facets)
    vertices = bits(_union(facets))
    ranks = [0] * (len(levels) + 1)
    for c in range(len(levels) - 1):
        col = {g: j for j, g in enumerate(levels[c + 1])}
        rows = []
        for f in levels[c]:
            row = {}
            for v in vertices:
                b = 1 << v
                j = col.get(f | b) if not f & b else None
                if j is not None:
                    row[j] = (-1) ** (f & (b - 1)).bit_count()
            rows.append(row)
        ranks[c] = linalg.rank(rows, field)
    dims = {}
    for c, level in enumerate(levels):
        h = len(level) - ranks[c] - ranks[c - 1]
        if h:
            dims[c - 1] = h
    return dims


def relative_cohomology_by_elimination(delta: tuple, sub: tuple, field=FieldSpec(0)) -> dict:
    """d -> dim H^d(delta, sub), nonzero only, for facet tuples with sub a
    subcomplex holding the empty face.

    Every face of delta is enumerated and tested against sub, and each
    coboundary between the faces outside sub is a dense matrix ranked by
    dense elimination."""
    levels = [[f for f in level if not contains(sub, f)] for level in faces_by_card(delta)]
    ranks = [0] * (len(levels) + 1)
    for c in range(len(levels) - 1):
        matrix = [
            [(-1) ** (f & ((g ^ f) - 1)).bit_count() if f & g == f else 0 for g in levels[c + 1]]
            for f in levels[c]
        ]
        ranks[c] = dense_rank(matrix, field)
    dims = {}
    for c, level in enumerate(levels):
        h = len(level) - ranks[c] - ranks[c - 1]
        if h:
            dims[c - 1] = h
    return dims


def restriction_rank(delta: tuple, sub: tuple, d: int, field: FieldSpec) -> int:
    """Rank of the restriction H~^d(delta) -> H~^d(sub), for facet tuples
    with sub a subcomplex of delta.

    The cochains of delta vanishing on sub form a subcomplex C(delta, sub)
    with the same signs, and the image of H~^d(delta, sub) in H~^d(delta)
    is the kernel of the restriction; the coboundaries of delta into sub's
    d-faces are those of sub, so

        rank = |sub_d| - rk d_sub^{d-1} - rk d_delta^d + rk d_(delta,sub)^d,

    with d_(delta,sub) the coboundary of delta on the d-faces outside sub:
    three sparse ranks, the last on a subset of the rows of the second.
    """
    big, small = faces_by_card(delta), faces_by_card(sub)

    def level(levels: list, c: int) -> list:
        return levels[c] if 0 <= c < len(levels) else []

    c = d + 1  # d-faces have d + 1 vertices
    faces, in_sub = level(big, c), set(level(small, c))
    up = _coboundary_rows(faces, level(big, c + 1))
    rk_sub_down = linalg.rank(_coboundary_rows(level(small, c - 1), level(small, c)), field)
    rk_rel = linalg.rank([row for f, row in zip(faces, up) if f not in in_sub], field)
    return len(in_sub) - rk_sub_down - linalg.rank(up, field) + rk_rel


def multiplication_rank_by_three_ranks(
    I: SquareFreeIdeal, i: int, variable: int, pattern: int, field=FieldSpec(0)
) -> int:
    """Rank of x_j: H^i_I(S)_N -> H^i_I(S)_{N minus j} as restriction_rank's.

    The restriction between the complexes of the two patterns on the
    variables (facets N minus supp(f_t), by Dowker's theorem), ranked from
    the two complexes alone with no dimension read from a table; it
    reaches ideals with far too many generators for the 2^r Cech oracle."""
    target = pattern & ~(1 << variable)
    if not target or not 0 <= i <= I.r:
        return 0
    delta, sub = (_variable_complex(I, N) for N in (pattern, target))
    return restriction_rank(delta, sub, i - 2, field)


def _variable_complex(I: SquareFreeIdeal, pattern: int) -> tuple:
    """The facets of the complex on the variables: the maximal N minus supp(f_t)."""
    return _facets_of({pattern & ~g for g in I.generators})


def dense_rank(matrix, field=FieldSpec(0)) -> int:
    """Rank of a dense matrix by Gaussian elimination on Fractions or ints mod p."""
    return len(_row_reduce(matrix, field)[1])


def _row_reduce(matrix, field):
    """(nonzero rows of the reduced row echelon form, their pivot columns)."""
    p = field.characteristic
    norm = Fraction if p == 0 else (lambda v: v % p)
    rows = [[norm(v) for v in row] for row in matrix]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        k = next((k for k in range(top, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[top], rows[k] = rows[k], rows[top]
        inv = 1 / rows[top][c] if p == 0 else pow(rows[top][c], p - 2, p)
        rows[top] = [norm(v * inv) for v in rows[top]]
        for k, row in enumerate(rows):
            if k != top and row[c]:
                f = row[c]
                rows[k] = [norm(a - f * b) for a, b in zip(row, rows[top])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _null_space(matrix, ncols: int, field) -> list:
    """Basis of {x : matrix x = 0}, one vector per free column."""
    rows, pivots = _row_reduce(matrix, field)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = [0] * ncols
        x[free] = 1
        for row, c in zip(rows, pivots):
            x[c] = -row[free]
        basis.append(x)
    return basis


def _cech_terms(I: SquareFreeIdeal, pattern: int, k: int) -> list:
    """k-subsets of the generators whose supports cover the pattern."""
    if not 0 <= k <= I.r:
        return []
    terms = []
    for T in _subsets(I.r, k):
        union = 0
        for t in bits(T):
            union |= I.generators[t]
        if union & pattern == pattern:
            terms.append(T)
    return terms


def _dense_coboundary(rows_terms: list, cols_terms: list) -> list:
    """Cech signs: S -> S + {s} with sign (-1)^#{t in S : t < s}."""
    matrix = []
    for S in rows_terms:
        row = []
        for T in cols_terms:
            added = T & ~S
            if S & ~T == 0 and added.bit_count() == 1:
                row.append((-1) ** (S & (added - 1)).bit_count())
            else:
                row.append(0)
        matrix.append(row)
    return matrix


def multiplication_rank_by_cocycles(
    I: SquareFreeIdeal, i: int, variable: int, pattern: int, field=FieldSpec(0)
) -> int:
    """Rank of x_j: H^i(C(N)) -> H^i(C(N minus j)) from an explicit cocycle basis.

    rank([cocycle basis of C(N) at i; coboundaries of C(N minus j) at i])
    minus the rank of those coboundaries, every complex enumerated here
    and every rank taken by dense elimination."""
    target = pattern & ~(1 << variable)
    src = _cech_terms(I, pattern, i)
    tgt = _cech_terms(I, target, i)
    d_src = _dense_coboundary(src, _cech_terms(I, pattern, i + 1))
    cocycles = _null_space([list(col) for col in zip(*d_src)], len(src), field)
    pos = [tgt.index(T) for T in src]
    images = []
    for z in cocycles:
        vec = [0] * len(tgt)
        for k, v in enumerate(z):
            vec[pos[k]] = v
        images.append(vec)
    boundaries = _dense_coboundary(_cech_terms(I, target, i - 1), tgt)
    return dense_rank(boundaries + images, field) - dense_rank(boundaries, field)
