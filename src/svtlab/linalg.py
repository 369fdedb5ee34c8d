"""Exact linear algebra over Q and GF(p).

Matrices are stored as lists of sparse rows (dict column -> nonzero int).
Ranks over Q use fraction-free integer elimination: pivoting on a +-1
entry keeps the update integral; when only larger pivots remain, the
cross-multiplication step ``row <- pivot*row - entry*pivot_row`` followed
by a gcd reduction keeps everything in Z without changing the rank.
Ranks over GF(p) reduce entries mod p and eliminate on native ints.
Rank is the only operation: every cohomology dimension, and the rank of
every multiplication map on cohomology (cech.multiplication_map, by the
subcomplex argument stated there), is a count of terms plus and minus
ranks of sparse coboundary matrices, so no kernel basis or echelon form
is kept.
"""

from __future__ import annotations

from math import gcd

from .fields import FieldSpec

SparseRow = dict
SparseMatrix = list


def rank(rows: SparseMatrix, field: FieldSpec) -> int:
    if field.is_rationals:
        return rank_int(rows)
    return rank_mod(rows, field.characteristic)


def rank_int(rows: SparseMatrix) -> int:
    """Rank over Q of an integer matrix, exactly."""
    rows = [dict(r) for r in rows if r]
    col_rows: dict = {}
    alive = set(range(len(rows)))
    for i, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(i)
    rnk = 0
    while alive:
        # pivot choice: prefer a +-1 entry in a short row, else smallest |value|
        best = None
        for i in alive:
            r = rows[i]
            ln = len(r)
            for c, v in r.items():
                key = (abs(v) != 1, ln, abs(v))
                if best is None or key < best[0]:
                    best = (key, i, c)
            if not best[0][0] and best[0][1] <= 2:
                break
        _, pi, pc = best
        prow = rows[pi]
        pv = prow[pc]
        alive.discard(pi)
        for c in prow:
            col_rows[c].discard(pi)
        rnk += 1
        for j in [j for j in col_rows.get(pc, ()) if j in alive]:
            row = rows[j]
            w = row[pc]
            if w % pv == 0:
                f = w // pv
                for c, v in prow.items():
                    nv = row.get(c, 0) - f * v
                    if nv:
                        if c not in row:
                            col_rows.setdefault(c, set()).add(j)
                        row[c] = nv
                    elif c in row:
                        del row[c]
                        col_rows[c].discard(j)
            else:
                g = 0
                for c in set(row) | set(prow):
                    nv = pv * row.get(c, 0) - w * prow.get(c, 0)
                    if nv:
                        if c not in row:
                            col_rows.setdefault(c, set()).add(j)
                        row[c] = nv
                        g = gcd(g, nv)
                    elif c in row:
                        del row[c]
                        col_rows[c].discard(j)
                if g > 1:
                    for c in row:
                        row[c] //= g
            if not row:
                alive.discard(j)
    return rnk


def rank_mod(rows: SparseMatrix, p: int) -> int:
    rows = [{c: v % p for c, v in r.items() if v % p} for r in rows]
    rows = [r for r in rows if r]
    col_rows: dict = {}
    alive = set(range(len(rows)))
    for i, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(i)
    rnk = 0
    while alive:
        pi = min(alive, key=lambda i: len(rows[i]))
        prow = rows[pi]
        pc = next(iter(prow))
        pinv = pow(prow[pc], p - 2, p)
        alive.discard(pi)
        for c in prow:
            col_rows[c].discard(pi)
        rnk += 1
        for j in [j for j in col_rows.get(pc, ()) if j in alive]:
            row = rows[j]
            f = (row[pc] * pinv) % p
            for c, v in prow.items():
                nv = (row.get(c, 0) - f * v) % p
                if nv:
                    if c not in row:
                        col_rows.setdefault(c, set()).add(j)
                    row[c] = nv
                elif c in row:
                    del row[c]
                    col_rows[c].discard(j)
            if not row:
                alive.discard(j)
    return rnk
