"""Exact linear algebra over Q and GF(p): one sparse elimination.

Matrices are stored as lists of sparse rows (dict column -> int).
`rank` is the only operation, and simplicial.relative_cohomology its one
caller: every cohomology dimension is a count of faces plus and minus
ranks of sparse coboundary matrices, and the rank of every multiplication
map follows from such dimensions by exactness, so no kernel basis or
echelon form is kept.

The elimination is the same for both fields.  Zero entries are dropped
first (over GF(p) after reducing mod p: entries stay ints in 0..p-1),
and at most one row left is its own rank.  Each step pivots on the
shortest live row: over GF(p) on its first entry, over Q on its entry of
smallest absolute value.  A row meeting the pivot column loses
``f * pivot_row``, with ``f = w * pv^-1 mod p`` over GF(p) and ``f = w // pv``
over Q when the pivot divides the entry ``w``.  Otherwise, over Q, the row
is scaled by the pivot first (``row <- pv*row - w*pivot_row``) and divided
by the gcd of its entries, which keeps everything in Z (fraction-free)
without changing the rank.  A column -> rows index finds the rows to
update, so a step touches only the rows that meet the pivot column.
"""

from __future__ import annotations

from math import gcd

from .fields import FieldSpec

SparseRow = dict
SparseMatrix = list


def rank(rows: SparseMatrix, field: FieldSpec) -> int:
    """Rank of a sparse integer matrix over `field`; `rows` is left unchanged."""
    p = field.characteristic
    if p:
        rows = [{c: v % p for c, v in r.items() if v % p} for r in rows]
    else:
        rows = [{c: v for c, v in r.items() if v} for r in rows]
    rows = [r for r in rows if r]
    if len(rows) <= 1:
        return len(rows)
    col_rows: dict = {}
    for i, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(i)
    alive = set(range(len(rows)))
    rnk = 0
    while alive:
        pi = min(alive, key=lambda i: len(rows[i]))
        prow = rows[pi]
        if p:
            pc = next(iter(prow))
            pinv = pow(prow[pc], p - 2, p)
        else:
            pc = min(prow, key=lambda c: abs(prow[c]))
        pv = prow[pc]
        alive.discard(pi)
        for c in prow:
            col_rows[c].discard(pi)
        rnk += 1
        for j in [j for j in col_rows[pc] if j in alive]:
            row = rows[j]
            w = row[pc]
            scaled = False
            if p:
                f = w * pinv % p
            elif w % pv == 0:
                f = w // pv
            else:
                scaled, f = True, w
                for c in row:
                    row[c] *= pv
            for c, v in prow.items():
                nv = row.get(c, 0) - f * v
                if p:
                    nv %= p
                if nv:
                    if c not in row:
                        col_rows[c].add(j)
                    row[c] = nv
                elif c in row:
                    del row[c]
                    col_rows[c].discard(j)
            if not row:
                alive.discard(j)
            elif scaled:
                g = gcd(*row.values())
                if g > 1:
                    for c in row:
                        row[c] //= g
    return rnk
