"""Exact linear algebra over Q and GF(p): one incremental echelon.

Matrices are stored as lists of sparse rows (dict column -> int).
`rank` is the only operation, and simplicial.relative_cohomology its one
caller: every cohomology dimension is a count of faces plus and minus
ranks of sparse coboundary matrices, and the rank of every multiplication
map follows from such dimensions by exactness, so no kernel basis is kept.

The elimination is the textbook one, and the same for every field; only
its reduction step depends on the field.  A row is copied without its
zero entries (over GF(p) after reducing mod p: entries stay ints in
0..p-1) and reduced, at its leading (smallest) column, against the kept
row that starts there.  A row that reaches a column no kept row starts at
is kept; one that reaches zero is dependent.  The rank is the number of
kept rows.  Let w and pv be the leading entries of the row and the kept
row.  Over GF(p), p = 2 included, a kept row is scaled to a leading 1
(one modular inverse per kept row) and a reduction is ``row - w * kept``.
Over Q it is ``(pv/g) * row - (w/g) * kept`` with ``g = gcd(w, pv)``, and
the row is then divided by the gcd of its entries, so every entry stays
an integer (fraction-free).

It is sized for the matrices the engine builds, which the star lemma
keeps small.  On the benchmark's seed-1 pools the largest has 28 rows
(cold analyze; 11 over GF(2)), 20 (warm analyze's set-up, median 2) and
6 (sweep); no command on a fixture, its multiplication maps included,
ranks more than 35 rows over Q, GF(2) or GF(3).  No pivot search, column
index or bit-packed row pays for itself there.  Row order is not chosen
to limit fill-in, so the 715 x 1287 full-skeleton coboundary at n = 13
takes 0.05 s over Q and over GF(2), against 0.04 s for an elimination
pivoting on the shortest row over Q and 0.003 s for GF(2) rows packed as
bitmasks (CPython 3.11, one Xeon core, minimum of 5 runs).  No command
builds such a matrix.
"""

from __future__ import annotations

from math import gcd

from .fields import FieldSpec


def rank(rows: list, field: FieldSpec) -> int:
    """Rank of a sparse integer matrix over `field`; `rows` is left unchanged."""
    p = field.characteristic
    kept: dict = {}  # leading column -> the kept row that starts there
    for r in rows:
        row = {c: v % p for c, v in r.items() if v % p} if p else {c: v for c, v in r.items() if v}
        while row:
            lead = min(row)
            pivot = kept.get(lead)
            if pivot is None:
                if p:
                    inv = pow(row[lead], -1, p)
                    row = {c: v * inv % p for c, v in row.items()}
                kept[lead] = row
                break
            f, pv = row[lead], pivot[lead]
            if not p:
                g = gcd(f, pv)
                f //= g
                if pv != g:
                    row = {c: v * (pv // g) for c, v in row.items()}
            for c, v in pivot.items():
                nv = row.get(c, 0) - f * v
                if p:
                    nv %= p
                if nv:
                    row[c] = nv
                else:
                    del row[c]
            if not p and row:
                g = gcd(*row.values())
                if g > 1:
                    row = {c: v // g for c, v in row.items()}
    return len(kept)
