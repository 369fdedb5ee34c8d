"""A fixed reference kernel that measures how fast the host runs right now.

On a shared virtual machine the same Python work can take up to twice as
long in one minute as in the next, because other tenants compete for the
physical cores.  The benchmark runs this kernel in between items, once per
EVERY_S of item time, and divides the item times of each stretch of the run
by (mean kernel time in that stretch / REFERENCE_S), so that the reported
times are "seconds at the reference speed" and move with the program, not
with the host.

The kernel is the benchmark's own code and never calls the program, so a
change to the program cannot change it.  Its work resembles the program's:
bitmask subset enumeration, a sparse boundary matrix stored as dict rows,
and its rank over GF(p) by elimination with column index sets.
"""

from __future__ import annotations

import time

# Median time of one kernel() call on the host the baseline was taken on
# (see record.json, "calibration").  It only fixes the scale of the reported
# times; any constant would do, as long as it never changes.
REFERENCE_S = 0.019
EVERY_S = 0.2  # item time between two kernel calls: about 10% overhead
PRIME = 32003
N = 11  # the kernel takes the boundary map from 4-subsets to 3-subsets of N points


def _subsets(n: int, k: int) -> list:
    return [m for m in range(1 << n) if bin(m).count("1") == k]


def _boundary(n: int, k: int) -> list:
    """Rows: k+1-subsets; columns: k-subsets; signs by position, mod PRIME."""
    index = {m: i for i, m in enumerate(_subsets(n, k))}
    rows = []
    for m in _subsets(n, k + 1):
        row, sign = {}, 1
        for v in range(n):
            if m >> v & 1:
                row[index[m & ~(1 << v)]] = sign % PRIME
                sign = -sign
        rows.append(row)
    return rows


def _rank(rows: list) -> int:
    rows = [dict(r) for r in rows]
    col_rows: dict = {}
    for i, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(i)
    alive = set(range(len(rows)))
    rank = 0
    while alive:
        pi = min(alive, key=lambda i: (len(rows[i]), i))
        prow = rows[pi]
        alive.discard(pi)
        if not prow:
            continue
        pc = min(prow)
        inv = pow(prow[pc], PRIME - 2, PRIME)
        for c in prow:
            col_rows[c].discard(pi)
        rank += 1
        for j in sorted(col_rows[pc] & alive):
            row = rows[j]
            f = row[pc] * inv % PRIME
            for c, v in prow.items():
                nv = (row.get(c, 0) - f * v) % PRIME
                if nv:
                    if c not in row:
                        col_rows[c].add(j)
                    row[c] = nv
                else:
                    row.pop(c, None)
                    col_rows[c].discard(j)
    return rank


EXPECTED_RANK = 120  # C(10, 3): the rank of that map on the full simplex of 11 points


def kernel() -> int:
    return _rank(_boundary(N, 3))


class Meter:
    """Kernel timings taken in between items of a run."""

    def __init__(self):
        self.samples = []  # seconds per kernel() call, in order
        self.spent = 0.0  # wall time spent in the kernel
        self._owed = 0.0
        kernel()  # the first call runs before the interpreter has specialized it

    def sample(self) -> float:
        t0 = time.perf_counter()
        r = kernel()
        t = time.perf_counter() - t0
        if r != EXPECTED_RANK:
            raise AssertionError(f"calibration kernel returned rank {r}, expected {EXPECTED_RANK}")
        self.samples.append(t)
        self.spent += t
        return t

    def after_item(self, item_s: float) -> None:
        self._owed += item_s
        if self._owed >= EVERY_S:
            self._owed = 0.0
            self.sample()

    def speed_since(self, k: int) -> float:
        """Host speed relative to the reference over samples[k:] (taking one
        more sample if there is none): above 1 is faster."""
        if len(self.samples) <= k:
            self.sample()
        mean = sum(self.samples[k:]) / (len(self.samples) - k)
        return REFERENCE_S / mean
