"""Seeded input generation for the benchmark workloads.

Everything here is the benchmark's own code: the program under test only
ever receives the ideal documents (or ideals built from them), so a change
to the program's random generator cannot change a workload.

Ideals are tuples of generator support bitmasks over n variables.  Pools are
stratified: item k's shape (variable count, number of supports drawn, the
size of each support, field) comes in a fixed order, and the ideal itself
is drawn from a fixed stream that does not depend on the seed.  The seed
renames the variables of every ideal (a random permutation per item), and
the documents list the generators in a seeded order.  Every seed therefore
gives other inputs of the same difficulty: renaming variables renames the
local cohomology table and leaves the size of every complex alone, so the
times a run reports move with the program and the host, not with the seed.
"""

from __future__ import annotations

import random

COLD_SHAPES = [(n, r) for n in (7, 8) for r in (6, 7, 8)]
COLD_FIELDS = ("rationals", "2")
WARM_VARS = (6, 7, 8)
WARM_MAX_GENERATORS = 6


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def minimize(masks) -> tuple:
    """Minimal generators: drop any support that contains another one."""
    out = []
    for m in sorted(set(masks), key=lambda m: (popcount(m), m)):
        if not any(k & m == k for k in out):
            out.append(m)
    return tuple(sorted(out))


def dim_quotient(n: int, gens) -> int:
    """Krull dimension of S/I: the largest variable set containing no generator."""
    return max(
        popcount(F) for F in range(1 << n) if not any(g & F == g for g in gens)
    )


def _ideal(rng: random.Random, n: int, sizes: list) -> tuple:
    """Supports of the given sizes, minimized, redrawn until dim(S/I) >= 1."""
    while True:
        gens = []
        for size in sizes:
            mask = 0
            for v in rng.sample(range(n), size):
                mask |= 1 << v
            gens.append(mask)
        gens = minimize(gens)
        if dim_quotient(n, gens) >= 1:
            return gens


def _rename(rng: random.Random, n: int, gens) -> tuple:
    """The same ideal under a random permutation of its n variables."""
    perm = rng.sample(range(n), n)
    return tuple(sorted(sum(1 << perm[v] for v in range(n) if g >> v & 1) for g in gens))


def cold_pool(seed: int, size: int) -> list:
    """[(n, gens, field)]: r supports of size 2-3 that stay r minimal generators.

    The six (n, r) shapes come in turn, each once per field.
    """
    shapes = random.Random("shapes:cold")
    base = random.Random("ideals:cold")
    rng = random.Random(f"cold:{seed}")
    pool = []
    for k in range(size):
        n, r = COLD_SHAPES[(k // 2) % len(COLD_SHAPES)]
        sizes = [shapes.randint(2, 3) for _ in range(r)]
        gens = _ideal(base, n, sizes)
        while len(gens) != r:
            gens = _ideal(base, n, sizes)
        pool.append((n, _rename(rng, n, gens), COLD_FIELDS[k % 2]))
    return pool


def sweep_pool(seed: int, size: int, tag: str) -> list:
    """[(n, gens)]: 1..WARM_MAX_GENERATORS supports of size 2..n-1 (the
    distribution `svtlab sweep` draws from), n in WARM_VARS in turn."""
    shapes = random.Random(f"shapes:{tag}")
    base = random.Random(f"ideals:{tag}")
    rng = random.Random(f"{tag}:{seed}")
    pool = []
    for k in range(size):
        n = WARM_VARS[k % len(WARM_VARS)]
        g = 1 + (k // len(WARM_VARS)) % WARM_MAX_GENERATORS
        gens = _ideal(base, n, [shapes.randint(2, n - 1) for _ in range(g)])
        pool.append((n, _rename(rng, n, gens)))
    return pool


def variable_names(n: int) -> list:
    return [f"x{i + 1}" for i in range(n)]


def ideal_document(n: int, gens, rng: random.Random) -> dict:
    """The JSON document `svtlab analyze --input` reads, generators shuffled."""
    names = variable_names(n)
    lists = [[names[v] for v in range(n) if g >> v & 1] for g in gens]
    rng.shuffle(lists)
    return {"variables": names, "ideal": {"generators": lists}}
