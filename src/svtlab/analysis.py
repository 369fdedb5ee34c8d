"""Theorem-level checkers built on top of the other modules.

svt_check cross-examines the cohomology engine against the combinatorial
side (graph connectedness); hlv_check / grade_check / mayer_vietoris_check
are differential-testing sentinels that must return True on every input,
and the sweep hammers the vanishing equivalence on seeded random ideals.
svt_check, hlv_check and grade_check read the ideal and field off a table,
which passed the variable cap when it was made; mayer_vietoris_check and
the sweep make their own tables under the limits they are given.
svt_check returns the payload itself, a dict the CLI writes as it is
(ideals through SquareFreeIdeal.to_json); whether a table came from the
cache is for the CLI to add.
"""

from __future__ import annotations

import random
import time
from typing import Dict

from . import cech, graphs
from .cech import CohomologyTable, DEFAULT_LIMITS, EngineLimits
from .fields import FieldSpec
from .ideals import (
    CapExceededError,
    SquareFreeIdeal,
    VariableContext,
    check_context_cap,
    dim_quotient,
    height,
    intersect,
    is_m_primary,
    minimal_primes,
    sum_ideals,
)


def svt_check(table: CohomologyTable) -> dict:
    """Both sides of the vanishing equivalence plus the hypothesis checks,
    as the payload the CLI writes, with the table itself in place of its
    entries: cli._dumps writes a table as its text.

    Hypothesis failures are recorded, never fatal: the verdicts are still
    computed so a disagreement outside the hypotheses is visible.
    """
    I = table.ideal
    n = I.context.n
    timings: Dict[str, float] = {}

    t0 = time.monotonic()
    primes = minimal_primes(I)
    hypotheses = []
    for p in primes:
        d, label = n - p.bit_count(), I.context.prime_label(p)
        # S/q is a polynomial ring in d variables, so H^i_m(S/q) is nonzero
        # only at i = d, in the column of the whole simplex: H^2_m has finite
        # length iff d != 2, and the origin column of row 2 is then empty
        fl = d != 2
        evidence = "length 0 at the origin column" if fl else "an off-origin column is nonzero"
        # both are evaluated on the equal-characteristic graded model, the
        # second on the quotient S/q itself, where it is vacuous unless d = 2
        hypotheses += [
            {"name": f"dim(S/{label}) >= 3", "holds": d >= 3, "evidence": f"dim(S/q) = {d}",
             "model_level": True, "vacuous": False},
            {"name": f"finite length of H^2_m(S/{label})", "holds": fl, "evidence": evidence,
             "model_level": True, "vacuous": fl},
        ]
    timings["hypotheses"] = time.monotonic() - t0

    t0 = time.monotonic()
    connected = graphs.punctured_spectrum_connected(I)
    # the largest facet, of dimension dim S/I = n - ht, misses the smallest prime
    ht = min(p.bit_count() for p in primes)
    timings["combinatorics"] = time.monotonic() - t0

    t0 = time.monotonic()
    vanish = table.is_row_zero(n - 1)
    cd = cech.cohomological_dimension(table)
    q = cech.q_invariant(table)
    timings["cohomology"] = time.monotonic() - t0

    return {
        "ideal": I.to_json(),
        "field": table.field.label(),
        "hypotheses": hypotheses,
        "verdicts": {
            "connected": connected,
            "vanishing_top_minus_one": vanish,
            "agreement": vanish == (connected and n - ht >= 2),
            "cd": cd,
            "q": q,
            # cd(I) = pd(S/I) for a square-free monomial ideal (G. Lyubeznik,
            # LNM 1092, 1984), and depth = n - pd (Auslander-Buchsbaum)
            "depth": n - cd,
            "dim_quotient": n - ht,
            "height": ht,
        },
        "table": table,
        "timings": timings,
    }


def hlv_check(table: CohomologyTable) -> bool:
    """Hartshorne-Lichtenbaum sentinel: H^n nonzero iff I is m-primary.

    Always True; a False return flags an engine bug."""
    return table.is_row_zero(table.n) == (not is_m_primary(table.ideal))


def grade_check(table: CohomologyTable) -> bool:
    """Grade sentinel: rows below height(I) vanish and row height(I) does not."""
    h = height(table.ideal)
    below = all(table.is_row_zero(i) for i in range(h))
    return below and not table.is_row_zero(h)


def mayer_vietoris_check(
    I: SquareFreeIdeal,
    J: SquareFreeIdeal,
    field: FieldSpec = FieldSpec(0),
    limits: EngineLimits = DEFAULT_LIMITS,
) -> bool:
    """Exactness bookkeeping for the Mayer-Vietoris sequence of (I, J):
    per pattern, the alternating sum of dims of H^i_{I+J}, H^i_I + H^i_J,
    H^i_{I cap J} must cancel.  I cap J is zero, or I + J the unit ideal,
    only when I or J is, so the tables of I and J refuse those first; they
    refuse a ring over the caps too, before I + J and I cap J are built."""
    total: Dict[int, int] = {}

    def add(sign: int, K: SquareFreeIdeal):
        for (i, p), d in cech.local_cohomology_table(K, field, limits).dims.items():
            total[p] = total.get(p, 0) + sign * (-1) ** i * d

    add(-1, I)
    add(-1, J)
    add(1, sum_ideals(I, J))
    add(1, intersect(I, J))
    return not any(total.values())


def random_square_free_ideal(
    context: VariableContext, rng: random.Random, generator_bound: int = 4
) -> SquareFreeIdeal:
    """A random proper nonzero ideal with dim(S/I) >= 1, supports of size 2..n-1.

    No support is empty or a single variable, so I is proper, nonzero and
    holds no variable, and dim(S/I) = 0 would need every variable in I:
    one draw always qualifies.
    """
    n = context.n
    if n < 3:
        raise ValueError("need at least 3 variables for the 2..n-1 support range")
    masks = []
    for _ in range(rng.randint(1, generator_bound)):
        m = 0
        for v in rng.sample(range(n), rng.randint(2, n - 1)):
            m |= 1 << v
        masks.append(m)
    return SquareFreeIdeal(context, masks)


def random_svt_sweep(
    n: int,
    generator_bound: int,
    trials: int,
    seed: int,
    field: FieldSpec = FieldSpec(0),
    limits: EngineLimits = DEFAULT_LIMITS,
) -> dict:
    """Seeded random instances of the vanishing equivalence, as the payload
    the CLI writes: the arguments, the counts of agreements and failures,
    and the first counterexample or None.

    Asserting side: H^{n-1}_I(S) = 0 iff (dim(S/I) >= 2 and the punctured
    spectrum is connected); each side computed by an independent module.
    """
    if trials < 0:
        raise ValueError(f"the number of trials must be at least 0, not {trials}")
    if generator_bound < 1:
        raise ValueError(f"the generator bound must be at least 1, not {generator_bound}")
    # the ring is checked before any trial, so zero trials refuse it too
    if n < 3:
        raise ValueError(f"a sweep needs at least 3 variables, not {n}")
    # both caps before the names, so a huge n builds none of them
    check_context_cap(n)
    limits.check(n)
    # n variables have 2^n supports: a larger bound only draws repeats,
    # and one of 10**12 never finishes its first trial
    if generator_bound > 1 << n:
        raise CapExceededError(
            f"the generator bound {generator_bound} exceeds the cap 2^{n} = {1 << n},"
            f" the number of supports on {n} variables"
        )
    context = VariableContext(tuple(f"x{i + 1}" for i in range(n)))
    rng = random.Random(seed)
    agreements, first = 0, None
    for _ in range(trials):
        I = random_square_free_ideal(context, rng, generator_bound)
        vanish = cech.is_vanishing(I, n - 1, field, limits)
        dim = dim_quotient(I)
        connected = graphs.punctured_spectrum_connected(I)
        if vanish == (dim >= 2 and connected):
            agreements += 1
        elif first is None:
            first = {**I.to_json(), "vanishing": vanish, "dim_quotient": dim, "connected": connected}
    return {
        "n": n,
        "trials": trials,
        "seed": seed,
        "generator_bound": generator_bound,
        "field": field.label(),
        "agreements": agreements,
        "failures": trials - agreements,
        "first_counterexample": first,
    }
