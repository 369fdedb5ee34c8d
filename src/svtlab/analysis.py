"""Theorem-level checkers built on top of the other modules.

svt_check cross-examines the cohomology engine against the combinatorial
side (graph connectedness); hlv_check / grade_check / mayer_vietoris_check
are differential-testing sentinels that must return True on every input,
and the sweep hammers the vanishing equivalence on seeded random ideals.
svt_check, hlv_check and grade_check read the ideal and field off a table,
which passed the variable cap when it was made; mayer_vietoris_check and
the sweep make their own tables under the limits they are given.  Reports
serialize themselves (ideals through SquareFreeIdeal.to_json); whether a
table came from the cache is for the CLI to add.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional

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


@dataclass
class Hypothesis:
    name: str
    holds: bool
    evidence: str
    model_level: bool = True  # evaluated on the equal-characteristic graded model
    vacuous: bool = False

    def to_json(self) -> dict:
        return dict(vars(self))


@dataclass
class AnalysisReport:
    hypotheses: List[Hypothesis]
    connected: bool
    vanishing_top_minus_one: bool
    dim_quotient: int
    height: int
    cd: int
    q: Optional[int]
    depth: int
    table: CohomologyTable
    timings: Dict[str, float] = dc_field(default_factory=dict)

    @property
    def agreement(self) -> bool:
        return self.vanishing_top_minus_one == (self.connected and self.dim_quotient >= 2)

    def payload(self) -> dict:
        """The report as the CLI writes it, with the table itself in place of
        its entries: cli._dumps renders a table straight from its rows."""
        return {
            "ideal": self.table.ideal.to_json(),
            "field": self.table.field.label(),
            "hypotheses": [h.to_json() for h in self.hypotheses],
            "verdicts": {
                "connected": self.connected,
                "vanishing_top_minus_one": self.vanishing_top_minus_one,
                "agreement": self.agreement,
                "cd": self.cd,
                "q": self.q,
                "depth": self.depth,
                "dim_quotient": self.dim_quotient,
                "height": self.height,
            },
            "table": self.table,
            "timings": self.timings,
        }


def svt_check(table: CohomologyTable) -> AnalysisReport:
    """Both sides of the vanishing equivalence plus the hypothesis checks.

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
        d, label = n - p.height, p.label()
        hypotheses.append(
            Hypothesis(
                name=f"dim(S/{label}) >= 3",
                holds=d >= 3,
                evidence=f"dim(S/q) = {d}",
            )
        )
        # S/q is a polynomial ring in d variables, so H^i_m(S/q) is nonzero
        # only at i = d, in the column of the whole simplex: H^2_m has finite
        # length iff d != 2, and the origin column of row 2 is then empty
        fl = d != 2
        hypotheses.append(
            Hypothesis(
                name=f"finite length of H^2_m(S/{label})",
                holds=fl,
                evidence="length 0 at the origin column" if fl else "an off-origin column is nonzero",
                # evaluated on the graded quotient model S/q itself
                vacuous=(n - p.height != 2),
            )
        )
    timings["hypotheses"] = time.monotonic() - t0

    t0 = time.monotonic()
    connected = graphs.punctured_spectrum_connected(I)
    ht = height(I)
    dim_q = dim_quotient(I)
    timings["combinatorics"] = time.monotonic() - t0

    t0 = time.monotonic()
    vanish = table.is_row_zero(n - 1)
    cd = cech.cohomological_dimension(table)
    q = cech.q_invariant(table)
    timings["cohomology"] = time.monotonic() - t0

    return AnalysisReport(
        hypotheses=hypotheses,
        connected=connected,
        vanishing_top_minus_one=vanish,
        dim_quotient=dim_q,
        height=ht,
        cd=cd,
        q=q,
        # cd(I) = pd(S/I) for a square-free monomial ideal (G. Lyubeznik,
        # LNM 1092, 1984), and depth = n - pd (Auslander-Buchsbaum)
        depth=n - cd,
        table=table,
        timings=timings,
    )


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
    only when I or J is, so the tables of I and J refuse those first."""
    total: Dict[int, int] = {}
    for sign, K in ((-1, I), (-1, J), (1, sum_ideals(I, J)), (1, intersect(I, J))):
        for (i, p), d in cech.local_cohomology_table(K, field, limits).dims.items():
            total[p] = total.get(p, 0) + sign * (-1) ** i * d
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
    return SquareFreeIdeal.from_supports(context, masks)


@dataclass
class SweepSummary:
    n: int
    trials: int
    seed: int
    generator_bound: int
    field: str
    agreements: int = 0
    failures: int = 0
    first_counterexample: Optional[dict] = None

    def to_json(self) -> dict:
        return dict(vars(self))


def random_svt_sweep(
    n: int,
    generator_bound: int,
    trials: int,
    seed: int,
    field: FieldSpec = FieldSpec(0),
    limits: EngineLimits = DEFAULT_LIMITS,
) -> SweepSummary:
    """Seeded random instances of the vanishing equivalence.

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
    summary = SweepSummary(
        n=n,
        trials=trials,
        seed=seed,
        generator_bound=generator_bound,
        field=field.label(),
    )
    for _ in range(trials):
        I = random_square_free_ideal(context, rng, generator_bound)
        vanish = cech.is_vanishing(I, n - 1, field, limits)
        dim = dim_quotient(I)
        connected = graphs.punctured_spectrum_connected(I)
        if vanish == (dim >= 2 and connected):
            summary.agreements += 1
        else:
            summary.failures += 1
            if summary.first_counterexample is None:
                summary.first_counterexample = {
                    **I.to_json(),
                    "vanishing": vanish,
                    "dim_quotient": dim,
                    "connected": connected,
                }
    return summary
