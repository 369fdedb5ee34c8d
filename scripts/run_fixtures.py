#!/usr/bin/env python3
"""Analyze every shipped fixture and print one verdict line each.

Exits 1 when a Hartshorne-Lichtenbaum, grade, depth or duality sentinel
fails, or when a fixture with dim(S/I) >= 1 reports agreement=False (for
an m-primary ideal, dim 0, both sides of the equivalence are degenerate);
else 0.  The duality sentinel checks every entry of the pattern walk's
table (cech.pattern_table, Mustata's formula on the Dowker complexes)
against the Hochster table of S/I: dim H^i_I(S)_N = dim H^{n-i}_m(S/I)_{[n] - N}
(Mustata's Ext formula with local duality), two independent engines.
It checks the reported table the same way.  local_cohomology_table
builds that table from the Hochster walk itself unless the Stanley-Reisner
complex has more than 2r facets (only ci_two_cubics.json does), so for
the other fixtures the pattern walk is the independent side.
The depth sentinel (hochster_depth=) checks the report's depth, n - cd of
the reported table (cd = pd(S/I) by Lyubeznik, depth = n - pd by
Auslander-Buchsbaum), against the lowest row of that full Hochster table.
The two are independent only where the reported table came from the
pattern walk (ci_two_cubics.json); for every other fixture the reported
table is the reindexed Hochster table, and the check follows from duality=.
Each table is built with the variable cap raised to the fixture's own
number of variables, so the nine-variable fixture is checked too.

Usage: python scripts/run_fixtures.py [--field CHAR]
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from svtlab.analysis import grade_check, hlv_check, svt_check
from svtlab.cech import EngineLimits, local_cohomology_table, pattern_table
from svtlab.cli import parse_ideal_document
from svtlab.fields import FieldSpec
from svtlab.simplicial import hochster_table

FIXTURES = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
)


def duality_holds(ideal, table, hochster) -> bool:
    """The table equals the Hochster table reindexed (i, N) <-> (n-i, [n] - N)."""
    n, full = ideal.context.n, ideal.context.full_mask
    dual = {(n - i, full & ~face): d for (i, face), d in hochster.items()}
    return table.dims == dual


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--field", default="0", help="field characteristic (0 or a prime)")
    args = ap.parse_args(argv)
    field = FieldSpec.parse(args.field)

    failed = []
    for name in sorted(os.listdir(FIXTURES)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(FIXTURES, name)) as fh:
            ideal = parse_ideal_document(json.load(fh))
        limits = EngineLimits(max_vars=ideal.context.n)
        table = local_cohomology_table(ideal, field, limits)
        v = svt_check(table)["verdicts"]
        hlv = hlv_check(table)
        grade = grade_check(table)
        hochster = hochster_table(ideal, field)
        pattern = pattern_table(ideal, field, limits)
        duality = all(duality_holds(ideal, t, hochster) for t in (pattern, table))
        depth = v["depth"] == min(i for i, _ in hochster)
        print(
            f"{name:22s} n={ideal.context.n} dim={v['dim_quotient']} "
            f"depth={v['depth']} cd={v['cd']} q={v['q']} "
            f"connected={v['connected']} "
            f"H^(n-1)=0:{v['vanishing_top_minus_one']} "
            f"agreement={v['agreement']} hlv={hlv} grade={grade} "
            f"hochster_depth={depth} duality={duality}"
        )
        if not (hlv and grade and depth and duality) or (
            v["dim_quotient"] >= 1 and not v["agreement"]
        ):
            failed.append(name)
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
