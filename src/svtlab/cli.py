"""Command-line front end.

Exit codes: 0 success, 1 input error, 2 cap refusal, 3 sentinel
failure (hlv/grade/MV returned False).  Errors go to stderr as JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import analysis, cache, cech, graphs
from .cech import EngineLimits
from .fields import FieldSpec
from .ideals import CapExceededError, SquareFreeIdeal, VariableContext, require_analyzable

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAPS = 2
EXIT_SENTINEL = 3


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, so they leave as a JSON line, exit 1."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _json_list(obj: dict, key: str, of: type = object) -> list:
    """obj[key] if it is a JSON list (of `of`): a string or an object there
    would otherwise be read as its characters or its keys."""
    value = obj[key]
    if not isinstance(value, list) or not all(isinstance(v, of) for v in value):
        raise InputError(f"'{key}' must be a JSON list" + (" of lists" if of is list else ""))
    return value


def parse_ideal_document(doc: dict) -> SquareFreeIdeal:
    """JSON schema: {"variables": [...], "ideal": {"generators": [[...]]}}
    or {"variables": [...], "ideal": {"intersection_of_primes": [[...]]}}."""
    try:
        if not isinstance(doc, dict):
            raise InputError("the ideal document must be a JSON object")
        context = VariableContext(tuple(_json_list(doc, "variables")))
        spec = doc["ideal"]
        if not isinstance(spec, dict):
            raise InputError("'ideal' must be a JSON object")
        if "generators" in spec:
            return SquareFreeIdeal.from_variable_lists(context, _json_list(spec, "generators", list))
        if "intersection_of_primes" in spec:
            return SquareFreeIdeal.intersection_of_primes(
                context, _json_list(spec, "intersection_of_primes", list)
            )
    except KeyError as e:  # "variables" and "ideal" are the keys read unchecked
        raise InputError(f"the ideal document has no {e} key") from e
    except (TypeError, ValueError) as e:
        raise InputError(str(e)) from e
    raise InputError("ideal needs either 'generators' or 'intersection_of_primes'")


def load_ideal(path: str) -> SquareFreeIdeal:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}") from e
    except RecursionError as e:
        raise InputError(f"{path} nests too deeply to read") from e
    I = parse_ideal_document(doc)
    require_analyzable(I)  # before the engine cap, whatever the command
    return I


_ESCAPE = json.encoder.encode_basestring_ascii
_SCALAR = json.JSONEncoder().encode  # the C encoder, which json uses without an indent
_LEAF = {str: _ESCAPE, int: int.__repr__, float: _SCALAR, type(None): lambda _: "null",
         bool: {True: "true", False: "false"}.__getitem__}


def _dumps(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) byte for byte (string keys
    only), with a CohomologyTable written as its entries(); json itself
    takes its pure-Python encoder for an indent."""
    leaf = _LEAF.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items, ends = [_ESCAPE(k) + ": " + _dumps(value[k], inner) for k in sorted(value)], "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = [_dumps(v, inner) for v in value], "[]"
    elif isinstance(value, cech.CohomologyTable):
        items, ends = _table_items(value, inner), "[]"
    else:
        return _SCALAR(value)  # subclasses of str, int and float
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1]


def _table_items(table: cech.CohomologyTable, pad: str) -> list:
    """The texts of the table's entries() at `pad`: one format per row, with
    the keys "dim", "i", "pattern" in order, and each variable name escaped
    once per table.  No pattern is empty: the piece at N = {} is zero."""
    key, name = pad + "  ", pad + "    "
    escaped = {s: _ESCAPE(s) for s in table.ideal.context.names}
    row = ("{" + key + '"dim": %d,' + key + '"i": %d,' + key + '"pattern": ['
           + name + "%s" + key + "]" + pad + "}")
    between = "," + name
    return [row % (d, i, between.join([escaped[s] for s in names])) for i, names, d in table.rows]


def _emit(payload: dict, args):
    text = _dumps(payload)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _table(I: SquareFreeIdeal, args):
    """(table, cache state) of I over --field under --max-vars, honoring
    --no-cache and the cache directory."""
    field = FieldSpec.parse(args.field)
    limits = EngineLimits(max_vars=args.max_vars)
    if args.no_cache:
        return cech.local_cohomology_table(I, field, limits), "off"
    limits.check(I.context.n)  # a cached table must not bypass the variable cap
    cache_dir = args.cache_dir or cache.default_cache_dir()
    hit = cache.lookup(cache_dir, I, field)
    if hit is not None:
        return hit, "hit"
    table = cech.local_cohomology_table(I, field, limits)
    cache.store(cache_dir, I, field, table)
    return table, "miss"


def cmd_analyze(args) -> int:
    table, state = _table(load_ideal(args.input), args)
    payload = analysis.svt_check(table)
    payload["cache"] = state
    payload["sentinels"] = {
        "hlv": analysis.hlv_check(table),
        "grade": analysis.grade_check(table),
    }
    _emit(payload, args)
    if not all(payload["sentinels"].values()):
        return EXIT_SENTINEL
    return EXIT_OK


def cmd_cohomology(args) -> int:
    table, state = _table(load_ideal(args.input), args)
    _emit(
        {
            "ideal": table.ideal.to_json(),
            "field": table.field.label(),
            "cache": state,
            "table": table,
        },
        args,
    )
    return EXIT_OK


def cmd_svt(args) -> int:
    table, state = _table(load_ideal(args.input), args)
    payload = analysis.svt_check(table)
    payload["cache"] = state
    del payload["table"]
    _emit(payload, args)
    return EXIT_OK


def cmd_graph(args) -> int:
    I = load_ideal(args.input)
    EngineLimits(max_vars=args.max_vars).check(I.context.n)
    vertices, edges = graphs.theta_graph(I) if args.kind == "theta" else graphs.gamma_graph(I)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(graphs.to_dot(args.kind, vertices, edges, I.context))
    _emit(
        {
            "ideal": I.to_json(),
            "kind": args.kind,
            "vertices": [I.context.prime_label(p) for p in vertices],
            "edges": [list(e) for e in edges],
            "connected": graphs.is_connected(vertices, edges),
        },
        args,
    )
    return EXIT_OK


def cmd_surjectivity(args) -> int:
    I = load_ideal(args.input)
    names = [s for s in args.monomial.split(",") if s]
    if not names:
        raise InputError("--monomial needs at least one variable name")
    x = I.context.mask_of(names)  # before any table is made
    table, state = _table(I, args)
    surjective = cech.is_multiplication_surjective(table, args.degree, x)
    # divisible iff every variable is onto: those of x were just checked
    rest = I.context.full_mask & ~x
    divisible = surjective and (
        not rest or cech.is_multiplication_surjective(table, args.degree, rest)
    )
    _emit(
        {
            "ideal": table.ideal.to_json(),
            "field": table.field.label(),
            "cache": state,
            "degree": args.degree,
            "monomial": list(names),
            "surjective": surjective,
            "divisible": divisible,
        },
        args,
    )
    return EXIT_OK


def cmd_mv(args) -> int:
    I = load_ideal(args.input)
    J = load_ideal(args.second)
    field = FieldSpec.parse(args.field)
    ok = analysis.mayer_vietoris_check(I, J, field, EngineLimits(max_vars=args.max_vars))
    _emit(
        {
            "first": I.to_json(),
            "second": J.to_json(),
            "field": field.label(),
            "mayer_vietoris_consistent": ok,
        },
        args,
    )
    return EXIT_OK if ok else EXIT_SENTINEL


def cmd_sweep(args) -> int:
    field, limits = FieldSpec.parse(args.field), EngineLimits(max_vars=args.max_vars)
    payload = analysis.random_svt_sweep(
        args.vars, args.generator_bound, args.trials, args.seed, field, limits
    )
    if args.log:
        with open(args.log, "a") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
    _emit(payload, args)
    return EXIT_OK if payload["failures"] == 0 else EXIT_SENTINEL


def cmd_cache(args) -> int:
    cache_dir = args.cache_dir or cache.default_cache_dir()
    if args.clear:
        removed = cache.clear(cache_dir)
        _emit({"dir": cache_dir, "removed": removed}, args)
    else:
        _emit(cache.stats(cache_dir), args)
    return EXIT_OK


def _add_common(p, with_field=True, with_cache=True):
    p.add_argument("--output", help="write the JSON result here instead of stdout")
    if with_field:
        p.add_argument(
            "--field",
            default="rationals",
            help="coefficient field: 'rationals' or a prime p",
        )
    p.add_argument("--max-vars", type=int, default=EngineLimits.max_vars)
    if with_cache:
        p.add_argument("--cache-dir", help="cache directory (default: $SVTLAB_CACHE_DIR)")
        p.add_argument("--no-cache", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="svtlab",
        description="graded local cohomology workbench for square-free monomial ideals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full analysis report of one ideal")
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cohomology", help="graded local cohomology table")
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("svt", help="vanishing/connectedness verdicts only")
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_svt)

    p = sub.add_parser("graph", help="theta or gamma connectivity graph")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=["theta", "gamma"], required=True)
    p.add_argument("--dot", help="write a DOT file here")
    _add_common(p, with_field=False, with_cache=False)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("surjectivity", help="surjectivity of a monomial on H^i")
    p.add_argument("--input", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--monomial", required=True, help="comma-separated variable names")
    _add_common(p)
    p.set_defaults(func=cmd_surjectivity)

    p = sub.add_parser("mv", help="Mayer-Vietoris consistency for two ideals")
    p.add_argument("--input", required=True)
    p.add_argument("--second", required=True)
    _add_common(p, with_cache=False)
    p.set_defaults(func=cmd_mv)

    p = sub.add_parser("sweep", help="randomized vanishing-equivalence sweep")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--generator-bound", type=int, default=4)
    p.add_argument("--log", help="append the summary to this JSONL file")
    _add_common(p, with_cache=False)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cache", help="inspect or clear the table cache")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--clear", action="store_true")
    group.add_argument("--stats", action="store_true")
    p.add_argument("--cache-dir")
    p.add_argument("--output")
    p.set_defaults(func=cmd_cache)

    return parser


def _error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[list] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # --help; usage errors raise InputError instead
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    except CapExceededError as e:
        _error("cap_exceeded", str(e))
        return EXIT_CAPS
    except ValueError as e:
        _error("input_error", str(e))
        return EXIT_INPUT
    except OSError as e:
        _error("io_error", str(e))
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
