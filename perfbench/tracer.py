"""Span tracing of svtlab from the outside, by wrapping its public functions.

`Tracer.install()` replaces each traced function with a wrapper in every
svtlab module that holds a reference to it (a name imported with
`from .ideals import minimal_primes` is a separate binding in the importing
module, and a module-global call such as `hochster_table(...)` inside
`simplicial` looks the name up in that module).  `uninstall()` puts the
originals back.

Spans are kept in memory as flat arrays (name, start, end, parent span, item
id) and written out as JSONL at the end of a run; self times are computed
from them afterwards: a span's duration minus the durations of its direct
children, which never overlap because the program is single-threaded.
Counter hooks (matrix rows and nonzeros, complex terms, cache bytes) run
after their span has closed, so their cost lands in the parent's self
time; trace.overhead bounds what all of this costs.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import defaultdict


def _rank_span_name(tracer, args) -> str:
    """linalg.rank, split by the layer that called it and by field."""
    parent = tracer.stack[-1] if tracer.stack else -1
    layer = "other"
    if parent >= 0:
        layer = tracer.names[tracer.span_name[parent]].split(".")[0]
    return f"linalg.rank.{layer}.{'q' if args[1].is_rationals else 'gfp'}"


def _rank_counts(tracer, name, args, kwargs, result):
    rows = args[0]
    layer = name.split(".")[2]
    tracer.count(f"linalg.rank.{layer}.rows", len(rows))
    tracer.count(f"linalg.rank.{layer}.nnz", sum(len(r) for r in rows))


def _complex_counts(tracer, name, args, kwargs, result):
    tracer.count("cech.complex.terms", sum(len(level) for level in result.active))


def _lookup_counts(tracer, name, args, kwargs, result):
    tracer.count("cache.misses" if result is None else "cache.hits")


def _store_counts(tracer, name, args, kwargs, result):
    from svtlab import cache  # cache_key itself is not traced

    cache_dir, I, field = args[:3]
    path = os.path.join(cache_dir, cache.cache_key(I, field) + ".json")
    tracer.count("cache.store.bytes", os.path.getsize(path))


COUNT = "count"  # post hook value: count calls, record no span


def targets():
    """(owner, attribute, span name, post hook or COUNT)."""
    from svtlab import analysis, cache, cech, cli, graphs, ideals, linalg, simplicial

    return [
        (cli, "main", "cli.main", None),
        (cli, "load_ideal", "cli.load_ideal", None),
        (cache, "lookup", "cache.lookup", _lookup_counts),
        (cache, "store", "cache.store", _store_counts),
        (cache, "default_cache_dir", "cache.default_dir", None),
        (cech, "local_cohomology_table", "cech.table", None),
        (cech, "build_graded_complex", "cech.complex", _complex_counts),
        (cech.GradedComplex, "differential", "cech.differential", None),
        (cech.EngineLimits, "check", "cech.limits_check.calls", COUNT),
        (cech, "is_vanishing", "cech.is_vanishing", None),
        (cech, "cohomological_dimension", "cech.invariants", None),
        (cech, "q_invariant", "cech.invariants", None),
        (linalg, "rank", _rank_span_name, _rank_counts),
        (simplicial, "hochster_table", "simplicial.hochster", None),
        (simplicial, "reduced_cohomology", "simplicial.reduced_cohomology", None),
        (simplicial, "link", "simplicial.link", None),
        (simplicial, "complex_from_ideal", "simplicial.complex_from_ideal", None),
        (simplicial, "depth_quotient", "simplicial.depth_quotient", None),
        (simplicial, "finite_length", "simplicial.finite_length", None),
        (ideals, "minimal_primes", "ideals.minimal_primes", None),
        (ideals, "stanley_reisner_facets", "ideals.stanley_reisner_facets", None),
        (ideals, "dim_quotient", "ideals.dim_quotient", None),
        (ideals, "height", "ideals.height", None),
        (ideals, "is_m_primary", "ideals.is_m_primary", None),
        (ideals, "sum_ideals", "ideals.sum_ideals", None),
        (graphs, "theta_graph", "graphs.theta", None),
        (graphs, "punctured_spectrum_connected", "graphs.connected", None),
        (graphs, "is_connected", "graphs.is_connected", None),
        (analysis, "svt_check", "analysis.svt_check", None),
        (analysis, "hlv_check", "analysis.sentinels", None),
        (analysis, "grade_check", "analysis.sentinels", None),
    ]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list = []
        self.counters: dict = defaultdict(int)
        self.item = -1
        self._patches: list = []

    def count(self, name: str, amount=1):
        self.counters[name] += amount

    def _name_id(self, name: str) -> int:
        ix = self._name_ids.get(name)
        if ix is None:
            ix = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ix

    def _wrap(self, fn, span, post):
        tracer = self
        clock = time.perf_counter

        if post == COUNT:

            def counted(*args, **kwargs):
                tracer.counters[span] += 1
                return fn(*args, **kwargs)

            return counted

        def wrapper(*args, **kwargs):
            name = span(tracer, args) if callable(span) else span
            sid = len(tracer.span_start)
            tracer.span_name.append(tracer._name_id(name))
            tracer.span_parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.span_item.append(tracer.item)
            tracer.span_end.append(0.0)
            tracer.stack.append(sid)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[sid] = clock()
                tracer.stack.pop()
            if post is not None:
                post(tracer, name, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items() if k.startswith("svtlab") and m]
        for owner, attr, span, post in targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span, post)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self):
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def self_times(self) -> dict:
        """{span name: (total self time in s, calls)}."""
        n = self.span_count
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out: dict = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            s, c = out.get(name, (0.0, 0))
            out[name] = (s + self.span_end[i] - self.span_start[i] - child[i], c + 1)
        return out

    def write_jsonl(self, path: str):
        with open(path, "w") as fh:
            for i in range(self.span_count):
                fh.write(
                    json.dumps(
                        {
                            "span": i,
                            "name": self.names[self.span_name[i]],
                            "start": self.span_start[i],
                            "end": self.span_end[i],
                            "parent": self.span_parent[i],
                            "item": self.span_item[i],
                        }
                    )
                    + "\n"
                )
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")
