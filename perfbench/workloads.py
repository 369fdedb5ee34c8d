"""The three benchmark workloads, their output checks and the timed loop.

Each workload is a closed loop with one client: the next item starts only
after the previous one returned.  An item is one `svtlab analyze` call made
in-process through `svtlab.cli.main`, or one sweep trial made of the three
library calls `svtlab sweep` makes per trial.  Items come from a seeded pool
(see gen.py) that is walked in whole passes, so every run times the same mix
of item shapes.

Every time metric is reported at the reference speed of calibrate.py: the
calibration kernel runs in between items, the timed phase is cut into blocks
of at least BLOCK_S of item time, and each block's times are multiplied by
the host speed the kernel measured in that block.  The record also carries
the raw (unscaled) values.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import calibrate
import gen
from tracer import Tracer

from svtlab import cache, cech, cli, graphs, ideals
from svtlab.fields import FieldSpec
from svtlab.ideals import SquareFreeIdeal, VariableContext

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 1  # the seed whose payload digests are stored in reference.json

PASS = {"cold_analyze": 12, "warm_analyze": 18, "sweep": 18}  # items per pass
POOL = {"cold_analyze": 144, "warm_analyze": 360, "sweep": 1800}
TRACED_PASSES = {"cold_analyze": 4, "warm_analyze": 4, "sweep": 16}  # even: see run_workload
MIN_ITEMS = 100  # so that ten samples lie beyond the p90
SETUPS = 3  # set-up is repeated and its median reported as setup_s
WARMUP_ITEMS = 2
BLOCK_S = 1.0  # item time between two samples of the calibration kernel

END_TO_END_UNITS = {
    "setup_s": "s",
    "item_p50_s": "s",
    "item_p90_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load_reference(workload: str, seed: int) -> Optional[list]:
    if seed != DEFAULT_SEED or not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH) as fh:
        return json.load(fh).get(workload)


@dataclass
class Item:
    """One unit of load.  `call` runs the program (the only timed part) and
    returns its raw result; `result` turns that into (None or the reason the
    output is wrong, the deterministic payload the reference digest covers);
    `after` cleans up, untimed."""

    call: Callable
    result: Callable
    after: Callable = lambda: None


@dataclass
class Prepared:
    items: list
    cache_dir: Optional[str] = None
    ideals: list = field(default_factory=list)  # (n, SquareFreeIdeal) per pool entry


def _context(n: int) -> VariableContext:
    return VariableContext(tuple(gen.variable_names(n)))


def _analyze_item(argv: list, out: str, n: int, expect_cache: str, fresh_dir=None) -> Item:
    def call():
        return cli.main(argv)

    def result(rc):
        if rc != 0:
            return f"exit code {rc}", None
        with open(out) as fh:
            doc = json.load(fh)
        payload = {k: v for k, v in doc.items() if k not in ("timings", "cache")}
        v = doc["verdicts"]
        if not (doc["sentinels"]["hlv"] and doc["sentinels"]["grade"]):
            return f"sentinel failed: {doc['sentinels']}", payload
        if not v["agreement"]:
            return "vanishing verdict disagrees with dim >= 2 and connected", payload
        if v["cd"] + v["depth"] != n:
            return f"cd {v['cd']} + depth {v['depth']} != n {n}", payload
        if doc["cache"] != expect_cache:
            return f"cache state {doc['cache']!r}, expected {expect_cache!r}", payload
        return None, payload

    def after():
        if os.path.exists(out):
            os.remove(out)
        if fresh_dir is not None:
            shutil.rmtree(fresh_dir, ignore_errors=True)

    return Item(call, result, after)


def _write_docs(work: str, shapes: list, seed: int) -> list:
    rng = random.Random(f"docs:{seed}")
    paths = []
    for k, (n, gens) in enumerate(shapes):
        path = os.path.join(work, f"ideal{k}.json")
        with open(path, "w") as fh:
            json.dump(gen.ideal_document(n, gens, rng), fh)
        paths.append(path)
    return paths


def setup_cold(work: str, seed: int, size: int) -> Prepared:
    pool = gen.cold_pool(seed, size)
    docs = _write_docs(work, [(n, g) for n, g, _ in pool], seed)
    items = []
    for k, ((n, _, fld), doc) in enumerate(zip(pool, docs)):
        fresh = os.path.join(work, f"cache{k}")  # never exists before the call
        out = doc + ".out"
        argv = ["analyze", "--input", doc, "--field", fld, "--cache-dir", fresh, "--output", out]
        items.append(_analyze_item(argv, out, n, "miss", fresh))
    return Prepared(items)


def setup_warm(work: str, seed: int, size: int) -> Prepared:
    pool = gen.sweep_pool(seed, size, "warm")
    docs = _write_docs(work, pool, seed)
    cache_dir = os.path.join(work, "cache")
    q = FieldSpec(0)
    prepared = Prepared([], cache_dir)
    for (n, gens), doc in zip(pool, docs):
        I = SquareFreeIdeal(_context(n), gens)
        if cache.lookup(cache_dir, I, q) is None:
            cache.store(cache_dir, I, q, cech.local_cohomology_table(I, q))
        out = doc + ".out"
        argv = ["analyze", "--input", doc, "--field", "rationals", "--cache-dir", cache_dir, "--output", out]
        prepared.items.append(_analyze_item(argv, out, n, "hit"))
        prepared.ideals.append((n, I))
    return prepared


def setup_sweep(work: str, seed: int, size: int) -> Prepared:
    q = FieldSpec(0)
    items = []
    for n, gens in gen.sweep_pool(seed, size, "sweep"):
        I = SquareFreeIdeal(_context(n), gens)

        def call(I=I, n=n):
            return (
                cech.is_vanishing(I, n - 1, q),
                ideals.dim_quotient(I),
                graphs.punctured_spectrum_connected(I),
            )

        def result(raw):
            vanish, dim, connected = raw
            if vanish != (dim >= 2 and connected):
                return f"H^(n-1) vanishing {vanish} but dim {dim}, connected {connected}", list(raw)
            return None, list(raw)

        items.append(Item(call, result))
    return Prepared(items)


SETUP = {"cold_analyze": setup_cold, "warm_analyze": setup_warm, "sweep": setup_sweep}


@dataclass
class Outcome:
    times: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)  # (pool index, reason)
    wall: float = 0.0
    scaled: list = field(default_factory=list)  # `times` at the reference speed
    scaled_wall: float = 0.0  # `wall` at the reference speed
    speeds: list = field(default_factory=list)  # host speed per block, 1 = reference


def run_items(prepared: Prepared, indices, outcome: Outcome, reference, tracer=None, meter=None):
    """Run the given pool indices in order, timing only each item's call.
    A `meter` gets to run the calibration kernel after each item; its time
    is left out of `outcome.wall`."""
    clock = time.perf_counter
    pool = prepared.items
    start = clock()
    spent = meter.spent if meter is not None else 0.0
    for k in indices:
        item = pool[k % len(pool)]
        if tracer is not None:
            tracer.item = outcome.attempted
        outcome.attempted += 1
        t0 = clock()
        try:
            raw = item.call()
        except Exception as e:  # an item that raises is a failed item, not a crash
            outcome.times.append(clock() - t0)
            outcome.failures.append((k, f"raised {type(e).__name__}: {e}"))
            item.after()
            continue
        outcome.times.append(clock() - t0)
        if meter is not None:
            meter.after_item(outcome.times[-1])
        try:
            reason, payload = item.result(raw)
        except (OSError, ValueError, KeyError, TypeError) as e:
            reason, payload = f"unreadable output: {type(e).__name__}: {e}", None
        if reason is None and reference is not None:
            if digest(payload) != reference[k % len(reference)]:
                reason = "payload digest differs from the reference"
        if reason is not None:
            outcome.failures.append((k, reason))
        item.after()
    outcome.wall += clock() - start - (meter.spent - spent if meter is not None else 0.0)


def run_timed(prepared, name, seconds, min_items, reference, meter) -> Outcome:
    """Whole passes over the pool until `seconds` (calibration included) and
    `min_items` are both met; scaled to the reference speed block by block."""
    outcome = Outcome()
    step = PASS[name]
    first = 0
    n0, w0, k0 = 0, 0.0, len(meter.samples)  # where the current block starts
    start = time.perf_counter()

    def more():
        return time.perf_counter() - start < seconds or outcome.attempted < min_items

    while more():
        run_items(prepared, range(first, first + step), outcome, reference, meter=meter)
        first += step
        if outcome.wall - w0 >= BLOCK_S or not more():
            speed = meter.speed_since(k0)
            outcome.scaled += [t * speed for t in outcome.times[n0:]]
            outcome.scaled_wall += (outcome.wall - w0) * speed
            outcome.speeds.append(speed)
            n0, w0, k0 = len(outcome.times), outcome.wall, len(meter.samples)
    return outcome


def _per_layer(tracer: Tracer, traced: Outcome, untraced: Outcome) -> dict:
    st = tracer.self_times()
    c = tracer.counters

    def s(*names):
        return float(sum(st.get(n, (0.0, 0))[0] for n in names))

    def calls(*names):
        return sum(st.get(n, (0.0, 0))[1] for n in names)

    def prefixed(prefix):
        return [n for n in st if n.startswith(prefix)]

    item_s = sum(traced.times)
    rank_cech = prefixed("linalg.rank.cech.")
    rank_simp = prefixed("linalg.rank.simplicial.")
    lookups = c["cache.hits"] + c["cache.misses"]
    m = {
        "cech.table.s": s("cech.table"),
        "cech.table.calls": calls("cech.table"),
        "cech.complex.s": s("cech.complex"),
        "cech.complex.calls": calls("cech.complex"),
        "cech.complex.calls_per_item": calls("cech.complex") / traced.attempted,
        "cech.complex.terms": c["cech.complex.terms"],
        "cech.differential.s": s("cech.differential"),
        "cech.limits_check.calls": c["cech.limits_check.calls"],
        "linalg.rank.cech.s": s(*rank_cech),
        "linalg.rank.cech.calls": calls(*rank_cech),
        "linalg.rank.cech.nnz": c["linalg.rank.cech.nnz"],
        "linalg.rank.cech.rows": c["linalg.rank.cech.rows"],
        "linalg.rank_q.s": s(*[n for n in prefixed("linalg.rank.") if n.endswith(".q")]),
        "linalg.rank_gfp.s": s(*[n for n in prefixed("linalg.rank.") if n.endswith(".gfp")]),
        "simplicial.hochster.s": s("simplicial.hochster"),
        "simplicial.hochster.calls": calls("simplicial.hochster"),
        "simplicial.reduced_cohomology.calls": calls("simplicial.reduced_cohomology"),
        "linalg.rank.simplicial.s": s(*rank_simp),
        "linalg.rank.simplicial.calls": calls(*rank_simp),
        "ideals.minimal_primes.s": s("ideals.minimal_primes"),
        "ideals.minimal_primes.calls": calls("ideals.minimal_primes"),
        "ideals.stanley_reisner_facets.s": s("ideals.stanley_reisner_facets"),
        "graphs.theta.s": s("graphs.theta"),
        "graphs.theta.calls": calls("graphs.theta"),
        "analysis.svt_check.s": s("analysis.svt_check"),
        "analysis.sentinels.s": s("analysis.sentinels"),
        "cache.lookup.s": s("cache.lookup"),
        "cache.hits": c["cache.hits"],
        "cache.misses": c["cache.misses"],
        "cache.hit_ratio": c["cache.hits"] / lookups if lookups else 0.0,
        "cache.store.s": s("cache.store"),
        "cache.store.bytes": c["cache.store.bytes"],
        "cli.load_ideal.s": s("cli.load_ideal"),
        "cli.self.s": s("cli.main"),
        "trace.item.s": item_s,
        "trace.spans": tracer.span_count,
        "trace.overhead": (traced.attempted / traced.wall) / (untraced.attempted / untraced.wall),
    }
    for layer in ("cli", "cache", "cech", "linalg", "simplicial", "ideals", "graphs", "analysis"):
        m[f"layer.{layer}.s"] = s(*prefixed(layer + "."))
    m["share.cech"] = (m["layer.cech.s"] + m["linalg.rank.cech.s"]) / item_s
    m["share.simplicial"] = (m["layer.simplicial.s"] + m["linalg.rank.simplicial.s"]) / item_s
    m["share.ideals_graphs"] = (m["layer.ideals.s"] + m["layer.graphs.s"]) / item_s
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_root: str,
    *,
    pool_size: Optional[int] = None,
    setups: int = SETUPS,
    min_items: int = MIN_ITEMS,
    after_setup: Optional[Callable] = None,
    traced_passes: Optional[int] = None,
    trace_path: Optional[str] = None,
    started: Optional[float] = None,
) -> dict:
    """One workload in this process; returns the result record.

    `started` is the perf_counter reading taken when the process began, so
    that setup_s covers the imports.  `after_setup(prepared)` may alter the
    prepared state before timing (the checker's self-test plants a wrong
    cache entry through it).
    """
    size = pool_size or POOL[name]
    reference = load_reference(name, seed)
    setup_times, scaled_setup_times = [], []
    prepared = work = None
    warmup = Outcome()
    imports = time.perf_counter() - started if started is not None else 0.0
    meter = calibrate.Meter()
    scaled_imports = imports * meter.speed_since(0)
    for _ in range(setups):
        t0 = time.perf_counter()
        if work is not None:
            shutil.rmtree(work)
        work = os.path.join(work_root, f"setup{len(setup_times)}")
        os.makedirs(work)
        prepared = SETUP[name](work, seed, size)
        last_pass = size - PASS[name]  # the cheap shapes open each pass
        run_items(prepared, range(last_pass, last_pass + WARMUP_ITEMS), warmup, reference)
        setup_times.append(time.perf_counter() - t0)
        meter.sample()
        scaled_setup_times.append(setup_times[-1] * meter.speed_since(len(meter.samples) - 2))
    if after_setup is not None:
        after_setup(prepared)

    record = {"workload": name, "seed": seed}
    if not trace:
        outcome = run_timed(prepared, name, seconds, min_items, reference, meter)
        metrics = {
            "setup_s": scaled_imports + statistics.median(scaled_setup_times),
            "item_p50_s": statistics.median(outcome.scaled),
            "item_p90_s": statistics.quantiles(outcome.scaled, n=10)[-1],
            "items_per_s": outcome.attempted / outcome.scaled_wall,
            "peak_rss_mb": peak_rss_mb(),
        }
        record["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        record["raw"] = {
            "setup_s": imports + statistics.median(setup_times),
            "item_p50_s": statistics.median(outcome.times),
            "item_p90_s": statistics.quantiles(outcome.times, n=10)[-1],
            "items_per_s": outcome.attempted / outcome.wall,
        }
        record["speed"] = statistics.median(outcome.speeds)
    else:
        # Each pass runs untraced and traced back to back, and which goes
        # first alternates, so that neither a drift in machine speed nor the
        # second run of a pass being faster biases trace.overhead.
        step = PASS[name]
        outcome, traced, tracer = Outcome(), Outcome(), Tracer()
        for p in range(traced_passes or TRACED_PASSES[name]):
            indices = range(p * step, (p + 1) * step)
            for tracing in ((False, True) if p % 2 == 0 else (True, False)):
                if tracing:
                    with tracer:
                        run_items(prepared, indices, traced, reference, tracer)
                else:
                    run_items(prepared, indices, outcome, reference)
        if "cache.default_dir" in tracer.names:
            traced.failures.append((-1, "the default cache directory was consulted"))
        if trace_path is not None:
            tracer.write_jsonl(trace_path)
        metrics = _per_layer(tracer, traced, outcome)
        record["metrics"] = {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()}
        outcome.failures += traced.failures
        outcome.attempted += traced.attempted
    failures = warmup.failures + outcome.failures
    record["attempted"] = warmup.attempted + outcome.attempted
    record["failed"] = len(failures)
    record["failures"] = failures[:5]
    record["samples"] = len(outcome.times)
    return record


def _layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name in ("trace.overhead", "cache.hit_ratio") or name.startswith("share."):
        return "ratio"
    return "count"
