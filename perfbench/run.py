"""svtlab benchmark: seeded closed-loop workloads with output checks.

    python3 perfbench/run.py --workload cold_analyze --seed 3 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the program is imported from
./src.  One workload runs per process, so peak RSS and the cache state
belong to that workload; `--workload all` runs each in its own child
process and prints a summary table.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, with every time given at
the reference speed of calibrate.py (the raw wall-clock values are printed
beside them); with --trace 1 they are the per-layer split from a traced
pass (see tracer.py), and the spans go to .perfbench_out/trace-<workload>.jsonl.

Every run uses its own scratch directory under .perfbench_tmp/ and passes
its own --cache-dir; $SVTLAB_CACHE_DIR and $XDG_CACHE_HOME are pointed at
a path inside it that must still not exist when the run ends.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cold_analyze", "warm_analyze", "sweep")
CHILD_TIMEOUT_S = 600


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import svtlab from this checkout's src/, or exit 2 without a result."""
    if not os.path.isfile(os.path.join(SRC, "svtlab", "__init__.py")):
        sys.stderr.write(f"no svtlab sources under {SRC}; run from a full checkout\n")
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]
    import svtlab

    if os.path.dirname(os.path.dirname(os.path.abspath(svtlab.__file__))) != SRC:
        sys.stderr.write(f"svtlab was imported from {svtlab.__file__}, not {SRC}\n")
        sys.exit(2)


def run_one(args) -> int:
    import_program()
    import workloads

    work_root = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    forbidden = os.path.join(work_root, "default-cache")
    os.environ["SVTLAB_CACHE_DIR"] = forbidden
    os.environ["XDG_CACHE_HOME"] = forbidden
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work_root)
    try:
        record = workloads.run_workload(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            work_root,
            setups=1 if args.trace else workloads.SETUPS,
            trace_path=os.path.join(out_dir, f"trace-{args.workload}.jsonl"),
            started=STARTED,
        )
        isolated = not os.path.exists(forbidden)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    for k, reason in record["failures"]:
        print(f"FAILED item {k}: {reason}")
    if not isolated:
        print("FAILED: the default cache directory was created")
    print(
        f"{args.workload} seed={args.seed} attempted={record['attempted']}"
        f" failed={record['failed']} samples={record['samples']}"
        f" error_rate={record['failed'] / record['attempted']:.4g} fraction"
    )
    if "speed" in record:
        print(f"  host speed {record['speed']:.4g} of the reference (median over blocks)")
    raw = record.get("raw", {})
    for name, m in record["metrics"].items():
        extra = f"  (raw {raw[name]:.6g} {m['unit']})" if name in raw else ""
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{extra}")
    result = {
        "correct": record["failed"] == 0 and isolated,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    results = {}
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    print(f"{'metric':40s} " + " ".join(f"{w:>14s}" for w in WORKLOADS))
    rows = [("error_rate", "fraction")] + [(k, m["unit"]) for k, m in results[WORKLOADS[0]]["metrics"].items()]
    for name, unit in rows:
        cells = []
        for w in WORKLOADS:
            r = results[w]
            v = r["failed"] / r["attempted"] if name == "error_rate" else r["metrics"][name]["value"]
            cells.append(f"{v:14.6g}")
        print(f"{name + ' (' + unit + ')':40s} " + " ".join(cells))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
