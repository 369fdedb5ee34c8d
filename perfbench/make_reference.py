"""Regenerate reference.json: the payload digest of every pool item of every
workload at the default seed.  A run with that seed compares each item's
output (without `timings` and `cache`) against these digests.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right; the digests
then pin those outputs for every later commit.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402


def main() -> int:
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    reference = {}
    for name, setup in workloads.SETUP.items():
        with tempfile.TemporaryDirectory(dir=scratch) as work:
            prepared = setup(work, workloads.DEFAULT_SEED, workloads.POOL[name])
            digests = []
            for k, item in enumerate(prepared.items):
                reason, payload = item.result(item.call())
                item.after()
                if reason is not None:
                    sys.stderr.write(f"{name} item {k}: {reason}\n")
                    return 1
                digests.append(workloads.digest(payload))
        reference[name] = digests
        print(f"{name}: {len(digests)} digests")
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
