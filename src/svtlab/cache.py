"""Content-addressed cache for cohomology tables.

Keys hash the variables, the sorted generators and the field, so permuting
generators in the input still hits, while a different prime field misses.
The engine version is stamped inside each entry instead: an entry from
another release reads as a miss, which the next store overwrites.  Writes
are atomic (temp file + rename).  An entry is checked before it is trusted:
one that is not a JSON object, or holds a degree, pattern or dimension no
table can have, is evicted and counts as a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Optional

from . import ENGINE_VERSION
from .cech import CohomologyTable
from .fields import FieldSpec
from .ideals import SquareFreeIdeal

ENV_CACHE_DIR = "SVTLAB_CACHE_DIR"


def default_cache_dir() -> str:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(base, "svtlab")


def cache_key(I: SquareFreeIdeal, field: FieldSpec) -> str:
    canonical = {
        "variables": list(I.context.names),
        "generators": sorted(I.generators),
        "field": field.label(),
    }
    blob = json.dumps(canonical, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _entry_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, key + ".json")


def lookup(cache_dir: str, I: SquareFreeIdeal, field: FieldSpec) -> Optional[CohomologyTable]:
    path = _entry_path(cache_dir, cache_key(I, field))
    try:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise TypeError("a cache entry must be a JSON object")
        if data.get("engine") != ENGINE_VERSION:
            return None
        return _checked_table(I, field, data["entries"])
    except FileNotFoundError:
        return None
    except (ValueError, KeyError, TypeError, RecursionError):  # JSONDecodeError is a ValueError
        _evict(path)
        return None


def _checked_table(I: SquareFreeIdeal, field: FieldSpec, entries) -> CohomologyTable:
    """The table of cached entries, or ValueError.

    An entry is trusted only if local_cohomology_table could have written
    it: 0 <= i <= n, a non-empty pattern inside the union of the generator
    supports, a positive integer dimension, and no (i, pattern) twice.  The
    table itself must be nonempty, since H^{ht I}_I(S) is nonzero.  When
    the entries come in the order of the table's rows, as store writes
    them, they become its rows.
    """
    n = I.context.n
    union = I.support_union()
    dims, rows, ordered = {}, [], True
    for e in entries:
        i, names, d = e["i"], e["pattern"], e["dim"]
        if not isinstance(names, list):
            raise TypeError("cached pattern must be a list of variable names")
        mask, in_order = I.context.ordered_mask(names)
        if type(i) is not int or not 0 <= i <= n:
            raise ValueError(f"cached degree {i!r} is outside 0..{n}")
        if not mask or mask & ~union:
            raise ValueError("cached pattern is empty or outside the support union")
        if type(d) is not int or d <= 0:
            raise ValueError("cached dimension must be a positive integer")
        if (i, mask) in dims:
            raise ValueError("cached entry repeats a degree and pattern")
        dims[(i, mask)] = d
        rows.append((i, tuple(names), d))
        ordered = ordered and in_order
    if not dims:
        raise ValueError("a cached table of a proper nonzero ideal cannot be empty")
    table = CohomologyTable(I, field, dims)
    if ordered and rows == sorted(rows):
        table.rows = tuple(rows)
    return table


def _evict(path: str) -> bool:
    """Remove an entry; False if another process removed it first."""
    try:
        os.remove(path)
    except FileNotFoundError:
        return False
    return True


def store(cache_dir: str, I: SquareFreeIdeal, field: FieldSpec, table: CohomologyTable):
    os.makedirs(cache_dir, exist_ok=True)
    payload = {"engine": ENGINE_VERSION, "entries": table.entries()}
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            # dumps uses the C encoder; dump always takes the Python one
            fh.write(json.dumps(payload, sort_keys=True))
        os.replace(tmp, _entry_path(cache_dir, cache_key(I, field)))
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def clear(cache_dir: str) -> int:
    if not os.path.isdir(cache_dir):
        return 0
    return sum(
        _evict(os.path.join(cache_dir, name))
        for name in os.listdir(cache_dir)
        if name.endswith(".json")
    )


def stats(cache_dir: str) -> dict:
    entries, size = 0, 0
    if os.path.isdir(cache_dir):
        for name in os.listdir(cache_dir):
            if not name.endswith(".json"):
                continue
            try:
                size += os.path.getsize(os.path.join(cache_dir, name))
            except FileNotFoundError:  # removed by another process
                continue
            entries += 1
    return {"dir": cache_dir, "entries": entries, "bytes": size}
