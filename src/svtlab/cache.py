"""Content-addressed cache for cohomology tables.

Keys hash the variables, the sorted generators and the field, so permuting
generators in the input still hits, while a different prime field misses.
The engine version is stamped inside each entry instead: an entry from
another release reads as a miss, which the next store overwrites.  Writes
are atomic (temp file + rename).  Its "entries" are the table's text, the
bytes of the payload's "table", and cech checks them before they are
trusted: an entry that is not a JSON object, or holds a degree, pattern or
dimension no table can have, is evicted and counts as a miss.
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
        return CohomologyTable.from_entries(I, field, data["entries"])
    except FileNotFoundError:
        return None
    except (ValueError, KeyError, TypeError, RecursionError):  # JSONDecodeError is a ValueError
        _evict(path)
        return None


def _evict(path: str) -> bool:
    """Remove an entry; False if another process removed it first."""
    try:
        os.remove(path)
    except FileNotFoundError:
        return False
    return True


def store(cache_dir: str, I: SquareFreeIdeal, field: FieldSpec, table: CohomologyTable):
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write('{"engine": %s, "entries": %s}' % (json.dumps(ENGINE_VERSION), table.text))
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
