"""Disk cache for expensive artifacts (one JSON file per artifact).

Files are named {kind}-{n}.json inside the cache directory, which resolves
from, in order: an explicit argument, the QESQUARTIC_CACHE environment
variable, and ~/.cache/qesquartic; only ``store`` creates it.  Writes go
through a temp file and an atomic rename, so concurrent duplicate
computation is wasteful but safe.  A path that cannot be read is a miss,
and a write that fails is skipped: the cache never fails a computation.

``cached`` is the one read-compute-write path.  An entry holds the format
VERSION, which a change that moves an output raises (a test pins one output
per kind and VERSION), the key (n, the parameter, the precision schedule),
the encoded body and its SHA-256.  An entry that is unreadable, of another
version or key, whose digest does not match or whose body its codec rejects
is a miss: it is recomputed and overwritten.  Two certificates are re-run
on load, each an ``IntPoly.check``: a Yablonskii-Vorob'ev member's recursion
identity (``yv.recurrence_holds``) and a branching polynomial's mod-p
resultant check (``branching._load_check``).  Point sets (YV zeros,
branching points, spectra) are not re-checked on load.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

ENV_VAR = "QESQUARTIC_CACHE"
VERSION = 4   # the unversioned layout before it is version 1


def cache_dir(explicit=None) -> Path:
    if explicit:
        return Path(explicit)
    if os.environ.get(ENV_VAR):
        return Path(os.environ[ENV_VAR])
    return Path.home() / ".cache" / "qesquartic"


def artifact_path(kind: str, n: int, directory=None) -> Path:
    return cache_dir(directory) / f"{kind}-{n}.json"


def load(kind: str, n: int, directory=None):
    try:
        with open(artifact_path(kind, n, directory)) as fh:
            return json.load(fh)
    except (OSError, ValueError):      # JSON and decoding errors are ValueErrors
        return None


def store(kind: str, n: int, payload: dict, directory=None) -> Path | None:
    """Write the entry; its path, or None (nothing written) if a step fails."""
    path, tmp = artifact_path(kind, n, directory), None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        return None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _entry(key: dict, body) -> dict:
    digest = hashlib.sha256(json.dumps(body).encode()).hexdigest()
    return {"version": VERSION, "key": key, "body": body, "sha256": digest}


def cached(kind: str, n: int, key: dict, compute, codec, directory=None):
    """The value stored as (kind, n) under {"n": n, **key}; on a miss, the
    value of compute(), stored first.  ``codec`` is a Points or an IntPoly."""
    key = json.loads(json.dumps({"n": n, **key}))   # tuples read back as lists
    entry = load(kind, n, directory)
    if isinstance(entry, dict) and entry == _entry(key, entry.get("body")):
        value = codec.decode(entry["body"])
        if value is not None:
            return value
    value = compute()
    store(kind, n, _entry(key, codec.encode(value)), directory)
    return value


class Points(NamedTuple):
    """Codec of a complex point set: exactly ``count`` finite [re, im] pairs."""

    count: int

    def encode(self, points) -> list:
        return [[z.real, z.imag] for z in map(complex, points)]

    def decode(self, body):
        try:
            out = np.array([complex(re, im) for re, im in body], dtype=complex)
        except (TypeError, ValueError, OverflowError):
            return None
        return out if len(out) == self.count and np.isfinite(out).all() else None


class IntPoly(NamedTuple):
    """Codec of an integer polynomial of exact ``degree``: degree + 1 decimal
    strings (big integers survive JSON), ascending, the last one nonzero.
    ``check``, when given, is run on the decoded coefficient list: a body it
    rejects is a miss."""

    degree: int
    check: Callable[[list], bool] | None = None

    def encode(self, coeffs) -> list:
        return [str(int(c)) for c in coeffs]

    def decode(self, body):
        if not isinstance(body, list) or len(body) != self.degree + 1:
            return None
        try:
            out = [int(c) for c in body if isinstance(c, str)]
        except ValueError:
            return None
        if len(out) != len(body) or not out[-1]:
            return None
        return out if self.check is None or self.check(out) else None


def list_entries(directory=None):
    return sorted(p.name for p in cache_dir(directory).glob("*.json") if p.is_file())


def clear(directory=None) -> int:
    files = [p for p in cache_dir(directory).glob("*.json") if p.is_file()]
    for p in files:
        p.unlink()
    return len(files)
