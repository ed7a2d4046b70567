"""Disk cache for expensive exact artifacts (one JSON file per artifact).

Files are named {kind}-{n}.json inside the cache directory, which resolves
from, in order: an explicit argument, the QESQUARTIC_CACHE environment
variable, and ~/.cache/qesquartic.  Writes go through a temp file and an
atomic rename, so concurrent duplicate computation is wasteful but safe.
Big integers are serialized as decimal strings and point sets as lists of
[re, im] pairs.  A damaged entry (unreadable JSON, a point list of the
wrong length or with non-finite values, or an integer polynomial of the
wrong degree or with a coefficient that is not a decimal string) reads as a
miss.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

ENV_VAR = "QESQUARTIC_CACHE"


def cache_dir(explicit=None) -> Path:
    if explicit:
        d = Path(explicit)
    elif os.environ.get(ENV_VAR):
        d = Path(os.environ[ENV_VAR])
    else:
        d = Path.home() / ".cache" / "qesquartic"
    d.mkdir(parents=True, exist_ok=True)
    return d


def artifact_path(kind: str, n: int, directory=None) -> Path:
    return cache_dir(directory) / f"{kind}-{n}.json"


def load(kind: str, n: int, directory=None):
    path = artifact_path(kind, n, directory)
    if not path.exists():
        return None
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None


def store(kind: str, n: int, payload: dict, directory=None) -> Path:
    path = artifact_path(kind, n, directory)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def encode_int_poly(coeffs) -> list:
    return [str(int(c)) for c in coeffs]


def decode_int_poly(payload, degree: int):
    """The int list stored under payload["coeffs"], or None unless it holds
    exactly degree + 1 decimal strings with a nonzero last one."""
    cs = payload.get("coeffs") if isinstance(payload, dict) else None
    if not isinstance(cs, list) or len(cs) != degree + 1:
        return None
    try:
        out = [int(c) for c in cs if isinstance(c, str)]
    except ValueError:
        return None
    return out if len(out) == len(cs) and out[-1] else None


def encode_points(points) -> list:
    return [[z.real, z.imag] for z in map(complex, points)]


def decode_points(payload, count: int):
    """The complex ndarray stored under payload["points"], or None unless it
    holds exactly ``count`` finite [re, im] pairs."""
    pts = payload.get("points") if isinstance(payload, dict) else None
    if not isinstance(pts, list) or len(pts) != count:
        return None
    try:
        out = np.array([complex(re, im) for re, im in pts])
    except (TypeError, ValueError):
        return None
    return out if np.isfinite(out).all() else None


def list_entries(directory=None):
    d = cache_dir(directory)
    return sorted(p.name for p in d.glob("*.json"))


def clear(directory=None) -> int:
    d = cache_dir(directory)
    files = list(d.glob("*.json"))
    for p in files:
        p.unlink()
    return len(files)
