import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# exact and multiprecision examples vary widely in cost: no per-example deadline
settings.register_profile("qesquartic", deadline=None)
settings.load_profile("qesquartic")


@pytest.fixture(autouse=True, scope="session")
def _session_cache(tmp_path_factory):
    """Point the default cache at a session temp dir.

    Calls made without ``cache_dir`` then neither read results left by
    earlier runs (or earlier code) nor write into the user's cache.
    """
    from qesquartic import cache

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(cache.ENV_VAR, str(tmp_path_factory.mktemp("qesquartic-cache")))
        yield


@pytest.fixture()
def tmp_cache(tmp_path):
    """Isolated cache directory for tests that exercise cache semantics."""
    d = tmp_path / "cache"
    d.mkdir()
    return str(d)


@pytest.fixture()
def horner_points(monkeypatch):
    """A list that gets the number of points of each multiprecision Horner
    pass of rootfind during the test."""
    from qesquartic import rootfind

    points = []
    horner = rootfind._horner

    def counted(cfix, pts):
        pts = list(pts)
        points.append(len(pts))
        return horner(cfix, pts)

    monkeypatch.setattr(rootfind, "_horner", counted)
    return points
