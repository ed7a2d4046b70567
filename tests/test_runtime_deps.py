"""The package runs without scipy, a test-only dependency, and loads no
worker pool and no numpy.random."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent("""
    import importlib, pkgutil, sys
    sys.modules["scipy"] = None            # any scipy import now fails
    import numpy as np
    import qesquartic
    for info in pkgutil.iter_modules(qesquartic.__path__):
        importlib.import_module("qesquartic." + info.name)
    # perfbench/worker.py reads sys.modules["mpmath"] right after this import
    assert "mpmath" in sys.modules
    # every command runs serially: no worker pool is loaded
    pools = [k for k in sys.modules
             if k.split(".")[0] in ("concurrent", "multiprocessing")]
    assert pools == [], pools
    from qesquartic import branching, monodromy, quaddiff, rootfind

    # Aberth's restarts draw no random numbers: numpy.random stays unloaded
    # (this script's own draws below load it)
    rootfind.aberth_roots([720, -1764, 1624, -735, 175, -21, 1],
                          init=[1.1, 1.1, 3.2, 4.1, 5.3, 6.2])
    assert "numpy.random" not in sys.modules

    rng = np.random.RandomState(0)
    ts = np.linspace(0.02, 1, 70)
    w = np.exp(2j * np.pi / 3)
    legs = np.concatenate([ts, ts * w, ts * np.conj(w)])
    legs = legs + 5e-4 * (rng.randn(len(legs)) + 1j * rng.randn(len(legs)))
    assert quaddiff.classify_cloud(legs)[0] == "three-legs"

    bs = branching.sigma_points(3, cache_dir=sys.argv[1])
    path = monodromy.path_around_index(3, 0, branch_set=bs)
    assert monodromy.track_path(3, path).is_transposition() is not None

    rep = branching.compare_sets(np.array([0j, 1]), np.array([0.1j, 1 + 0.1j]))
    assert rep["assignment_certificate"]["certified"]

    print(sorted(k for k, v in sys.modules.items()
                 if k.split(".")[0] == "scipy" and v is not None))
""")


def test_runtime_paths_need_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), QESQUARTIC_CACHE=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
