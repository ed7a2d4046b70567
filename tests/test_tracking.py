"""Level-wise bisection in ``monodromy.track_path`` against a walk along
the path one frame at a time (``oracles.track_path_sequential``)."""

import numpy as np
import pytest

from qesquartic import monodromy
from qesquartic.branching import sigma_points
from qesquartic.errors import CollisionUnresolved

from oracles import track_path_sequential


def _outcome(track):
    try:
        return track()
    except CollisionUnresolved as exc:
        return str(exc)


def assert_matches_walk(n, path, steps=256):
    got = _outcome(lambda: monodromy.track_path(n, path, steps=steps))
    want = _outcome(lambda: track_path_sequential(n, path, steps))
    if isinstance(want, str):
        assert got == want
        return
    assert (got.permutation, got.frames, got.min_gap) == want[:3]
    assert np.array_equal(got.traces, want[3])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("steps", [256, 160, 320])
def test_standard_paths_match_walk(n, steps):
    bs = sigma_points(n)
    for idx in range(len(bs.points.points)):
        path = monodromy.path_around_index(n, idx, branch_set=bs)
        assert_matches_walk(n, path, steps)


@pytest.mark.parametrize("n, R", [(3, 30.0), (5, 40.0), (8, 500.0)])
def test_circles_match_walk(n, R):
    assert_matches_walk(n, monodromy.circle_path(0, R))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_paths_through_branching_points_fail_as_walk(n):
    # each path meets a branching point, where two eigenvalues collide:
    # both trackers must refuse it with the same error
    for sigma in sigma_points(n).points.points:
        sigma = complex(sigma)

        def segment(t, s=sigma):
            return np.where(t <= 0.5, s + 1 - 4 * t, s - 1 + 4 * (t - 0.5))

        for path in (monodromy.circle_path(0, abs(sigma)), segment):
            with pytest.raises(CollisionUnresolved):
                track_path_sequential(n, path, 256)
            assert_matches_walk(n, path)


def test_one_problem_per_batch_matches_walk(monkeypatch):
    # every stacked eigensolve and every judge runs one element at a time
    monkeypatch.setattr(monodromy, "STACK_ENTRIES", 1)
    path = monodromy.path_around_index(3, 0, branch_set=sigma_points(3))
    assert_matches_walk(3, path, 32)


@pytest.mark.parametrize("steps", [0, -1])
def test_steps_below_one_rejected(steps):
    # at steps = 0 the tracker would never leave t = 0 and call this
    # full-reversal circle the identity
    with pytest.raises(ValueError, match="steps"):
        monodromy.track_path(8, monodromy.circle_path(0, 500.0), steps=steps)


def test_frame_budget_exhausted(monkeypatch):
    bs = sigma_points(3)
    path = monodromy.path_around_index(3, 0, branch_set=bs)
    steps = 32
    frames = monodromy.track_path(3, path, steps=steps).frames
    assert frames > steps + 1           # the hook needs a bisection
    monkeypatch.setattr(monodromy, "MAX_FRAMES", frames)
    assert monodromy.track_path(3, path, steps=steps).frames == frames
    for budget in (steps + 1, frames - 1):
        monkeypatch.setattr(monodromy, "MAX_FRAMES", budget)
        with pytest.raises(CollisionUnresolved,
                           match="^frame budget exhausted$"):
            monodromy.track_path(3, path, steps=steps)
