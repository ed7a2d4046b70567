import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qesquartic import quaddiff
from qesquartic.errors import AmbiguousTopology, StallNearTurningPoint

from oracles import critical_graph_five_eval, horizontality_residual, mst_scipy


class TestTurningPoints:
    def test_double_point(self):
        tps = quaddiff.turning_points(0, 0.75)
        mults = sorted(m for _, m in tps)
        assert mults == [1, 1, 2]
        dbl = next(z for z, m in tps if m == 2)
        assert abs(dbl - 1.0) < 1e-6

    def test_factored_case(self):
        # (T^2)^2 - 4T at the origin-parameter point: roots of T(T^3 - 4)
        tps = quaddiff.turning_points(0, 0)
        pts = sorted((z for z, _ in tps), key=lambda z: (round(z.real, 6), z.imag))
        r = 4 ** (1 / 3)
        w = np.exp(2j * np.pi / 3)
        targets = sorted([0, r, r * w, r * np.conj(w)],
                         key=lambda z: (round(np.real(z), 6), np.imag(z)))
        assert max(abs(p - t) for p, t in zip(pts, targets)) < 1e-8

    def test_generic_simple(self):
        tps = quaddiff.turning_points(1 + 0.5j, 2 - 1j)
        assert sorted(m for _, m in tps) == [1, 1, 1, 1]

    def test_vieta(self):
        rng = np.random.RandomState(4)
        for _ in range(25):
            a = complex(*rng.randn(2))
            L = complex(*rng.randn(2))
            tps = quaddiff.turning_points(a, L)
            roots = [z for z, m in tps for _ in range(m)]
            assert abs(sum(roots)) < 1e-9 * (1 + max(abs(z) for z in roots))
            s2 = sum(
                roots[i] * roots[j]
                for i in range(4) for j in range(i + 1, 4)
            )
            assert abs(s2 - (-2 * a)) < 1e-8 * (1 + abs(a))


class TestTracing:
    def test_ray_counts(self):
        assert len(quaddiff._local_ray_angles(0, 0, 0 + 0j, 1)) == 3
        assert len(quaddiff._local_ray_angles(0, 0.75, 1 + 0j, 2)) == 4

    def test_horizontality_residual(self, monkeypatch):
        # the secant residual of the polylines converges at O(h^2); at the
        # fine step it must sit below the stated fidelity tolerance
        monkeypatch.setattr(quaddiff, "H0", 2.5e-4)
        g = quaddiff.critical_graph(0, 0)
        worst = max(
            horizontality_residual(tr["path"], 0, 0)
            for tr in g.trajectories if len(tr["path"]) > 10
        )
        assert worst < 1e-6

    def test_residual_converges_quadratically(self, monkeypatch):
        def worst_at(h):
            monkeypatch.setattr(quaddiff, "H0", h)
            g = quaddiff.critical_graph(0, 0)
            return max(horizontality_residual(tr["path"], 0, 0)
                       for tr in g.trajectories if len(tr["path"]) > 10)

        r1, r2 = worst_at(2e-3), worst_at(1e-3)
        assert r2 < r1 / 2.5

    def test_symmetric_criterion_true(self):
        g = quaddiff.critical_graph(0, 0)
        assert g.all_on_critical
        assert len(g.turning_points) == 4
        # the central turning point connects to all three outer ones
        edges = {tuple(sorted((tr["from"], tr["to"]))) for tr in g.trajectories
                 if tr["result"] == "capture"}
        assert len(edges) >= 3

    def test_double_point_criterion_true(self):
        g = quaddiff.critical_graph(0, 0.75)
        assert g.all_on_critical

    def test_far_generic_false(self):
        g = quaddiff.critical_graph(0, 5 + 5j)
        assert not g.all_on_critical

    def test_real_axis_case(self):
        # rightmost endpoint parameter for a=3: double point plus a connected
        # conjugate pair
        g = quaddiff.critical_graph(3.0, _real_axis_endpoint())
        assert g.all_on_critical


class TestCloseTurningPoints:
    @pytest.mark.parametrize("eps", [1e-5, -1e-5, 3e-5])
    def test_unresolvable_pair_raises(self, eps):
        # the two simple points near T = 1 are under 10 capture radii apart;
        # the unguarded tracer reads them as unconnected
        with pytest.raises(StallNearTurningPoint):
            quaddiff.critical_graph(0, 0.75 + eps)

    @pytest.mark.parametrize("eps", [1e-3, -1e-3])
    def test_resolved_pair_connects(self, eps):
        assert quaddiff.critical_graph(0, 0.75 + eps).all_on_critical


def _real_axis_endpoint():
    from qesquartic import bkw

    return max(bkw.support_endpoints(3.0), key=lambda z: z.real).real


class TestFourEvaluationStep:
    @pytest.mark.parametrize("a, L", [(0.5 - 0.5j, 1.0), (0, 0), (0, 0.75),
                                      (0, 5 + 5j), (3.0, None)])
    def test_paths_equal_five_evaluation_oracle(self, a, L):
        # a step's last field value is exactly the next step's first one
        if L is None:
            L = _real_axis_endpoint()
        g = quaddiff.critical_graph(a, L)
        want = critical_graph_five_eval(a, L)
        assert len(g.trajectories) == len(want)
        for tr, (result, to, path) in zip(g.trajectories, want):
            assert (tr["result"], tr["to"]) == (result, to)
            assert np.array_equal(tr["path"], path)

    def test_direct_trace_uses_the_graph_capture_radius(self):
        # a ray traced on its own captures within the radius critical_graph
        # offsets its starts by, so it reproduces the graph's path
        a, L = 0.5 - 0.5j, 1.0
        g = quaddiff.critical_graph(a, L)
        tp, m = g.turning_points[0]
        th = quaddiff._local_ray_angles(a, L, tp, m)[0]
        start = tp + 3 * quaddiff._capture_radius(g.turning_points) * np.exp(1j * th)
        result, to, path = quaddiff.trace_horizontal(a, L, start, np.exp(1j * th))
        tr = g.trajectories[0]
        assert (result, to) == (tr["result"], tr["to"])
        assert np.array_equal(path, tr["path"])


BENCH_CASE = (0.5 - 0.5j, 1.0)


@pytest.fixture(scope="module")
def bench_graphs():
    """The bench case's graph and its rays traced at the fixed cap H0."""
    return (quaddiff.critical_graph(*BENCH_CASE),
            critical_graph_five_eval(*BENCH_CASE, fixed_cap=True))


class TestDistanceScaledStep:
    def test_bench_case_path_points(self, bench_graphs):
        # 53,670 points at the fixed cap
        g, _ = bench_graphs
        assert sum(len(tr["path"]) for tr in g.trajectories) < 15000

    def test_equals_fixed_cap_within_distance_one(self, bench_graphs):
        # each ray is the fixed-cap ray up to and including its first point
        # more than 1 from every turning point
        g, fixed = bench_graphs
        tps = np.array([z for z, _ in g.turning_points])
        assert len(g.trajectories) == len(fixed)
        for tr, (result, to, path) in zip(g.trajectories, fixed):
            dmin = np.abs(tr["path"][:, None] - tps[None, :]).min(axis=1)
            far = np.nonzero(dmin > 1)[0]
            if len(far) == 0:
                assert (tr["result"], tr["to"]) == (result, to)
                assert np.array_equal(tr["path"], path)
                continue
            k = far[0] + 1
            assert np.array_equal(tr["path"][:k], path[:k])

    def test_residual_no_worse_than_fixed_cap(self, bench_graphs):
        g, fixed = bench_graphs

        def worst(paths):
            return max(horizontality_residual(p, *BENCH_CASE)
                       for p in paths if len(p) > 10)

        assert worst(tr["path"] for tr in g.trajectories) <= worst(
            p for _, _, p in fixed)


def _leg_cloud(seed=0, jitter=5e-4):
    # spectral clouds sit essentially exactly on their curves, so the
    # synthetic stand-ins carry only a whisper of jitter
    rng = np.random.RandomState(seed)
    ts = np.linspace(0.02, 1, 70)
    w = np.exp(2j * np.pi / 3)
    pts = np.concatenate([ts, ts * w, ts * np.conj(w)])
    return pts + jitter * (rng.randn(len(pts)) + 1j * rng.randn(len(pts)))


def _arc_cloud(seed=1, jitter=5e-4, corner=False):
    rng = np.random.RandomState(seed)
    th = np.linspace(-0.9, 0.9, 160)
    if corner:
        pts = np.abs(th) * 1.0 + 1j * th
    else:
        pts = np.cos(th) + 1j * np.sin(th)
    return pts + jitter * (rng.randn(len(pts)) + 1j * rng.randn(len(pts)))


class TestClassifier:
    def test_three_legs_synthetic(self):
        verdict, det = quaddiff.classify_cloud(_leg_cloud())
        assert verdict == "three-legs"
        assert det["leaves"] == 3

    def test_arc_synthetic(self):
        verdict, det = quaddiff.classify_cloud(_arc_cloud())
        assert verdict == "one-arc"

    def test_corner_synthetic(self):
        verdict, det = quaddiff.classify_cloud(_arc_cloud(corner=True))
        assert verdict == "singular"
        assert det["corner_deg"] > quaddiff.CORNER_DEG_THRESHOLD

    def test_too_few_points(self):
        with pytest.raises(AmbiguousTopology):
            quaddiff.classify_cloud(np.arange(5, dtype=complex))

    def test_support_topology_inside(self):
        # deep inside the three-leg region; modest probe keeps this fast
        verdict, det = quaddiff.support_topology((1 - 1j) / 2, n_probe=60)
        assert verdict == "three-legs"
        assert det["n_probe"] == 60


def _tree_edges(adj):
    i, j = np.nonzero(np.triu(adj))
    return {(int(a), int(b)) for a, b in zip(i, j)}


def _is_spanning_tree(adj):
    m = len(adj)
    seen, todo = {0}, [0]
    while todo:
        k = todo.pop()
        for j in np.nonzero(adj[k])[0]:
            if int(j) not in seen:
                seen.add(int(j))
                todo.append(int(j))
    return len(seen) == m and len(_tree_edges(adj)) == m - 1


class TestMinimumSpanningTree:
    @settings(max_examples=80)
    @given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                    min_size=2, max_size=40, unique=True))
    def test_matches_scipy(self, xy):
        pts = np.array([complex(x, y) for x, y in xy])
        adj, D = quaddiff._mst_adjacency(pts)
        assert _is_spanning_tree(adj)
        want_edges, want_weight = mst_scipy(pts)
        assert D[np.triu(adj)].sum() == pytest.approx(want_weight, rel=1e-12)
        d = D[np.triu_indices(len(pts), 1)]
        if len(np.unique(d)) == len(d):
            assert _tree_edges(adj) == want_edges

    @pytest.mark.parametrize("cloud", [_leg_cloud(), _arc_cloud(),
                                       _arc_cloud(corner=True)])
    def test_synthetic_clouds_match_scipy(self, cloud):
        adj, _ = quaddiff._mst_adjacency(cloud)
        assert _tree_edges(adj) == mst_scipy(cloud)[0]

    def test_duplicate_point_joined_by_zero_edge(self):
        # scipy's sparse input drops zero distances; the dense Prim tree
        # keeps them, so a duplicated point hangs off its twin
        base = _leg_cloud()[:40]
        pts = np.concatenate([base, base[7:8]])
        adj, D = quaddiff._mst_adjacency(pts)
        assert _is_spanning_tree(adj)
        assert adj[7, 40]
        assert D[np.triu(adj)].sum() == pytest.approx(mst_scipy(base)[1], rel=1e-12)
