"""Turning points and critical horizontal trajectories in the plane where
the limit measures live.

The quartic P(T) = (T^2 - a)^2 - 4(T - L) weights the quadratic differential
-P(T) dT^2; its horizontal trajectories are the curves along which
-P(T) (dT)^2 stays real positive.  A zero of order m sprouts m+2 such rays.
The existence criterion tested here: every turning point (zero of P) must
lie on a critical trajectory, i.e. on a trajectory joining turning points.
A turning point of multiplicity >= 2 counts as satisfying this by itself:
it is the zero-length limit of a short connecting trajectory.  Near the
double point of a = 0, L = 0.75 the two simple points of L = 0.75 + eps are
found connected for |eps| = 1e-4 to 1e-2 (5.8 to 58 capture radii apart) and
missed for |eps| <= 3e-5 (3.2 radii and closer), so ``critical_graph``
refuses two unmerged turning points closer than 10 capture radii.

Support topology of the scaled spectral cloud is classified from a pruned
minimum-spanning-tree skeleton; the (leaves, junctions) counts separate the
three-leg from the one-arc shape, and the singular boundary shape - an arc
that has absorbed a leg - is recognized by the sharp corner it leaves behind
(the windowed turning angle of the smooth arc stays under ~8 degrees in
calibration, the singular one reaches ~30).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import AmbiguousTopology, StallNearTurningPoint

MERGE_TOL = 1e-7
CORNER_DEG_THRESHOLD = 18.0
PRUNE_FRAC = 0.05
H0 = 4e-3                # largest RK4 arc-length step of trace_horizontal per
                         # unit distance to the nearest turning point, beyond
                         # distance 1 (within it, the largest step itself)


@dataclass
class TrajectoryGraph:
    """Turning points and the trajectories traced from them."""

    a: complex
    L: complex
    turning_points: list          # (point, multiplicity)
    trajectories: list = field(default_factory=list)
    # each entry: {"from": i, "ray": k, "result": str, "to": j|None, "path": ndarray}
    all_on_critical: bool = False


def quartic_value(T, a, L):
    return (T * T - a) ** 2 - 4 * (T - L)


def quartic_derivative(T, a):
    return 4 * (T**3 - a * T - 1)


def turning_points(a, L):
    """The four roots of P with multiplicity merging.

    Roots closer than MERGE_TOL (on the normalized quartic scale) collapse
    into one point whose multiplicity is the cluster size.
    """
    a = complex(a)
    L = complex(L)
    raw = np.roots([1.0, 0.0, -2 * a, -4.0, a * a + 4 * L])
    scale = 1.0 + np.abs(raw).max()
    used = np.zeros(len(raw), dtype=bool)
    out = []
    for i in range(len(raw)):
        if used[i]:
            continue
        group = [raw[i]]
        used[i] = True
        for j in range(i + 1, len(raw)):
            if not used[j] and abs(raw[i] - raw[j]) < MERGE_TOL * scale:
                group.append(raw[j])
                used[j] = True
        out.append((complex(np.mean(group)), len(group)))
    return out


def _local_ray_angles(a, L, tp, mult):
    """Directions of the m+2 horizontal rays leaving a turning point."""
    a = complex(a)
    # leading coefficient of Q = -P at the zero: -P^(m)(tp)/m!
    if mult == 1:
        c = -quartic_derivative(tp, a)
    elif mult == 2:
        c = -(12 * tp * tp - 4 * a) / 2
    elif mult == 3:
        c = -24 * tp / 6
    else:
        c = -1.0
    nray = mult + 2
    return [(2 * np.pi * k - np.angle(c)) / nray for k in range(nray)]


def _capture_radius(turning):
    """1e-3 times the turning-point diameter, the diameter taken as at
    least 1e-3.

    ``critical_graph`` offsets its ray starts by three times this radius and
    ``trace_horizontal`` captures within it; both take it from here, so the
    two agree to the bit.
    """
    tps = np.array([z for z, _ in turning])
    return float(1e-3 * max(np.abs(tps[:, None] - tps[None, :]).max(), 1e-3))


def trace_horizontal(a, L, start, direction, turning=None):
    """Trace one horizontal trajectory of -P dT^2 from ``start``.

    Integration is arc-length RK4 on the unit direction field
    arg(T') = -arg(-P(T))/2 with the sign chosen for continuity, at steps of
    at most H0 max(1, d) and 0.2 d + 1e-4, d the distance to the nearest
    turning point.  The field turns at most |P'/P|/2 <= 2/d per unit arc
    length, so beyond d = 1 a step turns it by at most 2 H0, as at d = 1;
    within d = 1 the largest step is H0 itself.  A step's last field value
    is the next step's first one (the field at the same T, continued from
    itself), so each step evaluates the field four times.  Returns
    (result, hit_index, path) where result is "capture" (within
    ``_capture_radius`` of a turning point), "escape" (beyond
    10 sqrt(1 + |a| + |L|) + max |turning point|) or "maxlen" (arc length
    12 times that escape radius).  Raises StallNearTurningPoint when
    the adaptive step collapses without reaching the capture radius.
    """
    a = complex(a)
    L = complex(L)
    if turning is None:
        turning = turning_points(a, L)
    # plain complex scalars: the step loop below scans them every RK4 step
    tps = [complex(z) for z, _ in turning]
    cap_r = _capture_radius(turning)
    esc_r = 10 * math.sqrt(1 + abs(a) + abs(L)) + max(abs(z) for z in tps)
    max_len = 12 * esc_r
    T = complex(start)
    d = complex(direction)
    d /= abs(d)

    def field(Tc, dprev):
        Q = -quartic_value(Tc, a, L)
        if Q == 0:
            return dprev
        u = cmath.exp(-0.5j * cmath.phase(Q))
        return u if (u / dprev).real >= 0 else -u

    path = [T]
    slen = 0.0
    h = H0
    stall = 0
    d = field(T, d)          # k1 of every step: the field at T, continued
    while slen < max_len:
        dists = [abs(z - T) for z in tps]
        dmin = min(dists)
        if dmin < cap_r and slen > 3 * cap_r:
            k = dists.index(dmin)
            path.append(tps[k])
            return "capture", k, np.asarray(path)
        if abs(T) > esc_r:
            return "escape", None, np.asarray(path)
        k1 = d
        k2 = field(T + 0.5 * h * k1, k1)
        k3 = field(T + 0.5 * h * k2, k2)
        k4 = field(T + h * k3, k3)
        step = (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if abs(step) < 1e-14:
            stall += 1
            if stall > 50:
                raise StallNearTurningPoint(
                    f"step collapsed at {T} without capture"
                )
        else:
            stall = 0
        T = T + step
        d = field(T, k4)
        path.append(T)
        slen += abs(step)
        h = min(H0 * max(1.0, dmin), 0.2 * dmin + 1e-4)
    return "maxlen", None, np.asarray(path)


def critical_graph(a, L) -> TrajectoryGraph:
    """Trace every ray from every turning point; test the existence criterion.

    A turning point is on the critical set when one of its rays captures at
    a turning point, when some other ray captures INTO it, or when its
    multiplicity is >= 2 (degenerate zero-length connection).  Raises
    StallNearTurningPoint when two turning points lie closer than 10 capture
    radii, where a ray's start, 3 radii out, cannot tell them apart.
    """
    a = complex(a)
    L = complex(L)
    turning = turning_points(a, L)
    cap_r = _capture_radius(turning)
    gap = min(abs(z - w) for (z, _), (w, _) in combinations(turning, 2))
    if gap < 10 * cap_r:
        raise StallNearTurningPoint(
            f"turning points {gap:.3g} apart, under 10 capture radii of {cap_r:.3g}"
        )
    graph = TrajectoryGraph(a=a, L=L, turning_points=turning)
    on_critical = [m >= 2 for _, m in turning]
    for i, (tp, m) in enumerate(turning):
        delta = 3 * cap_r
        for k, th in enumerate(_local_ray_angles(a, L, tp, m)):
            start = tp + delta * np.exp(1j * th)
            result, j, path = trace_horizontal(
                a, L, start, np.exp(1j * th), turning=turning,
            )
            graph.trajectories.append(
                {"from": i, "ray": k, "result": result, "to": j, "path": path}
            )
            if result == "capture":
                on_critical[i] = True
                on_critical[j] = True
    graph.all_on_critical = all(on_critical)
    return graph


# ---------------------------------------------------------------------------
# support topology from the scaled spectral cloud
# ---------------------------------------------------------------------------

def _mst_adjacency(pts):
    """Minimum spanning tree of the complete distance graph, by Prim's
    algorithm on the dense matrix: (boolean adjacency, distance matrix).

    Zero-length edges (duplicate points) are kept, so the tree always spans
    every point.
    """
    D = np.abs(pts[:, None] - pts[None, :])
    m = len(pts)
    adj = np.zeros((m, m), dtype=bool)
    outside = np.ones(m, dtype=bool)
    outside[0] = False
    best = D[0].copy()                  # distance to the tree; inf inside it
    best[0] = np.inf
    parent = np.zeros(m, dtype=int)
    for _ in range(m - 1):
        j = int(np.argmin(best))
        adj[j, parent[j]] = adj[parent[j], j] = True
        outside[j] = False
        best[j] = np.inf
        closer = outside & (D[j] < best)
        best[closer] = D[j, closer]
        parent[closer] = j
    return adj, D


def _prune_skeleton(adj, D, prune_len):
    m = len(adj)
    removed = np.zeros(m, dtype=bool)

    def degree(i):
        return int((adj[i] & ~removed).sum())

    changed = True
    while changed:
        changed = False
        for leaf in range(m):
            if removed[leaf] or degree(leaf) != 1:
                continue
            nodes = [leaf]
            length = 0.0
            prev, cur = -1, leaf
            while True:
                nbrs = [j for j in np.nonzero(adj[cur])[0]
                        if j != prev and not removed[j]]
                if len(nbrs) != 1:
                    break
                nxt = nbrs[0]
                length += D[cur, nxt]
                nodes.append(nxt)
                if degree(nxt) > 2:
                    break
                prev, cur = cur, nxt
            if length < prune_len:
                for nd in nodes[:-1]:
                    removed[nd] = True
                changed = True
    return removed


def _arc_order(pts, adj, removed):
    """Walk the path skeleton from one leaf to the other."""
    m = len(pts)
    deg = np.array([int((adj[i] & ~removed).sum()) if not removed[i] else 0
                    for i in range(m)])
    leaves = np.nonzero(deg == 1)[0]
    if len(leaves) == 0:
        return pts[~removed]
    start = leaves[0]
    order = [start]
    seen = {start}
    cur = start
    while True:
        nbrs = [j for j in np.nonzero(adj[cur])[0]
                if j not in seen and not removed[j]]
        if not nbrs:
            break
        cur = min(nbrs, key=lambda j: abs(pts[j] - pts[order[-1]]))
        order.append(cur)
        seen.add(cur)
    return pts[order]


def max_corner_angle(pts, adj, removed) -> float:
    """Windowed turning angle (degrees) along the arc skeleton, smoothed
    over 6 points and summed over 12 turns."""
    win = 6
    path = _arc_order(pts, adj, removed)
    if len(path) < 3 * win:
        return 0.0
    sm = np.convolve(path, np.ones(win) / win, mode="valid")
    v = np.diff(sm)
    v = v[np.abs(v) > 0]
    ang = np.angle(v[1:] / v[:-1])
    cum = np.abs(np.convolve(ang, np.ones(2 * win), mode="valid"))
    return float(np.degrees(cum.max()))


def classify_cloud(points):
    """Classification of a support-shaped point cloud.

    Leaves shorter than PRUNE_FRAC of the largest distance are pruned from
    the skeleton, and a two-leaf arc whose corner exceeds
    CORNER_DEG_THRESHOLD degrees is "singular".  Returns (verdict, details)
    with verdict in {"three-legs", "one-arc", "singular"}; raises
    AmbiguousTopology when the skeleton counts fit no known pattern.
    """
    pts = np.asarray(points, dtype=complex)
    if len(pts) < 12:
        raise AmbiguousTopology("too few points to classify")
    adj, D = _mst_adjacency(pts)
    removed = _prune_skeleton(adj, D, PRUNE_FRAC * D.max())
    deg = np.array([int((adj[i] & ~removed).sum()) if not removed[i] else 0
                    for i in range(len(pts))])
    leaves = int((deg == 1).sum())
    junctions = int((deg >= 3).sum())
    details = {"leaves": leaves, "junctions": junctions}
    if leaves == 3 and junctions >= 1:
        return "three-legs", details
    if leaves == 2 and junctions == 0:
        corner = max_corner_angle(pts, adj, removed)
        details["corner_deg"] = corner
        if corner > CORNER_DEG_THRESHOLD:
            return "singular", details
        return "one-arc", details
    raise AmbiguousTopology(
        f"skeleton counts fit no pattern: {leaves} leaves, {junctions} junctions")


def support_topology(a, n_probe: int = 200, cache_dir=None):
    """Shape of the limiting support at this a, probed by the scaled
    spectrum at n_probe with the a_n = a n^(2/3) regime."""
    from .spectral import scaled_spectrum

    cloud = scaled_spectrum(n_probe, a, rule="n23", cache_dir=cache_dir)
    verdict, details = classify_cloud(cloud.points)
    details["n_probe"] = n_probe
    return verdict, details
