"""Named verification suites: every documented acceptance check as a callable.

Each check returns {"name", "passed", "detail", "seconds"}; suites group
them ("exact", "asymptotic", "monodromy", "all").  The characteristic
polynomial oracle used by the recurrence-equivalence check is an independent
sparse cofactor expansion over exact rationals: it shares no code with the
minor recurrence.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

from . import bkw, branching, monodromy, quaddiff, spectral, yv, zerocase
from .exactpoly import ExactPoly


def _check(name, fn):
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure with the exception as detail
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return {"name": name, "passed": bool(passed), "detail": detail,
            "seconds": round(time.perf_counter() - t0, 3)}


# ---------------------------------------------------------------------------
# independent characteristic-polynomial oracle (sparse cofactor expansion)
# ---------------------------------------------------------------------------

def charpoly_cofactor(n: int, a: Fraction) -> ExactPoly:
    """det(M - x I) by cofactor expansion down the first column, exact.

    Exponential-looking but effectively linear here because each column has
    at most three nonzero entries; used only as the independent oracle for
    the recurrence route (n <= 12 in the acceptance gate).
    """
    a = Fraction(a)
    size = n + 1
    x = ExactPoly.variable()

    def entry(i, j):
        if i == j:
            return -x
        if i == j + 1:
            return ExactPoly([n - j])
        if j == i + 1:
            return ExactPoly([(i + 1) * a])
        if j == i + 2:
            return ExactPoly([(i + 1) * (i + 2)])
        return None

    memo = {}

    def _det_memo(rows):
        if rows in memo:
            return memo[rows]
        # one row is consumed per column, so the current column index is
        # determined by how many rows remain
        c = size - len(rows)
        acc = ExactPoly.zero()
        for pos, i in enumerate(rows):
            e = entry(i, c)
            if e is None:
                continue
            sub = rows[:pos] + rows[pos + 1 :]
            term = e * _det_memo(sub) if sub else e
            if pos % 2 == 1:
                term = -term
            acc = acc + term
        memo[rows] = acc
        return acc

    return _det_memo(tuple(range(size)))


# ---------------------------------------------------------------------------
# individual acceptance criteria
# ---------------------------------------------------------------------------

def criterion_exact_structure(n_max: int):
    """(1) threefold coefficient structure + P/Q/R certification, n <= n_max."""
    def run():
        for n in range(1, n_max + 1):
            zerocase.factor_structure(n)
            if not zerocase.pqr_matches_factor(n):
                return False, f"factor/PQR mismatch at n={n}"
        bad = []
        for n in range(3, n_max + 1):
            rec = zerocase.certify_all(n)
            for e in rec["pqr"]:
                for key, val in e.items():
                    if key == "l":
                        continue
                    if val is True or val in ("interlacing-with-largest-in-p",
                                              "degenerate-equal"):
                        continue
                    bad.append((n, e["l"], key, val))
        if bad:
            return False, f"certification failures: {bad[:5]}"
        return True, f"all n <= {n_max} certified exactly"
    return _check("exact-structure", run)


def criterion_oracle_equivalence():
    """(2) recurrence charpoly == cofactor-expansion charpoly, exact, for 20
    random n <= 12 and rational a."""
    def run():
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 12)
            a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            lhs = spectral.spectral_polynomial(n, a)
            rhs = charpoly_cofactor(n, a)
            if lhs != rhs:
                return False, f"mismatch at n={n}, a={a}"
        return True, "20 random (n <= 12, rational a) cases equal"
    return _check("oracle-equivalence", run)


def criterion_scaling_limit(ns, cache_dir=None):
    """(3) max scaled modulus near 3/4 with monotone error decay."""
    def run():
        errs = []
        for n in ns:
            r = spectral.scaled_spectrum(n, 0, cache_dir=cache_dir).max_modulus()
            errs.append(abs(r - 0.75))
        ok_band = errs[-1] < 0.1 * 0.75
        ok_mono = all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
        detail = ", ".join(f"n={n}: err={e:.5f}" for n, e in zip(ns, errs))
        return ok_band and ok_mono, detail
    return _check("scaling-limit", run)


def criterion_cauchy_consistency(cache_dir=None):
    """(4) averaged Cauchy transform vs the empirical one of the n = 200
    scaled spectrum at ten points of |beta| = 2, within 1e-2."""
    def run():
        cloud = spectral.scaled_spectrum(200, 0, cache_dir=cache_dir)
        worst = 0.0
        for k in range(10):
            z = 2.0 * np.exp(2j * np.pi * (k + 0.35) / 10)
            c1 = bkw.cauchy_nu(z, 0)
            c2 = spectral.empirical_cauchy(cloud, z)
            worst = max(worst, abs(c1 - c2))
        return worst < 1e-2, f"worst |diff| = {worst:.2e} over 10 points"
    return _check("cauchy-consistency", run)


def criterion_branch_endpoint_algebra():
    """(5) endpoint cubic == branch cubic at tau=1/2 exactly; dsc zero at the
    threshold; a = 0 endpoints on the circle of radius 3/4."""
    def run():
        b = bkw.branch_cubic_coeffs_in_a(Fraction(1, 2))
        e = bkw.endpoint_cubic_coeffs_in_a()
        if any(x != y for x, y in zip(b, e)):
            return False, "cubic coefficient mismatch at tau = 1/2"
        if bkw.dsc_exact(Fraction(27, 4), Fraction(1, 2)) != 0:
            return False, "dsc at the real threshold is not exactly zero"
        ep = bkw.support_endpoints(0)
        w = np.exp(2j * np.pi / 3)
        targets = np.array([0.75, 0.75 * w, 0.75 * w * w])
        dev = max(
            min(abs(x - t) for t in targets) for x in ep
        )
        return dev < 1e-12, f"a=0 endpoint deviation {dev:.2e}"
    return _check("branch-endpoint-algebra", run)


def criterion_real_interval():
    """(6) real branch points for a = 1.9, 2.5, 3 above the threshold, at
    tau = k/1000; union support is the interval between the two rightmost
    endpoint roots, to 1e-6."""
    def run():
        avals, tol = (1.9, 2.5, 3.0), 1e-6
        for a in avals:
            worst_im = 0.0
            for k in range(1, 1000):
                t = k / 1000
                bp = bkw.branch_points(a, t)
                worst_im = max(worst_im, float(np.abs(bp.imag).max()))
            if worst_im > 1e-9:
                return False, f"nonreal branch point at a={a}: Im={worst_im:.2e}"
            lo, hi = bkw.real_support_interval(a, refine_tol=tol / 10)
            ep = sorted(bkw.support_endpoints(a).real)
            if abs(lo - ep[1]) > tol or abs(hi - ep[2]) > tol:
                return False, (f"interval [{lo:.8f},{hi:.8f}] vs endpoints "
                               f"{ep[1]:.8f},{ep[2]:.8f} at a={a}")
        return True, f"verified for a in {avals}"
    return _check("real-interval", run)


def criterion_yv_exact(n_max: int):
    """(7, exact clauses) divisibility + degrees to n_max; the two fixed low
    members; the Painleve residual for the first ten members."""
    def run():
        seq = yv.yv_generate(n_max)   # divisibility enforced inside
        for n in range(n_max + 1):
            if seq[n].degree != n * (n + 1) // 2:
                return False, f"degree failure at n={n}"
        if seq[2] != ExactPoly.from_int_coeffs([4, 0, 0, 1]):
            return False, "second member mismatch"
        if seq[3] != ExactPoly.from_int_coeffs([-80, 0, 0, 20, 0, 0, 1]):
            return False, "third member mismatch"
        for n in range(1, 11):
            r = yv.painleve_residual(n, 0.7 + 0.1 * n)
            if r > 1e-6:
                return False, f"second-Painleve residual {r:.2e} at n={n}"
        return True, f"divisibility, degrees, members, residuals ok to n={n_max}"
    return _check("yv-exact", run)


def criterion_yv_scaling_band(n: int, cache_dir=None):
    """(7, asymptotic clause) corner modulus within 10% of its limit.

    The ratio max|zeros of YV_n| / ((27/2)^(1/3) n^(2/3)) must lie within
    0.10 of 1.  The limit comes from u'' = 2u^3 + tu + n: with t = n^(2/3) y
    and u = n^(1/3) U the leading balance 2U^3 + yU + 1 = 0 has its branch
    points, the triangle's corners, at y^3 = -27/2.  Measured: 0.9440 at
    n = 40 and 0.9191 at n = 25 (both pass), 0.9038 at n = 20 (too near the
    edge) and 0.8855 at n = 16 (fails); the gap closes like n^(-0.78).
    """
    def run():
        corner = yv.yv_zeros(n, cache_dir=cache_dir).max_modulus()
        ratio = corner / (yv.CORNER_CONSTANT * n ** (2.0 / 3.0))
        ok = abs(ratio - 1.0) < 0.10
        return ok, (f"ratio to the corner limit max|zeros_{n}|/((27/2)^(1/3) "
                    f"{n}^(2/3)) = {ratio:.4f} (band +-0.10 around 1)")
    return _check("yv-scaling-band", run)


def criterion_sigma(ns, cache_dir=None):
    """(8) exact discriminant degrees, the n=2 values, conjugation symmetry."""
    def run():
        for n in ns:
            poly = branching.sigma_polynomial(n, cache_dir=cache_dir)
            if poly.degree != n * (n + 1) // 2:
                return False, f"degree failure at n={n}"
            # conjugation symmetry is exact: integer coefficients
            if poly.den != 1:
                return False, f"non-integer coefficient at n={n}"
        pts = branching.sigma_points(2, cache_dir=cache_dir).points.points
        w = np.exp(2j * np.pi / 3)
        m = 3 * 2 ** (-4 / 3)
        targets = np.array([m, m * w, m * np.conj(w)])
        dev = max(min(abs(p - t) for t in targets) for p in pts)
        if dev > 1e-10:
            return False, f"second branching set off by {dev:.2e}"
        return True, f"degrees and values verified for n in {tuple(ns)}"
    return _check("sigma-suite", run)


def criterion_fig2_trend(ns, cache_dir=None):
    """(9) scaled branching vs scaled zero loci: equal cardinalities and a
    decreasing mean nearest-neighbor distance."""
    def run():
        dists = []
        for n in ns:
            B = yv.scaled_zeros(n, cache_dir=cache_dir)
            A = branching.scaled_sigma(n, cache_dir=cache_dir,
                                       near=B.points * B.scale)
            rep = branching.compare_sets(A, B)
            if rep["card_a"] != rep["card_b"]:
                return False, f"cardinality mismatch at n={n}: {rep}"
            dists.append(rep["mean_nn"])
        ok = all(dists[i] > dists[i + 1] for i in range(len(dists) - 1))
        detail = ", ".join(f"n={n}: meanNN={d:.5f}" for n, d in zip(ns, dists))
        return ok, detail
    return _check("fig2-trend", run)


def criterion_monodromy(n_paths_max: int, cache_dir=None):
    """(10) Kac spectrum, big-circle reversal, standard-path transpositions,
    stability under step doubling and deformation."""
    def run():
        K = monodromy.kac_matrix(8, 1.0)
        ev = np.sort(np.linalg.eigvals(K).real)
        grid = np.array([-1 + 2 * k / 8 for k in range(9)])
        if np.abs(ev - grid).max() > 1e-10:
            return False, "comparison-matrix spectrum not equispaced"
        res = monodromy.track_path(8, monodromy.circle_path(0, 500.0))
        if res.one_line() != tuple(range(9, 0, -1)):
            return False, f"big circle gave {res.one_line()}"
        for n in range(2, n_paths_max + 1):
            bs = branching.sigma_points(n, cache_dir=cache_dir)
            for idx in range(len(bs.points.points)):
                path = monodromy.path_around_index(n, idx, branch_set=bs)
                r1 = monodromy.track_path(n, path, steps=160)
                r2 = monodromy.track_path(n, path, steps=320)
                if r1.permutation != r2.permutation:
                    return False, f"step-doubling instability at n={n} idx={idx}"
                tr = r1.is_transposition()
                j = bs.cols[idx]
                if tr != (j, j + 1):
                    return False, (f"n={n} point {idx} (col {j}): got {tr}, "
                                   f"expected ({j}, {j + 1})")
            # deformation probe on one real-axis hook per n
            real_idx = int(np.argmax(bs.points.points.real))
            p1 = monodromy.path_around_index(n, real_idx, branch_set=bs)
            p2 = monodromy.path_around_index(n, real_idx, branch_set=bs,
                                             bump=0.17)
            if monodromy.track_path(n, p1).permutation != \
               monodromy.track_path(n, p2).permutation:
                return False, f"deformation instability at n={n}"
        return True, f"all standard paths for n <= {n_paths_max} are (j, j+1)"
    return _check("monodromy-suite", run)


def criterion_topology(n_probe: int, cache_dir=None):
    """(11) the three labeled support shapes."""
    cases = [((1 - 1j) / 2, "three-legs"), (2 / 3 - 1j, "one-arc"),
             (4 / 5 - 2j / 3, "singular")]

    def run():
        got = []
        for a, expect in cases:
            verdict, details = quaddiff.support_topology(a, n_probe=n_probe,
                                                         cache_dir=cache_dir)
            got.append((a, verdict, details))
            if verdict != expect:
                return False, f"a={a}: got {verdict} (expected {expect}): {details}"
        return True, "; ".join(f"a={a}: {v}" for a, v, _ in got)
    return _check("topology-classification", run)


def criterion_determinism():
    """(12) byte-identical figure output on a warm cache."""
    import tempfile
    from . import cli

    def run():
        with tempfile.TemporaryDirectory(prefix="qesq-det-") as base:
            out1 = f"{base}/run1"
            out2 = f"{base}/run2"
            cachedir = f"{base}/cache"
            cli.cmd_figure("figTau", out_dir=out1, cache_dir=cachedir,
                           overrides={"k_max": 60})
            cli.cmd_figure("figTau", out_dir=out2, cache_dir=cachedir,
                           overrides={"k_max": 60})
            import filecmp
            import os
            names = sorted(os.listdir(out1))
            for name in names:
                if not filecmp.cmp(f"{out1}/{name}", f"{out2}/{name}",
                                   shallow=False):
                    return False, f"{name} differs between identical runs"
            return True, f"{len(names)} files byte-identical"
    return _check("determinism", run)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

# The sizes of the checks that `--fast` shrinks, keyed by check name: FULL
# for `verify` and the acceptance tests, FAST for `verify --fast`.
FULL = {
    "exact-structure": 60,
    "yv-exact": 40,
    "sigma-suite": (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16, 20, 40),
    "scaling-limit": (50, 100, 200),
    "yv-scaling-band": 40,
    "fig2-trend": (10, 20),
    "topology-classification": 200,
    "monodromy-suite": 6,
}
FAST = {
    "exact-structure": 24,
    "yv-exact": 16,
    "sigma-suite": (1, 2, 3, 4, 5, 6, 8),
    "scaling-limit": (50, 100),
    "yv-scaling-band": 25,
    "fig2-trend": (6, 10),
    "topology-classification": 120,
    "monodromy-suite": 4,
}


def run_suite(suite: str = "all", fast: bool = False, cache_dir=None):
    """Run a named suite; returns the list of check records."""
    size = FAST if fast else FULL
    checks = {
        "exact": lambda: [
            criterion_exact_structure(size["exact-structure"]),
            criterion_oracle_equivalence(),
            criterion_branch_endpoint_algebra(),
            criterion_yv_exact(size["yv-exact"]),
            criterion_sigma(size["sigma-suite"], cache_dir=cache_dir),
        ],
        "asymptotic": lambda: [
            criterion_scaling_limit(size["scaling-limit"], cache_dir=cache_dir),
            criterion_cauchy_consistency(cache_dir=cache_dir),
            criterion_real_interval(),
            criterion_yv_scaling_band(size["yv-scaling-band"],
                                      cache_dir=cache_dir),
            criterion_fig2_trend(size["fig2-trend"], cache_dir=cache_dir),
            criterion_topology(size["topology-classification"],
                               cache_dir=cache_dir),
        ],
        "monodromy": lambda: [
            criterion_monodromy(size["monodromy-suite"], cache_dir=cache_dir),
        ],
    }
    if suite == "all":
        out = []
        for key in ("exact", "asymptotic", "monodromy"):
            out.extend(checks[key]())
        out.append(criterion_determinism())
        return out
    if suite not in checks:
        raise ValueError(f"unknown suite {suite!r}")
    return checks[suite]()
