"""The fixed-point (p, p') kernel, the Aberth solver built on it, and the
vectorized cubic helper."""

import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from qesquartic import branching, intpoly, rootfind, spectral, yv
from qesquartic.errors import NonConvergence, StructureViolation

SPAN_DIGITS = 320       # decimal digits between the smallest and largest |c_k|


def _exact_mp(c):
    """c, an int or a Gaussian-integer pair (re, im), as an mp number at the
    caller's working precision."""
    return mp.mpc(*c) if isinstance(c, tuple) else mp.mpf(c)


def _oracle(coeffs, scale, z, dps):
    """p, p', sum |c_k||z|^k and sum k|c_k||z|^(k-1) for the coefficients
    c_k scale^(k-d) at the double z, in mpmath at dps digits."""
    d = len(coeffs) - 1
    with mp.workdps(dps):
        s = mp.mpf(scale)
        cs = [_exact_mp(c) * s ** (k - d) for k, c in enumerate(coeffs)]
        zm, az = mp.mpc(z), abs(mp.mpc(z))
        p, q, den, dden = cs[d], mp.mpc(0), abs(cs[d]), mp.mpf(0)
        for c in reversed(cs[:-1]):
            q = q * zm + p
            dden = dden * az + den
            p = p * zm + c
            den = den * az + abs(c)
        return p, q, den, dden


@st.composite
def _coefficients(draw):
    """Dense coefficients of one kind, ints or Gaussian-integer pairs, whose
    moduli span SPAN_DIGITS digits."""
    kind = draw(st.sampled_from(["int", "gaussian"]))
    d = draw(st.integers(2, 24))
    exps = draw(st.lists(st.integers(0, SPAN_DIGITS), min_size=d + 1,
                         max_size=d + 1))
    lo, hi = draw(st.permutations(range(d + 1)))[:2]
    exps[lo], exps[hi] = 0, SPAN_DIGITS
    mant = st.integers(1, 10**6).flatmap(lambda m: st.sampled_from([m, -m]))
    coeffs = []
    for e in exps:
        if kind == "int":
            coeffs.append(draw(mant) * 10**e)
        else:
            coeffs.append((draw(mant) * 10**e, draw(mant) * 10**e))
    return coeffs


@settings(max_examples=40)
@given(coeffs=_coefficients(),
       scale=st.sampled_from([1.0, 0.75 * 2.0**-10, 3.0e5]),
       z=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                            allow_nan=False, allow_infinity=False),
       dps=st.sampled_from([15, 50, 120]))
def test_kernel_matches_oracle(coeffs, scale, z, dps):
    """(p, p') from the fixed-point kernel agree with a floating evaluation
    at twice the digits, to the stage precision of the absolute sums."""
    cfix, shift = rootfind._fixed_coeffs(coeffs, dps, scale)
    pr, pi, qr, qi = rootfind._horner(cfix, [rootfind._exact_point(z)])[0]
    p, q, den, dden = _oracle(coeffs, scale, z, 2 * dps)
    with mp.workdps(2 * dps):
        unit = mp.mpf(2) ** -shift
        tol = mp.mpf(10) ** -dps
        assert abs(mp.mpc(pr, pi) * unit - p) <= tol * den
        assert abs(mp.mpc(qr, qi) * unit - q) <= tol * dden


def _from_roots(real_roots, pairs):
    """Ascending int coefficients of L prod (z - r) prod (z - w)(z - conj w),
    L the least common denominator (so the roots are those of the product)."""
    poly = [Fraction(1)]
    factors = [[-r, 1] for r in real_roots]
    factors += [[re * re + im * im, -2 * re, 1] for re, im in pairs]
    for f in factors:
        out = [Fraction(0)] * (len(poly) + len(f) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(f):
                out[i + j] += a * b
        poly = out
    den = math.lcm(*(c.denominator for c in poly))
    return [int(c * den) for c in poly]


def _assert_certified(coeffs, true_roots):
    """Each true root lies in the inclusion disk of its own returned root."""
    got = rootfind.aberth_roots(coeffs)
    cfix, _ = rootfind._fixed_coeffs(coeffs, 50)
    radii = rootfind._inclusion_radii(cfix, got)
    true_roots = np.asarray(true_roots, dtype=complex)
    nearest = np.abs(got[:, None] - true_roots[None, :]).argmin(axis=0)
    assert sorted(nearest) == list(range(len(got)))
    assert np.all(np.abs(got[nearest] - true_roots) <= radii[nearest])
    assert radii.max() < 1e-12 * np.abs(true_roots).max()


def test_known_roots_with_cluster():
    eps = Fraction(1, 10**6)
    real = [Fraction(1), 1 + eps, 1 + 2 * eps, Fraction(-3, 2), Fraction(7, 3)]
    pairs = [(Fraction(1, 2), Fraction(5, 4)), (Fraction(-2), Fraction(1, 3)),
             (Fraction(1), eps)]
    truth = [complex(r) for r in real]
    truth += [complex(re, s * im) for re, im in pairs for s in (1, -1)]
    _assert_certified(_from_roots(real, pairs), truth)


@settings(max_examples=15)
@given(real=st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=64),
                     min_size=2, max_size=14, unique=True))
# a root at the origin; the double stage once handed back 1 + 4.3e-81 i
@example(real=[0, 1, Fraction(-3, 2)])
def test_known_real_roots(real):
    _assert_certified(_from_roots(real, []), [complex(r) for r in real])


def test_inclusion_radius_covers_the_evaluation_rounding():
    # p(z) of z (z - 1)(z + 3/2) rounds to exactly 0 in fixed point at
    # z = 1 + 4.3e-81 i, yet the root 1 lies 4.3e-81 away
    cfix, _ = rootfind._fixed_coeffs(_from_roots([0, 1, Fraction(-3, 2)], []), 50)
    z = 1 + 4.3e-81j
    assert rootfind._horner(cfix, [rootfind._exact_point(z)])[0][:2] == (0, 0)
    assert rootfind._inclusion_radii(cfix, [z])[0] >= 4.3e-81


def test_frozen_radius_covers_the_last_step():
    # the disk about the evaluated point 1 + 1e-10 holds the root 1; the
    # root returned lies a step of 5e-10 further out, 6e-10 from it
    cfix, _ = rootfind._fixed_coeffs([-2, 1, 1], 50)
    za = np.array([1 + 1e-10])
    z = za + 5e-10
    values = rootfind._horner(cfix, map(rootfind._exact_point, za))
    assert rootfind._inclusion_radii(cfix, za, values)[0] < abs(z[0] - 1)
    assert rootfind._frozen_radii(cfix, za, z, values)[0] >= abs(z[0] - 1)


def test_newton_polygon_radii_of_roots_at_origin():
    # freed blocks of the same size: memory that np.empty hands back holds junk
    for _ in range(3):
        junk = np.full(5, 1e300)
        del junk
    radii = rootfind.newton_polygon_radii([0, 0, -6, 11, -6, 1])
    assert np.array_equal(radii[:2], [0, 0])
    assert np.all(radii[2:] > 0)


def test_degree_one():
    assert rootfind.aberth_roots([3, 2])[0] == -1.5
    assert rootfind.aberth_roots([1, 6])[0] == -1 / 6
    # (1 + i) + 2i z: the root -(1 + i)/(2i) = (-1 + i)/2
    assert rootfind.aberth_roots([(1, 1), (0, 2)])[0] == complex(-0.5, 0.5)
    # negated before rounding: -complex(4, 0) is (-4-0j), whose sign bit
    # would flip the cube-root branch threefold_roots takes for YV_2 = t^3 + 4
    for coeffs in ([4, 1], [(4, 0), (1, 0)]):
        root = rootfind.aberth_roots(coeffs)[0]
        assert root == -4 and math.copysign(1.0, root.imag) == 1.0


NOT_INTEGER = {"Fraction": Fraction(-6), "float": -6.0, "complex": complex(-6),
               "mpf": mp.mpf(-6), "mpc": mp.mpc(-6)}


@pytest.mark.parametrize("form", list(NOT_INTEGER))
def test_coefficients_other_than_integers_rejected(form):
    """Ints and Gaussian-integer pairs are the only coefficient forms."""
    c = NOT_INTEGER[form]
    for coeffs in ([c, 11, -6, 1], [-6, 11, -6, c]):
        with pytest.raises(TypeError):
            rootfind.aberth_roots(coeffs)
    with pytest.raises(TypeError):
        rootfind.threefold_roots([c, 0, 0, 3, 0, 0, 1])
    with pytest.raises(TypeError):
        rootfind.residual_scale_aware([c, 0, 1], 1.0)


def test_sum_check_covers_gaussian_coefficients(monkeypatch):
    # (z - 1 - i)(z - 2)(z - 3 + 2i): the roots sum to 6 - i
    coeffs = [(-10, -2), (13, -1), (-6, 1), (1, 0)]
    got = np.sort_complex(rootfind.aberth_roots(coeffs))
    assert np.abs(got - [1 + 1j, 2, 3 - 2j]).max() < 1e-14
    neg_ratio = rootfind._neg_ratio
    monkeypatch.setattr(rootfind, "_neg_ratio", lambda u, v: -neg_ratio(u, v))
    with pytest.raises(NonConvergence, match="sum-of-roots"):
        rootfind.aberth_roots(coeffs)


def test_leading_zero_rejected():
    with pytest.raises(ValueError):
        rootfind.aberth_roots([1, 2, 0])


@pytest.mark.parametrize("init", [[1, 2], [1, 2, 3, 4], [[1, 2, 3]],
                                  [1, np.nan, 3], [1, 2, np.inf]])
def test_bad_init_rejected(init):
    with pytest.raises(ValueError, match="init"):
        rootfind.aberth_roots([-6, 11, -6, 1], init=init)


def test_init_seeds_the_same_roots():
    coeffs = [-6, 11, -6, 1]
    got = np.sort_complex(rootfind.aberth_roots(coeffs, init=[0.9, 2.2j, 3.1]))
    assert np.abs(got - [1, 2, 3]).max() < 1e-14


def test_coincident_roots_restart_apart():
    # the repulsion sum of two coincident roots is NaN: each takes a step of
    # 1e-3 at its own golden-ratio turn instead, the same on every run
    start = np.array([0.5 + 0j, 0.5, -1])
    steps = []
    for _ in range(2):
        z = start.copy()
        aw = rootfind._aberth_sweep(z, np.arange(3), np.array([0.1, 0.1, 0.1 + 0j]))
        steps.append((z.tobytes(), aw.tobytes()))
        assert np.all(np.isfinite(z)) and z[0] != z[1]
        assert np.allclose(aw[:2], 1e-3, rtol=1e-12)
    assert steps[0] == steps[1]


def test_coincident_starts_still_give_certified_roots(monkeypatch):
    coeffs = [720, -1764, 1624, -735, 175, -21, 1]     # roots 1..6
    init = [1.1, 1.1, 3.2, 4.1, 5.3, 6.2]
    coincident = []
    sweep = rootfind._aberth_sweep

    def spied(z, active, N):
        za = z[active]
        coincident.append(len(set(za.tolist())) < len(za))
        return sweep(z, active, N)

    monkeypatch.setattr(rootfind, "_aberth_sweep", spied)
    runs = [rootfind.aberth_roots(coeffs, init=init) for _ in range(2)]
    assert coincident[0]
    assert runs[0].tobytes() == runs[1].tobytes()
    assert np.abs(np.sort_complex(runs[0]) - np.arange(1, 7)).max() < 1e-13


def test_one_sweep_does_not_converge(monkeypatch):
    monkeypatch.setattr(rootfind, "DEFAULT_SCHEDULE", ((50, 1),))
    with pytest.raises(NonConvergence):
        rootfind.aberth_roots(list(range(1, 12)))


# ---------------------------------------------------------------------------
# the double-precision first stage
# ---------------------------------------------------------------------------

def _sigma_seeded(n):
    def solve(cache_dir):
        near = yv.yv_zeros(n).points
        return branching.sigma_points(n, cache_dir=cache_dir, near=near).points.points
    return solve


STAGE_CASES = {
    **{f"yv_zeros({n})": (lambda d, n=n: yv.yv_zeros(n, cache_dir=d).points)
       for n in (10, 16, 25, 30)},
    **{f"eigenvalues({n}, 0)":
       (lambda d, n=n: spectral.eigenvalues(n, 0, cache_dir=d).points)
       for n in (120, 200)},
    **{f"YV-seeded sigma_points({n})": _sigma_seeded(n) for n in (16, 25)},
    # criterion 11 at its first parameter and the smallest probe above the
    # dense threshold
    "eigenvalues(84, (1 - i)/2 84^(2/3))": lambda d: spectral.eigenvalues(
        84, (1 - 1j) / 2 * 84 ** (2 / 3), cache_dir=d).points,
}


@pytest.mark.parametrize("case", list(STAGE_CASES))
def test_double_stage_keeps_the_multiprecision_roots(case, tmp_path, monkeypatch):
    """With the double stage, the roots equal those of the multiprecision
    stages alone to 1e-12 relative (separate caches, so neither side reads
    the other's points)."""
    solve = STAGE_CASES[case]
    got = solve(str(tmp_path / "with-stage"))
    monkeypatch.setattr(rootfind, "DEFAULT_SCHEDULE", rootfind.DEFAULT_SCHEDULE[1:])
    want = solve(str(tmp_path / "multiprecision-only"))
    D = np.abs(got[:, None] - want[None, :])
    assert D[linear_sum_assignment(D)].max() <= 1e-12 * np.abs(want).max()


def test_double_stage_cuts_multiprecision_evaluations(tmp_path, horner_points):
    # 1157 point evaluations from the multiprecision stages alone
    yv.yv_zeros(25, cache_dir=str(tmp_path))
    assert sum(horner_points) <= 600


def test_radii_come_from_the_freezing_sweep(horner_points):
    # starts at the roots freeze in one multiprecision sweep, whose values
    # also give the inclusion radii: no second pass over the roots
    got = rootfind.aberth_roots([-6, 11, -6, 1], init=[1, 2, 3])
    assert np.abs(np.sort_complex(got) - [1, 2, 3]).max() < 1e-14
    assert horner_points == [3]


def test_useless_seeds_restart_from_the_newton_polygon(monkeypatch):
    # at n = 84, a = 1e-50 i, M balanced at t = |a| has finite eigenvalues
    # that leave roots active after the double stage; run on from there,
    # Aberth gave up after 118 multiprecision sweeps
    n, a = 84, 1e-50j
    M, i = spectral.build_matrix(n, a), np.arange(n)
    r = np.sqrt((i + 1) * abs(a) / (n - i))
    M[i + 1, i] *= r
    M[i, i + 1] /= r
    M[i[:-1], i[:-1] + 2] /= r[:-1] * r[1:]
    coeffs = spectral.charpoly_coeffs_mp(n, a)
    want = rootfind.aberth_roots(coeffs)
    stages = []
    double_stage = rootfind._double_stage
    monkeypatch.setattr(rootfind, "_double_stage",
                        lambda *args: stages.append(1) or double_stage(*args))
    got = rootfind.aberth_roots(coeffs, init=np.linalg.eigvals(M))
    assert len(stages) == 2
    D = np.abs(got[:, None] - want[None, :])
    assert D[linear_sum_assignment(D)].max() <= 1e-12 * np.abs(want).max()


def test_double_stage_coefficients_keep_their_exponents():
    """The rescaled coefficients of YV_30's g span more than the double
    range, and each nonzero one keeps its value to 2^-50 relative."""
    _, g = intpoly.split_cube(yv._yv_int_coeffs(30)[30])
    d = len(g) - 1
    s = float(rootfind.newton_polygon_radii(g).max())
    man, exp = rootfind._dpe_coeffs(g, s)
    nonzero = [k for k, c in enumerate(g) if c]
    assert exp[nonzero].max() - exp[nonzero].min() > 1100
    assert not man.imag.any()
    for k, c in enumerate(g):
        if not c:
            assert man[k] == 0
            continue
        value = Fraction(c) * Fraction(s) ** (k - d)
        got = Fraction(man[k].real) * Fraction(2) ** int(exp[k])
        assert abs(got - value) <= abs(value) * Fraction(1, 2**50)


def test_double_root_refused():
    # (z - 1)^2 (z + 2): the two estimates of the double root cannot get
    # disjoint inclusion disks
    with pytest.raises(NonConvergence):
        rootfind.aberth_roots([2, -3, 0, 1])


def test_polish_and_residual_at_roots():
    coeffs = _from_roots([Fraction(-3, 2), Fraction(7, 3)], [(Fraction(1, 2), 2)])
    polished = rootfind.newton_polish(coeffs, rootfind.aberth_roots(coeffs),
                                      dps=40, steps=2)
    with mp.workdps(40):
        for z in polished:
            val = sum(_exact_mp(c) * z**k for k, c in enumerate(coeffs))
            assert abs(val / coeffs[-1]) < mp.mpf(10) ** -35
    for z in polished:
        assert rootfind.residual_scale_aware(coeffs, complex(z)) < 1e-15
    assert rootfind.residual_scale_aware(coeffs, 0) == pytest.approx(1.0)
    assert rootfind.residual_scale_aware([0, 1], 0) == 0.0


def test_residual_scale_aware_batch_equals_pointwise():
    coeffs = _from_roots([Fraction(-3, 2), Fraction(7, 3)], [(Fraction(1, 2), 2)])
    z = np.array([[0, 1.5, -1.5 + 1e-9j], [0.5 + 2j, 3 - 1j, 1e-300]])
    got = rootfind.residual_scale_aware(coeffs, z)
    assert got.shape == z.shape
    assert all(g == rootfind.residual_scale_aware(coeffs, w)
               for g, w in zip(got.flat, z.flat))
    assert rootfind.residual_scale_aware(coeffs, []).shape == (0,)


def test_threefold_roots_init():
    g_roots = [Fraction(-3, 2), Fraction(7, 3), Fraction(5)]
    g = _from_roots(g_roots, [(Fraction(1, 2), 2)])
    coeffs = [0] + [c for cg in g for c in (cg, 0, 0)][:-2]      # x g(x^3)
    xi = np.array([complex(r) for r in g_roots] + [0.5 + 2j, 0.5 - 2j])
    want = rootfind.threefold_roots(coeffs)
    got = rootfind.threefold_roots(coeffs, init=xi * (1 + 0.05j))
    assert got[0] == 0
    dist = np.abs(got[:, None] - want[None, :])
    assert sorted(dist.argmin(axis=1)) == list(range(len(want)))
    assert dist.min(axis=1).max() < 1e-12 * np.abs(want).max()
    with pytest.raises(ValueError):
        rootfind.threefold_roots(coeffs, init=xi[:-1])


def test_threefold_roots_refuses_mixed_classes():
    # x^4 + x^3 + 1: degrees 4, 3 and 0 sit in two classes mod 3
    with pytest.raises(StructureViolation):
        rootfind.threefold_roots([1, 0, 0, 1, 1])


def test_threefold_roots_of_x2_g_x3():
    g_roots = [Fraction(-3, 2), Fraction(7, 3), Fraction(5)]
    g = _from_roots(g_roots, [(Fraction(1, 2), 2)])
    coeffs = [0, 0] + [c for cg in g for c in (cg, 0, 0)][:-2]   # x^2 g(x^3)
    got = rootfind.threefold_roots(coeffs)
    assert len(got) == len(coeffs) - 1
    assert np.array_equal(got[:2], [0, 0])
    xi = np.array([complex(r) for r in g_roots] + [0.5 + 2j, 0.5 - 2j])
    cubes = got[2:] ** 3
    assert np.abs(cubes[:, None] - xi[None, :]).min(axis=1).max() < 1e-12
    # each root of g shows up as exactly three cube roots, 120 degrees apart
    nearest = np.abs(cubes[:, None] - xi[None, :]).argmin(axis=1)
    assert sorted(nearest) == sorted(list(range(len(xi))) * 3)
    for k in range(len(xi)):
        z = got[2:][nearest == k]
        turned = z * np.exp(2j * np.pi / 3)
        assert np.abs(turned[:, None] - z[None, :]).min(axis=1).max() < 1e-12


# ---------------------------------------------------------------------------
# the vectorized cubic helper
# ---------------------------------------------------------------------------

EPS = float(np.finfo(float).eps)
_ROOT = st.one_of(
    st.just(0j),
    st.builds(lambda m, t: m * np.exp(1j * t),
              st.floats(1e-3, 1e3), st.floats(0, 2 * np.pi)),
)


@st.composite
def _known_cubic_roots(draw):
    """Three roots: free, with a pair 1e-6 apart, or with one root at 0 (d = 0)."""
    r = [draw(_ROOT), draw(_ROOT), draw(_ROOT)]
    kind = draw(st.sampled_from(["free", "pair", "zero"]))
    if kind == "pair":
        r[2] = r[1] + 1e-6 * np.exp(1j * draw(st.floats(0, 2 * np.pi)))
    elif kind == "zero":
        r[2] = 0j
    return [complex(x) for x in r]


def _monic_from_roots(r):
    return (-(r[0] + r[1] + r[2]), r[0] * r[1] + r[0] * r[2] + r[1] * r[2],
            -r[0] * r[1] * r[2])


@settings(max_examples=300)
@given(_known_cubic_roots())
# a Newton step from the double root landed exactly on the root at 0
@example([0j, 0.529503421618355 + 0.43008940437204624j,
          0.529503421618355 + 0.43008940437204624j])
def test_cubic_roots_recovered(roots):
    """Each root within 8 eps sum_k |c_k| s^k / |p'(r)| (s the largest root
    modulus): the rounding of the coefficients over the root's condition;
    a multiple root is allowed the eps^(1/3) s of a triple one."""
    b, c, d = _monic_from_roots(roots)
    got = rootfind.cubic_roots(b, c, d)
    assert got.shape == (3,)
    s = max(abs(x) for x in roots)
    scale = s**3 + abs(b) * s**2 + abs(c) * s + abs(d)
    tol = []
    for i, r in enumerate(roots):
        dp = abs(math.prod(r - x for j, x in enumerate(roots) if j != i))
        tol.append(min(8 * EPS * scale / dp if dp else np.inf, 4 * EPS ** (1 / 3) * s))
    best = min(max(abs(got[p[i]] - roots[i]) - tol[i] for i in range(3))
               for p in itertools.permutations(range(3)))
    assert best <= 0


@settings(max_examples=50)
@given(st.lists(_known_cubic_roots(), min_size=1, max_size=12),
       st.sampled_from(["full", "scalar b", "scalar c, d"]))
def test_cubic_roots_broadcast_rows_match_scalar_calls(cubics, layout):
    b, c, d = (np.array(x) for x in zip(*map(_monic_from_roots, cubics)))
    if layout == "scalar b":
        b = b[0]
    elif layout == "scalar c, d":
        c, d = c[0], d[0]
    batch = rootfind.cubic_roots(b, c, d)
    assert batch.shape == (len(cubics), 3)
    for k, row in enumerate(batch):
        one = rootfind.cubic_roots(*(x if np.ndim(x) == 0 else x[k] for x in (b, c, d)))
        lane = rootfind.cubic_roots(*(x if np.ndim(x) == 0 else x[k:k + 1]
                                      for x in (b, c, d)))
        assert np.array_equal(one, row) and np.array_equal(lane, row[None])
    column = [np.reshape(x, (-1, 1)) if np.ndim(x) else x for x in (b, c, d)]
    grid = rootfind.cubic_roots(*column)     # an extra axis
    assert grid.shape == (len(cubics), 1, 3)
    assert np.array_equal(grid[:, 0], batch)
