"""Solution-catalog checks: eigenvalues, profiles, normalization, spinors,
potentials, fields, averages, kinematic closed forms."""
import itertools
import math
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdibeams import catalog as cat
from rdibeams import specialfn as sf
from rdibeams import spinors, sta, verify, waveforms
import oracles
from oracles import adaptive_simpson, hyp1f1_poly


def _eps_mp(spec):
    # the level in 30 digits (natural units)
    n, l, M = spec.n, spec.l, spec.M
    B, m = mpmath.mpf(spec.B), mpmath.mpf(spec.m)
    if spec.family is cat.Family.RADIAL_B:
        K = 2 * n + M + 1
        return mpmath.sqrt(m * m + n * (n + M + 1) * B * B / (4 * K * K))
    levels = n + l if spec.family is cat.Family.UNIFORM_B_SPLIT else n
    return mpmath.sqrt(m * m + 2 * B * B * levels)


def amp_closed_uniform(spec):
    # the amplitude P of the pair (aH, bH), B/sqrt(pi eps (eps + m)) in the
    # uniform field (the split family's too), in 30 digits
    with mpmath.workdps(30):
        eps = _eps_mp(spec)
        return float(spec.B / mpmath.sqrt(mpmath.pi * eps * (eps + spec.m)))


def amp_closed_radial(spec):
    # B kappa/sqrt(4 pi (2n+M+1) eps (eps + m)) in the 1/r field
    with mpmath.workdps(30):
        eps, K = _eps_mp(spec), 2 * spec.n + spec.M + 1
        kappa = mpmath.mpf(spec.M + 1) / K
        return float(spec.B * kappa / mpmath.sqrt(
            4 * mpmath.pi * K * eps * (eps + spec.m)))


def norm_closed_uniform(spec):
    # the paper convention's constants N of f, in 30 digits
    with mpmath.workdps(30):
        eps, n, l = _eps_mp(spec), spec.n, spec.l
        return float(spec.B * mpmath.sqrt(
            2 ** l * mpmath.factorial(n) / (mpmath.pi * mpmath.factorial(n + l)
                                             * eps * (eps + spec.m))))


def norm_closed_split(spec):
    with mpmath.workdps(30):
        eps, n, l = _eps_mp(spec), spec.n, spec.l
        return float(spec.B * mpmath.sqrt(
            mpmath.factorial(n + l) / (mpmath.factorial(n) * 2 ** l
                                       * mpmath.factorial(l) ** 2
                                       * mpmath.pi * eps * (eps + spec.m))))


def norm_closed_radial(spec):
    with mpmath.workdps(30):
        eps, n, M = _eps_mp(spec), spec.n, spec.M
        K = 2 * n + M + 1
        kappa = mpmath.mpf(M + 1) / K
        return float(spec.B * kappa ** (mpmath.mpf(M + 2) / 2) * mpmath.sqrt(
            mpmath.factorial(n) / (4 * mpmath.pi * mpmath.factorial(n + M)
                                   * K * eps * (eps + spec.m))))


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def test_eigenvalue_ground_states():
    for fam, kw in [(cat.Family.UNIFORM_B, {}), (cat.Family.UNIFORM_B_SPLIT, {}),
                    (cat.Family.RADIAL_B, {"M": 0})]:
        spec = cat.SolutionSpec(fam, n=0, **kw)
        assert cat.eigenvalue(spec) == pytest.approx(1.0, abs=1e-15)


def test_eigenvalue_quoted_values():
    assert cat.eigenvalue(cat.SolutionSpec(cat.Family.UNIFORM_B, n=1)) \
        == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert cat.eigenvalue(cat.SolutionSpec(cat.Family.UNIFORM_B_SPLIT,
                                           n=1, l=1)) \
        == pytest.approx(math.sqrt(5.0), abs=1e-12)
    assert cat.eigenvalue(cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=0)) \
        == pytest.approx(math.sqrt(19.0 / 18.0), abs=1e-12)


def test_eigenvalue_longitudinal_momentum_rule():
    for fam, kw in [(cat.Family.UNIFORM_B, dict(n=1, l=1)),
                    (cat.Family.UNIFORM_B_SPLIT, dict(n=2, l=1)),
                    (cat.Family.RADIAL_B, dict(n=1, M=2))]:
        at_rest = cat.eigenvalue(cat.SolutionSpec(fam, **kw))
        moving = cat.eigenvalue(cat.SolutionSpec(fam, p_z=0.7, **kw))
        assert moving == pytest.approx(math.sqrt(at_rest ** 2 + 0.49),
                                       abs=1e-12)


def test_degeneracy_structure():
    eps = [cat.eigenvalue(cat.SolutionSpec(cat.Family.UNIFORM_B, n=2, l=l))
           for l in range(6)]
    assert max(eps) - min(eps) == 0.0
    split = [cat.eigenvalue(cat.SolutionSpec(cat.Family.UNIFORM_B_SPLIT,
                                             n=2, l=l)) for l in range(6)]
    assert all(b > a for a, b in zip(split, split[1:]))


# ---------------------------------------------------------------------------
# profiles and normalization
# ---------------------------------------------------------------------------


def test_uniform_ground_profile_is_constant():
    spec = cat.SolutionSpec(cat.Family.UNIFORM_B, n=0, l=0)
    p0, p1 = cat.profile(spec, 0.3), cat.profile(spec, 1.7)
    assert p0["f"] == pytest.approx(p1["f"], rel=1e-14)
    assert p0["H"] == pytest.approx(math.exp(-0.09), rel=1e-14)


def test_free_bessel_profile_unnormalized_at_origin():
    # J_0(0) = 1: at the origin f is the normalization constant
    spec = cat.SolutionSpec(cat.Family.FREE_BESSEL, l=0, p_perp=1.0)
    pr = cat.profile(spec, 0.0)
    assert pr["f"] == pytest.approx(cat.normalization(spec))
    assert pr["H"] == 1.0


def test_radial_profile_first_excited():
    # f proportional to exp(lam/2 - lam/6) (1 - lam/3) for n=1, M=0
    spec = cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=0)
    norm = cat.normalization(spec)
    for lam in (0.4, 1.1, 2.9):
        pr = cat.profile(spec, lam)
        f, H = pr["f"], pr["H"]
        expected = norm * math.exp(lam / 2.0 - lam / 6.0) * (1.0 - lam / 3.0)
        assert f == pytest.approx(expected, rel=1e-13)
        assert H == pytest.approx(math.exp(-lam / 2.0), rel=1e-14)


def _norm_integral(spec):
    eps = cat.eigenvalue(spec)
    A = spec.m + eps
    pz2 = spec.p_z ** 2

    def j0(lam):
        aH, bH = cat._pair_kernel(spec)(lam)
        return (A * A + pz2) * aH * aH / spec.B ** 2 + bH * bH / 4.0

    lam_max = 7.0 if spec.family is not cat.Family.RADIAL_B else \
        85.0 * (2 * spec.n + spec.M + 1) / (spec.M + 1)
    return 2.0 * math.pi * adaptive_simpson(lambda u: j0(u) * u, 0.0,
                                            lam_max, tol=1e-12)


@pytest.mark.parametrize("spec", [
    cat.SolutionSpec(cat.Family.UNIFORM_B, n=0, l=0),
    cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0),
    cat.SolutionSpec(cat.Family.UNIFORM_B, n=2, l=1),
    cat.SolutionSpec(cat.Family.UNIFORM_B_SPLIT, n=1, l=1),
    cat.SolutionSpec(cat.Family.UNIFORM_B_SPLIT, n=2, l=2),
    cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=0),
    cat.SolutionSpec(cat.Family.RADIAL_B, n=2, M=1),
    cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=1, p_z=0.6),
])
def test_probability_normalization(spec):
    assert _norm_integral(spec) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("spec", [
    s for fam in cat.MAGNETIC_FAMILIES for s in verify.default_specs()[fam]],
    ids=verify.spec_label)
def test_normalization_batch_matches_float_path(spec):
    # the norm average, one integrand call on all nodes, against the float
    # path node by node; only numpy's exp and log and the float path's may
    # differ, by an ulp
    pair, bilinears = cat._pair_kernel(spec), cat.stationary_bilinears(spec)

    def j0_each(lam):
        return np.array([bilinears(*pair(float(x)))["J0"] for x in lam])

    ref = cat._transverse_average(spec, j0_each)
    assert cat.averages(spec)["norm"] == pytest.approx(ref, rel=4e-15, abs=0)
    assert ref == pytest.approx(1.0, rel=1e-14)


def test_normalization_closed_forms():
    for fam in (cat.Family.UNIFORM_B, cat.Family.UNIFORM_B_SPLIT):
        for n, l in ((0, 0), (1, 0), (2, 1), (1, 3)):
            spec = cat.SolutionSpec(fam, n=n, l=l)
            assert cat.normalization(spec) == pytest.approx(
                amp_closed_uniform(spec), rel=1e-14)
    for n, M in ((1, 0), (2, 1), (1, 3)):
        spec = cat.SolutionSpec(cat.Family.RADIAL_B, n=n, M=M)
        assert cat.normalization(spec) == pytest.approx(
            amp_closed_radial(spec), rel=1e-14)


@pytest.mark.parametrize("n, l", [(1, 1), (2, 2), (0, 3), (3, 1)])
def test_split_profile_is_the_paper_convention(n, l):
    # f = N (-1)^l n! l! / (n+l)! u^l L_n^l(u), u = 2 lam^2, with N the
    # paper's constant
    spec = cat.SolutionSpec(cat.Family.UNIFORM_B_SPLIT, n=n, l=l)
    cfac = (-1) ** l / math.comb(n + l, l)
    for lam in (0.3, 0.9, 1.7):
        u = 2.0 * lam * lam
        expected = norm_closed_split(spec) * cfac * u ** l \
            * oracles.laguerre(n, l, u)
        assert cat.profile(spec, lam)["f"] == pytest.approx(
            expected, rel=1e-13)


@pytest.mark.parametrize("family, n, l", [
    (cat.Family.UNIFORM_B, 2, 1), (cat.Family.UNIFORM_B, 3, 4),
    (cat.Family.RADIAL_B, 2, 1), (cat.Family.RADIAL_B, 4, 3)])
def test_profile_is_the_paper_convention(family, n, l):
    # f = N L_n^l(u), u = 2 lam^2, in the uniform field and
    # f = N exp((1 - kappa) lam/2) L_n^M(kappa lam) in the 1/r field, with N
    # the paper's constant, which differs from the amplitude P at l, M > 0
    spec = cat.SolutionSpec(family, n=n, l=l)
    radial = family is cat.Family.RADIAL_B
    norm = (norm_closed_radial if radial else norm_closed_uniform)(spec)
    assert norm != pytest.approx(cat.normalization(spec), rel=1e-3)
    for lam in (0.3, 0.9, 1.7):
        if radial:
            kappa = cat.radial_kappa(spec)
            expected = norm * math.exp((1.0 - kappa) * lam / 2.0) \
                * oracles.laguerre(n, l, kappa * lam)
        else:
            expected = norm * oracles.laguerre(n, l, 2.0 * lam * lam)
        assert cat.profile(spec, lam)["f"] == pytest.approx(
            expected, rel=1e-13)


@pytest.mark.parametrize("n, p_z", [(0, 0.0), (1, 0.0), (3, 0.4)])
def test_split_family_at_l0_is_the_uniform_state(n, p_z):
    # the split state with l = 0 has the uniform-b state's M, level and f
    split = cat.SolutionSpec(cat.Family.UNIFORM_B_SPLIT, n=n, l=0, p_z=p_z)
    uniform = cat.SolutionSpec(cat.Family.UNIFORM_B, n=n, l=0, p_z=p_z)
    assert cat.eigenvalue(split) == cat.eigenvalue(uniform)
    assert cat.normalization(split) == pytest.approx(
        cat.normalization(uniform), rel=1e-15)
    t, x, y, z = np.random.default_rng(5).uniform(0.2, 3.0, size=(4, 40))
    a, b = cat.spinor(split)(t, x, y, z), cat.spinor(uniform)(t, x, y, z)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-15 * np.max(np.abs(b)))
    av_split, av_uniform = cat.averages(split), cat.averages(uniform)
    for key in ("rho", "norm", "J_phi", "J_phi_closed"):
        assert av_split[key] == pytest.approx(av_uniform[key], rel=1e-14,
                                              abs=1e-15)


@pytest.mark.parametrize("n, alpha", [(2, 0), (120, 60), (300, 200),
                                      (600, 100)])
def test_laguerre_rule_integrates_ell_squared_to_one(n, alpha):
    # exact for the polynomial u^alpha L_n^alpha(u)^2 of degree alpha + 2n;
    # the last two need 401 and 651 nodes, past numpy's 186-node laggauss
    nodes, weights = cat._laguerre_rule(n + alpha // 2 + 1)
    ell = sf.laguerre_function(n, alpha)(nodes)
    assert weights @ (ell * ell) == pytest.approx(1.0, abs=1e-13)


def test_laguerre_rule_matches_numpy_at_small_counts():
    # the Golub-Welsch nodes against laggauss where its weights are finite
    nodes, weights = cat._laguerre_rule(40)
    ref_nodes, ref_weights = np.polynomial.laguerre.laggauss(40)
    np.testing.assert_allclose(nodes, ref_nodes, rtol=1e-12)
    np.testing.assert_allclose(weights * np.exp(-nodes), ref_weights,
                               rtol=1e-10, atol=0)


AMP_CLOSED = {cat.Family.UNIFORM_B: amp_closed_uniform,
              cat.Family.UNIFORM_B_SPLIT: amp_closed_uniform,
              cat.Family.RADIAL_B: amp_closed_radial}


def _check_against_mpmath(spec):
    assert cat.normalization(spec) == pytest.approx(
        AMP_CLOSED[spec.family](spec), rel=1e-14)
    # measured over the envelope: at most 5e-13 off for norm and rho (a
    # difference of terms eps/m times larger), 3e-12 relative for J_phi,
    # and 5e-13 of the largest component for psi
    with mpmath.workdps(30):
        eps = _eps_mp(spec)
        if spec.family is cat.Family.RADIAL_B:
            n, M = spec.n, spec.M
            j_phi = -spec.B * n * (1 + n + M) / ((2 * n + M + 1) ** 2 * eps)
        else:
            split = spec.family is cat.Family.UNIFORM_B_SPLIT
            levels = spec.n + spec.l if split else spec.n
            j_phi = -mpmath.sqrt(2) * spec.B * levels / eps
    av = cat.averages(spec)
    assert av["norm"] == pytest.approx(1.0, abs=1e-12)
    assert av["rho"] == pytest.approx(float(spec.m / eps), abs=1e-12)
    assert av["J_phi"] == pytest.approx(float(j_phi), rel=1e-11, abs=1e-12)
    # points where the state lives, u at 1/2, 1 and 3/2 of its mean
    # 2n + alpha + 1, against the largest of their components (one point
    # alone may sit near a node)
    col = cat.spinor(spec)
    err = scale = 0.0
    for frac in (0.5, 1.0, 1.5):
        u = frac * (2 * spec.n + spec.l + 1)
        lam = u / cat.radial_kappa(spec) \
            if spec.family is cat.Family.RADIAL_B else math.sqrt(u / 2.0)
        r = cat.r_of_lam(spec, lam)
        pt = (0.3, r * math.cos(0.7), r * math.sin(0.7), 0.2)
        ref = oracles.magnetic_spinor_mp(spec, *pt)
        err = max(err, np.max(np.abs(col(*pt) - ref)))
        scale = max(scale, np.max(np.abs(ref)))
    assert err <= 1e-12 * scale


# the sweep measures the validity envelope, Laguerre degree 2n + l (l = M
# in the 1/r field) up to cat.MAX_DEGREE = 800
@example(cat.Family.UNIFORM_B, (400, 0))
@example(cat.Family.UNIFORM_B, (0, 800))
@example(cat.Family.UNIFORM_B, (120, 60))
@example(cat.Family.UNIFORM_B_SPLIT, (200, 400))
@example(cat.Family.UNIFORM_B_SPLIT, (1, 200))
@example(cat.Family.UNIFORM_B_SPLIT, (50, 100))
@given(st.sampled_from([cat.Family.UNIFORM_B, cat.Family.UNIFORM_B_SPLIT]),
       st.integers(0, 400).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(0, 800 - 2 * n))))
@settings(derandomize=True, max_examples=20, deadline=None)
def test_uniform_field_states_match_mpmath(family, state):
    n, l = state
    _check_against_mpmath(cat.SolutionSpec(family, n=n, l=l))


@example(0, 800)
@example(280, 233)
@example(60, 60)
@example(30, 10)
@example(2, 0)
@given(st.integers(0, 60), st.integers(0, 60))
@settings(derandomize=True, max_examples=20, deadline=None)
def test_radial_field_states_match_mpmath(n, M):
    _check_against_mpmath(cat.SolutionSpec(cat.Family.RADIAL_B, n=n, M=M))


def test_all_low_radial_states_normalize():
    # 25 of these 121 could not be normalized by the hand-written profile
    for n in range(11):
        for M in range(11):
            spec = cat.SolutionSpec(cat.Family.RADIAL_B, n=n, M=M)
            assert cat.normalization(spec) == pytest.approx(
                amp_closed_radial(spec), rel=1e-14)
            assert cat.averages(spec)["norm"] == pytest.approx(1.0, abs=1e-14)


def test_far_tail_is_zero_for_float_and_array_points():
    # at x = 2500 the l = 100 profile is below the float range: psi is
    # exactly zero on both paths, with no warning and no OverflowError
    col = cat.spinor(cat.SolutionSpec(cat.Family.UNIFORM_B, l=100))
    psi = col(0.0, 2500.0, 0.0, 0.0)
    batch = col(np.zeros(2), np.array([2500.0, 3000.0]), np.zeros(2),
                np.zeros(2))
    assert not np.any(psi) and not np.any(batch)


def test_free_bessel_normalization_convention():
    spec = cat.SolutionSpec(cat.Family.FREE_BESSEL, l=1, p_perp=0.8)
    eps = cat.eigenvalue(spec)
    expected = spec.B / (math.sqrt(2.0) * eps * math.sqrt(1.0 / eps + 1.0))
    assert cat.normalization(spec) == pytest.approx(expected, rel=1e-14)


def test_free_bessel_constant_is_continuous_at_zero_pz():
    # p_z = 1e-300 squares to zero beside m^2: the state, its constant and
    # its density are those of p_z = 0
    at_zero, off_zero = (cat.SolutionSpec(cat.Family.FREE_BESSEL, l=1,
                                          p_perp=0.8, p_z=p_z)
                         for p_z in (0.0, 1e-300))
    assert cat.normalization(at_zero) == cat.normalization(off_zero)
    j0 = [cat.bilinear_fields(s, 0.0, 1.3, 0.4, 0.0)["J"][0]
          for s in (at_zero, off_zero)]
    assert j0[0] == j0[1]


@pytest.mark.parametrize("p_perp", [1e-4, 1e-6, 1e-7])
@pytest.mark.parametrize("family", [cat.Family.FREE_BESSEL,
                                    cat.Family.VOLKOV_BESSEL])
def test_bessel_scale_is_exact_at_small_p_perp(family, p_perp):
    # f = lam^-l J_l(q lam) with q = 2 p_perp / B: read back from the level
    # as sqrt(eps^2 - m^2 - p_z^2), p_perp cancels beside m (q 1.2e-2 off
    # at p_perp = 1e-7)
    drive = {} if family is cat.Family.FREE_BESSEL else dict(
        waveform=waveforms.circular(0.3), omega=1.1)
    spec = cat.SolutionSpec(family, l=1, p_perp=p_perp, **drive)
    lams = np.array([0.5, 1.0, 3.0])
    got = cat.profile(spec, lams)["aH"] / cat.normalization(spec)
    with mpmath.workdps(30):
        want = [float(mpmath.besselj(1, 2 * mpmath.mpf(p_perp) * lam
                                     / spec.B)) for lam in lams]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# spinors
# ---------------------------------------------------------------------------


def test_uniform_ground_state_weak_field_limit():
    # B -> 0 with n = l = 0 goes over to the rest spinor, spin up
    t = 0.83
    for B in (1e-2, 1e-4):
        spec = cat.SolutionSpec(cat.Family.UNIFORM_B, n=0, l=0, B=B)
        psi = cat.spinor(spec)(t, 0.3, -0.2, 0.5)
        norm_here = np.linalg.norm(psi)
        target = np.array([np.exp(-1j * t), 0, 0, 0]) * norm_here
        np.testing.assert_allclose(psi, target, atol=norm_here * B)


def test_free_bessel_component_ratio():
    spec = cat.SolutionSpec(cat.Family.FREE_BESSEL, l=1, p_perp=0.9)
    eps = cat.eigenvalue(spec)
    kt = math.sqrt(eps ** 2 - 1.0)
    from rdibeams.specialfn import bessel_j_all

    for x, y in ((1.2, 0.4), (0.6, 1.9)):
        psi = cat.spinor(spec)(0.7, x, y, 0.0)
        lam = cat.lam_of_r(spec, math.hypot(x, y))
        phi = math.atan2(y, x)
        arg = 2.0 * lam * kt / spec.B
        expected = 1j * kt * np.exp(1j * phi) * bessel_j_all(2, arg)[2] \
            / ((1.0 + eps) * bessel_j_all(1, arg)[1])
        assert psi[3] / psi[0] == pytest.approx(expected, rel=1e-12)


def test_volkov_zero_amplitude_degenerates_to_free():
    spec = cat.SolutionSpec(cat.Family.VOLKOV_BESSEL, l=1, p_perp=0.9,
                            waveform=waveforms.circular(0.0), omega=1.1)
    base = spec.static_base()
    for pt in ((0.4, 1.0, 2.0, 0.3), (1.9, 0.8, 0.5, 2.5)):
        np.testing.assert_array_equal(cat.spinor(spec)(*pt),
                                      cat.spinor(base)(*pt))


def test_dressed_spinor_matches_explicit_redmond_column():
    # independent transcription of the dressed uniform-field column; must
    # agree with the null-rotation construction up to one global constant
    spec = cat.SolutionSpec(cat.Family.REDMOND, n=1, l=0,
                            waveform=waveforms.circular(0.3), omega=1.1)
    eps = cat.eigenvalue(spec)
    B = spec.B
    n, l = spec.n, spec.l

    def explicit(t, x, y, z):
        xi, (dx, dy), gauge = oracles.plane_wave(spec, t, z)
        xp, yp = x + dx, y + dy
        lamp = cat.lam_of_r(spec, math.hypot(xp, yp))
        phi = math.atan2(yp, xp)
        d1, d2 = spec.waveform.fdot(xi)
        u = 2.0 * lamp * lamp
        f1a = hyp1f1_poly(n, l + 1.0, u)
        f1b = hyp1f1_poly(n - 1, l + 2.0, u)
        w = spec.omega
        col = np.array([
            4.0 * (1.0 + eps) * f1a / B
            - 4.0 * B * n * (xp + 1j * yp) * (d2 + 1j * d1) * f1b
            / (eps * (2 * l + 2) * w),
            2.0 * (1.0 + eps) * (d1 + 1j * d2) * f1a / (B * eps * w),
            4.0 * B * n * (yp - 1j * xp) * (d1 - 1j * d2) * f1b
            / (eps * (2 * l + 2) * w),
            8.0j * B * n * (xp + 1j * yp) * f1b / (2 * l + 2)
            - 2.0 * (1.0 + eps) * (d1 + 1j * d2) * f1a / (B * eps * w),
        ])
        pref = (np.exp(1j * phi) * lamp) ** l * np.exp(-lamp * lamp) \
            * np.exp(1j * (gauge - eps * t))
        return pref * col

    rng = np.random.default_rng(9)
    ratios = []
    for _ in range(12):
        pt = tuple(rng.uniform(0.4, 3.0, size=4))
        a = cat.spinor(spec)(*pt)
        b = explicit(*pt)
        mask = np.abs(b) > 1e-10
        ratios.extend((a[mask] / b[mask]).tolist())
    ratios = np.array(ratios)
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)


def test_dressed_spinor_matches_explicit_radial_laser_column():
    spec = cat.SolutionSpec(cat.Family.RADIAL_B_LASER, n=1, M=0,
                            waveform=waveforms.circular(0.3), omega=1.1)
    eps = cat.eigenvalue(spec)
    B = spec.B
    n, M = spec.n, spec.M
    K = 2 * n + M + 1
    laguerre = oracles.laguerre

    def explicit(t, x, y, z):
        xi, (dx, dy), gauge = oracles.plane_wave(spec, t, z)
        xp, yp = x + dx, y + dy
        lamp = cat.lam_of_r(spec, math.hypot(xp, yp))
        phi = math.atan2(yp, xp)
        d1, d2 = spec.waveform.fdot(xi)
        u = lamp * (M + 1) / K
        La = laguerre(n, M, u)
        Lb = laguerre(n - 1, M + 1, u)
        w = spec.omega
        denom = math.sqrt(B ** 2 * n * (M + n + 1)
                          + 4.0 * (M + 2 * n + 1) ** 2)
        col = np.array([
            8.0 * (1.0 + eps) * La / B
            + B * (yp - 1j * xp) * (d1 - 1j * d2)
            * ((M + 1) * Lb - n * La) / (eps * lamp * w * K),
            4.0 * (1.0 + eps) * (d1 + 1j * d2) * La / (B * eps * w),
            (xp + 1j * yp) * (d2 + 1j * d1)
            * (2.0 * B * n * La - 2.0 * B * (M + 1) * Lb) / (lamp * w * denom),
            2.0 * B * (1j * (M + 1) * (xp + 1j * yp) * Lb
                       + n * (yp - 1j * xp) * La) / (lamp * K)
            - 4.0 * (1.0 + eps) * (d1 + 1j * d2) * La / (B * eps * w),
        ])
        pref = lamp ** (M / 2.0) \
            * np.exp(-lamp * (M + 1) / (2.0 * K)
                     + 0.5j * M * phi) \
            * np.exp(1j * (gauge - eps * t))
        return pref * col

    rng = np.random.default_rng(10)
    ratios = []
    for _ in range(12):
        pt = tuple(rng.uniform(0.4, 3.0, size=4))
        a = cat.spinor(spec)(*pt)
        b = explicit(*pt)
        mask = np.abs(b) > 1e-10
        ratios.extend((a[mask] / b[mask]).tolist())
    ratios = np.array(ratios)
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)


# ---------------------------------------------------------------------------
# potentials and fields
# ---------------------------------------------------------------------------


def test_potential_values():
    free = cat.SolutionSpec(cat.Family.FREE_BESSEL, l=1, p_perp=1.0)
    np.testing.assert_array_equal(cat.potential(free, 0.3, 1.0, 2.0, 0.5),
                                  np.zeros(4))
    uni = cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0, B=1.3)
    x, y = 0.7, -0.4
    eA = cat.potential(uni, 0.0, x, y, 1.0)
    np.testing.assert_allclose(
        eA, [0.0, -y * 1.3 ** 2 / 2.0, x * 1.3 ** 2 / 2.0, 0.0], atol=1e-14)
    rad = cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=0, B=0.9)
    eA = cat.potential(rad, 0.0, x, y, 1.0)
    r = math.hypot(x, y)
    assert eA[2] == pytest.approx(x * 0.9 / (4.0 * r), abs=1e-14)
    assert eA[1] == pytest.approx(-y * 0.9 / (4.0 * r), abs=1e-14)
    with pytest.raises(cat.OnAxisError):
        cat.potential(rad, 0.0, 0.0, 0.0, 1.0)


def test_dressed_potential_structure():
    wf = waveforms.circular(0.35)
    volkov = cat.SolutionSpec(cat.Family.VOLKOV_BESSEL, l=0, p_perp=1.0,
                              waveform=wf, omega=1.2)
    pt = (0.8, 1.1, 0.6, 0.9)
    d1, d2 = wf.fdot(1.2 * (pt[0] - pt[3]))
    eA = cat.potential(volkov, *pt)
    np.testing.assert_allclose(eA, [0.0, d1 / 1.2, d2 / 1.2, 0.0], atol=1e-14)
    red = cat.SolutionSpec(cat.Family.REDMOND, n=1, l=0, waveform=wf,
                           omega=1.2)
    eps = cat.eigenvalue(red)
    parts = cat.potential_split(red, *pt)
    xp, yp, *_ = cat._primed(red, *pt)
    a0 = -(xp * d2 - yp * d1) / (2.0 * eps * 1.2)
    np.testing.assert_allclose(parts["radiation"], [a0, 0.0, 0.0, a0],
                               atol=1e-14)
    total = cat.potential(red, *pt)
    assert total[0] == pytest.approx(total[3], abs=1e-15)
    # switching the drive off reproduces the stationary potential
    off = cat.SolutionSpec(cat.Family.REDMOND, n=1, l=0,
                           waveform=waveforms.circular(0.0), omega=1.2)
    np.testing.assert_array_equal(cat.potential(off, *pt),
                                  cat.potential(off.static_base(), *pt))


def test_field_values_and_sources():
    uni = cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0, B=1.1)
    eb = cat.fields(uni, 0.0, 0.8, 0.5, 0.2)
    assert eb.shape == (6,)
    np.testing.assert_allclose(eb[..., 3:], [0, 0, 1.1 ** 2], atol=1e-15)
    np.testing.assert_array_equal(eb[..., :3], np.zeros(3))
    rad = cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=1, B=0.8)
    x, y = 1.2, -0.7
    r = math.hypot(x, y)
    eb = cat.fields(rad, 0.0, x, y, 0.0)
    assert np.linalg.norm(eb[..., 3:]) == pytest.approx(0.8 / (4.0 * r),
                                                        rel=1e-14)
    src = cat.sources(rad, 0.0, x, y, 0.0)
    assert src.shape == (4,)
    assert src[..., 0] == 0.0
    np.testing.assert_allclose(
        src[..., 1:], (0.8 / 4.0) * np.array([-y, x, 0.0]) / r ** 3,
        atol=1e-15)
    src = cat.sources(uni, 0.0, 0.8, 0.5, 0.2)
    assert src[..., 0] == 0.0
    np.testing.assert_array_equal(src[..., 1:], np.zeros(3))


def test_uniform_envelope_gives_constant_field_radial_gives_inverse_r():
    # the magnetic field is constant iff the envelope is Gaussian
    uni = cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0)
    vals = [cat.fields(uni, 0.0, x, y, 0.0)[..., 5]
            for x, y in ((0.5, 0.1), (1.0, 2.0), (3.3, 0.4))]
    assert np.var(vals) == 0.0
    rad = cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=0)
    for x, y in ((0.5, 0.1), (1.0, 2.0)):
        bz = cat.fields(rad, 0.0, x, y, 0.0)[..., 5]
        assert bz == pytest.approx(1.0 / (4.0 * math.hypot(x, y)), rel=1e-14)


def test_fields_from_potential_cross_check():
    # E = -grad A0 - dA/dt and B = curl A derived by finite differences
    # must reproduce the closed-form field displays, which must meet their
    # sources; at B = 1.3 and m = 0.7, unlike at B = m = 1, a wrong power
    # of B or m in a field or its dressing shows
    wf = waveforms.circular(0.3)
    for B, m in ((1.0, 1.0), (1.3, 0.7)):
        rng = np.random.default_rng(30)
        for spec in (
                cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0, B=B, m=m),
                cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=0, B=B, m=m),
                cat.SolutionSpec(cat.Family.REDMOND, n=1, l=0, waveform=wf,
                                 omega=1.1, B=B, m=m),
                cat.SolutionSpec(cat.Family.RADIAL_B_LASER, n=1, M=0,
                                 waveform=wf, omega=1.1, B=B, m=m),
                cat.SolutionSpec(cat.Family.VOLKOV_BESSEL, l=0, p_perp=1.0,
                                 waveform=wf, omega=1.2, B=B, m=m)):
            for _ in range(5):
                pt = tuple(rng.uniform(0.6, 4.0, size=4))
                fd = oracles.fields_from_potential(spec, pt)
                closed = cat.fields(spec, *pt)
                np.testing.assert_allclose(fd["electric"], closed[..., :3],
                                           atol=1e-9)
                np.testing.assert_allclose(fd["magnetic"], closed[..., 3:],
                                           atol=1e-9)
                assert verify.maxwell_residual(spec, np.array(pt)) <= 1e-9


def test_dressed_1_over_r_field_is_singular_on_the_shifted_axis():
    # the one axis check reads the primed point: a dressed 1/r state is
    # finite on the lab axis and refused where x' = y' = 0, for a point of
    # floats and in a batch
    spec = cat.SolutionSpec(cat.Family.RADIAL_B_LASER, n=1, M=1,
                            waveform=waveforms.circular(0.3), omega=1.1)
    t, z = 0.7, 0.4
    _, (dx, dy), _ = cat._plane_wave(spec, t, z)
    assert dx != 0.0 and dy != 0.0
    eb = cat.fields(spec, t, 0.0, 0.0, z)
    src = cat.sources(spec, t, 0.0, 0.0, z)
    assert np.isfinite(np.concatenate([
        cat.potential(spec, t, 0.0, 0.0, z), eb[..., :3], eb[..., 3:],
        src[..., :1], src[..., 1:]])).all()
    x, y = np.array([1.0, -dx]), np.array([0.0, -dy])
    for evaluator in (cat.potential_split, cat.fields, cat.sources):
        for point in ((t, -dx, -dy, z), (t, x, y, z)):
            with pytest.raises(cat.OnAxisError, match="on its axis, r' = 0"):
                evaluator(spec, *point)


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------


def test_average_density_matches_closed_form():
    for spec in (cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0),
                 cat.SolutionSpec(cat.Family.UNIFORM_B_SPLIT, n=1, l=1),
                 cat.SolutionSpec(cat.Family.RADIAL_B, n=2, M=1)):
        av = cat.averages(spec)
        assert av["rho"] == pytest.approx(av["rho_closed"], abs=1e-8)
        assert av["norm"] == pytest.approx(1.0, abs=1e-10)


def test_average_azimuthal_current():
    spec = cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0)
    av = cat.averages(spec)
    eps = cat.eigenvalue(spec)
    assert abs(av["J_phi"]) == pytest.approx(math.sqrt(2.0) / eps, abs=1e-8)
    assert av["J_phi"] == pytest.approx(av["J_phi_closed"], abs=1e-8)
    spec = cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=0)
    av = cat.averages(spec)
    eps = cat.eigenvalue(spec)
    assert abs(av["J_phi"]) == pytest.approx(2.0 / (9.0 * eps), abs=1e-8)
    spec = cat.SolutionSpec(cat.Family.UNIFORM_B_SPLIT, n=1, l=2)
    av = cat.averages(spec)
    assert av["J_phi"] == pytest.approx(av["J_phi_closed"], abs=1e-8)


DRESSED_STATES = (
    [(cat.Family.REDMOND, n, l) for n in range(5) for l in range(5)]
    + [(cat.Family.RADIAL_B_LASER, n, M)
       for n, M in ((1, 0), (1, 1), (1, 3), (2, 1), (2, 3))])


def _dressed(state, drive, amplitude, omega):
    family, n, orbital = state
    wf = waveforms.KINDS[drive](amplitude)
    if family is cat.Family.REDMOND:
        return cat.SolutionSpec(family, n=n, l=orbital, waveform=wf,
                                omega=omega)
    return cat.SolutionSpec(family, n=n, M=orbital, waveform=wf, omega=omega)


# a pulse that has barely begun: the ring integrand adaptive Simpson once
# sampled vanished at its first three samples, so J_z came out 1e-4 of
# the closed form
@example((cat.Family.RADIAL_B_LASER, 1, 0), "pulse", 0.2, 1.1, 0.0)
@example((cat.Family.RADIAL_B_LASER, 1, 1), "pulse", 0.2, 1.1, -0.3)
@given(st.sampled_from(DRESSED_STATES),
       st.sampled_from(["circular", "linear", "pulse"]),
       st.floats(0.05, 0.5), st.floats(0.6, 1.5), st.floats(-3.0, 6.0))
@settings(derandomize=True, max_examples=60, deadline=None)
def test_dressed_averages_z_current_and_centroid(state, drive, amplitude,
                                                 omega, xi):
    av = cat.averages(_dressed(state, drive, amplitude, omega), xi=xi)
    assert abs(av["J_z"] - av["J_z_closed"]) <= 1e-10 * abs(av["J_z_closed"])
    np.testing.assert_allclose(av["centroid"], av["centroid_closed"],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("drive", ["circular", "linear", "pulse"])
@pytest.mark.parametrize("spec", [
    s for group in verify.default_specs().values() for s in group
    if s.is_dressed], ids=verify.spec_label)
def test_dressed_current_is_lorentz_map_of_static_current(spec, drive):
    # the identity the dressed averages rest on: at every point the dressed
    # current is Lambda(xi) times the static current at the shifted point
    spec = replace(spec, waveform=waveforms.KINDS[drive](0.3))
    t, x, y, z = np.moveaxis(
        verify.sample_points(np.random.default_rng(29), 40), -1, 0)
    _, (dx, dy), (d1, d2) = cat._plane_wave(spec, t, z)
    lorentz = cat.null_rotation_lorentz(d1, d2, cat.eigenvalue(spec),
                                        spec.omega)
    static = spinors.bilinears(
        cat.spinor(spec.static_base())(t, x + dx, y + dy, z)).current
    dressed = spinors.bilinears(cat.spinor(spec)(t, x, y, z)).current
    mapped = (lorentz @ static[..., None])[..., 0]
    scale = np.max(np.abs(dressed), axis=-1)
    assert np.all(np.max(np.abs(mapped - dressed), axis=-1) <= 1e-12 * scale)
    # the closed form 1 + L + L^2/2 is the einsum over the gamma stacks, a
    # Lorentz matrix that fixes the wave vector k: at array phases and at a
    # float phase, over amplitudes and frequencies
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    k = np.array([1.0, 0.0, 0.0, 1.0])
    for amplitude, omega in itertools.product((0.05, 0.3, 3.0),
                                              (0.5, spec.omega, 1.7)):
        wave = replace(spec, waveform=waveforms.KINDS[drive](amplitude),
                       omega=omega)
        eps = cat.eigenvalue(wave)
        for tz in ((t, z), (float(t[0]), float(z[0]))):
            _, _, fdot = cat._plane_wave(wave, *tz)
            got = cat.null_rotation_lorentz(*fdot, eps, omega)
            assert got.shape == np.shape(tz[0]) + (4, 4)
            size = np.maximum(1.0, np.max(np.abs(got), axis=(-2, -1)))
            size = size[..., None, None]
            oracle = oracles.null_rotation_lorentz(*fdot, eps, omega)
            assert np.all(np.abs(got - oracle) <= 1e-15 * size)
            assert np.all(np.abs(got @ k - k) <= 1e-15 * size[..., 0])
            assert np.all(np.abs(np.swapaxes(got, -1, -2) @ eta @ got - eta)
                          <= 1e-15 * size ** 2)


def test_transverse_average_calls_its_integrand_once():
    calls = []

    def g(lam):
        calls.append(np.shape(lam))
        return np.exp(-2.0 * lam * lam)

    spec = cat.SolutionSpec(cat.Family.UNIFORM_B, n=100, l=30)
    # 2 pi int exp(-2 lam^2) lam dlam = pi / 2
    assert cat._transverse_average(spec, g) == pytest.approx(math.pi / 2,
                                                             rel=1e-14)
    assert calls == [(116,)]  # N = d//2 + 1 nodes at degree d = 230


def test_averages_reject_free_beam():
    with pytest.raises(cat.NotNormalizable):
        cat.averages(cat.SolutionSpec(cat.Family.FREE_BESSEL, l=0,
                                      p_perp=1.0))


# the degree l + 2n of these states exceeds the 191 that 96 nodes integrate
@example(cat.Family.UNIFORM_B, 90, 30)
@example(cat.Family.UNIFORM_B, 100, 0)
@example(cat.Family.UNIFORM_B, 60, 80)
@example(cat.Family.UNIFORM_B_SPLIT, 80, 40)
@given(st.sampled_from([cat.Family.UNIFORM_B, cat.Family.UNIFORM_B_SPLIT]),
       st.integers(0, 120), st.integers(0, 40))
@settings(derandomize=True, max_examples=40, deadline=None)
def test_averages_match_closed_forms_at_high_quantum_numbers(family, n, l):
    spec = cat.SolutionSpec(family, n=n, l=l)
    eps = cat.eigenvalue(spec)
    levels = n if family is cat.Family.UNIFORM_B else n + l
    j_phi = -math.sqrt(2.0) * spec.B * levels / eps
    av = cat.averages(spec)
    assert av["norm"] == pytest.approx(1.0, abs=1e-12)
    assert av["rho"] == pytest.approx(spec.m / eps, abs=1e-11)
    assert av["J_phi"] == pytest.approx(j_phi, rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("spec", [
    s for group in verify.default_specs().values() for s in group
    if not s.is_dressed], ids=verify.spec_label)
def test_bilinear_fields_match_spinor_bilinears(spec):
    # the closed-form kernel against the contraction of the spinor itself
    for pt in ((0.3, 0.7, -0.4, 0.2), (1.2, -1.5, 0.9, -0.6),
               (0.0, 2.2, 1.4, 1.0)):
        closed = cat.bilinear_fields(spec, *pt)
        bil = spinors.bilinears(cat.spinor(spec)(*pt))
        got = np.concatenate([closed["J"], closed["rho_s"], [closed["scalar"]]])
        ref = np.concatenate([bil.current, bil.spin_density, [bil.scalar]])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# velocity / spin closed forms
# ---------------------------------------------------------------------------


def test_velocity_spin_matches_observables():
    wf = waveforms.circular(0.3)
    specs = [
        cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0),
        cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=1, p_z=0.7),
        cat.SolutionSpec(cat.Family.RADIAL_B, n=2, M=1, p_z=0.4),
        cat.SolutionSpec(cat.Family.REDMOND, n=1, l=0, waveform=wf,
                         omega=1.1),
        cat.SolutionSpec(cat.Family.RADIAL_B_LASER, n=1, M=0, waveform=wf,
                         omega=1.1),
    ]
    rng = np.random.default_rng(11)
    for spec in specs:
        col = cat.spinor(spec)
        checked = 0
        for _ in range(40):
            pt = tuple(rng.uniform(0.4, 3.5, size=4))
            obs = spinors.observables(col(*pt))
            if obs.undefined:
                continue
            v, s = cat.velocity_spin(spec, *pt)
            np.testing.assert_allclose(v, obs.velocity, atol=1e-10)
            np.testing.assert_allclose(s, obs.spin, atol=1e-10)
            checked += 1
        assert checked >= 20


def test_velocity_spin_names_the_first_null_density_point():
    # rho = 0 on the axis of an l = 1 state, stationary or dressed
    wf = waveforms.circular(0.0)
    x = np.array([1.0, 0.0, 0.0])
    for spec in (cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=1),
                 cat.SolutionSpec(cat.Family.REDMOND, n=1, l=1, waveform=wf,
                                  omega=1.1)):
        with pytest.raises(cat.OnAxisError, match="at point 1: "):
            cat.velocity_spin(spec, 0.0, x, 0.0 * x, 0.0)
        with pytest.raises(cat.OnAxisError, match="at point 0: "):
            cat.velocity_spin(spec, 0.0, 0.0, 0.0, 0.0)


def test_stationary_spin_is_axial():
    spec = cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0)
    rng = np.random.default_rng(12)
    for _ in range(15):
        pt = tuple(rng.uniform(0.4, 3.5, size=4))
        _, s = cat.velocity_spin(spec, *pt)
        np.testing.assert_allclose(np.abs(s), [0, 0, 0, 1], atol=1e-12)


def test_dressed_spin_time_component():
    # s_r^0 = -c^4 (f1'^2 + f2'^2) / (2 eps^2 omega^2) wherever the duality
    # angle is zero
    wf = waveforms.circular(0.3)
    spec = cat.SolutionSpec(cat.Family.REDMOND, n=1, l=0, waveform=wf,
                            omega=1.1)
    eps = cat.eigenvalue(spec)
    col = cat.spinor(spec)
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(60):
        pt = tuple(rng.uniform(0.4, 3.0, size=4))
        obs = spinors.observables(col(*pt))
        if obs.undefined or obs.scalar < 0:
            continue
        d1, d2 = wf.fdot(1.1 * (pt[0] - pt[3]))
        expected = -(d1 * d1 + d2 * d2) / (2.0 * eps ** 2 * 1.1 ** 2)
        _, s = cat.velocity_spin(spec, *pt)
        assert s[0] == pytest.approx(expected, abs=1e-10)
        checked += 1
    assert checked >= 20


def matrix_field(spec):
    """The lift Psi of the column field of spec, Psi u1 = psi."""
    col = cat.spinor(spec)
    return lambda *q: spinors.hestenes_matrix(col(*q))


def _dress_matrix(spec):
    """The matrix-level dressing Psi_T(x) = (1 + N(xi)) Psi(t, x', y', z)
    R(-Phi) of the static matrix spinor, with R the gauge phase rotor acting
    from the right."""
    base = spec.static_base()
    static = matrix_field(base)
    eps = cat.eigenvalue(base)

    def field(t, x, y, z):
        xi, (dx, dy), gauge = oracles.plane_wave(spec, t, z)
        gen = cat.null_rotation_generator(*spec.waveform.fdot(xi), eps,
                                          spec.omega)
        rotor = oracles.phase_rotor(-gauge)
        return (sta.ID + gen) @ static(t, x + dx, y + dy, z) @ rotor

    return field


def test_laser_dress_matrix_equals_column_lift():
    # the matrix-level dressing and the even-subalgebra lift of the dressed
    # column must be the same field
    wf = waveforms.circular(0.3)
    spec = cat.SolutionSpec(cat.Family.REDMOND, n=1, l=0, waveform=wf,
                            omega=1.1)
    dressed_matrix = _dress_matrix(spec)
    lifted = matrix_field(spec)
    rng = np.random.default_rng(21)
    for _ in range(10):
        pt = tuple(rng.uniform(0.4, 3.5, size=4))
        np.testing.assert_allclose(dressed_matrix(*pt), lifted(*pt),
                                   atol=1e-13)
    # zero drive: identity transform, bitwise, on both paths
    off = replace(spec, waveform=waveforms.circular(0.0))
    static = matrix_field(spec.static_base())
    pt = (0.9, 1.2, 0.8, 0.3)
    np.testing.assert_array_equal(_dress_matrix(off)(*pt), static(*pt))
    np.testing.assert_array_equal(matrix_field(off)(*pt), static(*pt))


@pytest.mark.parametrize("spec", [
    s for fam in cat.DRESSED_BASE for s in verify.default_specs()[fam]],
    ids=verify.spec_label)
def test_dressed_spinor_matches_generator_matrix(spec):
    # the dressed field applies the null rotation to the column; the same
    # field built from the [..., 4, 4] generator matrix, per point, under
    # each of the three drives
    pts = np.random.default_rng(23).uniform(0.5, 5.0, size=(40, 4))
    t, x, y, z = pts.T
    base = spec.static_base()
    eps = cat.eigenvalue(base)
    for wf in (waveforms.circular(0.3), waveforms.linear(0.25),
               waveforms.pulse(0.2)):
        dressed = replace(spec, waveform=wf)
        xi, (dx, dy), gauge = oracles.plane_wave(dressed, t, z)
        gen = cat.null_rotation_generator(*wf.fdot(xi), eps, dressed.omega)
        psi_static = cat.spinor(base)(t, x + dx, y + dy, z)
        expected = np.exp(1j * gauge)[:, None] \
            * ((sta.ID + gen) @ psi_static[..., None])[..., 0]
        got = cat.spinor(dressed)(t, x, y, z)
        scale = np.max(np.abs(expected), axis=-1, keepdims=True)
        assert np.all(np.abs(got - expected) <= 1e-14 * scale), wf.kind
        one = cat.spinor(dressed)(*pts[0])  # a point of floats
        assert np.all(np.abs(one - expected[0]) <= 1e-14 * scale[0]), wf.kind


def test_nilpotency_of_dressing_generator_100_phases():
    wf = waveforms.circular(0.45)
    rng = np.random.default_rng(22)
    for _ in range(100):
        xi = float(rng.uniform(0.0, 4.0 * math.pi))
        d1, d2 = wf.fdot(xi)
        gen = cat.null_rotation_generator(d1, d2, math.sqrt(3.0), 1.1)
        assert np.max(np.abs(gen @ gen)) < 1e-15


def test_dressed_polar_angle():
    wf = waveforms.circular(0.35)
    spec = cat.SolutionSpec(cat.Family.REDMOND, n=1, l=0, waveform=wf,
                            omega=1.1)
    for xi in (0.2, 1.0, 2.9):
        assert oracles.dressed_polar_angle_residual(spec, xi) < 1e-12


DEFAULT_SPECS = [s for group in verify.default_specs().values() for s in group]


@pytest.mark.parametrize("spec", DEFAULT_SPECS, ids=verify.spec_label)
def test_batches_match_float_calls(spec):
    # the array path against one float call per point, to 1e-14 of each
    # quantity's scale, with the batch axis leading and components trailing
    pts = np.random.default_rng(3).uniform(0.5, 5.0, size=(30, 4))
    t, x, y, z = pts.T

    def agree(batch, floats, broadcast=False):
        floats = np.array(floats)
        if broadcast:  # a constant of the family may stay a scalar
            batch = np.broadcast_to(batch, floats.shape)
        assert np.shape(batch) == floats.shape
        scale = np.max(np.abs(floats), initial=0.0)
        np.testing.assert_allclose(batch, floats, rtol=0, atol=1e-14 * scale)

    col = cat.spinor(spec)
    agree(col(t, x, y, z), [col(*p) for p in pts])
    lam = cat.lam_of_r(spec, np.hypot(x, y))
    prof = cat.profile(spec, lam)
    for key, val in prof.items():
        agree(val, [cat.profile(spec, float(v))[key] for v in lam],
              broadcast=True)
    agree(cat.potential(spec, t, x, y, z), [cat.potential(spec, *p) for p in pts])
    batch = cat.fields(spec, t, x, y, z)
    floats = [cat.fields(spec, *p) for p in pts]
    for part in (np.s_[..., :3], np.s_[..., 3:]):
        agree(batch[part], [f[part] for f in floats])
    batch = cat.sources(spec, t, x, y, z)
    floats = [cat.sources(spec, *p) for p in pts]
    for part in (np.s_[..., 0], np.s_[..., 1:]):
        agree(batch[part], [f[part] for f in floats])
    if not spec.is_dressed:
        bil = cat.bilinear_fields(spec, t, x, y, z)
        for key, val in bil.items():
            agree(val, [cat.bilinear_fields(spec, *p)[key] for p in pts])


@pytest.mark.parametrize("spec", DEFAULT_SPECS, ids=verify.spec_label)
def test_spinor_batch_is_bitwise_its_one_point_calls(spec):
    # each value is bit for bit the one-point array call, whatever batch it
    # is in, the dressed turn being a fixed-order gather and the pulse's
    # gauge integral a fixed-order node sum (summed as a matrix product, it
    # moved the pulse spinor at the 40th point of the seed-0 batch)
    pts = np.random.default_rng(5).uniform(0.5, 5.0, size=(3, 17, 4))
    col = cat.spinor(spec)
    ones = np.stack([col(*p[:, None])[0] for p in pts.reshape(-1, 4)])
    assert col(*pts.T).transpose(1, 0, 2).tobytes() == ones.tobytes()
    flat = pts.reshape(-1, 4)[:100]
    assert col(*flat.T).tobytes() == ones[:100].tobytes()
    pts = np.random.default_rng(0).uniform(0.5, 5.0, size=(100, 4))
    ones = np.stack([col(*p[:, None])[0] for p in pts])
    assert col(*pts.T).tobytes() == ones.tobytes()
    # so are the local observables: each row of `observables` on a batch of
    # spinors, and of `velocity_spin` and `bilinear_fields` on a batch of
    # points, is its call on one spinor or at one float point
    pts, psis = pts[:40], ones[:40]
    batch = spinors.observables(psis)
    for k, psi in enumerate(psis):
        one = spinors.observables(psi)
        for f in fields(spinors.Observables):
            assert getattr(batch, f.name)[k].tobytes() \
                == getattr(one, f.name).tobytes(), f.name
    closed = {"velocity_spin": cat.velocity_spin}
    if not spec.is_dressed:
        closed["bilinear_fields"] = \
            lambda *a: tuple(cat.bilinear_fields(*a).values())
    for name, fn in closed.items():
        batch = fn(spec, *pts.T)
        for k, p in enumerate(pts):
            for got, want in zip(batch, fn(spec, *p.tolist())):
                assert np.asarray(got[k]).tobytes() \
                    == np.asarray(want).tobytes(), name


@pytest.mark.parametrize("spec", DEFAULT_SPECS, ids=verify.spec_label)
def test_float_and_array_spinor_agree_bitwise(spec):
    # a point of floats runs as the one-element batch, so it has that
    # batch's bits (numpy rounds exp, hypot and arctan2 on a scalar
    # otherwise than on an array at about half of all points)
    pts = np.random.default_rng(3).uniform(0.5, 5.0, size=(100, 4))
    col = cat.spinor(spec)
    floats = np.array([col(*p.tolist()) for p in pts])
    arrays = np.stack([col(*p[:, None])[0] for p in pts])
    assert floats.tobytes() == arrays.tobytes()


def test_spec_validation():
    with pytest.raises(ValueError):
        cat.SolutionSpec(cat.Family.UNIFORM_B, n=-1)
    with pytest.raises(ValueError):
        cat.SolutionSpec(cat.Family.RADIAL_B, M=-2)
    with pytest.raises(ValueError):
        cat.SolutionSpec(cat.Family.REDMOND, n=1)  # no waveform
    with pytest.raises(ValueError):
        cat.SolutionSpec(cat.Family.REDMOND, n=1,
                         waveform=waveforms.circular(0.1), p_z=0.5)
    with pytest.raises(ValueError):
        cat.SolutionSpec(cat.Family.FREE_BESSEL, p_perp=0.0)


@pytest.mark.parametrize("family, name, value", [
    (cat.Family.UNIFORM_B, "l", 0.5),
    (cat.Family.UNIFORM_B, "l", 1.0),
    (cat.Family.UNIFORM_B, "n", 1.5),
    (cat.Family.UNIFORM_B, "n", True),
    (cat.Family.UNIFORM_B, "n", None),
    (cat.Family.UNIFORM_B_SPLIT, "M", -2.0),
    (cat.Family.FREE_BESSEL, "l", np.float64(2.0)),
    (cat.Family.RADIAL_B, "M", 1.5),
    (cat.Family.RADIAL_B, "M", False),
    (cat.Family.RADIAL_B, "n", "1"),
    (cat.Family.RADIAL_B_LASER, "l", np.True_),
], ids=["l-half", "l-float", "n-fraction", "n-bool", "n-none", "M-float",
        "l-numpy-float", "M-fraction", "M-bool", "n-str", "l-numpy-bool"])
def test_spec_refuses_a_non_integer_quantum_number(family, name, value):
    # l = 0.5 used to build winding M = 1.0, M = 1.5 was cut to 1, and
    # n = 1.5 ended in a TypeError of the Laguerre steps
    kwargs = {"waveform": waveforms.circular(0.1)} \
        if family in cat.DRESSED_BASE else {}
    with pytest.raises(ValueError, match=f"need an integer {name}, got "):
        cat.SolutionSpec(family, **kwargs, **{name: value})


@pytest.mark.parametrize("family, M", [(cat.Family.UNIFORM_B, 2),
                                       (cat.Family.RADIAL_B, 1)])
def test_spec_takes_numpy_integers_as_ints(family, M):
    spec = cat.SolutionSpec(family, n=np.int64(1), l=np.int32(1),
                            M=np.uint8(M))
    assert spec == cat.SolutionSpec(family, n=1, l=1)
    assert {type(v) for v in (spec.n, spec.l, spec.M)} == {int}


def test_radial_spec_takes_l_as_zero_or_its_winding():
    for l in (0, 2):
        spec = cat.SolutionSpec(cat.Family.RADIAL_B, n=1, l=l, M=2)
        assert (spec.l, spec.M) == (2, 2)
    with pytest.raises(ValueError, match="inconsistent l=2 for radial-b M=1"):
        cat.SolutionSpec(cat.Family.RADIAL_B, n=1, l=2, M=1)


@pytest.mark.parametrize("name", ["B", "m", "omega", "p_perp", "p_z"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_parameters(name, value):
    # NaN passes a test written as `B <= 0.0`; every family refuses it
    for family in cat.Family:
        kwargs = {"waveform": waveforms.circular(0.1)} \
            if family in cat.DRESSED_BASE else {}
        if name == "p_z" and family in cat.DRESSED_BASE:
            continue  # refused as p_z != 0 already
        with pytest.raises(ValueError):
            cat.SolutionSpec(family, **kwargs, **{name: value})


def test_static_base_is_built_once_and_leaves_identity_alone():
    wf = waveforms.circular(0.3)
    spec = cat.SolutionSpec(cat.Family.REDMOND, n=1, l=1, waveform=wf,
                            omega=1.1)
    base = spec.static_base()
    assert base is spec.static_base()
    assert base == cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=1, omega=1.1)
    assert base.static_base() is base
    twin = cat.SolutionSpec(cat.Family.REDMOND, n=1, l=1, waveform=wf,
                            omega=1.1)
    assert twin == spec and hash(twin) == hash(spec)
    assert repr(twin) == repr(spec) and "_base" not in repr(spec)
    moved = replace(spec, omega=1.3)
    assert moved.static_base().omega == 1.3 and moved != spec
