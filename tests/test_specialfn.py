"""Special-function checks against independent oracles: ascending power
series summed to 60 digits, recurrence residuals, cross-family identities,
the Bessel addition theorem and quadrature orthogonality."""
import math

import numpy as np
import pytest

import oracles
from rdibeams import specialfn as sf


def bessel_series_oracle(nu, x, terms=160):
    # ascending series summed in 60-digit arithmetic (the float argument is
    # promoted exactly), converted to float once at the end: the largest
    # term, about 1e10 at x = 25, leaves some 50 digits for the sum
    import mpmath

    if x == 0.0:
        return 1.0 if nu == 0 else 0.0
    with mpmath.workdps(60):
        half = mpmath.mpf(x) / 2
        term = half ** nu / mpmath.factorial(nu)
        total = term
        for k in range(1, terms):
            term = -term * half * half / (k * (nu + k))
            total += term
        return float(total)


def test_bessel_trivial_values():
    assert sf.bessel_j_all(0, 0.0)[0] == 1.0
    assert sf.bessel_j_all(3, 0.0)[3] == 0.0
    assert sf.bessel_j_all(1, 0.0)[1] == 0.0


def test_bessel_first_zero_of_j0():
    assert abs(sf.bessel_j_all(0, 2.404825557695773)[0]) < 1e-10


def test_bessel_against_series_oracle():
    rng = np.random.default_rng(10)
    for _ in range(150):
        nu = int(rng.integers(0, 13))
        x = float(rng.uniform(0.0, 25.0))
        expected = bessel_series_oracle(nu, x)
        assert abs(sf.bessel_j_all(nu, x)[nu] - expected) < 1e-12, (nu, x)


# (orders, batch): batches across x = 2 (series below, Miller above) with
# zeros in them, and batches whose recurrence tests for a rescale on the way
# down (no batch with l <= 40 and x <= 50 does, so those use order 200,
# where the small arguments do rescale, or x up to 1000, where each element
# starts at its own index and none passes 1e250)
ARRAY_BATCHES = [
    (40, np.concatenate([[0.0, 1e-3, 1.999, 2.0, 2.001],
                         np.linspace(0.0, 50.0, 101)])),
    (5, np.linspace(0.5, 3.5, 31)),
    (40, np.array([[0.0, 0.3], [1.9, 2.1]])),
    (200, np.array([2.0, 2.5, 7.0, 50.0])),
    (40, np.array([0.7, 2.0, 5.0, 2000.0])),
]


@pytest.mark.parametrize("nmax, x", ARRAY_BATCHES,
                         ids=["straddle", "near-two", "2d", "rescale-order",
                              "rescale-arg"])
def test_bessel_array_matches_mpmath(nmax, x):
    mpmath = pytest.importorskip("mpmath")
    vals = sf.bessel_j_all(nmax, x)
    assert vals.shape == (nmax + 1,) + x.shape
    for idx in np.ndindex(x.shape):
        for nu in range(0, nmax + 1, 1 if nmax <= 40 else 7):
            exact = float(mpmath.besselj(nu, float(x[idx])))
            assert abs(vals[(nu,) + idx] - exact) <= 1e-13, (nu, x[idx])


@pytest.mark.parametrize("nmax", [2, 10, 40])
def test_bessel_float_is_the_one_point_array_call(nmax):
    # a float x runs the array code as a 0-d array: bit for bit the call on
    # a one-element array, on both sides of x = 2 (series below, recurrence
    # above), and shaped (nmax + 1,)
    x = np.concatenate([[0.0, 2.0], np.linspace(0.01, 1.99, 100),
                        np.random.default_rng(1).uniform(0.0, 30.0, 50)])
    for v in x.tolist():
        one = sf.bessel_j_all(nmax, v)
        batch = sf.bessel_j_all(nmax, np.array([v]))
        assert np.asarray(one).tobytes() == batch[:, 0].tobytes(), v
    assert sf.bessel_j_all(nmax, 1.0).shape == (nmax + 1,)


@pytest.mark.parametrize("nmax", [0, 5, 40, 200])
def test_bessel_batch_is_bitwise_its_per_point_calls(nmax):
    # a point's value does not depend on the rest of its batch: each
    # element of a batch across the series (x < 2) and Miller regions, with
    # arguments whose own starts lie far apart, is bit for bit its
    # one-point call
    x = np.concatenate([[0.0, 1e-3, 1.999, 2.0, 2.001, 1000.0],
                        np.random.default_rng(12).uniform(0.0, 60.0, 200)])
    batch = sf.bessel_j_all(nmax, x)
    for i, v in enumerate(x):
        one = sf.bessel_j_all(nmax, np.array([v]))[:, 0]
        assert batch[:, i].tobytes() == one.tobytes(), v


@pytest.mark.parametrize("nmax, seed", [(4, 30), (6, 31)])
def test_bessel_array_matches_mpmath_over_suite_range(nmax, seed):
    # the suite's batches: a few orders, arguments up to about 10, on both
    # sides of x = 2 (the array series below, the recurrence above)
    mpmath = pytest.importorskip("mpmath")
    x = np.random.default_rng(seed).uniform(0.0, 12.0, size=1600)
    x[:3] = (0.0, 2.0, 12.0)
    vals = sf.bessel_j_all(nmax, x)
    exact = np.array([[float(mpmath.besselj(nu, v)) for v in x]
                      for nu in range(nmax + 1)])
    assert np.max(np.abs(vals - exact)) <= 1e-13


def test_bessel_rescale_checkpoints():
    # the recurrence tests for overflow only where its growth bound says an
    # element can pass 1e250: never for the suite's orders and arguments
    # (the recurrence takes x >= 2); these two batches reach the tests, with
    # the bound taken per start index as the recurrence takes it
    assert len(sf._rescale_checkpoints(sf._miller_start(4, 10.0), 2.0)) == 0
    mpmath = pytest.importorskip("mpmath")
    batches = dict(zip(["rescale-order", "rescale-arg"], ARRAY_BATCHES[3:]))
    for name, (nmax, x) in batches.items():
        large = x[x >= 2.0]
        checks = sf._batch_checkpoints(sf._miller_start(nmax, large), large)
        assert len(checks) > 0, name
        vals = sf.bessel_j_all(nmax, x)
        for nu in range(0, nmax + 1, 7):
            for i, v in enumerate(x):
                exact = float(mpmath.besselj(nu, float(v)))
                assert abs(vals[nu, i] - exact) <= 1e-13, (name, nu, v)


def test_bessel_rescale_checkpoints_per_start_index():
    # order 40 at x = (2, 5, 1000): a bound from the batch's largest start
    # and smallest argument together flags 990 steps, but neither group of
    # elements sharing a start index can near overflow, so no step tests
    x = np.array([2.0, 5.0, 1000.0])
    starts = sf._miller_start(40, x)
    assert len(sf._rescale_checkpoints(int(starts.max()), 2.0)) == 990
    for s in set(starts.tolist()):
        assert len(sf._rescale_checkpoints(s, float(x[starts == s].min()))) \
            == 0
    assert len(sf._batch_checkpoints(starts, x)) == 0
    vals = sf.bessel_j_all(40, x)
    for i, v in enumerate(x.tolist()):
        assert vals[:, i].tobytes() == sf.bessel_j_all(40, v).tobytes()


def test_miller_loop_is_bit_for_bit_its_reference():
    # the in-place steps, the seeding through index groups and the halved
    # normalization sum give every bit of the reference loop: batches of 1
    # to 2000 arguments from 2 to 1e4, orders 0-8 and up to 200, some of
    # them reaching the rescale checkpoints
    rng = np.random.default_rng(2031)
    cases = [(0, np.array([2.0])), (8, np.array([1e4])), (200, np.full(3, 2.0)),
             (200, rng.uniform(2.0, 12.0, size=2000)),
             *((nmax, x[x >= 2.0]) for nmax, x in ARRAY_BATCHES[3:])]
    for _ in range(16):
        nmax = int(rng.integers(0, 9) if rng.random() < 0.6
                   else rng.integers(9, 201))
        top = math.exp(rng.uniform(math.log(2.0), math.log(1e4)))
        size = int(math.exp(rng.uniform(0.0, math.log(2000.0))))
        cases.append((nmax, np.exp(rng.uniform(math.log(2.0), math.log(top),
                                               size=size))))
    rescaled = 0
    for nmax, x in cases:
        got, want = sf._miller_all(nmax, x), oracles.miller_all(nmax, x)
        assert len(got) == len(want) == nmax + 1
        for nu, (g, w) in enumerate(zip(got, want)):
            assert np.array_equal(g.view(np.int64), w.view(np.int64)), \
                (nmax, x.size, nu)
        rescaled += len(sf._batch_checkpoints(sf._miller_start(nmax, x), x)) > 0
    assert rescaled >= 3


def test_bessel_array_validity_window():
    with pytest.raises(sf.DomainError):
        sf.bessel_j_all(3, np.array([1.0, -0.5]))
    with pytest.raises(sf.DomainError):
        sf.bessel_j_all(3, np.array([1.0, 2.0 * sf.BESSEL_MAX_ARG]))


def test_bessel_recurrence_residual():
    rng = np.random.default_rng(11)
    for _ in range(80):
        nu = int(rng.integers(1, 40))
        x = float(rng.uniform(0.5, 300.0))
        vals = sf.bessel_j_all(nu + 1, x)
        res = vals[nu - 1] + vals[nu + 1] - (2.0 * nu / x) * vals[nu]
        assert abs(res) < 1e-10, (nu, x)


def test_bessel_sum_rule():
    # truncation adapts to the argument; orders past x + 50 are negligible
    for x in (0.7, 3.3, 12.0, 47.5, 130.0):
        kmax = int(x / 2) + 25
        vals = sf.bessel_j_all(2 * kmax, x)
        total = vals[0] + 2.0 * math.fsum(vals[2 * k] for k in range(1, kmax))
        assert abs(total - 1.0) < 1e-10, x


def test_bessel_derivative():
    h = 1e-5
    for nu, x in ((0, 1.3), (2, 4.1), (4, 7.7)):
        fd = (sf.bessel_j_all(nu, x + h)[nu]
              - sf.bessel_j_all(nu, x - h)[nu]) / (2.0 * h)
        assert abs(oracles.bessel_j_deriv(nu, x) - fd) < 1e-8
    assert oracles.bessel_j_deriv(1, 0.0) == 0.5
    assert oracles.bessel_j_deriv(0, 0.0) == 0.0


def test_bessel_domain_errors():
    with pytest.raises(sf.DomainError):
        sf.bessel_j_all(0, -1.0)
    with pytest.raises(sf.DomainError):
        sf.bessel_j_all(201, 1.0)
    with pytest.raises(sf.DomainError):
        sf.bessel_j_all(0, 2.0e4)


def test_bessel_addition_identity_point():
    assert oracles.bessel_addition_residual(0, 1.0, 0.0, 1.1) < 1e-14
    assert oracles.bessel_addition_residual(
        0, 1.0, 0.5, math.pi / 3.0, terms=30) < 1e-10


def test_bessel_addition_random_tuples():
    rng = np.random.default_rng(7)
    for _ in range(50):
        nu = int(rng.integers(0, 11))
        rho = float(rng.uniform(0.1, 5.0))
        rho_bar = float(rng.uniform(0.0, 2.0))
        dphi = float(rng.uniform(0.0, 2.0 * math.pi))
        assert oracles.bessel_addition_residual(nu, rho, rho_bar, dphi,
                                                terms=40) < 1e-10


def test_bessel_addition_reflected_variant():
    # the alternating-sign variant is the same identity at the reflected
    # angle pi - dphi
    rng = np.random.default_rng(8)
    for _ in range(20):
        nu = int(rng.integers(0, 6))
        rho = float(rng.uniform(0.5, 4.0))
        rho_bar = float(rng.uniform(0.0, 1.5))
        dphi = float(rng.uniform(0.0, math.pi))
        w = math.sqrt(rho ** 2 + rho_bar ** 2
                      + 2.0 * rho * rho_bar * math.cos(dphi))
        jr = sf.bessel_j_all(nu + 42, rho)
        jb = sf.bessel_j_all(41, rho_bar)
        lhs_theta = math.atan2(rho_bar * math.sin(dphi),
                               rho + rho_bar * math.cos(dphi))
        lhs = np.exp(-1j * nu * lhs_theta) * sf.bessel_j_all(nu, w)[nu]
        rhs = 0.0 + 0.0j
        for m in range(-40, 41):
            a = jb[abs(m)] * ((-1) ** m if m < 0 else 1)
            k = nu + m
            b = jr[abs(k)] * ((-1) ** k if k < 0 else 1)
            rhs += ((-1) ** m) * a * b * np.exp(1j * m * dphi)
        assert abs(lhs - rhs) < 1e-10


def test_laguerre_low_orders():
    rng = np.random.default_rng(12)
    for _ in range(30):
        alpha = float(rng.uniform(-0.9, 4.0))
        x = float(rng.uniform(-3.0, 8.0))
        assert oracles.laguerre(0, alpha, x) == 1.0
        assert abs(oracles.laguerre(1, alpha, x) - (1.0 + alpha - x)) < 1e-14
    assert oracles.laguerre(2, 0.0, 1.0) == pytest.approx(-0.5, abs=1e-14)


def test_laguerre_value_at_zero():
    for n in (0, 1, 3, 7):
        for alpha in (0, 1, 2, 5):
            expected = math.comb(n + alpha, n)
            assert oracles.laguerre(n, float(alpha), 0.0) == pytest.approx(
                expected, rel=1e-13)


def test_laguerre_orthogonality_by_quadrature():
    from oracles import adaptive_simpson

    # integer alpha: Gauss-Laguerre nodes make the integrand polynomial
    # (numpy supplies nodes and weights only; the polynomials are ours);
    # fractional alpha: adaptive Simpson on a truncated range
    nodes, weights = np.polynomial.laguerre.laggauss(64)
    for alpha in (0.0, 1.0, 2.5):
        for n in range(6):
            for m in range(n, 6):
                if alpha == int(alpha):
                    total = sum(
                        w * x ** alpha * oracles.laguerre(n, alpha, x)
                        * oracles.laguerre(m, alpha, x)
                        for x, w in zip(nodes, weights))
                else:
                    total = adaptive_simpson(
                        lambda x: x ** alpha * math.exp(-x)
                        * oracles.laguerre(n, alpha, x)
                        * oracles.laguerre(m, alpha, x),
                        0.0, 70.0, tol=1e-11)
                expected = 0.0 if n != m else \
                    math.gamma(n + alpha + 1) / math.factorial(n)
                assert abs(total - expected) < 1e-8, (alpha, n, m)


def test_laguerre_derivative_identities():
    rng = np.random.default_rng(13)
    h = 1e-6
    for _ in range(40):
        n = int(rng.integers(1, 9))
        alpha = float(rng.uniform(0.0, 3.0))
        x = float(rng.uniform(0.1, 6.0))
        fd = (oracles.laguerre(n, alpha, x + h)
              - oracles.laguerre(n, alpha, x - h)) / (2.0 * h)
        assert abs(-oracles.laguerre(n - 1, alpha + 1, x) - fd) < 1e-7


def test_hyp1f1_poly_basics():
    assert oracles.hyp1f1_poly(0, 3.7, 2.2) == 1.0
    assert abs(oracles.hyp1f1_poly(1, 2.0, 2.0)) < 1e-15
    with pytest.raises(sf.DomainError):
        oracles.hyp1f1_poly(3, -1.0, 1.0)


def test_hyp1f1_laguerre_identity():
    rng = np.random.default_rng(14)
    for _ in range(200):
        n = int(rng.integers(0, 9))
        M = int(rng.integers(0, 6))
        x = float(rng.uniform(-4.0, 10.0))
        lhs = oracles.hyp1f1_poly(n, M + 1.0, x)
        rhs = oracles.laguerre(n, float(M), x) * math.factorial(n) \
            * math.factorial(M) / math.factorial(n + M)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs)), (n, M, x)


def test_tricomi_terminating_values():
    rng = np.random.default_rng(15)
    assert oracles.tricomi_u_poly(0, 1.5, 0.3) == 1.0
    for x in (0.4, 1.0, 3.3):
        assert abs(oracles.tricomi_u_poly(1, 1.0, x) - (x - 1.0)) < 1e-13
    for _ in range(100):
        n = int(rng.integers(0, 8))
        b = float(rng.uniform(0.5, 5.0))
        x = float(rng.uniform(0.05, 8.0))
        lhs = oracles.tricomi_u_poly(n, b, x)
        rhs = (-1.0) ** n * math.factorial(n) * oracles.laguerre(n, b - 1.0, x)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs)), (n, b, x)


def test_tricomi_rejects_non_terminating():
    with pytest.raises(sf.DomainError):
        oracles.tricomi_u_poly(1.5, 2.0, 1.0)
    with pytest.raises(sf.DomainError):
        oracles.tricomi_u_poly(-2, 2.0, 1.0)


def test_laguerre_functions_match_the_polynomial_recurrence():
    # ell_k^alpha(u) = sqrt(k!/Gamma(k+alpha+1)) u^(alpha/2) e^(-u/2)
    # L_k^alpha(u), on both paths: the array against the floats to 1e-14
    # of the largest value, both against the polynomial reference
    u = np.linspace(0.0, 40.0, 81)
    for alpha in (0, 1, 3, 8, 60):
        batch = sf.laguerre_functions(10, alpha, u)
        assert len(batch) == 11
        for k in range(11):
            ref = np.array([
                math.sqrt(math.factorial(k) / math.gamma(k + alpha + 1))
                * x ** (alpha / 2) * math.exp(-x / 2)
                * oracles.laguerre(k, alpha, x) for x in u])
            floats = [sf.laguerre_function(k, alpha)(float(x)) for x in u]
            scale = np.max(np.abs(ref))
            np.testing.assert_allclose(batch[k], floats, rtol=0,
                                       atol=1e-14 * scale)
            np.testing.assert_allclose(batch[k], ref, rtol=0,
                                       atol=1e-13 * scale)


def test_laguerre_functions_far_tail_and_edges():
    # below exp(-650) the start is carried as an exponent: a value the
    # floats hold, even a subnormal one, is found, and a smaller one is
    # exactly zero, on both paths and without a warning
    mpmath = pytest.importorskip("mpmath")
    for n, alpha, u in ((60, 60, 1700.0), (10, 10, 1600.0), (0, 0, 1400.0),
                        (400, 0, 2500.0)):
        with mpmath.workdps(40):
            v = mpmath.mpf(u)
            exact = float(mpmath.sqrt(mpmath.factorial(n)
                                      / mpmath.gamma(n + alpha + 1))
                          * v ** (mpmath.mpf(alpha) / 2) * mpmath.exp(-v / 2)
                          * mpmath.laguerre(n, alpha, v))
        got = sf.laguerre_function(n, alpha)(u)
        batch = sf.laguerre_function(n, alpha)(np.array([u, 1.0]))[0]
        assert got == batch
        assert got == pytest.approx(exact, rel=1e-12, abs=5e-324)
    assert sf.laguerre_function(100, 100)(1e6) == 0.0
    assert not np.any(sf.laguerre_function(100, 100)(np.array([1e6, 1e300])))
    assert sf.laguerre_function(3, 2)(0.0) == 0.0
    assert sf.laguerre_function(3, 0)(0.0) == 1.0
    assert sf.laguerre_functions(-1, 0, 1.0) == []
    assert sf.laguerre_function(-1, 0)(1.0) == 0.0
    assert np.shape(sf.laguerre_function(-1, 0)(np.ones(3))) == (3,)
    with pytest.raises(sf.DomainError):
        sf.laguerre_function(2, 0)(-1.0)
