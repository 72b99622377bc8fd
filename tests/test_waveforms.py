"""Driving-waveform consistency: derivatives and gauge integrals."""
import math

import mpmath
import numpy as np
import pytest

from rdibeams import waveforms


@pytest.mark.parametrize("wf", [
    waveforms.circular(0.4),
    waveforms.linear(0.7),
    waveforms.pulse(0.3, center=5.0, width=1.5),
])
def test_derivative_consistency(wf):
    h = 1e-6
    for xi in np.linspace(-2.0, 12.0, 40):
        f_p = wf.f(xi + h)
        f_m = wf.f(xi - h)
        d = wf.fdot(xi)
        for i in range(2):
            fd = (f_p[i] - f_m[i]) / (2.0 * h)
            assert abs(fd - d[i]) < 1e-9
        dp = wf.fdot(xi + h)
        dm = wf.fdot(xi - h)
        dd = wf.fddot(xi)
        for i in range(2):
            fd = (dp[i] - dm[i]) / (2.0 * h)
            assert abs(fd - dd[i]) < 1e-8


def test_circular_polarization_is_constant_intensity():
    wf = waveforms.circular(0.5)
    for xi in np.linspace(0, 9, 25):
        d1, d2 = wf.fdot(xi)
        assert d1 * d1 + d2 * d2 == pytest.approx(0.25, abs=1e-14)


def test_gauge_integral_analytic_families():
    wf = waveforms.circular(0.4)
    for xi in (0.0, 1.3, 7.7):
        assert wf.gauge_integral(xi) == pytest.approx(0.16 * xi, abs=1e-14)
    wfl = waveforms.linear(0.6)
    for xi in (0.9, 4.2):
        expected = 0.36 * (xi / 2.0 - np.sin(2.0 * xi) / 4.0)
        assert wfl.gauge_integral(xi) == pytest.approx(expected, abs=1e-13)


def test_gauge_integral_matches_quadrature_of_derivatives():
    # the integral must differentiate back to f1'^2 + f2'^2
    h = 1e-5
    for wf in (waveforms.linear(0.5), waveforms.pulse(0.3)):
        for xi in (1.0, 3.7, 6.1):
            fd = (wf.gauge_integral(xi + h) - wf.gauge_integral(xi - h)) \
                / (2.0 * h)
            d1, d2 = wf.fdot(xi)
            assert abs(fd - (d1 * d1 + d2 * d2)) < 1e-8


@pytest.mark.parametrize("wf", [waveforms.pulse(0.2),
                                waveforms.pulse(0.3, center=5.0, width=1.5)])
def test_pulse_gauge_integral_matches_mpmath_oracle(wf):
    a = wf.amplitude
    center, width = wf.params

    def integrand(p):
        env = mpmath.exp(-((p - center) / width) ** 2 / 2)
        denv = -(p - center) / width ** 2 * env
        return (a * (denv * mpmath.sin(p) + env * mpmath.cos(p))) ** 2

    with mpmath.workdps(20):
        for xi in np.linspace(-40.0, 60.0, 21):
            # the whole interval, cut every 4 units to resolve the carrier
            lo, hi = sorted((0.0, float(xi)))
            cuts = [lo, *np.arange(math.ceil(lo / 4) * 4, hi, 4.0), hi]
            exact = float(mpmath.quad(integrand, sorted(set(cuts))))
            assert abs(wf.gauge_integral(float(xi))
                       - math.copysign(exact, xi)) <= 1e-14


def test_pulse_envelope_decays():
    wf = waveforms.pulse(0.3, center=5.0, width=1.5)
    assert abs(wf.f(30.0)[0]) < 1e-30
    assert abs(wf.fdot(-20.0)[0]) < 1e-30


@pytest.mark.parametrize("wf", [
    waveforms.circular(0.4),
    waveforms.linear(0.7),
    waveforms.pulse(0.3, center=5.0, width=1.5),
], ids=["circular", "linear", "pulse"])
def test_float_phase_is_the_one_point_array_call(wf):
    # a float phase runs the numpy code as its one-point case: every method
    # gives the bits of the call on a one-element array
    def bits(value):
        parts = value if isinstance(value, tuple) else (value,)
        return [np.asarray(v, dtype=float).ravel().tobytes() for v in parts]

    for xi in np.random.default_rng(43).uniform(-5.0, 25.0, 50).tolist():
        for method in (wf.f, wf.fdot, wf.fddot, wf.gauge_integral):
            assert bits(method(xi)) == bits(method(np.array([xi]))), \
                (method.__name__, xi)


def test_pulse_integrates_each_distinct_phase_once_bit_for_bit():
    # repeated phases are integrated once and gathered back, distinct by
    # their bits: -0.0 keeps its sign, and every value is the per-point call,
    # over more than two blocks of distinct phases, the last one partial
    wf = waveforms.pulse(0.3, center=5.0, width=1.5)
    phases = np.random.default_rng(44).uniform(
        -5.0, 25.0, 2 * waveforms._PULSE_BLOCK + 40)
    xi = np.concatenate([phases, phases[::-1], [0.0, -0.0, 0.0, -0.0]])
    xi = xi.reshape(4, -1)
    each = np.array([wf.gauge_integral(v) for v in xi.ravel().tolist()])
    got = wf.gauge_integral(xi)
    assert got.shape == xi.shape
    assert got.tobytes() == each.reshape(xi.shape).tobytes()
    assert np.signbit(got.ravel()[-4:]).tolist() == [False, True, False, True]
    assert type(wf.gauge_integral(float(phases[0]))) is np.float64
    assert type(wf.gauge_integral(np.float64(-0.0))) is np.float64


@pytest.mark.parametrize("kind, params", [
    ("square", ()),
    ("Circular", ()),
    ("pulse", ()),
    ("pulse", (6.0,)),
    ("pulse", (6.0, 2.0, 1.0)),
    ("pulse", (6.0, 0.0)),
    ("pulse", (6.0, -2.0)),
    ("pulse", (math.nan, 2.0)),
    ("pulse", (math.inf, 2.0)),
    ("pulse", (6.0, math.nan)),
    ("pulse", (6.0, math.inf)),
    ("circular", (6.0, 2.0)),
    ("linear", (1.0,)),
])
def test_bad_waveform_is_refused_at_construction(kind, params):
    # not at first use, where an unknown kind or a pulse without its
    # (center, width) used to fail with a bare name or an unpacking error
    with pytest.raises(ValueError, match="kind|params"):
        waveforms.Waveform(kind, 0.3, params)
