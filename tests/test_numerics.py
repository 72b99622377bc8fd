"""Finite-difference stencils: the 4-gradient and the operators read off it,
and the stencil commuting with the even-subalgebra lift; the float-state
RK4 stepper."""
import numpy as np
import pytest

import oracles
from rdibeams import catalog as cat
from rdibeams import numerics, spinors, waveforms

PT = (0.5, 1.5, -0.75, 2.0)


def cubic(t, x, y, z):
    # the 4th-order central stencil is exact on cubics up to round-off
    return np.stack([t ** 3 + x * y, x * x * z + t, y ** 3 - t * z,
                     x * y * z + z * z], axis=-1)


def cubic_gradient(t, x, y, z):
    # g[mu, k] = d_mu F_k, by hand
    return np.array([
        [3.0 * t * t, 1.0, -z, 0.0],
        [y, 2.0 * x * z, 0.0, y * z],
        [x, 0.0, 3.0 * y * y, x * z],
        [0.0, x * x, -t, x * y + 2.0 * z],
    ])


def test_gradient4_on_cubic():
    g = numerics.gradient4(cubic, PT)
    assert g.shape == (4, 4)
    np.testing.assert_allclose(g.real, cubic_gradient(*PT), rtol=0, atol=1e-10)
    np.testing.assert_array_equal(g.imag, 0.0)
    for mu in range(4):
        np.testing.assert_array_equal(g[mu], numerics.partial4(cubic, PT)[mu])
    with pytest.raises(TypeError):  # the step is keyword-only
        numerics.partial4(cubic, PT, 1e-3)


@pytest.mark.parametrize("h", [1e-6, 5e-4, 1e-3, 1e-2])
def test_stencil_points_are_bit_for_bit_their_reference(h):
    # the one broadcast add moves each coordinate as the reference's
    # in-place adds do and keeps every other coordinate's bits, -0.0 and
    # 0.0 included, for a point and for batches
    rng = np.random.default_rng(17)
    batch = rng.uniform(-5.0, 5.0, size=(6, 3, 4))
    batch[0, 0] = (-0.0, 0.0, -0.0, 0.0)
    batch[1, :, 1:3] = (0.0, -0.0)
    batch[2, 1] = (-1e-300, 1e300, -7.5, -0.0)
    for point in (batch, batch[0, 0], batch[1], np.asarray(PT)):
        got = numerics.stencil_points(point, h)
        want = oracles.stencil_points(point, h)
        assert got.shape == want.shape == point.shape[:-1] + (16, 4)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("field", [
    cubic,
    cat.spinor(cat.SolutionSpec(cat.Family.VOLKOV_BESSEL, l=1, p_perp=0.8,
                                waveform=waveforms.linear(0.25), omega=0.9)),
], ids=["real-4-vector", "spinor"])
def test_sample_is_the_field_and_its_gradient4_in_one_call(field):
    # one sample of the points and their stencil gives, bit for bit, the
    # field and its gradient4 there, sliced or whole
    batch = np.random.default_rng(5).uniform(0.5, 5.0, size=(9, 4))
    for point in (np.asarray(PT), batch):
        g = numerics.gradient4(field, point, 2e-3)
        values, (smp,) = numerics.sample(field, point, [(..., 2e-3)])
        np.testing.assert_array_equal(values, numerics.at(field, point))
        np.testing.assert_array_equal(smp.at_points, values)
        np.testing.assert_array_equal(smp.gradient(), g)
    some = np.array([True, False, True, True, False, False, True, False, True])
    np.testing.assert_array_equal(smp[some].gradient(),
                                  numerics.gradient4(field, batch[some], 2e-3))
    np.testing.assert_array_equal(
        smp[::4].gradient(lambda v: v.real * v.imag),
        numerics.gradient4(lambda *q: field(*q).real * field(*q).imag,
                           batch[::4], 2e-3))


def test_one_sample_serves_several_steps_on_slices_of_the_points():
    # several (index, step) requests in one call, the field called once:
    # each StencilSample is, bit for bit, the field and its gradient4 at
    # its slice of the points, and no request leaves the values at the
    # points alone
    field = cat.spinor(cat.SolutionSpec(cat.Family.VOLKOV_BESSEL, l=1,
                                        p_perp=1.1, waveform=waveforms.pulse(0.2),
                                        omega=1.0))
    batch = np.random.default_rng(6).uniform(0.5, 5.0, size=(12, 4))
    calls = []

    def counted(*q):
        calls.append(q[0].shape)
        return field(*q)

    steps = [(..., 1e-3), (np.array([0, 5, 7]), 5e-4), (slice(None, None, 4), 2e-3)]
    values, samples = numerics.sample(counted, batch, steps)
    assert calls == [(12 * 17 + 3 * 16 + 3 * 16,)]
    np.testing.assert_array_equal(values, numerics.at(field, batch))
    for (index, h), smp in zip(steps, samples):
        assert smp.h == h
        np.testing.assert_array_equal(smp.at_points, values[index])
        np.testing.assert_array_equal(
            smp.gradient(), numerics.gradient4(field, batch[index], h))
    values, samples = numerics.sample(field, batch[3], [])
    assert samples == []
    np.testing.assert_array_equal(values, numerics.at(field, batch[3]))


def test_divergence_of_gradient4_on_cubic():
    t, x, y, z = PT
    # d_t F^0 + d_x F^1 + d_y F^2 + d_z F^3
    expected = 3.0 * t * t + 2.0 * x * z + 3.0 * y * y + x * y + 2.0 * z
    assert numerics.divergence(numerics.gradient4(cubic, PT)) == pytest.approx(
        expected, rel=0, abs=1e-10)


def test_spatial_divergence_and_curl_on_cubic():
    # the spatial part (F^1, F^2, F^3) as a 3-vector field
    t, x, y, z = PT
    g = numerics.gradient4(cubic, PT).real[:, 1:]
    assert numerics.spatial_divergence(g) == pytest.approx(
        2.0 * x * z + 3.0 * y * y + x * y + 2.0 * z, rel=0, abs=1e-10)
    np.testing.assert_allclose(numerics.spatial_curl(g),
                               [x * z + t, x * x - y * z, 0.0],
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("spec", [
    cat.SolutionSpec(cat.Family.UNIFORM_B, n=2, l=1, p_z=0.4),
    cat.SolutionSpec(cat.Family.REDMOND, n=1, l=1,
                     waveform=waveforms.linear(0.25), omega=0.9),
], ids=["stationary", "dressed"])
def test_lift_commutes_with_the_stencil_bitwise(spec):
    # the matrix Dirac form differentiates the column field and lifts the
    # derivative: the lift is real-linear and only moves the parts of psi
    # into matrix slots, so the two orders agree bit for bit
    col = cat.spinor(spec)

    def Psi(*q):
        return spinors.hestenes_matrix(col(*q))

    pt = (1.3, 0.9, 1.7, 0.6)
    for mu in range(4):
        np.testing.assert_array_equal(
            spinors.hestenes_matrix(numerics.partial4(col, pt)[mu]),
            numerics.partial4(Psi, pt)[mu])


# ---------------------------------------------------------------------------
# RK4 over a float state
# ---------------------------------------------------------------------------

OMEGA = 1.7


def oscillator(q):
    # x'' = -omega^2 x as the first-order system (x, v)
    return (q[1], -OMEGA * OMEGA * q[0])


def test_rk4_path_harmonic_oscillator():
    s_total = 2.0 * np.pi / OMEGA
    path = numerics.rk4_path(oscillator, (1.0, 0.0), s_total, 200)
    assert path.shape == (201, 2)
    s = np.linspace(0.0, s_total, 201)
    np.testing.assert_allclose(path[:, 0], np.cos(OMEGA * s), rtol=0, atol=1e-7)
    np.testing.assert_allclose(path[:, 1], -OMEGA * np.sin(OMEGA * s),
                               rtol=0, atol=1e-7)


def test_rk4_path_error_is_fourth_order():
    s_total = 3.0

    def error(steps):
        x, v = numerics.rk4_path(oscillator, (1.0, 0.0), s_total, steps)[-1]
        return np.hypot(x - np.cos(OMEGA * s_total),
                        (v + OMEGA * np.sin(OMEGA * s_total)) / OMEGA)

    # halving h divides the global error by 2^4
    assert error(40) / error(80) == pytest.approx(16.0, rel=0.05)


def test_rk4_path_hands_rhs_a_tuple_of_floats():
    seen = []

    def rhs(q):
        seen.append(q)
        return oscillator(q)

    # numpy scalars in, Python floats out
    x0 = np.array([0.25, -0.5])
    path = numerics.rk4_path(rhs, x0, np.float64(1.5), 7)
    assert path.shape == (8, 2)
    np.testing.assert_array_equal(path[0], x0)
    assert len(seen) == 4 * 7
    for q in seen:
        assert type(q) is tuple and len(q) == 2
        assert all(type(v) is float for v in q)


def test_rk4_path_accepts_an_array_rhs():
    as_tuple = numerics.rk4_path(oscillator, (1.0, 0.3), 2.0, 50)
    as_array = numerics.rk4_path(lambda q: np.array(oscillator(q)),
                                 (1.0, 0.3), 2.0, 50)
    np.testing.assert_array_equal(as_tuple, as_array)


def test_rk4_path_equals_the_array_state_reference_bitwise():
    # the stages and the step are formed in the reference's order, so on
    # the same right-hand side values the paths agree bit for bit
    np.testing.assert_array_equal(
        numerics.rk4_path(oscillator, (1.0, 0.3), 2.0, 50),
        oracles.rk4_path(lambda x: np.array(oscillator(x)), (1.0, 0.3),
                         2.0, 50))
