"""Finite-difference stencils: the 4-gradient and the operators read off it,
and the stencil commuting with the even-subalgebra lift."""
import numpy as np
import pytest

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
        np.testing.assert_array_equal(g[mu], numerics.partial4(cubic, PT, mu))


def test_divergence4_on_cubic():
    t, x, y, z = PT
    # d_t F^0 / c + d_x F^1 + d_y F^2 + d_z F^3 at c = 2
    expected = 3.0 * t * t / 2.0 + 2.0 * x * z + 3.0 * y * y + x * y + 2.0 * z
    assert numerics.divergence4(cubic, PT, c=2.0) == pytest.approx(
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
    col, Psi = cat.spinor(spec), cat.matrix_spinor(spec)
    pt = (1.3, 0.9, 1.7, 0.6)
    for mu in range(4):
        np.testing.assert_array_equal(
            spinors.hestenes_matrix(numerics.partial4(col, pt, mu)),
            numerics.partial4(Psi, pt, mu))
