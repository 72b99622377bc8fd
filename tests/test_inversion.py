"""Dynamic-inversion checks: potential recovery, constraint traces, the
circular-orbit condition and the radial profile equation."""
import numpy as np
import pytest

import oracles
from rdibeams import catalog as cat
from rdibeams import inversion as inv
from rdibeams import numerics
from rdibeams import waveforms


def test_invert_free_beam_gives_zero_potential():
    spec = cat.SolutionSpec(cat.Family.FREE_BESSEL, l=1, p_perp=0.9)
    col = cat.spinor(spec)
    rng = np.random.default_rng(0)
    for _ in range(20):
        pt = tuple(rng.uniform(0.5, 4.0, size=4))
        sample = inv.invert(col, pt)
        assert np.max(np.abs(sample.eA)) < 2e-7


def test_invert_uniform_field_values():
    spec = cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0)
    col = cat.spinor(spec)
    rng = np.random.default_rng(1)
    for _ in range(10):
        t, x, y, z = rng.uniform(0.5, 3.0, size=4)
        sample = inv.invert(col, (t, x, y, z))
        np.testing.assert_allclose(
            sample.eA, [0.0, -y / 2.0, x / 2.0, 0.0], atol=2e-7)


def test_invert_constraint_traces_vanish():
    wf = waveforms.circular(0.3)
    specs = [
        cat.SolutionSpec(cat.Family.UNIFORM_B_SPLIT, n=1, l=1),
        cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=0),
        cat.SolutionSpec(cat.Family.REDMOND, n=1, l=0, waveform=wf,
                         omega=1.1),
    ]
    rng = np.random.default_rng(2)
    for spec in specs:
        col = cat.spinor(spec)
        for _ in range(6):
            pt = tuple(rng.uniform(0.6, 3.0, size=4))
            try:
                sample = inv.invert(col, pt)
            except inv.SingularSpinor:
                continue
            assert sample.constrained_residual < 2e-7
            assert sample.coefficients.shape == (16,)


def test_invert_agrees_with_closed_form_everywhere():
    wf = waveforms.circular(0.3)
    specs = [
        cat.SolutionSpec(cat.Family.UNIFORM_B, n=2, l=1, p_z=0.4),
        cat.SolutionSpec(cat.Family.VOLKOV_BESSEL, l=0, p_perp=1.0,
                         waveform=wf, omega=1.2),
        cat.SolutionSpec(cat.Family.RADIAL_B_LASER, n=1, M=0, waveform=wf,
                         omega=1.1),
    ]
    rng = np.random.default_rng(3)
    for spec in specs:
        col = cat.spinor(spec)
        for _ in range(6):
            pt = tuple(rng.uniform(0.6, 3.0, size=4))
            try:
                sample = inv.invert(col, pt)
            except inv.SingularSpinor:
                continue
            closed = cat.potential(spec, *pt)
            bound = max(2e-7, 10.0 * sample.richardson)
            assert np.max(np.abs(sample.eA - closed)) < bound


def test_invert_step_validation_and_errors():
    spec = cat.SolutionSpec(cat.Family.UNIFORM_B, n=0, l=0)
    col = cat.spinor(spec)
    with pytest.raises(ValueError):
        inv.invert(col, (1.0, 1.0, 1.0, 1.0), h=0.5)
    # a field with a genuinely singular point
    def bad(t, x, y, z):
        return np.zeros(4, dtype=complex)
    with pytest.raises(inv.SingularSpinor):
        inv.invert(bad, (1.0, 1.0, 1.0, 1.0))


def test_cross_check_gaussian_envelope_on_grid():
    # closed-form potential against inversion on a small 3d grid
    spec = cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=1)
    col = cat.spinor(spec)
    for x in (0.6, 1.4, 2.1):
        for y in (0.7, 1.2):
            for z in (0.5, 1.9):
                sample = inv.invert(col, (0.9, x, y, z))
                closed = cat.potential(spec, 0.9, x, y, z)
                bound = max(2e-7, 10.0 * sample.richardson)
                assert np.max(np.abs(sample.eA - closed)) < bound


def test_stationary_potential_terms_reassemble():
    for spec, pt in [
        (cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0), (0.8, 1.1, 0.7, 0.9)),
        (cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=0), (1.2, 1.6, 0.9, 0.4)),
        (cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=1, p_z=0.5),
         (0.7, 1.8, 1.1, 1.3)),
    ]:
        terms = oracles.stationary_potential_terms(spec, *pt)
        closed = cat.potential(spec, *pt)
        np.testing.assert_allclose(terms["eA"], closed, atol=5e-8)
        # the time component of the tetrad-rotation term is the energy
        assert terms["P"][0] == pytest.approx(cat.eigenvalue(spec), abs=1e-8)


def test_circularity_residual_catalog_profiles():
    for spec in (cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0),
                 cat.SolutionSpec(cat.Family.FREE_BESSEL, l=1, p_perp=0.9),
                 cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=0)):
        for lam in np.linspace(0.15, 2.8, 30):
            assert inv.circularity_residual(spec, lam) < 1e-8


def test_circularity_residual_batch_matches_points():
    lams = np.linspace(0.15, 2.8, 30)
    for spec in (cat.SolutionSpec(cat.Family.UNIFORM_B, n=2, l=1, p_z=0.4),
                 cat.SolutionSpec(cat.Family.RADIAL_B, n=2, M=1)):
        batch = inv.circularity_residual(spec, lams)
        assert batch.shape == lams.shape
        points = [inv.circularity_residual(spec, float(lam)) for lam in lams]
        np.testing.assert_allclose(batch, points, rtol=0, atol=1e-14)


def test_circularity_detects_perturbed_profile():
    # fault: f -> f (1 + 0.01 lam) stops satisfying the orbit condition
    spec = cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0)
    eps = cat.eigenvalue(spec)
    A = 1.0 + eps
    worst = 0.0
    for lam in np.linspace(0.2, 2.0, 30):
        pr = cat.profile(spec, lam)
        f = pr["f"] * (1.0 + 0.01 * lam)
        fp = pr["fp"] * (1.0 + 0.01 * lam) + 0.01 * pr["f"]
        fpp = pr["fpp"] * (1.0 + 0.01 * lam) + 0.02 * pr["fp"]
        aH, bH = lam ** 0 * f * pr["H"], lam ** 0 * fp * pr["H"]
        j0 = A * A * aH * aH + bH * bH / 4.0
        sigma = A * A * aH * aH - bH * bH / 4.0
        d_lam_jphi = -A * (f * fp * pr["H"] ** 2
                           + lam * (fp * fp + f * fpp) * pr["H"] ** 2
                           + 2.0 * lam * f * fp * pr["H"] * pr["Hp"])
        val = abs(eps - j0 / sigma - d_lam_jphi / (4.0 * lam * sigma))
        worst = max(worst, val)
    assert worst > 1e-3


def test_invert_is_gauge_covariant():
    # multiplying the column by exp(-i chi(x)) (the matrix spinor by the
    # phase rotor exp(-g2 g1 chi)) shifts the recovered potential by the
    # raised-index gradient of chi
    spec = cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0)
    base = cat.spinor(spec)

    def chi(t, x, y, z):
        return 0.3 * x + 0.1 * t - 0.2 * z

    def gauged(t, x, y, z):
        return base(t, x, y, z) * np.exp(-1j * chi(t, x, y, z))[..., None]

    grad_up = np.array([0.1, -0.3, 0.0, 0.2])  # eta^mu_nu d_nu chi
    rng = np.random.default_rng(17)
    for _ in range(5):
        pt = tuple(rng.uniform(0.6, 3.0, size=4))
        plain = inv.invert(base, pt)
        shifted = inv.invert(gauged, pt)
        np.testing.assert_allclose(shifted.eA - plain.eA, grad_up,
                                   atol=1e-9)
        assert shifted.constrained_residual < 2e-7


def test_field_that_forgets_the_component_axis_raises():
    # the gauged field of test_invert_is_gauge_covariant without [..., None]:
    # the stencil hands it coordinates shaped (*batch, 16), and its per-point
    # factor does not broadcast against psi[..., 16, 4], at one point and at
    # batches of 3 and 4 points alike (a batch of 4 once matched the
    # component axis and gave a wrong potential without an error)
    spec = cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0)
    base = cat.spinor(spec)

    def forgetful(t, x, y, z):
        return base(t, x, y, z) * np.exp(-1j * (0.3 * x + 0.1 * t - 0.2 * z))

    rng = np.random.default_rng(17)
    for shape in [(4,), (3, 4), (4, 4)]:
        pts = rng.uniform(0.6, 3.0, size=shape)
        with pytest.raises(ValueError, match="broadcast"):
            numerics.gradient4(forgetful, pts)
        with pytest.raises(ValueError, match="broadcast"):
            inv.invert(forgetful, pts)


def test_high_quantum_numbers():
    # large Bessel order and Laguerre degree still satisfy the equations
    from rdibeams import verify

    rng = np.random.default_rng(18)
    spec = cat.SolutionSpec(cat.Family.FREE_BESSEL, l=40, p_perp=1.5)
    worst = max(verify.dirac_residual(spec, tuple(rng.uniform(1.0, 5.0, 4)))
                for _ in range(5))
    assert worst < 1e-7
    spec = cat.SolutionSpec(cat.Family.UNIFORM_B, n=40, l=10)
    worst = max(inv.radial_ode_residual(spec, lam)
                for lam in np.linspace(0.05, 4.0, 100))
    assert worst < 1e-8
    worst = max(verify.dirac_residual(spec, tuple(rng.uniform(0.8, 3.0, 4)))
                for _ in range(5))
    assert worst < 1e-7


def test_radial_ode_residual_master_check():
    wf = waveforms.circular(0.3)
    specs = [
        cat.SolutionSpec(cat.Family.FREE_BESSEL, l=0, p_perp=1.0),
        cat.SolutionSpec(cat.Family.FREE_BESSEL, l=2, p_perp=0.8, p_z=0.5),
        cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0),
        cat.SolutionSpec(cat.Family.UNIFORM_B, n=2, l=1, p_z=0.4),
        cat.SolutionSpec(cat.Family.UNIFORM_B_SPLIT, n=2, l=2),
        cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=0),
        cat.SolutionSpec(cat.Family.RADIAL_B, n=2, M=1, p_z=0.3),
        cat.SolutionSpec(cat.Family.REDMOND, n=1, l=0, waveform=wf,
                         omega=1.1),
    ]
    for spec in specs:
        worst = max(inv.radial_ode_residual(spec, lam)
                    for lam in np.linspace(0.02, 4.0, 200))
        assert worst < 1e-8, spec.family
