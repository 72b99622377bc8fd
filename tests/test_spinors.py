"""Matrix/column spinor maps, plane waves, and local observables."""
import math

import numpy as np
import pytest

import oracles
from oracles import to_vector
from rdibeams import catalog as cat
from rdibeams import numerics, spinors, sta, verify
from rdibeams.waveforms import pulse


def to_components(psi):
    """The real octet (r_mu, s_mu) of a column spinor, read off the
    component dictionary of `spinors`: the oracle from_components inverts."""
    psi = np.asarray(psi, dtype=complex)
    r = np.array([psi[0].real, -psi[1].imag, psi[1].real, -psi[0].imag])
    s = np.array([psi[2].imag, psi[3].real, psi[3].imag, psi[2].real])
    return r, s


def test_component_dictionary_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        r, s = to_components(psi)
        np.testing.assert_array_equal(spinors.from_components(r, s), psi)


def test_from_components_rest_case():
    psi = spinors.from_components((1, 0, 0, 0), (0, 0, 0, 0))
    np.testing.assert_array_equal(psi, [1, 0, 0, 0])


def test_to_column_identity():
    np.testing.assert_array_equal(spinors.to_column(sta.ID), [1, 0, 0, 0])


def test_hestenes_matrix_is_even_and_inverts_to_column():
    rng = np.random.default_rng(1)
    for _ in range(30):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        Psi = spinors.hestenes_matrix(psi)
        np.testing.assert_allclose(spinors.to_column(Psi), psi, atol=1e-14)
        # only even-grade trace projections survive
        for k in (2, 3, 4, 5, 12, 13, 14, 15):
            assert abs(oracles.trace_project(Psi, k)) < 1e-13


def test_assemble_identity_and_rest_particle():
    ms = spinors.MatrixSpinor(rho=1.0, beta=0.0, rotor=sta.ID, phase_arg=0.0)
    np.testing.assert_allclose(spinors.assemble(ms), sta.ID, atol=1e-15)
    t, m = 0.73, 1.0
    ms = spinors.MatrixSpinor(rho=1.0, beta=0.0, rotor=sta.ID, phase_arg=m * t)
    psi = spinors.to_column(spinors.assemble(ms))
    np.testing.assert_allclose(psi, [np.exp(-1j * m * t), 0, 0, 0], atol=1e-14)


def test_assemble_density_duality_relation():
    rng = np.random.default_rng(2)
    for _ in range(100):
        rho = float(rng.uniform(0.1, 3.0))
        beta = float(rng.uniform(-np.pi, np.pi))
        rotor = oracles.rotor(rng.normal(size=3) * 0.5,
                              rng.normal(size=3) * 0.5)
        ms = spinors.MatrixSpinor(rho=rho, beta=beta, rotor=rotor,
                                  phase_arg=float(rng.uniform(0, 6)))
        Psi = spinors.assemble(ms)
        prod = Psi @ sta.reversion(Psi)
        scalar = np.trace(prod).real / 4.0
        pseudo = -np.trace(prod @ sta.PSEUDO).real / 4.0
        assert abs(scalar - rho * math.cos(beta)) < 1e-10
        assert abs(pseudo - rho * math.sin(beta)) < 1e-10


def test_assemble_reproduces_uniform_field_column():
    # factored form: rotor = azimuthal boost, phase = (eps t + Phi)/hbar with
    # the gauge function Phi = -(M/2) * hbar * atan2(y, x); valid wherever
    # the local boost stays subluminal (|g| < 1)
    spec = cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0)
    eps = cat.eigenvalue(spec)
    A = spec.m + eps
    col = cat.spinor(spec)
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 20:
        t, x, y, z = rng.uniform(0.3, 2.2, size=4)
        lam = cat.lam_of_r(spec, math.hypot(x, y))
        pr = cat.profile(spec, lam)
        g = spec.B * pr["fp"] / (2.0 * A * pr["f"]) if pr["f"] != 0 else 2.0
        if abs(g) >= 0.98:
            continue
        phi = math.atan2(y, x)
        w_half = math.atanh(g)
        rotor = sta.exp_bivector(
            (-w_half * (-y / math.hypot(x, y)), -w_half * (x / math.hypot(x, y)), 0.0),
            (0.0, 0.0, 0.0))
        rho = (A * pr["f"] * pr["H"] * lam ** spec.l
               / (spec.B * math.cosh(w_half))) ** 2 * 1.0
        # the polar factors are local: crossing a node of f shifts the phase
        # branch by pi (sqrt(rho) stays positive while f flips sign)
        phase = eps * t - spec.M / 2.0 * phi \
            + (math.pi if pr["f"] < 0 else 0.0)
        ms = spinors.MatrixSpinor(rho=rho, beta=0.0, rotor=rotor,
                                  phase_arg=phase)
        psi_factored = spinors.to_column(spinors.assemble(ms))
        psi_closed = col(t, x, y, z)
        np.testing.assert_allclose(psi_factored, psi_closed, atol=1e-12)
        checked += 1


def test_plane_wave_rest_and_momentum_ratio():
    pw = spinors.plane_wave((0, 0, 0), 1.0)
    np.testing.assert_allclose(pw(0.9, 0, 0, 0),
                               [np.exp(-1j * 0.9), 0, 0, 0], atol=1e-14)
    pz = 0.6
    pw = spinors.plane_wave((0, 0, pz), 1.0)
    psi = pw(0.2, 0.1, 0.3, -0.4)
    energy = math.sqrt(1 + pz * pz)
    assert psi[2] / psi[0] == pytest.approx(pz / (energy + 1.0), rel=1e-12)
    assert abs(psi[1]) == 0.0 and abs(psi[3]) == 0.0


def _free_dirac_residual(field, m, pt, h=1e-3):
    psi = field(*pt)
    out = np.zeros(4, dtype=complex)
    for mu in range(4):
        d = numerics.partial4(field, pt, mu, h)
        out = out + sta.GAMMA_UP[mu] @ (1j * d)
    return np.linalg.norm(out - m * psi) / np.linalg.norm(m * psi)


def test_plane_wave_free_dirac_residual():
    rng = np.random.default_rng(4)
    p = (0.3, -0.2, 0.5)
    for sign in (+1, -1):
        field = spinors.plane_wave(p, 1.0, energy_sign=sign)
        worst = max(_free_dirac_residual(field, 1.0, tuple(rng.uniform(0.5, 5, 4)))
                    for _ in range(50))
        assert worst < 1e-8, sign


def test_plane_wave_spin_rotation():
    # rotating the rest spin axis to -z flips the spin density
    field = spinors.plane_wave((0, 0, 0), 1.0, spin_axis=(1, 0, 0),
                               angle=math.pi)
    obs = spinors.observables(field(0.0, 0, 0, 0))
    np.testing.assert_allclose(obs.spin_density, [0, 0, 0, -1], atol=1e-12)


def test_observables_rest_state():
    obs = spinors.observables(np.array([1, 0, 0, 0], dtype=complex))
    np.testing.assert_allclose(obs.current, [1, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(obs.spin_density, [0, 0, 0, 1], atol=1e-15)
    assert obs.rho == pytest.approx(1.0)
    assert obs.beta == pytest.approx(0.0)
    gram = np.array([[sta.minkowski_dot(a, b) for b in obs.tetrad]
                     for a in obs.tetrad])
    np.testing.assert_allclose(gram, sta.METRIC, atol=1e-14)


def test_observables_null_density():
    with pytest.raises(spinors.NullDensity):
        spinors.observables(np.zeros(4, dtype=complex))


def test_stationary_current_purely_azimuthal():
    spec = cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0)
    col = cat.spinor(spec)
    rng = np.random.default_rng(5)
    for _ in range(25):
        t, x, y, z = rng.uniform(0.4, 4.0, size=4)
        obs = spinors.observables(col(t, x, y, z))
        j = obs.current
        radial = (j[1] * x + j[2] * y) / math.hypot(x, y)
        assert abs(radial) < 1e-12
        assert abs(j[3]) < 1e-12


def test_velocity_spin_orthogonality_with_pz():
    spec = cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=1, p_z=0.7)
    col = cat.spinor(spec)
    rng = np.random.default_rng(6)
    for _ in range(25):
        pt = tuple(rng.uniform(0.4, 4.0, size=4))
        obs = spinors.observables(col(*pt))
        if obs.undefined:
            continue
        v, s = obs.velocity, obs.spin
        assert abs(sta.minkowski_dot(v, s)) < 1e-10
        # time component ties to the spatial projection
        assert s[0] == pytest.approx(np.dot(v[1:], s[1:]) / v[0], abs=1e-10)
        assert abs(s[0]) > 1e-4  # genuinely nonzero once p_z != 0


def test_spin_plane_matches_cross_product_form():
    spec = cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0, p_z=0.4)
    col = cat.spinor(spec)
    rng = np.random.default_rng(7)
    for _ in range(10):
        pt = tuple(rng.uniform(0.4, 3.0, size=4))
        psi = col(*pt)
        obs = spinors.observables(psi)
        if obs.undefined:
            continue
        _, _, plane = _sandwich_oracle(psi)
        np.testing.assert_allclose(obs.spin_plane, plane, atol=1e-10)


# ---------------------------------------------------------------------------
# bilinear kernel against the trace-projection formulas
# ---------------------------------------------------------------------------


def _trace_oracle(psi):
    """(J, rho s, rho cos beta, rho sin beta) by trace projection of the
    matrix spinor: the reference the contraction kernel must reproduce."""
    Psi = spinors.hestenes_matrix(psi)
    rev = sta.reversion(Psi)
    prod = Psi @ rev
    return (to_vector(Psi @ sta.GAMMA[0] @ rev),
            to_vector(Psi @ sta.GAMMA[3] @ rev),
            np.trace(prod).real / 4.0,
            -np.trace(prod @ sta.PSEUDO).real / 4.0)


def _oracle_spinors():
    """200 random spinors over six decades of scale, then ten sample points
    of every default spec (all seven families) and of each dressed family
    driven by a pulse."""
    rng = np.random.default_rng(11)
    scale = 10.0 ** rng.uniform(-3, 3, size=(200, 1))
    out = list(scale * (rng.normal(size=(200, 4))
                        + 1j * rng.normal(size=(200, 4))))
    specs = [s for group in verify.default_specs().values() for s in group]
    specs += [cat.SolutionSpec(cat.Family.REDMOND, n=1, l=1,
                               waveform=pulse(0.2), omega=1.0),
              cat.SolutionSpec(cat.Family.RADIAL_B_LASER, n=1, M=1,
                               waveform=pulse(0.2), omega=1.0)]
    for spec in specs:
        col = cat.spinor(spec)
        out += [col(*pt) for pt in rng.uniform(0.5, 5.0, size=(10, 4))]
    return np.array(out)


def _sandwich_oracle(psi):
    """rho e1 and rho e2 as the sandwiches Psi gamma_k rev(Psi) of the
    matrix spinor, and the spin plane e2 e1 = exp(-PSEUDO beta) Psi gamma2
    gamma1 rev(Psi) / rho: the references for `tetrad_pair` and
    `spin_plane_from_vectors`."""
    Psi = spinors.hestenes_matrix(psi)
    rev = sta.reversion(Psi)
    bil = spinors.bilinears(psi)
    dual_inv = np.cos(bil.beta) * sta.ID - np.sin(bil.beta) * sta.PSEUDO
    plane = dual_inv @ Psi @ sta.GAMMA[2] @ sta.GAMMA[1] @ rev / bil.rho
    return (to_vector(Psi @ sta.GAMMA[1] @ rev),
            to_vector(Psi @ sta.GAMMA[2] @ rev), plane)


def test_bilinears_match_trace_oracle():
    psis = _oracle_spinors()
    for psi in psis:
        cur, spin, scalar, pseudo = _trace_oracle(psi)
        tol = 1e-13 * cur[0]
        bil = spinors.bilinears(psi)
        obs = spinors.observables(psi)
        for got in (bil.current, obs.current):
            np.testing.assert_allclose(got, cur, rtol=0, atol=tol)
        for got in (bil.spin_density, obs.spin_density):
            np.testing.assert_allclose(got, spin, rtol=0, atol=tol)
        for got in (bil.scalar, obs.scalar, obs.rho * math.cos(obs.beta)):
            assert abs(got - scalar) <= tol
        for got in (bil.pseudo, obs.rho * math.sin(obs.beta)):
            assert abs(got - pseudo) <= tol


def test_bilinears_batch_equals_scalar_calls():
    psis = _oracle_spinors()
    batch = spinors.bilinears(psis)
    assert batch.current.shape == batch.spin_density.shape == psis.shape
    for k, psi in enumerate(psis):
        one = spinors.bilinears(psi)
        np.testing.assert_array_equal(batch.current[k], one.current)
        np.testing.assert_array_equal(batch.spin_density[k], one.spin_density)
        assert batch.scalar[k] == one.scalar and batch.pseudo[k] == one.pseudo
        assert batch.rho[k] == one.rho and batch.beta[k] == one.beta
    grid = spinors.bilinears(psis[:60].reshape(3, 20, 4))
    np.testing.assert_array_equal(grid.current.reshape(60, 4),
                                  batch.current[:60])


def test_current_matches_bilinears():
    # random spinors over six decades and every default spec's spinor, one
    # at a time (a tuple of floats), as one batch and as a [3, 20, 4] grid
    psis = _oracle_spinors()
    ref = spinors.bilinears(psis).current
    tol = 1e-15 * ref[:, :1]
    for k, psi in enumerate(psis):
        one = spinors.current(psi)
        assert type(one) is tuple and all(type(v) is float for v in one)
        assert np.all(np.abs(np.array(one) - ref[k]) <= tol[k])
    batch = spinors.current(psis)
    assert batch.shape == psis.shape
    assert np.all(np.abs(batch - ref) <= tol)
    grid = spinors.current(psis[:60].reshape(3, 20, 4))
    assert grid.shape == (3, 20, 4)
    assert np.all(np.abs(grid.reshape(60, 4) - ref[:60]) <= tol[:60])
    with pytest.raises(spinors.NullDensity):
        spinors.current(np.zeros(4, dtype=complex))
    batch = np.ones((5, 4), dtype=complex)
    batch[3] = 0.0
    with pytest.raises(spinors.NullDensity):
        spinors.current(batch)


def test_bilinears_null_density():
    with pytest.raises(spinors.NullDensity):
        spinors.bilinears(np.zeros(4, dtype=complex))
    batch = np.ones((5, 4), dtype=complex)
    batch[3] = 0.0
    with pytest.raises(spinors.NullDensity):
        spinors.bilinears(batch)


def test_tetrad_pair_matches_sandwich_oracle():
    psis = _oracle_spinors()
    batch = spinors.tetrad_pair(psis)
    assert batch.shape == psis.shape
    for psi, got in zip(psis, batch):
        e1, e2, _ = _sandwich_oracle(psi)
        tol = 1e-13 * spinors.bilinears(psi).current[0]
        np.testing.assert_allclose(got.real, e1, rtol=0, atol=tol)
        np.testing.assert_allclose(got.imag, e2, rtol=0, atol=tol)
        np.testing.assert_array_equal(spinors.tetrad_pair(psi), got)


def test_closed_form_inverse_and_determinant():
    # Psi rev(Psi) = rho exp(PSEUDO beta), so Psi^-1 = rev(Psi)
    # exp(-PSEUDO beta) / rho and |det Psi| = rho^2: the inverse and the
    # singularity test of `inversion.invert`
    for psi in _oracle_spinors():
        Psi = spinors.hestenes_matrix(psi)
        bil = spinors.bilinears(psi)
        closed = sta.reversion(Psi) @ (bil.scalar * sta.ID
                                       - bil.pseudo * sta.PSEUDO) / bil.rho ** 2
        ref = np.linalg.inv(Psi)
        np.testing.assert_allclose(closed, ref, rtol=0,
                                   atol=1e-12 * np.max(np.abs(ref)))
        assert abs(abs(np.linalg.det(Psi)) - bil.rho ** 2) \
            <= 1e-12 * bil.rho ** 2


@pytest.mark.parametrize("shape", [(4,), (9, 4), (3, 5, 4), (6, 17, 4)])
def test_hestenes_matrix_gather_is_bitwise_the_contraction(shape):
    # each real and imaginary part of Psi is one part of psi times +-1, so
    # the gather equals the einsum over the lift exactly, on contiguous
    # batches and on a strided slice alike
    rng = np.random.default_rng(len(shape) + shape[0])
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    strided = np.repeat(psi, 2, axis=-1)[..., ::2]
    for p in (psi, strided):
        got = spinors.hestenes_matrix(p)
        assert got.shape == p.shape[:-1] + (4, 4)
        assert got.tobytes() == oracles.hestenes_matrix(p).tobytes()


def test_hestenes_matrix_batch_equals_scalar_calls():
    psis = _oracle_spinors()[:40]
    batch = spinors.hestenes_matrix(psis.reshape(4, 10, 4))
    assert batch.shape == (4, 10, 4, 4)
    for k, psi in enumerate(psis):
        np.testing.assert_array_equal(batch[k // 10, k % 10],
                                      spinors.hestenes_matrix(psi))


@pytest.mark.parametrize("family", [cat.Family.FREE_BESSEL,
                                    cat.Family.VOLKOV_BESSEL])
def test_kinematics_check_matches_pointwise_observables(family):
    # the batched check against a per-point loop over `observables`, with
    # e1, e2 and the spin plane from the matrix-spinor sandwiches; at these
    # 100 points both the stationary and the dressed l = 1 beam have one
    # excluded point and a quarter of the rest at beta = pi
    spec = verify.default_specs()[family][1]
    pts = verify.sample_points(np.random.default_rng(23), 100)
    col = cat.spinor(spec)
    worst = dict.fromkeys(("vv", "ss", "vs", "gram", "plane", "pseudo",
                           "beta0"), 0.0)
    flipped = excluded = 0
    for pt in pts:
        psi = col(*pt)
        obs = spinors.observables(psi)
        if obs.undefined or obs.rho < verify.CONDITION_FLOOR * obs.current[0]:
            excluded += 1
            continue
        e1, e2, plane = _sandwich_oracle(psi)
        tetrad = (obs.velocity, e1 / obs.rho, e2 / obs.rho, obs.spin)
        gram = np.array([[sta.minkowski_dot(a, b) for b in tetrad]
                         for a in tetrad])
        e2e1 = sta.from_vector(tetrad[2]) @ sta.from_vector(tetrad[1])
        for key, val in (("vv", abs(gram[0, 0] - 1.0)),
                         ("ss", abs(gram[3, 3] + 1.0)),
                         ("vs", abs(gram[0, 3])),
                         ("gram", np.max(np.abs(gram - sta.METRIC))),
                         ("plane", np.max(np.abs(e2e1 - plane))),
                         ("pseudo", abs(math.sin(obs.beta))),
                         ("beta0", 0.0 if obs.scalar < 0 else abs(obs.beta))):
            worst[key] = max(worst[key], float(val))
        flipped += obs.scalar < 0
    kin = verify.kinematics_check(spec, pts)
    assert kin["excluded"] == excluded == 1
    assert kin["beta_pi_fraction"] == flipped / max(len(pts) - excluded, 1)
    for key, val in worst.items():
        assert abs(kin[key] - val) <= 1e-11, key
