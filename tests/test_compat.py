"""Compatible transformations: the velocity solve, pullback Lagrangian and
2-form, and the symplectic relation between the paired systems."""
import collections
import dataclasses
import re

import numpy as np
import pytest

from magreduce import compat, lie, maglag, models, numerics, routh, semidirect
from magreduce.lie import CoVector
from magreduce.maglag import MagLagState, MagneticSystem, RegularityError
from magreduce.numerics import StepperChoice


@pytest.fixture(scope="module")
def beanie_pair(beanie_params):
    sd = models.beanie_gv_lagrangian(beanie_params)
    eq = semidirect.build_stage_equivalence(sd, CoVector([1.0]),
                                            CoVector([1.0, 0.0]),
                                            n_points=10, t_end=0.5)
    return eq


def quadratic_l2():
    """Unit-mass Lagrangian on a two-dimensional base with a one-dimensional
    f-fibre and no bundle fibre."""
    return MagneticSystem(n=2, k=0,
                          lagrangian=lambda q, v, p: 0.5 * float(v @ v),
                          dL_dv=lambda q, v, p: np.array(v))


def test_solve_psi_unit_mass_direct():
    pair = compat.TransformationPair(n1=1, vf=1, k2=0)
    beta = lambda p1: np.array([p1[2]])
    z1 = np.array([0.3, 1.1, 0.8, -0.4])  # (q, qdot, qbar, p)
    z2 = compat.solve_psi(quadratic_l2(), pair, beta, z1)
    # with dL2/dqbardot = qbardot the velocity equals beta directly
    assert abs(z2[3] - (-0.4)) < 1e-12


@pytest.mark.parametrize("width", [3, 5])
def test_solve_psi_refuses_a_state_of_the_wrong_width(width):
    # an extra coordinate would otherwise be dropped without a word
    pair = compat.TransformationPair(n1=1, vf=1, k2=0)
    with pytest.raises(ValueError, match=r"^z1 must have width 2 n1 \+ k1 = 4"):
        compat.solve_psi(quadratic_l2(), pair, lambda p1: np.array([p1[2]]), np.ones(width))
    with pytest.raises(ValueError, match="width"):
        compat.solve_psi(quadratic_l2(), pair, lambda p1: np.array([p1[2]]),
                         np.ones((3, width)))


def test_solve_psi_beanie_display(beanie_params, beanie_pair):
    i1, i2 = beanie_params.i1, beanie_params.i2
    z1 = np.array([0.5, 0.7, 1.2, 0.9])  # (phi, phidot, theta, nu)
    z2 = beanie_pair.psi(z1)
    assert abs(z2[3] - (0.9 - i2 * 0.7) / (i1 + i2)) < 1e-12


def test_psi_passthrough_bit_exact(beanie_pair, rng):
    for _ in range(20):
        z1 = rng.normal(size=4)
        z2 = beanie_pair.psi(z1)
        assert z2[0] == z1[0]          # q
        assert z2[1] == z1[2]          # qbar
        assert z2[2] == z1[1]          # qdot


def test_psi_momentum_condition_residual(beanie_pair, rng):
    l2 = beanie_pair.r2_system
    pair = beanie_pair.pair
    for _ in range(50):
        z1 = rng.normal(size=4)
        z2 = beanie_pair.psi(z1)
        q2, v2, pbar = pair.split2(z2)
        resid = l2.grad_v(q2, v2, pbar)[pair.n1:] - beanie_pair.beta(pair.p1_coords(z1))
        assert np.max(np.abs(resid)) <= 1e-10


def test_psi_round_trip(beanie_pair, rng):
    for _ in range(100):
        z1 = rng.normal(size=4)
        z2 = beanie_pair.psi(z1)
        z1_back = compat.invert_psi(beanie_pair.r2_system, beanie_pair.pair,
                                    beanie_pair.beta, z2)
        assert np.max(np.abs(z1_back - z1)) <= 1e-9


def test_build_l1_trivial_beta():
    # with beta = 0 and no qbar-velocity dependence, L1 = L2 o psi
    pair = compat.TransformationPair(n1=1, vf=1, k2=0)
    l2 = MagneticSystem(n=2, k=0,
                        lagrangian=lambda q, v, p: 0.5 * v[0] ** 2 - q[0] ** 2)
    beta = lambda p1: np.zeros(1)
    l1 = compat.build_system(l2, pair, beta).lagrangian
    val = l1(np.array([0.4]), np.array([0.7]), np.array([0.2, 0.3]))
    assert abs(val - (0.5 * 0.49 - 0.16)) < 1e-12


def test_build_l1_beanie_identity(beanie_params, beanie_pair, rng):
    # L1 = psi*L2 - nu * (nu - I2 phidot)/(I1+I2), matching the full-group
    # reduced Lagrangian at matched points
    i1, i2 = beanie_params.i1, beanie_params.i2
    l1 = beanie_pair.p1_system.lagrangian
    l2 = beanie_pair.r2_system
    for _ in range(100):
        z1 = rng.normal(size=4)
        z2 = beanie_pair.psi(z1)
        pullback = l2.value(z2[:2], z2[2:4], np.zeros(0))
        nu = z1[3]
        expected = pullback - nu * (nu - i2 * z1[1]) / (i1 + i2)
        got = l1(z1[:1], z1[1:2], z1[2:])
        assert abs(got - expected) <= 1e-10


def test_energy_pullback_identity(beanie_pair, rng):
    sys1 = compat.build_system(beanie_pair.r2_system, beanie_pair.pair,
                               beanie_pair.beta)
    for _ in range(100):
        z1 = rng.normal(size=4)
        z2 = beanie_pair.psi(z1)
        e1 = maglag.energy(sys1, maglag.unpack(sys1, z1))
        e2 = maglag.energy(beanie_pair.r2_system,
                           maglag.unpack(beanie_pair.r2_system, z2))
        assert abs(e1 - e2) <= 1e-9


def test_build_b1_constant_beta_zero():
    pair = compat.TransformationPair(n1=1, vf=1, k2=0)
    beta = lambda p1: np.array([2.5])
    bform = compat.build_system(quadratic_l2(), pair, beta).bform
    bqq, bqp, bpp = bform(np.array([0.3]), np.array([0.8, -0.4]))
    assert np.max(np.abs(bqq)) < 1e-12
    assert np.max(np.abs(bqp)) < 1e-12
    assert np.max(np.abs(bpp)) < 1e-12


def test_build_b1_beanie_matches_orbit_form(beanie_pair):
    # recorded during construction: d<beta, connection> equals the orbit
    # 2-form on matched tangents
    assert beanie_pair.report["form_identity_residual"] <= 1e-6


def test_build_b1_output_is_closed(beanie_pair):
    sys1 = compat.build_system(beanie_pair.r2_system, beanie_pair.pair,
                               beanie_pair.beta)
    samples = [MagLagState([0.3], [0.0], [0.5, 1.2]),
               MagLagState([-0.6], [0.0], [1.0, -0.4])]
    assert maglag.check_closedness(sys1, samples) < 1e-6


def test_symplectomorphism_identity_pair(rng):
    # Q1 = Q2 with psi the identity: the residual is pure stencil noise
    sys = MagneticSystem(n=2, k=0,
                         lagrangian=lambda q, v, p: 0.5 * float(v @ v) - q[0] ** 2,
                         dL_dq=lambda q, v, p: np.array([-2.0 * q[0], 0.0]),
                         dL_dv=lambda q, v, p: np.array(v))
    samples = rng.normal(size=(20, 4))
    rep = compat.verify_symplectomorphism(sys, sys, lambda z: z.copy(),
                                          samples, rng)
    assert rep["max_residual_form"] <= 1e-9
    assert rep["max_residual_energy"] <= 1e-12


def test_symplectomorphism_exact_on_a_shear(rng):
    # (q, v) -> (q + 10 sin v, v) preserves dq ^ dv and v^2 / 2 exactly.  A
    # forward-difference push of the tangents, O(h), reads about 1e-5 here;
    # the central Jacobian is O(h^2)
    sys = MagneticSystem(n=1, k=0,
                         lagrangian=lambda q, v, p: 0.5 * float(v @ v),
                         dL_dv=lambda q, v, p: np.array(v))
    shear = lambda z: np.array([z[0] + 10.0 * np.sin(z[1]), z[1]])
    samples = rng.uniform(-2.0, 2.0, (20, 2))
    rep = compat.verify_symplectomorphism(sys, sys, shear, samples, rng)
    assert rep["max_residual_form"] <= 1e-8
    assert rep["max_residual_energy"] == 0.0


@pytest.mark.parametrize("tangent_pairs", [1, 10])
def test_symplectomorphism_psi_calls_per_sample(beanie_pair, tangent_pairs):
    # one Jacobian per sample: 1 + 2 dim psi calls, whatever tangent_pairs;
    # a marked psi takes the samples and their stencil in two calls
    eq = beanie_pair
    samples = beanie_rows(np.random.default_rng(3), 5)
    one_point, marked = [], []

    def spy(z):
        one_point.append(z.shape)
        return eq.psi(z)

    @numerics.takes_rows
    def marked_spy(z):
        marked.append(z.shape)
        return eq.psi(z)

    for psi in (spy, marked_spy):
        compat.verify_symplectomorphism(eq.p1_system, eq.r2_system, psi, samples,
                                        np.random.default_rng(8), tangent_pairs)
    assert one_point == [(4,)] * 5 * (1 + 2 * 4)
    assert marked == [(5, 4), (5 * 2 * 4, 4)]


def test_symplectomorphism_rejects_bad_samples_before_psi(beanie_pair, rng):
    eq = beanie_pair
    calls = []

    def psi(z):
        calls.append(z)
        return eq.psi(z)

    def verify(samples, **kw):
        return compat.verify_symplectomorphism(eq.p1_system, eq.r2_system, psi,
                                               samples, rng, **kw)

    with pytest.raises(ValueError, match=r"width 2\*n \+ k = 4 of sys1, got shape \(3, 5\)"):
        verify(np.zeros((3, 5)))
    bad = beanie_rows(rng, 4)
    bad[2, 1] = np.nan
    with pytest.raises(ValueError, match=r"^sample row 2 is not finite$"):
        verify(bad)
    for kw in ({"beta": eq.beta}, {"pair": eq.pair}):
        with pytest.raises(ValueError, match="both beta and pair"):
            verify(beanie_rows(rng, 2), **kw)
    assert calls == []


def test_symplectomorphism_reports_momentum_only_when_checked(beanie_pair, rng):
    eq = beanie_pair
    samples = beanie_rows(rng, 3)
    plain = compat.verify_symplectomorphism(eq.p1_system, eq.r2_system, eq.psi,
                                            samples, rng, tangent_pairs=2)
    assert "max_residual_momentum" not in plain
    checked = compat.verify_symplectomorphism(eq.p1_system, eq.r2_system, eq.psi,
                                              samples, rng, tangent_pairs=2,
                                              beta=eq.beta, pair=eq.pair)
    assert checked["max_residual_momentum"] <= 1e-10


def test_symplectomorphism_beanie_pair(beanie_pair, rng):
    sys1 = compat.build_system(beanie_pair.r2_system, beanie_pair.pair,
                               beanie_pair.beta)
    samples = np.column_stack([rng.uniform(-1, 1, 100), rng.uniform(-1, 1, 100),
                               rng.uniform(-np.pi, np.pi, 100),
                               rng.uniform(-1.5, 1.5, 100)])
    rep = compat.verify_symplectomorphism(sys1, beanie_pair.r2_system,
                                          beanie_pair.psi, samples, rng,
                                          tangent_pairs=10,
                                          beta=beanie_pair.beta,
                                          pair=beanie_pair.pair)
    assert rep["max_residual_form"] <= 1e-6
    assert rep["max_residual_energy"] <= 1e-9
    assert rep["max_residual_momentum"] <= 1e-10


def test_symplectomorphism_evaluates_the_velocity_blocks_once(beanie_pair):
    # the tangent map and sys2's form matrix share one velocity_blocks call
    eq = beanie_pair
    samples = beanie_rows(np.random.default_rng(4), 6)

    def check(sys2):
        return compat.verify_symplectomorphism(eq.p1_system, sys2, eq.psi, samples,
                                               np.random.default_rng(9), tangent_pairs=3,
                                               beta=eq.beta, pair=eq.pair)

    plain = dataclasses.replace(eq.r2_system)
    spied = dataclasses.replace(eq.r2_system)
    calls = []
    blocks = spied.velocity_blocks
    spied.__dict__["velocity_blocks"] = lambda *args: calls.append(1) or blocks(*args)
    report = check(spied)
    assert calls == [1]
    assert report == check(plain)
    # the shared blocks give the bits of sys2's public form matrix
    z2 = eq.psi(samples)
    q2, v2, pbar = z2[:, :2], z2[:, 2:4], z2[:, 4:]
    assert np.array_equal(maglag.symplectic_form_matrix(plain, q2, v2, pbar),
                          maglag.form_matrix_of_blocks(plain, q2, pbar,
                                                       plain.velocity_blocks(q2, v2, pbar)))


def test_symplectomorphism_negative_control(beanie_pair, rng):
    # a perturbed beta yields a map that no longer intertwines the built
    # pair of symplectic structures; the verifier must flag it
    sys1 = compat.build_system(beanie_pair.r2_system, beanie_pair.pair,
                               beanie_pair.beta)
    beta_bad = lambda p1: np.array([p1[2] + 0.3 * np.sin(p1[2])])

    def psi_bad(z1):
        return compat.solve_psi(beanie_pair.r2_system, beanie_pair.pair,
                                beta_bad, z1)

    samples = np.column_stack([rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10),
                               rng.uniform(-np.pi, np.pi, 10),
                               rng.uniform(0.5, 1.5, 10)])
    rep = compat.verify_symplectomorphism(sys1, beanie_pair.r2_system,
                                          psi_bad, samples, rng)
    assert rep["max_residual_form"] > 1e-3


@pytest.mark.parametrize("width", [3, 5])
def test_invert_psi_refuses_a_state_of_the_wrong_width(beanie_pair, width):
    # not a numerics error from the fibre inversion of a misread state
    eq = beanie_pair
    for z2 in (np.ones(width), np.ones((3, width))):
        with pytest.raises(ValueError, match=r"^z2 must have width 2 n2 \+ k2 = 4, got shape"):
            compat.invert_psi(eq.r2_system, eq.pair, eq.beta, z2)


def test_broken_step2_regularity_detected(beanie_pair):
    # a constant beta is not a fibre diffeomorphism: the inverse map fails
    beta_const = lambda p1: np.array([0.7])
    z2 = np.array([0.4, 0.2, 0.3, 0.5])
    with pytest.raises(RegularityError):
        compat.invert_psi(beanie_pair.r2_system, beanie_pair.pair,
                          beta_const, z2)


def test_solution_mapping_under_f(beanie_pair):
    # a trajectory of the pulled-back system projects under F to a
    # trajectory of the smaller system
    sys1 = compat.build_system(beanie_pair.r2_system, beanie_pair.pair,
                               beanie_pair.beta)
    z1_0 = np.array([0.4, 0.3, 0.0, 1.0])
    stepper = StepperChoice(kind="rk4", h=5e-3)
    traj1 = maglag.integrate(sys1, maglag.unpack(sys1, z1_0), 2.0, stepper)
    z2_0 = beanie_pair.psi(z1_0)
    traj2 = maglag.integrate(beanie_pair.r2_system,
                             maglag.unpack(beanie_pair.r2_system, z2_0),
                             2.0, stepper)
    # F drops the F-fibre coordinate: compare the (q, qbar) positions
    dev = np.max(np.abs(traj1.states[:, [0, 2]] - traj2.states[:, [0, 1]]))
    assert dev <= 1e-5


def test_f_regularity_error():
    # L2 degenerate in the fibre velocity direction with an unreachable beta
    pair = compat.TransformationPair(n1=1, vf=1, k2=0)
    l2 = MagneticSystem(n=2, k=0,
                        lagrangian=lambda q, v, p: 0.5 * v[0] ** 2 + np.exp(v[1]))
    beta = lambda p1: np.array([-1.0])  # dL2/dqbardot = e^w > 0 never hits -1
    with pytest.raises(RegularityError):
        compat.solve_psi(l2, pair, beta, np.array([0.0, 0.0, 0.0, 0.0]))


def vanishing_mass_l2():
    """L2 = 1/2 v0^2 + 1/2 m(q) v1^2 with m(q) = max(1 - q0, 0): f-regular
    only while q0 < 1."""
    def m(q):
        return max(1.0 - q[0], 0.0)

    def dm(q):
        return -1.0 if q[0] < 1.0 else 0.0

    return MagneticSystem(
        n=2, k=0, lagrangian=lambda q, v, p: 0.5 * v[0] ** 2 + 0.5 * m(q) * v[1] ** 2,
        dL_dq=lambda q, v, p: np.array([0.5 * dm(q) * v[1] ** 2, 0.0]),
        dL_dv=lambda q, v, p: np.array([v[0], m(q) * v[1]]),
        d2L_dv_dv=lambda q, v, p: np.diag([1.0, m(q)]),
        d2L_dv_dq=lambda q, v, p: np.array([[0.0, 0.0], [dm(q) * v[1], 0.0]]))


@pytest.mark.parametrize("kind, t", [("rk4", "0.49"), ("rkf45", "0.5")])
def test_psi_failure_mid_trajectory_names_t(kind, t):
    # q moves as 0.5 + t, so psi loses f-regularity in the step that
    # reaches q = 1, where d2L2/dqbardot2 = m(q) vanishes; the error names
    # the start of that step (rkf45 shrinks each step whose trial stage
    # meets the singular point, so its last step starts there)
    sys1 = compat.build_system(vanishing_mass_l2(), compat.TransformationPair(n1=1, vf=1),
                               lambda p1: p1[2:3])
    with pytest.raises(RegularityError) as err:
        maglag.integrate(sys1, MagLagState([0.5], [1.0], [0.0, 0.0]), 2.0,
                         StepperChoice(kind=kind, h=1e-2))
    assert str(err.value).startswith("f-regularity failure in psi: ")
    assert re.search(r"\|det d2L2/dqbardot2\| = \S+ <= 1e-12 at t", str(err.value))
    assert str(err.value).endswith(f" at t = {t}")


def test_dimension_balance():
    pair = compat.TransformationPair(n1=2, vf=3, k2=1)
    assert pair.k1 == 3 + 1 + 3
    assert 2 * pair.n1 + pair.k1 == 2 * pair.n2 + pair.k2


def test_symplectomorphism_rejects_empty_samples(beanie_pair, rng):
    sys1 = compat.build_system(beanie_pair.r2_system, beanie_pair.pair,
                               beanie_pair.beta)
    with pytest.raises(ValueError, match="samples"):
        compat.verify_symplectomorphism(sys1, beanie_pair.r2_system,
                                        beanie_pair.psi, np.zeros((0, 4)), rng)
    with pytest.raises(ValueError, match="tangent_pairs"):
        compat.verify_symplectomorphism(sys1, beanie_pair.r2_system,
                                        beanie_pair.psi, np.zeros((1, 4)), rng,
                                        tangent_pairs=0)


# -- stacked rows against one-row calls ----------------------------------------

ROW_TOL = 1e-14


def beanie_rows(rng, count=40):
    return np.column_stack([rng.uniform(-1, 1, count), rng.uniform(-1, 1, count),
                            rng.uniform(-np.pi, np.pi, count), rng.uniform(-1.5, 1.5, count)])


def test_row_psi_and_inverse_match_one_row_calls(beanie_pair, rng):
    eq = beanie_pair
    assert numerics.rows_ok(eq.psi, eq.beta)
    one_point_beta = lambda p1: np.array(p1[2:])  # noqa: E731  (unmarked)
    z1 = beanie_rows(rng)
    for beta in (eq.beta, one_point_beta):
        z2 = compat.solve_psi(eq.r2_system, eq.pair, beta, z1)
        back = compat.invert_psi(eq.r2_system, eq.pair, beta, z2)
        for i, row in enumerate(z1):
            one = compat.solve_psi(eq.r2_system, eq.pair, beta, row)
            assert np.max(np.abs(z2[i] - one)) <= ROW_TOL
            assert np.max(np.abs(back[i] - compat.invert_psi(
                eq.r2_system, eq.pair, beta, one))) <= ROW_TOL
    # an l2 whose callables take one point only is solved row by row
    pair = compat.TransformationPair(n1=1, vf=1, k2=0)
    beta = lambda p1: np.array([p1[2]])  # noqa: E731
    rows = compat.solve_psi(quadratic_l2(), pair, beta, z1)
    assert np.array_equal(rows, [compat.solve_psi(quadratic_l2(), pair, beta, z) for z in z1])
    # a pair with n1 = 2, vf = 2 and k2 = 1, whose qbar velocity takes Newton
    # steps: every coordinate lands in its slot, and rows are one-point bits
    pair = compat.TransformationPair(n1=2, vf=2, k2=1)
    beta = numerics.takes_rows(lambda p1: p1[..., 5:] + 0.1 * p1[..., 4:5] * p1[..., :2])
    z1 = rng.uniform(-1, 1, (20, 9))  # (q, qdot, qbar, pbar, p)
    rows = compat.solve_psi(quartic_l2(), pair, beta, z1)
    assert np.array_equal(rows[:, [0, 1, 2, 3, 4, 5, 8]], z1[:, [0, 1, 4, 5, 2, 3, 6]])
    q2, v2, pbar = pair.split2(rows)
    resid = quartic_l2().grad_v(q2, v2, pbar)[:, 2:] - beta(pair.p1_coords(z1))
    assert np.max(np.abs(resid)) <= 1e-10
    assert np.array_equal(pair.p1_coords(z1), z1[:, [0, 1, 4, 5, 6, 7, 8]])
    for row, one in zip(rows, z1):
        assert np.array_equal(row, compat.solve_psi(quartic_l2(), pair, beta, one))


def quartic_l2():
    """L2 = |v|^2 / 2 + 0.2 q2 . v + (1 + pbar^2) sum(v^4) / 40 on a base of
    dimension 4 with a one-dimensional bundle fibre, at one point or rows."""
    def grad_v(q, v, p):
        return v + 0.2 * q + 0.1 * (1.0 + p[..., :1] ** 2) * v ** 3

    def hess_vv(q, v, p):
        diag = 1.0 + 0.3 * (1.0 + p[..., :1] ** 2) * v ** 2
        return diag[..., None] * np.eye(4)

    return MagneticSystem(
        n=4, k=1,
        lagrangian=numerics.takes_rows(lambda q, v, p: (
            0.5 * numerics.rowdot(v, v) + 0.2 * numerics.rowdot(q, v)
            + 0.025 * (1.0 + p[..., 0] ** 2) * np.sum(v ** 4, axis=-1))),
        dL_dv=numerics.takes_rows(grad_v), d2L_dv_dv=numerics.takes_rows(hess_vv))


def test_one_point_psi_is_two_gradients_one_hessian_one_beta(beanie_pair):
    # the V-reduced system is linear in the velocities: one Newton step
    counts = collections.Counter()
    l2 = dataclasses.replace(beanie_pair.r2_system)
    for name in ("grad_v", "hess_vv"):
        object.__setattr__(l2, name, counted(getattr(l2, name), counts, name))
    z1 = np.array([0.5, 0.7, 1.2, 0.9])
    z2 = compat.solve_psi(l2, beanie_pair.pair, counted(beanie_pair.beta, counts, "beta"), z1)
    assert counts == {"grad_v": 2, "hess_vv": 1, "beta": 1}
    assert np.array_equal(z2, beanie_pair.psi(z1))


def exp_l2():
    """dL2/d(qbardot) = e^w, which never reaches a negative beta."""
    return MagneticSystem(
        n=2, k=0,
        lagrangian=numerics.takes_rows(lambda q, v, p: 0.5 * v[..., 0] ** 2 + np.exp(v[..., 1])),
        dL_dv=numerics.takes_rows(
            lambda q, v, p: np.stack([v[..., 0], np.exp(v[..., 1])], axis=-1)),
        d2L_dv_dv=numerics.takes_rows(
            lambda q, v, p: np.stack([np.stack([np.ones_like(v[..., 0]), 0 * v[..., 0]], -1),
                                      np.stack([0 * v[..., 0], np.exp(v[..., 1])], -1)], -2)))


@pytest.mark.parametrize("marked", [True, False])
def test_row_psi_error_names_the_first_failing_row(marked):
    pair = compat.TransformationPair(n1=1, vf=1, k2=0)
    beta = numerics.takes_rows(lambda p1: np.array(p1[..., 2:]))
    l2 = rows = exp_l2()
    if not marked:
        l2 = MagneticSystem(n=2, k=0, lagrangian=lambda q, v, p: rows.lagrangian(q, v, p),
                            dL_dv=lambda q, v, p: rows.dL_dv(q, v, p),
                            d2L_dv_dv=lambda q, v, p: rows.d2L_dv_dv(q, v, p))
    z1 = np.array([[0.1, 0.2, 0.3, 0.5], [0.0, 0.1, 0.2, 1.2], [0.3, 0.3, 0.3, -1.0],
                   [0.2, 0.1, 0.0, 0.7], [0.1, 0.1, 0.1, -1.0]])
    with pytest.raises(RegularityError, match=r"row 2\b"):
        compat.solve_psi(l2, pair, beta, z1)
    ok = compat.solve_psi(l2, pair, beta, z1[[0, 1, 3]])
    assert np.max(np.abs(np.exp(ok[:, 3]) - z1[[0, 1, 3], 3])) <= 1e-10


def test_row_pullback_callables_match_per_point(beanie_pair, rng):
    eq = beanie_pair
    sys1 = eq.p1_system
    z = beanie_rows(rng, 20)
    q, v, p = z[:, :1], z[:, 1:2], z[:, 2:]
    for fn in (sys1.lagrangian, sys1.grad_q, sys1.dL_dv, sys1.grad_p):
        assert numerics.rows_ok(fn)
        stacked = fn(q, v, p)
        for i in range(len(z)):
            assert np.max(np.abs(stacked[i] - fn(q[i], v[i], p[i]))) <= ROW_TOL
    blocks = sys1.bform(q, p)
    forms = maglag.symplectic_form_matrix(sys1, q, v, p)
    for i in range(len(z)):
        for row_block, point_block in zip(blocks, sys1.bform(q[i], p[i])):
            assert np.max(np.abs(row_block[i] - point_block)) <= ROW_TOL
        assert np.max(np.abs(forms[i] - maglag.symplectic_form_matrix(
            sys1, q[i], v[i], p[i]))) <= ROW_TOL


def test_symplectomorphism_report_same_for_marked_and_one_point_psi(beanie_pair):
    eq = beanie_pair
    sys1 = eq.p1_system
    samples = beanie_rows(np.random.default_rng(6), 12)
    reports = [compat.verify_symplectomorphism(
        sys1, eq.r2_system, psi, samples, np.random.default_rng(31), tangent_pairs=4,
        beta=eq.beta, pair=eq.pair) for psi in (eq.psi, lambda z: eq.psi(z))]
    assert reports[0].keys() == reports[1].keys()
    for name in reports[0]:
        assert abs(reports[0][name] - reports[1][name]) <= 1e-12


@pytest.mark.parametrize("marked", [True, False])
def test_gradients_with_a_connection_match_differenced_l1(beanie_pair, rng, marked):
    # a nonzero connection Gamma(q, qbar) = 0.3 sin(q) + 0.2 qbar
    @numerics.takes_rows
    def gamma(q, qbar):
        return (0.3 * np.sin(q[..., :1]) + 0.2 * qbar[..., :1])[..., None]

    eq = beanie_pair
    conn = gamma if marked else (lambda q, qbar: gamma(q, qbar))
    sys1 = compat.build_system(eq.r2_system, eq.pair, eq.beta, conn)
    l1, grads = sys1.lagrangian, (sys1.grad_q, sys1.dL_dv, sys1.grad_p)
    z = beanie_rows(rng, 8)
    q, v, p = z[:, :1], z[:, 1:2], z[:, 2:]
    for slot, grad in enumerate(grads):
        stacked = grad(q, v, p)
        for i in range(len(z)):
            point = [q[i], v[i], p[i]]
            assert np.max(np.abs(stacked[i] - grad(*point))) <= ROW_TOL

            def l1_of_slot(x):
                return l1(*point[:slot], x, *point[slot + 1:])

            fd = numerics.fd_gradient(l1_of_slot, point[slot])
            assert np.max(np.abs(grad(*point) - fd)) <= 1e-6


def test_connection_non_finite_off_the_base_point_is_named(beanie_pair, rng):
    # finite at q0 < 0.5, NaN at the stencil point q0 + h past it
    @numerics.takes_rows
    def gamma(q, qbar):
        return np.where(q[..., :1] > 0.5, np.nan, 0.2 * qbar[..., :1])[..., None]

    eq = beanie_pair
    dl_dq = compat.build_system(eq.r2_system, eq.pair, eq.beta, gamma).grad_q
    z = beanie_rows(rng, 4)
    z[:, 0] = [0.1, 0.5 - 1e-7, -0.3, 0.5 - 1e-7]
    q, v, p = z[:, :1], z[:, 1:2], z[:, 2:]
    assert np.isfinite(dl_dq(q[0], v[0], p[0])).all()
    with pytest.raises(ValueError, match=r"^non-finite evaluation while differencing "
                                         r"coordinate 0"):
        dl_dq(q[1], v[1], p[1])
    with pytest.raises(ValueError, match=r"^row 1: non-finite evaluation while "
                                         r"differencing coordinate 0"):
        dl_dq(q, v, p)


# -- calls per right-hand side --------------------------------------------------


def counted(fn, counts, name):
    """`fn`, marked as it is, counting its calls under `name`."""
    def count(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return numerics.takes_rows(count) if numerics.rows_ok(fn) else count


def rhs_calls(sys, monkeypatch, fields, rhs):
    """Calls per name of the system's `fields` and of compat.solve_psi made
    by `rhs(sys)` on a copy of the system with counting callables."""
    counts = collections.Counter()
    sys = dataclasses.replace(sys, **{f: counted(getattr(sys, f), counts, f) for f in fields})
    monkeypatch.setattr(compat, "solve_psi", counted(compat.solve_psi, counts, "solve_psi"))
    rhs(sys)
    return counts


def test_pullback_right_hand_side_solves_psi_once(beanie_pair, monkeypatch):
    # one psi solve serves the whole jet (the gradients and the three
    # velocity blocks, by the implicit function theorem) and nothing is
    # differenced through psi, so dL/dv is not called; the exterior
    # derivative of bform is one 1-form call
    exterior = numerics.fd_exterior_derivative
    counts = collections.Counter()
    monkeypatch.setattr(numerics, "fd_exterior_derivative",
                        lambda f, *args: exterior(counted(f, counts, "one_form"), *args))
    state = MagLagState([0.3], [0.2], [0.1, 0.4])
    counts.update(rhs_calls(beanie_pair.p1_system, monkeypatch, ["dL_dv", "dL_jet"],
                            lambda sys: maglag.vector_field(sys, state)))
    assert counts == {"solve_psi": 1, "dL_jet": 1, "one_form": 1}


def test_velocity_blocks_over_rows_make_one_jet_call_and_one_psi_solve(beanie_pair,
                                                                        monkeypatch):
    solved = []
    solve = compat.solve_psi
    monkeypatch.setattr(compat, "solve_psi",
                        lambda l2, pair, beta, z1: solved.append(np.shape(z1)) or solve(
                            l2, pair, beta, z1))
    z = beanie_rows(np.random.default_rng(8), 22)
    counts = rhs_calls(beanie_pair.p1_system, monkeypatch, ["dL_dv", "dL_jet"],
                       lambda sys: sys.velocity_blocks(z[:, :1], z[:, 1:2], z[:, 2:]))
    assert counts == {"dL_jet": 1, "solve_psi": 1} and solved == [(22, 4)]


def count_differenced_calls(monkeypatch, counts, keep_marks):
    """Wrap every numerics.fd_* routine as a call-counting tracer does: its
    first argument becomes a counting wrapper, which drops the takes_rows
    mark unless `keep_marks`."""
    for name in [n for n in dir(numerics) if n.startswith("fd_")]:
        def wrapped(f, *args, _fn=getattr(numerics, name), _name=name, **kwargs):
            def counting(*a, **k):
                counts[_name] += 1
                return f(*a, **k)

            keep = keep_marks and numerics.rows_ok(f)
            return _fn(numerics.takes_rows(counting) if keep else counting, *args, **kwargs)

        monkeypatch.setattr(numerics, name, wrapped)


def test_counting_wrappers_keep_the_unwrapped_path(beanie_pair):
    # a counter that drops the mark of the 1-form (bform's exterior
    # derivative) or of a row-marked ell (rule 3 over rows) changes neither
    # the stencil calls nor a bit
    sys1 = beanie_pair.p1_system
    rotor = models.rotor_lagrangian(models.RotorParams())
    rng = np.random.default_rng(3)
    q, p = rng.uniform(-1, 1, (4, sys1.n)), rng.uniform(-1, 1, (4, sys1.k))
    x, xdot, xi = (rng.uniform(-1, 1, (4, size)) for size in (1, 1, 3))
    seen = []
    for keep_marks in (True, False):
        counts = collections.Counter()
        with pytest.MonkeyPatch.context() as mp:
            count_differenced_calls(mp, counts, keep_marks)
            twin = routh.InvariantLagrangian(1, lie.so3(), rotor.ell)
            out = [sys1.bform(q[0], p[0]), sys1.bform(q, p),
                   twin.metric_blocks(x[0], xdot[0], xi[0]), twin.metric_blocks(x, xdot, xi),
                   twin.group_momentum(x, xdot, xi), twin.grad_x(x[0], xdot[0], xi[0])]
        flat = [a for part in out for a in (part if isinstance(part, (list, tuple)) else [part])]
        seen.append((counts, [np.asarray(a).tobytes() for a in flat]))
    assert seen[0][0] == seen[1][0]
    assert seen[0][0]["fd_exterior_derivative"] == 2  # one 1-form call per bform call
    assert seen[0][0]["fd_blocks"] == 4
    assert seen[0][1] == seen[1][1]


def test_constant_hessian_k0_step_calls_only_what_it_uses(beanie_pair, monkeypatch):
    # an rk4 step of the V-reduced system (k = 0, constant Hessian) makes
    # four right-hand sides, each one joint dL/dq and d2L/dv dq call; the
    # Hessian is checked and inverted once, before the steps
    fields = ["lagrangian", "dL_dq_vq", "dL_dv", "d2L_dv_dv"]
    state = MagLagState([0.4, 0.1], [0.3, -0.2], np.zeros(0))

    def steps(n):
        return lambda sys: maglag.integrate(sys, state, n * 0.01, StepperChoice(h=0.01))

    one, three = (rhs_calls(beanie_pair.r2_system, monkeypatch, fields, steps(n))
                  for n in (1, 3))
    assert three - one == {"dL_dq_vq": 8}
    assert one["d2L_dv_dv"] == three["d2L_dv_dv"] > 0


# -- a magnetic l2 --------------------------------------------------------------


def magnetic_l2():
    """A system on (q, qbar | pbar), quadratic in the velocities, whose
    2-form B2 = d theta, theta = pbar cos(q) dqbar + q qbar^2 / 2 dpbar, is
    closed, state dependent and given by an unmarked one-point `bform`."""
    def bform(q2, pbar):
        q, qbar = q2
        c = pbar[0] * np.sin(q)
        return (np.array([[0.0, -c], [c, 0.0]]),
                np.array([[0.5 * qbar ** 2], [q * qbar - np.cos(q)]]), np.zeros((1, 1)))

    return MagneticSystem(
        n=2, k=1,
        lagrangian=lambda q, v, p: (0.5 * v[0] ** 2 + 0.5 * (1.0 + 0.2 * q[0] ** 2) * v[1] ** 2
                                    + 0.1 * v[0] * v[1] + 0.3 * p[0] * v[1]
                                    - 0.5 * q[0] ** 2 - 0.1 * q[1] ** 2 - 0.25 * p[0] ** 2),
        dL_dv=lambda q, v, p: np.array([v[0] + 0.1 * v[1],
                                        (1.0 + 0.2 * q[0] ** 2) * v[1] + 0.1 * v[0] + 0.3 * p[0]]),
        d2L_dv_dv=lambda q, v, p: np.array([[1.0, 0.1], [0.1, 1.0 + 0.2 * q[0] ** 2]]),
        bform=bform, name="magnetic_l2")


def magnetic_beta(p1):
    """beta(q, qbar, pbar, p), fibre-regular in p (one point only)."""
    q, qbar, pbar, p = p1
    return np.array([p + 0.2 * np.sin(qbar) + 0.1 * q * pbar])


def test_pullback_of_a_magnetic_l2(rng):
    l2 = magnetic_l2()
    pair = compat.TransformationPair(n1=1, vf=1, k2=1)
    sys1 = compat.build_system(l2, pair, magnetic_beta)
    z1 = np.column_stack([rng.uniform(-1, 1, (30, 3)), rng.uniform(-0.5, 0.5, (30, 2))])
    q, v, pfib = z1[:, :1], z1[:, 1:2], z1[:, 2:]
    # B1 = F*B2 + d<beta, dqbar>: B2 on (q, qbar, pbar), and the exterior
    # derivative of beta dqbar from beta's analytic gradient
    b1 = sys1.full_bmatrix(q, pfib)
    for i, (qi, qbar, pbar, p) in enumerate(np.column_stack([q, pfib])):
        expected = np.zeros((4, 4))
        expected[:3, :3] = l2.full_bmatrix(np.array([qi, qbar]), np.array([pbar]))
        dbeta = np.array([0.1 * pbar, 0.2 * np.cos(qbar), 0.1 * qi, 1.0])
        expected[:, 1] += dbeta
        expected[1, :] -= dbeta
        assert np.max(np.abs(b1[i] - expected)) <= 1e-7

    def psi(z):
        return compat.solve_psi(l2, pair, magnetic_beta, z)

    z2 = psi(z1)
    q2, v2, pbar = pair.split2(z2)
    for sys, states in ((sys1, zip(q, v, pfib)), (l2, zip(q2, v2, pbar))):
        samples = [MagLagState(*state) for state in list(states)[:3]]
        assert maglag.check_closedness(sys, samples) <= 1e-6

    rep = compat.verify_symplectomorphism(sys1, l2, psi, z1, rng, tangent_pairs=4,
                                          beta=magnetic_beta, pair=pair)
    assert rep["max_residual_form"] <= 1e-6
    assert rep["max_residual_energy"] <= 1e-9
    assert rep["max_residual_momentum"] <= 1e-10
    # the form matrices of l2 over rows (its bform called row by row) are
    # the one-point matrices
    forms = maglag.symplectic_form_matrix(l2, q2, v2, pbar)
    for i in range(len(z2)):
        assert np.array_equal(forms[i], maglag.symplectic_form_matrix(l2, q2[i], v2[i], pbar[i]))


@pytest.mark.parametrize("case", ["beanie", "magnetic"])
def test_no_connection_skips_its_terms_with_the_same_values(case, beanie_pair, rng):
    # without gamma the connection terms are not evaluated; an unmarked zero
    # connection, evaluated, gives equal values at one point and over rows
    if case == "beanie":
        l2, pair, beta = beanie_pair.r2_system, beanie_pair.pair, beanie_pair.beta
        z = beanie_rows(rng, 200)
    else:
        l2, pair, beta = magnetic_l2(), compat.TransformationPair(n1=1, vf=1, k2=1), magnetic_beta
        z = np.column_stack([rng.uniform(-1, 1, (200, 3)), rng.uniform(-0.5, 0.5, (200, 2))])
    zero = lambda q, qbar: np.zeros((pair.vf, pair.n1))  # noqa: E731  (unmarked)
    bare, full = compat.build_system(l2, pair, beta), compat.build_system(l2, pair, beta, zero)
    n = pair.n1

    def values(sys, q, v, p):
        return [sys.lagrangian(q, v, p), sys.dL_dv(q, v, p), *sys.dL_jet(q, v, p),
                *sys.bform(q, p)]

    q, v, p = z[:, :n], z[:, n:2 * n], z[:, 2 * n:]
    for got, want in zip(values(bare, q, v, p), values(full, q, v, p)):
        assert np.shape(got)[0] == len(z) and np.array_equal(got, want)
    for i in range(len(z)):
        for got, want in zip(values(bare, q[i], v[i], p[i]), values(full, q[i], v[i], p[i])):
            assert np.array_equal(got, want)


# -- the pulled-back velocity blocks by the implicit function theorem ------------


@numerics.takes_rows
def state_connection(q, qbar):
    """Gamma(q, qbar) = 0.3 sin(q) + 0.2 qbar, one 1x1 block per point."""
    return (0.3 * np.sin(q[..., :1]) + 0.2 * qbar[..., :1])[..., None]


@pytest.mark.parametrize("connection", [None, state_connection])
@pytest.mark.parametrize("case", ["beanie", "magnetic"])
def test_velocity_blocks_match_the_differenced_dl_dv(case, connection, beanie_pair):
    # the beanie pair has k2 = 0, the magnetic l2 k2 = 1 and a form; the
    # reference differences dL1/dv through psi over the joint (v, q, p) stencil
    rng = np.random.default_rng(21)
    if case == "beanie":
        l2, pair, beta = beanie_pair.r2_system, beanie_pair.pair, beanie_pair.beta
        z = beanie_rows(rng, 200)
    else:
        l2, pair, beta = magnetic_l2(), compat.TransformationPair(n1=1, vf=1, k2=1), magnetic_beta
        z = np.column_stack([rng.uniform(-1, 1, (200, 3)), rng.uniform(-0.5, 0.5, (200, 2))])
    sys1 = compat.build_system(l2, pair, beta, connection)
    q, v, p = z[:, :1], z[:, 1:2], z[:, 2:]
    reference = numerics.fd_jacobian(sys1.dL_dv, (q, v, p), (1, 0, 2), rows=True)
    stacked = sys1.velocity_blocks(q, v, p)
    for got, want in zip(stacked, reference):
        assert got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-7
    for i in range(len(z)):
        for got, want in zip(sys1.velocity_blocks(q[i], v[i], p[i]), reference):
            assert np.max(np.abs(got - want[i])) <= 1e-7


def cubic_l2():
    """L2 = 1/2 v0^2 + v1^3 / 6 + q0 v1^2 / 2, so d2L2/dv1^2 = v1 + q0.
    Where beta = 0 psi converges at once to v1 = 0, which is f-regular only
    where q0 != 0."""
    return MagneticSystem(
        n=2, k=0,
        lagrangian=lambda q, v, p: 0.5 * v[0] ** 2 + v[1] ** 3 / 6 + 0.5 * q[0] * v[1] ** 2,
        dL_dv=lambda q, v, p: np.array([v[0], 0.5 * v[1] ** 2 + q[0] * v[1]]),
        d2L_dv_dv=lambda q, v, p: np.diag([1.0, v[1] + q[0]]))


def test_singular_qbar_velocity_hessian_names_f_regularity():
    sys1 = compat.build_system(cubic_l2(), compat.TransformationPair(n1=1, vf=1),
                               lambda p1: p1[2:3])
    # beta = p = 0 in every row; q0 = 0 in the first and third
    z = np.array([[0.0, 0.2, 0.3, 0.0], [1.0, 0.2, 0.5, 0.0], [0.0, 0.1, 0.7, 0.0]])
    with pytest.raises(RegularityError, match=r"^f-regularity failure in psi: "
                                              r"\|det d2L2/dqbardot2\| = 0\.000e\+00"):
        sys1.jet(z[0, :1], z[0, 1:2], z[0, 2:])
    assert np.isfinite(sys1.jet(z[1, :1], z[1, 1:2], z[1, 2:])[2]).all()
    with pytest.raises(RegularityError, match=r"^row 0: f-regularity failure in psi"):
        sys1.velocity_blocks(z[:, :1], z[:, 1:2], z[:, 2:])
    with pytest.raises(RegularityError, match=r"^row 1: f-regularity failure in psi"):
        sys1.velocity_blocks(z[1:, :1], z[1:, 1:2], z[1:, 2:])


# -- the tangent map of the compatible psi --------------------------------------


def tangent_case(case, beanie_pair):
    """(sys1, l2, pair, beta, marked psi, samples with p in [0.5, 1.5]): the
    beanie pair (k2 = 0), or the magnetic l2 (k2 = 1) pulled back with a
    connection."""
    rng = np.random.default_rng(17)
    if case == "beanie":
        eq = beanie_pair
        l2, pair, beta, sys1 = eq.r2_system, eq.pair, eq.beta, eq.p1_system
        z = beanie_rows(rng, 12)
    else:
        l2, pair, beta = magnetic_l2(), compat.TransformationPair(n1=1, vf=1, k2=1), magnetic_beta
        sys1 = compat.build_system(l2, pair, beta, state_connection)
        z = rng.uniform(-1, 1, (12, 5))
    z[:, -1] = rng.uniform(0.5, 1.5, len(z))
    psi = numerics.takes_rows(lambda z1: compat.solve_psi(l2, pair, beta, z1))
    return sys1, l2, pair, beta, psi, z


def pushed_jacobians(monkeypatch, verify):
    """The per-sample tangent maps that `verify()` pushes its tangents
    through, and its report."""
    seen = []
    matvec = numerics.matvec

    def spy(m, x):
        if np.ndim(m) == 5:  # (samples, 1, 1, dim, dim)
            seen.append(m[:, 0, 0])
        return matvec(m, x)

    monkeypatch.setattr(numerics, "matvec", spy)
    report = verify()
    assert len(seen) == 1
    return seen[0], report


@pytest.mark.parametrize("case", ["beanie", "magnetic"])
def test_tangent_map_with_beta_is_psis_jacobian(case, beanie_pair, monkeypatch):
    sys1, l2, pair, beta, psi, z = tangent_case(case, beanie_pair)
    dpsi, rep = pushed_jacobians(monkeypatch, lambda: compat.verify_symplectomorphism(
        sys1, l2, psi, z, np.random.default_rng(2), tangent_pairs=4, beta=beta, pair=pair))
    assert np.max(np.abs(dpsi - numerics.fd_jacobian(psi, (z,), rows=True))) <= 1e-8
    assert rep["max_residual_form"] <= 1e-9
    assert rep["max_residual_energy"] <= 1e-9
    assert rep["max_residual_momentum"] <= 1e-10
    assert rep["max_residual_passthrough"] == 0.0


@pytest.mark.parametrize("case", ["beanie", "magnetic"])
def test_tangent_map_with_beta_calls_psi_only_at_the_samples(case, beanie_pair):
    sys1, l2, pair, beta, psi, z = tangent_case(case, beanie_pair)
    one_point, marked = [], []

    def spy(z1):
        one_point.append(z1.shape)
        return psi(z1)

    @numerics.takes_rows
    def marked_spy(z1):
        marked.append(z1.shape)
        return psi(z1)

    reports = [compat.verify_symplectomorphism(sys1, l2, fn, z, np.random.default_rng(8), 3,
                                               beta=beta, pair=pair)
               for fn in (spy, marked_spy)]
    assert one_point == [z.shape[1:]] * len(z) and marked == [z.shape]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("case", ["beanie", "magnetic"])
def test_tangent_map_with_beta_flags_a_psi_off_the_compatible_map(case, beanie_pair):
    sys1, l2, pair, beta, psi, z = tangent_case(case, beanie_pair)
    last = pair.n1 + pair.k1 - 1  # p in the base point (q, qbar, pbar, p)

    def beta_bad(p1):
        return beta(p1) + 0.3 * np.sin(p1[..., last:])

    def psi_bad(z1):
        return compat.solve_psi(l2, pair, beta_bad, z1)

    def shifted(z1):
        z2 = psi(z1)
        z2[0] += 1e-3 * np.sin(z2[0])
        return z2

    def verify(fn, **kw):
        return compat.verify_symplectomorphism(sys1, l2, fn, z, np.random.default_rng(4), 3,
                                               **kw)

    # psi_bad solves the momentum condition of another beta
    assert verify(psi_bad, beta=beta, pair=pair)["max_residual_momentum"] > 0.1
    # and with that beta its tangent map is exact, as the differenced one
    # is, and the 2-forms disagree
    assert verify(psi_bad, beta=beta_bad, pair=pair)["max_residual_form"] > 1e-3
    assert verify(psi_bad)["max_residual_form"] > 1e-3
    # q no longer passes through: the passthrough residual names it
    rep = verify(shifted, beta=beta, pair=pair)
    assert rep["max_residual_passthrough"] == pytest.approx(1e-3 * np.max(np.abs(np.sin(z[:, 0]))),
                                                            rel=1e-6)
    assert rep["max_residual_momentum"] <= 1e-3
