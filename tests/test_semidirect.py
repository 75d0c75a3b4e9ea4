"""Reduction by stages: the two-slot momentum inversions, the full-group
reduced flow, the orbit 1-form, and the equivalence of the two reductions."""
import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.linalg

from magreduce import lie, maglag, models, numerics, routh, semidirect
from magreduce.lie import AlgebraVector, CoVector
from magreduce.maglag import RegularityError
from magreduce.numerics import StepperChoice
from oracles import (beanie_chart_system, reduced_field_full, routhian_full, solve_chi12,
                     v_reduced_closed_form)


@pytest.fixture(scope="module")
def sd(beanie_params):
    return models.beanie_gv_lagrangian(beanie_params)


@pytest.fixture(scope="module")
def gv_traj_t10(sd):
    return semidirect.integrate_reduced_full(
        sd, [0.4], [0.3], CoVector([1.0]), CoVector([1.0, 0.0]),
        10.0, StepperChoice(kind="rk4", h=1e-3))


def test_solve_tau_beanie_display(sd, beanie_params, rng):
    for _ in range(20):
        b = rng.normal(size=2)
        tau = semidirect.solve_tau(sd, rng.normal(size=1), rng.normal(size=1),
                                   rng.normal(size=1), CoVector(b))
        assert np.max(np.abs(tau - b / beanie_params.m)) < 1e-12


def test_solve_tau_unit_metric(rng):
    sdq = semidirect.SemiDirectLagrangian(routh.quadratic_invariant_lagrangian(
        1, lie.se2(), a_block=[[1.0]], b_block=np.zeros((1, 3)),
        c_block=np.eye(3)))
    b = rng.normal(size=2)
    u = semidirect.solve_tau(sdq, [0.0], [0.0], [0.3], CoVector(b))
    assert np.max(np.abs(u - b)) < 1e-12


def test_solve_tau_round_trip(sd, rng):
    for _ in range(100):
        x, xd = rng.normal(size=1), rng.normal(size=1)
        xi = rng.normal(size=1)
        b = CoVector(rng.normal(size=2))
        u = semidirect.solve_tau(sd, x, xd, xi, b)
        back = sd.linear_slot_momentum(x, xd, xi, u)
        assert np.max(np.abs(back - b.coords)) <= 1e-10


def test_solve_chi12_beanie_display(sd, beanie_params, rng):
    i1, i2, m = beanie_params.i1, beanie_params.i2, beanie_params.m
    for _ in range(100):
        phid = rng.normal(size=1)
        nu = rng.normal(size=1)
        b = rng.normal(size=2)
        xi, u = solve_chi12(sd, np.zeros(1), phid,
                            CoVector(nu), CoVector(b))
        assert abs(xi.coords[0] - (nu[0] - i2 * phid[0]) / (i1 + i2)) <= 1e-10
        assert np.max(np.abs(u - b / m)) <= 1e-10


def test_solve_chi12_block_diagonal(rng):
    # no coupling between slots: two independent linear solves
    sdq = semidirect.SemiDirectLagrangian(routh.quadratic_invariant_lagrangian(
        1, lie.se2(), a_block=[[1.0]], b_block=np.zeros((1, 3)),
        c_block=np.diag([3.0, 2.0, 2.0])))
    nu, b = CoVector(rng.normal(size=1)), CoVector(rng.normal(size=2))
    xi, u = solve_chi12(sdq, [0.0], [0.1], nu, b)
    assert abs(xi.coords[0] - nu.coords[0] / 3.0) < 1e-12
    assert np.max(np.abs(u - b.coords / 2.0)) < 1e-12


def test_chi12_tau_consistency(sd, rng):
    for _ in range(100):
        x, xd = rng.normal(size=1), rng.normal(size=1)
        nu, b = CoVector(rng.normal(size=1)), CoVector(rng.normal(size=2))
        xi, u = solve_chi12(sd, x, xd, nu, b)
        tau = semidirect.solve_tau(sd, x, xd, xi.coords, b)
        assert np.max(np.abs(tau - u)) <= 1e-9


def test_routhian_full_display(sd, beanie_params, rng):
    i1, i2, m = beanie_params.i1, beanie_params.i2, beanie_params.m
    itot = i1 + i2
    for _ in range(100):
        phi, phid = rng.normal(size=1), rng.normal(size=1)
        nu, b = rng.normal(size=1), rng.normal(size=2)
        r = routhian_full(sd, phi, phid, CoVector(nu), CoVector(b))
        expected = (0.5 * i1 * i2 / itot * phid[0] ** 2
                    + i2 / itot * nu[0] * phid[0]
                    - beanie_params.potential(phi)
                    - float(b @ b) / (2 * m)
                    - 0.5 * nu[0] ** 2 / itot)
        assert abs(r - expected) <= 1e-10


def test_routhian_full_zero_state(sd):
    r = routhian_full(sd, np.zeros(1), np.zeros(1),
                      CoVector([0.0]), CoVector([0.0, 0.0]))
    assert abs(r) < 1e-15


def test_orbit_point_combines_slots(sd):
    nu, b = CoVector([0.7]), CoVector([0.3, -0.2])
    combined = CoVector(np.concatenate([nu.coords, b.coords]))
    r1 = routh.routhian(sd.inner, [0.1], [0.2], combined)
    r2 = routhian_full(sd, [0.1], [0.2], nu, b)
    assert abs(r1 - r2) < 1e-14


def test_routhian_full_mechanical_identity(sd, rng):
    # 2(R + V) = <F1, xdot> - <F2, xi> - <F3, u> on the constraint
    for _ in range(100):
        x, xd = rng.normal(size=1), rng.normal(size=1)
        nu, b = CoVector(rng.normal(size=1)), CoVector(rng.normal(size=2))
        r = routhian_full(sd, x, xd, nu, b)
        xi, u = solve_chi12(sd, x, xd, nu, b)
        f1 = sd.inner.shape_momentum(x, xd, np.concatenate([xi.coords, u]))
        v = sd.inner.potential(x)
        rhs = float(f1 @ xd) - float(nu.coords @ xi.coords) - float(b.coords @ u)
        assert abs(2.0 * (r + v) - rhs) <= 1e-10


def test_reduced_field_full_displays(sd, beanie_params, rng):
    i1, i2, m = beanie_params.i1, beanie_params.i2, beanie_params.m
    itot = i1 + i2
    red = i1 * i2 / itot
    for _ in range(100):
        phi, phid = rng.normal(size=1), rng.normal(size=1)
        nu, b = rng.normal(size=1), rng.normal(size=2)
        _, xdd, nudot, bdot = reduced_field_full(
            sd, phi, phid, CoVector(nu), CoVector(b))
        chi1 = (nu[0] - i2 * phid[0]) / itot
        # bdot = -i chi1 b in the plane identification
        expected_bdot = np.array([chi1 * b[1], -chi1 * b[0]])
        vp = float(beanie_params.dpotential(phi)[0])
        assert abs(nudot.coords[0]) <= 1e-10
        assert np.max(np.abs(bdot.coords - expected_bdot)) <= 1e-10
        assert abs(red * xdd[0] + i2 / itot * nudot.coords[0] + vp) <= 1e-10


def test_reduced_field_b_zero(sd, rng):
    # with b = 0 only the base coadjoint term remains (zero for a circle)
    _, _, nudot, bdot = reduced_field_full(
        sd, rng.normal(size=1), rng.normal(size=1),
        CoVector(rng.normal(size=1)), CoVector([0.0, 0.0]))
    assert np.max(np.abs(nudot.coords)) < 1e-14
    assert np.max(np.abs(bdot.coords)) < 1e-14


def test_gv_flow_conservation(gv_traj_t10):
    states = gv_traj_t10.states
    nu = states[:, 2]
    babs = np.linalg.norm(states[:, 3:5], axis=1)
    assert np.max(np.abs(nu - nu[0])) <= 1e-9
    assert np.max(np.abs(babs ** 2 - babs[0] ** 2)) <= 1e-9
    assert gv_traj_t10.report.entries["energy_drift"] <= 1e-8


def test_nu_conserved_for_any_potential(beanie_params):
    params = models.BeanieParams(
        m=1.3, i1=1.7, i2=0.9,
        potential=lambda phi: float(0.4 * np.atleast_1d(phi)[0] ** 4),
        dpotential=lambda phi: np.array([1.6 * float(np.atleast_1d(phi)[0]) ** 3]))
    sd2 = models.beanie_gv_lagrangian(params)
    traj = semidirect.integrate_reduced_full(
        sd2, [0.3], [0.5], CoVector([0.8]), CoVector([0.6, -0.2]),
        5.0, StepperChoice(kind="rk4", h=1e-3))
    nu = traj.states[:, 2]
    assert np.max(np.abs(nu - nu[0])) <= 1e-9


def test_routhian_abelian_display_and_invariance(sd, beanie_params, rng):
    i1, i2, m = beanie_params.i1, beanie_params.i2, beanie_params.m
    a = CoVector([1.0, 0.0])
    for _ in range(100):
        x, xd = rng.normal(size=1), rng.normal(size=1)
        xi = AlgebraVector(rng.normal(size=1))
        g = lie.exponential(lie.circle(), AlgebraVector([rng.uniform(0, 2 * np.pi)]))
        r = semidirect.routhian_abelian(sd, x, xd, g, xi, a)
        expected = (0.5 * i1 * xi.coords[0] ** 2
                    + 0.5 * i2 * (xi.coords[0] + xd[0]) ** 2
                    - beanie_params.potential(x) - 1.0 / (2 * m))
        assert abs(r - expected) <= 1e-12
        g2 = lie.compose(lie.circle(), lie.exponential(lie.circle(), AlgebraVector([1.3])), g)
        assert abs(semidirect.routhian_abelian(sd, x, xd, g2, xi, a) - r) <= 1e-12


def test_routhian_abelian_zero_momentum(sd, beanie_params):
    g = lie.exponential(lie.circle(), AlgebraVector([0.4]))
    xi = AlgebraVector([0.5])
    r = semidirect.routhian_abelian(sd, [0.2], [0.1], g, xi,
                                    CoVector([0.0, 0.0]))
    expected = sd.ell([0.2], [0.1], xi.coords, np.zeros(2))
    assert abs(r - expected) <= 1e-12


def test_theta_form_zero_tangent(sd):
    val = semidirect.theta_form(sd.gv, CoVector([1.3]), CoVector([0.7, -0.2]),
                                CoVector([0.5]), CoVector([0.0, 0.0]))
    assert abs(val) < 1e-14


def test_theta_form_se2_display(sd, rng):
    # b = |a| e^{i alpha}, bdot = i alphadot b  ->  xi = -alphadot and the
    # form evaluates to -nu alphadot
    for _ in range(20):
        nu = rng.normal()
        alpha = rng.uniform(0, 2 * np.pi)
        alphadot = rng.normal()
        b = 1.7 * np.array([np.cos(alpha), np.sin(alpha)])
        bdot = alphadot * np.array([-b[1], b[0]])
        val = semidirect.theta_form(sd.gv, CoVector([nu]), CoVector(b),
                                    CoVector([0.0]), CoVector(bdot))
        assert abs(val - (-nu * alphadot)) <= 1e-12


def test_theta_form_linearity(sd, rng):
    nu = CoVector([0.8])
    b = CoVector(rng.normal(size=2))
    bdot = CoVector(rng.normal() * np.array([-b.coords[1], b.coords[0]]))
    v1 = semidirect.theta_form(sd.gv, nu, b, CoVector([0.3]), bdot)
    v2 = semidirect.theta_form(sd.gv, nu, b, CoVector([0.9]), 3.0 * bdot)
    assert abs(v2 - 3.0 * v1) <= 1e-12


def test_theta_form_degenerate_b(sd):
    with pytest.raises(ValueError):
        semidirect.theta_form(sd.gv, CoVector([1.0]), CoVector([0.0, 0.0]),
                              CoVector([0.0]), CoVector([1.0, 0.0]))


def test_lemma_orbit_form_matches_dtheta(sd, rng):
    samples = np.column_stack([rng.uniform(-2, 2, 100),
                               rng.uniform(-np.pi, np.pi, 100)])
    res = semidirect.verify_lemma_B_equals_dtheta(sd, CoVector([1.0, 0.0]),
                                                  samples)
    assert res <= 1e-6


def test_lemma_residual_invariant_under_scaling(sd, rng):
    samples = np.column_stack([rng.uniform(-2, 2, 20),
                               rng.uniform(-np.pi, np.pi, 20)])
    r1 = semidirect.verify_lemma_B_equals_dtheta(sd, CoVector([1.0, 0.0]), samples)
    r2 = semidirect.verify_lemma_B_equals_dtheta(sd, CoVector([3.0, 0.0]), samples)
    assert r1 <= 1e-6 and r2 <= 1e-6


def test_orbit_kks_degenerate_pair(sd):
    nu, b = CoVector([0.7]), CoVector([1.0, 0.5])
    t = (CoVector([0.2]), CoVector([-0.5, 1.0]))
    val = semidirect.orbit_kks(sd.gv, nu, b, t, t)
    assert abs(val) < 1e-14


def test_kks_matches_chart_fibre_block(sd, beanie_params, rng):
    # the constant fibre block of the orbit-chart system equals the orbit
    # pairing on matched chart tangents
    a = 1 + 0j
    sys = beanie_chart_system(beanie_params, 1.0, a)
    _, _, bpp = sys.bblocks(np.zeros(1), np.array([0.3, 0.8]))
    for _ in range(20):
        alpha = rng.uniform(0, 2 * np.pi)
        nu = CoVector([rng.normal()])
        b = CoVector(abs(a) * np.array([np.cos(alpha), np.sin(alpha)]))
        ib = CoVector(np.array([-b.coords[1], b.coords[0]]))
        t_alpha = (CoVector([0.0]), ib)
        t_nu = (CoVector([1.0]), CoVector([0.0, 0.0]))
        val = semidirect.orbit_kks(sd.gv, nu, b, t_alpha, t_nu)
        assert abs(val - bpp[0, 1]) <= 1e-12


def test_stage_consistency_full_to_reduced(beanie_params, gv_traj_t10):
    # project the full flow to (phi, phidot, nu, b) and compare with the
    # independently integrated reduced flow
    i1, i2 = beanie_params.i1, beanie_params.i2
    thetadot0 = (1.0 - i2 * 0.3) / (i1 + i2)   # realizes nu = 1
    state0 = np.array([0.4, 0.0, 0.0, 0.0, 0.3, thetadot0, 1.0, 0.0])
    nu0, b0 = models.beanie_momenta(beanie_params, state0)
    assert abs(nu0 - 1.0) < 1e-14   # matches the reduced fixture's level
    assert abs(b0 - 1.0) < 1e-14
    full = models.beanie_full_trajectory(beanie_params, state0, 10.0,
                                         StepperChoice(kind="rk4", h=1e-3))
    dev = 0.0
    for i in range(0, len(full.times), 100):
        s = full.states[i]
        nu_t, b_t = models.beanie_momenta(beanie_params, s)
        row = np.array([s[0], s[4], nu_t, b_t.real, b_t.imag])
        dev = max(dev, float(np.max(np.abs(row - gv_traj_t10.states[i]))))
    assert dev <= 1e-6


def test_stage_equivalence_report(sd):
    eq = semidirect.build_stage_equivalence(sd, CoVector([1.0]),
                                            CoVector([1.0, 0.0]),
                                            n_points=100, t_end=10.0)
    rep = eq.report
    assert rep["routhian_identity_residual"] <= 1e-8
    assert rep["form_identity_residual"] <= 1e-6
    assert rep["trajectory_deviation"] <= 1e-5
    assert rep["casimir_drift"] <= 1e-9
    assert rep["nu_drift"] <= 1e-9


def test_abelian_reduced_energy_conserved(sd):
    r2 = semidirect.abelian_reduced_system(sd, CoVector([1.0, 0.0]))
    s0 = maglag.MagLagState([0.4, 0.0], [0.3, 0.2], np.zeros(0))
    traj = maglag.integrate(r2, s0, 10.0, StepperChoice(kind="rk4", h=1e-3))
    assert traj.report.entries["energy_drift"] <= 1e-8


def spied_v_reduction(params, c_block, a, calls, monkeypatch):
    """The planar pair's V-reduced system at level a with the group block
    c_block, over an se(2) whose base exp_fn, exp_fn and rep append their
    names to calls, as do `b_of_theta` and `numerics.cos_sin`."""
    def spy(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)
        return counted

    se2 = lie.se2()
    base = dataclasses.replace(se2.base, exp_fn=spy("base exp_fn", se2.base.exp_fn))
    gv = lie.make_semidirect(base, rep=spy("rep", se2.rep), rep_inf=se2.rep_inf, vdim=2,
                             exp_fn=spy("exp_fn", se2.exp_fn))
    r2 = semidirect.abelian_reduced_system(planar_pair_lagrangian(params, c_block, gv),
                                           CoVector(a))
    b_of_theta = semidirect._QuadraticSplit.b_of_theta
    monkeypatch.setattr(semidirect._QuadraticSplit, "b_of_theta",
                        lambda self, theta: spy("b_of_theta", b_of_theta)(self, theta))
    monkeypatch.setattr(numerics, "cos_sin", spy("cos_sin", numerics.cos_sin))
    return r2


def beanie_c_block(params):
    return np.diag([params.i1 + params.i2, params.m, params.m])


def test_v_reduced_right_hand_side_builds_no_b(beanie_params, monkeypatch):
    # b(theta) enters through coefficients fixed at construction: a point of
    # the right-hand side calls neither b_of_theta nor the spec's exp_fn or rep
    calls = []
    r2 = spied_v_reduction(beanie_params, beanie_c_block(beanie_params), [1.0, 0.5], calls,
                           monkeypatch)
    field = maglag._field_factory(r2, maglag.MagLagState([0.4, 0.2], [0.3, 0.1], np.zeros(0)))
    for y in ([0.4, 0.2, 0.3, 0.1], [-1.1, 2.5, 0.7, -0.4]):
        calls.clear()
        field(0.0, np.array(y))
        assert calls == []


# 50 rows (x, theta, xdot, thetadot), theta in [-20, 20]
V_ROWS = np.random.default_rng(14).uniform(-2.0, 2.0, (50, 4)) * [1.0, 10.0, 1.0, 1.0]


@pytest.mark.parametrize("a", [[1.0, 0.5], [0.3, -1.2], [-0.8, 0.6]])
def test_v_reduced_beanie_value_builds_no_b_and_reads_no_theta(beanie_params, monkeypatch, a):
    calls = []
    r2 = spied_v_reduction(beanie_params, beanie_c_block(beanie_params), a, calls, monkeypatch)
    q, v, p = V_ROWS[:, :2], V_ROWS[:, 2:], np.zeros((50, 0))
    calls.clear()
    values = r2.lagrangian(q, v, p)
    r2.lagrangian(q[0], v[0], p[0])
    maglag.energies(r2, V_ROWS)
    assert calls == []
    # so the value does not move with theta, not even in its last bit
    shifted = q + [0.0, 1.3]
    assert np.array_equal(r2.lagrangian(shifted, v, p), values)
    assert [r2.lagrangian(qi, vi, p[0]) for qi, vi in zip(shifted, v)] == list(values)


def test_v_reduced_value_reads_theta_once_per_call(beanie_params, monkeypatch):
    calls = []
    sys = spied_v_reduction(beanie_params, offset_mass_c_block(beanie_params), [0.7, -1.1],
                            calls, monkeypatch)
    q, v, p = V_ROWS[:, :2], V_ROWS[:, 2:], np.zeros((50, 0))
    for args in ((q, v, p), (q[0], v[0], p[0])):
        calls.clear()
        sys.lagrangian(*args)
        assert calls == ["cos_sin"]


def test_stage_equivalence_rejects_zero_momentum(sd):
    with pytest.raises(ValueError, match="onto"):
        semidirect.build_stage_equivalence(sd, CoVector([1.0]),
                                           CoVector([0.0, 0.0]))


def test_group_recovery_from_momentum(sd, rng):
    a = CoVector([0.8, -0.6])
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi)
        g = lie.exponential(lie.circle(), AlgebraVector([theta]))
        b = lie.dual_action(sd.gv, g, a)
        rec = semidirect.group_angle_from_b(sd.gv, a, b.coords)
        assert isinstance(rec, float)
        assert abs(np.exp(1j * rec) - np.exp(1j * theta)) < 1e-12
    # stacked b rows give the angles of the one-b calls
    bs = rng.normal(size=(200, 2))
    rows = semidirect.group_angle_from_b(sd.gv, a, bs)
    assert np.array_equal(rows, [semidirect.group_angle_from_b(sd.gv, a, b) for b in bs])


def test_abelian_reduced_system_requires_structure():
    # a non-mechanical wrapper cannot use the closed-form chart builder
    spec = lie.se2()
    inner = routh.InvariantLagrangian(
        sdim=1, group=spec,
        ell=lambda x, xd, xi: 0.5 * float(xd @ xd) + 0.25 * float(xi @ xi) ** 2)
    sd_bad = semidirect.SemiDirectLagrangian(inner)
    with pytest.raises(ValueError):
        semidirect.abelian_reduced_system(sd_bad, CoVector([1.0, 0.0]))


@pytest.mark.parametrize("base, rep, rep_inf", [
    # the line acting on the plane by scaling, G = I (the circle cannot:
    # exp(theta) I is not periodic)
    (lie.translations(1), lambda t: math.exp(float(np.ravel(t)[0])) * np.eye(2),
     lambda xi: float(xi[0]) * np.eye(2)),
    # the circle acting by rotation through twice its angle, G @ G = -4 I
    (lie.circle(), lambda t: lie.se2().rep(2.0 * float(np.ravel(t)[0])),
     lambda xi: 2.0 * lie.se2().rep_inf(xi)),
], ids=["line_by_scaling", "circle_twice"])
def test_v_reduction_refuses_a_generator_whose_square_is_not_minus_one(base, rep, rep_inf):
    gv = lie.make_semidirect(base, rep=rep, rep_inf=rep_inf, vdim=2)
    sd_bad = semidirect.SemiDirectLagrangian(routh.quadratic_invariant_lagrangian(
        1, gv, [[1.0]], [[1.0, 0.0, 0.0]], np.diag([3.0, 1.0, 1.0])))
    g = re.escape(str(rep_inf(np.ones(1)).tolist()))
    with pytest.raises(ValueError, match=rf"G @ G = -I, got G = {g}"):
        semidirect.abelian_reduced_system(sd_bad, CoVector([1.0, 0.5]))


def planar_pair_lagrangian(params, c_block, gv=None):
    """The planar pair's Lagrangian with the group block c_block, over
    se(2) or over gv."""
    return semidirect.SemiDirectLagrangian(routh.quadratic_invariant_lagrangian(
        1, gv or lie.se2(), [[params.i2]], [[params.i2, 0.0, 0.0]], c_block,
        params.potential, params.dpotential))


def offset_mass_c_block(params, r=(0.3, 0.2)):
    """The group block of the planar pair with the second body's mass offset
    by r from the rotation axis: the V-reduced Lagrangian then depends on
    theta."""
    i, m, (r1, r2) = params.i1 + params.i2, params.m, r
    return [[i + m * (r1 ** 2 + r2 ** 2), -m * r2, m * r1], [-m * r2, m, 0.0],
            [m * r1, 0.0, m]]


def offset_mass_lagrangian(params):
    return planar_pair_lagrangian(params, offset_mass_c_block(params))


def anisotropic_lagrangian(params, m2=1.7):
    return planar_pair_lagrangian(params, np.diag([params.i1 + params.i2, params.m, m2]))


@pytest.mark.parametrize("build", [offset_mass_lagrangian, anisotropic_lagrangian],
                         ids=["offset_mass", "anisotropic"])
def test_v_reduced_terms_match_the_closed_form_oracle(build, beanie_params):
    sd, a = build(beanie_params), CoVector([0.7, -1.1])
    sys = semidirect.abelian_reduced_system(sd, a)
    rng = np.random.default_rng(12)
    q = np.column_stack([rng.uniform(-2.0, 2.0, 200), rng.uniform(-20.0, 20.0, 200)])
    v = rng.uniform(-2.0, 2.0, (200, 2))
    p, p0 = np.zeros((200, 0)), np.zeros(0)
    rows = (sys.lagrangian(q, v, p), sys.dL_dv(q, v, p), *sys.dL_dq_vq(q, v, p))
    moving = []
    for i in range(200):
        expected = v_reduced_closed_form(sd, a, q[i], v[i])
        point = (sys.lagrangian(q[i], v[i], p0), sys.dL_dv(q[i], v[i], p0),
                 *sys.dL_dq_vq(q[i], v[i], p0))
        for got, row, want in zip(point, rows, expected):
            assert np.array_equal(got, row[i])  # one formula: a point is its row
            assert np.max(np.abs(row[i] - want)) <= 1e-12
        moving.append(abs(expected[2][1]))
    assert max(moving) > 0.1  # dL/dtheta does not vanish on these metrics


@pytest.mark.parametrize("a", [[1.0, 0.5], [0.3, -1.2], [-0.8, 0.6]])
def test_v_reduced_beanie_theta_terms_are_exact_zeros(sd, a):
    sys = semidirect.abelian_reduced_system(sd, CoVector(a))
    rng = np.random.default_rng(13)
    q, v = rng.uniform(-20.0, 20.0, (50, 2)), rng.uniform(-2.0, 2.0, (50, 2))
    dl_dq, d2l_dv_dq = sys.dL_dq_vq(q, v, np.zeros((50, 0)))
    assert np.all(dl_dq[:, 1] == 0.0) and np.all(d2l_dv_dq == 0.0)
    for qi, vi in zip(q, v):
        dl_dq, d2l_dv_dq = sys.dL_dq_vq(qi, vi, np.zeros(0))
        assert dl_dq[1] == 0.0 and np.all(d2l_dv_dq[:, 1] == 0.0)


def test_v_regularity_error():
    spec = lie.se2()
    inner = routh.InvariantLagrangian(
        sdim=1, group=spec,
        ell=lambda x, xd, xi: (0.5 * float(xd @ xd) + 0.5 * xi[0] ** 2
                               + np.exp(xi[1]) + 0.5 * xi[2] ** 2),
        dell_dxi=lambda x, xd, xi: np.array([xi[0], np.exp(xi[1]), xi[2]]))
    sd_bad = semidirect.SemiDirectLagrangian(inner)
    with pytest.raises(RegularityError):
        semidirect.solve_tau(sd_bad, [0.0], [0.0], [0.1],
                             CoVector([-1.0, 0.0]))


# ---------------------------------------------------------------------------
# the row-batched orbit-form kernel


def orbit_rows(rng, n):
    """n orbit points with two orbit tangents (nudot, bdot = s * i b) each."""
    nu = rng.uniform(-1.5, 1.5, (n, 1))
    alpha = rng.uniform(-np.pi, np.pi, n)
    b = rng.uniform(0.3, 2.0, (n, 1)) * np.column_stack([np.cos(alpha), np.sin(alpha)])
    ib = np.column_stack([-b[:, 1], b[:, 0]])
    nudot = rng.normal(size=(n, 2, 1))
    bdot = rng.normal(size=(n, 2, 1)) * ib[:, None, :]
    return nu, b, nudot, bdot


def test_kernel_rows_equal_scalar_wrappers(sd, rng):
    nu, b, nudot, bdot = orbit_rows(rng, 40)
    xi, u = semidirect._orbit_generator_rows(sd.gv, nu, b, nudot, bdot)
    kks = semidirect._orbit_kks_rows(sd.gv, nu, b, (nudot[:, 0], bdot[:, 0]),
                                     (nudot[:, 1], bdot[:, 1]))
    for n in range(len(nu)):
        nuv, bv = CoVector(nu[n]), CoVector(b[n])
        tangents = [(CoVector(nudot[n, t]), CoVector(bdot[n, t])) for t in range(2)]
        for t, tangent in enumerate(tangents):
            gen = semidirect.orbit_tangent_generator(sd.gv, nuv, bv, *tangent)
            batched = np.concatenate([xi[n, t], u[n, t]])
            assert np.max(np.abs(gen.coords - batched)) <= 1e-14
            theta = semidirect.theta_form(sd.gv, nuv, bv, *tangent)
            assert abs(theta - nu[n] @ xi[n, t]) <= 1e-14
        assert abs(semidirect.orbit_kks(sd.gv, nuv, bv, *tangents) - kks[n]) <= 1e-14


def test_kernel_names_degenerate_row(sd, rng):
    nu, b, nudot, bdot = orbit_rows(rng, 5)
    b[3] = 0.0
    with pytest.raises(ValueError, match="row 3.*degenerate"):
        semidirect._orbit_generator_rows(sd.gv, nu, b, nudot, bdot)


def test_kernel_rejects_non_tangent_bdot(sd, rng):
    nu, b, nudot, bdot = orbit_rows(rng, 5)
    bdot[2, 1] += 0.1 * b[2]   # a radial part leaves the orbit |b| = const
    with pytest.raises(ValueError, match="row 2.*not tangent"):
        semidirect._orbit_generator_rows(sd.gv, nu, b, nudot, bdot)
    with pytest.raises(ValueError, match="not tangent"):
        semidirect.theta_form(sd.gv, CoVector([0.3]), CoVector([1.0, 0.0]),
                              CoVector([0.0]), CoVector([1.0, 1.0]))


def reference_form_residual(sd, eq, a, n_points, seed):
    """form_identity_residual point by point with the public orbit_kks,
    drawing the random points in build_stage_equivalence's order."""
    rng = np.random.default_rng(seed)
    s, d0 = sd.sdim, sd.d0
    for _ in range(n_points):   # the Routhian-identity points come first
        rng.uniform(-1.0, 1.0, size=s)
        rng.uniform(-1.0, 1.0, size=s)
        rng.uniform(-np.pi, np.pi)
        rng.uniform(-1.5, 1.5, size=d0)
    worst = 0.0
    for _ in range(n_points):
        x = rng.uniform(-1.0, 1.0, size=s)
        theta = rng.uniform(-np.pi, np.pi)
        nu = rng.uniform(-1.5, 1.5, size=d0)
        bqq, bqp, bpp = eq.p1_system.bform(x, np.concatenate([[theta], nu]))
        worst = max(worst, float(np.max(np.abs(bqq))), float(np.max(np.abs(bqp))))
        b = lie.dual_action(sd.gv, lie.exponential(lie.circle(), AlgebraVector([theta])), a)
        bp = CoVector(sd.gv.rep_inf([1.0]).T @ b.coords)  # xi*b at xi = 1
        for j in range(d0):
            t_nu = (CoVector(np.eye(d0)[j]), CoVector(np.zeros(sd.vdim)))
            kks = semidirect.orbit_kks(sd.gv, CoVector(nu), b,
                                       (CoVector(np.zeros(d0)), bp), t_nu)
            worst = max(worst, abs(bpp[0, 1 + j] - kks))
    return worst


def reference_lemma_residual(sd, a, samples, fd_step=1e-4):
    """verify_lemma_B_equals_dtheta sample by sample with the public scalar
    theta_form and orbit_kks."""
    r = float(np.linalg.norm(a.coords))

    def tangents(z):
        b = r * np.array([np.cos(z[1]), np.sin(z[1])])
        t_nu = (CoVector([1.0]), CoVector([0.0, 0.0]))
        t_alpha = (CoVector([0.0]), CoVector([-b[1], b[0]]))
        return CoVector(z[:1]), CoVector(b), t_nu, t_alpha

    def theta(z):
        nu, b, t_nu, t_alpha = tangents(z)
        return np.array([semidirect.theta_form(sd.gv, nu, b, *t_nu),
                         semidirect.theta_form(sd.gv, nu, b, *t_alpha)])

    worst = 0.0
    for z in samples:
        d = numerics.fd_exterior_derivative(theta, z, fd_step)
        worst = max(worst, abs(d[0, 1] - semidirect.orbit_kks(sd.gv, *tangents(z))))
    return worst


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_batched_reports_match_point_by_point_reference(sd, seed):
    a = CoVector([0.6, -0.8])
    eq = semidirect.build_stage_equivalence(sd, CoVector([0.7]), a, n_points=20,
                                            t_end=0.05, seed=seed)
    expected = reference_form_residual(sd, eq, a, 20, seed)
    assert abs(eq.report["form_identity_residual"] - expected) <= 1e-12

    rng = np.random.default_rng(seed)
    samples = np.column_stack([rng.uniform(-2, 2, 30), rng.uniform(-np.pi, np.pi, 30)])
    res = semidirect.verify_lemma_B_equals_dtheta(sd, a, samples)
    assert abs(res - reference_lemma_residual(sd, a, samples)) <= 1e-12


def test_stage_equivalence_reads_only_shared_times(sd, monkeypatch):
    # a V-reduced flow on a coarser grid than the orbit flow (as adaptive
    # steppers give): only the samples at shared times are compared
    integrate = maglag.integrate

    def coarse(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        keep = np.unique(np.r_[0:len(traj.times):3, len(traj.times) - 1])
        return dataclasses.replace(traj, times=traj.times[keep], states=traj.states[keep])

    monkeypatch.setattr(maglag, "integrate", coarse)
    eq = semidirect.build_stage_equivalence(sd, CoVector([1.0]), CoVector([1.0, 0.0]),
                                            n_points=5, t_end=1.0)
    assert eq.report["trajectory_deviation"] <= 1e-5


def test_lemma_rejects_empty_samples(sd):
    with pytest.raises(ValueError, match="samples"):
        semidirect.verify_lemma_B_equals_dtheta(sd, CoVector([1.0, 0.0]),
                                                np.zeros((0, 2)))


@pytest.mark.parametrize("samples, match", [
    (np.zeros((3, 3)), r"^samples must be rows of width 2 \(nu, alpha\), got shape \(3, 3\)$"),
    (np.zeros((3, 1)), r"^samples must be rows of width 2 \(nu, alpha\), got shape \(3, 1\)$"),
    (np.zeros((2, 3, 2)), r"^samples must be rows of width 2 \(nu, alpha\), "
                          r"got shape \(2, 3, 2\)$"),
    ([[0.1, 0.2], [0.3, np.nan]], r"^sample row 1 is not finite$"),
    ([[0.1, 0.2], [0.3, 0.4], [np.inf, 0.0]], r"^sample row 2 is not finite$"),
])
def test_lemma_rejects_malformed_samples_before_evaluating(sd, samples, match, monkeypatch):
    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated a malformed sample")

    monkeypatch.setattr(numerics, "fd_exterior_derivative", no_evaluation)
    with pytest.raises(ValueError, match=match):
        semidirect.verify_lemma_B_equals_dtheta(sd, CoVector([1.0, 0.0]), samples)


BAD_LEVELS = [
    ([np.nan, 1.0], r"^momentum level a must be finite, got \[nan, 1\.0\]$", "nan"),
    ([0.5, -np.inf], r"^momentum level a must be finite, got \[0\.5, -inf\]$", "inf"),
    ([0.0, 0.0], r"^dual action not onto", "zero"),
    ([1.0], r"^momentum level a has length 1; V has dimension 2$", "short"),
]


# a = 0 is a legal level of the V-reduction alone
@pytest.mark.parametrize("entry, a, match", [
    pytest.param(entry, a, match, id=f"{entry}-{name}")
    for entry in ("lemma", "equivalence", "abelian") for a, match, name in BAD_LEVELS
    if (entry, name) != ("abelian", "zero")])
def test_both_stage_checks_refuse_a_bad_level_a(sd, entry, a, match):
    # one check of a: numpy's SVD would fail on a NaN level, the lemma,
    # which reads only |a|, would pass a short one, and the V-reduction
    # would build a system whose flow is NaN from its first step
    with pytest.raises(ValueError, match=match):
        if entry == "lemma":
            semidirect.verify_lemma_B_equals_dtheta(sd, CoVector(a), np.zeros((3, 2)))
        elif entry == "equivalence":
            semidirect.build_stage_equivalence(sd, CoVector([1.0]), CoVector(a),
                                               n_points=2, t_end=1.0)
        else:
            semidirect.abelian_reduced_system(sd, CoVector(a))


def test_v_reduction_refuses_a_two_dimensional_base():
    # R^2 acting on R^4 by two plane rotations: abelian, but not the circle
    rot, rot_inf = lie.se2().rep, lie.se2().rep_inf
    gv = lie.make_semidirect(
        lie.translations(2), vdim=4,
        rep=lambda t: scipy.linalg.block_diag(rot(float(t[0])), rot(float(t[1]))),
        rep_inf=lambda xi: scipy.linalg.block_diag(rot_inf(xi[:1]), rot_inf(xi[1:])))
    sd_2d = semidirect.SemiDirectLagrangian(routh.quadratic_invariant_lagrangian(
        1, gv, [[1.0]], np.zeros((1, 6)), np.eye(6)))
    with pytest.raises(ValueError, match="one-dimensional base groups"):
        semidirect.abelian_reduced_system(sd_2d, CoVector([1.0, 0.0, 0.5, 0.0]))


@pytest.mark.parametrize("t_end", [0.0, -1.0, np.nan, np.inf])
def test_stage_equivalence_rejects_an_empty_or_endless_horizon(sd, t_end):
    with pytest.raises(ValueError, match="t_end"):
        semidirect.build_stage_equivalence(sd, CoVector([1.0]), CoVector([1.0, 0.0]),
                                           n_points=2, t_end=t_end)


def test_stage_equivalence_builds_one_quadratic_split(sd, monkeypatch):
    built = []

    class Counted(semidirect._QuadraticSplit):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(semidirect, "_QuadraticSplit", Counted)
    semidirect.build_stage_equivalence(sd, CoVector([1.0]), CoVector([1.0, 0.0]),
                                       n_points=2, t_end=0.01)
    assert len(built) == 1


@pytest.mark.parametrize("s, d0", [(1, 1), (3, 2)])
def test_draw_block_is_the_per_point_uniform_order(s, d0):
    sizes = [((-1.0, 1.0, s), (-1.0, 1.0, s), (-np.pi, np.pi, None), (-1.5, 1.5, d0)),
             ((-1.0, 1.0, s), (-np.pi, np.pi, None), (-1.5, 1.5, d0))]
    for seed in (0, 3, 5, 7, 11):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for draw in sizes:  # one draw after the other, as the stream runs on
            points = [[ref.uniform(lo, hi, size=size) for lo, hi, size in draw]
                      for _ in range(17)]
            expected = [np.array(column) for column in zip(*points)]
            got = semidirect._draw(rng, 17, draw)
            assert len(got) == len(expected)
            for column, want in zip(got, expected):
                assert column.shape == want.shape and np.array_equal(column, want)


def test_stage_equivalence_rejects_zero_points(sd):
    with pytest.raises(ValueError, match="n_points"):
        semidirect.build_stage_equivalence(sd, CoVector([1.0]),
                                           CoVector([1.0, 0.0]), n_points=0)
