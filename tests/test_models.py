"""The two worked systems and their independent full-coordinate oracles."""
import numpy as np
import pytest

from magreduce import lie, maglag, models, numerics, routh, semidirect
from magreduce.lie import CoVector
from magreduce.numerics import StepperChoice
from oracles import beanie_chart_system, rotor_chart_lagrangian, rotor_reduced_field_closed_form


def random_rotor_params(rng):
    body = rng.uniform(0.8, 3.0, size=3)
    j3 = rng.uniform(0.3, 1.5)
    return models.RotorParams(inertia_body=body, inertia_rotor=(0.0, 0.0, j3))


def test_rotor_params_validation():
    with pytest.raises(ValueError):
        models.RotorParams(inertia_body=(1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        models.RotorParams(inertia_rotor=(0.0, 0.0, 0.0))


def test_beanie_params_validation():
    with pytest.raises(ValueError):
        models.BeanieParams(m=-1.0)


@pytest.mark.parametrize("field, kwargs", [
    ("inertia_body", {"inertia_body": (np.nan, 2.0, 1.0)}),
    ("inertia_body", {"inertia_body": (3.0, np.inf, 1.0)}),
    ("inertia_rotor", {"inertia_rotor": (0.0, 0.0, np.inf)}),
    ("inertia_rotor", {"inertia_rotor": (np.nan, 0.0, 1.0)}),
])
def test_rotor_params_refuse_a_non_finite_inertia(field, kwargs):
    # every comparison with NaN is False, so no positivity check catches it
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        models.RotorParams(**kwargs)


@pytest.mark.parametrize("field", ["m", "i1", "i2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_beanie_params_refuse_a_non_finite_value(field, bad):
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got {bad}$"):
        models.BeanieParams(**{field: bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_default_potential_refuses_a_non_finite_strength(bad):
    # it would otherwise read nan at every angle
    with pytest.raises(ValueError, match=rf"^potential strength c must be finite, got {bad}$"):
        models.default_potential(bad)


def test_rotor_formula_reproduction_random_params(rng):
    # fibre derivative, inverse map, Routhian, and equations at random
    # parameter/state draws
    for _ in range(100):
        params = random_rotor_params(rng)
        lam = params.lam
        j3 = params.inertia_rotor[2]
        i3 = params.inertia_body[2]
        lag = models.rotor_lagrangian(params)
        xd = rng.normal(size=1)
        w = rng.normal(size=3)
        m = rng.normal(size=3)

        f2 = lag.group_momentum(np.zeros(1), xd, w)
        assert np.max(np.abs(f2 - np.array(
            [lam[0] * w[0], lam[1] * w[1], lam[2] * w[2] + j3 * xd[0]]))) <= 1e-12

        chi = routh.solve_chi(lag, np.zeros(1), xd, CoVector(m)).coords
        assert np.max(np.abs(chi - np.array(
            [m[0] / lam[0], m[1] / lam[1], (m[2] - j3 * xd[0]) / lam[2]]))) <= 1e-12

        r = routh.routhian(lag, np.zeros(1), xd, CoVector(m))
        expected = (0.5 * (j3 * i3 / lam[2] * xd[0] ** 2
                           - m[0] ** 2 / lam[0] - m[1] ** 2 / lam[1]
                           - m[2] ** 2 / lam[2]) + j3 / lam[2] * xd[0] * m[2])
        assert abs(r - expected) <= 1e-10

        sys = models.rotor_reduced_system(params, CoVector(m))
        _, xdd, nudot = routh.reduced_vector_field(
            sys, routh.ReducedState(np.zeros(1), xd, CoVector(m)))
        mdot, xdd_exp = rotor_reduced_field_closed_form(
            params, np.zeros(1), xd, m)
        assert np.max(np.abs(nudot.coords - mdot)) <= 1e-10
        assert abs(xdd[0] - xdd_exp) <= 1e-10


def test_rotor_third_equation_residual(rotor_params, rng):
    i3 = rotor_params.inertia_body[2]
    sys = models.rotor_reduced_system(rotor_params, CoVector([1.0, 0, 0]))
    for _ in range(50):
        st = routh.ReducedState(rng.normal(size=1), rng.normal(size=1),
                                CoVector(rng.normal(size=3)))
        _, xdd, nudot = routh.reduced_vector_field(sys, st)
        assert abs(i3 * xdd[0] + nudot.coords[2]) <= 1e-10


def test_euler_chart_kinematics(rotor_params, rng):
    # the closed-form body velocity matches the finite difference of the
    # rotation matrix through the hat identification
    for _ in range(10):
        angles = rng.uniform(-1.0, 1.0, size=3) + np.array([0.0, 1.2, 0.0])
        rates = rng.normal(size=3)
        w = models.euler_zxz_body_velocity(angles, rates)
        h = 1e-6
        rp = models.euler_zxz_matrix(angles + h * rates)
        rm = models.euler_zxz_matrix(angles - h * rates)
        rdot = (rp - rm) / (2 * h)
        what = models.euler_zxz_matrix(angles).T @ rdot
        assert np.max(np.abs(np.array([what[2, 1], what[0, 2], what[1, 0]]) - w)) < 1e-8


def chart_point(params, state):
    """The (q, pi) point of `rotor_chart_field` at a chart state (q, qdot)."""
    return np.concatenate([state[:4], models._chart_momenta(params, state)])


def test_rotor_oracle_rest_state_fixed(rotor_params):
    state = np.array([0.0, 0.2, 1.1, 0.4, 0.0, 0.0, 0.0, 0.0])
    dy = models.rotor_chart_field(rotor_params)(0.0, chart_point(rotor_params, state))
    assert np.max(np.abs(dy)) < 1e-9


def test_rotor_oracle_gimbal_guard(rotor_params):
    state = np.array([0.0, 0.2, 0.05, 0.4, 0.1, 0.1, 0.1, 0.1])
    field = models.rotor_chart_field(rotor_params)
    with pytest.raises(ValueError, match="gimbal"):
        field(0.0, chart_point(rotor_params, state))


def five_point_gradients(lag, q, qd, h=1e-3):
    """dL/dq and dL/dqdot at stacked rows by the five-point central
    stencil (f(-2h) - 8 f(-h) + 8 f(h) - f(2h)) / 12h, step h."""
    weights = {-2: 1.0, -1: -8.0, 1: 8.0, 2: -1.0}
    grads = np.zeros((2,) + q.shape)
    for which in (0, 1):
        for i in range(4):
            for shift, weight in weights.items():
                pts = [q.copy(), qd.copy()]
                pts[which][:, i] += shift * h
                grads[which][:, i] += weight * lag(*pts)
    return grads / (12.0 * h)


def test_rotor_chart_field_matches_five_point_reference(rotor_params):
    # the closed-form chart field against finite differences of the chart
    # Lagrangian: momenta, rates recovered from the momenta, and pidot
    rng = np.random.default_rng(11)
    q = rng.uniform(-2.0, 2.0, (2000, 4))
    q[:, 2] = rng.uniform(0.2, 2.9, 2000)
    qd = rng.uniform(-2.0, 2.0, (2000, 4))
    dl_dq, dl_dqd = five_point_gradients(rotor_chart_lagrangian(rotor_params), q, qd)
    pi = models._chart_momenta(rotor_params, np.hstack([q, qd]))
    assert np.max(np.abs(pi - dl_dqd)) <= 1e-9
    field = models.rotor_chart_field(rotor_params)
    dy = np.array([field(0.0, y) for y in np.hstack([q, pi])])
    assert np.max(np.abs(dy[:, :4] - qd)) <= 1e-9
    assert np.max(np.abs(dy[:, 4:] - dl_dq)) <= 1e-9
    assert np.all(dy[:, 4:6] == 0.0)


def test_rotor_oracle_matches_reduced_field(rotor_params):
    # x is cyclic, so pi_x is conserved exactly; with pi_gamma = m3 the
    # gamma equation then gives xddot = -pidot_gamma / I3, which must match
    # the closed-form reduced equations
    field = models.rotor_chart_field(rotor_params)
    for m0 in ([0.8, 0.2, 0.3], [-0.5, 1.1, 0.6], [0.3, -0.9, -0.4]):
        s0 = models.rotor_chart_state_from_momentum(rotor_params, np.array(m0), xdot=0.2)
        dy = field(0.0, chart_point(rotor_params, s0))
        assert dy[4] == 0.0 and dy[5] == 0.0
        _, xdd_exp = rotor_reduced_field_closed_form(
            rotor_params, [s0[0]], [s0[4]], models.rotor_body_momentum(rotor_params, s0))
        assert abs(-dy[7] / rotor_params.inertia_body[2] - xdd_exp) <= 1e-8


@pytest.fixture(scope="module")
def rotor_oracle_traj(rotor_params):
    s0 = models.rotor_chart_state_from_momentum(rotor_params,
                                                np.array([0.8, 0.2, 0.3]),
                                                xdot=0.2)
    return s0, models.rotor_full_trajectory(rotor_params, s0, 5.0,
                                            StepperChoice(kind="rk4", h=1e-3))


def test_rotor_oracle_momentum_conservation(rotor_params, rotor_oracle_traj):
    _, traj = rotor_oracle_traj
    j = np.array([models.rotor_spatial_momentum(rotor_params, s)
                  for s in traj.states[::10]])
    assert np.max(np.abs(j - j[0])) <= 1e-7


def test_rotor_projection_theorem(rotor_params, rotor_oracle_traj):
    s0, traj = rotor_oracle_traj
    m0 = models.rotor_body_momentum(rotor_params, s0)
    sys = models.rotor_reduced_system(rotor_params, CoVector(m0))
    reduced = routh.integrate_reduced(
        sys, routh.ReducedState([s0[0]], [s0[4]], CoVector(m0)), 5.0,
        StepperChoice(kind="rk4", h=1e-3))
    dev = 0.0
    for i in range(0, len(reduced.times), 50):
        s = traj.states[i]
        row = np.concatenate([[s[0], s[4]],
                              models.rotor_body_momentum(rotor_params, s)])
        dev = max(dev, float(np.max(np.abs(row - reduced.states[i]))))
    assert dev <= 1e-5


def test_rotor_reconstruction_matches_chart(rotor_params, rotor_oracle_traj):
    # reconstruct the rotation from the reduced flow and compare against
    # the chart oracle's rotation matrices
    s0, traj = rotor_oracle_traj
    m0 = models.rotor_body_momentum(rotor_params, s0)
    sys = models.rotor_reduced_system(rotor_params, CoVector(m0))
    reduced = routh.integrate_reduced(
        sys, routh.ReducedState([s0[0]], [s0[4]], CoVector(m0)), 5.0,
        StepperChoice(kind="rk4", h=1e-3))
    g0 = lie.GroupElement(models.euler_zxz_matrix(s0[1:4]))
    gs = routh.reconstruct(sys, reduced, g0)
    worst = 0.0
    for i in range(0, len(gs), 500):
        r_chart = models.euler_zxz_matrix(traj.states[i][1:4])
        worst = max(worst, float(np.max(np.abs(gs[i].payload - r_chart))))
    assert worst <= 1e-5


def test_beanie_potential_without_gradient_is_differenced():
    # V = 0.8 (1 - cos phi) + 0.05 phi^4 given alone: its gradient comes
    # from fd_gradient, and the reduced flow matches the analytic twin
    def pot(phi):
        return 0.8 * (1.0 - np.cos(phi[0])) + 0.05 * phi[0] ** 4

    def dpot(phi):
        return np.array([0.8 * np.sin(phi[0]) + 0.2 * phi[0] ** 3])

    flows = []
    for params in (models.BeanieParams(potential=pot),
                   models.BeanieParams(potential=pot, dpotential=dpot)):
        sd = models.beanie_gv_lagrangian(params)
        traj = semidirect.integrate_reduced_full(
            sd, [0.9], [0.3], CoVector([0.7]), CoVector([0.4, -0.5]), 3.0,
            StepperChoice(kind="rk4", h=1e-2))
        flows.append(traj.states)
    assert np.max(np.abs(flows[0] - flows[1])) <= 1e-6
    assert np.max(np.abs(flows[0][-1] - flows[0][0])) > 0.1  # the shape moved


def test_beanie_full_field_displays(rng):
    params = models.BeanieParams()
    zero = models.beanie_full_field(params, np.zeros(8))
    assert np.max(np.abs(zero)) == 0.0
    state = np.array([np.pi / 2, 0.3, 0.1, -0.2, 0.5, 0.2, 1.0, 0.4])
    acc = models.beanie_full_field(params, state)
    assert abs(acc[1] - 0.5) < 1e-14          # thetadd = sin(pi/2)/I1
    assert abs(acc[0] + 1.5) < 1e-14          # phidd = -(3/2) V'
    for _ in range(20):
        acc = models.beanie_full_field(params, rng.normal(size=8))
        assert acc[2] == 0.0 and acc[3] == 0.0


def test_beanie_momenta_examples():
    params = models.BeanieParams(m=1.0, i1=1.0, i2=1.0)
    state = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    nu, b = models.beanie_momenta(params, state)
    assert abs(nu - 3.0) < 1e-14
    assert b == 0j


def test_beanie_momenta_conserved_along_full_flow(beanie_params):
    state0 = np.array([0.4, 0.2, 0.0, 0.0, 0.3, 0.1, 1.0, -0.5])
    traj = models.beanie_full_trajectory(beanie_params, state0, 10.0,
                                         StepperChoice(kind="rk4", h=1e-3))
    pairs = [models.beanie_momenta(beanie_params, s) for s in traj.states[::20]]
    nus = np.array([p[0] for p in pairs])
    babs = np.array([abs(p[1]) for p in pairs])
    assert np.max(np.abs(nus - nus[0])) <= 1e-8
    assert np.max(np.abs(babs - babs[0])) <= 1e-8


def test_beanie_chart_system_regular(beanie_params):
    sys = beanie_chart_system(beanie_params, 1.0, 1 + 0j)
    _, _, bpp = sys.bblocks(np.zeros(1), np.zeros(2))
    assert abs(np.linalg.det(bpp) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        beanie_chart_system(beanie_params, 1.0, 0j)


def test_beanie_chart_matches_reduced_flow(beanie_params):
    # generic magnetic integration of the chart system against the
    # specialized reduced flow under (alpha, nu) -> (nu, |a| e^{i alpha})
    a = 1 + 0j
    sys = beanie_chart_system(beanie_params, 1.0, a)
    sd = models.beanie_gv_lagrangian(beanie_params)
    stepper = StepperChoice(kind="rk4", h=1e-3)
    alpha0, nu0 = 0.0, 1.0
    chart = maglag.integrate(sys, maglag.MagLagState([0.4], [0.3],
                                                     [alpha0, nu0]),
                             10.0, stepper)
    reduced = semidirect.integrate_reduced_full(
        sd, [0.4], [0.3], CoVector([nu0]),
        CoVector(abs(a) * np.array([np.cos(alpha0), np.sin(alpha0)])),
        10.0, stepper)
    dev = 0.0
    for i in range(0, len(chart.times), 100):
        alpha, nu = chart.states[i, 2], chart.states[i, 3]
        row = np.array([chart.states[i, 0], chart.states[i, 1], nu,
                        abs(a) * np.cos(alpha), abs(a) * np.sin(alpha)])
        dev = max(dev, float(np.max(np.abs(row - reduced.states[i]))))
    assert dev <= 1e-6


def test_beanie_reconstruction_matches_full(beanie_params):
    # reconstruct the group motion from the reduced flow and compare with
    # the full-coordinate integration
    i1, i2 = beanie_params.i1, beanie_params.i2
    thetadot0 = (1.0 - i2 * 0.3) / (i1 + i2)
    state0 = np.array([0.4, 0.0, 0.0, 0.0, 0.3, thetadot0, 1.0, 0.0])
    stepper = StepperChoice(kind="rk4", h=1e-3)
    full = models.beanie_full_trajectory(beanie_params, state0, 5.0, stepper)

    sd = models.beanie_gv_lagrangian(beanie_params)
    sys = semidirect.gv_reduced_system(sd, CoVector([1.0]), CoVector([1.0, 0.0]))
    reduced = routh.integrate_reduced(
        sys, routh.ReducedState([0.4], [0.3],
                                CoVector([1.0, 1.0, 0.0])), 5.0, stepper)
    g0 = lie.identity(lie.se2())
    gs = routh.reconstruct(sys, reduced, g0)
    worst = 0.0
    for i in range(0, len(gs), 200):
        theta_f = full.states[i][1]
        z_f = complex(full.states[i][2], full.states[i][3])
        theta_r, z_r = gs[i].payload
        worst = max(worst,
                    abs(np.exp(1j * theta_r) - np.exp(1j * theta_f)),
                    abs(complex(z_r[0], z_r[1]) - z_f))
    assert worst <= 1e-5


def test_beanie_full_momentum_map_drift(beanie_params):
    # the conserved dual-algebra momentum along the full flow, computed
    # through the group coadjoint action
    spec = lie.se2()
    i1, i2 = beanie_params.i1, beanie_params.i2
    state0 = np.array([0.4, 0.2, 0.1, -0.3, 0.3, 0.25, 1.0, -0.5])
    traj = models.beanie_full_trajectory(beanie_params, state0, 10.0,
                                         StepperChoice(kind="rk4", h=1e-3))
    js = []
    for s in traj.states[::50]:
        nu, b = models.beanie_momenta(beanie_params, s)
        g = lie.GroupElement((s[1], s[2:4]))
        j = lie.coadjoint(spec, lie.inverse(spec, g),
                          CoVector([nu, b.real, b.imag]))
        js.append(j.coords)
    js = np.array(js)
    assert np.max(np.abs(js - js[0])) <= 1e-8


def test_rotor_full_rates_recovered_in_one_stacked_call(rotor_params, monkeypatch):
    # the output rates of all samples come from one stacked call of the
    # closed form; they equal the per-row recovery bit for bit and
    # reproduce the momenta
    seen, stacked = [], []
    integrate_ode, chart_flow = numerics.integrate_ode, models._chart_flow

    def spy(*args, **kwargs):
        seen.append(integrate_ode(*args, **kwargs))
        return seen[-1]

    def flow_spy(k, sb, *args):
        if np.ndim(sb):
            stacked.append(len(sb))
        return chart_flow(k, sb, *args)

    monkeypatch.setattr(numerics, "integrate_ode", spy)
    monkeypatch.setattr(models, "_chart_flow", flow_spy)
    s0 = models.rotor_chart_state_from_momentum(rotor_params, np.array([8.0, 2.0, 3.0]))
    traj = models.rotor_full_trajectory(rotor_params, s0, 0.05,
                                        StepperChoice(kind="rk4", h=1e-2))
    (_, ys), = seen
    assert stacked == [len(ys)]
    assert np.array_equal(traj.states[:, :4], ys[:, :4])
    k = models._chart_constants(rotor_params)
    for y, state in zip(ys, traj.states):
        b, g = y[None, 2], y[None, 3]
        rates, _, _ = chart_flow(k, np.sin(b), np.cos(b), np.sin(g), np.cos(g),
                                 y[None, 4:].T)
        assert np.array_equal(state[4:], np.concatenate(rates))
        assert np.max(np.abs(models._chart_momenta(rotor_params, state) - y[4:])) <= 1e-12


@pytest.mark.parametrize("t_end", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("entry", ["reduced_rk4", "reduced_rkf45", "beanie_full", "rotor_full"])
def test_trajectory_entry_points_refuse_an_empty_or_reversed_horizon(entry, t_end,
                                                                     rotor_params, beanie_params):
    # the integrators would return the one start sample, which a report
    # would read as a trajectory without drift
    if entry.startswith("reduced"):
        nu = CoVector([0.3, -0.2, 0.5])
        run = lambda: routh.integrate_reduced(  # noqa: E731
            routh.ReducedRouthSystem(models.rotor_lagrangian(rotor_params), nu),
            routh.ReducedState([0.1], [0.2], nu), t_end,
            StepperChoice(kind=entry.split("_")[1], h=0.01))
    elif entry == "beanie_full":
        run = lambda: models.beanie_full_trajectory(  # noqa: E731
            beanie_params, np.array([0.1, 0.2, 0.0, 0.0, 0.3, 0.1, 0.2, 0.0]), t_end,
            StepperChoice(h=0.01))
    else:
        run = lambda: models.rotor_full_trajectory(  # noqa: E731
            rotor_params, np.array([0.1, 0.2, 0.3, 0.4, 0.1, 0.2, 0.3, 0.1]), t_end,
            StepperChoice(h=0.01))
    with pytest.raises(ValueError, match=rf"^t_end must be positive and finite, got {t_end}$"):
        run()
