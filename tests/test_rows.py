"""Row paths against their per-point references: the whole-trajectory
monitors, the batched reconstruction, the chunked CSV writer, the row
Newton, the row momentum inversion, the rows of every derivative supply
and the row callables of the V-reduced system; Lagrangians whose callables
take one point give the per-point results bit for bit."""
import math

import numpy as np
import pytest

from magreduce import lie, maglag, models, numerics, routh, semidirect
from magreduce.lie import CoVector
from magreduce.maglag import MagLagState, MagneticSystem, RegularityError
from magreduce.numerics import NewtonConvergenceError, StepperChoice
from oracles import beanie_r2_system, reduced_energy

RK4 = StepperChoice(kind="rk4", h=1e-2)
ROW_TOL = 1e-14


@pytest.fixture(scope="module")
def rotor_traj(rotor_params):
    nu0 = CoVector([0.8, 0.2, 0.3])
    sys = models.rotor_reduced_system(rotor_params, nu0)
    return sys, routh.integrate_reduced(sys, routh.ReducedState([0.1], [0.4], nu0), 2.0, RK4)


def beanie_reduced(beanie_params):
    sd = models.beanie_gv_lagrangian(beanie_params)
    w0 = CoVector([1.0, 0.6, -0.8])
    sys = routh.ReducedRouthSystem(sd.inner, mu=w0)
    return sys, routh.integrate_reduced(sys, routh.ReducedState([0.4], [0.3], w0), 2.0, RK4)


def per_point_report(sys, traj, s0):
    """The monitors of integrate_reduced, one state at a time."""
    lag, sd = sys.lagrangian, sys.lagrangian.sdim
    e0 = reduced_energy(lag, s0.x, s0.xdot, s0.nu)
    ys = traj.states
    sampled = list(ys[::max(1, len(ys) // 400)]) + [ys[-1]]
    out = {"energy_drift": max(abs(reduced_energy(
        lag, y[:sd], y[sd:2 * sd], CoVector(y[2 * sd:])) - e0) for y in sampled)}
    for name, fn in lag.group.casimirs:
        c0 = fn(s0.nu.coords)
        out[f"casimir_{name}_drift"] = max(abs(fn(y[2 * sd:]) - c0) for y in ys)
    return out


@pytest.mark.parametrize("case", ["rotor", "beanie"])
def test_row_monitors_match_per_point(case, rotor_traj, beanie_params):
    sys, traj = rotor_traj if case == "rotor" else beanie_reduced(beanie_params)
    lag = sys.lagrangian
    assert lag.reduced_metric is not None and numerics.rows_ok(lag.ell)
    sd = lag.sdim
    y0 = traj.states[0]
    s0 = routh.ReducedState(y0[:sd], y0[sd:2 * sd], CoVector(y0[2 * sd:]))
    expected = per_point_report(sys, traj, s0)
    assert set(traj.report.entries) == set(expected)
    for name, value in expected.items():
        assert abs(traj.report.entries[name] - value) <= ROW_TOL
    xs = traj.states[:, :sd], traj.states[:, sd:2 * sd], traj.states[:, 2 * sd:]
    energies = routh._energy(lag, *xs, routh._chi(lag, *xs, times=traj.times))
    for e, y in zip(energies, traj.states):
        point = reduced_energy(lag, y[:sd], y[sd:2 * sd], CoVector(y[2 * sd:]))
        assert abs(e - point) <= ROW_TOL


def test_batched_reconstruct_matches_solve_chi(rotor_traj):
    sys, traj = rotor_traj
    lag = sys.lagrangian
    ys, ts = traj.states, traj.times
    mids = 0.5 * (ys[:-1] + ys[1:])
    chis = routh._chi(lag, mids[:, :1], mids[:, 1:2], mids[:, 2:],
                      times=0.5 * (ts[:-1] + ts[1:]))
    g = g_ref = lie.identity(lag.group)
    gs = routh.reconstruct(sys, traj, g)
    assert len(gs) == len(ts)
    for i, y in enumerate(mids):
        chi = routh.solve_chi(lag, y[:1], y[1:2], CoVector(y[2:]))
        assert np.max(np.abs(chis[i] - chi.coords)) <= ROW_TOL
        g_ref = lie.compose(lag.group, g_ref, lie.exponential(lag.group, chi, ts[i + 1] - ts[i]))
        assert np.max(np.abs(gs[i + 1].payload - g_ref.payload)) <= 1e-12


def one_point_chain(spec, g, chis, ts):
    """g_{n+1} = g_n exp(h chi_n), one exponential call per interval."""
    out = [g]
    for chi, h in zip(chis, np.diff(ts)):
        out.append(lie.compose(spec, out[-1], lie.exponential(spec, lie.AlgebraVector(chi), h)))
    return out


@pytest.mark.parametrize("moving", [True, False])
def test_reconstruct_is_the_one_point_chain_bit_for_bit(moving, rotor_params):
    # one row exponential call gives the bits of one call per interval,
    # here along a rotor trajectory and along one at rest (chi = 0)
    nu0 = CoVector([0.8, 0.2, 0.3] if moving else [0.0, 0.0, 0.0])
    sys = models.rotor_reduced_system(rotor_params, nu0)
    traj = routh.integrate_reduced(
        sys, routh.ReducedState([0.1], [0.4 if moving else 0.0], nu0), 1.0, RK4)
    lag, ys, ts = sys.lagrangian, traj.states, traj.times
    mids = 0.5 * (ys[:-1] + ys[1:])
    chis = routh._chi(lag, mids[:, :1], mids[:, 1:2], mids[:, 2:])
    g0 = lie.GroupElement(lag.group.sample_fn(np.random.default_rng(2)))
    gs = routh.reconstruct(sys, traj, g0)
    ref = one_point_chain(lag.group, g0, chis, ts)
    assert len(gs) == len(ref) == len(ts)
    for g, r in zip(gs, ref):
        assert np.array_equal(g.payload, r.payload) and g.updates == r.updates
    if not moving:  # chi = 0: g stays, up to the periodic re-orthonormalization
        assert all(np.max(np.abs(g.payload - g0.payload)) <= 1e-14 for g in gs)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_reconstruct_names_the_first_non_finite_interval(rotor_params):
    # finite chi, but h chi overflows on the second interval (mid t = 5e307)
    nu = [10.0, 10.0, 10.0]
    sys = models.rotor_reduced_system(rotor_params, CoVector(nu))
    traj = maglag.Trajectory(np.array([0.0, 0.1, 1e308]), np.array([[0.0, 0.0] + nu] * 3),
                             routh.reduced_state_columns(1, 3))
    with pytest.raises(ValueError, match=r"non-finite exponential argument in row 1 "
                                         r"at t = 5e\+307$"):
        routh.reconstruct(sys, traj, lie.identity(lie.so3()))


@pytest.mark.parametrize("spec", [lie.circle(), lie.translations(2), lie.se2()],
                         ids=["marked", "unmarked", "unmarked_pairs"])
def test_lie_step_row_exponentials_match_one_point_calls(spec):
    # a row-marked exp_fn (the circle) is called once, the others per row;
    # either way the chain is the one-point chain bit for bit
    steps = np.random.default_rng(4).normal(size=(30, spec.dim))
    g0 = lie.GroupElement(spec.sample_fn(np.random.default_rng(5)))
    ts = np.arange(31) * 1.0
    ref = one_point_chain(spec, g0, steps, ts)
    for g, r in zip(numerics.lie_step(spec, g0, steps), ref):
        for a, b in zip(np.atleast_1d(g.payload) if spec.dim == 1 else g.payload,
                        np.atleast_1d(r.payload) if spec.dim == 1 else r.payload):
            assert np.array_equal(a, b)
    bad = steps.copy()
    bad[7, -1] = np.nan
    with pytest.raises(ValueError, match=r"row 7 at t = 7\.5$"):
        numerics.lie_step(spec, g0, bad, ts[:-1] + 0.5)


def test_maglag_row_energy_matches_per_point(beanie_params):
    sys = beanie_r2_system(beanie_params, 1.0 + 0.5j)
    assert numerics.rows_ok(sys.lagrangian, sys.dL_dv)
    traj = maglag.integrate(sys, MagLagState([0.4, 0.0], [0.3, 0.1], np.zeros(0)), 3.0, RK4)
    e0 = maglag.energy(sys, maglag.unpack(sys, traj.states[0]))
    rows = maglag.energies(sys, traj.states)
    points = [maglag.energy(sys, maglag.unpack(sys, y)) for y in traj.states]
    assert np.max(np.abs(rows - points)) <= ROW_TOL
    sampled = list(traj.states[::max(1, len(traj.states) // 400)]) + [traj.states[-1]]
    drift = max(abs(maglag.energy(sys, maglag.unpack(sys, y)) - e0) for y in sampled)
    assert abs(traj.report.entries["energy_drift"] - drift) <= ROW_TOL


def test_model_row_functions_match_per_state(rotor_params, beanie_params):
    rng = np.random.default_rng(11)
    rotor_states = rng.uniform(-2.0, 2.0, (50, 8))
    j = models.rotor_spatial_momentum(rotor_params, rotor_states)
    m = models.rotor_body_momentum(rotor_params, rotor_states)
    for s, j_row, m_row in zip(rotor_states, j, m):
        j_one = models.rotor_spatial_momentum(rotor_params, s)
        assert np.max(np.abs(j_row - j_one)) <= ROW_TOL
        assert np.max(np.abs(m_row - models.rotor_body_momentum(rotor_params, s))) <= ROW_TOL
    beanie_states = rng.uniform(-2.0, 2.0, (50, 8))
    nus, bs = models.beanie_momenta(beanie_params, beanie_states)
    energies = models.beanie_energy(beanie_params, beanie_states)
    for s, nu, b, e in zip(beanie_states, nus, bs, energies):
        nu1, b1 = models.beanie_momenta(beanie_params, s)
        assert isinstance(nu1, float) and isinstance(b1, complex)
        assert abs(nu - nu1) <= ROW_TOL and abs(b - b1) <= ROW_TOL
        assert abs(e - models.beanie_energy(beanie_params, s)) <= ROW_TOL


def test_oracle_states_equal_stacked_rates_field(rotor_params):
    # the oracle integrates the one-point chart field from the closed-form
    # momenta, and its stacked rate recovery matches that field's rates
    s0 = models.rotor_chart_state_from_momentum(rotor_params, np.array([0.8, 0.2, 0.3]),
                                                xdot=0.2)
    field = models.rotor_chart_field(rotor_params)
    for stepper in (StepperChoice(kind="rk4", h=1e-2), StepperChoice(kind="rkf45", h=1e-2)):
        traj = models.rotor_full_trajectory(rotor_params, s0, 1.0, stepper)
        y0 = np.concatenate([s0[:4], models._chart_momenta(rotor_params, s0)])
        times, ys = numerics.integrate_ode(field, y0, 0.0, 1.0, stepper)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states[:, :4], ys[:, :4])
        rates = np.array([field(t, y)[:4] for t, y in zip(times, ys)])
        assert np.max(np.abs(traj.states[:, 4:] - rates)) <= ROW_TOL


def quartic_lagrangian(c4=0.3, cx=0.2):
    """A Lagrangian whose callables take one point only (the quartic form of
    the benchmark's fd_supply workload)."""
    def ell(x, xd, xi):
        return (0.5 * float(xd @ xd) + 0.5 * float(xi @ xi)
                + c4 * float(xi @ xi) ** 2 + cx * x[0] * xi[0])

    def dell_dxi(x, xd, xi):
        return xi + 4.0 * c4 * float(xi @ xi) * xi + np.array([cx * x[0], 0.0])

    return routh.InvariantLagrangian(sdim=1, group=lie.translations(2), ell=ell,
                                     dell_dxi=dell_dxi)


def test_single_point_lagrangian_keeps_per_point_path():
    lag = quartic_lagrangian()
    assert lag.reduced_metric is None and not numerics.rows_ok(lag.ell, lag.dell_dxi)
    with pytest.raises((TypeError, ValueError)):  # one point only
        lag.ell(np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((3, 2)))
    nu0 = CoVector([0.5, -0.3])
    sys = routh.ReducedRouthSystem(lag, mu=nu0)
    s0 = routh.ReducedState([0.2], [0.4], nu0)
    traj = routh.integrate_reduced(sys, s0, 1.0, RK4)
    assert traj.report.entries == per_point_report(sys, traj, s0)
    assert traj.report.entries["energy_drift"] <= 1e-8


def quartic_rows(count=101, seed=12):
    """Stacked (x, xdot, nu) rows in the range of the benchmark's quartic
    requests."""
    rng = np.random.default_rng(seed)
    return (rng.uniform(-0.5, 0.5, (count, 1)), rng.uniform(-0.5, 0.5, (count, 1)),
            rng.uniform(-0.8, 0.8, (count, 2)))


def test_row_newton_inversion_is_solve_chi_per_row():
    lag = quartic_lagrangian()
    x, xd, nu = quartic_rows()
    chis = routh._chi(lag, x, xd, nu)
    points = [routh.solve_chi(lag, x[i], xd[i], CoVector(nu[i])).coords for i in range(len(x))]
    assert np.array_equal(chis, points)
    routhians = routh.routhians(lag, x, xd, nu)
    assert np.array_equal(routhians, [routh.routhian(lag, x[i], xd[i], CoVector(nu[i]))
                                      for i in range(len(x))])


def test_row_routhian_of_constant_metric_matches_per_point(beanie_params):
    lag = models.beanie_gv_lagrangian(beanie_params).inner
    rng = np.random.default_rng(13)
    x, xd = rng.uniform(-1, 1, (100, 1)), rng.uniform(-1, 1, (100, 1))
    nu = rng.uniform(-1.5, 1.5, (100, 3))
    rows = routh.routhians(lag, x, xd, nu)
    for i in range(len(x)):
        assert abs(rows[i] - routh.routhian(lag, x[i], xd[i], CoVector(nu[i]))) <= ROW_TOL


def test_row_newton_inversion_failure_names_t():
    # group metric x^2, singular at x = 0: the midpoint of the last
    # interval (t = 0.25) sits there
    lag = routh.InvariantLagrangian(
        sdim=1, group=lie.so3(),
        ell=lambda x, xd, xi: 0.5 * xd[0] ** 2 + 0.5 * x[0] ** 2 * float(xi @ xi),
        dell_dxi=lambda x, xd, xi: x[0] ** 2 * xi,
        d2_dxi_dxi=lambda x, xd, xi: x[0] ** 2 * np.eye(3))
    sys = routh.ReducedRouthSystem(lag, mu=CoVector([0.3, 0.1, 0.2]))
    ts = np.array([0.0, 0.1, 0.2, 0.3])
    ys = np.array([[0.5, 1.0, 0.3, 0.1, 0.2], [0.5, 1.0, 0.3, 0.1, 0.2],
                   [0.0, 1.0, 0.3, 0.1, 0.2], [0.0, 1.0, 0.3, 0.1, 0.2]])
    traj = maglag.Trajectory(ts, ys, routh.reduced_state_columns(1, 3))
    with pytest.raises(RegularityError, match=r"group regularity\): row 2: singular "
                                              r"Jacobian.* at t = 0.25$"):
        routh.reconstruct(sys, traj, lie.identity(lag.group))


def varying_metric_declared_constant():
    """Row callables whose group metric (1 + x^2) is not constant, declared
    constant: the linear momentum inversion is then wrong away from x = 0."""
    rowdot = numerics.rowdot

    @numerics.takes_rows
    def ell(x, xd, xi):
        return 0.5 * rowdot(xd, xd) + 0.5 * (1.0 + x[..., 0] ** 2) * rowdot(xi, xi)

    return routh.InvariantLagrangian(
        sdim=1, group=lie.so3(), ell=ell,
        dell_dxdot=numerics.takes_rows(lambda x, xd, xi: xd),
        dell_dxi=numerics.takes_rows(lambda x, xd, xi: (1.0 + x[..., :1] ** 2) * xi),
        constant_group_metric=True)


def test_false_constant_metric_raises_from_rows():
    lag = varying_metric_declared_constant()
    assert numerics.rows_ok(lag.ell, lag.dell_dxi)
    nu0 = CoVector([0.3, 0.1, 0.2])
    sys = routh.ReducedRouthSystem(lag, mu=nu0)
    with pytest.raises(RegularityError, match="not constant as declared at t = "):
        routh.integrate_reduced(sys, routh.ReducedState([0.0], [1.0], nu0), 0.5, RK4)
    ts = np.array([0.0, 0.1, 0.2])
    ys = np.array([[0.0, 1.0, 0.3, 0.1, 0.2], [0.0, 1.0, 0.3, 0.1, 0.2],
                   [0.5, 1.0, 0.3, 0.1, 0.2]])
    traj = maglag.Trajectory(ts, ys, routh.reduced_state_columns(1, 3))
    with pytest.raises(RegularityError, match="at t = 0.15"):
        routh.reconstruct(sys, traj, lie.identity(lag.group))


def f_string_csv(path, times, states, columns):
    """The formatter that write_csv replaced, one f-string per value."""
    with open(path, "w") as fh:
        fh.write("t," + ",".join(columns) + "\n")
        for t, row in zip(times, states):
            fh.write(",".join(f"{x:.17g}" for x in (t, *row)) + "\n")


@pytest.mark.parametrize("rows", [0, 1, 7, maglag.CSV_CHUNK_ROWS + 3])
def test_write_csv_matches_f_string_formatter(tmp_path, rows):
    rng = np.random.default_rng(rows)
    awkward = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1 / 3, 2 / 3,
                        3.0, -7.0, 1e16, 123456789012345678.0, math.pi, 1e-7,
                        float(np.nextafter(1.0, 2.0)), 0.1])
    times = np.arange(rows) * 0.01
    states = rng.choice(awkward, size=(rows, 5)) * rng.choice([1.0, -1.0], size=(rows, 5))
    if rows:
        states[0, :] = awkward[:5]
    columns = ("a", "b", "c", "d", "e")
    maglag.write_csv(tmp_path / "new.csv", times, states, columns)
    f_string_csv(tmp_path / "old.csv", times, states, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# -- row Newton ---------------------------------------------------------------


def cubic_rows(c):
    """Residual x^3 + x - c of each row (one system per row), and its
    Jacobian; rows converge after different numbers of steps."""
    def residual(x):
        return x ** 3 + x - c

    def jacobian(x):
        return (3.0 * x ** 2 + 1.0)[..., None] * np.eye(x.shape[-1])

    return residual, jacobian


def test_row_newton_is_newton_per_row():
    c = np.random.default_rng(4).uniform(-30.0, 30.0, (9, 2))
    c[3] = [2.0, 2.0]  # the seed x = 1 solves this row at once
    seed = np.ones_like(c)
    residual, jacobian = cubic_rows(c)
    res = numerics.newton_solve(residual, seed, jacobian)
    iterations = []
    for i in range(len(c)):
        r1, j1 = cubic_rows(c[i])
        one = numerics.newton_solve(r1, seed[i], j1)
        assert np.array_equal(res.x[i], one.x)
        iterations.append(one.iterations)
    assert iterations[3] == 0
    assert res.iterations == max(iterations)
    assert isinstance(res.iterations, int)
    assert res.residual_norm == pytest.approx(np.max(np.linalg.norm(residual(res.x), axis=1)))


def test_row_newton_error_names_the_first_failing_row():
    # x^2 + 1 = c has no root for c < 1, and those rows never converge
    c = np.array([[4.0], [0.5], [9.0], [0.5]])
    with pytest.raises(NewtonConvergenceError, match=r"^row 1: no convergence") as err:
        numerics.newton_solve(lambda x: x ** 2 + 1.0 - c, np.full((4, 1), 0.7),
                              lambda x: 2.0 * x[..., None])
    assert len(err.value.trace) == numerics.NEWTON_MAX_ITER + 1 == 51
    with pytest.raises(NewtonConvergenceError, match=r"^row 2: singular Jacobian"):
        numerics.newton_solve(lambda x: x - 1.0, np.zeros((3, 1)),
                              lambda x: np.array([[[1.0]], [[1.0]], [[0.0]]]))


# -- the row stencil of supply rule 2 -------------------------------------------


def recording_first():
    """dL/dv of L = v^T A v / 2 + q0 v0 p0 + sin(q0) v1, marked, recording
    the points it is called at."""
    a = np.array([[2.0, 0.3], [0.3, 1.5]])
    seen = []

    @numerics.takes_rows
    def dl_dv(q, v, p):
        seen.append(np.concatenate([np.atleast_2d(x) for x in (q, v, p)], axis=-1))
        extra = np.stack([q[..., 0] * p[..., 0], np.sin(q[..., 0])], axis=-1)
        return numerics.matvec(a, v) + extra

    return dl_dv, seen


@pytest.mark.parametrize("block", ["hess_vq", "hess_vv", "hess_vp"])
def test_rule2_row_stencil_points_and_values(block):
    dl_dv, seen = recording_first()
    lag = lambda q, v, p: 0.0  # noqa: E731  (never called by rule 2)
    rows = MagneticSystem(n=2, k=1, lagrangian=lag, dL_dv=dl_dv)
    one = MagneticSystem(n=2, k=1, lagrangian=lag, dL_dv=lambda *args: dl_dv(*args))
    assert numerics.rows_ok(getattr(rows, block), getattr(one, block))
    rng = np.random.default_rng(8)
    q, v, p = rng.uniform(-2, 2, (6, 2)), rng.uniform(-2, 2, (6, 2)), rng.uniform(-2, 2, (6, 1))
    stacked = getattr(rows, block)(q, v, p)
    as_bytes = lambda pts: sorted(map(np.ndarray.tobytes, pts))  # noqa: E731
    for i in range(6):
        seen.clear()
        point = getattr(rows, block)(q[i], v[i], p[i])
        row_points = np.concatenate(seen)
        seen.clear()
        reference = getattr(one, block)(q[i], v[i], p[i])
        # the same points bit for bit, in the same order
        assert list(map(tuple, row_points)) == list(map(tuple, np.concatenate(seen)))
        assert np.max(np.abs(point - reference)) <= ROW_TOL
        assert np.max(np.abs(stacked[i] - reference)) <= ROW_TOL
        # the three blocks in one dL/dv call: the union of the single-block
        # stencils, bit for bit, and the block of each single supply
        singles = []
        for name in ("hess_vv", "hess_vq", "hess_vp"):
            seen.clear()
            getattr(rows, name)(q[i], v[i], p[i])
            singles += list(np.concatenate(seen))
        seen.clear()
        joint = rows.velocity_blocks(q[i], v[i], p[i])
        assert len(seen) == 1
        assert as_bytes(seen[0]) == as_bytes(singles)
        index = ("hess_vv", "hess_vq", "hess_vp").index(block)
        assert joint[index].tobytes() == point.tobytes()


# -- the V-reduced system ------------------------------------------------------


def test_b_of_theta_takes_many_angles():
    sd = models.beanie_gv_lagrangian(models.BeanieParams())
    a = np.array([-0.55, 0.3])
    split = semidirect._QuadraticSplit(sd, CoVector(a))
    thetas = np.random.default_rng(3).uniform(-7.0, 7.0, 50)
    for rows in (True, False):  # one call for all angles, or one per angle
        split._rows = rows
        bs, bps = split.b_of_theta(thetas), split.db_dtheta(split.b_of_theta(thetas))
        for theta, b, bp in zip(thetas, bs, bps):
            rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            assert np.max(np.abs(b - rot.T @ a)) <= 1e-15
            assert np.max(np.abs(b - split.b_of_theta(theta))) <= ROW_TOL
            assert np.max(np.abs(bp - split.db_dtheta(split.b_of_theta(theta)))) <= ROW_TOL


@pytest.mark.parametrize("theta", [None, np.inf, -np.inf, np.nan])
def test_b_of_theta_is_the_numpy_chart(theta):
    # b = R(theta mod 2pi)^T a with R from np.mod, np.cos and np.sin: one
    # angle on floats and the rows on arrays give its bits, NaN when the
    # angle is not finite
    sd = models.beanie_gv_lagrangian(models.BeanieParams())
    a = np.array([-0.55, 0.3])
    split = semidirect._QuadraticSplit(sd, CoVector(a))
    thetas = (np.random.default_rng(5).uniform(-50.0, 50.0, 100_000) if theta is None
              else np.array([theta]))
    with np.errstate(invalid="ignore"):
        c, s = np.cos(np.mod(thetas, 2.0 * np.pi)), np.sin(np.mod(thetas, 2.0 * np.pi))
        expected = [np.array([[ci, -si], [si, ci]]).T @ a for ci, si in zip(c, s)]
        assert np.array_equal(split.b_of_theta(thetas), expected, equal_nan=True)
    assert np.array_equal([split.b_of_theta(t) for t in thetas], expected, equal_nan=True)


def test_abelian_reduced_row_callables_match_per_point():
    params = models.BeanieParams(m=0.74, i1=1.77, i2=0.91)
    sys = semidirect.abelian_reduced_system(models.beanie_gv_lagrangian(params),
                                            CoVector([-0.55, 0.3]))
    assert sys.constant_hessian
    rng = np.random.default_rng(2)
    q, v = rng.uniform(-3, 3, (40, 2)), rng.uniform(-2, 2, (40, 2))
    p, p0 = np.zeros((40, 0)), np.zeros(0)
    for fn in (sys.lagrangian, sys.dL_dv, sys.d2L_dv_dv, sys.grad_q,
               sys.grad_v, sys.hess_vv, sys.hess_vq, sys.hess_vp):
        assert numerics.rows_ok(fn)
        stacked = fn(q, v, p)
        for i in range(40):
            assert np.max(np.abs(stacked[i] - fn(q[i], v[i], p0)), initial=0.0) <= ROW_TOL
    forms = maglag.symplectic_form_matrix(sys, q, v, p)
    for i in range(40):
        assert np.array_equal(forms[i], maglag.symplectic_form_matrix(sys, q[i], v[i], p0))


def test_abelian_reduced_one_point_callables_are_their_rows():
    # one-point dL/dv and the lean one-point code of dL_dq_vq give the bits of a row
    params = models.BeanieParams(m=0.74, i1=1.77, i2=0.91)
    sys = semidirect.abelian_reduced_system(models.beanie_gv_lagrangian(params),
                                            CoVector([-0.55, 0.3]))
    rng = np.random.default_rng(6)
    q, v = rng.uniform(-3, 3, (40, 2)), rng.uniform(-2, 2, (40, 2))
    p, p0 = np.zeros((40, 0)), np.zeros(0)
    dl_dv, (dl_dq, d2l_dv_dq) = sys.dL_dv(q, v, p), sys.dL_dq_vq(q, v, p)
    for i in range(40):
        assert np.array_equal(sys.dL_dv(q[i], v[i], p0), dl_dv[i])
        point = sys.dL_dq_vq(q[i], v[i], p0)
        assert np.array_equal(point[0], dl_dq[i]) and np.array_equal(point[1], d2l_dv_dq[i])


def test_singular_constant_hessian_raises_before_the_first_step(monkeypatch):
    sys = MagneticSystem(
        n=2, k=0, lagrangian=lambda q, v, p: 0.5 * (v[0] + v[1]) ** 2 - 0.5 * float(q @ q),
        dL_dv=lambda q, v, p: np.full(2, v[0] + v[1]),
        d2L_dv_dv=lambda q, v, p: np.ones((2, 2)), constant_hessian=True)
    s0 = MagLagState([0.1, 0.2], [0.3, 0.4], np.zeros(0))
    with pytest.raises(RegularityError, match="singular velocity Hessian"):
        maglag._field_factory(sys, s0)
    stepped = []
    monkeypatch.setattr(numerics, "integrate_ode", lambda *args: stepped.append(args))
    with pytest.raises(RegularityError, match="singular velocity Hessian"):
        maglag.integrate(sys, s0, 1.0, RK4)
    assert not stepped
