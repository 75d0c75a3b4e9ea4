"""Magnetic Lagrangian systems: derivative supply, the mixed equations of
motion, integration monitors, and the closedness diagnostic."""
import numpy as np
import pytest

from magreduce import maglag, models, numerics, routh, semidirect
from magreduce.lie import CoVector
from magreduce.maglag import MagLagState, MagneticSystem, RegularityError
from magreduce.numerics import StepperChoice
from oracles import beanie_chart_system, beanie_r2_system, reduced_energy


def free_particle(n=2):
    return MagneticSystem(n=n, k=0,
                          lagrangian=lambda q, v, p: 0.5 * float(v @ v))


def charged_particle(c=1.5):
    """Planar kinetic Lagrangian with a constant magnetic 2-form c dq0^dq1."""
    bqq = np.array([[0.0, c], [-c, 0.0]])
    return MagneticSystem(
        n=2, k=0,
        lagrangian=lambda q, v, p: 0.5 * float(v @ v),
        bform=lambda q, p: (bqq, np.zeros((2, 0)), np.zeros((0, 0))),
        constant_bform=True)


def cubic_potential_system():
    """Plain mechanical system with a cubic potential: finite differences
    of the Lagrangian are exact through second order, which makes the
    independent EL oracle sharp."""
    v_of = lambda q: 0.3 * q[0] ** 3 + 0.5 * q[0] * q[1] ** 2 - q[1]
    return MagneticSystem(
        n=2, k=0,
        lagrangian=lambda q, v, p: 0.5 * float(v @ v) - v_of(q)), v_of


def test_legendre_kinetic():
    sys = free_particle()
    s = MagLagState([0.1, 0.2], [1.0, -2.0], [])
    assert np.max(np.abs(sys.grad_v(s.q, s.v, s.p) - s.v)) < 1e-9


def test_legendre_beanie_chart_vs_fd(beanie_params):
    sys = beanie_chart_system(beanie_params, 1.0, 1 + 0j)
    s = MagLagState([0.4], [0.3], [0.2, 1.1])
    fd = numerics.fd_gradient(lambda v: sys.value(s.q, v, s.p), s.v)
    assert np.max(np.abs(sys.grad_v(s.q, s.v, s.p) - fd)) < 1e-9


def test_legendre_metric_depending_on_fibre():
    # mechanical-type Lagrangian with a fibre-dependent metric M(p)
    def metric(p):
        return np.array([[1.0 + p[0] ** 2, 0.2 * p[0]],
                         [0.2 * p[0], 2.0]])

    sys = MagneticSystem(
        n=2, k=1,
        lagrangian=lambda q, v, p: 0.5 * float(v @ metric(p) @ v),
        bform=lambda q, p: (np.zeros((2, 2)), np.zeros((2, 1)),
                            np.zeros((1, 1))))
    s = MagLagState([0.0, 0.0], [0.7, -0.4], [0.9])
    expected = metric(s.p) @ s.v
    assert np.max(np.abs(sys.grad_v(s.q, s.v, s.p) - expected)) < 1e-9


def test_energy_mechanical():
    v_of = lambda q, p: 1.0 + q[0] ** 2 + p[0]
    sys = MagneticSystem(
        n=1, k=1,
        lagrangian=lambda q, v, p: 0.5 * float(v @ v) - v_of(q, p),
        bform=lambda q, p: (np.zeros((1, 1)), np.zeros((1, 1)),
                            np.zeros((1, 1))))
    # B_PP singular is irrelevant to energy evaluation
    s = MagLagState([0.3], [2.0], [0.1])
    e = maglag.energy(sys, s)
    assert abs(e - (0.5 * 4.0 + v_of(s.q, s.p))) < 1e-10


def test_energy_zero_velocity():
    sys = free_particle(1)
    sys2 = MagneticSystem(n=1, k=0, lagrangian=lambda q, v, p: 0.5 * v[0] ** 2 - q[0] ** 4)
    s = MagLagState([1.3], [0.0], [])
    assert abs(maglag.energy(sys2, s) + sys2.value(s.q, s.v, s.p)) < 1e-14


def test_energy_rotor_reduced_identity(rotor_params, rng):
    # <dR/dxdot, xdot> - R computed by finite differences on the Routhian;
    # R is quadratic in xdot, so a wide stencil has no truncation error
    lag = models.rotor_lagrangian(rotor_params)
    for _ in range(5):
        xd = rng.normal(size=1)
        m = CoVector(rng.normal(size=3))
        e = reduced_energy(lag, np.zeros(1), xd, m)
        r = routh.routhian(lag, np.zeros(1), xd, m)
        dr = numerics.fd_gradient(
            lambda z: routh.routhian(lag, np.zeros(1), z, m), xd, h0=1e-3)
        assert abs(e - (float(dr @ xd) - r)) < 1e-10


def test_vector_field_newton_dynamics():
    sys, v_of = cubic_potential_system()
    s = MagLagState([0.4, -0.2], [0.3, 0.8], [])
    v, a, pdot = maglag.vector_field(sys, s)
    grad = numerics.fd_gradient(lambda q: v_of(q), s.q)
    assert np.max(np.abs(a + grad)) < 1e-9
    assert pdot.size == 0


def test_vector_field_beanie_chart(beanie_params):
    sys = beanie_chart_system(beanie_params, 1.0, 1 + 0j)
    i1, i2 = beanie_params.i1, beanie_params.i2
    s = MagLagState([0.4], [0.3], [0.2, 1.1])
    v, a, pdot = maglag.vector_field(sys, s)
    alpha_dot_expected = (i2 * 0.3 - 1.1) / (i1 + i2)
    assert abs(pdot[1]) < 1e-14                     # nu is conserved
    assert abs(pdot[0] - alpha_dot_expected) < 1e-14


def test_vector_field_charged_particle():
    sys = charged_particle(c=1.5)
    s = MagLagState([0.0, 0.0], [0.7, -0.2], [])
    v, a, pdot = maglag.vector_field(sys, s)
    assert np.max(np.abs(a - np.array([1.5 * -0.2, -1.5 * 0.7]))) < 1e-9


def test_vector_field_substitution_residual(beanie_params):
    # plugging the solved accelerations back into both local equations
    sys = beanie_chart_system(beanie_params, 1.0, 1 + 0j)
    s = MagLagState([0.4], [0.3], [0.2, 1.1])
    v, a, pdot = maglag.vector_field(sys, s)
    bqq, bqp, bpp = sys.bblocks(s.q, s.p)
    res2 = bpp @ pdot - (bqp.T @ s.v - sys.grad_p(s.q, s.v, s.p))
    lhs = (sys.hess_vv(s.q, s.v, s.p) @ a + sys.hess_vq(s.q, s.v, s.p) @ s.v
           + sys.hess_vp(s.q, s.v, s.p) @ pdot)
    res1 = lhs - (sys.grad_q(s.q, s.v, s.p) + bqq @ s.v + bqp @ pdot)
    assert np.max(np.abs(res1)) < 1e-10
    assert np.max(np.abs(res2)) < 1e-10


def test_vector_field_degenerate_matches_fd_el_oracle():
    # with no fibre and no magnetic term, the field is plain Euler-Lagrange;
    # compare against a finite-difference oracle written out locally
    sys, _ = cubic_potential_system()
    s = MagLagState([0.4, -0.2], [0.3, 0.8], [])

    lag = lambda q, v: sys.value(q, v, np.zeros(0))
    hess = numerics.fd_second(lag, (s.q, s.v), 1, 1, h0=1e-3)
    grad_q = numerics.fd_gradient(lambda q: lag(q, s.v), s.q)

    def mixed_entry(i, j, hv=1e-3, hq=1e-4):
        vp, vm = s.v.copy(), s.v.copy()
        vp[i] += hv
        vm[i] -= hv
        qp, qm = s.q.copy(), s.q.copy()
        qp[j] += hq
        qm[j] -= hq
        return (lag(qp, vp) - lag(qm, vp) - lag(qp, vm) + lag(qm, vm)) / (4 * hv * hq)

    mixed = np.array([[mixed_entry(i, j) for j in range(2)] for i in range(2)])
    oracle = np.linalg.solve(hess, grad_q - mixed @ s.v)
    _, a, _ = maglag.vector_field(sys, s)
    assert np.max(np.abs(a - oracle)) < 1e-8


def test_integrate_free_particle(rk4_fine):
    sys = free_particle()
    s0 = MagLagState([0.0, 1.0], [0.5, -0.3], [])
    traj = maglag.integrate(sys, s0, 1.0, rk4_fine)
    expected = s0.q + s0.v * 1.0
    assert np.max(np.abs(traj.states[-1][:2] - expected)) < 1e-10


def test_integrate_charged_particle_circle(rk4_fine):
    c = 1.5
    sys = charged_particle(c)
    v0 = np.array([0.8, 0.0])
    s0 = MagLagState([0.0, 0.0], v0, [])
    period = 2 * np.pi / c
    traj = maglag.integrate(sys, s0, period, rk4_fine)
    # the orbit is a circle of radius |v0|/c; check the return to start
    # and the radius at the quarter period
    assert np.max(np.abs(traj.states[-1] - traj.states[0])) < 1e-6
    radius = np.linalg.norm(v0) / c
    center = traj.states[0][:2] + np.array([0.0, -radius])  # force is (cv2,-cv1)
    dists = np.linalg.norm(traj.states[:, :2] - center, axis=1)
    assert np.max(np.abs(dists - radius)) < 1e-6


def test_integrate_energy_conservation(beanie_params):
    sys = beanie_chart_system(beanie_params, 1.0, 1 + 0j)
    s0 = MagLagState([0.4], [0.3], [0.0, 1.0])
    traj = maglag.integrate(sys, s0, 10.0, StepperChoice(kind="rk4", h=1e-3))
    e0 = maglag.energy(sys, s0)
    assert traj.report.entries["energy_drift"] <= 1e-8 * (1.0 + abs(e0))


def test_integrate_regularity_abort_reports_time():
    # the fibre block degenerates when q crosses 1; the integration must
    # abort and name the time
    def bform(q, p):
        f = 1.0 - q[0]
        return (np.zeros((1, 1)), np.zeros((1, 2)),
                np.array([[0.0, f], [-f, 0.0]]))

    sys = MagneticSystem(n=1, k=2,
                         lagrangian=lambda q, v, p: 0.5 * v[0] ** 2,
                         bform=bform)
    s0 = MagLagState([0.0], [1.0], [0.0, 0.0])
    with pytest.raises(RegularityError) as err:
        maglag.integrate(sys, s0, 2.0, StepperChoice(kind="rk4", h=1e-2))
    assert str(err.value) == "singular fibre block: |det B_PP| = 4.437e-31 <= 1e-12 at t = 0.99"


def test_vector_field_singular_hessian_named():
    sys = MagneticSystem(n=1, k=0, lagrangian=lambda q, v, p: v[0] ** 3 / 3.0)
    with pytest.raises(RegularityError) as err:
        maglag.vector_field(sys, MagLagState([0.0], [0.0], []))
    assert "d2L/dv2" in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("t", [None, 1.5])
def test_require_regular_rejects_non_finite_determinant(bad, t):
    # t: None checks the matrix directly, else a right-hand side checks it
    # in an RK4 run that starts at t
    matrix = np.array([[1.0, 0.0], [0.0, bad]])

    def field(t, y):
        maglag.require_regular(matrix, "|det M|")
        return y

    with np.errstate(invalid="ignore"), pytest.raises(
            RegularityError, match=r"^\|det M\| = (nan|inf) is not finite") as err:
        if t is None:
            maglag.require_regular(matrix, "|det M|")
        else:
            numerics.rk4_integrate(field, np.zeros(1), t, t + 1.0, 0.5)
    assert ("at t = 1.5" in str(err.value)) == (t is not None)


def test_bblocks_reject_symmetric_parts(rng):
    # feeding a symmetric component must be rejected, not silently fixed
    sym = rng.normal(size=(2, 2))
    sym = sym + sym.T
    sys = MagneticSystem(
        n=2, k=0,
        lagrangian=lambda q, v, p: 0.5 * float(v @ v),
        bform=lambda q, p: (sym, np.zeros((2, 0)), np.zeros((0, 0))))
    with pytest.raises(ValueError):
        maglag.vector_field(sys, MagLagState([0.0, 0.0], [1.0, 0.0], []))

    sys2 = MagneticSystem(
        n=1, k=2,
        lagrangian=lambda q, v, p: 0.5 * v[0] ** 2 + p[0],
        bform=lambda q, p: (np.zeros((1, 1)), np.zeros((1, 2)),
                            np.array([[0.1, 1.0], [-1.0, 0.0]])))
    with pytest.raises(ValueError):
        maglag.vector_field(sys2, MagLagState([0.0], [1.0], [0.0, 0.0]))


def test_check_closedness_constant_blocks():
    sys = charged_particle()
    samples = [MagLagState([0.1, 0.2], [0.0, 0.0], []),
               MagLagState([-1.0, 0.5], [0.0, 0.0], [])]
    assert maglag.check_closedness(sys, samples) < 1e-12


def test_check_closedness_exact_form():
    # B = d(theta) for theta = (q0^2 q1) dq0 + (q0 p0) dp0 on a k=1 bundle:
    # closed by construction, so the residual is pure truncation
    def theta(z):
        q0, q1, p0 = z
        return np.array([q0 ** 2 * q1, 0.0, q0 * p0])

    def bform(q, p):
        z = np.concatenate([q, p])
        full = numerics.fd_exterior_derivative(theta, z, 1e-5)
        return full[:2, :2], full[:2, 2:], full[2:, 2:]

    sys = MagneticSystem(n=2, k=1,
                         lagrangian=lambda q, v, p: 0.5 * float(v @ v),
                         bform=bform)
    samples = [MagLagState([0.3, -0.4], [0, 0], [0.8]),
               MagLagState([1.1, 0.6], [0, 0], [-0.5])]
    assert maglag.check_closedness(sys, samples) < 1e-6


def test_check_closedness_flags_non_closed():
    # B_QP depending asymmetrically on q is not closed
    def bform(q, p):
        return (np.zeros((2, 2)), np.array([[q[1] ** 2], [0.0]]),
                np.zeros((1, 1)))

    sys = MagneticSystem(n=2, k=1,
                         lagrangian=lambda q, v, p: 0.5 * float(v @ v) + p[0],
                         bform=bform)
    samples = [MagLagState([0.5, 1.2], [0, 0], [0.1])]
    assert maglag.check_closedness(sys, samples) > 1e-2


def test_check_closedness_rejects_non_finite_derivative():
    # finite at q1 = 1.2, NaN at the stencil point q1 + 1e-4
    def bform(q, p):
        return (np.zeros((2, 2)), np.array([[np.sqrt(1.20001 - q[1])], [0.0]]),
                np.zeros((1, 1)))

    sys = MagneticSystem(n=2, k=1,
                         lagrangian=lambda q, v, p: 0.5 * float(v @ v) + p[0],
                         bform=bform)
    samples = [MagLagState([0.5, 1.0], [0, 0], [0.1]),
               MagLagState([0.5, 1.2], [0, 0], [0.1])]
    assert np.isfinite(maglag.check_closedness(sys, samples[:1]))
    with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match=r"^row 1: non-finite evaluation while "
                              r"differencing coordinate 1$"):
        maglag.check_closedness(sys, samples)


def test_trajectory_csv_format(tmp_path, rk4_fine):
    sys = free_particle(1)
    traj = maglag.integrate(sys, MagLagState([0.0], [1.0], []), 0.01, rk4_fine)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,q0,v0"
    # 17 significant digits survive a round trip
    row = lines[2].split(",")
    assert float(row[1]) == traj.states[1][0]


def test_state_dimension_mismatch():
    sys = free_particle(2)
    with pytest.raises(ValueError):
        maglag.vector_field(sys, MagLagState([0.0], [1.0], []))


def test_check_closedness_rejects_empty_samples():
    with pytest.raises(ValueError, match="sample_states"):
        maglag.check_closedness(charged_particle(), [])


# -- the k = 0 right-hand side -------------------------------------------------


def k0_systems():
    params = models.BeanieParams(m=0.74, i1=1.77, i2=0.91)
    return [semidirect.abelian_reduced_system(models.beanie_gv_lagrangian(params),
                                              CoVector([-0.55, 0.3])),
            beanie_r2_system(params, -0.55 + 0.3j)]


@pytest.mark.parametrize("index", [0, 1], ids=["v_reduced", "beanie_r2"])
def test_k0_field_is_vector_field_bit_for_bit(index):
    sys = k0_systems()[index]
    ys = np.random.default_rng(8).uniform(-2.5, 2.5, (200, 4))
    field = maglag._field_factory(sys, maglag.unpack(sys, ys[0]))
    for y in ys:
        v, a, pdot = maglag.vector_field(sys, maglag.unpack(sys, y))
        assert pdot.size == 0
        assert np.array_equal(field(0.0, y), np.concatenate([v, a]))


@pytest.mark.parametrize("index", [0, 1], ids=["v_reduced", "beanie_r2"])
def test_k0_form_free_field_makes_one_jet_call_and_no_solve(index, monkeypatch):
    # no fibre equation, no B term and, with a constant Hessian, no solve:
    # the integrator's field and vector_field alike
    sys = k0_systems()[index]
    y = np.array([0.4, -1.2, 0.3, 0.7])
    field = maglag._field_factory(sys, maglag.unpack(sys, y))
    calls = []
    jet = sys.jet
    sys.__dict__["jet"] = lambda *args: calls.append("jet") or jet(*args)
    monkeypatch.setattr(MagneticSystem, "bblocks", lambda *args: calls.append("bblocks"))
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append("solve"))
    for y in (y, np.array([-2.0, 0.5, 1.1, -0.3])):
        calls.clear()
        assert np.all(np.isfinite(field(0.0, y)))
        assert calls == ["jet"]
        calls.clear()
        maglag.vector_field(sys, maglag.unpack(sys, y))  # the same path
        assert calls == ["jet"]


def regular(matrix) -> bool:
    """Whether require_regular passes `matrix`."""
    try:
        maglag.require_regular(matrix, "|det M|")
    except RegularityError:
        return False
    return True


@pytest.mark.parametrize("n", [1, 2, 3])
def test_require_regular_decides_as_lapack_det(n):
    # |det| of a 1x1 or 2x2 block is its closed form, LAPACK's above that;
    # the pass or raise decision is that of abs(np.linalg.det) on blocks
    # whose |det| spans the floor, and on blocks scaled to |det| =
    # 1e-12 (1 +- 1e-3) just either side of it
    rng = np.random.default_rng(70 + n)
    blocks = rng.normal(size=(10_000, n, n)) * 10.0 ** rng.uniform(-18.0 / n, 1.0, (10_000, 1, 1))
    decided = [regular(m) for m in blocks]
    assert decided == [maglag.DET_FLOOR < abs(np.linalg.det(m)) < np.inf for m in blocks]
    assert 1_000 < sum(decided) < 9_000
    sides = rng.choice([1.0 - 1e-3, 1.0 + 1e-3], 2_000)
    unit = rng.normal(size=(2_000, n, n))
    scale = (1e-12 * sides / np.abs(np.linalg.det(unit))) ** (1.0 / n)
    for m, side in zip(unit * scale[:, None, None], sides):
        assert regular(m) == (maglag.DET_FLOOR < abs(np.linalg.det(m)) < np.inf) == (side > 1.0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_require_regular_small_blocks_reject_non_finite_entries(n, bad):
    for at in {(n - 1, n - 1), (0, n - 1)}:
        matrix = np.eye(n)
        matrix[at] = bad
        with np.errstate(invalid="ignore"), pytest.raises(
                RegularityError, match=r"^\|det M\| = (nan|inf) is not finite$"):
            maglag.require_regular(matrix, "|det M|")


@pytest.mark.parametrize("kind", ["rk4", "rkf45"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 0.0, -1.0])
def test_integrate_refuses_a_non_finite_horizon(kind, bad):
    # no start sample with a zero energy drift comes back as if integrated,
    # from an empty or reversed horizon either
    with pytest.raises(ValueError, match=rf"^t_end must be positive and finite, got {bad}$"):
        maglag.integrate(free_particle(), MagLagState(np.zeros(2), np.ones(2), np.zeros(0)),
                         bad, StepperChoice(kind=kind, h=0.1))
