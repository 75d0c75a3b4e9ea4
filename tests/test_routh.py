"""Product-space reduction: momentum map, the inverse-momentum solver, the
reduced Lagrangian and flow, orbit pairing, and reconstruction."""
import numpy as np
import pytest

from magreduce import lie, maglag, models, numerics, routh
from magreduce.lie import AlgebraVector, CoVector
from magreduce.maglag import RegularityError
from magreduce.numerics import StepperChoice


def abelian_lagrangian(sdim=1, gdim=2):
    """Shape oscillator coupled to an abelian group with identity metric."""
    return routh.quadratic_invariant_lagrangian(
        sdim, lie.translations(gdim),
        a_block=np.eye(sdim), b_block=np.zeros((sdim, gdim)),
        c_block=np.eye(gdim),
        potential=lambda x: 0.5 * float(np.atleast_1d(x)[0] ** 2),
        dpotential=lambda x: np.atleast_1d(x))


def generic_lagrangian():
    """Non-mechanical invariant Lagrangian (quartic in the group velocity)
    exercising the Newton path of the momentum inversion."""
    spec = lie.translations(2)

    def ell(x, xd, xi):
        return (0.5 * float(xd @ xd) + 0.5 * float(xi @ xi)
                + 0.05 * float(xi @ xi) ** 2 + 0.1 * x[0] * xi[0])

    def dell_dxi(x, xd, xi):
        return xi + 0.2 * float(xi @ xi) * xi + np.array([0.1 * x[0], 0.0])

    return routh.InvariantLagrangian(sdim=1, group=spec, ell=ell,
                                     dell_dxi=dell_dxi)


def test_momentum_map_identity_is_fibre_derivative(rotor_params, rng):
    lag = models.rotor_lagrangian(rotor_params)
    xd = rng.normal(size=1)
    w = rng.normal(size=3)
    out = routh.momentum_map(lag, np.zeros(1), xd, lie.identity(lie.so3()),
                             AlgebraVector(w))
    assert np.max(np.abs(out.coords - lag.group_momentum(np.zeros(1), xd, w))) < 1e-14


def test_momentum_map_rotor_display(rotor_params, rng):
    lam = rotor_params.lam
    j3 = rotor_params.inertia_rotor[2]
    lag = models.rotor_lagrangian(rotor_params)
    for _ in range(20):
        xd = rng.normal(size=1)
        w = rng.normal(size=3)
        f2 = lag.group_momentum(np.zeros(1), xd, w)
        expected = np.array([lam[0] * w[0], lam[1] * w[1],
                             lam[2] * w[2] + j3 * xd[0]])
        assert np.max(np.abs(f2 - expected)) < 1e-12


def test_momentum_map_equivariance(rotor_params, rng):
    spec = lie.so3()
    lag = models.rotor_lagrangian(rotor_params)
    for _ in range(100):
        g = lie.sample_element(spec, rng)
        gp = lie.sample_element(spec, rng)
        xd = rng.normal(size=1)
        xi = AlgebraVector(rng.normal(size=3))
        left = routh.momentum_map(lag, np.zeros(1), xd,
                                  lie.compose(spec, gp, g), xi)
        right = lie.coadjoint(spec, lie.inverse(spec, gp),
                              routh.momentum_map(lag, np.zeros(1), xd, g, xi))
        assert np.max(np.abs(left.coords - right.coords)) <= 1e-10


def test_solve_chi_rotor_closed_form(rotor_params, rng):
    lam = rotor_params.lam
    j3 = rotor_params.inertia_rotor[2]
    lag = models.rotor_lagrangian(rotor_params)
    for _ in range(20):
        xd = rng.normal(size=1)
        m = rng.normal(size=3)
        chi = routh.solve_chi(lag, np.zeros(1), xd, CoVector(m)).coords
        expected = np.array([m[0] / lam[0], m[1] / lam[1],
                             (m[2] - j3 * xd[0]) / lam[2]])
        assert np.max(np.abs(chi - expected)) < 1e-12


def test_solve_chi_identity_metric(rng):
    lag = abelian_lagrangian()
    nu = CoVector(rng.normal(size=2))
    chi = routh.solve_chi(lag, [0.2], [0.1], nu)
    assert np.max(np.abs(chi.coords - nu.coords)) < 1e-12


def test_solve_chi_round_trip_random_mechanical(rng):
    # random SPD group metrics; the round trip holds at 1e-10
    for _ in range(100):
        w = rng.normal(size=(3, 3))
        c = w @ w.T + 3.0 * np.eye(3)
        b = rng.normal(size=(1, 3))
        lag = routh.quadratic_invariant_lagrangian(
            1, lie.so3(), a_block=[[2.0 + rng.uniform()]], b_block=b, c_block=c)
        xd = rng.normal(size=1)
        nu = CoVector(rng.normal(size=3))
        chi = routh.solve_chi(lag, np.zeros(1), xd, nu)
        back = lag.group_momentum(np.zeros(1), xd, chi.coords)
        assert np.max(np.abs(back - nu.coords)) <= 1e-10


def test_solve_chi_newton_path_round_trip(rng):
    lag = generic_lagrangian()
    for _ in range(50):
        x = rng.normal(size=1)
        xd = rng.normal(size=1)
        nu = CoVector(rng.normal(size=2))
        chi = routh.solve_chi(lag, x, xd, nu)
        back = lag.group_momentum(x, xd, chi.coords)
        assert np.max(np.abs(back - nu.coords)) <= 1e-10


def test_routhian_zero_state():
    params = models.RotorParams(inertia_body=(2.0, 2.0, 1.0),
                                inertia_rotor=(0.0, 0.0, 1.0))
    lag = models.rotor_lagrangian(params)
    r = routh.routhian(lag, np.zeros(1), np.zeros(1), CoVector(np.zeros(3)))
    assert abs(r) < 1e-15


def test_routhian_rotor_display(rotor_params, rng):
    lam = rotor_params.lam
    j3 = rotor_params.inertia_rotor[2]
    i3 = rotor_params.inertia_body[2]
    lag = models.rotor_lagrangian(rotor_params)
    for _ in range(100):
        xd = rng.normal(size=1)
        m = rng.normal(size=3)
        r = routh.routhian(lag, np.zeros(1), xd, CoVector(m))
        expected = (0.5 * (j3 * i3 / lam[2] * xd[0] ** 2
                           - m[0] ** 2 / lam[0] - m[1] ** 2 / lam[1]
                           - m[2] ** 2 / lam[2])
                    + j3 / lam[2] * xd[0] * m[2])
        assert abs(r - expected) <= 1e-10


def test_routhian_cross_formula(rotor_params, rng):
    lag = models.rotor_lagrangian(rotor_params)
    for _ in range(100):
        xd = rng.normal(size=1)
        m = CoVector(rng.normal(size=3))
        assert abs(routh.routhian(lag, np.zeros(1), xd, m)
                   - routh.routhian_mechanical(lag, np.zeros(1), xd, m)) <= 1e-10


def test_routhian_mechanical_requires_flag():
    lag = generic_lagrangian()
    with pytest.raises(ValueError):
        routh.routhian_mechanical(lag, [0.0], [0.0], CoVector([0.0, 0.0]))


def test_routhian_mechanical_pure_potential():
    lag = abelian_lagrangian()
    r = routh.routhian_mechanical(lag, [0.7], np.zeros(1), CoVector(np.zeros(2)))
    assert abs(r + 0.5 * 0.49) < 1e-12


def test_reduced_field_rotor_displays(rotor_params, rng):
    sys = models.rotor_reduced_system(rotor_params, CoVector([1.0, 0.0, 0.0]))
    for _ in range(100):
        x = rng.normal(size=1)
        xd = rng.normal(size=1)
        m = rng.normal(size=3)
        st = routh.ReducedState(x, xd, CoVector(m))
        _, xdd, nudot = routh.reduced_vector_field(sys, st)
        mdot, xdd_exp = models.rotor_reduced_field_closed_form(rotor_params, x, xd, m)
        assert np.max(np.abs(nudot.coords - mdot)) <= 1e-10
        assert abs(xdd[0] - xdd_exp) <= 1e-10


def test_reduced_field_abelian_plain_el():
    lag = abelian_lagrangian()
    sys = routh.ReducedRouthSystem(lag, mu=CoVector(np.zeros(2)))
    st = routh.ReducedState([0.4], [0.1], CoVector(np.zeros(2)))
    xdot, xdd, nudot = routh.reduced_vector_field(sys, st)
    assert np.array_equal(nudot.coords, np.zeros(2))
    assert abs(xdd[0] + 0.4) < 1e-12      # plain oscillator on the shape


def test_reduced_field_right_invariant_sign(rotor_params):
    lag = models.rotor_lagrangian(rotor_params)
    st = routh.ReducedState([0.0], [0.3], CoVector([0.5, -0.2, 0.8]))
    left = routh.ReducedRouthSystem(lag, mu=st.nu, side="left")
    right = routh.ReducedRouthSystem(lag, mu=st.nu, side="right")
    _, _, nudot_l = routh.reduced_vector_field(left, st)
    _, _, nudot_r = routh.reduced_vector_field(right, st)
    assert np.max(np.abs(nudot_l.coords + nudot_r.coords)) < 1e-14


def test_reduced_field_momentum_equation_residual(rotor_params, rng):
    # the momentum equation holds against a basis-duality oracle at 1e-12
    lag = models.rotor_lagrangian(rotor_params)
    sys = routh.ReducedRouthSystem(lag, mu=CoVector([1.0, 0, 0]))
    eye = np.eye(3)
    for _ in range(20):
        st = routh.ReducedState(rng.normal(size=1), rng.normal(size=1),
                                CoVector(rng.normal(size=3)))
        _, _, nudot = routh.reduced_vector_field(sys, st)
        chi = routh.solve_chi(lag, st.x, st.xdot, st.nu)
        for j in range(3):
            eta = AlgebraVector(eye[j])
            lhs = nudot.coords[j]
            rhs = lie.pair(st.nu, lie.bracket(lie.so3(), chi, eta))
            assert abs(lhs - rhs) <= 1e-12


def test_casimir_derivative_pointwise(rotor_params, rng):
    sys = models.rotor_reduced_system(rotor_params, CoVector([1.0, 0, 0]))
    for _ in range(50):
        st = routh.ReducedState(rng.normal(size=1), rng.normal(size=1),
                                CoVector(rng.normal(size=3)))
        _, _, nudot = routh.reduced_vector_field(sys, st)
        # d|m|^2/dt = 2 m . mdot vanishes by the triple-product identity
        assert abs(2.0 * st.nu.coords @ nudot.coords) <= 1e-12


def test_integrate_reduced_relative_equilibrium(rotor_params, rk4_fine):
    m0 = CoVector([0.0, 0.0, 0.7])
    sys = models.rotor_reduced_system(rotor_params, m0)
    traj = routh.integrate_reduced(sys, routh.ReducedState([0.0], [0.3], m0),
                                   2.0, rk4_fine)
    assert np.max(np.abs(traj.states[:, 2:] - m0.coords)) < 1e-12
    assert np.max(np.abs(traj.states[:, 1] - 0.3)) < 1e-12


def test_integrate_reduced_monitors(rotor_params):
    m0 = CoVector([0.8, 0.2, 0.3])
    sys = models.rotor_reduced_system(rotor_params, m0)
    traj = routh.integrate_reduced(sys, routh.ReducedState([0.0], [0.2], m0),
                                   10.0, StepperChoice(kind="rk4", h=1e-3))
    norms = np.linalg.norm(traj.states[:, 2:], axis=1)
    assert np.max(np.abs(norms - norms[0])) <= 1e-9
    assert traj.report.entries["casimir_momentum_norm_drift"] <= 1e-9
    assert traj.report.entries["energy_drift"] <= 1e-8


def test_kks_form_antisymmetry_and_bilinearity(rng):
    spec = lie.so3()
    for _ in range(50):
        nu = CoVector(rng.normal(size=3))
        a = AlgebraVector(rng.normal(size=3))
        b = AlgebraVector(rng.normal(size=3))
        assert routh.kks_form(spec, nu, a, a) == 0.0
        lhs = routh.kks_form(spec, nu, a, b)
        assert abs(lhs + routh.kks_form(spec, nu, b, a)) <= 1e-14
        two = routh.kks_form(spec, nu, 2.0 * a, b)
        assert abs(two - 2.0 * lhs) <= 1e-14 * max(1.0, abs(lhs))


def test_kks_form_so3_example():
    val = routh.kks_form(lie.so3(), CoVector([0, 0, 1.0]),
                         AlgebraVector([1.0, 0, 0]), AlgebraVector([0, 1.0, 0]))
    assert abs(val - 1.0) < 1e-15


def test_reconstruct_zero_velocity_stays():
    lag = abelian_lagrangian()
    sys = routh.ReducedRouthSystem(lag, mu=CoVector(np.zeros(2)))
    traj = routh.integrate_reduced(sys, routh.ReducedState([0.2], [0.0],
                                                           CoVector(np.zeros(2))),
                                   1.0, StepperChoice(kind="rk4", h=1e-2))
    g0 = lie.identity(lie.translations(2))
    gs = routh.reconstruct(sys, traj, g0)
    assert np.max(np.abs(gs[-1].payload)) < 1e-14


def test_reconstruct_rotor_momentum_conservation(rotor_params):
    m0 = CoVector([0.8, 0.2, 0.3])
    sys = models.rotor_reduced_system(rotor_params, m0)
    traj = routh.integrate_reduced(sys, routh.ReducedState([0.0], [0.2], m0),
                                   10.0, StepperChoice(kind="rk4", h=1e-3))
    spec = lie.so3()
    gs = routh.reconstruct(sys, traj, lie.identity(spec))
    mu = m0.coords
    worst = 0.0
    for i in range(0, len(gs), 200):
        nu_t = CoVector(traj.states[i, 2:])
        j = lie.coadjoint(spec, lie.inverse(spec, gs[i]), nu_t)
        worst = max(worst, float(np.max(np.abs(j.coords - mu))))
    assert worst <= 1e-6


def test_quadratic_lagrangian_matches_fd_twin(rng):
    # the analytic supply agrees with a purely FD-backed twin
    c = np.diag([2.0, 3.0, 1.5])
    b = np.array([[0.3, -0.2, 0.5]])
    lag = routh.quadratic_invariant_lagrangian(
        1, lie.so3(), [[1.7]], b, c,
        potential=lambda x: float(np.cos(x[0])),
        dpotential=lambda x: np.array([-np.sin(x[0])]))
    twin = routh.InvariantLagrangian(sdim=1, group=lie.so3(), ell=lag.ell)
    x, xd = rng.normal(size=1), rng.normal(size=1)
    xi = rng.normal(size=3)
    assert np.max(np.abs(lag.grad_x(x, xd, xi) - twin.grad_x(x, xd, xi))) < 1e-8
    assert np.max(np.abs(lag.group_momentum(x, xd, xi)
                         - twin.group_momentum(x, xd, xi))) < 1e-8
    assert np.max(np.abs(lag.jac_xi_xi(x, xd, xi)
                         - twin.jac_xi_xi(x, xd, xi))) < 1e-5


def test_validate_mechanical(rotor_params, rng):
    lag = models.rotor_lagrangian(rotor_params)
    samples = [(rng.normal(size=1), rng.normal(size=1), rng.normal(size=3))
               for _ in range(10)]
    routh.validate_mechanical(lag, samples)   # positive metric passes
    bad = routh.quadratic_invariant_lagrangian(
        1, lie.so3(), [[1.0]], [[0.0, 0.0, 0.0]], np.diag([1.0, 1.0, -0.5]))
    with pytest.raises(ValueError, match="positive definite"):
        routh.validate_mechanical(bad, samples)


def test_g_regularity_error_reported():
    spec = lie.translations(1)

    def ell(x, xd, xi):
        return 0.5 * float(xd @ xd) + np.exp(xi[0])  # dell/dxi never reaches -1

    lag = routh.InvariantLagrangian(sdim=1, group=spec, ell=ell)
    with pytest.raises(RegularityError):
        routh.solve_chi(lag, [0.0], [0.0], CoVector([-1.0]))


def step_lagrangian(group_metric_drops: bool):
    """ell = 1/2 a(x) xdot^2 + 1/2 c(x) xi^2 with a or c dropping from 1 to 0
    at x = 0.5; from x = 0, xdot = 1 the shape moves as x = t."""
    def drop(x):
        return 1.0 if x[0] < 0.5 else 0.0

    def a(x):
        return 1.0 if group_metric_drops else drop(x)

    def c(x):
        return drop(x) if group_metric_drops else 1.0

    zero = lambda x, xd, xi: np.zeros((1, 1))  # noqa: E731
    return routh.InvariantLagrangian(
        sdim=1, group=lie.translations(1),
        ell=lambda x, xd, xi: 0.5 * a(x) * xd[0] ** 2 + 0.5 * c(x) * xi[0] ** 2,
        dell_dx=lambda x, xd, xi: np.zeros(1),
        dell_dxdot=lambda x, xd, xi: a(x) * xd,
        dell_dxi=lambda x, xd, xi: c(x) * xi,
        d2_dxdot_dx=zero, d2_dxi_dx=zero, d2_dxi_dxdot=zero,
        d2_dxdot_dxdot=lambda x, xd, xi: np.array([[a(x)]]),
        d2_dxi_dxi=lambda x, xd, xi: np.array([[c(x)]]))


@pytest.mark.parametrize("group_metric_drops, nu, what", [
    (True, 0.0, "singular group metric"),
    (True, 0.3, "group-velocity inversion failed"),  # Newton meets it first
    (False, 0.0, "singular Routhian Hessian")])
def test_regularity_error_mid_trajectory_names_t(group_metric_drops, nu, what):
    lag = step_lagrangian(group_metric_drops)
    nu = CoVector([nu])
    sys = routh.ReducedRouthSystem(lag, mu=nu)
    with pytest.raises(RegularityError) as err:
        routh.integrate_reduced(sys, routh.ReducedState([0.0], [1.0], nu), 1.0,
                                StepperChoice(kind="rk4", h=0.1))
    assert what in str(err.value)
    # the start of the step whose last stage meets x = 0.5
    assert str(err.value).endswith("at t = 0.4")


# -- the compiled momentum inversion of a constant metric --------------------

A_BLK = np.array([[1.5, 0.2], [0.2, 0.9]])
B_BLK = np.array([[0.3, -0.1, 0.2], [0.0, 0.4, -0.2]])
C_BLK = np.array([[2.0, 0.1, 0.0], [0.1, 1.5, 0.2], [0.0, 0.2, 1.2]])
LINEAR = np.array([0.3, -0.5, 0.2])
D_BLK = np.array([[0.4, 0.0, -0.3], [0.1, 0.2, 0.0]])


@numerics.takes_rows
def affine_ell(x, xd, xi):
    """1/2 xd.A xd + xd.B xi + 1/2 xi.C xi + <c, xi> + x.D xi + cos x0 cos x1
    on SO(3) with two shape coordinates: a constant metric whose momentum
    B^T xd + C xi + c + D^T x has an offset and a constant d2ell/dxi dx."""
    rowdot = numerics.rowdot
    return (rowdot(0.5 * xd @ A_BLK, xd) + rowdot(xd @ B_BLK, xi)
            + rowdot(0.5 * xi @ C_BLK, xi) + xi @ LINEAR + rowdot(x @ D_BLK, xi)
            + np.cos(x[..., 0]) * np.cos(x[..., 1]))


def affine_lagrangian(constant: bool = True, supply: str = "analytic"):
    """`affine_ell` with analytic derivatives, with its first derivatives
    only (blocks by rule 2), or values only (rule 3)."""
    rows = numerics.takes_rows
    first = dict(
        dell_dx=rows(lambda x, xd, xi: xi @ D_BLK.T - np.stack(
            [np.sin(x[..., 0]) * np.cos(x[..., 1]), np.cos(x[..., 0]) * np.sin(x[..., 1])], -1)),
        dell_dxdot=rows(lambda x, xd, xi: xd @ A_BLK + xi @ B_BLK.T),
        dell_dxi=rows(lambda x, xd, xi: xd @ B_BLK + xi @ C_BLK + LINEAR + x @ D_BLK))
    second = dict(
        d2_dxdot_dx=lambda x, xd, xi: np.zeros((2, 2)),
        d2_dxdot_dxdot=lambda x, xd, xi: A_BLK,
        d2_dxi_dx=lambda x, xd, xi: D_BLK.T,
        d2_dxi_dxdot=lambda x, xd, xi: B_BLK.T,
        d2_dxi_dxi=lambda x, xd, xi: C_BLK)
    given = {"analytic": {**first, **second}, "first": first, "values": {}}[supply]
    return routh.InvariantLagrangian(2, lie.so3(), affine_ell, constant_group_metric=constant,
                                     **given)


def random_states(rng, n, sdim=2, gdim=3):
    return rng.uniform(-1.0, 1.0, size=(n, 2 * sdim + gdim))


@pytest.mark.parametrize("supply", ["analytic", "first", "values"])
def test_compiled_inversion_reproduces_the_momentum(supply, rng):
    # read off group_momentum itself, the map inverts it to rounding under
    # every supply rule, offset and x-coupling included
    lag = affine_lagrangian(supply=supply)
    p, c = lag.chi_map
    for y in random_states(rng, 20):
        x, xd, nu = y[:2], y[2:4], y[4:]
        assert np.max(np.abs(lag.group_momentum(x, xd, p @ y + c) - nu)) <= 1e-12
        assert np.max(np.abs(routh.solve_chi(lag, x, xd, CoVector(nu)).coords
                             - (p @ y + c))) == 0.0


def test_compiled_field_matches_the_assembled_field(rng):
    nu0 = CoVector([0.4, -0.3, 0.6])
    fields = [routh._field_factory(routh.ReducedRouthSystem(affine_lagrangian(constant), nu0))
              for constant in (True, False)]
    for y in random_states(rng, 20):
        compiled, assembled = (f(0.0, y) for f in fields)
        assert np.max(np.abs(compiled - assembled)) <= 1e-12


def test_values_only_twin_declared_constant_passes_the_residual_check():
    # the five-point momentum of the twin is affine to rounding, so the
    # monitors' checked inversion holds along the whole trajectory
    nu0 = CoVector([0.4, -0.3, 0.6])
    s0 = routh.ReducedState([0.2, -0.1], [0.3, 0.5], nu0)
    runs = [routh.integrate_reduced(routh.ReducedRouthSystem(affine_lagrangian(supply=s), nu0),
                                    s0, 0.5, StepperChoice(kind="rk4", h=1e-2))
            for s in ("analytic", "values")]
    assert np.max(np.abs(runs[0].states - runs[1].states)) <= 1e-6
    assert runs[1].report.entries["energy_drift"] <= 1e-8


@pytest.mark.parametrize("case", ["rotor", "affine"])
def test_compiled_field_calls_only_grad_x(case):
    lag = (models.rotor_lagrangian(models.RotorParams()) if case == "rotor"
           else affine_lagrangian())
    calls = {"group_momentum": 0, "grad_x": 0}
    for name in calls:
        def spy(*args, _fn=getattr(lag, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        lag.__dict__[name] = spy  # where cached_property keeps the resolved supply
    field = routh._field_factory(routh.ReducedRouthSystem(lag, CoVector([0.4, -0.3, 0.6])))
    field(0.0, np.linspace(0.1, 0.5, 2 * lag.sdim + 3))
    assert calls == {"group_momentum": 0, "grad_x": 1}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_constant_metric_inversion_rejects_a_non_finite_state():
    lag = models.rotor_lagrangian(models.RotorParams())
    nu = CoVector([0.1, 0.2, 0.3])
    with pytest.raises(RegularityError, match="momentum inversion residual nan"):
        routh.solve_chi(lag, [0.0], [np.inf], nu)
    with pytest.raises(RegularityError, match="momentum inversion"):
        routh.reduced_vector_field(routh.ReducedRouthSystem(lag, mu=nu),
                                   routh.ReducedState([0.0], [np.inf], nu))
    with pytest.raises(RegularityError, match="momentum inversion"):
        routh.routhian(lag, [0.0], [np.inf], nu)
    xd = np.array([[0.0], [np.nan], [0.0]])
    with pytest.raises(RegularityError, match=r"momentum inversion.* at t = 0\.1$"):
        routh._chi(lag, np.zeros((3, 1)), xd, np.tile(nu.coords, (3, 1)),
                   times=np.array([0.0, 0.1, 0.2]))


def test_validate_mechanical_fails_on_a_nan_value():
    # a NaN potential makes the quadratic residual NaN, which must not pass
    lag = routh.quadratic_invariant_lagrangian(
        1, lie.translations(2), [[1.0]], [[0.0, 0.0]], np.eye(2),
        potential=lambda x: float("nan"), dpotential=lambda x: np.zeros(1))
    with pytest.raises(ValueError, match="not quadratic"):
        routh.validate_mechanical(lag, [(np.zeros(1), np.ones(1), np.ones(2))])


def test_validate_mechanical_refuses_a_non_finite_sample():
    lag = routh.quadratic_invariant_lagrangian(
        1, lie.translations(2), [[1.0]], [[0.0, 0.0]], np.eye(2))
    good = (np.zeros(1), np.ones(1), np.ones(2))
    routh.validate_mechanical(lag, [good])
    with pytest.raises(ValueError, match=r"^sample 1 is not finite$"):
        routh.validate_mechanical(lag, [good, (np.zeros(1), [np.inf], np.ones(2))])


def newton_case(case, rotor_params):
    """(Lagrangian, momentum level, initial state) of a reduced flow whose
    momentum inversion takes the Newton path."""
    if case == "quartic":
        lag, nu0 = generic_lagrangian(), CoVector([0.5, -0.3])
    else:
        lag = routh.InvariantLagrangian(1, lie.so3(), models.rotor_lagrangian(rotor_params).ell)
        nu0 = CoVector([0.4, -0.6, 0.5])
    assert lag.reduced_metric is None
    return lag, nu0, routh.ReducedState([0.2], [0.4], nu0)


@pytest.mark.parametrize("kind", ["rk4", "rkf45"])
@pytest.mark.parametrize("case", ["quartic", "so3_twin"])
def test_newton_field_keeps_the_bits_of_solve_chi(case, kind, rotor_params):
    # the reduced field of a non-constant metric inverts the momentum with
    # the private _chi; a field on the public solve_chi, seeded the same way
    # by the tangent prediction of the previous point, integrates to the
    # same bits
    lag, nu0, s0 = newton_case(case, rotor_params)
    sys = routh.ReducedRouthSystem(lag, mu=nu0)
    stepper = StepperChoice(kind=kind, h=1e-2, atol=1e-12, rtol=1e-12)
    traj = routh.integrate_reduced(sys, s0, 0.3, stepper)
    last = None

    def field(t, y):
        nonlocal last
        x, xdot, nu = y[:1], y[1:2], y[2:]
        seed = None if last is None else last[1] + last[2] @ (y - last[0])
        chi = routh.solve_chi(lag, x, xdot, CoVector(nu), seed=seed).coords
        blocks, dl_dx, dchi_dy = routh._assemble_metric(lag, x, xdot, chi)
        last = y, chi, dchi_dy
        xddot, nudot = routh._reduced_rhs(dl_dx, sys.structure, blocks, xdot, nu, chi)
        return np.concatenate([xdot, xddot, nudot])

    times, states = numerics.integrate_ode(field, routh.pack_reduced(s0), 0.0, 0.3, stepper)
    assert len(times) > 5
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()


@pytest.mark.parametrize("case, zero_share", [("quartic", 0.5), ("so3_twin", 0.9)])
def test_reduced_field_seeds_newton_with_the_tangent_prediction(case, zero_share, rotor_params,
                                                                monkeypatch):
    # along rk4 and rkf45 runs, each momentum inversion of the reduced field
    # starts from chi_prev + dchi/dy (y - y_prev) of the field's previous
    # point (zero at the first), and still ends within INVERSION_TOL; the
    # prediction alone meets the tolerance at most of the later points
    lag, nu0, s0 = newton_case(case, rotor_params)
    solves, tangents = [], []
    newton, assemble = numerics.newton_solve, routh._assemble_metric

    def newton_spy(residual, seed, jacobian):
        solves.append((np.array(seed), newton(residual, seed, jacobian)))
        return solves[-1][1]

    def assemble_spy(*args):
        out = assemble(*args)
        tangents.append(out[2])
        return out

    monkeypatch.setattr(numerics, "newton_solve", newton_spy)
    monkeypatch.setattr(routh, "_assemble_metric", assemble_spy)
    later_iterations = []
    for stepper in (StepperChoice(kind="rk4", h=1e-3),
                    StepperChoice(kind="rkf45", h=1e-3, atol=1e-12, rtol=1e-12)):
        solves.clear()
        tangents.clear()
        ys = []
        reduced_field = routh._field_factory(routh.ReducedRouthSystem(lag, mu=nu0))

        def field(t, y):
            ys.append(y)
            return reduced_field(t, y)

        numerics.integrate_ode(field, routh.pack_reduced(s0), 0.0, 0.1, stepper)
        assert len(solves) == len(tangents) == len(ys) > 20
        assert solves[0][0].tobytes() == np.zeros(lag.gdim).tobytes()
        for i, (y, (seed, result)) in enumerate(zip(ys, solves)):
            if i:
                want = solves[i - 1][1].x + tangents[i - 1] @ (y - ys[i - 1])
                assert seed.tobytes() == want.tobytes()
                later_iterations.append(result.iterations)
            residual = lag.group_momentum(y[:1], y[1:2], result.x) - y[2:]
            assert np.linalg.norm(residual) <= numerics.INVERSION_TOL
    assert later_iterations.count(0) >= zero_share * len(later_iterations)


@pytest.mark.parametrize("block", ["A", "B", "C"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_quadratic_lagrangian_names_a_non_finite_metric_block(block, bad):
    blocks = {"A": np.eye(1), "B": np.zeros((1, 2)), "C": np.eye(2)}
    blocks[block] = blocks[block].copy()
    blocks[block].flat[0] = bad
    with pytest.raises(ValueError, match=rf"^metric block {block} is not finite$"):
        routh.quadratic_invariant_lagrangian(1, lie.translations(2), blocks["A"],
                                             blocks["B"], blocks["C"])
