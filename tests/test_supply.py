"""The derivative supply rule of `numerics.supply`, shared by
MagneticSystem and InvariantLagrangian, and the single implementation of
each equation of motion behind the public fields and the integrators."""
import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magreduce import lie, maglag, models, numerics, routh, semidirect
from magreduce.lie import CoVector
from magreduce.maglag import MagLagState, MagneticSystem
from magreduce.numerics import StepperChoice
from oracles import beanie_chart_system, beanie_r2_system

A = np.array([[1.7]])
B = np.array([[0.3, -0.2, 0.5]])
C = np.diag([2.0, 3.0, 1.5])


def quadratic():
    return routh.quadratic_invariant_lagrangian(
        1, lie.so3(), A, B, C,
        potential=lambda x: float(np.cos(x[0])),
        dpotential=lambda x: np.array([-np.sin(x[0])]))


def one_point(fn):
    """`fn` without its `takes_rows` mark."""
    return lambda *args: fn(*args)


def ell_of(level, quad):
    """The quadratic ell as it is (marked) or, at a one-point level, unmarked."""
    return one_point(quad.ell) if level.startswith("one_point") else quad.ell


def invariant_case(level):
    """(lagrangian, block method name, analytic block) per fallback level."""
    quad = quadratic()
    first = dict(dell_dx=quad.dell_dx, dell_dxdot=quad.dell_dxdot,
                 dell_dxi=quad.dell_dxi)
    lag = {"analytic": quad,
           "fd_first": routh.InvariantLagrangian(
               1, lie.so3(), quad.ell, **{k: one_point(f) for k, f in first.items()}),
           "fd_first_rows": routh.InvariantLagrangian(1, lie.so3(), quad.ell, **first),
           }.get(level, routh.InvariantLagrangian(1, lie.so3(), ell_of(level, quad)))
    if level in ("analytic", "values_mixed", "one_point_values_mixed"):
        return lag, "jac_xi_xdot", B.T
    return lag, "jac_xi_xi", C


def magnetic_case(level):
    """The same Lagrangian read as L(q, v, p) with q = x, v = xdot, p = xi."""
    quad = quadratic()
    extra = {"analytic": dict(d2L_dv_dp=lambda q, v, p: quad.d2_dxi_dxdot(q, v, p).T),
             "fd_first": dict(dL_dv=one_point(quad.dell_dxdot)),
             "fd_first_rows": dict(dL_dv=quad.dell_dxdot)}.get(level, {})
    sys = MagneticSystem(n=1, k=3, lagrangian=ell_of(level, quad), **extra)
    if level in ("analytic", "values_mixed", "one_point_values_mixed"):
        return sys, "hess_vp", B
    return sys, "hess_vv", A


# level -> (differencing routine, base step, rows) of the outermost
# stencil; a first derivative that takes rows has its whole stencil in one
# call (fd_jacobian with rows), and so has a values-only ell that takes
# rows (fd_blocks with rows)
RULE = {
    "analytic": None,
    "fd_first": ("fd_jacobian", numerics.H_GRADIENT, False),
    "fd_first_rows": ("fd_jacobian", numerics.H_GRADIENT, True),
    "values_diagonal": ("fd_blocks", numerics.H_SECOND, True),
    "values_mixed": ("fd_blocks", numerics.H_SECOND, True),
    "one_point_values_diagonal": ("fd_blocks", numerics.H_SECOND, False),
    "one_point_values_mixed": ("fd_blocks", numerics.H_SECOND, False),
}


def spy_stencils(monkeypatch):
    """Record (routine, base step, rows) of every second-derivative
    stencil."""
    calls = []
    for name in ("fd_jacobian", "fd_blocks"):
        fn = getattr(numerics, name)
        sig = inspect.signature(fn)

        def spy(*args, _fn=fn, _name=name, _sig=sig, **kwargs):
            bound = _sig.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((_name, bound.arguments["h0"], bound.arguments["rows"]))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(numerics, name, spy)
    return calls


def check_level(case, level, radius, monkeypatch):
    """The block at 20 points with |coords| <= radius matches the analytic
    one to 1e-6, and its outermost stencil is the rule's."""
    calls = spy_stencils(monkeypatch)
    system, method, expected = case(level)
    rng = np.random.default_rng(5)
    for _ in range(20):
        calls.clear()
        point = (rng.uniform(-radius, radius, 1), rng.uniform(-radius, radius, 1),
                 rng.uniform(-radius, radius, 3))
        block = getattr(system, method)(*point)
        assert block.shape == expected.shape
        assert np.max(np.abs(block - expected)) <= 1e-6
        assert (calls[0] if calls else None) == RULE[level]


@pytest.mark.parametrize("case", [invariant_case, magnetic_case])
@pytest.mark.parametrize("level", list(RULE))
def test_supply_rule_levels(case, level, monkeypatch):
    check_level(case, level, 0.5, monkeypatch)


@pytest.mark.parametrize("case", [invariant_case, magnetic_case])
def test_values_only_mixed_block_wide_coords(case, monkeypatch):
    # the nested rule that the cross stencil replaced was off by up to
    # 5.5e-6 at |coords| <= 2 (200 random points of the (xdot, xi) block)
    check_level(case, "values_mixed", 2.0, monkeypatch)


@pytest.mark.parametrize("case", [invariant_case, magnetic_case])
def test_one_point_values_mixed_block_wide_coords(case, monkeypatch):
    check_level(case, "one_point_values_mixed", 2.0, monkeypatch)


def test_unmarked_first_derivative_blocks_share_one_stencil(monkeypatch):
    # the quartic Lagrangian with only an unmarked dell/dxi: metric_blocks
    # takes its three dell/dxi blocks from one joint stencil, one dell/dxi
    # call per stencil point (as many as three one-block supplies make),
    # and each block has the bits of its one-block supply
    calls = []

    def ell(x, xd, xi):
        return (0.5 * float(xd @ xd) + 0.5 * float(xi @ xi)
                + 0.05 * float(xi @ xi) ** 2 + 0.1 * x[0] * xi[0])

    def dell_dxi(x, xd, xi):
        calls.append(1)
        return xi + 0.2 * float(xi @ xi) * xi + np.array([0.1 * x[0], 0.0])

    lag = routh.InvariantLagrangian(sdim=1, group=lie.translations(2), ell=ell,
                                    dell_dxi=dell_dxi)
    stencils = []
    jacobian = numerics.fd_jacobian

    def spy(f, args, slots=0, h0=numerics.H_GRADIENT, *, rows):
        stencils.append((f, slots, rows))
        return jacobian(f, args, slots, h0, rows=rows)

    monkeypatch.setattr(numerics, "fd_jacobian", spy)
    alone = (lag.jac_xi_xi, lag.jac_xi_xdot, lag.jac_xi_x)
    rng = np.random.default_rng(23)
    for _ in range(200):
        point = rng.uniform(-1.5, 1.5, 1), rng.uniform(-1.5, 1.5, 1), rng.uniform(-1.5, 1.5, 2)
        stencils.clear()
        calls.clear()
        blocks = lag.metric_blocks(*point)[:3]
        assert stencils == [(dell_dxi, [2, 1, 0], False)]
        assert len(calls) == 2 * (2 + 1 + 1)
        calls.clear()
        for got, supply in zip(blocks, alone):
            assert np.array_equal(got, supply(*point))
        assert len(calls) == 2 * (2 + 1 + 1)
    # at stacked rows: each row's blocks, from one stencil
    rows = tuple(rng.uniform(-1.5, 1.5, (5, size)) for size in (1, 1, 2))
    stencils.clear()
    blocks = lag.metric_blocks(*rows)[:3]
    assert len(stencils) == 1
    for got, supply in zip(blocks, alone):
        assert np.array_equal(got, np.stack([supply(*row) for row in zip(*rows)]))


INVARIANT_SUPPLIES = ("grad_x", "shape_momentum", "group_momentum", "jac_xdot_x",
                      "jac_xdot_xdot", "jac_xi_x", "jac_xi_xdot", "jac_xi_xi")
MAGNETIC_SUPPLIES = ("grad_q", "grad_v", "grad_p", "hess_vv", "hess_vq", "hess_vp")


def one_point_systems(rule):
    """The quadratic Lagrangian as an InvariantLagrangian and as a
    MagneticSystem (q = x, v = xdot, p = xi) whose callables take one point:
    rule 1 gives every derivative, rule 2 only the first derivatives, rule 3
    only values."""
    quad = quadratic()
    first = {"dell_dx": quad.dell_dx, "dell_dxdot": quad.dell_dxdot, "dell_dxi": quad.dell_dxi}
    second = {name: getattr(quad, name) for name in (
        "d2_dxdot_dx", "d2_dxdot_dxdot", "d2_dxi_dx", "d2_dxi_dxdot", "d2_dxi_dxi")}
    given = {1: {**first, **second}, 2: first, 3: {}}[rule]
    given = {name: one_point(fn) for name, fn in given.items()}
    ell = one_point(quad.ell)
    names = {"dell_dx": "dL_dq", "dell_dxdot": "dL_dv", "dell_dxi": "dL_dp",
             "d2_dxdot_dx": "d2L_dv_dq", "d2_dxdot_dxdot": "d2L_dv_dv"}
    magnetic = {names[k]: f for k, f in given.items() if k in names}
    if "d2_dxi_dxdot" in given:
        block = given["d2_dxi_dxdot"]
        magnetic["d2L_dv_dp"] = lambda q, v, p: block(q, v, p).T
    return (routh.InvariantLagrangian(1, lie.so3(), ell, **given),
            MagneticSystem(n=1, k=3, lagrangian=ell, **magnetic))


@pytest.mark.parametrize("rule", [1, 2, 3])
def test_one_point_supplies_give_rows_bit_for_bit(rule):
    lag, sys = one_point_systems(rule)
    rng = np.random.default_rng(7)
    x, xd, xi = rng.uniform(-1, 1, (6, 1)), rng.uniform(-1, 1, (6, 1)), rng.uniform(-1, 1, (6, 3))
    for system, supplies in ((lag, INVARIANT_SUPPLIES), (sys, MAGNETIC_SUPPLIES)):
        for name in supplies:
            fn = getattr(system, name)
            assert numerics.rows_ok(fn)
            points = [fn(x[i], xd[i], xi[i]) for i in range(len(x))]
            assert np.array_equal(fn(x, xd, xi), points), name


def capture_field(monkeypatch):
    """Record the right-hand side that the integrators hand to the stepper."""
    seen = []
    integrate_ode = numerics.integrate_ode

    def spy(f, *args, **kwargs):
        seen.append(f)
        return integrate_ode(f, *args, **kwargs)

    monkeypatch.setattr(numerics, "integrate_ode", spy)
    return seen


@pytest.mark.parametrize("constant", [True, False])
def test_integrator_field_is_reduced_vector_field(constant, monkeypatch):
    # constant: blocks kept on the Lagrangian, chi by one linear solve;
    # otherwise blocks assembled per point and chi by warm-started Newton
    lag = dataclasses.replace(models.rotor_lagrangian(models.RotorParams()),
                              constant_group_metric=constant)
    assert (lag.reduced_metric is not None) == constant
    seen = capture_field(monkeypatch)
    nu0 = CoVector([0.8, 0.2, 0.3])
    sys = routh.ReducedRouthSystem(lag, mu=nu0)
    traj = routh.integrate_reduced(sys, routh.ReducedState([0.1], [0.2], nu0),
                                   0.05, StepperChoice(kind="rk4", h=1e-2))
    field, = seen
    sd = lag.sdim
    for t, y in zip(traj.times, traj.states):
        s = routh.ReducedState(y[:sd], y[sd:2 * sd], CoVector(y[2 * sd:]))
        xdot, xddot, nudot = routh.reduced_vector_field(sys, s)
        expected = np.concatenate([xdot, xddot, nudot.coords])
        assert np.max(np.abs(field(t, y) - expected)) <= 1e-12


def varying_form_system():
    """Fibre block B_PP depending on the base point (k = 2)."""
    def bform(q, p):
        g = 2.0 + np.cos(q[0])
        return (np.zeros((1, 1)), np.array([[0.0, p[0] * -np.sin(q[0])]]),
                np.array([[0.0, g], [-g, 0.0]]))

    return MagneticSystem(
        n=1, k=2,
        lagrangian=lambda q, v, p: (0.5 * v[0] ** 2 - 0.5 * q[0] ** 2
                                    - 0.25 * float(p @ p)),
        bform=bform)


@pytest.mark.parametrize("sys, s0", [
    (beanie_chart_system(models.BeanieParams(), 1.0, 1 + 0j),
     MagLagState([0.4], [0.3], [0.2, 1.1])),
    (varying_form_system(), MagLagState([0.3], [0.5], [0.2, -0.1])),
])
def test_integrator_field_is_maglag_vector_field(sys, s0, monkeypatch):
    seen = capture_field(monkeypatch)
    traj = maglag.integrate(sys, s0, 0.05, StepperChoice(kind="rk4", h=1e-2))
    field, = seen
    for t, y in zip(traj.times, traj.states):
        v, a, pdot = maglag.vector_field(sys, maglag.unpack(sys, y))
        expected = np.concatenate([v, a, pdot])
        assert np.max(np.abs(field(t, y) - expected)) <= 1e-12


def reduced_case(name):
    """(system, initial state) of the reduced flows behind the CLI."""
    if name == "rotor":
        nu = CoVector([0.8, 0.2, 0.3])
        return (models.rotor_reduced_system(models.RotorParams(), nu),
                routh.ReducedState([0.1], [0.2], nu))
    w = CoVector([1.0, 0.6, -0.8])
    lag = models.beanie_gv_lagrangian(models.BeanieParams()).inner
    return routh.ReducedRouthSystem(lag, mu=w), routh.ReducedState([0.4], [0.3], w)


@pytest.mark.parametrize("name", ["rotor", "beanie"])
def test_reduced_factory_field_is_public_field_bit_for_bit(name, monkeypatch):
    sys, s0 = reduced_case(name)
    seen = capture_field(monkeypatch)
    traj = routh.integrate_reduced(sys, s0, 0.2, StepperChoice(kind="rk4", h=1e-2))
    field, = seen
    sd = sys.lagrangian.sdim
    for t, y in zip(traj.times, traj.states):
        xdot, xddot, nudot = routh.reduced_vector_field(
            sys, routh.ReducedState(y[:sd], y[sd:2 * sd], CoVector(y[2 * sd:])))
        assert np.array_equal(field(t, y), np.concatenate([xdot, xddot, nudot.coords]))


@pytest.mark.parametrize("sys, s0", [
    (beanie_r2_system(models.BeanieParams(), 1.0 + 0.5j),
     MagLagState([0.4, 0.0], [0.3, 0.1], np.zeros(0))),
    (semidirect.abelian_reduced_system(models.beanie_gv_lagrangian(models.BeanieParams()),
                                       CoVector([1.0, 0.5])),
     MagLagState([0.4, 0.2], [0.3, 0.1], np.zeros(0))),
    (beanie_chart_system(models.BeanieParams(), 1.0, 1 + 0j),
     MagLagState([0.4], [0.3], [0.2, 1.1])),
    (varying_form_system(), MagLagState([0.3], [0.5], [0.2, -0.1])),
], ids=["k0", "k0_v_reduced", "beanie_chart", "varying_form"])
def test_magnetic_factory_field_is_public_field_bit_for_bit(sys, s0, monkeypatch):
    seen = capture_field(monkeypatch)
    traj = maglag.integrate(sys, s0, 0.2, StepperChoice(kind="rk4", h=1e-2))
    field, = seen
    for t, y in zip(traj.times, traj.states):
        v, a, pdot = maglag.vector_field(sys, maglag.unpack(sys, y))
        assert np.array_equal(field(t, y), np.concatenate([v, a, pdot]))


def test_k0_field_keeps_the_mixed_block():
    # L = (1 + q^2) v^2 / 2 has d2L/dv dq = 2 q v, and qddot = -q v^2 / (1 + q^2)
    sys = MagneticSystem(
        n=1, k=0, lagrangian=lambda q, v, p: 0.5 * (1.0 + q[0] ** 2) * v[0] ** 2,
        dL_dq=lambda q, v, p: np.array([q[0] * v[0] ** 2]),
        dL_dv=lambda q, v, p: np.array([(1.0 + q[0] ** 2) * v[0]]),
        d2L_dv_dv=lambda q, v, p: np.array([[1.0 + q[0] ** 2]]),
        d2L_dv_dq=lambda q, v, p: np.array([[2.0 * q[0] * v[0]]]))
    for q, v in [(0.5, 0.3), (-1.2, 2.0), (2.0, -0.7)]:
        _, a, pdot = maglag.vector_field(sys, MagLagState([q], [v], np.zeros(0)))
        assert pdot.shape == (0,)
        assert abs(a[0] + q * v ** 2 / (1.0 + q ** 2)) <= 1e-14


unit = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=25, deadline=None)
# c = I, a = 1, b = 0, nu = (1, 1, 1), x = 0: a central dell/dxi at 1e-6
# carried rounding noise above the Newton tolerance here, and the twin's
# momentum inversion stopped at |r| = 1.489e-10
@example(w=[0.0] * 9, a=1.0, b=[0.0] * 3, state=[0.0, 0.692629941495484, 1.0, 1.0, 1.0])
@given(w=st.lists(unit, min_size=9, max_size=9),
       a=st.floats(1.0, 2.0), b=st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3),
       state=st.lists(unit, min_size=5, max_size=5))
def test_values_only_twin_reduced_field(w, a, b, state):
    w = np.reshape(w, (3, 3))
    c = w @ w.T + np.eye(3)       # symmetric positive definite
    lag = routh.quadratic_invariant_lagrangian(1, lie.so3(), [[a]], [b], c)
    twin = routh.InvariantLagrangian(sdim=1, group=lie.so3(), ell=lag.ell)
    nu = CoVector(state[2:])
    s = routh.ReducedState(state[:1], state[1:2], nu)
    exact = routh.reduced_vector_field(routh.ReducedRouthSystem(lag, nu), s)
    approx = routh.reduced_vector_field(routh.ReducedRouthSystem(twin, nu), s)
    assert np.max(np.abs(exact[1] - approx[1])) <= 1e-6
    assert np.max(np.abs(exact[2].coords - approx[2].coords)) <= 1e-6


# -- one jet per right-hand side point -----------------------------------------

JET_A = np.array([[2.0, 0.3], [0.3, 1.5]])


def jet_lagrangian(q, v, p):
    """L = v^T A v / 2 + q0 v0 p0 + sin(q0) v1 on n = 2, k = 1."""
    return 0.5 * float(v @ JET_A @ v) + q[0] * v[0] * p[0] + np.sin(q[0]) * v[1]


@numerics.takes_rows
def jet_dl_dv(q, v, p):
    extra = np.stack([q[..., 0] * p[..., 0], np.sin(q[..., 0])], axis=-1)
    return numerics.matvec(JET_A, v) + extra


@numerics.takes_rows
def jet_hvv(q, v, p):
    return np.broadcast_to(JET_A, np.shape(v) + (2,)).copy()


def jet_hvp(q, v, p):  # one point only
    return np.array([[q[0]], [0.0]])


JET_CASES = {
    # every block by rule 2 from one row-marked dL/dv
    "rule2_rows": dict(dL_dv=jet_dl_dv),
    # d2L/dv2 analytic, the other two by rule 2 from one dL/dv call
    "vv_analytic": dict(dL_dv=jet_dl_dv, d2L_dv_dv=jet_hvv),
    # d2L/dv dp analytic at one point, the other two by rule 2
    "vp_analytic": dict(dL_dv=jet_dl_dv, d2L_dv_dp=jet_hvp),
    # rule 2 per point from a one-point dL/dv
    "rule2_one_point": dict(dL_dv=one_point(jet_dl_dv)),
    # values only: rule 3 for every block
    "values_only": {},
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", list(JET_CASES))
def test_joint_velocity_blocks_are_the_single_supplies_bit_for_bit(case):
    sys = MagneticSystem(n=2, k=1, lagrangian=jet_lagrangian, **JET_CASES[case])
    assert numerics.rows_ok(sys.velocity_blocks)
    rng = np.random.default_rng(14)
    q, v, p = rng.uniform(-2, 2, (5, 2)), rng.uniform(-2, 2, (5, 2)), rng.uniform(-2, 2, (5, 1))
    singles = (sys.hess_vv, sys.hess_vq, sys.hess_vp)
    for args in [(q, v, p)] + [(q[i], v[i], p[i]) for i in range(len(q))]:
        joint = sys.velocity_blocks(*args)
        assert len(joint) == 3
        for block, single in zip(joint, singles):
            assert same_bits(block, single(*args))
    for i in range(len(q)):
        point = (q[i], v[i], p[i])
        dl_dq, dl_dp, hess, hvq, hvp = sys.jet(*point)
        expected = (sys.grad_q, sys.grad_p) + singles
        for got, supply in zip((dl_dq, dl_dp, hess, hvq, hvp), expected):
            assert same_bits(got, supply(*point))


@pytest.mark.parametrize("case", ["rule2_rows", "values_only"])
def test_jet_leaves_out_the_blocks_a_system_does_not_use(case):
    point = (np.array([0.4, -0.2]), np.array([0.3, 1.1]), np.array([0.7]))
    steady = MagneticSystem(n=2, k=1, lagrangian=jet_lagrangian, constant_hessian=True,
                            **JET_CASES[case])
    dl_dq, dl_dp, hess, hvq, hvp = steady.jet(*point)
    assert hess is None
    assert same_bits(hvq, steady.hess_vq(*point)) and same_bits(hvp, steady.hess_vp(*point))
    flat = MagneticSystem(n=2, k=0, lagrangian=lambda q, v, p: jet_lagrangian(q, v, [0.5]))
    dl_dq, dl_dp, hess, hvq, hvp = flat.jet(point[0], point[1], np.zeros(0))
    assert dl_dp is None and hvp is None
    assert same_bits(hess, flat.hess_vv(point[0], point[1], np.zeros(0)))


def test_joint_dl_dq_vq_splits_into_grad_q_and_hess_vq():
    @numerics.takes_rows
    def dl_dq_vq(q, v, p):
        dl_dq, _, _, hvq, _ = jet_joint(q, v, p)
        return dl_dq, hvq

    for joint in (dl_dq_vq, one_point(dl_dq_vq)):
        sys = MagneticSystem(n=2, k=1, lagrangian=jet_lagrangian, dL_dv=jet_dl_dv,
                             dL_dq_vq=joint)
        rng = np.random.default_rng(5)
        q, v, p = rng.uniform(-2, 2, (4, 2)), rng.uniform(-2, 2, (4, 2)), rng.uniform(-2, 2, (4, 1))
        grad_q, hess_vq = sys.grad_q(q, v, p), sys.hess_vq(q, v, p)
        for i in range(len(q)):
            dq, hvq = dl_dq_vq(q[i], v[i], p[i])
            assert same_bits(grad_q[i], dq) and same_bits(hess_vq[i], hvq)
            jet = sys.jet(q[i], v[i], p[i])
            assert same_bits(jet[0], dq) and same_bits(jet[3], hvq)
    with pytest.raises(ValueError, match="dL_dq_vq stands for dL_dq and d2L_dv_dq: give one"):
        MagneticSystem(n=2, k=1, lagrangian=jet_lagrangian, dL_dq=jet_dl_dv, dL_dq_vq=dl_dq_vq)
    with pytest.raises(ValueError, match="dL_dq_vq and dL_jet share dL_dq: give one of them"):
        MagneticSystem(n=2, k=1, lagrangian=jet_lagrangian, dL_dq_vq=dl_dq_vq, dL_jet=jet_joint)


@numerics.takes_rows
def jet_joint(q, v, p):
    """The whole jet of jet_lagrangian in the order of MagneticSystem.jet."""
    dl_dq = np.stack([v[..., 0] * p[..., 0] + np.cos(q[..., 0]) * v[..., 1], 0.0 * q[..., 1]],
                     -1)
    hvq = np.zeros(np.shape(v) + (2,))
    hvq[..., 0, 0], hvq[..., 1, 0] = p[..., 0], np.cos(q[..., 0])
    return (dl_dq, q[..., :1] * v[..., :1], jet_hvv(q, v, p), hvq,
            np.stack([q[..., :1], 0.0 * q[..., :1]], -2))


def test_whole_jet_joint_is_called_once_for_every_part():
    rng = np.random.default_rng(9)
    q, v, p = rng.uniform(-2, 2, (4, 2)), rng.uniform(-2, 2, (4, 2)), rng.uniform(-2, 2, (4, 1))
    for joint in (jet_joint, one_point(jet_joint)):
        calls = []
        counted = lambda *args, _j=joint: calls.append(np.ndim(args[1])) or _j(*args)  # noqa: E731
        sys = MagneticSystem(n=2, k=1, lagrangian=jet_lagrangian, dL_dv=jet_dl_dv,
                             dL_jet=numerics.takes_rows(counted) if joint is jet_joint else counted)
        supplies = (sys.grad_q, sys.grad_p, sys.hess_vv, sys.hess_vq, sys.hess_vp)
        stacked = sys.velocity_blocks(q, v, p)
        # a marked joint takes the rows in one call, an unmarked one row by row
        assert calls == ([2] if joint is jet_joint else [1] * len(q))
        for i in range(len(q)):
            calls.clear()
            jet, blocks = sys.jet(q[i], v[i], p[i]), sys.velocity_blocks(q[i], v[i], p[i])
            assert calls == [1, 1]
            want = jet_joint(q[i], v[i], p[i])
            for got, part, supply in zip(jet, want, supplies):
                assert same_bits(got, part) and same_bits(supply(q[i], v[i], p[i]), part)
            for got, row, part in zip(blocks, stacked, want[2:]):
                assert same_bits(got, part) and same_bits(row[i], part)


@pytest.mark.parametrize("also", ["dL_dq", "dL_dp", "d2L_dv_dv", "d2L_dv_dq", "d2L_dv_dp",
                                  "dL_dq_vq"])
def test_whole_jet_joint_refuses_its_parts_and_the_other_joints(also):
    with pytest.raises(ValueError, match="dL_jet"):
        MagneticSystem(n=2, k=1, lagrangian=jet_lagrangian, dL_jet=jet_joint,
                       **{also: jet_joint})


# -- rule 3 over rows: calls of a values-only ell per right-hand side ------------

# the one-point loop's calls per gradient coordinate (fd_gradient)
GRADIENT_POINTS = 4


def newton_calls(monkeypatch):
    """Record the residual and Jacobian calls of each Newton solve."""
    solves = []
    solve = numerics.newton_solve

    def spy(residual, seed, jacobian):
        counts = {"residual": 0, "jacobian": 0}

        def counted(name, fn):
            def call(z):
                counts[name] += 1
                return fn(z)
            return call

        solves.append(counts)
        return solve(counted("residual", residual), seed, counted("jacobian", jacobian))

    monkeypatch.setattr(numerics, "newton_solve", spy)
    return solves


@pytest.mark.parametrize("marked", [True, False])
def test_values_only_twin_calls_ell_once_per_stencil(marked, monkeypatch):
    # a row-marked ell: one call per Newton residual (dell/dxi), one per
    # Newton Jacobian (K) and one for the five metric blocks with dell/dx;
    # an unmarked ell: the one-point loops' counts, a gradient coordinate
    # GRADIENT_POINTS calls, K 19, the five blocks 19 + 12 + 12 + 3 + 4 = 50
    rotor = models.rotor_lagrangian(models.RotorParams())
    calls = []

    def ell(x, xdot, xi):
        calls.append(np.shape(x))
        return rotor.ell(x, xdot, xi)

    twin = routh.InvariantLagrangian(1, lie.so3(), numerics.takes_rows(ell) if marked else ell)
    residual, jacobian, metric = ((1, 1, 1) if marked else
                                  (3 * GRADIENT_POINTS, 19, 50 + GRADIENT_POINTS))
    solves = newton_calls(monkeypatch)
    field = routh._field_factory(routh.ReducedRouthSystem(twin, CoVector([0.8, 0.2, 0.3])))
    y = np.array([0.1, 0.2, 0.8, 0.2, 0.3])
    jacobians = []
    # the first solve from zero, two from the tangent prediction of a point
    # 0.01 away, and the last after a step of 0.5, too long for the
    # prediction alone to meet the tolerance
    for step in (0.01, 0.01, 0.5, 0.0):
        calls.clear()
        solves.clear()
        field(0.0, y)
        (solve,) = solves
        jacobians.append(solve["jacobian"])
        assert len(calls) == (residual * solve["residual"] + jacobian * solve["jacobian"]
                              + metric)
        y = y + step
    assert jacobians[0] > 0 and jacobians[-1] > 0
    chi = routh.solve_chi(twin, y[:1], y[1:2], CoVector(y[2:])).coords
    calls.clear()
    routh._assemble_metric(twin, y[:1], y[1:2], chi)
    assert len(calls) == metric


def test_potential_gradient_fallbacks_match_the_analytic_gradient():
    # a potential given without its gradient is differenced by the central
    # rule at H_GRADIENT (fd_jacobian), not by rule 3's five-point gradient,
    # whose steps would reach 6e-3 at |x| = 3: the shape gradient of
    # quadratic_invariant_lagrangian and BeanieParams' dpotential match the
    # analytic gradient over |x| <= 3
    def pot(x):
        return 0.8 * (1.0 - np.cos(x[0])) + 0.05 * x[0] ** 4 + np.sin(x[0] * x[-1])

    def dpot(x):
        g = np.array([0.8 * np.sin(x[0]) + 0.2 * x[0] ** 3, 0.0])[:x.size]
        g[0] += x[-1] * np.cos(x[0] * x[-1])
        g[-1] += x[0] * np.cos(x[0] * x[-1])
        return g

    lag = routh.quadratic_invariant_lagrangian(2, lie.so3(), np.eye(2), np.zeros((2, 3)), C,
                                               potential=pot)
    beanie = models.BeanieParams(potential=pot)
    rng = np.random.default_rng(11)
    for x in rng.uniform(-3.0, 3.0, (200, 2)):
        assert np.max(np.abs(lag.grad_x(x, np.zeros(2), np.zeros(3)) + dpot(x))) <= 5e-9
        assert np.max(np.abs(beanie.dpotential(x[:1]) - dpot(x[:1]))) <= 5e-9
