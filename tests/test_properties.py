"""Property tests of the orbit forms and the compatible map, at the README
tolerances: orbit-form identity 1e-6, solver round trips 1e-10, closedness
of the pulled-back 2-form 1e-6; and of the regularity errors that the
integrators' right-hand sides raise."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magreduce import compat, lie, maglag, models, numerics, routh, semidirect
from magreduce.lie import CoVector
from magreduce.maglag import MagLagState, MagneticSystem, RegularityError


@pytest.fixture(scope="module")
def sd():
    return models.beanie_gv_lagrangian(models.BeanieParams())


@pytest.fixture(scope="module")
def beanie_pair(sd):
    return semidirect.build_stage_equivalence(sd, CoVector([1.0]), CoVector([1.0, 0.0]),
                                              n_points=2, t_end=0.1)


angle = st.floats(-np.pi, np.pi)
unit = st.floats(-1.0, 1.0)


@settings(max_examples=50, deadline=None)
@given(nu=st.floats(-2.0, 2.0), alpha=angle, radius=st.floats(0.1, 10.0), a_arg=angle)
def test_lemma_residual(sd, nu, alpha, radius, a_arg):
    a = CoVector(radius * np.array([np.cos(a_arg), np.sin(a_arg)]))
    res = semidirect.verify_lemma_B_equals_dtheta(sd, a, np.array([[nu, alpha]]))
    assert res <= 1e-6


@settings(max_examples=50, deadline=None)
@given(nu=unit, radius=st.floats(0.3, 3.0), alpha=angle,
       rates=st.lists(unit, min_size=3, max_size=3),
       nudots=st.lists(unit, min_size=3, max_size=3),
       c=st.floats(-2.0, 2.0))
def test_kks_antisymmetric_and_bilinear(sd, nu, radius, alpha, rates, nudots, c):
    b = radius * np.array([np.cos(alpha), np.sin(alpha)])
    ib = np.array([-b[1], b[0]])
    t1, t2, t3 = [(CoVector([d]), CoVector(s * ib)) for d, s in zip(nudots, rates)]
    comb = (CoVector(t1[0].coords + c * t3[0].coords),
            CoVector(t1[1].coords + c * t3[1].coords))

    def kks(u, v):
        return semidirect.orbit_kks(sd.gv, CoVector([nu]), CoVector(b), u, v)

    assert abs(kks(t1, t2) + kks(t2, t1)) <= 1e-12
    assert abs(kks(comb, t2) - (kks(t1, t2) + c * kks(t3, t2))) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(z1=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))
def test_psi_round_trip(beanie_pair, z1):
    z1 = np.array(z1)
    eq = beanie_pair
    z2 = eq.psi(z1)
    q2, v2, pbar = eq.pair.split2(z2)
    momentum = eq.r2_system.grad_v(q2, v2, pbar)[1:] - eq.beta(eq.pair.p1_coords(z1))
    assert np.max(np.abs(momentum)) <= 1e-10
    back = compat.invert_psi(eq.r2_system, eq.pair, eq.beta, z2)
    assert np.max(np.abs(back - z1)) <= 1e-10


positive = st.floats(0.3, 3.0)


@settings(max_examples=25, deadline=None)
@given(m=positive, i1=positive, i2=positive, radius=st.floats(0.1, 3.0), a_arg=angle,
       points=st.lists(st.tuples(unit, angle, st.floats(-1.5, 1.5)), min_size=1, max_size=3))
def test_row_built_b1_is_closed(m, i1, i2, radius, a_arg, points):
    a = CoVector(radius * np.array([np.cos(a_arg), np.sin(a_arg)]))
    eq = semidirect.build_stage_equivalence(
        models.beanie_gv_lagrangian(models.BeanieParams(m=m, i1=i1, i2=i2)),
        CoVector([1.0]), a, n_points=1, t_end=0.01)
    rows = eq.p1_system.bform

    def one_row(q, p):  # the row-built form, evaluated as a batch of one
        return tuple(block[0] for block in rows(q[None], p[None]))

    sys1 = MagneticSystem(n=1, k=2, lagrangian=lambda q, v, p: 0.0, bform=one_row)
    samples = [MagLagState([x], [0.0], [theta, nu]) for x, theta, nu in points]
    assert maglag.check_closedness(sys1, samples) <= 1e-6


# Right-hand sides from the integrators' factories, run by RK4 from a point
# where a regularity determinant vanishes (|det| <= DET_FLOOR = 1e-12): the
# error names the determinant and the start time of the step.
near = st.floats(-1e-7, 1e-7)
time = st.floats(0.0, 100.0)
centre = st.floats(-2.0, 2.0)


def raises_at(field, t, y, what):
    with pytest.raises(RegularityError, match=what) as err:
        numerics.rk4_integrate(field, y, t, t + 0.1, 0.1)
    assert re.search(rf"at t = {re.escape(f'{t:.6g}')}\b", str(err.value))


@settings(max_examples=50, deadline=None)
@given(c=centre, off=near, v=st.floats(-2.0, 2.0), t=time)
def test_singular_velocity_hessian_names_t(c, off, v, t):
    sys = MagneticSystem(
        n=1, k=0, lagrangian=lambda q, v, p: 0.5 * (q[0] - c) ** 2 * v[0] ** 2,
        dL_dq=lambda q, v, p: np.array([(q[0] - c) * v[0] ** 2]),
        dL_dv=lambda q, v, p: np.array([(q[0] - c) ** 2 * v[0]]),
        d2L_dv_dv=lambda q, v, p: np.array([[(q[0] - c) ** 2]]))
    field = maglag._field_factory(sys, MagLagState([c + 1.0], [v], np.zeros(0)))
    raises_at(field, t, np.array([c + off, v]), "singular velocity Hessian")


@settings(max_examples=50, deadline=None)
@given(c=centre, off=near, p=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
       t=time)
def test_singular_fibre_block_names_t(c, off, p, t):
    def bform(q, p):
        g = q[0] - c
        return np.zeros((1, 1)), np.zeros((1, 2)), np.array([[0.0, g], [-g, 0.0]])

    sys = MagneticSystem(
        n=1, k=2, bform=bform,
        lagrangian=lambda q, v, p: 0.5 * v[0] ** 2 - 0.25 * float(p @ p))
    field = maglag._field_factory(sys, MagLagState([c + 1.0], [0.1], p))
    raises_at(field, t, np.array([c + off, 0.1, *p]), "singular fibre block")


@settings(max_examples=50, deadline=None)
@given(c=centre, off=near, nu=st.lists(st.floats(0.1, 2.0), min_size=3, max_size=3),
       t=time)
def test_singular_group_metric_names_t(c, off, nu, t):
    # group metric (x - c)^2 on so(3), not declared constant
    lag = routh.InvariantLagrangian(
        sdim=1, group=lie.so3(),
        ell=lambda x, xd, xi: 0.5 * xd[0] ** 2 + 0.5 * (x[0] - c) ** 2 * float(xi @ xi),
        dell_dxi=lambda x, xd, xi: (x[0] - c) ** 2 * xi,
        d2_dxi_dxi=lambda x, xd, xi: (x[0] - c) ** 2 * np.eye(3))
    field = routh._field_factory(routh.ReducedRouthSystem(lag, mu=CoVector(nu)))
    raises_at(field, t, np.array([c + off, 0.1, *nu]), "group")
