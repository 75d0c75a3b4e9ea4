"""Property tests of the orbit forms and the compatible map, at the README
tolerances: orbit-form identity 1e-6, solver round trips 1e-10."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magreduce import compat, models, semidirect
from magreduce.lie import CoVector


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
