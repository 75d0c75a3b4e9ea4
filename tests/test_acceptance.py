"""Acceptance suite.

Each criterion prints one pass/fail line (run with -s to see them all) and
asserts at its stated tolerance.  Long trajectories that several criteria
share are computed once per module.
"""
import time

import numpy as np
import pytest

from magreduce import compat, lie, maglag, models, routh, semidirect
from magreduce.lie import AlgebraVector, CoVector
from magreduce.numerics import StepperChoice
from oracles import (beanie_chart_system, reduced_field_full, rotor_chart_lagrangian,
                     rotor_reduced_field_closed_form, routhian_full, solve_chi12)

RK4 = StepperChoice(kind="rk4", h=1e-3)
M0 = np.array([0.8, 0.2, 0.3])
BEANIE_STATE0 = None  # filled below per fixture


def _emit(num, ok, detail):
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def beanie(beanie_params):
    return models.beanie_gv_lagrangian(beanie_params)


@pytest.fixture(scope="module")
def beanie_state0(beanie_params):
    # full state realizing nu = 1, b = 1 + 0i at theta = 0
    i1, i2 = beanie_params.i1, beanie_params.i2
    thetadot0 = (1.0 - i2 * 0.3) / (i1 + i2)
    return np.array([0.4, 0.0, 0.0, 0.0, 0.3, thetadot0, 1.0, 0.0])


@pytest.fixture(scope="module")
def beanie_full_t10(beanie_params, beanie_state0):
    return models.beanie_full_trajectory(beanie_params, beanie_state0, 10.0, RK4)


@pytest.fixture(scope="module")
def beanie_gv_t10(beanie):
    return semidirect.integrate_reduced_full(
        beanie, [0.4], [0.3], CoVector([1.0]), CoVector([1.0, 0.0]), 10.0, RK4)


@pytest.fixture(scope="module")
def rotor_full_t10(rotor_params):
    s0 = models.rotor_chart_state_from_momentum(rotor_params, M0, xdot=0.2)
    return s0, models.rotor_full_trajectory(rotor_params, s0, 10.0, RK4)


@pytest.fixture(scope="module")
def rotor_reduced_t10(rotor_params):
    sys = models.rotor_reduced_system(rotor_params, CoVector(M0))
    return routh.integrate_reduced(
        sys, routh.ReducedState([0.0], [0.2], CoVector(M0)), 10.0, RK4)


def test_criterion_1_rotor_formula_reproduction(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        body = rng.uniform(0.8, 3.0, size=3)
        j3 = rng.uniform(0.3, 1.5)
        params = models.RotorParams(inertia_body=body,
                                    inertia_rotor=(0.0, 0.0, j3))
        lam = params.lam
        i3 = body[2]
        lag = models.rotor_lagrangian(params)
        xd = rng.normal(size=1)
        w = rng.normal(size=3)
        m = rng.normal(size=3)

        f2 = lag.group_momentum(np.zeros(1), xd, w)
        worst = max(worst, float(np.max(np.abs(f2 - np.array(
            [lam[0] * w[0], lam[1] * w[1], lam[2] * w[2] + j3 * xd[0]])))))

        chi = routh.solve_chi(lag, np.zeros(1), xd, CoVector(m)).coords
        worst = max(worst, float(np.max(np.abs(chi - np.array(
            [m[0] / lam[0], m[1] / lam[1], (m[2] - j3 * xd[0]) / lam[2]])))))

        r = routh.routhian(lag, np.zeros(1), xd, CoVector(m))
        r_exp = (0.5 * (j3 * i3 / lam[2] * xd[0] ** 2
                        - m[0] ** 2 / lam[0] - m[1] ** 2 / lam[1]
                        - m[2] ** 2 / lam[2]) + j3 / lam[2] * xd[0] * m[2])
        worst = max(worst, abs(r - r_exp))

        sys = models.rotor_reduced_system(params, CoVector(m))
        _, xdd, nudot = routh.reduced_vector_field(
            sys, routh.ReducedState(np.zeros(1), xd, CoVector(m)))
        mdot, xdd_exp = rotor_reduced_field_closed_form(
            params, np.zeros(1), xd, m)
        worst = max(worst, float(np.max(np.abs(nudot.coords - mdot))),
                    abs(xdd[0] - xdd_exp))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _emit(1, ok, f"rotor displays: residual {worst:.2e} (<=1e-10), "
                 f"runtime {elapsed:.2f}s (<1s)")


def test_criterion_2_beanie_formula_reproduction(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        m_ = rng.uniform(0.5, 2.0)
        i1 = rng.uniform(0.5, 3.0)
        i2 = rng.uniform(0.5, 3.0)
        c = rng.uniform(0.5, 2.0)
        params = models.BeanieParams(
            m=m_, i1=i1, i2=i2,
            potential=lambda phi, c=c: c * (1 - np.cos(float(np.atleast_1d(phi)[0]))),
            dpotential=lambda phi, c=c: np.array(
                [c * np.sin(float(np.atleast_1d(phi)[0]))]))
        itot = i1 + i2
        sd = models.beanie_gv_lagrangian(params)
        state = rng.normal(size=8)

        # full equations in normal form
        acc = models.beanie_full_field(params, state)
        vp = c * np.sin(state[0])
        worst = max(worst, abs(acc[0] + itot / (i1 * i2) * vp),
                    abs(acc[1] - vp / i1), abs(acc[2]), abs(acc[3]))

        # momentum relations
        nu, b = models.beanie_momenta(params, state)
        nu_exp = itot * state[5] + i2 * state[4]
        b_exp = np.exp(-1j * state[1]) * m_ * complex(state[6], state[7])
        worst = max(worst, abs(nu - nu_exp), abs(b - b_exp))

        phi, phid = state[:1], state[4:5]
        nu_r = rng.normal(size=1)
        b_r = rng.normal(size=2)
        xi, u = solve_chi12(sd, phi, phid, CoVector(nu_r),
                            CoVector(b_r))
        worst = max(worst, abs(xi.coords[0] - (nu_r[0] - i2 * phid[0]) / itot),
                    float(np.max(np.abs(u - b_r / m_))))

        r1 = routhian_full(sd, phi, phid, CoVector(nu_r), CoVector(b_r))
        r1_exp = (0.5 * i1 * i2 / itot * phid[0] ** 2
                  + i2 / itot * nu_r[0] * phid[0]
                  - params.potential(phi) - float(b_r @ b_r) / (2 * m_)
                  - 0.5 * nu_r[0] ** 2 / itot)
        worst = max(worst, abs(r1 - r1_exp))

        g = lie.exponential(lie.circle(), AlgebraVector([rng.uniform(0, 2 * np.pi)]))
        xi_a = AlgebraVector(rng.normal(size=1))
        a_r = CoVector(rng.normal(size=2))
        r2 = semidirect.routhian_abelian(sd, phi, phid, g, xi_a, a_r)
        r2_exp = (0.5 * i1 * xi_a.coords[0] ** 2
                  + 0.5 * i2 * (xi_a.coords[0] + phid[0]) ** 2
                  - params.potential(phi)
                  - float(a_r.coords @ a_r.coords) / (2 * m_))
        worst = max(worst, abs(r2 - r2_exp))

        # the three reduced equations
        _, xdd, nudot, bdot = reduced_field_full(
            sd, phi, phid, CoVector(nu_r), CoVector(b_r))
        chi1 = (nu_r[0] - i2 * phid[0]) / itot
        vp = c * np.sin(phi[0])
        worst = max(worst, abs(nudot.coords[0]),
                    float(np.max(np.abs(
                        bdot.coords - chi1 * np.array([b_r[1], -b_r[0]])))),
                    abs(i1 * i2 / itot * xdd[0]
                        + i2 / itot * nudot.coords[0] + vp))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _emit(2, ok, f"beanie displays: residual {worst:.2e} (<=1e-10), "
                 f"runtime {elapsed:.2f}s (<1s)")


def test_criterion_3_projection_theorem(beanie_params, rotor_params):
    t0 = time.perf_counter()
    # beanie: full flow projected to the reduced variables vs the reduced flow
    i1, i2 = beanie_params.i1, beanie_params.i2
    thetadot0 = (1.0 - i2 * 0.3) / (i1 + i2)
    state0 = np.array([0.4, 0.0, 0.0, 0.0, 0.3, thetadot0, 1.0, 0.0])
    full = models.beanie_full_trajectory(beanie_params, state0, 10.0, RK4)
    sd = models.beanie_gv_lagrangian(beanie_params)
    reduced = semidirect.integrate_reduced_full(
        sd, [0.4], [0.3], CoVector([1.0]), CoVector([1.0, 0.0]), 10.0, RK4)
    dev_b = 0.0
    for i in range(0, len(full.times), 10):
        s = full.states[i]
        nu_t, b_t = models.beanie_momenta(beanie_params, s)
        row = np.array([s[0], s[4], nu_t, b_t.real, b_t.imag])
        dev_b = max(dev_b, float(np.max(np.abs(row - reduced.states[i]))))

    # rotor: Euler-chart oracle vs the reduced flow over t in [0, 5]
    s0 = models.rotor_chart_state_from_momentum(rotor_params, M0, xdot=0.2)
    oracle = models.rotor_full_trajectory(rotor_params, s0, 5.0, RK4)
    sys = models.rotor_reduced_system(rotor_params, CoVector(M0))
    red_r = routh.integrate_reduced(
        sys, routh.ReducedState([s0[0]], [s0[4]], CoVector(M0)), 5.0, RK4)
    dev_r = 0.0
    for i in range(0, len(red_r.times), 10):
        s = oracle.states[i]
        row = np.concatenate([[s[0], s[4]],
                              models.rotor_body_momentum(rotor_params, s)])
        dev_r = max(dev_r, float(np.max(np.abs(row - red_r.states[i]))))
    elapsed = time.perf_counter() - t0
    ok = dev_b <= 1e-6 and dev_r <= 1e-5 and elapsed < 5.0
    _emit(3, ok, f"projection: beanie {dev_b:.2e} (<=1e-6), "
                 f"rotor {dev_r:.2e} (<=1e-5), runtime {elapsed:.2f}s (<5s)")


def test_criterion_4_conservation_suite(beanie_params, rotor_params,
                                        beanie_full_t10, beanie_gv_t10,
                                        rotor_full_t10, rotor_reduced_t10):
    # energy drifts across reduced and full systems
    energy_drifts = [beanie_gv_t10.report.entries["energy_drift"],
                     rotor_reduced_t10.report.entries["energy_drift"]]
    lag_chart = rotor_chart_lagrangian(rotor_params)
    s0, rotor_traj = rotor_full_t10
    e_rot = np.array([lag_chart(s[:4], s[4:]) for s in rotor_traj.states[::50]])
    energy_drifts.append(float(np.max(np.abs(e_rot - e_rot[0]))))

    def beanie_energy(s):
        return (0.5 * beanie_params.m * (s[6] ** 2 + s[7] ** 2)
                + 0.5 * beanie_params.i1 * s[5] ** 2
                + 0.5 * beanie_params.i2 * (s[5] + s[4]) ** 2
                + beanie_params.potential(s[:1]))

    e_b = np.array([beanie_energy(s) for s in beanie_full_t10.states[::50]])
    energy_drifts.append(float(np.max(np.abs(e_b - e_b[0]))))
    energy_worst = max(energy_drifts)

    # rotor Casimir |m|^2 along the reduced flow
    msq = np.sum(rotor_reduced_t10.states[:, 2:] ** 2, axis=1)
    casimir_drift = float(np.max(np.abs(msq - msq[0])))

    # beanie nu and |b|^2 along the reduced flow
    nu_drift = float(np.max(np.abs(beanie_gv_t10.states[:, 2]
                                   - beanie_gv_t10.states[0, 2])))
    bsq = np.sum(beanie_gv_t10.states[:, 3:5] ** 2, axis=1)
    bsq_drift = float(np.max(np.abs(bsq - bsq[0])))

    # momentum-map drift along both full flows
    j_rot = np.array([models.rotor_spatial_momentum(rotor_params, s)
                      for s in rotor_traj.states[::50]])
    mom_drift = float(np.max(np.abs(j_rot - j_rot[0])))
    spec = lie.se2()
    js = []
    for s in beanie_full_t10.states[::50]:
        nu_t, b_t = models.beanie_momenta(beanie_params, s)
        g = lie.GroupElement((s[1], s[2:4]))
        js.append(lie.coadjoint(spec, lie.inverse(spec, g),
                                CoVector([nu_t, b_t.real, b_t.imag])).coords)
    js = np.array(js)
    mom_drift = max(mom_drift, float(np.max(np.abs(js - js[0]))))

    ok = (energy_worst <= 1e-8 and casimir_drift <= 1e-9
          and nu_drift <= 1e-9 and bsq_drift <= 1e-9 and mom_drift <= 1e-8)
    _emit(4, ok, f"conservation: energy {energy_worst:.2e} (<=1e-8), "
                 f"|m|^2 {casimir_drift:.2e} (<=1e-9), nu {nu_drift:.2e} "
                 f"(<=1e-9), |b|^2 {bsq_drift:.2e} (<=1e-9), "
                 f"momentum map {mom_drift:.2e} (<=1e-8)")


def test_criterion_5_stage_equivalence(beanie, rng):
    t0 = time.perf_counter()
    eq = semidirect.build_stage_equivalence(beanie, CoVector([1.0]),
                                            CoVector([1.0, 0.0]),
                                            n_points=100, t_end=10.0)
    sys1 = eq.p1_system
    samples = np.column_stack([rng.uniform(-1, 1, 100),
                               rng.uniform(-1, 1, 100),
                               rng.uniform(-np.pi, np.pi, 100),
                               rng.uniform(-1.5, 1.5, 100)])
    rep = compat.verify_symplectomorphism(sys1, eq.r2_system, eq.psi,
                                          samples, rng, tangent_pairs=10)
    elapsed = time.perf_counter() - t0
    ok = (eq.report["routhian_identity_residual"] <= 1e-8
          and rep["max_residual_form"] <= 1e-6
          and eq.report["trajectory_deviation"] <= 1e-5
          and elapsed < 10.0)
    _emit(5, ok, f"stage equivalence: Routhian "
                 f"{eq.report['routhian_identity_residual']:.2e} (<=1e-8), "
                 f"2-form {rep['max_residual_form']:.2e} (<=1e-6), trajectory "
                 f"{eq.report['trajectory_deviation']:.2e} (<=1e-5), "
                 f"runtime {elapsed:.2f}s (<10s)")


def test_criterion_6_orbit_form_is_exact(beanie, rng):
    samples = np.column_stack([rng.uniform(-2, 2, 100),
                               rng.uniform(-np.pi, np.pi, 100)])
    res = semidirect.verify_lemma_B_equals_dtheta(beanie, CoVector([1.0, 0.0]),
                                                  samples)
    ok = res <= 1e-6
    _emit(6, ok, f"orbit 2-form vs d(theta): residual {res:.2e} (<=1e-6)")


def test_criterion_7_cross_solver_consistency(beanie_params, beanie,
                                              beanie_gv_t10):
    sys = beanie_chart_system(beanie_params, 1.0, 1 + 0j)
    chart = maglag.integrate(sys, maglag.MagLagState([0.4], [0.3], [0.0, 1.0]),
                             10.0, RK4)
    dev = 0.0
    for i in range(0, len(chart.times), 10):
        alpha, nu = chart.states[i, 2], chart.states[i, 3]
        row = np.array([chart.states[i, 0], chart.states[i, 1], nu,
                        np.cos(alpha), np.sin(alpha)])
        dev = max(dev, float(np.max(np.abs(row - beanie_gv_t10.states[i]))))
    ok = dev <= 1e-6
    _emit(7, ok, f"cross-solver: chart vs reduced flow {dev:.2e} (<=1e-6)")


def test_criterion_8_solver_health(beanie_params, rotor_params, beanie, rng):
    worst = 0.0
    lag = models.rotor_lagrangian(rotor_params)
    for _ in range(100):
        xd = rng.normal(size=1)
        nu = CoVector(rng.normal(size=3))
        chi = routh.solve_chi(lag, np.zeros(1), xd, nu)
        worst = max(worst, float(np.max(np.abs(
            lag.group_momentum(np.zeros(1), xd, chi.coords) - nu.coords))))
    for _ in range(100):
        x, xdp = rng.normal(size=1), rng.normal(size=1)
        nu1, b1 = CoVector(rng.normal(size=1)), CoVector(rng.normal(size=2))
        xi, u = solve_chi12(beanie, x, xdp, nu1, b1)
        z = np.concatenate([xi.coords, u])
        back = beanie.inner.group_momentum(x, xdp, z)
        worst = max(worst, float(np.max(np.abs(
            back - np.concatenate([nu1.coords, b1.coords])))))
        u2 = semidirect.solve_tau(beanie, x, xdp, xi.coords, b1)
        worst = max(worst, float(np.max(np.abs(
            beanie.linear_slot_momentum(x, xdp, xi.coords, u2) - b1.coords))))
    eq = semidirect.build_stage_equivalence(beanie, CoVector([1.0]),
                                            CoVector([1.0, 0.0]),
                                            n_points=2, t_end=0.1)
    for _ in range(100):
        z1 = rng.normal(size=4)
        z2 = eq.psi(z1)
        q2, v2, pbar = eq.pair.split2(z2)
        resid = (eq.r2_system.grad_v(q2, v2, pbar)[1:]
                 - eq.beta(eq.pair.p1_coords(z1)))
        worst = max(worst, float(np.max(np.abs(resid))))

    # observed RK4 order on the reduced rotor
    m0 = CoVector([8.0, 2.0, 3.0])
    sys = models.rotor_reduced_system(rotor_params, m0)
    s0 = routh.ReducedState([0.0], [2.0], m0)
    finals = []
    for h in (4e-3, 2e-3, 1e-3):
        traj = routh.integrate_reduced(sys, s0, 2.0,
                                       StepperChoice(kind="rk4", h=h))
        finals.append(traj.states[-1])
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    order = float(np.log2(e1 / e2))

    ok = worst <= 1e-10 and order >= 3.9
    _emit(8, ok, f"solver health: round-trip residual {worst:.2e} (<=1e-10), "
                 f"RK4 observed order {order:.3f} (>=3.9)")
