"""Test oracles: the independent reference implementations that tests
compare the package against, kept outside it.  Hand-expanded equations
check its generic assembly; a second route to each reduced quantity (the
kinetic-energy identity for the Routhian, the joint chi/tau inversion, the
infinitesimal coadjoint action by structure constants) checks its fast
paths."""
from typing import Callable

import numpy as np

from magreduce import lie, models, numerics, routh
from magreduce.lie import AlgebraVector, CoVector, GroupElement, LieGroupSpec
from magreduce.maglag import MagneticSystem
from magreduce.numerics import RegularityError
from magreduce.routh import InvariantLagrangian
from magreduce.semidirect import SemiDirectLagrangian, gv_reduced_system, solve_tau


def rotor_reduced_field_closed_form(params: models.RotorParams, x, xdot, m: np.ndarray
                                    ) -> tuple[np.ndarray, float]:
    """Hand-expanded reduced rotor equations (mdot, xddot) at shape angle x,
    rotor rate xdot and body momentum m (left-invariant)."""
    lam = params.lam
    j3 = params.inertia_rotor[2]
    i3 = params.inertia_body[2]
    xd = float(np.atleast_1d(xdot)[0])
    m1, m2, m3 = m
    mdot = np.array([
        (1.0 / lam[2] - 1.0 / lam[1]) * m2 * m3 - (m2 * j3 / lam[2]) * xd,
        (1.0 / lam[0] - 1.0 / lam[2]) * m1 * m3 + (m1 * j3 / lam[2]) * xd,
        (1.0 / lam[1] - 1.0 / lam[0]) * m1 * m2,
    ])
    return mdot, float(-mdot[2] / i3)


def beanie_chart_system(params: models.BeanieParams, mu: float, a: complex) -> MagneticSystem:
    """Orbit-chart presentation of the full-group reduction: base phi,
    fibre (alpha, nu) with b = |a| e^{i alpha}, constant symplectic fibre
    block.  |a| enters only through an additive constant."""
    if a == 0:
        raise ValueError("dual action not onto: a must be nonzero")
    i1, i2, m = params.i1, params.i2, params.m
    itot = i1 + i2
    red = i1 * i2 / itot
    const = abs(a) ** 2 / (2.0 * m)
    pot, dpot = params.potential, params.dpotential

    def lagrangian(q, v, p):
        nu = p[1]
        return (0.5 * red * v[0] ** 2 + (i2 / itot) * nu * v[0]
                - pot(q) - const - 0.5 * nu ** 2 / itot)

    bqq = np.zeros((1, 1))
    bqp = np.zeros((1, 2))
    bpp = np.array([[0.0, 1.0], [-1.0, 0.0]])
    hvv = np.array([[red]])
    hvq = np.zeros((1, 1))
    hvp = np.array([[0.0, i2 / itot]])
    return MagneticSystem(
        n=1, k=2, lagrangian=lagrangian,
        bform=lambda q, p: (bqq, bqp, bpp),
        dL_dq=lambda q, v, p: -np.asarray(dpot(q), dtype=float),
        dL_dv=lambda q, v, p: np.array([red * v[0] + (i2 / itot) * p[1]]),
        dL_dp=lambda q, v, p: np.array([0.0, (i2 / itot) * v[0] - p[1] / itot]),
        d2L_dv_dv=lambda q, v, p: hvv,
        d2L_dv_dq=lambda q, v, p: hvq,
        d2L_dv_dp=lambda q, v, p: hvp,
        constant_bform=True,
        name="planar_pair_orbit_chart")


def beanie_r2_system(params: models.BeanieParams, a: complex) -> MagneticSystem:
    """Translation-reduced planar pair on (phi, theta): an ordinary
    Lagrangian system (no fibre, no magnetic term), written from its closed
    form as an independent cross-check of
    `semidirect.abelian_reduced_system`, which the CLI's `reduce-abelian`
    mode runs."""
    i1, i2, m = params.i1, params.i2, params.m
    const = abs(a) ** 2 / (2.0 * m)
    pot, dpot = params.potential, params.dpotential

    # the Lagrangian and dL/dv take one point or stacked rows
    @numerics.takes_rows
    def lagrangian(q, v, p):
        return (0.5 * i1 * v[..., 1] ** 2 + 0.5 * i2 * (v[..., 1] + v[..., 0]) ** 2
                - numerics.each_row(pot, q[..., :1]) - const)

    hvv = np.array([[i2, i2], [i2, i1 + i2]])
    hvq = np.zeros((2, 2))

    @numerics.takes_rows
    def dl_dv(q, v, p):
        return np.stack([i2 * (v[..., 1] + v[..., 0]),
                         i1 * v[..., 1] + i2 * (v[..., 1] + v[..., 0])], -1)

    return MagneticSystem(
        n=2, k=0, lagrangian=lagrangian,
        dL_dq=lambda q, v, p: np.array([-float(dpot(q[:1])[0]), 0.0]),
        dL_dv=dl_dv,
        d2L_dv_dv=lambda q, v, p: hvv,
        d2L_dv_dq=lambda q, v, p: hvq,
        constant_bform=True,
        constant_hessian=True,
        name="planar_pair_translation_reduced")


def v_reduced_closed_form(sd: SemiDirectLagrangian, a: CoVector, q2, v2
                          ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(L, dL/dv, dL/dq, d2L/dv dq) of the V-reduced system at one point
    (x, theta), (xdot, thetadot), from the Schur complement of the metric
    blocks that ell's Hessians give at the origin, with b = rho(exp
    theta)^T a through the spec's `rep` and `exp_fn` and db/dtheta = G^T b:

        L = y^T Schur y / 2 + y^T C b - b^T M_uu^-1 b / 2 - V(x),

    y = (xdot, thetadot) and C = M_yu M_uu^-1."""
    gv, lag, s = sd.gv, sd.inner, sd.sdim
    n = s + 1
    zero = np.zeros(s), np.zeros(s), np.zeros(gv.dim)
    metric = np.block([[lag.jac_xdot_xdot(*zero), lag.jac_xi_xdot(*zero).T],
                       [lag.jac_xi_xdot(*zero), lag.jac_xi_xi(*zero)]])
    m_yy, m_yu, m_uu = metric[:n, :n], metric[:n, n:], metric[n:, n:]
    m_uu_inv = np.linalg.inv(m_uu)
    schur = m_yy - m_yu @ m_uu_inv @ m_yu.T
    coupling = m_yu @ m_uu_inv
    q2, v2 = np.asarray(q2, dtype=float), np.asarray(v2, dtype=float)
    x = q2[:s]
    b = gv.rep(gv.base.exp_fn(q2[s:])).T @ a.coords
    db = gv.rep_inf(np.ones(1)).T @ b
    lagrangian = (0.5 * v2 @ schur @ v2 + v2 @ coupling @ b - 0.5 * b @ m_uu_inv @ b
                  - (lag.potential(x) if lag.potential else 0.0))
    dl_dq = np.append(lag.dell_dx(x, *zero[1:]), v2 @ coupling @ db - b @ m_uu_inv @ db)
    d2l_dv_dq = np.zeros((n, n))
    d2l_dv_dq[:, s] = coupling @ db
    return float(lagrangian), schur @ v2 + coupling @ b, dl_dq, d2l_dv_dq


def rotor_chart_lagrangian(params: models.RotorParams) -> Callable:
    """Unreduced Lagrangian in chart coordinates (x, alpha, beta, gamma),
    L = 1/2 w.Lambda w + 1/2 J3 xdot^2 + J3 xdot w3 with w the body angular
    velocity of the chart; vectorized over rows of (m, 4) coordinate/rate
    arrays, scalar 4-vectors also work."""
    l1, l2, l3 = params.lam
    j3 = params.inertia_rotor[2]

    def lag(q, qd):
        q = np.atleast_2d(q)
        qd = np.atleast_2d(qd)
        xd = qd[:, 0]
        w1, w2, w3 = models._columns(models.euler_zxz_body_velocity(q[:, 1:], qd[:, 1:]))
        vals = 0.5 * (l1 * w1 * w1 + l2 * w2 * w2 + l3 * w3 * w3
                      + j3 * xd * xd) + j3 * xd * w3
        return vals if vals.size > 1 else float(vals[0])

    return lag


def inf_coadjoint(spec: LieGroupSpec, xi: AlgebraVector, nu: CoVector) -> CoVector:
    """Infinitesimal coadjoint action ad*_xi nu, defined by
    <ad*_xi nu, eta> = <nu, [xi, eta]> for all eta."""
    lie._check(spec, xi, AlgebraVector)
    lie._check(spec, nu, CoVector)
    # (ad*_xi nu)_c = sum_{a,b} nu_a xi_b structure[a, b, c]
    return CoVector(np.einsum("a,b,abc->c", nu.coords, xi.coords, spec.structure))


def validate_mechanical(lag: InvariantLagrangian,
                        samples: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
                        ) -> None:
    """Check that ell + V is a positive-definite quadratic form in the
    velocities at the sampled (x, xdot, xi) points; raises otherwise.

    Positive definiteness is probed through the eigenvalues of the full
    velocity Hessian, and the quadratic property along rays through zero.
    A non-finite sample is refused before anything is evaluated, and each
    check fails unless it holds, so a NaN value fails it too.
    """
    if lag.potential is None:
        raise ValueError("validate_mechanical expects a mechanical Lagrangian")
    v = lag.potential
    for index, (x, xdot, xi) in enumerate(samples):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xdot = np.atleast_1d(np.asarray(xdot, dtype=float))
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if not all(np.isfinite(a).all() for a in (x, xdot, xi)):
            raise ValueError(f"sample {index} is not finite")
        xi_xdot = lag.jac_xi_xdot(x, xdot, xi)
        hess = np.block([[lag.jac_xdot_xdot(x, xdot, xi), xi_xdot.T],
                         [xi_xdot, lag.jac_xi_xi(x, xdot, xi)]])
        if not np.min(np.linalg.eigvalsh(0.5 * (hess + hess.T))) > 0:
            raise ValueError("kinetic metric is not positive definite at a sample")
        kin = lag.value(x, xdot, xi) + float(v(x))
        kin_half = lag.value(x, 0.5 * xdot, 0.5 * xi) + float(v(x))
        if not abs(kin_half - 0.25 * kin) <= 1e-9 * (1.0 + abs(kin)):
            raise ValueError("Lagrangian plus potential is not quadratic in "
                             "the velocities")


def momentum_map(lag: InvariantLagrangian, x, xdot, g: GroupElement,
                 xi: AlgebraVector) -> CoVector:
    """Conserved momentum of the group action, Ad*_{g^-1} applied to the
    group-velocity fibre derivative at (x, xdot, xi)."""
    if len(xi) != lag.gdim:
        raise ValueError("group velocity has wrong dimension")
    f2 = CoVector(lag.group_momentum(x, xdot, xi.coords))
    return lie.coadjoint(lag.group, lie.inverse(lag.group, g), f2)


def routhian_mechanical(lag: InvariantLagrangian, x, xdot, nu: CoVector,
                        potential: Callable | None = None) -> float:
    """Routhian of a mechanical system via the kinetic-energy identity
    2(R + V) = <dell/dxdot, xdot> - <dell/dxi, xi> on the constraint."""
    if lag.potential is None:
        raise ValueError("routhian_mechanical requires a mechanical-type Lagrangian")
    v = potential or lag.potential
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xdot = np.atleast_1d(np.asarray(xdot, dtype=float))
    chi = routh.solve_chi(lag, x, xdot, nu).coords
    f1 = lag.shape_momentum(x, xdot, chi)
    half = 0.5 * (float(f1 @ xdot) - float(nu.coords @ chi))
    return half - float(v(x))


def reduced_energy(lag: InvariantLagrangian, x, xdot, nu: CoVector) -> float:
    """Energy of the reduced system, <dR/dxdot, xdot> - R."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xdot = np.atleast_1d(np.asarray(xdot, dtype=float))
    chi = routh.solve_chi(lag, x, xdot, nu).coords
    return float(routh._energy(lag, x, xdot, nu.coords, chi))


def kks_form(group: LieGroupSpec, nu: CoVector, xi: AlgebraVector,
             xi2: AlgebraVector) -> float:
    """Orbit symplectic pairing <nu, [xi, xi2]> on coadjoint-orbit tangents
    generated by xi and xi2."""
    return lie.pair(nu, lie.bracket(group, xi, xi2))


def solve_chi12(sd: SemiDirectLagrangian, x, xdot, nu: CoVector, b: CoVector
                ) -> tuple[AlgebraVector, np.ndarray]:
    """Joint inversion of both momentum slots; returns (xi over g, u in V).

    Cross-checks the V-slot result against solve_tau at the returned xi
    (the two must agree by regularity)."""
    if len(nu) != sd.d0 or len(b) != sd.vdim:
        raise ValueError("momentum slots have wrong dimensions")
    combined = CoVector(np.concatenate([nu.coords, b.coords]))
    zeta = routh.solve_chi(sd.inner, x, xdot, combined)
    xi, u = zeta.coords[:sd.d0], zeta.coords[sd.d0:]
    tau = solve_tau(sd, x, xdot, xi, b)
    if np.max(np.abs(tau - u)) > 1e-9:
        raise RegularityError("chi/tau consistency failure: the V-slot "
                              "inversions disagree beyond 1e-9")
    return AlgebraVector(xi), u


def routhian_full(sd: SemiDirectLagrangian, x, xdot, nu: CoVector,
                  b: CoVector) -> float:
    """Reduced Lagrangian of the full-group reduction,
    ell - <nu, chi1> - <b, chi2> on the momentum constraint."""
    combined = CoVector(np.concatenate([nu.coords, b.coords]))
    return routh.routhian(sd.inner, x, xdot, combined)


def reduced_field_full(sd: SemiDirectLagrangian, x, xdot, nu: CoVector,
                       b: CoVector) -> tuple[np.ndarray, np.ndarray, CoVector, CoVector]:
    """Right-hand side (xdot, xddot, nudot, bdot) of the full-group
    reduced equations."""
    sys = gv_reduced_system(sd, nu, b)
    state = routh.ReducedState(x, xdot, CoVector(np.concatenate([nu.coords, b.coords])))
    xdot_out, xddot, wdot = routh.reduced_vector_field(sys, state)
    return (xdot_out, xddot, CoVector(wdot.coords[:sd.d0]),
            CoVector(wdot.coords[sd.d0:]))
