"""Ready-made model systems: a rigid body carrying a rotor on its third
principal axis, and a pair of coupled planar bodies free to translate and
rotate (two independent oracles for the reduction machinery).

The rotor model reduces over the rotation group; its unreduced check runs
in a Z-X-Z Euler-angle chart, by the closed-form Euler-Lagrange system of
the chart Lagrangian L = 1/2 w.Lambda w + 1/2 J3 xdot^2 + J3 xdot w3 (w the
body angular velocity of the chart), deliberately independent of the
reduced code path.  The tests difference L itself (`rotor_chart_lagrangian`
in tests/oracles.py) to check that system.
The planar model reduces over the full planar Euclidean group or over
translations only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import lie, numerics, routh, semidirect
from .lie import CoVector
from .maglag import Trajectory
from .numerics import StepperChoice

GIMBAL_GUARD = 0.99


@dataclass(frozen=True)
class RotorParams:
    """Body inertia, rotor inertia (third axis live), and their sums."""
    inertia_body: np.ndarray = (3.0, 2.0, 1.0)
    inertia_rotor: np.ndarray = (0.0, 0.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "inertia_body",
                           np.asarray(self.inertia_body, dtype=float))
        object.__setattr__(self, "inertia_rotor",
                           np.asarray(self.inertia_rotor, dtype=float))
        i, j = self.inertia_body, self.inertia_rotor
        if i.shape != (3,) or j.shape != (3,):
            raise ValueError("inertias must be 3-vectors")
        for name, value in (("inertia_body", i), ("inertia_rotor", j)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value.tolist()}")
        if np.any(i <= 0) or np.any(j < 0) or j[2] <= 0:
            raise ValueError("body inertia must be positive, rotor inertia "
                             "nonnegative with a positive third component")
        if not self.lam[2] > j[2]:
            raise ValueError("third-axis total inertia must exceed the rotor part")

    @property
    def lam(self) -> np.ndarray:
        return self.inertia_body + self.inertia_rotor


def rotor_lagrangian(params: RotorParams) -> routh.InvariantLagrangian:
    """Reduced-form rotor Lagrangian over the rotation group: quadratic in
    (rotor rate, body angular velocity) with constant metric and no
    potential."""
    lam = params.lam
    j3 = params.inertia_rotor[2]
    return routh.quadratic_invariant_lagrangian(
        sdim=1, group=lie.so3(),
        a_block=[[j3]],
        b_block=[[0.0, 0.0, j3]],
        c_block=np.diag(lam))


def rotor_reduced_system(params: RotorParams, m0: CoVector) -> routh.ReducedRouthSystem:
    """The reduced rotor at body momentum level m0 (left-invariant)."""
    if not isinstance(m0, CoVector) or len(m0) != 3:
        raise ValueError("m0 must be a CoVector of length 3")
    return routh.ReducedRouthSystem(rotor_lagrangian(params), mu=m0, side="left")


# -- unreduced rotor in a Z-X-Z Euler chart ---------------------------------


def _columns(arr) -> np.ndarray:
    """The last axis first, so that `a, b, c = _columns(rows)` unpacks the
    columns of stacked rows and the entries of one vector alike."""
    return np.moveaxis(np.asarray(arr, dtype=float), -1, 0)


def _matrices(entries: list, shape: tuple) -> np.ndarray:
    """3x3 matrices from nine row-major entries (scalars or arrays)."""
    return np.stack(np.broadcast_arrays(*entries), -1).reshape(shape + (3, 3))


def euler_zxz_matrix(angles: np.ndarray) -> np.ndarray:
    """Rotation matrix of Z-X-Z Euler angles (3,), or stacked matrices
    (N, 3, 3) for stacked angles (N, 3)."""
    a, b, g = _columns(angles)
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cg, sg = np.cos(g), np.sin(g)
    rz_a = _matrices([ca, -sa, 0.0, sa, ca, 0.0, 0.0, 0.0, 1.0], ca.shape)
    rx_b = _matrices([1.0, 0.0, 0.0, 0.0, cb, -sb, 0.0, sb, cb], cb.shape)
    rz_g = _matrices([cg, -sg, 0.0, sg, cg, 0.0, 0.0, 0.0, 1.0], cg.shape)
    return rz_a @ rx_b @ rz_g


def euler_zxz_body_velocity(angles: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Body angular velocity of the Z-X-Z chart; one point or stacked rows."""
    _, b, g = _columns(angles)
    ad, bd, gd = _columns(rates)
    sb, cb = np.sin(b), np.cos(b)
    sg, cg = np.sin(g), np.cos(g)
    return np.stack([ad * sb * sg + bd * cg,
                     ad * sb * cg - bd * sg,
                     ad * cb + gd], -1)


def _chart_constants(params: RotorParams) -> tuple:
    """(lambda1, lambda2, lambda3, I3, J3) as Python floats."""
    l1, l2, l3 = params.lam.tolist()
    return l1, l2, l3, float(params.inertia_body[2]), float(params.inertia_rotor[2])


def _chart_flow(k: tuple, sb, cb, sg, cg, pi) -> tuple:
    """The closed-form Euler-Lagrange system of the chart Lagrangian at
    chart momenta pi = (pi_x, pi_alpha, pi_beta, pi_gamma): returns the
    rates (xdot, alphadot, betadot, gammadot), pidot_beta and pidot_gamma
    (pi_x and pi_alpha are conserved: x and alpha are cyclic).  Plain
    arithmetic, so the sines and cosines of beta and gamma and the momenta
    may be floats (one point) or numpy columns (stacked rows); k is
    `_chart_constants`.  With m = Lambda w + J3 xdot e3 the body momentum,
    pi_gamma = m3 and u = m1 sin(gamma) + m2 cos(gamma)."""
    l1, l2, l3, i3, j3 = k
    px, pa, pb, pg = pi
    xd = (l3 * px - j3 * pg) / (j3 * i3)
    w3 = (pg - px) / i3
    u = (pa - cb * pg) / sb
    m1 = sg * u + cg * pb
    m2 = cg * u - sg * pb
    w1, w2 = m1 / l1, m2 / l2
    ad = (w1 * sg + w2 * cg) / sb
    bd = w1 * cg - w2 * sg
    gd = w3 - ad * cb
    return (xd, ad, bd, gd), ad * (cb * u - sb * pg), m1 * w2 - m2 * w1


def _chart_momenta(params: RotorParams, state: np.ndarray) -> np.ndarray:
    """Chart momenta pi = dL/dqdot of a chart state (q, qdot):
    pi_x = J3 (xdot + w3), pi_alpha = m.dw/dalphadot, pi_beta = m.dw/dbetadot,
    pi_gamma = m3; one state (8,) or stacked rows (N, 8)."""
    state = np.asarray(state, dtype=float)
    j3 = params.inertia_rotor[2]
    _, b, g = _columns(state[..., 1:4])
    sb, cb, sg, cg = np.sin(b), np.cos(b), np.sin(g), np.cos(g)
    m1, m2, m3 = _columns(rotor_body_momentum(params, state))
    w3 = (m3 - j3 * state[..., 4]) / params.lam[2]
    return np.stack([j3 * (state[..., 4] + w3), sb * (sg * m1 + cg * m2) + cb * m3,
                     cg * m1 - sg * m2, m3], -1)


def rotor_chart_field(params: RotorParams) -> Callable:
    """Right-hand side field(t, y) of the unreduced rotor in the Euler
    chart, with y = (q, pi): chart coordinates q = (x, alpha, beta, gamma)
    and their conjugate momenta pi = dL/dqdot.

    The closed-form Euler-Lagrange system of the chart Lagrangian
    (`_chart_flow`), evaluated in Python floats.  Raises ValueError near
    gimbal lock (|cos beta| >= GIMBAL_GUARD).
    """
    k = _chart_constants(params)

    def field(t, y):
        _, _, b, g, *pi = y.tolist()
        cb = math.cos(b)
        if abs(cb) >= GIMBAL_GUARD:
            raise ValueError(
                "Euler chart near gimbal lock (|cos beta| >= 0.99); restart the "
                "trajectory in a rotated chart")
        rates, pdb, pdg = _chart_flow(k, math.sin(b), cb, math.sin(g), math.cos(g), pi)
        return np.array([*rates, 0.0, 0.0, pdb, pdg])

    return field


def rotor_full_trajectory(params: RotorParams, state0: np.ndarray, t_end: float,
                          stepper: StepperChoice) -> Trajectory:
    """Unreduced rotor trajectory in the Euler chart: integrates
    `rotor_chart_field` from the momenta of the chart state (q, qdot), and
    recovers the rates of all output samples in one stacked call.  A t_end
    that is not positive and finite raises ValueError."""
    numerics.require_horizon(t_end)
    state0 = np.asarray(state0, dtype=float)
    y0 = np.concatenate([state0[:4], _chart_momenta(params, state0)])
    times, ys = numerics.integrate_ode(rotor_chart_field(params), y0, 0.0, t_end,
                                       stepper)
    b, g = ys[:, 2], ys[:, 3]
    rates, _, _ = _chart_flow(_chart_constants(params), np.sin(b), np.cos(b),
                              np.sin(g), np.cos(g), _columns(ys[:, 4:]))
    states = np.hstack([ys[:, :4], np.stack(rates, -1)])
    cols = ("x", "alpha", "beta", "gamma", "xdot", "alphadot", "betadot", "gammadot")
    return Trajectory(times, states, cols)


def rotor_chart_state(params: RotorParams, angles: np.ndarray, x: float,
                      xdot: float, omega: np.ndarray) -> np.ndarray:
    """Chart state with prescribed body angular velocity: inverts the
    Z-X-Z rate map (requires sin(beta) != 0)."""
    a, b, g = angles
    sb = math.sin(b)
    if abs(sb) < 1e-8:
        raise ValueError("cannot invert Euler rates at sin(beta) = 0")
    w1, w2, w3 = omega
    ad = (w1 * math.sin(g) + w2 * math.cos(g)) / sb
    bd = w1 * math.cos(g) - w2 * math.sin(g)
    gd = w3 - ad * math.cos(b)
    return np.array([x, a, b, g, xdot, ad, bd, gd])


def rotor_chart_state_from_momentum(params: RotorParams, m0: np.ndarray,
                                    x: float = 0.0, xdot: float = 0.0) -> np.ndarray:
    """Chart state realizing body momentum m0 with the conserved spatial
    momentum pointing along the vertical axis, which pins the middle Euler
    angle to cos(beta) = m3/|m| for the whole motion (gimbal-safe while
    m3/|m| stays away from +-1); the first Euler angle starts at 0.3."""
    m0 = np.asarray(m0, dtype=float)
    norm = float(np.linalg.norm(m0))
    if norm == 0.0:
        raise ValueError("m0 must be nonzero")
    beta0 = math.acos(m0[2] / norm)
    gamma0 = math.atan2(m0[0], m0[1])
    lam = params.lam
    j3 = params.inertia_rotor[2]
    omega0 = np.array([m0[0] / lam[0], m0[1] / lam[1],
                       (m0[2] - j3 * xdot) / lam[2]])
    return rotor_chart_state(params, np.array([0.3, beta0, gamma0]),
                             x, xdot, omega0)


def rotor_body_momentum(params: RotorParams, state: np.ndarray) -> np.ndarray:
    """Body momentum of a chart state (the reduced variable), or of each
    row of stacked states (N, 8)."""
    state = np.asarray(state, dtype=float)
    lam = params.lam
    j3 = params.inertia_rotor[2]
    w = _columns(euler_zxz_body_velocity(state[..., 1:4], state[..., 5:]))
    return np.stack([lam[0] * w[0], lam[1] * w[1], lam[2] * w[2] + j3 * state[..., 4]], -1)


def rotor_spatial_momentum(params: RotorParams, state: np.ndarray) -> np.ndarray:
    """Conserved momentum of the rotation symmetry at a chart state, or at
    each row of stacked states (N, 8)."""
    state = np.asarray(state, dtype=float)
    m = rotor_body_momentum(params, state)
    return (euler_zxz_matrix(state[..., 1:4]) @ m[..., None])[..., 0]


# ---------------------------------------------------------------------------
# coupled planar bodies


def _angle(phi) -> float:
    """The relative angle of a float, a 0-d array, a list or a (1,) array."""
    try:
        return float(phi[0])
    except (IndexError, TypeError):  # a float or a 0-d array
        return float(phi)


def default_potential(c: float = 1.0):
    """The shape potential c (1 - cos phi) of the relative angle and its
    gradient; a non-finite c raises ValueError."""
    if not math.isfinite(c):
        raise ValueError(f"potential strength c must be finite, got {c}")
    return (lambda phi: c * (1.0 - math.cos(_angle(phi))),
            lambda phi: np.array([c * math.sin(_angle(phi))]))


@dataclass(frozen=True)
class BeanieParams:
    """Mass, the two body inertias, and the shape potential (default
    1 - cos of the relative angle)."""
    m: float = 1.0
    i1: float = 2.0
    i2: float = 1.0
    potential: Callable | None = None
    dpotential: Callable | None = None

    def __post_init__(self):
        for name in ("m", "i1", "i2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.m <= 0 or self.i1 <= 0 or self.i2 <= 0:
            raise ValueError("mass and inertias must be positive")
        if self.potential is None:
            v, dv = default_potential()
            object.__setattr__(self, "potential", v)
            object.__setattr__(self, "dpotential", dv)
        elif self.dpotential is None:
            object.__setattr__(
                self, "dpotential",
                lambda phi: numerics.fd_jacobian(self.potential, (np.atleast_1d(phi),),
                                                 rows=False))


def beanie_gv_lagrangian(params: BeanieParams) -> semidirect.SemiDirectLagrangian:
    """Reduced-form Lagrangian over the planar Euclidean group."""
    i1, i2, m = params.i1, params.i2, params.m
    return semidirect.mechanical_semidirect_lagrangian(
        sdim=1, gv=lie.se2(),
        a_block=[[i2]],
        b_block=[[i2, 0.0, 0.0]],
        c_block=np.diag([i1 + i2, m, m]),
        potential=params.potential,
        dpotential=params.dpotential)


def beanie_full_field(params: BeanieParams, state: np.ndarray) -> np.ndarray:
    """Accelerations (phidd, thetadd, xdd, ydd) of the full system in
    normal form: the translations are free, the absolute rotation feels
    +V'/I1, and the relative angle -(I1+I2)/(I1 I2) V'."""
    state = np.asarray(state, dtype=float)
    vp = float(params.dpotential(state[:1])[0])
    return np.array([-(params.i1 + params.i2) / (params.i1 * params.i2) * vp,
                     vp / params.i1, 0.0, 0.0])


def beanie_full_trajectory(params: BeanieParams, state0: np.ndarray,
                           t_end: float, stepper: StepperChoice) -> Trajectory:
    """Integrate the full 8-dimensional system (phi, theta, x, y, rates)
    over [0, t_end]; a t_end that is not positive and finite raises
    ValueError."""
    numerics.require_horizon(t_end)
    state0 = np.asarray(state0, dtype=float)

    def field(t, y):
        return np.concatenate([y[4:], beanie_full_field(params, y)])

    times, states = numerics.integrate_ode(field, state0, 0.0, t_end, stepper)
    cols = ("phi", "theta", "x", "y", "phidot", "thetadot", "xdot", "ydot")
    return Trajectory(times, states, cols)


def beanie_momenta(params: BeanieParams, state: np.ndarray) -> tuple[float, complex]:
    """Rotational momentum nu and body-frame translational momentum
    b = e^{-i theta} m (xdot + i ydot) of a full state, or arrays of both
    for stacked states (N, 8)."""
    state = np.asarray(state, dtype=float)
    phid, thetad, xd, yd = _columns(state[..., 4:])
    nu = (params.i1 + params.i2) * thetad + params.i2 * phid
    c, s = np.cos(-state[..., 1]), np.sin(-state[..., 1])
    # Python's complex product, written out: numpy's complex multiply may
    # fuse its terms and round differently
    ar, ai = params.m * xd, params.m * yd
    b = (c * ar - s * ai) + 1j * (c * ai + s * ar)
    return (float(nu), complex(b)) if state.ndim == 1 else (nu, b)


def beanie_energy(params: BeanieParams, state: np.ndarray) -> float:
    """Total energy of a full state (phi, theta, x, y, rates), or of each
    row of stacked states (N, 8)."""
    state = np.asarray(state, dtype=float)
    phid, thetad, xd, yd = _columns(state[..., 4:])
    return (0.5 * params.m * (xd ** 2 + yd ** 2) + 0.5 * params.i1 * thetad ** 2
            + 0.5 * params.i2 * (thetad + phid) ** 2
            + numerics.each_row(params.potential, state[..., :1]))
