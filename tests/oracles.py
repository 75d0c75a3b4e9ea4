"""Test oracles: hand-expanded equations kept outside the package as
independent cross-checks of its generic assembly."""
import numpy as np

from magreduce import models
from magreduce.maglag import MagneticSystem


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
