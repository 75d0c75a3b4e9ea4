"""Test oracles: hand-expanded equations kept outside the package as
independent cross-checks of its generic assembly."""
import numpy as np

from magreduce import models


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
