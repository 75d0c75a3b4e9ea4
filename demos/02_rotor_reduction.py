"""Reducing a rigid body with a rotor over the rotation group.

The configuration space is a circle (the rotor angle) times the rotation
group.  Rotational invariance reduces the dynamics to the rotor angle and
the body momentum m, which evolves on a momentum sphere:

    mdot = m x chi(m, xdot),      I3 xdd = -mdot_3.

The script reduces, integrates, checks the conserved quantities, then
reconstructs the full rotation and verifies that the spatial momentum of
the reconstructed motion stays put.  An independent Euler-angle chart
integration (the closed-form Euler-Lagrange system of the chart
Lagrangian) cross-checks the projection.

Run:  python3 demos/02_rotor_reduction.py
"""
import numpy as np

from magreduce import lie, models, routh
from magreduce.lie import CoVector
from magreduce.numerics import StepperChoice

params = models.RotorParams(inertia_body=(3.0, 2.0, 1.0),
                            inertia_rotor=(0.0, 0.0, 1.0))
m0 = np.array([0.8, 0.2, 0.3])
stepper = StepperChoice(kind="rk4", h=1e-3)

sys = models.rotor_reduced_system(params, CoVector(m0))
state0 = routh.ReducedState([0.0], [0.2], CoVector(m0))
traj = routh.integrate_reduced(sys, state0, 10.0, stepper)

norms = np.linalg.norm(traj.states[:, 2:], axis=1)
print("reduced flow over t = 10:")
print(f"  |m| drift:        {np.max(np.abs(norms - norms[0])):.2e}")
print(f"  energy drift:     {traj.report.entries['energy_drift']:.2e}")

# reconstruct the rotation: g satisfies gdot = g chi
g0 = lie.identity(lie.so3())
gs = routh.reconstruct(sys, traj, g0)
spec = lie.so3()
drift = 0.0
for i in range(0, len(gs), 500):
    j = lie.coadjoint(spec, lie.inverse(spec, gs[i]),
                      CoVector(traj.states[i, 2:]))
    drift = max(drift, float(np.max(np.abs(j.coords - m0))))
print(f"  momentum of the reconstructed motion: drift {drift:.2e}")

# independent cross-check: integrate the unreduced system in Euler angles
# (the closed-form Euler-Lagrange system of the chart Lagrangian) and
# project down
s0 = models.rotor_chart_state_from_momentum(params, m0, xdot=0.2)
oracle = models.rotor_full_trajectory(params, s0, 5.0, stepper)
dev = 0.0
for i in range(0, len(oracle.times), 100):
    s = oracle.states[i]
    row = np.concatenate([[s[0], s[4]],
                          models.rotor_body_momentum(params, s)])
    dev = max(dev, float(np.max(np.abs(row - traj.states[i]))))
print(f"chart oracle vs reduced flow over t = 5: {dev:.2e}")

traj.to_csv("rotor_reduced.csv")
print("wrote rotor_reduced.csv")
