"""Reduction by stages for two coupled planar bodies.

The symmetry group is the planar Euclidean group, a semi-direct product of
rotations and translations.  Reducing by the full group leaves the shape
angle phi together with an orbit variable (nu, b); reducing by the
translations alone leaves an ordinary two-angle Lagrangian system.  The two
reduced systems are related by a compatible transformation psi built from
the fibre momentum map beta, and the script verifies the relation
numerically: the pulled-back Lagrangian matches the full-group Routhian,
the induced magnetic 2-form matches the orbit 2-form, the flows map into
each other, and psi intertwines the symplectic structures.

Run:  python3 demos/03_planar_pair_reduction_by_stages.py
"""
import numpy as np

from magreduce import compat, models, semidirect
from magreduce.lie import CoVector
from magreduce.numerics import StepperChoice

params = models.BeanieParams(m=1.0, i1=2.0, i2=1.0)
sd = models.beanie_gv_lagrangian(params)
stepper = StepperChoice(kind="rk4", h=1e-3)

# full flow: translations are free, the two momenta are conserved
i1, i2 = params.i1, params.i2
thetadot0 = (1.0 - i2 * 0.3) / (i1 + i2)   # realizes nu = 1
state0 = np.array([0.4, 0.0, 0.0, 0.0, 0.3, thetadot0, 1.0, 0.0])
full = models.beanie_full_trajectory(params, state0, 10.0, stepper)
momenta = [models.beanie_momenta(params, s) for s in full.states[::100]]
nus = np.array([m[0] for m in momenta])
print("full flow over t = 10:")
print(f"  nu drift:  {np.max(np.abs(nus - nus[0])):.2e}")
print(f"  |b| drift: {np.max(np.abs([abs(m[1]) - abs(momenta[0][1]) for m in momenta])):.2e}")

# full-group reduction: (phi, phidot, nu, b) with b rotating at -chi1
reduced = semidirect.integrate_reduced_full(
    sd, [0.4], [0.3], CoVector([1.0]), CoVector([1.0, 0.0]), 10.0, stepper)
print("full-group reduced flow:")
for name, value in reduced.report.entries.items():
    print(f"  {name}: {value:.2e}")

# the orbit 1-form: its exterior derivative is the orbit 2-form
rng = np.random.default_rng(0)
samples = np.column_stack([rng.uniform(-2, 2, 50),
                           rng.uniform(-np.pi, np.pi, 50)])
res = semidirect.verify_lemma_B_equals_dtheta(sd, CoVector([1.0, 0.0]), samples)
print(f"orbit 2-form vs d(theta): residual {res:.2e}")

# the equivalence of the two reductions
eq = semidirect.build_stage_equivalence(sd, CoVector([1.0]), CoVector([1.0, 0.0]),
                                        n_points=100, t_end=10.0,
                                        stepper=stepper)
print("stage equivalence report:")
for name, value in eq.report.items():
    print(f"  {name}: {value:.2e}")

# psi also intertwines the two symplectic structures
sys1 = eq.p1_system
samples = np.column_stack([rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50),
                           rng.uniform(-np.pi, np.pi, 50),
                           rng.uniform(-1.5, 1.5, 50)])
rep = compat.verify_symplectomorphism(sys1, eq.r2_system, eq.psi, samples,
                                      rng, tangent_pairs=10,
                                      beta=eq.beta, pair=eq.pair)
print("symplectic verification:")
for name, value in rep.items():
    print(f"  {name}: {value:.3g}" if isinstance(value, float)
          else f"  {name}: {value}")

reduced.to_csv("planar_pair_reduced.csv")
print("wrote planar_pair_reduced.csv")
