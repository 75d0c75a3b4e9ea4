"""Reduction by stages for shape spaces times a semi-direct product group.

For a Lagrangian on S x (G semidirect V) there are two natural reductions:
by the full group, which evolves (x, xdot, nu, b) on a coadjoint orbit with

    nudot = ad*_{chi1} nu - (chi2)* b,    bdot = (chi1)* b,

or by the normal subgroup V alone, which leaves an ordinary Lagrangian
system on S x G with no magnetic term.  When the dual action of G on V* is
free and the map v -> v*(a) is onto, the two reduced systems are related by
a compatible transformation; `build_stage_equivalence` constructs that
transformation and verifies the relation numerically.

The full-group reduction reuses the product-space machinery with the
combined algebra, so a SemiDirectLagrangian is a thin wrapper around an
InvariantLagrangian over the semi-direct spec.

The orbit 1-form and 2-form are evaluated by one kernel batched over orbit
points (rows) and tangents: `theta_form`, `orbit_tangent_generator` and
`orbit_kks` are its one-row cases, while the lemma check and the form
identity of `build_stage_equivalence` pass all their points at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import compat, lie, maglag, numerics, routh
from .lie import AlgebraVector, CoVector, GroupElement, LieGroupSpec
from .maglag import MagneticSystem, Trajectory
from .numerics import RegularityError, StepperChoice

GENERATOR_TOL = 1e-9


@dataclass(frozen=True)
class SemiDirectLagrangian:
    """Reduced Lagrangian ell(x, xdot, xi, u) on TS x (g semidirect V),
    stored as an InvariantLagrangian over the combined algebra."""
    inner: routh.InvariantLagrangian

    def __post_init__(self):
        if not self.inner.group.is_semidirect:
            raise ValueError("SemiDirectLagrangian requires a semi-direct group spec")

    @property
    def sdim(self) -> int:
        return self.inner.sdim

    @property
    def gv(self) -> LieGroupSpec:
        return self.inner.group

    @property
    def d0(self) -> int:
        return self.gv.base.dim

    @property
    def vdim(self) -> int:
        return self.gv.vdim

    def ell(self, x, xdot, xi, u) -> float:
        return self.inner.value(np.atleast_1d(x), np.atleast_1d(xdot),
                                np.concatenate([np.atleast_1d(xi), np.atleast_1d(u)]))

    def linear_slot_momentum(self, x, xdot, xi, u) -> np.ndarray:
        """d ell / d u, the V-slot fibre derivative."""
        z = np.concatenate([np.atleast_1d(xi), np.atleast_1d(u)])
        return self.inner.group_momentum(np.atleast_1d(x), np.atleast_1d(xdot), z)[self.d0:]


def mechanical_semidirect_lagrangian(sdim: int, gv: LieGroupSpec,
                                     a_block, b_block, c_block,
                                     potential=None, dpotential=None
                                     ) -> SemiDirectLagrangian:
    """Constant-metric mechanical Lagrangian over a semi-direct spec."""
    inner = routh.quadratic_invariant_lagrangian(
        sdim, gv, a_block, b_block, c_block, potential, dpotential)
    return SemiDirectLagrangian(inner)


def solve_tau(sd: SemiDirectLagrangian, x, xdot, xi, b: CoVector) -> np.ndarray:
    """Invert the V-slot fibre derivative: find u with
    d ell/du (x, xdot, xi, u) = b.  V-regularity failure raises."""
    if not isinstance(b, CoVector) or len(b) != sd.vdim:
        raise ValueError(f"b must be a CoVector of length {sd.vdim}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xdot = np.atleast_1d(np.asarray(xdot, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    d0 = sd.d0

    def residual(u):
        return sd.linear_slot_momentum(x, xdot, xi, u) - b.coords

    def jacobian(u):
        z = np.concatenate([xi, u])
        return sd.inner.jac_xi_xi(x, xdot, z)[d0:, d0:]

    return numerics.invert(residual, np.zeros(sd.vdim), jacobian,
                           "V-regularity failure in tau")


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


def gv_reduced_system(sd: SemiDirectLagrangian, mu: CoVector, a: CoVector,
                      side: str = "left") -> routh.ReducedRouthSystem:
    """The full-group reduced system at momentum level (mu, a)."""
    if len(mu) != sd.d0 or len(a) != sd.vdim:
        raise ValueError("momentum level has wrong dimensions")
    combined = CoVector(np.concatenate([mu.coords, a.coords]))
    return routh.ReducedRouthSystem(sd.inner, mu=combined, side=side)


def reduced_field_full(sd: SemiDirectLagrangian, x, xdot, nu: CoVector,
                       b: CoVector) -> tuple[np.ndarray, np.ndarray, CoVector, CoVector]:
    """Right-hand side (xdot, xddot, nudot, bdot) of the full-group
    reduced equations."""
    sys = gv_reduced_system(sd, nu, b)
    state = routh.ReducedState(x, xdot, CoVector(np.concatenate([nu.coords, b.coords])))
    xdot_out, xddot, wdot = routh.reduced_vector_field(sys, state)
    return (xdot_out, xddot, CoVector(wdot.coords[:sd.d0]),
            CoVector(wdot.coords[sd.d0:]))


def integrate_reduced_full(sd: SemiDirectLagrangian, x0, xdot0, nu0: CoVector,
                           b0: CoVector, t_end: float, stepper: StepperChoice
                           ) -> Trajectory:
    """Integrate the full-group reduced flow from (x0, xdot0, nu0, b0)."""
    sys = gv_reduced_system(sd, nu0, b0)
    s0 = routh.ReducedState(x0, xdot0,
                            CoVector(np.concatenate([nu0.coords, b0.coords])))
    return routh.integrate_reduced(sys, s0, t_end, stepper)


def routhian_abelian(sd: SemiDirectLagrangian, x, xdot, g: GroupElement,
                     xi: AlgebraVector, a: CoVector) -> float:
    """Reduced Lagrangian of the V-only reduction at momentum a,

        R2(x, xdot, g, xi) = ell(x, xdot, xi, tau) - <g*a, tau>,

    with tau solving the V-slot momentum condition at b = g*a.  The result
    is an ordinary Lagrangian on S x G: no fibre variables, zero magnetic
    form."""
    if len(xi) != sd.d0:
        raise ValueError("xi must belong to the base algebra")
    b = lie.dual_action(sd.gv, g, a)
    tau = solve_tau(sd, x, xdot, xi.coords, b)
    return (sd.ell(x, xdot, xi.coords, tau) - float(b.coords @ tau))


# ---------------------------------------------------------------------------
# closed-form quadratic data for the V-reduction of constant-metric systems


class _QuadraticSplit:
    """Blocks of a constant kinetic metric over (xdot | xi | u) and the
    Schur complement that the V-reduction induces on (xdot | xi)."""

    def __init__(self, sd: SemiDirectLagrangian, a: CoVector):
        lag = sd.inner
        if not (lag.constant_group_metric and lag.mechanical):
            raise ValueError(
                "closed-form stage reduction requires a mechanical Lagrangian "
                "with constant_group_metric")
        d0 = sd.d0
        zero = np.zeros(sd.sdim), np.zeros(sd.sdim), np.zeros(sd.gv.dim)
        am, bm, cm = (lag.jac_xdot_xdot(*zero), lag.jac_xi_xdot(*zero).T,
                      lag.jac_xi_xi(*zero))
        self.m_yy = np.block([[am, bm[:, :d0]],
                              [bm[:, :d0].T, cm[:d0, :d0]]])
        self.m_yu = np.vstack([bm[:, d0:], cm[:d0, d0:]])
        self.m_uu = cm[d0:, d0:]
        self.m_uu_inv = np.linalg.inv(self.m_uu)
        self.schur = self.m_yy - self.m_yu @ self.m_uu_inv @ self.m_yu.T
        self._a_coords = np.array(a.coords)
        self._exp, self._rep = sd.gv.base.exp_fn, sd.gv.rep
        self._rows = numerics.rows_ok(self._exp, self._rep)
        self._generator = sd.gv.rep_inf(np.ones(1))

    def b_of_theta(self, theta) -> np.ndarray:
        """b = rho(exp(theta))^T a at one angle, or one row per angle of an
        array (N,) -> (N, vdim).  The base exponential and rho are called
        once for all angles when both take rows, once per angle otherwise."""
        if getattr(theta, "ndim", 0) == 0:
            return self._rep(self._exp(np.array([theta]))).T @ self._a_coords
        theta = np.asarray(theta, dtype=float)
        if self._rows:
            reps = self._rep(self._exp(theta[:, None]))
        else:
            reps = np.array([self._rep(self._exp(t[None])) for t in theta])
        return numerics.matvec(np.swapaxes(reps, -1, -2), self._a_coords)

    def db_dtheta(self, b: np.ndarray) -> np.ndarray:
        """d b / d theta = rho'(1)^T b, at one b or row by row."""
        return numerics.matvec(self._generator.T, b)


def abelian_reduced_system(sd: SemiDirectLagrangian, a: CoVector) -> MagneticSystem:
    """The V-reduced system as a magnetic Lagrangian system on S x G with
    zero magnetic form, in the exponential chart theta of the base group.

    Requires a one-dimensional abelian base and a constant kinetic metric;
    all derivatives are closed-form (Schur-complement algebra), take one
    point or stacked rows, and the velocity Hessian (the Schur complement)
    is declared constant.  dL/dq and d2L/dv dq come from one callable
    (`dL_dq_vq`), so a right-hand side point builds b(theta) once."""
    if sd.d0 != 1 or not sd.gv.base.abelian:
        raise ValueError("the V-reduction chart is implemented for "
                         "one-dimensional abelian base groups")
    if not isinstance(a, CoVector) or len(a) != sd.vdim:
        raise ValueError(f"a must be a CoVector of length {sd.vdim}")
    q = _QuadraticSplit(sd, a)
    s = sd.sdim
    n = s + 1
    pot = sd.inner.potential or (lambda x: 0.0)
    grad_x, gdim = sd.inner.grad_x, sd.gv.dim
    rowdot, matvec = numerics.rowdot, numerics.matvec
    schur, schur_t, m_uu_inv_t = q.schur, q.schur.T, q.m_uu_inv.T
    coupling = q.m_yu @ q.m_uu_inv

    # every callable takes one point or stacked rows; the potential is
    # called once per row unless it takes rows
    @numerics.takes_rows
    def lagrangian(q2, v2, p):
        b = q.b_of_theta(q2[..., s])
        return (rowdot(matvec(schur_t, 0.5 * v2), v2) + rowdot(v2, matvec(coupling, b))
                - rowdot(matvec(m_uu_inv_t, 0.5 * b), b) - numerics.each_row(pot, q2[..., :s]))

    @numerics.takes_rows
    def dl_dv(q2, v2, p):
        return matvec(schur, v2) + matvec(coupling, q.b_of_theta(q2[..., s]))

    @numerics.takes_rows
    def dl_dq_vq(q2, v2, p):
        # dL/dq and d2L/dv dq share b(theta), db/dtheta and its coupling
        b = q.b_of_theta(q2[..., s])
        bp = q.db_dtheta(b)
        dl_dq = np.empty(np.shape(v2))
        x = q2[..., :s]
        dl_dq[..., :s] = grad_x(x, np.zeros_like(x), np.zeros(x.shape[:-1] + (gdim,)))
        coupled = matvec(coupling, bp)
        dl_dq[..., s] = rowdot(v2, coupled) - rowdot(matvec(m_uu_inv_t, b), bp)
        d2l_dv_dq = np.zeros(np.shape(v2) + (n,))
        d2l_dv_dq[..., :, s] = coupled
        return dl_dq, d2l_dv_dq

    return MagneticSystem(
        n=n, k=0, lagrangian=lagrangian, dL_dv=dl_dv, dL_dq_vq=dl_dq_vq,
        d2L_dv_dv=numerics.takes_rows(
            lambda q2, v2, p: schur if v2.ndim == 1 else np.broadcast_to(schur, v2.shape + (n,))),
        constant_hessian=True,
        name="abelian_reduced")


# ---------------------------------------------------------------------------
# orbit 1-form and the orbit 2-form check, row-batched


def _dual_action_rows(gv: LieGroupSpec, b: np.ndarray) -> np.ndarray:
    """Matrices of xi -> xi*b, one (vdim, d0) map per row of b.  Their
    transposes are the maps u -> u*(b)."""
    # (xi*b)_k = sum_j rho'(xi)_{jk} b_j
    return np.einsum("ijk,nj->nki", gv.rep_inf_basis, b)


def _raise_first(failed: np.ndarray, message: str) -> None:
    rows = np.flatnonzero(failed.any(axis=1))
    if rows.size:
        raise ValueError(f"row {rows[0]}: {message}")


def _orbit_generator_rows(gv: LieGroupSpec, nu: np.ndarray, b: np.ndarray,
                          nudot: np.ndarray, bdot: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Generators (xi, u) of orbit tangents, batched over points and tangents.

    nu (N, d0) and b (N, vdim) hold one orbit point per row; nudot (N, T, d0)
    and bdot (N, T, vdim) hold T tangents at each.  xi solves xi*b = bdot and
    u solves u*(b) = ad*_xi nu - nudot, both as minimum-norm least-squares
    solutions from one SVD of the dual-action matrix M(b) per point (the
    second map is M(b)^T).  The rank check counts singular values above
    1e-12, as matrix_rank(tol=1e-12); the solves drop those at or below
    numpy.lstsq's default cutoff eps * max(vdim, d0) * S_max.  Errors name
    the first failing row."""
    d0 = gv.base.dim
    m = _dual_action_rows(gv, b)
    left, sv, right_t = np.linalg.svd(m, full_matrices=False)
    degenerate = np.flatnonzero(np.sum(sv > 1e-12, axis=1) < d0)
    if degenerate.size:
        raise ValueError(f"momentum b in row {degenerate[0]} is in a degenerate "
                         "position: the infinitesimal dual action is not injective")
    cutoff = np.finfo(float).eps * max(m.shape[1:]) * sv[:, :1]
    sv_inv = np.where(sv > cutoff, 1.0 / sv, 0.0)[:, None, :]

    xi = np.einsum("nri,ntr->nti", right_t,
                   sv_inv * np.einsum("nkr,ntk->ntr", left, bdot))
    miss = np.linalg.norm(np.einsum("nki,nti->ntk", m, xi) - bdot, axis=2)
    _raise_first(miss > 1e-10 * (1.0 + np.linalg.norm(bdot, axis=2)),
                 "bdot is not tangent to the orbit at b")

    # (ad*_xi nu)_c = nu_a xi_b structure[a, b, c]
    rhs = np.einsum("na,ntb,abc->ntc", nu, xi, gv.base.structure) - nudot
    u = np.einsum("nkr,ntr->ntk", left,
                  sv_inv * np.einsum("nri,nti->ntr", right_t, rhs))
    miss = np.linalg.norm(np.einsum("nki,ntk->nti", m, u) - rhs, axis=2)
    _raise_first(miss > GENERATOR_TOL * (1.0 + np.linalg.norm(rhs, axis=2)),
                 "tangent vector is not generated by the coadjoint action")
    return xi, u


def _orbit_kks_rows(gv: LieGroupSpec, nu: np.ndarray, b: np.ndarray,
                    t1: tuple[np.ndarray, np.ndarray],
                    t2: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Orbit 2-form <(nu, b), [g1, g2]> at each row, with g1 and g2 the
    generators of the tangent rows t1 = (nudot, bdot) and t2."""
    xi, u = _orbit_generator_rows(gv, nu, b, np.stack([t1[0], t2[0]], axis=1),
                                  np.stack([t1[1], t2[1]], axis=1))
    g = np.concatenate([xi, u], axis=2)
    return np.einsum("na,abc,nb,nc->n", np.hstack([nu, b]), gv.structure,
                     g[:, 0], g[:, 1])


def theta_form(gv: LieGroupSpec, nu: CoVector, b: CoVector,
               nudot: CoVector, bdot: CoVector) -> float:
    """The orbit 1-form: on a tangent (nudot, bdot = xi*b) it evaluates to
    <nu, xi>, with xi recovered from bdot by a rank-checked least-squares
    solve."""
    if not gv.is_semidirect:
        raise ValueError("theta_form requires a semi-direct spec")
    xi, _ = _orbit_generator_rows(gv, nu.coords[None], b.coords[None],
                                  nudot.coords[None, None], bdot.coords[None, None])
    return float(nu.coords @ xi[0, 0])


def orbit_tangent_generator(gv: LieGroupSpec, nu: CoVector, b: CoVector,
                            nudot: CoVector, bdot: CoVector) -> AlgebraVector:
    """An algebra element (xi, u) generating the orbit tangent (nudot, bdot)
    through the infinitesimal coadjoint action."""
    xi, u = _orbit_generator_rows(gv, nu.coords[None], b.coords[None],
                                  nudot.coords[None, None], bdot.coords[None, None])
    return AlgebraVector(np.concatenate([xi[0, 0], u[0, 0]]))


def orbit_kks(gv: LieGroupSpec, nu: CoVector, b: CoVector,
              t1: tuple[CoVector, CoVector], t2: tuple[CoVector, CoVector]
              ) -> float:
    """Orbit 2-form on two tangents, through generator matching and the
    combined-algebra pairing."""
    rows = lambda t: tuple(c.coords[None] for c in t)  # noqa: E731
    return float(_orbit_kks_rows(gv, nu.coords[None], b.coords[None],
                                 rows(t1), rows(t2))[0])


def verify_lemma_B_equals_dtheta(sd: SemiDirectLagrangian, a: CoVector,
                                 samples: np.ndarray) -> float:
    """Check that the orbit 2-form is the exterior derivative of the orbit
    1-form on the cylinder chart (nu, alpha), b = |a| e^{i alpha}.

    Returns the maximum residual between the finite-difference d(theta)
    and the generator-matched orbit pairing over the samples.  d(theta) is
    `numerics.fd_exterior_derivative` over all samples (step H_SECOND *
    max(1, |z_a|)), one batched call of the orbit-form kernel, and the
    pairing is another."""
    if sd.d0 != 1 or sd.vdim != 2:
        raise ValueError("the cylinder chart requires a 1-dimensional base "
                         "acting on a 2-dimensional V")
    gv = sd.gv
    r = float(np.linalg.norm(a.coords))
    if r == 0.0:
        raise ValueError("a must be nonzero")

    def chart(z: np.ndarray):
        """nu, b and the chart tangents d/dnu, d/dalpha at rows z."""
        b = r * np.column_stack([np.cos(z[:, 1]), np.sin(z[:, 1])])
        ones, zeros = np.ones((len(z), 1)), np.zeros((len(z), 1))
        t_nu = (ones, np.zeros_like(b))
        t_alpha = (zeros, np.column_stack([-b[:, 1], b[:, 0]]))
        return z[:, :1], b, t_nu, t_alpha

    def theta_rows(z: np.ndarray) -> np.ndarray:
        nu, b, t_nu, t_alpha = chart(z)
        xi, _ = _orbit_generator_rows(gv, nu, b, np.stack([t_nu[0], t_alpha[0]], axis=1),
                                      np.stack([t_nu[1], t_alpha[1]], axis=1))
        return np.einsum("ni,nti->nt", nu, xi)

    z = np.atleast_2d(np.asarray(samples, dtype=float))
    if z.size == 0:
        raise ValueError("samples is empty: the lemma check needs at least one sample")
    dtheta = numerics.fd_exterior_derivative(theta_rows, z)[:, 0, 1]
    kks = _orbit_kks_rows(gv, *chart(z))
    return float(np.max(np.abs(dtheta - kks), initial=0.0))


# ---------------------------------------------------------------------------
# stage equivalence


def _check_vstar_onto(gv: LieGroupSpec, a: CoVector) -> None:
    mat = _dual_action_rows(gv, a.coords[None])[0]
    if np.linalg.matrix_rank(mat, tol=1e-12) < gv.base.dim:
        raise ValueError("dual action not onto: v -> v*(a) does not span the "
                         "dual of the base algebra (is a = 0?)")


def group_angle_from_b(gv: LieGroupSpec, a: CoVector, b: np.ndarray):
    """Recover the base-group chart angle from b = g*a (circle base acting
    on the plane by rotation): theta = arg(a) - arg(b).  One b (2,) gives a
    float; stacked rows (N, 2) give N angles."""
    if gv.base.dim != 1 or gv.vdim != 2:
        raise ValueError("group recovery from b is implemented for circle "
                         "bases acting on the plane")
    b = np.asarray(b, dtype=float)
    theta = np.arctan2(a.coords[1], a.coords[0]) - np.arctan2(b[..., 1], b[..., 0])
    return float(theta) if b.ndim == 1 else theta


@dataclass(frozen=True)
class StageEquivalence:
    """The compatible transformation relating the two reduced systems,
    together with the pulled-back system on P1 (`compat.build_system`, zero
    connection) and the verification report."""
    pair: compat.TransformationPair
    beta: Callable[[np.ndarray], np.ndarray]
    psi: Callable[[np.ndarray], np.ndarray]
    r2_system: MagneticSystem
    p1_system: MagneticSystem
    report: dict


def build_stage_equivalence(sd: SemiDirectLagrangian, mu: CoVector, a: CoVector,
                            n_points: int = 100,
                            t_end: float = 10.0,
                            stepper: StepperChoice | None = None,
                            seed: int = 0) -> StageEquivalence:
    """Construct and verify the equivalence between the full-group and
    V-only reductions at momentum level (mu, a); the trajectories start at
    x = 0.4, xdot = 0.3 in every shape coordinate.

    Hypotheses checked up front: the base isotropy of a is trivial and
    v -> v*(a) is onto (for the plane representation both amount to a != 0).
    The report records:

      routhian_identity_residual : |L1 - R_full| over random points
      form_identity_residual     : |B1 - orbit 2-form| on chart tangents
      trajectory_deviation       : flow of the orbit system mapped through
                                   psi versus the flow of the V-reduced system
      casimir_drift, nu_drift    : conservation monitors along the orbit flow
    """
    if len(mu) != sd.d0 or len(a) != sd.vdim:
        raise ValueError("momentum level has wrong dimensions")
    if n_points < 1:
        raise ValueError(f"n_points must be positive, got {n_points}")
    _check_vstar_onto(sd.gv, a)
    stepper = stepper or StepperChoice(kind="rk4", h=1e-3)
    rng = np.random.default_rng(seed)
    s, d0 = sd.sdim, sd.d0

    r2sys = abelian_reduced_system(sd, a)
    pair = compat.TransformationPair(n1=s, vf=d0, k2=0)
    # p1 = (x, theta, nu); beta and psi take one point or stacked rows
    beta = numerics.takes_rows(lambda p1: np.array(p1[..., s + d0:]))
    psi = numerics.takes_rows(lambda z1: compat.solve_psi(r2sys, pair, beta, z1))
    p1sys = compat.build_system(r2sys, pair, beta)
    q = _QuadraticSplit(sd, a)

    def draw(*sizes):
        """Columns of n_points random points; the coordinates (lo, hi,
        size) of one point are drawn in turn, point after point."""
        pts = [[rng.uniform(lo, hi, size=size) for lo, hi, size in sizes]
               for _ in range(n_points)]
        return [np.array(col) for col in zip(*pts)]

    # Routhian identity at random points of T_{P1}Q1: the built Lagrangian
    # and the full-group Routhian, each at all points in one call.
    x, xd, theta, nu = draw((-1.0, 1.0, s), (-1.0, 1.0, s), (-np.pi, np.pi, None),
                            (-1.5, 1.5, d0))
    r_full = routh.routhians(sd.inner, x, xd, np.hstack([nu, q.b_of_theta(theta)]))
    built = p1sys.lagrangian(x, xd, np.column_stack([theta, nu]))
    routhian_resid = float(np.max(np.abs(built - r_full)))

    # 2-form identity on chart tangents of the fibre (theta, nu): B1
    # at all points in one call, then the orbit pairing of all points per
    # base direction.
    x, theta, nus = draw((-1.0, 1.0, s), (-np.pi, np.pi, None), (-1.5, 1.5, d0))
    bqq, bqp, bpp = p1sys.bform(x, np.column_stack([theta, nus]))
    form_resid = max(float(np.max(np.abs(bqq))), float(np.max(np.abs(bqp))))
    bs = q.b_of_theta(theta)
    t_theta = (np.zeros_like(nus), q.db_dtheta(bs))
    for j in range(d0):
        t_nu = (np.zeros_like(nus), np.zeros_like(bs))
        t_nu[0][:, j] = 1.0
        kks = _orbit_kks_rows(sd.gv, nus, bs, t_theta, t_nu)
        form_resid = max(form_resid,
                         float(np.max(np.abs(bpp[:, 0, 1 + j] - kks), initial=0.0)))

    # Trajectory mapping: orbit flow, pushed through psi, against the flow
    # of the V-reduced system from the psi-matched initial condition.
    x0, xdot0 = np.full(s, 0.4), np.full(s, 0.3)
    traj = integrate_reduced_full(sd, x0, xdot0, mu, a, t_end, stepper)
    states = traj.states
    nus = states[:, 2 * s:2 * s + d0]
    bs = states[:, 2 * s + d0:]
    thetas = np.unwrap(group_angle_from_b(sd.gv, a, bs))
    thetas -= thetas[0]

    z1_0 = np.concatenate([x0, xdot0, [thetas[0]], mu.coords])
    z2_0 = psi(z1_0)
    s0 = maglag.MagLagState(z2_0[:s + 1], z2_0[s + 1:2 * (s + 1)], np.zeros(0))
    traj2 = maglag.integrate(r2sys, s0, t_end, stepper)

    # Only samples at equal times are compared: adaptive steppers put the
    # two flows on different grids, which share t = 0 and t_end.  All
    # compared samples go through psi in one call.
    _, idx1, idx2 = np.intersect1d(traj.times, traj2.times, assume_unique=True,
                                   return_indices=True)
    stride = max(1, len(idx1) // 2000)
    i1 = np.append(idx1[::stride], len(states) - 1)
    i2 = np.append(idx2[::stride], len(traj2.states) - 1)
    z1 = np.column_stack([states[i1, :2 * s], thetas[i1], nus[i1]])
    deviation = float(np.max(np.abs(psi(z1) - traj2.states[i2])))

    r0 = float(np.linalg.norm(a.coords))
    casimir_drift = float(np.max(np.abs(np.linalg.norm(bs, axis=1) - r0)))
    nu_drift = float(np.max(np.abs(nus - mu.coords)))

    report = {
        "routhian_identity_residual": routhian_resid,
        "form_identity_residual": form_resid,
        "trajectory_deviation": deviation,
        "casimir_drift": casimir_drift,
        "nu_drift": nu_drift,
    }
    return StageEquivalence(pair=pair, beta=beta, psi=psi, r2_system=r2sys,
                            p1_system=p1sys, report=report)
