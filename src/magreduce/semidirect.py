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
InvariantLagrangian over the semi-direct spec.  Its Routhian, right-hand
side and joint (chi, tau) inversion, restated one point at a time as
reference implementations, are in tests/oracles.py.  The V-reduced system of a
constant metric (the CLI's `reduce-abelian`) is closed-form Schur-complement
algebra with trigonometric coefficients in theta fixed at construction
(`_QuadraticSplit`), for its value and derivatives alike; `maglag`'s k = 0
path does the rest.

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
from .numerics import StepperChoice

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


def gv_reduced_system(sd: SemiDirectLagrangian, mu: CoVector, a: CoVector
                      ) -> routh.ReducedRouthSystem:
    """The full-group reduced system at momentum level (mu, a)."""
    if len(mu) != sd.d0 or len(a) != sd.vdim:
        raise ValueError("momentum level has wrong dimensions")
    combined = CoVector(np.concatenate([mu.coords, a.coords]))
    return routh.ReducedRouthSystem(sd.inner, mu=combined)


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
    """Blocks of a constant kinetic metric over (xdot | xi | u), their Schur
    complement on (xdot | xi), and coefficients of the terms in b(theta) =
    rho(exp theta)^T a = cos(theta) a + sin(theta) G^T a (G @ G = -I): with S =
    M_uu^-1 and C = M_yu S, C b = cos(theta) C a + sin(theta) C G^T a and
    b^T S b / 2 = c0 + c1 cos(2 theta) + c2 sin(2 theta), c0 = a^T (S + G S G^T)
    a / 4, c1 = a^T (S - G S G^T) a / 4, c2 = a^T sym(S G^T) a / 2 (c1 and c2
    are zero for an isotropic S, antisymmetric G).  `b_of_theta` and
    `db_dtheta` build b itself, for the checks of `build_stage_equivalence`."""

    def __init__(self, sd: SemiDirectLagrangian, a: CoVector):
        if sd.d0 != 1:
            raise ValueError("the V-reduction chart is implemented for "
                             "one-dimensional base groups")
        _check_level(sd.gv, a)
        self.sd = sd
        lag = sd.inner
        if not (lag.constant_group_metric and lag.potential is not None):
            raise ValueError(
                "closed-form stage reduction requires a mechanical Lagrangian "
                "(one with a potential) with constant_group_metric")
        self._generator = g = sd.gv.rep_inf(np.ones(1))
        if not np.allclose(g @ g, -np.eye(sd.vdim), rtol=0.0, atol=1e-12):
            raise ValueError("the V-reduced closed form needs a base generator G with "
                             f"G @ G = -I, got G = {g.tolist()}")
        d0 = sd.d0
        zero = np.zeros(sd.sdim), np.zeros(sd.sdim), np.zeros(sd.gv.dim)
        cm, bm_t, _, am, _, _ = lag.metric_blocks(*zero)
        m_yy = np.block([[am, bm_t[:d0].T], [bm_t[:d0], cm[:d0, :d0]]])
        m_yu = np.vstack([bm_t[d0:].T, cm[:d0, d0:]])
        s = numerics.inverse(cm[d0:, d0:])
        self.schur = m_yy - m_yu @ s @ m_yu.T
        coupling = m_yu @ s
        self._a_coords = a_coords = np.array(a.coords)
        self.coupling_a = coupling @ a_coords, coupling @ (g.T @ a_coords)
        sg, gsg = s @ g.T, g @ (s @ g.T)
        self.quad = tuple(float(0.25 * (a_coords @ m @ a_coords))
                          for m in (s + gsg, s - gsg, sg + sg.T))
        self._exp, self._rep = sd.gv.base.exp_fn, sd.gv.rep
        self._rows = numerics.rows_ok(self._exp, self._rep)

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

    Requires a one-dimensional abelian base whose generator G has G @ G =
    -I and a constant kinetic metric; all derivatives are closed-form,
    take one point or stacked rows, and the velocity Hessian (the Schur
    complement) is declared constant.  dL/dq and d2L/dv dq come from one
    callable (`dL_dq_vq`).  A level a of the wrong length or not finite is
    refused before anything is evaluated; a = 0 is legal here."""
    return _v_reduced(_QuadraticSplit(sd, a))


def _v_reduced(q: _QuadraticSplit) -> MagneticSystem:
    """`abelian_reduced_system` over its split.  The Lagrangian

        L = v^T Schur v / 2 - c0 - V(x) + v . C b - c1 cos(2 theta) - c2 sin(2 theta),

    dL_dv and dL_dq_vq each read theta through `numerics.cos_sin` once, a
    point with the bits of its row.  When no coefficient reads theta (C b =
    0, c1 = c2 = 0: the planar pair) they skip it, and d2L/dv dq is one
    shared read-only zero."""
    sd = q.sd
    s = sd.sdim
    n = s + 1
    lag = sd.inner
    dell_dx, grad_x, gdim = lag.dell_dx or lag.grad_x, lag.grad_x, sd.gv.dim
    rowdot, matvec, outer = numerics.rowdot, numerics.matvec, np.multiply.outer
    schur, schur_t = q.schur, q.schur.T
    ca, cga = q.coupling_a
    c0, c1, c2 = q.quad
    reads_theta = bool(np.any(ca) or np.any(cga) or c1 or c2)
    # dell/dx of a mechanical ell does not read the velocities
    zero_rates = np.zeros(s), np.zeros(gdim)
    zero_vq = np.zeros((n, n))
    zero_vq.flags.writeable = False

    # every callable takes one point or stacked rows; the potential is
    # called once per row unless it takes rows
    @numerics.takes_rows
    def lagrangian(q2, v2, p):
        value = (rowdot(matvec(schur_t, 0.5 * v2), v2) - c0
                 - numerics.each_row(lag.potential, q2[..., :s]))
        if not reads_theta:
            return value
        c, sn = numerics.cos_sin(q2[..., s])
        return (value + rowdot(v2, outer(c, ca) + outer(sn, cga))
                - (c1 * (c * c - sn * sn) + c2 * (2.0 * c * sn)))

    @numerics.takes_rows
    def dl_dv(q2, v2, p):
        if not reads_theta:
            return matvec(schur, v2)
        c, sn = numerics.cos_sin(q2[..., s])
        return matvec(schur, v2) + outer(c, ca) + outer(sn, cga)

    @numerics.takes_rows
    def dl_dq_vq(q2, v2, p):
        one, dl_dq = v2.ndim == 1, np.zeros(v2.shape)
        if one:
            dl_dq[:s] = dell_dx(q2[:s], *zero_rates)
        else:
            x = q2[..., :s]
            dl_dq[..., :s] = grad_x(x, np.zeros_like(x), np.zeros(x.shape[:-1] + (gdim,)))
        if not reads_theta:
            return dl_dq, zero_vq if one else np.broadcast_to(zero_vq, v2.shape + (n,))
        c, sn = numerics.cos_sin(q2[..., s])
        coupled_dtheta = outer(c, cga) - outer(sn, ca)
        # v . C db/dtheta - d(b^T S b / 2)/dtheta
        dl_dq[..., s] = (rowdot(v2, coupled_dtheta)
                         + 2.0 * (c1 * (2.0 * c * sn) - c2 * (c * c - sn * sn)))
        d2l_dv_dq = np.zeros(v2.shape + (n,))
        d2l_dv_dq[..., :, s] = coupled_dtheta
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
    pairing is another.  Samples that are not rows of width 2 (nu,
    alpha), or a non-finite row, raise ValueError before anything is
    evaluated."""
    if sd.d0 != 1 or sd.vdim != 2:
        raise ValueError("the cylinder chart requires a 1-dimensional base "
                         "acting on a 2-dimensional V")
    gv = sd.gv
    _check_vstar_onto(gv, a)
    r = float(np.linalg.norm(a.coords))

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
    if z.ndim != 2 or z.shape[1] != 2:
        raise ValueError(f"samples must be rows of width 2 (nu, alpha), got shape {z.shape}")
    finite = np.isfinite(z).all(axis=1)
    if not finite.all():
        raise ValueError(f"sample row {int(np.argmin(finite))} is not finite")
    dtheta = numerics.fd_exterior_derivative(theta_rows, z)[:, 0, 1]
    kks = _orbit_kks_rows(gv, *chart(z))
    return float(np.max(np.abs(dtheta - kks), initial=0.0))


# ---------------------------------------------------------------------------
# stage equivalence


def _check_level(gv: LieGroupSpec, a: CoVector) -> None:
    """Refuse a momentum level a that is not a finite CoVector of V*."""
    if not isinstance(a, CoVector):
        raise TypeError(f"momentum level a must be a CoVector, got {type(a).__name__}")
    if len(a) != gv.vdim:
        raise ValueError(f"momentum level a has length {len(a)}; V has dimension {gv.vdim}")
    if not np.isfinite(a.coords).all():
        raise ValueError(f"momentum level a must be finite, got {a.coords.tolist()}")


def _check_vstar_onto(gv: LieGroupSpec, a: CoVector) -> None:
    """Refuse a momentum level a that `_check_level` refuses, or at which
    v -> v*(a) is not onto (for the plane representation: a = 0)."""
    _check_level(gv, a)
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


def _draw(rng: np.random.Generator, n_points: int, sizes) -> list[np.ndarray]:
    """Columns of n_points random points, coordinate (lo, hi, size) in
    turn, point after point, by `rng.uniform(lo, hi, size)` (a size of None
    gives an (n_points,) column): one block of the same draws in the same
    order, since uniform is lo + (hi - lo) * rng.random()."""
    widths = [1 if size is None else size for _, _, size in sizes]
    lo, hi = (np.repeat([c[i] for c in sizes], widths) for i in (0, 1))
    block = lo + (hi - lo) * rng.random((n_points, sum(widths)))
    cols = np.split(block, np.cumsum(widths)[:-1], axis=1)
    return [c[:, 0] if size is None else c for c, (_, _, size) in zip(cols, sizes)]


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
    if len(mu) != sd.d0:
        raise ValueError("momentum level has wrong dimensions")
    if n_points < 1:
        raise ValueError(f"n_points must be positive, got {n_points}")
    numerics.require_horizon(t_end)
    _check_vstar_onto(sd.gv, a)
    stepper = stepper or StepperChoice(kind="rk4", h=1e-3)
    rng = np.random.default_rng(seed)
    s, d0 = sd.sdim, sd.d0

    q = _QuadraticSplit(sd, a)
    r2sys = _v_reduced(q)
    pair = compat.TransformationPair(n1=s, vf=d0, k2=0)
    # p1 = (x, theta, nu); beta and psi take one point or stacked rows
    beta = numerics.takes_rows(lambda p1: np.array(p1[..., s + d0:]))
    psi = numerics.takes_rows(lambda z1: compat.solve_psi(r2sys, pair, beta, z1))
    p1sys = compat.build_system(r2sys, pair, beta)

    # Routhian identity at random points of T_{P1}Q1: the built Lagrangian
    # and the full-group Routhian, each at all points in one call.
    x, xd, theta, nu = _draw(rng, n_points, ((-1.0, 1.0, s), (-1.0, 1.0, s),
                                             (-np.pi, np.pi, None), (-1.5, 1.5, d0)))
    r_full = routh.routhians(sd.inner, x, xd, np.hstack([nu, q.b_of_theta(theta)]))
    built = p1sys.lagrangian(x, xd, np.column_stack([theta, nu]))
    routhian_resid = float(np.max(np.abs(built - r_full)))

    # 2-form identity on chart tangents of the fibre (theta, nu): B1
    # at all points in one call, then the orbit pairing of all points per
    # base direction.
    x, theta, nus = _draw(rng, n_points, ((-1.0, 1.0, s), (-np.pi, np.pi, None),
                                          (-1.5, 1.5, d0)))
    bqq, bqp, bpp = p1sys.bform(x, np.column_stack([theta, nus]))
    form_resid = max(float(np.max(np.abs(bqq))), float(np.max(np.abs(bqp))))
    bs = q.b_of_theta(theta)
    t_theta = (np.zeros_like(nus), q.db_dtheta(bs))
    t_nu = (np.ones_like(nus), np.zeros_like(bs))
    kks = _orbit_kks_rows(sd.gv, nus, bs, t_theta, t_nu)
    form_resid = max(form_resid, float(np.max(np.abs(bpp[:, 0, 1] - kks), initial=0.0)))

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
