"""Compatible transformations between magnetic Lagrangian systems.

Everything is phrased in adapted coordinates for a chain of fibrations

    P1 --F--> P2 --eps2--> Q2 --f--> Q1,

with charts q on Q1, (q, qbar) on Q2, (q, qbar, pbar) on P2 and
(q, qbar, pbar, p) on P1.  F forgets p and f forgets qbar.  Given a
regular Lagrangian system on the smaller bundle and a choice of fibre
momentum beta, there is a unique compatible map psi whose only nontrivial
output is the qbar velocity, fixed by the condition

    dL2/d(qbar-dot) at psi(point) = beta(p1).

Pulling the system back through psi produces a new magnetic Lagrangian
system on P1 whose 2-form picks up the exterior derivative of
<beta, connection>; `verify_symplectomorphism` checks numerically that psi
intertwines the two symplectic structures, pushing tangents through psi's
tangent map once per sample state: with beta and pair the
implicit-function-theorem one of `build_system` (and the report's
`max_residual_passthrough`), otherwise its central-difference Jacobian.

Flat state layouts used throughout:
    z1 = [q, qdot, qbar, pbar, p]      (a maglag state of the P1 system,
                                        whose fibre is (qbar, pbar, p))
    z2 = [q, qbar, qdot, qbardot, pbar] (a maglag state of the P2 system)

The maps, the pulled-back callables, the checks and the derivative supplies
take stacked states (N, dim), one per row (`numerics.takes_rows`); callables
supplied by the caller (beta, the connection, psi, l2's Lagrangian) are
called once for all rows when they are marked and once per row otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import maglag, numerics
from .maglag import MagneticSystem


@dataclass(frozen=True)
class TransformationPair:
    """Dimensions of the adapted-coordinate chain.

    n1: dim Q1; vf: fibre dimension of f (the qbar block) and of F (the p
    block), as a diffeomorphic psi requires, which balances
    2*n1 + k1 == 2*n2 + k2; k2: fibre dimension of the smaller bundle.
    """
    n1: int
    vf: int
    k2: int = 0

    @property
    def n2(self) -> int:
        return self.n1 + self.vf

    @property
    def k1(self) -> int:
        return 2 * self.vf + self.k2

    # the layouts below act on one state or on stacked rows of states

    @cached_property
    def p1_index(self) -> np.ndarray:
        """Where the base-point coordinates (q, qbar, pbar, p) sit in z1."""
        n1 = self.n1
        return np.r_[:n1, 2 * n1:2 * n1 + self.k1]

    @cached_property
    def psi_index(self) -> np.ndarray:
        """Where each entry of psi's output z2 = (q, qbar, qdot, qbardot,
        pbar) sits in z1; qbardot, which psi solves for, reads qbar."""
        n1, vf, k2 = self.n1, self.vf, self.k2
        qbar = np.r_[2 * n1:2 * n1 + vf]
        return np.r_[:n1, qbar, n1:2 * n1, qbar, 2 * n1 + vf:2 * n1 + vf + k2]

    def p1_coords(self, z1: np.ndarray) -> np.ndarray:
        """Base-point coordinates (q, qbar, pbar, p) of a z1 state."""
        return z1.take(self.p1_index, -1)

    def split2(self, z2: np.ndarray):
        n2 = self.n2
        q2 = z2[..., :n2]
        v2 = z2[..., n2:2 * n2]
        pbar = z2[..., 2 * n2:]
        return q2, v2, pbar


BetaMap = Callable[[np.ndarray], np.ndarray]
ConnectionOnF = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _betas(beta: BetaMap, p1: np.ndarray) -> np.ndarray:
    """beta at one base point or at stacked rows (`numerics.each_row`)."""
    return np.asarray(numerics.each_row(beta, p1), dtype=float)


def _tmatvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m^T @ x for one matrix and vector, or row by row."""
    return numerics.matvec(np.swapaxes(m, -1, -2), x)


def _dbeta(beta: BetaMap, p1: np.ndarray) -> np.ndarray:
    """dbeta/dp1, (vf, n1 + k1) per point, from one stencil of all points."""
    return numerics.fd_jacobian(lambda pts: _betas(beta, pts), (p1,), rows=True)


def _qbar_velocity_tangent(a: np.ndarray, c: np.ndarray, dbeta: np.ndarray,
                           n1: int) -> np.ndarray:
    """dw/d(qdot, zeta) of psi's qbar velocity w, at one point or at rows, by
    the implicit function theorem on the momentum condition (`build_system`
    gives A, C and zeta); a singular A_ww raises RegularityError."""
    a_ww = a[..., n1:, n1:]
    maglag.require_regular(a_ww, "f-regularity failure in psi: |det d2L2/dqbardot2|")
    rhs = np.concatenate([-a[..., n1:, :n1], dbeta - c[..., n1:, :]], axis=-1)
    return numerics.solve(a_ww, rhs)


def solve_psi(l2: MagneticSystem, pair: TransformationPair, beta: BetaMap,
              z1: np.ndarray) -> np.ndarray:
    """The compatible map: all coordinates pass through except the qbar
    velocity, which is solved from the fibre momentum condition.

    Stacked states z1 (N, dim) are solved by one row Newton
    (`numerics.invert`) over l2's `grad_v` and `hess_vv` at rows, and its
    tolerance holds per row.  The Newton iteration for the qbar velocity
    starts at zero; it raises RegularityError when it fails (the Lagrangian
    is not f-regular there), naming the first failing row.  A state whose
    width is not 2 n1 + k1 raises ValueError.
    """
    z1 = np.asarray(z1, dtype=float)
    if z1.shape[-1:] != (2 * pair.n1 + pair.k1,):
        raise ValueError(f"z1 must have width 2 n1 + k1 = {2 * pair.n1 + pair.k1}, "
                         f"got shape {z1.shape}")
    target = _betas(beta, pair.p1_coords(z1))
    if target.shape != z1.shape[:-1] + (pair.vf,):
        raise ValueError(f"beta must return a {pair.vf}-vector")
    n1 = pair.n1
    # psi's output, whose qbar velocity w each call below writes in place
    z2 = z1.take(pair.psi_index, -1)
    q2, v2, pbar = pair.split2(z2)
    w_at = v2[..., n1:]
    grad_v, hess_vv = l2.grad_v, l2.hess_vv

    def residual(w):
        w_at[...] = w
        return grad_v(q2, v2, pbar)[..., n1:] - target

    def jacobian(w):
        w_at[...] = w
        return hess_vv(q2, v2, pbar)[..., n1:, n1:]

    w_at[...] = numerics.invert(residual, np.zeros(target.shape), jacobian,
                                "f-regularity failure in psi")
    return z2


def invert_psi(l2: MagneticSystem, pair: TransformationPair, beta: BetaMap,
               z2: np.ndarray) -> np.ndarray:
    """Inverse of psi: recover the F-fibre coordinate p from the fibre
    momentum of a point on the smaller bundle (beta must be fibre-regular).
    Stacked states z2 (N, dim) and a wrong width are met as solve_psi meets
    them; the Jacobian in p is one fd_jacobian call over the slot p."""
    z2 = np.asarray(z2, dtype=float)
    if z2.shape[-1:] != (2 * pair.n2 + pair.k2,):
        raise ValueError(f"z2 must have width 2 n2 + k2 = {2 * pair.n2 + pair.k2}, "
                         f"got shape {z2.shape}")
    q2, v2, pbar = pair.split2(z2)
    n1 = pair.n1
    q, qbar = q2[..., :n1], q2[..., n1:]
    qdot = v2[..., :n1]
    target = l2.grad_v(q2, v2, pbar)[..., n1:]

    @numerics.takes_rows
    def mismatch(q, qbar, pbar, p, target):
        return _betas(beta, np.concatenate([q, qbar, pbar, p], axis=-1)) - target

    def residual(p):
        return mismatch(q, qbar, pbar, p, target)

    def jacobian(p):
        return numerics.fd_jacobian(mismatch, (q, qbar, pbar, p, target), 3, rows=True)

    p = numerics.invert(residual, np.zeros(target.shape), jacobian,
                        "beta fibre inversion failed")
    return np.concatenate([q, qdot, qbar, pbar, p], axis=-1)


def build_system(l2: MagneticSystem, pair: TransformationPair, beta: BetaMap,
                 gamma: ConnectionOnF | None = None) -> MagneticSystem:
    """The pulled-back magnetic Lagrangian system on P1, named
    l2.name + "_pullback", with Lagrangian and 2-form

        L1 = L2 o psi - beta_a (psi^a + Gamma^a_i qdot^i),
        B1 = F*B2 + d<beta, connection>.

    No derivative of L1 is differenced through the velocity solve.  On the
    momentum condition the qbar-velocity terms of the first derivatives
    cancel, so

        dL1/dqdot = dL2/dqdot o psi - Gamma^T beta,
        dL1/dzeta = dL2/dzeta|direct - (dbeta/dzeta)^T (w + Gamma qdot)
                    - beta . (dGamma/dzeta) qdot

    for zeta over (q, qbar, pbar, p).  The second derivatives follow from
    the implicit function theorem, as the Routhian blocks of
    `routh._assemble_metric` do: with A = d2L2/dv2 and C = d2L2/dv dzeta
    (zero in p) at psi(z), split into qdot and qbar-velocity (w) rows, and
    G = A_qw A_ww^-1,

        d2L1/dqdot2      = A_qq - G A_wq,
        d2L1/dqdot dzeta = C_qzeta + G (dbeta/dzeta - C_wzeta)
                           - d(Gamma^T beta)/dzeta.

    One callable gives the whole jet (`dL_jet`: dL1/dq, dL1/dp and the
    three velocity blocks): one psi solve, one `l2.jet` (with
    `l2.hess_vv` when l2 declares its Hessian constant), one stencil of
    beta, one solve by A_ww, and with a connection one stencil of the
    psi-free map (q, qbar, b) -> Gamma^T b at fixed b.  A singular A_ww
    raises RegularityError naming f-regularity.  The exterior derivative
    of the coordinate 1-form beta_a (dqbar^a + Gamma^a_i dq^i) is taken by
    central differences at step H_SECOND.  `lagrangian`, `dL_dv`,
    `dL_jet`, the 1-form and `bform` are marked and take one point or
    stacked rows; the stencil of the exterior derivative is one
    fd_jacobian call, at one point (passed as one stacked row) as at
    stacked rows.  Without `gamma` the connection is zero, and, as in
    `maglag`, its identically absent terms are not evaluated: no Gamma
    products in L1, dL1/dqdot, the jet and the 1-form, and no connection
    stencil.
    """
    n1, n2, vf, k2 = pair.n1, pair.n2, pair.vf, pair.k2
    dim1 = n1 + pair.k1
    dim2 = n2 + k2

    def pieces(q, v, pfib):
        z1 = np.concatenate([np.atleast_1d(q), np.atleast_1d(v), np.atleast_1d(pfib)],
                            axis=-1)
        z2 = solve_psi(l2, pair, beta, z1)
        q2, v2, pbar = pair.split2(z2)
        p1 = pair.p1_coords(z1)
        b = _betas(beta, p1)
        if gamma is None:
            return q2, v2, pbar, p1, b, None, v2[..., n1:]
        gam = numerics.each_row(gamma, q2[..., :n1], q2[..., n1:])
        vert = v2[..., n1:] + numerics.matvec(gam, v2[..., :n1])
        return q2, v2, pbar, p1, b, gam, vert

    @numerics.takes_rows
    def lagrangian(q, v, pfib):
        q2, v2, pbar, _, b, _, vert = pieces(q, v, pfib)
        out = numerics.each_row(l2.lagrangian, q2, v2, pbar) - numerics.rowdot(b, vert)
        return out if q2.ndim == 2 else float(out)

    @numerics.takes_rows
    def dl_dv(q, v, pfib):
        q2, v2, pbar, _, b, gam, _ = pieces(q, v, pfib)
        out = l2.grad_v(q2, v2, pbar)[..., :n1]
        return out if gamma is None else out - _tmatvec(gam, b)

    @numerics.takes_rows
    def image(q2, b):
        return _tmatvec(numerics.each_row(gamma, q2[..., :n1], q2[..., n1:]), b)

    @numerics.takes_rows
    def dl_jet(q, v, pfib):
        q2, v2, pbar, p1, b, gam, vert = pieces(q, v, pfib)
        dbeta = _dbeta(beta, p1)
        dl_dq2, dl_dpbar, a, c_q2, c_pbar = l2.jet(q2, v2, pbar)
        if a is None:
            a = l2.hess_vv(q2, v2, pbar)
        # the direct derivatives of L2 in zeta = (q, qbar, pbar, p), zero in p
        lead = vert.shape[:-1]
        grad, c = np.zeros(lead + (dim1,)), np.zeros(lead + (n2, dim1))
        grad[..., :n2], c[..., :n2] = dl_dq2, c_q2
        if k2:
            grad[..., n2:dim2], c[..., n2:dim2] = dl_dpbar, c_pbar
        grad -= _tmatvec(dbeta, vert)
        blocks = (np.concatenate([a[..., :n1, :n1], c[..., :n1, :]], axis=-1)
                  + a[..., :n1, n1:] @ _qbar_velocity_tangent(a, c, dbeta, n1))
        if gamma is not None:
            # d(Gamma^T beta)/dzeta: Gamma differenced in (q, qbar) at fixed
            # beta, plus Gamma^T dbeta/dzeta
            by_q2 = numerics.fd_jacobian(image, (q2, b), rows=True)
            grad[..., :n2] -= _tmatvec(by_q2, v2[..., :n1])
            blocks[..., n1:] -= np.swapaxes(gam, -1, -2) @ dbeta
            blocks[..., n1:n1 + n2] -= by_q2
        return (grad[..., :n1], grad[..., n1:], blocks[..., :n1], blocks[..., n1:2 * n1],
                blocks[..., 2 * n1:])

    @numerics.takes_rows
    def one_form(z: np.ndarray) -> np.ndarray:
        b = _betas(beta, z)
        theta = np.zeros(z.shape[:-1] + (dim1,))
        if gamma is not None:
            theta[..., :n1] = _tmatvec(numerics.each_row(gamma, z[..., :n1],
                                                         z[..., n1:n1 + vf]), b)
        theta[..., n1:n1 + vf] = b
        return theta

    @numerics.takes_rows
    def bform(q, pfib):
        z = np.concatenate([np.atleast_1d(q), np.atleast_1d(pfib)], axis=-1)
        # one point goes in as one stacked row, so the stencil is one 1-form
        # call whether or not the 1-form is still marked (a call counter)
        full = numerics.fd_exterior_derivative(one_form, z.reshape(-1, dim1),
                                               numerics.H_SECOND).reshape(z.shape + (dim1,))
        if l2.bform is not None:
            full[..., :dim2, :dim2] += l2.full_bmatrix(z[..., :n2], z[..., n2:dim2])
        return full[..., :n1, :n1], full[..., :n1, n1:], full[..., n1:, n1:]

    return MagneticSystem(n=n1, k=pair.k1, lagrangian=lagrangian, bform=bform,
                          dL_dv=dl_dv, dL_jet=dl_jet, name=l2.name + "_pullback")


def verify_symplectomorphism(sys1: MagneticSystem, sys2: MagneticSystem,
                             psi: Callable[[np.ndarray], np.ndarray],
                             samples: np.ndarray,
                             rng: np.random.Generator,
                             tangent_pairs: int = 10,
                             beta: BetaMap | None = None,
                             pair: TransformationPair | None = None) -> dict:
    """Numerically compare the two symplectic structures through psi.

    At each sample state of sys1 the local 2-form matrices are assembled
    from the derivative supplies.  Tangents are pushed through psi's
    tangent map, found once per sample: with beta and pair, identity rows
    for what psi passes through and `build_system`'s
    implicit-function-theorem tangent of the qbar velocity (from
    `sys2.velocity_blocks` at psi's output, which sys2's form matrix
    reuses), otherwise psi's central-difference Jacobian at step
    numerics.H_GRADIENT.  Also records the energy pull-back residual and,
    with beta and pair only, holds psi to the compatible map:
    `max_residual_momentum` (the fibre momentum condition) and
    `max_residual_passthrough` (max |z2 - z1| over the passed-through
    coordinates).

    The samples are rows of width 2 n + k of sys1.  A wrong width, a
    non-finite sample or only one of beta and pair raises ValueError
    before psi is called.  The tangents are drawn sample by sample, u then
    w for each pair.  psi runs through `numerics.each_row` on the samples,
    and without beta on their stencil too (`numerics.fd_jacobian`): one
    or two calls when psi is marked with `numerics.takes_rows`, one or
    1 + 2 (2 n + k) per sample otherwise, whatever tangent_pairs is.  The
    form matrices, energies and residuals are evaluated over rows.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("samples is empty: the symplectomorphism check needs "
                         "at least one sample")
    dim1 = 2 * sys1.n + sys1.k
    if samples.ndim != 2 or samples.shape[1] != dim1:
        raise ValueError(f"samples must be rows of width 2*n + k = {dim1} of sys1, "
                         f"got shape {samples.shape}")
    finite = np.isfinite(samples).all(axis=1)
    if not finite.all():
        raise ValueError(f"sample row {int(np.argmin(finite))} is not finite")
    if tangent_pairs < 1:
        raise ValueError(f"tangent_pairs must be positive, got {tangent_pairs}")
    if (beta is None) != (pair is None):
        raise ValueError("the momentum residual needs both beta and pair")
    count = samples.shape[0]
    tangents = rng.normal(size=(count, tangent_pairs, 2, dim1))
    tangents /= np.sqrt(numerics.rowdot(tangents, tangents))[..., None]

    def psi_rows(z):
        return np.asarray(numerics.each_row(psi, z), dtype=float)

    z2 = psi_rows(samples)
    held, blocks = {}, None
    if beta is None:
        dpsi = numerics.fd_jacobian(psi_rows, (samples,), rows=True)
    else:
        n1, n2 = pair.n1, pair.n2
        (q2, v2, pbar), p1 = pair.split2(z2), pair.p1_coords(samples)
        a, c_q2, c_pbar = blocks = sys2.velocity_blocks(q2, v2, pbar)
        c = np.concatenate([c_q2, c_pbar, np.zeros((count, n2, pair.vf))], axis=-1)
        # every row of z2 but the qbar velocity's reads one coordinate of z1
        through = np.r_[:n2 + n1, 2 * n2:dim1]
        dpsi = np.zeros((count, dim1, dim1))
        dpsi[:, through, pair.psi_index[through]] = 1.0
        dpsi[:, n2 + n1:2 * n2, np.r_[n1:2 * n1, pair.p1_index]] = _qbar_velocity_tangent(
            a, c, _dbeta(beta, p1), n1)
        resid = sys2.grad_v(q2, v2, pbar)[:, n1:] - _betas(beta, p1)
        held = {"max_residual_momentum": float(np.max(np.linalg.norm(resid, axis=-1))),
                "max_residual_passthrough": float(np.max(np.abs(
                    z2[:, through] - samples[:, pair.psi_index[through]])))}
    push = numerics.matvec(dpsi[:, None, None], tangents)

    def form_values(sys, z, t, blocks=None):
        q, v, p = np.split(z, [sys.n, 2 * sys.n], axis=1)
        m = (maglag.symplectic_form_matrix(sys, q, v, p) if blocks is None
             else maglag.form_matrix_of_blocks(sys, q, p, blocks))
        return (t[:, :, 0, None, :] @ m[:, None] @ t[:, :, 1, :, None])[..., 0, 0]

    return {
        "samples": count,
        "max_residual_form": float(np.max(np.abs(form_values(sys1, samples, tangents)
                                                 - form_values(sys2, z2, push, blocks)))),
        "max_residual_energy": float(np.max(np.abs(maglag.energies(sys1, samples)
                                                   - maglag.energies(sys2, z2)))),
        **held,
    }
