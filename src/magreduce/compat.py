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
intertwines the two symplectic structures.

Flat state layouts used throughout:
    z1 = [q, qdot, qbar, pbar, p]      (a maglag state of the P1 system,
                                        whose fibre is (qbar, pbar, p))
    z2 = [q, qbar, qdot, qbardot, pbar] (a maglag state of the P2 system)
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import maglag, numerics
from .maglag import MagneticSystem, RegularityError

PSI_TOL = 1e-10


@dataclass(frozen=True)
class TransformationPair:
    """Dimensions of the adapted-coordinate chain.

    n1: dim Q1; vf: fibre dimension of f (the qbar block); k2: fibre
    dimension of the smaller bundle; pdim: fibre dimension of F (the p
    block).  A diffeomorphic psi requires pdim == vf, which balances
    2*n1 + k1 == 2*n2 + k2.
    """
    n1: int
    vf: int
    k2: int = 0
    pdim: int | None = None

    def __post_init__(self):
        if self.pdim is None:
            object.__setattr__(self, "pdim", self.vf)

    @property
    def n2(self) -> int:
        return self.n1 + self.vf

    @property
    def k1(self) -> int:
        return self.vf + self.k2 + self.pdim

    def split1(self, z1: np.ndarray):
        n1, vf, k2 = self.n1, self.vf, self.k2
        q = z1[:n1]
        qdot = z1[n1:2 * n1]
        qbar = z1[2 * n1:2 * n1 + vf]
        pbar = z1[2 * n1 + vf:2 * n1 + vf + k2]
        p = z1[2 * n1 + vf + k2:]
        return q, qdot, qbar, pbar, p

    def p1_coords(self, z1: np.ndarray) -> np.ndarray:
        """Base-point coordinates (q, qbar, pbar, p) of a z1 state."""
        q, _, qbar, pbar, p = self.split1(z1)
        return np.concatenate([q, qbar, pbar, p])

    def split2(self, z2: np.ndarray):
        n1, n2 = self.n1, self.n2
        q2 = z2[:n2]
        v2 = z2[n2:2 * n2]
        pbar = z2[2 * n2:]
        return q2, v2, pbar

    def join2(self, q, qbar, qdot, qbardot, pbar) -> np.ndarray:
        return np.concatenate([q, qbar, qdot, qbardot, pbar])


BetaMap = Callable[[np.ndarray], np.ndarray]
ConnectionOnF = Callable[[np.ndarray, np.ndarray], np.ndarray]


def zero_connection(pair: TransformationPair) -> ConnectionOnF:
    return lambda q, qbar: np.zeros((pair.vf, pair.n1))


def solve_psi(l2: MagneticSystem, pair: TransformationPair, beta: BetaMap,
              z1: np.ndarray, seed: np.ndarray | None = None) -> np.ndarray:
    """The compatible map: all coordinates pass through except the qbar
    velocity, which is solved from the fibre momentum condition.

    Raises RegularityError when the Newton iteration for the qbar velocity
    fails (the Lagrangian is not f-regular near the seed).
    """
    z1 = np.asarray(z1, dtype=float)
    q, qdot, qbar, pbar, p = pair.split1(z1)
    q2 = np.concatenate([q, qbar])
    target = np.asarray(beta(pair.p1_coords(z1)), dtype=float)
    if target.shape != (pair.vf,):
        raise ValueError(f"beta must return a {pair.vf}-vector")
    n1 = pair.n1

    def residual(w):
        return l2.grad_v(q2, np.concatenate([qdot, w]), pbar)[n1:] - target

    def jacobian(w):
        return l2.hess_vv(q2, np.concatenate([qdot, w]), pbar)[n1:, n1:]

    seed = np.zeros(pair.vf) if seed is None else np.asarray(seed, dtype=float)
    try:
        res = numerics.newton_solve(residual, seed, jacobian=jacobian,
                                    tol=PSI_TOL, max_iter=50)
    except numerics.NewtonConvergenceError as exc:
        raise RegularityError(f"f-regularity failure in psi: {exc}") from exc
    return pair.join2(q, qbar, qdot, res.x, pbar)


def invert_psi(l2: MagneticSystem, pair: TransformationPair, beta: BetaMap,
               z2: np.ndarray, seed: np.ndarray | None = None) -> np.ndarray:
    """Inverse of psi: recover the F-fibre coordinate p from the fibre
    momentum of a point on the smaller bundle (beta must be fibre-regular)."""
    z2 = np.asarray(z2, dtype=float)
    q2, v2, pbar = pair.split2(z2)
    n1 = pair.n1
    q, qbar = q2[:n1], q2[n1:]
    qdot = v2[:n1]
    target = l2.grad_v(q2, v2, pbar)[n1:]

    def residual(p):
        return np.asarray(beta(np.concatenate([q, qbar, pbar, p])), dtype=float) - target

    seed = np.zeros(pair.pdim) if seed is None else np.asarray(seed, dtype=float)
    try:
        res = numerics.newton_solve(residual, seed, tol=PSI_TOL, max_iter=50)
    except numerics.NewtonConvergenceError as exc:
        raise RegularityError(f"beta fibre inversion failed: {exc}") from exc
    return np.concatenate([q, qdot, qbar, pbar, res.x])


def build_L1(l2: MagneticSystem, pair: TransformationPair, beta: BetaMap,
             gamma: ConnectionOnF | None = None) -> Callable:
    """Pulled-back Lagrangian on the larger bundle:

        L1 = L2 o psi - beta_a (psi^a + Gamma^a_i qdot^i).

    Returns a callable L1(q, v, pfib) in the maglag layout of the P1 system.
    """
    gamma = gamma or zero_connection(pair)
    n1, n2 = pair.n1, pair.n2

    def l1(q, v, pfib):
        z1 = np.concatenate([np.atleast_1d(q), np.atleast_1d(v), np.atleast_1d(pfib)])
        z2 = solve_psi(l2, pair, beta, z1)
        q2, v2, pbar = pair.split2(z2)
        w = v2[n1:]
        b = np.asarray(beta(pair.p1_coords(z1)), dtype=float)
        gam = gamma(q2[:n1], q2[n1:])
        return float(l2.value(q2, v2, pbar) - b @ (w + gam @ v2[:n1]))

    return l1


def build_L1_gradients(l2: MagneticSystem, pair: TransformationPair,
                       beta: BetaMap, gamma: ConnectionOnF | None = None
                       ) -> tuple[Callable, Callable, Callable]:
    """First derivatives of the pulled-back Lagrangian without differencing
    through the velocity solve.

    On the momentum condition the qbar-velocity derivative terms cancel, so

        dL1/dqdot = dL2/dqdot o psi - Gamma^T beta,
        dL1/dzeta = dL2/dzeta|direct - (dbeta/dzeta)^T (w + Gamma qdot)
                    - beta . (dGamma/dzeta) qdot

    for any base or fibre coordinate zeta; only beta and the connection
    coefficients are differenced numerically.  Returns (dL_dq, dL_dv, dL_dp)
    in the maglag layout of the P1 system.
    """
    gamma = gamma or zero_connection(pair)
    n1, vf, k2, pdim = pair.n1, pair.vf, pair.k2, pair.pdim

    def pieces(q, v, pfib):
        z1 = np.concatenate([np.atleast_1d(q), np.atleast_1d(v), np.atleast_1d(pfib)])
        z2 = solve_psi(l2, pair, beta, z1)
        q2, v2, pbar = pair.split2(z2)
        p1 = pair.p1_coords(z1)
        b = np.asarray(beta(p1), dtype=float)
        gam = gamma(q2[:n1], q2[n1:])
        vert = v2[n1:] + gam @ v2[:n1]
        dbeta = numerics.fd_jacobian(beta, p1)  # (vf, n1+k1)
        return z2, q2, v2, pbar, p1, b, gam, vert, dbeta

    def dl_dv(q, v, pfib):
        _, q2, v2, pbar, _, b, gam, _, _ = pieces(q, v, pfib)
        return l2.grad_v(q2, v2, pbar)[:n1] - gam.T @ b

    def _gamma_derivative_term(q2, qdot, b, wrt: str):
        # beta . (d Gamma / d zeta) qdot for zeta ranging over q or qbar
        q, qbar = q2[:n1], q2[n1:]
        if wrt == "q":
            def f(z):
                return float(b @ (gamma(z, qbar) @ qdot))
            return numerics.fd_gradient(f, np.array(q, dtype=float))
        def f(z):
            return float(b @ (gamma(q, z) @ qdot))
        return numerics.fd_gradient(f, np.array(qbar, dtype=float))

    def dl_dq(q, v, pfib):
        _, q2, v2, pbar, _, b, _, vert, dbeta = pieces(q, v, pfib)
        direct = l2.grad_q(q2, v2, pbar)[:n1]
        return (direct - dbeta[:, :n1].T @ vert
                - _gamma_derivative_term(q2, v2[:n1], b, "q"))

    def dl_dp(q, v, pfib):
        _, q2, v2, pbar, _, b, _, vert, dbeta = pieces(q, v, pfib)
        out = np.empty(pair.k1)
        out[:vf] = (l2.grad_q(q2, v2, pbar)[n1:]
                    - dbeta[:, n1:n1 + vf].T @ vert
                    - _gamma_derivative_term(q2, v2[:n1], b, "qbar"))
        out[vf:vf + k2] = (l2.grad_p(q2, v2, pbar)
                           - dbeta[:, n1 + vf:n1 + vf + k2].T @ vert)
        out[vf + k2:] = -dbeta[:, n1 + vf + k2:].T @ vert
        return out

    return dl_dq, dl_dv, dl_dp


def build_B1(l2: MagneticSystem, pair: TransformationPair, beta: BetaMap,
             gamma: ConnectionOnF | None = None,
             fd_step: float = numerics.H_SECOND) -> maglag.BlockForm:
    """Magnetic 2-form of the pulled-back system:

        B1 = F*B2 + d<beta, connection>,

    the exterior derivative taken by central differences of the coordinate
    1-form beta_a (dqbar^a + Gamma^a_i dq^i).  Returns a maglag block form
    on the P1 coordinates.
    """
    gamma = gamma or zero_connection(pair)
    n1, vf, k2, pdim = pair.n1, pair.vf, pair.k2, pair.pdim
    dim1 = n1 + pair.k1
    dim2 = pair.n2 + k2

    def one_form(z: np.ndarray) -> np.ndarray:
        q, qbar = z[:n1], z[n1:n1 + vf]
        b = np.asarray(beta(z), dtype=float)
        theta = np.zeros(dim1)
        theta[:n1] = gamma(q, qbar).T @ b
        theta[n1:n1 + vf] = b
        return theta

    def bform(q, pfib):
        z = np.concatenate([np.atleast_1d(q), np.atleast_1d(pfib)])
        full = numerics.fd_exterior_derivative(one_form, z, fd_step)
        if l2.bform is not None:
            b2 = l2.full_bmatrix(z[:pair.n2], z[pair.n2:pair.n2 + k2])
            full[:dim2, :dim2] += b2
        return full[:n1, :n1], full[:n1, n1:], full[n1:, n1:]

    return bform


def build_system(l2: MagneticSystem, pair: TransformationPair, beta: BetaMap,
                 gamma: ConnectionOnF | None = None,
                 fd_step: float = numerics.H_SECOND,
                 name: str = "") -> MagneticSystem:
    """The full pulled-back magnetic Lagrangian system on P1, with the
    envelope first derivatives wired in so second derivatives difference
    an analytic gradient rather than the Newton-backed Lagrangian."""
    dl_dq, dl_dv, dl_dp = build_L1_gradients(l2, pair, beta, gamma)
    return MagneticSystem(
        n=pair.n1, k=pair.k1,
        lagrangian=build_L1(l2, pair, beta, gamma),
        bform=build_B1(l2, pair, beta, gamma, fd_step),
        dL_dq=dl_dq, dL_dv=dl_dv, dL_dp=dl_dp,
        name=name or (l2.name + "_pullback"))


def verify_symplectomorphism(sys1: MagneticSystem, sys2: MagneticSystem,
                             psi: Callable[[np.ndarray], np.ndarray],
                             samples: np.ndarray,
                             rng: np.random.Generator,
                             tangent_pairs: int = 10,
                             fd_step: float = 1e-6,
                             beta: BetaMap | None = None,
                             pair: TransformationPair | None = None) -> dict:
    """Numerically compare the two symplectic structures through psi.

    At each sample state of sys1 the local 2-form matrices are assembled
    from the derivative supplies; tangents are pushed through psi by
    forward differences with the given step.  Also records the energy
    pull-back residual and, when (beta, pair) are supplied, the fibre
    momentum-condition residual.
    """
    samples = np.atleast_2d(samples)
    if samples.size == 0:
        raise ValueError("samples is empty: the symplectomorphism check needs "
                         "at least one sample")
    if tangent_pairs < 1:
        raise ValueError(f"tangent_pairs must be positive, got {tangent_pairs}")
    dim1 = 2 * sys1.n + sys1.k
    max_form = 0.0
    max_energy = 0.0
    max_momentum = 0.0
    for z1 in samples:
        z1 = np.asarray(z1, dtype=float)
        m1 = maglag.symplectic_form_matrix(
            sys1, z1[:sys1.n], z1[sys1.n:2 * sys1.n], z1[2 * sys1.n:])
        z2 = psi(z1)
        m2 = maglag.symplectic_form_matrix(
            sys2, z2[:sys2.n], z2[sys2.n:2 * sys2.n], z2[2 * sys2.n:])

        def push(u):
            return (psi(z1 + fd_step * u) - z2) / fd_step

        for _ in range(tangent_pairs):
            u = rng.normal(size=dim1)
            w = rng.normal(size=dim1)
            u /= np.linalg.norm(u)
            w /= np.linalg.norm(w)
            val1 = float(u @ m1 @ w)
            val2 = float(push(u) @ m2 @ push(w))
            max_form = max(max_form, abs(val1 - val2))

        e1 = maglag.energy(sys1, maglag.unpack(sys1, z1))
        e2 = maglag.energy(sys2, maglag.unpack(sys2, z2))
        max_energy = max(max_energy, abs(e1 - e2))

        if beta is not None and pair is not None:
            q2, v2, pbar = pair.split2(z2)
            resid = sys2.grad_v(q2, v2, pbar)[pair.n1:] \
                - np.asarray(beta(pair.p1_coords(z1)), dtype=float)
            max_momentum = max(max_momentum, float(np.linalg.norm(resid)))

    return {
        "samples": samples.shape[0],
        "max_residual_form": max_form,
        "max_residual_energy": max_energy,
        "max_residual_momentum": max_momentum,
    }
