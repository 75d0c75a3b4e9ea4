"""Symmetry reduction on product configuration spaces.

For a Lagrangian on the product of a shape space S with a symmetry group G,
invariance reduces the dynamics to (x, xdot, nu) where nu is the body
momentum.  This module provides the inverse-momentum solver, the reduced
Lagrangian (Routhian), the reduced flow

    nudot = +/- ad*_{chi} nu,
    d/dt(dR/dxdot) - dR/dx = 0,

and reconstruction of the group motion.  The momentum map, the orbit
symplectic pairing, the reduced energy and the Routhian by the
kinetic-energy identity, which the tests check this module against, are
reference implementations in tests/oracles.py.

Derivatives of the reduced Lagrangian are assembled through the implicit
function theorem from the derivative supply of the unreduced one, so systems
with analytic derivatives reproduce closed-form reduced equations to
rounding accuracy.
One momentum inversion, for one point and for stacked rows alike, sits
behind `solve_chi`, the Routhian (`routhians` over rows), the energy
monitor of `integrate_reduced` and `reconstruct`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import maglag, numerics
from .lie import AlgebraVector, CoVector, GroupElement, LieGroupSpec
from .maglag import InvariantReport, Trajectory
from .numerics import RegularityError, StepperChoice


@dataclass(frozen=True)
class ReducedMetric:
    """The gain of the reduced equations at a point, by the implicit
    function theorem: with the Routhian Hessian H = d2R/dxdot2 and the
    mixed blocks M_x = d2R/dxdot dx and M_nu = d2R/dxdot dnu,

        gain = H^{-1} [1 | -M_x | -M_nu],  xddot = gain @ (dell/dx, xdot, nudot),

    shape (sdim, 2 sdim + gdim)."""
    gain: np.ndarray


@dataclass(frozen=True)
class InvariantLagrangian:
    """Reduced-form Lagrangian ell(x, xdot, xi) on shape velocities and the
    group algebra, with optional analytic derivative callables.

    First derivatives: dell_dx, dell_dxdot, dell_dxi.  Second derivatives
    follow the naming d2_<outer>_<inner>; e.g. d2_dxi_dxdot is the Jacobian
    of dell_dxi with respect to xdot, with shape (gdim, sdim); its transpose
    is the (xdot, xi) block, which is not supplied separately.  Missing
    callables are supplied by the fallback rule of `numerics.supply`.

    A mechanical system (kinetic quadratic form minus a shape potential)
    declares itself by supplying `potential`.  If every second-derivative
    block of ell is state-independent, set constant_group_metric=True: the
    gain of the reduced equations is then assembled once at the origin and
    kept in `reduced_metric`, and the momentum inversion, which a constant
    metric makes affine, is compiled into `chi_map` = (P, c) with
    chi = P @ (x, xdot, nu) + c (`_affine_chi`).  A right-hand side of the
    reduced flow is then one dell/dx call, the affine map, ad* and one
    product with the gain.  `quadratic_invariant_lagrangian` without a
    potential gives dell/dx as a row-marked exact zero.

    An `ell` marked with `numerics.takes_rows` takes rows: then every
    values-only derivative is one stacked stencil call (rule 3 over rows),
    and `metric_blocks` gives the five blocks of the reduced equations and
    dell/dx from one.  An unmarked `ell` is called at one
    point at a time, stencil point by stencil point and row by row.
    """
    sdim: int
    group: LieGroupSpec
    ell: Callable[[np.ndarray, np.ndarray, np.ndarray], float]
    dell_dx: Callable | None = None
    dell_dxdot: Callable | None = None
    dell_dxi: Callable | None = None
    d2_dxdot_dx: Callable | None = None
    d2_dxdot_dxdot: Callable | None = None
    d2_dxi_dx: Callable | None = None
    d2_dxi_dxdot: Callable | None = None
    d2_dxi_dxi: Callable | None = None
    potential: Callable[[np.ndarray], float] | None = None
    constant_group_metric: bool = False
    reduced_metric: ReducedMetric | None = field(
        default=None, init=False, repr=False, compare=False)
    chi_map: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.constant_group_metric:
            zero = np.zeros(self.sdim), np.zeros(self.sdim), np.zeros(self.gdim)
            object.__setattr__(self, "reduced_metric", _assemble_metric(self, *zero)[0])
            object.__setattr__(self, "chi_map", _affine_chi(self))

    @property
    def gdim(self) -> int:
        return self.group.dim

    # -- derivative supply (fallback rule: numerics.supply), resolved on
    # first use and kept with the Lagrangian; each is called as
    # lag.<name>(x, xdot, xi), slot 0 = x, 1 = xdot, 2 = xi

    def value(self, x, xdot, xi) -> float:
        """ell as a float at one point.  The supplies difference `ell`
        itself, since `numerics.fd_blocks` takes its values as floats."""
        return float(self.ell(x, xdot, xi))

    def _spec(self, outer: int, inner: int | None = None) -> tuple:
        """(outer, inner, first, second) of `numerics.supply` for d ell /
        d(slot outer) or, with `inner`, its Jacobian in slot `inner`."""
        first = (self.dell_dx, self.dell_dxdot, self.dell_dxi)[outer]
        second = {(1, 0): self.d2_dxdot_dx, (1, 1): self.d2_dxdot_dxdot,
                  (2, 0): self.d2_dxi_dx, (2, 1): self.d2_dxi_dxdot,
                  (2, 2): self.d2_dxi_dxi}.get((outer, inner))
        return outer, inner, first, second

    def _supply(self, outer: int, inner: int | None = None) -> Callable:
        return numerics.supply(self.ell, *self._spec(outer, inner))

    @cached_property
    def grad_x(self) -> Callable:
        return self._supply(0)

    @cached_property
    def shape_momentum(self) -> Callable:
        """dell/dxdot, the shape-velocity fibre derivative."""
        return self._supply(1)

    @cached_property
    def group_momentum(self) -> Callable:
        """dell/dxi, the group-velocity fibre derivative."""
        return self._supply(2)

    @cached_property
    def jac_xdot_x(self) -> Callable:
        return self._supply(1, 0)

    @cached_property
    def jac_xdot_xdot(self) -> Callable:
        return self._supply(1, 1)

    @cached_property
    def jac_xi_x(self) -> Callable:
        return self._supply(2, 0)

    @cached_property
    def jac_xi_xdot(self) -> Callable:
        return self._supply(2, 1)

    @cached_property
    def jac_xi_xi(self) -> Callable:
        return self._supply(2, 2)

    @cached_property
    def metric_blocks(self) -> Callable:
        """(x, xdot, xi) -> [jac_xi_xi, jac_xi_xdot, jac_xi_x, jac_xdot_xdot,
        jac_xdot_x, grad_x]: what a point of the reduced equations uses
        besides the momentum inversion, at one point or at stacked rows,
        each with the bits of its own supply, from one
        `numerics.supply_blocks` callable.  The blocks differenced from one
        row-marked first derivative share its stencil, and those differenced
        from the values share one: a row-marked `ell` with no derivatives
        gives all six from one stacked stencil call."""
        return numerics.supply_blocks(self.ell, [self._spec(*pair) for pair in (
            (2, 2), (2, 1), (2, 0), (1, 1), (1, 0), (0, None))])


def _assemble_metric(lag: InvariantLagrangian, x, xdot, chi: np.ndarray
                     ) -> tuple[ReducedMetric, np.ndarray, np.ndarray]:
    """The gain of the reduced equations at (x, xdot, chi) by the implicit
    function theorem, dell/dx there and the tangent dchi/dy of the inversion
    in the flat state y = (x, xdot, nu): with K = d(dell/dxi)/dxi,

        dchi/dy = K^{-1} [-d(dell/dxi)/dx, -d(dell/dxi)/dxdot, 1],

    the Routhian blocks of the gain are combinations of the supply of ell,
    all of them and dell/dx from one `metric_blocks` call.  A singular K or
    Routhian Hessian raises RegularityError, K's also when a non-finite
    stencil value of another block is raised first."""
    singular_k = "singular group metric: |det d2ell/dxi2|"
    try:
        k, xi_xdot, xi_x, xdot_xdot, xdot_x, dl_dx = lag.metric_blocks(x, xdot, chi)
    except ValueError:
        # near a singular K, chi and so the other blocks' stencils blow up:
        # name the singular K first, as when K is checked on its own
        maglag.require_regular(lag.jac_xi_xi(x, xdot, chi), singular_k)
        raise
    maglag.require_regular(k, singular_k)
    k_inv = numerics.inverse(k)
    dchi_dxdot = -k_inv @ xi_xdot
    dchi_dx = -k_inv @ xi_x
    f1_xi = xi_xdot.T
    hess = xdot_xdot + f1_xi @ dchi_dxdot
    maglag.require_regular(hess, "singular Routhian Hessian: |det d2R/dxdot2|")
    mixed = [np.eye(len(hess)), -(xdot_x + f1_xi @ dchi_dx), -(f1_xi @ k_inv)]
    return (ReducedMetric(numerics.solve(hess, np.concatenate(mixed, axis=1))), dl_dx,
            np.concatenate([dchi_dx, dchi_dxdot, k_inv], axis=1))


def _affine_chi(lag: InvariantLagrangian) -> tuple[np.ndarray, np.ndarray]:
    """(P, c) with chi = P @ (x, xdot, nu) + c solving dell/dxi(x, xdot,
    chi) = nu, for a constant group metric.  The momentum is then affine,
    dell/dxi = m0 + M (x, xdot, xi), and m0 and the columns of M are read
    off `group_momentum` itself, at the origin and at the unit steps (one
    call over these rows), so the map reproduces the momentum supply to
    rounding whichever rule gives it."""
    n, sd = 2 * lag.sdim + lag.gdim, 2 * lag.sdim
    at = lag.group_momentum(*_split(lag, np.vstack([np.zeros(n), np.eye(n)])))
    m0, m = at[0], (at[1:] - at[0]).T
    k_inv = numerics.inverse(m[:, sd:])
    p = -k_inv @ m
    p[:, sd:] = k_inv
    return p, -k_inv @ m0


def quadratic_invariant_lagrangian(sdim: int, group: LieGroupSpec,
                                   a_block: np.ndarray, b_block: np.ndarray,
                                   c_block: np.ndarray,
                                   potential: Callable | None = None,
                                   dpotential: Callable | None = None
                                   ) -> InvariantLagrangian:
    """Mechanical Lagrangian with a constant kinetic metric,

        ell = 1/2 xdot^T A xdot + xdot^T B xi + 1/2 xi^T C xi - V(x),

    with all derivatives analytic.  A is (sdim, sdim), B is (sdim, gdim),
    C is (gdim, gdim) symmetric positive definite on the relevant block.
    `dpotential(x)` gives dV/dx as a vector at a vector x; without it the
    potential is differenced.  A `dpotential` without its `potential` is
    refused, and without a potential dell/dx is an exact zero.
    """
    if dpotential is not None and potential is None:
        raise ValueError("dpotential is given without its potential: ell would carry "
                         "no V while dell/dx = -dpotential")
    a = np.asarray(a_block, dtype=float).reshape(sdim, sdim)
    b = np.asarray(b_block, dtype=float).reshape(sdim, group.dim)
    c = np.asarray(c_block, dtype=float).reshape(group.dim, group.dim)
    for name, block in (("A", a), ("B", b), ("C", c)):
        if not np.isfinite(block).all():
            raise ValueError(f"metric block {name} is not finite")
    if not np.allclose(a, a.T) or not np.allclose(c, c.T):
        raise ValueError("metric blocks A and C must be symmetric")
    v = potential or numerics.takes_rows(lambda x: np.zeros(np.shape(x)[:-1]))
    dv = dpotential or (potential and (lambda x: numerics.fd_jacobian(v, (x,), rows=False)))
    # the one wrap of x in the potential's chain, of a scalar x only; without
    # a potential dell/dx is an exact zero, at one point or at rows
    dell_dx = ((lambda x, xd, xi: -dv(x if getattr(x, "ndim", 0) else np.atleast_1d(x))) if dv
               else numerics.takes_rows(lambda x, xd, xi: np.zeros(np.shape(x))))
    rowdot = numerics.rowdot
    a_t, b_t, c_t = a.T, b.T, c.T

    # ell and the two fibre derivatives take one point or stacked rows; the
    # potential is called once per row unless it takes rows itself.
    @numerics.takes_rows
    def ell(x, xdot, xi):
        return (rowdot(0.5 * xdot @ a, xdot) + rowdot(xdot @ b, xi)
                + rowdot(0.5 * xi @ c, xi) - numerics.each_row(v, np.atleast_1d(x)))

    return InvariantLagrangian(
        sdim=sdim, group=group, ell=ell, dell_dx=dell_dx,
        dell_dxdot=numerics.takes_rows(lambda x, xd, xi: xd @ a_t + xi @ b_t),
        dell_dxi=numerics.takes_rows(lambda x, xd, xi: xd @ b + xi @ c_t),
        d2_dxdot_dx=lambda x, xd, xi: np.zeros((sdim, sdim)),
        d2_dxdot_dxdot=lambda x, xd, xi: a,
        d2_dxi_dx=lambda x, xd, xi: np.zeros((group.dim, sdim)),
        d2_dxi_dxdot=lambda x, xd, xi: b.T,
        d2_dxi_dxi=lambda x, xd, xi: c,
        potential=v, constant_group_metric=True)


@dataclass(frozen=True)
class ReducedRouthSystem:
    """A reduced system at momentum level mu; `side` selects the sign of
    the momentum equation (left-invariant: +, right-invariant: -)."""
    lagrangian: InvariantLagrangian
    mu: CoVector
    side: str = "left"

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if len(self.mu) != self.lagrangian.gdim:
            raise ValueError(f"momentum level mu has length {len(self.mu)}; "
                             f"the group has dimension {self.lagrangian.gdim}")
        if not np.all(np.isfinite(self.mu.coords)):
            raise ValueError("momentum level must be finite")

    @cached_property
    def structure(self) -> np.ndarray:
        """Structure constants times the momentum sign, as (g, g*g), built
        once: nudot = +/- ad*_chi nu is chi @ (nu @ this).reshape(g, g)."""
        group = self.lagrangian.group
        sign = 1.0 if self.side == "left" else -1.0
        return sign * group.structure.reshape(group.dim, group.dim * group.dim)


@dataclass(frozen=True)
class ReducedState:
    x: np.ndarray
    xdot: np.ndarray
    nu: CoVector

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "xdot", np.atleast_1d(np.asarray(self.xdot, dtype=float)))


def _check_state(lag: InvariantLagrangian, s: ReducedState) -> None:
    """Refuse a state whose x, xdot or nu does not match sdim / gdim."""
    for name, value, dim in (("x", s.x, lag.sdim), ("xdot", s.xdot, lag.sdim),
                             ("nu", s.nu.coords, lag.gdim)):
        if np.shape(value) != (dim,):
            raise ValueError(f"state {name} has shape {np.shape(value)}; "
                             f"the system needs ({dim},)")


def solve_chi(lag: InvariantLagrangian, x, xdot, nu: CoVector,
              seed: np.ndarray | None = None) -> AlgebraVector:
    """Invert the group-velocity fibre derivative: find xi with
    dell/dxi(x, xdot, xi) = nu.

    A constant metric takes the compiled affine map (`_affine_chi`) and
    checks its residual; otherwise Newton iterates from `seed` (default
    zero) and reports a regularity failure if it does not converge.  With several Newton basins
    the returned branch is the one reachable from the seed.
    """
    if not isinstance(nu, CoVector) or len(nu) != lag.gdim:
        raise ValueError("nu must be a CoVector of the group dimension")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xdot = np.atleast_1d(np.asarray(xdot, dtype=float))
    return AlgebraVector(_chi(lag, x, xdot, nu.coords, seed))


def _chi(lag: InvariantLagrangian, x, xdot, nu: np.ndarray,
         seed: np.ndarray | None = None, times: np.ndarray | None = None
         ) -> np.ndarray:
    """chi with dell/dxi(x, xdot, chi) = nu at one point or at stacked rows:
    the compiled affine map of a constant metric (`InvariantLagrangian.
    chi_map`), whose residual must be within numerics.INVERSION_TOL (a
    non-finite one fails too), or `numerics.invert` from `seed` (default
    zero).  A failure over rows names the time of the first failing row,
    from `times`, when given."""
    if lag.chi_map is not None:
        p, c = lag.chi_map
        chi = numerics.matvec(p, np.concatenate([x, xdot, nu], axis=-1)) + c
        worst = np.max(np.abs(lag.group_momentum(x, xdot, chi) - nu), axis=-1)
        bad = ~(worst <= numerics.INVERSION_TOL)
        if np.any(bad):
            first = int(np.argmax(bad))
            when = None if times is None else times[first]
            raise RegularityError(
                f"momentum inversion residual {np.ravel(worst)[first]:.3e} exceeds "
                "tolerance: the state is not finite, or the group metric is not "
                f"constant as declared{numerics.at_time(when)}")
        return chi
    seed = np.zeros_like(nu) if seed is None else np.asarray(seed, dtype=float)
    return numerics.invert(lambda z: lag.group_momentum(x, xdot, z) - nu, seed,
                           lambda z: lag.jac_xi_xi(x, xdot, z),
                           "group-velocity inversion failed (group regularity)", times)


def routhian(lag: InvariantLagrangian, x, xdot, nu: CoVector) -> float:
    """Reduced Lagrangian R(x, xdot, nu) = ell - <nu, xi> at xi solving the
    momentum constraint."""
    chi = solve_chi(lag, x, xdot, nu).coords
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xdot = np.atleast_1d(np.asarray(xdot, dtype=float))
    return float(_routhian(lag, x, xdot, nu.coords, chi))


def routhians(lag: InvariantLagrangian, x: np.ndarray, xdot: np.ndarray,
              nu: np.ndarray) -> np.ndarray:
    """The Routhian at each row of stacked (x, xdot, nu), shapes (N, sdim)
    and (N, gdim), with one momentum inversion over all rows."""
    return _routhian(lag, x, xdot, nu, _chi(lag, x, xdot, nu))


def _routhian(lag: InvariantLagrangian, x, xdot, nu, chi):
    """ell - <nu, chi> at chi on the momentum constraint; one point or
    stacked rows."""
    return numerics.each_row(lag.ell, x, xdot, chi) - numerics.rowdot(nu, chi)


def _energy(lag: InvariantLagrangian, x, xdot, nu, chi):
    """<dR/dxdot, xdot> - R at chi on the momentum constraint, where
    dR/dxdot = dell/dxdot; one point or stacked rows."""
    return (numerics.rowdot(lag.shape_momentum(x, xdot, chi), xdot)
            - _routhian(lag, x, xdot, nu, chi))


def _split(lag: InvariantLagrangian, ys: np.ndarray):
    """(x, xdot, nu) of flat reduced states, one state or stacked rows."""
    sd = lag.sdim
    return ys[..., :sd], ys[..., sd:2 * sd], ys[..., 2 * sd:]


def reduced_vector_field(sys: ReducedRouthSystem, s: ReducedState
                         ) -> tuple[np.ndarray, np.ndarray, CoVector]:
    """Right-hand side (xdot, xddot, nudot) of the reduced equations.

    The gain of the shape equation comes from the implicit function
    theorem (`_assemble_metric`, kept once for a constant metric), and the
    time-varying momentum enters through its d2R/dxdot dnu columns.  A
    state whose parts do not match the system raises ValueError.
    """
    lag = sys.lagrangian
    _check_state(lag, s)
    chi = solve_chi(lag, s.x, s.xdot, s.nu).coords
    if lag.reduced_metric is None:
        metric, dl_dx, _ = _assemble_metric(lag, s.x, s.xdot, chi)
    else:
        metric, dl_dx = lag.reduced_metric, lag.grad_x(s.x, s.xdot, chi)
    xddot, nudot = _reduced_rhs(dl_dx, sys.structure, metric.gain, s.xdot, s.nu.coords, chi)
    return s.xdot.copy(), xddot, CoVector(nudot)


def _reduced_rhs(dl_dx: np.ndarray, structure: np.ndarray, gain: np.ndarray,
                 xdot, nu: np.ndarray, chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(xddot, nudot) at chi solving the momentum constraint, from dell/dx,
    the signed structure constants (`ReducedRouthSystem.structure`) and the
    gain of the reduced equations at this point (`ReducedMetric`): nudot =
    +/- ad*_chi nu and xddot = gain @ (dell/dx, xdot, nudot), the one place
    the shape acceleration is formed."""
    g = nu.size
    nudot = chi @ (nu @ structure).reshape(g, g)
    return gain @ np.concatenate([dl_dx, xdot, nudot]), nudot


def reduced_state_columns(sdim: int, gdim: int) -> tuple[str, ...]:
    return tuple([f"x{i}" for i in range(sdim)]
                 + [f"xdot{i}" for i in range(sdim)]
                 + [f"nu{a}" for a in range(gdim)])


def pack_reduced(s: ReducedState) -> np.ndarray:
    return np.concatenate([s.x, s.xdot, s.nu.coords])


def _field_factory(sys: ReducedRouthSystem):
    """ODE right-hand side over flat (x, xdot, nu) states.

    The supply callables, the signed structure constants and a constant
    metric's gain are looked up once, here.  With a constant metric xdot
    and nu are read straight from y and chi is the compiled affine map of
    y, unchecked (the public solve_chi also checks its residual), so a
    point is chi, nudot, one dell/dx call (the only supply call), one
    product with the gain and the output's concatenate; otherwise the gain
    is assembled per point, and Newton (`_chi`, without solve_chi's
    argument checks) starts from the tangent prediction chi_prev + dchi/dy
    (y - y_prev) of the previous point, which `_assemble_metric` gives and
    this closure keeps: from zero at the first point, and from chi_prev
    when the prediction is not finite."""
    lag = sys.lagrangian
    sd = lag.sdim
    grad_x, structure = lag.grad_x, sys.structure
    if lag.reduced_metric is not None:
        gain, (p, c) = lag.reduced_metric.gain, lag.chi_map

        def field(t: float, y: np.ndarray) -> np.ndarray:
            xdot = y[sd:2 * sd]
            chi = p @ y + c
            xddot, nudot = _reduced_rhs(grad_x(y[:sd], xdot, chi), structure, gain,
                                        xdot, y[2 * sd:], chi)
            return np.concatenate([xdot, xddot, nudot])

        return field
    last = None  # (y, chi, dchi/dy) at the previous point

    def field(t: float, y: np.ndarray) -> np.ndarray:
        nonlocal last
        x, xdot, nu = y[:sd], y[sd:2 * sd], y[2 * sd:]
        seed = None
        if last is not None:
            y0, chi0, dchi_dy = last
            seed = chi0 + dchi_dy @ (y - y0)
            seed = seed if np.isfinite(seed).all() else chi0
        chi = _chi(lag, x, xdot, nu, seed=seed)
        metric, dl_dx, dchi_dy = _assemble_metric(lag, x, xdot, chi)
        last = y, chi, dchi_dy
        xddot, nudot = _reduced_rhs(dl_dx, structure, metric.gain, xdot, nu, chi)
        return np.concatenate([xdot, xddot, nudot])

    return field


def integrate_reduced(sys: ReducedRouthSystem, s0: ReducedState, t_end: float,
                      stepper: StepperChoice) -> Trajectory:
    """Integrate the reduced flow over [0, t_end] with energy and Casimir
    monitors.

    The energy is checked at the `maglag.monitored` samples, from the
    first, the Casimirs at every sample.  A t_end that is not positive and
    finite, or an initial state that does not match the system or is not
    finite, raises ValueError before the first step."""
    numerics.require_horizon(t_end)
    lag = sys.lagrangian
    sd = lag.sdim
    _check_state(lag, s0)
    y0 = pack_reduced(s0)
    if not np.isfinite(y0).all():
        j = int(np.argmin(np.isfinite(y0)))
        raise ValueError(f"initial state {reduced_state_columns(sd, lag.gdim)[j]} is {y0[j]}")
    times, states = numerics.integrate_ode(_field_factory(sys), y0, 0.0, t_end, stepper)
    pick = maglag.monitored(len(states))
    x, xdot, nu = _split(lag, states[pick])
    energies = _energy(lag, x, xdot, nu, _chi(lag, x, xdot, nu, times=times[pick]))
    entries = {"energy_drift": float(np.max(np.abs(energies - energies[0])))}
    for cname, cfun in lag.group.casimirs:
        drift = numerics.each_row(cfun, states[:, 2 * sd:]) - cfun(s0.nu.coords)
        entries[f"casimir_{cname}_drift"] = float(np.max(np.abs(drift)))
    return Trajectory(times, states, reduced_state_columns(sd, lag.gdim),
                      InvariantReport(entries))


def reconstruct(sys: ReducedRouthSystem, traj: Trajectory, g0: GroupElement
                ) -> list[GroupElement]:
    """Recover the group motion along a reduced trajectory.

    Integrates gdot = g.chi with the midpoint update
    g_{n+1} = g_n exp(h chi_mid), evaluating chi at the averaged state of
    each sampling interval: one momentum inversion over all intervals, and
    one `numerics.lie_step` call, which takes every exponential from one
    call of a row-marked `exp_fn` and composes in order.  A failure names
    the mid time of the first failing interval.  Requires a densely
    sampled trajectory.
    """
    lag = sys.lagrangian
    ys, ts = traj.states, traj.times
    mid = 0.5 * (ts[:-1] + ts[1:])
    chis = _chi(lag, *_split(lag, 0.5 * (ys[:-1] + ys[1:])), times=mid)
    return numerics.lie_step(lag.group, g0, np.diff(ts)[:, None] * chis, mid)
