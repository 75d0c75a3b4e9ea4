"""Magnetic Lagrangian systems in adapted coordinates.

A system lives on a bundle with base coordinates q (dim n) and fibre
coordinates p (dim k); the Lagrangian L(q, v, p) carries no fibre
velocities, and a closed 2-form with blocks (B_QQ, B_QP, B_PP) supplies the
gyroscopic force.  The equations of motion mix a second-order equation in q
with a first-order equation in p:

    d/dt(dL/dv) - dL/dq = B_QQ v + B_QP pdot
    B_PP pdot = B_QP^T v - dL/dp

Derivatives of L come from `numerics.supply`: analytic callables when
supplied, finite differences otherwise; each takes one point or stacked
rows.  A right-hand side point takes what it uses from one
`MagneticSystem.jet` call: the velocity blocks that are differenced from
dL/dv share one stencil call, everything differenced from the values of a
row-capable Lagrangian shares one, and a builder whose derivatives share
their work hands them over in one callable (`dL_dq_vq`, `dL_jet`),
called once for all of its parts that a point uses.  Terms that are
identically absent are not evaluated: at k = 0 the fibre equation,
without a form the B term, with a constant Hessian the solve.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from . import numerics
from .numerics import RegularityError, StepperChoice

DET_FLOOR = 1e-12
# the fibre rate of a k = 0 system, shared by every right-hand side: it is
# empty, and read-only so that no caller can take it for its own buffer
_NO_FIBRE = np.zeros(0)
_NO_FIBRE.flags.writeable = False


def require_regular(matrix: np.ndarray, what: str) -> None:
    """Raise RegularityError unless DET_FLOOR < |det matrix| < inf; `what`
    names the determinant in the message (an integrator adds the time).
    Only that decision and the message read |det|, so a 1x1 or 2x2 block
    takes its closed form on floats and LAPACK takes larger ones.  Stacked
    matrices (N, m, m) are checked row by row by LAPACK, and the message
    names the first failing row."""
    where = ""
    if np.ndim(matrix) == 3:
        dets = np.abs(np.linalg.det(matrix))
        bad = np.flatnonzero(~((DET_FLOOR < dets) & (dets < np.inf)))
        if not bad.size:
            return
        where, det = f"row {bad[0]}: ", dets[bad[0]]
    elif len(matrix) in (1, 2):
        m = np.asarray(matrix, dtype=float).tolist()
        det = abs(m[0][0] if len(m) == 1 else m[0][0] * m[1][1] - m[0][1] * m[1][0])
    else:
        det = abs(np.linalg.det(matrix))
    if not DET_FLOOR < det < np.inf:
        bound = f"<= {DET_FLOOR}" if det <= DET_FLOOR else "is not finite"
        raise RegularityError(f"{where}{what} = {det:.3e} {bound}")


@dataclass(frozen=True)
class MagLagState:
    q: np.ndarray
    v: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, dtype=float)))
        object.__setattr__(self, "v", np.atleast_1d(np.asarray(self.v, dtype=float)))
        object.__setattr__(self, "p", np.atleast_1d(np.asarray(self.p, dtype=float))
                           if np.size(self.p) else np.zeros(0))
        for arr in (self.q, self.v, self.p):
            if not np.all(np.isfinite(arr)):
                raise ValueError("state entries must be finite")


@dataclass(frozen=True)
class InvariantReport:
    """Per-invariant maximum drift / residual records."""
    entries: dict[str, float]


@dataclass(frozen=True)
class Trajectory:
    """Time series of flattened states with named columns."""
    times: np.ndarray
    states: np.ndarray
    columns: tuple[str, ...]
    report: InvariantReport | None = None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.states.shape != (self.times.size, len(self.columns)):
            raise ValueError("states shape inconsistent with times/columns")

    def to_csv(self, path) -> None:
        write_csv(path, self.times, self.states, self.columns)


CSV_CHUNK_ROWS = 512


def write_csv(path, times: np.ndarray, states: np.ndarray,
              columns: Sequence[str]) -> None:
    """17-significant-digit CSV with a `t` column first.  Rows are
    formatted CSV_CHUNK_ROWS at a time, with one "%.17g,..." format per
    chunk, so the text in memory stays small for long trajectories."""
    line = ",".join(["%.17g"] * (1 + np.shape(states)[1])) + "\n"
    with open(path, "w") as fh:
        fh.write("t," + ",".join(columns) + "\n")
        for start in range(0, len(times), CSV_CHUNK_ROWS):
            chunk = np.column_stack([times[start:start + CSV_CHUNK_ROWS],
                                     states[start:start + CSV_CHUNK_ROWS]])
            fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))


BlockForm = Callable[[np.ndarray, np.ndarray],
                     tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class MagneticSystem:
    """Coordinate presentation of a magnetic Lagrangian system.

    `bform(q, p)` returns blocks (B_QQ, B_QP, B_PP); None means the zero
    form.  Analytic derivative callables are optional; missing ones are
    supplied by the fallback rule of `numerics.supply`.  A joint callable
    may stand for derivatives that share their work, returning them from
    one call: `dL_dq_vq(q, v, p)` for (dL/dq, d2L/dv dq), and
    `dL_jet(q, v, p)` for the whole jet (dL/dq, dL/dp, d2L/dv2, d2L/dv dq,
    d2L/dv dp).  At most one joint callable is given, and none of its
    parts besides it.  A `lagrangian` marked with
    `numerics.takes_rows` takes rows, so every values-only derivative is
    one stacked stencil call, and a right-hand side point takes all of its
    values-only derivatives from one (`jet`).  An unmarked `lagrangian` is
    called at one point at a time, and an unmarked `bform` once per row.
    """
    n: int
    k: int
    lagrangian: Callable[[np.ndarray, np.ndarray, np.ndarray], float]
    bform: BlockForm | None = None
    dL_dq: Callable | None = None
    dL_dv: Callable | None = None
    dL_dp: Callable | None = None
    d2L_dv_dv: Callable | None = None
    d2L_dv_dq: Callable | None = None
    d2L_dv_dp: Callable | None = None
    dL_dq_vq: Callable | None = None
    dL_jet: Callable | None = None
    # Set when bform does not depend on the state; lets the integrator hoist
    # the blocks and their factorization out of the stepping loop.
    constant_bform: bool = False
    # Set when d2L/dv2 does not depend on the state; the integrator then
    # checks and inverts it once, on the initial state.
    constant_hessian: bool = False
    name: str = ""

    def __post_init__(self):
        given = [name for name in _JOINTS if getattr(self, name) is not None]
        if len(given) > 1:
            raise ValueError(f"{' and '.join(given)} share dL_dq: give one of them")
        for name in given:
            parts = [_PARTS[at] for at in _JOINTS[name]]
            if any(getattr(self, part) is not None for part in parts):
                raise ValueError(f"{name} stands for {', '.join(parts[:-1])} and "
                                 f"{parts[-1]}: give one or the others")

    # -- derivative supply (fallback rule: numerics.supply), resolved on
    # first use and kept with the system; each is called as
    # sys.<name>(q, v, p), slot 0 = q, 1 = v, 2 = p.  With k = 0 the fibre
    # slots are empty.

    def value(self, q, v, p) -> float:
        """L as a float at one point.  The supplies difference `lagrangian`
        itself, since `numerics.fd_blocks` takes its values as floats."""
        return float(self.lagrangian(q, v, p))

    def _spec(self, outer: int, inner: int | None = None) -> tuple:
        """(outer, inner, first, second) of `numerics.supply` for dL/dq
        (outer 0), dL/dv (1), dL/dp (2) or, with `inner`, the Jacobian of
        dL/dv in slot `inner`; a derivative that a joint callable gives is
        its part of that callable, marked as the joint one is, and at k = 0
        a derivative in the empty fibre slot is empty."""
        given = {at: getattr(self, name) for at, name in _PARTS.items()}
        given[(1,)] = self.dL_dv
        for name, parts in _JOINTS.items():
            if getattr(self, name) is not None:
                given.update((at, _part(getattr(self, name), i)) for i, at in enumerate(parts))
        if self.k == 0:
            given[(2,)] = numerics.takes_rows(lambda q, v, p: np.zeros(np.shape(v)[:-1] + (0,)))
            given[(1, 2)] = numerics.takes_rows(
                lambda q, v, p: np.zeros(np.shape(v)[:-1] + (self.n, 0)))
        return outer, inner, given[(outer,)], None if inner is None else given[(outer, inner)]

    @cached_property
    def grad_q(self) -> Callable:
        return numerics.supply(self.lagrangian, *self._spec(0))

    @cached_property
    def grad_v(self) -> Callable:
        return numerics.supply(self.lagrangian, *self._spec(1))

    @cached_property
    def grad_p(self) -> Callable:
        return numerics.supply(self.lagrangian, *self._spec(2))

    @cached_property
    def hess_vv(self) -> Callable:
        return numerics.supply(self.lagrangian, *self._spec(1, 1))

    @cached_property
    def hess_vq(self) -> Callable:
        """Matrix with entries d2L / dv_i dq_j."""
        return numerics.supply(self.lagrangian, *self._spec(1, 0))

    @cached_property
    def hess_vp(self) -> Callable:
        """Matrix with entries d2L / dv_i dp_a."""
        return numerics.supply(self.lagrangian, *self._spec(1, 2))

    def _results(self, order: tuple, used: list) -> Callable:
        """(q, v, p) -> the results `order` ((slot,) for dL/d(slot), (1,
        slot) for d2L/dv d(slot)), each with the bits of its supply, None
        for one not `used` (not evaluated).  A joint callable that gives a
        used result is called once for all of its parts (at stacked rows
        once per row unless it takes rows); the rest come from one
        `numerics.supply_blocks` callable, whose stencils they share."""
        name = next((name for name in _JOINTS if getattr(self, name) is not None), None)
        parts = () if name is None or not set(_JOINTS[name]) & set(used) else _JOINTS[name]
        joint = getattr(self, name) if parts else None
        at_rows = numerics.rows_ok(joint)
        rest = [at for at in used if at not in parts]
        blocks = numerics.supply_blocks(self.lagrangian, [self._spec(*at) for at in rest])
        # each result's place in blocks' results, then the joint's parts,
        # and -1 (the None appended last) for a result not evaluated
        found = rest + list(parts)
        pick = operator.itemgetter(*(found.index(at) if at in used else -1 for at in order))

        @numerics.takes_rows
        def results(q, v, p):
            out = blocks(q, v, p) if rest else []
            if joint is not None and (at_rows or np.ndim(v) < 2):
                for g in joint(q, v, p):  # a plain loop: this sits on every right-hand side
                    out.append(np.asarray(g, dtype=float))
            elif joint is not None:
                out += [np.array(g, dtype=float) for g in zip(*map(joint, q, v, p))]
            out.append(None)
            return pick(out)

        return results

    @cached_property
    def velocity_blocks(self) -> Callable:
        """(q, v, p) -> the blocks of (hess_vv, hess_vq, hess_vp), bit for
        bit, at one point or at stacked rows (`_results`): a joint callable
        that gives them is called once, the blocks that rule 2 differences
        from a row-marked dL_dv share one dL_dv call over the joint (v, q, p)
        stencil, and those that rule 3 differences from a row-marked
        Lagrangian one stacked stencil call."""
        return self._results(_JET[2:], _JET[2:])

    @cached_property
    def jet(self) -> Callable:
        """(q, v, p) -> (dL/dq, dL/dp, d2L/dv2, d2L/dv dq, d2L/dv dp): what
        one right-hand side point of the mixed equations uses, each with
        the bits of its supply (`_results`), at one point or at stacked
        rows.  A result the equations do not use is None and is not
        evaluated: d2L/dv2 when it is declared constant, dL/dp and d2L/dv
        dp when k = 0; when the joint callable gives all the rest, it is
        the only call."""
        return self._results(_JET, [at for at in _JET if not (
            at == (1, 1) and self.constant_hessian or 2 in at and self.k == 0)])

    def bblocks(self, q, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(B_QQ, B_QP, B_PP) at one point, or at stacked rows of q and p
        (one call when `bform` takes rows, one per row otherwise)."""
        n, k = self.n, self.k
        lead = np.shape(q)[:-1]
        if self.bform is None:
            return (np.zeros(lead + (n, n)), np.zeros(lead + (n, k)),
                    np.zeros(lead + (k, k)))
        if not lead or numerics.rows_ok(self.bform):
            blocks = self.bform(q, p)
        else:
            blocks = [np.array(b) for b in zip(*map(self.bform, q, p))]
        bqq, bqp, bpp = (np.asarray(b, dtype=float).reshape(lead + shape)
                         for b, shape in zip(blocks, ((n, n), (n, k), (k, k))))
        if not np.array_equal(bqq, -np.swapaxes(bqq, -1, -2)):
            raise ValueError("B_QQ block must be exactly antisymmetric")
        if not np.array_equal(bpp, -np.swapaxes(bpp, -1, -2)):
            raise ValueError("B_PP block must be exactly antisymmetric")
        return bqq, bqp, bpp

    def full_bmatrix(self, q, p) -> np.ndarray:
        """The 2-form as one antisymmetric matrix over (q, p) coordinates,
        at one point or at stacked rows."""
        bqq, bqp, bpp = self.bblocks(q, p)
        top = np.concatenate([bqq, bqp], axis=-1)
        bottom = np.concatenate([-np.swapaxes(bqp, -1, -2), bpp], axis=-1)
        return np.concatenate([top, bottom], axis=-2)


# what MagneticSystem.jet returns, in order, and what each joint callable
# of a MagneticSystem returns: (slot,) for dL/d(slot), (1, slot) for
# d2L/dv d(slot); and the field that gives each part on its own
_JET = ((0,), (2,), (1, 1), (1, 0), (1, 2))
_JOINTS = {"dL_dq_vq": ((0,), (1, 0)), "dL_jet": _JET}
_PARTS = {(0,): "dL_dq", (2,): "dL_dp", (1, 1): "d2L_dv_dv", (1, 0): "d2L_dv_dq",
          (1, 2): "d2L_dv_dp"}


def _part(joint: Callable, index: int) -> Callable:
    """Part `index` of a joint derivative callable, marked as `joint` is."""
    split = lambda q, v, p: joint(q, v, p)[index]  # noqa: E731
    return numerics.takes_rows(split) if numerics.rows_ok(joint) else split


def energy(sys: MagneticSystem, s: MagLagState) -> float:
    """E = <dL/dv, v> - L."""
    _check_state(sys, s)
    return float(_energy(sys.grad_v, sys.value, s.q, s.v, s.p))


def energies(sys: MagneticSystem, ys: np.ndarray) -> np.ndarray:
    """Energy at each flat (q, v, p) row of ys, over all rows at once."""
    n = sys.n
    return _energy(sys.grad_v, partial(numerics.each_row, sys.lagrangian),
                   ys[:, :n], ys[:, n:2 * n], ys[:, 2 * n:])


def _energy(grad_v: Callable, value: Callable, q, v, p):
    """E = <dL/dv, v> - L at one point or at stacked rows; a non-finite
    dL/dv (the Legendre transform) raises."""
    alpha = grad_v(q, v, p)
    if not np.all(np.isfinite(alpha)):
        raise ValueError("non-finite Legendre transform")
    return numerics.rowdot(alpha, v) - value(q, v, p)


def _check_state(sys: MagneticSystem, s: MagLagState) -> None:
    if s.q.size != sys.n or s.v.size != sys.n or s.p.size != sys.k:
        raise ValueError(
            f"state dims (q={s.q.size}, v={s.v.size}, p={s.p.size}) do not "
            f"match system (n={sys.n}, k={sys.k})")


def _mixed_rhs(sys: MagneticSystem, q, v, p, blocks: tuple | None,
               bpp_inv: np.ndarray | None = None, hess_inv: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Accelerations and fibre rates (qddot, pdot) of the mixed equations
    for given blocks (B_QQ, B_QP, B_PP), from one `sys.jet` call; `blocks`
    is None for a k = 0 system without a form (`_blocks`), whose equations
    have no B term.  `bpp_inv` and `hess_inv` are the inverses of a
    constant B_PP and of the d2L/dv2 of a `constant_hessian` system, which
    the caller checked once; without them each is checked and solved here.
    With k = 0 the fibre equation is skipped, so a k = 0 system without a
    form and with `hess_inv` costs the jet, hvq @ v and one product."""
    dl_dq, dl_dp, hess, hvq, hvp = sys.jet(q, v, p)
    rhs = dl_dq if blocks is None else dl_dq + blocks[0] @ v
    if sys.k:
        _, bqp, bpp = blocks
        rhs_p = bqp.T @ v - dl_dp
        if bpp_inv is None:
            require_regular(bpp, "singular fibre block: |det B_PP|")
            pdot = numerics.solve(bpp, rhs_p)
        else:
            pdot = bpp_inv @ rhs_p
        rhs = rhs + bqp @ pdot - hvq @ v - hvp @ pdot
    else:
        pdot = _NO_FIBRE
        rhs = rhs - hvq @ v
    if hess_inv is None:
        require_regular(hess, "singular velocity Hessian: |det d2L/dv2|")
        return numerics.solve(hess, rhs), pdot
    return hess_inv @ rhs, pdot


def _blocks(sys: MagneticSystem, q, p) -> tuple | None:
    """The blocks that `_mixed_rhs` takes at (q, p): None for a k = 0
    system without a form, `bblocks` otherwise."""
    return None if sys.k == 0 and sys.bform is None else sys.bblocks(q, p)


def _hessian_inverse(sys: MagneticSystem, s: MagLagState) -> np.ndarray | None:
    """The checked inverse of a velocity Hessian declared constant (None
    when it is not declared so), from its value at s."""
    if not sys.constant_hessian:
        return None
    hess = sys.hess_vv(s.q, s.v, s.p)
    require_regular(hess, "singular velocity Hessian: |det d2L/dv2|")
    return numerics.inverse(hess)


def vector_field(sys: MagneticSystem, s: MagLagState
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-hand side (qdot, qddot, pdot) of the mixed equations of motion."""
    _check_state(sys, s)
    a, pdot = _mixed_rhs(sys, s.q, s.v, s.p, _blocks(sys, s.q, s.p),
                         hess_inv=_hessian_inverse(sys, s))
    return s.v, a, pdot


def pack(s: MagLagState) -> np.ndarray:
    return np.concatenate([s.q, s.v, s.p])


def unpack(sys: MagneticSystem, y: np.ndarray) -> MagLagState:
    n, k = sys.n, sys.k
    return MagLagState(y[:n], y[n:2 * n], y[2 * n:2 * n + k])


def state_columns(sys: MagneticSystem) -> tuple[str, ...]:
    return tuple([f"q{i}" for i in range(sys.n)]
                 + [f"v{i}" for i in range(sys.n)]
                 + [f"p{a}" for a in range(sys.k)])


def _field_factory(sys: MagneticSystem, s0: MagLagState):
    """Flat-state right-hand side over `_mixed_rhs`, which reads the
    system's supply callables (resolved once per system).

    Block antisymmetry is validated once on the initial state.  A constant
    (or absent) form is evaluated once, and B_PP is checked and inverted
    once; a state-dependent form is evaluated and checked at every call.
    A velocity Hessian declared constant is likewise checked and inverted
    once, on the initial state.
    """
    n = sys.n
    blocks0 = _blocks(sys, s0.q, s0.p)
    constant = sys.bform is None or sys.constant_bform
    bpp_inv = None
    if constant and sys.k > 0:
        require_regular(blocks0[2], "singular fibre block: |det B_PP|")
        bpp_inv = numerics.inverse(blocks0[2])
    hess_inv = _hessian_inverse(sys, s0)

    def field(t: float, y: np.ndarray) -> np.ndarray:
        q, v, p = y[:n], y[n:2 * n], y[2 * n:]
        a, pdot = _mixed_rhs(sys, q, v, p, blocks0 if constant else sys.bform(q, p),
                             bpp_inv, hess_inv)
        return np.concatenate([v, a, pdot])

    return field


def monitored(count: int) -> np.ndarray:
    """The indices of the samples an energy monitor reads out of `count`:
    every (count // 400)-th one from the first, and the last."""
    return np.append(np.arange(0, count, max(1, count // 400)), count - 1)


def integrate(sys: MagneticSystem, s0: MagLagState, t_end: float,
              stepper: StepperChoice) -> Trajectory:
    """Integrate the mixed equations over [0, t_end]; the report records
    the energy drift from the initial state over the `monitored` samples.

    A regularity failure, the initial state's included, aborts with the
    start time of the failing step in the error message.  A t_end that is
    not positive and finite raises ValueError.
    """
    numerics.require_horizon(t_end)
    _check_state(sys, s0)
    field = _field_factory(sys, s0)
    times, states = numerics.integrate_ode(field, pack(s0), 0.0, t_end, stepper)
    e = energies(sys, states[monitored(len(states))])
    drift = float(np.max(np.abs(e - e[0])))
    report = InvariantReport({"energy_drift": drift})
    return Trajectory(times, states, state_columns(sys), report)


def check_closedness(sys: MagneticSystem, sample_states: Sequence[MagLagState]) -> float:
    """Maximum |dB| component over the samples, by central differences at
    step numerics.H_SECOND.

    Closedness of the magnetic form is an input requirement; this is a
    diagnostic for user-supplied forms.  The stencil of every sample is one
    `full_bmatrix` call over rows; a non-finite difference raises
    ValueError naming the sample's row and the coordinate.
    """
    if len(sample_states) == 0:
        raise ValueError("sample_states is empty: the closedness check needs "
                         "at least one state")
    dim = sys.n + sys.k
    z = np.array([np.concatenate([s.q, s.p]) for s in sample_states])

    def b_flat(rows: np.ndarray) -> np.ndarray:
        return sys.full_bmatrix(rows[:, :sys.n], rows[:, sys.n:]).reshape(len(rows), -1)

    db = numerics.fd_jacobian(b_flat, (z,), 0, numerics.H_SECOND, rows=True)
    db = db.reshape(-1, dim, dim, dim)
    # the cyclic sum d_a B_bc + d_b B_ca + d_c B_ab over a < b < c, where
    # d_a B_bc is db[:, b, c, a]
    a, b, c = np.array([*itertools.combinations(range(dim), 3)], dtype=int).reshape(-1, 3).T
    cyclic = db[:, b, c, a] + db[:, c, a, b] + db[:, a, b, c]
    return float(np.max(np.abs(cyclic), initial=0.0))


def symplectic_form_matrix(sys: MagneticSystem, q, v, p) -> np.ndarray:
    """Local matrix of the system 2-form on (q, v, p) tangents.

    Assembled from d(dL/dv_i) ^ dq^i plus the magnetic blocks; evaluating
    it on a pair of tangent vectors is u^T M w.  The three velocity blocks
    come from one `sys.velocity_blocks` call.  Stacked rows of (q, v, p)
    give one matrix per row.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    p = np.asarray(p, dtype=float).reshape(v.shape[:-1] + (sys.k,))
    return form_matrix_of_blocks(sys, q, p, sys.velocity_blocks(q, v, p))


def form_matrix_of_blocks(sys: MagneticSystem, q, p, blocks: tuple) -> np.ndarray:
    """`symplectic_form_matrix` at (q, p) from the `sys.velocity_blocks`
    there, for a caller that holds them (`compat.verify_symplectomorphism`)."""
    n, k = sys.n, sys.k
    bqq, bqp, bpp = sys.bblocks(q, p)
    # w[i, j] = d2L / dv_i dq_j and g[i, a] = d2L / dv_i dp_a
    hvv, w, g = blocks
    t = lambda m: np.swapaxes(m, -1, -2)  # noqa: E731
    dim = 2 * n + k
    m = np.zeros(hvv.shape[:-2] + (dim, dim))
    m[..., :n, :n] = bqq + t(w) - w
    m[..., :n, n:2 * n] = -hvv
    m[..., n:2 * n, :n] = hvv
    m[..., :n, 2 * n:] = bqp - g
    m[..., 2 * n:, :n] = t(g) - t(bqp)
    m[..., 2 * n:, 2 * n:] = bpp
    return m
