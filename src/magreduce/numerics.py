"""Shared numerical kernel.

Finite differences and the derivative supply rule built on them
(`supply`), a dense Newton solver, fixed-step RK4 and the embedded
Fehlberg 4(5) pair, and the Lie-group reconstruction step.

Each differencing rule of `supply` is one routine over one stencil of
joint points, at one point or at rows: rule 2, the Jacobian of a first
derivative, is `fd_jacobian`, the central difference (f(x + h e_i) -
f(x - h e_i)) / 2h, h = h0*max(1, |x_i|), in one or several argument
slots; rule 3, the derivatives of a values-only function, is `fd_blocks`,
every gradient (the fourth-order five-point difference, step
H_FIVE_POINT) and second-difference block of a set, with `fd_gradient`
and `fd_second` its one-point calls.  Given `rows` by its caller, each
passes a row-capable function the whole stencil in one call, and calls
any other one point at a time, with the same points, steps and
arithmetic (`_central`; `_five_point`, `_second`, `_cross`), so the same
bits.  A stencil's layout depends only on the slot sizes (and the set and
the base steps) and is built once and kept (`_signs`, `_layout`); rule
3's one-point evaluation is compiled (an itemgetter of the values and
steps of each difference, one gather index of the results), so that it
costs its calls of f and a fixed handful of numpy operations.
All differences share one non-finite rule (`_finite`).
`fd_exterior_derivative` differences a 1-form.
`invert` is the one Newton inversion of a fibre derivative, and
`newton_solve` always takes its Jacobian from the caller.  `solve` and
`inverse` are the one small-solve rule: a 1x1 system by one division, an
antisymmetric 2x2 on floats, others by LAPACK.  The integrators raise a
right-hand side's ValueError or RegularityError again with the start t of
its step.  Apart from the stencil layouts nothing here keeps state between
calls: the integrators allocate their output arrays per call (RK4 all at
once, since its step count is known), and `supply` and `supply_blocks`
return callables that close over nothing but their inputs.

Callables marked with `takes_rows` also accept stacked rows: every array
argument may carry a leading axis of N rows, and the result then has one
leading row per input row.  Every callable that `supply` and
`supply_blocks` return takes rows, so code downstream of a supply never
asks; only user callables (Lagrangian values, potentials, beta, the
connection, psi, `bform`, Casimirs, `exp_fn` / `rep`) are marked or
called per row (`each_row`).  Which path a supply takes is decided once,
from these marks, when it is resolved; the differencing routines never
read a mark, so a wrapper that drops one (a call counter) leaves the path
and the bits as they are.
`newton_solve` takes stacked seeds too, for a residual and Jacobian that
send rows to rows.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# Default finite-difference base steps.  Central first differences use the
# smallest step; second derivatives and exterior derivatives need a larger
# one to keep rounding noise below truncation error.  The five-point
# gradient of a values-only function has truncation error O(h^4), so its
# step can be larger still, which keeps its rounding noise (about
# 1e-13 |f|) below the Newton tolerance of the inversions it feeds.
H_GRADIENT = 1e-6
H_SECOND = 1e-4
H_FIVE_POINT = 1e-3
# Newton's residual-norm tolerance and step cap
INVERSION_TOL = 1e-10
NEWTON_MAX_ITER = 50


class RegularityError(RuntimeError):
    """A regularity determinant fell below the floor, or an inversion failed."""


class NewtonConvergenceError(RuntimeError):
    """Newton iteration failed; carries the iterate trace for diagnosis and,
    for a stacked seed, the index of the first failing row."""

    def __init__(self, message: str, trace: list[tuple[np.ndarray, float]],
                 row: int | None = None):
        super().__init__(message)
        self.trace = trace
        self.row = row


class StepSizeError(RuntimeError):
    """Adaptive stepper drove the step size below its floor."""


class NonFiniteStateError(RuntimeError):
    """An integrator produced an inf or nan state component."""


def at_time(t: float | None) -> str:
    """The suffix that names the time of a failure, or "" without one."""
    return "" if t is None else f" at t = {t:.6g}"


def _raise_non_finite(t: float, y: np.ndarray) -> None:
    j = int(np.argmin(np.isfinite(y)))
    raise NonFiniteStateError(
        f"non-finite state at t = {t:.6g}: component {j} is {y[j]}")


def _central(fp, fm, h):
    """The central difference of the values at x + h e_i and x - h e_i."""
    return (fp - fm) / (2.0 * h)


def _five_point(fp2, fp, fm, fm2, h):
    """The fourth-order five-point first difference of the values at
    x + 2h e_i, x + h e_i, x - h e_i and x - 2h e_i (Fornberg, Math. Comp.
    51, 1988)."""
    return (8.0 * (fp - fm) - (fp2 - fm2)) / (12.0 * h)


def _second(fp, f0, fm, h):
    """The three-point second difference of the values at x + h e_i, x and
    x - h e_i.  h ** 2 is taken entry by entry as Python takes it of one
    float (the C library's pow), so an array of steps gives the bits of the
    one-point loop; numpy's array square can round differently."""
    if isinstance(h, np.ndarray):
        h = np.array([v ** 2 for v in h.ravel().tolist()]).reshape(h.shape)
    else:
        h = h ** 2
    return (fp - 2.0 * f0 + fm) / h


def _cross(fpp, fpm, fmp, fmm, hi, hj):
    """The four-point cross difference of the values at x +- hi e_i +- hj e_j."""
    return (fpp - fpm - fmp + fmm) / (4.0 * hi * hj)


def _finite(d: np.ndarray, rows: bool) -> np.ndarray:
    """`d`, indexed [row, ]coordinate, ...: the one non-finite rule of both
    evaluators.  A non-finite difference (a non-finite stencil value)
    raises ValueError naming the first such row and its coordinate."""
    if np.count_nonzero(np.isfinite(d)) < d.size:
        where = np.argwhere(~np.isfinite(d))[0]
        row = f"row {where[0]}: " if rows else ""
        raise ValueError(f"{row}non-finite evaluation while differencing "
                         f"coordinate {where[int(rows)]}")
    return d


def fd_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                h0: float = H_FIVE_POINT) -> np.ndarray:
    """Five-point gradient of a scalar function, shape (n,): one-point calls
    of `f` at x + 2h e_i, x + h e_i, x - h e_i and x - 2h e_i, coordinate
    by coordinate (`fd_blocks` of the one slot x)."""
    return fd_blocks(f, (x,), ((0, None),), h0_gradient=h0, rows=False)[0]


@functools.lru_cache(maxsize=256)
def _signs(sizes: tuple[int, ...]) -> tuple[np.ndarray, tuple]:
    """The central stencil of slots of these sizes, kept read-only: signs
    (2, n, n) [sign, moved coordinate, coordinate] and each slot's span.
    Point x + h_i signs[sign, i] moves coordinate i by +-h_i, the rest of
    its slot by +0.0 or -0.0 (x + 0.0, x - 0.0, as adding or subtracting
    h_i e_i would), and every other slot by -0.0, which leaves any float as
    it is."""
    edges = list(itertools.accumulate(sizes, initial=0))
    n, spans = edges[-1], tuple(zip(edges[:-1], edges[1:]))
    signs = np.full((2, n, n), -0.0)
    for lo, hi in spans:
        signs[0, lo:hi, lo:hi] = 0.0
    signs.reshape(2, -1)[:, ::n + 1] = ((1.0,), (-1.0,))
    signs.flags.writeable = False
    return signs, spans


def fd_jacobian(f: Callable[..., np.ndarray], args: Sequence,
                slots: int | Sequence[int] = 0, h0: float = H_GRADIENT, *,
                rows: bool) -> np.ndarray | list[np.ndarray]:
    """Rule 2: central-difference Jacobians of `f(*args)` in the argument
    slots `slots`, at one point or at stacked rows of every argument, from
    one stencil over their joint points.

    The slots are joined into one point of size n.  Its 2n stencil points
    (plus, then minus) move one coordinate x_i by +-h_i, h_i =
    h0*max(1, |x_i|), and hold every other coordinate and argument exactly
    at the centre, so each slot gets the bits of its own stencil.  With
    `rows`, `f` takes the whole stencil in one call, every argument as one
    row per stencil point; without, it is called once per stencil point.
    The caller decides which; this routine never reads a mark of `f`.  An
    int `slots` returns its Jacobian, (m, n) or (N, m, n) for rows (no m
    for a scalar f); a sequence returns one per slot.  A non-finite value
    names the row (for rows) and the coordinate of the joint point."""
    one = isinstance(slots, (int, np.integer))
    slots = [slots] if one else list(slots)
    parts = [np.asarray(args[s], dtype=float) for s in slots]
    signs, spans = _signs(tuple([part.shape[-1] for part in parts]))
    x = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    lead, n = x.ndim - 1, x.shape[-1]  # lead: 1 for stacked rows, 0 for one point
    h = h0 * np.maximum(1.0, np.abs(x))
    # the stencil points, one per [row, sign, moved coordinate]
    pts = ((x[:, None, None] + h[:, None, :, None] * signs) if lead
           else x + h[:, None] * signs).reshape(-1, n)
    # called per point at one point, f takes the held arguments as they are
    # and views of the points; otherwise every argument as one row per point
    count = x.size // n
    stencil = [None if i in slots else (a,) * (2 * n) if not (rows or lead)
               else np.asarray(a).reshape((count,) + np.shape(a)[lead:]).repeat(2 * n, 0)
               for i, a in enumerate(args)]
    for s, (lo, hi) in zip(slots, spans):
        stencil[s] = np.ascontiguousarray(pts[:, lo:hi]) if rows else pts[:, lo:hi]
    vals = np.asarray(f(*stencil) if rows else [f(*point) for point in zip(*stencil)],
                      dtype=float)
    shape = vals.shape[1:]
    vals = vals.reshape(-1, n, math.prod(shape))  # [row and sign, moved coordinate]
    d = _central(vals[0::2], vals[1::2], h.reshape(-1, n, 1))
    d = _finite(d.reshape(x.shape + shape), lead == 1).swapaxes(lead, -1)
    return d if one else [d[..., lo:hi] for lo, hi in spans]


def fd_second(f: Callable[..., float], args: Sequence, outer: int, inner: int,
              h0: float = H_SECOND) -> np.ndarray:
    """Second-difference block d2f/d(args[outer]) d(args[inner]) of a scalar
    function of several array slots at one point, shape (len(args[outer]),
    len(args[inner])), steps h0*max(1, |.|) in both slots, by the
    four-point cross stencil (f(++) - f(+-) - f(-+) + f(--)) / 4 h_i h_j.
    A diagonal block (outer == inner) moves its one slot twice, takes the
    three-point stencil around one f0 on its diagonal and copies its upper
    triangle to the lower.  `f` is called at one point at a time: f0, then
    for each outer coordinate i its two diagonal points and the four
    corners of each entry (i, j), j > i on the diagonal (`fd_blocks`).  A
    non-finite entry raises ValueError naming its outer coordinate."""
    return fd_blocks(f, args, ((outer, inner),), h0, rows=False)[0]


class _Layout:
    """The stencil of a set of gradients (outer, None) and blocks (outer,
    inner) of a function of argument slots of the given sizes, at base
    steps `h0` (blocks) and `h0_gradient` (gradients): the points of the
    one-point loops, in their order, for `fd_blocks`.

    A stencil point is x + shift*h over the joint coordinates x of all
    argument slots, with h = base * max(1, |x|) the steps of its rule.  The
    one-point loops add one shift vector, or for a cross point two, one
    after the other; `shift` (P, n) is their sum, which gives the same
    bits: a moved coordinate is nonzero, and a coordinate that no vector
    moves gets the signed zero that the loops add to it, +0.0 or -0.0
    inside a moved slot and -0.0 (which leaves every float, -0.0 included,
    as it is) in a held slot.  `base` (P, 1) is the base step of each
    point.

    Each difference is an entry (rule, points, steps), grouped by rule
    (gradients, diagonals, crosses): its points (+2h, +h, -h and -2h of a
    gradient entry, plus, centre and minus of a diagonal second
    difference, ++, +-, -+ and -- of a cross difference) and its steps as
    flat indices into the (P, n) steps.  `rules` holds the entries of each
    rule as index arrays, for stacked rows.  At one point, `plan` holds
    each entry's rule and one itemgetter of its values and steps out of the
    P values joined with the P*n steps: the one-point evaluation, compiled.
    `gather` picks the entries of every result, in order, in one index, and
    `cuts` (start, stop, shape) cuts each result from what it picks."""

    def __init__(self, sizes: tuple[int, ...], pairs: tuple, h0: float, h0_gradient: float):
        edges = np.cumsum((0,) + sizes).tolist()
        self.n, self.spans = edges[-1], list(zip(edges[:-1], edges[1:]))
        shifts, bases, entries, takes = [], [], [], []

        def point(base, *moves):  # each move (slot, coordinate, multiple)
            w = np.full(self.n, -0.0)
            for slot, coord, mult in moves:
                move = np.full(self.n, -0.0)
                lo, hi = self.spans[slot]
                move[lo:hi] = math.copysign(0.0, mult)
                move[lo + coord] = mult
                w += move
            shifts.append(w)
            bases.append(base)
            return len(shifts) - 1

        def entry(rule, points, *coords):  # its steps are read at its first point
            entries.append((rule, points, [points[0] * self.n + c for c in coords]))
            return len(entries) - 1

        for outer, inner in pairs:
            lo, size = self.spans[outer][0], sizes[outer]
            if inner is None:
                takes.append(np.array([entry(0, [point(h0_gradient, (outer, i, m))
                                                 for m in (2.0, 1.0, -1.0, -2.0)], lo + i)
                                       for i in range(size)], dtype=int))
                continue
            ilo, isize = self.spans[inner][0], sizes[inner]
            cell = np.empty((size, isize), dtype=int)
            centre = point(h0) if outer == inner else None
            for i in range(size):
                if outer == inner:
                    cell[i, i] = entry(1, [point(h0, (outer, i, 1.0)), centre,
                                           point(h0, (outer, i, -1.0))], lo + i)
                for j in range(i + 1 if outer == inner else 0, isize):
                    cell[i, j] = entry(2, [point(h0, (outer, i, si), (inner, j, sj))
                                           for si, sj in ((1.0, 1.0), (1.0, -1.0),
                                                          (-1.0, 1.0), (-1.0, -1.0))],
                                       lo + i, ilo + j)
                    if outer == inner:
                        cell[j, i] = cell[i, j]
            takes.append(cell)
        self.shift = np.array(shifts).reshape(-1, self.n)
        self.base = np.array(bases).reshape(-1, 1)
        order = sorted(range(len(entries)), key=lambda e: entries[e][0])
        rules = (_five_point, _second, _cross)
        self.plan = [(rules[entries[e][0]], operator.itemgetter(
            *entries[e][1], *[len(shifts) + k for k in entries[e][2]])) for e in order]
        self.rules = [(rules[r], *(np.array(part, dtype=int).T for part in zip(*group)))
                      for r in range(3)
                      if (group := [entries[e][1:] for e in order if entries[e][0] == r])]
        position = np.empty(len(order), dtype=int)  # of each entry in the plan
        position[order] = np.arange(len(order))
        self.gather = position[np.concatenate([np.zeros(0, dtype=int)]
                                              + [take.ravel() for take in takes])]
        stops = itertools.accumulate(take.size for take in takes)
        self.cuts = [(stop - take.size, stop, take.shape) for stop, take in zip(stops, takes)]


@functools.lru_cache(maxsize=256)
def _layout(sizes: tuple[int, ...], pairs: tuple, h0: float, h0_gradient: float) -> _Layout:
    """Each rule-3 stencil layout, built once per (slot sizes, pairs, base
    steps) and never changed after that; with `_signs`, the only
    state this module keeps."""
    return _Layout(sizes, pairs, h0, h0_gradient)


def fd_blocks(f: Callable[..., np.ndarray], args: Sequence, pairs: tuple,
              h0: float = H_SECOND, h0_gradient: float = H_FIVE_POINT,
              rows: bool = True) -> list[np.ndarray]:
    """Rule 3: every gradient (outer, None) and block (outer, inner) of the
    tuple `pairs` of a scalar function of several array slots, at one point
    or at stacked rows of every argument (the same leading shape in every
    slot), from one stencil over their joint points.

    With `rows`, `f` takes the whole stencil in one call (rule 3 over
    rows); without, it is called at one point at a time, stencil point by
    stencil point and row by row (the one-point loop).  The caller decides
    which; this routine never reads a mark of `f`.  Either way each result
    has the points, steps and arithmetic of the one-point loop, so the same
    bits when `f` gives each row the value of its one-point call: a
    gradient, shape (len(args[outer]),), the five-point difference at
    `h0_gradient`, and a block, shape (len(args[outer]),
    len(args[inner])), the second differences at `h0` (see fd_second).
    Rows add a leading axis.  A non-finite entry raises ValueError naming,
    for the first such result in order, the row (for stacked rows) and the
    outer coordinate."""
    args = [np.asarray(a, dtype=float) for a in args]
    lead = args[0].shape[:-1]
    count = math.prod(lead)
    lay = _layout(tuple([a.shape[-1] for a in args]), pairs, h0, h0_gradient)
    x = np.concatenate(args, axis=-1).reshape(count, 1, lay.n)
    h = lay.base * np.maximum(1.0, np.abs(x))  # the steps (count, P, n)
    pts = (x + lay.shift * h).reshape(-1, lay.n)
    slots = [pts[:, lo:hi] for lo, hi in lay.spans]
    vals = np.asarray(f(*slots) if rows else [f(*point) for point in zip(*slots)],
                      dtype=float).reshape(count, -1)
    # at one point on Python floats by the compiled plan, since numpy's cost
    # per call exceeds the arithmetic of a few dozen entries; over rows on
    # arrays, rule by rule, since the Python loop grows with the rows
    if count == 1:
        joined = np.concatenate([vals.ravel(), h.ravel()]).tolist()
        entries = np.array([[rule(*get(joined)) for rule, get in lay.plan]])
    else:
        v, s = vals.T, h.reshape(count, -1).T
        entries = np.concatenate([rule(*v[points], *s[steps])
                                  for rule, points, steps in lay.rules] + [v[:0]]).T
    picked = entries[:, lay.gather]
    out = [picked[:, start:stop].reshape(lead + shape) for start, stop, shape in lay.cuts]
    if not np.isfinite(entries).all():
        for d in out:
            _finite(d, bool(lead))
    return out


def supply(value: Callable[..., float], outer: int, inner: int | None = None,
           first: Callable | None = None, second: Callable | None = None
           ) -> Callable[..., np.ndarray]:
    """Derivative supply for a function of several array slots, resolved
    once: returns the callable of the argument slots that gives the
    gradient of `value(*args)` in slot `outer` or, when `inner` is given,
    the Jacobian of that gradient with respect to slot `inner`, shape
    (len(args[outer]), len(args[inner])).  One fallback rule:

    1. the analytic callable: `first` for a gradient, `second` for a block;
    2. a block with an analytic `first`: fd_jacobian of `first` in slot
       `inner` (H_GRADIENT);
    3. values only: fd_blocks of `value`, the five-point gradient
       (H_FIVE_POINT) or the second-difference block (H_SECOND), diagonal
       (d2L/dv2) or mixed (d2L/dv dq).

    Rules 2 and 3 take one stencil, built by one helper (`_stencil`): one
    call of the differenced callable when it takes rows, one call per
    stencil point otherwise.  Which is decided here, once, from the mark of
    `first` or `value`; the differencing routines never ask, so a wrapper
    that drops a mark (a call counter) changes neither the path nor a bit.
    The result takes rows and is marked so.  Resting on a marked analytic
    callable it passes rows to it; resting on a one-point analytic callable
    it passes one point straight through and evaluates stacked rows one row
    at a time (the same calls, so the same bits).  The differencing
    routines are looked up at call time, so a wrapper installed on them
    later still sees every stencil.
    """
    key = _stencil_of(value, outer, inner, first, second)
    if key is not None:
        evaluate = _stencil(value, key, [(outer, inner)])
        return takes_rows(lambda *args: evaluate(args)[0])
    analytic = first if inner is None else second
    if rows_ok(analytic):
        return takes_rows(lambda *args: np.asarray(analytic(*args), dtype=float))

    @takes_rows
    def rows(*args):
        if getattr(args[outer], "ndim", 1) < 2:
            return np.asarray(analytic(*args), dtype=float)
        return np.array([analytic(*row) for row in zip(*args)], dtype=float)

    return rows


def _stencil_of(value: Callable, outer: int, inner: int | None, first: Callable | None,
                second: Callable | None) -> Callable | None:
    """The callable whose stencil gives this supply, shared by the supplies
    of one supply_blocks call: `value` for rule 3, `first` for rule 2; None
    for rule 1."""
    if (first if inner is None else second) is not None:
        return None
    return value if first is None else first


def _stencil(value: Callable, key: Callable, pairs: list[tuple]) -> Callable[[tuple], list]:
    """The one stencil of the results (outer, inner) differenced from `key`:
    `value` by rule 3 (fd_blocks) or a first derivative by rule 2
    (fd_jacobian in the inner slots), as a callable of the argument tuple
    that returns the list of results, passing rows when `key` takes them."""
    rows = rows_ok(key)
    if key is value:
        pairs = tuple(pairs)
        return lambda args: fd_blocks(value, args, pairs, rows=rows)
    slots = [inner for _, inner in pairs]
    return lambda args: fd_jacobian(key, args, slots, rows=rows)


def supply_blocks(value: Callable[..., float], specs: Sequence[tuple]
                  ) -> Callable[..., list]:
    """The results `supply(value, outer, inner, first, second)` for each
    spec (outer, inner, first, second), from one callable of the argument
    slots that returns a list of them in order, at one point or at stacked
    rows.

    The blocks that rule 2 differences from one `first` share one
    fd_jacobian stencil over the joint points of their slots, and the
    gradients and blocks that rule 3 differences from `value` share one
    fd_blocks stencil; either is one call of a row-marked callable and one
    call per stencil point of any other.  Every other result is its own
    supply.  So each result has the bits of its one-result supply.
    """
    by = [_stencil_of(value, *spec) for spec in specs]
    shared = [([at for at, k in enumerate(by) if k is key],
               _stencil(value, key, [spec[:2] for spec, k in zip(specs, by) if k is key]))
              for key in dict.fromkeys(k for k in by if k is not None)]
    own = [(at, supply(value, *specs[at])) for at, key in enumerate(by) if key is None]

    @takes_rows
    def blocks(*args):
        out = [None] * len(specs)
        for where, evaluate in shared:  # plain loops: this sits on every right-hand side
            for at, result in zip(where, evaluate(args)):
                out[at] = result
        for at, one in own:
            out[at] = one(*args)
        return out

    return blocks


def takes_rows(fn: Callable) -> Callable:
    """Mark `fn` as accepting stacked rows (see the module docstring) and
    return it."""
    fn.takes_rows = True
    return fn


def rows_ok(*fns: Callable | None) -> bool:
    """True when every callable is given and marked with `takes_rows`."""
    return all(getattr(fn, "takes_rows", False) for fn in fns)


def each_row(fn: Callable, *xs: np.ndarray):
    """`fn` of one point, or of each row of stacked points (N, n) in every
    argument: one call when `fn` takes rows, one call per row otherwise."""
    if np.asarray(xs[0]).ndim < 2 or rows_ok(fn):
        return fn(*xs)
    return np.array([fn(*row) for row in zip(*xs)])


def matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for one vector x, or row by row for stacked rows x (N, n), with
    m one matrix or one per row (N, k, n).  Each row gets the same product
    as the one-vector case (a 2-D product of all rows at once may round
    differently)."""
    if x.ndim == 1:
        return m @ x
    return (m @ x[..., None])[..., 0]


def rowdot(u: np.ndarray, w: np.ndarray):
    """u @ w for two vectors, or row by row for stacked rows (N, n); each
    row gets the same dot product as the one-vector case."""
    if u.ndim == 1:
        return u @ w
    return (u[..., None, :] @ w[..., :, None])[..., 0, 0]


def cos_sin(theta):
    """(cos, sin) of one angle as floats by `math`, which gives numpy's bits
    (NaN for an infinite angle, as numpy), or of an array's angles by numpy."""
    if getattr(theta, "ndim", 0) == 0:
        return (math.nan, math.nan) if math.isinf(theta) else (math.cos(theta), math.sin(theta))
    return np.cos(theta), np.sin(theta)


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for one square matrix a and b of matching length, or for
    stacked matrices a (N, m, m) and b (N, m, r).  A 1x1 system is one
    division, which gives LAPACK's bits, and an exactly zero pivot raises
    LinAlgError as LAPACK does.  An antisymmetric 2x2 with a zero diagonal
    (the k = 2 fibre block of a 2-form) and a finite b (2,) is solved on
    floats too: its row-swapped LU multiplies only by zeros, so it gives
    LAPACK's bits with no fused multiply-add, and a10 = 0 raises.  Other
    systems go to LAPACK, and so does a subnormal or infinite a10, which
    LAPACK scales its own way."""
    if a.shape == (1, 1):
        if a[0, 0] == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        return b / a[0, 0]
    if a.shape == (2, 2) and b.shape == (2,):
        (a00, a01), (a10, a11) = a.tolist()
        b0, b1 = b.tolist()
        if a00 == 0.0 == a11 and a01 == -a10 and math.isfinite(b0) and math.isfinite(b1):
            if a10 == 0.0:
                raise np.linalg.LinAlgError("Singular matrix")
            if 2.0 ** -1022 <= abs(a10) < math.inf:  # normal
                lower = a00 / a10
                x1 = (b0 - lower * b1) / (a01 - lower * a11)
                return np.array([(b1 - a11 * x1) / a10, x1])
    return np.linalg.solve(a, b)


def inverse(a: np.ndarray) -> np.ndarray:
    """a^-1 by the rule of `solve`."""
    return solve(a, np.eye(1)) if a.shape == (1, 1) else np.linalg.inv(a)


def fd_exterior_derivative(one_form: Callable[[np.ndarray], np.ndarray],
                           z: np.ndarray, h0: float = H_SECOND) -> np.ndarray:
    """Exterior derivative of a coordinate 1-form by central differences.

    Returns the antisymmetric matrix D - D^T with D[a, b] = d(theta_b)/dz_a,
    i.e. (dtheta)_{ab} evaluated at z, by fd_jacobian.  The shape of z
    chooses the path, never a mark of the 1-form: stacked points z (N, dim)
    are one call of the whole stencil (the 1-form must take rows; the
    result is (N, dim, dim)), one point z (dim,) one 1-form call per
    stencil point, with the same bits.  A caller whose 1-form takes rows
    passes one point as one stacked row.
    """
    # d[..., b, a] = d theta_b / d z_a
    d = fd_jacobian(one_form, (z,), 0, h0, rows=np.ndim(z) == 2)
    return np.swapaxes(d, -1, -2) - d


@dataclass
class NewtonResult:
    x: np.ndarray
    iterations: int
    residual_norm: float
    trace: list[tuple[np.ndarray, float]] = field(default_factory=list)


def _newton_failure(trace: list, rows: bool, message: str, bad=None, cause=None):
    row = int(np.flatnonzero(bad)[0]) if rows else None
    where = "" if row is None else f"row {row}: "
    raise NewtonConvergenceError(where + message, trace, row) from cause


def newton_solve(residual: Callable[[np.ndarray], np.ndarray],
                 seed: Sequence[float] | np.ndarray,
                 jacobian: Callable[[np.ndarray], np.ndarray]) -> NewtonResult:
    """Dense Newton iteration with partial-pivoting solves, to a residual
    norm of at most INVERSION_TOL within NEWTON_MAX_ITER steps.

    The caller supplies `jacobian`.  Divergence raises
    NewtonConvergenceError carrying the (iterate, residual norm) trace.

    A stacked seed (N, m) solves N independent systems at once: `residual`
    and `jacobian` then take rows (N, m) and return rows (N, m) and
    (N, m, m).  Each step is one stacked solve over the rows whose residual
    norm is still above the tolerance; converged rows stay as they are, so
    each row follows its one-row iteration.
    `iterations` counts the steps of the slowest row, `residual_norm` and the
    trace hold the largest row norm, and an error names the first failing row.
    """
    x = np.array(seed, dtype=float)
    rows = x.ndim == 2
    trace: list[tuple[np.ndarray, float]] = []
    for it in range(NEWTON_MAX_ITER + 1):
        r = np.asarray(residual(x), dtype=float)
        if rows:
            norms = np.linalg.norm(r, axis=-1)
            rnorm = float(np.max(norms))
            open_ = ~(norms <= INVERSION_TOL)
            done = not open_.any()
        else:
            # |r| is the 2-norm of a 1-vector
            rnorm = abs(r.item()) if r.size == 1 else float(np.linalg.norm(r))
            done = rnorm <= INVERSION_TOL
        trace.append((x.copy(), rnorm))
        if it < NEWTON_MAX_ITER and not math.isfinite(rnorm):
            _newton_failure(trace, rows, "non-finite residual", rows and ~np.isfinite(norms))
        if done:
            return NewtonResult(x=x, iterations=it, residual_norm=rnorm, trace=trace)
        if it == NEWTON_MAX_ITER:
            _newton_failure(trace, rows, f"no convergence after {NEWTON_MAX_ITER} "
                            f"iterations (|r| = {rnorm:.3e})", rows and open_)
        j = np.asarray(jacobian(x), dtype=float)
        if not rows:
            try:
                x = x + solve(j, -r)
            except np.linalg.LinAlgError as exc:
                _newton_failure(trace, rows, f"singular Jacobian: {exc}", cause=exc)
            continue
        try:
            x[open_] += np.linalg.solve(j[open_], -r[open_][..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            singular = np.zeros_like(open_)
            for i in np.flatnonzero(open_):
                try:
                    np.linalg.solve(j[i], r[i])
                except np.linalg.LinAlgError:
                    singular[i] = True
            _newton_failure(trace, rows, f"singular Jacobian: {exc}", singular, exc)


def invert(residual: Callable[[np.ndarray], np.ndarray], seed: np.ndarray,
           jacobian: Callable[[np.ndarray], np.ndarray], what: str,
           times: np.ndarray | None = None) -> np.ndarray:
    """The one inversion of a fibre derivative: `newton_solve` from `seed`,
    at one point or stacked rows.  Failure raises RegularityError("<what>:
    <reason>"), naming the time of the first failing row from `times`."""
    try:
        return newton_solve(residual, seed, jacobian).x
    except NewtonConvergenceError as exc:
        when = None if times is None or exc.row is None else times[exc.row]
        raise RegularityError(f"{what}: {exc}{at_time(when)}") from exc


@dataclass(frozen=True)
class StepperChoice:
    """Integrator selection: fixed-step RK4 or embedded RKF45.

    For rk4, `h` is the fixed step.  For rkf45, `h` is the initial step and
    (atol, rtol, h_min) control acceptance and underflow.
    """
    kind: str = "rk4"
    h: float = 1e-3
    atol: float = 1e-10
    rtol: float = 1e-10
    h_min: float = 1e-12

    def __post_init__(self):
        if self.kind not in ("rk4", "rkf45"):
            raise ValueError(f"unknown stepper kind {self.kind!r}")
        for name in ("h", "atol", "rtol", "h_min"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.h <= 0 or self.h_min <= 0:
            raise ValueError("step sizes must be positive")
        if self.atol < 1e-14 or self.rtol < 1e-14:
            raise ValueError("atol and rtol must be >= 1e-14")


Field = Callable[[float, np.ndarray], np.ndarray]


def _at_step(exc: Exception, t: float) -> Exception:
    """`exc` of a right-hand side again, naming the start t of its step."""
    kind = RegularityError if isinstance(exc, RegularityError) else ValueError
    return kind(f"{exc}{at_time(t)}")


def _horizon(t0: float, t_end: float) -> None:
    """The one horizon check of the integrators: a non-finite t0 or t_end
    raises ValueError naming it.  An empty horizon (t_end == t0) is valid
    and gives the one start sample."""
    for name, t in (("t0", t0), ("t_end", t_end)):
        if not math.isfinite(t):
            raise ValueError(f"{name} must be finite, got {t}")


def require_horizon(t_end: float) -> None:
    """The one horizon check of the library's trajectory entry points, which
    all start at t = 0: t_end must be positive and finite (ValueError
    otherwise).  The integrators keep an empty horizon as the one start
    sample (`_horizon`)."""
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")


def rk4_step(f: Field, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_integrate(f: Field, y0: np.ndarray, t0: float, t_end: float,
                  h: float) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 over [t0, t_end]; the last step is clamped to t_end,
    and a horizon t_end > t0 takes at least one step.

    A non-finite t0 or t_end raises ValueError.  A ValueError or
    RegularityError of `f` is raised again with the start t of the failing
    step.  A non-finite state raises NonFiniteStateError naming the first
    such sample; the check runs once, after the loop."""
    _horizon(t0, t_end)
    y = np.array(y0, dtype=float)
    n_steps = max(int(t_end > t0), int(np.ceil((t_end - t0) / h - 1e-12)))
    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1,) + y.shape)
    times[0], states[0] = t0, y
    t = t0
    try:
        for k in range(n_steps):
            step = min(h, t_end - t)
            y = rk4_step(f, t, y, step)
            t = t0 + (k + 1) * h if k + 1 < n_steps else t_end
            times[k + 1], states[k + 1] = t, y
    except (ValueError, RegularityError) as exc:
        raise _at_step(exc, t) from exc
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        _raise_non_finite(times[i], states[i])
    return times, states


# Fehlberg 4(5) tableau.  The 4th-order solution is propagated; the
# difference to the 5th-order one drives step control.
_RKF_C = np.array([0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2])
_RKF_A = [
    np.array([]),
    np.array([1 / 4]),
    np.array([3 / 32, 9 / 32]),
    np.array([1932 / 2197, -7200 / 2197, 7296 / 2197]),
    np.array([439 / 216, -8.0, 3680 / 513, -845 / 4104]),
    np.array([-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40]),
]
_RKF_B4 = np.array([25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0])
_RKF_B5 = np.array([16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55])


def rkf45_integrate(f: Field, y0: np.ndarray, t0: float, t_end: float,
                    h_init: float = 1e-3, atol: float = 1e-10,
                    rtol: float = 1e-10, h_min: float = 1e-12
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Embedded RKF45 with step rejection; returns accepted sample times.

    A non-finite t0 or t_end raises ValueError.  An attempted step whose
    error norm is not finite raises NonFiniteStateError instead of
    shrinking the step.  A ValueError or RegularityError of `f` at a trial
    stage (k[1] ... k[5]) shrinks the step by 0.2, down to h_min; below
    that, or at an accepted state (k[0]), it is raised again with the
    start t of the step.  k[0] is evaluated once per accepted state and
    kept across rejected attempts from it."""
    _horizon(t0, t_end)
    y = np.array(y0, dtype=float)
    t = t0
    h = min(h_init, t_end - t0)
    times = [t0]
    states = [y.copy()]
    k = np.empty((6, y.size))
    fresh = True  # k[0] is still to be evaluated at (t, y)
    try:
        while t < t_end - 1e-14 * max(1.0, abs(t_end)):
            if h < h_min:
                raise StepSizeError(f"step size underflow at t = {t:.6g} (h = {h:.3e})")
            h = min(h, t_end - t)
            if fresh:
                k[0] = f(t, y)
                fresh = False
            try:
                for s in range(1, 6):
                    k[s] = f(t + _RKF_C[s] * h, y + h * (_RKF_A[s] @ k[:s]))
            except (ValueError, RegularityError):
                if 0.2 * h < h_min:
                    raise
                h = 0.2 * h  # a trial stage left the field's domain: reject
                continue
            y4 = y + h * (_RKF_B4 @ k)
            y5 = y + h * (_RKF_B5 @ k)
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y4))
            err = float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2)))
            if not math.isfinite(err):
                _raise_non_finite(t + h, np.where(np.isfinite(y4), y5, y4))
            if err <= 1.0:
                t = t + h
                y = y4
                times.append(t)
                states.append(y.copy())
                fresh = True
            factor = 0.9 * err ** -0.2 if err > 0 else 5.0
            h = h * min(5.0, max(0.2, factor))
    except (ValueError, RegularityError) as exc:
        raise _at_step(exc, t) from exc
    return np.array(times), np.array(states)


def integrate_ode(f: Field, y0: np.ndarray, t0: float, t_end: float,
                  stepper: StepperChoice) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch on StepperChoice."""
    if stepper.kind == "rk4":
        return rk4_integrate(f, y0, t0, t_end, stepper.h)
    return rkf45_integrate(f, y0, t0, t_end, stepper.h,
                           stepper.atol, stepper.rtol, stepper.h_min)


def lie_step(spec, g, steps: np.ndarray, times: np.ndarray | None = None) -> list:
    """Lie-group Euler-midpoint updates g_{n+1} = g_n * exp(steps[n]) over
    stacked algebra elements `steps` (N, dim) from g_0 = g: [g_0, ..., g_N].

    A row-marked `exp_fn` gives every exponential in one call, an unmarked
    one is called per row; only the compositions, through the group's own
    law (which keeps e.g. rotation payloads orthogonal), run in sequence.
    A non-finite step raises ValueError naming its time from `times`.
    """
    from . import lie  # local import; lie depends on this module
    finite = np.isfinite(steps).all(axis=-1)
    if not finite.all():
        first = int(np.argmin(finite))
        raise ValueError(f"non-finite exponential argument in row {first}"
                         f"{at_time(None if times is None else times[first])}")
    exp = spec.exp_fn
    out = [g]
    for payload in exp(steps) if rows_ok(exp) else [exp(z) for z in steps]:
        out.append(lie.compose(spec, out[-1], lie.GroupElement(payload)))
    return out
