"""Finite differences, Newton, and the integrator pair."""
import itertools
import math

import numpy as np
import pytest

from magreduce import models, numerics, routh
from magreduce.lie import CoVector
from magreduce.numerics import (NewtonConvergenceError, NonFiniteStateError,
                                StepperChoice, StepSizeError)


def test_fd_gradient_quadratic():
    f = lambda x: 0.5 * float(x @ x)
    x = np.array([0.3, -1.2, 2.0])
    assert np.max(np.abs(numerics.fd_gradient(f, x) - x)) < 1e-9


def test_fd_gradient_trig():
    f = lambda x: np.sin(x[0]) * x[1]
    g = numerics.fd_gradient(f, np.array([0.0, 2.0]))
    assert np.max(np.abs(g - np.array([2.0, 0.0]))) < 1e-8


def test_fd_vs_analytic_on_rotor_routhian(rotor_params):
    lag = models.rotor_lagrangian(rotor_params)
    m = CoVector([0.4, -0.3, 0.8])

    def r_of_xdot(xd):
        return routh.routhian(lag, np.zeros(1), xd, m)

    fd = numerics.fd_gradient(r_of_xdot, np.array([0.27]))
    chi = routh.solve_chi(lag, np.zeros(1), np.array([0.27]), m).coords
    analytic = lag.shape_momentum(np.zeros(1), np.array([0.27]), chi)
    assert abs(fd[0] - analytic[0]) < 1e-7


def test_fd_jacobian_rows_is_fd_jacobian_per_row(rng):
    calls = []

    def f(z):   # rows (M, 2) -> rows (M, 3)
        calls.append(len(z))
        return np.column_stack([np.sin(z[:, 0]) * z[:, 1], z[:, 1] ** 3,
                                np.exp(0.3 * z[:, 0])])

    x = rng.uniform(-3.0, 3.0, (7, 2))
    jac = numerics.fd_jacobian(f, (x,), h0=1e-4, rows=True)
    assert calls == [7 * 4]   # the whole central stencil in one call
    calls.clear()
    per_point = numerics.fd_jacobian(lambda z: f(z[None])[0], (x,), h0=1e-4, rows=False)
    assert calls == [1] * (7 * 4)   # the same stencil, one call per point
    assert np.array_equal(per_point, jac)
    for row, j in zip(x, jac):
        assert np.array_equal(j, numerics.fd_jacobian(lambda z: f(z[None])[0], (row,),
                                                      h0=1e-4, rows=False))


def test_fd_mixed_cross_stencil():
    f = lambda x, y: float(np.sin(x[0]) * y @ y + x[1] * y[0])
    x, y = np.array([0.4, -1.5]), np.array([2.5, 0.3, -0.7])
    exact = np.vstack([2.0 * np.cos(x[0]) * y, [1.0, 0.0, 0.0]])
    assert np.max(np.abs(numerics.fd_second(f, (x, y), 0, 1) - exact)) < 1e-7


def test_fd_gradient_nonfinite_raises():
    f = lambda x: np.inf if x[0] > 0.5 else 0.0
    with pytest.raises(ValueError):
        numerics.fd_gradient(f, np.array([0.5]))


# -- reference copies of the earlier differencing loops ------------------------


def ref_steps(x, h0):
    return h0 * np.maximum(1.0, np.abs(x))


def ref_five_point_gradient(f, x, h0=numerics.H_FIVE_POINT):
    x = np.asarray(x, dtype=float)
    h = ref_steps(x, h0)
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h[i]
        fp2, fp, fm, fm2 = f(x + 2.0 * e), f(x + e), f(x - e), f(x - 2.0 * e)
        out[i] = (8.0 * (fp - fm) - (fp2 - fm2)) / (12.0 * h[i])
    return out


def ref_fd_jacobian(f, x, h0=numerics.H_GRADIENT):
    x = np.asarray(x, dtype=float)
    h = ref_steps(x, h0)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h[i]
        cols.append((np.asarray(f(x + e), dtype=float)
                     - np.asarray(f(x - e), dtype=float)) / (2.0 * h[i]))
    return np.column_stack(cols)


def ref_fd_jacobian_rows(f, x, h0=numerics.H_GRADIENT):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    rows, n = x.shape
    h = ref_steps(x, h0)
    shift = h[:, :, None] * np.eye(n)
    pts = np.concatenate([x[:, None, :] + shift, x[:, None, :] - shift], axis=1)
    vals = np.asarray(f(pts.reshape(-1, n)), dtype=float)
    vals = vals.reshape((rows, 2, n) + vals.shape[1:])
    return np.swapaxes((vals[:, 0] - vals[:, 1]) / (2.0 * h[:, :, None]), 1, 2)


def ref_stencil_jacobian(fn, args, slot, h0=numerics.H_GRADIENT):
    x = np.asarray(args[slot], dtype=float)
    one = x.ndim == 1
    reps = 2 * x.shape[-1]
    fixed = [np.repeat(a[None] if one else a, reps, axis=0) for a in map(np.asarray, args)]

    def of_stencil(pts):
        fixed[slot] = pts
        return fn(*fixed)

    d = ref_fd_jacobian_rows(of_stencil, x, h0)
    return d[0] if one else d


def ref_fd_exterior_derivative(one_form, z, h0=numerics.H_SECOND):
    if np.ndim(z) == 2:
        d = ref_fd_jacobian_rows(one_form, z, h0)
    else:
        d = ref_fd_jacobian(one_form, z, h0)
    return np.swapaxes(d, -1, -2) - d


def ref_fd_hessian(f, x, h0=numerics.H_SECOND):
    x = np.asarray(x, dtype=float)
    n = x.size
    h = ref_steps(x, h0)
    hess = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        hess[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / h[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h[j]
            val = (f(x + ei + ej) - f(x + ei - ej)
                   - f(x - ei + ej) + f(x - ei - ej)) / (4.0 * h[i] * h[j])
            hess[i, j] = val
            hess[j, i] = val
    return hess


def ref_fd_mixed(f, x, y, h0=numerics.H_SECOND):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    hx, hy = ref_steps(x, h0), ref_steps(y, h0)
    out = np.empty((x.size, y.size))
    for i in range(x.size):
        ei = np.zeros_like(x)
        ei[i] = hx[i]
        for j in range(y.size):
            ej = np.zeros_like(y)
            ej[j] = hy[j]
            out[i, j] = (f(x + ei, y + ej) - f(x + ei, y - ej)
                         - f(x - ei, y + ej) + f(x - ei, y - ej)) / (4.0 * hx[i] * hy[j])
    return out


def ref_fd_second(f, args, outer, inner, h0=numerics.H_SECOND):
    """The earlier values-only blocks: fd_hessian of one slot, fd_mixed of
    two, the other slots held."""
    fixed = list(args)

    def of_slot(z):
        fixed[inner] = z
        return f(*fixed)

    def of_pair(u, w):
        fixed[outer], fixed[inner] = u, w
        return f(*fixed)

    if outer == inner:
        return ref_fd_hessian(of_slot, args[inner], h0)
    return ref_fd_mixed(of_pair, args[outer], args[inner], h0)


def sign_aware(z):
    """Rows (M, 3) -> rows (M, 3), sensitive to the sign of a zero."""
    return np.column_stack([np.arctan2(z[:, 0], -1.0) * z[:, 1], np.exp(0.3 * z[:, 2]),
                            np.copysign(1.0, z[:, 1]) + z[:, 0] * z[:, 2] ** 2])


def fd_points(rng, count):
    """Points with |x| > 1 and +-0.0 coordinates."""
    x = rng.uniform(-4.0, 4.0, (count, 3))
    x[0] = [0.0, -0.0, 2.5]
    x[1] = [-0.0, 3.7, 0.0]
    return x


def test_differencing_matches_the_reference_loops_bit_for_bit():
    rng = np.random.default_rng(31)
    x = fd_points(rng, 6)
    one = lambda z: sign_aware(z[None])[0]  # noqa: E731
    scalar = lambda z: float(sign_aware(z[None])[0] @ [1.0, -2.0, 0.5])  # noqa: E731
    pairing = lambda u, w: sign_aware(u * w[:, :1])  # noqa: E731  (rows of both)
    # with an empty argument between, as compat.invert_psi holds pbar when k2 = 0
    padded = lambda u, e, w: pairing(np.concatenate([u, e], axis=-1), w)  # noqa: E731
    w = rng.uniform(-3.0, 3.0, (6, 2))
    w[2, 0] = -0.0  # the slots held at the centre keep the sign of a zero
    same = lambda a, b: a.shape == b.shape and a.tobytes() == b.tobytes()  # noqa: E731
    # marked: one point or stacked rows, as every marked callable takes
    marked = numerics.takes_rows(lambda z: sign_aware(np.atleast_2d(z)).reshape(np.shape(z)))

    def of_slot(fn, args, slot):  # the one-point fn of args[slot] alone
        return lambda z: fn(*[a[None] for a in args[:slot]], z[None],
                            *[a[None] for a in args[slot + 1:]])[0]

    def point(fn):  # the one-point fn of a row-capable fn
        return lambda *a: fn(*[np.asarray(z)[None] for z in a])[0]

    # fd_jacobian with rows (one call of the stencil) and without (one call
    # per stencil point), for one slot and several, at one point and at
    # stacked rows, each against its reference loop
    for h0 in (numerics.H_GRADIENT, numerics.H_SECOND):
        for i, row in enumerate(x):
            assert same(numerics.fd_gradient(scalar, row, h0),
                        ref_five_point_gradient(scalar, row, h0))
            assert same(numerics.fd_jacobian(one, (row,), h0=h0, rows=False),
                        ref_fd_jacobian(one, row, h0))
            assert same(numerics.fd_jacobian(sign_aware, (row,), h0=h0, rows=True),
                        ref_fd_jacobian_rows(sign_aware, row, h0)[0])
            for fn, args in ((pairing, (row, w[i])), (padded, (row, np.empty(0), w[i]))):
                held = len(args) - 1  # the slot of w
                for slot in (0, held):
                    assert same(numerics.fd_jacobian(point(fn), args, slot, h0, rows=False),
                                ref_fd_jacobian(of_slot(fn, args, slot), args[slot], h0))
                assert same(numerics.fd_jacobian(fn, args, 0, h0, rows=True),
                            ref_stencil_jacobian(fn, args, 0, h0))
                for slots in ((0, held), (held, 0), (held,)):
                    joint = numerics.fd_jacobian(fn, args, slots, h0, rows=True)
                    per_point = numerics.fd_jacobian(point(fn), args, slots, h0, rows=False)
                    assert len(joint) == len(per_point) == len(slots)
                    for slot, jac, alone in zip(slots, joint, per_point):
                        assert same(jac, ref_stencil_jacobian(fn, args, slot, h0))
                        assert same(alone, ref_fd_jacobian(of_slot(fn, args, slot),
                                                           args[slot], h0))
            assert same(numerics.fd_exterior_derivative(one, row, h0),
                        ref_fd_exterior_derivative(one, row, h0))
            # a marked 1-form at one point: the shape chooses, not the mark
            assert same(numerics.fd_exterior_derivative(marked, row, h0),
                        ref_fd_exterior_derivative(one, row, h0))
        assert same(numerics.fd_jacobian(sign_aware, (x,), h0=h0, rows=True),
                    ref_fd_jacobian_rows(sign_aware, x, h0))
        assert same(numerics.fd_jacobian(one, (x,), h0=h0, rows=False),
                    np.stack([ref_fd_jacobian(one, row, h0) for row in x]))
        for fn, args in ((pairing, (x, w)), (padded, (x, np.empty((6, 0)), w))):
            assert same(numerics.fd_jacobian(fn, args, 0, h0, rows=True),
                        ref_stencil_jacobian(fn, args, 0, h0))
            held = len(args) - 1
            joint = numerics.fd_jacobian(fn, args, (held, 0), h0, rows=True)
            per_point = numerics.fd_jacobian(point(fn), args, (held, 0), h0, rows=False)
            for slot, jac, alone in zip((held, 0), joint, per_point):
                assert same(jac, ref_stencil_jacobian(fn, args, slot, h0))
                assert same(alone, np.stack([
                    ref_fd_jacobian(of_slot(fn, at, slot), at[slot], h0)
                    for at in zip(*args)]))
        assert same(numerics.fd_exterior_derivative(sign_aware, x, h0),
                    ref_fd_exterior_derivative(sign_aware, x, h0))


def test_fd_second_matches_the_reference_blocks_bit_for_bit():
    # three slots of 1-3 coordinates with |x| > 1 and +-0.0 entries: every
    # (outer, inner) block has the bits, the points and the call order of
    # the earlier fd_hessian / fd_mixed; the stacked stencil of a
    # row-marked f (one block, or all blocks and gradients at once) has the
    # same bits on the same points, the held slots' signed zeros included
    rng = np.random.default_rng(47)
    log = []

    def f(a, b, c):
        log.append(b"|".join(np.asarray(z, dtype=float).tobytes() for z in (a, b, c)))
        return float(np.sin(a.sum() * b[0]) + np.arctan2(a[-1], -1.0) * (c @ c)
                     + np.copysign(1.0, b[-1]) * a[0] * c[0] ** 2
                     + np.exp(0.3 * b).sum() * c[-1])

    # the same f over rows, one row at a time: rule 3 over rows (fd_blocks)
    rows = numerics.takes_rows(lambda a, b, c: np.array([f(*row) for row in zip(a, b, c)]))
    pairs = tuple((outer, inner) for outer in range(3) for inner in (0, 1, 2, None))
    same = lambda a, b: a.shape == b.shape and a.tobytes() == b.tobytes()  # noqa: E731
    for _ in range(40):
        args, other = [], []
        for size in rng.integers(1, 4, 3):
            z = rng.uniform(-4.0, 4.0, size)
            signed = rng.random(size) < 0.3
            z[signed] = rng.choice([0.0, -0.0], signed.sum())
            args.append(z)
            other.append(rng.uniform(-4.0, 4.0, size))
        for h0 in (numerics.H_GRADIENT, numerics.H_SECOND):
            refs, ref_points = [], []
            for outer, inner in pairs:
                log.clear()
                if inner is None:
                    refs.append(ref_five_point_gradient(
                        lambda z: f(*args[:outer], z, *args[outer + 1:]), args[outer], h0))
                    ref_points.append(list(log))
                    continue
                block = numerics.fd_second(f, tuple(args), outer, inner, h0)
                points = list(log)
                log.clear()
                refs.append(ref_fd_second(f, tuple(args), outer, inner, h0))
                assert same(block, refs[-1])
                assert points == log
                ref_points.append(points)
                # the one-pair stencil: the same bits on the same points
                log.clear()
                assert same(numerics.fd_blocks(rows, args, ((outer, inner),), h0)[0], refs[-1])
                assert sorted(log) == sorted(points)
            # the joint stencil of all twelve: each result as on its own, on
            # the union of their points
            log.clear()
            joint = numerics.fd_blocks(rows, args, pairs, h0, h0)
            assert all(same(got, ref) for got, ref in zip(joint, refs))
            assert set(log) == set().union(*ref_points)
            # stacked rows: each row's results
            stacked = numerics.fd_blocks(rows, [np.stack(z) for z in zip(args, other)],
                                         pairs, h0, h0)
            second = numerics.fd_blocks(rows, other, pairs, h0, h0)
            for got, first_row, second_row in zip(stacked, joint, second):
                assert same(got, np.stack([first_row, second_row]))


def pocket(z):
    """Rows (M, 3) -> rows (M, 2): NaN past z_1 = 1 in the first output."""
    z = np.atleast_2d(z)
    return np.column_stack([np.where(z[:, 1] > 1.0, np.nan, z[:, 0] * z[:, 2]),
                            z[:, 1] ** 2])


DIFFERENCING = {
    "fd_gradient": lambda x: numerics.fd_gradient(lambda z: float(pocket(z)[0, 0]), x),
    "fd_jacobian": lambda x: numerics.fd_jacobian(lambda z: pocket(z)[0], (x,), rows=False),
    "fd_jacobian_rows": lambda x: numerics.fd_jacobian(pocket, (x,), rows=True),
    # the joint stencil of two slots around a held one: coordinate 1 of
    # the joint point is x_1
    "fd_jacobian_rows_slots": lambda x: np.concatenate(numerics.fd_jacobian(
        lambda u, s, v: pocket(np.concatenate([u, v], -1)) * s,
        (x[..., :1], np.ones(x.shape[:-1] + (1,)), x[..., 1:]), (0, 2), rows=True), -1),
    "fd_exterior_derivative": lambda x: numerics.fd_exterior_derivative(
        lambda z: np.concatenate([pocket(z), np.atleast_2d(z)[:, :1]], -1).reshape(z.shape), x),
}


@pytest.mark.parametrize("routine", list(DIFFERENCING))
def test_differencing_rejects_a_non_finite_value(routine):
    # finite at x_1 = 1 - 1e-9, NaN at the stencil point x_1 + h
    run = DIFFERENCING[routine]
    x = np.array([[0.3, 0.2, -1.5], [2.0, 1.0 - 1e-9, 0.4], [-0.7, 1.0 - 1e-9, 3.0]])
    assert np.isfinite(run(x[0])).all()
    with pytest.raises(ValueError, match=r"^non-finite evaluation while differencing "
                                         r"coordinate 1$"):
        run(x[1])
    if routine == "fd_gradient":
        return  # a one-point routine
    assert np.isfinite(run(x[:1])).all()
    with pytest.raises(ValueError, match=r"^row 1: non-finite evaluation while "
                                         r"differencing coordinate 1$"):
        run(x)


def test_second_differences_reject_a_non_finite_value():
    # f is finite at x = 0.5 and NaN at the stencil point 0.5 + h
    def f(x):
        return np.nan if x[0] > 0.5 else x[0] ** 2

    match = r"^non-finite evaluation while differencing coordinate 0$"
    with pytest.raises(ValueError, match=match):
        numerics.fd_second(f, ([0.5],), 0, 0)
    with pytest.raises(ValueError, match=match):
        numerics.fd_second(lambda x, y: f(x) * y[0], ([0.5], [1.0]), 0, 1)
    assert np.isfinite(numerics.fd_second(f, ([0.3],), 0, 0)).all()


def test_newton_linear_single_iteration():
    a = np.array([[2.0, 1.0], [0.0, 3.0]])
    b = np.array([1.0, -2.0])
    res = numerics.newton_solve(lambda x: a @ x - b, np.zeros(2),
                                jacobian=lambda x: a)
    assert res.iterations <= 1
    assert np.max(np.abs(a @ res.x - b)) < 1e-12


def test_newton_rotor_momentum_inversion(rotor_params, rng):
    # closed-form inverse of the group-velocity fibre derivative
    lam = rotor_params.lam
    j3 = rotor_params.inertia_rotor[2]
    xd = 0.37
    m = rng.normal(size=3)

    def residual(w):
        return np.array([lam[0] * w[0], lam[1] * w[1],
                         lam[2] * w[2] + j3 * xd]) - m

    res = numerics.newton_solve(residual, np.zeros(3),
                                jacobian=lambda w: np.diag(lam))
    expected = np.array([m[0] / lam[0], m[1] / lam[1], (m[2] - j3 * xd) / lam[2]])
    assert np.max(np.abs(res.x - expected)) < 1e-12


def test_newton_cubic_tracks_seed_basin():
    # roots of x^3 - x at -1, 0, 1
    f = lambda x: np.array([x[0] ** 3 - x[0]])
    for seed, root in ((0.9, 1.0), (-0.9, -1.0), (0.05, 0.0)):
        res = numerics.newton_solve(f, np.array([seed]),
                                    lambda x: numerics.fd_jacobian(f, (x,), rows=False))
        assert abs(res.x[0] - root) < 1e-10
        # the branch is recorded: the trace starts at the seed
        assert res.trace[0][0][0] == seed


def test_newton_divergence_has_trace():
    f = lambda x: np.array([np.exp(x[0]) + 1.0])  # no real root
    with pytest.raises(NewtonConvergenceError) as err:
        numerics.newton_solve(f, np.array([0.0]),
                              lambda x: numerics.fd_jacobian(f, (x,), rows=False))
    assert len(err.value.trace) >= 2


def nan_past_ten(c):
    """Residual x^2 - c that turns NaN once x passes 10, and its Jacobian:
    from the seed 0.1 the first step lands at about 20."""
    def residual(x):
        return np.where(x > 10.0, np.nan, x ** 2 - c)

    def jacobian(x):
        return 2.0 * x[..., None]

    return residual, jacobian


def test_newton_non_finite_residual_raises_with_trace():
    residual, jacobian = nan_past_ten(np.array([4.0]))
    with pytest.raises(NewtonConvergenceError, match=r"^non-finite residual$") as err:
        numerics.newton_solve(residual, np.array([0.1]), jacobian)
    assert err.value.row is None
    (x0, r0), (x1, r1) = err.value.trace
    assert x0[0] == 0.1 and r0 == pytest.approx(3.99)
    assert x1[0] == pytest.approx(20.05) and np.isnan(r1)
    # stacked seeds: rows 1 and 3 step past 10, row 1 is named
    residual, jacobian = nan_past_ten(np.full((4, 1), 4.0))
    with pytest.raises(NewtonConvergenceError, match=r"^row 1: non-finite residual$") as err:
        numerics.newton_solve(residual, np.array([[3.0], [0.1], [2.5], [0.1]]), jacobian)
    assert err.value.row == 1
    assert len(err.value.trace) == 2 and np.isnan(err.value.trace[-1][1])


def spread_draws(rng, n):
    """n signed floats with exponents from subnormal to about 1e300."""
    return (np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-1074, 997, n))
            * rng.choice([-1.0, 1.0], n))


def test_one_by_one_solve_and_inverse_are_lapacks_bits():
    rng = np.random.default_rng(11)
    n = 100_000
    a, b = spread_draws(rng, n), spread_draws(rng, n)
    a[:2000] = np.ldexp(rng.uniform(1.0, 2.0, 2000), -1040)  # subnormal pivots
    b[2000:3000], b[3000:4000] = 0.0, -0.0
    assert np.sum(np.abs(a) < np.finfo(float).tiny) >= 2000
    assert np.min(np.abs(a)) < 1e-300 and np.max(np.abs(a)) > 1e299
    with np.errstate(over="ignore", under="ignore"):
        lapack_solve = np.linalg.solve(a[:, None, None], b[:, None, None])[:, :, 0]
        lapack_inverse = np.linalg.inv(a[:, None, None])
        solve = [numerics.solve(np.array([[ai]]), np.array([bi])) for ai, bi in zip(a, b)]
        inverse = [numerics.inverse(np.array([[ai]])) for ai in a]
    assert np.array(solve).tobytes() == lapack_solve.tobytes()
    assert np.array(inverse).tobytes() == lapack_inverse.tobytes()


@pytest.mark.parametrize("pivot", [0.0, -0.0])
def test_one_by_one_zero_pivot_raises_as_lapack(pivot):
    a = np.array([[pivot]])
    for call in (lambda: numerics.solve(a, np.ones(1)), lambda: numerics.inverse(a),
                 lambda: np.linalg.solve(a, np.ones(1)), lambda: np.linalg.inv(a)):
        with pytest.raises(np.linalg.LinAlgError, match=r"^Singular matrix$"):
            call()


def test_antisymmetric_two_by_two_solve_is_lapacks_bits(monkeypatch):
    # the k = 2 fibre block of a 2-form, [[+-0, g], [-g, +-0]]: random
    # blocks and right-hand sides over the whole exponent range, then every
    # combination of signed zeros, huge, tiny, smallest-normal, subnormal,
    # infinite and NaN entries, bit for bit against LAPACK (or the same
    # LinAlgError)
    rng = np.random.default_rng(13)
    n = 50_000
    g = np.concatenate([spread_draws(rng, n // 2), rng.normal(size=n // 2)])
    b = np.concatenate([spread_draws(rng, n), rng.normal(size=n)]).reshape(2, n).T
    diagonals = rng.choice([0.0, -0.0], (n, 2))
    blocks = [([[d0, gi], [-gi, d1]], bi) for (d0, d1), gi, bi in zip(diagonals, g, b)]
    tiny = np.finfo(float).tiny
    values = [0.0, -0.0, 1.3, -1.3, 1e300, -1e300, 1e-300, -1e-300, tiny, -tiny,
              5e-324, -5e-324, 1.7e308, -1.7e308, np.inf, -np.inf, np.nan]
    for d0, d1, gi, b0, b1 in itertools.product((0.0, -0.0), (0.0, -0.0), values[2:],
                                                values, values):
        blocks.append(([[d0, gi], [-gi, d1]], [b0, b1]))
    def outcome(solve, a, bi):
        try:
            return solve(a, bi).tobytes()
        except np.linalg.LinAlgError as exc:
            return str(exc)

    with np.errstate(all="ignore"):
        for a, bi in blocks:
            a, bi = np.array(a), np.array(bi)
            assert outcome(numerics.solve, a, bi) == outcome(np.linalg.solve, a, bi)
    # a normal finite block with a finite right-hand side never calls LAPACK
    monkeypatch.setattr(np.linalg, "solve", None)
    assert numerics.solve(np.array([[0.0, 2.0], [-2.0, -0.0]]), np.array([-0.0, 1.3])
                          ).tobytes() == np.array([-0.65, 0.0]).tobytes()


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_antisymmetric_two_by_two_zero_block_raises_as_lapack(zero):
    a = np.array([[0.0, zero], [-zero, -0.0]])
    for call in (lambda: numerics.solve(a, np.ones(2)), lambda: np.linalg.solve(a, np.ones(2))):
        with pytest.raises(np.linalg.LinAlgError, match=r"^Singular matrix$"):
            call()


def test_newton_zero_one_by_one_jacobian_is_singular():
    with pytest.raises(NewtonConvergenceError, match=r"^singular Jacobian: Singular matrix$") as err:
        numerics.newton_solve(lambda x: x ** 2 + 1.0, np.array([0.5]), lambda x: np.zeros((1, 1)))
    assert len(err.value.trace) == 1 and isinstance(err.value.__cause__, np.linalg.LinAlgError)


def test_one_by_one_newton_is_the_lapack_iteration():
    # the iteration newton_solve ran with LAPACK steps and the vector norm
    def lapack_newton(residual, seed, jacobian):
        x, trace = np.array(seed), []
        while True:
            r = residual(x)
            trace.append((x.copy(), float(np.linalg.norm(r))))
            if trace[-1][1] <= numerics.INVERSION_TOL:
                return x, trace
            x = x + np.linalg.solve(jacobian(x), -r)

    rng = np.random.default_rng(4)
    for c, seed in zip(rng.uniform(0.1, 30.0, 300), rng.uniform(0.2, 8.0, 300)):
        residual = lambda x, c=c: np.array([x[0] ** 3 + np.sin(x[0]) - c])
        jacobian = lambda x: np.array([[3.0 * x[0] ** 2 + np.cos(x[0])]])
        res = numerics.newton_solve(residual, np.array([seed]), jacobian)
        x, trace = lapack_newton(residual, [seed], jacobian)
        assert res.x.tobytes() == x.tobytes() and res.iterations == len(trace) - 1
        assert [(xi.tobytes(), ri) for xi, ri in res.trace] == [(xi.tobytes(), ri) for xi, ri in trace]


def test_newton_quadratic_convergence_trace():
    f = lambda x: np.array([np.cos(x[0]) - x[0]])
    res = numerics.newton_solve(f, np.array([1.0]),
                                lambda x: numerics.fd_jacobian(f, (x,), rows=False))
    resids = [r for _, r in res.trace if r > 1e-14]
    # residual ratios r_{k+1} / r_k^2 stay bounded for a quadratic method
    ratios = [resids[i + 1] / resids[i] ** 2 for i in range(len(resids) - 1)]
    assert len(ratios) >= 3
    assert all(r < 10.0 for r in ratios)


def test_rk4_exponential():
    f = lambda t, y: y
    times, ys = numerics.rk4_integrate(f, np.array([1.0]), 0.0, 1.0, 1e-3)
    assert abs(ys[-1, 0] - np.e) < 1e-10


def test_rk4_harmonic_energy_drift():
    # 20 periods at h = 1e-3; the RK4 energy error grows linearly in time,
    # so the bound is the 1e-9-per-1e3-periods budget scaled down.
    f = lambda t, y: np.array([y[1], -y[0]])
    t_end = 20 * 2 * np.pi
    times, ys = numerics.rk4_integrate(f, np.array([1.0, 0.0]), 0.0, t_end, 1e-3)
    energy = 0.5 * (ys[:, 0] ** 2 + ys[:, 1] ** 2)
    assert np.max(np.abs(energy - energy[0])) < 1e-9 * (20 / 1000)


def test_rkf45_matches_rk4_on_reduced_flow(beanie_params):
    from magreduce import semidirect
    sd = models.beanie_gv_lagrangian(beanie_params)
    nu0, b0 = CoVector([1.0]), CoVector([1.0, 0.0])
    t1 = semidirect.integrate_reduced_full(
        sd, [0.4], [0.3], nu0, b0, 2.0, StepperChoice(kind="rk4", h=1e-3))
    t2 = semidirect.integrate_reduced_full(
        sd, [0.4], [0.3], nu0, b0, 2.0,
        StepperChoice(kind="rkf45", h=1e-3, atol=1e-12, rtol=1e-12))
    assert np.max(np.abs(t1.states[-1] - t2.states[-1])) < 1e-8


def test_rkf45_step_rejection_and_underflow():
    # integrating across a pole shrinks the step without bound
    f = lambda t, y: np.array([1.0 / (0.5 - t)])
    with pytest.raises(StepSizeError):
        numerics.rkf45_integrate(f, np.array([0.0]), 0.0, 1.0,
                                 h_init=0.1, atol=1e-10, rtol=1e-10, h_min=1e-10)


def test_rk4_non_finite_state_raises():
    # y' = y^2, y(0) = 1 blows up at t = 1; the overflowed rows are not
    # returned as a trajectory
    f = lambda t, y: y * y
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError) as err:
            numerics.rk4_integrate(f, np.array([1.0]), 0.0, 2.0, 0.01)
    assert "at t = " in str(err.value)
    assert "component 0" in str(err.value)


def rk4_loop(f, y0, t0, t_end, h):
    """Reference RK4 loop: per-step lists over numerics.rk4_step."""
    y = np.array(y0, dtype=float)
    times, states, t = [t0], [y.copy()], t0
    n_steps = int(np.ceil((t_end - t0) / h - 1e-12))
    for k in range(n_steps):
        y = numerics.rk4_step(f, t, y, min(h, t_end - t))
        t = t0 + (k + 1) * h if k + 1 < n_steps else t_end
        times.append(t)
        states.append(y.copy())
    return np.array(times), np.array(states)


@pytest.mark.parametrize("t0, t_end, h", [(0.0, 1.0, 0.1), (0.3, 1.234, 0.01),
                                          (0.0, 0.005, 0.01), (1.0, 1.0, 0.1)])
def test_rk4_integrate_is_rk4_step_loop(t0, t_end, h):
    # bit for bit, including the clamped last step and an empty horizon
    f = lambda t, y: np.array([y[1], -np.sin(y[0]) + 0.1 * t])
    times, states = numerics.rk4_integrate(f, np.array([0.3, 0.1]), t0, t_end, h)
    ref_times, ref_states = rk4_loop(f, np.array([0.3, 0.1]), t0, t_end, h)
    assert np.array_equal(times, ref_times)
    assert np.array_equal(states, ref_states)


def test_rk4_non_finite_error_names_the_first_bad_sample():
    f = lambda t, y: y * y
    with np.errstate(over="ignore", invalid="ignore"):
        times, states = rk4_loop(f, np.array([1.0]), 0.0, 2.0, 0.01)
        first = int(np.argmin(np.isfinite(states).all(axis=1)))
        with pytest.raises(NonFiniteStateError) as err:
            numerics.rk4_integrate(f, np.array([1.0]), 0.0, 2.0, 0.01)
    assert f"at t = {times[first]:.6g}:" in str(err.value)


def test_rkf45_non_finite_error_norm_raises():
    # the first stage overflows, so the error norm of the attempted step
    # is not finite; this raises instead of resizing the step
    f = lambda t, y: np.array([y[0], y[1] * y[1]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError) as err:
            numerics.rkf45_integrate(f, np.array([1.0, 1e200]), 0.0, 1.0)
    assert "at t = 0.001" in str(err.value)
    assert "component 1" in str(err.value)


def test_stepper_choice_validation():
    with pytest.raises(ValueError):
        StepperChoice(kind="euler")
    with pytest.raises(ValueError):
        StepperChoice(h=-1.0)
    with pytest.raises(ValueError):
        StepperChoice(atol=1e-16)


@pytest.mark.parametrize("name", ["h", "atol", "rtol", "h_min"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_stepper_choice_rejects_non_finite_fields(name, value):
    for kind in ("rk4", "rkf45"):
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            StepperChoice(kind=kind, **{name: value})


def test_rk4_step_longer_than_the_horizon_takes_one_step():
    f = lambda t, y: -y
    times, states = numerics.rk4_integrate(f, np.array([1.0]), 0.0, 1.0, 1e13)
    assert np.array_equal(times, [0.0, 1.0])
    assert np.array_equal(states[1], numerics.rk4_step(f, 0.0, np.array([1.0]), 1.0))
    # an empty or reversed horizon still takes none
    assert len(numerics.rk4_integrate(f, np.array([1.0]), 1.0, 1.0, 1e13)[0]) == 1


@pytest.mark.parametrize("kind", ["rk4", "rkf45"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_integrators_refuse_a_non_finite_horizon(kind, bad):
    f = lambda t, y: -y  # noqa: E731
    stepper = StepperChoice(kind=kind, h=0.1)
    with pytest.raises(ValueError, match=rf"^t_end must be finite, got {bad}$"):
        numerics.integrate_ode(f, np.array([1.0]), 0.0, bad, stepper)
    with pytest.raises(ValueError, match=rf"^t0 must be finite, got {bad}$"):
        numerics.integrate_ode(f, np.array([1.0]), bad, 1.0, stepper)
    # an empty horizon still gives its one start sample
    times, states = numerics.integrate_ode(f, np.array([1.0]), 1.0, 1.0, stepper)
    assert np.array_equal(times, [1.0]) and np.array_equal(states, [[1.0]])


def nan_pocket_field(t, y):
    """y' = 1, with a right-hand side that differences a function whose
    stencil meets NaN once y passes 0.5."""
    g = numerics.fd_gradient(lambda z: np.nan if z[0] > 0.5 else z[0] ** 2, y)
    return np.ones(1) + 0.0 * g


@pytest.mark.parametrize("integrate, first_bad_step", [
    # rk4 steps from 0.49 to 0.5, where a stencil point passes 0.5
    (lambda f, y0: numerics.rk4_integrate(f, y0, 0.0, 1.0, 0.01), (0.49, 0.49)),
    # rkf45 grows its step fivefold per step on this exact field
    (lambda f, y0: numerics.rkf45_integrate(f, y0, 0.0, 1.0, 0.01, 1e-9, 1e-9), (0.0, 0.5)),
], ids=["rk4", "rkf45"])
def test_a_right_hand_side_value_error_names_t(integrate, first_bad_step):
    with pytest.raises(ValueError, match=r"^non-finite evaluation while differencing "
                                         r"coordinate 0 at t = 0\.\d+$") as err:
        integrate(nan_pocket_field, np.zeros(1))
    t = float(str(err.value).rsplit("= ", 1)[1])
    assert first_bad_step[0] <= t <= first_bad_step[1] and t < 0.5


@pytest.mark.parametrize("stepper", [StepperChoice(kind="rk4", h=1e-2),
                                     StepperChoice(kind="rkf45", h=1e-2, atol=1e-9, rtol=1e-9)],
                         ids=["rk4", "rkf45"])
def test_gimbal_guard_names_t(rotor_params, stepper):
    # beta falls from 0.3 past the guard at cos(beta) = 0.99 (beta ~ 0.14)
    chart_state = np.array([0.0, 0.0, 0.3, 0.0, 0.0, 0.0, -1.0, 0.0])
    with pytest.raises(ValueError, match=r"gimbal lock .* at t = 0\.\d+$") as err:
        models.rotor_full_trajectory(rotor_params, chart_state, 1.0, stepper)
    assert 0.0 < float(str(err.value).rsplit("= ", 1)[1]) < 0.16


def test_rkf45_rejects_a_trial_stage_that_raises(rotor_params):
    # a trial stage that probes past the gimbal guard shrinks the step
    # instead of ending the run, so rkf45 gets at least as far as rk4
    chart_state = np.array([0.0, 0.0, 0.3, 0.0, 0.0, 0.0, -1.0, 0.0])
    reached = []
    for stepper in (StepperChoice(kind="rk4", h=1e-2),
                    StepperChoice(kind="rkf45", h=1e-2, atol=1e-9, rtol=1e-9)):
        with pytest.raises(ValueError, match=r"gimbal lock .* at t = 0\.\d+$") as err:
            models.rotor_full_trajectory(rotor_params, chart_state, 1.0, stepper)
        reached.append(float(str(err.value).rsplit("= ", 1)[1]))
    assert reached[1] >= reached[0]


def test_rkf45_evaluates_the_field_once_per_point():
    # a pendulum whose field leaves its domain past y = 1: the first steps
    # are rejected for their error, the last ones for a raising trial
    # stage.  Rejected attempts reuse the k[0] of their accepted state, so
    # no (t, y) is evaluated twice, and the accepted steps and the failure
    # are those of the loop that evaluated k[0] again after every rejection
    calls = []

    def f(t, y):
        calls.append((t, y.tobytes()))
        if y[0] > 1.0:
            raise ValueError("outside the domain")
        return np.array([y[1], -np.sin(y[0])])

    y0 = np.array([0.0, 1.5])
    times, states = numerics.rkf45_integrate(f, y0, 0.0, 0.7, 0.3, 1e-9, 1e-9, 1e-3)
    assert len(calls) == len(set(calls)) == 82
    assert len(times) == 13 and times[-1] == 0.7
    assert np.allclose(times[:3], [0.0, 0.0529511483008216, 0.10579213997681258],
                       rtol=1e-13, atol=0.0)
    assert np.allclose(states[-1], [0.9704014583521571, 1.1747070642676318],
                       rtol=1e-13, atol=0.0)
    calls.clear()
    with pytest.raises(ValueError, match=r"^outside the domain at t = 0\.724284$"):
        numerics.rkf45_integrate(f, y0, 0.0, 3.0, 0.3, 1e-9, 1e-9, 1e-3)
    assert len(calls) == len(set(calls)) == 114


def test_rkf45_raises_a_failing_stage_at_h_min():
    # y' = 1 on y <= 0.5: the accepted states close in on the edge, and the
    # stage's own error names the start of the last step once the step
    # would fall below h_min
    def f(t, y):
        if y[0] > 0.5:
            raise ValueError("outside the domain")
        return np.ones(1)

    with pytest.raises(ValueError, match=r"^outside the domain at t = 0\.5$"):
        numerics.rkf45_integrate(f, np.zeros(1), 0.0, 1.0, 0.01, 1e-9, 1e-9, 1e-6)


def test_rk4_observed_order_rotor(rotor_params):
    # Richardson slope over h in {4e-3, 2e-3, 1e-3} on the reduced rotor;
    # the momenta are large enough that truncation dominates rounding
    m0 = CoVector([8.0, 2.0, 3.0])
    sys = models.rotor_reduced_system(rotor_params, m0)
    s0 = routh.ReducedState([0.0], [2.0], m0)
    finals = []
    for h in (4e-3, 2e-3, 1e-3):
        traj = routh.integrate_reduced(sys, s0, 2.0, StepperChoice(kind="rk4", h=h))
        finals.append(traj.states[-1])
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    order = np.log2(e1 / e2)
    assert order >= 3.9


def test_lie_step_identity_and_one_parameter():
    from magreduce import lie
    spec = lie.so3()
    g = lie.GroupElement(spec.sample_fn(np.random.default_rng(3)))
    g0, g2 = numerics.lie_step(spec, g, np.zeros((1, 3)))
    assert g0 is g and np.array_equal(g2.payload, g.payload)

    xi = lie.AlgebraVector([0.3, -0.2, 0.5])
    h = 1e-2
    gs = numerics.lie_step(spec, lie.identity(spec), np.tile(h * xi.coords, (100, 1)))
    assert len(gs) == 101
    g = gs[-1]
    expected = lie.exponential(spec, xi, 100 * h)
    assert np.max(np.abs(g.payload - expected.payload)) < 1e-10


def test_lie_step_orthogonality_drift():
    from magreduce import lie
    spec = lie.so3()
    rng = np.random.default_rng(11)
    g = lie.identity(spec)
    xi = rng.normal(size=3)
    r = numerics.lie_step(spec, g, np.tile(1e-3 * xi, (10_000, 1)))[-1].payload
    assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-8


def magnetic_value(q, v, p):
    """The values-only magnetic Lagrangian of the fd_supply workload."""
    return 0.5 * v[0] ** 2 - 0.5 * q[0] ** 2 - 0.25 * (p[0] ** 2 + p[1] ** 2)


def quartic_ell(x, xd, xi):
    """The quartic group-velocity Lagrangian of the fd_supply workload."""
    return (0.5 * float(xd @ xd) + 0.5 * float(xi @ xi)
            + 0.05 * float(xi @ xi) ** 2 + 0.1 * x[0] * xi[0])


def wavy(a, b, c):
    """A scalar of three slots that reads every coordinate, and the sign of
    a zero."""
    return (math.sin((a[0] + a[-1]) * b[0]) + math.atan2(a[-1], -1.0) * (c[0] ** 2 + c[1])
            + math.copysign(1.0, b[-1]) * a[0] * c[0] ** 2 + math.exp(0.3 * b[0]) * c[-1])


ONE_POINT_SETS = {
    # fd_supply's magnetic jet: dL/dq, dL/dp, d2L/dv2, d2L/dv dq, d2L/dv dp
    "magnetic": (magnetic_value, (1, 1, 2), ((0, None), (2, None), (1, 1), (1, 0), (1, 2))),
    # the rule-3 part of fd_supply's quartic metric blocks
    "quartic": (quartic_ell, (1, 1, 2), ((1, 1), (1, 0), (0, None))),
    "gradients": (wavy, (2, 1, 3), ((0, None), (1, None), (2, None))),
    "diagonals": (wavy, (2, 1, 3), ((0, 0), (1, 1), (2, 2))),
    "crosses": (wavy, (2, 1, 3), ((0, 1), (1, 0), (2, 0), (1, 2))),
    "mixed": (wavy, (2, 1, 3), ((2, 2), (0, None), (1, 2), (2, None), (0, 0))),
}


@pytest.mark.parametrize("name", list(ONE_POINT_SETS))
def test_one_point_plan_is_the_array_path_bit_for_bit(name):
    # the compiled one-point evaluation of fd_blocks gives the bits of the
    # array path: row 0 of the same call on two stacked copies of the point
    f, sizes, pairs = ONE_POINT_SETS[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(1_000):
        args = []
        for size in sizes:
            z = rng.uniform(-4.0, 4.0, size)
            signed = rng.random(size) < 0.2
            z[signed] = rng.choice([0.0, -0.0], signed.sum())
            args.append(z)
        one = numerics.fd_blocks(f, args, pairs, rows=False)
        two = numerics.fd_blocks(f, [np.stack([z, z]) for z in args], pairs, rows=False)
        assert len(one) == len(two) == len(pairs)
        for got, rows in zip(one, two):
            assert got.shape == rows.shape[1:] and got.tobytes() == rows[0].tobytes()


def test_one_point_plan_rejects_a_non_finite_value():
    # NaN at the stencil points that move p_1 up: the first result in order
    # that sees one is dL/dp, at its coordinate 1
    def f(q, v, p):
        return np.nan if p[1] > 1.0 else magnetic_value(q, v, p)

    _, _, pairs = ONE_POINT_SETS["magnetic"]
    args = [np.array([0.3]), np.array([0.2]), np.array([0.1, 1.0 - 1e-9])]
    with pytest.raises(ValueError, match=r"^non-finite evaluation while differencing "
                                         r"coordinate 1$"):
        numerics.fd_blocks(f, args, pairs, rows=False)
    with pytest.raises(ValueError, match=r"^row 0: non-finite evaluation while "
                                         r"differencing coordinate 1$"):
        numerics.fd_blocks(f, [np.stack([z, z]) for z in args], pairs, rows=False)
    args[2][1] = 0.5
    assert all(np.isfinite(d).all() for d in numerics.fd_blocks(f, args, pairs, rows=False))
