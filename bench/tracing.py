"""In-memory span tracer for the benchmark's traced run.

`Tracer.install` replaces every public function of the given magreduce
modules with a wrapper that records one span per call: name, start, end,
parent span, request id and a work count.  This sees every cross-module
call because the package calls across modules through module attributes
(`numerics.fd_jacobian`, `routh.solve_chi`, ...); the wrappers must be in
place before systems are built, because right-hand-side factories bind their
supply callables at build time.

Work counts are recorded where the work happens:

- integrators: accepted steps (`len(times) - 1`), and the right-hand side
  they are given is wrapped so that every evaluation is a `numerics.rhs`
  span;
- `numerics.fd_*`: calls of the function being differenced;
- `numerics.newton_solve`: iterations;
- `maglag.write_csv`: bytes written.

Spans live in flat arrays and are written out once, when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from array import array
from pathlib import Path

import numpy as np

REQUEST = "request"
RHS = "numerics.rhs"
INTEGRATORS = ("numerics.integrate_ode", "numerics.rk4_integrate",
               "numerics.rkf45_integrate")
STEPPERS = INTEGRATORS + ("numerics.rk4_step",)


def _map_first(first: str | None, args: tuple, kwargs: dict, fn):
    """Apply `fn` to the first parameter, passed by position or by name."""
    if args:
        return (fn(args[0]),) + args[1:], kwargs
    if first in kwargs:
        return args, {**kwargs, first: fn(kwargs[first])}
    return args, kwargs


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack = [-1]
        self._request = -1
        self._recording = True
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request_id.append(self._request)
        self.work.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int, work: int = 0) -> None:
        self.end[sid] = time.perf_counter()
        if work:
            self.work[sid] = work
        self._stack.pop()

    @contextlib.contextmanager
    def request(self, request_id: int):
        """Root span of one request; every span inside carries its id."""
        self._request = request_id
        sid = self.open(self.intern(REQUEST))
        try:
            yield
        finally:
            self.close(sid)
            self._request = -1

    @contextlib.contextmanager
    def unrecorded(self):
        """Calls made inside (the benchmark's own checks) leave no spans."""
        self._recording = False
        try:
            yield
        finally:
            self._recording = True

    # -- wrapping ------------------------------------------------------------

    def rhs(self, f):
        """Wrap an ODE right-hand side so each evaluation is a span."""
        if getattr(f, "_bench_rhs", False):
            return f
        nid = self.intern(RHS)

        @functools.wraps(f)
        def traced_rhs(*args, **kwargs):
            sid = self.open(nid)
            try:
                return f(*args, **kwargs)
            finally:
                self.close(sid)

        traced_rhs._bench_rhs = True
        return traced_rhs

    def wrap(self, qualname: str, fn):
        """A recording wrapper around one public function."""
        nid = self.intern(qualname)
        params = list(inspect.signature(fn).parameters)
        first = params[0] if params else None
        tracer = self
        integrator = qualname in INTEGRATORS
        takes_rhs = qualname in STEPPERS
        differences = qualname.startswith("numerics.fd_")
        newton = qualname == "numerics.newton_solve"
        csv = qualname == "maglag.write_csv"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            calls = None
            if takes_rhs:
                args, kwargs = _map_first(first, args, kwargs, tracer.rhs)
            elif differences:
                calls = [0]

                def counting(f):
                    def counted(*a, **k):
                        calls[0] += 1
                        return f(*a, **k)
                    return counted

                args, kwargs = _map_first(first, args, kwargs, counting)
            sid = tracer.open(nid)
            work = 0
            try:
                out = fn(*args, **kwargs)
                if integrator:
                    work = len(out[0]) - 1
                elif newton:
                    work = out.iterations
                elif csv:
                    work = os.path.getsize(args[0] if args else kwargs["path"])
                return out
            except Exception as exc:
                if newton and hasattr(exc, "trace"):
                    work = len(exc.trace) - 1
                raise
            finally:
                if calls is not None:
                    work = calls[0]
                tracer.close(sid, work)

        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Wrap the public functions defined in each module (short name ->
        module object); `uninstall` restores them."""
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    self._installed.append((mod, name, obj))
                    setattr(mod, name, self.wrap(f"{short}.{name}", obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._installed):
            setattr(mod, name, obj)
        self._installed.clear()

    # -- output --------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "request": np.frombuffer(self.request_id, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "work": np.frombuffer(self.work, dtype=np.int64).copy()}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.spans())


# ---------------------------------------------------------------------------
# analysis


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    covered = [0.0] * len(start)
    s, e, up = start.tolist(), end.tolist(), parent.tolist()
    reach = 0.0
    last = -2
    for i in np.lexsort((start, parent)).tolist():
        p = up[i]
        if p < 0:
            continue
        if p != last:
            last, reach = p, s[p]
        lo = max(s[i], reach)
        hi = min(e[i], e[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - np.array(covered)


def under(mask: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """True for spans that have a strict ancestor in `mask`."""
    has_parent = parent >= 0
    up = np.where(has_parent, parent, 0)
    inside = np.zeros(len(mask), dtype=bool)
    while True:
        nxt = has_parent & (mask[up] | inside[up])
        if np.array_equal(nxt, inside):
            return inside
        inside = nxt


def layer_metrics(spans: dict[str, np.ndarray], names: list[str],
                  n_requests: int) -> dict[str, float]:
    """Per-layer metrics from a span set, per request except the ratio
    (`trace_overhead_ratio` needs the untraced run and is added by the
    worker).  Names and units are listed in BENCHMARK.json."""
    name, parent, work = spans["name"], spans["parent"], spans["work"]
    dur = spans["end"] - spans["start"]
    own = self_times(spans["start"], spans["end"], parent)

    def m(*qualnames: str, prefix: str | None = None) -> np.ndarray:
        ids = [i for i, n in enumerate(names)
               if n in qualnames or (prefix is not None and n.startswith(prefix))]
        return np.isin(name, ids)

    def inclusive(mask):  # outermost spans only, so recursion counts once
        return float(dur[mask & ~under(mask, parent)].sum())

    rhs = m(RHS)
    rkf = m("numerics.rkf45_integrate")
    fd = m(prefix="numerics.fd_")
    newton = m("numerics.newton_solve")
    psi = m("compat.solve_psi")
    csv = m("maglag.write_csv")
    attempted = int((rhs & under(rkf, parent)).sum()) / 6.0
    accepted = int(work[rkf & ~under(rkf, parent)].sum())
    totals = {
        "numerics.rhs_evals": int(rhs.sum()),
        "numerics.rhs_s": inclusive(rhs),
        "numerics.stepper_self_s": float(own[m(*STEPPERS)].sum()),
        "numerics.rkf45_attempted_steps": attempted,
        "numerics.fd_calls": int(fd.sum()),
        "numerics.fd_fevals": int(work[fd & ~under(fd, parent)].sum()),
        "numerics.fd_s": inclusive(fd),
        "numerics.newton_calls": int(newton.sum()),
        "numerics.newton_iters": int(work[newton].sum()),
        "numerics.newton_s": inclusive(newton),
        "numerics.lie_step_s": inclusive(m("numerics.lie_step")),
        "lie.calls": int(m(prefix="lie.").sum()),
        "lie.s": inclusive(m(prefix="lie.")),
        "maglag.integrate_self_s": float(own[m("maglag.integrate")].sum()),
        "routh.integrate_self_s": float(own[m("routh.integrate_reduced")].sum()),
        "routh.reduced_energy_s": inclusive(m("routh.reduced_energy")),
        "maglag.csv_bytes": int(work[csv].sum()),
        "maglag.csv_s": inclusive(csv),
        "cli.run_config_self_s": float(own[m("cli.run_config")].sum()),
        "models.rotor_full_s": inclusive(m("models.rotor_full_trajectory")),
        "routh.solve_chi_calls": int(m("routh.solve_chi").sum()),
        "routh.solve_chi_s": inclusive(m("routh.solve_chi")),
        "compat.psi_calls": int(psi.sum()),
        "compat.psi_newton_iters": int(work[newton & under(psi, parent)].sum()),
        "compat.psi_s": inclusive(psi),
        "compat.verify_s": inclusive(m("compat.verify_symplectomorphism")),
        "maglag.form_matrix_s": inclusive(m("maglag.symplectic_form_matrix")),
        "semidirect.equivalence_self_s": float(
            own[m("semidirect.build_stage_equivalence")].sum()),
        "semidirect.orbit_kks_calls": int(m("semidirect.orbit_kks").sum()),
        "semidirect.lemma_s": inclusive(m("semidirect.verify_lemma_B_equals_dtheta")),
    }
    out = {k: v / n_requests for k, v in totals.items()}
    # accepted / attempted rkf45 steps; 0 when the workload runs no rkf45 step
    out["numerics.step_accept_ratio"] = accepted / attempted if attempted else 0.0
    return out
