"""Lie group/algebra kernel.

Brackets, adjoint and coadjoint actions, exponentials, and a semi-direct
product constructor, with concrete instances for the circle, SO(3), R^n and
SE(2).  Algebra elements and their duals are kept as distinct value types so
that momenta and velocities cannot be swapped silently.

Conventions:
  * duals pair with the coordinate pairing <nu, xi> = sum(nu_i * xi^i);
  * Ad*_g is the matrix transpose of Ad_g in these coordinates, which makes
    the coadjoint action a right action;
  * the complex plane is identified with R^2 by (x, y) <-> x + iy.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any, Callable

import numpy as np

from . import numerics

ORTHO_TOL = 1e-10
# Matrix payloads are re-orthonormalized after this many chained compositions.
PROJECT_EVERY = 100


def _freeze(arr) -> np.ndarray:
    a = np.array(arr, dtype=float)
    a.setflags(write=False)
    return a


def _same_kind(vec, other):
    """`other` when it has the class of `vec`; TypeError otherwise."""
    if type(other) is not type(vec):
        raise TypeError(f"cannot combine {type(vec).__name__} with "
                        f"{type(other).__name__}")
    return other


@dataclass(frozen=True)
class _Coordinates:
    """Coordinates of an element of a Lie algebra or of its dual.  The two
    subclasses are distinct types, and arithmetic combines only equal types
    (`_same_kind`)."""
    coords: np.ndarray
    _noun = "vector"  # what messages call the element

    def __post_init__(self):
        object.__setattr__(self, "coords", _freeze(self.coords))
        if self.coords.ndim != 1:
            raise ValueError(f"{self._noun} must be one-dimensional")

    def __len__(self) -> int:
        return self.coords.size

    def __add__(self, other):
        return type(self)(self.coords + _same_kind(self, other).coords)

    def __sub__(self, other):
        return type(self)(self.coords - _same_kind(self, other).coords)

    def __mul__(self, s: float):
        return type(self)(self.coords * s)

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(-self.coords)


@dataclass(frozen=True)
class AlgebraVector(_Coordinates):
    """Element of a Lie algebra as coordinates in a fixed basis."""
    _noun = "algebra vector"


@dataclass(frozen=True)
class CoVector(_Coordinates):
    """Element of the dual of a Lie algebra, in the dual basis.

    Deliberately not interchangeable with AlgebraVector: operations check
    the semantic type, not just the length.
    """
    _noun = "covector"


def pair(nu: CoVector, xi: AlgebraVector) -> float:
    """Coordinate pairing <nu, xi>."""
    if not isinstance(nu, CoVector) or not isinstance(xi, AlgebraVector):
        raise TypeError("pair expects (CoVector, AlgebraVector)")
    if len(nu) != len(xi):
        raise ValueError("dimension mismatch in pairing")
    return float(nu.coords @ xi.coords)


@dataclass(frozen=True)
class GroupElement:
    """Group element wrapper; `updates` counts compositions since the last
    re-orthonormalization of a matrix payload."""
    payload: Any
    updates: int = 0


@dataclass(frozen=True)
class LieGroupSpec:
    """A concrete group: dimension, bracket, group law and adjoint data.

    `structure[a, b, c]` holds the a-th coordinate of [e_b, e_c]; it is
    tabulated from the bracket at construction so that coadjoint arithmetic
    is a single contraction.  `casimirs` are named functions of one
    covector; one marked with `numerics.takes_rows` also takes stacked
    covectors (N, dim).  Semi-direct products additionally carry the base
    spec and the representation rho / its differential rho'.  A marked
    `exp_fn` also takes stacked algebra elements, and a marked `rep` the
    stacked payloads such an `exp_fn` returns (the exponentials of the
    circle and of SO(3), and the plane rotation of `se2`, are marked).
    """
    name: str
    dim: int
    bracket_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    compose_fn: Callable[[Any, Any], Any]
    inverse_fn: Callable[[Any], Any]
    exp_fn: Callable[[np.ndarray], Any]
    adjoint_fn: Callable[[Any], np.ndarray]
    identity_payload: Any
    check_fn: Callable[[Any], None]
    sample_fn: Callable[[np.random.Generator], Any]
    project_fn: Callable[[Any], Any] | None = None
    structure: np.ndarray | None = None
    casimirs: tuple[tuple[str, Callable[[np.ndarray], float]], ...] = ()
    abelian: bool = False
    # semi-direct product data
    base: "LieGroupSpec | None" = None
    vdim: int = 0
    rep: Callable[[Any], np.ndarray] | None = None
    rep_inf: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.structure is None:
            s = np.zeros((self.dim, self.dim, self.dim))
            eye = np.eye(self.dim)
            for b in range(self.dim):
                for c in range(self.dim):
                    s[:, b, c] = self.bracket_fn(eye[b], eye[c])
            object.__setattr__(self, "structure", _freeze(s))

    @property
    def is_semidirect(self) -> bool:
        return self.base is not None

    @cached_property
    def rep_inf_basis(self) -> np.ndarray:
        """rho'(e_i) over the base basis, shape (base dim, vdim, vdim); built
        on first use and kept with the spec (semi-direct specs only)."""
        if not self.is_semidirect:
            raise ValueError(f"rep_inf_basis requires a semi-direct spec, got {self.name}")
        return _freeze([self.rep_inf(e) for e in np.eye(self.base.dim)])


def _check(spec: LieGroupSpec, v: _Coordinates, kind: type[_Coordinates]):
    """`v` is a `kind` (AlgebraVector or CoVector) of the spec's dimension."""
    if not isinstance(v, kind):
        raise TypeError(f"expected {kind.__name__} for {kind._noun}, got {type(v).__name__}")
    if len(v) != spec.dim:
        raise ValueError(f"{kind._noun} has length {len(v)}, spec {spec.name} has dim {spec.dim}")


def bracket(spec: LieGroupSpec, xi: AlgebraVector, eta: AlgebraVector) -> AlgebraVector:
    """Lie bracket [xi, eta]."""
    _check(spec, xi, AlgebraVector)
    _check(spec, eta, AlgebraVector)
    return AlgebraVector(spec.bracket_fn(xi.coords, eta.coords))


def inf_coadjoint(spec: LieGroupSpec, xi: AlgebraVector, nu: CoVector) -> CoVector:
    """Infinitesimal coadjoint action ad*_xi nu, defined by
    <ad*_xi nu, eta> = <nu, [xi, eta]> for all eta."""
    _check(spec, xi, AlgebraVector)
    _check(spec, nu, CoVector)
    # (ad*_xi nu)_c = sum_{a,b} nu_a xi_b structure[a, b, c]
    return CoVector(np.einsum("a,b,abc->c", nu.coords, xi.coords, spec.structure))


def identity(spec: LieGroupSpec) -> GroupElement:
    return GroupElement(spec.identity_payload)


def compose(spec: LieGroupSpec, g: GroupElement, h: GroupElement) -> GroupElement:
    """Group product g*h, re-projecting matrix payloads periodically."""
    payload = spec.compose_fn(g.payload, h.payload)
    updates = max(g.updates, h.updates) + 1
    if spec.project_fn is not None and updates >= PROJECT_EVERY:
        payload = spec.project_fn(payload)
        updates = 0
    return GroupElement(payload, updates)


def inverse(spec: LieGroupSpec, g: GroupElement) -> GroupElement:
    return GroupElement(spec.inverse_fn(g.payload), g.updates)


def exponential(spec: LieGroupSpec, xi: AlgebraVector, t: float = 1.0) -> GroupElement:
    """Group exponential exp(t*xi)."""
    _check(spec, xi, AlgebraVector)
    z = t * xi.coords
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite exponential argument")
    return GroupElement(spec.exp_fn(z))


def adjoint(spec: LieGroupSpec, g: GroupElement, xi: AlgebraVector) -> AlgebraVector:
    """Adjoint action Ad_g xi."""
    _check(spec, xi, AlgebraVector)
    spec.check_fn(g.payload)
    return AlgebraVector(spec.adjoint_fn(g.payload) @ xi.coords)


def coadjoint(spec: LieGroupSpec, g: GroupElement, nu: CoVector) -> CoVector:
    """Coadjoint action Ad*_g nu = Ad_g^T nu (a right action)."""
    _check(spec, nu, CoVector)
    spec.check_fn(g.payload)
    return CoVector(spec.adjoint_fn(g.payload).T @ nu.coords)


def vstar(spec: LieGroupSpec, v: np.ndarray, a: CoVector) -> CoVector:
    """The map v* : V* -> g* of a semi-direct product, <v*(a), xi> = <a, xi v>."""
    if not spec.is_semidirect:
        raise ValueError(f"vstar requires a semi-direct product spec, got {spec.name}")
    v = np.asarray(v, dtype=float)
    if v.shape != (spec.vdim,):
        raise ValueError(f"v must have length {spec.vdim}")
    if not isinstance(a, CoVector) or len(a) != spec.vdim:
        raise ValueError(f"a must be a CoVector of length {spec.vdim}")
    d0 = spec.base.dim
    eye = np.eye(d0)
    out = np.array([a.coords @ (spec.rep_inf(eye[i]) @ v) for i in range(d0)])
    return CoVector(out)


def dual_action(spec: LieGroupSpec, g: GroupElement, a: CoVector) -> CoVector:
    """Dual action g*a of the base group on V*, <g*a, v> = <a, g v>."""
    if not spec.is_semidirect:
        raise ValueError("dual_action requires a semi-direct product spec")
    if not isinstance(a, CoVector) or len(a) != spec.vdim:
        raise ValueError(f"a must be a CoVector of length {spec.vdim}")
    spec.base.check_fn(g.payload)
    return CoVector(spec.rep(g.payload).T @ a.coords)


def inf_dual_action(spec: LieGroupSpec, xi: AlgebraVector, b: CoVector) -> CoVector:
    """Infinitesimal dual action xi*b on V*, <xi*b, v> = <b, xi v>."""
    if not spec.is_semidirect:
        raise ValueError("inf_dual_action requires a semi-direct product spec")
    if len(xi) != spec.base.dim:
        raise ValueError("xi must belong to the base algebra")
    return CoVector(spec.rep_inf(xi.coords).T @ b.coords)


def sample_element(spec: LieGroupSpec, rng: np.random.Generator) -> GroupElement:
    return GroupElement(spec.sample_fn(rng))


# ---------------------------------------------------------------------------
# concrete instances


def hat(omega: np.ndarray) -> np.ndarray:
    """3-vector to skew matrix, hat(w) v = w x v; one matrix per row of
    stacked vectors (N, 3)."""
    w1, w2, w3 = np.moveaxis(np.asarray(omega, dtype=float), -1, 0)
    z = np.zeros_like(w1)
    return np.stack([z, -w3, w2, w3, z, -w1, -w2, w1, z], -1).reshape(z.shape + (3, 3))


def unhat(m: np.ndarray) -> np.ndarray:
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


@numerics.takes_rows
def rodrigues(omega: np.ndarray) -> np.ndarray:
    """SO(3) exponential of one vector (3,), or per row of stacked vectors
    (N, 3) with the bits of one-point calls (`numerics.rowdot` rounds as
    the one-vector norm); below an angle of 1e-12, I + K + K^2 / 2."""
    omega = np.asarray(omega, dtype=float)
    theta = np.sqrt(numerics.rowdot(omega, omega))[..., None, None]
    k = hat(omega)
    small = theta < 1e-12
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0, np.sin(safe) / safe)
    b = np.where(small, 0.5, (1.0 - np.cos(safe)) / safe ** 2)
    return np.eye(3) + a * k + b * (k @ k)


def _mgs_orthonormalize(r: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt on columns; assumes r is near a rotation."""
    q = np.array(r, dtype=float)
    for i in range(3):
        for j in range(i):
            q[:, i] -= (q[:, j] @ q[:, i]) * q[:, j]
        q[:, i] /= np.linalg.norm(q[:, i])
    return q


def _check_rotation(r) -> None:
    r = np.asarray(r)
    if r.shape != (3, 3):
        raise ValueError("SO(3) payload must be a 3x3 matrix")
    if not np.all(np.isfinite(r)):
        raise ValueError("non-finite rotation payload")
    if np.max(np.abs(r.T @ r - np.eye(3))) > ORTHO_TOL:
        raise ValueError("SO(3) payload is not orthogonal within 1e-10")
    if abs(np.linalg.det(r) - 1.0) > ORTHO_TOL:
        raise ValueError("SO(3) payload must have determinant 1")


def _wrap_angle(theta: float) -> float:
    return float(np.mod(theta, 2.0 * np.pi))


@numerics.takes_rows
def _circle_exp(z: np.ndarray):
    """The angle exp(z) of one circle algebra element z (1,), or the angles
    of stacked elements (N, 1)."""
    if getattr(z, "ndim", 1) == 2:
        return np.mod(z[:, 0], 2.0 * np.pi)
    return _wrap_angle(float(z[0]))


@lru_cache(maxsize=None)
def circle() -> LieGroupSpec:
    """The circle group; elements are angles in [0, 2pi)."""

    def check(theta):
        if not np.isfinite(theta):
            raise ValueError("non-finite circle angle")

    return LieGroupSpec(
        name="S1",
        dim=1,
        bracket_fn=lambda a, b: np.zeros(1),
        compose_fn=lambda a, b: _wrap_angle(a + b),
        inverse_fn=lambda a: _wrap_angle(-a),
        exp_fn=_circle_exp,
        adjoint_fn=lambda a: np.eye(1),
        identity_payload=0.0,
        check_fn=check,
        sample_fn=lambda rng: float(rng.uniform(0.0, 2.0 * np.pi)),
        abelian=True,
    )


@lru_cache(maxsize=None)
def so3() -> LieGroupSpec:
    """Rotation group; elements are 3x3 rotation matrices."""

    def sample(rng):
        return rodrigues(rng.normal(size=3))

    return LieGroupSpec(
        name="SO3",
        dim=3,
        bracket_fn=lambda a, b: np.cross(a, b),
        compose_fn=lambda a, b: np.asarray(a) @ np.asarray(b),
        inverse_fn=lambda a: np.asarray(a).T.copy(),
        exp_fn=rodrigues,
        adjoint_fn=lambda a: np.asarray(a, dtype=float),
        identity_payload=np.eye(3),
        check_fn=_check_rotation,
        project_fn=_mgs_orthonormalize,
        sample_fn=sample,
        casimirs=(("momentum_norm",
                   numerics.takes_rows(lambda nu: np.linalg.norm(nu, axis=-1))),),
    )


@lru_cache(maxsize=None)
def translations(n: int) -> LieGroupSpec:
    """The abelian group R^n."""

    def check(v):
        v = np.asarray(v)
        if v.shape != (n,) or not np.all(np.isfinite(v)):
            raise ValueError(f"R^{n} payload must be a finite {n}-vector")

    return LieGroupSpec(
        name=f"R{n}",
        dim=n,
        bracket_fn=lambda a, b: np.zeros(n),
        compose_fn=lambda a, b: np.asarray(a, dtype=float) + np.asarray(b, dtype=float),
        inverse_fn=lambda a: -np.asarray(a, dtype=float),
        exp_fn=lambda z: np.array(z, dtype=float),
        adjoint_fn=lambda a: np.eye(n),
        identity_payload=np.zeros(n),
        check_fn=check,
        sample_fn=lambda rng: rng.normal(size=n),
        abelian=True,
    )


def make_semidirect(base: LieGroupSpec,
                    rep: Callable[[Any], np.ndarray],
                    rep_inf: Callable[[np.ndarray], np.ndarray],
                    vdim: int,
                    name: str | None = None,
                    exp_fn: Callable[[np.ndarray], Any] | None = None,
                    casimirs: tuple = ()) -> LieGroupSpec:
    """Build the semi-direct product of `base` acting linearly on R^vdim.

    Elements are pairs (g, v) with product (g1, v1)(g2, v2) =
    (g1 g2, v1 + g1 v2).  The bracket and adjoint are derived from the
    representation; the exponential integrates the translation part with a
    matrix phi_1 function unless a closed form is supplied.

    The representation is validated: rho(e) must be the identity and, along
    each basis direction xi, rho'(xi) must match the central difference
    (numerics.fd_jacobian) of t -> rho(exp(t xi)) at 0 within 1e-6.
    """
    d0 = base.dim
    dim = d0 + vdim
    name = name or f"{base.name}xR{vdim}"

    r_e = rep(base.identity_payload)
    if np.max(np.abs(r_e - np.eye(vdim))) > 1e-12:
        raise ValueError("rep(identity) must be the identity matrix")
    # column i: d/dt rho(exp(t e_i)) at t = 0, flattened
    drho = numerics.fd_jacobian(lambda xi: np.ravel(rep(base.exp_fn(xi))), (np.zeros(d0),))
    for i, e in enumerate(np.eye(d0)):
        if np.max(np.abs(drho[:, i].reshape(vdim, vdim) - rep_inf(e))) > 1e-6:
            raise ValueError(
                f"rep_inf is inconsistent with rep along basis direction {i}")

    def br(z1, z2):
        xi1, u1 = z1[:d0], z1[d0:]
        xi2, u2 = z2[:d0], z2[d0:]
        top = base.bracket_fn(xi1, xi2)
        bottom = rep_inf(xi1) @ u2 - rep_inf(xi2) @ u1
        return np.concatenate([top, bottom])

    def comp(p1, p2):
        g1, v1 = p1
        g2, v2 = p2
        return (base.compose_fn(g1, g2), v1 + rep(g1) @ v2)

    def inv(p):
        g, v = p
        gi = base.inverse_fn(g)
        return (gi, -(rep(gi) @ v))

    def adj(p):
        g, v = p
        a = base.adjoint_fn(g)
        r = rep(g)
        m = np.column_stack([rep_inf(a[:, i]) @ v for i in range(d0)])
        out = np.zeros((dim, dim))
        out[:d0, :d0] = a
        out[d0:, :d0] = -m
        out[d0:, d0:] = r
        return out

    def generic_exp(z):
        import scipy.linalg  # here, so that importing the package does not load scipy
        xi, u = z[:d0], z[d0:]
        g = base.exp_fn(xi)
        aug = np.zeros((vdim + 1, vdim + 1))
        aug[:vdim, :vdim] = rep_inf(xi)
        aug[:vdim, vdim] = u
        v = scipy.linalg.expm(aug)[:vdim, vdim]
        return (g, v)

    def check(p):
        g, v = p
        base.check_fn(g)
        v = np.asarray(v)
        if v.shape != (vdim,) or not np.all(np.isfinite(v)):
            raise ValueError(f"translation payload must be a finite {vdim}-vector")

    def project(p):
        g, v = p
        return (base.project_fn(g) if base.project_fn else g, v)

    spec = LieGroupSpec(
        name=name,
        dim=dim,
        bracket_fn=br,
        compose_fn=comp,
        inverse_fn=inv,
        exp_fn=exp_fn or generic_exp,
        adjoint_fn=adj,
        identity_payload=(base.identity_payload, np.zeros(vdim)),
        check_fn=check,
        project_fn=project if base.project_fn else None,
        sample_fn=lambda rng: (base.sample_fn(rng), rng.normal(size=vdim)),
        casimirs=casimirs,
        base=base,
        vdim=vdim,
        rep=rep,
        rep_inf=rep_inf,
    )
    validate_spec(spec)
    return spec


# complex <-> R^2 identification

def c2r(z: complex) -> np.ndarray:
    return np.array([z.real, z.imag])


@numerics.takes_rows
def _rotmat(theta) -> np.ndarray:
    """Rotation matrix of one angle, or one per angle of an array (N, 2, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    if getattr(theta, "ndim", 0) == 0:
        return np.array([[c, -s], [s, c]])
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def _se2_exp(z: np.ndarray):
    """Closed-form screw motion for the planar Euclidean group."""
    xi, u = float(z[0]), z[1:]
    theta = _wrap_angle(xi)
    if abs(xi) < 1e-12:
        return (theta, u.copy())
    s, c = np.sin(xi), np.cos(xi)
    m = np.array([[s, -(1.0 - c)], [1.0 - c, s]]) / xi
    return (theta, m @ u)


@lru_cache(maxsize=None)
def se2() -> LieGroupSpec:
    """Planar Euclidean group as the circle acting on R^2 ~ C by rotation."""
    return make_semidirect(
        circle(),
        rep=_rotmat,
        rep_inf=lambda xi: np.array([[0.0, -float(xi[0])], [float(xi[0]), 0.0]]),
        vdim=2,
        name="SE2",
        exp_fn=_se2_exp,
        casimirs=(("translation_momentum_norm",
                   numerics.takes_rows(lambda nu: np.linalg.norm(nu[..., 1:3], axis=-1))),),
    )


def circle_element(theta: float) -> GroupElement:
    return GroupElement(_wrap_angle(theta))


def so3_element(r: np.ndarray) -> GroupElement:
    _check_rotation(r)
    return GroupElement(np.array(r, dtype=float))


def se2_element(theta: float, z: complex | np.ndarray) -> GroupElement:
    v = c2r(z) if isinstance(z, complex) else np.array(z, dtype=float)
    return GroupElement((_wrap_angle(theta), v))


def registered_specs() -> list[LieGroupSpec]:
    """The concrete instances the toolkit ships with."""
    return [circle(), so3(), translations(3), se2()]


# ---------------------------------------------------------------------------
# validation


def _payload_distance(a, b) -> float:
    """Max-norm distance between two payloads of the same representation."""
    if isinstance(a, tuple):
        return max(_payload_distance(x, y) for x, y in zip(a, b))
    return float(np.max(np.abs(np.asarray(a, dtype=float)
                               - np.asarray(b, dtype=float))))


def validate_spec(spec: LieGroupSpec) -> None:
    """Check the structural invariants of a spec; raises on failure.

    Verifies bracket antisymmetry and the Jacobi identity on basis triples,
    Ad of the identity, the homomorphism property Ad_{gh} = Ad_g Ad_h on
    sampled pairs (20, seeded), and exp(0) = identity.
    """
    rng = np.random.default_rng(0)
    d = spec.dim
    eye = np.eye(d)
    for b in range(d):
        for c in range(d):
            lhs = spec.bracket_fn(eye[b], eye[c])
            rhs = -spec.bracket_fn(eye[c], eye[b])
            if not np.array_equal(lhs, rhs):
                raise ValueError(f"{spec.name}: bracket not antisymmetric on basis ({b},{c})")
    for a in range(d):
        for b in range(d):
            for c in range(d):
                s = (spec.bracket_fn(eye[a], spec.bracket_fn(eye[b], eye[c]))
                     + spec.bracket_fn(eye[b], spec.bracket_fn(eye[c], eye[a]))
                     + spec.bracket_fn(eye[c], spec.bracket_fn(eye[a], eye[b])))
                if np.max(np.abs(s)) > 1e-10:
                    raise ValueError(f"{spec.name}: Jacobi identity fails on ({a},{b},{c})")
    if np.max(np.abs(spec.adjoint_fn(spec.identity_payload) - eye)) > 1e-12:
        raise ValueError(f"{spec.name}: Ad of the identity is not the identity")
    if _payload_distance(spec.exp_fn(np.zeros(d)), spec.identity_payload) > 1e-14:
        raise ValueError(f"{spec.name}: exp(0) is not the identity")
    for _ in range(20):
        g = spec.sample_fn(rng)
        h = spec.sample_fn(rng)
        lhs = spec.adjoint_fn(spec.compose_fn(g, h))
        rhs = spec.adjoint_fn(g) @ spec.adjoint_fn(h)
        if np.max(np.abs(lhs - rhs)) > 1e-10:
            raise ValueError(f"{spec.name}: Ad is not a homomorphism on sampled pair")
