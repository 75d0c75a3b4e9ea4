"""Group/algebra kernel: brackets, actions, exponentials, semi-direct
products, and the structural invariants of every concrete instance."""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magreduce import lie
from magreduce.lie import AlgebraVector, CoVector
from oracles import inf_coadjoint

SPECS = (lie.circle(), lie.so3(), lie.translations(3), lie.se2())


def test_bracket_so3_matches_cross_product(rng):
    spec = lie.so3()
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    out = lie.bracket(spec, AlgebraVector(e1), AlgebraVector(e2))
    assert np.array_equal(out.coords, np.array([0.0, 0.0, 1.0]))
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        out = lie.bracket(spec, AlgebraVector(a), AlgebraVector(b))
        assert np.max(np.abs(out.coords - np.cross(a, b))) < 1e-15


def test_bracket_abelian_vanishes(rng):
    for spec in (lie.circle(), lie.translations(3)):
        a = AlgebraVector(rng.normal(size=spec.dim))
        b = AlgebraVector(rng.normal(size=spec.dim))
        assert np.array_equal(lie.bracket(spec, a, b).coords, np.zeros(spec.dim))


def test_bracket_se2_formula():
    spec = lie.se2()
    out = lie.bracket(spec, AlgebraVector([1.0, 0.0, 0.0]),
                      AlgebraVector([0.0, 1.0, 0.0]))
    # base part vanishes, translation part is i * 1
    assert np.max(np.abs(out.coords - np.array([0.0, 0.0, 1.0]))) < 1e-15


def test_bracket_antisymmetric_exactly(rng):
    for spec in SPECS:
        for _ in range(10):
            a = AlgebraVector(rng.normal(size=spec.dim))
            b = AlgebraVector(rng.normal(size=spec.dim))
            lhs = lie.bracket(spec, a, b).coords
            rhs = -lie.bracket(spec, b, a).coords
            assert np.array_equal(lhs, rhs)


def test_jacobi_identity_basis_triples():
    for spec in SPECS:
        eye = np.eye(spec.dim)
        for a in range(spec.dim):
            for b in range(spec.dim):
                for c in range(spec.dim):
                    ea, eb, ec = (AlgebraVector(eye[i]) for i in (a, b, c))
                    s = (lie.bracket(spec, ea, lie.bracket(spec, eb, ec))
                         + lie.bracket(spec, eb, lie.bracket(spec, ec, ea))
                         + lie.bracket(spec, ec, lie.bracket(spec, ea, eb)))
                    assert np.max(np.abs(s.coords)) <= 1e-10


def test_inf_coadjoint_so3_cross():
    spec = lie.so3()
    out = inf_coadjoint(spec, AlgebraVector([1.0, 0.0, 0.0]),
                        CoVector([0.0, 1.0, 0.0]))
    # m x xi with m = e2, xi = e1
    assert np.max(np.abs(out.coords - np.array([0.0, 0.0, -1.0]))) < 1e-15


def test_inf_coadjoint_abelian_zero(rng):
    spec = lie.translations(3)
    out = inf_coadjoint(spec, AlgebraVector(rng.normal(size=3)),
                        CoVector(rng.normal(size=3)))
    assert np.array_equal(out.coords, np.zeros(3))


def test_inf_coadjoint_duality(rng):
    # <ad*_xi nu, eta> = <nu, [xi, eta]> for every basis eta
    for spec in SPECS:
        eye = np.eye(spec.dim)
        for _ in range(10):
            xi = AlgebraVector(rng.normal(size=spec.dim))
            nu = CoVector(rng.normal(size=spec.dim))
            out = inf_coadjoint(spec, xi, nu)
            for j in range(spec.dim):
                eta = AlgebraVector(eye[j])
                lhs = lie.pair(out, eta)
                rhs = lie.pair(nu, lie.bracket(spec, xi, eta))
                assert abs(lhs - rhs) <= 1e-12


def test_adjoint_identity(rng):
    for spec in SPECS:
        xi = AlgebraVector(rng.normal(size=spec.dim))
        out = lie.adjoint(spec, lie.identity(spec), xi)
        assert np.max(np.abs(out.coords - xi.coords)) < 1e-14


def test_adjoint_se2_rotation():
    out = lie.adjoint(lie.se2(), lie.GroupElement((np.pi / 2, np.zeros(2))),
                      AlgebraVector([0.0, 1.0, 0.0]))
    assert np.max(np.abs(out.coords - np.array([0.0, 0.0, 1.0]))) < 1e-12


def test_adjoint_so3_half_turn():
    r = lie.rodrigues(np.array([0.0, 0.0, np.pi]))
    out = lie.adjoint(lie.so3(), lie.GroupElement(r), AlgebraVector([1.0, 0.0, 0.0]))
    assert np.max(np.abs(out.coords - np.array([-1.0, 0.0, 0.0]))) < 1e-12


def test_adjoint_rejects_bad_payload():
    bad = np.eye(3)
    bad[0, 0] = 1.5
    with pytest.raises(ValueError):
        lie.adjoint(lie.so3(), lie.GroupElement(bad), AlgebraVector([1.0, 0, 0]))


def test_coadjoint_identity(rng):
    for spec in SPECS:
        nu = CoVector(rng.normal(size=spec.dim))
        out = lie.coadjoint(spec, lie.identity(spec), nu)
        assert np.max(np.abs(out.coords - nu.coords)) < 1e-14


def test_coadjoint_se2_rotation_only():
    # pure rotation acts on the translation momentum by e^{-i theta}
    theta = 0.7
    nu = CoVector([2.0, 1.0, 0.5])
    out = lie.coadjoint(lie.se2(), lie.GroupElement((theta, np.zeros(2))), nu)
    z = complex(nu.coords[1], nu.coords[2]) * np.exp(-1j * theta)
    assert abs(out.coords[0] - 2.0) < 1e-14
    assert abs(complex(out.coords[1], out.coords[2]) - z) < 1e-14


def test_coadjoint_se2_translation_only():
    # pure translation shifts the rotational momentum by -Re(-i a zbar)
    z = complex(0.4, -1.1)
    a = complex(0.8, 0.3)
    nu = CoVector([2.0, a.real, a.imag])
    out = lie.coadjoint(lie.se2(), lie.GroupElement((0.0, np.array([z.real, z.imag]))), nu)
    shift = (-1j * a * z.conjugate()).real
    assert abs(out.coords[0] - (2.0 - shift)) < 1e-14
    assert np.max(np.abs(out.coords[1:] - nu.coords[1:])) < 1e-14


def test_coadjoint_right_action_law(rng):
    for spec in SPECS:
        for _ in range(100):
            g = lie.GroupElement(spec.sample_fn(rng))
            h = lie.GroupElement(spec.sample_fn(rng))
            nu = CoVector(rng.normal(size=spec.dim))
            lhs = lie.coadjoint(spec, g, lie.coadjoint(spec, h, nu))
            rhs = lie.coadjoint(spec, lie.compose(spec, h, g), nu)
            assert np.max(np.abs(lhs.coords - rhs.coords)) < 1e-10


def test_exponential_zero_is_identity():
    for spec in SPECS:
        g = lie.exponential(spec, AlgebraVector(np.zeros(spec.dim)))
        if spec.is_semidirect:
            assert np.max(np.abs(g.payload[1])) == 0.0
        elif spec.name == "SO3":
            assert np.array_equal(g.payload, np.eye(3))
        else:
            assert np.max(np.abs(np.atleast_1d(g.payload))) == 0.0


def test_exponential_so3_rodrigues():
    g = lie.exponential(lie.so3(), AlgebraVector([0.0, 0.0, np.pi]))
    expected = np.diag([-1.0, -1.0, 1.0])
    assert np.max(np.abs(g.payload - expected)) < 1e-12


def test_exponential_se2_series():
    # closed-form screw against the 4-term series for small t
    spec = lie.se2()
    xi = np.array([0.8, 0.5, -0.3])
    t = 1e-2
    g = lie.exponential(spec, AlgebraVector(xi), t)
    a = spec.rep_inf(xi[:1] * t)
    u = t * xi[1:]
    series = u + 0.5 * a @ u + (a @ a @ u) / 6.0 + (a @ a @ a @ u) / 24.0
    assert abs(g.payload[0] - t * xi[0]) < 1e-15
    assert np.max(np.abs(g.payload[1] - series)) < 1e-12


def test_exponential_one_parameter_property(rng):
    for spec in SPECS:
        xi = AlgebraVector(rng.normal(size=spec.dim))
        for s, t in ((0.3, 0.5), (1.1, -0.4)):
            lhs = lie.exponential(spec, xi, s + t)
            rhs = lie.compose(spec, lie.exponential(spec, xi, s),
                              lie.exponential(spec, xi, t))
            if spec.is_semidirect:
                gl, gr = lhs.payload, rhs.payload
                assert abs(np.exp(1j * gl[0]) - np.exp(1j * gr[0])) < 1e-9
                assert np.max(np.abs(gl[1] - gr[1])) < 1e-9
            elif spec.name == "S1":
                assert abs(np.exp(1j * lhs.payload) - np.exp(1j * rhs.payload)) < 1e-9
            else:
                assert np.max(np.abs(np.asarray(lhs.payload)
                                     - np.asarray(rhs.payload))) < 1e-9


def test_make_semidirect_reproduces_se2_bracket(rng):
    spec = lie.se2()
    for _ in range(20):
        z1, z2 = rng.normal(size=3), rng.normal(size=3)
        out = lie.bracket(spec, AlgebraVector(z1), AlgebraVector(z2))
        # [xi1, xi2] = 0 on the circle; translation part xi1 u2 - xi2 u1
        rot = lambda xi, u: xi * np.array([-u[1], u[0]])
        expected = np.concatenate([[0.0], rot(z1[0], z2[1:]) - rot(z2[0], z1[1:])])
        assert np.max(np.abs(out.coords - expected)) < 1e-14


def test_make_semidirect_trivial_rep_block_diagonal(rng):
    spec = lie.make_semidirect(lie.translations(2),
                               rep=lambda g: np.eye(2),
                               rep_inf=lambda xi: np.zeros((2, 2)),
                               vdim=2, name="R2xR2")
    z1, z2 = rng.normal(size=4), rng.normal(size=4)
    out = lie.bracket(spec, AlgebraVector(z1), AlgebraVector(z2))
    assert np.array_equal(out.coords, np.zeros(4))


def test_make_semidirect_adjoint_formula(rng):
    spec = lie.se2()
    for _ in range(20):
        g = lie.GroupElement(spec.sample_fn(rng))
        theta, v = g.payload
        z = rng.normal(size=3)
        out = lie.adjoint(spec, g, AlgebraVector(z))
        # (Ad_g xi, g u - (Ad_g xi) v) with the plane rotation action
        xi, u = z[0], z[1:]
        gu = spec.rep(theta) @ u
        xiv = xi * np.array([-v[1], v[0]])
        expected = np.concatenate([[xi], gu - xiv])
        assert np.max(np.abs(out.coords - expected)) < 1e-10


def test_make_semidirect_rejects_bad_rep():
    with pytest.raises(ValueError):
        lie.make_semidirect(lie.circle(),
                            rep=lambda theta: 2.0 * np.eye(2),
                            rep_inf=lambda xi: np.zeros((2, 2)), vdim=2)
    with pytest.raises(ValueError):
        lie.make_semidirect(lie.circle(),
                            rep=lambda theta: lie._rotmat(theta),
                            rep_inf=lambda xi: np.zeros((2, 2)), vdim=2)


@functools.lru_cache(maxsize=None)
def circle_on_plane(k: int) -> lie.LieGroupSpec:
    """The circle acting on the plane by rotation at rate k (a representation
    of the circle for integer k only)."""
    return lie.make_semidirect(
        lie.circle(), rep=lambda theta: lie._rotmat(k * theta),
        rep_inf=lambda xi: k * np.array([[0.0, -float(xi[0])], [float(xi[0]), 0.0]]),
        vdim=2, name=f"S1xR2_rate{k}")


rate = st.integers(-3, 3)
algebra = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3).map(np.array)
element = st.tuples(st.floats(0.0, 2.0 * np.pi, exclude_max=True),
                    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2).map(np.array))


@settings(max_examples=200, deadline=None)
@given(k=rate, x=algebra, y=algebra, z=algebra)
def test_semidirect_jacobi_on_random_elements(k, x, y, z):
    # validate_spec checks basis triples only
    br = circle_on_plane(k).bracket_fn
    s = br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))
    assert np.max(np.abs(s)) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(k=rate, g=element, h=element)
def test_semidirect_ad_homomorphism_on_random_elements(k, g, h):
    spec = circle_on_plane(k)
    lhs = spec.adjoint_fn(spec.compose_fn(g, h))
    rhs = spec.adjoint_fn(g) @ spec.adjoint_fn(h)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_se2_dual_isotropy_trivial_on_grid():
    # the dual action e^{-i theta} a fixes a nonzero a only at theta = 0;
    # fixed points of the full coadjoint action form the line (0, c*a).
    spec = lie.se2()
    a = CoVector([0.7, -0.4])
    for theta in np.linspace(0.05, 2 * np.pi - 0.05, 60):
        moved = lie.dual_action(spec, lie.exponential(lie.circle(), AlgebraVector([theta])), a)
        assert np.max(np.abs(moved.coords - a.coords)) > 1e-3
    # identity angle fixes it
    fixed = lie.dual_action(spec, lie.identity(lie.circle()), a)
    assert np.max(np.abs(fixed.coords - a.coords)) < 1e-14
    # full-action fixed points: (theta, z) fixes (mu, a) iff theta = 0 and
    # z is parallel to a
    mu_a = CoVector([1.3, 0.7, -0.4])
    for c in (-1.5, 0.5, 2.0):
        g = lie.GroupElement((0.0, c * np.array([0.7, -0.4])))
        out = lie.coadjoint(spec, g, mu_a)
        assert np.max(np.abs(out.coords - mu_a.coords)) < 1e-14
    g = lie.GroupElement((0.0, np.array([0.4, 0.7])))  # not parallel to a
    out = lie.coadjoint(spec, g, mu_a)
    assert np.max(np.abs(out.coords - mu_a.coords)) > 1e-3


def test_so3_orthogonality_drift_composed_exponentials(rng):
    spec = lie.so3()
    g = lie.identity(spec)
    for _ in range(10_000):
        g = lie.compose(spec, g,
                        lie.exponential(spec, AlgebraVector(rng.normal(size=3)), 1e-2))
    r = g.payload
    assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-8
    assert abs(np.linalg.det(r) - 1.0) <= 1e-8


def test_semantic_types_not_interchangeable():
    spec = lie.so3()
    with pytest.raises(TypeError):
        lie.bracket(spec, CoVector([1, 0, 0]), AlgebraVector([0, 1, 0]))
    with pytest.raises(TypeError):
        inf_coadjoint(spec, AlgebraVector([1, 0, 0]), AlgebraVector([0, 1, 0]))
    with pytest.raises(TypeError):
        lie.pair(AlgebraVector([1, 0, 0]), AlgebraVector([0, 1, 0]))


@pytest.mark.parametrize("left, right", [(CoVector([1.0]), AlgebraVector([1.0])),
                                         (AlgebraVector([1.0]), CoVector([1.0]))])
def test_covector_and_algebra_vector_refuse_each_other(left, right):
    with pytest.raises(TypeError, match="cannot combine"):
        left + right
    with pytest.raises(TypeError, match="cannot combine"):
        left - right
    assert type(left + left) is type(left) and type(left - left) is type(left)


def test_dimension_mismatch_errors():
    spec = lie.so3()
    with pytest.raises(ValueError):
        lie.bracket(spec, AlgebraVector([1.0, 0.0]), AlgebraVector([0, 1, 0]))
    with pytest.raises(ValueError):
        inf_coadjoint(spec, AlgebraVector([1, 0, 0]), CoVector([0, 1]))


def test_circle_angle_normalized():
    g = lie.compose(lie.circle(), lie.exponential(lie.circle(), AlgebraVector([5.0])),
                    lie.exponential(lie.circle(), AlgebraVector([2.0])))
    assert 0.0 <= g.payload < 2.0 * np.pi


def numpy_rotation(theta):
    """Rotation matrix of an angle, or one per angle of an array, from
    np.cos and np.sin: the reference for the circle chart on floats."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def test_circle_chart_on_floats_is_numpys():
    theta = np.random.default_rng(7).uniform(-50.0, 50.0, 100_000)
    wrapped = np.mod(theta, 2.0 * np.pi)
    assert np.array_equal([lie._wrap_angle(t) for t in theta], wrapped)
    assert np.array_equal(lie._circle_exp(theta[:, None]), wrapped)
    for angles in (theta, wrapped):
        rotations = numpy_rotation(angles)
        assert np.array_equal([lie._rotmat(t) for t in angles], rotations)
        assert np.array_equal(lie._rotmat(angles), rotations)


@pytest.mark.parametrize("theta", [-1e-300, -5e-324, -0.0, np.nextafter(-2.0 * np.pi, -np.inf),
                                   np.nextafter(-2.0 * np.pi, 0.0)])
def test_circle_angles_stay_below_two_pi(theta):
    # a tiny negative angle mod 2pi rounds up to 2pi itself: it maps to 0
    one = lie._wrap_angle(theta)
    assert 0.0 <= one < 2.0 * np.pi
    if abs(theta) < 1.0:
        assert np.array(one).tobytes() == np.array(0.0).tobytes()
    assert lie._circle_exp(np.array([[theta]]))[0].tobytes() == np.array(one).tobytes()
    assert lie.exponential(lie.circle(), AlgebraVector([theta])).payload == one
    assert lie.exponential(lie.se2(), AlgebraVector([theta, 1.0, 0.0])).payload[0] == one


@pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan])
def test_circle_chart_of_a_non_finite_angle_is_numpys(theta):
    # math.cos(inf) raises where np.cos gives NaN: the chart keeps the NaN
    with np.errstate(invalid="ignore"):
        rotation = numpy_rotation(theta)
        assert np.isnan(lie._circle_exp(np.array([[theta]]))[0])
        assert np.array_equal(lie._rotmat(np.array([theta]))[0], rotation, equal_nan=True)
    assert np.isnan(lie._wrap_angle(theta))
    assert np.array_equal(lie._rotmat(theta), rotation, equal_nan=True)


def test_rodrigues_rows_are_one_point_calls_bit_for_bit(rng):
    w = rng.normal(size=(300, 3)) * rng.choice([1e-15, 1e-13, 1e-6, 1.0, 10.0], size=(300, 1))
    w[0] = 0.0
    w[1] = [-0.0, 5e-13, 0.0]
    assert np.sum(np.linalg.norm(w, axis=1) < 1e-12) >= 20
    rows = lie.rodrigues(w)
    assert rows.shape == (300, 3, 3)
    for r, v in zip(rows, w):
        one = lie.rodrigues(v)
        assert np.array_equal(r, one)
        # the one-point closed form: theta = |v|, series below 1e-12
        theta = float(np.linalg.norm(v))
        k = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
        if theta < 1e-12:
            expected = np.eye(3) + k + 0.5 * (k @ k)
        else:
            expected = (np.eye(3) + np.sin(theta) / theta * k
                        + (1.0 - np.cos(theta)) / theta ** 2 * (k @ k))
        assert np.array_equal(one, expected)
    assert np.array_equal(rows[0], np.eye(3))
