import math

import numpy as np
import pytest

from simplexstab import ellipsoids as el
from simplexstab import geometry as g
from simplexstab import isotropic as iso
from simplexstab.rng import make_rng


class TestMvee:
    def test_cross_polytope_gives_unit_ball(self):
        P = np.vstack([np.eye(3), -np.eye(3)])
        E, w = el.mvee(P)
        assert np.abs(E.shape - np.eye(3)).max() < 1e-10
        assert np.linalg.norm(E.center) < 1e-10
        assert np.abs(w - 1.0 / 6.0).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_simplex_vertices_give_unit_ball(self, n):
        V = g.regular_simplex(n).vertices
        E, w = el.mvee(V)
        assert np.abs(E.shape - np.eye(n)).max() < 1e-8
        assert np.linalg.norm(E.center) < 1e-8
        assert np.abs(w - 1.0 / (n + 1)).max() < 1e-8

    def test_interior_points_get_zero_weight(self):
        rng = make_rng(3)
        inner = 0.4 * rng.standard_normal((6, 3))
        inner /= np.maximum(np.linalg.norm(inner, axis=1), 1.0)[:, None]
        pts = np.vstack([g.regular_simplex(3).vertices, 0.5 * inner])
        E, w = el.mvee(pts, eps=1e-7)
        assert w[4:].max() < 1e-6
        assert np.abs(E.shape - np.eye(3)).max() < 1e-8

    def test_certificate_and_containment(self):
        rng = make_rng(8)
        pts = rng.standard_normal((25, 3))
        E, w = el.mvee(pts, eps=1e-7)
        assert el.mvee_support_residual(pts, w) <= 1e-7
        assert np.all(E.contains_points(pts, tol=1e-9))
        assert abs(w.sum() - 1.0) < 1e-9

    def test_degenerate_points_rejected(self):
        flat = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
        with pytest.raises(g.DegenerateBodyError):
            el.mvee(flat)

    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_affinely_ill_conditioned_clouds(self, n):
        # axis scales 1..1e3 under a random linear map: S^{-1} is not exactly
        # symmetric, and its rounding can leave a contact point outside
        for seed in range(10):
            r = make_rng(seed)
            X = (r.standard_normal((120, n)) * np.geomspace(1, 1e3, n)) @ r.standard_normal((n, n))
            E, w = el.mvee(X)
            assert np.array_equal(E.shape, E.shape.T)
            assert el.mvee_support_residual(X, w) <= 1e-7
            assert np.all(E.contains_points(X))

    def test_eps_range_validated(self):
        with pytest.raises(g.GeometryError):
            el.mvee(np.eye(3), eps=0.7)


class TestPolarEllipsoid:
    def test_centered_ellipsoid_inverts_shape(self):
        A = np.diag([4.0, 0.25])
        E = g.Ellipsoid(np.zeros(2), A)
        P = g.polar(E)
        assert np.abs(P.shape - np.linalg.inv(A)).max() < 1e-12

    def test_shifted_ball_polar_contains_origin(self):
        E = g.Ellipsoid(np.array([0.3, 0.0]), np.eye(2))
        P = g.polar(E)
        # support of the polar equals the gauge of the original on rays
        u = np.array([1.0, 0.0])
        h = float(P.support_many(u[None, :])[0])
        assert abs(h - 1.0 / (1.0 + 0.3)) < 1e-10  # nearest boundary point at 1.3... polar radius 1/1.3

    def test_requires_interior_origin(self):
        E = g.Ellipsoid(np.array([2.0, 0.0]), np.eye(2))
        with pytest.raises(g.GeometryError):
            g.polar(E)


class TestJohnContactMeasure:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_simplex_contact_weights(self, n):
        decomp = el.john_contact_measure(g.regular_simplex(n))
        assert decomp.contacts.k == n + 1
        assert np.abs(decomp.contacts.weights - n / (n + 1.0)).max() < 1e-6
        assert decomp.ok(1e-6)

    def test_scaled_cube_contacts(self):
        c = g.cube(2, half_width=1.0 / math.sqrt(2.0))
        decomp = el.john_contact_measure(c)
        rep = decomp.contacts.validate()
        assert rep.max_residual < 1e-6
        assert abs(decomp.contacts.mass() - 2.0) < 1e-6

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_polytopes_validate(self, n):
        for trial in range(25):
            rng = make_rng(1000 + 31 * n + trial)
            pts = rng.standard_normal((20, n))
            decomp = el.john_contact_measure(g.Polytope(vertices=pts))
            assert decomp.contacts.validate().max_residual < 1e-6
            assert decomp.boundary_residual < 1e-6
            assert decomp.contacts.k <= iso.support_bound(n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_contact_weights_at_most_one(self, n):
        for trial in range(20):
            mu = el.random_isotropic_measure(n, 18, seed=77 * n + trial)
            assert mu.weights.max() <= 1.0 + 1e-6

    def test_contacts_on_body_boundary(self):
        decomp = el.john_contact_measure(g.regular_simplex(3))
        # contact points are vertices of the normalised body on the sphere
        V = decomp.body.vertices
        D = np.linalg.norm(decomp.contacts.points[:, None, :] - V[None, :, :], axis=2)
        assert D.min(axis=1).max() < 1e-6


class TestJohnEllipsoidOfPolar:
    @pytest.mark.parametrize("n", [2, 3])
    def test_polar_simplex_john_ball(self, n):
        E = el.john_ellipsoid_of_polar(g.regular_simplex_polar(n))
        assert np.abs(E.shape - np.eye(n)).max() < 1e-8
        assert np.linalg.norm(E.center) < 1e-8

    def test_scaling_equivariance(self):
        big = g.Polytope(vertices=2.0 * g.regular_simplex_polar(3).vertices)
        E = el.john_ellipsoid_of_polar(big)
        assert np.abs(E.shape - np.eye(3) / 4.0).max() < 1e-8

    def test_ball_from_tangent_halfspaces(self):
        rng = make_rng(5)
        U = rng.standard_normal((100, 2))
        U /= np.linalg.norm(U, axis=1)[:, None]
        body = g.Polytope(halfspaces=(U, np.ones(100)))
        body = g.Polytope(vertices=body.vertices)
        E = el.john_ellipsoid_of_polar(body)
        assert np.abs(E.shape - np.eye(2)).max() < 0.02


class TestRandomIsotropicMeasure:
    def test_generic_triangle_measure(self):
        mu = el.random_isotropic_measure(2, 3, seed=4)
        assert mu.k == 3
        assert mu.validate().max_residual < 1e-6

    def test_determinism(self):
        a = el.random_isotropic_measure(3, 25, seed=11)
        b = el.random_isotropic_measure(3, 25, seed=11)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)

    def test_support_bound_after_reduction(self):
        mu = el.random_isotropic_measure(2, 50, seed=9)
        assert mu.k <= iso.support_bound(2) == 6

    def test_requires_enough_points(self):
        with pytest.raises(g.GeometryError):
            el.random_isotropic_measure(3, 3, seed=0)


def _cross_polytope_cloud(n, seed):
    """A random affine image of the cross-polytope with 23 n interior points."""
    rng = make_rng(seed)
    inner = rng.standard_normal((23 * n, n))
    inner *= 0.6 * rng.uniform(0.0, 1.0, (23 * n, 1)) ** (1.0 / n) / np.linalg.norm(
        inner, axis=1)[:, None]
    R, _ = np.linalg.qr(rng.standard_normal((n, n)))
    points = np.vstack([np.eye(n), -np.eye(n), inner])
    return (points * rng.uniform(0.5, 2.0, n)) @ R.T + rng.standard_normal(n)


def _sphere_cloud(n, m, seed):
    U = make_rng(seed).standard_normal((m, n))
    return U / np.linalg.norm(U, axis=1)[:, None]


_ANGLES = 2.0 * np.pi * np.arange(12) / 12.0
_CLOUDS = {
    **{f"cross{n}": (lambda n=n: _cross_polytope_cloud(n, 40 + n)) for n in range(2, 9)},
    **{f"gauss{m}x{n}": (lambda m=m, n=n: make_rng(m + n).standard_normal((m, n)))
       for m, n in [(30, 2), (200, 3), (400, 5), (1000, 4), (1000, 8)]},
    **{f"circle{s}": (lambda s=s: _sphere_cloud(2, 40, s)) for s in range(3)},
    **{f"sphere{s}": (lambda s=s: _sphere_cloud(3, 40, s)) for s in range(3)},
    "12-gon": lambda: np.c_[np.cos(_ANGLES), np.sin(_ANGLES)],
    "cube3": lambda: g.cube(3).vertices,
    "cube5": lambda: g.cube(5).vertices,
}


def _full_row_weights(X):
    """Reference: one interior-point solve on every lifted row, no active set."""
    return el._interior_point(el._lift(X))


def _full_row_design(X):
    w = _full_row_weights(X)
    return w, el.mvee_support_residual(X, w)


def _design_matrix(X, w):
    Q = el._lift(X)
    return (Q * w[:, None]).T @ Q


def _raw_certificate(X, w):
    """The certificate on the plain lift [X, 1], through an explicit inverse."""
    Q = np.hstack([X, np.ones((X.shape[0], 1))])
    Minv = np.linalg.inv((Q * w[:, None]).T @ Q)
    return np.einsum("ij,jk,ik->i", Q, Minv, Q).max() / Q.shape[1] - 1.0


class TestKhachiyanRankOneUpdates:
    """Named for the Khachiyan loop with rank-one updates that the
    interior-point solver replaced; each test checks the same property of
    the new solver: agreement with a solve on every row, the step budget
    and its error, the rows left out, the core-set start and flat input."""

    @pytest.mark.parametrize("name", list(_CLOUDS))
    def test_weights_follow_the_from_scratch_loop(self, name):
        # the optimal design matrix is unique even where the weights are not
        X = _CLOUDS[name]()
        _, w = el.mvee(X)
        w_ref = _full_row_weights(X)
        assert el.mvee_support_residual(X, w_ref) <= 1e-12
        assert np.abs(_design_matrix(X, w) - _design_matrix(X, w_ref)).max() <= 1e-12

    @pytest.mark.parametrize("name", ["cross4", "gauss200x3", "sphere0", "cube3"])
    def test_mvee_matches_the_from_scratch_route(self, name, monkeypatch):
        X = _CLOUDS[name]()
        E, _ = el.mvee(X)
        monkeypatch.setattr(el, "_design_weights", _full_row_design)
        E_ref, _ = el.mvee(X)
        assert np.abs(E.shape - E_ref.shape).max() <= 1e-12 * np.abs(E_ref.shape).max()
        assert np.abs(E.center - E_ref.center).max() <= 1e-12

    @pytest.mark.parametrize("steps", [0, 1, 5])
    def test_exhausted_iterations_raise(self, steps, monkeypatch):
        monkeypatch.setattr(el, "_IPM_STEPS", steps)
        with pytest.raises(el.EllipsoidSolverError):
            el.mvee(_CLOUDS["gauss30x2"]())

    def test_failure_message_claims_no_step_count(self, monkeypatch):
        monkeypatch.setattr(el, "_IPM_STEPS", 0)
        with pytest.raises(el.EllipsoidSolverError,
                           match=r"^certificate \S+ exceeds eps = 1e-07$"):
            el.mvee(_CLOUDS["gauss30x2"]())

    @pytest.mark.parametrize("name", list(_CLOUDS))
    def test_screen_keeps_the_support(self, name):
        # a row left out of the active set is never needed: its leverage is
        # within the stop tolerance, and if the solve on every row weighs it,
        # it is a contact point
        X = _CLOUDS[name]()
        _, w = el.mvee(X)
        Q = el._lift(X)
        d = Q.shape[1]
        kappa = el._leverage(Q, w)
        out = w == 0.0
        assert np.all(kappa[out] <= d * (1.0 + el._CERT_TOL))
        needed = out & (_full_row_weights(X) > 1e-9)
        assert np.all(kappa[needed] >= d * (1.0 - 1e-9))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_cross_polytope_core_set_is_optimal(self, n, monkeypatch):
        X = _CLOUDS[f"cross{n}"]()
        assert np.array_equal(el._core_set(X), np.arange(2 * n))
        monkeypatch.setattr(el, "_IPM_STEPS", 0)
        _, w = el.mvee(X)
        assert el.mvee_support_residual(X, w) <= 1e-7

    def test_rank_deficient_lift_raises(self):
        flat = np.hstack([make_rng(0).standard_normal((6, 2)), np.zeros((6, 1))])
        with pytest.raises(g.DegenerateBodyError):
            el._design_weights(flat)


def _co_spherical_cloud(n, seed):
    """30 + 5n Gaussian directions: every point is on the unit sphere."""
    return _sphere_cloud(n, 30 + 5 * n, seed)


class TestDesignSolver:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_co_spherical_clouds(self, n):
        # seeds 502 and 507 at n = 6 and 507 at n = 7 have more contacts
        # than d(d+1)/2, so their optimal design is not unique
        for seed in range(500, 510):
            X = _co_spherical_cloud(n, seed)
            E, w = el.mvee(X)
            assert el.mvee_support_residual(X, w) <= 1e-12
            assert np.all(E.contains_points(X, tol=0.0))
            assert el.john_contact_measure(g.Polytope(vertices=X)).ok()

    @pytest.mark.parametrize("name", list(_CLOUDS))
    def test_clouds_certify_on_the_lift(self, name):
        X = _CLOUDS[name]()
        _, w = el.mvee(X)
        cert = el.mvee_support_residual(X, w)
        assert cert <= 1e-12
        # the clouds are well conditioned, so the plain lift agrees
        assert abs(_raw_certificate(X, w) - cert) <= 1e-12

    def test_active_set_stays_small(self, monkeypatch):
        rows = []
        solve = el._interior_point

        def counted(Q):
            rows.append(Q.shape[0])
            return solve(Q)

        monkeypatch.setattr(el, "_interior_point", counted)
        X = make_rng(20005).standard_normal((20000, 5))
        _, w = el.mvee(X)
        assert el.mvee_support_residual(X, w) <= 1e-12
        assert max(rows) <= 100
