import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from simplexstab import geometry as g
from simplexstab import stability as st


def _lp_support(K, u):
    """Oracle: h_K(u) by one HiGHS LP over the H-rep."""
    A, b = K.halfspaces
    res = linprog(-u, A_ub=A, b_ub=b, bounds=[(None, None)] * K.n, method="highs")
    assert res.success, res.message
    return -res.fun


class TestRegularSimplex:
    def test_dimension_two_vertices(self):
        V = g.regular_simplex(2).vertices
        assert np.allclose(V[0], [0.0, 1.0], atol=1e-12)
        got = {tuple(np.round(v, 9)) for v in V[1:]}
        want = {(-round(math.sqrt(3) / 2, 9), -0.5), (round(math.sqrt(3) / 2, 9), -0.5)}
        assert got == want

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_gram_structure(self, n):
        V = g.regular_simplex(n).vertices
        G = V @ V.T
        assert np.abs(np.diag(G) - 1.0).max() < 1e-12
        off = G[~np.eye(n + 1, dtype=bool)]
        assert np.abs(off + 1.0 / n).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_centroid_at_origin(self, n):
        V = g.regular_simplex(n).vertices
        assert np.linalg.norm(V.sum(axis=0)) < 1e-12

    def test_rejects_dimension_one(self):
        with pytest.raises(g.GeometryError):
            g.regular_simplex(1)

    def test_polar_is_scaled_negative_simplex(self):
        for n in (2, 3):
            V = g.regular_simplex(n).vertices
            P = g.polar(g.regular_simplex(n)).vertices
            assert np.allclose(np.sort(P, axis=0), np.sort(-n * V, axis=0), atol=1e-12)


class TestSimplexVolume:
    def test_planar_value(self):
        assert abs(g.simplex_volume(2) - 3.0 * math.sqrt(3.0) / 4.0) < 1e-14
        assert g.simplex_volume(2) <= 1.3

    def test_space_value(self):
        want = (4.0 / 3.0) ** 1.5 * 2.0 / 6.0
        assert abs(g.simplex_volume(3) - want) < 1e-14

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_vertex_determinant(self, n):
        V = g.regular_simplex(n).vertices
        det_vol = abs(np.linalg.det(V[1:] - V[0])) / math.factorial(n)
        assert abs(det_vol - g.simplex_volume(n)) < 1e-10

    @pytest.mark.parametrize("n", range(2, 11))
    def test_polar_volume_exceeds_one(self, n):
        assert g.polar_simplex_volume(n) >= (1.0 + 1.0 / n) ** (n / 2.0) > 1.0

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_small_volume_above_three(self, n):
        assert g.simplex_volume(n) <= 1.0


class TestSupportAndGauge:
    def test_simplex_support_values(self):
        s2 = g.regular_simplex(2)
        assert abs(g.support_function(s2, np.array([0.0, 1.0])) - 1.0) < 1e-12
        # computed over the three explicit vertices: max of -1, 1/2, 1/2
        assert abs(g.support_function(s2, np.array([0.0, -1.0])) - 0.5) < 1e-12

    def test_ball_support(self):
        u = np.array([3.0, 4.0])
        assert abs(g.support_function(g.Ball(1.0, 2), u) - 5.0) < 1e-12

    def test_hrep_support_lp(self):
        c = g.cube(3)
        K = g.Polytope(halfspaces=c.halfspaces)
        assert abs(g.support_function(K, np.array([1.0, 1.0, 1.0])) - 3.0) < 1e-8

    def test_unbounded_support_raises(self):
        # single halfspace: unbounded in the opposite direction
        K = g.Polytope(halfspaces=(np.array([[1.0, 0.0]]), np.array([1.0])))
        with pytest.raises(g.UnboundedSupportError):
            g.support_function(K, np.array([-1.0, 0.0]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gauge_at_vertices_and_origin(self, n):
        s = g.regular_simplex(n)
        assert abs(g.gauge_norm(s, s.vertices[0]) - 1.0) < 1e-12
        assert g.gauge_norm(s, np.zeros(n)) == 0.0

    def test_gauge_of_negated_vertex(self):
        s2 = g.regular_simplex(2)
        assert abs(g.gauge_norm(s2, -s2.vertices[0]) - 2.0) < 1e-10

    def test_gauge_undefined_without_interior_origin(self):
        shifted = g.Polytope(vertices=g.regular_simplex(2).vertices + 5.0)
        with pytest.raises(g.GaugeUndefinedError):
            g.gauge_norm(shifted, np.array([1.0, 1.0]))

    def test_gauge_equals_polar_support(self, rng):
        for n in (2, 3):
            K = g.Polytope(vertices=rng.standard_normal((8, n)))
            Kp = g.polar(K)
            X = rng.standard_normal((100, n))
            gauges = g.gauge_many(K, X)
            supports = g.support_many(Kp, X)
            assert np.abs(gauges - supports).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hrep_support_many_matches_lp(self, rng, n):
        A = np.vstack([rng.standard_normal((3 * n, n)), np.eye(n), -np.eye(n)])
        K = g.Polytope(halfspaces=(A, rng.uniform(0.5, 2.0, A.shape[0])))
        U = rng.standard_normal((200, n))
        lp = np.array([_lp_support(K, u) for u in U])
        assert np.abs(g.support_many(K, U) - lp).max() <= 1e-9

    def test_hrep_support_many_unbounded_raises(self):
        K = g.Polytope(halfspaces=(np.array([[1.0, 0.0]]), np.array([1.0])))
        with pytest.raises(g.UnboundedSupportError):
            g.support_many(K, np.array([[1.0, 0.0], [-1.0, 0.0]]))


class TestFacetMajorKernel:
    """gauge_many, support_many and contains_points against the row-major
    expressions max_j <x, a_j> = np.max(X @ M.T, axis=1) they replaced.

    Max and all are exact, so a row agrees bit for bit wherever the BLAS
    rounds its dot products alike in both layouts.  Where it does not (its
    remainder kernels past about 192 facets or rows, at sizes that are not
    a multiple of its unroll), the two differ by that rounding only.
    """
    # TILE_ELEMENTS // ROWS = 128 facets fill one block of a tile: m = 1024
    # is eight blocks, m = 1025 nine
    ROWS = 2047

    def _sample(self, n, m, rows=ROWS):
        rng = np.random.default_rng(100 * n + m)
        return (rng.standard_normal((rows, n)), rng.standard_normal((m, n)),
                rng.uniform(0.5, 2.0, m))

    def _check(self, got, ref, X, M):
        products = np.empty((X.shape[0], M.shape[0]))
        for r, f, tile in g._tiles(X, M):
            products[r, f] = tile.T
        same = np.all(products == X @ M.T, axis=1)
        assert np.array_equal(got[same], ref[same])
        # dot products of n terms differ by at most 2 n eps sum_k |x_k a_jk|
        bound = 2 * X.shape[1] * np.finfo(float).eps * (np.abs(X) @ np.abs(M).T).max(axis=1)
        assert np.all(np.abs(got - ref) <= bound)

    def _compare(self, n, m, rows=ROWS):
        X, A, b = self._sample(n, m, rows)
        M = A / b[:, None]
        gauges = np.maximum(np.max(X @ M.T, axis=1), 0.0)
        self._check(g.gauge_many(g.Polytope(halfspaces=(A, b)), X), gauges, X, M)
        self._check(g.support_many(g.Polytope(vertices=A, check=False), X),
                    np.max(X @ A.T, axis=1), X, A)
        # half the rows inside; a membership flips only for a product within
        # rounding of its offset
        Y = X / np.median(gauges)
        c = b + 1e-9 * np.maximum(1.0, np.abs(b))
        inside = g.contains_points(g.Polytope(halfspaces=(A, b)), Y)
        assert np.array_equal(inside, np.all(Y @ A.T <= c, axis=1))
        assert 0 < inside.sum() < rows

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("m", [None, 12, 64, 193, 1024, 1025, 2000])
    def test_matches_row_major_reference(self, n, m):
        self._compare(n, n + 1 if m is None else m)

    @pytest.mark.parametrize("n", [2, 10])
    @pytest.mark.parametrize("m", [3, 33])
    def test_row_tiles_match_row_major_reference(self, n, m):
        # two tiles: one of TILE_ROWS rows, and one that also takes the
        # 3616 rows past the second multiple of TILE_ROWS
        self._compare(n, m, 2 * g.TILE_ROWS + 3616)

    @pytest.mark.parametrize("rows", [1, 8191, 8193, 20000])
    @pytest.mark.parametrize("m", [1, 32, 33, 4097])
    def test_tiles_cover_the_grid_once_within_budget(self, m, rows):
        X, A, _ = self._sample(3, m, rows)
        count = np.zeros((m, rows), dtype=int)
        blocks = {}
        for r, f, tile in g._tiles(X, A):
            assert tile.shape == (f.stop - f.start, r.stop - r.start)
            assert tile.size <= g.TILE_ELEMENTS
            count[f, r] += 1
            blocks.setdefault((r.start, r.stop), []).append(f.stop - f.start)
        assert np.all(count == 1)
        # no tile is shorter than TILE_ROWS unless it is the only one, and
        # the facet blocks of a tile differ in size by at most one
        assert len(blocks) == 1 or min(b - a for a, b in blocks) >= g.TILE_ROWS
        assert all(max(sizes) - min(sizes) <= 1 for sizes in blocks.values())


class TestPolarity:
    def test_cube_cross_duality(self):
        pc = g.polar(g.cube(3))
        assert np.allclose(np.sort(pc.vertices, axis=0),
                           np.sort(g.cross_polytope(3).vertices, axis=0), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_bipolar_restores_vertices(self, n, rng):
        pts = np.vstack([g.cross_polytope(n, 0.4).vertices,
                         rng.standard_normal((7, n))])
        K = g.Polytope(vertices=pts)
        hull = ConvexHull(K.vertices)
        extreme = K.vertices[hull.vertices]
        back = g.polar(g.polar(K)).vertices
        D = np.linalg.norm(extreme[:, None, :] - back[None, :, :], axis=2)
        assert D.min(axis=1).max() < 1e-10
        assert D.min(axis=0).max() < 1e-10

    def test_polar_requires_interior_origin(self):
        shifted = g.Polytope(vertices=g.regular_simplex(2).vertices + 5.0)
        with pytest.raises(g.GaugeUndefinedError):
            g.polar(g.polar(shifted))


class TestHausdorff:
    def test_identical_bodies(self):
        s = g.regular_simplex(3)
        assert g.hausdorff_distance(s, s) < 1e-12

    @pytest.mark.parametrize("t", [0.05, 0.2, 0.7])
    def test_dilate_distance_is_scale(self, t):
        s = g.regular_simplex(2)
        big = g.Polytope(vertices=(1.0 + t) * s.vertices)
        assert abs(g.hausdorff_distance(s, big) - t) < 1e-9

    def test_triangle_inequality(self, rng):
        for _ in range(10):
            bodies = [g.Polytope(vertices=rng.standard_normal((6, 2))) for _ in range(3)]
            d01 = g.hausdorff_distance(bodies[0], bodies[1])
            d12 = g.hausdorff_distance(bodies[1], bodies[2])
            d02 = g.hausdorff_distance(bodies[0], bodies[2])
            assert d02 <= d01 + d12 + 1e-9

    def test_dimension_mismatch_raises(self):
        with pytest.raises(g.GeometryError, match="dimensions 2 and 3"):
            g.hausdorff_distance(g.regular_simplex(2), g.regular_simplex(3))

    @staticmethod
    def _pair(kind, n, rng):
        """Two polytopes of one of the kinds the bound-first search must keep exact."""
        K = g.Polytope(vertices=rng.standard_normal((n + 1 + int(rng.integers(0, 6)), n)))
        if kind == "nested":
            centre = K.vertices.mean(axis=0)
            return K, g.Polytope(vertices=centre + rng.uniform(0.2, 0.9) * (K.vertices - centre))
        if kind == "disjoint":
            return K, g.Polytope(vertices=K.vertices + 4.0 + rng.standard_normal(n))
        if kind == "identical":
            return K, g.Polytope(vertices=K.vertices.copy())
        if kind == "rotated-simplex":
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            S = g.regular_simplex(n)
            return g.Polytope(vertices=S.vertices @ Q.T), S
        if kind == "polar-target":
            # H-rep rows (vertices, ones) that are not unit normals
            P = rng.standard_normal((n + 1, n))
            T = g.polar(g.Polytope(vertices=np.vstack([P, -rng.uniform(0.2, 1.0) * P])))
            return K, T
        if kind == "flat":      # no H-rep bounds the distances to a flat body
            flat = rng.standard_normal((n + 2, n)) * np.r_[np.ones(n - 1), 0.0]
            return K, g.Polytope(vertices=flat, check=False)
        return K, g.Polytope(vertices=rng.standard_normal((n + 3, n)))

    @settings(max_examples=80, deadline=None)
    @given(n=hst.integers(2, 4), seed=hst.integers(0, 2 ** 32 - 1),
           kind=hst.sampled_from(["nested", "disjoint", "identical", "rotated-simplex",
                                  "polar-target", "flat", "random"]))
    def test_bound_first_equals_every_vertex_projected(self, n, seed, kind):
        K, C = self._pair(kind, n, np.random.default_rng(seed))
        reference = max(max(g.point_polytope_distance(v, C.vertices)[0] for v in K.vertices),
                        max(g.point_polytope_distance(w, K.vertices)[0] for w in C.vertices))
        assert g.hausdorff_distance(K, C) == reference
        assert g.hausdorff_distance(C, K) == reference


def _annulus_body(rng, n, n_points=8):
    """Random polytope with ball(1/n) inside and ball(n) outside."""
    base = g.cross_polytope(n, radius=1.3 / math.sqrt(n)).vertices
    pts = rng.standard_normal((n_points, n))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts *= rng.uniform(1.3 / math.sqrt(n), 0.8 * n, size=(n_points, 1))
    return g.Polytope(vertices=np.vstack([base, pts]))


class TestPolarHausdorffComparison:
    @pytest.mark.parametrize("n", [2, 3])
    def test_two_sided_square_factor(self, n, rng):
        for _ in range(15):
            K = _annulus_body(rng, n)
            C = _annulus_body(rng, n)
            d = g.hausdorff_distance(K, C)
            Kp = g.Polytope(vertices=g.vertex_enumeration(K.vertices, np.ones(K.vertices.shape[0])))
            Cp = g.Polytope(vertices=g.vertex_enumeration(C.vertices, np.ones(C.vertices.shape[0])))
            dp = g.hausdorff_distance(Kp, Cp)
            assert dp <= n * n * d + 1e-9
            assert d <= n * n * dp + 1e-9


class TestSymdiffVolume:
    def test_identical_bodies_zero(self):
        for n in range(2, 6):
            s = g.regular_simplex(n)
            assert abs(g.symdiff_volume(s, s)) <= 1e-12

    @staticmethod
    def _check_dilate(n, t=0.25):
        s = g.regular_simplex(n)
        big = g.Polytope(vertices=(1.0 + t) * s.vertices)
        exact = ((1.0 + t) ** n - 1.0) * g.simplex_volume(n)
        assert abs(g.symdiff_volume(s, big) - exact) <= 1e-12 * exact

    def test_dilated_triangle_scaling(self):
        self._check_dilate(2)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_dilated_simplex_scaling(self, n):
        self._check_dilate(n)

    def test_reflected_tetrahedron_vs_clipping_oracle(self):
        s = g.regular_simplex(3)
        refl = g.Polytope(vertices=-s.vertices)
        inter = g.intersection(s, refl)
        common = g.polytope_volume(g.Polytope(vertices=inter.vertices, check=False))
        exact = 2.0 * (g.simplex_volume(3) - common)
        assert exact > 0
        assert abs(g.symdiff_volume(s, refl) - exact) <= 1e-12

    @pytest.mark.parametrize("shift", [3.0, 1.0], ids=["disjoint", "face-touching"])
    def test_no_common_volume(self, shift):
        # unit squares side by side: apart, or sharing the edge x = 1
        K = g.cube(2, 0.5)
        C = g.Polytope(vertices=K.vertices + [shift, 0.0])
        assert g.symdiff_volume(K, C) == pytest.approx(
            g.polytope_volume(K) + g.polytope_volume(C), rel=1e-12)


class TestContains:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_simplex_inside_its_polar(self, n):
        s = g.regular_simplex(n)
        sp = g.regular_simplex_polar(n)
        assert g.contains(sp, s)
        assert not g.contains(s, sp)

    def test_missing_representation_fails_loudly(self):
        K = g.Polytope(halfspaces=(np.eye(5), np.ones(5)))
        with pytest.raises(g.RepresentationError):
            K.vertices  # x_i <= 1 alone is unbounded


class TestVertexEnumeration:
    def test_cube_vertices(self):
        A, b = g.cube(3).halfspaces
        V = g.vertex_enumeration(A, b)
        assert V.shape == (8, 3)
        assert np.abs(np.abs(V) - 1.0).max() < 1e-12

    def test_unbounded_raises(self):
        with pytest.raises(g.RepresentationError):
            g.vertex_enumeration(np.array([[1.0, 0.0], [0.0, 1.0]]), np.ones(2))
        # a full dual hull with the origin outside it: x >= -1 + y/10 leaves
        # y unbounded below
        with pytest.raises(g.UnboundedSupportError):
            g.vertex_enumeration(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.1]]), np.ones(3))

    @pytest.mark.parametrize("b", [[1.0, -2.0, 1.0, 1.0],     # empty: x <= 1 and x >= 2
                                   [1.0, 1.0, 0.0, 0.0]])     # flat: the segment y = 0
    def test_empty_and_flat_raise(self, b):
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        with pytest.raises(g.RepresentationError):
            g.vertex_enumeration(A, np.array(b))

    @pytest.mark.parametrize("body", ["box", "random"])
    def test_interior_origin_matches_the_lp_route(self, body, monkeypatch):
        # an off-centre body: its Chebyshev centre is not the origin
        if body == "box":   # [-0.1, 2] x [-1, 1]
            A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
            b = np.array([2.0, 0.1, 1.0, 1.0])
        else:
            P = np.random.default_rng(11).standard_normal((12, 3)) + [0.4, -0.2, 0.1]
            A, b = g.Polytope(vertices=P).halfspaces
        assert np.all(b > 0.0)

        def no_lp(*args, **kwargs):
            raise AssertionError("the origin is interior: no LP needed")

        monkeypatch.setattr(g, "linprog", no_lp)
        V = g.vertex_enumeration(A, b)
        monkeypatch.undo()
        # translated by t the body leaves the origin outside, so its
        # vertices come from the Chebyshev-centre LP
        t = np.full(A.shape[1], 10.0)
        W = g.vertex_enumeration(A, b + A @ t) - t
        assert V.shape == W.shape
        V, W = V[np.lexsort(V.T)], W[np.lexsort(W.T)]
        assert np.abs(V - W).max() < 1e-12

    def test_origin_near_a_facet_is_not_flat(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        V = g.vertex_enumeration(A, np.array([1.0, 1e-12, 1.0, 1.0]))
        expected = np.array([[-1e-12, -1.0], [1.0, -1.0], [-1e-12, 1.0], [1.0, 1.0]])
        assert V.shape == (4, 2)
        assert np.abs(V[np.lexsort(V.T)] - expected).max() < 1e-12

    @pytest.mark.parametrize("n", [5, 6])
    def test_cube_vertices_beyond_dimension_four(self, n):
        V = g.vertex_enumeration(*g.cube(n).halfspaces)
        assert V.shape == (2 ** n, n)
        assert np.abs(np.abs(V) - 1.0).max() < 1e-12


class TestDegenerate:
    def test_flat_vertex_set_rejected(self):
        flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(g.DegenerateBodyError):
            g.Polytope(vertices=flat)


class TestPointProjection:
    def test_distance_to_simplex_face(self, rng):
        V = g.regular_simplex(2).vertices
        # project a far point beyond the bottom edge (y = -1/2)
        d, proj = g.point_polytope_distance(np.array([0.0, -3.0]), V)
        assert abs(d - 2.5) < 1e-9
        assert np.allclose(proj, [0.0, -0.5], atol=1e-9)

    def test_interior_point_zero_distance(self):
        V = g.regular_simplex(3).vertices
        d, _ = g.point_polytope_distance(np.zeros(3), V)
        assert d < 1e-9

    def test_exact_on_many_near_active_vertices(self):
        # many vertices close to the optimal edge from (-0.84, -1.26) to
        # (1.07, -2.25); an iteration-capped method stops short here
        V = np.array([[-1.23, -0.22], [1.45, -0.17], [1.07, -2.25], [-0.84, -1.26],
                      [-0.27, 0.77], [-0.55, -1.24], [0.95, -0.76], [0.27, -0.66],
                      [0.52, -0.38], [0.8, 0.62], [2.22, -0.08], [-0.98, -1.16],
                      [-0.6, 0.38], [-0.71, 1.52]])
        x = np.array([0.4, -1.95])
        d, proj = g.point_polytope_distance(x, V)
        assert abs(d - 0.0903 / math.sqrt(4.6282)) < 1e-12
        a, e = V[3], V[2] - V[3]
        assert np.allclose(proj, a + ((x - a) @ e) / (e @ e) * e, rtol=0.0, atol=1e-12)

    @staticmethod
    def _face_oracle(x, V):
        """Exact (distance, nearest point): project onto the affine hull of
        every subset of at most n+1 vertices and keep the nearest projection
        that lies inside its subset's hull."""
        n = V.shape[1]
        best = (math.inf, None)
        for size in range(1, n + 2):
            for idx in itertools.combinations(range(V.shape[0]), size):
                v0, D = V[idx[0]], V[list(idx[1:])] - V[idx[0]]
                mu = np.linalg.lstsq(D.T, x - v0, rcond=None)[0] if size > 1 else np.zeros(0)
                if mu.min(initial=0.0) < -1e-12 or mu.sum() > 1.0 + 1e-12:
                    continue
                p = v0 + mu @ D
                best = min(best, (float(np.linalg.norm(p - x)), p), key=lambda c: c[0])
        return best

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_face_enumeration(self, n, rng):
        for _ in range(30):
            V = rng.standard_normal((int(rng.integers(n + 1, 9)), n))
            x = 2.0 * rng.standard_normal(n)
            d, proj = g.point_polytope_distance(x, V)
            d_exact, p_exact = self._face_oracle(x, V)
            assert abs(d - d_exact) < 1e-10
            assert np.allclose(proj, p_exact, rtol=0.0, atol=1e-9)

    def test_non_finite_input_raises(self):
        V = g.regular_simplex(2).vertices
        with pytest.raises(g.GeometryError):
            g.point_polytope_distance(np.array([np.nan, 0.0]), V)

    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros(1), np.zeros((1, 2))])
    def test_point_of_another_shape_raises(self, x):
        with pytest.raises(g.GeometryError, match="dimension 2"):
            g.point_polytope_distance(x, g.regular_simplex(2).vertices)

    def test_empty_hull_raises(self):
        # the NNLS solve of a matrix with no columns aborts the interpreter
        # (a double free), so the call runs in a fresh one
        code = ("import numpy as np; from simplexstab import geometry as g\n"
                "try:\n    g.point_polytope_distance(np.zeros(2), np.zeros((0, 2)))\n"
                "except g.GeometryError as exc:\n    print(exc)")
        env = {**os.environ, "PYTHONPATH": str(Path(g.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "point-to-hull projection needs at least one hull point"


class TestVolumeGapLowerBounds:
    """Volume defect bounds for convex bodies squeezed against a simplex."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_clipped_body_defect(self, n, rng):
        S = g.regular_simplex(n)
        V_S = g.simplex_volume(n)
        A, b = S.halfspaces
        for _ in range(12):
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            tau = rng.uniform(0.05, 0.5)
            h = g.support_function(S, u)
            cut = g.Polytope(halfspaces=(np.vstack([A, u]),
                                         np.concatenate([b, [(1.0 - tau) * h]])))
            eps = 0.99 * tau
            # the missing part has exact volume V(S) - V(M1)
            v_m1 = g.polytope_volume(g.Polytope(vertices=cut.vertices, check=False))
            defect = V_S - v_m1
            assert defect >= (n / (n + 1.0)) ** n * eps ** n * V_S - 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_spiked_body_excess(self, n, rng):
        S = g.regular_simplex(n)
        V_S = g.simplex_volume(n)
        for _ in range(12):
            tau = rng.uniform(0.02, 0.5)
            vertex = S.vertices[rng.integers(0, n + 1)]
            M2 = np.vstack([S.vertices, (1.0 + tau) * vertex])
            excess = ConvexHull(M2).volume - V_S
            eps = 0.99 * tau
            assert excess >= eps / (n + 1.0) * V_S - 1e-12


@pytest.fixture
def hull_builds(monkeypatch):
    """The point counts of the Qhull hulls that geometry builds, in order."""
    calls = []

    def counting(points, *args, **kwargs):
        calls.append(len(points))
        return ConvexHull(points, *args, **kwargs)

    monkeypatch.setattr(g, "ConvexHull", counting)
    return calls


def _rounded_dedup_vertex_enumeration(A, b):
    """Reference vertex enumeration: Qhull on the dual points about the same
    centre, one vertex per simplex of the triangulated hull, then np.unique
    on the coordinates rounded to 1e-9 of the offset scale."""
    n = A.shape[1]
    scale = max(1.0, float(np.abs(b).max()))
    norms = np.linalg.norm(A, axis=1)
    if np.all(b > g._VERTEX_TOL * scale * norms):
        center, dual = np.zeros(n), A / b[:, None]
    else:
        res = linprog(np.r_[np.zeros(n), -1.0], A_ub=np.hstack([A, norms[:, None]]), b_ub=b,
                      bounds=[(None, None)] * n + [(0.0, None)], method="highs")
        center = res.x[:n]
        dual = A / (b - A @ center)[:, None]
    hull = ConvexHull(dual)
    V = center - hull.equations[:, :-1] / hull.equations[:, -1:]
    _, idx = np.unique(np.round(V / scale, 9), axis=0, return_index=True)
    return V[idx]


def _off_centre_hreps():
    box_A, box_b = g.cube(3).halfspaces
    P = np.random.default_rng(11).standard_normal((12, 3)) + [0.4, -0.2, 0.1]
    cloud_A, cloud_b = g.Polytope(vertices=P).halfspaces
    # translated so that the origin lies outside: the Chebyshev-centre LP route
    return [(A, b + A @ t) for (A, b), t in (((box_A, box_b), np.array([3.0, -2.0, 5.0])),
                                             ((cloud_A, cloud_b), np.full(3, 10.0)))]


class TestOneHullPerBody:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_vertex_only_cube_has_one_row_per_facet(self, n):
        K = g.Polytope(vertices=g.cube(n).vertices)
        A, b = K.halfspaces
        assert A.shape == (2 * n, n) and b.shape == (2 * n,)
        P = g.polar(K).vertices
        cross = g.cross_polytope(n).vertices
        assert P.shape == (2 * n, n)
        assert np.abs(P[np.lexsort(P.T)] - cross[np.lexsort(cross.T)]).max() < 1e-12

    def test_vertex_only_body_builds_one_hull(self, hull_builds, rng):
        # the cube's corners and interior points
        V = np.vstack([g.cube(3).vertices, 0.5 * rng.uniform(-1.0, 1.0, (5, 3))])
        K = g.Polytope(vertices=V)
        assert K.halfspaces[0].shape == (6, 3)
        assert abs(g.polytope_volume(K) - 8.0) < 1e-12
        P = g.polar(K)
        assert hull_builds == [13]
        # the polar's halfspaces are K's extreme vertices, in their order
        assert P.halfspaces[0].tobytes() == V[:8].tobytes()
        assert P.vertices.shape == (6, 3)
        assert abs(g.polytope_volume(P) - 4.0 / 3.0) < 1e-12
        assert hull_builds == [13, 6]

    def test_corner_cut_vertices_and_polar_build_one_hull(self, hull_builds):
        K = st.make_family("corner-cut", 3, [1e-3]).bodies[0]
        V = K.vertices
        P = g.polar(K)
        assert len(hull_builds) == 1
        A, b = K.halfspaces
        assert P.vertices.tobytes() == (A / b[:, None]).tobytes()
        assert P.halfspaces[0] is V

    @pytest.mark.parametrize("body", [f"corner-cut-{n}" for n in range(2, 7)]
                             + [f"cube-{n}" for n in range(2, 7)] + ["box-lp", "cloud-lp"])
    def test_vertex_enumeration_matches_the_rounded_dedup(self, body):
        kind, _, arg = body.rpartition("-")
        if kind == "corner-cut":
            A, b = st.make_family("corner-cut", int(arg), [1e-3]).bodies[0].halfspaces
        elif kind == "cube":
            A, b = g.cube(int(arg)).halfspaces
        else:
            A, b = _off_centre_hreps()[0 if kind == "box" else 1]
            assert np.any(b <= 0.0)
        V = g.vertex_enumeration(A, b)
        W = _rounded_dedup_vertex_enumeration(A, b)
        assert V.shape == W.shape
        assert V.tobytes() == W.tobytes()

    def test_redundant_row_is_a_harmless_polar_generator(self, rng):
        A, b = g.cube(3).halfspaces
        K = g.Polytope(halfspaces=(np.vstack([A, [1.0, 1.0, 0.0]]), np.r_[b, 5.0]))
        P = g.polar(K)
        assert P.vertices.shape == (7, 3)
        X = rng.standard_normal((2000, 3))
        assert np.abs(g.support_many(P, X) - g.gauge_many(K, X)).max() < 1e-12


class TestFlatPointSets:
    # six points on a great circle of the sphere in R^3
    FLAT = np.c_[np.cos(np.arange(6) * np.pi / 3), np.sin(np.arange(6) * np.pi / 3), np.zeros(6)]

    def test_gauge_and_volume_raise_degenerate(self):
        K = g.Polytope(vertices=self.FLAT, check=False)
        with pytest.raises(g.DegenerateBodyError):
            g.gauge_many(K, np.eye(3))
        with pytest.raises(g.DegenerateBodyError):
            g.polytope_volume(g.Polytope(vertices=self.FLAT, check=False))

    def test_flat_dual_points_are_an_unbounded_body(self):
        # the strip -1 <= x <= 1/2: its dual points lie on one line
        A = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(g.UnboundedSupportError) as info:
            g.vertex_enumeration(A, np.ones(3))
        assert isinstance(info.value, g.RepresentationError)
        assert not isinstance(info.value, g.DegenerateBodyError)
