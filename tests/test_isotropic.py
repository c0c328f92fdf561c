import itertools
import math
import time
import timeit
import tracemalloc

import numpy as np
import pytest

from simplexstab import geometry as g
from simplexstab import isotropic as iso
from simplexstab.ellipsoids import random_isotropic_measure
from simplexstab.rng import make_rng


def random_centered_isotropic(n, k_half, seed):
    """Symmetrised random measure: exactly centered, isotropic to 1e-15."""
    rng = make_rng(seed)
    P = rng.standard_normal((k_half, n))
    P /= np.linalg.norm(P, axis=1)[:, None]
    w = rng.uniform(0.5, 2.0, k_half)
    return iso.isotropize(np.vstack([P, -P]), np.tile(w, 2))


def doubled_john_measure(n, seed):
    """John contacts of a random polytope plus a rotated copy, at half weight."""
    mu = random_isotropic_measure(n, 3 * n + 10, seed)
    Q, _ = np.linalg.qr(make_rng(seed + 1).standard_normal((n, n)))
    return iso.DiscreteMeasure(np.vstack([mu.points, mu.points @ Q.T]),
                               np.concatenate([mu.weights, mu.weights]) / 2.0)


def theta_star_partial_sum(mu, t, lhs, subsets=None):
    """1 + (1/2) sum_S q_S (sqrt(t_S)/t0 - 1)^2 over the given subset rows
    (all n-subsets by default), term by term."""
    if subsets is None:
        subsets = np.array(list(itertools.combinations(range(mu.k), mu.n)))
    q = iso._subset_products(mu, subsets)
    t_sub = np.sqrt(np.prod(t[subsets], axis=1)) / math.sqrt(lhs)
    return 1.0 + 0.5 * float(q @ (t_sub - 1.0) ** 2)


def exhaustive_max(mu):
    """The largest weight-determinant product over all C(k, n) subsets."""
    rows = np.array(list(itertools.combinations(range(mu.k), mu.n)))
    return float(iso._subset_products(mu, rows).max())


class TestValidate:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_simplex_measure(self, n):
        rep = iso.simplex_measure(n).validate()
        assert rep.max_residual < 1e-12

    def test_orthonormal_measure(self):
        rep = iso.orthonormal_measure(4).validate()
        assert rep.max_residual < 1e-12

    def test_perturbed_weight_residuals(self):
        mu = iso.simplex_measure(3)
        w = mu.weights.copy()
        w[0] += 1e-3
        bumped = iso.DiscreteMeasure(mu.points, w)
        rep = bumped.validate()
        # direct computation: the moment matrix moves by 1e-3 * u u^T
        assert abs(rep.isotropy_residual - 1e-3) < 1e-6
        assert abs(rep.mass_residual - 1e-3) < 1e-9
        assert abs(rep.centering_residual - 1e-3) < 1e-9

    def test_rejects_non_unit_points(self):
        with pytest.raises(iso.MeasureError):
            iso.DiscreteMeasure(np.array([[1.0, 1.0]]), np.array([1.0]))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(iso.MeasureError):
            iso.DiscreteMeasure(np.eye(2), np.array([1.0, 0.0]))


class TestIsotropize:
    def test_fixed_point_on_isotropic_input(self):
        mu = iso.simplex_measure(3)
        out = iso.isotropize(mu.points, mu.weights)
        assert np.abs(out.points - mu.points).max() < 1e-10
        assert np.abs(out.weights - mu.weights).max() < 1e-10

    def test_random_ten_points(self):
        rng = make_rng(4)
        P = rng.standard_normal((10, 3))
        P /= np.linalg.norm(P, axis=1)[:, None]
        out = iso.isotropize(P, rng.uniform(0.2, 3.0, 10))
        assert out.validate().isotropy_residual < 1e-10

    def test_rank_deficient_input(self):
        P = np.tile(np.array([[1.0, 0.0, 0.0]]), (5, 1))
        with pytest.raises(iso.SingularMomentError):
            iso.isotropize(P, np.ones(5))


class TestNnlsAtoms:
    def test_empty_atom_set_raises(self):
        # scipy's nnls aborts the interpreter on a matrix with no columns
        target = np.concatenate([np.eye(2).ravel(), np.zeros(2), [2.0]])
        with pytest.raises(iso.MeasureError, match="no atoms"):
            iso._nnls_atoms(np.empty((0, 2)), target)


class TestReduceSupport:
    def test_simplex_is_already_minimal(self):
        mu = iso.simplex_measure(3)
        out = iso.reduce_support(mu)
        assert out.k == mu.k

    def test_two_rotated_triangles(self):
        th = 0.7
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        s = iso.simplex_measure(2)
        mu = iso.DiscreteMeasure(np.vstack([s.points, s.points @ R.T]),
                                 np.concatenate([s.weights, s.weights]) / 2.0)
        out = iso.reduce_support(mu)
        assert out.k <= iso.support_bound(2) == 6
        assert out.validate().max_residual < 1e-8

    def test_forty_points_reduce_below_bound(self):
        mu = random_centered_isotropic(3, 20, seed=9)
        assert mu.k == 40
        out = iso.reduce_support(mu)
        assert out.k <= iso.support_bound(3) == 10
        assert out.validate().max_residual < 1e-8
        # support is a subset of the input support
        D = np.linalg.norm(out.points[:, None, :] - mu.points[None, :, :], axis=2)
        assert D.min(axis=1).max() < 1e-12

    def test_idempotent_in_cardinality(self):
        mu = random_centered_isotropic(2, 15, seed=3)
        once = iso.reduce_support(mu)
        twice = iso.reduce_support(once)
        assert twice.k == once.k

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("kind", ["plus-minus", "doubled-john"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bound_subset_and_residual(self, n, kind, seed):
        if kind == "plus-minus":
            mu = random_centered_isotropic(n, iso.support_bound(n), seed=seed)
        else:
            mu = doubled_john_measure(n, seed)
        # John contacts are isotropic to about 1e-6 or better
        out = iso.reduce_support(mu, tol=1e-6)
        assert out.k <= iso.support_bound(n)
        # every output atom is an input atom, bit for bit
        same = (out.points[:, None, :] == mu.points[None, :, :]).all(axis=2)
        assert same.any(axis=1).all()
        assert out.validate().max_residual <= mu.validate().max_residual + 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    def test_within_bound_comes_back_unchanged(self, n):
        for mu in (iso.simplex_measure(n), iso.orthonormal_measure(n),
                   random_isotropic_measure(n, 3 * n + 10, seed=n)):
            assert mu.k <= iso.support_bound(n)
            out = iso.reduce_support(mu, tol=1e-6)
            assert np.array_equal(out.points, mu.points)
            assert np.array_equal(out.weights, mu.weights)

    def test_rejects_non_isotropic_input(self):
        P = np.vstack([np.eye(2), -np.eye(2)])
        bad = iso.DiscreteMeasure(P, np.array([1.0, 0.5, 1.0, 0.5]))
        with pytest.raises(iso.NotIsotropicError):
            iso.reduce_support(bad)


class TestBallBarthe:
    def test_orthonormal_basis_any_t_is_equality(self):
        # k = n orthonormal atoms with unit weights: the determinant is diagonal
        mu = iso.DiscreteMeasure(np.eye(3), np.ones(3))
        t = np.array([0.3, 1.9, 4.0])
        rep = iso.ball_barthe_check(mu, t)
        assert abs(rep.lhs - np.prod(t)) < 1e-12
        assert abs(rep.lhs - rep.rhs) < 1e-12 * rep.rhs
        assert abs(rep.theta_star - 1.0) < 1e-12

    def test_equal_t_gives_theta_one(self):
        mu = iso.simplex_measure(3)
        rep = iso.ball_barthe_check(mu, np.full(4, 2.7))
        assert abs(rep.theta_star - 1.0) < 1e-12
        assert abs(rep.lhs - 2.7 ** 3) < 1e-10
        assert abs(rep.rhs - 2.7 ** 3) < 1e-10

    def test_triangle_with_spread_t(self):
        mu = iso.simplex_measure(2)
        rep = iso.ball_barthe_check(mu, np.array([1.0, 2.0, 3.0]))
        # direct 2x2 determinant evaluation
        M = (mu.points * (np.array([1.0, 2.0, 3.0]) * mu.weights)[:, None]).T @ mu.points
        assert abs(rep.lhs - np.linalg.det(M)) < 1e-12
        assert rep.lhs > rep.rhs
        assert rep.lhs - rep.rhs >= (rep.theta_star - 1.0) * rep.rhs - 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_instances_hold(self, n):
        rng = make_rng(100 + n)
        for trial in range(60):
            mu = random_centered_isotropic(n, n + 2 + trial % 5, seed=500 * n + trial)
            t = np.exp(rng.uniform(math.log(0.1), math.log(10.0), mu.k))
            rep = iso.ball_barthe_check(mu, t)
            assert rep.exact
            assert rep.lhs >= rep.theta_star * rep.rhs * (1.0 - 1e-9)
            assert rep.theta_star >= 1.0 - 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_closed_form_matches_enumeration(self, n):
        rng = make_rng(200 + n)
        for trial in range(20):
            mu = random_centered_isotropic(n, n + trial % 4, seed=700 * n + trial)
            t = np.exp(rng.uniform(math.log(0.1), math.log(10.0), mu.k))
            rep = iso.ball_barthe_check(mu, t)
            assert rep.subset_count == math.comb(mu.k, n)
            assert abs(rep.theta_star - theta_star_partial_sum(mu, t, rep.lhs)) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    def test_exact_at_the_support_bound(self, n):
        # up to C(66, 10) ~ 2e11 subsets at n = 10, far beyond any enumeration
        k = iso.support_bound(n)
        rng = make_rng(300 + n)
        P = rng.standard_normal((k, n))
        P /= np.linalg.norm(P, axis=1)[:, None]
        mu = iso.isotropize(P, rng.uniform(0.5, 2.0, k))
        t = np.exp(rng.uniform(math.log(0.1), math.log(10.0), k))
        rep = iso.ball_barthe_check(mu, t)
        assert rep.exact
        assert rep.subset_count == math.comb(k, n)
        assert rep.lhs >= rep.theta_star * rep.rhs * (1.0 - 1e-9)
        assert rep.theta_star >= 1.0 - 1e-12

    def test_partial_subset_sum_is_lower_bound(self):
        # every subset term is nonnegative, so 50 of the C(20, 3) terms give
        # a lower bound on theta*
        mu = random_centered_isotropic(3, 10, seed=1)
        rng = make_rng(2)
        t = np.exp(rng.uniform(math.log(0.1), math.log(10.0), mu.k))
        rep = iso.ball_barthe_check(mu, t)
        subsets = np.array(list(itertools.combinations(range(mu.k), 3)))
        picks = subsets[np.sort(rng.choice(len(subsets), size=50, replace=False))]
        partial = theta_star_partial_sum(mu, t, rep.lhs, picks)
        assert 1.0 < partial <= rep.theta_star + 1e-12

    def test_non_spanning_support_raises(self):
        P = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]])
        mu = iso.DiscreteMeasure(P, np.full(4, 0.5))
        with pytest.raises(iso.SingularMomentError):
            iso.ball_barthe_check(mu, np.array([1.0, 2.0, 3.0, 4.0]))


class TestQuadraticBound:
    @pytest.mark.parametrize("n", [2, 3])
    def test_weighted_combination_norm(self, n):
        rng = make_rng(7)
        mu = random_centered_isotropic(n, 8, seed=42 + n)
        for _ in range(200):
            theta = rng.standard_normal(mu.k)
            z = (mu.weights * theta) @ mu.points
            assert z @ z <= mu.weights @ theta ** 2 + 1e-9


class TestScalarSplitBound:
    def test_ten_thousand_random_triples(self):
        rng = make_rng(11)
        a, b, x = (rng.uniform(1e-3, 10.0, 10_000) for _ in range(3))
        lhs, rhs = iso.scalar_split_bound(a, b, x)
        assert np.all(lhs >= rhs - 1e-12)


class TestStabilityFactor:
    @pytest.mark.parametrize("n", [2, 3])
    def test_chain_bound_on_random_instances(self, n):
        rng = make_rng(5)
        for trial in range(25):
            mu = random_centered_isotropic(n, n + 1, seed=900 + 10 * n + trial)
            t = np.exp(rng.uniform(math.log(0.1), math.log(10.0), mu.k))
            idx, value = iso.big_determinant_subset(mu)
            rest = [i for i in range(mu.k) if i not in idx]
            chain = list(idx) + [rest[0]]
            info = iso.ball_barthe_stability_factor(mu, t, chain)
            if info["beta"] <= 0:
                continue
            rep = iso.ball_barthe_check(mu, t)
            assert rep.lhs >= info["factor"] * rep.rhs * (1.0 - 1e-9)


class TestBigDeterminantSubset:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_simplex_reaches_the_bound(self, n):
        mu = iso.simplex_measure(n)
        idx, value = iso.big_determinant_subset(mu)
        assert value >= 1.0 / math.comb(n + 1, n) - 1e-12

    def test_triangle_equality_case(self):
        idx, value = iso.big_determinant_subset(iso.simplex_measure(2))
        assert abs(value - 1.0 / 3.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_orthonormal_value(self, n):
        idx, value = iso.big_determinant_subset(iso.orthonormal_measure(n))
        assert abs(value - 0.5 ** n) < 1e-12
        assert value >= 1.0 / math.comb(2 * n, n) - 1e-12

    def test_memory_and_value_between_bound_and_max(self):
        mu = random_centered_isotropic(8, 10, seed=8)  # k = 20, C(20, 8) = 125970
        tracemalloc.start()
        try:
            idx, value = iso.big_determinant_subset(mu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        bound = np.linalg.det(mu.moment_matrix()) / math.comb(20, 8)
        assert bound * (1.0 - 1e-12) <= value <= exhaustive_max(mu) * (1.0 + 1e-12)

    def test_former_cap_measure_meets_the_bound(self):
        # C(50, 5) = 2118760 subsets were more than the old enumeration allowed
        mu = random_centered_isotropic(5, 25, seed=4)
        assert min(timeit.repeat(lambda: iso.big_determinant_subset(mu), number=1, repeat=3)) < 0.05
        idx, value = iso.big_determinant_subset(mu)
        assert value * math.comb(50, 5) >= np.linalg.det(mu.moment_matrix()) * (1.0 - 1e-12)

    def test_meets_the_averaging_bound(self):
        # q_S C(k, n) >= det(M) for +-P measures at k = 2n and 2n^2, John
        # contacts and one anisotropic measure on n + 1 atoms per n
        start = time.perf_counter()
        for n in range(2, 11):
            rng = make_rng(700 + n)
            P = rng.standard_normal((n + 1, n)) * np.exp(rng.uniform(-3.0, 3.0, n))
            P /= np.linalg.norm(P, axis=1)[:, None]
            for mu in (random_centered_isotropic(n, n, seed=500 + n),
                       random_centered_isotropic(n, n * n, seed=600 + n),
                       random_isotropic_measure(n, 4 * n, seed=n),
                       iso.DiscreteMeasure(P, np.exp(rng.uniform(-3.0, 3.0, n + 1)))):
                idx, value = iso.big_determinant_subset(mu)
                assert list(idx) == sorted(set(idx)) and len(idx) == n
                assert value == float(iso._subset_products(mu, np.array([idx]))[0])
                det = np.linalg.det(mu.moment_matrix())
                assert value * math.comb(mu.k, n) >= det * (1.0 - 1e-12), (n, mu.k)
                if n <= 5 and math.comb(mu.k, n) <= 200_000:
                    assert value <= exhaustive_max(mu) * (1.0 + 1e-12), (n, mu.k)
        assert time.perf_counter() - start < 2.0

    def test_non_spanning_support_raises(self):
        P = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]])
        mu = iso.DiscreteMeasure(P, np.full(4, 0.5))
        with pytest.raises(iso.SingularMomentError, match="moment matrix is singular"):
            iso.big_determinant_subset(mu)

    def test_oversized_support_rejected(self):
        mu = random_centered_isotropic(2, 5, seed=3)  # k = 10 > 2 n^2 = 8
        with pytest.raises(iso.MeasureError):
            iso.big_determinant_subset(mu)


class TestLift:
    def test_simplex_lift_is_orthonormal(self):
        L = iso.lift(iso.simplex_measure(2), +1)
        G = L.points @ L.points.T
        assert np.abs(G - np.eye(3)).max() < 1e-12

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("n", [2, 3])
    def test_lift_geometry(self, n, sign):
        mu = random_centered_isotropic(n, n + 3, seed=77 + n)
        L = iso.lift(mu, sign)
        # every lifted atom sees the pole at 1/sqrt(n+1)
        assert np.abs(L.points @ L.pole - 1.0 / math.sqrt(n + 1)).max() < 1e-12
        assert np.abs(L.weights - (n + 1.0) / n * mu.weights).max() < 1e-12
        assert np.linalg.norm(L.moment_matrix() - np.eye(n + 1), "fro") < 1e-10
        assert np.linalg.norm(L.barycenter() - math.sqrt(n + 1) * L.pole) < 1e-10

    def test_lift_requires_centered_isotropic(self):
        P = np.vstack([np.eye(2), -np.eye(2)])
        bad = iso.DiscreteMeasure(P, np.array([1.0, 0.5, 1.0, 0.5]))
        with pytest.raises(iso.NotIsotropicError):
            iso.lift(bad)


class TestOrthonormalFrame:
    def test_identity_fixed_point(self):
        W = iso.fit_orthonormal_frame(np.eye(3), 0.1)
        assert np.abs(W - np.eye(3)).max() < 1e-12

    def test_perturbed_basis_recovery(self):
        n = 3
        rng = make_rng(13)
        V = np.eye(n)
        for i in range(n):
            t = rng.standard_normal(n)
            t -= (t @ V[i]) * V[i]
            t /= np.linalg.norm(t)
            V[i] = math.cos(1e-3) * V[i] + math.sin(1e-3) * t
        mu = iso.isotropize(V, np.ones(n))
        vs = np.sqrt(mu.weights)[:, None] * mu.points
        W = iso.fit_orthonormal_frame(vs, 5e-3)
        cosines = np.einsum("ij,ij->i", vs, W) / np.linalg.norm(vs, axis=1)
        angles = np.arccos(np.clip(cosines, -1.0, 1.0))
        assert angles.max() < 3.0 * math.sqrt(n) * 1e-2

    def test_antipodal_clusters_rejected(self):
        vs = np.vstack([np.eye(2), -np.eye(2)]) / math.sqrt(2.0)
        with pytest.raises(iso.NoFrameError):
            iso.fit_orthonormal_frame(vs, 0.05)


class TestSerialization:
    def test_json_roundtrip(self):
        mu = iso.simplex_measure(3)
        back = iso.DiscreteMeasure.from_json(mu.to_json())
        assert np.array_equal(back.points, mu.points)
        assert np.array_equal(back.weights, mu.weights)
