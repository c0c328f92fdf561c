import itertools
import math
import time

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from simplexstab import brascamp_lieb as bl
from simplexstab import ellipsoids as el
from simplexstab import functionals as fn
from simplexstab import isotropic as iso
from simplexstab.rng import make_rng


def _solve_by_enumeration(solver, x: np.ndarray):
    """Exact minimiser by scanning the stationarity system of every
    active set (the atom count is small by precondition).  A support
    counts only when its clipped decomposition reproduces x to 1e-12
    relative, so near a lower-dimensional face a support that only nearly
    reproduces x cannot undercut the true minimum."""
    L, s = solver.L, solver.s
    k = L.k
    x_scale = max(1.0, float(np.linalg.norm(x)))
    best_q, best_theta = None, None
    for mask in range(1, 1 << k):
        free = [i for i in range(k) if mask >> i & 1]
        UF = L.points[free]
        G = (UF * L.weights[free][:, None]).T @ UF
        rhs = x - s * (L.weights[free] @ UF)
        try:
            nu = np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError:
            nu, *_ = np.linalg.lstsq(G, rhs, rcond=None)
        theta_f = s + UF @ nu
        if theta_f.min() < -1e-10:
            continue
        theta = np.zeros(k)
        theta[free] = np.maximum(theta_f, 0.0)
        if np.linalg.norm(solver.A @ theta - x) > 1e-12 * x_scale:
            continue
        q = float(L.weights @ (theta - s) ** 2)
        if best_q is None or q < best_q:
            best_q, best_theta = q, theta
    return best_q, best_theta


def plus_minus_measure(half, seed):
    """The isotropic measure on +-P for ``half`` random unit vectors P in the plane."""
    P = np.random.default_rng(seed).standard_normal((half, 2))
    P /= np.linalg.norm(P, axis=1)[:, None]
    return iso.isotropize(np.vstack([P, -P]), np.ones(2 * half))


def lifted_instance(n, k_points, seed, s):
    mu = el.random_isotropic_measure(n, k_points, seed)
    return bl.BLInstance(iso.lift(mu, +1), s)


class TestBounds:
    def test_bound_is_truncated_mass_power(self):
        inst = bl.BLInstance(iso.lift(iso.simplex_measure(2), +1), 0.1)
        from simplexstab.transport import gtilde_integral
        assert abs(bl.bl_bound(inst) - gtilde_integral(0.1) ** 3) < 1e-12

    def test_instance_requires_isotropic_lift(self):
        L = iso.lift(iso.simplex_measure(2), +1)
        L.weights = L.weights * 1.05  # break isotropy deliberately
        with pytest.raises(ValueError):
            bl.BLInstance(L, 0.0)


class TestDirectIntegral:
    @pytest.mark.parametrize("s", [0.0, 0.1, 0.15])
    def test_orthonormal_equality(self, s):
        inst = bl.BLInstance(iso.lift(iso.simplex_measure(2), +1), s)
        est = bl.bl_lhs(inst, n_samples=300_000, seed=21)
        assert abs(est.value - bl.bl_bound(inst)) <= 3.0 * est.stderr

    def test_strict_inequality_for_many_atoms(self):
        inst = lifted_instance(2, 12, seed=5, s=0.1)
        assert inst.lifted.k >= 4
        est = bl.bl_lhs(inst, n_samples=300_000, seed=22)
        assert est.value < bl.bl_bound(inst) - 3.0 * est.stderr

    def test_large_positive_shift_removes_truncation(self):
        # as the shift grows the truncated factor becomes a full Gaussian,
        # which is the equality case of the product inequality
        inst = lifted_instance(2, 12, seed=5, s=5.0)
        est = bl.bl_lhs(inst, n_samples=200_000, seed=23)
        ratio = est.value / bl.bl_bound(inst)
        assert abs(ratio - 1.0) <= 3.0 * est.stderr / bl.bl_bound(inst) + 1e-4


class TestReverseIntegral:
    @pytest.mark.parametrize("s", [0.0, 0.1])
    def test_orthonormal_equality(self, s):
        inst = bl.BLInstance(iso.lift(iso.simplex_measure(2), +1), s)
        est = bl.rbl_lhs(inst, n_samples=40_000, seed=24)
        assert abs(est.value - bl.bl_bound(inst)) <= 3.0 * est.stderr

    def test_strict_inequality_for_many_atoms(self):
        inst = lifted_instance(2, 12, seed=5, s=0.1)
        est = bl.rbl_lhs(inst, n_samples=40_000, seed=25)
        assert est.value > bl.bl_bound(inst) + 3.0 * est.stderr

    def test_infeasible_away_from_the_pole(self):
        inst = lifted_instance(2, 10, seed=6, s=0.1)
        q, theta = bl.nonneg_transport_sup(inst, -5.0 * inst.lifted.pole)
        assert q is None and theta is None

    def test_objective_hessian_is_negative_definite(self):
        inst = lifted_instance(2, 10, seed=6, s=0.1)
        hessian = -2.0 * np.diag(inst.lifted.weights)
        assert np.linalg.eigvalsh(hessian).max() < 0

    def test_enumeration_rescue_for_hard_samples(self):
        # a 25k-sample draw on a contact measure lifted to R^4: a row the
        # Newton loop leaves unsolved is decided by the exact cone screen,
        # and every accepted maximiser must stay KKT-clean
        inst = lifted_instance(3, 9, seed=7101, s=0.1)
        est = bl.rbl_lhs(inst, n_samples=25_000, seed=7301)
        assert est.value >= bl.bl_bound(inst) - 3.0 * est.stderr

    def test_inner_solver_against_active_set_enumeration(self):
        inst = lifted_instance(2, 9, seed=7, s=0.1)
        L = inst.lifted
        A = (L.points * L.weights[:, None]).T
        rng = make_rng(8)
        solver_checked = 0
        for _ in range(60):
            x = rng.standard_normal(3) + 1.5 * L.pole
            got_q, got_theta = bl.nonneg_transport_sup(inst, x)
            best = None
            for r in range(L.k):
                for zero in itertools.combinations(range(L.k), r):
                    free = [i for i in range(L.k) if i not in zero]
                    UF = L.points[free]
                    G = (UF * L.weights[free][:, None]).T @ UF
                    if abs(np.linalg.det(G)) < 1e-12:
                        continue
                    nu = np.linalg.solve(G, x - inst.s * A[:, free] @ np.ones(len(free)))
                    theta_f = inst.s + UF @ nu
                    if theta_f.min() < -1e-10:
                        continue
                    theta = np.zeros(L.k)
                    theta[free] = theta_f
                    if np.linalg.norm(A @ theta - x) > 1e-8:
                        continue
                    q = float(L.weights @ (theta - inst.s) ** 2)
                    if best is None or q < best:
                        best = q
            assert (got_q is None) == (best is None)
            if best is not None:
                assert abs(got_q - best) < 1e-8 * max(1.0, best)
                solver_checked += 1
        assert solver_checked >= 30

    @staticmethod
    def _oracle_points(inst, rng, count):
        """Points inside the dual cone, feasible points outside it, points
        within 1e-9 inside a cone facet, and infeasible points."""
        L = inst.lifted
        n = L.base.n
        solver = bl._NonnegTransportSolver(L, inst.s)
        Z = rng.standard_normal((20 * count, L.dim)) + solver.m
        dual = Z[(Z @ L.points.T).min(axis=1) >= 0.0][:count]
        X = rng.exponential(size=(20 * count, L.k)) ** 3 @ solver.A.T
        outside = X[(X @ L.points.T).min(axis=1) < 0.0][:count]
        hull = ConvexHull(L.base.points)
        facet = rng.integers(len(hull.simplices), size=count)
        corners = L.base.points[hull.simplices[facet]]
        Y = np.einsum("ij,ijk->ik", rng.dirichlet(np.ones(n), size=count), corners)
        normal = hull.equations[facet, :-1]
        t = rng.uniform(0.5, 1.5, size=(count, 1))

        def cone_point(y):
            return np.hstack([L.sign * math.sqrt(n) * t * y, t])

        near = cone_point(Y - rng.uniform(0.5e-9, 1e-9, size=(count, 1)) * normal)
        beyond = cone_point(1.5 * Y + 0.2 * normal)
        below = np.hstack([rng.standard_normal((count, n)), -t])
        return solver, {"dual": dual, "outside": outside, "near": near,
                        "infeasible": np.vstack([beyond, below])}

    @pytest.mark.parametrize("build, s", [
        (lambda: iso.lift(el.random_isotropic_measure(2, 9, seed=7), +1), 0.1),
        (lambda: iso.lift(el.random_isotropic_measure(3, 9, seed=7101), +1), 0.0),
        (lambda: iso.lift(iso.simplex_measure(2), +1), 0.15),
        (lambda: iso.lift(iso.simplex_measure(3), +1), 0.1),
    ], ids=["n2", "n3", "simplex-n2", "simplex-n3"])
    def test_batched_solver_against_enumeration_oracle(self, build, s):
        inst = bl.BLInstance(build(), s)
        solver, groups = self._oracle_points(inst, make_rng(41), 12)
        feasible_outside = 0
        for kind, X in groups.items():
            if len(X) == 0:
                assert kind == "outside" and inst.lifted.k == inst.lifted.dim
                continue
            q, theta, kkt = solver.solve(X)
            assert kkt.max() <= 1e-8, kind
            for i, x in enumerate(X):
                want, _ = _solve_by_enumeration(solver, x)
                assert (want is None) == np.isnan(q[i]), (kind, i)
                assert (want is None) == (kind == "infeasible"), (kind, i)
                single_q, single_theta = bl.nonneg_transport_sup(inst, x)
                if want is None:
                    assert single_q is None and single_theta is None
                    continue
                assert abs(q[i] - want) <= 1e-9 * max(1.0, want), (kind, i)
                assert abs(single_q - q[i]) <= 1e-12 * max(1.0, q[i])
                assert np.allclose(single_theta, theta[i], rtol=1e-9, atol=1e-9)
                feasible_outside += kind in ("outside", "near")
        assert feasible_outside >= (12 if inst.lifted.k > inst.lifted.dim else 0)

    @pytest.mark.parametrize("depth", [1e-10, 1e-13, 0.0],
                             ids=["inside-1e-10", "inside-1e-13", "on-facet"])
    @pytest.mark.parametrize("build, s", [
        (lambda: iso.lift(el.random_isotropic_measure(2, 9, seed=7), +1), 0.1),
        (lambda: iso.lift(el.random_isotropic_measure(3, 9, seed=7101), +1), 0.0),
        (lambda: iso.lift(iso.simplex_measure(2), +1), 0.15),
        (lambda: iso.lift(iso.simplex_measure(3), +1), 0.1),
        # atom 0 lies 0.013 from the line of the hull edge {1, 9}
        (lambda: iso.lift(plus_minus_measure(5, seed=3), +1), 0.1),
    ], ids=["n2", "n3", "simplex-n2", "simplex-n3", "pm-k10"])
    def test_certificate_holds_at_cone_facets(self, build, s, depth):
        # maximisers with a coefficient of order depth, or a face of active
        # coefficients that leaves the multiplier undetermined
        L = build()
        solver = bl._NonnegTransportSolver(L, s)
        X = self._facet_offset_points(L, make_rng(41), 40, -depth)
        q, _, kkt = solver.solve(X)
        assert kkt.max() <= 1e-12
        for x, got in zip(X, q):
            want, _ = _solve_by_enumeration(solver, x)
            assert abs(got - want) <= 1e-9 * max(1.0, want)

    def test_certificate_rejects_a_suboptimal_decomposition(self):
        L = iso.lift(el.random_isotropic_measure(3, 9, seed=7101), +1)
        solver = bl._NonnegTransportSolver(L, 0.1)
        x = (solver.A @ np.array([0.4, 0.9, 1.1, 0.7, 0.5, 0.8]))[None, :]
        lam, solved = solver._newton(x, x - solver.m)
        assert solved[0] and solver.certificate(x, lam)[0] <= 1e-12
        # a generic dual point off the optimum
        assert solver.certificate(x, lam + 0.1 * make_rng(9).standard_normal(L.dim))[0] > 1e-3
        # the dual point moved so that the atom with the largest coefficient
        # lands on its face, the coefficient exactly zero
        z = solver.s + lam[0] @ L.points.T
        u = L.points[np.argmax(z)]
        face = lam - z.max() * u / (u @ u)
        assert abs(solver.s + face[0] @ u) < 1e-12
        assert solver.certificate(x, face)[0] > 1e-3

    @staticmethod
    def _facet_offset_points(L, rng, count, offset):
        """Cone points whose hull coordinates lie ``offset`` outside a random
        facet of conv(supp mu) (inside for a negative offset)."""
        n = L.base.n
        hull = ConvexHull(L.base.points)
        facet = rng.integers(len(hull.simplices), size=count)
        corners = L.base.points[hull.simplices[facet]]
        Y = np.einsum("ij,ijk->ik", rng.dirichlet(np.ones(n), size=count), corners)
        Y += offset * hull.equations[facet, :-1]
        t = rng.uniform(0.5, 1.5, size=(count, 1))
        return np.hstack([L.sign * math.sqrt(n) * t * Y, t])

    def test_newton_certifies_rows_outside_dual_cone_at_n10(self):
        # 38 atoms in R^11: 2^38 supports, so no enumeration; Newton alone
        # certifies the feasible rows outside the dual cone
        inst = bl.BLInstance(iso.lift(el.random_isotropic_measure(10, 200, seed=1), +1), 0.1)
        L = inst.lifted
        assert L.k == 38
        solver = bl._NonnegTransportSolver(L, inst.s)
        X = make_rng(45).exponential(size=(400, L.k)) ** 3 @ solver.A.T
        X = X[(X @ L.points.T).min(axis=1) < 0.0][:40]
        assert len(X) == 40
        start = time.perf_counter()
        q, _, kkt = solver.solve(X)
        assert time.perf_counter() - start < 1.0
        assert not np.isnan(q).any()
        assert kkt.max() <= 1e-8

    def test_unsolved_rows_are_decided_by_the_exact_screen(self, monkeypatch):
        # Newton reports every row unsolved: a row in the screen's band
        # outside a facet is infeasible, and a row inside the cone keeps
        # Newton's last dual point, whose certificate ``rbl_lhs`` rejects
        inst = lifted_instance(2, 9, seed=7, s=0.1)
        solver, groups = self._oracle_points(inst, make_rng(46), 4)
        in_band = self._facet_offset_points(inst.lifted, make_rng(47), 1, 1e-10)
        seen = []

        def fails(self, X, lam):
            seen.append(len(X))
            return lam, np.zeros(len(X), dtype=bool)

        monkeypatch.setattr(bl._NonnegTransportSolver, "_newton", fails)
        q, theta, kkt = solver.solve(in_band)
        assert seen == [1]
        assert np.isnan(q).all() and np.isnan(theta).all() and kkt[0] == 0.0
        q, _, kkt = solver.solve(groups["outside"][:1])
        assert np.isfinite(q).all() and kkt[0] > bl._KKT_TOL
        with pytest.raises(RuntimeError):
            bl.rbl_lhs(inst, n_samples=2_000, seed=48)
        monkeypatch.undo()
        bl.rbl_lhs(inst, n_samples=2_000, seed=48)

    def test_rounding_level_facet_offsets(self):
        # 1e-12 outside a facet the dual is unbounded, so Newton cannot
        # certify these rows; the exact screen calls them infeasible.  The
        # enumeration oracle is not asked: its 1e-12 reproduction tolerance
        # calls them feasible.  1e-14 inside, Newton's last iterate certifies
        L = iso.lift(plus_minus_measure(3, seed=0), +1)
        solver = bl._NonnegTransportSolver(L, 0.1)
        outside = self._facet_offset_points(L, make_rng(49), 20, 1e-12)
        q, theta, kkt = solver.solve(outside)
        assert np.isnan(q).all() and np.isnan(theta).all() and (kkt == 0.0).all()
        inside = self._facet_offset_points(L, make_rng(50), 20, -1e-14)
        q, _, kkt = solver.solve(inside)
        assert kkt.max() <= 1e-8
        for x, got in zip(inside, q):
            want, _ = _solve_by_enumeration(solver, x)
            assert abs(got - want) <= 1e-9 * max(1.0, want)


class TestDilateIdentities:
    @pytest.mark.parametrize("s", [0.0, 0.1, 0.15])
    def test_planar_inscribed(self, s):
        rep = bl.simplex_identity_check(2, s, n_samples=1_000_000, seed=31)
        assert rep.rel_gap < 5e-3

    def test_planar_polar(self):
        rep = bl.simplex_identity_check(2, 0.1, n_samples=1_000_000, seed=32,
                                        variant="polar")
        assert rep.rel_gap < 5e-3

    @pytest.mark.parametrize("variant", ["inscribed", "polar"])
    def test_spatial_both_variants(self, variant):
        rep = bl.simplex_identity_check(3, 0.15, n_samples=1_000_000, seed=33,
                                        variant=variant)
        assert rep.rel_gap < 1e-2

    def test_gap_is_balanced_by_stderr(self):
        rep = bl.simplex_identity_check(2, 0.0, n_samples=400_000, seed=34)
        assert abs(rep.gap) <= 5.0 * rep.stderr + 5e-4 * rep.rhs


class TestQuadratureIdentity:
    """At n <= 3 the left side is a facet-fan quadrature, with no sample."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("variant", ["inscribed", "polar"])
    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.1, 0.15, 1.0, 2.0])
    def test_meets_the_bound_within_its_error_bound(self, n, variant, s):
        rep = bl.simplex_identity_check(n, s, variant=variant)
        assert abs(rep.gap) <= 1e-13 * rep.rhs
        assert 0.0 < rep.stderr <= 1e-12 * rep.rhs
        assert rep.samples == 0 and rep.method == "closed-form"

    @pytest.mark.parametrize("n, chunks", [(2, 0), (3, 0), (4, 1)])
    @pytest.mark.parametrize("variant", ["inscribed", "polar"])
    def test_draws_no_chunk(self, monkeypatch, n, chunks, variant):
        # n = 4 samples, so the wrapper is seen to count
        calls = []
        sample_mean = fn.sample_mean

        def counting(*args, **kwargs):
            calls.append(args)
            return sample_mean(*args, **kwargs)

        monkeypatch.setattr(fn, "sample_mean", counting)
        monkeypatch.setattr(bl, "sample_mean", counting)
        bl.simplex_identity_check(n, 0.1, n_samples=1_000, seed=3, variant=variant)
        assert len(calls) == chunks

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("variant", ["inscribed", "polar"])
    def test_sample_count_and_seed_change_nothing(self, n, variant):
        assert (bl.simplex_identity_check(n, 0.15, n_samples=2, seed=1, variant=variant)
                == bl.simplex_identity_check(n, 0.15, n_samples=10 ** 6, seed=2,
                                             variant=variant))

    @pytest.mark.parametrize("variant", ["inscribed", "polar"])
    def test_sampled_path_at_four_dimensions(self, variant):
        rep = bl.simplex_identity_check(4, 0.1, n_samples=400_000, seed=35, variant=variant)
        assert rep.method == "mc-direct" and rep.samples == 400_000
        assert abs(rep.gap) <= 5.0 * rep.stderr and rep.rel_gap < 1e-2


class TestIdentityVerdict:
    @pytest.mark.parametrize("n, n_samples", [(2, 2), (3, 2), (4, 50_000), (8, 50_000)])
    @pytest.mark.parametrize("variant", ["inscribed", "polar"])
    def test_ok_is_the_gap_within_five_stderr(self, n, n_samples, variant):
        rep = bl.simplex_identity_check(n, 0.1, n_samples=n_samples, seed=3, variant=variant)
        assert rep.ok == (abs(rep.gap) <= 5 * rep.stderr)
        assert rep.ok

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_quadrature_defect_fails(self, monkeypatch, n):
        # the quadrature's value 1e-4 off in relative terms, its bound unchanged
        tail_mean = bl._gauge_tail_mean

        def off(V, c):
            value, bound = tail_mean(V, c)
            return value * (1.0 + 1e-4), bound

        monkeypatch.setattr(bl, "_gauge_tail_mean", off)
        rep = bl.simplex_identity_check(n, 0.1)
        assert rep.ok == (abs(rep.gap) <= 5 * rep.stderr)
        assert not rep.ok and rep.rel_gap < 2e-4


class TestPolarRowIsTheInscribedRow:
    """polar / sqrt(n) = -sqrt(n) simplex and gamma_n is symmetric, so both
    variants are one identity."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.1, 2.0])
    def test_quadrature_rows_are_equal(self, n, s):
        inscribed = bl.simplex_identity_check(n, s)
        polar = bl.simplex_identity_check(n, s, variant="polar")
        assert (polar.lhs, polar.stderr) == (inscribed.lhs, inscribed.stderr)
        assert polar == inscribed

    def test_sampled_row_reads_the_reflected_samples(self, monkeypatch):
        # at n >= 4 the polar row is the inscribed row's integrand at -X
        sample_mean = bl.sample_mean

        def reflected(f, *args, **kwargs):
            return sample_mean(lambda X: f(-X), *args, **kwargs)

        polar = bl.simplex_identity_check(4, 0.1, n_samples=20_000, seed=3, variant="polar")
        monkeypatch.setattr(bl, "sample_mean", reflected)
        inscribed = bl.simplex_identity_check(4, 0.1, n_samples=20_000, seed=3)
        assert polar.lhs == pytest.approx(inscribed.lhs, rel=1e-14)
        assert polar.stderr == pytest.approx(inscribed.stderr, rel=1e-12)


class TestSmoothedComparison:
    def test_simplex_measure_gives_equality(self):
        rep = bl.smoothing_inequality_check(iso.simplex_measure(2), [0.3],
                                            n_samples=100_000, seed=35)
        row = rep["rows"][0]
        assert abs(row["direct_margin"]) <= 3.0 * max(row["direct_stderr"], 1e-12)
        assert abs(row["polar_margin"]) <= 3.0 * max(row["polar_stderr"], 1e-12)

    def test_random_measure_margins(self):
        mu = el.random_isotropic_measure(2, 10, seed=36)
        rep = bl.smoothing_inequality_check(mu, [0.0, 0.5, 1.0],
                                            n_samples=400_000, seed=37)
        assert rep["ok"]

    def test_three_dimensional_measure(self):
        mu = el.random_isotropic_measure(3, 12, seed=38)
        rep = bl.smoothing_inequality_check(mu, [0.0, 1.0],
                                            n_samples=300_000, seed=39)
        assert rep["ok"]
