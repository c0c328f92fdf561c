import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi

from simplexstab import brascamp_lieb as bl
from simplexstab import functionals as fn
from simplexstab import geometry as g
from simplexstab import isotropic as iso
from simplexstab import stability as st
from simplexstab.rng import chunk_rng, make_rng


def sample_map(f, n_samples, dim, seed, workers=1):
    """Every per-sample value of ``f`` over the sampler's chunks, in chunk
    order: the reference the streamed means are held to."""
    return np.concatenate(fn._map_chunks(f, n_samples, dim, seed, workers))


class TestClosedForms:
    def test_ball_gauge_mean(self):
        assert abs(fn.ell_ball(2) - math.sqrt(math.pi / 2.0)) < 1e-14
        # chi-distribution mean in dimension 3: sqrt(2) * Gamma(2) / Gamma(1.5)
        assert abs(fn.ell_ball(3) - math.sqrt(2.0) / (math.sqrt(math.pi) / 2.0)) < 1e-12

    def test_max_of_three_gaussians(self):
        assert abs(fn.gaussian_max_mean(3) - 3.0 / (2.0 * math.sqrt(math.pi))) < 1e-10

    def test_max_of_two_gaussians(self):
        assert abs(fn.gaussian_max_mean(2) - 1.0 / math.sqrt(math.pi)) < 1e-10

    def test_simplex_oracle_planar_value(self):
        want = math.sqrt(1.5) * 3.0 / (2.0 * math.sqrt(math.pi))
        assert abs(fn.simplex_ell_oracle(2) - want) < 1e-10

    @pytest.mark.parametrize("n", range(2, 11))
    def test_oracle_bounds(self, n):
        value = fn.simplex_ell_oracle(n)
        assert value <= math.sqrt(n)
        assert n * value <= n ** 1.5

    @pytest.mark.parametrize("n", range(2, 11))
    def test_volume_dominates_scaled_gauge_mean(self, n):
        # V(simplex) >= n^-(n+2) ell(simplex), a rough but exact comparison
        ell_simplex = n * fn.simplex_ell_oracle(n)
        assert g.simplex_volume(n) >= float(n) ** (-(n + 2)) * ell_simplex

    @pytest.mark.parametrize("n", range(2, 11))
    def test_volume_brackets(self, n):
        v = g.simplex_volume(n)
        assert 1.0 / float(n) ** n <= v
        assert v <= math.sqrt(math.e) * math.sqrt(n + 1.0) / math.factorial(n)


class TestGaussianMass:
    def test_zero_dilate(self):
        est = fn.gaussian_mass(g.regular_simplex(2), 0.0, seed=1)
        assert est.value == 0.0 and est.stderr == 0.0

    def test_ball_matches_chi_cdf(self):
        for t in (0.8, 1.3, 2.0):
            est = fn.gaussian_mass(g.Ball(1.0, 2), t, n_samples=200_000, seed=2)
            assert abs(est.value - chi.cdf(t, 2)) <= 3.0 * est.stderr + 1e-12

    def test_huge_dilate_saturates(self):
        est = fn.gaussian_mass(g.regular_simplex(3), 50.0, n_samples=100_000, seed=3)
        assert est.value >= 1.0 - 1e-9


class TestEllNorm:
    def test_ball_against_exact_value(self):
        est = fn.ell_norm(g.Ball(1.0, 3), n_samples=400_000, seed=4)
        assert abs(est.value - fn.ell_ball(3)) <= 3.0 * est.stderr

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_polar_simplex_against_oracle(self, n):
        est = fn.ell_norm(g.regular_simplex_polar(n), n_samples=400_000, seed=5)
        assert est.stderr < 0.005 * est.value
        assert abs(est.value - fn.simplex_ell_oracle(n)) <= 3.0 * est.stderr

    def test_simplex_is_n_times_its_polar(self):
        n = 3
        a = fn.ell_norm(g.regular_simplex(n), n_samples=300_000, seed=6)
        b = fn.ell_norm(g.regular_simplex_polar(n), n_samples=300_000, seed=6)
        joint = math.hypot(a.stderr, n * b.stderr)
        assert abs(a.value - n * b.value) <= 3.0 * joint

    def test_monotone_under_inclusion(self):
        inner = g.regular_simplex(2)
        outer = g.Polytope(vertices=1.5 * inner.vertices)
        a = fn.ell_norm(inner, n_samples=100_000, seed=8)
        b = fn.ell_norm(outer, n_samples=100_000, seed=8)
        assert a.value >= b.value - 3.0 * math.hypot(a.stderr, b.stderr)

    def test_requires_interior_origin(self):
        shifted = g.Polytope(vertices=g.regular_simplex(2).vertices + 4.0)
        with pytest.raises(g.GaugeUndefinedError):
            fn.ell_norm(shifted, n_samples=1000, seed=9)

    def test_workers_partition_reproducibly(self):
        body = g.regular_simplex_polar(2)
        a = fn.ell_norm(body, n_samples=100_000, seed=10, workers=4)
        b = fn.ell_norm(body, n_samples=100_000, seed=10, workers=4)
        assert a.value == b.value

    def test_worker_count_does_not_change_estimates(self):
        body = g.regular_simplex_polar(2)
        one = fn.ell_norm(body, n_samples=200_000, seed=3, workers=1)
        four = fn.ell_norm(body, n_samples=200_000, seed=3, workers=4)
        assert (one.value, one.stderr) == (four.value, four.stderr)
        mass_one = fn.gaussian_mass(body, 1.2, n_samples=200_000, seed=3, workers=1)
        mass_four = fn.gaussian_mass(body, 1.2, n_samples=200_000, seed=3, workers=4)
        assert mass_one == mass_four


class TestMeanWidth:
    def test_ball_closed_form(self):
        est = fn.mean_width(g.Ball(1.0, 4))
        assert est.value == 2.0 and est.stderr == 0.0 and est.method == "closed-form"

    def test_origin_body(self):
        est = fn.mean_width(g.Ball(0.0, 3))
        assert est.value == 0.0

    def test_simplex_width_against_exact(self):
        # exact value from the polar identity: W = 2 ell(polar simplex)/ell(ball)
        n = 2
        exact = 2.0 * fn.simplex_ell_oracle(n) / fn.ell_ball(n)
        est = fn.mean_width(g.regular_simplex(n), n_samples=400_000, seed=11)
        assert abs(est.value - exact) <= 4.0 * est.stderr

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_logarithmic_decay_order(self, n):
        # the width of the inscribed simplex tracks sqrt(2 ln n / n): the
        # exact prefactor 2 ell(polar)/ell(ball)/sqrt(2 ln n / n) drifts
        # toward 2 slowly from below; assert the loose order bracket
        exact = 2.0 * fn.simplex_ell_oracle(n) / fn.ell_ball(n)
        ratio = exact / math.sqrt(2.0 * math.log(n) / n)
        assert 1.2 <= ratio <= 3.2


class TestMeanEllCrosscheck:
    def test_ball_identity_is_exact(self):
        rep = fn.mean_ell_crosscheck(g.Ball(1.0, 2), n_samples=100_000, seed=12)
        assert abs(rep["gap"]) <= 3.0 * max(rep["joint_stderr"], rep["lhs"].stderr)

    @pytest.mark.parametrize("body_maker", [
        lambda: g.regular_simplex(2),
        lambda: g.regular_simplex_polar(3),
    ])
    def test_simplex_bodies(self, body_maker):
        rep = fn.mean_ell_crosscheck(body_maker(), n_samples=300_000, seed=13)
        assert abs(rep["gap"]) <= 3.0 * rep["joint_stderr"]


class TestEstimateInvariants:
    def test_closed_form_draws_no_samples(self):
        # a closed form's stderr is the bound on its rounding, so it may be
        # positive; what it cannot have is samples
        assert fn.FunctionalEstimate(1.0, 1e-15, "closed-form", 0).stderr == 1e-15
        with pytest.raises(ValueError):
            fn.FunctionalEstimate(1.0, 0.0, "closed-form", 10)

    def test_negative_stderr_rejected(self):
        with pytest.raises(ValueError):
            fn.FunctionalEstimate(1.0, -0.1, "mc-direct", 10)


class TestSampler:
    """Every sampling path draws chunk i of 2^16 samples from chunk_rng(seed, i)."""
    N = fn.CHUNK_SAMPLES + 1000

    def _chunks(self, seed, dim):
        return [chunk_rng(seed, 0).standard_normal((fn.CHUNK_SAMPLES, dim)),
                chunk_rng(seed, 1).standard_normal((1000, dim))]

    def test_rows_come_from_one_stream_per_chunk(self):
        X = sample_map(lambda X: X, self.N, 3, seed=4)
        assert np.array_equal(X, np.vstack(self._chunks(4, 3)))

    def test_paired_columns_stay_paired(self):
        V = sample_map(lambda X: X[:, ::-1], self.N, 2, seed=4, workers=2)
        assert V.shape == (self.N, 2)
        assert np.array_equal(V, np.vstack(self._chunks(4, 2))[:, ::-1])

    def test_estimate_is_scaled_mean_and_standard_error(self):
        values = np.array([1.0, 2.0, 4.0, 7.0])
        est = fn.estimate(values, scale=2.0)
        assert est.value == 7.0
        assert est.stderr == 2.0 * float(np.std(values, ddof=1) / 2.0)
        assert (est.method, est.samples) == ("mc-direct", 4)

    def test_measure_deficit_uses_the_chunks(self):
        # at n = 4, where the deficits are sampled
        K = st.make_family("vertex-added", 4, [0.05]).bodies[0]
        ref = g.regular_simplex(4)
        values = np.concatenate([g.gauge_many(ref, X) - g.gauge_many(K, X)
                                 for X in self._chunks(5, 4)])
        want = fn.estimate(values, 1.0 / (4 * fn.simplex_ell_oracle(4)))
        assert st.measure_deficit(K, "lowner", n_samples=self.N, seed=5) == (
            want.value, want.stderr)

    def test_extremality_check_uses_the_chunks(self):
        # at n = 4, where the deficits are sampled
        P = iso.orthonormal_measure(4).points
        simplex = g.regular_simplex(4)
        A, b = g.Polytope(vertices=P).halfspaces
        M = A / b[:, None]
        As, bs = simplex.halfspaces
        Ms = As / bs[:, None]
        W = simplex.vertices
        lowner, john = [], []
        for X in self._chunks(8, 4):
            # the row-major expressions of the gauges and support functions
            lowner.append(np.maximum(np.max(X @ Ms.T, axis=1), 0.0)
                          - np.maximum(np.max(X @ M.T, axis=1), 0.0))
            john.append(np.max(X @ P.T, axis=1) - np.max(X @ W.T, axis=1))
        oracle = fn.simplex_ell_oracle(4)
        want_lowner = fn.estimate(np.concatenate(lowner), 1.0 / (4 * oracle))
        want_john = fn.estimate(np.concatenate(john), 1.0 / oracle)
        rep = st.extremality_check(P, n_samples=self.N, seed=8)
        assert (rep["lowner_deficit"], rep["lowner_stderr"]) == (want_lowner.value,
                                                                 want_lowner.stderr)
        assert (rep["john_deficit"], rep["john_stderr"]) == (want_john.value,
                                                             want_john.stderr)

    def test_bl_lhs_uses_the_chunks(self):
        # at base n = 4, where the direct integral is sampled
        inst = bl.BLInstance(iso.lift(iso.simplex_measure(4), +1), 0.1)
        L = inst.lifted
        m = inst.s * math.sqrt(L.dim) * L.pole
        inside = np.concatenate([np.all((X + m) @ L.points.T >= 0.0, axis=1)
                                 for X in self._chunks(6, L.dim)])
        assert bl.bl_lhs(inst, n_samples=self.N, seed=6) == fn.estimate(
            inside, (2.0 * math.pi) ** 2.5)
        # at n = 2 it is computed, and no sample is drawn
        inst = bl.BLInstance(iso.lift(iso.simplex_measure(2), +1), 0.1)
        est = bl.bl_lhs(inst, n_samples=self.N, seed=6)
        assert (est.method, est.samples) == ("closed-form", 0)

    def test_rbl_lhs_uses_the_chunks(self):
        inst = bl.BLInstance(iso.lift(iso.simplex_measure(2), +1), 0.1)
        solver = bl._NonnegTransportSolver(inst.lifted, inst.s)
        weights = []
        for X in self._chunks(9, inst.lifted.dim):
            q, _, _ = solver.solve(X + solver.m)
            gap = np.maximum(q - np.einsum("ij,ij->i", X, X), 0.0)
            weights.append(np.where(np.isnan(q), 0.0, np.exp(-0.5 * gap)))
        assert bl.rbl_lhs(inst, n_samples=self.N, seed=9) == fn.estimate(
            np.concatenate(weights), (2.0 * math.pi) ** 1.5)

    def test_mean_width_uses_the_chunks(self):
        body = g.regular_simplex(3)
        widths = []
        for X in self._chunks(7, 3):
            U = X / np.linalg.norm(X, axis=1)[:, None]
            widths.append(g.support_many(body, U) + g.support_many(body, -U))
        assert fn.mean_width(body, n_samples=self.N, seed=7) == fn.estimate(
            np.concatenate(widths))


class TestChunkStreams:
    """chunk_rng: SFC64 streams from SeedSequence children, seeds modulo 2^64."""

    @staticmethod
    def _draw(seed, chunk):
        return chunk_rng(seed, chunk).standard_normal(64)

    def test_chunk_i_is_child_i_of_the_seed_sequence(self):
        child = np.random.SeedSequence(3).spawn(3)[2]
        want = np.random.Generator(np.random.SFC64(child)).standard_normal(64)
        assert np.array_equal(self._draw(3, 2), want)

    def test_negative_seed_is_taken_modulo_two_to_the_64(self):
        assert np.array_equal(self._draw(-1, 0), self._draw(2 ** 64 - 1, 0))
        assert np.array_equal(self._draw(-1, 1), self._draw(2 ** 64 - 1, 1))
        est = fn.ell_norm(g.regular_simplex_polar(2), n_samples=1000, seed=-1)
        assert est == fn.ell_norm(g.regular_simplex_polar(2), n_samples=1000,
                                  seed=2 ** 64 - 1)

    def test_distinct_chunks_and_seeds_differ(self):
        draws = [self._draw(seed, chunk) for seed in (0, 1, 5, 2 ** 32 + 5)
                 for chunk in range(3)]
        assert len({d.tobytes() for d in draws}) == len(draws)
        # concatenated (seed, chunk) entropy words would make these two equal
        assert not np.array_equal(self._draw(5, 1), self._draw(5 + 2 ** 32, 0))


class TestDefaultWorkers:
    def test_environment_value_is_used(self, monkeypatch):
        monkeypatch.setenv("SIMPLEXSTAB_WORKERS", "3")
        assert fn.default_workers() == 3

    def test_cpu_affinity_bounds_the_default(self, monkeypatch):
        monkeypatch.delenv("SIMPLEXSTAB_WORKERS", raising=False)
        monkeypatch.setattr(fn.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(fn.os, "cpu_count", lambda: 8)
        assert fn.default_workers() == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delenv("SIMPLEXSTAB_WORKERS", raising=False)
        monkeypatch.delattr(fn.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(fn.os, "cpu_count", lambda: 8)
        assert fn.default_workers() == 8

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2"])
    def test_bad_environment_value_names_the_variable(self, value, monkeypatch):
        monkeypatch.setenv("SIMPLEXSTAB_WORKERS", value)
        with pytest.raises(ValueError, match="SIMPLEXSTAB_WORKERS"):
            fn.default_workers()


class TestStreamedMoments:
    """Means are merged from per-chunk moments, streamed or from values in hand."""
    N = 2 * fn.CHUNK_SAMPLES + 777          # three chunks, the last one ragged

    @staticmethod
    def _pair(X):
        return np.column_stack([np.abs(X).max(axis=1), X[:, 0] > 0.3])

    def test_two_columns_same_bits_for_any_worker_count(self):
        one = fn.sample_mean(self._pair, self.N, 2, seed=15, scale=[1.0, 2.0], workers=1)
        three = fn.sample_mean(self._pair, self.N, 2, seed=15, scale=[1.0, 2.0], workers=3)
        assert len(one) == 2 and one == three
        assert one == fn.estimate(sample_map(self._pair, self.N, 2, seed=15),
                                  [1.0, 2.0])
        assert all(est.samples == self.N for est in one)

    def test_merged_moments_match_one_pass(self):
        # a large offset makes a naive sum-of-squares merge lose the variance
        values = 1e6 + make_rng(16).standard_normal(self.N)
        est = fn.estimate(values)
        assert abs(est.value - values.mean()) <= 1e-15 * 1e6
        want = np.std(values, ddof=1) / math.sqrt(self.N)
        assert abs(est.stderr - want) <= 1e-9 * want

    @pytest.mark.parametrize("rows", [1, 7, fn.CHUNK_SAMPLES, fn.CHUNK_SAMPLES + 3])
    @pytest.mark.parametrize("cols", [1, 2, 6])
    def test_moments_do_not_depend_on_the_layout(self, cols, rows):
        # the integrands return the transpose of a (columns, rows) array,
        # whose columns are contiguous, not a C-order (rows, columns) one
        values = 1.0 + 3.0 * make_rng(18, rows + cols).standard_normal((rows, cols))
        stored = np.ascontiguousarray(values.T).T
        assert stored.flags.f_contiguous and np.array_equal(stored, values)
        n_c, mean_c, m2_c = fn._moments(values)
        n_f, mean_f, m2_f = fn._moments(stored)
        assert n_c == n_f == rows
        assert mean_c.tobytes() == mean_f.tobytes() and m2_c.tobytes() == m2_f.tobytes()

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_fewer_than_two_samples_raise(self, n_samples):
        with pytest.raises(ValueError, match="at least 2 samples"):
            fn.sample_mean(lambda X: X[:, 0], n_samples, 2, seed=19)
        with pytest.raises(ValueError, match="at least 2 samples"):
            fn.ell_norm(g.regular_simplex_polar(2), n_samples=n_samples, seed=19)
        for shape in [(n_samples,), (n_samples, 2)]:
            with pytest.raises(ValueError, match="at least 2 samples"):
                fn.estimate(np.ones(shape))

    def test_two_samples_give_a_standard_error(self):
        est = fn.estimate([1.0, 3.0])
        assert (est.value, est.stderr, est.samples) == (2.0, 1.0, 2)

    def test_ell_norm_memory_does_not_grow_with_samples(self):
        body = g.regular_simplex_polar(2)
        tracemalloc.start()
        try:
            est = fn.ell_norm(body, n_samples=1 << 22, seed=17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert abs(est.value - fn.simplex_ell_oracle(2)) <= 5.0 * est.stderr
