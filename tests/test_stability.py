import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from simplexstab import ellipsoids as el
from simplexstab import functionals as fn
from simplexstab import geometry as g
from simplexstab import isotropic as iso
from simplexstab import stability as st
from simplexstab.rng import make_rng


class TestMakeFamily:
    def test_vertex_added_shapes(self):
        fam = st.make_family("vertex-added", 2, [0.01, 0.05])
        assert fam.side == "lowner"
        for K in fam.bodies:
            assert K.vertices.shape == (4, 2)
            assert g.contains(K, g.regular_simplex(2))
            assert np.linalg.norm(K.vertices, axis=1).max() <= 1.0 + 1e-12

    def test_vertex_added_continuity(self):
        fam = st.make_family("vertex-added", 2, [1e-4])
        d = g.hausdorff_distance(fam.bodies[0], g.regular_simplex(2))
        assert d < 5e-4

    @pytest.mark.parametrize("n", range(2, 11))
    def test_corner_cut_vertex_count_in_high_dimension(self, n):
        # each of the n + 1 cut corners leaves n vertices, up to the largest
        # eps the grid accepts: the cuts never meet
        fam = st.make_family("corner-cut", n, [1e-3, 0.05, 0.0999])
        for K in fam.bodies:
            assert K.vertices.shape == (n * (n + 1), n)
            A, b = K.halfspaces
            assert (K.vertices @ A.T - b).max() < 1e-9

    def test_eps_range_enforced(self):
        with pytest.raises(st.FamilyError):
            st.make_family("vertex-added", 2, [0.2])
        with pytest.raises(st.FamilyError):
            st.make_family("vertex-added", 2, [0.0, 0.01])

    def test_empty_grid_rejected(self):
        with pytest.raises(st.FamilyError):
            st.make_family("vertex-added", 2, [])

    def test_unknown_kind(self):
        with pytest.raises(st.FamilyError):
            st.make_family("bogus", 2, [0.01])

    def test_polar_vertex_added_contains_ball(self):
        fam = st.make_family("polar-vertex-added", 2, [0.02])
        K = fam.bodies[0]
        assert fam.side == "john"
        assert g.contains(K, g.Polytope(vertices=0.999 * g.cross_polytope(2).vertices))

    def test_stretched_vertex_bumps(self):
        fam = st.make_family("stretched-vertex", 3, [0.03])
        K = fam.bodies[0]
        assert K.vertices.shape == (8, 3)
        assert g.contains(K, g.regular_simplex(3), tol=1e-9)


class TestAlignment:
    @pytest.mark.parametrize("n", [2, 3])
    def test_rotated_member_recovered(self, n):
        Q, _ = np.linalg.qr(make_rng(n).standard_normal((n, n)))
        K = g.Polytope(vertices=g.regular_simplex(n).vertices @ Q.T)
        res = st.align_to_simplex(K, g.regular_simplex(n), seed=1)
        assert res.delta_H < 1e-8

    def test_reflection_recovered(self):
        V = g.regular_simplex(2).vertices * np.array([-1.0, 1.0])
        res = st.align_to_simplex(g.Polytope(vertices=V), g.regular_simplex(2), seed=1)
        assert res.delta_H < 1e-8

    def test_family_alignment_is_stable(self):
        K = st.make_family("vertex-added", 2, [0.01]).bodies[0]
        a = st.align_to_simplex(K, g.regular_simplex(2), seed=5)
        b = st.align_to_simplex(K, g.regular_simplex(2), seed=5)
        assert a.delta_H == b.delta_H
        assert 0.0 < a.delta_H < 0.2

    @settings(max_examples=60, deadline=None)
    @given(n=hst.integers(2, 4), seed=hst.integers(0, 2 ** 32 - 1),
           polar_target=hst.booleans(), fraction=hst.floats(0.0, 1.5))
    def test_facet_violation_bounds_hausdorff(self, n, seed, polar_target, fraction):
        rng = make_rng(seed)
        K = g.Polytope(vertices=rng.standard_normal((n + 4, n)))
        P = rng.standard_normal((n + 1, n))
        T = g.Polytope(vertices=np.vstack([P, -rng.uniform(0.2, 1.0) * P]))
        if polar_target:   # halfspace rows (vertices, ones) are not unit
            T = g.polar(T)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        AT, bT = g._unit_halfspaces(T)
        args = (K.vertices, g._unit_halfspaces(K), T.vertices @ Q.T, (AT @ Q.T, bT))
        exact = g._hausdorff(*args)
        best = fraction * exact[0]
        d, count = g._hausdorff(*args, best)
        if count == 0:     # stopped by the facet violation: the exact distance reaches best
            assert d == math.inf
            assert exact[0] >= best
        else:
            assert (d, count) == exact
        # a best of 0 stops every pair whose facet violation clears the slack
        violation = max(float(np.max(args[2] @ args[1][0].T - args[1][1])),
                        float(np.max(args[0] @ args[3][0].T - args[3][1])))
        assert (g._hausdorff(*args, 0.0)[1] == 0) == (
            violation >= g._HAUSDORFF_SLACK * float(np.abs(np.vstack([args[0], args[2]])).max()))

    @pytest.mark.parametrize("kind", st.FAMILY_KINDS + ("rotated-simplex",))
    def test_pruned_search_matches_unpruned(self, kind, monkeypatch):
        if kind == "rotated-simplex":
            # exact recoveries, whose best distance is at rounding level
            target = g.regular_simplex(2)
            seeds = (7, 10, 12)
            bodies = [g.Polytope(vertices=target.vertices @ np.linalg.qr(
                make_rng(100 + s).standard_normal((2, 2)))[0].T) for s in seeds]
        else:
            fam = st.make_family(kind, 2, [2e-3, 1.5e-2, 9e-2])
            target = (g.regular_simplex(2) if fam.side in ("lowner", "lowner-width")
                      else g.regular_simplex_polar(2))
            bodies, seeds = fam.bodies, (5, 5, 5)

        def search():
            return [st.align_to_simplex(K, target, n_restarts=12, seed=s)
                    for K, s in zip(bodies, seeds)]

        pruned = search()
        hausdorff = st._hausdorff
        monkeypatch.setattr(st, "_hausdorff",
                            lambda VK, HK, VC, HC, best=math.inf: hausdorff(VK, HK, VC, HC))
        full = search()
        for a, b in zip(pruned, full):
            assert np.array_equal(a.rotation, b.rotation)
            assert a.delta_H == b.delta_H
            assert b.pruned == 0
            assert a.evaluated + a.pruned == b.evaluated
        assert sum(a.pruned for a in pruned) > 0

    def test_projection_count_is_pinned(self):
        # 14 evaluated candidates of 6 + 3 vertices: projecting every vertex
        # would take 126 projections
        K = st.make_family("corner-cut", 2, [1e-2]).bodies[0]
        res = st.align_to_simplex(K, g.regular_simplex_polar(2), n_restarts=12, seed=5)
        assert (res.evaluated, res.pruned, res.projections) == (14, 16, 46)

    def test_projection_count_is_pinned_in_three_dimensions(self):
        # 16 evaluated candidates of 12 + 4 vertices: projecting every vertex
        # would take 256 projections
        K = st.make_family("corner-cut", 3, [1e-2]).bodies[0]
        res = st.align_to_simplex(K, g.regular_simplex_polar(3), n_restarts=12, seed=5)
        assert (res.evaluated, res.pruned, res.projections) == (16, 22, 123)

    def test_point_alignment_exact_on_simplex(self):
        V = g.regular_simplex(3).vertices
        _, d = st.align_points_to_simplex_vertices(V, 3, seed=2)
        assert d < 1e-10


class TestMeasureDeficit:
    def test_simplex_deficit_vanishes(self):
        d, se = st.measure_deficit(g.regular_simplex(2), "lowner",
                                   n_samples=100_000, seed=3)
        assert abs(d) <= max(3.0 * se, 1e-12)

    def test_polar_simplex_deficit_vanishes(self):
        d, se = st.measure_deficit(g.regular_simplex_polar(3), "john",
                                   n_samples=100_000, seed=3)
        assert abs(d) <= max(3.0 * se, 1e-12)

    def test_ball_deficit_closed_form(self):
        # 1 - ell(ball)/ell(simplex) in the plane: 1 - sqrt(pi/2)/(2 * oracle)
        expect = 1.0 - fn.ell_ball(2) / (2.0 * fn.simplex_ell_oracle(2))
        assert abs(expect - 0.3954) < 5e-4
        d, se = st.measure_deficit(g.Ball(1.0, 2), "lowner",
                                   n_samples=400_000, seed=4)
        assert abs(d - expect) <= 3.0 * se

    def test_deficit_decreases_to_zero_along_family(self):
        fam = st.make_family("vertex-added", 2, np.geomspace(1e-3, 0.09, 6))
        deficits = [st.measure_deficit(K, "lowner", n_samples=100_000, seed=5)[0]
                    for K in fam.bodies]
        assert all(np.diff(deficits) > 0)
        assert deficits[0] < 1e-3

    def test_six_body_deficits_memory_is_bounded(self):
        # each chunk's six gauge differences go into one (bodies, rows) array
        # and the gauges take their products one tile at a time; the first
        # call imports the oracle's quadrature, which is not sampling memory
        fam = st.make_family("corner-cut", 2, np.geomspace(1e-3, 0.09, 6))
        st.measure_deficits(fam.bodies, fam.side, n_samples=1000, seed=5)
        tracemalloc.start()
        try:
            deficits = st.measure_deficits(fam.bodies, fam.side, n_samples=200_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20
        assert len(deficits) == 6 and all(d > 3.0 * se for d, se in deficits)

    def test_normalisation_guard(self):
        K = g.Polytope(vertices=0.5 * g.regular_simplex(2).vertices)
        with pytest.raises(st.NormalizationError):
            st.measure_deficit(K, "lowner", n_samples=1000, seed=6)

    @pytest.mark.parametrize("n", [2, 3])
    def test_width_side_is_the_john_side_of_the_polar(self, n):
        # a body's support function is, bit for bit, the gauge of its polar,
        # so the width deficits equal the John deficits of the polar bodies
        fam = st.make_family("stretched-vertex", n, np.geomspace(1e-3, 0.09, 4))
        widths = st.measure_deficits(fam.bodies, "lowner-width", n_samples=20_000, seed=7)
        assert widths == [st.measure_deficit(g.polar(K), "john", n_samples=20_000, seed=7)
                          for K in fam.bodies]

    def test_sampled_deficits_call_the_module_functionals(self, monkeypatch):
        # a tracer swaps the module's bindings for counting wrappers; the
        # sampled deficits must call them, per chunk (two at 70,000 samples)
        # one evaluation of S and one of each body, and keep their values
        cases = [(st.make_family("vertex-added", 4, [1e-3, 0.05]).bodies, "lowner"),
                 (st.make_family("stretched-vertex", 4, [0.05]).bodies, "lowner-width")]
        want = [st.measure_deficits(Ks, side, n_samples=70_000, seed=2) for Ks, side in cases]
        calls = dict.fromkeys(("gauge_many", "support_many", "regular_simplex",
                               "regular_simplex_polar"), 0)
        for name in calls:
            def counted(*args, name=name, func=getattr(st, name)):
                calls[name] += 1
                return func(*args)
            monkeypatch.setattr(st, name, functools.wraps(getattr(st, name))(counted))
        assert [st.measure_deficits(Ks, side, n_samples=70_000, seed=2)
                for Ks, side in cases] == want
        assert calls["gauge_many"] == 6 and calls["support_many"] == 4


def _moved(K, scale, shift):
    """The image scale * K + shift, with both representations carried over."""
    A, b = K.halfspaces
    return g.Polytope(vertices=scale * K.vertices + shift,
                      halfspaces=(A, scale * b + A @ shift), check=False)


def _mvee_verdict(K, side):
    """Whether mvee puts the side's ellipsoid within 1e-6 of the unit ball
    (the check the contact certificate replaced), as a test oracle."""
    lowner = side in ("lowner", "lowner-width")
    E, _ = el.mvee(K.vertices if lowner else g.polar(K).vertices)
    resid = max(float(np.abs(E.shape - np.eye(K.n)).max()), float(np.linalg.norm(E.center)))
    return resid <= 1e-6


def _certificate_verdict(K, side):
    try:
        st._check_unit_ball_normalisation(K, side)
    except st.NormalizationError:
        return False
    return True


# a non-regular triangle inscribed in the unit circle
_SKEW_TRIANGLE = np.array([[math.cos(t), math.sin(t)] for t in (0.3, 2.2, 4.0)])


class TestNormalisationCertificate:
    @pytest.mark.parametrize("kind", st.FAMILY_KINDS)
    @pytest.mark.parametrize("n", range(2, 7))
    def test_accepts_every_family_body(self, kind, n):
        fam = st.make_family(kind, n, np.geomspace(1e-4, 0.09, 5))
        for K in fam.bodies:
            st._check_unit_ball_normalisation(K, fam.side)

    @pytest.mark.parametrize("scale, shift, reason", [
        (0.5, 0.0, r"no contact point, every vertex lies 0\.5 or more inside"),
        (1.0 + 1e-4, 0.0, r"vertex lies 0\.0001 outside"),
        (1.0, 1e-4, r"vertex lies 0\.0001 outside"),
    ])
    def test_rejects_moved_simplex(self, scale, shift, reason):
        S = g.regular_simplex(2)
        K = _moved(S, scale, shift * S.vertices[0])
        with pytest.raises(st.NormalizationError, match=reason):
            st._check_unit_ball_normalisation(K, "lowner")

    def test_rejects_skew_inscribed_triangle(self):
        K = g.Polytope(vertices=_SKEW_TRIANGLE)
        assert np.abs(np.linalg.norm(K.vertices, axis=1) - 1.0).max() < 1e-15
        with pytest.raises(st.NormalizationError, match=r"3 contact points.*fit residual 0\.31"):
            st._check_unit_ball_normalisation(K, "lowner")

    def test_rejects_polar_of_skew_triangle_on_john_side(self):
        with pytest.raises(st.NormalizationError, match="john ellipsoid.*fit residual"):
            st._check_unit_ball_normalisation(g.polar(g.Polytope(vertices=_SKEW_TRIANGLE)),
                                              "john")

    def test_john_side_needs_origin_inside(self):
        K = _moved(g.regular_simplex_polar(2), 1.0, np.array([5.0, 0.0]))
        with pytest.raises(g.GaugeUndefinedError):
            st._check_unit_ball_normalisation(K, "john")

    def test_no_contact_raises_before_the_weight_fit(self, monkeypatch):
        # scipy's nnls aborts the interpreter on a matrix with no columns, so
        # the certificate must stop before it fits weights on no contacts
        def no_fit(U):
            raise AssertionError("weight fit reached")
        monkeypatch.setattr(st, "_isotropic_contact_fit", no_fit)
        K = g.Polytope(vertices=0.5 * g.regular_simplex(2).vertices)
        with pytest.raises(st.NormalizationError, match="no contact point"):
            st.measure_deficit(K, "lowner", n_samples=1000, seed=6)

    @pytest.mark.parametrize("kind", st.FAMILY_KINDS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_mvee(self, kind, n):
        fam = st.make_family(kind, n, [1e-2])
        K = fam.bodies[0]
        u = make_rng(40 + n).standard_normal(n)
        u /= np.linalg.norm(u)
        for delta, accept in ((1e-8, True), (1e-4, False)):
            for scale, shift in ((1.0 + delta, 0.0), (1.0 - delta, 0.0), (1.0, delta)):
                moved = _moved(K, scale, shift * u)
                verdict = _certificate_verdict(moved, fam.side)
                assert verdict == _mvee_verdict(moved, fam.side) == accept, (delta, scale, shift)


class TestMeasureDeficitsInputs:
    def test_no_bodies_draw_nothing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("sampled")
        monkeypatch.setattr(fn, "sample_mean", no_draw)
        assert st.measure_deficits([], "lowner") == []
        assert st.measure_deficits(iter(()), "john") == []

    def test_mixed_dimensions_raise_up_front(self):
        with pytest.raises(g.GeometryError, match=r"dimensions \[2, 3\]"):
            st.measure_deficits([g.regular_simplex(2), g.regular_simplex(3)], "lowner",
                                n_samples=1000)

    def test_unknown_side_still_raises_on_no_bodies(self):
        with pytest.raises(ValueError, match="side"):
            st.measure_deficits([], "width")


class TestFitExponent:
    def test_vertex_added_slope_near_one(self):
        fam = st.make_family("vertex-added", 2, np.geomspace(2e-3, 0.09, 8))
        rep = st.fit_exponent(fam, n_samples=200_000, seed=11)
        assert rep.distance_used == "delta_vol"
        assert 0.8 <= rep.slope <= 1.2
        assert rep.r_squared > 0.98
        assert all(r.bound_margin_log10 > 0 for r in rep.rows)

    def test_corner_cut_slope_near_half(self):
        fam = st.make_family("corner-cut", 2, np.geomspace(1e-3, 0.09, 8))
        rep = st.fit_exponent(fam, n_samples=200_000, seed=12)
        assert rep.distance_used == "delta_H"
        assert 0.35 <= rep.slope <= 0.65

    def test_stretched_vertex_width_slope_near_half(self):
        # the facet bumps keep the width deficit ~ h^n while the Hausdorff
        # distance tracks h, so the fitted exponent is 1/n
        fam = st.make_family("stretched-vertex", 2, np.geomspace(1e-4, 0.095, 8))
        rep = st.fit_exponent(fam, n_samples=200_000, seed=22)
        assert rep.distance_used == "delta_H"
        assert 0.4 <= rep.slope <= 0.6

    @pytest.mark.parametrize("kind", ["vertex-added", "corner-cut", "stretched-vertex"])
    def test_rows_match_single_body_deficits(self, kind):
        # the grid's deficits share one draw, yet each row has the bits of
        # measuring its body alone
        fam = st.make_family(kind, 2, np.geomspace(1e-3, 0.09, 6))
        rep = st.fit_exponent(fam, n_samples=150_000, seed=14, align_restarts=1)
        for row, K in zip(rep.rows, fam.bodies):
            assert (row.eps_measured, row.eps_stderr) == st.measure_deficit(
                K, fam.side, n_samples=150_000, seed=14)

    def test_insufficient_span_raises(self):
        fam = st.make_family("vertex-added", 2, np.geomspace(0.04, 0.06, 6))
        with pytest.raises(st.InsufficientSignalError):
            st.fit_exponent(fam, n_samples=50_000, seed=13)


class TestPlanarClosedForm:
    """Planar polytope deficits from Cauchy's formula, E h_L(G) = per(L) / (2 sqrt(2 pi))."""

    @pytest.mark.parametrize("side, body", [("lowner", g.regular_simplex),
                                            ("lowner-width", g.regular_simplex),
                                            ("john", g.regular_simplex_polar)])
    def test_simplex_deficits_vanish(self, side, body):
        [(deficit, stderr)] = st.measure_deficits([body(2)], side)
        assert abs(deficit) <= 1e-13 and abs(deficit) <= stderr <= 1e-14

    @pytest.mark.parametrize("kind", st.FAMILY_KINDS)
    def test_families_agree_with_the_sampled_gap(self, kind):
        fam = st.make_family(kind, 2, np.geomspace(1e-3, 0.09, 3))
        exact = st.measure_deficits(fam.bodies, fam.side)
        sampled = st._deficits([(K, fam.side) for K in fam.bodies], 1 << 20, 31)
        for (deficit, stderr), est in zip(exact, sampled):
            assert 0.0 < stderr <= 1e-14 and est.method == "mc-direct"
            assert abs(deficit - est.value) <= 3.0 * est.stderr

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_off_centre_polygons_agree_with_the_sampled_means(self, seed):
        # the closed-form means are read through unit references, where the
        # upper sides' deficit is the mean minus 1
        rng = make_rng(seed)
        K = g.Polytope(vertices=rng.standard_normal((9, 2)) + rng.uniform(-0.2, 0.2, 2))
        assert np.all(K.halfspaces[1] > 0)
        gauge = st._exact_deficit(K, st._SIDES["john"], 1.0).value + 1.0
        support = st._exact_deficit(K, st._SIDES["lowner-width"], 1.0).value + 1.0
        ell = fn.ell_norm(K, n_samples=1 << 20, seed=seed)
        assert abs(gauge - ell.value) <= 3.0 * ell.stderr
        width = fn.mean_width(K, n_samples=1 << 20, seed=seed)
        half_ell = 0.5 * fn.ell_ball(2)
        assert abs(support - half_ell * width.value) <= 3.0 * half_ell * width.stderr

    def test_closed_form_draws_no_sample(self, monkeypatch):
        fam = st.make_family("vertex-added", 2, [1e-3, 0.05])
        want = st.measure_deficits(fam.bodies, fam.side)

        def no_draw(*args):
            raise AssertionError("a closed-form deficit drew samples")

        monkeypatch.setattr(st, "_deficits", no_draw)
        assert st.measure_deficits(fam.bodies, fam.side, n_samples=10, seed=9) == want

    def test_balls_keep_sampling_beside_polytopes(self):
        K = st.make_family("vertex-added", 2, [0.05]).bodies[0]
        ball = g.Ball(1.0, 2)
        mixed = st.measure_deficits([ball, K], "lowner", n_samples=20_000, seed=3)
        assert mixed == [st.measure_deficit(ball, "lowner", n_samples=20_000, seed=3),
                         st.measure_deficit(K, "lowner")]
        # the polygon's stderr is the bound on its rounding
        assert mixed[0][1] > 1e-6 and 0.0 < mixed[1][1] <= 1e-14

    def test_fit_uses_every_exact_row(self):
        # 9 points down to 1e-6, where 8000 samples lost two rows to the
        # noise floor when these deficits were sampled
        fam = st.make_family("corner-cut", 2, np.geomspace(1e-6, 9e-2, 9))
        rep = st.fit_exponent(fam, n_samples=20_000, seed=4)
        assert rep.deficit_method == "closed-form"
        assert all(r.used_in_fit and 0.0 < r.eps_stderr <= 1e-14 for r in rep.rows)

    def test_sampled_fit_reports_its_method(self):
        fam = st.make_family("vertex-added", 4, np.geomspace(2e-3, 9e-2, 6))
        rep = st.fit_exponent(fam, n_samples=100_000, seed=4, align_restarts=1)
        assert rep.deficit_method == "mc-direct"
        assert all(r.eps_stderr > 0.0 for r in rep.rows)

    def test_insufficient_signal_counts_the_rows(self):
        fam = st.make_family("corner-cut", 4, np.geomspace(1e-6, 1e-3, 6))
        with pytest.raises(st.InsufficientSignalError,
                           match=r"only 0 grid points above the noise floor: "
                                 r"\d+ under 3 standard errors, \d+ with a "
                                 r"non-positive deficit or zero distance"):
            st.fit_exponent(fam, n_samples=20_000, seed=3, align_restarts=1)


class TestExactDeficits:
    """Polytope deficits at n <= 3 from E h_L(G) = V_1(L) / sqrt(2 pi), their
    stderr a bound on the rounding."""

    @pytest.mark.parametrize("side, body", [("lowner", g.regular_simplex),
                                            ("lowner-width", g.regular_simplex),
                                            ("john", g.regular_simplex_polar)])
    def test_three_dimensional_simplex_deficits_vanish(self, side, body):
        # n = 2 is TestPlanarClosedForm's
        [est] = st._deficit_estimates([body(3)], side, 1000, 0)
        assert est.method == "closed-form" and est.samples == 0
        assert abs(est.value) <= 1e-13 and abs(est.value) <= est.stderr <= 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    def test_rounding_bound_covers_rotated_simplices(self, n):
        bodies = {"lowner": [], "lowner-width": [], "john": []}
        for seed in range(200):
            Q, _ = np.linalg.qr(make_rng(seed).standard_normal((n, n)))
            S = g.Polytope(vertices=g.regular_simplex(n).vertices @ Q.T)
            bodies["lowner"].append(S)
            bodies["lowner-width"].append(S)
            bodies["john"].append(g.Polytope(vertices=g.regular_simplex_polar(n).vertices @ Q.T))
        for side, Ks in bodies.items():
            for deficit, bound in st.measure_deficits(Ks, side, n_samples=1000, seed=0):
                assert abs(deficit) <= bound <= 1e-14, (side, deficit, bound)

    @pytest.mark.parametrize("n", [2, 3])
    def test_rounding_bound_covers_john_contacts_of_a_simplex_cloud(self, n):
        # John contacts of a near-regular simplex cloud: n + 1 unit points,
        # whose exact deficits read -2.2e-16 on some seeds
        for seed in range(1, 6):
            rng = make_rng(seed)
            cloud = np.vstack([v + 0.01 * rng.standard_normal((20, n))
                               for v in g.regular_simplex(n).vertices])
            contacts = el.john_contact_measure(g.Polytope(vertices=cloud)).contacts.points
            rep = st.extremality_check(contacts, n_samples=1000, seed=seed)
            assert rep["deficit_method"] == "closed-form"
            for side in ("lowner", "john"):
                assert abs(rep[f"{side}_deficit"]) <= rep[f"{side}_stderr"] <= 1e-14

    def test_cube_first_intrinsic_volume(self):
        # 12 edges of length 2 at right angles: V_1 = 12 * 2 * (pi / 2) / (2 pi);
        # the edges inside the six square facets add exactly 0
        K = g.cube(3)
        v1, bound = st._first_intrinsic_volume(st._support_points(K, "support"),
                                               K._vertex_hull()[4])
        assert abs(v1 - 6.0) <= bound <= 1e-13

    def test_one_simplex_oracle_beside_a_sampled_body(self, monkeypatch):
        # the closed-form polytope and the sampled ball share one oracle
        K = st.make_family("vertex-added", 3, [0.05]).bodies[0]
        ball = g.Ball(1.0, 3)
        want = [st.measure_deficit(ball, "lowner", n_samples=20_000, seed=3),
                st.measure_deficit(K, "lowner")]
        calls = []
        oracle = fn.simplex_ell_oracle

        def counting(n):
            calls.append(n)
            return oracle(n)

        monkeypatch.setattr(fn, "simplex_ell_oracle", counting)
        assert st.measure_deficits([ball, K], "lowner", n_samples=20_000, seed=3) == want
        assert calls == [3]

    def test_wrapped_functionals_leave_the_deficits(self, monkeypatch):
        # a tracer swaps the module's functionals for wrappers; the closed
        # form must still read the hull its side names, not pick it by the
        # identity of the module's functional
        cases = [(st.make_family(kind, n, [0.01]).bodies[0], side)
                 for n in (2, 3) for kind, side in (("stretched-vertex", "lowner-width"),
                                                    ("vertex-added", "lowner"),
                                                    ("corner-cut", "john"))]
        want = [st.measure_deficits([K], side) for K, side in cases]
        for name in ("gauge_many", "support_many"):
            func = getattr(st, name)
            monkeypatch.setattr(st, name, functools.wraps(func)(lambda *a, f=func: f(*a)))
        assert [st.measure_deficits([K], side) for K, side in cases] == want

    @pytest.mark.parametrize("kind", st.FAMILY_KINDS)
    def test_families_agree_with_the_sampled_gap(self, kind):
        fam = st.make_family(kind, 3, np.geomspace(1e-3, 0.09, 3))
        exact = st.measure_deficits(fam.bodies, fam.side)
        sampled = st._deficits([(K, fam.side) for K in fam.bodies], 1 << 20, 31)
        for (deficit, bound), est in zip(exact, sampled):
            assert 0.0 < bound <= 1e-14 and est.method == "mc-direct"
            assert abs(deficit - est.value) <= 3.0 * est.stderr

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_polytopes_agree_with_the_sampled_means(self, seed):
        # cube(3), then random off-centre 3-polytopes, through unit references
        if seed is None:
            K, seed = g.cube(3), 3
        else:
            rng = make_rng(seed)
            K = g.Polytope(vertices=rng.standard_normal((12, 3)) + rng.uniform(-0.2, 0.2, 3))
        assert np.all(K.halfspaces[1] > 0)
        gauge = st._exact_deficit(K, st._SIDES["john"], 1.0).value + 1.0
        support = st._exact_deficit(K, st._SIDES["lowner-width"], 1.0).value + 1.0
        ell = fn.ell_norm(K, n_samples=1 << 20, seed=seed)
        assert abs(gauge - ell.value) <= 3.0 * ell.stderr
        width = fn.mean_width(K, n_samples=1 << 20, seed=seed)
        half_ell = 0.5 * fn.ell_ball(3)
        assert abs(support - half_ell * width.value) <= 3.0 * half_ell * width.stderr

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_extremality_samples_only_from_dimension_four(self, n, monkeypatch):
        draws = []

        def counted(*args, **kwargs):
            draws.append(args)
            return sample_mean(*args, **kwargs)

        sample_mean = fn.sample_mean
        monkeypatch.setattr(fn, "sample_mean", counted)
        P = el.random_isotropic_measure(n, n + 4, seed=n).points
        rep = st.extremality_check(P, n_samples=20_000, seed=1)
        assert len(draws) == (n >= 4)
        assert rep["deficit_method"] == ("mc-direct" if n >= 4 else "closed-form")
        if n < 4:
            assert rep == st.extremality_check(P, n_samples=10, seed=1)

    def test_fit_in_three_dimensions_uses_every_exact_row(self):
        fam = st.make_family("corner-cut", 3, np.geomspace(1e-6, 9e-2, 9))
        rep = st.fit_exponent(fam, n_samples=20_000, seed=4, align_restarts=1)
        assert rep.deficit_method == "closed-form"
        assert all(r.used_in_fit and 0.0 < r.eps_stderr <= 1e-14 for r in rep.rows)


def _perturbed_contacts(n, angle, seed):
    rng = make_rng(seed)
    out = []
    for v in g.regular_simplex(n).vertices:
        t = rng.standard_normal(n)
        t -= (t @ v) * v
        t /= np.linalg.norm(t)
        out.append(math.cos(angle) * v + math.sin(angle) * t)
    return np.array(out)


class TestSandwich:
    def test_exact_contacts_give_equality(self):
        rep = st.sandwich_check(g.regular_simplex(2).vertices, 0.0)
        assert rep["ok"]
        assert abs(rep["inner_margin"]) < 1e-9
        assert abs(rep["outer_margin"]) < 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_perturbed_contacts(self, n):
        contacts = _perturbed_contacts(n, 1e-3, seed=7)
        rep = st.sandwich_check(contacts, 1e-3)
        assert rep["hypothesis_ok"]
        assert rep["ok"]

    def test_perturbed_contacts_in_dimension_five(self):
        contacts = _perturbed_contacts(5, 1e-3, seed=11)
        rep = st.sandwich_check(contacts, 1e-3)
        assert "error" not in rep
        assert rep["ok"]

    def test_unbounded_contact_polytope_is_reported(self):
        # three contacts within a 90 degree arc leave Z unbounded
        angles = np.radians([0.0, 40.0, 80.0])
        rep = st.sandwich_check(np.c_[np.cos(angles), np.sin(angles)], 1e-2)
        assert not rep["ok"]
        assert "unbounded" in rep["error"]

    @pytest.mark.parametrize("n", [2, 3])
    def test_margins_match_the_hull_rows(self, n):
        # the closed-form rows <w_j, x> <= 1 + 2 n eta of the outer dilate
        # give the margin its Qhull hull gives, up to the hull's rounding
        eta = 1e-3
        contacts = _perturbed_contacts(n, eta, seed=7)
        rep = st.sandwich_check(contacts, eta)
        W = -n * st._worst_angle_alignment(contacts, n)[0]
        Z = g.Polytope(halfspaces=(contacts, np.ones(n + 1)))
        inner = (1.0 - n * eta) * W
        assert rep["inner_margin"] == float(np.min(1.0 - inner @ contacts.T))
        A, b = g.Polytope(vertices=(1.0 + 2.0 * n * eta) * W).halfspaces
        assert abs(rep["outer_margin"] - float(np.min(b - Z.vertices @ A.T))) < 1e-14

    def test_far_atom_violates_hypothesis(self):
        far = np.array([math.cos(0.5), math.sin(0.5)])
        far = np.vstack([g.regular_simplex(2).vertices, far / np.linalg.norm(far)])
        rep = st.sandwich_check(far, 1e-2)
        assert not rep["hypothesis_ok"]
        assert not rep["ok"]


class TestCentroidBound:
    def test_exact_circumscribed_simplex(self):
        S1 = g.regular_simplex_polar(3)
        rep = st.centroid_bound_check(S1, 0.0)
        assert rep["ok"]
        assert rep["centroid_gauge"] < 1e-9

    def test_perturbed_facets(self):
        U = _perturbed_contacts(2, 1e-2, seed=8)
        S1 = g.Polytope(halfspaces=(U, np.ones(3)))
        rep = st.centroid_bound_check(S1, 1e-2)
        assert rep["ok"]

    def test_consumed_fraction_shrinks_with_eta(self):
        # coherent tilt toward a fixed direction: the used fraction of the
        # bound decreases as the tilt grows
        n = 2
        z = np.array([1.0, 0.3])
        z /= np.linalg.norm(z)
        fractions = []
        for eta in (0.002, 0.005, 0.01, 0.02, 0.05):
            U = []
            for w in g.regular_simplex(n).vertices:
                t = z - (z @ w) * w
                t /= np.linalg.norm(t)
                U.append(math.cos(eta) * w + math.sin(eta) * t)
            S1 = g.Polytope(halfspaces=(np.array(U), np.ones(n + 1)))
            rep = st.centroid_bound_check(S1, eta)
            assert rep["ok"]
            fractions.append(rep["centroid_gauge"] / rep["bound"])
        assert all(np.diff(fractions) < 0)

    def test_requires_tangent_facets(self):
        S1 = g.Polytope(halfspaces=(g.regular_simplex(2).vertices, np.full(3, 2.0)))
        with pytest.raises(g.GeometryError):
            st.centroid_bound_check(S1, 0.1)


class TestExtremality:
    def test_simplex_support_has_zero_deficits(self):
        rep = st.extremality_check(g.regular_simplex(2).vertices,
                                   n_samples=50_000, seed=9)
        assert abs(rep["lowner_deficit"]) < 1e-12
        assert abs(rep["john_deficit"]) < 1e-12
        assert rep["support_distance"] < 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_supports_are_dominated(self, n):
        for trial in range(10):
            mu = el.random_isotropic_measure(n, 20, seed=40 + 7 * trial)
            rep = st.extremality_check(mu.points, n_samples=100_000, seed=10)
            assert rep["lowner_deficit"] >= -3.0 * rep["lowner_stderr"]
            assert rep["john_deficit"] >= -3.0 * rep["john_stderr"]

    def test_dimension_ten_memory_is_bounded(self):
        # 38 support points, 44,480 hull facets: one 4096-row product of all
        # facets would take about 1.5 GB
        mu = el.random_isotropic_measure(10, 200, seed=1)
        tracemalloc.start()
        try:
            rep = st.extremality_check(mu.points, n_samples=4096, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert rep["lowner_deficit"] >= -3.0 * rep["lowner_stderr"]
        assert rep["john_deficit"] >= -3.0 * rep["john_stderr"]

    def test_memory_does_not_grow_with_samples(self):
        # at n = 4, where the deficits are sampled
        P = iso.orthonormal_measure(4).points
        tracemalloc.start()
        try:
            rep = st.extremality_check(P, n_samples=1 << 21, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert rep["lowner_deficit"] > 0.0 and rep["john_deficit"] > 0.0

    @pytest.mark.parametrize("seed", [3, 17])
    def test_deficits_are_the_hull_lowner_and_width_deficits(self, seed):
        mu = el.random_isotropic_measure(3, 12, seed=seed)
        rep = st.extremality_check(mu.points, n_samples=30_000, seed=4)
        C = g.Polytope(vertices=mu.points)
        assert st.measure_deficits([C], "lowner", n_samples=30_000, seed=4) == [
            (rep["lowner_deficit"], rep["lowner_stderr"])]
        assert st.measure_deficits([C], "lowner-width", n_samples=30_000, seed=4) == [
            (rep["john_deficit"], rep["john_stderr"])]

    def test_support_distance_bound_is_vacuous(self):
        # the distance bound with constant n^(28 n) is astronomically slack
        mu = el.random_isotropic_measure(2, 12, seed=44)
        rep = st.extremality_check(mu.points, n_samples=100_000, seed=11)
        eps = max(rep["lowner_deficit"], 1e-12)
        assert math.log10(rep["support_distance"]) <= 28 * 2 * math.log10(2) + 0.25 * math.log10(eps)


class TestBoundMargins:
    def test_margin_formula(self):
        # n = 2, eps = 1e-4, delta = 0.1: log10 margin = 52 log10(2) - 1 - (-1)
        got = st.stability_bound_log10(2, 1e-4, 0.1)
        want = 52.0 * math.log10(2.0) + 0.25 * math.log10(1e-4) - math.log10(0.1)
        assert abs(got - want) < 1e-12
        assert st.stability_bound_log10(2, 0.0, 0.1) == math.inf


class TestExtremalityInputs:
    @pytest.mark.parametrize("extra", [None, [0.1, 0.1]])
    def test_points_off_the_sphere_raise_before_any_draw(self, extra, monkeypatch):
        # twice the simplex read a Loewner deficit of 0.50, and the simplex
        # with an interior point a support distance of 0.86, both silently
        V = g.regular_simplex(2).vertices
        P = 2.0 * V if extra is None else np.vstack([V, extra])

        def draw(*args, **kw):
            raise AssertionError("drew samples")

        monkeypatch.setattr(fn, "sample_mean", draw)
        with pytest.raises(iso.MeasureError, match="unit vectors"):
            st.extremality_check(P, n_samples=1000, seed=0)


class TestFlatSupport:
    def test_extremality_of_a_flat_support_raises_degenerate(self):
        # six points on a great circle of the sphere: their hull is flat
        t = np.arange(6) * np.pi / 3
        P = np.c_[np.cos(t), np.sin(t), np.zeros(6)]
        with pytest.raises(g.DegenerateBodyError):
            st.extremality_check(P, n_samples=1000, seed=0)
