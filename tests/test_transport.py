import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri

from simplexstab import isotropic as iso
from simplexstab import transport as tr
from simplexstab.rng import make_rng

SQRT_2PI = math.sqrt(2.0 * math.pi)


class TestTailConstants:
    def test_brackets(self):
        tc = tr.tail_constants()
        for name, (lo, hi) in tr.TAIL_BRACKETS.items():
            assert lo < tc[name] < hi, name

    def test_against_quantile_function(self):
        tc = tr.tail_constants()
        for name, target in tr.TAIL_TARGETS.items():
            assert abs(tc[name] - (-ndtri(target))) < 1e-12


class TestTransportMaps:
    def test_quarter_tail_identities(self):
        # exact values of the inverse map at rational tail levels
        tc = tr.tail_constants()
        assert abs(tr.psi(0.0, 0.0) - tc["alpha"]) < 1e-12
        assert abs(tr.psi(0.0, tc["gamma"]) - tc["delta"]) < 1e-12
        assert abs(tr.psi(tc["gamma"], 0.0) - (tc["gamma"] + tc["beta"])) < 1e-12
        assert abs(tr.psi(tc["gamma"], tc["gamma"]) - (tc["gamma"] + tc["xi"])) < 1e-12

    @pytest.mark.parametrize("s", [0.0, 0.1, 0.15])
    def test_inverse_pair(self, s):
        y = np.linspace(-3.0, 3.0, 100)
        assert np.abs(tr.phi(s, tr.psi(s, y)) - y).max() < 1e-9

    def test_phi_domain(self):
        with pytest.raises(tr.TransportDomainError):
            tr.phi(0.1, -0.5)

    def test_deep_tail_warns(self):
        with pytest.warns(RuntimeWarning):
            tr.psi(0.0, 9.0)

    def test_transport_identity(self):
        # density transport: g_s(x) = g(phi_s(x)) phi_s'(x)
        x = np.linspace(0.01, 4.0, 500)
        for s in (0.0, 0.1, 0.15):
            gs = tr.TruncatedGaussian(s).pdf(x)
            val, first, _ = tr.phi_derivs(s, x)
            recon = np.exp(-0.5 * val ** 2) / SQRT_2PI * first
            assert np.abs((recon - gs) / gs).max() < 1e-9


class TestDerivatives:
    def test_first_derivative_by_finite_differences(self):
        h = 1e-5
        x = np.linspace(0.74, 0.77, 23)
        for s in (0.0, 0.07, 0.15):
            _, first, _ = tr.phi_derivs(s, x)
            fd = (tr.phi(s, x + h) - tr.phi(s, x - h)) / (2.0 * h)
            assert np.abs((first - fd) / first).max() < 1e-6
        y = np.linspace(0.0, 0.15, 23)
        for s in (0.0, 0.07, 0.15):
            _, first, _ = tr.psi_derivs(s, y)
            fd = (tr.psi(s, y + h) - tr.psi(s, y - h)) / (2.0 * h)
            assert np.abs((first - fd) / first).max() < 1e-6

    def test_second_derivative_by_finite_differences(self):
        h = 1e-4
        x = np.linspace(0.74, 0.77, 11)
        for s in (0.0, 0.15):
            _, _, second = tr.phi_derivs(s, x)
            fd = (tr.phi(s, x + h) - 2.0 * tr.phi(s, x) + tr.phi(s, x - h)) / h ** 2
            assert np.abs(second - fd).max() / max(1.0, np.abs(second).max()) < 1e-5
        y = np.linspace(0.0, 0.15, 11)
        for s in (0.0, 0.15):
            _, _, second = tr.psi_derivs(s, y)
            fd = (tr.psi(s, y + h) - 2.0 * tr.psi(s, y) + tr.psi(s, y - h)) / h ** 2
            assert np.abs(second - fd).max() / max(1.0, np.abs(second).max()) < 1e-5


class TestBoxBounds:
    def test_all_margins_positive_on_fine_grid(self):
        margins = tr.derivative_box_margins(grid=200)
        assert margins["ok"]
        for name, payload in margins.items():
            if name == "ok":
                continue
            _, margin = payload
            assert margin > 0, name

    def test_value_ranges_match_certificates(self):
        margins = tr.derivative_box_margins(grid=60)
        worst_phi_first = margins["phi_first_upper"][0]
        assert worst_phi_first <= 2.05
        assert margins["phi_second_upper"][0] <= -0.25
        assert margins["psi_second_lower"][0] >= 0.07


def _row_by_row_extremes(derivs, s_grid, x_grid):
    # the lattice reduction one s value per call
    lo, hi = np.full(3, np.inf), np.full(3, -np.inf)
    for s in s_grid:
        rows = derivs(float(s), x_grid)
        lo = np.minimum(lo, [r.min() for r in rows])
        hi = np.maximum(hi, [r.max() for r in rows])
    return lo.tolist(), hi.tolist()


def _box_grids(box, arg, grid):
    return np.linspace(*box["s"], grid), np.linspace(*box[arg], grid)


class TestBroadcastS:
    """A column of s values gives, bit for bit, the rows of one call per s."""

    BOXES = [(tr.phi_derivs, tr.PHI_BOX, "x"), (tr.psi_derivs, tr.PSI_BOX, "y")]

    @pytest.mark.parametrize("derivs, box, arg", BOXES)
    def test_derivatives_match_per_row_calls(self, derivs, box, arg):
        s_grid, x_grid = _box_grids(box, arg, 37)
        lattice = derivs(s_grid[:, None], x_grid)
        for got, want in zip(lattice, zip(*(derivs(s, x_grid) for s in s_grid))):
            assert got.shape == (37, 37)
            np.testing.assert_array_equal(got, np.array(want))

    @pytest.mark.parametrize("box, arg", [(tr.PHI_BOX, "x"), (tr.PSI_BOX, "y")])
    def test_truncated_gaussian_matches_per_row_calls(self, box, arg):
        s_grid, x_grid = _box_grids(box, arg, 23)
        column = tr.TruncatedGaussian(s_grid[:, None])
        p = np.linspace(0.0, 1.0, 23)
        for method, argument in (("pdf", x_grid), ("cdf", x_grid), ("quantile", p)):
            got = getattr(column, method)(argument)
            want = np.array([getattr(tr.TruncatedGaussian(s), method)(argument)
                             for s in s_grid])
            np.testing.assert_array_equal(got, want)

    def test_scalar_s_stays_a_float(self):
        for s in (0.1, np.float64(0.1), np.array(0.1), 1):
            assert type(tr.TruncatedGaussian(s).s) is float


class TestLatticeBlocks:
    @pytest.mark.parametrize("grid", [2, 3, 17, 200, 301])
    def test_margins_match_row_by_row_reference(self, grid):
        # 301 is not a multiple of the block's s rows, so the last block is short
        (pv_lo, pf_lo, _), (pv_hi, pf_hi, ps_hi) = _row_by_row_extremes(
            tr.phi_derivs, *_box_grids(tr.PHI_BOX, "x", grid))
        (qv_lo, qf_lo, qs_lo), (qv_hi, qf_hi, _) = _row_by_row_extremes(
            tr.psi_derivs, *_box_grids(tr.PSI_BOX, "y", grid))
        margins = tr.derivative_box_margins(grid)
        worst = {name: payload[0] for name, payload in margins.items() if name != "ok"}
        assert worst == {
            "phi_lower": pv_lo, "phi_upper": pv_hi, "phi_first_lower": pf_lo,
            "phi_first_upper": pf_hi, "phi_second_upper": ps_hi,
            "psi_lower": qv_lo, "psi_upper": qv_hi, "psi_first_lower": qf_lo,
            "psi_first_upper": qf_hi, "psi_second_lower": qs_lo,
        }

    def test_peak_memory_does_not_grow_with_the_lattice(self):
        tr.derivative_box_margins(1000)
        tracemalloc.start()
        try:
            tr.derivative_box_margins(1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("grid", [-3, 0, 1])
    def test_grid_below_two_raises(self, grid):
        with pytest.raises(ValueError, match=rf"^grid must be at least 2 .*, got {grid}$"):
            tr.derivative_box_margins(grid)


class TestMonotonicity:
    def test_shifted_map_decreases_and_stays_positive(self):
        rep = tr.psi_shift_monotonicity_check(
            np.linspace(0.0, 0.15, 9), [0.0, 0.05, 0.1, 0.15])
        assert rep["ok"]
        assert rep["decreasing_margin"] > 0
        assert rep["positive_margin"] > 0
        assert rep["increasing_margin"] > 0

    def test_margins_match_per_s_reference(self):
        y_grid = np.linspace(0.0, 0.3, 13)
        s_grid = np.array([0.0, 0.02, 0.05, 0.1, 0.12, 0.15])
        vals = np.array([tr.psi(s, y_grid) for s in s_grid])
        shifted = vals - s_grid[:, None]
        in_range = y_grid <= tr.tail_constants()["gamma"]
        rep = tr.psi_shift_monotonicity_check(y_grid, s_grid[::-1])
        assert rep["decreasing_margin"] == float(np.min(shifted[:-1] - shifted[1:]))
        assert rep["positive_margin"] == float(np.min(shifted))
        assert rep["increasing_margin"] == float(
            np.min(vals[1:, in_range] - vals[:-1, in_range]))

    def test_zero_argument_values(self):
        for s in (0.0, 0.05, 0.1, 0.15):
            assert tr.psi(s, 0.0) - s > 0


class TestTruncatedGaussian:
    def test_normalised_density_integrates_to_one(self):
        for s in (0.0, 0.1, 0.6, -0.4):
            val, err = quad(tr.TruncatedGaussian(s).pdf, 0.0, 12.0, limit=200)
            assert abs(val - 1.0) < 1e-12

    def test_unnormalised_mass(self):
        for s in (0.0, 0.1, 0.15, 0.9):
            got = tr.gtilde_integral(s)
            val, _ = quad(lambda t: math.exp(-0.5 * (t - s) ** 2), 0.0, 14.0, limit=200)
            assert abs(got - val) < 1e-12
            if s >= 0:
                assert got >= SQRT_2PI / 2.0

    def test_quantile_inverts_cdf(self):
        gst = tr.TruncatedGaussian(0.12)
        p = np.linspace(0.01, 0.99, 25)
        assert np.abs(gst.cdf(gst.quantile(p)) - p).max() < 1e-12


class TestVectorFields:
    def setup_method(self):
        self.lifted = iso.lift(iso.simplex_measure(2), +1)

    def test_orthonormal_case_acts_coordinatewise(self):
        x = np.array([0.4, 0.2, 0.9])
        field, jac = tr.theta_field(self.lifted, 0.0, x)
        dots = self.lifted.points @ x
        expect = tr.phi(0.0, dots) @ self.lifted.points
        assert np.abs(field - expect).max() < 1e-12
        # in the lifted-simplex frame the Jacobian is diagonal
        B = self.lifted.points
        diag = B @ jac @ B.T
        off = diag[~np.eye(3, dtype=bool)]
        assert np.abs(off).max() < 1e-12

    def test_inverse_field_restores_points(self):
        rng = make_rng(3)
        for _ in range(20):
            x = np.abs(rng.standard_normal(3)) + 0.1
            x = x / np.linalg.norm(x) + self.lifted.pole
            dots = self.lifted.points @ x
            if dots.min() <= 1e-6:
                continue
            y, _ = tr.theta_field(self.lifted, 0.1, x)
            back, _ = tr.psi_field(self.lifted, 0.1, y)
            assert np.abs(back - x).max() < 1e-7

    def test_cone_domain_enforced(self):
        x = -5.0 * self.lifted.pole
        with pytest.raises(tr.ConeDomainError):
            tr.theta_field(self.lifted, 0.0, x)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_jacobian_determinant_dominates_product(self, sign):
        mu = iso.isotropize(*_sym_points(seed=5, n=2, k_half=4))
        L = iso.lift(mu, sign)
        rng = make_rng(9)
        count = 0
        for _ in range(300):
            x = rng.standard_normal(3) + 2.0 * L.pole
            dots = L.points @ x
            if dots.min() <= 1e-9:
                continue
            count += 1
            _, first, _ = tr.phi_derivs(0.1, dots)
            _, jac = tr.theta_field(L, 0.1, x)
            lhs = np.linalg.det(jac)
            rhs = float(np.exp(L.weights @ np.log(first)))
            assert lhs >= rhs * (1.0 - 1e-9)
            _, jac_psi = tr.psi_field(L, 0.1, x)
            assert np.abs(jac_psi - jac_psi.T).max() < 1e-12
            vals, firsts, _ = tr.psi_derivs(0.1, dots)
            rhs_psi = float(np.exp(L.weights @ np.log(firsts)))
            assert np.linalg.det(jac_psi) >= rhs_psi * (1.0 - 1e-9)
        assert count >= 100


def _sym_points(seed, n, k_half):
    rng = make_rng(seed)
    P = rng.standard_normal((k_half, n))
    P /= np.linalg.norm(P, axis=1)[:, None]
    w = rng.uniform(0.5, 2.0, k_half)
    return np.vstack([P, -P]), np.tile(w, 2)


class TestDomainChecks:
    @pytest.mark.parametrize("y_grid, s_grid, empty", [([0.1], [], "s"), ([], [0.1], "y")])
    def test_empty_monotonicity_grid_is_named(self, y_grid, s_grid, empty):
        with pytest.raises(tr.TransportDomainError, match=f"empty {empty} grid"):
            tr.psi_shift_monotonicity_check(y_grid, s_grid)

    def test_nan_quantile_raises(self):
        gst = tr.TruncatedGaussian(0.1)
        for p in (math.nan, [0.2, math.nan]):
            with pytest.raises(tr.TransportDomainError):
                gst.quantile(p)
        with pytest.raises(tr.TransportDomainError):
            tr.psi(0.1, math.nan)
