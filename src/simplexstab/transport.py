"""One-dimensional monotone transport between Gaussian and truncated Gaussian.

Let g be the standard Gaussian density and g_s the Gaussian shifted by s,
restricted to [0, infinity) and renormalised.  The transport maps are

    phi_s : (0, inf) -> R   with   int_0^x g_s = int_{-inf}^{phi_s(x)} g,
    psi_s : R -> (0, inf)   its inverse,

computed through the normal CDF/quantile pair, together with their first
and second derivatives (f = g_s, h = g and vice versa):

    T'(x)  = f(x) / h(T(x)),
    T''(x) = f(x)^2 / h(T(x)) * ( f'(x)/f(x)^2 - h'(T(x))/h(T(x))^2 ).

The module also solves the five Gaussian tail equations whose solutions
bracket the map values on the verification boxes, and evaluates the vector
fields built from a lifted measure.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .isotropic import LiftedMeasure

__all__ = [
    "TransportDomainError", "ConeDomainError",
    "TruncatedGaussian", "gtilde_integral",
    "phi", "psi", "phi_derivs", "psi_derivs",
    "tail_constants", "psi_shift_monotonicity_check",
    "derivative_box_margins", "PHI_BOX", "PSI_BOX",
    "theta_field", "psi_field",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
# lattice nodes per block of s rows in _lattice_extremes (20 rows at grid 200)
_LATTICE_BLOCK = 4096

# verification boxes for the derivative bounds: s-range x argument-range,
# together with the certified bounds on the two boxes
PHI_BOX = {"s": (0.0, 0.15), "x": (0.74, 0.77),
           "value": (0.0, 0.16), "first": (1.3, 2.05), "second_max": -0.25}
PSI_BOX = {"s": (0.0, 0.15), "y": (0.0, 0.15),
           "value": (0.0, 0.85), "first": (0.49, 0.77), "second_min": 0.07}

TAIL_TARGETS = {
    "alpha": 1.0 / 4.0,
    "beta": 9.0 / 32.0,
    "gamma": 7.0 / 16.0,
    "delta": 7.0 / 32.0,
    "xi": 63.0 / 256.0,
}

TAIL_BRACKETS = {
    "alpha": (0.67, 0.68),
    "beta": (0.57, 0.58),
    "gamma": (0.15, 0.16),
    "delta": (0.77, 0.78),
    "xi": (0.68, 0.69),
}


class TransportDomainError(ValueError):
    """Argument outside the domain of the requested transport map."""


class ConeDomainError(ValueError):
    """Evaluation point outside the positivity cone of the lifted system."""


def _gauss_pdf(x):
    return np.exp(-0.5 * np.square(x)) / SQRT_2PI


class TruncatedGaussian:
    """Gaussian shifted by s, restricted to [0, inf) and normalised to mass one.

    The unnormalised density 1{t >= 0} exp(-(t-s)^2/2) has total mass
    ``gtilde_integral(s)`` = sqrt(2 pi) Phi(s), at least sqrt(2 pi)/2 for
    s >= 0.

    s is a float, or an array that broadcasts against the argument (a column
    of s values against a row of x gives one row per s); a scalar s is
    stored as a float.
    """

    def __init__(self, s):
        s = np.asarray(s, dtype=float)
        self.s = float(s) if s.ndim == 0 else s

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        raw = np.where(x >= 0.0, np.exp(-0.5 * np.square(x - self.s)), 0.0)
        return raw / (SQRT_2PI * ndtr(self.s))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        mass = ndtr(self.s)
        raw = np.where(x >= 0.0, (ndtr(x - self.s) - ndtr(-self.s)), 0.0)
        return raw / mass

    def quantile(self, p):
        """Inverse CDF of the normalised density; p outside [0, 1] or NaN raises
        TransportDomainError."""
        p = np.asarray(p, dtype=float)
        if not np.all((p >= 0) & (p <= 1)):       # NaN fails both tests
            raise TransportDomainError("quantile argument outside [0, 1]")
        mass = ndtr(self.s)
        return self.s + ndtri(ndtr(-self.s) + p * mass)


def gtilde_integral(s: float) -> float:
    """Total mass sqrt(2 pi) Phi(s) of the unnormalised truncated Gaussian."""
    return SQRT_2PI * float(ndtr(s))


def phi(s, x):
    """Forward transport phi_s(x) = Phi^{-1}(G_s(x)) for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise TransportDomainError("phi requires x > 0")
    return ndtri(TruncatedGaussian(s).cdf(x))


def psi(s, y):
    """Inverse transport psi_s(y) = s + Phi^{-1}(Phi(-s) + Phi(s) Phi(y)).

    A NaN y raises TransportDomainError (Phi(NaN) fails the quantile's range
    check)."""
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(y) > 8.0):
        warnings.warn("psi evaluated beyond |y| = 8; tail accuracy degrades",
                      RuntimeWarning, stacklevel=2)
    return TruncatedGaussian(s).quantile(ndtr(y))


def _derivs(val, x, f_x, h_T, f_mean, h_mean):
    """(T, T', T'') by the module's derivative formulas, given T = val, f(x)
    and h(T) for Gaussian densities f and h about f_mean and h_mean, so that
    f'/f^2 = -(x - f_mean)/f(x) and h'(T)/h(T)^2 = -(T - h_mean)/h(T).
    Every step is an elementwise ufunc, so the arguments broadcast."""
    return val, f_x / h_T, (f_x ** 2 / h_T) * (-(x - f_mean) / f_x + (val - h_mean) / h_T)


def phi_derivs(s, x):
    """(phi, phi', phi''), f = g_s and h = g; an array s broadcasts against x."""
    x = np.asarray(x, dtype=float)
    val = phi(s, x)
    return _derivs(val, x, TruncatedGaussian(s).pdf(x), _gauss_pdf(val), s, 0.0)


def psi_derivs(s, y):
    """(psi, psi', psi''), f = g and h = g_s; an array s broadcasts against y."""
    y = np.asarray(y, dtype=float)
    val = psi(s, y)
    return _derivs(val, y, _gauss_pdf(y), TruncatedGaussian(s).pdf(val), 0.0, s)


def tail_constants() -> dict:
    """Solve the five tail equations int_a^inf g = q, i.e. a = -ndtri(q).

    The targets are 1/4, 9/32, 7/16, 7/32 and 63/256; each solution lies in
    a hundredth-wide bracket that the verification suites rely on.
    """
    return {name: float(-ndtri(target)) for name, target in TAIL_TARGETS.items()}


def psi_shift_monotonicity_check(y_grid, s_grid) -> dict:
    """Check the shift monotonicity of psi along s on the given grids.

    For y >= 0 the map s -> psi_s(y) - s is strictly decreasing and positive;
    for y in [0, gamma] the value psi_s(y) is nondecreasing in s.  Returns
    the worst margins (positive = satisfied with room); ``ok`` holds when
    every margin exceeds -1e-9, which forgives rounding.  An empty grid
    raises TransportDomainError.
    """
    y_grid = np.atleast_1d(np.asarray(y_grid, dtype=float))
    s_grid = np.sort(np.atleast_1d(np.asarray(s_grid, dtype=float)))
    for name, grid in (("y", y_grid), ("s", s_grid)):
        if grid.size == 0:
            raise TransportDomainError(f"empty {name} grid")
    if np.any(y_grid < 0) or np.any(s_grid < 0):
        raise TransportDomainError("grids must be nonnegative")
    gamma = tail_constants()["gamma"]
    vals = psi(s_grid[:, None], y_grid)                    # (S, Y)
    shifted = vals - s_grid[:, None]
    dec_margin = float(np.min(shifted[:-1] - shifted[1:])) if len(s_grid) > 1 else math.inf
    pos_margin = float(np.min(shifted))
    inc_margin = math.inf
    in_range = y_grid <= gamma
    if np.any(in_range) and len(s_grid) > 1:
        inc_margin = float(np.min(vals[1:, in_range] - vals[:-1, in_range]))
    return {
        "decreasing_margin": dec_margin,
        "positive_margin": pos_margin,
        "increasing_margin": inc_margin,
        "ok": all(margin > -1e-9 for margin in (dec_margin, pos_margin, inc_margin)),
    }


def _lattice_extremes(derivs, s_grid, x_grid):
    """Minima and maxima of the value, first and second derivative returned
    by ``derivs(s, x_grid)`` over the s_grid x x_grid lattice.

    s broadcasts against x, so each call evaluates a block of s rows of at
    most _LATTICE_BLOCK nodes (one row if a row is longer); the blocks are
    reduced one at a time, so memory does not grow with the lattice."""
    rows = max(1, _LATTICE_BLOCK // len(x_grid))
    lo, hi = np.full(3, np.inf), np.full(3, -np.inf)
    for i in range(0, len(s_grid), rows):
        block = derivs(s_grid[i:i + rows, None], x_grid)
        lo = np.minimum(lo, [b.min() for b in block])
        hi = np.maximum(hi, [b.max() for b in block])
    return lo.tolist(), hi.tolist()


def derivative_box_margins(grid: int = 200) -> dict:
    """Worst-case margins of the ten derivative bounds on the two boxes.

    Each entry maps a bound name to (worst value, margin); all margins must
    be positive for the bounds to hold on every node of the grid x grid
    lattice over the box.  The grid must be at least 2, so that both
    endpoints of each box side are nodes.
    """
    if grid < 2:
        raise ValueError(f"grid must be at least 2 to cover both box endpoints, got {grid}")
    (v_lo, f_lo, _), (v_hi, f_hi, s_hi) = _lattice_extremes(
        phi_derivs, np.linspace(*PHI_BOX["s"], grid), np.linspace(*PHI_BOX["x"], grid))
    out = {
        "phi_lower": (v_lo, v_lo - PHI_BOX["value"][0]),
        "phi_upper": (v_hi, PHI_BOX["value"][1] - v_hi),
        "phi_first_lower": (f_lo, f_lo - PHI_BOX["first"][0]),
        "phi_first_upper": (f_hi, PHI_BOX["first"][1] - f_hi),
        "phi_second_upper": (s_hi, PHI_BOX["second_max"] - s_hi),
    }
    (v_lo, f_lo, s_lo), (v_hi, f_hi, _) = _lattice_extremes(
        psi_derivs, np.linspace(*PSI_BOX["s"], grid), np.linspace(*PSI_BOX["y"], grid))
    out.update({
        "psi_lower": (v_lo, v_lo - PSI_BOX["value"][0]),
        "psi_upper": (v_hi, PSI_BOX["value"][1] - v_hi),
        "psi_first_lower": (f_lo, f_lo - PSI_BOX["first"][0]),
        "psi_first_upper": (f_hi, PSI_BOX["first"][1] - f_hi),
        "psi_second_lower": (s_lo, s_lo - PSI_BOX["second_min"]),
    })
    out["ok"] = all(margin > 0 for _, margin in
                    (v for k, v in out.items() if k != "ok"))
    return out


def _lifted_field(L: LiftedMeasure, vals, first):
    """The field sum c~_i f(<u~_i, x>) u~_i and its Jacobian
    sum c~_i f'(<u~_i, x>) u~_i (x) u~_i, given f and f' at the products."""
    field = (L.weights * vals) @ L.points
    jac = (L.points * (L.weights * first)[:, None]).T @ L.points
    return field, jac


def theta_field(L: LiftedMeasure, s: float, x):
    """Forward vector field Theta(x) = sum c~_i phi_s(<u~_i, x>) u~_i.

    Defined on the open cone where all scalar products are positive; the
    Jacobian sum c~_i phi_s'(<u~_i, x>) u~_i (x) u~_i is returned alongside.
    """
    x = np.asarray(x, dtype=float)
    dots = L.points @ x
    if np.any(dots <= 0.0):
        raise ConeDomainError("point outside the positivity cone of the lifted system")
    return _lifted_field(L, *phi_derivs(s, dots)[:2])


def psi_field(L: LiftedMeasure, s: float, y):
    """Inverse vector field Psi(y) = sum c~_i psi_s(<u~_i, y>) u~_i on all of space."""
    y = np.asarray(y, dtype=float)
    dots = L.points @ y
    return _lifted_field(L, *psi_derivs(s, dots)[:2])
