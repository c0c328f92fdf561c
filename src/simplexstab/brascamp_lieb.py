"""Both sides of the geometric product inequalities for truncated Gaussians.

For a lifted measure (atoms u~_i, weights c~_i summing to n+1) and the
unnormalised truncated Gaussian f(t) = 1{t >= 0} exp(-(t-s)^2/2), the two
integrals of interest are

  direct:   int prod_i f(<x, u~_i>)^{c~_i} dx   <=  (int f)^{n+1},
  reverse:  int* sup over {x = sum c~_i theta_i u~_i} prod f(theta_i)^{c~_i} dx
            >= (int f)^{n+1},

with equality when the lifted atoms form an orthonormal basis.  Because the
exponents combine into a single quadratic, the direct integrand is exactly
the unnormalised Gaussian centred at m = s sqrt(n+1) e restricted to the
cone C = {x : <u~_i, x> >= 0 for all i}, and the reverse integrand equals
exp(-q*(x)/2) where q*(x) minimises sum c~_i (theta_i - s)^2 over the
nonnegative decompositions of x.  Importance sampling from N(m, Id) then
gives bounded-weight estimators for both sides.  At a base dimension
n <= 3 the direct side is computed instead, with no sample drawn: over the
cone from the origin on each facet of C's section at x_last = 1, the
Gaussian's radial integral is a 2-D wedge integral in closed form, and a
facet quadrature sums it.

The same cone picture yields the exact dilate-measure identities: for the
inscribed regular simplex (and its polar on the reversed lifting),

  (2 pi)^{n/2} e^{-(n+1)s^2/2} int_0^inf e^{-r^2/2 + s r sqrt(n+1)}
      gamma_n(r sqrt(n) simplex) dr  =  (int f)^{n+1},

where the r-integral has a closed form at each point (the kernel
integrated from the point's gauge radius to infinity).  At n <= 3 the
module integrates that over the cones of the body's facets by quadrature
and draws no sample; at n >= 4 its mean over Gaussian samples estimates
the left side.  Every mean is streamed through ``functionals.sample_mean``,
which reduces each Gaussian chunk to its moments as it is drawn, so memory
stays at one chunk whatever the sample count.  The reverse integrand needs q*(x) for
every sample, which the solver finds for a whole chunk at once by Newton
ascent on the problem's (n+1)-dimensional Lagrange dual; the dual point
itself certifies each value.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, owens_t

from .functionals import (_EXACT_MAX_DIM, _UNIT_ROUNDOFF, FunctionalEstimate,
                          _collapsed_simplex_rule, _cone_integral, _gap_columns,
                          sample_mean)
from .geometry import (Polytope, contains_points, gauge_many, polar,
                       regular_simplex, support_many)
from .isotropic import DiscreteMeasure, LiftedMeasure
from .transport import SQRT_2PI as _SQRT_2PI, gtilde_integral

__all__ = [
    "BLInstance", "bl_bound", "bl_lhs", "rbl_lhs",
    "simplex_identity_check", "smoothing_inequality_check",
    "nonneg_transport_sup", "IdentityReport",
]


@dataclass(frozen=True)
class BLInstance:
    """A lifted isotropic system together with the shift of the truncated Gaussian."""
    lifted: LiftedMeasure
    s: float

    def __post_init__(self):
        resid = self.lifted.validate().isotropy_residual
        if resid > 1e-8:
            raise ValueError(f"lifted system not isotropic (residual {resid:.3g})")


def bl_bound(inst: BLInstance) -> float:
    """(int f)^(n+1), the common bound of the direct and reverse inequalities."""
    return gtilde_integral(inst.s) ** inst.lifted.dim


def _wedge_terms(c: np.ndarray, a: float, n: int) -> list:
    """Terms whose sum is the wedge integral
    W_n(c, a) = int_{t >= 0} int_0^{c t} u^(n-1) e^{-u^2/2 - (t-a)^2/2} du dt
    for c > 0, in closed form at n = 2, 3 (alpha = 1 + c^2, E =
    e^{-a^2 c^2 / (2 alpha)}, b = a / sqrt(alpha), k = c b):

      W_2 = sqrt(2 pi) Phi(a) - sqrt(2 pi) E Phi(b) / sqrt(alpha),
      W_3 = pi Phi(k) - 2 pi T(k, 1/c) - c e^{-a^2/2} / alpha
            - c (a / alpha) E sqrt(2 pi / alpha) Phi(b),

    T Owen's T function.  Every exponent is at most 0, so no term overflows.
    """
    alpha = 1.0 + c * c
    root = np.sqrt(alpha)
    tail = _SQRT_2PI * np.exp(-0.5 * a * a * c * c / alpha) * ndtr(a / root) / root
    if n == 2:
        return [_SQRT_2PI * float(ndtr(a)), -tail]
    k = c * a / root
    return [math.pi * ndtr(k), -2.0 * math.pi * owens_t(k, 1.0 / c),
            -math.exp(-0.5 * a * a) * c / alpha, -a * c * tail / alpha]


# facet Gauss-Legendre degrees of the two quadrature rules of the direct
# integral at n <= 3; the value is the second rule's
_DIRECT_RULES = (16, 24)


def _direct_quadrature(lifted: LiftedMeasure, s: float) -> FunctionalEstimate:
    """int_C e^{-|x - m|^2 / 2} dx by quadrature over the facets of C's
    section, for a base dimension n <= 3, with a bound on its error.

    The atoms' weighted sum is a multiple of the pole, so C lies in
    {x_last >= 0}, and its section at x_last = 1 is P = polar(conv(-sign
    supp mu)) / sqrt(n).  With x = (w, t), w lies in t P exactly when t is
    at least the gauge g_P(w), so the integral is that over R^n of
    int_{g_P(w)}^inf e^{-|w|^2/2 - (t-a)^2/2} dt, a = s sqrt(n+1).  On the
    cone over a facet of P, w = r z with g_P(z) = 1, and (``_cone_integral``)
    the radial kernel is int_0^inf r^(n-1) e^{-r^2 |z|^2 / 2}
    int_r^inf e^{-(t-a)^2/2} dt dr = |z|^{-n} W_n(|z|, a), substituting
    u = r |z| (``_wedge_terms``).  The kernel depends on |z| only and
    polar(-K) = -polar(K), so both signs use P = polar(conv supp mu) /
    sqrt(n), triangulated by Qhull.

    The bound adds two parts, u the unit roundoff and M the integral of
    the kernel's term magnitudes |z|^{-n} sum |term|:
    - the gap between the two rules of ``_DIRECT_RULES``;
    - rounding, (J + F + 24 + sigma e) u M.  Summing J nodes per facet and
      F facets costs (J + F) u; the weights, the terms and the power
      |z|^{-n} cost 24 u of each term's magnitude.  A node's norm |z| is
      off by at most e u of itself, e = n (n rho + 1) with rho the largest
      vertex norm of P over its smallest facet distance, and a relative
      change of |z| moves each term by at most sigma = n + 5 + 2 a^2 times
      it.
    On the lifted simplex the value meets the bound to about 1e-15 at
    |s| <= 1.  At larger s the kernel steepens near each facet's nearest
    point to the origin, and at s = 5 and 30 the value is off by 6e-12
    (n = 2) and 2e-10 (n = 3) relative, inside the rule gap.
    """
    n = lifted.base.n
    a = s * math.sqrt(n + 1.0)
    section = polar(Polytope(vertices=lifted.base.points, check=False))
    P = Polytope(vertices=section.vertices / math.sqrt(n), check=False)
    simplices, _, equations = P._vertex_hull()[4]
    facets = P.vertices[simplices]
    rho = float(np.linalg.norm(P.vertices, axis=1).max() / -equations[:, -1].max())

    def kernel(Y):
        c = np.sqrt(np.einsum("...d,...d->...", Y, Y))
        terms, scale = _wedge_terms(c, a, n), c ** -n
        return np.stack([sum(terms) * scale, sum(map(np.abs, terms)) * scale], axis=-1)

    (lo, _), (value, magnitude) = [_cone_integral(facets, kernel, degree)
                                   for degree in _DIRECT_RULES]
    J = _DIRECT_RULES[1] ** (n - 1)
    sigma = n + 5.0 + 2.0 * a * a
    rounding = _UNIT_ROUNDOFF * (J + len(facets) + 24.0 + sigma * n * (n * rho + 1.0)) * magnitude
    return FunctionalEstimate(float(value), float(abs(value - lo) + rounding), "closed-form", 0)


def bl_lhs(inst: BLInstance, n_samples: int = 200_000, seed: int = 0) -> FunctionalEstimate:
    """The direct product integral int_C e^{-|x - m|^2 / 2} dx.

    At a base dimension n <= ``_EXACT_MAX_DIM`` it is computed by
    quadrature (``_direct_quadrature``) and no sample is drawn, so
    ``n_samples`` and ``seed`` have no effect; ``method`` is "closed-form"
    and ``stderr`` a stated bound on the error.  At n >= 4 it is (2 pi)^{d/2}
    times the Gaussian measure of the shifted cone, so the
    importance-sampled estimator is a Bernoulli mean ("mc-direct").
    """
    L = inst.lifted
    if L.base.n <= _EXACT_MAX_DIM:
        return _direct_quadrature(L, inst.s)
    d = L.dim
    m = inst.s * math.sqrt(d) * L.pole
    # X + m lies in the cone iff <p, X + m> >= 0 for every atom p; each chunk
    # is private to its call, so it is shifted in place
    cone = Polytope(halfspaces=(-L.points, np.zeros(len(L.points))))
    return sample_mean(lambda X: contains_points(cone, np.add(X, m, out=X), tol=0.0),
                       n_samples, d, seed, (2.0 * math.pi) ** (d / 2.0))


# rows within this hull-coordinate distance outside a facet of conv(supp mu)
# go on to Newton; the exact screen decides those it leaves unsolved
_SCREEN_TOL = 1e-9
# ridge on the active Gram matrix of a Newton step, which keeps the step
# finite when the active atoms do not span R^d
_RIDGE = 1e-8
# a row is solved once |x - A theta(lambda)| <= _STOP max(1, |x|)
_STOP = 1e-13
# Newton steps after which the exact cone screen decides a row still unsolved
_NEWTON_STEPS = 50
# largest certificate ``rbl_lhs`` accepts
_KKT_TOL = 1e-8


class _NonnegTransportSolver:
    """Concave maximisation behind the reverse integrand, for many points at once.

    Minimises q(theta) = sum c~_i (theta_i - s)^2 subject to
    A theta = x (A has columns c~_i u~_i) and theta >= 0, for every row x
    of a sample array.  Because A D^{-1} A^T = Id for isotropic systems,
    the equality-constrained minimiser is theta_i = <u~_i, x - m> + s =
    <u~_i, x> with value |x - m|^2, feasible exactly on the dual cone
    {<u~_i, x> >= 0}.  The other rows pass two array stages:

    1. Screen.  Every lifted atom has last coordinate 1/sqrt(n+1), so x is
       a nonnegative combination of the atoms exactly when x_last > 0 and
       sign x[:n] / (sqrt(n) x_last) lies in conv(supp mu); one matmul
       against the hull's halfspaces rejects the rows with no
       decomposition.  Rows within ``_SCREEN_TOL`` of a facet stay.
    2. Dual Newton ascent.  The Lagrange dual is unconstrained in the
       d = n + 1 multipliers lambda of A theta = x: maximise
       g(lambda) = 2 <lambda, x> - sum c~_i (s + <u~_i, lambda>)_+^2, with
       primal point theta(lambda) = (s + <u~_i, lambda>)_+, gradient
       2 (x - A theta(lambda)) and Hessian -2 sum c~_i u~_i u~_i^T over
       the atoms with a positive coefficient (-2 Id on the dual cone, as
       the lift is isotropic).  All rows iterate together from
       lambda = x - m, the dual-cone optimum.  Each Newton step solves
       with the active Gram matrix plus a ridge of ``_RIDGE``, and an
       exact line search takes the root of the directional derivative,
       which is continuous, piecewise linear and nonincreasing.
    With the bound multipliers mu_i = 2 c~_i (s + <u~_i, lambda>)_-,
    stationarity, dual feasibility, complementarity and theta >= 0 hold
    exactly for (theta(lambda), lambda, mu), so the KKT residual is
    |A theta(lambda) - x|.  That one residual certifies every row, and a
    row is solved once it is at most ``_STOP`` max(1, |x|).  The screen
    again, with zero tolerance, decides the rows still short of it after
    ``_NEWTON_STEPS`` steps: a row outside the cone has no decomposition,
    and a row inside keeps Newton's last dual point and its certificate,
    which ``rbl_lhs`` checks against ``_KKT_TOL``.
    """

    def __init__(self, lifted: LiftedMeasure, s: float):
        self.L = lifted
        self.s = float(s)
        self.A = (lifted.points * lifted.weights[:, None]).T   # d x k
        self.m = self.s * math.sqrt(lifted.dim) * lifted.pole
        self.hull = Polytope(vertices=lifted.base.points, check=False)

    def solve(self, X: np.ndarray):
        """Maximisers for the rows of X.

        Returns (q, theta, kkt): q* per row, the maximisers (rows x k) and
        the KKT residual |A theta - x| of each maximiser.  Rows with no
        nonnegative decomposition have q and theta NaN and kkt 0; rows in
        the dual cone are exact and carry kkt 0.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        theta = X @ self.L.points.T                            # equality-constrained optimum
        q = np.einsum("ij,ij->i", X - self.m, X - self.m)     # |x - m|^2, the dual-cone value
        kkt = np.zeros(len(X))
        hard = np.flatnonzero(theta.min(axis=1) < 0.0)
        rows = hard[self._in_cone(X[hard], _SCREEN_TOL)]
        solved = self._solve_outside_dual_cone(X[rows])
        q[hard] = np.nan
        theta[hard] = np.nan
        q[rows], theta[rows], kkt[rows] = solved
        return q, theta, kkt

    def _in_cone(self, X: np.ndarray, tol: float) -> np.ndarray:
        """Rows of X in the cone of the lifted atoms, up to tol in hull
        coordinates (a negative tol asks for that depth inside)."""
        L = self.L
        x_last = X[:, -1]
        keep = x_last > 0.0
        Y = L.sign * X[keep, :-1] / (math.sqrt(L.base.n) * x_last[keep, None])
        keep[keep] = contains_points(self.hull, Y, tol=tol)
        return keep

    def _solve_outside_dual_cone(self, X: np.ndarray):
        U, s = self.L.points, self.s
        lam, solved = self._newton(X, X - self.m)
        unsolved = np.flatnonzero(~solved)
        lam[unsolved[~self._in_cone(X[unsolved], 0.0)]] = np.nan
        theta = np.maximum(s + lam @ U.T, 0.0)                # NaN where infeasible
        q = self.L.weights @ ((theta - s) ** 2).T
        return q, theta, np.where(np.isnan(q), 0.0, self.certificate(X, lam))

    def certificate(self, X: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """KKT residual |x - A theta(lambda)| of dual points, one per row."""
        theta = np.maximum(self.s + lam @ self.L.points.T, 0.0)
        return np.linalg.norm(X - theta @ self.A.T, axis=1)

    def _newton(self, X: np.ndarray, lam: np.ndarray):
        """Newton ascent on the dual from the rows of lam, for every row of X.

        Returns (lam, solved): the last dual points, and whether each row
        met ``_STOP`` within ``_NEWTON_STEPS`` steps.  A row whose line
        search finds no root stops there unsolved: along its direction the
        dual rises without bound, as it does when x has no nonnegative
        decomposition.
        """
        U, c, s = self.L.points, self.L.weights, self.s
        lam = np.array(lam, dtype=float)
        tol = _STOP * np.maximum(1.0, np.linalg.norm(X, axis=1))
        solved = np.zeros(len(X), dtype=bool)
        live = np.arange(len(X))
        ridge = _RIDGE * np.eye(self.L.dim)
        for step in range(_NEWTON_STEPS + 1):
            z = s + lam[live] @ U.T
            r = X[live] - np.maximum(z, 0.0) @ self.A.T      # half the dual gradient
            done = np.linalg.norm(r, axis=1) <= tol[live]
            solved[live[done]] = True
            live, z, r = live[~done], z[~done], r[~done]
            if live.size == 0 or step == _NEWTON_STEPS:
                break
            H = (U.T * np.where(z > 0.0, c, 0.0)[:, None, :]) @ U + ridge
            delta = np.linalg.solve(H, r[..., None])[..., 0]
            t = self._line_search(z, delta @ U.T, np.einsum("ij,ij->i", delta, r))
            ok = np.isfinite(t)
            live = live[ok]
            lam[live] += t[ok, None] * delta[ok]
        return lam, solved

    def _line_search(self, z: np.ndarray, dz: np.ndarray, psi0: np.ndarray) -> np.ndarray:
        """Exact step along each row's Newton direction delta.

        psi(t) = <delta, x - A theta(lambda + t delta)>, half the
        directional derivative, starts at psi0 > 0 and is continuous,
        piecewise linear and nonincreasing, with a breakpoint where an
        atom's coefficient z_i + t dz_i crosses zero.  Following its slope
        across the sorted breakpoints gives its value at each; the step is
        the root on the piece that brackets it, inf where there is none.
        """
        c = self.L.weights
        curv = c * dz * dz
        active = (z > 0.0) | ((z == 0.0) & (dz > 0.0))
        rows = np.arange(len(z))
        with np.errstate(divide="ignore", invalid="ignore"):
            b = -z / dz
            b = np.where(b > 0.0, b, np.inf)
            order = np.argsort(b, axis=1)
            b = np.take_along_axis(b, order, axis=1)
            # crossing its breakpoint takes an atom out of the slope (z_i > 0) or in
            jump = np.take_along_axis(np.where(z > 0.0, curv, -curv), order, axis=1)
            # slope on the piece that ends at each breakpoint, and psi there
            slope0 = -np.where(active, curv, 0.0).sum(axis=1)
            slope = slope0[:, None] + np.cumsum(jump, axis=1) - jump
            psi = psi0[:, None] + np.cumsum(slope * np.diff(b, axis=1, prepend=0.0), axis=1)
            # psi within rounding of zero at a breakpoint is a root there: past
            # it, on a face of the cone, psi can stay at a rounding-level
            # positive value along a direction in which the dual is flat
            below = psi <= 1e-12 * psi0[:, None]
            j = np.argmax(below, axis=1)
            b_lo = np.where(j > 0, b[rows, j - 1], 0.0)
            psi_lo = np.where(j > 0, psi[rows, j - 1], psi0)
            t = np.minimum(b_lo - psi_lo / slope[rows, j], b[rows, j])
            return np.where(below.any(axis=1), t, np.inf)


def nonneg_transport_sup(inst: BLInstance, x: np.ndarray):
    """q*(x) and its maximiser for a single point (None when infeasible)."""
    solver = _NonnegTransportSolver(inst.lifted, inst.s)
    q, theta, _ = solver.solve(np.asarray(x, dtype=float)[None, :])
    if np.isnan(q[0]):
        return None, None
    return float(q[0]), theta[0]


def rbl_lhs(inst: BLInstance, n_samples: int = 50_000, seed: int = 0) -> FunctionalEstimate:
    """Monte-Carlo value of the reverse (sup-decomposition) integral.

    Importance sampling from N(m, Id) makes every weight lie in [0, 1]
    because q*(x) >= |x - m|^2.  Each Gaussian chunk goes to the solver in
    one array: points inside the dual cone take weight one, points the cone
    screen rejects take weight zero, and the rest are solved together by
    the batched dual Newton ascent.  Every maximiser carries its KKT
    certificate, and a ``RuntimeError`` is raised if any misses
    ``_KKT_TOL``.
    """
    L = inst.lifted
    d = L.dim
    solver = _NonnegTransportSolver(L, inst.s)
    m = solver.m

    def weights(X):
        q, _, kkt = solver.solve(X + m)
        worst_kkt = float(kkt.max())
        if worst_kkt > _KKT_TOL:
            raise RuntimeError(f"inner optimiser KKT residual {worst_kkt:.3g} > {_KKT_TOL:g}")
        gap = np.maximum(q - np.einsum("ij,ij->i", X, X), 0.0)    # q* - |x - m|^2
        return np.where(np.isnan(q), 0.0, np.exp(-0.5 * gap))

    return sample_mean(weights, n_samples, d, seed, (2.0 * math.pi) ** (d / 2.0))


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    gap: float
    rel_gap: float
    stderr: float
    samples: int
    method: str         # "closed-form" (quadrature, n <= 3) | "mc-direct"
    ok: bool            # |gap| <= _IDENTITY_SIGMAS stderr


# an identity holds when its gap is within this many of its own stderr: the
# quadrature's stated bound at n <= 3, the standard error at n >= 4
_IDENTITY_SIGMAS = 5.0


def _kernel_tail_integral(a: np.ndarray, c: float) -> np.ndarray:
    """int_{a_j}^inf e^{-r^2/2 + c r} dr in closed form, elementwise."""
    return math.sqrt(2.0 * math.pi) * math.exp(0.5 * c * c) * ndtr(c - a)


# (facet, radial) Gauss-Legendre degrees of the two quadrature rules of the
# dilate identity; the value is the second rule's, and the two differ by at
# most 6.5e-15 relative on both simplices at n = 2, 3 for s in [-2, 3]
_IDENTITY_RULES = ((30, 50), (40, 64))


def _gauge_tail_mean(V: np.ndarray, c: float):
    """(value, bound) of (2 pi)^{n/2} E T(g(X)) for X standard Gaussian in
    R^n, g the gauge of the simplex with vertex rows V (origin inside) and
    T = ``_kernel_tail_integral(., c)``.

    On the cone over a facet F, g(t y) = t for y in F, so
    (2 pi)^{n/2} E T(g(X)) = sum_F h_F int_F Psi(|y|^2) dA(y) with
    Psi(q) = int_0^L T(t) t^(n-1) e^{-q t^2 / 2} dt (``_cone_integral``),
    L = 10 + max(c, 0).  Gauss-Legendre in t evaluates T once per node.
    The bound adds three parts, u the unit roundoff:
    - the gap between the two rules of ``_IDENTITY_RULES``;
    - the cut at L, at most (2 pi)^{n/2} T(L), as P(g(X) > L) <= 1;
    - rounding.  The terms are positive, so summing R radial, J facet and
      F facet terms costs at most (R + J + F) u of the total, and the
      weights, T and the exponential cost (c^2 + 24) u of each term.  The
      exponent q t^2 / 2 is off by at most (5n + 2) u M t^2 / 2, M the
      largest squared vertex norm, as each node's q is rounded to 5n u M;
      a second radial column sums that error's effect.
    """
    n = V.shape[1]
    facets = V[list(itertools.combinations(range(n + 1), n))]
    cut = 10.0 + max(c, 0.0)
    M = float(np.einsum("ij,ij->i", V, V).max())
    values = []
    for facet_degree, radial_degree in _IDENTITY_RULES:
        # the rule on a 1-simplex is Gauss-Legendre on [0, 1]
        nodes, w = _collapsed_simplex_rule(1, radial_degree)
        t = cut * nodes[:, 1]
        radial = cut * w * _kernel_tail_integral(t, c) * t ** (n - 1)
        columns = np.column_stack([radial, radial * t * t])

        def kernel(Y):
            E = np.multiply.outer(-0.5 * np.einsum("...d,...d->...", Y, Y), t * t)
            return np.exp(E, out=E) @ columns

        values.append(_cone_integral(facets, kernel, facet_degree))
    (lo, _), (value, exponent_term) = values
    R, J = _IDENTITY_RULES[1][1], _IDENTITY_RULES[1][0] ** (n - 1)
    rounding = _UNIT_ROUNDOFF * ((R + J + len(facets) + c * c + 24.0) * value
                                 + (5 * n + 2) * 0.5 * M * exponent_term)
    truncation = (2.0 * math.pi) ** (n / 2.0) * float(_kernel_tail_integral(cut, c))
    return float(value), float(abs(value - lo) + rounding + truncation)


def simplex_identity_check(n: int, s: float, n_samples: int = 1_000_000,
                           seed: int = 0,
                           variant: str = "inscribed") -> IdentityReport:
    """Verify the exact dilate-measure identity for the regular simplex.

    ``inscribed``: gamma_n(r sqrt(n) simplex) under the kernel
    e^{-r^2/2 + s r sqrt(n+1)} integrates to (int f)^{n+1} / ((2 pi)^{n/2}
    e^{-(n+1) s^2 / 2}).  ``polar``: same with gamma_n((r / sqrt(n)) polar).
    As polar / sqrt(n) = -sqrt(n) simplex and gamma_n is symmetric, the two
    are one identity: at n <= 3 their rows are equal bit for bit, and at
    n >= 4 the polar row evaluates the same integrand at -X.  A Gaussian
    point X lies in the dilate of radius r exactly when r is at least its
    gauge radius a(X), so the r-integral of gamma_n is E T(a(X)), with
    T(a) the kernel integrated from a to infinity, in closed form, and a
    the gauge of one body, +-sqrt(n) simplex, which both paths below read.

    At n <= 3 the left side is (2 pi)^{n/2} e^{-(n+1) s^2 / 2} times
    E T(a(X)) = (2 pi)^{-n/2} sum_F h_F int_F Psi(|y|^2) dA(y), a sum over
    the facets F of the body (``_gauge_tail_mean``).  It is computed by
    quadrature, with no sample drawn, so ``n_samples`` and ``seed`` have no
    effect; ``stderr`` is a stated bound on its error (the gap between two
    rule degrees, the radial cut and rounding), not a Monte-Carlo error,
    and ``method`` is "closed-form".  At n >= 4 the left side is the sample
    mean of T(a(X)) over ``n_samples`` Gaussian samples, with its standard
    error ("mc-direct").  ``ok`` is |gap| <= ``_IDENTITY_SIGMAS`` stderr.
    """
    if variant not in ("inscribed", "polar"):
        raise ValueError("variant must be 'inscribed' or 'polar'")
    c = s * math.sqrt(n + 1.0)
    damping = math.exp(-0.5 * (n + 1.0) * s * s)
    # the polar of the simplex is -n simplex, so polar / sqrt(n) = -sqrt(n) simplex
    sign = 1.0 if variant == "inscribed" else -1.0
    body = Polytope(vertices=sign * math.sqrt(n) * regular_simplex(n).vertices, check=False)
    if n <= _EXACT_MAX_DIM:
        value, bound = _gauge_tail_mean(body.vertices, c)
        lhs = FunctionalEstimate(damping * value,
                                 damping * (bound + _UNIT_ROUNDOFF * value),
                                 "closed-form", 0)
    else:
        lhs = sample_mean(lambda X: _kernel_tail_integral(gauge_many(body, X), c),
                          n_samples, n, seed, (2.0 * math.pi) ** (n / 2.0) * damping)
    rhs = gtilde_integral(s) ** (n + 1)
    gap = lhs.value - rhs
    return IdentityReport(lhs=lhs.value, rhs=float(rhs), gap=float(gap),
                          rel_gap=float(abs(gap) / rhs), stderr=lhs.stderr,
                          samples=lhs.samples, method=lhs.method,
                          ok=bool(abs(gap) <= _IDENTITY_SIGMAS * lhs.stderr))


def smoothing_inequality_check(mu: DiscreteMeasure, tau_grid,
                               n_samples: int = 200_000, seed: int = 0) -> dict:
    """Smoothed survival comparison between the simplex and the hull of a measure.

    For each tau, with the kernel e^{-(t-tau)^2/(2n)} the smoothed survival
    of the inscribed simplex dominates that of C = conv(supp mu); for the
    polar bodies, with the kernel e^{-n (t-tau)^2/2}, the comparison is
    reversed.  Estimates share one Gaussian sample (common random numbers)
    and each row reports the margin and its standard error.
    """
    n = mu.n
    simplex = regular_simplex(n)
    tau_grid = np.atleast_1d(np.asarray(tau_grid, dtype=float))
    hull = Polytope(vertices=mu.points, check=False)

    def smoothed(gauges, tau, rate):
        # int_0^{gauge} e^{-rate (t - tau)^2 / 2} dt, elementwise closed form
        amp = math.sqrt(2.0 * math.pi / rate)
        root = math.sqrt(rate)
        return amp * (ndtr((gauges - tau) * root) - ndtr(-tau * root))

    def margins(X):
        # gauges of the simplex and the hull, and of their polars (support
        # functions); one direct and one polar margin column per tau
        g_simplex, g_hull = gauge_many(simplex, X), gauge_many(hull, X)
        gp_simplex, gp_hull = support_many(simplex, X), support_many(hull, X)
        pairs = ((smoothed(upper, tau, rate), smoothed(lower, tau, rate))
                 for tau in tau_grid
                 for upper, lower, rate in ((g_simplex, g_hull, 1.0 / n),
                                            (gp_hull, gp_simplex, float(n))))
        return _gap_columns(2 * len(tau_grid), len(X), pairs)

    ests = sample_mean(margins, n_samples, n, seed)
    rows = []
    for tau, direct, polar in zip(tau_grid, ests[0::2], ests[1::2]):
        rows.append({
            "tau": float(tau),
            "direct_margin": direct.value, "direct_stderr": direct.stderr,
            "direct_ok": direct.value >= -3.0 * direct.stderr,
            "polar_margin": polar.value, "polar_stderr": polar.stderr,
            "polar_ok": polar.value >= -3.0 * polar.stderr,
        })
    return {"rows": rows,
            "ok": all(r["direct_ok"] and r["polar_ok"] for r in rows)}
