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
gives bounded-weight estimators for both sides.

The same cone picture yields the exact dilate-measure identities: for the
inscribed regular simplex (and its polar on the reversed lifting),

  (2 pi)^{n/2} e^{-(n+1)s^2/2} int_0^inf e^{-r^2/2 + s r sqrt(n+1)}
      gamma_n(r sqrt(n) simplex) dr  =  (int f)^{n+1},

which this module verifies by Monte-Carlo: the r-integral has a closed
form for each Gaussian sample (the kernel integrated from the sample's
gauge radius to infinity), and its sample mean estimates the left side.
Every mean is streamed through ``functionals.sample_mean``, which reduces
each Gaussian chunk to its moments as it is drawn, so memory stays at one
chunk whatever the sample count.  Only the reverse integral, whose solver
takes all samples in one array, draws them through
``functionals.sample_map`` and averages them with ``functionals.estimate``,
the same chunk-merged estimator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls
from scipy.special import ndtr

from .functionals import FunctionalEstimate, estimate, sample_map, sample_mean
from .geometry import (Polytope, _all_rows, contains_points, gauge_many,
                       regular_simplex, support_many)
from .isotropic import DiscreteMeasure, LiftedMeasure
from .transport import gtilde_integral

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
        resid = np.linalg.norm(self.lifted.moment_matrix() - np.eye(self.lifted.dim), "fro")
        if resid > 1e-8:
            raise ValueError(f"lifted system not isotropic (residual {resid:.3g})")


def bl_bound(inst: BLInstance) -> float:
    """(int f)^(n+1), the common bound of the direct and reverse inequalities."""
    return gtilde_integral(inst.s) ** inst.lifted.dim


def bl_lhs(inst: BLInstance, n_samples: int = 200_000, seed: int = 0) -> FunctionalEstimate:
    """Monte-Carlo value of the direct product integral.

    Equals (2 pi)^{d/2} times the Gaussian measure of the shifted cone, so
    the importance-sampled estimator is a Bernoulli mean.
    """
    L = inst.lifted
    d = L.dim
    m = inst.s * math.sqrt(d) * L.pole
    # X + m lies in the cone iff <p, X + m> >= 0 for every atom p
    inward, zeros = -L.points, np.zeros(len(L.points))
    return sample_mean(lambda X: _all_rows(X + m, inward, zeros), n_samples, d, seed,
                       (2.0 * math.pi) ** (d / 2.0))


# rows within this hull-coordinate distance of a facet of conv(supp mu) go
# on to the solve, whose NNLS residual decides their feasibility
_SCREEN_TOL = 1e-9
# smallest NNLS gradient component that lets a variable enter the passive set
_ENTER_TOL = 1e-12
# a maximiser's coefficient counts as free above this multiple of max(1, |x|),
# the scale of the rounding left in a decomposition of x
_FREE_TOL = 1e-12


def _normal_solve(M: np.ndarray, rhs: np.ndarray, lstsq_rows) -> np.ndarray:
    """Stacked solve of small normal equations M_r z = rhs_r.

    Rows whose normal matrix is singular go to ``lstsq_rows(rows)``, which
    returns their minimum-norm least-squares solutions.
    """
    try:
        z = np.linalg.solve(M, rhs[..., None])[..., 0]
        bad = ~np.isfinite(z).all(axis=1)
    except np.linalg.LinAlgError:
        bad = np.linalg.slogdet(M)[0] <= 0.0
        z = np.zeros_like(rhs)
        z[~bad] = np.linalg.solve(M[~bad], rhs[~bad, :, None])[..., 0]
    if bad.any():
        z[bad] = lstsq_rows(np.flatnonzero(bad))
    return z


class _NonnegTransportSolver:
    """Concave maximisation behind the reverse integrand, for many points at once.

    Minimises q(theta) = sum c~_i (theta_i - s)^2 subject to
    A theta = x (A has columns c~_i u~_i) and theta >= 0, for every row x
    of a sample array.  Because A D^{-1} A^T = Id for isotropic systems,
    the equality-constrained minimiser is theta_i = <u~_i, x - m> + s =
    <u~_i, x> with value |x - m|^2, feasible exactly on the dual cone
    {<u~_i, x> >= 0}.  The other rows pass three array stages:

    1. Screen.  Every lifted atom has last coordinate 1/sqrt(n+1), so x is
       a nonnegative combination of the atoms exactly when x_last > 0 and
       sign x[:n] / (sqrt(n) x_last) lies in conv(supp mu); one matmul
       against the hull's halfspaces rejects the rows with no
       decomposition.  Rows within ``_SCREEN_TOL`` of a facet stay.
    2. Batched active set.  Each remaining row is reduced to the
       least-distance program min |v| s.t. G_hat v >= h and solved as the
       NNLS problem [G_hat^T; h^T] u ~ e_{p+1} (Lawson and Hanson 1974,
       ch. 23), with a zero residual meaning the constraints are
       incompatible.  All rows iterate together: per-row passive sets, the
       classical entering guard (a candidate whose own coefficient comes
       out nonpositive is refused), and one stacked normal-equation solve
       per iteration.  The lifted simplex (k = d, no null space) runs the
       same expressions with an empty G_hat.
    3. Certificate.  Every accepted maximiser is checked against the KKT
       conditions: feasibility, stationarity on the free set with the
       multiplier from one stacked least-squares solve, and dual
       feasibility on the active set.
    Rows where the active set broke down or missed the certificate are
    re-solved exactly by ``_solve_by_enumeration``, which scans all 2^k
    supports and so serves only as the rescue and the test oracle.
    """

    def __init__(self, lifted: LiftedMeasure, s: float):
        self.L = lifted
        self.s = float(s)
        k, d = lifted.k, lifted.dim
        # the maximised log-integrand is -(1/2) sum c~_i (theta_i - s)^2 on the
        # nonnegative orthant: its Hessian is -diag(c~), negative definite
        if lifted.weights.min() <= 0:
            raise ValueError("log-integrand is not strictly concave")
        A = (lifted.points * lifted.weights[:, None]).T       # d x k
        self.A = A
        # null-space basis of A (k x p), p = k - d
        _, svals, Vt = np.linalg.svd(A)
        rank = int(np.sum(svals > 1e-12 * svals[0]))
        self.N = Vt[rank:].T
        root_c = np.sqrt(lifted.weights)
        E = root_c[:, None] * self.N                           # k x p
        # orthonormalise the transformed null basis: E = Q R
        Q, R = np.linalg.qr(E)
        self.Q = Q
        self.Rinv = np.linalg.inv(R)
        self.G_hat = self.N @ self.Rinv                        # constraint rows
        self.root_c = root_c
        self.m = self.s * math.sqrt(d) * lifted.pole
        self.hull = Polytope(vertices=lifted.base.points, check=False)

    def solve(self, X: np.ndarray, kkt_tol: float = 1e-8):
        """Maximisers for the rows of X.

        Returns (q, theta, kkt): q* per row, the maximisers (rows x k) and
        the KKT residual of each maximiser.  Rows with no nonnegative
        decomposition have q and theta NaN and kkt 0; rows in the dual cone
        are exact and carry kkt 0.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        theta = X @ self.L.points.T                            # equality-constrained optimum
        q = np.einsum("ij,ij->i", X - self.m, X - self.m)     # |x - m|^2, the dual-cone value
        kkt = np.zeros(len(X))
        hard = np.flatnonzero(theta.min(axis=1) < 0.0)
        rows = hard[self._in_cone(X[hard])]
        solved = self._solve_outside_dual_cone(X[rows], theta[rows], kkt_tol)
        q[hard] = np.nan
        theta[hard] = np.nan
        q[rows], theta[rows], kkt[rows] = solved
        return q, theta, kkt

    def _in_cone(self, X: np.ndarray) -> np.ndarray:
        """Rows of X in the cone of the lifted atoms, up to ``_SCREEN_TOL``
        in hull coordinates."""
        L = self.L
        x_last = X[:, -1]
        keep = x_last > 0.0
        Y = L.sign * X[keep, :-1] / (math.sqrt(L.base.n) * x_last[keep, None])
        keep[keep] = contains_points(self.hull, Y, tol=_SCREEN_TOL)
        return keep

    def _solve_outside_dual_cone(self, X: np.ndarray, theta_eq: np.ndarray, kkt_tol: float):
        L, s = self.L, self.s
        # least-distance form: minimise |v| s.t. G_hat v >= h
        f = -self.root_c * (theta_eq - s)
        fQ = f @ self.Q
        h = -(theta_eq + fQ @ self.G_hat.T)
        u, converged = self._nnls(h)
        # NNLS residual rho = [G_hat^T u; h.u - 1]
        rho_head = u @ self.G_hat
        rho_last = np.einsum("ij,ij->i", h, u) - 1.0
        rnorm = np.sqrt(np.einsum("ij,ij->i", rho_head, rho_head) + rho_last ** 2)
        feasible = rnorm > 1e-12                               # else incompatible constraints
        x_scale = np.maximum(1.0, np.linalg.norm(X, axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            v = -rho_head / rho_last[:, None]
            theta_raw = theta_eq + ((v + fQ) @ self.Rinv.T) @ self.N.T
            theta = np.maximum(theta_raw, 0.0)
            # a vanishing last residual, or a maximiser that is not a feasible
            # decomposition, means the least-distance route broke down
            broken = ((np.abs(rho_last) < 1e-12) | ~(theta_raw.min(axis=1) >= -1e-9)
                      | ~(np.linalg.norm(theta @ self.A.T - X, axis=1) <= 1e-9 * x_scale))
        theta[~feasible] = np.nan
        q = L.weights @ ((theta - s) ** 2).T
        kkt = np.zeros(len(X))
        ok = feasible & ~broken
        kkt[ok] = self.kkt_residual(X[ok], theta[ok])
        rescue = np.flatnonzero(~converged | (feasible & broken) | (kkt > kkt_tol))
        for i in rescue:
            q_i, theta_i = self._solve_by_enumeration(X[i])
            q[i], theta[i] = (np.nan, np.nan) if q_i is None else (q_i, theta_i)
        redo = rescue[~np.isnan(q[rescue])]
        kkt[rescue] = 0.0
        kkt[redo] = self.kkt_residual(X[redo], theta[redo])
        return q, theta, kkt

    def _nnls(self, h: np.ndarray):
        """Lawson-Hanson NNLS of [G_hat^T; h_r^T] u ~ e_{p+1} for every row h_r.

        Returns (u, converged).  Loops over active-set iterations only; the
        gradient is h_r (1 - h_r.u) - G_hat G_hat^T u.  Rows still iterating
        after 10 k + 10 passes are reported as not converged.
        """
        n_rows, k = h.shape
        u = np.zeros((n_rows, k))
        passive = np.zeros((n_rows, k), dtype=bool)
        refused = np.zeros((n_rows, k), dtype=bool)           # barred until u next moves
        enter = np.ones(n_rows, dtype=bool)                    # outer step due
        live = np.ones(n_rows, dtype=bool)
        for _ in range(10 * k + 10):
            # outer step: the rows whose last passive solution was accepted
            # take the largest positive gradient component, or have converged
            rows = np.flatnonzero(live & enter)
            hr, ur = h[rows], u[rows]
            grad = (hr * (1.0 - np.einsum("ij,ij->i", hr, ur))[:, None]
                    - (ur @ self.G_hat) @ self.G_hat.T)
            cand = ~passive[rows] & ~refused[rows] & (grad > _ENTER_TOL)
            has = cand.any(axis=1)
            live[rows[~has]] = False
            rows = rows[has]
            j = np.argmax(np.where(cand[has], grad[has], -np.inf), axis=1)
            passive[rows, j] = True
            act = np.flatnonzero(live)
            if act.size == 0:
                break
            z = self._passive_solve(h[act], passive[act])
            # entering guard: refuse a candidate whose own coefficient is not
            # positive, leave u alone and pick again next iteration
            at = np.searchsorted(act, rows)
            no = z[at, j] <= 0.0
            passive[rows[no], j[no]] = False
            refused[rows[no], j[no]] = True
            step = np.ones(act.size, dtype=bool)
            step[at[no]] = False
            act, z = act[step], z[step]
            P = passive[act]
            good = np.all(~P | (z > 0.0), axis=1)
            # accepted passive solutions become the new iterate
            acc = act[good]
            u[acc] = z[good]
            enter[acc] = True
            refused[acc] = False
            # otherwise move toward z until the first passive coefficient hits zero
            back = act[~good]
            zb, ub, Pb = z[~good], u[back], P[~good]
            drop = Pb & (zb <= 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(drop & (ub > zb), ub / (ub - zb), np.inf)
            jmin = np.argmin(ratio, axis=1)
            alpha = ratio[np.arange(back.size), jmin]
            hit = np.isfinite(alpha)
            ub = ub + np.where(hit, alpha, 1.0)[:, None] * (zb - ub)
            ub[np.flatnonzero(hit), jmin[hit]] = 0.0
            Pb &= ub > 0.0
            u[back] = np.where(Pb, ub, 0.0)
            passive[back] = Pb
            enter[back] = False
            refused[back] = False
        return u, ~live

    def _passive_solve(self, h: np.ndarray, P: np.ndarray) -> np.ndarray:
        """Least-squares coefficients on each row's passive set, zero elsewhere."""
        G = self.G_hat
        k = h.shape[1]
        M = h[:, :, None] * h[:, None, :]
        M += G @ G.T
        M *= P[:, :, None] & P[:, None, :]
        M[:, np.arange(k), np.arange(k)] += ~P                # identity off the passive set

        def lstsq_rows(rows):
            E = np.concatenate([np.broadcast_to(G.T, (rows.size,) + G.T.shape),
                                h[rows, None, :]], axis=1)
            return np.linalg.pinv(np.where(P[rows, None, :], E, 0.0))[..., -1]

        return _normal_solve(M, np.where(P, h, 0.0), lstsq_rows)

    def _solve_by_enumeration(self, x: np.ndarray):
        """Exact minimiser by scanning the stationarity system of every
        active set (the atom count is small by precondition).  A support
        counts only when its clipped decomposition reproduces x to 1e-12
        relative, so near a lower-dimensional face a support that only nearly
        reproduces x cannot undercut the true minimum."""
        L, s = self.L, self.s
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
            if np.linalg.norm(self.A @ theta - x) > 1e-12 * x_scale:
                continue
            q = float(L.weights @ (theta - s) ** 2)
            if best_q is None or q < best_q:
                best_q, best_theta = q, theta
        return best_q, best_theta

    def kkt_residual(self, X: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Worst KKT violation of proposed maximisers, one per row
        (feasibility, stationarity on the free set, dual feasibility on the
        active set).

        A coefficient is free above ``_FREE_TOL`` max(1, |x|).  The
        multiplier comes from least squares on the free rows.  Where the
        free atoms do not determine it (x on a face of the cone), the best
        multipliers are found by ``_face_stationarity`` instead.
        """
        L, s = self.L, self.s
        X, theta = np.atleast_2d(X), np.atleast_2d(theta)
        primal = np.linalg.norm(theta @ self.A.T - X, axis=1)
        grad = 2.0 * L.weights * (theta - s)
        x_scale = np.maximum(1.0, np.linalg.norm(X, axis=1))
        free = theta > _FREE_TOL * x_scale[:, None]
        # multiplier: least squares of A^T lambda = grad on the free rows
        At = self.A.T
        gram = np.einsum("rk,ki,kj->rij", free.astype(float), At, At)
        grad_free = np.where(free, grad, 0.0)
        # too few free atoms, or a singular free Gram matrix, leave the
        # multiplier undetermined
        undetermined = free.sum(axis=1) < L.dim

        def lstsq_rows(rows):
            undetermined[rows] = True
            return np.zeros((rows.size, L.dim))

        lam = _normal_solve(gram, grad_free @ At, lstsq_rows)
        mult = grad - lam @ self.A
        stationarity = np.where(free, np.abs(mult), 0.0).max(axis=1, initial=0.0)
        dual = np.where(free, 0.0, -mult).max(axis=1, initial=0.0)
        resid = np.maximum(primal, np.maximum(stationarity, dual))
        for r in np.flatnonzero(undetermined):
            resid[r] = max(primal[r], self._face_stationarity(grad[r], free[r]))
        return resid

    def _face_stationarity(self, grad: np.ndarray, free: np.ndarray) -> float:
        """Stationarity violation |grad - A^T lambda - mu| (max norm) with
        the best multipliers: mu >= 0 on the active coefficients and 0 on
        the free ones, so dual feasibility holds exactly.  mu solves the NNLS
        problem for grad - mu in the range of A^T, written in the null-space
        basis N of A; lambda is then the least-squares fit."""
        mu = np.zeros_like(grad)
        if self.N.shape[1] and not free.all():
            mu[~free], _ = nnls(self.N[~free].T, self.N.T @ grad)
        lam, *_ = np.linalg.lstsq(self.A.T, grad - mu, rcond=None)
        return float(np.abs(grad - mu - self.A.T @ lam).max())


def nonneg_transport_sup(inst: BLInstance, x: np.ndarray):
    """q*(x) and its maximiser for a single point (None when infeasible)."""
    solver = _NonnegTransportSolver(inst.lifted, inst.s)
    q, theta, _ = solver.solve(np.asarray(x, dtype=float)[None, :])
    if np.isnan(q[0]):
        return None, None
    return float(q[0]), theta[0]


def rbl_lhs(inst: BLInstance, n_samples: int = 50_000, seed: int = 0,
            kkt_tol: float = 1e-8) -> FunctionalEstimate:
    """Monte-Carlo value of the reverse (sup-decomposition) integral.

    Importance sampling from N(m, Id) makes every weight lie in [0, 1]
    because q*(x) >= |x - m|^2.  All samples go to the solver in one
    array: points inside the dual cone take weight one, points the cone
    screen rejects take weight zero, and the rest are solved together by
    the batched active-set NNLS.  Every accepted maximiser carries a KKT
    certificate; points that miss ``kkt_tol`` are re-solved exactly by
    active-set enumeration, and a ``RuntimeError`` is raised if any still
    misses it.
    """
    L = inst.lifted
    d = L.dim
    solver = _NonnegTransportSolver(L, inst.s)
    m = solver.m
    # the solver sees all samples in one array
    Z = sample_map(lambda X: X, n_samples, d, seed) + m
    q, _, kkt = solver.solve(Z, kkt_tol)
    worst_kkt = float(kkt.max())
    if worst_kkt > kkt_tol:
        raise RuntimeError(f"inner optimiser KKT residual {worst_kkt:.3g} > {kkt_tol:g}")
    sq_dist = np.einsum("ij,ij->i", Z - m, Z - m)
    weights = np.where(np.isnan(q), 0.0, np.exp(-0.5 * np.maximum(q - sq_dist, 0.0)))
    return estimate(weights, (2.0 * math.pi) ** (d / 2.0))


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    gap: float
    rel_gap: float
    stderr: float
    samples: int


def _kernel_tail_integral(a: np.ndarray, c: float) -> np.ndarray:
    """int_{a_j}^inf e^{-r^2/2 + c r} dr in closed form, elementwise."""
    return math.sqrt(2.0 * math.pi) * math.exp(0.5 * c * c) * ndtr(c - a)


def simplex_identity_check(n: int, s: float, n_samples: int = 1_000_000,
                           seed: int = 0,
                           variant: str = "inscribed") -> IdentityReport:
    """Verify the exact dilate-measure identity for the regular simplex.

    ``inscribed``: gamma_n(r sqrt(n) simplex) under the kernel
    e^{-r^2/2 + s r sqrt(n+1)} integrates to (int f)^{n+1} / ((2 pi)^{n/2}
    e^{-(n+1) s^2 / 2}).  ``polar``: same with gamma_n((r / sqrt(n)) polar).
    A Gaussian sample X lies in the dilate of radius r exactly when r is at
    least its gauge radius a(X), so the r-integral of gamma_n is the mean
    over X of the kernel integrated from a(X) to infinity, which has a
    closed form.  The left side is that sample mean, with its standard
    error, over ``n_samples`` samples.
    """
    if variant not in ("inscribed", "polar"):
        raise ValueError("variant must be 'inscribed' or 'polar'")
    simplex = regular_simplex(n)
    c = s * math.sqrt(n + 1.0)

    def tail(X):
        if variant == "inscribed":
            # gauge of r sqrt(n) simplex <= 1  <=>  gauge_simplex(X)/sqrt(n) <= r
            a = gauge_many(simplex, X) / math.sqrt(n)
        else:
            # gauge of the polar at X is the support function of the simplex
            a = math.sqrt(n) * support_many(simplex, X)
        return _kernel_tail_integral(a, c)

    prefactor = (2.0 * math.pi) ** (n / 2.0) * math.exp(-0.5 * (n + 1.0) * s * s)
    lhs = sample_mean(tail, n_samples, n, seed, prefactor)
    rhs = gtilde_integral(s) ** (n + 1)
    gap = lhs.value - rhs
    return IdentityReport(lhs=lhs.value, rhs=float(rhs), gap=float(gap),
                          rel_gap=float(abs(gap) / rhs), stderr=lhs.stderr,
                          samples=lhs.samples)


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
        cols = []
        for tau in tau_grid:
            cols.append(smoothed(g_simplex, tau, 1.0 / n) - smoothed(g_hull, tau, 1.0 / n))
            cols.append(smoothed(gp_hull, tau, float(n)) - smoothed(gp_simplex, tau, float(n)))
        return np.column_stack(cols)

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
