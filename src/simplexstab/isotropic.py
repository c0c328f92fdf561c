"""Discrete centered isotropic measures on the unit sphere.

A measure is a finite set of unit vectors u_i with positive weights c_i.
Isotropy means sum_i c_i u_i (x) u_i = Id (hence sum c_i = n), centering
means sum_i c_i u_i = 0.  This module validates and normalises such
measures, reduces their support by one nonnegative least-squares weight
fit, evaluates the weighted-determinant inequality
det(sum t_i c_i u_i (x) u_i) >= prod t_i^c_i together with its stability
amplification factor, and lifts measures one dimension up for the
product-inequality machinery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.optimize import nnls

__all__ = [
    "MeasureError", "SingularMomentError", "NotIsotropicError", "NoFrameError",
    "IsotropyReport", "DiscreteMeasure", "LiftedMeasure",
    "simplex_measure", "orthonormal_measure",
    "isotropize", "reduce_support", "support_bound",
    "ball_barthe_check", "BallBartheReport", "ball_barthe_stability_factor",
    "big_determinant_subset", "lift", "fit_orthonormal_frame",
    "scalar_split_bound",
]

UNIT_NORM_TOL = 1e-12
# largest isotropy or centering residual of a measure that LiftedMeasure lifts
_LIFT_TOL = 1e-8


class MeasureError(ValueError):
    """Base class for measure failures."""


class SingularMomentError(MeasureError):
    """The moment matrix is singular; no isotropic linear image exists."""


class NotIsotropicError(MeasureError):
    """The operation requires an (approximately) isotropic input."""


class NoFrameError(MeasureError):
    """The clustering hypothesis for the orthonormal-frame fit fails."""


@dataclass(frozen=True)
class IsotropyReport:
    """Residuals of the isotropy, centering and total-mass conditions."""
    isotropy_residual: float
    centering_residual: float
    mass_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.isotropy_residual, self.centering_residual, self.mass_residual)

    def ok(self, tol: float) -> bool:
        return self.max_residual <= tol


def _check_unit_points(P: np.ndarray) -> None:
    """Raise MeasureError unless every row of P is a unit vector within UNIT_NORM_TOL."""
    deviation = np.abs(np.linalg.norm(P, axis=1) - 1.0)
    if not np.all(deviation <= UNIT_NORM_TOL):
        raise MeasureError(f"points must be unit vectors within {UNIT_NORM_TOL:g} "
                           f"(worst deviation {deviation.max():.3g})")


class DiscreteMeasure:
    """Unit vectors with positive weights on the sphere S^{n-1}."""

    def __init__(self, points, weights):
        P = np.ascontiguousarray(np.atleast_2d(points), dtype=float)
        w = np.ascontiguousarray(np.atleast_1d(weights), dtype=float)
        if P.shape[0] != w.shape[0]:
            raise MeasureError("point/weight count mismatch")
        if not (np.all(np.isfinite(P)) and np.all(np.isfinite(w))):
            raise MeasureError("non-finite measure data")
        if np.any(w <= 0):
            raise MeasureError("weights must be positive")
        _check_unit_points(P)
        P.flags.writeable = False
        w.flags.writeable = False
        self.points = P
        self.weights = w

    @property
    def k(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def moment_matrix(self) -> np.ndarray:
        return (self.points * self.weights[:, None]).T @ self.points

    def barycenter(self) -> np.ndarray:
        return self.weights @ self.points

    def mass(self) -> float:
        return float(self.weights.sum())

    def validate(self) -> IsotropyReport:
        """Report-only check of the isotropy / centering / mass conditions;
        thresholds are the caller's business."""
        M = self.moment_matrix()
        return IsotropyReport(
            isotropy_residual=float(np.linalg.norm(M - np.eye(self.n), "fro")),
            centering_residual=float(np.linalg.norm(self.barycenter())),
            mass_residual=float(abs(self.mass() - self.n)),
        )

    def to_json(self) -> dict:
        return {"n": int(self.n), "points": self.points.tolist(),
                "weights": self.weights.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "DiscreteMeasure":
        return cls(np.asarray(data["points"], float), np.asarray(data["weights"], float))

    def __repr__(self):
        return f"DiscreteMeasure(n={self.n}, k={self.k})"


def simplex_measure(n: int) -> DiscreteMeasure:
    """The extremal measure: regular-simplex vertices, each of weight n/(n+1)."""
    from .geometry import regular_simplex
    V = regular_simplex(n).vertices
    return DiscreteMeasure(V, np.full(n + 1, n / (n + 1.0)))


def orthonormal_measure(n: int) -> DiscreteMeasure:
    """+-e_i each with weight 1/2 (centered isotropic, cross-polytope support)."""
    P = np.vstack([np.eye(n), -np.eye(n)])
    return DiscreteMeasure(P, np.full(2 * n, 0.5))


def isotropize(points, weights) -> DiscreteMeasure:
    """One-step linear normalisation to an isotropic measure.

    Maps u_i -> M^{-1/2} u_i / |M^{-1/2} u_i| with weight c_i |M^{-1/2} u_i|^2,
    where M is the input moment matrix.  The output is isotropic to machine
    precision; centering is NOT restored by this transform.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if np.any(w <= 0):
        raise MeasureError("weights must be positive")
    M = (P * w[:, None]).T @ P
    evals, evecs = np.linalg.eigh(M)
    if evals.min() <= 1e-12 * max(evals.max(), 1.0):
        raise SingularMomentError("moment matrix is singular")
    R = evecs @ np.diag(evals ** -0.5) @ evecs.T
    Q = P @ R.T
    norms = np.linalg.norm(Q, axis=1)
    return DiscreteMeasure(Q / norms[:, None], w * norms ** 2)


def _constraint_matrix(P: np.ndarray) -> np.ndarray:
    """Moment, barycenter and mass conditions, linear in the weights: column j
    of the (n*n + n + 1, k) result is (vec(u_j u_j^T), u_j, 1)."""
    k, n = P.shape
    return np.vstack([np.einsum("ki,kj->ijk", P, P).reshape(n * n, k), P.T, np.ones((1, k))])


def _nnls_atoms(P: np.ndarray, target: np.ndarray):
    """The atoms of P that carry a nonnegative weight fit to a moment vector.

    One Lawson-Hanson nonnegative least-squares fit of
    ``_constraint_matrix(P) @ w`` to ``target``.  Its passive columns stay
    linearly independent, so at most the matrix rank, n(n+3)/2, of the
    weights are positive; returns the atoms with weight above 1e-12 as
    (points, weights).  An empty atom set raises ``MeasureError``: scipy's
    nnls aborts the interpreter on a matrix with no columns.
    """
    if P.shape[0] == 0:
        raise MeasureError("no atoms to fit weights on")
    w, _ = nnls(_constraint_matrix(P), target)
    keep = w > 1e-12
    return P[keep], w[keep]


def _isotropic_contact_fit(U: np.ndarray) -> DiscreteMeasure:
    """Weights on the unit contact points U (rows) fitted to a centred
    isotropic measure, sum c_i u_i (x) u_i = Id, sum c_i u_i = 0 and
    sum c_i = n, by one ``_nnls_atoms`` fit; how well the fit meets the
    conditions is read from the measure's ``validate``."""
    n = U.shape[1]
    target = np.concatenate([np.eye(n).ravel(), np.zeros(n), [float(n)]])
    return DiscreteMeasure(*_nnls_atoms(U, target))


def support_bound(n: int) -> int:
    """Caratheodory bound on the support size: n(n+3)/2 + 1 (at most 2 n^2)."""
    return n * (n + 3) // 2 + 1


def reduce_support(mu: DiscreteMeasure, tol: float = 1e-8) -> DiscreteMeasure:
    """Cut the support of a centered isotropic measure to n(n+3)/2 + 1 or fewer.

    The constraints (moment matrix, barycenter, total mass) are linear in
    the weights, so one nonnegative least-squares fit of the input's own
    moment vector over its atoms (``_nnls_atoms``) reproduces that vector
    to rounding on a subset of at most n(n+3)/2 atoms.  The output inherits
    the input residuals; a measure already within the bound is returned
    as it is.
    """
    report = mu.validate()
    if not report.ok(tol):
        raise NotIsotropicError(
            f"input residual {report.max_residual:.3g} exceeds tolerance {tol:g}")
    if mu.k <= support_bound(mu.n):
        return mu
    P = mu.points
    return DiscreteMeasure(*_nnls_atoms(P, _constraint_matrix(P) @ mu.weights))


def _subset_products(mu: DiscreteMeasure, idx: np.ndarray) -> np.ndarray:
    """q_S = (prod of weights over S) * det[u_i : i in S]^2 for each subset row."""
    U = mu.points[idx]                       # (S, n, n)
    dets = np.linalg.det(U)
    return np.prod(mu.weights[idx], axis=1) * dets ** 2


@dataclass(frozen=True)
class BallBartheReport:
    """Both sides of the weighted-determinant inequality plus its stability factor.

    ``exact`` is always True: theta_star sums all ``subset_count`` = C(k, n)
    subsets via the identity in ball_barthe_check, to about 1e-15 absolute.
    """
    lhs: float
    rhs: float
    theta_star: float
    exact: bool
    subset_count: int


def ball_barthe_check(mu: DiscreteMeasure, t, *, seed: int = 0) -> BallBartheReport:
    """Evaluate det(sum t_i c_i u_i u_i^T), prod t_i^{c_i} and the factor theta*.

    theta* = 1 + (1/2) sum over n-subsets S of q_S (sqrt(prod_{i in S} t_i)/t0 - 1)^2
    with q_S the weight-determinant products and t0^2 = lhs, and the guarantee
    is lhs >= theta* * rhs >= rhs for isotropic measures.  Cauchy-Binet gives
    sum_S q_S prod_{i in S} s_i = D(s) = det(sum s_i c_i u_i u_i^T), so
    theta* = 1 + (1 + D(1))/2 - D(sqrt t)/sqrt(lhs) exactly, up to an absolute
    rounding error of about 1e-15 (none relative to theta* - 1).  lhs <= 0 (a
    support not spanning R^n) raises SingularMomentError; ``seed`` has no effect.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape[0] != mu.k:
        raise MeasureError("t must have one entry per atom")
    if np.any(t <= 0):
        raise MeasureError("t entries must be positive")
    c = mu.weights
    lhs, d_sqrt, d_one = (float(np.linalg.det((mu.points * (s * c)[:, None]).T @ mu.points))
                          for s in (t, np.sqrt(t), 1.0))
    if lhs <= 0.0:
        raise SingularMomentError(f"the support does not span R^n (lhs = {lhs:.3g})")
    rhs = float(np.exp(np.dot(c, np.log(t))))
    theta_star = 1.0 + 0.5 * (1.0 + d_one) - d_sqrt / math.sqrt(lhs)
    return BallBartheReport(lhs=lhs, rhs=rhs, theta_star=theta_star,
                            exact=True, subset_count=math.comb(mu.k, mu.n))


def scalar_split_bound(a, b, x):
    """(xa-1)^2 + (xb-1)^2 and its lower bound (a^2-b^2)^2 / (2 (a^2+b^2)^2)."""
    a, b, x = np.asarray(a, float), np.asarray(b, float), np.asarray(x, float)
    lhs = (x * a - 1.0) ** 2 + (x * b - 1.0) ** 2
    rhs = (a ** 2 - b ** 2) ** 2 / (2.0 * (a ** 2 + b ** 2) ** 2)
    return lhs, rhs


def ball_barthe_stability_factor(mu: DiscreteMeasure, t, indices) -> dict:
    """Explicit stability factor from an (n+1)-index chain of big subsets.

    Given indices i_1 < ... < i_{n+1} whose two overlapping n-subsets
    {i_1..i_n} and {i_2..i_{n+1}} both have weight-determinant product at
    least beta, the determinant inequality self-improves to
    lhs >= (1 + beta (t_{i1} - t_{i_{n+1}})^2 / (4 (t_{i1} + t_{i_{n+1}})^2)) rhs.
    Returns the pieces plus whether the premise held.
    """
    idx = np.asarray(indices, dtype=np.intp)
    n = mu.n
    if idx.size != n + 1:
        raise MeasureError("need n+1 indices")
    t = np.asarray(t, dtype=float)
    q_first = float(_subset_products(mu, idx[:n][None, :])[0])
    q_last = float(_subset_products(mu, idx[1:][None, :])[0])
    beta = min(q_first, q_last)
    t1, t2 = t[idx[0]], t[idx[-1]]
    factor = 1.0 + beta * (t1 - t2) ** 2 / (4.0 * (t1 + t2) ** 2)
    return {"beta": beta, "factor": factor,
            "q_first": q_first, "q_last": q_last}


def big_determinant_subset(mu: DiscreteMeasure):
    """An n-subset S whose q_S = c_{i1}...c_{in} det^2 is at least det(M)/C(k, n).

    M is the moment matrix, so the bound is the averaging bound 1/C(k, n)
    for an isotropic measure; the subset need not be the maximiser, which
    is NP-hard to find in general.  The atoms are whitened to
    w_i = L^{-1} sqrt(c_i) u_i with L L^T = M, so sum_i w_i w_i^T = Id and
    q_S = det(M) det(w_S)^2.  By Cauchy-Binet the q_S of the completions of
    a partial subset T sum to det(M) Gram(w_T), so picking the atom with the
    largest residual off span(w_T) at each of n steps never drops below the
    average (the method of conditional expectations); these are the first
    n pivots of one column-pivoted QR of the w_i.  Returns the sorted
    indices and q_S; a support that does not span R^n raises
    SingularMomentError.
    """
    k, n = mu.k, mu.n
    if k > 2 * n * n:
        raise MeasureError(f"support {k} exceeds the bound 2n^2 = {2*n*n}")
    try:
        L = np.linalg.cholesky(mu.moment_matrix())
    except np.linalg.LinAlgError:
        raise SingularMomentError(
            "moment matrix is singular: the support does not span R^n") from None
    W = solve_triangular(L, (mu.points * np.sqrt(mu.weights)[:, None]).T, lower=True)
    _, pivots = qr(W, mode="r", pivoting=True)
    idx = np.sort(pivots[:n])
    return tuple(int(i) for i in idx), float(_subset_products(mu, idx[None, :])[0])


class LiftedMeasure(DiscreteMeasure):
    """A centered isotropic measure lifted one dimension up.

    The lifted atoms are sign * sqrt(n/(n+1)) u_i + (1/sqrt(n+1)) e with
    weights (n+1)/n c_i, where e is the added coordinate axis; both signs
    give an isotropic system in dimension n+1 with barycenter sqrt(n+1) e.
    The atoms are unit vectors whenever the u_i are, so the base class's
    checks apply unchanged.
    """

    def __init__(self, base: DiscreteMeasure, sign: int = +1):
        if sign not in (+1, -1):
            raise MeasureError("sign must be +1 or -1")
        report = base.validate()
        if report.isotropy_residual > _LIFT_TOL or report.centering_residual > _LIFT_TOL:
            raise NotIsotropicError(
                f"lift requires a centered isotropic base (residual "
                f"{report.max_residual:.3g} > {_LIFT_TOL:g})")
        n = base.n
        scale = math.sqrt(n / (n + 1.0))
        pole = np.zeros(n + 1)
        pole[-1] = 1.0
        P = np.hstack([sign * scale * base.points,
                       np.full((base.k, 1), 1.0 / math.sqrt(n + 1.0))])
        super().__init__(P, (n + 1.0) / n * base.weights)
        self.base = base
        self.sign = sign
        self.pole = pole

    @property
    def dim(self) -> int:
        return self.n

    def __repr__(self):
        return f"LiftedMeasure(n={self.base.n}, k={self.k}, sign={self.sign:+d})"


def lift(mu: DiscreteMeasure, sign: int = +1) -> LiftedMeasure:
    """Lift a centered isotropic measure to an isotropic system one dimension up."""
    return LiftedMeasure(mu, sign=sign)


def fit_orthonormal_frame(vs, eta: float) -> np.ndarray:
    """Fit an orthonormal basis w_1..w_n to an isotropic vector system.

    The input vectors v_i (not necessarily unit) must satisfy
    sum v_i (x) v_i = Id, and each must either be short (norm <= eta) or
    eta-close in angle to one of v_1...v_n; then the returned basis has
    angle(v_i, w_i) < 3 sqrt(k) eta for i <= n.  Implemented as the
    orthogonal Procrustes fit to the first n cluster representatives.
    """
    V = np.atleast_2d(np.asarray(vs, dtype=float))
    k, n = V.shape
    if not 0 < eta < 1.0 / (3.0 * math.sqrt(k)):
        raise NoFrameError(f"eta must lie in (0, 1/(3 sqrt(k))) = (0, {1/(3*math.sqrt(k)):.4g})")
    M = V.T @ V
    if np.linalg.norm(M - np.eye(n), "fro") > 1e-8:
        raise NoFrameError("input system is not isotropic")
    norms = np.linalg.norm(V, axis=1)
    if np.any(norms[:n] <= eta):
        raise NoFrameError("a cluster representative is shorter than eta")
    unit = V / np.maximum(norms, 1e-300)[:, None]
    for i in range(k):
        if norms[i] <= eta:
            continue
        cosines = np.clip(unit[i] @ unit[:n].T, -1.0, 1.0)
        if np.arccos(cosines).min() > eta:
            raise NoFrameError(f"vector {i} is neither short nor close to a representative")
    # orthogonal Procrustes: closest orthogonal matrix to the representative block
    U, _, Wt = np.linalg.svd(V[:n].T)
    return (U @ Wt).T
