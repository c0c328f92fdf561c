"""Loewner ellipsoids, John ellipsoids via polarity, and contact measures.

The minimum-volume enclosing ellipsoid (MVEE) of points x_i comes from the
D-optimal design problem: maximise log det sum_i p_i q_i q_i^T over the
simplex, where q_i are the rows of the lift.  The lift is the orthonormal
basis of the column span of [X, 1] (thin QR), which has the same leverage
scores as [X, 1] and a well-conditioned design matrix.  One primal-dual
interior-point method (Sun and Freund 2004, Oper. Res. 52) solves the
problem on an active set of rows that starts at the Kumar-Yildirim core set
(Kumar and Yildirim 2005, J. Optim. Theory Appl. 126) and grows by the rows
whose leverage exceeds d = n + 1.  The certificate max_i kappa_i / d - 1,
computed on the lift, bounds how far the ellipsoid is from optimal.
Contact points and dual weights are converted into a centered isotropic
measure on the sphere certifying that the unit ball is the Loewner
(equivalently, on the polar side, the John) ellipsoid of the normalised
body.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs, dtrtrs

from .geometry import (DegenerateBodyError, Ellipsoid, GeometryError,
                       Polytope, polar)
from .isotropic import DiscreteMeasure, IsotropyReport, _isotropic_contact_fit
from .rng import make_rng

__all__ = [
    "EllipsoidSolverError", "JohnDecomposition",
    "mvee", "mvee_support_residual",
    "john_contact_measure", "john_ellipsoid_of_polar",
    "random_isotropic_measure",
]


class EllipsoidSolverError(GeometryError):
    """The ellipsoid solver failed to reach its certificate."""


def _lift(X: np.ndarray) -> np.ndarray:
    """Orthonormal basis (thin QR) of the column span of the lift [X, 1].

    Leverage scores depend only on the column span, so they equal those of
    [X, 1] exactly, while the design matrix stays well conditioned on
    affinely ill-conditioned clouds.
    """
    return np.linalg.qr(np.hstack([X, np.ones((X.shape[0], 1))]))[0]


def _whiten(Q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """W = L^{-1} Q^T, where L L^T is the Cholesky factorisation of the
    design matrix M = sum_i p_i q_i q_i^T, so that Q M^{-1} Q^T = W^T W.

    The triangular solves here and in ``_interior_point`` call LAPACK
    directly: at these sizes the scipy.linalg wrappers cost more than the
    solves."""
    return dtrtrs(np.linalg.cholesky((Q * p[:, None]).T @ Q), Q.T, lower=1)[0]


def _leverage(Q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Leverage scores kappa_i = q_i^T M^{-1} q_i of the rows of Q."""
    W = _whiten(Q, p)
    return np.einsum("ij,ij->j", W, W)


def _core_set(X: np.ndarray) -> np.ndarray:
    """Indices of the Kumar-Yildirim core set of the rows of X.

    For j = 1..n it takes the argmax and the argmin of <x, b_j>, where
    b_1 = e_1 and each later b_j is orthogonal to the differences chosen so
    far: the projection of the standard basis vector farthest from their
    span (only its direction matters).  The at most 2n points affinely span
    R^n.
    """
    n = X.shape[1]
    chosen, R = [], np.eye(n)          # projector onto the complement of the chosen differences
    for _ in range(n):
        b = R[int(np.argmax(np.einsum("ij,ij->i", R, R)))]
        s = X @ b
        hi, lo = int(np.argmax(s)), int(np.argmin(s))
        if not s[hi] > s[lo]:
            raise DegenerateBodyError("point set does not span the space")
        chosen += [hi, lo]
        d = R @ (X[hi] - X[lo])
        R -= np.outer(d, d) / (d @ d)
    return np.unique(chosen)


# the design is optimal once max kappa_i / d - 1 is at most _CERT_TOL; an
# interior-point solve also waits until its next Newton step would move no
# leverage score by more than _STEP_TOL d, which puts the contacts' leverage
# at d to about that accuracy
_CERT_TOL = 1e-13
_STEP_TOL = 1e-14
# Newton steps per interior-point solve, centring parameter sigma and
# fraction-to-boundary step
_IPM_STEPS = 100
_SIGMA = 0.1
_TO_BOUNDARY = 0.99


def _interior_point(Q: np.ndarray) -> np.ndarray:
    """Primal-dual interior-point method for the D-optimal design on the rows of Q.

    Maximises log det M(p), M(p) = sum_i p_i q_i q_i^T, over the simplex
    (Sun and Freund 2004, Oper. Res. 52).  With a rows, leverage scores
    kappa(p) and K = Q M^{-1} Q^T (so d kappa / dp = -(K o K)), each Newton
    step solves kappa(p) + z = nu 1, p o z = sigma (p^T z) / a,
    1^T p = 1 with the matrix (K o K) + diag(z / p), which is positive
    definite even when the optimal design is not unique, and one Schur
    step for nu.  The loop stops once the certificate max kappa / d - 1 is
    at most ``_CERT_TOL`` and the next step would change kappa by at most
    ``_STEP_TOL`` d, after ``_IPM_STEPS`` steps, or when a Cholesky
    factorisation fails; it returns the iterate with the best certificate.
    """
    a, d = Q.shape
    p, z, nu = np.full(a, 1.0 / a), np.ones(a), float(d)
    best_p, best_cert = p, np.inf
    for step in range(_IPM_STEPS + 1):
        try:
            W = _whiten(Q, p)
            K = W.T @ W
            kappa = np.diag(K)
            cert = float(kappa.max()) / d - 1.0
            if cert < best_cert:
                best_p, best_cert = p, cert
            if step == _IPM_STEPS:
                break
            KK = K * K
            L = np.linalg.cholesky(KK + np.diag(z / p))
        except np.linalg.LinAlgError:
            break
        mu = _SIGMA * float(p @ z) / a
        Y = dpotrs(L, np.column_stack([kappa + mu / p - nu, np.ones(a)]), lower=1)[0]
        dnu = (Y[:, 0].sum() + p.sum() - 1.0) / Y[:, 1].sum()
        dp = Y[:, 0] - dnu * Y[:, 1]
        if cert <= _CERT_TOL and np.abs(KK @ dp).max() <= _STEP_TOL * d:
            break
        dz = mu / p - z - z / p * dp
        ratios = np.concatenate([-p[dp < 0] / dp[dp < 0], -z[dz < 0] / dz[dz < 0]])
        alpha = min(1.0, _TO_BOUNDARY * ratios.min()) if ratios.size else 1.0
        p, z, nu = p + alpha * dp, z + alpha * dz, nu + alpha * dnu
    return best_p / best_p.sum()


def _design_weights(X: np.ndarray) -> tuple[np.ndarray, float]:
    """Optimal design weights on the lift of the rows of X, by active sets,
    and their certificate (``mvee_support_residual``).

    The active set starts at the Kumar-Yildirim core set (``_core_set``).
    Each round solves the design on the active rows from a cold start
    (``_interior_point``), then adds the d rows of largest leverage among
    the inactive rows whose leverage exceeds d (1 + ``_CERT_TOL``); the
    rounds stop when no inactive row does.
    """
    Q = _lift(X)
    m, d = Q.shape
    active = np.zeros(m, dtype=bool)
    active[_core_set(X)] = True
    while True:
        p = np.zeros(m)
        p[active] = _interior_point(Q[active])
        kappa = _leverage(Q, p)
        above = np.flatnonzero(~active & (kappa > d * (1.0 + _CERT_TOL)))
        if above.size == 0:
            return p, float(kappa.max()) / d - 1.0
        active[above[np.argsort(kappa[above], kind="stable")[-d:]]] = True


def mvee_support_residual(points: np.ndarray, p: np.ndarray) -> float:
    """Duality-gap certificate max_i kappa_i / d - 1 of design weights p.

    The leverage scores are computed on the orthonormal lift of the points
    (``_lift``), so the value is that of [X, 1] without its conditioning.
    """
    Q = _lift(np.atleast_2d(points))
    return float(_leverage(Q, p).max() / Q.shape[1] - 1.0)


def mvee(points, eps: float = 1e-7):
    """Minimum-volume enclosing ellipsoid of a point set.

    Returns (Ellipsoid, dual_weights).  The weights are nonnegative, sum to
    one and are supported on (near-)contact points.  Their certificate
    ``mvee_support_residual`` is usually below 1e-13 and must be at most
    eps, else ``EllipsoidSolverError`` is raised.  The shape matrix is
    exactly symmetric, and every point passes ``contains_points`` with
    tol = 0.  Non-centred data is handled by the lift to dimension n+1.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    m, n = X.shape
    if not 0.0 < eps < 0.5:
        raise GeometryError("eps must lie in (0, 0.5)")
    if n < 1 or m < n + 1 or np.linalg.matrix_rank(X - X.mean(axis=0)) < n:
        raise DegenerateBodyError("points do not affinely span the space")
    p, cert = _design_weights(X)
    center = p @ X
    S = (X * p[:, None]).T @ X - np.outer(center, center)
    try:
        Sinv = np.linalg.inv(S)
    except np.linalg.LinAlgError:
        raise DegenerateBodyError("degenerate point set (singular scatter)")
    if cert > eps:
        raise EllipsoidSolverError(
            f"certificate {cert:.3g} exceeds eps = {eps:g}")
    # inflate so containment holds exactly at the certified accuracy
    E = Ellipsoid(center, (Sinv + Sinv.T) / (2.0 * n * (1.0 + cert * (n + 1.0) / n)))
    # on affinely ill-conditioned clouds the rounding of S^{-1}, and of the
    # quadratic form itself, can leave a point outside as evaluated; then
    # shrink by the largest form plus twice its rounding bound (a sum of n^2
    # products of three factors), so that every point evaluates inside
    q = E.quadratic_form(X)
    if q.max() > 1.0:
        D = np.abs(X - center)
        bound = np.einsum("ij,jk,ik->i", D, np.abs(E.shape), D)
        slack = 2.0 * (n * n + 3) * np.finfo(float).eps * bound
        E = Ellipsoid(center, E.shape / float((q + slack).max()))
    return E, p


@dataclass
class JohnDecomposition:
    """A body normalised so the unit ball is its Loewner/John ellipsoid,
    together with the contact measure certifying it."""
    body: Polytope
    contacts: DiscreteMeasure
    kind: str                       # always "lowner-contacts" (John side: ROADMAP item 4)
    residuals: IsotropyReport
    boundary_residual: float        # worst |  |u_i| - 1 | before renormalisation

    def ok(self, tol: float = 1e-6) -> bool:
        return self.residuals.ok(tol) and self.boundary_residual <= tol


def john_contact_measure(K: Polytope, eps: float = 1e-7) -> JohnDecomposition:
    """Contact measure of the Loewner ellipsoid of a full-dimensional polytope.

    The body is mapped by the affine map sending its Loewner ellipsoid to
    the unit ball; vertices landing on the sphere are the contact points,
    whose weights are polished by nonnegative least squares onto the exact
    conditions sum c_i u_i (x) u_i = Id, sum c_i u_i = 0, which keeps at
    most n(n+3)/2 atoms.  If the decomposition fails ``JohnDecomposition.ok``
    it is returned with a warning, never silently.
    """
    X = K.vertices
    n = K.n
    E, p = mvee(X, eps=eps)
    evals, evecs = np.linalg.eigh(E.shape)
    L = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    mapped = (X - E.center) @ L.T
    norms = np.linalg.norm(mapped, axis=1)
    on_sphere = np.abs(norms - 1.0) <= max(10.0 * eps, 1e-8)
    heavy = p > 10.0 * eps
    contact_idx = np.flatnonzero(on_sphere | heavy)
    if contact_idx.size < n + 1:
        contact_idx = np.argsort(np.abs(norms - 1.0))[:n + 1]
    boundary_residual = float(np.abs(norms[contact_idx] - 1.0).max())
    mu = _isotropic_contact_fit(mapped[contact_idx] / norms[contact_idx, None])
    decomp = JohnDecomposition(body=Polytope(vertices=mapped, check=False), contacts=mu,
                               kind="lowner-contacts", residuals=mu.validate(),
                               boundary_residual=boundary_residual)
    if not decomp.ok():
        warnings.warn(
            f"john decomposition residual {decomp.residuals.max_residual:.3g} "
            f"(boundary {boundary_residual:.3g}) fails JohnDecomposition.ok",
            RuntimeWarning, stacklevel=2)
    return decomp


def john_ellipsoid_of_polar(K: Polytope, eps: float = 1e-7) -> Ellipsoid:
    """John ellipsoid of K as the polar image of the Loewner ellipsoid of K°."""
    Kp = polar(K)
    E, _ = mvee(Kp.vertices, eps=eps)
    return polar(E)


def random_isotropic_measure(n: int, k_points: int, seed: int) -> DiscreteMeasure:
    """Centered isotropic measure from the Loewner contacts of a random polytope.

    Gaussian points are drawn with the given seed, their convex hull is
    normalised through the John route, and the resulting contact measure is
    returned.  Its isotropy and centring residuals are those of the NNLS
    weight fit on the contacts, usually far below the 1e-6 of
    ``JohnDecomposition.ok``; ``john_contact_measure`` warns when they are
    not.  Identical seeds give identical measures.
    """
    if n < 2:
        raise GeometryError("dimension must be at least 2")
    if k_points < n + 1:
        raise GeometryError("need at least n+1 points")
    rng = make_rng(seed)
    pts = rng.standard_normal((k_points, n))
    decomp = john_contact_measure(Polytope(vertices=pts))
    return decomp.contacts
