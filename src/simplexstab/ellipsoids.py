"""Loewner ellipsoids, John ellipsoids via polarity, and contact measures.

The minimum-volume enclosing ellipsoid (MVEE) is computed on the lifted
point set by first-order Khachiyan iterations with away steps, which carry
the inverse design matrix and the leverage scores by rank-one updates, with
a fresh check at the stop.  The iterations start from the Kumar-Yildirim
core set (Kumar and Yildirim 2005, J. Optim. Theory Appl. 126) plus every
point that the Harman-Pronzato bound (Harman and Pronzato 2007, Stat.
Probab. Lett. 77) cannot exclude from the optimal support.  The
identified contact set is then polished by Newton iterations on the
optimality system, which drives the duality gap to machine precision.
Contact points and dual weights are converted into a centered isotropic
measure on the sphere certifying that the unit ball is the Loewner
(equivalently, on the polar side, the John) ellipsoid of the normalised
body.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import (DegenerateBodyError, Ellipsoid, GeometryError,
                       Polytope, polar)
from .isotropic import DiscreteMeasure, IsotropyReport, _nnls_atoms
from .rng import make_rng

__all__ = [
    "EllipsoidSolverError", "JohnDecomposition",
    "mvee", "mvee_support_residual",
    "john_contact_measure", "john_ellipsoid_of_polar",
    "random_isotropic_measure",
]


class EllipsoidSolverError(GeometryError):
    """The ellipsoid solver failed to reach its certificate."""


def _leverage(Q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leverage scores kappa_i = q_i^T M^{-1} q_i of the rows of Q under the
    design matrix M = sum_i p_i q_i q_i^T, and M^{-1}, from scratch."""
    M = (Q * p[:, None]).T @ Q
    Minv = np.linalg.inv(M)
    return np.einsum("ij,jk,ik->i", Q, Minv, Q), Minv


def _core_set(X: np.ndarray) -> np.ndarray:
    """Indices of the Kumar-Yildirim core set of the rows of X.

    For j = 1..n it takes the argmax and the argmin of <x, b_j>, where
    b_1 = e_1 and each later b_j is orthogonal to the differences chosen so
    far: the projection of the standard basis vector farthest from their
    span (only its direction matters).  The at most 2n points affinely span
    R^n.
    """
    n = X.shape[1]
    chosen, basis = [], np.zeros((0, n))
    for _ in range(n):
        R = np.eye(n) - basis.T @ basis
        b = R[int(np.argmax(np.einsum("ij,ij->i", R, R)))]
        s = X @ b
        hi, lo = int(np.argmax(s)), int(np.argmin(s))
        if not s[hi] > s[lo]:
            raise DegenerateBodyError("point set does not span the space")
        chosen += [hi, lo]
        diff = X[hi] - X[lo]
        diff -= basis.T @ (basis @ diff)
        basis = np.vstack([basis, diff / np.linalg.norm(diff)])
    return np.unique(chosen)


# a point is screened out only when its leverage is below the Harman-Pronzato
# bound by this relative margin, so rounding never screens a support point
_SCREEN_MARGIN = 1e-9


def _screened_start(Q: np.ndarray) -> np.ndarray:
    """Start weights for the Khachiyan loop on the lifted points Q = [X, 1].

    Under the uniform design on the core set (``_core_set``) with leverage
    scores kappa, e = max kappa - d and
    h = d (1 + e/2 - sqrt(e (4 + e - 4/d)) / 2), every point with
    kappa < h is certified not to support the optimal design (Harman and
    Pronzato 2007).  The start is uniform on the core and on the points
    kept by that screen.
    """
    m, d = Q.shape
    core = _core_set(Q[:, :-1])
    p = np.zeros(m)
    p[core] = 1.0 / core.size
    try:
        kappa, _ = _leverage(Q, p)
    except np.linalg.LinAlgError:
        raise DegenerateBodyError("point set does not span the space")
    e = max(float(kappa.max()) - d, 0.0)
    h = d * (1.0 + e / 2.0 - math.sqrt(e * (4.0 + e - 4.0 / d)) / 2.0)
    keep = kappa >= h * (1.0 - _SCREEN_MARGIN)
    keep[core] = True
    return keep / np.count_nonzero(keep)


def _khachiyan_weights(Q: np.ndarray, eps: float, max_iter: int) -> np.ndarray:
    """Away-step Frank-Wolfe on the lifted log-det design problem.

    The loop starts from ``_screened_start``: uniform weight on a
    Kumar-Yildirim core set (Kumar and Yildirim 2005) and on the points that
    the Harman-Pronzato bound (Harman and Pronzato 2007) cannot exclude from
    the optimal support.  Screened points start at weight 0 but stay in Q,
    so a Frank-Wolfe step can still add them: the bound only saves the drop
    steps that a uniform start spends on non-support points.

    Each step p <- a p + b e_j changes M by a rank-one term, so M^{-1} and
    the leverage scores are carried by Sherman-Morrison: with u = M^{-1} q_j,
    g = Q u and c = b / (a + b kappa_j), kappa <- (kappa - c g^2) / a and
    M^{-1} <- (M^{-1} - c u u^T) / a, O(m d) per step.  When the carried
    scores pass the stop test they are recomputed from scratch and tested
    again, so rounding drift never ends the loop early.  At most
    ``max_iter`` steps are taken.
    """
    d = Q.shape[1]
    p = _screened_start(Q)
    kappa, steps = None, 0
    while True:
        fresh = kappa is None
        if fresh:
            try:
                kappa, Minv = _leverage(Q, p)
            except np.linalg.LinAlgError:
                raise DegenerateBodyError("point set does not span the space")
        i_up = int(np.argmax(kappa))
        eps_up = kappa[i_up] / d - 1.0
        kappa_act = np.where(p > 1e-300, kappa, np.inf)
        i_dn = int(np.argmin(kappa_act))
        eps_dn = 1.0 - kappa[i_dn] / d
        if max(eps_up, eps_dn) <= eps:
            if fresh:
                break
            kappa = None
            continue
        if steps >= max_iter:
            break
        steps += 1
        away = eps_up < eps_dn
        if away:
            j, kap = i_dn, kappa[i_dn]
            step_cap = p[j] / (1.0 - p[j]) if p[j] < 1.0 else np.inf
            step = -min((d - kap) / (d * (kap - 1.0)), step_cap)
        else:
            j, kap = i_up, kappa[i_up]
            step = (kap - d) / (d * (kap - 1.0))
        a, b = 1.0 - step, step
        p = a * p
        p[j] += b
        if away:
            p = np.maximum(p, 0.0)
            p /= p.sum()
        u = Minv @ Q[j]
        g = Q @ u
        c = b / (a + b * kap)
        kappa = (kappa - c * g * g) / a
        Minv = (Minv - c * np.outer(u, u)) / a
    return p


def _design_certificate(Q: np.ndarray, p: np.ndarray) -> float:
    return float(_leverage(Q, p)[0].max() / Q.shape[1] - 1.0)


def _newton_polish(Q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Drive the design optimality system to (near) machine precision.

    On the active set the optimal weights satisfy kappa_i(p) = d; damped
    least-squares Newton steps on that system converge even when the
    optimal face is degenerate (e.g. many co-spherical contacts).  The
    active set is seeded from the kappa values of the first-order solution
    and revised between at most 12 rounds of at most 100 steps, each round
    stopping once max |kappa_i - d| < 1e-13 d; the result is never worse
    than the input.
    """
    m, d = Q.shape
    best_p = p
    try:
        best_cert = _design_certificate(Q, p)
    except np.linalg.LinAlgError:
        return p
    for _ in range(12):
        try:
            kappa, _ = _leverage(Q, p)
        except np.linalg.LinAlgError:
            break
        support = np.flatnonzero((kappa >= d * (1.0 - 1e-3)) | (p > 1e-6))
        if support.size < d:
            support = np.argsort(kappa)[-d:]
        ps = np.maximum(p[support], 1e-12)
        ps /= ps.sum()
        Qs = Q[support]
        errs = []
        for _ in range(100):
            Ms = (Qs * ps[:, None]).T @ Qs
            try:
                K = Qs @ np.linalg.inv(Ms) @ Qs.T
            except np.linalg.LinAlgError:
                break
            F = np.diag(K) - d
            errs.append(np.abs(F).max())
            if errs[-1] < 1e-13 * d:
                break
            # on affinely ill-conditioned clouds max|F| stalls far above 1e-13 d:
            # stop once it has not halved from its best within 5 steps
            if len(errs) > 5 and min(errs[-5:]) > 0.5 * min(errs[:-5]):
                break
            step, *_ = np.linalg.lstsq(-(K ** 2), -F, rcond=1e-10)
            lam = 1.0
            while (ps + lam * step).min() < -1e-3 and lam > 1e-6:
                lam *= 0.5
            ps = np.maximum(ps + lam * step, 0.0)
            total = ps.sum()
            if total <= 0:
                break
            ps /= total
        new_p = np.zeros(m)
        new_p[support] = ps
        try:
            cert = _design_certificate(Q, new_p)
        except np.linalg.LinAlgError:
            break
        if cert < best_cert:
            best_p, best_cert = new_p, cert
        if best_cert < 1e-12:
            break
        p = 0.5 * p + 0.5 * new_p
    return best_p


def mvee_support_residual(points: np.ndarray, p: np.ndarray) -> float:
    """Duality-gap style certificate max_i kappa_i/d - 1 for design weights p."""
    X = np.atleast_2d(points)
    return _design_certificate(np.hstack([X, np.ones((X.shape[0], 1))]), p)


def mvee(points, eps: float = 1e-7, max_iter: int = 100_000):
    """Minimum-volume enclosing ellipsoid of a point set.

    Returns (Ellipsoid, dual_weights).  The weights are nonnegative, sum to
    one and are supported on (near-)contact points; the ellipsoid satisfies
    the (1+eps) optimality certificate, and after the Newton polish the
    certificate is usually at machine precision.  The shape matrix is
    exactly symmetric, and every point passes ``contains_points`` with
    tol = 0.  Non-centred data is handled by the standard lift to dimension
    n+1.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    m, n = X.shape
    if not 0.0 < eps < 0.5:
        raise GeometryError("eps must lie in (0, 0.5)")
    if m < n + 1 or np.linalg.matrix_rank(X - X.mean(axis=0)) < n:
        raise DegenerateBodyError("points do not affinely span the space")
    Q = np.hstack([X, np.ones((m, 1))])
    p = _khachiyan_weights(Q, max(eps, 1e-8), max_iter)
    p = _newton_polish(Q, p)
    center = p @ X
    S = (X * p[:, None]).T @ X - np.outer(center, center)
    try:
        Sinv = np.linalg.inv(S)
    except np.linalg.LinAlgError:
        raise DegenerateBodyError("degenerate point set (singular scatter)")
    cert = mvee_support_residual(X, p)
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
    kind: str                       # "lowner-contacts" or "john-contacts"
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
    U = mapped[contact_idx] / norms[contact_idx, None]
    target = np.concatenate([np.eye(n).ravel(), np.zeros(n), [float(n)]])
    mu = DiscreteMeasure(*_nnls_atoms(U, target))
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
    normalised through the John route, and the resulting contact measure
    (isotropic and centered to ~1e-6 or better) is returned.  Identical
    seeds give identical measures.
    """
    if k_points < n + 1:
        raise GeometryError("need at least n+1 points")
    rng = make_rng(seed)
    pts = rng.standard_normal((k_points, n))
    decomp = john_contact_measure(Polytope(vertices=pts))
    return decomp.contacts
