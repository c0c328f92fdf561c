"""Extremal families, deficits, simplex alignment and stability exponents.

The extremal constructions attach a controlled perturbation to the regular
simplex (an extra spherical vertex, truncated corners of the circumscribed
simplex, its polar, or stretched facet bumps), all normalised so the unit
ball remains the relevant Loewner/John ellipsoid.  Deficits are measured
against the exact simplex oracles, bodies are aligned to the simplex over
the orthogonal group, and empirical stability exponents are fitted from
log-log regressions of distance against the measured deficit.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import functionals as fn
from .geometry import (GeometryError, Polytope, _hausdorff, _unit_halfspaces, gauge_many,
                       point_set_hausdorff, polar, regular_simplex, regular_simplex_polar,
                       support_many, symdiff_volume)
from .isotropic import _check_unit_points, _isotropic_contact_fit
from .rng import make_rng

__all__ = [
    "FamilyError", "InsufficientSignalError", "NormalizationError",
    "ExtremalFamily", "ExperimentRow", "ExperimentReport",
    "make_family", "FAMILY_KINDS",
    "align_to_simplex", "align_points_to_simplex_vertices", "AlignmentResult",
    "measure_deficit", "measure_deficits", "fit_exponent",
    "sandwich_check", "centroid_bound_check",
    "stability_bound_log10", "extremality_check",
]

FAMILY_KINDS = ("vertex-added", "corner-cut", "polar-vertex-added", "stretched-vertex")

# distance-exponent constant of the stability bounds, as log10(c) = 26 n log10(n)
BOUND_EXPONENT = 26
# tolerance of each condition of the certificate that the unit ball is the
# Loewner/John ellipsoid, which ``measure_deficits`` checks for every polytope
_NORMALISATION_TOL = 1e-6
# Gaussian mean of a body's support function per unit of its first intrinsic
# volume: Kubota's formula w(L) = 2 kappa_{n-1} V_1(L) / (n kappa_n) times
# E|G| / 2 gives E h_L(G) = V_1(L) / sqrt(2 pi) in every dimension
_MEAN_PER_V1 = 1.0 / math.sqrt(2.0 * math.pi)


class FamilyError(GeometryError):
    """Invalid extremal-family parameters."""


class InsufficientSignalError(RuntimeError):
    """Too few measured deficits above the noise floor, or too narrow a span."""


class NormalizationError(GeometryError):
    """The body is not normalised to the unit Loewner/John ellipsoid."""


@dataclass
class ExtremalFamily:
    kind: str
    n: int
    eps_grid: np.ndarray
    bodies: list
    side: str                 # lowner | lowner-width, or john: lowner-width of the polar


@dataclass
class ExperimentRow:
    # fields in the order of ExperimentReport.CSV_COLUMNS, which names the CSV header
    eps_nominal: float
    eps_measured: float
    eps_stderr: float
    delta_H: float
    delta_vol: float
    bound_margin_log10: float
    # a positive distance and a deficit above 3 eps_stderr: above the
    # Monte-Carlo noise floor, or above 3 rounding bounds when closed form
    used_in_fit: bool


@dataclass
class ExperimentReport:
    family: str
    n: int
    rows: list
    slope: float
    slope_stderr: float
    r_squared: float
    distance_used: str        # delta_vol | delta_H
    deficit_method: str       # closed-form | mc-direct: how the deficits were measured

    CSV_COLUMNS = ("eps_nominal", "eps_measured", "eps_stderr", "delta_H", "delta_vol",
                   "bound_margin", "used_in_fit")

    def as_csv_rows(self):
        for r in self.rows:
            yield dict(zip(self.CSV_COLUMNS, astuple(r)))


def _rotate_towards(v: np.ndarray, away_from: np.ndarray, angle: float) -> np.ndarray:
    """Rotate unit v by ``angle`` within span{v, away_from}, away from the second vector."""
    w = away_from - (away_from @ v) * v
    w /= np.linalg.norm(w)
    return math.cos(angle) * v - math.sin(angle) * w


def make_family(kind: str, n: int, eps_grid) -> ExtremalFamily:
    """Construct one of the extremal families on the given nominal-deficit grid.

    vertex-added:       hull of the simplex plus an extra unit vertex at
                        angle eps from the first vertex, moved along the
                        great circle through the second vertex and past the
                        first (Loewner ball stays the unit ball).
    corner-cut:         circumscribed simplex with its n+1 corners cut off
                        by simplices of edge 2 eps^(1/n)
                        (John ball stays the unit ball).
    polar-vertex-added: polar of the vertex-added body (John side).
    stretched-vertex:   hull of the simplex vertices v_i and the stretched
                        opposite-facet centroids -(1/n + eps^(1/n)/4) v_i.
    """
    eps_grid = np.sort(np.atleast_1d(np.asarray(eps_grid, dtype=float)))
    if eps_grid.size == 0:
        raise FamilyError("eps grid is empty")
    if not np.all((eps_grid > 0.0) & (eps_grid < 0.1)):       # NaN fails both
        raise FamilyError("eps grid must lie in (0, 0.1)")
    if kind not in FAMILY_KINDS:
        raise FamilyError(f"unknown family kind {kind!r}")
    simplex = regular_simplex(n)
    V = simplex.vertices
    bodies = []
    if kind in ("vertex-added", "polar-vertex-added"):
        for eps in eps_grid:
            extra = _rotate_towards(V[0], V[1], float(eps))
            K = Polytope(vertices=np.vstack([V, extra]))
            bodies.append(polar(K) if kind == "polar-vertex-added" else K)
        side = "lowner" if kind == "vertex-added" else "john"
    elif kind == "corner-cut":
        # full edge of the circumscribed simplex and its height along a vertex
        edge = math.sqrt(2.0 * n * (n + 1.0))
        for eps in eps_grid:
            # cut edge over full edge: eps < 0.1 keeps it below 0.19 for every
            # n >= 2, short of the 0.5 at which neighbouring cuts would meet
            rho = 2.0 * float(eps) ** (1.0 / n) / edge
            depth = rho * (n + 1.0)
            A = np.vstack([V, -V])
            b = np.concatenate([np.ones(n + 1), np.full(n + 1, n - depth)])
            bodies.append(Polytope(halfspaces=(A, b)))
        side = "john"
    else:  # stretched-vertex
        for eps in eps_grid:
            bump = 1.0 / n + 0.25 * float(eps) ** (1.0 / n)
            K = Polytope(vertices=np.vstack([V, -bump * V]))
            bodies.append(K)
        # the facet bumps barely move the mean width (the support gain lives
        # on an O(h)-radius cap of directions), which is the deficit this
        # family is built to keep small
        side = "lowner-width"
    return ExtremalFamily(kind=kind, n=n, eps_grid=eps_grid, bodies=bodies, side=side)


@dataclass
class AlignmentResult:
    rotation: np.ndarray
    delta_H: float
    evaluated: int            # candidates whose exact distance was computed
    pruned: int               # candidates the facet-violation bound skipped
    projections: int          # point-to-hull projections run in the evaluated candidates


def _plane_rotation(n: int, i: int, j: int, angle: float) -> np.ndarray:
    """Givens rotation by ``angle`` in the (i, j) coordinate plane."""
    c, s = math.cos(angle), math.sin(angle)
    G = np.eye(n)
    G[i, i] = c; G[j, j] = c
    G[i, j] = -s; G[j, i] = s
    return G


def _assignment_rotation(directions: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Hungarian matching of unit directions to target vertices, then the
    orthogonal Procrustes fit (any determinant sign) of the matched pairs.

    Returns the rotation R such that targets @ R.T best matches the
    directions (the target-to-body map).
    """
    cost = np.arccos(np.clip(directions @ targets.T, -1.0, 1.0))
    rows, cols = linear_sum_assignment(cost)
    U, _, Vt = np.linalg.svd(directions[rows].T @ targets[cols])
    return U @ Vt


def _align(directions: np.ndarray, targets: np.ndarray, objective,
           n_restarts: int, seed: int, sweeps: int, raw_restarts: bool = True,
           step0: float = 0.05):
    """Rotation R of the target configuration (targets @ R.T) with the smallest
    ``objective(R)`` the local search below finds; returns (R, value).

    Candidates: the Hungarian/Procrustes fit of ``targets`` to the unit
    ``directions``, the identity, and per restart a random orthogonal Q
    from ``make_rng(seed)`` with the fit started from ``targets @ Q.T``
    (and Q itself if ``raw_restarts``).  The best is refined by monotone
    +-step Givens rotations in every coordinate plane, the step shrinking
    from ``step0`` by 0.35 per sweep for ``sweeps`` sweeps.  A candidate
    replaces the best only when its objective is smaller, so an objective
    may return +inf for a candidate it knows cannot win.
    """
    n = targets.shape[1]
    rng = make_rng(seed)
    candidates = [_assignment_rotation(directions, targets), np.eye(n)]
    for _ in range(n_restarts):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        candidates.append(_assignment_rotation(directions, targets @ Q.T) @ Q)
        if raw_restarts:
            candidates.append(Q)
    best_R, best = None, math.inf

    def consider(R):
        nonlocal best_R, best
        val = objective(R)
        if val < best:
            best_R, best = R, val

    for R in candidates:
        consider(R)
    step = step0
    for _ in range(sweeps):
        for i in range(n):
            for j in range(i + 1, n):
                for sign in (+1.0, -1.0):
                    consider(_plane_rotation(n, i, j, sign * step) @ best_R)
        step *= 0.35
    return best_R, best


def align_to_simplex(K: Polytope, target: Polytope, n_restarts: int = 20,
                     seed: int = 0) -> AlignmentResult:
    """A rotation T with small Hausdorff distance of K to T target: the
    search's local minimum, not the minimum over rotations.  When the
    distance is small it can stop well above that minimum, because its
    Givens steps do not shrink with the distance.

    The search seeds orthogonal Procrustes fits from a Hungarian matching
    of the extreme directions plus random restarts, then refines the best
    candidate by monotone coordinate-plane rotations.  Each candidate goes
    to ``geometry._hausdorff`` as arrays, its rotated vertices V_T R^T and
    unit rows (A_T R^T, b_T), so no hull is built, with the best distance so
    far: the kernel skips a candidate whose facet violation already reaches
    it, which cannot win, so the result is that of the search without skips.
    """
    VK, HK = K.vertices, _unit_halfspaces(K)
    VT, (AT, bT) = target.vertices, _unit_halfspaces(target)
    counts, best = [], math.inf

    def dist_for(R):
        nonlocal best
        d, count = _hausdorff(VK, HK, VT @ R.T, (AT @ R.T, bT), best)
        counts.append(count)
        best = min(best, d)
        return d

    best_R, best_d = _align(
        VK / np.linalg.norm(VK, axis=1)[:, None], VT / np.linalg.norm(VT, axis=1)[:, None],
        dist_for, n_restarts, seed, sweeps=2)
    return AlignmentResult(rotation=best_R, delta_H=float(best_d),
                           evaluated=sum(c > 0 for c in counts), pruned=counts.count(0),
                           projections=sum(counts))


def align_points_to_simplex_vertices(points: np.ndarray, n: int, seed: int = 0):
    """Regular-simplex vertex set (as a rotation of the standard one) nearest
    the given unit points in point-set Hausdorff distance that the local
    search (``_align``) finds from 20 random restarts.

    Returns (rotation, distance); the aligned vertices are the rows of
    regular_simplex(n).vertices @ rotation.T.
    """
    P = np.atleast_2d(points)
    W = regular_simplex(n).vertices

    def dist_for(R):
        return point_set_hausdorff(P, W @ R.T)

    best_R, best_d = _align(P / np.linalg.norm(P, axis=1)[:, None], W, dist_for,
                            20, seed, sweeps=4)
    return best_R, float(best_d)


def _worst_angle_alignment(points: np.ndarray, n: int, seed: int = 0):
    """Vertices of the rotated standard simplex, found by the local search, with
    the smallest worst angle of a given unit point to its nearest vertex."""
    U = np.atleast_2d(points)
    W = regular_simplex(n).vertices

    def worst_angle(R):
        cos = np.clip(U @ (W @ R.T).T, -1.0, 1.0)
        return float(np.arccos(cos).min(axis=1).max())

    R, angle = _align(U, W, worst_angle, 10, seed, raw_restarts=False, sweeps=6, step0=0.02)
    return W @ R.T, angle


@dataclass(frozen=True)
class _Side:                  # a theorem's deficit: one functional on K against it on S
    functional: str           # gauge (Barthe's theorem) | support (Schmuckenschläger's)
    body_upper: bool          # K's value is the upper one of the gap

    # names, looked up in this module when called: a wrapper swapped in for
    # a binding (a tracer's) is the one called, and no comparison meets it
    def evaluate(self, body, X: np.ndarray) -> np.ndarray:
        return globals()[f"{self.functional}_many"](body, X)

    def simplex_mean(self, n: int, oracle: float) -> float:
        # n oracle for the gauge of S, the oracle for its support (the gauge of S°)
        return (n if self.functional == "gauge" else 1) * oracle


# both rows against the inscribed simplex S; john is lowner-width of the polar body
_SIDES = {
    "lowner": _Side("gauge", False),
    "lowner-width": _Side("support", True),
}


def _check_unit_ball_normalisation(L: Polytope, side: str) -> None:
    """Raise ``NormalizationError`` unless John's certificate shows the unit
    ball B to be the Loewner ellipsoid of L: K, or on the John side K°.

    By John's theorem and its converse (Ball 1992, Geom. Dedicata 41), B is
    the Loewner ellipsoid of a body L exactly when L lies in B and the
    contact points L ∩ S^{n-1} carry a centred isotropic measure.  The
    points read are L's vertices, on the John side the polar points a_j / b_j
    of K's H-rep, which the error names with K's John ellipsoid.  Each
    condition holds to ``_NORMALISATION_TOL``: no point lies farther outside
    the sphere, at least one point lies that close to it, and the
    renormalised contacts carry weights, fitted as in
    ``john_contact_measure``, whose residuals are no larger (the rule of
    ``JohnDecomposition.ok``).  The error names the condition that failed.
    """
    ellipsoid, what = ("john", "polar point a_j/b_j") if side == "john" else ("lowner", "vertex")
    tol, P = _NORMALISATION_TOL, L.vertices
    norms = np.linalg.norm(P, axis=1)
    failed = f"unit ball is not the {ellipsoid} ellipsoid"
    excess = float(norms.max()) - 1.0
    if excess > tol:
        raise NormalizationError(
            f"{failed}: a {what} lies {excess:.3g} outside the sphere (> {tol:g})")
    contact = norms >= 1.0 - tol
    if not contact.any():
        raise NormalizationError(
            f"{failed}: no contact point, every {what} lies {-excess:.3g} or more "
            f"inside the sphere (> {tol:g})")
    fit = _isotropic_contact_fit(P[contact] / norms[contact, None]).validate()
    if not fit.ok(tol):
        raise NormalizationError(
            f"{failed}: the {int(contact.sum())} contact points carry no centred "
            f"isotropic measure (fit residual {fit.max_residual:.3g} > {tol:g})")


def _deficits(terms, n_samples: int, seed: int, oracle: float | None = None) -> list:
    """One ``FunctionalEstimate`` per (body, side) term on one Gaussian sample:
    the mean of the term's paired gap, upper minus lower value of its side's
    functional on K and on the inscribed simplex S, over S's exact mean,
    which ``oracle`` (the dimension's ``simplex_ell_oracle``, computed here
    when not given) fixes.  S is evaluated once per chunk for each
    functional some term uses; terms do not affect each other."""
    n = terms[0][0].n
    if oracle is None:
        oracle = fn.simplex_ell_oracle(n)
    rows = [(K, _SIDES[side]) for K, side in terms]
    S, used = regular_simplex(n), dict.fromkeys(row for _, row in rows)

    def gaps(X):
        on_S = {row: row.evaluate(S, X) for row in used}
        pairs = ((row.evaluate(K, X), on_S[row]) if row.body_upper
                 else (on_S[row], row.evaluate(K, X)) for K, row in rows)
        return fn._gap_columns(len(rows), len(X), pairs)

    scales = [1.0 / row.simplex_mean(n, oracle) for _, row in rows]
    return fn.sample_mean(gaps, n_samples, n, seed, scales)


def _first_intrinsic_volume(P: np.ndarray, triangulation):
    """(V_1, bound) of conv P at n = 2 or 3 from its Qhull triangulation
    (``Polytope._vertex_hull``): the first intrinsic volume and a bound on its
    floating-point rounding.

    At n = 2, V_1 is half the perimeter, a sum over the hull's edges.  At
    n = 3 it is sum_e |e| psi_e / (2 pi) over the edges e shared by two
    neighbouring triangles, psi_e the angle between their outer unit
    normals, taken as atan2(|u x v|, u . v), which keeps its accuracy near
    0 where arccos(u . v) loses it (Schneider, Convex Bodies, 2nd ed. 2014,
    sec. 4.2).  Triangles of one facet repeat its equation bit for bit,
    so their shared edges add exactly 0.

    The bound counts the operations, in units of the unit roundoff eps: the
    sum of the m nonnegative terms is off by at most (m - 1) eps of itself;
    each term and the scalings ``_exact_deficit`` applies to V_1 add at most
    21 eps relative; and the angles, whose normals Qhull rounds, move by at
    most 32 eps each, which adds 32 eps sum_e |e| / (2 pi).
    """
    simplices, neighbors, equations = triangulation
    if P.shape[1] == 2:
        terms = np.linalg.norm(P[simplices[:, 0]] - P[simplices[:, 1]], axis=1)
        scale, angle_slack = 0.5, 0.0
    else:
        i, j = np.nonzero(np.arange(len(simplices))[:, None] < neighbors)
        k = neighbors[i, j]
        ends = simplices[i, (j + 1) % 3], simplices[i, (j + 2) % 3]
        lengths = np.linalg.norm(P[ends[0]] - P[ends[1]], axis=1)
        u, v = equations[i, :3], equations[k, :3]
        psi = np.arctan2(np.linalg.norm(np.cross(u, v), axis=1), np.einsum("ij,ij->i", u, v))
        terms = lengths * psi
        scale, angle_slack = 0.5 / math.pi, 32.0 * float(lengths.sum())
    total = float(terms.sum())
    bound = fn._UNIT_ROUNDOFF * ((len(terms) + 20) * total + angle_slack)
    return scale * total, scale * bound


def _exact_deficit(K: Polytope, row: _Side, reference: float) -> fn.FunctionalEstimate:
    """Closed-form deficit of a polytope K at n <= 3 on a side whose simplex
    mean is ``reference``.

    K's mean is E h_L(G) = V_1(L) / sqrt(2 pi) (``_MEAN_PER_V1``), L the body
    whose support function is the side's functional: K, or for the gauge
    (g_K = h_K°) its polar, each triangulated by its own cached hull.  The
    deficit is the side's gap over ``reference``, signed as the gap is, and
    its stderr the rounding bound of ``_first_intrinsic_volume`` carried to
    the deficit plus one rounding of the final subtraction; no sample is
    drawn.

    That stderr covers V_1's rounding only (2.55e-15 for the simplex at
    n = 2, 4.75e-15 at n = 3), not the error of ``reference``: the simplex
    oracle comes from ``quad``, whose own estimate is 1.17e-14 (m = 3) and
    1.41e-14 (m = 4), though at m = 3 its value is within 1 ulp of
    3 / (2 sqrt(pi)).
    """
    L = K if row.functional == "support" else polar(K)
    v1, v1_bound = _first_intrinsic_volume(L.vertices, L._vertex_hull()[4])
    ratio = v1 * _MEAN_PER_V1 / reference
    deficit = ratio - 1.0 if row.body_upper else 1.0 - ratio
    bound = ratio * v1_bound / v1 + fn._UNIT_ROUNDOFF * abs(deficit)
    return fn.FunctionalEstimate(deficit, bound, "closed-form", 0)


def _term_deficits(terms, n_samples: int, seed: int) -> list:
    """One ``FunctionalEstimate`` per (body, side) term, the bodies of one
    dimension: closed form (``_exact_deficit``) for a polytope at
    n <= ``fn._EXACT_MAX_DIM``, the other terms on one Gaussian sample in
    ``_deficits``, which draws nothing when every term is closed form.
    Nothing here checks the normalisation: callers check what they need."""
    n = terms[0][0].n
    exact = [isinstance(K, Polytope) and n <= fn._EXACT_MAX_DIM for K, _ in terms]
    oracle = fn.simplex_ell_oracle(n)
    rest = [t for t, e in zip(terms, exact) if not e]
    sampled = iter(_deficits(rest, n_samples, seed, oracle) if rest else ())
    return [_exact_deficit(K, _SIDES[side], _SIDES[side].simplex_mean(n, oracle)) if e
            else next(sampled) for (K, side), e in zip(terms, exact)]


def measure_deficit(K, side: str, n_samples: int = fn.DEFAULT_SAMPLES, seed: int = 0):
    """Relative deficit of K against the extremal simplex value.

    ``lowner`` side (K inside the unit ball): 1 - ell(K)/ell(simplex);
    ``john`` side (K containing the unit ball): ell(K)/ell(polar simplex) - 1,
    the ``lowner-width`` deficit of K's polar;
    ``lowner-width`` (K inside the unit ball): the mean-width deficit
    w(K)/w(simplex) - 1, from the Gaussian means of the support functions.
    The one-body case of ``measure_deficits``.  Returns (deficit, stderr).
    """
    return measure_deficits([K], side, n_samples=n_samples, seed=seed)[0]


def measure_deficits(bodies, side: str, n_samples: int = fn.DEFAULT_SAMPLES,
                     seed: int = 0) -> list:
    """Deficits (as in ``measure_deficit``) of bodies of one dimension, one
    (deficit, stderr) pair per body.

    The side is a row of ``_SIDES``, or ``john``, the ``lowner-width`` row on
    the polar bodies, each built once: g_K = h_K°, ell(S°) = E h_S, and B is
    K's John ellipsoid exactly when it is K°'s Loewner ellipsoid.  That B is
    the Loewner ellipsoid of each polytope measured is checked by John's
    contact certificate (``_check_unit_ball_normalisation``).  The deficit of a
    polytope at n <= 3 is closed form (``_exact_deficit``), whatever
    ``n_samples`` and ``seed``, and its stderr is a bound on its rounding.
    The other bodies (balls, ellipsoids, and polytopes at n >= 4) share one
    Gaussian sample in ``_deficits``, one paired column per body against one
    simplex evaluation per chunk; a call with none of them draws nothing.
    ``extremality_check`` takes the same split (``_term_deficits``).  No
    bodies give no deficits; bodies of several dimensions raise
    ``GeometryError``.
    """
    return [(e.value, e.stderr) for e in _deficit_estimates(bodies, side, n_samples, seed)]


def _deficit_estimates(bodies, side: str, n_samples: int, seed: int) -> list:
    """``measure_deficits`` as one ``FunctionalEstimate`` per body."""
    if side not in ("lowner", "john", "lowner-width"):
        raise ValueError("side must be 'lowner', 'john' or 'lowner-width'")
    bodies = list(bodies)
    if not bodies:
        return []
    dims = sorted({K.n for K in bodies})
    if len(dims) > 1:
        raise GeometryError(f"bodies of one dimension needed, got dimensions {dims}")
    terms = [(polar(K), "lowner-width") if side == "john" else (K, side) for K in bodies]
    for L, _ in terms:
        if isinstance(L, Polytope):
            _check_unit_ball_normalisation(L, side)
    return _term_deficits(terms, n_samples, seed)


def stability_bound_log10(n: int, eps_measured: float, delta: float) -> float:
    """log10 margin of the distance bound delta <= n^(26 n) eps^(1/4)."""
    if eps_measured <= 0 or delta <= 0:
        return math.inf
    lhs = BOUND_EXPONENT * n * math.log10(n) + 0.25 * math.log10(eps_measured)
    return lhs - math.log10(delta)


def fit_exponent(family: ExtremalFamily, n_samples: int = fn.DEFAULT_SAMPLES,
                 seed: int = 0, align_restarts: int = 12) -> ExperimentReport:
    """Empirical stability exponent of a family: slope of log(distance) against
    log(measured deficit).

    Deficits across the grid come from ``measure_deficits``: closed form at
    n <= 3, otherwise measured together on one Gaussian sample (common
    random numbers).  The rotation comes from the alignment search.  Rows
    with a non-positive deficit or a zero distance are discarded, and so
    are rows whose deficit is below three standard errors (the noise floor;
    a closed-form row's stderr is its rounding bound); at least five rows
    spanning 1.5 decades of measured deficit are required.
    Vertex-added families regress the exact symmetric-difference volume
    between the body and the aligned target; corner-cut and
    stretched-vertex families regress the Hausdorff distance and report
    ``delta_vol`` as NaN.
    """
    n = family.n
    # John-side families align K to S°, as delta_H(K, S°) is not delta_H(K°, S)
    target = (regular_simplex_polar if family.side == "john" else regular_simplex)(n)
    use_vol = family.kind in ("vertex-added", "polar-vertex-added")
    rows, deltas = [], []
    estimates = _deficit_estimates(family.bodies, family.side, n_samples, seed)
    for eps, K, est in zip(family.eps_grid, family.bodies, estimates):
        deficit, d_stderr = est.value, est.stderr
        res = align_to_simplex(K, target, n_restarts=align_restarts, seed=seed + 1)
        dvol = (symdiff_volume(K, Polytope(vertices=target.vertices @ res.rotation.T,
                                           check=False))
                if use_vol else float("nan"))
        delta = dvol if use_vol else res.delta_H
        rows.append(ExperimentRow(
            eps_nominal=float(eps), eps_measured=float(deficit),
            eps_stderr=float(d_stderr), delta_H=float(res.delta_H),
            delta_vol=float(dvol),
            bound_margin_log10=stability_bound_log10(n, deficit, delta),
            used_in_fit=bool(deficit > 3.0 * d_stderr and delta > 0),
        ))
        deltas.append(delta)
    usable = [(r.eps_measured, delta) for r, delta in zip(rows, deltas) if r.used_in_fit]
    if len(usable) < 5:
        nonpositive = sum(not (r.eps_measured > 0 and delta > 0)
                          for r, delta in zip(rows, deltas))
        raise InsufficientSignalError(
            f"only {len(usable)} grid points above the noise floor: "
            f"{len(rows) - len(usable) - nonpositive} under 3 standard errors, "
            f"{nonpositive} with a non-positive deficit or zero distance")
    x = np.log10([eps for eps, _ in usable])
    y = np.log10([delta for _, delta in usable])
    if x.max() - x.min() < 1.5:
        raise InsufficientSignalError(
            f"measured deficits span {x.max() - x.min():.2f} decades (< 1.5)")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(len(usable) - 2, 1)
    s2 = float(resid @ resid) / dof
    slope_se = math.sqrt(s2 / float(((x - x.mean()) ** 2).sum()))
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return ExperimentReport(family=family.kind, n=n, rows=rows,
                            slope=float(slope), slope_stderr=slope_se,
                            r_squared=r2,
                            distance_used="delta_vol" if use_vol else "delta_H",
                            # one dimension and all polytopes: one method for every row
                            deficit_method=estimates[0].method)


def sandwich_check(contact_points: np.ndarray, eta: float,
                   seed: int = 0) -> dict:
    """Two-sided containment of the contact polytope between simplex dilates.

    Given unit contact points u_i whose directions each lie within angle
    eta of some vertex w_j of an aligned regular simplex, the polytope
    Z = {x : <u_i, x> <= 1} is squeezed between (1 - n eta) S and
    (1 + 2 n eta) S for the aligned circumscribed simplex
    S = {x : <w_j, x> <= 1}.  Reports the two containment margins, read
    from the rows of Z and S with no hull built; a failed angle hypothesis
    is reported, not raised.
    """
    U = np.atleast_2d(np.asarray(contact_points, dtype=float))
    n = U.shape[1]
    W, worst_angle = _worst_angle_alignment(U, n, seed=seed)
    report = {"worst_angle": worst_angle, "eta": float(eta),
              "hypothesis_ok": worst_angle <= eta + 1e-12}
    try:
        VZ = Polytope(halfspaces=(U, np.ones(U.shape[0]))).vertices    # unbounded Z raises
    except GeometryError as exc:
        report.update({"ok": False, "error": str(exc)})
        return report
    inner_margin = float(np.min(1.0 - ((1.0 - n * eta) * (-n * W)) @ U.T))
    outer_margin = float(np.min((1.0 + 2.0 * n * eta) - VZ @ W.T))
    report.update({
        "inner_margin": inner_margin,
        "outer_margin": outer_margin,
        "ok": report["hypothesis_ok"] and inner_margin >= -1e-9 and outer_margin >= -1e-9,
    })
    return report


def centroid_bound_check(S1: Polytope, eta: float, seed: int = 0) -> dict:
    """Vertex-centroid bound for a circumscribed near-regular simplex.

    S1 must be given by unit facet normals touching the unit ball
    (<u_i, x> <= 1) within angle eta of regular positions; its vertex
    centroid then lies in 4 n eta times the aligned circumscribed simplex.
    Reports the gauge value and margin.
    """
    U, offsets = _unit_halfspaces(S1)
    if np.abs(offsets - 1.0).max() > 1e-9:
        raise GeometryError("facets must touch the unit ball (unit offsets)")
    n = S1.n
    W, worst_angle = _worst_angle_alignment(U, n, seed=seed)
    sigma = S1.vertices.mean(axis=0)
    # gauge of the aligned circumscribed simplex is the support of the aligned base
    gauge_value = float(np.max(W @ sigma))
    bound = 4.0 * n * eta
    return {"worst_angle": worst_angle, "eta": float(eta),
            "hypothesis_ok": worst_angle <= eta + 1e-12,
            "centroid_gauge": gauge_value, "bound": bound,
            "margin": bound - gauge_value,
            "ok": worst_angle <= eta + 1e-12 and gauge_value <= bound + 1e-12}


def extremality_check(mu_points: np.ndarray, n_samples: int = fn.DEFAULT_SAMPLES,
                      seed: int = 0) -> dict:
    """Both extremality deficits of the hull C of an isotropic support.

    The gauge mean of C falls below that of the inscribed simplex S and the
    mean of its support function exceeds that of S, both with equality
    exactly for a regular simplex: C's ``lowner`` and ``lowner-width``
    deficits, split as in ``measure_deficits`` (``_term_deficits``); its
    ``john_deficit`` is the width deficit of C, the John deficit of C°.  At
    n <= 3 they are closed form, their stderr a bound on the rounding, and
    no sample is drawn; ``n_samples`` and the sample's ``seed`` act only at
    n >= 4, where both deficits share one sample.  ``seed`` also seeds the
    restarts of the alignment.  Returns the deficits with their stderrs, how
    they were measured (``deficit_method``: closed-form | mc-direct) and the
    support's distance to the aligned simplex.  Points that are not unit
    vectors raise ``MeasureError`` before any hull or draw.
    """
    P = np.atleast_2d(mu_points)
    _check_unit_points(P)
    n = P.shape[1]
    C = Polytope(vertices=P, check=False)
    lowner, john = _term_deficits([(C, "lowner"), (C, "lowner-width")], n_samples, seed)
    _, dist = align_points_to_simplex_vertices(P, n, seed=seed)
    return {
        "lowner_deficit": lowner.value, "lowner_stderr": lowner.stderr,
        "john_deficit": john.value, "john_stderr": john.stderr,
        "deficit_method": lowner.method, "support_distance": dist,
    }
