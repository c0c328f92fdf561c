"""Convex bodies at desk scale: polytopes, balls, ellipsoids and their metrics.

Bodies are immutable after construction.  Polytopes carry a vertex
representation (V-rep), a halfspace representation (H-rep ``A x <= b``),
or both; missing representations are derived on demand and cached, with at
most one Qhull hull per polytope (vertices from an H-rep: the polar's hull).
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog, nnls
from scipy.spatial import ConvexHull, QhullError

__all__ = [
    "GeometryError", "RepresentationError", "DegenerateBodyError",
    "UnboundedSupportError", "GaugeUndefinedError",
    "Polytope", "Ball", "Ellipsoid",
    "regular_simplex", "regular_simplex_polar", "cube", "cross_polytope",
    "simplex_volume", "polar_simplex_volume",
    "support_function", "support_many", "gauge_norm", "gauge_many", "polar",
    "hausdorff_distance", "point_set_hausdorff", "symdiff_volume",
    "contains", "contains_points", "polytope_volume",
    "point_polytope_distance", "vertex_enumeration",
    "unit_ball_volume",
]

class GeometryError(ValueError):
    """Base class for geometric failures."""


class RepresentationError(GeometryError):
    """A required polytope representation is missing and cannot be derived."""


class DegenerateBodyError(GeometryError):
    """The body is lower-dimensional."""


class UnboundedSupportError(GeometryError):
    """The support function is +infinity in some direction."""


class GaugeUndefinedError(GeometryError):
    """The gauge requires the origin in the interior of the body."""


class _UnboundedBodyError(RepresentationError, UnboundedSupportError):
    """A halfspace intersection is unbounded: it has no vertex set, and its
    support function is infinite in some direction."""


def unit_ball_volume(n: int) -> float:
    """Volume of the Euclidean unit ball in dimension n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.flags.writeable = False
    return a


def _convex_hull(P: np.ndarray):
    """(A, b, extreme, volume, triangulation) of conv(P): facets A x <= b,
    one row each, sorted indices of the extreme points, the volume, and
    Qhull's triangulated boundary as built, with no arithmetic added: the
    (simplices, neighbors, equations) arrays, neighbour j of a simplex lying
    opposite its vertex j.  The simplices of one facet repeat its equation
    bit for bit, which is what merges them into one row of A.  A flat P
    raises DegenerateBodyError."""
    try:
        hull = ConvexHull(P)
    except QhullError:
        raise DegenerateBodyError("point set spans no full-dimensional hull") from None
    E = hull.equations                      # first copies by bytes, each row one void record
    rows = E[np.sort(np.unique(E.view(f"V{E.itemsize * E.shape[1]}"), return_index=True)[1])]
    return (_readonly(rows[:, :-1]), _readonly(-rows[:, -1]), np.sort(hull.vertices),
            float(hull.volume), (hull.simplices, hull.neighbors, E))


class Polytope:
    """Convex polytope with vertex and/or halfspace representation.

    Parameters
    ----------
    vertices : (k, n) array, optional
        Generating points; interior points are harmless.
    halfspaces : (A, b) with A (m, n) and b (m,), optional
        The set {x : A x <= b}.

    At least one representation must be given.  A vertex representation is
    rejected if its affine hull is lower-dimensional.
    """

    def __init__(self, vertices=None, halfspaces=None, *, check: bool = True):
        if vertices is None and halfspaces is None:
            raise RepresentationError("polytope needs vertices or halfspaces")
        self._vertices = None
        self._A = None
        self._b = None
        self._hull = None
        if vertices is not None:
            V = _readonly(np.atleast_2d(vertices))
            if not np.all(np.isfinite(V)):
                raise GeometryError("non-finite vertex coordinates")
            self._vertices = V
            self._n = V.shape[1]
            if check:
                self._check_full_dimensional(V)
        if halfspaces is not None:
            A, b = halfspaces
            A = _readonly(np.atleast_2d(A))
            b = _readonly(np.atleast_1d(b))
            if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
                raise GeometryError("non-finite halfspace data")
            if A.shape[0] != b.shape[0]:
                raise GeometryError("halfspace normal/offset count mismatch")
            if vertices is not None and A.shape[1] != self._n:
                raise GeometryError("representation dimension mismatch")
            self._A, self._b = A, b
            self._n = A.shape[1]

    @staticmethod
    def _check_full_dimensional(V: np.ndarray) -> None:
        k, n = V.shape
        if k < n + 1:
            raise DegenerateBodyError(f"{k} points cannot span dimension {n}")
        rank = np.linalg.matrix_rank(V - V.mean(axis=0), tol=1e-10 * max(1.0, np.abs(V).max()))
        if rank < n:
            raise DegenerateBodyError("vertex set is lower-dimensional")

    @property
    def n(self) -> int:
        return self._n

    @property
    def has_halfspaces(self) -> bool:
        return self._A is not None

    @property
    def vertices(self) -> np.ndarray:
        """V-rep, derived by vertex enumeration when absent."""
        if self._vertices is None:
            V = vertex_enumeration(self._A, self._b)
            if V.shape[0] < self._n + 1:
                raise DegenerateBodyError("halfspace intersection is lower-dimensional or empty")
            self._vertices = _readonly(V)
        return self._vertices

    @property
    def halfspaces(self):
        """H-rep (A, b), when absent the facets of the V-rep's hull, one row per facet."""
        if self._A is None:
            self._A, self._b = self._vertex_hull()[:2]
        return self._A, self._b

    def _vertex_hull(self):
        """``_convex_hull`` of the V-rep, built once and cached."""
        if self._hull is None:
            self._hull = _convex_hull(self.vertices)
        return self._hull

    def to_json(self) -> dict:
        out = {"n": int(self._n), "vertices": None, "halfspaces": None}
        if self._vertices is not None:
            out["vertices"] = self._vertices.tolist()
        if self._A is not None:
            out["halfspaces"] = [{"a": a.tolist(), "b": float(bb)}
                                 for a, bb in zip(self._A, self._b)]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Polytope":
        vertices = data.get("vertices")
        hs = data.get("halfspaces")
        halfspaces = None
        if hs:
            A = np.array([row["a"] for row in hs], dtype=float)
            b = np.array([row["b"] for row in hs], dtype=float)
            halfspaces = (A, b)
        return cls(vertices=vertices, halfspaces=halfspaces)

    def __repr__(self):
        reps = []
        if self._vertices is not None:
            reps.append(f"{self._vertices.shape[0]} vertices")
        if self._A is not None:
            reps.append(f"{self._A.shape[0]} halfspaces")
        return f"Polytope(n={self._n}, {', '.join(reps)})"


class Ball:
    """Euclidean ball of given radius centred at the origin."""

    def __init__(self, radius: float = 1.0, n: int = 2):
        if radius < 0:
            raise GeometryError("negative radius")
        self.radius = float(radius)
        self.n = int(n)

    def support_many(self, U: np.ndarray) -> np.ndarray:
        return self.radius * np.linalg.norm(np.atleast_2d(U), axis=1)

    def gauge_many(self, X: np.ndarray) -> np.ndarray:
        if self.radius == 0.0:
            raise GaugeUndefinedError("gauge of the degenerate ball {0}")
        return np.linalg.norm(np.atleast_2d(X), axis=1) / self.radius

    def volume(self) -> float:
        return unit_ball_volume(self.n) * self.radius ** self.n

    def __repr__(self):
        return f"Ball(radius={self.radius}, n={self.n})"


class Ellipsoid:
    """Ellipsoid {x : (x - c)^T A (x - c) <= 1} with A symmetric positive definite."""

    def __init__(self, center, shape):
        c = _readonly(np.atleast_1d(center))
        A = _readonly(np.atleast_2d(shape))
        if A.shape != (c.size, c.size):
            raise GeometryError("shape matrix dimension mismatch")
        if np.abs(A - A.T).max() > 1e-12 * max(1.0, np.abs(A).max()):
            raise GeometryError("shape matrix is not symmetric")
        eigvals = np.linalg.eigvalsh(0.5 * (A + A.T))
        if eigvals.min() <= 0:
            raise GeometryError("shape matrix is not positive definite")
        self.center = c
        self.shape = A
        self.n = c.size

    def volume(self) -> float:
        sign, logdet = np.linalg.slogdet(self.shape)
        return unit_ball_volume(self.n) * math.exp(-0.5 * logdet)

    def quadratic_form(self, X: np.ndarray) -> np.ndarray:
        """(x - c)^T A (x - c) for each row x of X."""
        D = np.atleast_2d(X) - self.center
        return np.einsum("ij,jk,ik->i", D, self.shape, D)

    def contains_points(self, X: np.ndarray, tol: float = 0.0) -> np.ndarray:
        return self.quadratic_form(X) <= 1.0 + tol

    def support_many(self, U: np.ndarray) -> np.ndarray:
        U = np.atleast_2d(U)
        Ainv = np.linalg.inv(self.shape)
        return U @ self.center + np.sqrt(np.einsum("ij,jk,ik->i", U, Ainv, U))

    def gauge_many(self, X: np.ndarray) -> np.ndarray:
        if self.center @ self.shape @ self.center >= 1.0:
            raise GaugeUndefinedError("origin not interior to ellipsoid")
        if np.linalg.norm(self.center) > 1e-12:
            raise GeometryError("gauge only implemented for centred ellipsoids")
        X = np.atleast_2d(X)
        return np.sqrt(np.einsum("ij,jk,ik->i", X, self.shape, X))

    def to_json(self) -> dict:
        return {"n": int(self.n), "center": self.center.tolist(),
                "shape": self.shape.tolist()}

    def __repr__(self):
        return f"Ellipsoid(n={self.n})"


# ---------------------------------------------------------------------------
# canonical bodies


def regular_simplex(n: int) -> Polytope:
    """Regular simplex inscribed in the unit ball, centroid at the origin.

    The n+1 unit vertices v_i satisfy <v_i, v_j> = -1/n for i != j and
    sum to zero; the first vertex is placed on the last coordinate axis.
    Both representations are attached (facet opposite v_i: <-v_i, x> <= 1/n).
    """
    if n < 2:
        raise GeometryError("dimension must be at least 2")
    m = n + 1
    E = np.eye(m)
    ones = np.full(m, 1.0 / m)
    P = math.sqrt(m / n) * (E - ones)          # rows live in the hyperplane sum=0
    # orthonormal basis of that hyperplane via a Householder reflection sending
    # the all-ones direction to the last coordinate axis
    w = np.full(m, 1.0 / math.sqrt(m))
    w[-1] -= 1.0
    w /= np.linalg.norm(w)
    H = np.eye(m) - 2.0 * np.outer(w, w)
    V = (P @ H.T)[:, :n]
    # rotate so the first vertex sits on the last axis (fixes orientation)
    u = V[0] / np.linalg.norm(V[0])
    e = np.zeros(n)
    e[-1] = 1.0
    d = u - e
    if np.linalg.norm(d) > 1e-14:
        d /= np.linalg.norm(d)
        V = V - 2.0 * np.outer(V @ d, d)
    V /= np.linalg.norm(V, axis=1)[:, None]
    return Polytope(vertices=V, halfspaces=(-V, np.full(m, 1.0 / n)))


def regular_simplex_polar(n: int) -> Polytope:
    """Polar of the inscribed regular simplex: the circumscribed simplex -n * simplex."""
    s = regular_simplex(n)
    V = s.vertices
    return Polytope(vertices=-n * V, halfspaces=(V, np.ones(n + 1)))


def cube(n: int, half_width: float = 1.0) -> Polytope:
    """The cube [-h, h]^n with both representations attached."""
    corners = np.array(list(itertools.product(*[(-half_width, half_width)] * n)))
    A = np.vstack([np.eye(n), -np.eye(n)])
    b = np.full(2 * n, half_width)
    return Polytope(vertices=corners, halfspaces=(A, b))


def cross_polytope(n: int, radius: float = 1.0) -> Polytope:
    """conv{+-radius * e_i}."""
    V = radius * np.vstack([np.eye(n), -np.eye(n)])
    return Polytope(vertices=V)


def simplex_volume(n: int) -> float:
    """Volume of the inscribed regular simplex: (1 + 1/n)^(n/2) * sqrt(n+1) / n!."""
    if n < 2:
        raise GeometryError("dimension must be at least 2")
    return (1.0 + 1.0 / n) ** (n / 2.0) * math.sqrt(n + 1.0) / math.factorial(n)


def polar_simplex_volume(n: int) -> float:
    """Volume of the circumscribed regular simplex, n^n times the inscribed one."""
    return float(n) ** n * simplex_volume(n)


# ---------------------------------------------------------------------------
# support / gauge / polarity


def support_function(K, u) -> float:
    """h_K(u) = max over K of <u, x>, the one-row case of ``support_many``."""
    return float(support_many(K, np.asarray(u, dtype=float)[None, :])[0])


# rows of one tile of facet-by-sample products, a multiple of the BLAS's
# row unroll; the last tile also takes the rows past the last full tile
TILE_ROWS = 1 << 13
# elements of one tile: a tile of TILE_ROWS rows holds up to 32 facets, and
# more facets are split into blocks
TILE_ELEMENTS = 1 << 18


def _tiles(X: np.ndarray, M: np.ndarray):
    """The products M @ X.T, one (facets, rows) tile at a time.

    Yields (row slice, facet slice, tile).  The rows go in tiles of
    TILE_ROWS, the last taking the remainder too, so no tile is shorter
    than TILE_ROWS unless it is all of X: the BLAS computes a product a few
    rows long in other kernels (one row in gemv), whose rounding differs
    from that of the same rows inside a long product.  Within a tile the
    facets are split into the fewest blocks of at most TILE_ELEMENTS
    elements (one facet at least), with sizes differing by at most one.
    Every tile is written into one buffer, so a tile is valid only until
    the next is yielded.  The facet-major layout puts each facet's values
    for all rows of a tile in one contiguous row, so reducing over the
    short facet axis is an elementwise pass over long rows; numpy's reduce
    along rows of only m = 3..12 values costs several times more.
    """
    rows, m = X.shape[0], M.shape[0]
    row_edges = [k * TILE_ROWS for k in range(max(1, rows // TILE_ROWS))] + [rows]
    buf = np.empty(0)
    for r0, r1 in zip(row_edges, row_edges[1:]):
        XT, span = X[r0:r1].T, r1 - r0
        blocks = -(-m // max(1, TILE_ELEMENTS // max(1, span)))
        facet_edges = [j * m // blocks for j in range(blocks + 1)]
        need = -(-m // blocks) * span
        if buf.size < need:
            buf = np.empty(need)
        for lo, hi in zip(facet_edges, facet_edges[1:]):
            tile = buf[:(hi - lo) * span].reshape(hi - lo, span)
            yield slice(r0, r1), slice(lo, hi), np.matmul(M[lo:hi], XT, out=tile)


def _max_rows(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """max over the rows a_j of M of <a_j, x>, for each row x of X."""
    out = np.empty(X.shape[0])
    for r, f, tile in _tiles(X, M):
        if f.start == 0:
            np.max(tile, axis=0, out=out[r])
        else:
            np.maximum(out[r], np.max(tile, axis=0), out=out[r])
    return out


def _all_rows(X: np.ndarray, M: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Whether <a_j, x> <= c_j for every row a_j of M, for each row x of X."""
    out = np.ones(X.shape[0], dtype=bool)
    for r, f, tile in _tiles(X, M):
        out[r] &= np.all(tile <= c[f, None], axis=0)
    return out


def support_many(K, U: np.ndarray) -> np.ndarray:
    """Vectorised support function over the rows of U.

    Polytopes take the vertex maximum over the tiles of ``_tiles``:
    (vertices, rows) products of at most TILE_ELEMENTS elements, each
    reduced over its short vertex axis straight into its slice of the
    output, so the temporary is one tile of at most 2 MiB whatever the
    sample count.  An H-rep-only polytope derives its vertices once (cached
    on the body); an unbounded one raises UnboundedSupportError.
    """
    U = np.atleast_2d(U)
    if isinstance(K, (Ball, Ellipsoid)):
        return K.support_many(U)
    return _max_rows(U, K.vertices)


def _halfspaces_for_gauge(K: Polytope):
    A, b = K.halfspaces
    if np.any(b <= 0):
        raise GaugeUndefinedError("origin is not interior to the body")
    return A, b


def gauge_norm(K, x) -> float:
    """Minkowski gauge min{t >= 0 : x in t K}; requires the origin interior."""
    return float(gauge_many(K, np.asarray(x, dtype=float)[None, :])[0])


def gauge_many(K, X: np.ndarray) -> np.ndarray:
    """Vectorised gauge; equals the support function of the polar body.

    Polytopes take max_j <a_j / b_j, x> over the tiles of ``_tiles``:
    (facets, rows) products of at most TILE_ELEMENTS elements, each reduced
    over its short facet axis straight into its slice of the output, which
    is then clamped at 0 in place; the temporary is one tile of at most
    2 MiB whatever the sample count.
    """
    X = np.atleast_2d(X)
    if isinstance(K, (Ball, Ellipsoid)):
        return K.gauge_many(X)
    A, b = _halfspaces_for_gauge(K)
    out = _max_rows(X, A / b[:, None])
    return np.maximum(out, 0.0, out=out)


def polar(K):
    """Polar body {y : <x, y> <= 1 for all x in K}; origin must be interior.

    Polytopes build no hull: the rows a/b of K's H-rep are the polar's
    vertices (a redundant row of a given H-rep is a harmless non-extreme
    generator) and K's vertices, only the extreme ones when the H-rep came
    from K's hull, its halfspaces; the bipolar returns K up to representation.
    Balls invert their radius.  The polar of E = {x : (x-c)^T A (x-c) <= 1} is
    again an ellipsoid: completing the square in <y, c> + |A^{-1/2} y| <= 1
    gives its center and shape matrix, the inverse of A when c = 0.
    """
    if isinstance(K, Ball):
        if K.radius <= 0:
            raise GaugeUndefinedError("origin is not interior to the body")
        return Ball(1.0 / K.radius, K.n)
    if isinstance(K, Ellipsoid):
        c = K.center
        if float(c @ K.shape @ c) >= 1.0:
            raise GaugeUndefinedError("origin is not interior to the body")
        M = np.linalg.inv(K.shape) - np.outer(c, c)
        Minv = np.linalg.inv(M)
        return Ellipsoid(-Minv @ c, M / (1.0 + float(c @ Minv @ c)))
    A, b = _halfspaces_for_gauge(K)
    V = K._vertices
    if K._hull is not None and A is K._hull[0]:     # K's H-rep came from its hull
        V = V[K._hull[2]]
    return Polytope(vertices=A / b[:, None], check=False,
                    halfspaces=None if V is None else (V, np.ones(V.shape[0])))


# vertex_enumeration's tolerance, in units of the offset scale max(1, |b|)
_VERTEX_TOL = 1e-9


def vertex_enumeration(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vertices of the bounded body {x : A x <= b}, by polarity and Qhull.

    The body is dualised about a centre c well inside it: about c it is
    {y : <d_i, y> <= 1} with dual points d_i = a_i / (b_i - <a_i, c>), the
    polar of conv{d_i}.  Each facet {z : <e, z> <= off} of that hull is the
    vertex c + e / off, and the body is bounded exactly when every offset is
    positive.  The vertices are in stable lexicographic order of their
    coordinates rounded to 1e-9 of the offset scale, not in Qhull's facet
    order, because ``stability.align_to_simplex`` depends on the order.  The
    centre is the origin when every facet lies farther than ``_VERTEX_TOL``
    times the offset scale from it (min b_i / |a_i|), which needs no LP;
    otherwise one LP finds the Chebyshev centre.  Raises RepresentationError
    when the body is unbounded (an error that is also an
    UnboundedSupportError), empty or flat (inradius at most ``_VERTEX_TOL``
    times the offset scale).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n = A.shape[1]
    scale = max(1.0, float(np.abs(b).max()))
    norms = np.linalg.norm(A, axis=1)
    # every b_i > 0 and b_i / |a_i| > _VERTEX_TOL * scale, without dividing by a zero row
    if np.all(b > _VERTEX_TOL * scale * norms):
        center, dual = np.zeros(n), A / b[:, None]
    else:
        res = linprog(np.r_[np.zeros(n), -1.0], A_ub=np.hstack([A, norms[:, None]]), b_ub=b,
                      bounds=[(None, None)] * n + [(0.0, None)], method="highs")
        if res.status == 3:
            raise _UnboundedBodyError("halfspace intersection is unbounded")
        if not res.success:
            raise RepresentationError("halfspace intersection is empty")
        center, radius = res.x[:n], res.x[n]
        if radius <= _VERTEX_TOL * scale:
            raise RepresentationError("halfspace intersection is flat")
        dual = A / (b - A @ center)[:, None]
    try:
        E, off = _convex_hull(dual)[:2]
    except DegenerateBodyError:     # flat dual points: the body holds a line
        raise _UnboundedBodyError("halfspace intersection is unbounded") from None
    if not np.all(off > 0.0):
        raise _UnboundedBodyError("halfspace intersection is unbounded")
    V = center + E / off[:, None]
    return V[np.lexsort(np.round(V / scale, 9).T[::-1])]


# ---------------------------------------------------------------------------
# distances and volumes


def point_polytope_distance(x: np.ndarray, V: np.ndarray):
    """Euclidean distance from x to conv(V) by one exact NNLS solve.

    Minimises |E u - f| over u >= 0 (Lawson-Hanson active set, finite) with
    E = [(V - x)^T; 1^T] and f = (0, ..., 0, 1).  For u = t lam with lam in
    the unit simplex the optimum over t is a/(1+a), a = |(V - x)^T lam|^2,
    so lam = u / sum(u) weights the nearest point p = lam V.  An empty V, a
    point of another dimension and a failed solve raise GeometryError (the
    empty case before the solve, which aborts the interpreter on a matrix
    with no columns).  Returns (distance, projection).
    """
    x = np.asarray(x, dtype=float)
    V = np.atleast_2d(np.asarray(V, dtype=float))
    k, n = V.shape
    if k == 0:
        raise GeometryError("point-to-hull projection needs at least one hull point")
    if x.shape != (n,):
        raise GeometryError(f"point of shape {x.shape} against hull points in dimension {n}")
    E = np.ones((n + 1, k))
    np.subtract(V.T, x[:, None], out=E[:n])
    f = np.zeros(n + 1)
    f[n] = 1.0
    try:
        u, _ = nnls(E, f)
    except (RuntimeError, ValueError) as exc:
        raise GeometryError(f"point-to-hull projection failed: {exc}") from exc
    total = u.sum()
    if not total > 0.0:
        raise GeometryError("point-to-hull projection failed: zero NNLS solution")
    p = (u / total) @ V
    return float(np.linalg.norm(p - x)), p


# absolute slack of the bounds of ``_hausdorff`` (the projection order, the
# foot test and the facet-violation stop), in units of the bodies' coordinate
# scale: a point inside the hull read up to 12 ulps of the scale over 44,682
# projections of random pairs at n = 2..4, so this leaves a margin of 10^4
# over that, and costs projections or stops only at distances below it
_HAUSDORFF_SLACK = 2.0 ** -32
# relative margin of those bounds, for the rounding of larger distances
_HAUSDORFF_MARGIN = 1e-9


def _unit_halfspaces(P: Polytope):
    """P's H-rep (A, b) with each row scaled to a unit normal."""
    A, b = P.halfspaces
    norms = np.linalg.norm(A, axis=1)
    return A / norms[:, None], b / norms


def _distance_upper_bounds(X: np.ndarray, S, H, W: np.ndarray) -> np.ndarray:
    """Upper bounds on dist(x, P) for each row x of X, where P = conv(W) has
    the H-rep H = (A, b) with unit rows a_j and S = X A^T - b holds the
    rows' violations (S None: no bound, +inf).

    lb = max_j S_j is a lower bound on the distance.  The bound is 0 when
    lb <= 0 (x is in P), lb itself when the foot x - lb a_j on the most
    violated facet satisfies every row (the foot is then the nearest point
    of P), and otherwise the distance from x to P's nearest vertex.
    """
    if S is None:
        return np.full(X.shape[0], math.inf)
    A, b = H
    j, lb = S.argmax(axis=1), S.max(axis=1)
    bound = np.maximum(lb, 0.0)
    off = lb > 0.0
    if off.any():
        off &= ~((X - lb[:, None] * A[j]) @ A.T <= b).all(axis=1)
        if off.any():
            D = X[off, None, :] - W
            bound[off] = np.sqrt((D * D).sum(axis=2).min(axis=1))
    return bound


def _hausdorff(VK: np.ndarray, HK, VC: np.ndarray, HC, best: float = math.inf):
    """(Hausdorff distance of conv(VK) and conv(VC), projections run), given
    H-reps HK, HC with unit rows (or None); (inf, 0) if it cannot fall below ``best``.

    A vertex that violates a unit row of the other body by v lies at least v
    from it.  Both sides' violations S = X A^T - b are computed once; when
    max S reaches ``best`` widened by ``_HAUSDORFF_MARGIN`` relative and
    ``_HAUSDORFF_SLACK`` times the coordinate scale absolute, nothing is
    projected.  Otherwise vertices are projected in decreasing order of
    ``_distance_upper_bounds``, read from S, until one's bound, widened by
    the same margins, falls below the largest distance so far: no later
    vertex can reach it, so the result is the all-vertex maximum of
    ``point_polytope_distance`` bit for bit, whatever ``best`` is.
    """
    points = np.vstack([VK, VC])
    slack = _HAUSDORFF_SLACK * float(np.abs(points).max())
    sides = [(VK, HC, VC), (VC, HK, VK)]    # vertices, the other body's rows and vertices
    S = [None if H is None else X @ H[0].T - H[1] for X, H, _ in sides]
    violation = max((float(s.max()) for s in S if s is not None), default=-math.inf)
    if violation >= best * (1.0 + _HAUSDORFF_MARGIN) + slack:
        return math.inf, 0
    hulls = [VC] * VK.shape[0] + [VK] * VC.shape[0]
    bound = np.concatenate([_distance_upper_bounds(X, s, H, W) for (X, H, W), s in zip(sides, S)])
    reach = bound * (1.0 + _HAUSDORFF_MARGIN) + slack
    dist, projections = -math.inf, 0
    for i in np.argsort(-bound, kind="stable"):
        if reach[i] < dist:
            break
        dist = max(dist, point_polytope_distance(points[i], hulls[i])[0])
        projections += 1
    return dist, projections


def hausdorff_distance(K, C) -> float:
    """Hausdorff distance between two bounded polytopes of one dimension.

    The largest exact point-to-hull distance of a vertex of either body to
    the other (``point_polytope_distance``), found bound-first by
    ``_hausdorff``: the H-rep of each body (its cached hull when only
    vertices were given) bounds each vertex's distance from above, and only
    the vertices whose bound can reach the maximum are projected.  A flat
    body has no H-rep, and every vertex is projected against it.  Bodies of
    different dimensions raise GeometryError.
    """
    if K.n != C.n:
        raise GeometryError(f"Hausdorff distance between dimensions {K.n} and {C.n}")

    def rows(P):
        try:
            return _unit_halfspaces(P)
        except DegenerateBodyError:
            return None

    return _hausdorff(K.vertices, rows(K), C.vertices, rows(C))[0]


def point_set_hausdorff(X: np.ndarray, Y: np.ndarray) -> float:
    """Hausdorff distance between two finite point sets."""
    X, Y = np.atleast_2d(X), np.atleast_2d(Y)
    D = np.linalg.norm(X[:, None, :] - Y[None, :, :], axis=2)
    return max(D.min(axis=1).max(), D.min(axis=0).max())


def contains_points(K, X: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Boolean membership of the rows of X in the body K.

    Polytopes test every halfspace over the tiles of ``_tiles``: (facets,
    rows) comparisons of at most TILE_ELEMENTS elements, each reduced over
    its short facet axis into its slice of the output, so the temporary is
    one tile of at most 2 MiB whatever the sample count.
    """
    X = np.atleast_2d(X)
    if isinstance(K, (Ball, Ellipsoid)):
        if isinstance(K, Ball):
            return np.linalg.norm(X, axis=1) <= K.radius + tol
        return K.contains_points(X, tol)
    A, b = K.halfspaces
    scale = np.maximum(1.0, np.abs(b))
    return _all_rows(X, A, b + tol * scale)


def contains(K, C, tol: float = 1e-9) -> bool:
    """True iff C subset of K: every vertex of C satisfies every halfspace of K."""
    return bool(np.all(contains_points(K, C.vertices, tol)))


def polytope_volume(K) -> float:
    """Exact volume of a bounded polytope, from the cached hull of its V-rep."""
    return K._vertex_hull()[3]


def intersection(K: Polytope, C: Polytope) -> Polytope:
    """Intersection of two H-rep bodies (V-rep derived on demand)."""
    AK, bK = K.halfspaces
    AC, bC = C.halfspaces
    return Polytope(halfspaces=(np.vstack([AK, AC]), np.concatenate([bK, bC])))


def symdiff_volume(K: Polytope, C: Polytope) -> float:
    """Exact volume of the symmetric difference of two bounded polytopes.

    vol K + vol C - 2 vol(K cap C), each volume by Qhull.  The inputs are
    bounded, so the intersection can only fail to be a body by being empty
    or flat, and then the two share no volume.
    """
    try:
        common = polytope_volume(intersection(K, C))
    except RepresentationError:
        common = 0.0
    return polytope_volume(K) + polytope_volume(C) - 2.0 * common
