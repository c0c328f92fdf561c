"""Gaussian functionals of convex bodies: measure of dilates, the Gaussian
mean of the gauge, and the mean width.

This module is also the package's one Monte-Carlo layer.  Every sampling
path draws fixed-size chunks of standard normal samples, chunk i from the
SFC64 stream ``chunk_rng(seed, i)`` of :mod:`simplexstab.rng`, in one chunk
loop, so workers can share the chunks out without changing any value.
``sample_mean`` reduces each chunk's per-sample values to per-column
moments (rows, mean, sum of squared deviations) as it is drawn and merges
them in chunk order by the pairwise update of Chan, Golub and LeVeque
(1979), so its memory is one chunk per worker whatever the sample count.
``estimate`` is the same merge over ``CHUNK_SAMPLES`` slices of values
already in hand, so the two give the same bits on the same values.  Every
Monte-Carlo estimate of the package is a mean with its standard error from
``sample_mean``; closed-form values draw no sample, and their ``stderr`` is
a stated bound on their rounding (0 where the value is exact), or for a
quadrature (``_cone_integral``, over the cones of a polytope's facets) on
its whole error.  The exact values for the ball and the regular simplex
serve as independent oracles for the sampling paths.
"""
from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .geometry import Ball, gauge_many, polar, support_many
from .rng import chunk_rng

__all__ = [
    "FunctionalEstimate", "ell_ball", "gaussian_max_mean", "simplex_ell_oracle",
    "gaussian_mass", "ell_norm", "mean_width", "mean_ell_crosscheck",
    "default_workers", "sample_mean", "estimate",
]

DEFAULT_SAMPLES = 200_000
# samples per chunk (one SFC64 stream each) of the Gaussian sampler
CHUNK_SAMPLES = 1 << 16
# largest dimension at which polytope functionals are closed form or by
# quadrature and draw no sample: the deficits of ``stability`` and the
# dilate-measure identity of ``brascamp_lieb``
_EXACT_MAX_DIM = 3
# unit roundoff of float64, the unit of the closed forms' rounding bounds
_UNIT_ROUNDOFF = 2.0 ** -53


def default_workers() -> int:
    """Worker count from SIMPLEXSTAB_WORKERS, else the available parallelism.

    A set value must be an integer of at least 1, as ``--workers`` must.
    The available parallelism is the process's CPU affinity set where the
    platform has one, else the CPU count.
    """
    env = os.environ.get("SIMPLEXSTAB_WORKERS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(f"SIMPLEXSTAB_WORKERS must be an integer >= 1, got {env!r}")
        return workers
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class FunctionalEstimate:
    """A functional value with its error and provenance: a Monte-Carlo
    standard error, or for a closed form a bound on its rounding."""
    value: float
    stderr: float
    method: str        # "mc-direct" | "closed-form"
    samples: int

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("negative standard error")
        if self.method == "closed-form" and self.samples != 0:
            raise ValueError("closed-form estimates draw no samples")


def ell_ball(n: int) -> float:
    """Gaussian mean of the Euclidean norm: sqrt(2) Gamma((n+1)/2) / Gamma(n/2)."""
    return math.sqrt(2.0) * math.exp(math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0))


def gaussian_max_mean(m: int) -> float:
    """Expected maximum of m iid standard Gaussians by quadrature."""
    # imported here: scipy.integrate adds about 3 MiB and 30 ms to every
    # process that imports the library, and nothing else uses it
    from scipy.integrate import quad

    if m < 1:
        raise ValueError("need at least one variable")
    val, err = quad(lambda z: m * z * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
                    * ndtr(z) ** (m - 1), -10.0, 10.0,
                    limit=400, epsabs=1e-13, epsrel=1e-13)
    if err > 1e-9:
        raise RuntimeError(f"quadrature error {err:g} too large")
    return val


def simplex_ell_oracle(n: int) -> float:
    """Exact Gaussian gauge mean of the circumscribed regular simplex.

    The gauge of the circumscribed simplex at x is max_i <v_i, x> over the
    inscribed-simplex vertices; these are equicorrelated standard normals
    representable as sqrt((n+1)/n) (Z_i - Zbar) for iid Z_i, and since the
    max commutes with subtracting the mean, the expectation reduces to
    sqrt((n+1)/n) E max(Z_1..Z_{n+1}).  The inscribed simplex value is n
    times this one.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    return math.sqrt((n + 1.0) / n) * gaussian_max_mean(n + 1)


@functools.lru_cache(maxsize=None)
def _collapsed_simplex_rule(k: int, degree: int):
    """Collapsed (Duffy) Gauss-Legendre product rule on a k-simplex:
    barycentric nodes (degree^k rows of k + 1) and positive weights that sum
    to 1, so a simplex's integral is its volume times the weighted sum.

    The cube [0, 1]^k maps onto the simplex by lambda_i = u_1 ... u_i
    (1 - u_{i+1}), lambda_k = u_1 ... u_k, with Jacobian k! volume times
    prod_i u_i^(k - i), which joins the weights; Gauss-Legendre in each u_i
    then integrates polynomials of degree 2 degree - k exactly.  The arrays
    are cached and read-only."""
    x, w = np.polynomial.legendre.leggauss(degree)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    U = np.stack(np.meshgrid(*[x] * k, indexing="ij"), axis=-1).reshape(-1, k)
    weights = np.prod(np.meshgrid(*[w] * k, indexing="ij"), axis=0).reshape(-1)
    lam = np.empty((len(U), k + 1))
    run = np.ones(len(U))
    for i in range(k):
        lam[:, i] = run * (1.0 - U[:, i])
        run = run * U[:, i]
        weights = weights * U[:, i] ** (k - 1 - i)
    lam[:, k] = run
    weights *= math.factorial(k)
    lam.flags.writeable = weights.flags.writeable = False
    return lam, weights


def _cone_integral(simplices: np.ndarray, kernel, degree: int) -> np.ndarray:
    """sum_F h_F int_F kernel(y) dA(y) over (n - 1)-simplices F in R^n, each
    given by its n vertices (``simplices`` is F x n x n), h_F the distance of
    F's hyperplane from the origin.

    In cone coordinates x = t y, with y in F and t >= 0, dx = h_F t^(n-1)
    dt dA(y).  So with kernel(y) = int_0^inf f(t y) t^(n-1) dt this is the
    integral of f over the cones from the origin over the F, which is R^n
    when the F triangulate the boundary of a body with the origin inside.
    h_F area(F) = |det F| / (n - 1)!, and each F takes the collapsed
    Gauss-Legendre rule with ``degree`` nodes per axis.  ``kernel`` maps an
    (F, nodes, n) array of points to (F, nodes, ...) values; the result
    has the trailing shape.  The node sums run per facet first, then over
    the facets.
    """
    n = simplices.shape[-1]
    lam, w = _collapsed_simplex_rule(n - 1, degree)
    Y = np.einsum("jk,fkd->fjd", lam, simplices)
    weight = np.abs(np.linalg.det(simplices)) / math.factorial(n - 1)
    return weight @ np.tensordot(kernel(Y), w, axes=(1, 0))


def _map_chunks(fn, n_samples: int, dim: int, seed: int, workers: int) -> list:
    """``fn`` of each Gaussian chunk, listed by chunk index.

    Chunk i holds the samples [i CHUNK_SAMPLES, (i + 1) CHUNK_SAMPLES),
    drawn from ``chunk_rng(seed, i)``.  ``workers`` only sets how many threads
    map over the chunks, so the list does not depend on it.
    """
    n_samples = int(n_samples)

    def one(stream):
        rows = min(CHUNK_SAMPLES, n_samples - stream * CHUNK_SAMPLES)
        return fn(chunk_rng(seed, stream).standard_normal((rows, dim)))

    streams = range(-(-n_samples // CHUNK_SAMPLES))
    if workers <= 1 or len(streams) <= 1:
        return [one(stream) for stream in streams]
    with ThreadPoolExecutor(max_workers=min(workers, len(streams))) as ex:
        return list(ex.map(one, streams))


def _gap_columns(count: int, rows: int, pairs) -> np.ndarray:
    """Per-sample columns upper - lower, one for each of the ``count``
    (upper, lower) pairs of per-row values that ``pairs`` yields.

    The columns are written into one (count, rows) array, which is returned
    as its (rows, count) transpose: ``_moments`` then reduces each column
    as one contiguous row, and no column is copied.  One pair is held at a
    time, the next drawn from ``pairs`` after the last is subtracted.
    """
    out = np.empty((count, rows))
    pairs = iter(pairs)
    for col in out:
        np.subtract(*next(pairs), out=col)
    return out.T


def _moments(values):
    """(rows, means, sums of squared deviations) of one chunk of per-sample
    values, per column for 2-D values.  Each column is reduced as a 1-D
    view, whose summation order depends neither on the column count nor
    on the layout: a column of a (rows, columns) array in C order gives
    the bits of the same values stored as one row of a (columns, rows)
    array."""
    values = np.asarray(values, dtype=float)
    cols = values.reshape(len(values), -1).T
    means = np.array([col.mean() for col in cols])
    m2 = np.empty_like(means)
    for j, (col, mean) in enumerate(zip(cols, means)):
        dev = col - mean
        m2[j] = np.square(dev, out=dev).sum()
    shape = values.shape[1:]
    return len(values), means.reshape(shape), m2.reshape(shape)


def _merge(a, b):
    """Moments of two sample blocks combined (Chan, Golub and LeVeque 1979)."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * (nb / n), m2_a + m2_b + delta * delta * (na * nb / n)


def _estimates(chunk_moments, scale):
    """Chunk moments merged in chunk order into a mean with the standard
    error scale * s / sqrt(N) (s the sample standard deviation); one
    estimate per column for 2-D values, ``scale`` a scalar or per column.
    The standard deviation needs 2 samples at least."""
    total = sum(rows for rows, _, _ in chunk_moments)
    if total < 2:
        raise ValueError(f"a Monte-Carlo estimate needs at least 2 samples, got {total}")
    n, means, m2 = functools.reduce(_merge, chunk_moments)
    stderr = np.sqrt(m2 / (n - 1)) / math.sqrt(n)
    scales = np.broadcast_to(np.asarray(scale, dtype=float), means.shape)
    out = [FunctionalEstimate(float(c * m), float(c * e), "mc-direct", n)
           for m, e, c in zip(means.ravel(), stderr.ravel(), scales.ravel())]
    return out[0] if means.ndim == 0 else out


def sample_mean(fn, n_samples: int, dim: int, seed: int, scale=1.0,
                workers: int = 1):
    """Monte-Carlo mean of ``fn`` over standard Gaussian samples in R^dim.

    ``fn`` maps each (rows, dim) chunk to one value per row (a 1-D array,
    or 2-D with one column per paired quantity); each chunk is reduced to
    its moments as soon as it is mapped, so memory stays at one chunk per
    worker.  The result has the bits of ``estimate`` on the concatenated
    values: one estimate for 1-D values, a list with one per column for
    2-D values.  Fewer than 2 samples raise ValueError.
    """
    return _estimates(_map_chunks(lambda X: _moments(fn(X)), n_samples, dim,
                                  seed, workers), scale)


def estimate(values, scale=1.0):
    """Monte-Carlo mean of per-sample values times ``scale``, with the
    standard error scale * s / sqrt(N) from the sample standard deviation s.

    The values are reduced in slices of ``CHUNK_SAMPLES`` rows whose moments
    are merged in order, exactly as ``sample_mean`` merges its chunks.  2-D
    values give a list with one estimate per column; ``scale`` is a scalar
    or one factor per column.  Fewer than 2 values raise ValueError.
    """
    values = np.asarray(values)
    return _estimates([_moments(values[start:start + CHUNK_SAMPLES])
                       for start in range(0, len(values), CHUNK_SAMPLES)], scale)


def gaussian_mass(body, t: float, n_samples: int = DEFAULT_SAMPLES,
                  seed: int = 0, workers: int = 1) -> FunctionalEstimate:
    """Monte-Carlo Gaussian measure of the dilate t * body."""
    if not t >= 0.0:                            # NaN fails too
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return FunctionalEstimate(0.0, 0.0, "closed-form", 0)
    return sample_mean(lambda X: gauge_many(body, X) <= t, n_samples, body.n,
                       seed, workers=workers)


def ell_norm(body, n_samples: int = DEFAULT_SAMPLES, seed: int = 0,
             workers: int = 1) -> FunctionalEstimate:
    """Gaussian mean of the gauge of the body (origin must be interior),
    averaged over Gaussian samples."""
    return sample_mean(lambda X: gauge_many(body, X), n_samples, body.n, seed,
                       workers=workers)


def mean_width(body, n_samples: int = DEFAULT_SAMPLES, seed: int = 0) -> FunctionalEstimate:
    """Mean width, normalised so the width of the unit ball is 2.

    Uniform directions u on the sphere (normalised Gaussian samples) give
    W = E[h(u) + h(-u)]; balls are evaluated in closed form.
    """
    if isinstance(body, Ball):
        return FunctionalEstimate(2.0 * body.radius, 0.0, "closed-form", 0)

    def widths(U):
        U = U / np.linalg.norm(U, axis=1)[:, None]
        return support_many(body, U) + support_many(body, -U)

    return sample_mean(widths, n_samples, body.n, seed)


def mean_ell_crosscheck(body, n_samples: int = DEFAULT_SAMPLES, seed: int = 0) -> dict:
    """Check that the gauge mean equals ell(ball)/2 times the polar mean width.

    Returns both sides, the gap, and the joint standard error; the identity
    is exact, so the gap should vanish within a few joint standard errors.
    """
    lhs = ell_norm(body, n_samples=n_samples, seed=seed)
    width = mean_width(polar(body), n_samples=n_samples, seed=seed + 1)
    half_ell = 0.5 * ell_ball(body.n)
    rhs = half_ell * width.value
    joint = math.hypot(lhs.stderr, half_ell * width.stderr)
    return {"lhs": lhs, "width": width, "rhs": rhs,
            "gap": lhs.value - rhs, "joint_stderr": joint}
