"""Gaussian functionals of convex bodies: measure of dilates, the Gaussian
mean of the gauge, and the mean width.

This module is also the package's one Monte-Carlo layer.  ``sample_map``
is the package's only Monte-Carlo sampler: it draws fixed-size chunks of
standard normal samples, chunk i from the counter-based stream (seed, i)
of :mod:`simplexstab.rng`, and maps each chunk to per-sample values, so
workers can share the chunks out without changing any value.
``estimate`` turns per-sample values into a mean with its standard error.
Every Monte-Carlo estimate of the package goes through the two, one route
per functional; closed-form values carry a zero standard error.  The
exact values for the ball and the regular simplex serve as independent
oracles for the sampling paths.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

from .geometry import Ball, gauge_many, polar, support_many
from .rng import make_rng

__all__ = [
    "FunctionalEstimate", "ell_ball", "gaussian_max_mean", "simplex_ell_oracle",
    "gaussian_mass", "ell_norm", "mean_width", "mean_ell_crosscheck",
    "default_workers", "sample_map", "estimate",
]

DEFAULT_SAMPLES = 200_000
# samples per counter-based stream of the Gaussian sampler
CHUNK_SAMPLES = 1 << 16


def default_workers() -> int:
    """Worker count from SIMPLEXSTAB_WORKERS, else the available parallelism."""
    env = os.environ.get("SIMPLEXSTAB_WORKERS")
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class FunctionalEstimate:
    """A functional value with its standard error and provenance."""
    value: float
    stderr: float
    method: str        # "mc-direct" | "closed-form"
    samples: int

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("negative standard error")
        if self.method == "closed-form" and self.stderr != 0.0:
            raise ValueError("closed-form estimates carry zero standard error")


def ell_ball(n: int) -> float:
    """Gaussian mean of the Euclidean norm: sqrt(2) Gamma((n+1)/2) / Gamma(n/2)."""
    return math.sqrt(2.0) * math.exp(math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0))


def gaussian_max_mean(m: int) -> float:
    """Expected maximum of m iid standard Gaussians by quadrature."""
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


def sample_map(fn, n_samples: int, dim: int, seed: int, workers: int = 1) -> np.ndarray:
    """Per-sample values of ``fn`` over standard Gaussian samples in R^dim.

    Chunk i holds the samples [i CHUNK_SAMPLES, (i + 1) CHUNK_SAMPLES),
    drawn from stream (seed, i); ``fn`` maps each (rows, dim) chunk to one
    value per row (a 1-D array, or 2-D with one column per paired
    quantity), and the chunk values are concatenated in order.  So the
    result does not depend on ``workers``, which only sets how many
    threads map over the chunks, and the samples are never held all at
    once unless ``fn`` returns them.
    """
    n_samples = int(n_samples)

    def one(stream):
        rows = min(CHUNK_SAMPLES, n_samples - stream * CHUNK_SAMPLES)
        return fn(make_rng(seed, stream).standard_normal((rows, dim)))

    streams = range(-(-n_samples // CHUNK_SAMPLES))
    if workers <= 1 or len(streams) <= 1:
        parts = [one(stream) for stream in streams]
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(streams))) as ex:
            parts = list(ex.map(one, streams))
    return np.concatenate(parts)


def estimate(values, scale: float = 1.0) -> FunctionalEstimate:
    """Monte-Carlo mean of per-sample values times ``scale``, with the
    standard error scale * s / sqrt(N) from the sample standard deviation s."""
    values = np.asarray(values, dtype=float)
    n_samples = values.size
    stderr = float(np.std(values, ddof=1) / math.sqrt(n_samples))
    return FunctionalEstimate(scale * float(values.mean()), scale * stderr,
                              "mc-direct", n_samples)


def gaussian_mass(body, t: float, n_samples: int = DEFAULT_SAMPLES,
                  seed: int = 0, workers: int = 1) -> FunctionalEstimate:
    """Monte-Carlo Gaussian measure of the dilate t * body."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return FunctionalEstimate(0.0, 0.0, "closed-form", 0)
    return estimate(sample_map(lambda X: gauge_many(body, X) <= t,
                               n_samples, body.n, seed, workers))


def ell_norm(body, n_samples: int = DEFAULT_SAMPLES, seed: int = 0,
             workers: int = 1) -> FunctionalEstimate:
    """Gaussian mean of the gauge of the body (origin must be interior),
    averaged over Gaussian samples."""
    return estimate(sample_map(lambda X: gauge_many(body, X), n_samples, body.n,
                               seed, workers))


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

    return estimate(sample_map(widths, n_samples, body.n, seed))


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
