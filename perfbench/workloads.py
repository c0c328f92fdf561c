"""The four benchmark workloads: inputs made from the seed, and checked operations.

``build(name, seed, scale, workdir)`` draws the raw inputs (point clouds,
eps grids, measure files, library seeds) from the benchmark seed and
returns the workload's operations.  Each operation calls into the
library, checks its result against the thresholds of the matching
acceptance criterion and returns ``(outputs, problems)``: the key outputs
to record and the list of failed checks (empty when the operation passed).

Monte-Carlo checks use SIGMAS standard errors.  The acceptance tests gate
at 3 sigma on seeds fixed in advance; here the seed is free, and a 3-sigma
gate fails by chance on some seeds (the equality-case reverse integral
showed |z| up to 3.5 over 40 seeds), so the benchmark gates at 5 sigma.

Workloads and why they were chosen:

- stability-fit: the paper's headline experiment, stability-exponent fits
  on the corner-cut (Hausdorff path) and vertex-added (symmetric-difference
  path) n = 2 families; time goes to the point-to-hull projection inside
  the alignment search.
- mc-extremality: large-array Monte-Carlo sampling (John contacts of
  clouds, then extremality checks at 1M samples; gauge means against the
  exact oracle; dilate-measure identities); never calls the point-to-hull
  projection.
- product-ineq: ``simplexstab bl verify`` run in-process on measure files,
  plus the direct and reverse product integrals on the equality case; the
  only workload through the CLI layer, dominated by the reverse-integral
  inner solver.
- dim-sweep: many small calls over n = 2..8 (mvee, John decompositions,
  support reduction, the determinant inequality on its exact and sampled
  paths, corner-cut bodies and their polars, transport margins), where
  per-call overhead is the cost.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from simplexstab import brascamp_lieb as bl
from simplexstab import cli
from simplexstab import ellipsoids as el
from simplexstab import functionals as fn
from simplexstab import geometry as g
from simplexstab import isotropic as iso
from simplexstab import stability as st
from simplexstab import transport as tr

SIGMAS = 5.0

# sample counts and sizes; "small" is the self-test scale
SIZES = {
    "full": {"fit_samples": 200_000, "extremality_samples": 1_000_000,
             "ell_samples": 400_000, "identity_samples": 1_000_000,
             "verify_samples": 100_000, "direct_samples": 200_000,
             "reverse_samples": 30_000, "cloud_cap": 200, "barthe_exact": 10,
             "barthe_sampled_k": 40, "box_grid": 200},
    "small": {"fit_samples": 60_000, "extremality_samples": 100_000,
              "ell_samples": 100_000, "identity_samples": 200_000,
              "verify_samples": 20_000, "direct_samples": 50_000,
              "reverse_samples": 4_000, "cloud_cap": 60, "barthe_exact": 2,
              "barthe_sampled_k": 14, "box_grid": 40},
}


@dataclass
class Op:
    """One checked call.  ``known_defect`` names exceptions the call raises
    at the current commit because of a recorded defect: such a raise is
    reported as the known defect, not as a failed operation."""
    name: str
    run: Callable[[], tuple]
    known_defect: tuple = ()


class Checks:
    def __init__(self):
        self.problems = []

    def that(self, ok, what: str) -> None:
        if not ok:
            self.problems.append(what)


def _lib_seed(rng) -> int:
    return int(rng.integers(1, 2**31 - 1))


def _symmetric_isotropic(rng, n: int, k_half: int) -> iso.DiscreteMeasure:
    """Centered isotropic measure on +-P (symmetry makes the barycenter zero)."""
    P = rng.standard_normal((k_half, n))
    P /= np.linalg.norm(P, axis=1)[:, None]
    w = rng.uniform(0.5, 2.0, k_half)
    return iso.isotropize(np.vstack([P, -P]), np.tile(w, 2))


# ---------------------------------------------------------------- stability-fit

def _fit_op(kind, grid, restarts, size, seed, slope_range):
    def run():
        fam = st.make_family(kind, 2, grid)
        rep = st.fit_exponent(fam, n_samples=size["fit_samples"], seed=seed,
                              align_restarts=restarts)
        c = Checks()
        lo, hi = slope_range
        c.that(lo <= rep.slope <= hi, f"slope {rep.slope:.4f} outside [{lo}, {hi}]")
        c.that(all(r.bound_margin_log10 > 0 for r in rep.rows), "a bound margin <= 0")
        return {"slope": rep.slope, "slope_stderr": rep.slope_stderr,
                "r_squared": rep.r_squared,
                "eps_measured": [r.eps_measured for r in rep.rows],
                "distance": [r.delta_vol if rep.distance_used == "delta_vol"
                             else r.delta_H for r in rep.rows]}, c.problems
    return Op(f"fit {kind} n=2", run)


def _stability_fit(rng, size, workdir):
    # grid endpoints jitter with the seed; 6 points leave one spare above
    # the fit's minimum of 5 usable rows
    cc_grid = np.geomspace(1e-3 * rng.uniform(0.9, 1.1), 0.09, 6)
    va_grid = np.geomspace(2e-3 * rng.uniform(0.9, 1.1), 0.09, 6)
    # The library seeds are fixed, as in acceptance criterion 9: the random
    # restarts of the alignment search set how many projection iterations a
    # fit takes (the vertex-added fit took 3.1-3.9 s over library seeds,
    # 3.1-3.4 s over grids), so the benchmark seed moves the grids only.
    # The corner-cut slope holds at one restart (0.435-0.441 over 12 seeds)
    # and each restart costs ~0.45 s of projections; the symmetric-difference
    # fit needs the library's default 12 (with 4 its slope left [0.8, 1.2]
    # on 2 of 15 seeds).
    return [_fit_op("corner-cut", cc_grid, 1, size, 902, (0.35, 0.65)),
            _fit_op("vertex-added", va_grid, 12, size, 901, (0.8, 1.2))]


# ---------------------------------------------------------------- mc-extremality

def _extremality_op(cloud, size, seed):
    n, k = cloud.shape[1], cloud.shape[0]

    def run():
        decomp = el.john_contact_measure(g.Polytope(vertices=cloud))
        rep = st.extremality_check(decomp.contacts.points,
                                   n_samples=size["extremality_samples"], seed=seed)
        c = Checks()
        c.that(decomp.contacts.validate().max_residual < 1e-6, "john residual >= 1e-6")
        c.that(rep["lowner_deficit"] >= -SIGMAS * rep["lowner_stderr"], "lowner deficit < -5 sigma")
        c.that(rep["john_deficit"] >= -SIGMAS * rep["john_stderr"], "john deficit < -5 sigma")
        deficit = max(rep["lowner_deficit"], rep["john_deficit"])
        noise = SIGMAS * max(rep["lowner_stderr"], rep["john_stderr"])
        if deficit < noise:
            c.that(rep["support_distance"] < 0.05, "deficit at noise but support far from simplex")
        return {"contacts": decomp.contacts.k, **rep}, c.problems
    return Op(f"extremality n={n} cloud={k}", run)


def _ell_oracle_op(n, size, seed):
    def run():
        est = fn.ell_norm(g.regular_simplex_polar(n), n_samples=size["ell_samples"],
                          seed=seed, workers=1)
        oracle = fn.simplex_ell_oracle(n)
        c = Checks()
        c.that(abs(est.value - oracle) <= SIGMAS * est.stderr, "estimate off the oracle by > 5 sigma")
        c.that(est.stderr < 0.005 * est.value, "stderr >= 0.5% of the estimate")
        return {"value": est.value, "stderr": est.stderr, "oracle": oracle}, c.problems
    return Op(f"ell_norm polar simplex n={n}", run)


def _identity_op(n, s, variant, size, seed):
    def run():
        rep = bl.simplex_identity_check(n, s, n_samples=size["identity_samples"],
                                        seed=seed, variant=variant)
        tol = 5e-3 if n == 2 else 1e-2
        c = Checks()
        c.that(rep.rel_gap < tol, f"rel_gap {rep.rel_gap:.3g} >= {tol}")
        return {"lhs": rep.lhs, "rhs": rep.rhs, "rel_gap": rep.rel_gap,
                "stderr": rep.stderr}, c.problems
    return Op(f"identity n={n} {variant}", run)


def _mc_extremality(rng, size, workdir):
    ops = []
    for n in (2, 3):
        # 40 points on the sphere keep a fixed contact count (5 for n = 2, 9
        # for n = 3), so array sizes and memory do not change with the seed;
        # a perturbed simplex has n + 1 contacts and a zero deficit
        sphere = rng.standard_normal((40, n))
        sphere /= np.linalg.norm(sphere, axis=1)[:, None]
        simplex = np.vstack([g.regular_simplex(n).vertices
                             + 0.05 * rng.standard_normal((n + 1, n)),
                             0.15 * rng.standard_normal((3 * n, n))])
        ops += [_extremality_op(cloud, size, _lib_seed(rng)) for cloud in (sphere, simplex)]
    ops += [_ell_oracle_op(n, size, _lib_seed(rng)) for n in range(2, 7)]
    s = float(rng.choice([0.0, 0.1, 0.15]))
    ops += [_identity_op(n, s, variant, size, _lib_seed(rng))
            for n in (2, 3) for variant in ("inscribed", "polar")]
    return ops


# ---------------------------------------------------------------- product-ineq

def _verify_op(path, out_path, s, size, seed, n):
    argv = ["bl", "verify", "--measure", path, "--s", repr(s),
            "--samples", str(size["verify_samples"]), "--seed", str(seed),
            "--out", out_path]

    def run():
        code = cli.main(argv)
        c = Checks()
        c.that(code == 0, f"exit code {code}")
        if code != 0:
            return {"exit_code": code}, c.problems
        with open(out_path) as handle:
            report = json.load(handle)
        return {"exit_code": code, "bound": report["bound"], "direct": report["direct"],
                "reverse": report["reverse"]}, c.problems
    return Op(f"bl verify n={n}", run)


def _equality_op(s, size, seed):
    def run():
        inst = bl.BLInstance(iso.lift(iso.simplex_measure(2), +1), s)
        bound = bl.bl_bound(inst)
        direct = bl.bl_lhs(inst, n_samples=size["direct_samples"], seed=seed)
        reverse = bl.rbl_lhs(inst, n_samples=size["reverse_samples"], seed=seed + 1)
        c = Checks()
        c.that(abs(direct.value - bound) <= SIGMAS * direct.stderr, "direct off the bound by > 5 sigma")
        c.that(abs(reverse.value - bound) <= SIGMAS * reverse.stderr, "reverse off the bound by > 5 sigma")
        return {"bound": bound, "direct": [direct.value, direct.stderr],
                "reverse": [reverse.value, reverse.stderr]}, c.problems
    return Op(f"equality lifted simplex s={s}", run)


def _product_ineq(rng, size, workdir):
    ops = []
    for n in (2, 3):
        # 8 and 10 atoms, near the n + 6 points of acceptance criterion 7; a
        # symmetric measure is centered exactly, while John contacts of random
        # clouds miss the lift's 1e-8 centering tolerance on some seeds
        mu = _symmetric_isotropic(rng, n, math.ceil((n + 6) / 2))
        path = os.path.join(workdir, f"measure-n{n}.json")
        with open(path, "w") as handle:
            json.dump(mu.to_json(), handle)
        ops.append(_verify_op(path, os.path.join(workdir, f"verify-n{n}.json"),
                              0.1, size, _lib_seed(rng), n))
    ops += [_equality_op(s, size, _lib_seed(rng)) for s in (0.0, 0.1, 0.15)]
    return ops


# ---------------------------------------------------------------- dim-sweep

def _mvee_op(cloud):
    def run():
        E, weights = el.mvee(cloud)
        cert = el.mvee_support_residual(cloud, weights)
        c = Checks()
        c.that(cert <= 1e-7, f"certificate {cert:.3g} > 1e-7")
        c.that(bool(np.all(E.contains_points(cloud, tol=1e-9))), "a point outside the ellipsoid")
        return {"certificate": cert, "volume": E.volume()}, c.problems
    return Op(f"mvee n={cloud.shape[1]} m={cloud.shape[0]}", run)


def _john_op(body, label, simplex_weights=False):
    def run():
        decomp = el.john_contact_measure(body)
        mu = decomp.contacts
        n = mu.n
        c = Checks()
        c.that(decomp.ok(1e-6), "john residuals exceed 1e-6")
        c.that(mu.k <= iso.support_bound(n), "support above n(n+3)/2 + 1")
        if simplex_weights:
            c.that(float(np.abs(mu.weights - n / (n + 1.0)).max()) < 1e-6,
                   "simplex contact weights differ from n/(n+1)")
        return {"k": mu.k, "residual": decomp.residuals.max_residual,
                "weights_sum": float(mu.weights.sum())}, c.problems
    return Op(f"john {label}", run)


def _reduce_op(mu):
    def run():
        out = iso.reduce_support(mu)
        c = Checks()
        c.that(out.k <= iso.support_bound(mu.n), "support above n(n+3)/2 + 1")
        c.that(out.validate().max_residual < 1e-8, "moment residual >= 1e-8")
        return {"k_in": mu.k, "k_out": out.k}, c.problems
    return Op(f"reduce_support n={mu.n} k={mu.k}", run)


def _barthe_op(mu, t, seed):
    def run():
        rep = iso.ball_barthe_check(mu, t, seed=seed)
        c = Checks()
        c.that(rep.lhs >= rep.theta_star * rep.rhs * (1.0 - 1e-9), "lhs < theta* rhs")
        c.that(rep.theta_star >= 1.0 - 1e-12, "theta* < 1")
        return {"lhs": rep.lhs, "rhs": rep.rhs, "theta_star": rep.theta_star,
                "exact": rep.exact, "subsets": rep.subset_count}, c.problems
    return Op(f"ball_barthe n={mu.n} k={mu.k}", run)


def _corner_cut_op(n, grid, with_vertices):
    def run():
        fam = st.make_family("corner-cut", n, grid)
        c = Checks()
        counts = []
        for K in fam.bodies:
            P = g.polar(K)
            c.that(P.vertices.shape[0] == 2 * (n + 1), "polar is not a 2(n+1)-vertex body")
            if with_vertices:
                V = K.vertices
                c.that(V.shape[0] == n * (n + 1), "cut body lacks n(n+1) vertices")
                counts.append(int(V.shape[0]))
        return {"bodies": len(fam.bodies), "vertices": counts}, c.problems
    label = "vertices+polar" if with_vertices else "polar"
    return Op(f"corner-cut n={n} {label}", run)


def _transport_op(grid):
    def run():
        margins = tr.derivative_box_margins(grid=grid)
        constants = tr.tail_constants()
        c = Checks()
        c.that(margins["ok"], "a derivative bound fails on the box")
        for name, (lo, hi) in tr.TAIL_BRACKETS.items():
            c.that(lo < constants[name] < hi, f"tail constant {name} outside its bracket")
        worst = min(v[1] for key, v in margins.items() if key != "ok")
        return {"min_margin": worst, "constants": constants}, c.problems
    return Op(f"transport margins grid={grid}", run)


def _cross_polytope_cloud(rng, n: int, m: int) -> np.ndarray:
    """m points: a random affine image of the cross-polytope plus interior
    points within 0.6 of its Loewner ball's radius.

    mvee is affine invariant and the interior points stay clear of the
    boundary, so the solver's iteration count barely changes with the seed
    (on Gaussian clouds it varies twofold from cloud to cloud).
    """
    inner = rng.standard_normal((m - 2 * n, n))
    inner *= 0.6 * rng.uniform(0.0, 1.0, (m - 2 * n, 1)) ** (1.0 / n) / np.linalg.norm(
        inner, axis=1)[:, None]
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    points = np.vstack([np.eye(n), -np.eye(n), inner])
    return (points * rng.uniform(0.5, 2.0, n)) @ Q.T + rng.standard_normal(n)


def _dim_sweep(rng, size, workdir):
    ops = []
    for n in range(2, 9):
        for _ in range(3):
            cloud = _cross_polytope_cloud(rng, n, min(25 * n, size["cloud_cap"]))
            ops.append(_mvee_op(cloud))
            ops.append(_john_op(g.Polytope(vertices=cloud), f"n={n} m={cloud.shape[0]}"))
    ops += [_john_op(g.regular_simplex(n), f"simplex n={n}", simplex_weights=True)
            for n in range(2, 6)]
    ops += [_reduce_op(_symmetric_isotropic(rng, n, iso.support_bound(n)))
            for n in range(2, 7)]
    for trial in range(3 * size["barthe_exact"]):
        n = 2 + trial % 3
        mu = _symmetric_isotropic(rng, n, int(rng.integers(n + 1, n * n + 1)))
        t = np.exp(rng.uniform(math.log(0.1), math.log(10.0), mu.k))
        ops.append(_barthe_op(mu, t, _lib_seed(rng)))
    # n = 6 above the enumeration cap: the sampled-subset path
    mu = _symmetric_isotropic(rng, 6, size["barthe_sampled_k"] // 2)
    t = np.exp(rng.uniform(math.log(0.1), math.log(10.0), mu.k))
    ops.append(_barthe_op(mu, t, _lib_seed(rng)))
    grid = np.geomspace(1e-3 * rng.uniform(0.9, 1.1), 0.09, 3)
    ops += [_corner_cut_op(n, grid, with_vertices=n <= 4) for n in range(2, 7)]
    ops.append(_transport_op(size["box_grid"]))
    # vertex enumeration of corner-cut bodies for n >= 5 raises
    # RepresentationError at this commit (ROADMAP item 4)
    ops += [Op(f"corner-cut n={n} vertices", _corner_cut_op(n, grid, True).run,
               (g.RepresentationError,)) for n in (5, 6)]
    return ops


_WORKLOADS = {"stability-fit": _stability_fit, "mc-extremality": _mc_extremality,
             "product-ineq": _product_ineq, "dim-sweep": _dim_sweep}


def build(name: str, seed: int, scale: str, workdir: str) -> list:
    """Return the operations of a workload, with inputs drawn from seed."""
    rng = np.random.default_rng([seed, list(_WORKLOADS).index(name)])
    return _WORKLOADS[name](rng, SIZES[scale], workdir)
