"""Command-line interface for the library.

Subcommands mirror the module structure: ``measure`` (generate/validate/
reduce), ``ellipsoid`` (mvee, john), ``functional`` (ell, mass, width,
crosscheck), ``transport`` (verify-lemma61, constants), ``bl`` (verify,
identity), ``stability`` (run) and ``suite``.  Exit codes: 0 success,
1 usage or I/O error, 2 a mathematical verification failed beyond its
tolerance.  Every stochastic subcommand requires an explicit --seed; all
report files are written atomically and identical configurations produce
byte-identical output.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from . import brascamp_lieb as bl
from . import ellipsoids as el
from . import functionals as fn
from . import geometry as geom
from . import isotropic as iso
from . import stability as st
from . import transport as tr
from .rng import make_rng

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
# default --tol of measure validate and reduce: the residual generate promises
MEASURE_TOL = 1e-6


class VerificationFailure(Exception):
    """A mathematical check failed beyond tolerance (exit code 2)."""


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".simplexstab-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_json(payload: dict, args, out_path: str | None) -> None:
    envelope = {
        "tool_version": __version__,
        "config_echo": {k: v for k, v in sorted(vars(args).items())
                        if k not in ("func", "out") and v is not None},
        "seed": getattr(args, "seed", None),
    }
    envelope.update(payload)
    text = json.dumps(envelope, sort_keys=True, indent=2, default=_jsonable,
                      allow_nan=False) + "\n"
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "__dict__"):
        return {k: v for k, v in vars(obj).items()}
    raise TypeError(f"not JSON serialisable: {type(obj)!r}")


def _emit_csv(rows: list, fieldnames: list, out_path: str | None) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: (repr(v) if isinstance(v, float) else v)
                         for k, v in row.items()})
    if out_path:
        _atomic_write(out_path, buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _load_body(path: str):
    data = _load_json(path)
    if "radius" in data:
        return geom.Ball(data["radius"], data["n"])
    return geom.Polytope.from_json(data)


def _load_measure(path: str) -> iso.DiscreteMeasure:
    """A bare measure, or the ``measure`` field of a generate/reduce report."""
    data = _load_json(path)
    return iso.DiscreteMeasure.from_json(data.get("measure", data))


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _tolerance(text: str) -> float:
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return value


def _check_sample_counts(args) -> None:
    """Fewer than 2 samples give no standard error: a usage error at every n."""
    for flag in ("--samples", "--n-samples"):
        count = getattr(args, flag[2:].replace("-", "_"), None)
        if count is not None and count < 2:
            raise ValueError(f"{flag} needs at least 2 samples, got {count}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# ---------------------------------------------------------------- measure

def cmd_measure_generate(args):
    mu = el.random_isotropic_measure(args.n, args.k, args.seed)
    _emit_json({"measure": mu.to_json(),
                "residuals": vars(mu.validate())}, args, args.out)
    return EXIT_OK


def cmd_measure_validate(args):
    mu = _load_measure(args.infile)
    report = mu.validate()
    _emit_json({"residuals": vars(report), "k": mu.k, "tol": args.tol,
                "ok": report.ok(args.tol)}, args, args.out)
    if not report.ok(args.tol):
        raise VerificationFailure(
            f"residual {report.max_residual:.3g} exceeds tolerance {args.tol:g}")
    return EXIT_OK


def cmd_measure_reduce(args):
    mu = _load_measure(args.infile)
    reduced = iso.reduce_support(mu, tol=args.tol)
    _emit_json({"measure": reduced.to_json(),
                "k_in": mu.k, "k_out": reduced.k,
                "residuals": vars(reduced.validate())}, args, args.out)
    return EXIT_OK


# ---------------------------------------------------------------- ellipsoid

def cmd_ellipsoid_mvee(args):
    data = _load_json(args.infile)
    key = "points" if "points" in data else "vertices"
    if key not in data:
        raise ValueError(f"{args.infile} holds no 'points' or 'vertices' array")
    points = np.asarray(data[key], dtype=float)
    E, weights = el.mvee(points, eps=args.eps)
    _emit_json({"ellipsoid": E.to_json(), "dual_weights": weights.tolist(),
                "certificate": el.mvee_support_residual(points, weights)},
               args, args.out)
    return EXIT_OK


def cmd_ellipsoid_john(args):
    body = geom.Polytope.from_json(_load_json(args.infile))
    decomp = el.john_contact_measure(body, eps=args.eps)
    _emit_json({"body": decomp.body.to_json(),
                "contacts": decomp.contacts.to_json(),
                "kind": decomp.kind,
                "residuals": vars(decomp.residuals),
                "boundary_residual": decomp.boundary_residual},
               args, args.out)
    if not decomp.ok(args.tol):
        raise VerificationFailure("john decomposition residuals exceed tolerance")
    return EXIT_OK


# ---------------------------------------------------------------- functional

_FUNCTIONALS = {"ell": fn.ell_norm, "mass": fn.gaussian_mass, "width": fn.mean_width}


def cmd_functional(args):
    """ell, mass and width: the estimate's fields are the report."""
    kwargs = {"t": args.t} if "t" in args else {}
    if "workers" in args:
        kwargs["workers"] = args.workers or fn.default_workers()
    est = _FUNCTIONALS[args.subcommand](_load_body(args.body), n_samples=args.n_samples,
                                        seed=args.seed, **kwargs)
    _emit_json(vars(est), args, args.out)
    return EXIT_OK


def cmd_functional_crosscheck(args):
    body = _load_body(args.body)
    rep = fn.mean_ell_crosscheck(body, n_samples=args.n_samples, seed=args.seed)
    ok = abs(rep["gap"]) <= 3.0 * rep["joint_stderr"] + 1e-12
    _emit_json({"lhs": rep["lhs"].value, "rhs": rep["rhs"], "gap": rep["gap"],
                "joint_stderr": rep["joint_stderr"], "ok": ok}, args, args.out)
    if not ok:
        raise VerificationFailure("gauge-mean/width identity violated beyond 3 sigma")
    return EXIT_OK


# ---------------------------------------------------------------- transport

def cmd_transport_verify(args):
    margins = tr.derivative_box_margins(grid=args.grid)
    constants = tr.tail_constants()
    rows = []
    for name, payload in margins.items():
        if name == "ok":
            continue
        worst, margin = payload
        rows.append({"quantity": name, "worst_value": worst,
                     "margin": margin, "pass": margin > 0})
    for name, value in constants.items():
        lo, hi = tr.TAIL_BRACKETS[name]
        rows.append({"quantity": f"tail_{name}", "worst_value": value,
                     "margin": min(value - lo, hi - value),
                     "pass": lo < value < hi})
    _emit_csv(rows, ["quantity", "worst_value", "margin", "pass"], args.out)
    if not all(r["pass"] for r in rows):
        raise VerificationFailure("a derivative bound or tail bracket failed")
    return EXIT_OK


def cmd_transport_constants(args):
    constants = tr.tail_constants()
    _emit_json({"constants": constants,
                "brackets": {k: list(v) for k, v in tr.TAIL_BRACKETS.items()}},
               args, args.out)
    return EXIT_OK


# ---------------------------------------------------------------- bl

def cmd_bl_verify(args):
    mu = _load_measure(args.measure)
    inst = bl.BLInstance(iso.lift(mu, +1), args.s)
    bound = bl.bl_bound(inst)
    direct = bl.bl_lhs(inst, n_samples=args.samples, seed=args.seed)
    reverse = bl.rbl_lhs(inst, n_samples=max(args.samples // 4, 1000),
                         seed=args.seed + 1)
    direct_ok = direct.value <= bound * (1.0 + 1e-12) + 3.0 * direct.stderr
    reverse_ok = reverse.value >= bound * (1.0 - 1e-12) - 3.0 * reverse.stderr
    _emit_json({"bound": bound, "direct": vars(direct), "reverse": vars(reverse),
                "direct_ok": direct_ok, "reverse_ok": reverse_ok},
               args, args.out)
    if not (direct_ok and reverse_ok):
        raise VerificationFailure("product inequality violated beyond 3 sigma")
    return EXIT_OK


def cmd_bl_identity(args):
    rows = []
    for variant in ("inscribed", "polar"):
        rep = bl.simplex_identity_check(args.n, args.s, n_samples=args.samples,
                                        seed=args.seed, variant=variant)
        rows.append({"variant": variant, **vars(rep)})
    _emit_json({"identities": rows}, args, args.out)
    if not all(row["ok"] for row in rows):
        raise VerificationFailure("simplex dilate-measure identity violated")
    return EXIT_OK


# ---------------------------------------------------------------- stability

def _parse_eps_grid(spec: str) -> np.ndarray:
    """Parse 'a..b:k' into k log-spaced values, or a comma list."""
    if ".." in spec:
        span, _, count = spec.partition(":")
        lo, _, hi = span.partition("..")
        return np.geomspace(float(lo), float(hi), int(count or 8))
    return np.array([float(x) for x in spec.split(",")])


def cmd_stability_run(args):
    grid = _parse_eps_grid(args.eps)
    family = st.make_family(args.family, args.n, grid)
    report = st.fit_exponent(family, n_samples=args.samples, seed=args.seed)
    rows = list(report.as_csv_rows())
    _emit_csv(rows, report.CSV_COLUMNS, args.out)
    sys.stderr.write(
        f"family={report.family} n={report.n} slope={report.slope:.4f}"
        f" +- {report.slope_stderr:.4f} R2={report.r_squared:.4f}"
        f" distance={report.distance_used} deficits={report.deficit_method}\n")
    if any(r["bound_margin"] < 0 for r in rows):
        raise VerificationFailure("a stability bound margin is negative")
    return EXIT_OK


# ---------------------------------------------------------------- suite

def cmd_suite(args):
    scale = 0.1 if args.quick else 1.0
    n_mc = max(int(200_000 * scale), 20_000)
    checks = []

    def record(name, ok, detail):
        checks.append({"check": name, "pass": bool(ok), "detail": detail})

    v2 = geom.simplex_volume(2)
    record("simplex-volume", abs(v2 - 3.0 * np.sqrt(3.0) / 4.0) < 1e-12, f"{v2:.12f}")

    margins = tr.derivative_box_margins(grid=50 if args.quick else 200)
    min_margin = min(v[1] for k, v in margins.items() if k != "ok")
    record("transport-boxes", margins["ok"], f"min margin {min_margin:.4f}")

    constants = tr.tail_constants()
    record("tail-brackets",
           all(lo < constants[k] < hi for k, (lo, hi) in tr.TAIL_BRACKETS.items()),
           json.dumps({k: round(v, 4) for k, v in constants.items()}))

    rng_checks = True
    worst = 0.0
    for trial in range(5 if args.quick else 25):
        mu = el.random_isotropic_measure(2 + trial % 3, 12, args.seed + trial)
        t = np.exp(make_rng(args.seed + trial, 1).uniform(
            np.log(0.1), np.log(10.0), mu.k))
        rep = iso.ball_barthe_check(mu, t)
        slack = rep.lhs - rep.theta_star * rep.rhs
        rng_checks &= slack >= -1e-9 * abs(rep.lhs)
        worst = min(worst, slack)
    record("ball-barthe", rng_checks, f"worst slack {worst:.3e}")

    jd = el.john_contact_measure(geom.regular_simplex(3))
    record("john-simplex",
           np.abs(jd.contacts.weights - 0.75).max() < 1e-6 and jd.ok(1e-6),
           f"weights {jd.contacts.weights.round(9).tolist()}")

    est = fn.ell_norm(geom.regular_simplex_polar(2), n_samples=n_mc, seed=args.seed)
    oracle = fn.simplex_ell_oracle(2)
    record("ell-oracle", abs(est.value - oracle) <= 4.0 * est.stderr,
           f"mc {est.value:.5f} oracle {oracle:.5f}")

    rep = bl.simplex_identity_check(2, 0.1)
    record("dilate-identity", rep.ok,
           f"rel gap {rep.rel_gap:.2e} method {rep.method}")

    inst = bl.BLInstance(iso.lift(iso.simplex_measure(2), +1), 0.1)
    direct = bl.bl_lhs(inst, n_samples=n_mc, seed=args.seed)
    bound = bl.bl_bound(inst)
    record("product-equality", abs(direct.value - bound) <= 3.0 * direct.stderr,
           f"{direct.value:.4f} vs {bound:.4f}")

    fam = st.make_family("vertex-added", 2, np.geomspace(2e-3, 0.09, 6))
    try:
        rep = st.fit_exponent(fam, n_samples=n_mc, seed=args.seed)
        record("stability-slope", 0.8 <= rep.slope <= 1.2,
               f"slope {rep.slope:.3f} +- {rep.slope_stderr:.3f}")
    except st.InsufficientSignalError as exc:
        record("stability-slope", False, str(exc))

    for row in checks:
        status = "PASS" if row["pass"] else "FAIL"
        sys.stderr.write(f"[{status}] {row['check']}: {row['detail']}\n")
    _emit_json({"checks": checks, "all_pass": all(r["pass"] for r in checks)},
               args, args.out)
    if not all(r["pass"] for r in checks):
        raise VerificationFailure("property suite failed")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexstab",
        description="Isotropic measures, extremal ellipsoids, Gaussian "
                    "functionals and simplex stability experiments.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True, out=True, tol=None):
        if seed:
            p.add_argument("--seed", type=int, required=True,
                           help="RNG seed (mandatory: no wall-clock seeding)")
        if out:
            p.add_argument("--out", help="output path (default: stdout)")
        if tol is not None:
            p.add_argument("--tol", type=_tolerance, default=tol)

    measure = sub.add_parser("measure", help="generate/validate/reduce measures")
    msub = measure.add_subparsers(dest="subcommand", required=True)
    mg = msub.add_parser("generate")
    mg.add_argument("--n", type=int, required=True)
    mg.add_argument("--k", type=int, required=True)
    add_common(mg)
    mg.set_defaults(func=cmd_measure_generate)
    mv = msub.add_parser("validate")
    mv.add_argument("--in", dest="infile", required=True)
    add_common(mv, seed=False, tol=MEASURE_TOL)
    mv.set_defaults(func=cmd_measure_validate)
    mr = msub.add_parser("reduce")
    mr.add_argument("--in", dest="infile", required=True)
    add_common(mr, seed=False, tol=MEASURE_TOL)
    mr.set_defaults(func=cmd_measure_reduce)

    ell = sub.add_parser("ellipsoid", help="extremal ellipsoid solvers")
    esub = ell.add_subparsers(dest="subcommand", required=True)
    em = esub.add_parser("mvee")
    em.add_argument("--in", dest="infile", required=True)
    em.add_argument("--eps", type=float, default=1e-7)
    add_common(em, seed=False)
    em.set_defaults(func=cmd_ellipsoid_mvee)
    ej = esub.add_parser("john")
    ej.add_argument("--in", dest="infile", required=True)
    ej.add_argument("--eps", type=float, default=1e-7)
    add_common(ej, seed=False, tol=1e-6)
    ej.set_defaults(func=cmd_ellipsoid_john)

    func = sub.add_parser("functional", help="Gaussian functionals of bodies")
    fsub = func.add_subparsers(dest="subcommand", required=True)
    for name in ("ell", "mass", "width", "crosscheck"):
        fp = fsub.add_parser(name)
        fp.add_argument("--body", required=True)
        if name == "mass":
            fp.add_argument("--t", type=_finite_float, required=True)
        fp.add_argument("--n-samples", type=int, default=fn.DEFAULT_SAMPLES)
        if name in ("ell", "mass"):
            fp.add_argument("--workers", type=_positive_int)
        add_common(fp)
        fp.set_defaults(func=cmd_functional_crosscheck if name == "crosscheck"
                        else cmd_functional)

    trans = sub.add_parser("transport", help="transport maps and their bounds")
    tsub = trans.add_subparsers(dest="subcommand", required=True)
    tv = tsub.add_parser("verify-lemma61",
                         help="margins of the derivative bounds on the "
                              "boxes, checked at the grid's lattice nodes, as CSV")
    tv.add_argument("--grid", type=int, default=200,
                    help="lattice nodes per box side, at least 2")
    add_common(tv, seed=False)
    tv.set_defaults(func=cmd_transport_verify)
    tc = tsub.add_parser("constants")
    add_common(tc, seed=False)
    tc.set_defaults(func=cmd_transport_constants)

    blp = sub.add_parser("bl", help="product inequalities for truncated Gaussians")
    bsub = blp.add_subparsers(dest="subcommand", required=True)
    bv = bsub.add_parser("verify")
    bv.add_argument("--measure", required=True)
    bv.add_argument("--s", type=_finite_float, default=0.1)
    bv.add_argument("--samples", type=int, default=200_000)
    add_common(bv)
    bv.set_defaults(func=cmd_bl_verify)
    bi = bsub.add_parser("identity")
    bi.add_argument("--n", type=int, required=True)
    bi.add_argument("--s", type=_finite_float, default=0.0)
    bi.add_argument("--samples", type=int, default=1_000_000)
    add_common(bi)
    bi.set_defaults(func=cmd_bl_identity)

    stab = sub.add_parser("stability", help="extremal families and exponents")
    ssub = stab.add_subparsers(dest="subcommand", required=True)
    sr = ssub.add_parser("run")
    sr.add_argument("--family", required=True, choices=list(st.FAMILY_KINDS))
    sr.add_argument("--n", type=int, required=True)
    sr.add_argument("--eps", required=True,
                    help="grid as 'lo..hi:k' (log-spaced) or comma list")
    sr.add_argument("--samples", type=int, default=400_000)
    add_common(sr)
    sr.set_defaults(func=cmd_stability_run)

    suite = sub.add_parser("suite", help="run the condensed property suite")
    suite.add_argument("--quick", action="store_true")
    add_common(suite)
    suite.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _check_sample_counts(args)
        return args.func(args)
    except VerificationFailure as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return EXIT_VERIFY
    except (OSError, json.JSONDecodeError, KeyError, ValueError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
