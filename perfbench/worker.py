"""One workload in one fresh process; started by run.py, not by hand.

The process imports simplexstab, builds the workload's inputs from the
seed (the set-up phase), then repeats the workload's fixed set of checked
operations in rounds: at least MIN_ROUNDS, and more while a typical round
still ends within ``--seconds``.  Untraced rounds also sample the host's
speed with a calibration kernel (see Calibration).  With ``--trace 1``
untraced and traced rounds alternate, so the tracing overhead is measured
in the same process.  Everything is written as one JSON object to
``--result``.
"""
from __future__ import annotations

import time

_T_START = time.monotonic()

import argparse
import json
import os
import resource
import signal
import statistics
import sys

import numpy as np

MIN_ROUNDS = 2               # a stability-fit round takes 5-10 s
CALIBRATE_EVERY_S = 0.25     # one calibration-kernel run per this much wall time

_rng = np.random.default_rng(0)
_HULL = _rng.standard_normal((12, 2))
_QUERIES = 2.0 * _rng.standard_normal((2, 2))


def calibration_kernel() -> float:
    """Time one run of fixed work that does not touch simplexstab.

    The work is a fixed number of away-step Frank-Wolfe steps projecting
    two points onto the hull of twelve, written here once and never
    changed: an interpreted loop of numpy calls on tiny arrays, which is
    where stability-fit, product-ineq and dim-sweep spend their time.  The host's neighbours
    slow it down about as much as they slow the workloads (a plain
    interpreted loop, or a mix with a pass over a large array, slowed
    down less), and no change to the library can speed it up.
    """
    start = time.perf_counter()
    V = _HULL
    for x in _QUERIES:
        lam = np.zeros(len(V))
        lam[int(np.argmin(np.linalg.norm(V - x, axis=1)))] = 1.0
        p = lam @ V
        for _ in range(150):              # a fixed count: the work never varies
            g = V @ (p - x)
            i_fw = int(np.argmin(g))
            i_aw = int(np.argmax(np.where(lam > 1e-14, g, -np.inf)))
            e = np.zeros(len(V))
            if g[i_aw] - lam @ g > lam @ g - g[i_fw]:
                d, e[i_aw] = p - V[i_aw], 1.0
                gamma_max, dlam = lam[i_aw] / max(1.0 - lam[i_aw], 1e-18), lam - e
            else:
                d, e[i_fw] = V[i_fw] - p, 1.0
                gamma_max, dlam = 1.0, e - lam
            gamma = float(np.clip(-((p - x) @ d) / max(d @ d, 1e-300), 0.0, gamma_max))
            lam = np.maximum(lam + gamma * dlam, 0.0)
            lam /= lam.sum()
            p = lam @ V
    return time.perf_counter() - start


class Calibration:
    """Runs calibration_kernel every CALIBRATE_EVERY_S of wall time, from a
    timer signal, so its samples are spread over the run and fall inside
    long operations too; the time it takes is kept out of theirs."""

    def __init__(self):
        self.samples = []        # kernel times
        self.pauses = []         # (start, end) of each signal-handler run

    def _on_timer(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibration_kernel())
        self.pauses.append((start, time.perf_counter()))

    def paused(self, t0: float, t1: float) -> float:
        """Time spent in the handler between t0 and t1 (the handler runs in
        the main thread between bytecodes, so no run straddles either)."""
        total = 0.0
        for start, end in reversed(self.pauses):
            if start < t0:
                break
            if start < t1:
                total += end - start
        return total

    def start(self) -> None:
        self._on_timer(None, None)        # every round gets one sample at least
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _run_round(ops, tracer=None):
    """Run every operation once, in order; return timings and checked results.

    With tracer None, the calibration kernel runs during the round; its
    time is kept out of the operations' times and out of ``wall_s``.
    """
    calibration = Calibration()          # started in untraced rounds only
    if tracer is not None:
        tracer.install()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    results, defects, op_s = [], [], []

    def elapsed(start):
        now = time.perf_counter()
        return now - start - calibration.paused(start, now)

    try:
        if tracer is None:
            calibration.start()
        for op in ops:
            start = time.perf_counter()
            try:
                outputs, problems = op.run()
            except op.known_defect as exc:
                op_s.append(elapsed(start))
                defects.append({"op": op.name, "known_defect": f"{type(exc).__name__}: {exc}"})
                continue
            except Exception as exc:  # a failed operation is counted, the round goes on
                outputs, problems = None, [f"raised {type(exc).__name__}: {exc}"]
            op_s.append(elapsed(start))
            results.append({"op": op.name, "outputs": outputs, "problems": problems})
    finally:
        if tracer is None:
            calibration.stop()
        else:
            tracer.uninstall()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    # the kernel is CPU-bound, so its wall time is its CPU time
    paused = sum(end - start for start, end in calibration.pauses)
    return {"wall_s": sum(op_s), "cpu_s": cpu - paused, "op_s": op_s,
            "calibration_s": calibration.samples, "results": results, "defects": defects}


def _environment() -> dict:
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "vars": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                      "SIMPLEXSTAB_WORKERS", "PYTHONHASHSEED")}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--root", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import simplexstab
    src = os.path.join(args.root, "src")
    if not os.path.abspath(simplexstab.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.stderr.write(f"simplexstab imported from {simplexstab.__file__}, not {src}\n")
        return 2
    import spans
    import workloads

    workdir = os.path.dirname(os.path.abspath(args.result))
    ops = workloads.build(args.workload, args.seed, args.scale, workdir)
    t_ready = time.monotonic()
    out = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
           "t_start": _T_START, "t_ready": t_ready, "env": _environment()}
    if not args.setup_only:
        tracer = spans.Tracer() if args.trace else None
        plain, traced, traced_metrics, all_spans = [], [], [], []
        deadline = t_ready + args.seconds
        while True:
            plain.append(_run_round(ops))
            if tracer is not None:
                traced.append(_run_round(ops, tracer))
                round_spans = tracer.take()
                traced_metrics.append(spans.layer_metrics(round_spans))
                all_spans.append(round_spans)
            # after MIN_ROUNDS, start another round only if a typical one
            # still ends in time
            typical = statistics.median(r["wall_s"] for r in plain + traced)
            if (len(plain) >= MIN_ROUNDS
                    and time.monotonic() + typical * (2 if tracer else 1) > deadline):
                break
        out["rounds"] = plain
        out["traced_rounds"] = traced
        if tracer is not None:
            spans.dump_spans(all_spans, os.path.join(workdir, "spans.json"))
            layer = spans.median_metrics(traced_metrics)
            plain_wall = statistics.median(r["wall_s"] for r in plain)
            traced_wall = statistics.median(r["wall_s"] for r in traced)
            layer["bench.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
            layer["bench.trace_overhead_frac"] = (traced_wall - plain_wall) / plain_wall
            out["per_layer"] = layer
    out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
