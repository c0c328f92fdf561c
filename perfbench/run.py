"""simplexstab benchmark: one workload per call, every output checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stability-fit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Workloads: stability-fit, mc-extremality, product-ineq, dim-sweep (see
workloads.py for what each runs and why).  The library is imported from
``src/`` of the checkout; nothing is installed or built.

Load is one process, one caller, closed loop: each operation starts when
the previous one has finished and been checked.  The workload runs in a
fresh child process (worker.py), so set-up time includes the import and
peak memory carries nothing over from another run.  BLAS threads and
library workers are pinned to 1 (at most ``nproc``), and ``workers=1`` is
passed explicitly where the library takes it.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

- wall_s: time of one round, the workload's fixed set of checked
  operations, at the reference host speed: the sum over operations of
  each one's median time across the rounds that fit in ``--seconds``,
  times CALIBRATION_REF_S over the mean time of the calibration kernel
  in the same rounds (see "Host speed" below);
- setup_s: median, over five fresh processes, of the time from process
  start to the start of the timed phase (import plus building inputs),
  rescaled like wall_s by the kernel's mean time in the measured run,
  which starts right after them;
- peak_rss_mib: peak resident memory of the measured workload process.

Host speed: the benchmark shares a host whose other tenants slow each core
down by up to 2x, in bursts of a fraction of a second whose density
changes over minutes.  The process is not descheduled (its CPU time equals
its wall time), and operations that take seconds never run free of the
bursts, so neither CPU time nor the fastest repeat removes them.  During
the untraced rounds a timer signal runs a fixed calibration kernel
(worker.calibration_kernel, ~7 ms, independent of the library) every
0.25 s, also in the middle of long operations, and its time is taken out
of theirs.  An operation's time scales with the host's mean slowdown over
it, so wall_s is rescaled by the kernel's mean time.  In one process
alternating workload rounds with kernel samples, over 20-second windows,
this cut the quartile spread of the window times from 0.14 to 0.03
(stability-fit) and from 0.16 to 0.01 (dim-sweep); it left product-ineq
at 0.07 and took mc-extremality, whose large-array sampling the bursts
slow down least, from 0.04 to 0.06.  The raw operation times and the
kernel samples are kept in summary.json.

With ``--trace 1`` untraced and traced rounds alternate in one process and
the line reports the per-layer metrics of spans.PER_LAYER instead (self
times and counts per module and public function, CPU time, and the
tracing overhead).  There is no waiting-time metric: one process with no
queues never waits.  Failed operations are counted in ``failed`` of the
result line; details, key outputs and the pinned environment go to
``perfbench/out/<workload>-s<seed>-t<trace>-<scale>/summary.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stability-fit", "mc-extremality", "product-ineq", "dim-sweep")
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]
SETUP_PROCESSES = 4          # setup-only processes, plus the measured one
# worker.calibration_kernel's time at the reference speed: about its median
# in a quiet period on a 2-vCPU x86-64 VM (Python 3.11, numpy on OpenBLAS)
CALIBRATION_REF_S = 0.0069
RUN_BUDGET_S = 170.0         # every run ends within 180 s
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "SIMPLEXSTAB_WORKERS": "1",
              "PYTHONHASHSEED": "0"}


class RunError(RuntimeError):
    """A child process failed or ran out of time; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args: list, result_path: str, deadline: float) -> dict:
    """Run worker.py with args; return its result, with the set-up time
    from the spawn to the start of the timed phase as ``setup_s``."""
    if os.path.exists(result_path):
        os.unlink(result_path)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--result", result_path, *args]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError(f"worker {' '.join(args)} ran out of time")
    if code != 0 or not os.path.exists(result_path):
        raise RunError(f"worker {' '.join(args)} exited with code {code}")
    with open(result_path) as handle:
        result = json.load(handle)
    result["setup_s"] = result["t_ready"] - t_spawn
    return result


def _round_outputs(rnd: dict) -> str:
    return json.dumps([rnd["results"], rnd["defects"]], sort_keys=True)


def measure(workload: str, seed: int, seconds: float, trace: int,
            scale: str = "full") -> dict:
    """Run one workload in fresh processes; return the summary with its result line."""
    deadline = time.monotonic() + RUN_BUDGET_S
    outdir = os.path.join(HERE, "out", f"{workload}-s{seed}-t{trace}-{scale}")
    os.makedirs(outdir, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--scale", scale]
    result_path = os.path.join(outdir, "worker.json")
    # untimed warm-up: byte-compiles the package and warms the file cache,
    # which users pay once per install, not per run
    _spawn(common + ["--seconds", "0", "--setup-only"], result_path, deadline)
    setups = []
    if not trace:
        for _ in range(SETUP_PROCESSES):
            setups.append(_spawn(common + ["--seconds", "0", "--setup-only"],
                                 result_path, deadline)["setup_s"])
    main = _spawn(common + ["--seconds", repr(seconds), "--trace", str(trace)],
                  result_path, deadline)
    setups.append(main["setup_s"])

    rounds = main["rounds"] + main["traced_rounds"]
    failed = sum(1 for r in rounds for op in r["results"] if op["problems"])
    attempted = sum(len(r["results"]) for r in rounds)
    reference = _round_outputs(rounds[0])
    deterministic = all(_round_outputs(r) == reference for r in rounds)
    walls = [r["wall_s"] for r in main["rounds"]]
    op_rounds = [list(times) for times in zip(*(r["op_s"] for r in main["rounds"]))]
    # one pass through the fixed set of operations, each at its median time
    # over the rounds, rescaled from the host's speed during the run to the
    # reference speed
    op_medians = [statistics.median(times) for times in op_rounds]
    calibration = [t for r in main["rounds"] for t in r["calibration_s"]]
    slowdown = statistics.fmean(calibration) / CALIBRATION_REF_S
    if trace:
        metrics = {name: {"value": main["per_layer"][name], "unit": unit}
                   for name, unit, _ in spans.PER_LAYER}
    else:
        metrics = {"wall_s": {"value": sum(op_medians) / slowdown, "unit": "s"},
                   "setup_s": {"value": statistics.median(setups) / slowdown, "unit": "s"},
                   "peak_rss_mib": {"value": main["maxrss_kib"] / 1024.0, "unit": "MiB"}}
    line = {"correct": failed == 0 and deterministic, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    summary = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "scale": scale, "env": main["env"], "pinned_env": PINNED_ENV,
               "round_wall_s": walls, "op_median_s": op_medians,
               "op_times_s": op_rounds, "calibration_s": calibration,
               "host_slowdown": slowdown,
               "traced_round_wall_s": [r["wall_s"] for r in main["traced_rounds"]],
               "setup_s_samples": setups, "deterministic": deterministic,
               "first_round": rounds[0],
               "first_traced_round": main["traced_rounds"][0] if trace else None,
               "result": line,
               "failures": [dict(op, round=i) for i, r in enumerate(rounds)
                            for op in r["results"] if op["problems"]]}
    with open(os.path.join(outdir, "summary.json"), "w") as handle:
        json.dump(summary, handle, indent=1)
    return summary


def _print_result(summary: dict) -> None:
    line = summary["result"]
    rounds = len(summary["round_wall_s"])
    for name, metric in line["metrics"].items():
        print(f"{summary['workload']}: {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{summary['workload']}: {rounds} rounds, {line['attempted']} operations"
          f" attempted, {line['failed']} failed, outputs deterministic:"
          f" {summary['deterministic']}")
    print(json.dumps(line))


def selftest(seed: int) -> int:
    """Small-size check of every workload: metric names and units, tracing
    changes no output, and the same seed gives the same outputs twice."""
    expected = {0: list(END_TO_END),
                1: [(n, u) for n, u, _ in spans.PER_LAYER]}
    declared_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(declared_path):
        with open(declared_path) as handle:
            declared = json.load(handle)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            listed = [(m["name"], m["unit"]) for m in declared[key]]
            if listed != expected[trace]:
                print(f"FAIL BENCHMARK.json {key} differs from the emitted metrics")
                return 1
        if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
            print("FAIL BENCHMARK.json workloads differ from the benchmark's")
            return 1
    ok = True
    for workload in WORKLOADS:
        runs = [measure(workload, seed, 0, trace, scale="small") for trace in (0, 1, 0)]
        outputs = [_round_outputs(runs[0]["first_round"]),
                   _round_outputs(runs[1]["first_traced_round"]),
                   _round_outputs(runs[2]["first_round"])]
        checks = {
            "metrics named with units": all(
                [(n, m["unit"]) for n, m in r["result"]["metrics"].items()] == expected[r["trace"]]
                for r in runs),
            "all operations pass": all(r["result"]["correct"] for r in runs),
            "tracing changes no output": outputs[0] == outputs[1],
            "same seed, same outputs": outputs[0] == outputs[2],
        }
        for what, passed in checks.items():
            print(f"{'PASS' if passed else 'FAIL'} {workload}: {what}")
            ok = ok and passed
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload at small sizes and check the benchmark")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "simplexstab", "__init__.py")):
        sys.stderr.write(f"no simplexstab sources under {ROOT}/src\n")
        return 2
    try:
        if args.selftest:
            return selftest(args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        _print_result(measure(args.workload, args.seed, args.seconds, args.trace))
    except RunError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
