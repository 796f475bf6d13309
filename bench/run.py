"""Benchmark of the lattice_homog library: four study workloads, end to end.

    python3 bench/run.py --workload window --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20     # one row per workload

Run it from the root of a source checkout; it imports the library from
`src/`.  Each workload is a closed loop with one client: a pass runs the
workload's fixed ladder of calls (workloads.py) one after another in one
process, and every output is checked against a gate.  Passes repeat for
--seconds.

--trace 0 prints the end-to-end metrics: wall_s and cpu_s of the median
pass, setup_s (the median over SETUP_SAMPLES fresh processes of importing
the library and building the inputs) and peak_rss_mb of the measured
process.  The three times are scaled to a reference vCPU speed that a
probe samples while they are measured (probe.py), so that slow phases of a
shared host do not show as slow code; the unscaled times and the scale
factors are printed on the report lines.  --trace 1
prints the per-layer metrics from a run that times each public library
function from the outside (tracer.py) and writes every span to bench/out/.
The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; error_rate = failed / attempted.

Each workload runs in fresh processes with the BLAS thread count pinned, so
that memory and set-up time belong to that workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import per_layer_units
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "lattice_homog", "__init__.py")
OUT = os.path.join(HERE, "out")

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 3           # set-up is timed in this many fresh processes
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0         # the whole run, child processes included


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    blas = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = blas
    return env


def run_child(args, deadline):
    """Run worker.py with `args`; returns its last stdout line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a worker could start")
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, small):
    """All processes of one workload run; returns (result line, report)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)] + (["--small"] if small else [])
    if trace:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
        report = run_child(common + ["--seconds", str(seconds), "--trace", "1",
                                     "--trace-path", path], deadline)
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in report["metrics"].items()}
    else:
        # One set-up sample before the measured process and the rest after
        # it, so that the samples see the host at both ends of the run.
        setups = [run_child(common + ["--setup-only"], deadline)]
        report = run_child(common + ["--seconds", str(seconds)], deadline)
        setups.append(report)
        setups += [run_child(common + ["--setup-only"], deadline)
                   for _ in range(SETUP_SAMPLES - 2)]
        report["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        report["setups"] = [s["setup_s"] for s in setups]
        report["setups_raw"] = [s["setup_raw"] for s in setups]
        metrics = {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": report["failed"] == 0, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    return result, report


def print_report(workload, report, result):
    rate = result["failed"] / result["attempted"]
    print(f"{workload}: passes={report['passes']} attempted={result['attempted']} "
          f"failed={result['failed']} error_rate={rate:g}")
    print("gates " + json.dumps(report["gates"]))
    if "walls" in report:
        print("pass wall_s " + json.dumps([round(w, 4) for w in report["walls"]]))
        print("pass wall_s unscaled " + json.dumps([round(w, 4) for w in report["raw_walls"]]))
        print("pass speed scale " + json.dumps([round(f, 4) for f in report["scales"]]))
        print("setup_s samples " + json.dumps([round(s, 4) for s in report["setups"]]))
        print("setup_s unscaled, scale " + json.dumps(
            [[round(raw, 4), round(f, 4)] for raw, f in report["setups_raw"]]))
    print("env " + json.dumps(report["env"], sort_keys=True))
    if "absent" in report:
        print(f"absent functions: {report['absent'] or 'none'}")
        print(f"trace written to {report['trace_file']}")
        print("largest self-time shares: " + ", ".join(
            f"{k} {v:.1%}" for k, v in report["self_share"].items()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smoke-test sizes: every workload and gate, tiny inputs")
    args = parser.parse_args(argv)

    if not os.path.isfile(SRC):
        print(f"error: no library source at {os.path.relpath(SRC, ROOT)}; "
              "run from the root of a lattice-homog checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, report = run_workload(name, args.seed, args.seconds, args.trace,
                                          args.small)
            print_report(name, report, result)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all" and not args.trace:
        print_table(results)
    print(json.dumps(results[names[-1]] if len(names) == 1 else results))
    return 0


def print_table(results):
    cols = [name for name, _ in END_TO_END] + ["error_rate"]
    print(f"{'workload':16s}" + "".join(f"{c:>14s}" for c in cols))
    for name, res in results.items():
        vals = [res["metrics"][c]["value"] for c in cols[:-1]]
        vals.append(res["failed"] / res["attempted"])
        print(f"{name:16s}" + "".join(f"{v:14.4f}" for v in vals))


if __name__ == "__main__":
    sys.exit(main())
