"""One benchmark process: import the library, set up one workload, run passes.

`run.py` starts this script in a fresh process for every set-up sample and
for the measured run, so that `setup_s` and `peak_rss_mb` belong to one
workload.  It prints one JSON document on its last stdout line.

Without --trace every pass runs the library untouched, while a speed probe
(probe.py) samples the vCPU's speed; the set-up and every pass are timed
and then scaled to the probe's reference speed.  With --trace the passes
alternate between untraced and traced (see tracer.py); per-layer figures
are the median over traced passes, unscaled, and the tracing overhead is
the median traced pass wall time minus the median untraced one.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A pass whose ops run past this many seconds counts its late ops as failed.
PASS_BUDGET_S = 60.0

# Per-layer metrics.  `<fn>.calls` and `<fn>.self_s` come from the spans of
# wrapped function `<fn>`; SIZE_METRICS are work sizes read from return
# values (tracer._sizes); per_layer_units() adds properties of the trace.
SPAN_METRICS = (
    "cell.assemble_quotient_system.calls", "cell.assemble_quotient_system.self_s",
    "cell.solve_corrector.calls", "cell.solve_corrector.self_s",
    "graph.validate.calls", "graph.validate.self_s",
    "graph.connectedness_certificate.calls", "graph.connectedness_certificate.self_s",
    "graph.instantiate_window.calls", "graph.instantiate_window.self_s",
    "lgf.parse.self_s", "lgf.serialize.self_s",
    "oracle.brute_force_cell_oracle.calls", "oracle.brute_force_cell_oracle.self_s",
    "asymptotic.build_window_problem.self_s", "asymptotic.finite_window_value.self_s",
    "asymptotic.window_energy.self_s",
    "coarse.compute_path_constants.calls", "coarse.compute_path_constants.self_s",
    "coarse.check_two_connectedness.self_s", "coarse.check_poincare_wirtinger.self_s",
    "coarse.check_poincare.self_s",
    "coarse.hypothesis_norms.calls", "coarse.hypothesis_norms.self_s",
    "coarse.coarse_field.self_s",
    "bvp.build_system.calls", "bvp.build_system.self_s",
    "bvp.solve_dirichlet.self_s", "bvp.continuum_reference.self_s",
    "bvp.l2_error_against.self_s",
    "linalg.eigh.calls", "linalg.eigh.self_s",
    "linalg.spsolve.calls", "linalg.spsolve.self_s",
    "cli.run.calls", "cli.run.self_s",
    "util.parallel_map.calls",
)
# Self time of functions that run in set-up rather than in a pass.
SETUP_METRICS = ("graph.normalize_period", "graph.graph_from_edges", "lgf.parse")
SIZE_METRICS = ("cell.quotient_nodes", "graph.witness_paths", "graph.window_vertices",
                "graph.window_edges", "asymptotic.free_dofs", "bvp.free_dofs",
                "linalg.eigh.order", "linalg.spsolve.dofs")


def per_layer_units():
    """{metric: unit} for every per-layer metric a traced run reports."""
    units = {}
    for name in SPAN_METRICS:
        units[name] = "s" if name.endswith(".self_s") else "count"
    for name in SETUP_METRICS:
        units[f"setup.{name}.self_s"] = "s"
    for name in SIZE_METRICS:
        units[name] = "count"
    units["coarse.path_constants_per_graph"] = "calls/graph"
    units["util.threads"] = "count"
    units["trace.spans"] = "count"
    units["trace.coverage"] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def setup(workload, seed, small, tracer=None):
    """Import the library and build the workload's inputs; returns (ops, gates, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import lattice_homog
    import lattice_homog.cli  # noqa: F401  (the ladders call lattice_homog.cli.run)
    import workloads

    if tracer is not None:
        tracer.install(lattice_homog)
    gates = workloads.Gates()
    ops = workloads.build(workload, lattice_homog, seed, small, gates)
    return ops, gates, time.perf_counter() - t0


def run_pass(ops):
    """Run the ladder once; returns (wall_s, cpu_s, attempted, failed)."""
    gc.collect()
    state = {}
    failed = 0
    w0, c0 = time.perf_counter(), time.process_time()
    for name, fn in ops:
        if time.perf_counter() - w0 > PASS_BUDGET_S:
            print(f"op {name!r}: not started, pass budget spent", file=sys.stderr)
            failed += 1
            continue
        try:
            fn(state)
        except Exception:
            print(f"op {name!r} failed:", file=sys.stderr)
            traceback.print_exc()
            failed += 1
            continue
        if time.perf_counter() - w0 > PASS_BUDGET_S:
            print(f"op {name!r}: ended past the pass budget", file=sys.stderr)
            failed += 1
    return time.perf_counter() - w0, time.process_time() - c0, len(ops), failed


def environment():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "LATTICE_HOMOG_THREADS": os.environ.get("LATTICE_HOMOG_THREADS"),
    }


def openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def probed_setup(workload, seed, small):
    """setup() under the speed probe; returns (ops, gates, scaled s, raw s, scale)."""
    speed = probe.SpeedProbe()
    speed.start()
    ops, gates, raw = setup(workload, seed, small)
    samples, paused = speed.stop()
    factor = probe.scale(samples)
    return ops, gates, (raw - paused) * factor, raw, factor


def measure(workload, seed, seconds, small):
    """Untraced passes for `seconds`; end-to-end figures of the median pass.

    Each pass's wall and CPU time, less the probe's own time, is scaled by
    the speed the probe saw during that pass.
    """
    ops, gates, setup_s, setup_raw, setup_scale = probed_setup(workload, seed, small)
    speed = probe.SpeedProbe()
    walls, cpus, raw_walls, scales, attempted, failed = [], [], [], [], 0, 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + max(raw_walls) <= seconds:
        speed.start()
        wall, cpu, a, f = run_pass(ops)
        samples, paused = speed.stop()
        factor = probe.scale(samples)
        walls.append((wall - paused) * factor)
        cpus.append((cpu - paused) * factor)
        raw_walls.append(wall)
        scales.append(factor)
        attempted += a
        failed += f
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "setup_raw": (setup_raw, setup_scale),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_kb / 1024.0,
        "passes": len(walls),
        "walls": walls,
        "raw_walls": raw_walls,
        "scales": scales,
        "attempted": attempted,
        "failed": failed,
        "gates": sorted(gates.seen),
        "env": environment(),
    }


def measure_traced(workload, seed, seconds, small, trace_path):
    """Alternate untraced and traced passes; per-layer figures of the traced ones."""
    from tracer import Tracer

    tracer = Tracer()
    ops, gates, _ = setup(workload, seed, small, tracer)
    found = set(tracer.found)
    tracer.uninstall()
    plain, traced, pass_ids = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start
                         + max(p + t for p, t in zip(plain, traced)) <= seconds):
        wall, _, a, f = run_pass(ops)
        plain.append(wall)
        tracer.pass_id = len(plain)
        tracer.install(sys.modules["lattice_homog"])
        wall_t, _, a_t, f_t = run_pass(ops)
        tracer.uninstall()
        traced.append(wall_t)
        pass_ids.append(tracer.pass_id)
        attempted += a + a_t
        failed += f + f_t

    tables = [tracer.table(pid) for pid in pass_ids]
    setup_table = tracer.table(0)
    metrics = {}
    for name in SPAN_METRICS:
        fn, field = name.rsplit(".", 1)
        metrics[name] = statistics.median(t.get(fn, {}).get(field, 0) for t in tables)
    for fn in SETUP_METRICS:
        metrics[f"setup.{fn}.self_s"] = setup_table.get(fn, {}).get("self_s", 0.0)
    for name in SIZE_METRICS:
        metrics[name] = statistics.median(
            tracer.counters.get(pid, {}).get(name, 0) for pid in pass_ids)
    metrics["coarse.path_constants_per_graph"] = statistics.median(
        t.get("coarse.compute_path_constants", {}).get("calls", 0)
        / max(1, len(tracer.graphs.get(pid, ())))
        for t, pid in zip(tables, pass_ids))
    metrics["util.threads"] = max(tracer.threads.get(pid, 1) for pid in pass_ids)
    metrics["trace.spans"] = statistics.median(tracer.span_count(p) for p in pass_ids)
    metrics["trace.coverage"] = statistics.median(
        sum(row["self_s"] for row in t.values()) / wall for t, wall in zip(tables, traced))
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)

    expected = {name.rsplit(".", 1)[0] for name in SPAN_METRICS} | set(SETUP_METRICS)
    absent = sorted(expected - found)
    shares = {}
    for t in tables:
        for fn, row in t.items():
            shares.setdefault(fn, []).append(row["self_s"])
    wall = statistics.median(traced)
    layer_shares = {fn: statistics.median(v) / wall for fn, v in shares.items()}
    env = environment()
    tracer.dump(trace_path, {"workload": workload, "seed": seed, "env": env,
                             "absent": absent, "metrics": metrics,
                             "self_share": layer_shares,
                             "tables": {str(p): t for p, t in zip(pass_ids, tables)},
                             "setup_table": setup_table})
    return {
        "metrics": metrics,
        "absent": absent,
        "passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "gates": sorted(gates.seen),
        "self_share": dict(sorted(layer_shares.items(), key=lambda kv: -kv[1])[:12]),
        "env": env,
        "trace_file": os.path.relpath(trace_path, ROOT),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-path", default="")
    args = parser.parse_args(argv)

    if args.setup_only:
        _, _, setup_s, raw, factor = probed_setup(args.workload, args.seed, args.small)
        result = {"setup_s": setup_s, "setup_raw": (raw, factor)}
    elif args.trace:
        result = measure_traced(args.workload, args.seed, args.seconds, args.small,
                                args.trace_path)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.small)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
