"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process against the program in ``src/`` of the
checkout: set-up three times, then whole rounds until ``--seconds`` have
passed, then the correctness checks.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics untraced, the per-layer metrics with ``--trace 1``.
A result file (and, traced, a trace file) goes to ``perfbench/out/``.
"""

import os

# BLAS is pinned to one thread before numpy loads: multithreaded BLAS on
# these small matmuls collapses under contention on a 2-CPU machine
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 3

# per-layer metrics every workload has; these go into the result line.  The
# result file also holds the ones only some workloads have (training.*,
# autodiff.grad_params_ms, *_loss, model.load_checkpoint_ms, data.*)
LAYER_METRICS = (
    "geometry.distances_ms", "geometry.basis_ms", "geometry.kernel_ms",
    "attention.msa_ms", "model.ffn_ms", "autodiff.layer_norm_ms",
    "model.readout_ms", "model.forward_ms", "model.forward_calls_per_mol",
    "autodiff.grad_coords_ms", "autodiff.grad_coords_useful_ratio",
    "autodiff.nodes_forward", "autodiff.graph_mb_forces")


def environment() -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def machine_speed() -> float:
    """The machine's slowdown against the reference, measured now.  Garbage
    is collected first, so that each timed set-up or round starts from the
    heap a fresh process would have: the program's graphs hold reference
    cycles, which only the cyclic collector frees."""
    gc.collect()
    return calibration.reference_loop_seconds() / calibration.REFERENCE_S


def layer_metrics(tracer, report: dict, molecules: int, graphs: dict) -> dict:
    """Every per-layer metric the workload has: span time per op, counts,
    and graph statistics."""
    out = {f"{name}_ms": (row["ms_per_op"], "ms") for name, row in report.items()}
    out["model.forward_calls_per_mol"] = (tracer.forward_calls / molecules, "calls/mol")
    out["autodiff.grad_coords_useful_ratio"] = (graphs["forward"]["coords_share"], "ratio")
    out["autodiff.nodes_forward"] = (graphs["forward"]["nodes"], "count")
    out["autodiff.graph_mb_forces"] = (graphs["forces"]["mb"], "MB")
    if "loss" in graphs:
        out["autodiff.nodes_loss"] = (graphs["loss"]["nodes"], "count")
        out["autodiff.graph_mb_loss"] = (graphs["loss"]["mb"], "MB")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "geoattn" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    # speed[i] and speed[i + 1] bracket the i-th timed set-up or round
    speed = [machine_speed()]
    try:
        setup_times = []
        for _ in range(SETUPS):
            state = None        # free the previous set-up before timing the next
            t0 = time.perf_counter()
            state = wl.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
            speed.append(machine_speed())

        tracer = tracing.Tracer(wl.op_unit) if args.trace else None
        rounds = []
        if tracer:
            tracer.install()
        try:
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < args.seconds:
                rounds.append(wl.run_round(state))
                speed.append(machine_speed())
        finally:
            if tracer:
                tracer.uninstall()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checks, quality = wl.check(state, rounds)
        graphs = tracing.graph_summary(wl, state) if tracer else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    factor = [(a + b) / 2 for a, b in zip(speed, speed[1:])]
    setup_s = statistics.median(t / f for t, f in zip(setup_times, factor))
    rates = [r.molecules / r.seconds for r in rounds]
    throughput = statistics.median(x * f for x, f in zip(rates, factor[SETUPS:]))
    ops = sum(r.ops for r in rounds)
    if tracer:
        report = tracer.report(ops)
        layers = layer_metrics(tracer, report, sum(r.molecules for r in rounds), graphs)
        metrics = {name: layers[name] for name in LAYER_METRICS}
    else:
        metrics = {"setup_s": (setup_s, "s"),
                   "mol_per_ref_s": (throughput, "mol/ref-s"),
                   "peak_rss_mb": (peak_mb, "MB")}
    correct = all(bool(ok) for _, ok, _ in checks)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "reference_loop_s": calibration.REFERENCE_S,
              "wall": {"setup_s": statistics.median(setup_times),
                       "mol_per_s": statistics.median(rates)},
              "setups": [{"seconds": t, "speed": f} for t, f in zip(setup_times, factor)],
              "rounds": [{"seconds": r.seconds, "ops": r.ops, "molecules": r.molecules,
                          "speed": f} for r, f in zip(rounds, factor[SETUPS:])],
              "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
              "quality": quality,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        record["traced_mol_per_ref_s"] = throughput
        record["spans"] = report
        record["graphs"] = graphs
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        trace_path = OUT / f"trace-{stem}.json"
        with open(trace_path, "w") as fh:
            json.dump({"span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "op_unit": wl.op_unit, "spans": tracer.spans,
                       "forward_calls": tracer.forward_calls}, fh)
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))

    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for name, value in quality.items():
        print(f"quality {name} = {value:.6g}")
    if tracer:
        print(f"{'span':28s} {'calls':>7s} {'ms/' + wl.op_unit:>12s} {'self ms':>10s}")
        for name, row in report.items():
            print(f"{name:28s} {row['calls']:7d} {row['ms_per_op']:12.4f} "
                  f"{row['self_ms_per_op']:10.4f}")
        for kind, stats in graphs.items():
            print(f"graph {kind}: " + ", ".join(f"{k} {v:.6g}" for k, v in stats.items()))
        print(f"traced throughput {throughput:.6g} mol/ref-s")
    print(f"wall clock: setup {record['wall']['setup_s']:.6g} s, "
          f"{record['wall']['mol_per_s']:.6g} mol/s; machine speed factor "
          f"{min(factor):.3f}-{max(factor):.3f}")
    for name, (value, unit) in (layers if tracer else metrics).items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": ops, "failed": 0,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
