"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --seconds 20 [--trace 0|1] [WORKLOAD ...]

For every workload and metric it prints the median and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median.  The runs are sequential, one process at a time; the
summary is also written to ``perfbench/out/spread-trace<0|1>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train-morse-small", "forces-large", "train-mid")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads:
        values: dict[str, list] = {}
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({k: result[k] for k in ("correct", "attempted", "failed")})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v[-1]:.5g}" for k, v in values.items()), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median if median else 0.0,
                          "values": vals}
            print(f"  {name:36s} median {median:10.5g}  spread {rows[name]['spread']:.3f}")
        print(f"  correct in every run: {all(r['correct'] for r in runs)}; "
              f"failed/attempted: {sorted({r['failed'] / r['attempted'] for r in runs})}")
        summary[workload] = {"seeds": args.seeds, "seconds": args.seconds,
                             "runs": runs, "metrics": rows}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"spread-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
