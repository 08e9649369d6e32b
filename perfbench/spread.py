"""Run the benchmark over several seeds and report each end-to-end metric's
median and spread (interquartile range over median).

    python3 perfbench/spread.py --workload adhoc --seeds 1-10 [--json out.json]

Run from the repository root.  Each run is a fresh process of run.py with
BENCHMARK.json's run_seconds; a run that fails or prints an incorrect result
stops the script.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def environment() -> dict:
    """What the numbers depend on: interpreter, numpy and its BLAS, CPUs."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else "unknown",
    }


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--json", help="write the values, medians and spreads here")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
        if proc.returncode or not result.get("correct"):
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.4f}" for k, v in values.items())
              + f" ({time.perf_counter() - start:.0f} s)", flush=True)
    summary = {}
    for name, vals in values.items():
        s = spread(vals)
        summary[name] = {"median": statistics.median(vals), "spread": s, "bound": bounds[name], "values": vals}
        print(f"{name}: median {statistics.median(vals):.4f}, spread {s:.4f} "
              f"({s / bounds[name]:.2f} of bound {bounds[name]})")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds, "run_seconds": bench["run_seconds"],
                       "environment": environment(), "metrics": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
