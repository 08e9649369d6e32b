"""ramseyforge benchmark.

    python3 perfbench/run.py --workload {sweep,certify,adhoc} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all      # the three workloads, one fresh process each

Run from the repository root; the package is imported from ./src, never from
an installed copy.  Each run sets up (import, input generation, one warm-up
call), runs the workload's untimed warm batches, then whole timed batches of
its ops in a closed loop until at least --seconds of batch time has passed,
and checks every output with the correctness gate (gate.py).  Human-readable
lines go to stderr; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics; --trace 1 runs the warm batches, one untraced and one traced batch,
and reports the per-layer metrics: all of them on stderr and in
perfbench/out/trace-<workload>-<seed>.jsonl with the spans, the subset
tracing.RESULT_LINE on the result line.  The exit code is 1 when the gate
fails.
"""
import time

T0 = time.perf_counter()  # set-up is timed from here, before the heavy imports

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")
LAYERS = ("cli", "certify", "graphs", "exactmetrics", "spectral", "algebra")
NAMES = ("sweep", "certify", "adhoc")
# set-up is timed in this process and in this many fresh ones; the median is reported
SETUP_PROBES = 4

# One BLAS thread unless the caller sets it.  With OpenBLAS's default of one
# thread per CPU, one n=1640 eigvalsh on a shared 2-vCPU box took 0.5 to 12 s
# from run to run; with one thread it took 0.5 s every time.  Must be set
# before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

sys.path.insert(0, HERE)
import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_package():
    init = os.path.join(SRC, "ramseyforge", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: package source not found at {init}; run from the repository root")
    sys.path.insert(0, SRC)
    rf = types.SimpleNamespace(**{n: importlib.import_module(f"ramseyforge.{n}") for n in LAYERS})
    if os.path.dirname(os.path.dirname(os.path.abspath(rf.cli.__file__))) != SRC:
        raise SystemExit(f"error: ramseyforge was imported from {rf.cli.__file__}, not {SRC}")
    return rf


def set_up(name, seed):
    """Import, generate inputs and warm up; returns (workload, seconds)."""
    rf = import_package()
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[name](rf, OUT, seed)
    warm = workloads.run_cli(rf.cli, workloads.WARM_UP_CALL)
    if warm["exit"] != 0:
        raise SystemExit(f"error: warm-up call failed: {warm['error'] or warm['stderr']}")
    return wl, time.perf_counter() - T0


def check(name, wl, batch, reference) -> gate.Verdict:
    if name == "sweep":
        return gate.check_sweep(batch, reference)
    if name == "certify":
        return gate.check_certify(batch["records"], reference)
    return gate.check_adhoc(batch["records"], wl.ops)


def probe_setup(name, seed) -> float:
    """Set-up time of a fresh process running this script with --setup-probe."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def end_to_end_metrics(walls, setups, peak_rss_mb, verdict) -> dict:
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "ok_share": {"value": 1.0 - verdict.failed / verdict.attempted, "unit": "share"},
    }


def report(name, verdict, lines) -> None:
    for line in lines:
        print(f"[{name}] {line}", file=sys.stderr)
    for item in verdict.known:
        print(f"[{name}] expected failure: {item}", file=sys.stderr)
    for item in verdict.problems:
        print(f"[{name}] WRONG OUTPUT: {item}", file=sys.stderr)
    print(f"[{name}] correctness gate: {'pass' if verdict.correct else 'FAIL'}", file=sys.stderr)


def run_untraced(name, seed, seconds, wl, setup_s, reference) -> tuple:
    warm = [wl.run_batch() for _ in range(wl.warm_batches)]
    batches = []
    while sum(b["wall_s"] for b in batches) < seconds or not batches:
        batches.append(wl.run_batch())
    # read before any check runs, so the oracles' arrays do not count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [b["wall_s"] for b in batches]
    verdict = gate.Verdict()
    for batch in warm + batches:
        verdict.merge(check(name, wl, batch, reference))
    setups = [setup_s] + [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    metrics = end_to_end_metrics(walls, setups, peak_rss_mb, verdict)
    ops = verdict.attempted // (len(warm) + len(walls))
    report(name, verdict, [
        f"{len(walls)} timed batch(es) after {len(warm)} warm one(s) of {ops} ops, closed loop, one process, "
        + ", ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS),
        f"wall_s {metrics['wall_s']['value']:.3f} s (median of {len(walls)}: "
        + ", ".join(f"{w:.3f}" for w in walls) + ")",
        f"setup_s {metrics['setup_s']['value']:.3f} s (median of "
        + ", ".join(f"{s:.3f}" for s in setups) + ")",
        f"peak_rss_mb {peak_rss_mb:.1f} MB",
        f"failed_share {verdict.failed}/{verdict.attempted} = {verdict.failed / verdict.attempted:.4f}"
        f" (ok_share {metrics['ok_share']['value']:.4f})",
    ])
    return verdict, metrics


def run_traced(name, seed, wl, reference) -> tuple:
    verdict = gate.Verdict()
    for _ in range(wl.warm_batches):
        verdict.merge(check(name, wl, wl.run_batch(), reference))
    untraced = wl.run_batch()
    verdict.merge(check(name, wl, untraced, reference))
    tracer = tracing.Tracer()
    tracer.install()
    origin = time.perf_counter()
    try:
        traced = wl.run_batch()
    finally:
        tracer.uninstall()
    traced_verdict = check(name, wl, traced, reference)
    overhead = traced["wall_s"] - untraced["wall_s"]
    layer = tracing.per_layer_metrics(tracer.spans, traced_verdict.attempted, overhead)
    top = tracing.top_layer(tracer.spans, name)
    path = os.path.join(OUT, f"trace-{name}-{seed}.jsonl")
    tracing.write_jsonl(path, tracer.spans, origin, {
        "workload": name, "seed": seed, "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced["wall_s"], "top": top,
        "metrics": {k: v for k, (v, _) in layer.items()},
    })
    verdict.merge(traced_verdict)
    lines = [
        f"traced wall_s {traced['wall_s']:.3f} s, untraced {untraced['wall_s']:.3f} s, "
        f"{len(tracer.spans)} spans -> {os.path.relpath(path, ROOT)}",
        "self time by layer: " + ", ".join(f"{k} {v:.3f} s" for k, v in top["layer_self_s"].items()),
        f"most self time: {top['layer']} ({top['function']}); expected {top['expected']}: "
        + ("matches" if top["matches"] else "DOES NOT MATCH"),
    ]
    lines += [f"{k} = {v:.6g} {unit}" for k, (v, unit) in layer.items()]
    report(name, verdict, lines)
    return verdict, {k: {"value": layer[k][0], "unit": layer[k][1]} for k in tracing.RESULT_LINE}


def run_all(args) -> int:
    """Each workload in a fresh process; exit 1 if any of them fails."""
    status = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False}
        print(json.dumps({"workload": name, **result}))
        status = status or proc.returncode or not result["correct"]
    return 1 if status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    wl, setup_s = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    reference = gate.load_reference(args.workload) if args.workload != "adhoc" else None
    if args.trace:
        verdict, metrics = run_traced(args.workload, args.seed, wl, reference)
    else:
        verdict, metrics = run_untraced(args.workload, args.seed, args.seconds, wl, setup_s, reference)
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }))
    return 0 if verdict.correct else 1


if __name__ == "__main__":
    sys.exit(main())
