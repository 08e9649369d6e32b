"""The three benchmark workloads: their inputs and the closed loop that runs them.

Every op runs in this process and the next op starts only after the previous
one returns.  The program sees only the generated inputs; the seed stays here.

* ``sweep``   one ``ramseyforge sweep`` call over all four families, q in
              [3, 61] and ks (2, 3, 4); one op is one sweep row.  The inputs
              are fixed, so the seed does not apply.
* ``certify`` 29 single-certificate CLI calls in a seed-shuffled order.
* ``adhoc``   seeded ``graph_from_edges`` graphs (family None), which take the
              generic all-roots and dense-spectrum paths.

Functions of the package are always looked up as module attributes at call
time, so the span recorders in ``tracing`` see every call.
"""
import contextlib
import ctypes
import ctypes.util
import io
import json
import os
import random
import shutil
import time
import traceback

SWEEP_CONFIG = {
    "q_min": 3,
    "q_max": 61,
    "families": ["euclidean", "noneuclidean", "bch", "alon"],
    "ks": [2, 3, 4],
}
SWEEP_MAX_THREADS = 2

CERTIFY_CALLS = (
    [["verify", "--suite", "main", "--q", str(q)] for q in (7, 19, 31, 43, 67, 79, 103, 127, 139)]
    + [["verify", "--suite", "mt1", "--q", str(q)] for q in (17, 29, 41)]
    + [["verify", "--suite", "code", "--k", str(k)] for k in (2, 3, 4, 5, 6)]
    + [["verify", "--suite", "circles", "--q", str(q)] for q in (13, 31)]
    + [
        ["verify", "--suite", "degree", "--q", "31", "--m", "3"],
        ["verify", "--suite", "girth-diameter", "--q", "101"],
        ["certify-ramsey", "--family", "euclidean", "--q", "7"],
        ["certify-ramsey", "--family", "euclidean", "--q", "11"],
        ["certify-ramsey", "--family", "euclidean", "--q", "103"],
        ["certify-ramsey", "--family", "noneuclidean", "--q", "41", "--sigma", "3", "--a", "6"],
        ["certify-ramsey", "--family", "bch", "--k", "3"],
        ["certify-ramsey", "--family", "bch", "--k", "7"],
        ["certify-ramsey", "--family", "alon", "--k", "2"],
        ["certify-ramsey", "--family", "alon", "--k", "4"],
    ]
)

# Same call for every workload: it pays the first-eigvalsh BLAS start-up and
# the first bitset triangle count before anything is timed.
WARM_UP_CALL = ["certify-ramsey", "--family", "noneuclidean", "--q", "17", "--sigma", "3", "--a", "6"]


def call_id(argv) -> str:
    return " ".join(argv)


def run_cli(cli, argv) -> dict:
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    record = {"op": call_id(argv), "exit": None, "stdout": "", "stderr": "", "error": None}
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            record["exit"] = cli.main(argv)
    except SystemExit as exc:
        record["exit"] = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an op that raises is recorded as failed, the loop goes on
        record["error"] = traceback.format_exc(limit=3)
    record["seconds"] = time.perf_counter() - start
    record["stdout"], record["stderr"] = out.getvalue(), err.getvalue()
    return record


def sweep_threads() -> int:
    """Pool size for the sweep: 2, never above the CPUs this process may use."""
    return max(1, min(SWEEP_MAX_THREADS, len(os.sched_getaffinity(0))))


class SweepWorkload:
    name = "sweep"
    warm_batches = 0

    def __init__(self, rf, out_root, seed):
        del seed  # the sweep inputs are fixed
        self.rf = rf
        self.out_root = out_root
        self.batches = 0

    def run_batch(self) -> dict:
        """One sweep into a fresh directory, kept until the gate has read it."""
        self.batches += 1
        out_dir = os.path.join(self.out_root, f"sweep-{self.batches}")
        shutil.rmtree(out_dir, ignore_errors=True)
        config_path = out_dir + ".json"
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(dict(SWEEP_CONFIG, out_dir=out_dir, threads=sweep_threads()), fh)
        start = time.perf_counter()
        record = run_cli(self.rf.cli, ["sweep", "--config", config_path])
        wall = time.perf_counter() - start
        return {"wall_s": wall, "records": [record], "out_dir": out_dir}


def _heap_trimmer():
    """glibc's malloc_trim, or a no-op where the C library has none."""
    try:
        trim = ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError, TypeError):
        return lambda: None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return lambda: trim(0)


class CertifyWorkload:
    name = "certify"
    # The first batch in a process ran 24-28 s and later ones 18-21 s (ALON_5
    # alone 14-15 s against 10 s): first-touch cost of the memory behind
    # 51 GB of bitset work, which varied with the machine's memory state.
    warm_batches = 1

    def __init__(self, rf, out_root, seed):
        del out_root
        self.rf = rf
        self.calls = [list(argv) for argv in CERTIFY_CALLS]
        random.Random(seed).shuffle(self.calls)
        self.trim_heap = _heap_trimmer()

    def run_batch(self) -> dict:
        """Each call starts from a trimmed heap, as a fresh CLI process would.
        Without the trim, the ALON_5 triangle count took 12 s or 18 s
        depending on which calls ran before it in the process."""
        start = time.perf_counter()
        records = []
        for argv in self.calls:
            self.trim_heap()
            records.append(run_cli(self.rf.cli, argv))
        return {"wall_s": time.perf_counter() - start, "records": records}


# --- adhoc inputs ----------------------------------------------------------------

# Op counts, sizes and order are fixed and the seed picks the graphs, so the
# total work, and so wall_s and peak_rss_mb, vary little from seed to seed.
ADHOC_TFREE = 32       # maximal random triangle-free graphs, n in [40, 100]
ADHOC_TINY = 12        # toughness, cut and alpha, n in [10, 16]
ADHOC_CUT = 6          # cut and alpha, n in [17, 20]
ADHOC_CIRCULANT = 6    # sum-free circulants of degree 16, n in [300, 2000]
ADHOC_TRIANGLES = 3    # graphs with a planted triangle, n in [40, 100]
CIRCULANT_DEGREE = 16


def _grid(lo, hi, count):
    """count sizes evenly spread over [lo, hi], both ends included."""
    return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]


def _maximal_triangle_free_edges(rng, n):
    """Random triangle-free process: take every pair in random order as an
    edge unless it closes a triangle."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    nbr = [0] * n
    edges = []
    for u, v in pairs:
        if nbr[u] & nbr[v]:
            continue
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
        edges.append((u, v))
    return edges


def _random_edges(rng, n, p):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _sum_free_set(rng, n, target):
    """Symmetric S in Z_n with no s + t = u inside S; the circulant is triangle-free."""
    chosen = set()
    candidates = list(range(1, (n - 1) // 2 + 1))
    rng.shuffle(candidates)
    for s in candidates:
        if len(chosen) >= target:
            break
        trial = chosen | {s, n - s}
        if any((a + b) % n in trial for a in trial for b in trial):
            continue
        chosen = trial
    return sorted(chosen)


def adhoc_inputs(seed: int) -> list:
    """The adhoc op list for a seed: dicts with kind, n and edges (plus the
    connection set for circulants).  Same seed, same list."""
    rng = random.Random(seed)
    ops = []
    for n in _grid(40, 100, ADHOC_TFREE):
        ops.append({"kind": "tfree", "n": n, "edges": _maximal_triangle_free_edges(rng, n)})
    for n in _grid(10, 16, ADHOC_TINY):
        ops.append({"kind": "tiny", "n": n, "edges": _random_edges(rng, n, rng.uniform(0.2, 0.45))})
    for n in _grid(17, 20, ADHOC_CUT):
        ops.append({"kind": "cut", "n": n, "edges": _random_edges(rng, n, rng.uniform(0.2, 0.45))})
    for n in _grid(300, 2000, ADHOC_CIRCULANT):
        conn = _sum_free_set(rng, n, CIRCULANT_DEGREE)
        edges = [(v, (v + s) % n) for v in range(n) for s in conn if 2 * s < n]
        ops.append({"kind": "circulant", "n": n, "edges": edges, "conn": conn})
    for n in _grid(40, 100, ADHOC_TRIANGLES):
        edges = _random_edges(rng, n, rng.uniform(0.05, 0.12)) + [(0, 1), (1, 2), (0, 2)]
        ops.append({"kind": "triangles", "n": n, "edges": edges})
    for i, op in enumerate(ops):
        op["id"] = f"{i:02d}-{op['kind']}-n{op['n']}"
    return ops


# Steps per kind, in order; an op stops at its first step that raises.
ADHOC_STEPS = {
    "tfree": ("metrics", "independence", "ramsey", "serialize"),
    "tiny": ("toughness", "cut", "independence"),
    "cut": ("cut", "independence"),
    "circulant": ("metrics", "ramsey", "serialize", "dimacs", "edge-jsonl"),
    "triangles": ("metrics", "ramsey"),
}


def run_adhoc_op(rf, op) -> dict:
    """Build one graph and take it through its kind's pipeline."""
    results = {}
    record = {"op": op["id"], "results": results, "error": None, "failed_step": None}
    start = time.perf_counter()
    step = "build"
    try:
        g = rf.graphs.graph_from_edges(op["n"], op["edges"])
        cert = None
        for step in ADHOC_STEPS[op["kind"]]:
            if step == "metrics":
                results[step] = rf.exactmetrics.metrics_report(g)
            elif step == "independence":
                results[step] = rf.exactmetrics.exact_independence(g)
            elif step == "toughness":
                results[step] = rf.exactmetrics.exact_toughness(g)
            elif step == "cut":
                results[step] = rf.exactmetrics.exact_max_cut_and_bisection(g)
            elif step == "ramsey":
                cert = rf.certify.ramsey_certificate(g)
                results[step] = cert
            elif step == "serialize":
                results[step] = rf.certify.certificate_to_json(cert)
            elif step == "dimacs":
                results[step] = rf.graphs.export_graph(g, "dimacs")
            else:
                results[step] = rf.graphs.export_graph(g, "edge-jsonl")
    except Exception as exc:  # the gate decides whether this was expected
        record["error"] = exc
        record["failed_step"] = step
    record["seconds"] = time.perf_counter() - start
    return record


class AdhocWorkload:
    name = "adhoc"
    warm_batches = 0

    def __init__(self, rf, out_root, seed):
        del out_root
        self.rf = rf
        self.ops = adhoc_inputs(seed)

    def run_batch(self) -> dict:
        start = time.perf_counter()
        records = [run_adhoc_op(self.rf, op) for op in self.ops]
        return {"wall_s": time.perf_counter() - start, "records": records}


WORKLOADS = {w.name: w for w in (SweepWorkload, CertifyWorkload, AdhocWorkload)}
