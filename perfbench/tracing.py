"""Span recorders for the traced run, kept in the benchmark's own files.

``Tracer.install`` wraps the package's public functions wherever a module
binds them (``ramseyforge.certify.build_non_euclidean``,
``ramseyforge.exactmetrics.triangle_count`` and so on), so every call made
through a module attribute opens a span; ``uninstall`` puts the originals back.
A span records its name, start, end, parent and thread, plus counts taken from
the call's arguments and result.  Spans stay in memory until the run ends.

A span opened on a worker thread with nothing open on that thread gets the
innermost span open on the main thread as its parent: that is the sweep's
``run_sweep`` waiting on its pool.  A span's self time is its duration minus
the union of its children's intervals, so time a parent spends waiting on
worker threads is not counted as its own.  Times summed over spans of two
threads can exceed the wall time.
"""
import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "certify", "graphs", "exactmetrics", "spectral", "algebra")
TARGETS = {
    "cli": ("main",),
    "certify": (
        "run_sweep", "verify_circle_lemma", "verify_girth_diameter", "verify_degree_formula",
        "verify_main_theorem", "verify_mt1", "verify_code_graphs", "ramsey_certificate",
        "certificate_to_json",
    ),
    "graphs": (
        "build_family", "build_euclidean", "build_non_euclidean", "build_code_graph_bch",
        "build_code_graph_alon", "graph_from_edges", "export_graph",
    ),
    "exactmetrics": (
        "metrics_report", "triangle_count", "girth", "diameter", "eccentricity_uniformity_check",
        "connected_components", "exact_independence", "exact_toughness",
        "exact_max_cut_and_bisection",
    ),
    "spectral": ("dense_spectrum", "cayley_spectrum_abelian"),
    # the algebra functions other layers call
    "algebra": (
        "is_odd_prime", "quadratic_character", "find_nonsquare", "modular_sqrts", "gf2k_pow",
        "predicted_intersections", "predicted_intersections_null",
    ),
}
BUILDERS = {
    "graphs.build_euclidean": "euclidean",
    "graphs.build_non_euclidean": "noneuclidean",
    "graphs.build_code_graph_bch": "bch",
    "graphs.build_code_graph_alon": "alon",
    "graphs.graph_from_edges": "adhoc",
}
BFS = ("exactmetrics.girth", "exactmetrics.diameter",
       "exactmetrics.eccentricity_uniformity_check", "exactmetrics.connected_components")
# The per-layer metrics the result line carries (BENCHMARK.json's per_layer):
# those every workload exercises, so that none is a time reading 0 on every
# run of some workload.  The others -- builder self time per family, toughness,
# cut, character spectra, algebra and cli self time -- only matter on some
# workloads; they go to stderr and the span file.
RESULT_LINE = (
    "graphs.build_calls", "graphs.edges_built", "graphs.self_s", "certify.builds_per_row",
    "exactmetrics.triangles_s", "exactmetrics.triangle_calls", "exactmetrics.triangles_bytes_computed",
    "exactmetrics.bfs_s", "exactmetrics.bfs_calls", "exactmetrics.independence_s",
    "exactmetrics.independence_nodes", "exactmetrics.independence_inexact", "exactmetrics.self_s",
    "spectral.dense_s", "spectral.dense_calls", "spectral.dense_n3_computed",
    "spectral.character_calls", "spectral.self_s", "algebra.calls",
    "certify.self_s", "certify.serialize_s", "certify.bytes_out",
    "trace.overhead_s", "trace.spans",
)
# Layer expected to have the most self time, and for certify the function in it.
EXPECTED_TOP = {
    "sweep": ("graphs", None),
    "certify": ("exactmetrics", "exactmetrics.triangle_count"),
    "adhoc": ("exactmetrics", None),
}


def _counts(name, args, result) -> dict:
    """Work counts for one call, from its arguments and result."""
    if name in BUILDERS:
        return {"edges": result.num_edges}
    if name == "exactmetrics.triangle_count":
        g = args[0]
        return {"bytes": 2 * g.num_edges * ((g.n + 63) // 64) * 8}
    if name == "exactmetrics.exact_independence":
        return {"nodes": result.nodes, "inexact": int(not result.exact)}
    if name == "spectral.dense_spectrum":
        return {"n3": result.n ** 3}
    if name == "certify.certificate_to_json":
        return {"bytes": len(result.encode())}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread, counts)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = tracer._main_stack[-1]
                except IndexError:
                    parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(stack, (sid, name, start, time.perf_counter(), parent, {}))
                raise
            end = time.perf_counter()
            tracer._close(stack, (sid, name, start, end, parent, _counts(name, args, result)))
            return result

        return span

    def _close(self, stack, span) -> None:
        stack.pop()
        sid, name, start, end, parent, counts = span
        self.spans.append((sid, name, start, end, parent, threading.get_ident(), counts))

    def install(self, package: str = "ramseyforge") -> None:
        modules = [m for k, m in sorted(sys.modules.items()) if k == package or k.startswith(package + ".")]
        for layer, names in TARGETS.items():
            home = sys.modules[f"{package}.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, obj in list(vars(mod).items()):
                        if obj is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


def _union_length(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _union_length(children.get(sid, ()), start, end)
        for sid, _, start, end, _, _, _ in spans
    }


def per_layer_metrics(spans, ops: int, overhead_s: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}; RESULT_LINE names a subset."""
    selfs = self_times(spans)
    fn_self = defaultdict(float)
    calls = Counter()
    counts = Counter()
    for sid, name, _, _, _, _, c in spans:
        fn_self[name] += selfs[sid]
        calls[name] += 1
        for key, value in c.items():
            counts[f"{name}:{key}"] += value
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in fn_self.items():
        layer_self[name.split(".")[0]] += value
    builds = sum(calls[name] for name in BUILDERS)
    m = {}
    for name, kind in BUILDERS.items():
        m[f"graphs.build_s.{kind}"] = (fn_self[name], "s")
    m["graphs.build_calls"] = (builds, "count")
    m["graphs.edges_built"] = (sum(counts[f"{name}:edges"] for name in BUILDERS), "count")
    m["graphs.self_s"] = (layer_self["graphs"], "s")
    m["certify.builds_per_row"] = (builds / max(1, ops), "ratio")
    m["exactmetrics.triangles_s"] = (fn_self["exactmetrics.triangle_count"], "s")
    m["exactmetrics.triangle_calls"] = (calls["exactmetrics.triangle_count"], "count")
    m["exactmetrics.triangles_bytes_computed"] = (counts["exactmetrics.triangle_count:bytes"], "bytes")
    m["exactmetrics.bfs_s"] = (sum(fn_self[name] for name in BFS), "s")
    m["exactmetrics.bfs_calls"] = (sum(calls[name] for name in BFS), "count")
    m["exactmetrics.independence_s"] = (fn_self["exactmetrics.exact_independence"], "s")
    m["exactmetrics.independence_nodes"] = (counts["exactmetrics.exact_independence:nodes"], "count")
    m["exactmetrics.independence_inexact"] = (counts["exactmetrics.exact_independence:inexact"], "count")
    m["exactmetrics.toughness_s"] = (fn_self["exactmetrics.exact_toughness"], "s")
    m["exactmetrics.cut_s"] = (fn_self["exactmetrics.exact_max_cut_and_bisection"], "s")
    m["exactmetrics.self_s"] = (layer_self["exactmetrics"], "s")
    m["spectral.dense_s"] = (fn_self["spectral.dense_spectrum"], "s")
    m["spectral.dense_calls"] = (calls["spectral.dense_spectrum"], "count")
    m["spectral.dense_n3_computed"] = (counts["spectral.dense_spectrum:n3"], "count")
    m["spectral.character_s"] = (fn_self["spectral.cayley_spectrum_abelian"], "s")
    m["spectral.character_calls"] = (calls["spectral.cayley_spectrum_abelian"], "count")
    m["spectral.self_s"] = (layer_self["spectral"], "s")
    m["algebra.s"] = (layer_self["algebra"], "s")
    m["algebra.calls"] = (sum(v for k, v in calls.items() if k.startswith("algebra.")), "count")
    m["certify.self_s"] = (layer_self["certify"], "s")
    m["certify.serialize_s"] = (fn_self["certify.certificate_to_json"], "s")
    m["certify.bytes_out"] = (counts["certify.certificate_to_json:bytes"], "bytes")
    m["cli.self_s"] = (layer_self["cli"], "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.spans"] = (len(spans), "count")
    return m


def top_layer(spans, workload: str) -> dict:
    """The layer (and function) with the most self time, against EXPECTED_TOP."""
    selfs = self_times(spans)
    layer_self, fn_self = defaultdict(float), defaultdict(float)
    for sid, name, *_ in spans:
        layer_self[name.split(".")[0]] += selfs[sid]
        fn_self[name] += selfs[sid]
    layer = max(layer_self, key=layer_self.get) if layer_self else None
    in_layer = {k: v for k, v in fn_self.items() if layer and k.startswith(layer + ".")}
    function = max(in_layer, key=in_layer.get) if in_layer else None
    want_layer, want_fn = EXPECTED_TOP[workload]
    return {
        "layer": layer,
        "function": function,
        "layer_self_s": dict(sorted(layer_self.items(), key=lambda kv: -kv[1])),
        "expected": want_fn or want_layer,
        "matches": layer == want_layer and (want_fn is None or function == want_fn),
    }


def write_jsonl(path, spans, origin, summary) -> None:
    selfs = self_times(spans)
    threads = {}
    with open(path, "w", encoding="utf-8") as fh:
        for sid, name, start, end, parent, thread, counts in spans:
            rec = {
                "id": sid, "name": name, "start": start - origin, "end": end - origin,
                "self": selfs[sid], "parent": parent,
                "thread": threads.setdefault(thread, len(threads)),
            }
            rec.update(counts)
            fh.write(json.dumps(rec) + "\n")
        fh.write(json.dumps({"summary": summary}) + "\n")
