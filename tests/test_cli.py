"""End-to-end tests of the command-line interface, via subprocess except
where a test calls ``main`` in-process to time it or to run many examples."""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramseyforge
from ramseyforge import certify, cli, graphs, limits
from ramseyforge.algebra import find_nonsquare
from ramseyforge.certify import jsonable
from ramseyforge.cli import main
from ramseyforge.errors import SizeLimitExceeded
from ramseyforge.exactmetrics import metrics_report
from ramseyforge.graphs import FamilySpec, build_family, distance_classes, distance_quotient
from ramseyforge.spectral import cayley_spectrum_abelian, dense_spectrum, quotient_spectrum

BASE = [sys.executable, "-m", "ramseyforge"]
# the subprocess imports the package from where this process found it
PACKAGE_ROOT = os.path.dirname(os.path.dirname(ramseyforge.__file__))


def run(*args, env=None, base=BASE, **kw):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        base + list(args), capture_output=True, text=True, timeout=300, env=env, **kw
    )


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_dimacs_to_stdout():
    res = run("build", "--family", "euclidean", "--q", "3", "--a", "1")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "p edge 9 18"
    assert len([l for l in lines if l.startswith("e ")]) == 18


def test_build_edge_jsonl():
    res = run(
        "build", "--family", "bch", "--k", "2", "--format", "edge-jsonl",
    )
    assert res.returncode == 0
    rows = [json.loads(l) for l in res.stdout.splitlines()]
    assert len(rows) == 24
    assert all(set(r) == {"u", "v", "pu", "pv"} for r in rows)


def test_build_to_file(tmp_path):
    out = tmp_path / "g.col"
    res = run(
        "build", "--family", "euclidean", "--q", "5", "--out", str(out),
    )
    assert res.returncode == 0
    assert out.read_text().splitlines()[0] == "p edge 25 50"


# ---------------------------------------------------------------------------
# stats and spectrum
# ---------------------------------------------------------------------------

def test_stats_euclidean_q7():
    res = run("stats", "--family", "euclidean", "--q", "7")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert list(doc) == [
        "family", "n", "degree", "girth", "diameter", "triangles", "components",
        "is_vertex_transitive_assumed",
    ]
    assert doc["girth"] == 4
    assert doc["diameter"] == 3
    assert doc["triangles"] == 0
    assert doc["n"] == 49 and doc["degree"] == 8


def _stats_grid():
    """Every valid a for q <= 13 in both geometric families, D_5^3(1), BCH_2..4
    and ALON_2 and ALON_4 (ALON_2 is disconnected)."""
    for q in (3, 5, 7, 11, 13):
        sigma = find_nonsquare(q)
        for a in range(1, q):
            yield FamilySpec(kind="euclidean", q=q, a=a)
            if a != 4 * sigma % q:
                yield FamilySpec(kind="noneuclidean", q=q, sigma=sigma, a=a)
    yield FamilySpec(kind="euclidean", q=5, m=3, a=1)
    yield from (FamilySpec(kind="bch", k=k) for k in (2, 3, 4))
    yield from (FamilySpec(kind="alon", k=k) for k in (2, 4))


def _spec_argv(spec):
    return ["--family", spec.kind, *[str(arg) for f, v in spec.to_dict().items() if f != "kind"
                                     for arg in (f"--{f}", v)]]


@pytest.mark.parametrize("spec", list(_stats_grid()), ids=FamilySpec.label)
def test_stats_reads_the_record_as_the_built_graph_would(capsys, spec):
    # stats reads the distance-class quotient of the certificate record; the
    # built graph's trivial quotient, through metrics_report, is the oracle
    want = {"family": spec.to_dict(), **dataclasses.asdict(metrics_report(build_family(spec)))}
    assert main(["stats", *_spec_argv(spec)]) == 0
    assert capsys.readouterr() == (json.dumps(jsonable(want), indent=2) + "\n", "")


@pytest.mark.parametrize("argv, max_n, refusal", [
    (["--family", "euclidean", "--q", "11"], "100", "graph on 11^2 vertices exceeds RAMSEY_FORGE_MAX_N = 100"),
    (["--family", "noneuclidean", "--q", "13"], "100", "graph on 156 vertices exceeds RAMSEY_FORGE_MAX_N = 100"),
    (["--family", "bch", "--k", "4"], "100", "graph on 256 vertices exceeds RAMSEY_FORGE_MAX_N = 100"),
    (["--family", "alon", "--k", "4"], "1000", "graph on 4096 vertices exceeds RAMSEY_FORGE_MAX_N = 1000"),
], ids=[f"{label}-max_n" for label in ("D_q", "V_q", "BCH", "ALON")])
def test_stats_refuses_where_the_build_would(capsys, monkeypatch, argv, max_n, refusal):
    # the record refuses past the vertex limit in the words of the build
    monkeypatch.setenv("RAMSEY_FORGE_MAX_N", max_n)
    for command in ("stats", "build"):
        assert main([command, *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {refusal}\n")


@pytest.mark.parametrize("family, suites, matrix", [
    (["--family", "euclidean", "--q", "19"],
     [["--suite", "main", "--q", "19"], ["--suite", "girth-diameter", "--q", "19"]], "361*20 = 7220"),
    (["--family", "noneuclidean", "--q", "17", "--sigma", "3", "--a", "6"],
     [["--suite", "mt1", "--q", "17"], ["--suite", "girth-diameter", "--family", "noneuclidean", "--q", "17"]],
     "272*18 = 4896"),
    (["--family", "bch", "--k", "4"], [["--suite", "code", "--k", "4"]], "256*15 = 3840"),
    (["--family", "alon", "--k", "4"], [["--suite", "code", "--k", "4"]], "4096*56 = 229376"),
], ids=["D_19(1)", "V_17(3,6)", "BCH_4", "ALON_4"])
def test_neighbor_entry_limit_refuses_only_the_build(capsys, monkeypatch, family, suites, matrix):
    # limits.MAX_NEIGHBOR_ENTRIES bounds the (n, |S|) matrix a build
    # allocates.  These graphs are past limits.VERIFY_ALPHA_CAP, so no other
    # command builds them, and with the lever at 0 each answers as at the
    # default: same stdout, stderr and exit code
    argvs = [[command, *family] for command in ("stats", "spectrum", "certify-ramsey")]
    argvs += [["verify", *suite] for suite in suites]

    def answers():
        return [(main(argv), capsys.readouterr()) for argv in argvs]

    at_default = answers()
    assert all(out and not err for _, (out, err) in at_default)
    monkeypatch.setattr(limits, "MAX_NEIGHBOR_ENTRIES", 0)
    assert answers() == at_default
    assert main(["build", *family]) == 2
    assert capsys.readouterr() == (
        "", f"error: neighbor matrix of n*d = {matrix} entries exceeds limits.MAX_NEIGHBOR_ENTRIES = 0\n"
    )


def test_only_build_builds_a_graph(capsys, monkeypatch, tmp_path):
    calls = []

    def spy(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(f"{module.__name__}.{name}") or original(*a))

    spy(cli, "build_family")
    spy(graphs, "_cayley_graph")
    spy(certify, "_cayley_graph")
    for family in (["--family", "euclidean", "--q", "7"], ["--family", "noneuclidean", "--q", "7"],
                   ["--family", "bch", "--k", "3"], ["--family", "alon", "--k", "2"]):
        for command in ("stats", "spectrum"):
            assert main([command, *family]) == 0
            assert calls == [], (command, family)
        assert main(["build", *family, "--out", str(tmp_path / "g.col")]) == 0
        assert calls == ["ramseyforge.cli.build_family", "ramseyforge.graphs._cayley_graph"], family
        calls.clear()
        capsys.readouterr()  # the three payloads, read so that none is echoed


def test_code_stats_builds_nothing_and_traces_o_n_memory(capsys, monkeypatch):
    # a code record reads its walk and triangles from Walsh-Hadamard
    # transforms of S, arrays of n int64; the n x |S| products of every
    # vertex it walked before traced 162 MiB on BCH_8
    def no_build(*args):
        raise AssertionError("stats built a graph")

    monkeypatch.setattr(graphs, "_cayley_graph", no_build)
    monkeypatch.setattr(certify, "_cayley_graph", no_build)
    tracemalloc.start()
    try:
        assert main(["stats", "--family", "bch", "--k", "8"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    doc = json.loads(capsys.readouterr().out)
    assert (doc["n"], doc["degree"], doc["triangles"], doc["components"]) == (1 << 16, 255, 0, 1)
    assert peak < 16 * 2**20, peak


def _sphere_triangles_and_reach(q, m, a):
    """Oracle for D_q^m(a) from its connection set S alone, no quotient: S
    from the definition Q(x) = a, its triangles n #{(s, t) in S x S :
    s - t in S} / 6, and whether S and S + S cover every nonzero vertex."""
    n = q**m
    idx = np.arange(n)
    coords = np.stack([idx // q**i % q for i in range(m)])
    in_s = (coords**2).sum(axis=0) % q == a
    conn, place = coords[:, in_s], q ** np.arange(m)
    closed, reached = 0, in_s.copy()
    reached[0] = True
    for lo in range(0, conn.shape[1], 64):
        block = conn[:, lo:lo + 64, None]
        closed += int(in_s[np.tensordot(place, (block - conn[:, None]) % q, axes=1)].sum())
        reached[np.tensordot(place, (block + conn[:, None]) % q, axes=1)] = True
    return n * closed // 6, bool(reached.all())


def test_stats_d53_cubed_past_the_neighbor_entry_limit(capsys):
    # D_53^3(1) would need 148,877 * 2,862 neighbour entries, past the
    # default limits.MAX_NEIGHBOR_ENTRIES; stats builds nothing, so it answers
    assert 53**3 * 2862 > limits.MAX_NEIGHBOR_ENTRIES
    assert main(["stats", "--family", "euclidean", "--q", "53", "--m", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["n"], doc["degree"], doc["components"]) == (53**3, 2862, 1)
    triangles, within_two = _sphere_triangles_and_reach(53, 3, 1)
    assert doc["triangles"] == triangles == 3_692_745_108
    assert within_two and doc["diameter"] == 2


def test_spectrum_character_route():
    res = run("spectrum", "--family", "bch", "--k", "2")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["method"] == "character-sum"
    assert doc["eigenvalues"][0] == 3.0
    assert doc["eigenvalues"][-1] == -3.0
    assert len(doc["eigenvalues"]) == 16


@pytest.mark.parametrize("family", [
    ("--family", "noneuclidean", "--q", "13", "--sigma", "2", "--a", "1"),
    ("--family", "bch", "--k", "3"),
])
def test_spectrum_defaults_to_the_character_route(family):
    # each family has one route: --method is gone, whatever its value
    default = run("spectrum", *family)
    assert default.returncode == 0 and default.stderr == ""
    want = "class-quotient" if "noneuclidean" in family else "character-sum"
    assert json.loads(default.stdout)["method"] == want
    for method in ("character", "dense", "auto"):
        res = run("spectrum", *family, "--method", method)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("usage: ")
        assert res.stderr.endswith(f"error: unrecognized arguments: --method {method}\n")


def test_spectrum_uses_the_class_quotient_for_half_plane():
    args = ("spectrum", "--family", "noneuclidean", "--q", "5", "--sigma", "2", "--a", "1")
    res = run(*args)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["method"] == "class-quotient"
    assert abs(doc["eigenvalues"][0] - 6.0) < 1e-8
    # the dense route is the library's test oracle, not a CLI route
    dense = dense_spectrum(build_family(FamilySpec(kind="noneuclidean", q=5, sigma=2, a=1)))
    assert len(doc["eigenvalues"]) == dense.n == 20
    assert max(abs(a - b) for a, b in zip(doc["eigenvalues"], dense.eigenvalues.tolist())) < 1e-8


@pytest.mark.parametrize("spec", [
    FamilySpec(kind="euclidean", q=31, a=1), FamilySpec(kind="noneuclidean", q=17),
], ids=FamilySpec.label)
def test_spectrum_reads_the_connection_set_without_a_build(capsys, monkeypatch, spec):
    g = build_family(spec)
    if spec.kind == "noneuclidean":
        want = quotient_spectrum(*distance_quotient(spec, distance_classes(spec), spec.a)[1])
    else:
        want = cayley_spectrum_abelian(g.family, g.neighbors(0))
    want = want.eigenvalues.tolist()
    builds = []
    monkeypatch.setattr(cli, "build_family", lambda s: builds.append(s) or build_family(s))
    argv = ["spectrum", "--family", spec.kind, "--q", str(spec.q)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["eigenvalues"] == want
    assert builds == []


@pytest.mark.parametrize("command", ["spectrum", "stats", "certify-ramsey"])
def test_a_half_plane_command_computes_the_distance_classes_once(monkeypatch, capsys, command):
    # S, the walk, the triangles and the spectrum all read one quotient
    calls, classes = [], graphs._classes
    monkeypatch.setattr(graphs, "_classes", lambda family: calls.append(family) or classes(family))
    assert main([command, "--family", "noneuclidean", "--q", "41", "--sigma", "3", "--a", "6"]) == 0
    capsys.readouterr()
    assert [family.q for family in calls] == [41]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_circles_pass():
    res = run("verify", "--suite", "circles", "--q", "7")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["overall"] == "pass"


def test_verify_circles_bad_field_is_usage_error():
    res = run("verify", "--suite", "circles", "--q", "9")
    assert res.returncode == 2


def test_verify_main_reports_honest_failure():
    res = run("verify", "--suite", "main", "--q", "7")
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    assert doc["overall"] == "fail"
    failing = [c["claim_id"] for c in doc["claims"] if c["status"] == "fail"]
    assert failing == ["edge_corollary"]


def test_verify_main_wrong_residue():
    res = run("verify", "--suite", "main", "--q", "11")
    assert res.returncode == 2


def test_verify_mt1_pass():
    res = run("verify", "--suite", "mt1", "--q", "17")
    assert res.returncode == 0


def test_verify_code_pass():
    res = run("verify", "--suite", "code", "--k", "3")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["overall"] == "pass"


_SUITE_ARGV = {
    "circles": ["--q", "7"],
    "girth-diameter": ["--q", "7"],
    "degree": ["--q", "7"],
    "main": ["--q", "7"],
    "mt1": ["--q", "17"],
    "code": ["--k", "3"],
}
_FLAG_VALUES = {"family": "noneuclidean", "q": "7", "m": "3", "k": "3"}
_UNREAD = {
    "circles": ("family", "m", "k"),
    "girth-diameter": ("m", "k"),
    "degree": ("family", "k"),
    "main": ("family", "m", "k"),
    "mt1": ("family", "m", "k"),
    "code": ("family", "q", "m"),
}


@pytest.mark.parametrize("suite, flag", [(s, f) for s, flags in _UNREAD.items() for f in flags])
def test_verify_refuses_a_selector_its_suite_does_not_read(capsys, suite, flag):
    argv = ["verify", "--suite", suite, *_SUITE_ARGV[suite], f"--{flag}", _FLAG_VALUES[flag]]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: --{flag} is not read by the {suite} suite\n")


_FAMILY_READS = {
    "euclidean": ("q", "m", "a"),
    "noneuclidean": ("q", "a", "sigma"),
    "bch": ("k",),
    "alon": ("k",),
}
_SELECTOR_VALUES = {"q": "5", "m": "2", "a": "1", "sigma": "2", "k": "2"}


def _family_argv(family, flags):
    return ["--family", family, *[arg for f in flags for arg in (f"--{f}", _SELECTOR_VALUES[f])]]


@pytest.mark.parametrize("command", ["build", "stats", "spectrum", "certify-ramsey"])
@pytest.mark.parametrize("family, flag", [
    (family, flag) for family, reads in _FAMILY_READS.items() for flag in _SELECTOR_VALUES if flag not in reads
])
def test_family_commands_refuse_a_selector_the_family_does_not_read(capsys, command, family, flag):
    argv = [command, *_family_argv(family, _FAMILY_READS[family] + (flag,))]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: --{flag} is not read by the {family} family\n")


@pytest.mark.parametrize("family", list(_FAMILY_READS))
def test_stats_accepts_every_selector_its_family_reads(capsys, family):
    assert main(["stats", *_family_argv(family, _FAMILY_READS[family])]) == 0
    assert json.loads(capsys.readouterr().out)["n"] > 0


def test_verify_code_records_a_sum_set_graph_past_the_size_limit():
    # ALON_7 has 8^7 = 2,097,152 vertices; BCH_7 (16,384) is still certified
    env = {k: v for k, v in os.environ.items() if k != "RAMSEY_FORGE_MAX_N"}
    res = run("verify", "--suite", "code", "--k", "7", env=env)
    assert res.returncode == 0, res.stderr
    claims = {c["claim_id"]: c for c in json.loads(res.stdout)["claims"]}
    assert list(claims) == ["bch_regular", "bch_triangle_free", "bch_independence", "alon_skipped"]
    assert all(claims[c]["status"] == "pass" for c in list(claims)[:3])
    skipped = claims["alon_skipped"]
    assert skipped["status"] == "recorded"
    assert skipped["statement"] == "the sum-set graph exceeds the size limits"
    assert skipped["evidence"]["k"]["value"] == 7
    assert skipped["evidence"]["refusal"]["value"] == (
        f"graph on 2097152 vertices exceeds RAMSEY_FORGE_MAX_N = {limits.DEFAULT_MAX_VERTICES}"
    )


def test_verify_code_refuses_when_the_bch_graph_is_past_the_size_limit():
    env = dict(os.environ, RAMSEY_FORGE_MAX_N="1000")
    res = run("verify", "--suite", "code", "--k", "7", env=env)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: graph on 16384 vertices exceeds RAMSEY_FORGE_MAX_N = 1000\n"


@pytest.mark.parametrize("max_n, q, refusal", [
    ("100", 13, "graph on 156 vertices exceeds RAMSEY_FORGE_MAX_N = 100"),
])
def test_halfplane_suite_refuses_where_the_graph_build_would(capsys, monkeypatch, max_n, q, refusal):
    # the suite builds no graph, yet refuses where building V_q(sigma, a) would,
    # in the same words, and before the O(q^3) quotient work starts
    monkeypatch.setenv("RAMSEY_FORGE_MAX_N", max_n)
    start = time.perf_counter()
    code = main(["verify", "--suite", "girth-diameter", "--family", "noneuclidean", "--q", str(q)])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {refusal}\n")
    assert elapsed < 1.0


@pytest.mark.parametrize("argv, refusal", [
    (["verify", "--suite", "main", "--q", "19"], "graph on 19^2 vertices exceeds RAMSEY_FORGE_MAX_N = 100"),
    (["verify", "--suite", "mt1", "--q", "17"], "graph on 272 vertices exceeds RAMSEY_FORGE_MAX_N = 100"),
    (["certify-ramsey", "--family", "euclidean", "--q", "11"],
     "graph on 11^2 vertices exceeds RAMSEY_FORGE_MAX_N = 100"),
])
def test_graphless_certificates_refuse_where_the_build_would(argv, refusal):
    res = run(*argv, env=dict(os.environ, RAMSEY_FORGE_MAX_N="100"))
    assert (res.returncode, res.stdout, res.stderr) == (2, "", f"error: {refusal}\n")


def test_main_suite_refuses_where_its_exact_alpha_build_would(capsys, monkeypatch):
    # D_7(1) has 49 <= limits.VERIFY_ALPHA_CAP vertices, so the main suite
    # builds it for the exact alpha, and that build reads the neighbour
    # entry limit: 49 * 8 entries pass, one fewer refuses in the build's words
    argv = ["verify", "--suite", "main", "--q", "7"]
    monkeypatch.setattr(limits, "MAX_NEIGHBOR_ENTRIES", 49 * 8)
    assert main(argv) == 1  # the known-false edge corollary, as at the default
    assert json.loads(capsys.readouterr().out)["claims"][-1]["claim_id"] == "independence_exact"
    monkeypatch.setattr(limits, "MAX_NEIGHBOR_ENTRIES", 49 * 8 - 1)
    with pytest.raises(SizeLimitExceeded) as built:
        build_family(FamilySpec(kind="euclidean", q=7, a=1))
    assert str(built.value) == (
        "neighbor matrix of n*d = 49*8 = 392 entries exceeds limits.MAX_NEIGHBOR_ENTRIES = 391"
    )
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {built.value}\n")


# ---------------------------------------------------------------------------
# certify-ramsey
# ---------------------------------------------------------------------------

def test_certify_ramsey_pass():
    res = run("certify-ramsey", "--family", "euclidean", "--q", "7")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["ramsey"]["t"] == 15
    assert doc["ramsey"]["n"] == 49


def test_certify_ramsey_alon_7_past_the_default_vertex_limit(capsys, monkeypatch):
    # ALON_7: 8^7 = 2,097,152 vertices of degree 4,032.  Its record holds
    # Walsh-Hadamard arrays of n entries; the build's neighbour matrix would
    # hold n * |S| and stays refused
    monkeypatch.setenv("RAMSEY_FORGE_MAX_N", "2097152")
    argv = ["--family", "alon", "--k", "7"]
    tracemalloc.start()
    try:
        code = main(["certify-ramsey", *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["overall"] == "pass"
    assert (doc["ramsey"]["n"], doc["ramsey"]["t"]) == (2_097_152, 197_845)
    claims = {claim["claim_id"]: claim for claim in doc["claims"]}
    assert claims["triangle_free"]["evidence"]["triangles"]["value"] == 0
    assert peak <= 96 * 2**20, peak

    def no_product(*args):
        raise AssertionError("the build took a product before its size check")

    monkeypatch.setattr(graphs, "_product", no_product)
    assert main(["build", *argv]) == 2
    assert capsys.readouterr() == ("", "error: neighbor matrix of n*d = 2097152*4032 = 8455716864 entries "
                                       "exceeds limits.MAX_NEIGHBOR_ENTRIES = 134217728\n")


def test_certify_ramsey_triangles_exit_one():
    res = run("certify-ramsey", "--family", "euclidean", "--q", "13")
    assert res.returncode == 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_from_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({
        "q_min": 3, "q_max": 5, "families": ["euclidean"],
        "out_dir": str(out),
    }))
    res = run("sweep", "--config", str(cfg))
    assert res.returncode == 0
    assert (out / "summary.csv").exists()
    assert (out / "euclidean_q3_a1.json").exists()
    assert (out / "euclidean_q5_a1.json").exists()


def test_sweep_exit_one_when_a_row_fails(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "q_min": 7, "q_max": 7, "families": ["euclidean"],
        "out_dir": str(tmp_path / "out"),
    }))
    res = run("sweep", "--config", str(cfg))
    assert res.returncode == 1  # q=7 main-theorem cert fails its edge corollary


def test_sweep_threads_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "q_min": 3, "q_max": 5, "families": ["euclidean"],
        "out_dir": str(tmp_path / "a"),
    }))
    r1 = run("sweep", "--config", str(cfg))
    r2 = run(
        "sweep", "--config", str(cfg), "--threads", "3",
        "--out-dir", str(tmp_path / "b"),
    )
    assert r1.returncode == 0 and r2.returncode == 0
    csv_a = (tmp_path / "a" / "summary.csv").read_bytes()
    csv_b = (tmp_path / "b" / "summary.csv").read_bytes()
    assert csv_a == csv_b


def test_sweep_missing_config_is_io_error(tmp_path):
    res = run("sweep", "--config", str(tmp_path / "absent.json"))
    assert res.returncode == 2


@pytest.mark.parametrize(
    "config, key",
    [
        ([1, 2], "object"),
        ({"threads": "4"}, "threads"),
        ({"threads": True}, "threads"),
        ({"threads": 0}, "threads"),
        ({"q_max": "x"}, "q_max"),
        ({"q_min": 3.5}, "q_min"),
        ({"ks": [2, "3"]}, "ks"),
        ({"ks": "23"}, "ks"),
        ({"families": "euclidean"}, "families"),
        ({"residue": {"mod": 0, "value": 1}}, "residue"),
        ({"residue": {"mod": "12", "value": 7}}, "residue"),
        ({"families": ["euclidean", "euclidean"]}, "families"),
        ({"ks": [2, 3, 2]}, "ks"),
    ],
)
def test_sweep_bad_config_is_usage_error(tmp_path, config, key):
    if isinstance(config, dict):
        config = dict(config, out_dir=str(tmp_path / "out"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    res = run("sweep", "--config", str(cfg))
    assert res.returncode == 2
    errors = [line for line in res.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and key in errors[0], res.stderr
    assert not (tmp_path / "out").exists()


def test_bad_vertex_limit_env_is_usage_error(tmp_path):
    env = dict(os.environ, RAMSEY_FORGE_MAX_N="lots")
    res = run("stats", "--family", "euclidean", "--q", "7", env=env)
    assert res.returncode == 2
    assert "error: RAMSEY_FORGE_MAX_N" in res.stderr
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q_max": 5, "out_dir": str(tmp_path / "out")}))
    res = run("sweep", "--config", str(cfg), env=env)
    assert res.returncode == 2
    assert "error: RAMSEY_FORGE_MAX_N" in res.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["stats", "--family", "euclidean"],
    ["verify", "--suite", "degree"],
])
def test_huge_dimension_is_refused_before_the_power(capsys, command):
    # 3^(10^9) has about 477 million digits: the limit check must not form it
    start = time.perf_counter()
    code = main(command + ["--q", "3", "--m", "1000000000"])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: graph on 3^1000000000 vertices exceeds RAMSEY_FORGE_MAX_N = {limits.max_vertices()}\n"
    )
    assert elapsed < 1.0


def test_huge_prime_is_refused_without_trial_division(capsys):
    start = time.perf_counter()
    code = main(["stats", "--family", "euclidean", "--q", "10000000000000061"])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: graph on 10000000000000061^2 vertices exceeds RAMSEY_FORGE_MAX_N = {limits.max_vertices()}\n"
    )
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_unknown_subcommand():
    assert run("frobnicate").returncode == 2


def test_unknown_flag():
    assert run("stats", "--family", "euclidean", "--q", "7", "--zz").returncode == 2


def test_missing_required_selector():
    res = run("stats", "--family", "euclidean")
    assert res.returncode == 2


_REQUIRED_BY_SUITE = {"circles": "q", "girth-diameter": "q", "degree": "q", "main": "q", "mt1": "q", "code": "k"}


@pytest.mark.parametrize("argv, line", [
    pytest.param(argv, f"error: --{flag} is required for the {reader}\n", id=" ".join(argv))
    for argv, flag, reader in [
        (["verify", "--suite", suite], flag, f"{suite} suite") for suite, flag in _REQUIRED_BY_SUITE.items()
    ] + [
        ([command, "--family", family], reads[0], f"{family} family")
        for command in ("build", "stats", "spectrum", "certify-ramsey")
        for family, reads in _FAMILY_READS.items()
    ]
])
def test_missing_required_selector_names_the_flag_and_its_reader(capsys, argv, line):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", line)


def test_a_second_main_call_constructs_no_parser(capsys, monkeypatch):
    # the parser is built once per process, on the first main call
    argv = ["verify", "--suite", "circles", "--q", "7"]
    assert main(argv) == 0
    first = capsys.readouterr()
    constructed = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        constructed.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(argv) == 0
    assert capsys.readouterr() == first
    assert constructed == []
    # and not at import
    probe = "from ramseyforge import cli; print(cli._build_parser.cache_info().currsize)"
    res = run("-c", probe, base=[sys.executable])
    assert (res.returncode, res.stdout) == (0, "0\n"), res.stderr


def test_bad_family_value():
    res = run("stats", "--family", "moebius", "--q", "7")
    assert res.returncode == 2


# ---------------------------------------------------------------------------
# exit codes over arbitrary integer arguments
# ---------------------------------------------------------------------------

# a flag is left out a quarter of the time and half the time a small prime,
# so that many examples build a graph; the rest reach all of [-5, 10^12]
_SMALL = st.sampled_from([3, 5, 7, 13, 17, 19])
_ARG = st.one_of(st.none(), _SMALL, _SMALL, st.integers(-5, 40) | st.integers(-5, 10**12))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["stats", "spectrum", "build", "certify-ramsey", "verify"]))
    if command == "verify":
        suites = ["circles", "girth-diameter", "degree", "main", "mt1", "code"]
        argv = [command, "--suite", draw(st.sampled_from(suites))]
        family = draw(st.sampled_from([None, "euclidean", "noneuclidean"]))
        argv += ["--family", family] if family else []
        flags = ("--q", "--m", "--k")
    else:
        family = draw(st.sampled_from(list(_FAMILY_READS)))
        argv = [command, "--family", family]
        # a selector the family does not read is refused, so it comes one
        # time in eight and most examples still reach the family's own checks
        flags = tuple(
            f"--{f}" for f in _SELECTOR_VALUES if f in _FAMILY_READS[family] or draw(st.integers(0, 7)) == 0
        )
    for flag in flags:
        value = draw(_ARG)
        argv += [flag, str(value)] if value is not None else []
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_cli_exit_code_is_0_1_or_2(argv):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # build writes to .buffer
    err = io.StringIO()
    # a small vertex limit keeps every example cheap
    with mock.patch.dict(os.environ, {"RAMSEY_FORGE_MAX_N": "500"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        # a failed claim, or a Ramsey certificate refused for a triangle
        out.flush()
        failed = argv[0] == "verify" and json.loads(out.buffer.getvalue())["overall"] == "fail"
        triangles = argv[0] == "certify-ramsey" and re.match(r"error: graph has \d+ triangles", err.getvalue())
        assert failed or triangles, (argv, err.getvalue())
