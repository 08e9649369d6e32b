"""Tests for certificates: theorem verifiers, JSON serialization, and sweeps."""

import concurrent.futures
import dataclasses
import json
import math
import multiprocessing
import os
import pathlib
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseyforge import certify, exactmetrics, graphs, limits, spectral
from ramseyforge.algebra import (
    predicted_intersections,
    predicted_intersections_null,
    quadratic_character,
)
from ramseyforge.certify import (
    CSV_COLUMNS,
    SweepConfig,
    certificate_to_json,
    jsonable,
    primes_in,
    ramsey_certificate,
    run_sweep,
    verify_circle_lemma,
    verify_code_graphs,
    verify_degree_formula,
    verify_girth_diameter,
    verify_main_theorem,
    verify_mt1,
)
from ramseyforge.cli import main
from ramseyforge.errors import (
    BadParameter,
    BadResidue,
    NotTriangleFree,
    TooLarge,
)
from ramseyforge.exactmetrics import exact_independence
from ramseyforge.graphs import FamilySpec, build_family, graph_from_edges


def statuses(cert):
    return [(c.claim_id, c.status) for c in cert.claims]


# ---------------------------------------------------------------------------
# prime enumeration
# ---------------------------------------------------------------------------

def test_primes_in():
    assert primes_in(3, 31) == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert primes_in(7, 31, residue={"mod": 12, "value": 7}) == [7, 19, 31]
    assert primes_in(17, 29, residue={"mod": 12, "value": 5}) == [17, 29]
    assert primes_in(24, 28) == []


# ---------------------------------------------------------------------------
# circle-intersection lemma
# ---------------------------------------------------------------------------

def test_circle_lemma_q7():
    cert = verify_circle_lemma(7)
    assert cert.overall == "pass"
    assert statuses(cert) == [
        ("intersection_predictor", "pass"),
        ("isotropic_intersections", "recorded"),
    ]
    ev = cert.claim("intersection_predictor").evidence
    # 48 non-isotropic targets, 36 radius pairs each
    assert ev["triples_checked"]["value"] == 48 * 36
    assert ev["mismatches"]["value"] == 0


def test_circle_lemma_q13_isotropic():
    cert = verify_circle_lemma(13)
    assert cert.overall == "pass"
    assert cert.claim("isotropic_intersections").status == "pass"


@pytest.mark.parametrize("q", [5, 7, 13, 31])
def test_circle_predictor_tables_match_the_scalar_predictors(q):
    pred, null = certify._circle_predictor_tables(q)
    assert pred.shape == (q - 1, q - 1, q - 1) and null.shape == (q - 1, q - 1)
    for k in range(1, q):
        want = [[predicted_intersections(i, j, k, q) for j in range(1, q)] for i in range(1, q)]
        assert pred[k - 1].tolist() == want, k
    assert null.tolist() == [[predicted_intersections_null(i, j, q) for j in range(1, q)] for i in range(1, q)]


def test_circle_lemma_gates():
    with pytest.raises(BadParameter):
        verify_circle_lemma(9)
    with pytest.raises(TooLarge):
        verify_circle_lemma(37)


# ---------------------------------------------------------------------------
# girth / diameter certificates
# ---------------------------------------------------------------------------

def test_girth_diameter_euclidean():
    for q, want_girth in [(7, 4), (19, 4), (13, 3)]:
        cert = verify_girth_diameter(q)
        assert cert.overall == "pass", q
        assert cert.claim("euclidean_girth").status == "pass"
        assert cert.claim("euclidean_girth").evidence["girth"]["value"] == want_girth
        assert cert.claim("euclidean_diameter").status == "pass"


def test_girth_diameter_q3_degenerate():
    """The diameter rule does not extend to the smallest field: measured 2."""
    cert = verify_girth_diameter(3)
    assert cert.overall == "pass"
    assert cert.claim("euclidean_diameter").status == "recorded"
    assert cert.claim("euclidean_diameter").evidence["diameter"]["value"] == 2


def test_girth_diameter_one_mod_four_range():
    for q in [5, 13, 17]:
        cert = verify_girth_diameter(q)
        diam = cert.claim("euclidean_diameter").evidence["diameter"]["value"]
        assert diam in (3, 4)
        assert cert.claim("euclidean_diameter").status == "pass"


def test_girth_diameter_half_plane_layout():
    for q in [5, 13, 17]:
        cert = verify_girth_diameter(q, family="noneuclidean")
        assert cert.overall == "pass", q
        assert [c.claim_id for c in cert.claims] == [
            "halfplane_girth_range",
            "halfplane_girth_sufficient",
            "halfplane_girth_unclassified",
            "halfplane_diameter",
            "sigma_generator",
        ]
        assert cert.claim("halfplane_girth_unclassified").status == "recorded"
        assert cert.claim("sigma_generator").status == "recorded"


def test_half_plane_diameter_squareness_rule():
    """sigma - a square (or zero, or a = 2*sigma) gives 3; non-square gives 4."""
    cert = verify_girth_diameter(13, family="noneuclidean")
    cases = cert.claim("halfplane_diameter").evidence["cases"]["value"]
    got = {a: d for a, d, _ in cases}
    sigma = 2
    for a, diam in got.items():
        if a == (2 * sigma) % 13:
            assert diam == 3
        elif quadratic_character(sigma - a, 13) >= 0:
            assert diam == 3
        else:
            assert diam == 4
    assert {a for a, d in got.items() if d == 4} == {7, 9, 10}


def test_half_plane_diameter_small_exception():
    # q = 5 with a = 2*sigma collapses to diameter 2
    cert = verify_girth_diameter(5, family="noneuclidean")
    cases = cert.claim("halfplane_diameter").evidence["cases"]["value"]
    got = {a: d for a, d, _ in cases}
    assert got[4] == 2  # a = 2*sigma = 4
    assert cert.claim("halfplane_diameter").status == "pass"


# ---------------------------------------------------------------------------
# degree formula
# ---------------------------------------------------------------------------

def test_degree_formula_certificates():
    cert = verify_degree_formula(3, 3)
    assert cert.overall == "pass"
    cases = cert.claim("sphere_size_formula").evidence["cases"]["value"]
    assert cases == [[1, 6, 6], [2, 12, 12]]
    cert = verify_degree_formula(7, 2)
    cases = cert.claim("sphere_size_formula").evidence["cases"]["value"]
    assert cases[0] == [1, 8, 8]
    assert all(formula == counted for _, formula, counted in cases)


# ---------------------------------------------------------------------------
# main theorem (q = 12k + 7)
# ---------------------------------------------------------------------------

def test_main_theorem_q7_layout():
    cert = verify_main_theorem(7)
    assert statuses(cert) == [
        ("triangle_free", "pass"),
        ("diameter_three", "pass"),
        ("toughness_spectral", "pass"),
        ("bisection_width", "recorded"),
        ("bipartite_subgraph", "recorded"),
        ("edge_corollary", "fail"),
        ("ramanujan", "pass"),
        ("independence_ratio", "pass"),
        ("independence_exact", "pass"),
    ]
    assert cert.overall == "fail"


def test_main_theorem_edge_corollary_is_the_honest_failure():
    """The edge-count cap e/2 + e^(5/6)/2 sits below the spectral bip bound.

    With e = 196 the cap is about 138.66 while the bound from the measured
    spectrum is about 153.05, so this claim fails on real numbers.  See the
    decision ledger for the analysis; the certificate reports it honestly.
    """
    cert = verify_main_theorem(7)
    ev = cert.claim("edge_corollary").evidence
    assert ev["edge_count"]["value"] == 196
    assert ev["corollary_cap"]["value"] == pytest.approx(138.66150013494592, abs=1e-9)
    assert ev["spectral_bip_upper"]["value"] == pytest.approx(
        153.05100029107794, abs=1e-9
    )
    assert ev["corollary_cap"]["value"] < ev["spectral_bip_upper"]["value"]


def test_main_theorem_q7_ramsey_record():
    cert = verify_main_theorem(7)
    assert cert.ramsey == {
        "s": 3,
        "t": 15,
        "n": 49,
        "alpha_bound": 14,
        "method": "exact",
        "witness": [0, 2, 10, 12, 15, 20, 23, 25, 28, 33, 36, 38, 46, 48],
    }


def test_main_theorem_q19_uses_ratio_route():
    cert = verify_main_theorem(19)
    ids = [c.claim_id for c in cert.claims]
    assert "independence_exact" not in ids  # 361 vertices is past the exact cap
    assert cert.claim("independence_ratio").status == "pass"
    assert cert.ramsey["method"] == "spectral-ratio"
    assert cert.ramsey["t"] == 100
    assert cert.ramsey["alpha_bound"] == pytest.approx(99.49797307973638, abs=1e-9)


def test_main_theorem_residue_gate():
    for q in [11, 13, 5, 49]:
        with pytest.raises(BadResidue):
            verify_main_theorem(q)


# ---------------------------------------------------------------------------
# half-plane theorem (q = 12k + 5)
# ---------------------------------------------------------------------------

def test_mt1_q17_layout():
    cert = verify_mt1(17)
    assert cert.overall == "pass"
    assert statuses(cert) == [
        ("sigma_nonsquare", "pass"),
        ("sigma_generator", "recorded"),
        ("girth_four", "pass"),
        ("triangle_free", "pass"),
        ("diameter_three", "pass"),
        ("toughness_spectral", "pass"),
        ("bisection_width", "recorded"),
        ("bipartite_subgraph", "recorded"),
        ("ramanujan", "pass"),
        ("independence_recorded", "recorded"),
    ]
    assert cert.ramsey == {
        "s": 3,
        "t": 82,
        "n": 272,
        "alpha_bound": pytest.approx(81.17380001498566, abs=1e-9),
        "method": "spectral-ratio",
    }


def test_mt1_q53_past_the_dense_cap(capsys):
    # n = 2756 > 2500: the spectrum comes from the Aff(1, 53) irreps
    cert = verify_mt1(53)
    assert cert.overall == "pass"
    assert cert.ramsey["method"] == "spectral-ratio"
    code = main([
        "certify-ramsey", "--family", "noneuclidean", "--q", "53", "--sigma", "3", "--a", "6",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ramsey"]["n"] == 2756
    assert doc["ramsey"]["method"] == "spectral-ratio"


@pytest.mark.parametrize("verify,q", [(verify_main_theorem, 139), (verify_mt1, 41)])
def test_a_certificate_computes_the_distance_classes_once(monkeypatch, verify, q):
    # S (for the spectrum) and the distance-class quotient (for the walk and
    # the triangles) come from one pass over the vertices
    calls, classes = [], graphs._classes

    def counting(family):
        calls.append(family)
        return classes(family)

    monkeypatch.setattr(graphs, "_classes", counting)
    cert = verify(q)
    assert [family.q for family in calls] == [q]
    assert cert.claim("triangle_free").status == "pass"


def test_mt1_residue_gate():
    for q in [13, 7, 5, 12]:
        with pytest.raises(BadResidue):
            verify_mt1(q)


# ---------------------------------------------------------------------------
# code graphs
# ---------------------------------------------------------------------------

def test_code_graphs_k2():
    cert = verify_code_graphs(2)
    assert cert.overall == "pass"
    assert statuses(cert) == [
        ("bch_regular", "pass"),
        ("bch_triangle_free", "pass"),
        ("bch_independence", "pass"),
        ("alon_partition", "pass"),
        ("alon_degree", "pass"),
        ("alon_triangle_free", "pass"),
        ("alon_independence", "recorded"),
    ]


def test_code_graphs_k3_skips_alon():
    cert = verify_code_graphs(3)
    assert cert.overall == "pass"
    assert statuses(cert) == [
        ("bch_regular", "pass"),
        ("bch_triangle_free", "pass"),
        ("bch_independence", "pass"),
        ("alon_skipped", "recorded"),
    ]


def test_code_graphs_k4_bch_cap_via_ratio():
    cert = verify_code_graphs(4)
    assert cert.overall == "pass"
    claim = cert.claim("bch_independence")
    assert claim.status == "pass"
    # 2 * 256^(3/4) = 128; the ratio bound lands at 96 which proves the cap
    assert claim.evidence["cap_form"]["value"] == pytest.approx(128.0)
    assert claim.evidence["ratio_bound"]["value"] == pytest.approx(96.0)
    assert claim.evidence["method"]["value"] == "spectral-ratio"


@pytest.mark.parametrize("argv,built", [
    (["verify", "--suite", "code", "--k", "5"], []),
    (["certify-ramsey", "--family", "bch", "--k", "7"], []),
    (["certify-ramsey", "--family", "alon", "--k", "4"], []),
    (["verify", "--suite", "code", "--k", "3"], ["BCH_3"]),
])
def test_code_certificates_build_only_for_exact_alpha(monkeypatch, capsys, argv, built):
    # every family graph is built by graphs._cayley_graph, which certify
    # binds too; a code graph is built only for exact alpha,
    # n <= limits.VERIFY_ALPHA_CAP (BCH_3, 64)
    labels = []
    cayley_graph = graphs._cayley_graph

    def counting_cayley_graph(family, conn):
        labels.append(family.label())
        return cayley_graph(family, conn)

    monkeypatch.setattr(graphs, "_cayley_graph", counting_cayley_graph)
    monkeypatch.setattr(certify, "_cayley_graph", counting_cayley_graph)
    assert main(argv) == 0
    capsys.readouterr()
    assert labels == built


def _csr_greedy_independent_size(graph) -> int:
    """The greedy of ``certify._greedy_independent_size`` over the CSR lists
    of a built graph."""
    chosen = np.zeros(graph.n, dtype=bool)
    blocked = np.zeros(graph.n, dtype=bool)
    for v in range(graph.n):
        if not blocked[v]:
            chosen[v] = True
            blocked[v] = True
            blocked[graph.neighbors(v)] = True
    return int(chosen.sum())


@pytest.mark.parametrize(
    "spec",
    [FamilySpec(kind="bch", k=k) for k in range(2, 8)] + [FamilySpec(kind="alon", k=k) for k in (2, 4, 5)],
    ids=FamilySpec.label,
)
def test_group_law_greedy_matches_the_csr_greedy(spec):
    m = certify._Measured(spec)
    got = certify._greedy_independent_size(m)
    assert m._graph is None
    assert got == _csr_greedy_independent_size(build_family(spec))


@pytest.mark.parametrize(
    "spec",
    [FamilySpec(kind="bch", k=k) for k in range(2, 6)] + [FamilySpec(kind="alon", k=k) for k in (2, 4)],
    ids=FamilySpec.label,
)
@pytest.mark.parametrize("extra", [0, 3])
def test_code_triangles_from_s_times_s_match_the_bitset_count(monkeypatch, spec, extra):
    # the code graphs are triangle-free, so the same connection set with
    # extra elements s0 ^ s, s in S, which close triangles {0, s0, s0 ^ s},
    # checks the count where it is not 0
    conn = graphs.connection_set(spec)
    conn = np.union1d(conn, conn[0] ^ conn[1:1 + extra])
    monkeypatch.setattr(certify, "connection_set", lambda family: conn)
    monkeypatch.setattr(graphs, "connection_set", lambda family: conn)
    m = certify._Measured(spec)
    got = certify._triangles(m)
    assert m._graph is None
    assert got == exactmetrics._triangles_bitset(build_family(spec))
    assert (got > 0) == (extra > 0)


def test_code_graphs_bad_k():
    with pytest.raises(BadParameter):
        verify_code_graphs(1)
    with pytest.raises(BadParameter):
        verify_code_graphs(9)


# ---------------------------------------------------------------------------
# Ramsey certificates
# ---------------------------------------------------------------------------

def test_ramsey_certificate_exact_route():
    cert = ramsey_certificate(build_family(FamilySpec(kind="euclidean", q=7, a=1)))
    assert cert.overall == "pass"
    assert cert.ramsey["t"] == 15 and cert.ramsey["method"] == "exact"
    # the witness re-verifies independently
    g = build_family(FamilySpec(kind="euclidean", q=7, a=1))
    w = cert.ramsey["witness"]
    for i, u in enumerate(w):
        for v in w[i + 1:]:
            assert not g.adjacency_oracle(u, v)


def test_ramsey_certificate_without_a_bound_below_n_has_no_record():
    # alpha = n on an edgeless graph: no t with R(3, t) > n follows
    cert = ramsey_certificate(graph_from_edges(3, []))
    assert cert.ramsey is None and "ramsey" not in cert.to_dict()
    assert [c.claim_id for c in cert.claims] == ["triangle_free", "independence_bound"]
    assert cert.claim("independence_bound").evidence["alpha_bound"]["value"] == 3.0


def test_ramsey_certificate_ratio_route():
    g = build_family(FamilySpec(kind="noneuclidean", q=17, sigma=3, a=6))
    cert = ramsey_certificate(g)
    assert cert.overall == "pass"
    assert cert.ramsey["t"] == 82
    assert cert.ramsey["method"] == "spectral-ratio"


def _circulant(n, offsets):
    return graph_from_edges(n, [(v, (v + s) % n) for v in range(n) for s in offsets])


@pytest.mark.parametrize("n,offsets", [
    (300, (101, 106, 111, 116, 121, 126, 131, 136)),
    (2000, (667, 704, 741, 778, 815, 852, 889, 926)),
])
def test_adhoc_ratio_bound_matches_the_cosine_formula(monkeypatch, n, offsets):
    # offsets in (n/3, n/2) and their negatives form a sum-free set, so the
    # circulant is triangle-free; its eigenvalues are sum_s cos(2 pi j s / n)
    def no_dense(graph):
        raise AssertionError("a circulant's bound should come from its character sums")

    g = _circulant(n, offsets)
    d = 2 * len(offsets)
    lam = sum(2 * np.cos(2 * np.pi * np.arange(n) * s / n) for s in offsets).min()
    want = n * -lam / (d - lam)
    monkeypatch.setattr(spectral, "dense_spectrum", no_dense)
    cert = ramsey_certificate(g)
    got = cert.ramsey["alpha_bound"]
    assert g.degree == d and cert.ramsey["method"] == "spectral-ratio"
    # within 1e-9 of the true bound, and never below it
    assert got == pytest.approx(want, rel=1e-9) and got >= want * (1 - 1e-12)
    assert cert.ramsey["t"] == math.floor(got) + 1


def test_adhoc_circulant_past_the_dense_cap_needs_no_n_by_n_array():
    # a triangle-free circulant on 3001 > limits.DENSE_SPECTRUM_CAP vertices:
    # its ratio bound is one 3001-point DFT; a relabelled copy, whose bound
    # needs the dense spectrum, is refused as before
    n, offsets = 3001, (1001, 1062, 1123, 1184, 1245, 1306, 1367, 1428, 1489)
    assert n > limits.DENSE_SPECTRUM_CAP
    g = _circulant(n, offsets)
    tracemalloc.start()
    try:
        cert = ramsey_certificate(g)
        whole = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        spectral.least_eigenvalue(g)
        spectrum = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.overall == "pass" and cert.ramsey["method"] == "spectral-ratio"
    lam = sum(2 * np.cos(2 * np.pi * np.arange(n) * s / n) for s in offsets).min()
    assert cert.ramsey["alpha_bound"] == pytest.approx(n * -lam / (len(offsets) * 2 - lam), rel=1e-9)
    # the n x n float64 matrix alone would take n^2 * 8 = 72 MB; the bitset
    # triangle count sets the certificate's peak
    assert whole < n * n * 8 / 2 and spectrum < 2**20
    perm = np.random.default_rng(n).permutation(n).tolist()
    us, vs = g.edge_arrays()
    relabelled = graph_from_edges(n, [(perm[u], perm[v]) for u, v in zip(us.tolist(), vs.tolist())])
    with pytest.raises(TooLarge) as exc:
        ramsey_certificate(relabelled)
    assert str(exc.value) == f"dense spectrum on {n} vertices exceeds limits.DENSE_SPECTRUM_CAP = 2500"


@pytest.mark.parametrize("n,offsets,t", [
    (5, (1,), 3),  # C_5
    (8, (1, 4), 4),  # the Wagner graph
    (13, (1, 5), 5),
])
def test_ramsey_critical_circulants_reach_the_known_ramsey_number(ramsey_r3, n, offsets, t):
    cert = ramsey_certificate(_circulant(n, offsets))
    assert cert.ramsey["method"] == "exact" and cert.ramsey["t"] == t
    assert cert.ramsey["n"] == ramsey_r3[t] - 1


@pytest.mark.parametrize("spec", [
    FamilySpec(kind="euclidean", q=7, a=1),
    FamilySpec(kind="euclidean", q=19, a=1),
    FamilySpec(kind="noneuclidean", q=17, sigma=3, a=6),
    FamilySpec(kind="bch", k=3),
    FamilySpec(kind="alon", k=2),
], ids=FamilySpec.label)
def test_ramsey_certificate_from_a_spec_is_the_built_graphs(monkeypatch, spec):
    # a family graph is built only for the exact search; the certificate is
    # the same either way.  Every family graph is built by
    # graphs._cayley_graph, a record's from its own connection set
    want = certificate_to_json(ramsey_certificate(build_family(spec)))
    builds = []
    cayley_graph = graphs._cayley_graph
    monkeypatch.setattr(certify, "_cayley_graph", lambda s, conn: builds.append(s) or cayley_graph(s, conn))
    assert certificate_to_json(ramsey_certificate(spec)) == want
    searched = spec.n <= limits.VERIFY_ALPHA_CAP
    assert builds == ([spec] if searched else [])


def _d7_as_adhoc():
    g = build_family(FamilySpec(kind="euclidean", q=7, a=1))
    return graph_from_edges(g.n, list(zip(*(e.tolist() for e in g.edge_arrays()))))


@pytest.mark.parametrize("make", [
    lambda: build_family(FamilySpec(kind="euclidean", q=7, a=1)),
    _d7_as_adhoc,
], ids=["D_7(1)", "D_7(1) ad hoc"])
def test_ramsey_certificate_reuses_the_graphs_stored_alpha(monkeypatch, make):
    g = make()
    searches = []
    search = exactmetrics._search_independence

    def counting_search(graph, budget):
        searches.append(graph.n)
        return search(graph, budget)

    monkeypatch.setattr(exactmetrics, "_search_independence", counting_search)
    alpha = exact_independence(g)
    cert = ramsey_certificate(g)
    assert searches == [49]
    assert cert.ramsey["method"] == "exact"
    assert tuple(cert.ramsey["witness"]) == alpha.witness
    assert cert.ramsey["t"] == alpha.size + 1


def test_ramsey_certificate_rejects_triangles():
    g = build_family(FamilySpec(kind="euclidean", q=13, a=1))
    with pytest.raises(NotTriangleFree):
        ramsey_certificate(g)


@pytest.mark.parametrize(
    "spec, searched",
    [
        (FamilySpec(kind="bch", k=3), True),  # 64 vertices
        (FamilySpec(kind="alon", k=2), True),  # 64
        (FamilySpec(kind="euclidean", q=7, a=1), True),  # 49
        (FamilySpec(kind="noneuclidean", q=7, sigma=3, a=1), True),  # 42
        (100, True),  # a cycle
        (FamilySpec(kind="bch", k=4), False),  # 256
        (FamilySpec(kind="euclidean", q=11, a=1), False),  # 121
        (FamilySpec(kind="noneuclidean", q=11, sigma=2, a=1), False),  # 110
        (101, False),
    ],
    ids=["BCH_3", "ALON_2", "D_7(1)", "V_7(3,1)", "C_100", "BCH_4", "D_11(1)", "V_11(2,1)", "C_101"],
)
def test_exact_alpha_is_searched_up_to_the_cap(monkeypatch, spec, searched):
    if isinstance(spec, int):
        graph = graph_from_edges(spec, [(i, (i + 1) % spec) for i in range(spec)])
    else:
        graph = build_family(spec)
    searches = []
    search = certify.exact_independence

    def counting_search(g, *args, **kwargs):
        searches.append(g.n)
        return search(g, *args, **kwargs)

    monkeypatch.setattr(certify, "exact_independence", counting_search)
    bound, method, witness = certify._alpha_bound(certify._Measured(graph))
    assert searches == ([graph.n] if searched else [])
    assert (graph.n <= limits.VERIFY_ALPHA_CAP) == searched
    if method == "spectral-ratio":
        assert witness is None
    else:
        assert method == "exact" and bound == len(witness)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_jsonable_scalars():
    assert jsonable(math.inf) == "inf"
    assert jsonable(-math.inf) == "-inf"
    assert jsonable(Fraction(3, 2)) == "3/2"
    assert jsonable(np.int64(7)) == 7
    assert jsonable(np.float64(2.5)) == 2.5
    assert jsonable({"x": [np.int32(1), Fraction(2)]}) == {"x": [1, "2"]}


@pytest.mark.parametrize(
    "value, cell",
    [
        (None, ""),
        (0.1, "0.1"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (Fraction(3, 2), "3/2"),
        (14, "14"),
        ("pass", "pass"),
        (np.float64(1.5), "1.5"),
    ],
)
def test_csv_cell(value, cell):
    assert certify._csv_cell(value) == cell


def test_certificate_json_shape():
    cert = verify_main_theorem(7)
    doc = json.loads(certificate_to_json(cert))
    assert doc["schema_version"] == 1
    assert doc["kind"] == "main-theorem"
    assert doc["overall"] == "fail"
    assert doc["family"] == {"kind": "euclidean", "q": 7, "m": 2, "a": 1}
    for claim in doc["claims"]:
        assert set(claim) == {"claim_id", "statement", "status", "evidence"}
        assert claim["status"] in ("pass", "fail", "recorded")
        for entry in claim["evidence"].values():
            assert set(entry) == {"value", "provenance"}
            assert entry["provenance"] in (
                "computed-exact",
                "computed-float",
                "paper-bound",
            )


def test_certificate_json_deterministic():
    a = certificate_to_json(verify_main_theorem(7))
    b = certificate_to_json(verify_main_theorem(7))
    assert a == b


def test_certificate_self_consistent():
    """Re-running a verifier reproduces every status from the stored claims."""
    first = verify_mt1(17)
    second = verify_mt1(17)
    assert statuses(first) == statuses(second)
    assert certificate_to_json(first) == certificate_to_json(second)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_euclidean_residue_filter(tmp_path):
    cfg = SweepConfig(
        q_min=7, q_max=31, families=("euclidean",),
        residue={"mod": 12, "value": 7}, out_dir=str(tmp_path / "out"),
    )
    res = run_sweep(cfg)
    assert res["rows"] == 3
    names = [os.path.basename(p) for p in res["json_files"]]
    assert names == [
        "euclidean_q7_a1.json",
        "euclidean_q19_a1.json",
        "euclidean_q31_a1.json",
    ]
    with open(res["csv"], newline="") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4
    assert [l.split(",")[1] for l in lines[1:]] == ["7", "19", "31"]


def test_sweep_half_plane_residue_filter(tmp_path):
    cfg = SweepConfig(
        q_min=17, q_max=29, families=("noneuclidean",),
        residue={"mod": 12, "value": 5}, out_dir=str(tmp_path / "out"),
    )
    res = run_sweep(cfg)
    names = [os.path.basename(p) for p in res["json_files"]]
    assert names == [
        "noneuclidean_q17_s3_a6.json",
        "noneuclidean_q29_s3_a6.json",
    ]
    assert res["statuses"] == ["pass", "pass"]


def test_sweep_bch_rows(tmp_path):
    cfg = SweepConfig(
        families=("bch",), ks=(2, 3, 4), out_dir=str(tmp_path / "out"),
    )
    res = run_sweep(cfg)
    assert res["rows"] == 3
    with open(res["csv"], newline="") as fh:
        rows = fh.read().splitlines()[1:]
    tri_col = CSV_COLUMNS.index("triangles")
    assert [r.split(",")[tri_col] for r in rows] == ["0", "0", "0"]


def _sweep_bytes(res) -> dict:
    """Every file a sweep wrote, by name."""
    paths = map(pathlib.Path, res["json_files"] + [res["csv"]])
    return {path.name: path.read_bytes() for path in paths}


@pytest.mark.parametrize("threads", [2, 4])
def test_sweep_thread_count_invariance(tmp_path, threads):
    # 9 rows: a multiple of neither 2 nor 4 workers, so the last share is short
    cfg1 = SweepConfig(
        q_min=3, q_max=19, families=("euclidean", "bch"), ks=(2, 3),
        out_dir=str(tmp_path / "t1"), threads=1,
    )
    cfgn = dataclasses.replace(cfg1, out_dir=str(tmp_path / "tn"), threads=threads)
    res1, resn = run_sweep(cfg1), run_sweep(cfgn)
    assert res1["rows"] == 9
    assert list(_sweep_bytes(res1)) == list(_sweep_bytes(resn))
    assert _sweep_bytes(res1) == _sweep_bytes(resn)
    assert multiprocessing.active_children() == []


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.mark.parametrize("fork", [True, False])
def test_sweep_workers_are_capped_at_the_usable_cpus(tmp_path, monkeypatch, fork):
    # no process is started: the stand-in executor records the worker count
    # asked for and runs each share at once in this process
    requested = []

    class InlineExecutor:
        def __init__(self, max_workers, mp_context=None):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    if not fork:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    cfg1 = SweepConfig(q_min=3, q_max=19, families=("euclidean",), out_dir=str(tmp_path / "t1"))
    res1 = run_sweep(cfg1)
    assert requested == []
    resn = run_sweep(dataclasses.replace(cfg1, out_dir=str(tmp_path / "tn"), threads=10**6))
    workers = min(_usable_cpus(), res1["rows"])
    assert requested == ([workers - 1] if fork and workers > 1 else [])
    assert all(w <= _usable_cpus() - 1 for w in requested)
    assert _sweep_bytes(res1) == _sweep_bytes(resn)


def test_sweep_out_dir_is_made_before_any_row_runs(tmp_path, monkeypatch, capsys):
    rows = []
    monkeypatch.setattr(certify, "_sweep_row", lambda spec: rows.append(spec))
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    cfg = SweepConfig(q_min=3, q_max=31, families=("euclidean",), out_dir=str(out))
    with pytest.raises(OSError):
        run_sweep(cfg)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"q_max": 31, "out_dir": str(out)}))
    assert main(["sweep", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("io error:")
    assert rows == []


def test_a_dead_sweep_worker_is_a_usage_error(tmp_path, monkeypatch, capsys):
    if _usable_cpus() < 2 or "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs two usable CPUs and the fork start method")
    parent = os.getpid()
    row = certify._sweep_row

    def dying_row(spec):
        # q = 5 is the first job of share 1, which a forked worker runs
        if spec.q == 5:
            assert os.getpid() != parent, "share 1 ran in the calling process"
            os._exit(1)
        return row(spec)

    monkeypatch.setattr(certify, "_sweep_row", dying_row)
    out = tmp_path / "out"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"q_max": 11, "threads": 2, "out_dir": str(out)}))
    assert main(["sweep", "--config", str(config)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, errors
    assert os.listdir(out) == []
    assert multiprocessing.active_children() == []


def test_sweep_records_errors_per_row(tmp_path, monkeypatch):
    monkeypatch.setenv("RAMSEY_FORGE_MAX_N", "100")
    cfg = SweepConfig(
        q_min=3, q_max=13, families=("euclidean",), out_dir=str(tmp_path / "out"),
    )
    res = run_sweep(cfg)
    assert res["statuses"] == [
        "pass",
        "pass",
        "fail",  # q = 7 hits the honest edge-corollary failure
        "error:SizeLimitExceeded",
        "error:SizeLimitExceeded",
    ]
    # the error rows still produce readable certificates
    doc = json.loads(open(res["json_files"][-1]).read())
    assert doc["overall"] == "fail"
    assert doc["kind"] == "sweep-error"


def test_sweep_interrupted_csv_write_leaves_no_result_file(tmp_path, monkeypatch):
    cfg = SweepConfig(
        q_min=3, q_max=11, families=("euclidean",), out_dir=str(tmp_path / "out"),
    )
    cells, visible = [], []

    def failing_cell(value):
        cells.append(value)
        if len(cells) > 2 * len(CSV_COLUMNS):  # fail inside the second data row
            visible.append(os.path.exists(os.path.join(cfg.out_dir, "summary.csv")))
            raise OSError("disk full")
        return str(value)

    monkeypatch.setattr(certify, "_csv_cell", failing_cell)
    with pytest.raises(OSError, match="disk full"):
        run_sweep(cfg)
    assert visible == [False]  # the partial table never had the result name
    files = sorted(os.listdir(cfg.out_dir))
    assert "summary.csv" not in files
    # only the complete certificates remain, each a readable result
    assert files == sorted(
        f"euclidean_q{q}_a1.json" for q in primes_in(3, 11)
    )
    for name in files:
        json.loads((tmp_path / "out" / name).read_text())


def test_sweep_measures_each_row_graph_once(tmp_path, monkeypatch):
    # one row of every certificate kind: main theorem (q = 7), Euclidean
    # girth/diameter (11), half-plane suite (13), half-plane theorem (17),
    # BCH exact and ratio routes (k = 2, 4), and the sum-set family (k = 2)
    configs = [
        SweepConfig(q_min=7, q_max=11, families=("euclidean",)),
        SweepConfig(q_min=13, q_max=17, families=("noneuclidean",)),
        SweepConfig(families=("bch",), ks=(2, 4)),
        SweepConfig(families=("alon",), ks=(2,)),
    ]
    built = []
    calls = Counter()
    classes = Counter()

    def counting_cayley_graph(*args):
        graph = cayley_graph(*args)
        built.append(graph)
        return graph

    def counting_classes(family):
        classes[family] += 1
        return real_classes(family)

    def counting_oracle(oracle):
        # keyed by family: graph oracles take a graph, the others a FamilySpec
        def wrapper(first, *args, **kwargs):
            calls[oracle.__name__, getattr(first, "family", first)] += 1
            return oracle(first, *args, **kwargs)
        return wrapper

    # every family graph is built by graphs._cayley_graph, which certify
    # binds too, so this sees each graph built anywhere, the half-plane suite
    # included; every computation of the distance classes goes through
    # graphs._classes
    cayley_graph, real_classes = graphs._cayley_graph, graphs._classes
    monkeypatch.setattr(graphs, "_cayley_graph", counting_cayley_graph)
    monkeypatch.setattr(certify, "_cayley_graph", counting_cayley_graph)
    monkeypatch.setattr(graphs, "_classes", counting_classes)
    oracles = (
        "triangle_count", "exact_independence", "cayley_spectrum_abelian", "connection_set",
        "_quotient",
    )
    for name in oracles:
        monkeypatch.setattr(certify, name, counting_oracle(getattr(certify, name)))

    jobs = []
    for i, cfg in enumerate(configs):
        res = run_sweep(dataclasses.replace(cfg, out_dir=str(tmp_path / str(i))))
        assert not any(s.startswith("error") for s in res["statuses"])
        jobs += certify._sweep_jobs(cfg)
    assert len(jobs) == 7
    # a row builds its graph only for exact alpha and exact toughness, so
    # not past limits.VERIFY_ALPHA_CAP vertices: the q = 11 Euclidean row,
    # both half-plane rows and BCH_4 build nothing; every other row builds once
    geometric = ("euclidean", "noneuclidean")
    expected = [s for s in jobs if s.n <= limits.VERIFY_ALPHA_CAP]
    assert [s.label() for s in expected] == ["D_7(1)", "BCH_2", "ALON_2"]
    assert Counter(g.family for g in built) == Counter(expected)
    # a Euclidean or half-plane row computes its distance classes once, for
    # S, its quotient, the half-plane suite's every a and the graph it
    # builds for exact alpha
    assert classes == Counter({s: 1 for s in jobs if s.kind in geometric})
    # every row reads girth, diameter and components from one quotient, a
    # code row's from the group law, and no row counts triangles on a graph
    for spec in jobs:
        assert calls["_quotient", spec] == 1, spec
        assert calls["triangle_count", spec] == 0, spec
    assert max(calls.values()) == 1, calls


THEOREM_ROWS = [
    FamilySpec(kind="euclidean", q=19, m=2, a=1),
    FamilySpec(kind="noneuclidean", q=17, sigma=3, a=6),
]


@pytest.mark.parametrize("spec", THEOREM_ROWS, ids=FamilySpec.label)
def test_a_theorem_row_computes_each_spectral_bound_once(monkeypatch, spec):
    # the row's CSV cells and its certificate read one ``_bounds``; the
    # second toughness bound is the certificate's at the 2*sqrt(q) cap
    calls = Counter()

    def counting(name, bound):
        def wrapper(*args):
            calls[name] += 1
            return bound(*args)
        return wrapper

    for name in (
        "ratio_independence_bound", "bisection_and_bip_bounds", "chromatic_lower_bound",
        "alon_toughness_bound",
    ):
        monkeypatch.setattr(certify, name, counting(name, getattr(certify, name)))
    row, cert = certify._sweep_row(spec)
    assert row["status"] == cert.overall
    assert calls == Counter({
        "ratio_independence_bound": 1, "bisection_and_bip_bounds": 1, "chromatic_lower_bound": 1,
        "alon_toughness_bound": 2,
    })


@pytest.mark.parametrize("spec", THEOREM_ROWS, ids=FamilySpec.label)
def test_a_theorem_rows_spectral_cells_are_its_certificates_evidence(spec):
    row, cert = certify._sweep_row(spec)

    def evidence(claim_id, key):
        return cert.claim(claim_id).evidence[key]["value"]

    assert row["lambda"] == evidence("ramanujan", "lambda")
    assert row["toughness_lower"] == evidence("toughness_spectral", "bound_at_measured_lambda")
    assert row["bisection_lower"] == evidence("bisection_width", "spectral_lower")
    assert row["bip_upper"] == evidence("bipartite_subgraph", "spectral_upper")
    assert row["bisection_lower"] == row["n"] * row["theta2"] / 4.0
    assert row["bip_upper"] == row["n"] * row["theta_n"] / 4.0
    if spec.kind == "euclidean":
        assert row["bip_upper"] == evidence("edge_corollary", "spectral_bip_upper")
        assert row["independence_upper"] == evidence("independence_ratio", "ratio_bound")
        assert row["chromatic_lower"] == evidence("independence_ratio", "chromatic_lower")
    else:
        assert "edge_corollary" not in [c.claim_id for c in cert.claims]
        assert row["independence_upper"] == evidence("independence_recorded", "ratio_bound")
        assert row["independence_upper"] == cert.ramsey["alpha_bound"]
        assert row["chromatic_lower"] == row["n"] / row["independence_upper"]


def test_sweep_csv_is_rfc4180(tmp_path):
    cfg = SweepConfig(
        q_min=3, q_max=5, families=("euclidean",), out_dir=str(tmp_path / "out"),
    )
    res = run_sweep(cfg)
    with open(res["csv"], "rb") as fh:
        data = fh.read()
    assert b"\r\n" in data
    body = data.decode()
    assert body.count("\r\n") == len(body.strip().split("\r\n"))


def test_sweep_config_validation():
    with pytest.raises(BadParameter):
        SweepConfig.from_dict({"families": ["klein-bottle"]})
    with pytest.raises(BadParameter):
        SweepConfig.from_dict({"nonsense_key": 1})
    with pytest.raises(BadParameter):
        SweepConfig.from_dict({"residue": [12]})
    cfg = SweepConfig.from_dict({"q_min": 5, "q_max": 11, "threads": 2})
    assert cfg.q_min == 5 and cfg.threads == 2


@pytest.mark.parametrize("call, message", [
    (lambda: verify_degree_formula(9, 2), "q=9 is not an odd prime"),
    (lambda: verify_degree_formula(9, 1), "q=9 is not an odd prime"),
    (lambda: verify_degree_formula(7, 1), "dimension m=1 must be >= 2"),
    (lambda: verify_degree_formula(7, 9), "graph on 7^9 vertices exceeds RAMSEY_FORGE_MAX_N = 200000"),
    (lambda: verify_circle_lemma(9), "q=9 is not an odd prime"),
    (lambda: SweepConfig.from_dict({"q_min": 1.5}), "sweep config key 'q_min' must be an integer, got 1.5"),
    (lambda: SweepConfig.from_dict({"ks": [True]}), "entry of sweep config key 'ks' must be an integer, got True"),
    (
        lambda: SweepConfig.from_dict({"residue": {"mod": "3", "value": 1}}),
        "sweep config key 'residue.mod' must be an integer, got '3'",
    ),
])
def test_refusal_messages_read_through_the_family_spec(monkeypatch, call, message):
    # the degree-formula and circle suites validate through FamilySpec, and
    # the sweep config through the integer check FamilySpec uses
    monkeypatch.delenv("RAMSEY_FORGE_MAX_N", raising=False)
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_FIELD = (
    _JSON
    | st.lists(st.sampled_from(["euclidean", "noneuclidean", "bch", "alon"]) | _JSON, max_size=4)
    | st.fixed_dictionaries({"mod": _JSON, "value": _JSON})
)
_CONFIG_KEYS = ("q_min", "q_max", "families", "residue", "ks", "out_dir", "threads", "extra")


@settings(max_examples=150, deadline=None)
@given(_JSON | st.fixed_dictionaries({}, optional={key: _FIELD for key in _CONFIG_KEYS}))
def test_sweep_config_from_any_json_is_config_or_bad_parameter(doc):
    # builds no graph: only parsing and validation run
    try:
        cfg = SweepConfig.from_dict(doc)
    except BadParameter:
        return
    assert isinstance(cfg, SweepConfig)
    assert isinstance(cfg.q_min, int) and isinstance(cfg.q_max, int)
    assert isinstance(cfg.threads, int) and cfg.threads >= 1
    assert isinstance(cfg.families, tuple) and isinstance(cfg.ks, tuple)
    assert isinstance(cfg.out_dir, str)
