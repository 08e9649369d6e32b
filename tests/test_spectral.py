"""Tests for eigenvalue computation and the spectral bound formulas."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseyforge import limits, spectral
from ramseyforge.algebra import find_nonsquare
from ramseyforge.cli import main
from ramseyforge.errors import BadParameter, NoConvergence, TooLarge, UnsupportedFamily
from ramseyforge.exactmetrics import (
    connected_components,
    exact_max_cut_and_bisection,
    exact_toughness,
    quotient_triangles,
)
from ramseyforge.graphs import (
    FamilySpec,
    build_family,
    connection_set,
    distance_classes,
    distance_quotient,
    euclidean_degree,
    graph_from_edges,
)
from ramseyforge.spectral import (
    alon_toughness_bound,
    bisection_and_bip_bounds,
    cayley_spectrum_abelian,
    chromatic_lower_bound,
    dense_spectrum,
    least_eigenvalue,
    quotient_spectrum,
    ramanujan_check,
    ratio_independence_bound,
)


def build(kind, **kw):
    return build_family(FamilySpec(kind=kind, **kw))


def group_spectrum(spec):
    """The production route of a family graph, with no graph: a half-plane
    graph's class quotient, any other's characters over its connection set."""
    if spec.kind == "noneuclidean":
        return quotient_spectrum(*half_plane_quotient(spec))
    return cayley_spectrum_abelian(spec, connection_set(spec))


def half_plane_quotient(spec):
    """(sizes, nbr), the spec's distance-class quotient at its own a."""
    return distance_quotient(spec, distance_classes(spec), spec.a)[1]


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_d3_spectrum_exact():
    g = build("euclidean", q=3, a=1)
    for summary in (dense_spectrum(g), group_spectrum(g.family)):
        vals = np.round(summary.eigenvalues, 9)
        assert list(vals) == [4.0, 1.0, 1.0, 1.0, 1.0, -2.0, -2.0, -2.0, -2.0]
        assert summary.n == 9 and summary.d == 4
        assert summary.lam == pytest.approx(2.0, abs=1e-9)
        assert summary.theta2 == pytest.approx(3.0, abs=1e-9)
        assert summary.theta_n == pytest.approx(6.0, abs=1e-9)


def test_c4_spectrum():
    s = dense_spectrum(cycle(4))
    assert np.allclose(s.eigenvalues, [2.0, 0.0, 0.0, -2.0], atol=1e-9)
    assert s.method == "dense"


def test_spectrum_first_eigenvalue_is_degree():
    for spec in [
        FamilySpec(kind="euclidean", q=7, a=1),
        FamilySpec(kind="noneuclidean", q=13, sigma=2, a=1),
        FamilySpec(kind="bch", k=3),
        FamilySpec(kind="alon", k=2),
    ]:
        g = build_family(spec)
        s = dense_spectrum(g)
        assert s.eigenvalues[0] == pytest.approx(g.degree, abs=1e-8)


def test_spectrum_trace_invariants():
    for spec in [
        FamilySpec(kind="euclidean", q=5, a=1),
        FamilySpec(kind="bch", k=2),
    ]:
        g = build_family(spec)
        vals = dense_spectrum(g).eigenvalues
        assert abs(vals.sum()) < 1e-8  # no loops
        assert vals @ vals == pytest.approx(2 * g.num_edges, abs=1e-6)


def test_degree_multiplicity_counts_components():
    g = build("bch", k=2)
    count, _, _ = connected_components(g)
    vals = dense_spectrum(g).eigenvalues
    assert int((vals > g.degree - 1e-9).sum()) == count == 2


def test_character_route_is_exact_for_xor_graphs():
    # the DFT over (Z_2)^t (the Walsh-Hadamard transform) adds integers; no float fuzz
    s = group_spectrum(FamilySpec(kind="bch", k=3))
    assert s.method == "character-sum"
    assert np.allclose(s.eigenvalues, np.round(s.eigenvalues), atol=0)
    assert s.eigenvalues[-1] == -5.0


def test_group_route_rejects_adhoc_graph():
    with pytest.raises(UnsupportedFamily):
        g = cycle(6)
        cayley_spectrum_abelian(g.family, g.neighbors(0))
    # Aff(1, q) is not abelian: a half-plane graph takes the class quotient
    spec = FamilySpec(kind="noneuclidean", q=13, sigma=2, a=1)
    with pytest.raises(UnsupportedFamily):
        cayley_spectrum_abelian(spec, connection_set(spec))


def _irrep_blocks(spec, conn):
    """M_0 and M_1 of Aff(1, q) from their definition: for (t, v) in S and c
    in F_q*, M_j[c, c*v] += exp(2 pi i j c t / q)."""
    q = spec.q
    m0 = np.zeros((q - 1, q - 1))
    m1 = np.zeros((q - 1, q - 1), dtype=complex)
    for s in conn.tolist():
        t, v = map(int, spec.coordinates(s))
        for c in range(1, q):
            m0[c - 1, c * v % q - 1] += 1.0
            m1[c - 1, c * v % q - 1] += cmath.exp(2j * math.pi * c * t / q)
    return m0, m1


def _half_plane_cases():
    cases = []
    for q in (3, 5, 7, 11, 13, 17, 19, 23):
        sigma = find_nonsquare(q)
        cases += [(q, sigma, a) for a in range(1, q) if a != (4 * sigma) % q]
    return cases + [(29, 3, 6), (41, 3, 6)]


@pytest.mark.parametrize("q,sigma,a", _half_plane_cases())
def test_affine_route_matches_dense(q, sigma, a):
    # the Aff(1, q) irreps and the dense spectrum are two oracles of the
    # class-quotient route, which reads neither
    g = build("noneuclidean", q=q, sigma=sigma, a=a)
    dense = dense_spectrum(g).eigenvalues
    quotient = group_spectrum(g.family)
    assert quotient.method == "class-quotient"
    assert quotient.n == g.n and quotient.d == q + 1
    assert np.max(np.abs(quotient.eigenvalues - dense)) < 1e-9
    blocks = _irrep_spectrum(g.family, g.neighbors(0))
    assert np.max(np.abs(blocks - dense)) < 1e-9
    assert np.max(np.abs(blocks - quotient.eigenvalues)) < 1e-11


def _irrep_spectrum(spec, conn):
    """The spectrum from the Aff(1, q) irreps, descending: the q - 1 linear
    characters once each, the (q - 1)-dimensional irrep q - 1 times."""
    m0, m1 = _irrep_blocks(spec, conn)
    assert np.array_equal(m0, m0.T) and np.allclose(m1, m1.conj().T, atol=1e-12)
    blocks = np.concatenate([np.linalg.eigvalsh(m0)] + [np.linalg.eigvalsh(m1)] * (spec.q - 1))
    return np.sort(blocks)[::-1]


@pytest.mark.parametrize("q,sigma,a", [(67, 2, 66), (317, 3, 6)])
def test_close_distinct_eigenvalues_stay_apart(q, sigma, a):
    # V_67(2,66) has two distinct eigenvalues 4.5e-7 apart, the closest
    # measured, and V_317(3,6) two 1.6e-5 apart, which grouping within
    # 1e-7 * d would merge; neither graph can be built for the dense oracle
    spec = FamilySpec(kind="noneuclidean", q=q, sigma=sigma, a=a)
    quotient = group_spectrum(spec)
    assert np.max(np.abs(_irrep_spectrum(spec, connection_set(spec)) - quotient.eigenvalues)) < 1e-10


@pytest.mark.parametrize("q,sigma,a", [(53, 3, 6), (101, 3, 6), (197, 3, 6), (53, 2, 2)])
def test_half_plane_spectrum_past_the_dense_cap_has_the_exact_power_sums(q, sigma, a):
    # sum lambda^k = trace(A^k), whatever route gave the eigenvalues: 0 with
    # no loops, n*d edge ends, 6 times the triangles (V_53(2,2) has 49,608)
    spec = FamilySpec(kind="noneuclidean", q=q, sigma=sigma, a=a)
    sizes, nbr = half_plane_quotient(spec)
    s = quotient_spectrum(sizes, nbr)
    n, d = spec.n, q + 1
    assert (s.n, s.d) == (n, d) and n > limits.DENSE_SPECTRUM_CAP
    assert len(s.eigenvalues) == n and np.all(np.diff(s.eigenvalues) <= 0)
    values, mult = np.unique(s.eigenvalues, return_counts=True)
    sums = [float(mult @ values ** k) for k in (1, 2, 3)]
    assert [round(x) for x in sums] == [0, n * d, 6 * quotient_triangles(sizes, nbr)]
    assert max(abs(x - round(x)) for x in sums) < 1e-6


def test_quotient_spectrum_refuses_a_quotient_that_is_not_equitable():
    # one neighbour of class 1 moved to another class: the edges between
    # classes no longer count the same from both sides
    sizes, nbr = half_plane_quotient(FamilySpec(kind="noneuclidean", q=13, sigma=2, a=1))
    broken = nbr.copy()
    broken[1, 0] = (broken[1, 0] + 1) % len(sizes)
    with pytest.raises(BadParameter, match="not equitable"):
        quotient_spectrum(sizes, broken)


@pytest.mark.parametrize("scale", [0.9, math.sqrt(2)], ids=["fractional", "summing-to-2n"])
def test_quotient_spectrum_refuses_weights_that_are_not_multiplicities(monkeypatch, scale):
    # eigenvectors off the unit sphere: weights n * u[0]^2 that miss an
    # integer (0.81 m), or integers (2 m) that do not sum to n
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0], scale * eigh(a)[1]))
    with pytest.raises(NoConvergence, match="multiplicities"):
        quotient_spectrum(*half_plane_quotient(FamilySpec(kind="noneuclidean", q=13, sigma=2, a=1)))


def test_quotient_spectrum_reports_a_failed_eigensolve(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(NoConvergence, match="quotient eigensolver failed"):
        quotient_spectrum(*half_plane_quotient(FamilySpec(kind="noneuclidean", q=13, sigma=2, a=1)))


def test_dense_spectrum_gates():
    with pytest.raises(BadParameter):
        dense_spectrum(graph_from_edges(3, [(0, 1), (1, 2)]))  # irregular
    big = FamilySpec(kind="euclidean", q=53, a=1)  # 2809 > 2500 cap
    with pytest.raises(TooLarge):
        dense_spectrum(build_family(big))


def _relabelled_copies(n, edges, perm):
    """len(perm) // n disjoint copies of an n-vertex graph, vertex i of the
    union renamed perm[i]."""
    return [(perm[c * n + u], perm[c * n + v]) for c in range(len(perm) // n) for u, v in edges]


def _circulant(n, offsets, seed=None):
    """The circulant on Z_n with connection set +-offsets; with a seed, a
    copy relabelled by that seed's fixed random permutation, which is not a
    circulant in its own labels."""
    edges = [(v, (v + s) % n) for v in range(n) for s in offsets]
    if seed is not None:
        edges = _relabelled_copies(n, edges, np.random.default_rng(seed).permutation(n).tolist())
    return graph_from_edges(n, edges)


@st.composite
def _regular_graphs(draw):
    """(graph, bipartite): circulants, random lifts of circulants, bipartite
    circulants, K_n and edgeless graphs, as one copy or a disjoint union of
    up to three copies under a random vertex labelling."""
    kind = draw(st.sampled_from(["circulant", "lift", "bipartite", "complete", "edgeless"]))
    if kind in ("complete", "edgeless"):
        n = draw(st.integers(1, 24))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)] if kind == "complete" else []
    else:
        n = draw(st.integers(2, 40).map(lambda k: 2 * k) if kind == "bipartite" else st.integers(3, 60))
        pool = range(1, n // 2 + 1, 2) if kind == "bipartite" else range(1, n // 2 + 1)
        offsets = draw(st.sets(st.sampled_from(list(pool)), min_size=1, max_size=5))
        edges = [(v, (v + s) % n) for v in range(n) for s in offsets]
        if kind == "lift":
            # a random k-lift: vertex (v, i) is v * k + i, and each base edge
            # carries its own permutation of the k sheets
            k = draw(st.integers(2, 4))
            base = {(min(u, v), max(u, v)) for u, v in edges}
            edges = [
                (u * k + i, v * k + pi)
                for u, v in sorted(base)
                for i, pi in enumerate(draw(st.permutations(range(k))))
            ]
            n *= k
    copies = draw(st.integers(1, 3))
    perm = draw(st.permutations(range(copies * n)))
    return graph_from_edges(copies * n, _relabelled_copies(n, edges, perm)), kind == "bipartite"


@settings(max_examples=120, deadline=None)
@given(_regular_graphs())
def test_least_eigenvalue_matches_the_dense_spectrum(case):
    g, bipartite = case
    dense = float(dense_spectrum(g).eigenvalues[-1])
    scale = max(1.0, abs(dense))
    got = least_eigenvalue(g)
    assert abs(got - dense) <= 1e-9 * scale
    # a lower bound: the ratio bound read from it is never below the true one
    assert got < dense
    if bipartite:
        assert abs(got + g.degree) <= 1e-9 * g.degree


def _spy_dense(monkeypatch):
    """Record the graphs whose least eigenvalue is read from the dense route."""
    seen, dense = [], spectral.dense_spectrum

    def spy(graph):
        seen.append(graph)
        return dense(graph)

    monkeypatch.setattr(spectral, "dense_spectrum", spy)
    return seen


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, outer + spokes + inner)


def _complete(n):
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _complete_bipartite(m):
    return graph_from_edges(2 * m, [(u, m + v) for u in range(m) for v in range(m)])


def _cosine_least(n, offsets):
    """min over j of sum_{s in S} cos(2 pi j s / n), S = +-offsets: the least
    eigenvalue of the circulant Cay(Z_n, S)."""
    conn = sorted({s % n for s in offsets} | {-s % n for s in offsets})
    return min(sum(math.cos(2 * math.pi * j * s / n) for s in conn) for j in range(n))


@pytest.mark.parametrize("graph,lam,dense_route", [
    # vertex-transitive but not a Cayley graph, so not a circulant
    pytest.param(_petersen(), -2.0, True, id="petersen"),
    pytest.param(_complete_bipartite(2), -2.0, True, id="K_2,2"),
    pytest.param(_complete_bipartite(4), -4.0, True, id="K_4,4"),
    pytest.param(_complete_bipartite(9), -9.0, True, id="K_9,9"),
    # every labelling of K_n is the circulant Cay(Z_n, Z_n - {0})
    pytest.param(_complete(2), -1.0, False, id="K_2"),
    pytest.param(_complete(7), -1.0, False, id="K_7"),
    pytest.param(_complete(30), -1.0, False, id="K_30"),
    pytest.param(_circulant(13, (1, 5), seed=13), _cosine_least(13, (1, 5)), True, id="C13-relabelled"),
    pytest.param(_circulant(300, (101, 113, 127), seed=300), _cosine_least(300, (101, 113, 127)), True,
                 id="C300-relabelled"),
])
def test_least_eigenvalue_matches_a_closed_form(monkeypatch, graph, lam, dense_route):
    # oracles that share no code with either route
    seen = _spy_dense(monkeypatch)
    got = least_eigenvalue(graph)
    assert seen == ([graph] if dense_route else [])
    assert abs(got - (lam - 1e-10 * max(1.0, abs(lam)))) <= 1e-12


_CIRCULANTS = [
    (5, (1,)), (12, (1, 6)), (13, (1, 5)), (40, (3, 7, 20)), (97, (1, 2, 5, 17, 40)),
    (300, (101, 106, 111, 116, 121, 126, 131, 136)),
]


@pytest.mark.parametrize("n,offsets", _CIRCULANTS)
def test_circulants_are_recognised_in_their_own_labels_only(n, offsets):
    conn = spectral._circulant_connection_set(_circulant(n, offsets))
    assert conn.tolist() == sorted({s % n for s in offsets} | {-s % n for s in offsets})
    assert spectral._circulant_connection_set(_circulant(n, offsets, seed=n)) is None


def _two_switch(graph):
    """A regular graph with the edges (a, b), (c, e) of ``graph`` replaced
    by (a, c), (b, e), for the first such pair whose new edges are absent:
    every degree stays."""
    edges = set(zip(*(side.tolist() for side in graph.edge_arrays())))
    for a, b in sorted(edges):
        for c, e in sorted(edges):
            new = {(min(a, c), max(a, c)), (min(b, e), max(b, e))}
            if len({a, b, c, e}) == 4 and not new & edges:
                return graph_from_edges(graph.n, (edges - {(a, b), (c, e)}) | new)
    raise AssertionError("no 2-switch")


@pytest.mark.parametrize("n,offsets", [(13, (1, 5)), (40, (3, 7, 20)), (300, (101, 113, 127))])
def test_a_regular_mutant_of_a_circulant_takes_the_dense_route(monkeypatch, n, offsets):
    circulant = _circulant(n, offsets)
    g = _two_switch(circulant)
    assert g.degree == circulant.degree
    assert spectral._circulant_connection_set(g) is None
    dense = float(dense_spectrum(g).eigenvalues[-1])
    seen = _spy_dense(monkeypatch)
    got = least_eigenvalue(g)
    assert seen == [g]
    assert abs(got - dense) <= 1e-9 * max(1.0, abs(dense)) and got <= dense


@pytest.mark.parametrize("n,offsets", _CIRCULANTS + [(2000, (667, 704, 741, 778, 815, 852, 889, 926))])
def test_circulant_least_eigenvalue_is_the_least_character_sum(monkeypatch, n, offsets):
    g = _circulant(n, offsets)
    seen = _spy_dense(monkeypatch)
    got = least_eigenvalue(g)
    assert seen == []
    cosine = _cosine_least(n, offsets)
    dense = float(dense_spectrum(g).eigenvalues[-1])
    for want in (cosine, dense):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    # a lower bound: the ratio bound read from it is never below the true one
    assert got <= dense and got <= cosine


def _abelian_cases():
    specs = [FamilySpec(kind="euclidean", q=q, a=a) for q in (7, 11) for a in range(1, q)]
    specs += [
        FamilySpec(kind="euclidean", q=13, a=2),  # q = 1 mod 4
        FamilySpec(kind="euclidean", q=5, m=3, a=2),
        FamilySpec(kind="euclidean", q=7, m=3, a=3),
        FamilySpec(kind="euclidean", q=7, m=4, a=2),  # 2401 vertices
    ]
    specs += [FamilySpec(kind="bch", k=k) for k in range(2, 6)]
    return specs + [FamilySpec(kind="alon", k=k) for k in (2, 4)]


@pytest.mark.parametrize("spec", _abelian_cases(), ids=FamilySpec.label)
def test_character_route_matches_dense_oracle(monkeypatch, spec):
    g = build_family(spec)
    # ALON_4 has 4096 vertices: lift the dense oracle's cap to reach it
    monkeypatch.setattr(limits, "DENSE_SPECTRUM_CAP", max(limits.DENSE_SPECTRUM_CAP, g.n))
    char = group_spectrum(spec)
    assert char.method == "character-sum" and char.n == g.n and char.d == g.degree
    assert np.max(np.abs(char.eigenvalues - dense_spectrum(g).eigenvalues)) < 1e-9


@pytest.mark.parametrize(
    "spec",
    [FamilySpec(kind="bch", k=k) for k in (2, 3, 4)] + [FamilySpec(kind="alon", k=k) for k in (2, 4)],
    ids=FamilySpec.label,
)
def test_code_graph_spectrum_is_the_exact_character_sum(spec):
    # eigenvalue at character y of (Z_2)^t: sum over s in S of (-1)^<y, s>
    g = build_family(spec)
    conn = g.neighbors(0).tolist()
    want = [sum(-1 if (y & s).bit_count() % 2 else 1 for s in conn) for y in range(g.n)]
    assert group_spectrum(spec).eigenvalues.tolist() == sorted(want, reverse=True)


@pytest.mark.parametrize("m", range(11))
def test_walsh_hadamard_is_the_sylvester_matrix_product(m):
    # signed entries, as the code walk transforms products of transforms,
    # and every m, odd ones included, where the result lands in the second
    # buffer; the oracle is H[x, y] = (-1)^popcount(x & y) in Python ints
    n = 1 << m
    values = np.random.default_rng(m).integers(-10**6, 10**6, n)
    want = [sum(v if (x & y).bit_count() % 2 == 0 else -v for y, v in enumerate(values.tolist())) for x in range(n)]
    assert spectral.walsh_hadamard(values.copy()).tolist() == want


@pytest.mark.parametrize(
    "spec",
    [FamilySpec(kind="bch", k=k) for k in range(2, 8)] + [FamilySpec(kind="alon", k=k) for k in (2, 4, 5)],
    ids=FamilySpec.label,
)
def test_walsh_hadamard_route_is_the_fft_bit_for_bit(spec):
    # the oracle is the FFT over the (2,) * t array, the route the code
    # graphs took before the Walsh-Hadamard transform
    conn = connection_set(spec)
    t = spec.n.bit_length() - 1
    indicator = np.zeros(spec.n)
    indicator[conn] = 1.0
    want = np.fft.fftn(indicator.reshape((2,) * t)).real.ravel()
    assert spectral._character_spectrum((2,) * t, conn).tobytes() == want.tobytes()


def test_code_graphs_take_no_fft_and_euclidean_graphs_do(monkeypatch, capsys):
    fftn = np.fft.fftn
    calls = []

    def refusing_fftn(*args, **kwargs):
        raise AssertionError("the code graphs take the Walsh-Hadamard route")

    monkeypatch.setattr(np.fft, "fftn", refusing_fftn)
    assert main(["verify", "--suite", "code", "--k", "5"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(np.fft, "fftn", lambda *args, **kwargs: calls.append(1) or fftn(*args, **kwargs))
    assert group_spectrum(FamilySpec(kind="euclidean", q=7, a=1)).method == "character-sum"
    assert calls == [1]


def test_character_route_past_the_dense_cap():
    spec = FamilySpec(kind="euclidean", q=23, m=3, a=1)  # 12,167 vertices, never built
    n, d = spec.n, euclidean_degree(23, 3, 1)
    tracemalloc.start()
    try:
        vals = group_spectrum(spec).eigenvalues
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals[0] == pytest.approx(d, abs=1e-9) and vals[1] < d - 1e-6  # connected
    assert abs(vals.sum()) <= 1e-6 * n * d  # no loops
    assert vals @ vals == pytest.approx(n * d, abs=1e-6 * n * d)  # 2|E| = n*d
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------

def test_alon_toughness_bound_values():
    assert alon_toughness_bound(4, 2) == pytest.approx(1 / 9)
    assert alon_toughness_bound(5, 5) == pytest.approx(-1 / 6)
    assert alon_toughness_bound(104, 2 * np.sqrt(103)) == pytest.approx(
        1.0956706285290905, abs=1e-12
    )
    assert alon_toughness_bound(8, 2 * np.sqrt(7)) == pytest.approx(
        -0.030010138052202134, abs=1e-12
    )
    with pytest.raises(BadParameter):
        alon_toughness_bound(4, 0)
    with pytest.raises(BadParameter):
        alon_toughness_bound(4, -1)


def test_ratio_independence_bound_values():
    assert ratio_independence_bound(9, 4, 6) == pytest.approx(3.0)
    # theta_n below the degree makes the bound vacuous: return n
    assert ratio_independence_bound(10, 4, 3) == 10
    assert ratio_independence_bound(10, 4, 0) == 10
    # formula value for the (49, 8, 8 + 2*sqrt7) cap inputs
    theta = 8 + 2 * np.sqrt(7)
    expected = 49 * (theta - 8) / theta
    assert ratio_independence_bound(49, 8, theta) == pytest.approx(expected)
    assert expected == pytest.approx(19.507473, abs=1e-6)


def test_bisection_and_bip_bounds_values():
    assert bisection_and_bip_bounds(9, 3, 6) == (
        pytest.approx(6.75),
        pytest.approx(13.5),
    )
    assert bisection_and_bip_bounds(4, 2, 4) == (
        pytest.approx(2.0),
        pytest.approx(4.0),
    )


def test_chromatic_lower_bound_values():
    assert chromatic_lower_bound(9, 3) == pytest.approx(3.0)
    assert chromatic_lower_bound(49, 38.77) == pytest.approx(49 / 38.77)


# ---------------------------------------------------------------------------
# Ramanujan property
# ---------------------------------------------------------------------------

def test_ramanujan_check_families():
    g = build("euclidean", q=7, a=1)
    assert ramanujan_check(group_spectrum(g.family), 7)
    g = build("noneuclidean", q=13, sigma=2, a=5)
    assert ramanujan_check(dense_spectrum(g), 13)
    g = build("euclidean", q=3, a=1)
    assert ramanujan_check(dense_spectrum(g), 3)


def test_ramanujan_check_rejects_loose_spectrum():
    # C_4 is bipartite with lam = 2 > 2*sqrt(0.25)
    s = dense_spectrum(cycle(4))
    assert not ramanujan_check(s, 0.25)


# ---------------------------------------------------------------------------
# cross-checks between spectral bounds and exact oracles
# ---------------------------------------------------------------------------

def test_bip_upper_bound_holds_exactly():
    for spec in [
        FamilySpec(kind="euclidean", q=3, a=1),
        FamilySpec(kind="bch", k=2),
    ]:
        g = build_family(spec)
        s = dense_spectrum(g)
        bip, bis = exact_max_cut_and_bisection(g)
        _, bip_upper = bisection_and_bip_bounds(g.n, s.theta2, s.theta_n)
        assert bip <= bip_upper + 1e-6


def test_toughness_exceeds_alon_bound():
    g = build("euclidean", q=3, a=1)
    s = dense_spectrum(g)
    bound = alon_toughness_bound(g.degree, s.lam)
    assert float(exact_toughness(g).value) > bound
