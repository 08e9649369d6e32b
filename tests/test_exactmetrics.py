"""Tests for BFS metrics, triangle counting, and the exhaustive optimizers."""

import itertools
import math
import tracemalloc
import weakref
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from ramseyforge import certify, exactmetrics, limits
from ramseyforge.algebra import find_nonsquare
from ramseyforge.certify import ramsey_certificate, verify_circle_lemma
from ramseyforge.errors import SizeLimitExceeded, TooLarge
from ramseyforge.exactmetrics import (
    connected_components,
    diameter,
    eccentricity_uniformity_check,
    exact_independence,
    exact_max_cut_and_bisection,
    exact_toughness,
    girth,
    metrics_report,
    quotient_invariants,
    quotient_triangles,
    triangle_count,
    xor_cayley_invariants,
)
from ramseyforge.graphs import FamilySpec, Graph, build_family, graph_from_edges
from ramseyforge.spectral import dense_spectrum, least_eigenvalue


def build(kind, **kw):
    return build_family(FamilySpec(kind=kind, **kw))


def path(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# ---------------------------------------------------------------------------
# BFS, girth, diameter
# ---------------------------------------------------------------------------

def test_bfs_distances_cycle():
    d = _graph_distances(cycle(6))
    assert list(d[0]) == [0, 1, 2, 3, 2, 1]


def test_bfs_unreachable_is_minus_one():
    d = _graph_distances(graph_from_edges(4, [(0, 1), (2, 3)]))
    assert list(d[0]) == [0, 1, -1, -1]


def test_eccentricity():
    d = _graph_distances(path(5))
    assert d[0].max() == 4
    assert d[2].max() == 2


def test_girth_small_graphs():
    assert girth(cycle(5)) == 5
    assert girth(cycle(4)) == 4
    assert girth(complete(4)) == 3
    assert girth(path(4)) == math.inf


def test_diameter_small_graphs():
    assert diameter(path(4)) == 3
    assert diameter(cycle(6)) == 3
    assert diameter(complete(5)) == 1
    assert diameter(graph_from_edges(4, [(0, 1), (2, 3)])) == math.inf


QUOTIENT_CASES = {
    **{f"C{n}": cycle(n) for n in range(3, 9)},
    "K4": complete(4),
    "K2": path(2),
    "2K3": graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
}


@pytest.mark.parametrize("name", list(QUOTIENT_CASES))
def test_quotient_girth_diameter_matches_the_graph(name):
    # on these graphs the distance from vertex 0 (unreached vertices as one
    # more class) gives classes whose members have equal neighbour classes;
    # all are Cayley graphs whose connection set is the distance-1 class.
    # The classes come from the matrix-power oracle, and on these ad-hoc
    # graphs girth, diameter, triangles and components from the root-set
    # kernels, the bitset count and the CSR component search, none of which
    # runs the frontier walk
    graph = QUOTIENT_CASES[name]
    dist = _graph_distances(graph)[0]
    classes = np.where(dist < 0, dist.max() + 1, dist)
    reps = [int(np.flatnonzero(classes == k)[0]) for k in range(classes.max() + 1)]
    nbr = np.array([classes[graph.neighbors(r)] for r in reps])
    sizes = np.bincount(classes)
    assert quotient_invariants(sizes, nbr) == (girth(graph), diameter(graph), connected_components(graph)[0])
    assert quotient_triangles(sizes, nbr) == triangle_count(graph)


def test_euclidean_girth_diameter_frozen():
    g3 = build("euclidean", q=3, a=1)
    assert girth(g3) == 3 and diameter(g3) == 2
    g7 = build("euclidean", q=7, a=1)
    assert girth(g7) == 4 and diameter(g7) == 3
    g13 = build("euclidean", q=13, a=1)
    assert girth(g13) == 3 and diameter(g13) == 3


def test_half_plane_girth_diameter_frozen():
    g = build("noneuclidean", q=17, sigma=3, a=6)
    assert girth(g) == 4 and diameter(g) == 3
    g = build("noneuclidean", q=5, sigma=2, a=4)
    assert diameter(g) == 2


def test_eccentricity_uniformity():
    assert eccentricity_uniformity_check(build("euclidean", q=7, a=1))
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert not eccentricity_uniformity_check(star)


@pytest.mark.parametrize("spec", [
    FamilySpec(kind="euclidean", q=q, a=1) for q in (3, 7, 13, 19, 31, 43)
] + [
    FamilySpec(kind="euclidean", q=5, m=3, a=2),
    FamilySpec(kind="noneuclidean", q=13, sigma=5, a=2),
] + [FamilySpec(kind="noneuclidean", q=q, sigma=3, a=6) for q in (17, 29)], ids=FamilySpec.label)
def test_family_graphs_have_uniform_eccentricity(spec):
    # certificates read a family diameter from its quotient and report
    # eccentricity_uniform = true from the Cayley structure; the spot check
    # on the built graph agrees
    assert eccentricity_uniformity_check(build_family(spec))


# ---------------------------------------------------------------------------
# both BFS kernels against oracles that share no code with either: distances
# from boolean matrix powers, cycle bounds from a plain deque BFS, both read
# off the edge list
# ---------------------------------------------------------------------------

def _oracle_distances(n, edges):
    """All-pairs hop distances, -1 when unreachable, from powers of the
    boolean adjacency matrix built from the edge list."""
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    reach = np.eye(n, dtype=bool)
    dist = np.where(reach, 0, -1)
    k = 0
    while True:
        k += 1
        new = ((reach.astype(np.int64) @ adj) > 0) & ~reach
        if not new.any():
            return dist
        dist[new] = k
        reach |= new


def _graph_distances(graph):
    """``_oracle_distances`` of a built graph, read off its edge list."""
    us, vs = graph.edge_arrays()
    return _oracle_distances(graph.n, zip(us.tolist(), vs.tolist()))


def _oracle_cycle_bound(adj, root):
    """Itai-Rodeh bound from one root: the shortest closed walk a deque BFS
    over adjacency lists sees through a non-tree edge."""
    dist = [-1] * len(adj)
    parent = [-1] * len(adj)
    dist[root] = 0
    best = math.inf
    queue = deque([root])
    while queue:
        u = queue.popleft()
        if 2 * dist[u] >= best:
            break
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                parent[v] = u
                queue.append(v)
            elif v != parent[u]:
                best = min(best, dist[u] + dist[v] + 1)
    return best


def _oracle_girth(n, edges):
    """Minimum of the oracle cycle bound over all roots."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return min((_oracle_cycle_bound(adj, r) for r in range(n)), default=math.inf)


def _kernel_cases():
    """(label, n, edges): tiny and disconnected graphs, odd and even girth,
    and seeded random graphs with more than 64 vertices."""
    petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    cube = [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)]
    cases = [
        ("n=0", 0, []),
        ("n=1", 1, []),
        ("isolated", 5, []),
        ("path+cycle", 8, [(0, 1), (1, 2)] + [(3 + i, 3 + (i + 1) % 5) for i in range(5)]),
        ("petersen", 10, petersen),
        ("cube", 8, cube),
        ("C7+tail", 10, [(i, (i + 1) % 7) for i in range(7)] + [(6, 7), (7, 8), (8, 9)]),
        ("C8", 8, [(i, (i + 1) % 8) for i in range(8)]),
        # past the first 64 roots only: a later block must still run
        ("C64+C5", 69,
         [(i, (i + 1) % 64) for i in range(64)] + [(64 + i, 64 + (i + 1) % 5) for i in range(5)]),
    ]
    rng = np.random.default_rng(20081)
    for i in range(16):
        n = int(rng.integers(70, 200))
        tree = int(rng.integers(n // 2, n + 1))  # vertices past the tree stay isolated
        edges = [(v, int(rng.integers(0, v))) for v in range(1, tree)]
        for _ in range(int(rng.integers(0, 4))):
            u, v = (int(x) for x in rng.choice(tree, size=2, replace=False))
            if (u, v) not in edges and (v, u) not in edges:
                edges.append((u, v))
        cases.append((f"tree+chords {i}", n, edges))
    for i in range(4):
        n = int(rng.integers(70, 130))
        upper = np.argwhere(np.triu(rng.random((n, n)) < 0.04, 1))
        cases.append((f"G(n, 0.04) {i}", n, [(int(u), int(v)) for u, v in upper]))
    return cases


@pytest.mark.parametrize("budget", [None, 1, 300])
def test_root_set_bfs_matches_oracles(monkeypatch, budget):
    """girth, diameter, eccentricities and the spot check on ad-hoc graphs;
    a small word budget splits the roots into several blocks."""
    if budget is not None:
        monkeypatch.setattr(exactmetrics, "_BFS_WORD_BUDGET", budget)
    most_blocks = 0
    girths = set()
    for label, n, edges in _kernel_cases():
        g = graph_from_edges(n, edges)
        most_blocks = max(most_blocks, len(list(exactmetrics._root_blocks(n, np.arange(n)))))
        dist = _oracle_distances(n, edges)
        ecc = [math.inf if (row < 0).any() else int(row.max()) for row in dist]
        assert exactmetrics._root_walk(g, np.arange(n))[1] == ecc, label
        assert diameter(g) == max(ecc, default=0), label
        want_girth = _oracle_girth(n, edges)
        assert girth(g) == want_girth, label
        girths.add(want_girth)
        sampled = np.unique(np.linspace(0, n - 1, num=min(8, n)).astype(np.int64))
        assert eccentricity_uniformity_check(g) == (len({ecc[r] for r in sampled}) <= 1), label
    assert {3, 4, 5, 7, 8, math.inf} <= girths
    assert (most_blocks > 1) == (budget is not None)


def test_irregular_graphs_match_oracle_root_by_root():
    """Eccentricities one root at a time over the degree-ordered columns,
    and the components."""
    irregular = 0
    for label, n, edges in _kernel_cases():
        g = graph_from_edges(n, edges)
        if g.degree is not None:
            continue
        irregular += 1
        dist = _oracle_distances(n, edges)
        for r in range(n):
            want = math.inf if (dist[r] < 0).any() else int(dist[r].max())
            assert exactmetrics._root_walk(g, [r])[1] == [want], (label, r)
        count, labels, sizes = connected_components(g)
        same = labels[:, None] == labels[None, :]
        assert (same == (dist >= 0)).all() and count == len(sizes) == len(set(labels)), label
    assert irregular >= 20


def test_frontier_bfs_gathers_each_level_in_bounded_chunks(monkeypatch):
    """With a word budget far below n*d, each level is gathered in chunks:
    girth, diameter and components are those of a one-chunk gather, and the
    traced peak of diameter and connected_components is bounded by n and the
    budget alone, the same bound for both degrees of D_13^3."""
    specs = [FamilySpec(kind="euclidean", q=13, m=3, a=a) for a in (1, 2)] + [
        FamilySpec(kind="euclidean", q=7, a=1),
        FamilySpec(kind="noneuclidean", q=13, sigma=2, a=1),
        FamilySpec(kind="bch", k=5),
    ]
    graphs = [build_family(spec) for spec in specs]
    want = [(girth(g), diameter(g), connected_components(g)[0]) for g in graphs]
    budget = 256
    monkeypatch.setattr(exactmetrics, "_BFS_WORD_BUDGET", budget)
    assert [(girth(g), diameter(g), connected_components(g)[0]) for g in graphs] == want
    assert {g.degree for g in graphs[:2]} == {156, 182}
    for g in graphs[:2]:
        assert g.n * g.degree > 100 * budget
        for oracle in (diameter, connected_components):
            tracemalloc.start()
            try:
                oracle(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * (budget + 8 * (g.n + 1)), (g.family.label(), oracle.__name__, peak)


def _girth_family_specs():
    for q in (5, 7, 13):
        sigma = find_nonsquare(q)
        for a in range(1, q):
            if a != 4 * sigma % q:
                yield FamilySpec(kind="noneuclidean", q=q, sigma=sigma, a=a)
    for q in (3, 5, 7, 11, 13):
        for a in (1, 2):
            yield FamilySpec(kind="euclidean", q=q, a=a)
    yield FamilySpec(kind="euclidean", q=7, m=3, a=2)
    for k in (2, 3, 4):
        yield FamilySpec(kind="bch", k=k)
    yield FamilySpec(kind="alon", k=2)


@pytest.mark.parametrize("spec", list(_girth_family_specs()), ids=FamilySpec.label)
def test_family_girth_matches_all_roots_oracle(spec):
    """The walk's girth from the identity is the minimum over all roots."""
    g = build_family(spec)
    us, vs = g.edge_arrays()
    assert girth(g) == _oracle_girth(g.n, zip(us.tolist(), vs.tolist()))


def test_spot_check_eccentricities_match_single_root_bfs():
    for g in (
        build("euclidean", q=13, a=1),
        build("bch", k=3),
        build("noneuclidean", q=13, sigma=2, a=2),
    ):
        roots = [0, 5, g.n // 2, g.n - 1]
        assert exactmetrics._root_walk(g, roots)[1] == _graph_distances(g)[roots].max(axis=1).tolist()


# ---------------------------------------------------------------------------
# triangles
# ---------------------------------------------------------------------------

def test_triangle_count_frozen():
    assert triangle_count(build("euclidean", q=3, a=1)) == 6
    assert triangle_count(build("euclidean", q=7, a=1)) == 0
    assert triangle_count(build("euclidean", q=13, a=1)) == 676
    assert triangle_count(complete(4)) == 4
    assert triangle_count(cycle(5)) == 0


def test_triangle_routes_agree():
    """The bitset oracle and the through-identity count agree on family graphs."""
    from ramseyforge.exactmetrics import _triangles_bitset

    for spec in [
        FamilySpec(kind="euclidean", q=3, a=1),
        FamilySpec(kind="euclidean", q=13, a=1),
        FamilySpec(kind="euclidean", q=7, m=3, a=2),
        FamilySpec(kind="noneuclidean", q=13, sigma=2, a=2),
        FamilySpec(kind="noneuclidean", q=29, sigma=3, a=6),
        FamilySpec(kind="bch", k=3),
        FamilySpec(kind="alon", k=4),
    ]:
        g = build_family(spec)
        assert _triangles_bitset(g) == triangle_count(g)


def test_girth_three_iff_triangles():
    for spec in [
        FamilySpec(kind="euclidean", q=q, a=a)
        for q in [5, 7, 11, 13] for a in [1, 2]
    ]:
        g = build_family(spec)
        assert (girth(g) == 3) == (triangle_count(g) > 0)


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def test_connected_components():
    count, labels, sizes = connected_components(build("euclidean", q=5, a=1))
    assert count == 1 and sizes == [25]
    count, labels, sizes = connected_components(build("bch", k=2))
    assert count == 2 and sizes == [8, 8]
    count, labels, sizes = connected_components(graph_from_edges(5, [(0, 1), (2, 3)]))
    assert count == 3 and sorted(sizes) == [1, 2, 2]
    assert labels[0] == labels[1] and labels[2] == labels[3]


def _many_component_cases():
    """(label, n, edges): matchings, forests and small cycles among isolated
    vertices, each with many components."""
    rng = np.random.default_rng(1978)
    cases = [
        ("matching", 120, [(2 * i, 2 * i + 1) for i in range(30)]),
        ("reversed matching", 90, [(89 - 2 * i, 88 - 2 * i) for i in range(40)]),
        ("triangles", 99, [(3 * i + j, 3 * i + (j + 1) % 3) for i in range(33) for j in range(3)]),
        ("stars", 100, [(10 * i, 10 * i + j) for i in range(0, 10, 2) for j in range(1, 10)]),
        # two frontier vertices of a square reach its far corner together
        ("squares", 100, [(4 * i + j, 4 * i + (j + 1) % 4) for i in range(20) for j in range(4)]),
    ]
    for i in range(6):
        n = int(rng.integers(80, 250))
        edges = {tuple(sorted(int(x) for x in rng.choice(n, size=2, replace=False))) for _ in range(n // 3)}
        cases.append((f"sparse {i}", n, sorted(edges)))
    return cases


@pytest.mark.parametrize("budget", [None, 1, 3])
def test_components_match_oracle_on_many_component_graphs(monkeypatch, budget):
    """Labels against the matrix-power oracle; a small word budget reads a
    level's neighbour lists in several chunks."""
    if budget is not None:
        monkeypatch.setattr(exactmetrics, "_BFS_WORD_BUDGET", budget)
    for label, n, edges in _many_component_cases():
        count, labels, sizes = connected_components(graph_from_edges(n, edges))
        reach = _oracle_distances(n, edges) >= 0
        assert ((labels[:, None] == labels[None, :]) == reach).all(), label
        smallest = [int(np.flatnonzero(labels == c)[0]) for c in range(count)]
        assert smallest == sorted(smallest) and smallest[0] == 0, label
        assert sizes == np.bincount(labels).tolist() and count > n // 4, label


def test_components_trace_memory_linear_in_the_graph():
    # padding a star's rows to the centre's degree traced 100 MiB at 3,001 vertices
    star = graph_from_edges(3001, [(0, v) for v in range(1, 3001)])
    tracemalloc.start()
    try:
        count, _, _ = connected_components(star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 1
    assert peak < 64 * (star.n + len(star.indices)), peak


@pytest.mark.parametrize("m, size", [(1, 1), (3, 1), (3, 2), (4, 3), (5, 6), (6, 4), (6, 20), (7, 9)])
def test_xor_walk_matches_root_set_kernels_on_random_connection_sets(m, size):
    """Cay(GF(2)^m, S) for a random S of nonzero vectors, built from its edge
    list as an ad-hoc graph: a matching (|S| = 1, no cycle), disconnected
    graphs and girth 3 included."""
    n = 1 << m
    conn = np.sort(np.random.default_rng(8 * m + size).choice(np.arange(1, n), size, replace=False))
    g = graph_from_edges(n, [(v, v ^ s) for v in range(n) for s in conn.tolist() if v < v ^ s])
    shortest, ecc = exactmetrics._root_walk(g, np.arange(n))
    assert xor_cayley_invariants(n, conn) == (shortest, max(ecc), connected_components(g)[0])


@pytest.mark.parametrize("spec", [FamilySpec(kind="bch", k=k) for k in range(2, 7)] + [
    FamilySpec(kind="alon", k=k) for k in (2, 4)
], ids=FamilySpec.label)
def test_code_graph_walk_matches_root_set_kernels(spec):
    """A built code graph is its own quotient: the walk from the identity and
    the triangle rows give what the all-roots kernels, the CSR component
    search and the bitset count give, disconnected graphs included.  So does
    the certificate record, which builds nothing: its walk runs on
    Walsh-Hadamard transforms of S and its triangles come from its spectrum."""
    g = build_family(spec)
    quotient = exactmetrics._cayley_quotient(g)
    shortest, ecc = exactmetrics._root_walk(g, np.arange(g.n))
    want = shortest, max(ecc), connected_components(g)[0]
    triangles = exactmetrics._triangles_bitset(g)
    assert quotient_invariants(*quotient) == want
    assert quotient_triangles(*quotient) == triangles
    assert xor_cayley_invariants(g.n, g.neighbors(0)) == want
    record = certify._Measured(spec)
    got = certify._metrics(record)
    assert (got.girth, got.diameter, got.components, got.triangles) == (*want, triangles)
    assert record._graph is None
    disconnected = spec.label() in ("BCH_2", "ALON_2", "ALON_4")
    assert (want[1] == math.inf) == disconnected and (want[2] > 1) == disconnected


def test_root_walk_pads_nothing_and_reads_no_entry_limit(monkeypatch):
    """The walk reads CSR columns, so no n x dmax matrix exists to refuse:
    the ad-hoc oracles run with limits.MAX_NEIGHBOR_ENTRIES at 0, and a
    3,001-vertex star traces O(n + m) plus a root block's bit arrays, where
    padding every row to the centre's degree took n * (n - 1) entries."""
    star = graph_from_edges(3001, [(0, v) for v in range(1, 3001)])
    monkeypatch.setattr(limits, "MAX_NEIGHBOR_ENTRIES", 0)
    for g in (star, path(7), cycle(9), graph_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4)])):
        report = metrics_report(g)
        assert (report.girth, report.diameter) == (girth(g), diameter(g))
        eccentricity_uniformity_check(g)
    n, m = star.n, star.num_edges
    words = min(max(1, exactmetrics._BFS_WORD_BUDGET // n), (n + 63) // 64)  # per vertex in a root block
    tracemalloc.start()
    try:
        result = girth(star), diameter(star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (math.inf, 2)
    assert peak < 8 * (8 * n * words + 8 * (n + 2 * m)), peak


def test_root_walk_reads_a_regular_graphs_columns_in_place():
    """A regular graph keeps its vertex order, and its columns are strided
    views of the CSR: the spot check on D_13^3(1), 2,197 vertices of degree
    182, traces well under the 3.2 MiB an int64 copy of its entries takes."""
    g = build_family(FamilySpec(kind="euclidean", q=13, m=3, a=1))
    rank, cols = exactmetrics._degree_columns(g)
    assert (rank == np.arange(g.n)).all() and len(cols) == g.degree
    assert all(np.shares_memory(col, g.indices) for col in cols)
    assert eccentricity_uniformity_check(g)  # pays numpy's first-call allocations
    tracemalloc.start()
    try:
        assert eccentricity_uniformity_check(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_metrics_report_takes_one_root_walk(monkeypatch):
    """An ad-hoc report reads girth and diameter from a single walk, and
    equals the oracles read one by one."""
    graphs = [graph_from_edges(n, edges) for _, n, edges in _kernel_cases()[::5]] + [path(1), cycle(8)]
    walk = exactmetrics._root_walk
    calls = []

    def spy(graph, *args, **kwargs):
        calls.append(graph)
        return walk(graph, *args, **kwargs)

    for g in graphs:
        want = girth(g), diameter(g), connected_components(g)[0]
        monkeypatch.setattr(exactmetrics, "_root_walk", spy)
        calls.clear()
        report = metrics_report(g)
        monkeypatch.setattr(exactmetrics, "_root_walk", walk)
        assert calls == [g]
        assert (report.girth, report.diameter, report.components) == want


def test_root_walk_eccentricities_follow_the_given_roots():
    """Roots come back in the order given, not in the walk's degree order:
    vertex 0 here is a leaf and vertex 5 the hub of largest degree."""
    edges = [(0, 1), (1, 2), (2, 3), (5, 1), (5, 2), (5, 3), (5, 4), (5, 6), (6, 7)]
    g = graph_from_edges(8, edges)
    assert g.degree is None and int(np.argmax(np.diff(g.indptr))) == 5
    ecc = [int(row.max()) for row in _oracle_distances(8, edges)]
    assert len(set(ecc)) > 1
    for roots in ([0, 5, 7], [7, 5, 0], [5], [3, 0, 6, 1, 4, 2, 7, 5]):
        assert exactmetrics._root_walk(g, roots)[1] == [ecc[r] for r in roots], roots


def test_root_subset_girth_is_never_below_the_girth():
    rng = np.random.default_rng(11)
    tighter = 0
    for label, n, edges in _kernel_cases():
        g = graph_from_edges(n, edges)
        full = exactmetrics._root_walk(g, np.arange(n))[0]
        assert full == _oracle_girth(n, edges), label
        for size in {min(n, 1), min(n, 2), n // 4}:
            roots = rng.choice(n, size=size, replace=False)
            shortest = exactmetrics._root_walk(g, roots)[0]
            assert shortest >= full, (label, roots)
            tighter += shortest > full
    assert tighter > 0


def test_bch_k2_is_bipartite_double_cover():
    g = build("bch", k=2)
    assert girth(g) == 4
    assert diameter(g) == math.inf


# ---------------------------------------------------------------------------
# toughness
# ---------------------------------------------------------------------------

def test_toughness_frozen_examples():
    res = exact_toughness(build("euclidean", q=3, a=1))
    assert res.value == Fraction(2)
    assert res.components_after == 2
    assert sorted(res.witness) == [0, 1, 5, 8]
    assert exact_toughness(path(3)).value == Fraction(1, 2)
    assert exact_toughness(cycle(5)).value == Fraction(1)


def test_toughness_witness_is_certificate():
    """Removing the witness really leaves that many components."""
    g = build("euclidean", q=3, a=1)
    res = exact_toughness(g)
    keep = sorted(set(range(g.n)) - set(res.witness))
    relab = {v: i for i, v in enumerate(keep)}
    edges = [
        (relab[u], relab[v])
        for u in keep for v in g.neighbors(u)
        if v in relab and u < v
    ]
    count, _, _ = connected_components(graph_from_edges(len(keep), edges))
    assert count == res.components_after
    assert Fraction(len(res.witness), count) == res.value


def test_toughness_complete_graph_sentinel():
    assert exact_toughness(complete(4)).value == math.inf


def test_toughness_disconnected_zero():
    res = exact_toughness(graph_from_edges(4, [(0, 1), (2, 3)]))
    assert res.value == Fraction(0)
    assert res.witness == ()


def _oracle_toughness(n, edges):
    """The full enumeration with no early stop: every vertex set by
    increasing size, lexicographic within a size, keeping the first strict
    improvement; components counted by union-find over the edge list."""
    def components(keep):
        root = {v: v for v in keep}

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for u, v in edges:
            if u in root and v in root:
                root[find(u)] = find(v)
        return len({find(v) for v in keep})

    whole = components(range(n)) if n else 0
    if whole > 1:
        return Fraction(0), (), whole
    best = (math.inf, None, None)
    for size in range(1, n - 1):
        for subset in itertools.combinations(range(n), size):
            comps = components(set(range(n)) - set(subset))
            if comps >= 2 and Fraction(size, comps) < best[0]:
                best = (Fraction(size, comps), subset, comps)
    return best


def _small_graph_cases(seed, sizes):
    """(label, n, edges): edgeless, complete and disconnected graphs, then
    seeded G(n, p) graphs over a range of densities."""
    cases = [
        ("edgeless 5", 5, []),
        ("K2", 2, [(0, 1)]),
        ("K5", 5, list(itertools.combinations(range(5), 2))),
        ("K8", 8, list(itertools.combinations(range(8), 2))),
        ("K4+K3", 7, list(itertools.combinations(range(4), 2)) + list(itertools.combinations(range(4, 7), 2))),
        ("C5", 5, [(i, (i + 1) % 5) for i in range(5)]),
        ("C5+isolated", 7, [(i, (i + 1) % 5) for i in range(5)]),
    ]
    return cases + _seeded_graph_cases(seed, sizes)


def _seeded_graph_cases(seed, sizes):
    """(label, n, edges) of seeded G(n, p) graphs, p in 0.3, 0.5 and 0.8."""
    cases = []
    rng = np.random.default_rng(seed)
    for n in sizes:
        for p in (0.3, 0.5, 0.8):
            edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
            cases.append((f"G({n}, {p})", n, edges))
    return cases


def test_toughness_matches_full_enumeration():
    # the component table, the integer keys |S| * (L / c) and the tie-breaks
    # by size, then by lexicographic order, may not move the value, the
    # witness or the component count
    kinds = set()
    cases = _small_graph_cases(2008, range(3, 12)) + _seeded_graph_cases(1979, range(12, 15))
    for label, n, edges in cases:
        res = exact_toughness(graph_from_edges(n, edges))
        want = _oracle_toughness(n, edges)
        assert (res.value, res.witness, res.components_after) == want, label
        kinds.add("complete" if want[0] == math.inf else "disconnected" if want[0] == 0 else "cut")
    assert kinds == {"complete", "disconnected", "cut"}


def _toughness_triple(graph):
    res = exact_toughness(graph)
    return res.value, res.witness, res.components_after


def test_toughness_table_matches_full_enumeration_at_the_cap():
    # one connected graph at n = limits.TOUGHNESS_CAP = 16, where the table
    # has 2^16 entries
    n = limits.TOUGHNESS_CAP
    rng = np.random.default_rng(16)
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.35]
    want = _oracle_toughness(n, edges)
    assert want[0] not in (0, math.inf)
    assert _toughness_triple(graph_from_edges(n, edges)) == want


def _components_after(n, edges, removed):
    """c(G - removed): the components of G with the edges at removed
    vertices dropped, less the removed vertices, each now alone."""
    keep = set(range(n)) - set(removed)
    return connected_components(graph_from_edges(n, [e for e in edges if keep.issuperset(e)]))[0] - len(removed)


def test_toughness_tie_between_sizes_goes_to_the_smaller():
    # C_6 is 1-tough: removing two vertices that are not adjacent leaves two
    # paths, and removing three alternate ones three vertices, the same ratio
    edges = [(i, (i + 1) % 6) for i in range(6)]
    assert _components_after(6, edges, (0, 2, 4)) == 3
    want = (Fraction(1), (0, 2), 2)
    assert _oracle_toughness(6, edges) == want
    assert _toughness_triple(graph_from_edges(6, edges)) == want


def test_toughness_tie_within_a_size_goes_to_the_lexicographically_first():
    # C_6 run as 1-0-2-3-4-5-1: {0, 3} and {1, 2} both cut it in two, and
    # {0, 3} comes first although its mask, 0b1001, is the larger
    edges = [(0, 1), (0, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    assert _components_after(6, edges, (1, 2)) == 2
    want = (Fraction(1), (0, 3), 2)
    assert _oracle_toughness(6, edges) == want
    assert _toughness_triple(graph_from_edges(6, edges)) == want


def test_toughness_small_complete_and_disconnected_graphs():
    cases = [(0, []), (1, []), (2, []), (2, [(0, 1)])]
    for n, edges in cases:
        assert _toughness_triple(graph_from_edges(n, edges)) == _oracle_toughness(n, edges), (n, edges)
    assert _toughness_triple(graph_from_edges(2, [])) == (Fraction(0), (), 2)
    assert _toughness_triple(complete(16)) == (math.inf, None, None)
    # two K_8 joined by nothing: 0 at once, with both components
    halves = [(u, v) for u, v in itertools.combinations(range(16), 2) if (u < 8) == (v < 8)]
    assert _toughness_triple(graph_from_edges(16, halves)) == _oracle_toughness(16, halves) == (Fraction(0), (), 2)


def test_toughness_table_stays_small_at_the_cap():
    # 2^16 sets at 16 bytes each, about 1 MiB; the bound leaves room for
    # numpy's temporaries
    g = graph_from_edges(16, [(i, (i + 1) % 16) for i in range(16)])
    tracemalloc.start()
    try:
        exact_toughness(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_toughness_too_large():
    with pytest.raises(TooLarge):
        exact_toughness(build("euclidean", q=5, a=1))


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------

def test_independence_frozen_examples():
    res = exact_independence(build("euclidean", q=3, a=1))
    assert res.size == 3 and res.exact
    assert sorted(res.witness) == [0, 4, 8]
    assert exact_independence(cycle(5)).size == 2
    assert exact_independence(complete(5)).size == 1
    assert exact_independence(path(4)).size == 2


def test_independence_d7_frozen():
    res = exact_independence(build("euclidean", q=7, a=1))
    assert res.size == 14 and res.exact


def test_independence_witness_verified():
    g = build("euclidean", q=7, a=1)
    res = exact_independence(g)
    w = sorted(res.witness)
    assert len(w) == res.size
    for i, u in enumerate(w):
        for v in w[i + 1:]:
            assert not g.adjacency_oracle(u, v)


def test_independence_budget_flagged_inexact(monkeypatch):
    g = build("euclidean", q=7, a=1)
    monkeypatch.setattr(limits, "NODE_BUDGET", 5)  # read when the search starts
    res = exact_independence(g)
    assert not res.exact
    assert res.nodes <= 6
    assert res.size >= 1  # still returns the best set found


def _frozen_independence(graph, budget):
    """The branch and bound in its plain form, kept as the oracle for the
    search's tree: state in a dict, the whole greedy cover counted at every
    node, bits cleared with fresh masks and the pick scanned over all
    indices.  On a family graph (vertex transitive) only the include branch
    of the root's pick is searched.  Returns (size, witness, exact, nodes)."""
    n = graph.n
    masks = [sum(1 << int(v) for v in graph.neighbors(u)) for u in range(n)]
    state = {"best": 0, "best_set": 0, "nodes": 0, "exceeded": False}

    def cover_bound(open_set):
        cliques = 0
        rem = open_set
        while rem:
            v = (rem & -rem).bit_length() - 1
            rem &= ~(1 << v)
            cand = rem & masks[v]
            while cand:
                u = (cand & -cand).bit_length() - 1
                rem &= ~(1 << u)
                cand &= masks[u]
            cliques += 1
        return cliques

    def branch(open_set, size, chosen, root=False):
        state["nodes"] += 1
        if state["nodes"] > budget:
            state["exceeded"] = True
            return
        if size > state["best"]:
            state["best"] = size
            state["best_set"] = chosen
        if not open_set:
            return
        if size + cover_bound(open_set) <= state["best"]:
            return
        pick = -1
        pick_deg = -1
        for v in range(n):
            if (open_set >> v) & 1:
                deg = bin(open_set & masks[v]).count("1")
                if deg > pick_deg:
                    pick_deg = deg
                    pick = v
        bit = 1 << pick
        branch(open_set & ~masks[pick] & ~bit, size + 1, chosen | bit)
        if state["exceeded"]:
            return
        if root and graph.family is not None:
            return
        branch(open_set & ~bit, size, chosen)

    branch((1 << n) - 1, 0, 0, root=True)
    witness = tuple(v for v in range(n) if (state["best_set"] >> v) & 1)
    return state["best"], witness, not state["exceeded"], state["nodes"]


def _independence_graphs():
    specs = [
        FamilySpec(kind="euclidean", q=3, a=1),
        FamilySpec(kind="euclidean", q=7, a=1),
        FamilySpec(kind="noneuclidean", q=7, sigma=3, a=1),
        FamilySpec(kind="bch", k=2),
        FamilySpec(kind="bch", k=3),
        FamilySpec(kind="alon", k=2),
    ]
    graphs = [(spec.label(), build_family(spec)) for spec in specs]
    rng = np.random.default_rng(1993)
    for n in (8, 13, 21, 30, 40, 50, 60):
        for p in (0.1, 0.3, 0.6):
            upper = np.argwhere(np.triu(rng.random((n, n)) < p, 1))
            graphs.append((f"G({n}, {p})", graph_from_edges(n, [(int(u), int(v)) for u, v in upper])))
    # triangle-free, where the search skips the cover of an open set too
    # large for two-vertex cliques to fit the room left
    for n in (40, 50, 60):
        graphs.append((f"maximal triangle-free {n}", graph_from_edges(n, _maximal_triangle_free(rng, n))))
    # n = 280 > 128 takes two-byte lanes, and an open lane reaches n + 269
    n, hub = 280, 130
    edges = [(hub, v) for v in range(n) if v != hub and v % 29]
    edges += [(u, v) for u, v in itertools.combinations(range(250, n), 2) if rng.random() < 0.3]
    wide = graph_from_edges(n, edges)
    assert len(wide.neighbors(hub)) >= 256
    graphs.append((f"hub of degree {len(wide.neighbors(hub))}", wide))
    return graphs


def _maximal_triangle_free(rng, n):
    """Edges of the random triangle-free process: every pair in a seeded
    order, taken unless it closes a triangle."""
    pairs = list(itertools.combinations(range(n), 2))
    nbr = [0] * n
    edges = []
    for i in rng.permutation(len(pairs)):
        u, v = pairs[i]
        if not nbr[u] & nbr[v]:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
            edges.append((u, v))
    return edges


def _assert_no_worse(graph, res, want, label):
    """The search against a plain tree whose nodes it visits a subset of, in
    the same order: exact no worse and nodes no more; the plain tree's size
    and witness when it finishes, else a set no smaller; and the witness an
    independent set of the size found."""
    size, witness, exact, nodes = want
    assert res.exact >= exact and res.nodes <= nodes, label
    if exact:
        assert (res.size, res.witness) == (size, witness), label
    else:
        assert res.size >= size, label
    assert len(res.witness) == res.size, label
    assert not any(graph.adjacency_oracle(u, v) for u, v in itertools.combinations(res.witness, 2)), label


@pytest.mark.parametrize("budget", [5, 50, 500, None])
def test_independence_matches_frozen_search(monkeypatch, budget):
    # graphs with triangles keep the greedy clique cover, so their tree is
    # the plain one node for node; a triangle-free graph prunes with a
    # matching at least as large as the greedy one, which any node the plain
    # tree prunes also prunes, so its nodes are a subset of the plain tree's
    if budget is not None:
        monkeypatch.setattr(limits, "NODE_BUDGET", budget)
    cut_short = saved = 0
    for label, g in _independence_graphs():
        res = exact_independence(g)
        want = _frozen_independence(g, limits.NODE_BUDGET)
        if triangle_count(g):
            assert (res.size, res.witness, res.exact, res.nodes) == want, label
        else:
            _assert_no_worse(g, res, want, label)
            saved += want[3] - res.nodes
        cut_short += not res.exact
    assert (cut_short > 0) == (budget is not None)
    if budget is None:
        assert saved > 0


def test_independence_cover_skip_needs_triangle_freeness(monkeypatch):
    # the matching bound holds on any graph, so told that graphs with
    # triangles have none, the search keeps every size and witness; but a
    # matching bounds a clique by half its size where the cover counts one,
    # so on disjoint cliques it prunes far less than the plain tree
    graphs = [(label, g) for label, g in _independence_graphs() if triangle_count(g)]
    cliques = [(5 * c + i, 5 * c + j) for c in range(4) for i, j in itertools.combinations(range(5), 2)]
    graphs.append(("4 K_5", graph_from_edges(20, cliques)))
    monkeypatch.setattr(exactmetrics, "_triangle_free", lambda masks: True)
    for label, g in graphs:
        res = exact_independence(g)
        size, witness, exact, nodes = _frozen_independence(g, limits.NODE_BUDGET)
        assert (res.size, res.witness, res.exact) == (size, witness, exact), label
    # the last graph, 4 K_5: the plain tree takes 9 nodes
    assert (res.size, nodes) == (4, 9) and res.nodes > 10 * nodes


def test_triangle_freeness_from_masks_matches_the_triangle_count():
    for label, g in _independence_graphs():
        free = exactmetrics._triangle_free(exactmetrics._neighbor_masks(g))
        assert free == (triangle_count(g) == 0), label


def test_independence_reads_no_triangle_cap(monkeypatch):
    # triangle-freeness comes from the search's own masks, not from the
    # capped bitset triangle count, so only INDEPENDENCE_CAP can refuse the
    # search
    monkeypatch.setattr(limits, "BITSET_TRIANGLE_CAP", 1)
    for edges in ([(0, 1), (1, 2), (2, 0), (2, 3)], [(0, 1), (1, 2), (2, 3), (3, 4)]):
        assert exact_independence(graph_from_edges(5, edges)).size == 3


def _bound_masks(n, edges):
    """(masks, bits) of the bound helpers: masks[p] holds the bits of p's
    neighbours."""
    bits = [1 << p for p in range(n)]
    masks = [0] * n
    for u, v in edges:
        masks[u] |= bits[v]
        masks[v] |= bits[u]
    return masks, bits


def _alpha_oracle(open_set, masks):
    """alpha of the graph induced on open_set: the top vertex is in a
    maximum independent set or not."""
    if not open_set:
        return 0
    p = open_set.bit_length() - 1
    rest = open_set ^ (1 << p)
    return max(_alpha_oracle(rest, masks), 1 + _alpha_oracle(rest & ~masks[p], masks))


def _bound_cases(seed, count):
    """(n, edges, bipartite) of seeded triangle-free graphs on at most 14
    vertices: bipartite ones and maximal triangle-free ones, which hold odd
    cycles."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        n = int(rng.integers(2, 15))
        if i % 2:
            side = rng.random(n) < 0.5
            p = rng.uniform(0.2, 0.6)
            edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if side[u] != side[v] and rng.random() < p]
            cases.append((n, edges, True))
        else:
            cases.append((n, _maximal_triangle_free(rng, n), False))
    return cases


def test_matching_bound_is_sound_and_no_weaker_than_the_greedy_cover():
    # a prune proves alpha(open) <= room; the greedy matching is the greedy
    # cover's, so the bound never branches where the cover prunes; and on a
    # bipartite graph, where an alternating BFS finds every augmenting path,
    # the matching grows to a maximum one, so by Koenig's theorem the bound
    # prunes exactly when alpha(open) <= room
    rng = np.random.default_rng(7)
    grown = 0
    for n, edges, bipartite in _bound_cases(2016, 60):
        masks, bits = _bound_masks(n, edges)
        assert exactmetrics._triangle_free(masks)
        mate = [0] * n
        for open_set in [(1 << n) - 1] + [int(rng.integers(0, 1 << n)) for _ in range(6)]:
            alpha = _alpha_oracle(open_set, masks)
            for room in range(open_set.bit_count() + 1):
                branch = exactmetrics._matching_exceeds(open_set, room, masks, bits, mate)
                cover = exactmetrics._cover_exceeds(open_set, room, masks, bits)
                assert branch or alpha <= room
                assert cover or not branch
                if bipartite:
                    assert branch == (alpha > room)
                grown += cover and not branch
    # augmenting paths prune where the greedy matching alone would not
    assert grown > 0


def test_independence_searches_past_the_recursion_limit(monkeypatch):
    # the search keeps its own stack: a recursive search would go 1,200
    # calls deep on the edgeless graph and 1,199 on the path
    monkeypatch.setattr(limits, "INDEPENDENCE_CAP", 1200)
    for edges, alpha in (([], 1200), ([(i, i + 1) for i in range(1199)], 600)):
        g = graph_from_edges(1200, edges)
        res = exact_independence(g)
        assert (res.size, res.exact) == (alpha, True)
        chosen = set(res.witness)
        assert len(chosen) == alpha and not any(u in chosen and v in chosen for u, v in edges)


@pytest.mark.parametrize("n", [0, 1, 2, 128, 129, 2**15, 2**15 + 1, 2**31, 2**31 + 1])
def test_lane_width_holds_every_lane_value(n):
    # lanes hold values below 2n in the least width of 1, 2, 4 or 8 bytes
    width = exactmetrics._lane_bytes(n)
    assert 2 * n <= 256**width
    assert width == 1 or 2 * n > 256 ** (width // 2)


def _as_adhoc(graph):
    """The same CSR lists with no family, so the search takes both branches
    of the root."""
    return Graph(None, graph.n, graph.indptr, graph.indices, degree=graph.degree)


@pytest.mark.parametrize("budget", [5, 50, 500, None])
def test_independence_root_rule_keeps_size_and_witness(monkeypatch, budget):
    # a family graph skips the exclude branch of the root: against the plain
    # tree over the same lists, exact is no worse, the node count no larger
    # and the size and witness those of the plain tree when it finishes
    if budget is not None:
        monkeypatch.setattr(limits, "NODE_BUDGET", budget)
    family = [(label, g) for label, g in _independence_graphs() if g.family is not None]
    assert len(family) == 6
    saved = 0
    for label, g in family:
        res = exact_independence(g)
        want = _frozen_independence(_as_adhoc(g), limits.NODE_BUDGET)
        # the include branch comes first, so with the clique cover the
        # visited nodes are the plain tree's first ones
        _assert_no_worse(g, res, want, label)
        if triangle_count(g):
            assert (res.size, res.witness) == want[:2], label
        saved += want[3] - res.nodes
    # a budget of 5 cuts every search short inside the root's include branch
    assert (saved > 0) == (budget != 5)


def test_independence_root_pick_outside_every_maximum_set():
    # on an ad-hoc graph the root rule stays off: the centre of a star has
    # the highest degree, so it is the root's pick, and lies in no maximum set
    star = graph_from_edges(9, [(0, v) for v in range(1, 9)])
    res = exact_independence(star)
    assert (res.size, res.witness, res.exact) == (8, tuple(range(1, 9)), True)


def test_independence_too_large():
    with pytest.raises(TooLarge):
        exact_independence(build("noneuclidean", q=19, sigma=2, a=1))


def _counting_search(monkeypatch):
    """Record each graph size the branch and bound runs on."""
    searches = []
    search = exactmetrics._search_independence

    def counting(graph, budget):
        searches.append(graph.n)
        return search(graph, budget)

    monkeypatch.setattr(exactmetrics, "_search_independence", counting)
    return searches


def test_independence_is_searched_once_per_graph(monkeypatch):
    searches = _counting_search(monkeypatch)
    g = build("euclidean", q=7, a=1)
    first = exact_independence(g)
    assert exact_independence(g) is first
    assert searches == [49]
    # an equal graph is another object, with a search of its own
    assert exact_independence(build("euclidean", q=7, a=1)) == first
    assert searches == [49, 49]


def test_independence_searches_again_under_another_budget(monkeypatch):
    g = build("euclidean", q=7, a=1)
    default = limits.NODE_BUDGET
    full = exact_independence(g)
    assert full.exact
    searches = _counting_search(monkeypatch)
    monkeypatch.setattr(limits, "NODE_BUDGET", 5)
    cut = exact_independence(g)
    assert searches == [49]
    assert not cut.exact and cut.nodes <= 6
    assert (cut.size, cut.witness, cut.exact, cut.nodes) == _frozen_independence(g, 5)
    assert exact_independence(g) is cut
    # each budget keeps its own result
    monkeypatch.setattr(limits, "NODE_BUDGET", default)
    assert exact_independence(g) is full
    assert searches == [49]


def test_independence_cap_refuses_a_graph_with_a_stored_result(monkeypatch):
    g = cycle(12)
    assert exact_independence(g).size == 6
    monkeypatch.setattr(limits, "INDEPENDENCE_CAP", 11)
    with pytest.raises(TooLarge) as refused:
        exact_independence(g)
    assert str(refused.value) == "exact independence on 12 vertices exceeds limits.INDEPENDENCE_CAP = 11"


def test_stored_independence_dies_with_its_graph():
    g = build("bch", k=2)
    exact_independence(g)
    alive = weakref.ref(g)
    del g
    assert alive() is None


# ---------------------------------------------------------------------------
# cuts
# ---------------------------------------------------------------------------

def test_cuts_frozen_examples():
    # (bip, bisection width): bip maximizes |dS|, bisection minimizes it
    # over balanced splits
    assert exact_max_cut_and_bisection(build("euclidean", q=3, a=1)) == (12, 8)
    assert exact_max_cut_and_bisection(cycle(4)) == (4, 2)
    assert exact_max_cut_and_bisection(cycle(5)) == (4, 2)
    assert exact_max_cut_and_bisection(path(4)) == (3, 1)


def test_cuts_complete_bipartite():
    g = graph_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert exact_max_cut_and_bisection(g) == (4, 2)


def _oracle_cuts(n, edges):
    """(max cut, min balanced bisection) over all 2^n splits, in plain Python."""
    best_cut, best_bisection = 0, math.inf
    for sides in itertools.product((0, 1), repeat=n):
        cross = sum(sides[u] != sides[v] for u, v in edges)
        best_cut = max(best_cut, cross)
        if sum(sides) in (n // 2, n - n // 2):
            best_bisection = min(best_bisection, cross)
    return best_cut, best_bisection


def test_cuts_brute_reference():
    """Independent re-derivation of both quantities over all 2^n splits."""
    for label, n, edges in _small_graph_cases(1935, range(2, 13)):
        assert exact_max_cut_and_bisection(graph_from_edges(n, edges)) == _oracle_cuts(n, edges), label


def test_cuts_too_large():
    with pytest.raises(TooLarge):
        exact_max_cut_and_bisection(build("euclidean", q=5, a=1))


def _refusal(lever, call, arg, size, what, error=TooLarge):
    return pytest.param(lever, call, arg, size, what, error, id=f"{lever}-{call.__name__}")


D3 = FamilySpec(kind="euclidean", q=3, a=1)  # 9 vertices of degree 4
# a circulant, triangle-free (offsets in (n/3, n/2) are sum-free) and past
# VERIFY_ALPHA_CAP, so its certificate takes the ratio bound; relabelled by a
# fixed permutation, so that bound is not read as a character sum but takes
# the dense route
_PERM120 = np.random.default_rng(120).permutation(120).tolist()
C120 = graph_from_edges(
    120, [(_PERM120[v], _PERM120[(v + s) % 120]) for v in range(120) for s in (41, 47, 53)]
)


@pytest.mark.parametrize("lever,call,arg,size,what,error", [
    _refusal("DENSE_SPECTRUM_CAP", dense_spectrum, build_family(D3), 9, "dense spectrum on 9 vertices"),
    # the ad-hoc ratio bound of a graph that is not a circulant reads the dense spectrum
    _refusal("DENSE_SPECTRUM_CAP", least_eigenvalue, C120, 120, "dense spectrum on 120 vertices"),
    _refusal("DENSE_SPECTRUM_CAP", ramsey_certificate, C120, 120, "dense spectrum on 120 vertices"),
    _refusal("TOUGHNESS_CAP", exact_toughness, build_family(D3), 9, "exact toughness on 9 vertices"),
    _refusal("INDEPENDENCE_CAP", exact_independence, build_family(D3), 9, "exact independence on 9 vertices"),
    _refusal("CUT_CAP", exact_max_cut_and_bisection, build_family(D3), 9, "exact cut enumeration on 9 vertices"),
    # an ad-hoc graph: family graphs count triangles through the identity
    _refusal("BITSET_TRIANGLE_CAP", triangle_count, cycle(9), 9, "bitset triangle count on 9 vertices"),
    _refusal("CIRCLE_LEMMA_CAP", verify_circle_lemma, 3, 3, "exhaustive circle check at q = 3"),
    _refusal("MAX_NEIGHBOR_ENTRIES", build_family, D3, 36, "neighbor matrix of n*d = 9*4 = 36 entries",
             SizeLimitExceeded),
    _refusal("RAMSEY_FORGE_MAX_N", build_family, FamilySpec(kind="bch", k=2), 16, "graph on 16 vertices",
             SizeLimitExceeded),
])
def test_caps_are_read_when_the_oracle_runs(monkeypatch, lever, call, arg, size, what, error):
    # every refusal reads its limit when the call runs and names its lever
    def set_limit(value):
        if lever == "RAMSEY_FORGE_MAX_N":
            monkeypatch.setenv(lever, str(value))
        else:
            monkeypatch.setattr(limits, lever, value)

    set_limit(size - 1)
    with pytest.raises(error) as exc:
        call(arg)
    named = lever if lever == "RAMSEY_FORGE_MAX_N" else f"limits.{lever}"
    assert type(exc.value) is error
    assert str(exc.value) == f"{what} exceeds {named} = {size - 1}"
    set_limit(size)
    call(arg)


# ---------------------------------------------------------------------------
# the combined report
# ---------------------------------------------------------------------------

def test_metrics_report_euclidean():
    rep = metrics_report(build("euclidean", q=7, a=1))
    assert rep.n == 49
    assert rep.degree == 8
    assert rep.girth == 4
    assert rep.diameter == 3
    assert rep.triangles == 0
    assert rep.components == 1
    assert rep.is_vertex_transitive_assumed


def test_metrics_report_adhoc():
    rep = metrics_report(path(4))
    assert rep.n == 4 and rep.degree is None
    assert rep.girth == math.inf
    assert rep.diameter == 3
    assert not rep.is_vertex_transitive_assumed
