"""Tests for graph family builders, codecs, the adjacency oracle, and exporters."""

import json

import numpy as np
import pytest

from ramseyforge import graphs, limits
from ramseyforge.algebra import gf2k_pow, is_odd_prime, poincare_distance, quadrance, quadratic_character
from ramseyforge.errors import (
    BadParameter,
    BadSigma,
    DegenerateDistance,
    SizeLimitExceeded,
)
from ramseyforge.exactmetrics import (
    _root_walk,
    _triangles_bitset,
    connected_components,
    diameter,
    girth,
    quotient_invariants,
    quotient_triangles,
    triangle_count,
)
from ramseyforge.graphs import (
    FamilySpec,
    _check_size,
    _classes,
    _product,
    alon_connection_set,
    alon_split,
    bch_connection_set,
    build_family,
    connection_set,
    distance_classes,
    distance_quotient,
    euclidean_degree,
    export_graph,
    graph_from_edges,
)
from ramseyforge.spectral import cayley_spectrum_abelian


def build(kind, **kw):
    return build_family(FamilySpec(kind=kind, **kw))


# ---------------------------------------------------------------------------
# family sizes and regularity
# ---------------------------------------------------------------------------

def test_euclidean_sizes():
    g = build("euclidean", q=3, a=1)
    assert g.n == 9 and g.degree == 4
    g = build("euclidean", q=7, a=1)
    assert g.n == 49 and g.degree == 8
    g = build("euclidean", q=3, m=3, a=1)
    assert g.n == 27 and g.degree == 6


def test_half_plane_sizes():
    g = build("noneuclidean", q=5, sigma=2, a=4)
    assert g.n == 20 and g.degree == 6
    g = build("noneuclidean", q=17, sigma=3, a=6)
    assert g.n == 272 and g.degree == 18


def test_half_plane_regular_q_plus_one():
    for q, sigma in [(5, 2), (13, 2), (17, 3)]:
        for a in range(1, q):
            if a == (2 * sigma) % q or a == 0:
                pass
            if a == (4 * sigma) % q:
                continue
            g = build("noneuclidean", q=q, sigma=sigma, a=a)
            assert g.is_regular and g.degree == q + 1


def test_half_plane_degenerate_a():
    with pytest.raises(DegenerateDistance):
        build("noneuclidean", q=5, sigma=2, a=3)  # a = 4*sigma mod 5
    with pytest.raises(DegenerateDistance):
        FamilySpec(kind="noneuclidean", q=5, sigma=2, a=0)


def test_half_plane_distance_one_is_never_degenerate():
    # 4*sigma = 1 would make sigma = (2^-1)^2 a square, so a = 1 is valid for
    # every non-square sigma: the sweep's default half-plane parameters use it
    for q in filter(is_odd_prime, range(3, 500)):
        for sigma in range(1, q):
            if quadratic_character(sigma, q) == -1:
                assert FamilySpec(kind="noneuclidean", q=q, sigma=sigma, a=1).a == 1


def test_half_plane_sigma_must_be_nonsquare():
    with pytest.raises(BadSigma):
        FamilySpec(kind="noneuclidean", q=5, sigma=4, a=1)


def test_half_plane_sigma_defaults_to_smallest_nonsquare():
    assert FamilySpec(kind="noneuclidean", q=13).sigma == 2
    assert FamilySpec(kind="noneuclidean", q=17).sigma == 3
    with pytest.raises(BadSigma):
        FamilySpec(kind="noneuclidean", q=13, sigma=4)


def test_euclidean_rejects_bad_field():
    with pytest.raises(BadParameter):
        FamilySpec(kind="euclidean", q=4, a=1)
    with pytest.raises(BadParameter):
        FamilySpec(kind="euclidean", q=2, a=1)


def test_zero_distance_parameter_rejected():
    with pytest.raises(BadParameter):
        FamilySpec(kind="euclidean", q=7, a=7)  # a = 0 mod q would create loops


def test_alon_k_multiple_of_three_rejected():
    with pytest.raises(BadParameter):
        FamilySpec(kind="alon", k=3)
    with pytest.raises(BadParameter):
        FamilySpec(kind="alon", k=6)


# ---------------------------------------------------------------------------
# code graph connection sets
# ---------------------------------------------------------------------------

def test_bch_connection_set_k2():
    assert bch_connection_set(2) == [5, 6, 7]


def test_bch_connection_set_sizes():
    for k in [2, 3, 4, 5]:
        s = bch_connection_set(k)
        assert len(s) == (1 << k) - 1
        assert len(set(s)) == len(s)
        assert all(0 < v < (1 << (2 * k)) for v in s)


def test_alon_split_k2():
    w0, w1 = alon_split(2)
    assert w0 == [1] and sorted(w1) == [2, 3]


def test_alon_split_sizes():
    for k in [2, 4, 5, 7]:
        w0, w1 = alon_split(k)
        assert len(w0) == (1 << (k - 1)) - 1
        assert len(w1) == 1 << (k - 1)
        assert sorted(w0 + w1) == list(range(1, 1 << k))


def test_alon_connection_set_k2():
    assert alon_connection_set(2) == [35, 50]


@pytest.mark.parametrize("k", [2, 4, 5, 8])
def test_alon_connection_set_is_the_pairwise_sum_set(k):
    # every (w0, w1) pair packs both of its ends: the formula as the family
    # defines it, (w0, w0^3, w0^5) + (w1, w1^3, w1^5)
    w0s, w1s = alon_split(k)

    def pack(w):
        return w | (gf2k_pow(w, 3, k) << k) | (gf2k_pow(w, 5, k) << (2 * k))

    assert alon_connection_set(k) == sorted({pack(w0) ^ pack(w1) for w0 in w0s for w1 in w1s})


def test_alon_graph_meta():
    g = build("alon", k=2)
    assert g.n == 64 and g.degree == 2
    assert g.meta["w0_size"] == 1
    assert g.meta["w1_size"] == 2
    assert g.meta["sum_set_size"] == 2
    assert g.meta["sum_set_claimed"] == 2
    assert g.meta["sum_set_matches_claim"] is True


def test_bch_graph_shape():
    for k in [2, 3]:
        g = build("bch", k=k)
        assert g.n == 1 << (2 * k)
        assert g.degree == (1 << k) - 1
        assert g.is_regular


def test_bch_k2_neighbors_of_zero():
    g = build("bch", k=2)
    assert list(g.neighbors(0)) == [5, 6, 7]


def test_alon_k2_neighbors_of_zero():
    g = build("alon", k=2)
    assert list(g.neighbors(0)) == [35, 50]


# ---------------------------------------------------------------------------
# codecs and the adjacency oracle
# ---------------------------------------------------------------------------

def test_euclidean_codec_roundtrip():
    g = build("euclidean", q=5, m=3, a=1)
    for u in range(g.n):
        assert g.encode(g.decode(u)) == u
    assert g.decode(0) == (0, 0, 0)
    assert g.decode(1) == (1, 0, 0)
    assert g.decode(5) == (0, 1, 0)


def test_half_plane_codec_roundtrip():
    g = build("noneuclidean", q=13, sigma=2, a=1)
    seen = set()
    for u in range(g.n):
        x, y = g.decode(u)
        assert 0 <= x < 13 and 1 <= y < 13
        seen.add((x, y))
        assert g.encode((x, y)) == u
    assert len(seen) == g.n


def test_adjacency_oracle_euclidean():
    g = build("euclidean", q=3, a=1)
    u = g.encode((0, 0))
    assert g.adjacency_oracle(u, g.encode((0, 1)))
    assert not g.adjacency_oracle(u, g.encode((1, 1)))
    assert not g.adjacency_oracle(u, u)
    with pytest.raises(IndexError):
        g.adjacency_oracle(0, g.n)
    with pytest.raises(IndexError):
        g.adjacency_oracle(-1, 0)


def test_half_plane_adjacency_matches_poincare_distance():
    """Every valid (sigma, a): u ~ v exactly when d(decode(u), decode(v)) = a."""
    for q in [5, 7, 13]:
        for sigma in range(1, q):
            if quadratic_character(sigma, q) != -1:
                continue
            decode = build("noneuclidean", q=q, sigma=sigma, a=1).decode
            dist = np.array(
                [[poincare_distance(decode(u), decode(v), sigma, q) for v in range(q * (q - 1))]
                 for u in range(q * (q - 1))]
            )
            for a in range(1, q):
                if a == (4 * sigma) % q:
                    continue
                g = build("noneuclidean", q=q, sigma=sigma, a=a)
                adj = np.zeros((g.n, g.n), dtype=bool)
                us, vs = g.edge_arrays()
                adj[us, vs] = adj[vs, us] = True
                assert (adj == (dist == a)).all(), (q, sigma, a)


def _root_set_invariants(g) -> tuple:
    """(girth, diameter, components, triangles) of a built family graph from
    the root-set kernel (girth from all roots, the diameter as the
    eccentricity of the identity), the CSR component search and the bitset
    count, none of which runs the quotient walk."""
    shortest, ecc = _root_walk(g, np.arange(g.n))
    return shortest, ecc[0], connected_components(g)[0], _triangles_bitset(g)


def _quotient_reads(sizes, nbr) -> tuple:
    return (*quotient_invariants(sizes, nbr), quotient_triangles(sizes, nbr))


@pytest.mark.parametrize("q", [q for q in range(3, 32) if is_odd_prime(q)])
def test_distance_class_quotient_matches_the_built_graph(q):
    """Class invariance, checked on the graphs: for every non-square sigma and
    valid a, every vertex has the neighbour classes of its class row, and the
    quotient's girth, diameter, components and triangles are those of
    V_q(sigma, a)."""
    for sigma in range(1, q):
        if quadratic_character(sigma, q) != -1:
            continue
        classes = _classes(FamilySpec(kind="noneuclidean", q=q, sigma=sigma))
        assert classes.tolist() == [
            poincare_distance((0, 1), (v // (q - 1), v % (q - 1) + 1), sigma, q) for v in range(q * (q - 1))
        ]
        sizes = np.bincount(classes, minlength=q)
        assert sizes[0] == sizes[4 * sigma % q] == 1
        assert np.delete(sizes, [0, 4 * sigma % q]).tolist() == [q + 1] * (q - 2)
        spec = FamilySpec(kind="noneuclidean", q=q, sigma=sigma)
        partition = distance_classes(spec)
        assert np.array_equal(partition[0], classes)
        for a in [a for a in range(1, q) if a != 4 * sigma % q]:
            _, (sizes, nbr) = distance_quotient(spec, partition, a)
            assert nbr.shape == (q, q + 1), (q, sigma, a)
            assert sizes.tolist() == np.bincount(classes).tolist()
            g = build("noneuclidean", q=q, sigma=sigma, a=a)
            # the graph's own spec gives the same quotient
            _, (_, single) = distance_quotient(g.family, distance_classes(g.family), a)
            assert np.array_equal(single, nbr)
            seen = np.sort(classes[g.indices.reshape(g.n, g.degree)], axis=1)
            assert np.array_equal(seen, np.sort(nbr, axis=1)[classes]), (q, sigma, a)
            assert _quotient_reads(sizes, nbr) == _root_set_invariants(g), (q, sigma, a)


_ODD_PRIMES = [q for q in range(3, 32) if is_odd_prime(q)]


@pytest.mark.parametrize(
    "q, m, a_values",
    [(q, 2, range(1, q)) for q in _ODD_PRIMES]
    + [(q, 3, range(1, q)) for q in _ODD_PRIMES if q <= 13]
    + [(31, 3, [1])],
    ids=[f"D_{q}" for q in _ODD_PRIMES] + [f"D_{q}^3" for q in _ODD_PRIMES if q <= 13] + ["D_31^3(1)"],
)
def test_euclidean_distance_quotient_matches_the_built_graph(q, m, a_values):
    """The quotient's girth, diameter, components and triangles are those of
    the built D_q^m(a); on the smaller graphs, every vertex of a class has
    the neighbour classes of its class row (the partition is equitable).

    D_31^3(1) is too large for the all-roots kernel and the bitset count:
    there triangles are counted through vertex 0 in plain Python, girth is 3
    because that count is positive, and the diameter is the eccentricity of
    vertex 0 from the root-set kernel."""
    n = q**m
    coords = np.array([[v // q**i % q for i in range(m)] for v in range(n)])
    labels = (coords**2).sum(axis=1) % q
    labels[labels == 0] = q  # the nonzero null vectors
    labels[0] = 0
    null_class = not (m == 2 and q % 4 == 3)
    assert (labels == q).any() == null_class
    partition = distance_classes(FamilySpec(kind="euclidean", q=q, m=m))
    for a in a_values:
        spec = FamilySpec(kind="euclidean", q=q, m=m, a=a)
        _, (sizes, nbr) = distance_quotient(spec, partition, a)
        d = euclidean_degree(q, m, a)
        assert sizes.tolist() == np.bincount(labels)[np.bincount(labels) > 0].tolist()
        assert sizes.sum() == n and len(sizes) == q + null_class
        assert nbr.shape == (len(sizes), d)
        g = build_family(spec)
        if n <= 2197:
            seen = np.sort(labels[g.indices.reshape(n, d)], axis=1)
            assert np.array_equal(seen, np.sort(nbr, axis=1)[labels]), spec.label()
            want = _root_set_invariants(g)
        else:
            conn = set(g.neighbors(0).tolist())
            pairs = sum(len(conn.intersection(g.neighbors(s).tolist())) for s in conn)
            assert pairs > 0
            want = 3, _root_walk(g, [0])[1][0], connected_components(g)[0], n * pairs // 6
        assert _quotient_reads(sizes, nbr) == want, spec.label()


@pytest.mark.parametrize("spec", [
    FamilySpec(kind="euclidean", q=31, a=1),
    FamilySpec(kind="euclidean", q=13, a=2),
    FamilySpec(kind="euclidean", q=7, m=3, a=3),
    FamilySpec(kind="noneuclidean", q=17),
    FamilySpec(kind="noneuclidean", q=13, sigma=5, a=2),
    FamilySpec(kind="noneuclidean", q=41, sigma=3, a=6),
    FamilySpec(kind="bch", k=3),
    FamilySpec(kind="alon", k=2),
], ids=FamilySpec.label)
def test_spectrum_from_the_spec_is_the_built_graphs(spec):
    # the connection set holds the neighbours of vertex 0 in the same order,
    # so the group route gives the same bits with or without a built graph
    g = build_family(spec)
    conn = connection_set(spec)
    assert np.array_equal(conn, g.neighbors(0))
    from_spec = cayley_spectrum_abelian(spec, conn)
    built = cayley_spectrum_abelian(g.family, g.neighbors(0))
    assert np.array_equal(from_spec.eigenvalues, built.eigenvalues)
    assert (from_spec.n, from_spec.d, from_spec.method) == (built.n, built.d, built.method)
    assert (from_spec.n, from_spec.d) == (g.n, g.degree)


def _fail_if_called(*args):
    raise AssertionError("work started before the size refusal")


def own_distance_quotient(spec):
    return distance_quotient(spec, distance_classes(spec), spec.a)


@pytest.mark.parametrize("lever", ["RAMSEY_FORGE_MAX_N", "MAX_NEIGHBOR_ENTRIES"])
@pytest.mark.parametrize("route, spec", [
    (own_distance_quotient, FamilySpec(kind="euclidean", q=19, a=1)),
    (own_distance_quotient, FamilySpec(kind="noneuclidean", q=29, sigma=3, a=6)),
    (connection_set, FamilySpec(kind="euclidean", q=19, a=1)),
    (connection_set, FamilySpec(kind="noneuclidean", q=29, sigma=3, a=6)),
    (connection_set, FamilySpec(kind="bch", k=4)),
], ids=lambda v: getattr(v, "__name__", None) or v.label())
def test_graphless_routes_refuse_where_the_build_would(monkeypatch, route, spec, lever):
    # same exception, same message, and no coordinates computed first
    if lever == "RAMSEY_FORGE_MAX_N":
        monkeypatch.setenv(lever, "100")
    else:
        monkeypatch.setattr(limits, lever, 100)
    with pytest.raises(SizeLimitExceeded) as built:
        build_family(spec)
    monkeypatch.setattr(graphs, "_classes", _fail_if_called)
    monkeypatch.setattr(graphs, "_product", _fail_if_called)
    with pytest.raises(SizeLimitExceeded) as read:
        route(spec)
    assert str(read.value) == str(built.value)
    assert lever in str(read.value)


def test_adjacency_matches_quadrance():
    g = build("euclidean", q=7, a=2)
    for u in [0, 5, 17, 30, 48]:
        pu = g.decode(u)
        for v in range(g.n):
            want = quadrance(pu, g.decode(v), 7) == 2
            assert g.adjacency_oracle(u, v) == want


def test_graph_is_symmetric_csr():
    for spec in [
        FamilySpec(kind="euclidean", q=5, a=2),
        FamilySpec(kind="noneuclidean", q=5, sigma=2, a=1),
        FamilySpec(kind="bch", k=2),
        FamilySpec(kind="alon", k=2),
    ]:
        g = build_family(spec)
        for u in range(g.n):
            for v in g.neighbors(u):
                assert u != v
                assert u in g.neighbors(v)


def test_translation_invariance_sampled():
    """Cayley structure: u ~ v iff u+t ~ v+t for any translation t."""
    g = build("euclidean", q=7, a=3)
    rng = np.random.default_rng(3)
    for _ in range(100):
        u, v = (int(x) for x in rng.integers(0, g.n, 2))
        t = tuple(int(x) for x in rng.integers(0, 7, 2))
        pu, pv = g.decode(u), g.decode(v)
        su = g.encode(tuple((a + b) % 7 for a, b in zip(pu, t)))
        sv = g.encode(tuple((a + b) % 7 for a, b in zip(pv, t)))
        assert g.adjacency_oracle(u, v) == g.adjacency_oracle(su, sv)


@pytest.mark.parametrize("spec", [
    FamilySpec(kind="euclidean", q=5, a=2),
    FamilySpec(kind="euclidean", q=3, m=3, a=1),
    FamilySpec(kind="noneuclidean", q=7, sigma=3, a=1),
    FamilySpec(kind="bch", k=2),
    FamilySpec(kind="alon", k=2),
], ids=FamilySpec.label)
def test_product_is_a_group_law(spec):
    """On codec indices, _product has identity 0 on both sides and is
    associative on every triple, and the connection set is closed under
    inverses."""
    n = spec.n
    assert n <= 200  # small enough to check every triple
    g = np.arange(n, dtype=np.int64)
    table = _product(spec, g, g, np.empty((n, n), dtype=np.int64))
    assert np.array_equal(table[0], g) and np.array_equal(table[:, 0], g)
    left = table[table[:, :, None], g]  # (g*h)*k
    right = table[g[:, None, None], table[None, :, :]]  # g*(h*k)
    assert np.array_equal(left, right)
    inverse = np.argmax(table == 0, axis=1)
    assert (table[g, inverse] == 0).all() and (table[inverse, g] == 0).all()
    conn = connection_set(spec)
    assert sorted(inverse[conn].tolist()) == conn.tolist()


def test_halfplane_product_is_the_affine_law():
    """(x, y)*(t, v) = (x + y*t, y*v), through the vertex codec."""
    graph = build("noneuclidean", q=7, sigma=3, a=1)
    g = np.arange(graph.n, dtype=np.int64)
    table = _product(graph.family, g, g, np.empty((graph.n, graph.n), dtype=np.int64))
    for u in range(graph.n):
        x, y = graph.decode(u)
        for w in range(graph.n):
            t, v = graph.decode(w)
            assert table[u, w] == graph.encode((x + y * t, y * v)), (u, w)


# ---------------------------------------------------------------------------
# distance-parameter equivalence
# ---------------------------------------------------------------------------

def test_euclidean_families_isomorphic_across_a():
    """Scaling coordinates maps D_q(a) onto D_q(b): all invariants agree."""
    for q in [5, 7, 11, 13]:
        prints = []
        for a in range(1, q):
            g = build("euclidean", q=q, a=a)
            summary = cayley_spectrum_abelian(g.family, g.neighbors(0))
            prints.append(
                (
                    g.degree,
                    girth(g),
                    diameter(g),
                    triangle_count(g),
                    tuple(np.round(summary.eigenvalues, 9)),
                )
            )
        # a ranges over squares and nonsquares; both classes collapse to one
        # isomorphism type because -1 times a square hits every residue class
        assert len({p[:4] for p in prints}) <= 2
        degs = {p[0] for p in prints}
        assert len(degs) <= 2


def test_euclidean_degree_formula_small():
    for q in [3, 5, 7, 11, 13]:
        for m in [2, 3, 4]:
            if q ** m > 30000:
                continue
            grid = np.indices((q,) * m).reshape(m, -1).T
            qd = (grid ** 2).sum(axis=1) % q
            counts = np.bincount(qd, minlength=q)
            for a in range(1, q):
                assert counts[a] == euclidean_degree(q, m, a), (q, m, a)


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

def test_dimacs_header_lines():
    cases = [
        (FamilySpec(kind="euclidean", q=3, a=1), "p edge 9 18"),
        (FamilySpec(kind="noneuclidean", q=5, sigma=2, a=4), "p edge 20 60"),
        (FamilySpec(kind="bch", k=2), "p edge 16 24"),
    ]
    for spec, header in cases:
        data = export_graph(build_family(spec), "dimacs")
        lines = data.decode().splitlines()
        assert lines[0] == header
        m = int(header.split()[3])
        edge_lines = [l for l in lines if l.startswith("e ")]
        assert len(edge_lines) == m
        # 1-based endpoints, u < v
        for l in edge_lines:
            _, u, v = l.split()
            assert 1 <= int(u) < int(v) <= int(header.split()[2])


def test_edge_jsonl_export():
    g = build("euclidean", q=3, a=1)
    data = export_graph(g, "edge-jsonl")
    rows = [json.loads(l) for l in data.decode().splitlines()]
    assert len(rows) == 18
    for row in rows:
        assert set(row) == {"u", "v", "pu", "pv"}
        assert row["u"] < row["v"]
        assert g.adjacency_oracle(row["u"], row["v"])
        assert tuple(row["pu"]) == g.decode(row["u"])
        assert tuple(row["pv"]) == g.decode(row["v"])


def test_edge_jsonl_export_adhoc():
    g = graph_from_edges(5, [(0, 1), (1, 2), (3, 1), (4, 0)])
    rows = [json.loads(l) for l in export_graph(g, "edge-jsonl").decode().splitlines()]
    assert len(rows) == g.num_edges
    for row in rows:
        assert row["pu"] == row["u"] and row["pv"] == row["v"]
        assert g.adjacency_oracle(row["u"], row["v"])
    assert g.encode(3) == 3


def _edge_jsonl_per_edge(g) -> bytes:
    """The exporter's bytes as one json.dumps per edge, decoding both ends."""
    lines = []
    for u, v in zip(*(a.tolist() for a in g.edge_arrays())):
        pu, pv = g.decode(u), g.decode(v)
        pu = list(pu) if isinstance(pu, tuple) else pu
        pv = list(pv) if isinstance(pv, tuple) else pv
        lines.append(json.dumps({"u": u, "v": v, "pu": pu, "pv": pv}))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("make", [
    lambda: build("euclidean", q=7, a=1),
    lambda: build("euclidean", q=5, m=3, a=1),
    lambda: build("noneuclidean", q=17, sigma=3, a=6),
    lambda: build("bch", k=2),
    lambda: graph_from_edges(300, [(v, (v + s) % 300) for v in range(300) for s in (1, 7, 41)]),
], ids=["D_7(1)", "D_5^3(1)", "V_17(3,6)", "BCH_2", "circulant-300"])
def test_edge_jsonl_export_matches_per_edge_json_dumps(make):
    g = make()
    assert export_graph(g, "edge-jsonl") == _edge_jsonl_per_edge(g)


def test_edge_jsonl_export_of_an_edgeless_graph_is_one_newline():
    assert export_graph(graph_from_edges(3, []), "edge-jsonl") == b"\n"


def test_export_bad_format():
    g = build("euclidean", q=3, a=1)
    with pytest.raises(BadParameter):
        export_graph(g, "graphml")


# ---------------------------------------------------------------------------
# ad-hoc graphs and size limits
# ---------------------------------------------------------------------------

def test_graph_from_edges():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4
    assert g.degree == 2
    assert list(g.neighbors(0)) == [1, 3]
    assert g.is_regular


def test_graph_from_edges_irregular():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assert g.degree is None
    assert not g.is_regular
    assert g.degree_of(1) == 2


def test_graph_from_edges_validation():
    with pytest.raises(BadParameter):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(BadParameter):
        graph_from_edges(3, [(0, 3)])


def test_size_limit_env(monkeypatch):
    monkeypatch.setenv("RAMSEY_FORGE_MAX_N", "100")
    with pytest.raises(SizeLimitExceeded):
        build_family(FamilySpec(kind="euclidean", q=11, a=1))
    # 9 vertices still fits
    build_family(FamilySpec(kind="euclidean", q=3, a=1))


@pytest.mark.parametrize("spec, what", [
    (FamilySpec(kind="euclidean", q=3, a=1), "graph on 3^2 vertices"),
    (FamilySpec(kind="noneuclidean", q=5, sigma=2, a=1), "graph on 20 vertices"),
    (FamilySpec(kind="bch", k=2), "graph on 16 vertices"),
    (FamilySpec(kind="alon", k=2), "graph on 64 vertices"),
])
def test_each_build_checks_the_vertex_limit_once(monkeypatch, spec, what):
    # one check site per build; q^m is bounded step by step, under one name
    checked = []
    check = limits.check

    def recording_check(name, size, text):
        if name == "RAMSEY_FORGE_MAX_N":
            checked.append(text)
        return check(name, size, text)

    monkeypatch.setattr(limits, "check", recording_check)
    build_family(spec)
    assert set(checked) == {what}


@pytest.mark.parametrize("raw", ["lots", "1.5", "", "0", "-3"])
def test_size_limit_env_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv("RAMSEY_FORGE_MAX_N", raw)
    with pytest.raises(BadParameter, match="RAMSEY_FORGE_MAX_N"):
        build_family(FamilySpec(kind="euclidean", q=3, a=1))


def test_neighbor_entry_limit_refuses_before_building(monkeypatch):
    spec = FamilySpec(kind="euclidean", q=7, m=3, a=1)
    entries = spec.n * euclidean_degree(7, 3, 1)
    monkeypatch.setattr(limits, "MAX_NEIGHBOR_ENTRIES", entries - 1)
    with pytest.raises(SizeLimitExceeded, match=rf"MAX_NEIGHBOR_ENTRIES.*{entries - 1}") as exc:
        build_family(spec)
    assert str(entries) in str(exc.value)
    for other in (
        FamilySpec(kind="noneuclidean", q=29, sigma=3, a=6),  # 812 * 30 entries
        FamilySpec(kind="bch", k=5),  # 1024 * 31 entries
    ):
        with pytest.raises(SizeLimitExceeded, match="MAX_NEIGHBOR_ENTRIES"):
            build_family(other)
    monkeypatch.setattr(limits, "MAX_NEIGHBOR_ENTRIES", entries)
    assert build_family(spec).num_edges * 2 == entries


def test_neighbor_entry_limit_default_refuses_large_euclidean():
    # arithmetic only: these graphs would need gigabytes, so none is built
    assert 19**4 <= limits.DEFAULT_MAX_VERTICES and 53**3 <= limits.DEFAULT_MAX_VERTICES
    for q, m in ((19, 4), (53, 3)):
        with pytest.raises(SizeLimitExceeded, match="MAX_NEIGHBOR_ENTRIES"):
            _check_size(q**m, euclidean_degree(q, m, 1))
    assert 19**4 * euclidean_degree(19, 4, 1) == 891_395_640
    # the largest graph the tests and the benchmark build stays under it
    _check_size(31**3, euclidean_degree(31, 3, 1))
