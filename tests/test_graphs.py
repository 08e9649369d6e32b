"""Tests for graph family builders, codecs, the adjacency oracle, and exporters."""

import json

import numpy as np
import pytest
from bruteforce import poincare_distance, quadrance

from ramseyforge import graphs, limits
from ramseyforge.algebra import gf2k_pow, is_odd_prime, quadratic_character
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
    _cayley_graph,
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
from ramseyforge.spectral import cayley_spectrum_abelian, quotient_spectrum


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
            assert g.degree == q + 1


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


@pytest.mark.parametrize("kwargs, message", [
    (dict(kind="euclidean", q=7.0), "q must be an integer, got 7.0"),
    (dict(kind="euclidean", q="7"), "q must be an integer, got '7'"),
    (dict(kind="euclidean", q=True), "q must be an integer, got True"),
    (dict(kind="euclidean", q=7, a=1.5), "a must be an integer, got 1.5"),
    (dict(kind="euclidean", q=7, m=2.0), "m must be an integer, got 2.0"),
    (dict(kind="noneuclidean", q=7, sigma=3.0), "sigma must be an integer, got 3.0"),
    (dict(kind="bch", k=2.0), "k must be an integer, got 2.0"),
    (dict(kind="alon", k=[2]), "k must be an integer, got [2]"),
], ids=repr)
def test_family_spec_refuses_non_integer_parameters(kwargs, message):
    with pytest.raises(BadParameter) as exc:
        FamilySpec(**kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize("kwargs, message", [
    (dict(kind="bch", k=3, q=7, sigma=5), "q=7 is not read by the bch family"),
    (dict(kind="alon", k=2, a=1), "a=1 is not read by the alon family"),
    (dict(kind="euclidean", q=7, sigma=3), "sigma=3 is not read by the euclidean family"),
    (dict(kind="euclidean", q=7, k=2), "k=2 is not read by the euclidean family"),
    (dict(kind="noneuclidean", q=7, m=2), "m=2 is not read by the noneuclidean family"),
    (dict(kind="noneuclidean", q=7, k=np.int64(2)), "k=2 is not read by the noneuclidean family"),
    (dict(kind="hyperbolic", q=7), "unknown family kind 'hyperbolic'"),
    (dict(kind="euclidean", m=2), "q is required for the euclidean family"),
    (dict(kind="noneuclidean", sigma=3), "q is required for the noneuclidean family"),
    (dict(kind="bch"), "k is required for the bch family"),
    (dict(kind="alon"), "k is required for the alon family"),
], ids=repr)
def test_family_spec_takes_only_the_parameters_its_family_reads(kwargs, message):
    # a field outside the family's own would land in to_dict(), so in the
    # certificate's "family" entry, though nothing reads it; a missing q
    # would reach the primality test as None
    with pytest.raises(BadParameter) as exc:
        FamilySpec(**kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize("kind", list(graphs.FAMILY_FIELDS))
def test_family_spec_keeps_exactly_the_fields_its_family_reads(kind):
    reads = graphs.FAMILY_FIELDS[kind]
    values = {"q": 7, "m": 2, "a": 1, "sigma": 3, "k": 2}
    spec = FamilySpec(kind=kind, **{field: values[field] for field in reads})
    assert set(spec.to_dict()) == {"kind", *reads}


def test_family_spec_takes_numpy_integers_as_ints():
    spec = FamilySpec(kind="euclidean", q=np.int64(7), m=np.int32(2), a=np.uint8(3))
    assert spec == FamilySpec(kind="euclidean", q=7, m=2, a=3)
    assert all(type(v) is int for v in (spec.q, spec.m, spec.a))
    assert json.dumps(spec.to_dict()) == '{"kind": "euclidean", "q": 7, "m": 2, "a": 3}'


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


def test_alon_graph_has_the_claimed_sum_set_degree():
    # the partition and sum-set facts are the alon_partition and alon_degree
    # claims of the code suite; the graph is Cay(G, S) and carries none of them
    g = build("alon", k=2)
    assert g.n == 64 and g.degree == 2
    w0s, w1s = alon_split(2)
    assert (len(w0s), len(w1s)) == (1, 2)
    assert g.degree == len(alon_connection_set(2)) == 2 * (2 - 1)
    assert not hasattr(g, "meta")


def test_bch_graph_shape():
    for k in [2, 3]:
        g = build("bch", k=k)
        assert g.n == 1 << (2 * k)
        assert g.degree == (1 << k) - 1


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


@pytest.mark.parametrize("spec, idx, point", [
    (FamilySpec(kind="euclidean", q=5, m=3), 86, (1, 2, 3)),  # 1 + 2*5 + 3*25
    (FamilySpec(kind="euclidean", q=7), 0, (0, 0)),
    (FamilySpec(kind="noneuclidean", q=7, sigma=3), 16, (2, 5)),  # 2*(7-1) + (5-1)
    (FamilySpec(kind="noneuclidean", q=7, sigma=3), 0, (0, 1)),
    (FamilySpec(kind="bch", k=2), 11, 11),
    (FamilySpec(kind="alon", k=2), 63, 63),
], ids=lambda x: x.label() if isinstance(x, FamilySpec) else repr(x))
def test_codec_literal_cases(spec, idx, point):
    # pinned by hand: the group law, the quadrance and Poincare adjacency
    # tests all read the codec they would otherwise check
    assert spec.coordinates(idx) == point
    assert spec.index(point) == idx
    graph = build_family(spec)
    assert graph.decode(idx) == point
    assert graph.encode(point) == idx


@pytest.mark.parametrize("spec", [
    FamilySpec(kind="euclidean", q=5, m=3),
    FamilySpec(kind="euclidean", q=7),
    FamilySpec(kind="noneuclidean", q=13, sigma=2),
    FamilySpec(kind="bch", k=3),
    FamilySpec(kind="alon", k=2),
], ids=FamilySpec.label)
def test_codec_array_round_trip(spec):
    idx = np.arange(spec.n, dtype=np.int64)
    coords = spec.coordinates(idx)
    assert np.array_equal(spec.index(coords), idx)
    graph = build_family(spec)
    for u in (0, 1, spec.n // 2, spec.n - 1):
        point = graph.decode(u)
        if isinstance(point, tuple):
            assert point == tuple(int(c[u]) for c in coords)
        else:
            assert point == int(coords[u])


@pytest.mark.parametrize("spec, point, idx", [
    (FamilySpec(kind="euclidean", q=5), (-1, 7), 14),  # (4, 2)
    (FamilySpec(kind="noneuclidean", q=5, sigma=2), (6, -1), 7),  # (1, 4)
    (FamilySpec(kind="euclidean", q=5), (np.int64(1), np.int64(2)), 11),
])
def test_encode_reduces_integer_coordinates_mod_q(spec, point, idx):
    assert build_family(spec).encode(point) == idx


@pytest.mark.parametrize("spec, method, arg, message", [
    (FamilySpec(kind="euclidean", q=5), "decode", -1, "vertex -1 out of range 0..24"),
    (FamilySpec(kind="euclidean", q=5), "decode", 25, "vertex 25 out of range 0..24"),
    (FamilySpec(kind="euclidean", q=5), "decode", 1.5, "vertex index must be an integer, got 1.5"),
    (FamilySpec(kind="noneuclidean", q=5, sigma=2), "decode", 20, "vertex 20 out of range 0..19"),
    (FamilySpec(kind="bch", k=2), "decode", 99, "vertex 99 out of range 0..15"),
    (FamilySpec(kind="euclidean", q=5), "encode", (1.5, 0), "point coordinate must be an integer, got 1.5"),
    (FamilySpec(kind="euclidean", q=5), "encode", (1, 2, 3), "point has dimension 3, expected 2"),
    (FamilySpec(kind="euclidean", q=5), "encode", 7, "point 7 is not a sequence of coordinates"),
    (FamilySpec(kind="noneuclidean", q=5, sigma=2), "encode", (1, 2, 3), "point has dimension 3, expected 2"),
    (FamilySpec(kind="noneuclidean", q=5, sigma=2), "encode", (1, 5), "half-plane points need y != 0"),
    (FamilySpec(kind="noneuclidean", q=5, sigma=2), "encode", ("1", 2),
     "point coordinate must be an integer, got '1'"),
    (FamilySpec(kind="bch", k=2), "encode", 99, "vertex 99 out of range 0..15"),
    (FamilySpec(kind="bch", k=2), "encode", -1, "vertex -1 out of range 0..15"),
    (FamilySpec(kind="alon", k=2), "encode", True, "vertex index must be an integer, got True"),
], ids=repr)
def test_codec_refuses_bad_input(spec, method, arg, message):
    with pytest.raises(BadParameter) as exc:
        getattr(build_family(spec), method)(arg)
    assert str(exc.value) == message


@pytest.mark.parametrize("method, arg, message", [
    ("decode", 5, "vertex 5 out of range 0..4"),
    ("encode", 5, "vertex 5 out of range 0..4"),
    ("encode", 2.0, "vertex index must be an integer, got 2.0"),
])
def test_adhoc_codec_refuses_bad_input(method, arg, message):
    g = graph_from_edges(5, [(0, 1)])
    assert g.decode(np.int64(4)) == 4 and g.encode(4) == 4
    with pytest.raises(BadParameter) as exc:
        getattr(g, method)(arg)
    assert str(exc.value) == message


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


@pytest.mark.parametrize("u, v, message", [
    (0, 5.0, "vertex v must be an integer, got 5.0"),
    (0, 1.5, "vertex v must be an integer, got 1.5"),
    (0.0, 1, "vertex u must be an integer, got 0.0"),
    (True, 1, "vertex u must be an integer, got True"),
    (0, False, "vertex v must be an integer, got False"),
    ("0", 1, "vertex u must be an integer, got '0'"),
])
def test_adjacency_oracle_refuses_non_integer_vertices(u, v, message):
    g = build("euclidean", q=5, a=1)
    assert g.adjacency_oracle(np.int64(0), np.int32(5)) == g.adjacency_oracle(0, 5)
    with pytest.raises(BadParameter) as exc:
        g.adjacency_oracle(u, v)
    assert str(exc.value) == message


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
    # so the character route gives the same bits with or without a built
    # graph; a half-plane graph's class quotient gives the spectrum of the
    # built graph's trivial quotient, every vertex a class of its own
    g = build_family(spec)
    conn = connection_set(spec)
    assert np.array_equal(conn, g.neighbors(0))
    if spec.kind == "noneuclidean":
        from_spec = quotient_spectrum(*own_distance_quotient(spec)[1])
        built = quotient_spectrum(np.ones(g.n, dtype=np.int64), g.indices.reshape(g.n, g.degree))
        assert np.max(np.abs(from_spec.eigenvalues - built.eigenvalues)) < 1e-9
    else:
        from_spec = cayley_spectrum_abelian(spec, conn)
        built = cayley_spectrum_abelian(g.family, g.neighbors(0))
        assert np.array_equal(from_spec.eigenvalues, built.eigenvalues)
    assert (from_spec.n, from_spec.d, from_spec.method) == (built.n, built.d, built.method)
    assert (from_spec.n, from_spec.d) == (g.n, g.degree)


def _fail_if_called(*args):
    raise AssertionError("work started before the size refusal")


def own_distance_quotient(spec):
    return distance_quotient(spec, distance_classes(spec), spec.a)


_GRAPHLESS_ROUTES = pytest.mark.parametrize("route, spec", [
    (own_distance_quotient, FamilySpec(kind="euclidean", q=19, a=1)),
    (own_distance_quotient, FamilySpec(kind="noneuclidean", q=29, sigma=3, a=6)),
    (connection_set, FamilySpec(kind="euclidean", q=19, a=1)),
    (connection_set, FamilySpec(kind="noneuclidean", q=29, sigma=3, a=6)),
    (connection_set, FamilySpec(kind="bch", k=4)),
], ids=lambda v: getattr(v, "__name__", None) or v.label())


@pytest.mark.parametrize("lever", ["RAMSEY_FORGE_MAX_N"])
@_GRAPHLESS_ROUTES
def test_graphless_routes_refuse_where_the_build_would(monkeypatch, route, spec, lever):
    # same exception, same message, and no coordinates computed first
    monkeypatch.setenv(lever, "100")
    with pytest.raises(SizeLimitExceeded) as built:
        build_family(spec)
    monkeypatch.setattr(graphs, "_classes", _fail_if_called)
    monkeypatch.setattr(graphs, "_product", _fail_if_called)
    with pytest.raises(SizeLimitExceeded) as read:
        route(spec)
    assert str(read.value) == str(built.value)
    assert lever in str(read.value)


@_GRAPHLESS_ROUTES
def test_graphless_routes_read_no_neighbor_entry_limit(monkeypatch, route, spec):
    # limits.MAX_NEIGHBOR_ENTRIES bounds the (n, |S|) matrix of a build; the
    # graphless routes make none, so at 0 they answer as at the default
    want = route(spec)
    monkeypatch.setattr(limits, "MAX_NEIGHBOR_ENTRIES", 0)
    with pytest.raises(SizeLimitExceeded, match=r"exceeds limits\.MAX_NEIGHBOR_ENTRIES = 0$"):
        build_family(spec)
    got = route(spec)
    if route is connection_set:
        assert np.array_equal(got, want)
    else:
        (conn, (sizes, nbr)), (want_conn, (want_sizes, want_nbr)) = got, want
        assert all(map(np.array_equal, (conn, sizes, nbr), (want_conn, want_sizes, want_nbr)))


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
    return "".join(line + "\n" for line in lines).encode()


@pytest.mark.parametrize("make", [
    lambda: build("euclidean", q=7, a=1),
    lambda: build("euclidean", q=5, m=3, a=1),
    lambda: build("noneuclidean", q=17, sigma=3, a=6),
    lambda: build("bch", k=2),
    lambda: build("alon", k=2),
    lambda: graph_from_edges(300, [(v, (v + s) % 300) for v in range(300) for s in (1, 7, 41)]),
], ids=["D_7(1)", "D_5^3(1)", "V_17(3,6)", "BCH_2", "ALON_2", "circulant-300"])
def test_edge_jsonl_export_matches_per_edge_json_dumps(make):
    g = make()
    assert export_graph(g, "edge-jsonl") == _edge_jsonl_per_edge(g)


def test_edge_jsonl_export_of_an_edgeless_graph_is_empty():
    # a blank line would not be JSON; DIMACS keeps its header
    assert export_graph(graph_from_edges(3, []), "edge-jsonl") == b""
    assert export_graph(graph_from_edges(3, []), "dimacs") == b"p edge 3 0\n"


@pytest.mark.parametrize("n,edges", [
    (0, []), (1, []), (5, []), (5, [(i, (i + 1) % 5) for i in range(5)]),
], ids=["n0", "n1", "n5", "C_5"])
def test_every_exported_line_parses(n, edges):
    # every edge-jsonl line is one JSON object per edge, and a DIMACS file is
    # its header and then one 1-based "e u v" line per edge
    g = graph_from_edges(n, edges)
    rows = [json.loads(line) for line in export_graph(g, "edge-jsonl").decode().splitlines()]
    assert sorted((row["u"], row["v"]) for row in rows) == sorted(tuple(sorted(e)) for e in edges)
    header, *lines = export_graph(g, "dimacs").decode().splitlines()
    assert header == f"p edge {n} {len(edges)}"
    assert sorted(tuple(int(x) - 1 for x in line.split()[1:]) for line in lines) == sorted(
        tuple(sorted(e)) for e in edges
    )
    assert all(line.startswith("e ") for line in lines)


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


def test_graph_from_edges_irregular():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assert g.degree is None
    assert list(g.neighbors(1)) == [0, 2]


def test_graph_from_edges_validation():
    with pytest.raises(BadParameter):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(BadParameter):
        graph_from_edges(3, [(0, 3)])


@pytest.mark.parametrize("edges, message", [
    ([(0, 1.5)], "vertex 1.5 of edge entry (0, 1.5) is not an integer"),
    ([("0", "1")], "vertex '0' of edge entry ('0', '1') is not an integer"),
    (np.array([[0.0, 1.0]]), "vertex np.float64(0.0) of edge entry array([0., 1.]) is not an integer"),
    ([(0, 1, 2)], "edge entry (0, 1, 2) is not a pair (u, v)"),
    ([(0, 1), (2,)], "edge entry (2,) is not a pair (u, v)"),
    ([(0, 1), 5], "edge entry 5 is not a pair (u, v)"),
    ([(0, 2**63)], "edge (0, 9223372036854775808) out of range for n=3"),
    ([(2**70, 1)], "edge (1, 1180591620717411303424) out of range for n=3"),
    ([(0, -1)], "edge (-1, 0) out of range for n=3"),
    (np.array([[0, 2**63]], dtype=np.uint64), "edge (0, 9223372036854775808) out of range for n=3"),
    ([(2, 0), (2, 2)], "loop at vertex 2"),
    ([(0, 1), (1, 1), (0, 5)], "loop at vertex 1"),
    ([(0, 1), (5, 0), (1, 1)], "edge (0, 5) out of range for n=3"),
    ([(0, 1), (0, 1.5), (9, 9)], "vertex 1.5 of edge entry (0, 1.5) is not an integer"),
    (np.array([[0, 1], [1, 1], [0, 5]]), "loop at vertex 1"),
    (5, "edges 5 is not an iterable of pairs"),
    ([(True, 2)], "vertex True of edge entry (True, 2) is not an integer"),
    ([(np.True_, 2)], "vertex np.True_ of edge entry (np.True_, 2) is not an integer"),
    ([(0, 1), (2, False)], "vertex False of edge entry (2, False) is not an integer"),
    (np.array([[True, False]]), "vertex np.True_ of edge entry array([ True, False]) is not an integer"),
])
def test_graph_from_edges_reports_the_first_bad_pair(edges, message):
    with pytest.raises(BadParameter) as info:
        graph_from_edges(3, edges)
    assert str(info.value) == message


@pytest.mark.parametrize("n", [-1, 2.0, "3", graphs._MAX_ADHOC_VERTICES + 1, True, False, np.True_])
def test_graph_from_edges_refuses_a_bad_vertex_count(n):
    # a bool is refused like np.True_, as _check_int refuses it elsewhere
    with pytest.raises(BadParameter) as info:
        graph_from_edges(n, [])
    assert str(info.value) == f"vertex count {n!r} is not an integer in 0..{graphs._MAX_ADHOC_VERTICES}"


def _oracle_csr(n, edges):
    """(indptr, indices) from sorted Python sets of neighbours."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    indices = [v for row in nbrs for v in sorted(row)]
    indptr = np.cumsum([0] + [len(row) for row in nbrs])
    return indptr, indices


@pytest.mark.parametrize("label, n, edges", [
    ("repeated pairs", 5, [(0, 1), (0, 1), (3, 4), (0, 1), (3, 4)]),
    ("reversed duplicates", 5, [(1, 0), (0, 1), (4, 2), (2, 4), (2, 4), (3, 1)]),
    ("empty list: isolated vertices", 4, []),
    ("no vertices", 0, []),
    ("circulant", 40, [(v, (v + s) % 40) for v in range(40) for s in (1, 9, 20)]),
    ("random multigraph", 30, [(u, v) for u, v in np.random.default_rng(5).integers(0, 30, (200, 2)).tolist() if u != v]),
])
def test_graph_from_edges_matches_sorted_sets(label, n, edges):
    indptr, indices = _oracle_csr(n, edges)
    degrees = np.diff(indptr)
    regular = int(degrees[0]) if n and degrees.min() == degrees.max() else None
    for form in ("list", "generator", "array"):
        if form == "list":
            given = edges
        elif form == "generator":
            given = (e for e in edges)
        else:
            given = np.array(edges, dtype=np.int32).reshape(-1, 2)
        g = graph_from_edges(n, given)
        assert g.indptr.dtype == g.indices.dtype == np.int64, (label, form)
        assert g.indptr.tolist() == indptr.tolist(), (label, form)
        assert g.indices.tolist() == indices, (label, form)
        assert g.degree == regular, (label, form)


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


def test_neighbor_entry_limit_default_refuses_large_euclidean(monkeypatch):
    # these graphs would need gigabytes, so none is built: the builder gets a
    # stand-in S of the true degree and refuses before it takes a product
    monkeypatch.setattr(graphs, "_product", _fail_if_called)
    assert 19**4 <= limits.DEFAULT_MAX_VERTICES and 53**3 <= limits.DEFAULT_MAX_VERTICES
    for q, m in ((19, 4), (53, 3)):
        with pytest.raises(SizeLimitExceeded, match="MAX_NEIGHBOR_ENTRIES"):
            _cayley_graph(FamilySpec(kind="euclidean", q=q, m=m), np.zeros(euclidean_degree(q, m, 1)))
    assert 19**4 * euclidean_degree(19, 4, 1) == 891_395_640
    # the largest graph the tests and the benchmark build stays under it
    assert 31**3 * euclidean_degree(31, 3, 1) <= limits.MAX_NEIGHBOR_ENTRIES
