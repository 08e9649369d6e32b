"""Graph families over finite fields, stored as immutable CSR adjacency.

Four families:
  * euclidean     D_q^m(a): vertices F_q^m, edges at quadrance a
  * noneuclidean  V_q(sigma, a): vertices the half-plane y != 0, edges at
                  Poincare distance a
  * bch           vertices GF(2)^{2k}, difference set {(z, z^3) : z != 0}
  * alon          vertices GF(2)^{3k}, difference set the sums
                  (w0, w0^3, w0^5) + (w1, w1^3, w1^5), w0 in W0, w1 in W1

All four are Cayley graphs with vertex 0 the group identity, and each
family's group law is written once, in ``_product``.  Every builder fills
its neighbour matrix from it, in row blocks of bounded size.
``connection_set`` gives the neighbours of vertex 0 without a build.  The
Euclidean and half-plane families also have distance classes, written once
in ``_classes``: the connection set at distance a is class a.
``distance_classes`` computes the classes once, and ``distance_quotient``
reads from them the distance-class quotient at any a.  Certificates read
their invariants from it instead of from a built graph.

Vertex codecs are frozen: euclidean index = sum x_i * q^i (coordinate 0 least
significant), half-plane index = x*(q-1) + (y-1), code-graph index = integer
value of the concatenated bitvector (first component least significant).
"""
import json
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import limits
from .algebra import (
    GF2K_MODULI,
    find_nonsquare,
    gf2k_pow,
    is_odd_prime,
    quadratic_character,
)
from .errors import BadParameter, BadSigma, DegenerateDistance


@dataclass(frozen=True)
class FamilySpec:
    """Which family a graph belongs to, with its parameters normalized."""

    kind: str
    q: Optional[int] = None
    m: Optional[int] = None
    a: Optional[int] = None
    sigma: Optional[int] = None
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind == "euclidean":
            if not is_odd_prime(self.q):
                raise BadParameter(f"q={self.q} is not an odd prime")
            m = self.m if self.m is not None else 2
            if m < 2:
                raise BadParameter(f"dimension m={m} must be >= 2")
            a = (self.a if self.a is not None else 1) % self.q
            if a == 0:
                raise BadParameter("a = 0 would put every vertex on its own sphere")
            object.__setattr__(self, "m", m)
            object.__setattr__(self, "a", a)
        elif self.kind == "noneuclidean":
            if not is_odd_prime(self.q):
                raise BadParameter(f"q={self.q} is not an odd prime")
            sigma = find_nonsquare(self.q) if self.sigma is None else self.sigma
            if quadratic_character(sigma, self.q) != -1:
                raise BadSigma(f"sigma={sigma} is not a non-square mod {self.q}")
            sigma %= self.q
            a = (self.a if self.a is not None else 1) % self.q
            if a == 0 or a == (4 * sigma) % self.q:
                raise DegenerateDistance(f"a={a} is in {{0, 4*sigma}} mod {self.q}")
            object.__setattr__(self, "sigma", sigma)
            object.__setattr__(self, "a", a)
        elif self.kind == "bch":
            if self.k not in GF2K_MODULI:
                raise BadParameter(f"k={self.k} outside 2..8")
        elif self.kind == "alon":
            if self.k not in GF2K_MODULI:
                raise BadParameter(f"k={self.k} outside 2..8")
            if self.k % 3 == 0:
                raise BadParameter(f"k={self.k} divisible by 3: alpha -> alpha^7 is not a bijection")
        else:
            raise BadParameter(f"unknown family kind {self.kind!r}")

    @property
    def n(self) -> int:
        """Vertex count, refused past the vertex limit; q^m is refused before
        the power is taken, so a huge m costs no time."""
        if self.kind == "euclidean":
            return _bounded_power(self.q, self.m)
        if self.kind == "noneuclidean":
            n = self.q * (self.q - 1)
        elif self.kind == "bch":
            n = 1 << (2 * self.k)
        else:
            n = 1 << (3 * self.k)
        limits.check("RAMSEY_FORGE_MAX_N", n, f"graph on {n} vertices")
        return n

    def label(self) -> str:
        if self.kind == "euclidean":
            if self.m == 2:
                return f"D_{self.q}({self.a})"
            return f"D_{self.q}^{self.m}({self.a})"
        if self.kind == "noneuclidean":
            return f"V_{self.q}({self.sigma},{self.a})"
        if self.kind == "bch":
            return f"BCH_{self.k}"
        return f"ALON_{self.k}"

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for field in ("q", "m", "a", "sigma", "k"):
            value = getattr(self, field)
            if value is not None:
                d[field] = value
        return d


class Graph:
    """Immutable undirected graph in CSR form with a vertex codec.

    Neighbor lists are sorted ascending, duplicate-free and loop-free;
    adjacency is symmetric by construction.
    """

    def __init__(self, family, n, indptr, indices, degree=None, meta=None):
        self.family = family
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.degree = degree
        self.meta = meta or {}
        # exactmetrics.exact_independence's result per limits.NODE_BUDGET
        self._independence = {}
        indptr.setflags(write=False)
        indices.setflags(write=False)

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def degree_of(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    @property
    def is_regular(self) -> bool:
        return self.degree is not None

    def adjacency_oracle(self, u: int, v: int) -> bool:
        """Membership test on the sorted neighbor list of u."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise IndexError(f"vertex out of range 0..{self.n - 1}")
        row = self.neighbors(u)
        pos = bisect_left(row, v)
        return pos < len(row) and row[pos] == v

    def edge_arrays(self):
        """All edges as (us, vs) with us < vs, in lexicographic order."""
        counts = np.diff(self.indptr)
        us = np.repeat(np.arange(self.n, dtype=np.int64), counts)
        vs = self.indices
        keep = us < vs
        return us[keep], vs[keep]

    def decode(self, idx: int):
        """Domain point for a vertex index; code and ad-hoc graphs use the index."""
        fam = self.family
        kind = getattr(fam, "kind", None)
        if kind == "euclidean":
            coords = []
            for _ in range(fam.m):
                coords.append(idx % fam.q)
                idx //= fam.q
            return tuple(coords)
        if kind == "noneuclidean":
            return (idx // (fam.q - 1), idx % (fam.q - 1) + 1)
        return int(idx)

    def encode(self, point) -> int:
        fam = self.family
        kind = getattr(fam, "kind", None)
        if kind == "euclidean":
            if len(point) != fam.m:
                raise BadParameter(f"point has dimension {len(point)}, expected {fam.m}")
            idx = 0
            for i, c in enumerate(point):
                idx += (c % fam.q) * fam.q**i
            return idx
        if kind == "noneuclidean":
            x, y = point
            if y % fam.q == 0:
                raise BadParameter("half-plane points need y != 0")
            return (x % fam.q) * (fam.q - 1) + (y % fam.q) - 1
        return int(point)


def _check_size(n: int, degree: int):
    """Refuse a graph whose (n, degree) neighbor matrix would exceed
    limits.MAX_NEIGHBOR_ENTRIES, before allocating it."""
    entries = n * degree
    limits.check(
        "MAX_NEIGHBOR_ENTRIES", entries, f"neighbor matrix of n*d = {n}*{degree} = {entries} entries"
    )


def _bounded_power(q: int, m: int) -> int:
    """q^m for q >= 2, refused past the vertex limit before the power is
    taken, so a huge m costs no time."""
    n = 1
    for _ in range(m):
        n *= q
        limits.check("RAMSEY_FORGE_MAX_N", n, f"graph on {q}^{m} vertices")
    return n


def _csr_from_rows(rows: np.ndarray) -> tuple:
    """CSR arrays from an (n, d) neighbor matrix; rows get sorted in place."""
    rows.sort(axis=1)
    n, d = rows.shape
    if d > 1 and (rows[:, 1:] == rows[:, :-1]).any():
        raise AssertionError("duplicate neighbor produced by a builder")
    indptr = np.arange(0, n * d + 1, d, dtype=np.int64)
    return indptr, rows.reshape(-1).astype(np.int64, copy=False)


def _csr_from_coo(n: int, us: np.ndarray, vs: np.ndarray) -> tuple:
    order = np.lexsort((vs, us))
    us, vs = us[order], vs[order]
    dup = (us[1:] == us[:-1]) & (vs[1:] == vs[:-1])
    if dup.any():
        raise AssertionError("duplicate edge entry produced by a builder")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, us + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, vs.astype(np.int64, copy=False)


def euclidean_degree(q: int, m: int, a: int) -> int:
    """Number of points on the sphere Q(0, v) = a in F_q^m, a != 0.

    Odd m:  q^(m-1) + chi((-1)^((m-1)/2) * a) * q^((m-1)/2)
    Even m: q^(m-1) - chi((-1)^(m/2)) * q^((m-2)/2)
    """
    if a % q == 0:
        raise BadParameter("the sphere count formula needs a != 0")
    if m % 2 == 1:
        sign = quadratic_character(pow(-1, (m - 1) // 2, q) * a, q)
        return q ** (m - 1) + sign * q ** ((m - 1) // 2)
    sign = quadratic_character(pow(-1, m // 2, q), q)
    return q ** (m - 1) - sign * q ** ((m - 2) // 2)


def _product(family: FamilySpec, g: np.ndarray, conn: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` the (len(g), len(conn)) matrix of group products
    g*s as codec indices, and return it.  Vertex 0 is the identity.

    D_q^m(a) lives on (F_q^m, +), the code graphs on (GF(2)^t, XOR), and
    V_q(sigma, a) on Aff(1, q): the maps z -> y*z + x act simply transitively
    on the half-plane and keep d(z, w), with product (x, y)*(t, v) =
    (x + y*t, y*v) and identity (0, 1).
    """
    q = family.q
    if family.kind == "euclidean":
        out[...] = 0
        for i in range(family.m):
            w = q**i
            out += (g[:, None] // w + conn // w) % q * w
    elif family.kind == "noneuclidean":
        x, y = np.divmod(g[:, None], q - 1)
        t, v = np.divmod(conn, q - 1)
        y += 1
        out[...] = (x + y * t) % q * (q - 1) + y * (v + 1) % q - 1
    else:
        np.bitwise_xor(g[:, None], conn, out=out)
    return out


def _classes(family: FamilySpec) -> np.ndarray:
    """Distance class of every vertex of a Euclidean or half-plane family,
    with the identity alone in class 0 and the connection set at distance a
    the class a.  Called once the size limits have passed.

    For D_q^m(a) the class of x is Q(x), except that the nonzero null vectors
    make up class q.  For V_q(sigma, a) it is the Poincare distance of (x, y)
    from the base point (0, 1), (x^2 - sigma*(1 - y)^2) / y mod q: class 0 is
    (0, 1) alone, class 4*sigma is (0, -1) alone, and every other class a is
    the circle of q + 1 points around (0, 1) at distance a.
    """
    q, idx = family.q, np.arange(family.n, dtype=np.int64)
    if family.kind == "noneuclidean":
        x, y = np.divmod(idx, q - 1)
        y += 1
        inverse = np.array([0] + [pow(v, -1, q) for v in range(1, q)], dtype=np.int64)
        return (x * x - family.sigma * (1 - y) ** 2) % q * inverse[y] % q
    classes = sum((idx // q**i % q) ** 2 for i in range(family.m)) % q
    classes[classes == 0] = q
    classes[0] = 0
    return classes


# Rows of the neighbour matrix are filled a block at a time, so a product's
# temporaries stay within this many entries whatever the size of the graph.
_ROW_BLOCK_ENTRIES = 1 << 18


def _cayley_graph(family: FamilySpec, conn: np.ndarray) -> Graph:
    """Cayley graph Cay(G, S) on the family's group G, with S = ``conn`` its
    sorted connection set, as ``connection_set`` or ``distance_quotient``
    gives it once the size limits have passed: row g of the neighbour matrix
    lists the products g*s, s in S."""
    n, d = family.n, len(conn)
    rows = np.empty((n, d), dtype=np.int64)
    step = max(1, _ROW_BLOCK_ENTRIES // max(1, d))
    for lo in range(0, n, step):
        _product(family, np.arange(lo, min(n, lo + step), dtype=np.int64), conn, rows[lo:lo + step])
    indptr, indices = _csr_from_rows(rows)
    return Graph(family, n, indptr, indices, degree=d)


def build_euclidean(q: int, m: int = 2, a: int = 1) -> Graph:
    """Cayley graph on (F_q^m, +) whose connection set is the sphere Q = a."""
    family = FamilySpec(kind="euclidean", q=q, m=m, a=a)
    return _cayley_graph(family, connection_set(family))


def build_non_euclidean(q: int, sigma: int, a: int) -> Graph:
    """Graph on the finite half-plane with edges at Poincare distance a: a
    Cayley graph on Aff(1, q) whose connection set is the circle of class a
    around (0, 1)."""
    family = FamilySpec(kind="noneuclidean", q=q, sigma=sigma, a=a)
    return _cayley_graph(family, connection_set(family))


def _degree(family: FamilySpec, a: int) -> int:
    """Degree of the Euclidean or half-plane family's graph at distance a."""
    if family.kind == "euclidean":
        return euclidean_degree(family.q, family.m, a)
    return family.q + 1


def _class_members(classes: np.ndarray, a: int, degree: int) -> np.ndarray:
    """The vertices of class a, the connection set at distance a, checked
    against the degree formula."""
    members = np.flatnonzero(classes == a)
    if len(members) != degree:
        raise AssertionError(f"class {a} has {len(members)} points, not the degree {degree}")
    return members


def distance_classes(family: FamilySpec) -> tuple:
    """(classes, reps, sizes) of a Euclidean or half-plane family: the
    distance class of every vertex (``_classes``), one representative of
    each class, and its size.  Refused where building the family's graph
    would be, with the same message, before any work.

    The classes are the orbits of the identity's stabiliser among the
    automorphisms of every graph of the family: for D_q^m(a), O(m, q) keeps
    Q and by Witt's extension theorem is transitive on each class; for
    V_q(sigma, a) the circles around (0, 1) are the orbits of its stabiliser
    among the half-plane isometries (Terras, Fourier Analysis on Finite
    Groups and Applications, ch. 19-20).  So the classes are one equitable
    partition for every distance a (Godsil & Royle, Algebraic Graph Theory,
    ch. 9), and ``distance_quotient`` reads each a from it.
    """
    n = family.n  # refused here, before the degree formula takes q^(m-1)
    _check_size(n, _degree(family, family.a))
    classes = _classes(family)
    _, reps, sizes = np.unique(classes, return_index=True, return_counts=True)
    return classes, reps, sizes


def distance_quotient(family: FamilySpec, partition, a: int) -> tuple:
    """(S, (sizes, nbr)) of the family's graph at distance a, from the
    ``distance_classes`` partition, without building a graph: S is class a,
    the connection set, sizes[k] counts the vertices of class k, and nbr[k]
    holds the classes of the products g_k * s, s in S, for the
    representative g_k of class k.  By the equitable partition nbr[k] holds,
    up to order, the neighbour classes of every point of class k, and the
    distance from the identity is constant on each class.  A built Cayley
    graph is the trivial quotient of this form, every class one vertex.
    O(c d) work for c classes and degree d.
    """
    classes, reps, sizes = partition
    degree = _degree(family, a)
    conn = _class_members(classes, a, degree)
    products = _product(family, reps, conn, np.empty((len(reps), degree), dtype=np.int64))
    return conn, (sizes, classes[products])


def bch_connection_set(k: int) -> list:
    """Difference set {(z, z^3) : z != 0} packed as 2k-bit ints."""
    return [z | (gf2k_pow(z, 3, k) << k) for z in range(1, 1 << k)]


def alon_split(k: int) -> tuple:
    """Partition of GF(2^k)* by bit k-1 of alpha^7: (W0, W1)."""
    w0, w1 = [], []
    for alpha in range(1, 1 << k):
        high = (gf2k_pow(alpha, 7, k) >> (k - 1)) & 1
        (w1 if high else w0).append(alpha)
    return w0, w1


def alon_connection_set(k: int) -> list:
    """Deduplicated sums (w0, w0^3, w0^5) + (w1, w1^3, w1^5) as 3k-bit ints."""
    w0s, w1s = alon_split(k)

    def pack(w):
        return w | (gf2k_pow(w, 3, k) << k) | (gf2k_pow(w, 5, k) << (2 * k))

    packed1 = [pack(w1) for w1 in w1s]
    return sorted({p0 ^ p1 for p0 in map(pack, w0s) for p1 in packed1})


def build_code_graph_bch(k: int) -> Graph:
    """Cayley graph on GF(2)^{2k} with connection set {(z, z^3)}; (2^k - 1)-regular."""
    family = FamilySpec(kind="bch", k=k)
    return _cayley_graph(family, connection_set(family))


def build_code_graph_alon(k: int) -> Graph:
    """Cayley graph on GF(2)^{3k} over the W0 + W1 sum set.

    The claimed degree 2^(k-1) * (2^(k-1) - 1) is checked against the actual
    deduplicated sum count; a mismatch is recorded in meta, not an error.
    """
    family = FamilySpec(kind="alon", k=k)
    graph = _cayley_graph(family, connection_set(family))
    w0s, w1s = alon_split(k)
    claimed = (1 << (k - 1)) * ((1 << (k - 1)) - 1)
    graph.meta.update(
        {
            "w0_size": len(w0s),
            "w1_size": len(w1s),
            "sum_set_size": graph.degree,
            "sum_set_claimed": claimed,
            "sum_set_matches_claim": graph.degree == claimed,
        }
    )
    return graph


def connection_set(family: FamilySpec) -> np.ndarray:
    """The connection set S of the family's Cayley graph, sorted: the
    neighbour list of vertex 0, which is the identity in every codec, and
    for the Euclidean and half-plane families the class a of ``_classes``.

    Refused where building the graph would be, with the same message, before
    any work: the vertex limit (``FamilySpec.n``) first, then the (n, |S|)
    neighbour matrix.
    """
    n = family.n  # refused here, before the degree formula takes q^(m-1)
    if family.kind in ("bch", "alon"):
        conn = bch_connection_set(family.k) if family.kind == "bch" else alon_connection_set(family.k)
        _check_size(n, len(conn))
        return np.sort(np.asarray(conn, dtype=np.int64))
    degree = _degree(family, family.a)
    _check_size(n, degree)
    return _class_members(_classes(family), family.a, degree)


def build_family(family: FamilySpec) -> Graph:
    if family.kind == "euclidean":
        return build_euclidean(family.q, family.m, family.a)
    if family.kind == "noneuclidean":
        return build_non_euclidean(family.q, family.sigma, family.a)
    if family.kind == "bch":
        return build_code_graph_bch(family.k)
    return build_code_graph_alon(family.k)


def graph_from_edges(n: int, edges) -> Graph:
    """Ad-hoc graph (family None) from an iterable of (u, v) pairs."""
    pairs = {(min(u, v), max(u, v)) for u, v in edges}
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise BadParameter(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise BadParameter(f"loop at vertex {u}")
    us = np.fromiter((u for u, _ in pairs), dtype=np.int64, count=len(pairs))
    vs = np.fromiter((v for _, v in pairs), dtype=np.int64, count=len(pairs))
    indptr, indices = _csr_from_coo(
        n, np.concatenate([us, vs]), np.concatenate([vs, us])
    )
    degrees = np.diff(indptr)
    degree = int(degrees[0]) if n and degrees.min() == degrees.max() else None
    return Graph(None, n, indptr, indices, degree=degree)


def export_graph(graph: Graph, fmt: str) -> bytes:
    """Serialize as DIMACS ('p edge n m', 1-based 'e u v') or edge JSON lines."""
    us, vs = graph.edge_arrays()
    if fmt == "dimacs":
        lines = [f"p edge {graph.n} {len(us)}"]
        lines.extend(f"e {u + 1} {v + 1}" for u, v in zip(us.tolist(), vs.tolist()))
        return ("\n".join(lines) + "\n").encode()
    if fmt == "edge-jsonl":
        # each line is json.dumps({"u": u, "v": v, "pu": ..., "pv": ...}),
        # with every vertex's point encoded once
        points = []
        for idx in range(graph.n):
            point = graph.decode(idx)
            points.append(json.dumps(list(point) if isinstance(point, tuple) else point))
        lines = [
            f'{{"u": {u}, "v": {v}, "pu": {points[u]}, "pv": {points[v]}}}'
            for u, v in zip(us.tolist(), vs.tolist())
        ]
        return ("\n".join(lines) + "\n").encode()
    raise BadParameter(f"unknown export format {fmt!r}")
