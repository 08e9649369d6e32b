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
their invariants from it instead of from a built graph.  The vertex codec,
between indices and domain points, is written once, in
``FamilySpec.coordinates`` and ``FamilySpec.index``.
"""
import itertools
import math
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


def _check_int(value, what: str) -> None:
    """BadParameter unless ``value`` is an integer (numpy integers included,
    bools not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise BadParameter(f"{what} must be an integer, got {value!r}")


# The parameters each family reads, the first of them required; FamilySpec
# refuses any other one, and the CLI any other selector.
FAMILY_FIELDS = {
    "euclidean": ("q", "m", "a"),
    "noneuclidean": ("q", "a", "sigma"),
    "bch": ("k",),
    "alon": ("k",),
}


@dataclass(frozen=True)
class FamilySpec:
    """Which family a graph belongs to, with its parameters normalized.
    BadParameter for an unknown kind, for a parameter that is not an
    integer or that the family does not read, and for a missing first
    parameter (``FAMILY_FIELDS``)."""

    kind: str
    q: Optional[int] = None
    m: Optional[int] = None
    a: Optional[int] = None
    sigma: Optional[int] = None
    k: Optional[int] = None

    def __post_init__(self):
        reads = FAMILY_FIELDS.get(self.kind)
        if reads is None:
            raise BadParameter(f"unknown family kind {self.kind!r}")
        for field in ("q", "m", "a", "sigma", "k"):
            value = getattr(self, field)
            if value is not None:
                _check_int(value, field)
                if field not in reads:
                    raise BadParameter(f"{field}={value} is not read by the {self.kind} family")
                object.__setattr__(self, field, int(value))
        if getattr(self, reads[0]) is None:
            raise BadParameter(f"{reads[0]} is required for the {self.kind} family")
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
        else:
            if self.k not in GF2K_MODULI:
                raise BadParameter(f"k={self.k} outside 2..8")
            if self.kind == "alon" and self.k % 3 == 0:
                raise BadParameter(f"k={self.k} divisible by 3: alpha -> alpha^7 is not a bijection")

    @property
    def n(self) -> int:
        """Vertex count, refused past the vertex limit; q^m is refused before
        the power is taken, so a huge m costs no time."""
        if self.kind == "euclidean":
            n = 1
            for _ in range(self.m):
                n *= self.q
                limits.check("RAMSEY_FORGE_MAX_N", n, f"graph on {self.q}^{self.m} vertices")
            return n
        if self.kind == "noneuclidean":
            n = self.q * (self.q - 1)
        elif self.kind == "bch":
            n = 1 << (2 * self.k)
        else:
            n = 1 << (3 * self.k)
        limits.check("RAMSEY_FORGE_MAX_N", n, f"graph on {n} vertices")
        return n

    def coordinates(self, idx):
        """Domain point of vertex index ``idx``, an int or an integer array
        (each coordinate then an array of its shape), not range-checked
        (``Graph.decode`` is): (x_0, ..., x_{m-1}) for D_q^m(a), (x, y) for
        the half-plane, the index itself for a code graph.

        Vertex codecs are frozen: euclidean index = sum x_i * q^i (coordinate
        0 least significant), half-plane index = x*(q-1) + (y-1), code-graph
        index = integer value of the concatenated bitvector (first component
        least significant).  Vertex 0 is the group identity in every codec.
        """
        q = self.q
        if self.kind == "euclidean":
            return tuple(idx // q**i % q for i in range(self.m))
        if self.kind == "noneuclidean":
            x, y = divmod(idx, q - 1)
            return x, y + 1
        return idx

    def index(self, coords):
        """Vertex index of a domain point, the inverse of ``coordinates``:
        ints or integer arrays, each coordinate reduced mod q."""
        q = self.q
        if self.kind == "euclidean":
            return sum(c % q * q**i for i, c in enumerate(coords))
        if self.kind == "noneuclidean":
            x, y = coords
            return x % q * (q - 1) + y % q - 1
        return coords

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

    def __init__(self, family, n, indptr, indices, degree=None):
        self.family = family
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.degree = degree
        # exactmetrics.exact_independence's result per limits.NODE_BUDGET
        self._independence = {}
        indptr.setflags(write=False)
        indices.setflags(write=False)

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def adjacency_oracle(self, u: int, v: int) -> bool:
        """Membership test on the sorted neighbor list of u.  BadParameter
        for a vertex that is not an integer, IndexError for one outside
        0..n-1."""
        _check_int(u, "vertex u")
        _check_int(v, "vertex v")
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

    def _vertex(self, idx) -> int:
        """``idx`` as an int, BadParameter unless it is an integer in 0..n-1."""
        _check_int(idx, "vertex index")
        if not 0 <= idx < self.n:
            raise BadParameter(f"vertex {idx} out of range 0..{self.n - 1}")
        return int(idx)

    def decode(self, idx: int):
        """Domain point of a vertex index (``FamilySpec.coordinates``); code
        and ad-hoc graphs use the index.  BadParameter for an index that is
        not an integer in 0..n-1."""
        idx = self._vertex(idx)
        return idx if self.family is None else self.family.coordinates(idx)

    def encode(self, point) -> int:
        """Vertex index of a domain point (``FamilySpec.index``), integer
        coordinates reduced mod q; code and ad-hoc graphs take the index.
        BadParameter for a point of the wrong dimension (a half-plane point
        has two), a coordinate that is not an integer, a half-plane point
        with y = 0 mod q, or an index that is not an integer in 0..n-1."""
        fam = self.family
        if getattr(fam, "kind", None) not in ("euclidean", "noneuclidean"):
            return self._vertex(point)
        dim = fam.m if fam.kind == "euclidean" else 2
        try:
            coords = tuple(point)
        except TypeError:
            raise BadParameter(f"point {point!r} is not a sequence of coordinates") from None
        if len(coords) != dim:
            raise BadParameter(f"point has dimension {len(coords)}, expected {dim}")
        for c in coords:
            _check_int(c, "point coordinate")
        if fam.kind == "noneuclidean" and coords[1] % fam.q == 0:
            raise BadParameter("half-plane points need y != 0")
        return fam.index(tuple(map(int, coords)))


def _csr_from_rows(rows: np.ndarray) -> tuple:
    """CSR arrays from an (n, d) neighbor matrix; rows get sorted in place."""
    rows.sort(axis=1)
    n, d = rows.shape
    if d > 1 and (rows[:, 1:] == rows[:, :-1]).any():
        raise AssertionError("duplicate neighbor produced by a builder")
    indptr = np.arange(0, n * d + 1, d, dtype=np.int64)
    return indptr, rows.reshape(-1).astype(np.int64, copy=False)


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
    if family.kind == "euclidean":
        sums = zip(family.coordinates(g[:, None]), family.coordinates(conn))
        out[...] = family.index(tuple(x + s for x, s in sums))
    elif family.kind == "noneuclidean":
        (x, y), (t, v) = family.coordinates(g[:, None]), family.coordinates(conn)
        out[...] = family.index((x + y * t, y * v))
    else:
        np.bitwise_xor(g[:, None], conn, out=out)
    return out


def _classes(family: FamilySpec) -> np.ndarray:
    """Distance class of every vertex of a Euclidean or half-plane family,
    with the identity alone in class 0 and the connection set at distance a
    the class a.  Called once the vertex limit has passed.

    For D_q^m(a) the class of x is Q(x), except that the nonzero null vectors
    make up class q.  For V_q(sigma, a) it is the Poincare distance of (x, y)
    from the base point (0, 1), (x^2 - sigma*(1 - y)^2) / y mod q: class 0 is
    (0, 1) alone, class 4*sigma is (0, -1) alone, and every other class a is
    the circle of q + 1 points around (0, 1) at distance a.
    """
    q = family.q
    point = family.coordinates(np.arange(family.n, dtype=np.int64))
    if family.kind == "noneuclidean":
        x, y = point
        inverse = np.array([0] + [pow(v, -1, q) for v in range(1, q)], dtype=np.int64)
        return (x * x - family.sigma * (1 - y) ** 2) % q * inverse[y] % q
    classes = sum(c * c for c in point) % q
    classes[classes == 0] = q
    classes[0] = 0
    return classes


# Rows of the neighbour matrix are filled a block at a time, so a product's
# temporaries stay within this many entries whatever the size of the graph.
_ROW_BLOCK_ENTRIES = 1 << 18


def _cayley_graph(family: FamilySpec, conn: np.ndarray) -> Graph:
    """Cayley graph Cay(G, S) on the family's group G, with S = ``conn`` its
    sorted connection set, as ``connection_set`` or ``distance_quotient``
    gives it: row g of the neighbour matrix lists the products g*s, s in S.

    This is the one allocation of an (n, |S|) matrix in the package, so the
    one check of limits.MAX_NEIGHBOR_ENTRIES, made before it is allocated.
    """
    n, d = family.n, len(conn)
    limits.check("MAX_NEIGHBOR_ENTRIES", n * d, f"neighbor matrix of n*d = {n}*{d} = {n * d} entries")
    rows = np.empty((n, d), dtype=np.int64)
    step = max(1, _ROW_BLOCK_ENTRIES // max(1, d))
    for lo in range(0, n, step):
        _product(family, np.arange(lo, min(n, lo + step), dtype=np.int64), conn, rows[lo:lo + step])
    indptr, indices = _csr_from_rows(rows)
    return Graph(family, n, indptr, indices, degree=d)


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
    each class, and its size.  Refused past the vertex limit
    (``FamilySpec.n``) before any work; every array it makes has n entries.

    The classes are the orbits of the identity's stabiliser among the
    automorphisms of every graph of the family: for D_q^m(a), O(m, q) keeps
    Q and by Witt's extension theorem is transitive on each class; for
    V_q(sigma, a) the circles around (0, 1) are the orbits of its stabiliser
    among the half-plane isometries (Terras, Fourier Analysis on Finite
    Groups and Applications, ch. 19-20).  So the classes are one equitable
    partition for every distance a (Godsil & Royle, Algebraic Graph Theory,
    ch. 9), and ``distance_quotient`` reads each a from it.
    """
    family.n  # the vertex limit refuses here, before any work
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


def connection_set(family: FamilySpec) -> np.ndarray:
    """The connection set S of the family's Cayley graph, sorted: the
    neighbour list of vertex 0, which is the identity in every codec, and
    for the Euclidean and half-plane families the class a of ``_classes``.

    Refused past the vertex limit (``FamilySpec.n``) before any work.  No
    (n, |S|) matrix is made here: ``_cayley_graph`` bounds the one a build
    allocates.
    """
    family.n  # the vertex limit refuses here, before any work
    if family.kind in ("bch", "alon"):
        conn = bch_connection_set(family.k) if family.kind == "bch" else alon_connection_set(family.k)
        return np.sort(np.asarray(conn, dtype=np.int64))
    return _class_members(_classes(family), family.a, _degree(family, family.a))


def build_family(family: FamilySpec) -> Graph:
    """The family's Cayley graph, Cay(G, S) with S = ``connection_set``."""
    return _cayley_graph(family, connection_set(family))


def build_euclidean(q: int, m: int = 2, a: int = 1) -> Graph:
    """D_q^m(a): the Cayley graph on (F_q^m, +) over the sphere Q = a."""
    return build_family(FamilySpec(kind="euclidean", q=q, m=m, a=a))


def build_non_euclidean(q: int, sigma: int, a: int) -> Graph:
    """V_q(sigma, a): the half-plane graph at Poincare distance a."""
    return build_family(FamilySpec(kind="noneuclidean", q=q, sigma=sigma, a=a))


def build_code_graph_bch(k: int) -> Graph:
    """BCH_k: the Cayley graph on GF(2)^{2k} over {(z, z^3)}."""
    return build_family(FamilySpec(kind="bch", k=k))


def build_code_graph_alon(k: int) -> Graph:
    """ALON_k: the Cayley graph on GF(2)^{3k} over the W0 + W1 sum set."""
    return build_family(FamilySpec(kind="alon", k=k))


# Ad-hoc graphs key an edge (u, v) as u*n + v in an int64, so n^2 must fit.
_MAX_ADHOC_VERTICES = math.isqrt(np.iinfo(np.int64).max)


def _checked_pairs(n: int, items) -> np.ndarray:
    """The pairs of ``items`` one at a time, in input order, as an (m, 2)
    int64 array; BadParameter at the first entry that is not a pair, holds a
    vertex that is not an integer, leaves 0..n-1 or is a loop."""
    out = []
    for item in items:
        try:
            u, v = item
        except (TypeError, ValueError):
            raise BadParameter(f"edge entry {item!r} is not a pair (u, v)") from None
        for x in (u, v):
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                raise BadParameter(f"vertex {x!r} of edge entry {item!r} is not an integer")
        lo, hi = sorted((int(u), int(v)))
        if lo < 0 or hi >= n:
            raise BadParameter(f"edge ({lo}, {hi}) out of range for n={n}")
        if lo == hi:
            raise BadParameter(f"loop at vertex {lo}")
        out.append((lo, hi))
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def _edge_pairs(n: int, edges) -> np.ndarray:
    """The pairs of ``edges`` as one (m, 2) int64 array of vertices in
    0..n-1, no pair a loop.  An integer array numpy reads in one pass is
    checked as a whole; anything else, or an array with a bad pair, goes
    through ``_checked_pairs``, which reports the first bad entry."""
    try:
        items = edges if isinstance(edges, np.ndarray) and edges.ndim else list(edges)
    except TypeError:
        raise BadParameter(f"edges {edges!r} is not an iterable of pairs") from None
    try:
        pairs = np.asarray(items)
    except (TypeError, ValueError):  # ragged, or entries numpy cannot stack
        return _checked_pairs(n, items)
    if pairs.ndim == 2 and pairs.shape[1] == 2 and pairs.dtype.kind in "iu":
        # numpy reads a bool among integers as 0 or 1, so a list is scanned for one
        bools = not isinstance(items, np.ndarray) and not {bool, np.bool_}.isdisjoint(
            map(type, itertools.chain.from_iterable(items))
        )
        if not bools and not ((pairs < 0) | (pairs >= n)).any() and not (pairs[:, 0] == pairs[:, 1]).any():
            return pairs.astype(np.int64, copy=False)
    return _checked_pairs(n, items)


def graph_from_edges(n: int, edges) -> Graph:
    """Ad-hoc graph (family None) on vertices 0..n-1 from pairs (u, v): an
    iterable of pairs or an (m, 2) integer array.  A pair repeated, in
    either order, is one edge.

    BadParameter for a vertex count that is not an integer (a bool is not)
    in 0..``_MAX_ADHOC_VERTICES``, and for the first bad pair in input order:
    one that is not two items, holds a vertex that is not an integer (nor
    is a bool), has a vertex outside 0..n-1 ("edge (u, v) out of range for
    n=N", u <= v) or is a loop ("loop at vertex u").  The CSR comes from one
    sort of the keys u*n + v of both directions of every pair, duplicates
    dropped.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 0 <= n <= _MAX_ADHOC_VERTICES:
        raise BadParameter(f"vertex count {n!r} is not an integer in 0..{_MAX_ADHOC_VERTICES}")
    n = int(n)
    pairs = _edge_pairs(n, edges)
    us, vs = pairs[:, 0], pairs[:, 1]
    keys = np.concatenate((us * n + vs, vs * n + us))
    keys.sort()
    rows, indices = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)  # no keys when n = 0
    counts = np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    degree = int(counts[0]) if n and counts.min() == counts.max() else None
    return Graph(None, n, indptr, indices, degree=degree)


def export_graph(graph: Graph, fmt: str) -> bytes:
    """Serialize as DIMACS ('p edge n m', 1-based 'e u v') or edge JSON lines (none for no edges)."""
    us, vs = graph.edge_arrays()
    if fmt == "dimacs":
        edges = "".join(f"e {u + 1} {v + 1}\n" for u, v in zip(us.tolist(), vs.tolist()))
        return (f"p edge {graph.n} {len(us)}\n" + edges).encode()
    if fmt == "edge-jsonl":
        # each line is json.dumps({"u": u, "v": v, "pu": ..., "pv": ...}),
        # with every vertex's point formatted once: a coordinate tuple as a
        # JSON list, an index point (code and ad-hoc graphs) as its decimal
        idx = np.arange(graph.n, dtype=np.int64)
        coords = idx if graph.family is None else graph.family.coordinates(idx)
        if isinstance(coords, tuple):
            points = [f"[{', '.join(map(str, p))}]" for p in zip(*(c.tolist() for c in coords))]
        else:
            points = list(map(str, coords.tolist()))
        return "".join(
            f'{{"u": {u}, "v": {v}, "pu": {points[u]}, "pv": {points[v]}}}\n'
            for u, v in zip(us.tolist(), vs.tolist())
        ).encode()
    raise BadParameter(f"unknown export format {fmt!r}")
