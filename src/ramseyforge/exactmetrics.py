"""Exact combinatorial invariants: girth, diameter, triangles, toughness,
independence number, cuts, greedy coloring.

Everything here is exhaustive or branch-and-bound, no floating point.  The
expensive oracles carry hard size caps; callers that want bounds for larger
graphs should use the spectral module instead.

Graphs built by the family constructors are Cayley graphs, hence vertex
transitive: girth and eccentricity are measured from a single root there,
and the total triangle count is n/3 times the count through one vertex.
Certificates read Euclidean and half-plane graphs from a distance-class
quotient instead (``quotient_invariants``), so on those families the
single-root routes over a built graph serve ``metrics_report`` and are the
quotient's test oracle.  ``eccentricity_uniformity_check`` spot-checks the
transitivity assumption; the tests run it on built family graphs.

BFS has two kernels over one padded neighbour matrix, chosen by how many
roots a question has, and both keep their working arrays within
``_BFS_WORD_BUDGET`` 64-bit words.  One frontier kernel handles single
roots: distances, components, and family girth and diameter; it gathers
each level's neighbour rows in chunks of that size.  The bit-parallel kernel
handles root sets (girth and diameter of ad-hoc graphs, the spot check's
sampled roots): every vertex carries a bit per root, and roots run in blocks
whose bit arrays stay within the budget, fixed up front.
``quotient_invariants`` runs the single-root girth test over a
distance-class quotient instead of a graph, and adds the diameter,
triangles and components that the classes give.
"""
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

import numpy as np

from . import limits
from .errors import BadParameter


@dataclass(frozen=True)
class MetricsReport:
    n: int
    degree: Optional[int]
    girth: float
    diameter: float
    triangles: int
    components: int
    is_vertex_transitive_assumed: bool


@dataclass(frozen=True)
class ToughnessResult:
    value: object  # Fraction, or math.inf for complete graphs
    witness: Optional[tuple]
    components_after: Optional[int]


@dataclass(frozen=True)
class IndependenceResult:
    size: int
    witness: tuple
    exact: bool
    nodes: int


def _is_transitive_family(graph) -> bool:
    return graph.family is not None


def _neighbor_rows(graph) -> np.ndarray:
    """The (n, dmax) neighbour matrix: a view for regular graphs; for
    irregular ones, short rows are padded with the sentinel vertex n, refused
    before allocating past limits.MAX_NEIGHBOR_ENTRIES."""
    n = graph.n
    if graph.degree is not None:
        return graph.indices.reshape(n, graph.degree)
    counts = np.diff(graph.indptr)
    dmax = int(counts.max()) if n else 0
    entries = n * dmax
    limits.check(
        "MAX_NEIGHBOR_ENTRIES", entries, f"neighbor matrix of n*d = {n}*{dmax} = {entries} entries"
    )
    rows = np.full((dmax, n), n, dtype=np.int64).T  # column-major: _neighbor_columns copies nothing
    owners = np.repeat(np.arange(n, dtype=np.int64), counts)
    slots = np.arange(len(graph.indices)) - np.repeat(graph.indptr[:-1], counts)
    rows[owners, slots] = graph.indices
    return rows


# 64-bit words (32 MiB) that one BFS working array may take: a frontier
# level's gather chunk, or a root block's bit array.
_BFS_WORD_BUDGET = 1 << 22


def _frontier_bfs(nbr: np.ndarray, root: int):
    """BFS from one root over the ``_neighbor_rows`` matrix, one vectorized
    step per level.  Yields (level, dist, hits) per level: dist holds the
    distances so far (-1 unseen) and dist[n] = n, so the padding sentinel is
    never unseen nor equal to a level; hits[v] counts the neighbours of v at
    this level.  A level's neighbour rows are gathered in chunks of at most
    ``_BFS_WORD_BUDGET`` entries (one row at least), and all of them are
    counted before the next level is marked, so memory stays O(n) plus one
    chunk."""
    n = len(nbr)
    dist = np.full(n + 1, -1, dtype=np.int64)
    dist[n] = n
    dist[root] = 0
    frontier = np.array([root], dtype=np.int64)
    step = max(1, _BFS_WORD_BUDGET // max(1, nbr.shape[1]))
    level = 0
    while frontier.size:
        hits = np.bincount(nbr[frontier[:step]].ravel(), minlength=n + 1)
        for lo in range(step, frontier.size, step):
            hits += np.bincount(nbr[frontier[lo:lo + step]].ravel(), minlength=n + 1)
        yield level, dist, hits
        level += 1
        frontier = np.flatnonzero((hits[:n] > 0) & (dist[:n] < 0))
        dist[frontier] = level


def bfs_distances(graph, root: int) -> np.ndarray:
    """Distance array from root, -1 for unreachable vertices."""
    for _, dist, _ in _frontier_bfs(_neighbor_rows(graph), root):
        pass
    return dist[:graph.n]


def eccentricity(graph, root: int) -> float:
    dist = bfs_distances(graph, root)
    if (dist < 0).any():
        return math.inf
    return int(dist.max())


def _root_cycle_bound(graph, root: int) -> float:
    """Itai-Rodeh cycle bound from one root, exact for roots on a shortest
    cycle.  At level k, an edge inside the level closes a walk of length
    2k + 1; an unseen vertex with two level-k neighbours closes one of
    length 2k + 2."""
    for k, dist, hits in _frontier_bfs(_neighbor_rows(graph), root):
        if hits[dist == k].any():
            return 2 * k + 1
        if (hits[dist < 0] >= 2).any():
            return 2 * k + 2
    return math.inf


# --- bit-parallel BFS from a set of roots ------------------------------------
#
# Every vertex carries a row of w uint64 words; bit j of word i stands for
# root 64*i + j of the current block.  One level ORs the frontier rows of the
# neighbours into each vertex, column by column of the (n, dmax) neighbour
# matrix (kept transposed, so a column is contiguous), so a level costs
# n*dmax*w word operations whatever the number of roots.  Bit arrays have
# n + 1 rows: the padding sentinel n of ``_neighbor_rows`` keeps a 0 row.
# Roots run in blocks small enough that one (n + 1, w) array stays within
# _BFS_WORD_BUDGET words, fixed before anything is allocated; a single word
# per vertex is the floor.


def _neighbor_columns(graph) -> np.ndarray:
    """The (dmax, n) transposed neighbour matrix, short rows padded with n."""
    return np.ascontiguousarray(_neighbor_rows(graph).T)


def _root_blocks(n: int, roots: np.ndarray):
    """Roots in blocks whose (n + 1, w) bit arrays fit the word budget."""
    step = 64 * max(1, _BFS_WORD_BUDGET // (n + 1))
    for lo in range(0, len(roots), step):
        yield roots[lo:lo + step]


def _root_bits(n: int, block: np.ndarray) -> np.ndarray:
    """(n + 1, w) array with bit i set on row block[i]: the level-0 frontier."""
    words = np.zeros((n + 1, (len(block) + 63) // 64), dtype=np.uint64)
    i = np.arange(len(block))
    words[block, i >> 6] = np.left_shift(np.uint64(1), (i & 63).astype(np.uint64))
    return words


def _bit_flags(words: np.ndarray, count: int) -> np.ndarray:
    """Boolean flag per root from a row of w words, roots 0..count-1."""
    i = np.arange(count)
    return ((words[i >> 6] >> (i & 63).astype(np.uint64)) & np.uint64(1)).astype(bool)


def _eccentricities(graph, roots) -> list:
    """Exact eccentricity of each root (math.inf when it misses a vertex)."""
    n = graph.n
    roots = np.asarray(roots, dtype=np.int64)
    cols = _neighbor_columns(graph)
    out = []
    for block in _root_blocks(n, roots):
        frontier = _root_bits(n, block)
        seen = frontier.copy()
        ecc = np.zeros(len(block), dtype=np.int64)
        level = 0
        while True:
            nxt = np.zeros((n, frontier.shape[1]), dtype=np.uint64)
            for col in cols:
                nxt |= frontier[col]
            nxt &= ~seen[:n]
            reached = np.bitwise_or.reduce(nxt, axis=0)
            if not reached.any():
                break
            level += 1
            ecc[_bit_flags(reached, len(block))] = level
            frontier[:n] = nxt
            seen[:n] |= nxt
        complete = _bit_flags(np.bitwise_and.reduce(seen[:n], axis=0), len(block))
        out.extend(int(e) if ok else math.inf for e, ok in zip(ecc.tolist(), complete.tolist()))
    return out


def _shortest_cycle(graph) -> float:
    """Girth by bit-parallel BFS from every root at once (Itai-Rodeh).

    The root-set kernel; a single root takes the frontier kernel through
    ``_root_cycle_bound``, which finds the same per-root bound: at level k,
    an edge between two frontier vertices of one root closes a walk of
    length 2k + 1, an unseen vertex with two frontier neighbours of one root
    one of length 2k + 2.  The minimum over roots is the girth.
    """
    n = graph.n
    cols = _neighbor_columns(graph)
    best = math.inf
    for block in _root_blocks(n, np.arange(n, dtype=np.int64)):
        if best == 3:
            break
        frontier = _root_bits(n, block)
        seen = frontier.copy()
        level = 0
        while 2 * level + 1 < best:
            once = np.zeros((n, frontier.shape[1]), dtype=np.uint64)
            twice = np.zeros_like(once)
            for col in cols:
                hit = frontier[col]
                twice |= once & hit
                once |= hit
            if (once & frontier[:n]).any():
                best = 2 * level + 1
                break
            unseen = ~seen[:n]
            if (twice & unseen).any():
                best = 2 * level + 2
                break
            once &= unseen
            if not once.any():
                break
            frontier[:n] = once
            seen[:n] |= once
            level += 1
    return best


def girth(graph) -> float:
    """Length of a shortest cycle, math.inf for forests.

    Frontier BFS from vertex 0 when the graph is a known vertex-transitive
    family (every vertex then lies on some shortest cycle), bit-parallel BFS
    from all roots otherwise.
    """
    if _is_transitive_family(graph):
        return _root_cycle_bound(graph, 0)
    return _shortest_cycle(graph)


def diameter(graph) -> float:
    """Diameter, math.inf when disconnected.

    Vertex-transitive graphs have all eccentricities equal, so one BFS
    suffices for the known families; other graphs take the maximum over a
    bit-parallel BFS from all roots.
    """
    if _is_transitive_family(graph):
        return eccentricity(graph, 0)
    return max(_eccentricities(graph, np.arange(graph.n)), default=0)


def quotient_invariants(sizes: np.ndarray, quotient: np.ndarray, conn_class: int) -> tuple:
    """(girth, diameter, triangles, components) of a Cayley graph Cay(G, S)
    from a distance-class quotient: sizes[k] vertices in class k, each with
    quotient[k, j] neighbours in class j, where class 0 is the identity
    alone, the distance from it is constant on every class, and S is the
    class ``conn_class``.

    Girth and diameter come from a BFS over the classes from class 0, with
    the Itai-Rodeh test of ``_root_cycle_bound`` at each level k: an edge
    between two level-k classes closes a walk of length 2k + 1, and a class
    first reached at level k + 1 whose vertices have two level-k neighbours
    one of length 2k + 2.  As with ``girth`` and ``diameter`` on the graph,
    both are exact, math.inf for no cycle or a disconnected graph.

    Each s in S has quotient[S, S] neighbours in S, so n*d*quotient[S, S]
    counts every triangle six times, as ``_triangles_through_identity`` does.
    The classes BFS reaches make up the component of the identity, and the
    components are the cosets of the subgroup S generates, all of one size.
    """
    level = np.full(len(quotient), -1)
    level[0] = 0
    best, k = math.inf, 0
    while True:
        at_k = level == k
        into_k = quotient[:, at_k].sum(axis=1)  # level-k neighbours per vertex of each class
        new = (level < 0) & (into_k > 0)
        if best == math.inf:
            if (into_k[at_k] > 0).any():
                best = 2 * k + 1
            elif (into_k[new] >= 2).any():
                best = 2 * k + 2
        if not new.any():
            break
        k += 1
        level[new] = k
    n, reached = int(sizes.sum()), int(sizes[level >= 0].sum())
    total = n * int(quotient[0].sum()) * int(quotient[conn_class, conn_class])
    if total % 6 or n % reached:
        raise AssertionError("class sizes and quotient are not those of a Cayley graph")
    diam = int(level.max()) if reached == n else math.inf
    return best, diam, total // 6, n // reached


def eccentricity_uniformity_check(graph) -> bool:
    """Up to 8 evenly spaced vertices share one eccentricity (transitivity spot check)."""
    if graph.n == 0:
        return True
    roots = np.unique(np.linspace(0, graph.n - 1, num=min(8, graph.n)).astype(np.int64))
    return len(set(_eccentricities(graph, roots))) == 1


def _triangles_bitset(graph) -> int:
    n = graph.n
    limits.check("BITSET_TRIANGLE_CAP", n, f"bitset triangle count on {n} vertices")
    words = (n + 63) // 64
    rows = np.zeros(n * words, dtype=np.uint64)
    counts = np.diff(graph.indptr)
    us = np.repeat(np.arange(n, dtype=np.int64), counts)
    vs = graph.indices
    np.bitwise_or.at(
        rows,
        us * words + (vs >> 6),
        np.left_shift(np.uint64(1), (vs & 63).astype(np.uint64)),
    )
    rows = rows.reshape(n, words)
    eu, ev = graph.edge_arrays()
    total = 0
    step = max(1, 4_000_000 // max(1, words))
    for lo in range(0, len(eu), step):
        chunk_u = eu[lo:lo + step]
        chunk_v = ev[lo:lo + step]
        total += int(np.bitwise_count(rows[chunk_u] & rows[chunk_v]).sum())
    if total % 3:
        raise AssertionError("edge-wise common-neighbor total not divisible by 3")
    return total // 3


def _triangles_through_identity(graph) -> int:
    """n*P/6 for a Cayley graph Cay(G, S) with vertex 0 the identity.

    P counts the ordered pairs (s, t) in S x S with t adjacent to s, i.e.
    twice the triangles through vertex 0; transitivity gives every vertex
    the same number, and each triangle has three vertices.
    """
    nbr = graph.indices.reshape(graph.n, graph.degree)
    in_conn = np.zeros(graph.n, dtype=bool)
    in_conn[nbr[0]] = True
    pairs = int(in_conn[nbr[nbr[0]]].sum())
    total = graph.n * pairs
    if total % 6:
        raise AssertionError("Cayley triangle total not divisible by 6")
    return total // 6


def triangle_count(graph) -> int:
    """Exact triangle count: through the identity for family (Cayley) graphs,
    by packed-bitset neighbor intersections (size-capped) for ad-hoc graphs."""
    if _is_transitive_family(graph):
        return _triangles_through_identity(graph)
    return _triangles_bitset(graph)


def connected_components(graph):
    """(count, labels, sizes); components numbered by smallest vertex."""
    n = graph.n
    nbr = _neighbor_rows(graph)  # padded once, not once per component
    labels = np.full(n, -1, dtype=np.int64)
    sizes = []
    for start in range(n):
        if labels[start] >= 0:
            continue
        for _, dist, _ in _frontier_bfs(nbr, start):
            pass
        members = dist[:n] >= 0
        labels[members] = len(sizes)
        sizes.append(int(members.sum()))
    return len(sizes), labels, sizes


def _neighbor_masks(graph) -> list:
    masks = [0] * graph.n
    for u in range(graph.n):
        m = 0
        for v in graph.neighbors(u):
            m |= 1 << int(v)
        masks[u] = m
    return masks


def _mask_components(remaining: int, masks: list) -> int:
    comps = 0
    rem = remaining
    while rem:
        comps += 1
        frontier = rem & -rem
        grown = frontier
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= masks[b.bit_length() - 1]
            frontier = nxt & rem & ~grown
            grown |= frontier
        rem &= ~grown
    return comps


def exact_toughness(graph) -> ToughnessResult:
    """min |S| / c(G - S) over vertex sets S with c(G - S) >= 2.

    Exhaustive over subsets by increasing size, lexicographic within a size,
    keeping the first strict improvement.  Complete graphs have no
    disconnecting set; the result is the math.inf sentinel, not an error.
    """
    n = graph.n
    limits.check("TOUGHNESS_CAP", n, f"exact toughness on {n} vertices")
    masks = _neighbor_masks(graph)
    full = (1 << n) - 1
    if n:
        comps0 = _mask_components(full, masks)
        if comps0 > 1:
            return ToughnessResult(Fraction(0), (), comps0)
    best = None
    best_witness = None
    best_comps = None
    for size in range(1, n - 1):
        for subset in combinations(range(n), size):
            removed = 0
            for v in subset:
                removed |= 1 << v
            comps = _mask_components(full & ~removed, masks)
            if comps < 2:
                continue
            value = Fraction(size, comps)
            if best is None or value < best:
                best = value
                best_witness = subset
                best_comps = comps
    if best is None:
        return ToughnessResult(math.inf, None, None)
    return ToughnessResult(best, best_witness, best_comps)


def exact_independence(graph) -> IndependenceResult:
    """Maximum independent set by branch and bound over vertex bitmasks.

    Branches on the highest-degree vertex of the open set (lowest index on
    ties), include branch first, pruned by a greedy clique-cover bound.
    Graphs past limits.INDEPENDENCE_CAP are refused.  If the search visits
    more than limits.NODE_BUDGET nodes (read when the search starts) the best
    set found so far comes back flagged ``exact=False`` rather than raising.
    """
    n = graph.n
    limits.check("INDEPENDENCE_CAP", n, f"exact independence on {n} vertices")
    budget = limits.NODE_BUDGET
    masks = _neighbor_masks(graph)
    state = {"best": 0, "best_set": 0, "nodes": 0, "exceeded": False}

    def cover_bound(open_set: int) -> int:
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

    def branch(open_set: int, size: int, chosen: int):
        state["nodes"] += 1
        if state["nodes"] > budget:
            state["exceeded"] = True
            return
        # every prefix of the include chain is independent, so record it even
        # when the budget cuts the search off before a leaf
        if size > state["best"]:
            state["best"] = size
            state["best_set"] = chosen
        if not open_set:
            return
        if size + cover_bound(open_set) <= state["best"]:
            return
        pick = -1
        pick_deg = -1
        scan = open_set
        while scan:
            b = scan & -scan
            scan ^= b
            v = b.bit_length() - 1
            deg = (open_set & masks[v]).bit_count()
            if deg > pick_deg:
                pick_deg = deg
                pick = v
        bit = 1 << pick
        branch(open_set & ~masks[pick] & ~bit, size + 1, chosen | bit)
        if state["exceeded"]:
            return
        branch(open_set & ~bit, size, chosen)

    branch((1 << n) - 1, 0, 0)
    chosen = state["best_set"]
    witness = tuple(v for v in range(n) if (chosen >> v) & 1)
    for v in witness:
        if masks[v] & chosen:
            raise AssertionError("branch and bound returned a non-independent set")
    return IndependenceResult(state["best"], witness, not state["exceeded"], state["nodes"])


def exact_max_cut_and_bisection(graph):
    """(max cut size, min balanced-bisection size) by enumerating all
    2^(n-1) two-colorings with vertex n-1 pinned to side 0."""
    n = graph.n
    limits.check("CUT_CAP", n, f"exact cut enumeration on {n} vertices")
    if n < 2:
        raise BadParameter("cuts need at least 2 vertices")
    assigns = np.arange(1 << (n - 1), dtype=np.int64)
    cut = np.zeros(len(assigns), dtype=np.int32)
    us, vs = graph.edge_arrays()
    for u, v in zip(us.tolist(), vs.tolist()):
        cut += (((assigns >> u) ^ (assigns >> v)) & 1).astype(np.int32)
    max_cut = int(cut.max())
    side1 = np.bitwise_count(assigns.astype(np.uint64))
    balanced = (side1 == n // 2) | (side1 == n - n // 2)
    bisection = int(cut[balanced].min())
    return max_cut, bisection


def greedy_coloring(graph, order: str = "degree-descending"):
    """(number of colors, color array). order: 'degree-descending' sorts by
    descending degree with index ties, 'index' takes vertices as numbered."""
    if order == "degree-descending":
        verts = sorted(range(graph.n), key=lambda v: (-graph.degree_of(v), v))
    elif order == "index":
        verts = range(graph.n)
    else:
        raise BadParameter(f"unknown order {order!r}")
    colors = [-1] * graph.n
    for v in verts:
        used = {colors[int(u)] for u in graph.neighbors(v)}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return max(colors) + 1 if colors else 0, colors


def metrics_report(graph) -> MetricsReport:
    comp_count, _, _ = connected_components(graph)
    return MetricsReport(
        n=graph.n,
        degree=graph.degree,
        girth=girth(graph),
        diameter=diameter(graph),
        triangles=triangle_count(graph),
        components=comp_count,
        is_vertex_transitive_assumed=_is_transitive_family(graph),
    )
