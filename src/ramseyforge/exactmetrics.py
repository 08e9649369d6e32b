"""Exact combinatorial invariants: girth, diameter, triangles, toughness,
independence number, cuts, greedy coloring.

Everything here is exhaustive or branch-and-bound, no floating point.  The
expensive oracles carry hard size caps; callers that want bounds for larger
graphs should use the spectral module instead.

Graphs built by the family constructors are Cayley graphs, hence vertex
transitive, and are measured through one quotient form (sizes, nbr): a
built graph is its own quotient with every class one vertex
(``_cayley_quotient``), and certificates read a Euclidean or half-plane
family from its distance-class quotient instead.  One walk from the
identity, ``quotient_invariants``, gives girth, diameter and components
(for a code graph, ``xor_cayley_invariants`` by Walsh-Hadamard transforms),
and ``quotient_triangles`` reads triangles from the identity's neighbour rows.
``eccentricity_uniformity_check`` spot-checks transitivity; the tests run it
on built family graphs.

Ad-hoc graphs take the bit-parallel kernel, ``_root_walk``: one BFS from
every root at once gives girth and eccentricities, reading the CSR columns of
a relabelling by falling degree, so no row is padded.  Each vertex carries a
bit per root, and roots run in blocks whose bit arrays stay within
``_BFS_WORD_BUDGET`` 64-bit words, fixed up front.  The quotient walk gathers
each BFS level in chunks of that size, and ``connected_components`` runs one
BFS per component over the CSR lists.

The independence branch and bound works on Python ints as vertex bitmasks:
it keeps a stack of open sets, not a recursion, reads each node's pick from
the open degrees packed in the lanes of one int, and on a triangle-free graph
prunes with a matching grown by augmenting paths (``exact_independence``).
Toughness and cuts fill one numpy table over all 2^n vertex sets, doubled
vertex by vertex: the components left in every set, counted for all sets at
once (``_component_counts``), and the cut of every two-coloring.
"""
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import limits
from .errors import BadParameter
from .spectral import walsh_hadamard


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


# 64-bit words (32 MiB) that one BFS working array may take: a gather chunk
# of the quotient walk or of the component search, or a root block's bit array.
_BFS_WORD_BUDGET = 1 << 22


# --- bit-parallel BFS from a set of roots ------------------------------------
#
# Every vertex carries a row of w uint64 words; bit j of word i stands for
# root 64*i + j of the current block.  Vertices are relabelled by falling
# degree (``_degree_columns``), so the j-th neighbours of the vertices of
# degree above j form one column over a prefix of the rows, and a level ORs
# the frontier rows each column names into that prefix: 2m*w word operations
# per level whatever the number of roots, and no row is padded.  Roots run in
# blocks small enough that one (n, w) array stays within _BFS_WORD_BUDGET
# words, fixed before anything is allocated; a single word per vertex is the
# floor.


def _root_blocks(n: int, roots: np.ndarray):
    """Roots in blocks whose (n, w) bit arrays fit the word budget."""
    step = 64 * max(1, _BFS_WORD_BUDGET // max(1, n))
    for lo in range(0, len(roots), step):
        yield roots[lo:lo + step]


def _bit_flags(words: np.ndarray, count: int) -> np.ndarray:
    """Boolean flag per root from a row of w words, roots 0..count-1."""
    i = np.arange(count)
    return ((words[i >> 6] >> (i & 63).astype(np.uint64)) & np.uint64(1)).astype(bool)


def _degree_columns(graph) -> tuple:
    """(rank, cols): vertex v relabelled rank[v] by falling degree, ties in
    index order, and cols[j] the relabelled j-th neighbours of the
    len(cols[j]) first vertices in the new order, those of degree above j.
    A regular graph keeps its order, and its columns are strided views of
    the CSR; otherwise each entry is copied once.  Nothing is padded."""
    if graph.degree is not None:
        return np.arange(graph.n), list(graph.indices.reshape(graph.n, graph.degree).T)
    counts = np.diff(graph.indptr)
    order = np.argsort(-counts, kind="stable")
    rank = np.empty(graph.n, dtype=np.int64)
    rank[order] = np.arange(graph.n)
    starts = graph.indptr[order]
    lengths = graph.n - np.cumsum(np.bincount(counts))[:-1]
    return rank, [rank[graph.indices[starts[:k] + j]] for j, k in enumerate(lengths.tolist())]


def _root_walk(graph, roots) -> tuple:
    """(girth, eccentricities) from one bit-parallel BFS from the root set.

    The eccentricities come in the order of ``roots``, math.inf for a root
    that misses a vertex.  The girth is the Itai-Rodeh test over the roots,
    the one ``quotient_invariants`` runs from the identity alone: at level
    k, an edge between two frontier vertices of one root closes a walk of
    length 2k + 1, an unseen vertex with two frontier neighbours of one root
    one of length 2k + 2.  The minimum over all roots is the girth
    (math.inf for a forest); over a subset it is never below it.  A level
    runs the test only while 2k + 1 is below the best so far, and is a
    plain OR after that.
    """
    n = graph.n
    rank, cols = _degree_columns(graph)
    best, out = math.inf, []
    for block in _root_blocks(n, rank[np.asarray(roots, dtype=np.int64)]):
        frontier = np.zeros((n, (len(block) + 63) // 64), dtype=np.uint64)  # bit i on row block[i]
        i = np.arange(len(block))
        frontier[block, i >> 6] = np.left_shift(np.uint64(1), (i & 63).astype(np.uint64))
        seen = frontier.copy()
        ecc = np.zeros(len(block), dtype=np.int64)
        level = 0
        while True:
            once = np.zeros_like(frontier)
            if 2 * level + 1 < best:
                twice = np.zeros_like(frontier)
                for col in cols:
                    hit = frontier[col]
                    twice[:len(col)] |= once[:len(col)] & hit
                    once[:len(col)] |= hit
                if (once & frontier).any():
                    best = 2 * level + 1
                elif (twice & ~seen).any():
                    best = 2 * level + 2
                del twice
            else:
                for col in cols:
                    once[:len(col)] |= frontier[col]
            once &= ~seen
            reached = np.bitwise_or.reduce(once, axis=0)
            if not reached.any():
                break
            level += 1
            ecc[_bit_flags(reached, len(block))] = level
            frontier = once
            seen |= once
        complete = _bit_flags(np.bitwise_and.reduce(seen, axis=0), len(block))
        out.extend(int(e) if ok else math.inf for e, ok in zip(ecc.tolist(), complete.tolist()))
    return best, out


def _cayley_quotient(graph) -> tuple:
    """A built family graph as its own quotient: every class one vertex, and
    the neighbour matrix as the matrix of neighbour classes."""
    return np.ones(graph.n, dtype=np.int64), graph.indices.reshape(graph.n, graph.degree)


def girth(graph) -> float:
    """Length of a shortest cycle, math.inf for forests: from the identity
    alone for a vertex-transitive family graph (``quotient_invariants``), by
    bit-parallel BFS from all roots otherwise (``_root_walk``)."""
    if graph.family is not None:
        return quotient_invariants(*_cayley_quotient(graph))[0]
    return _root_walk(graph, np.arange(graph.n))[0]


def diameter(graph) -> float:
    """Diameter, math.inf when disconnected: the eccentricity of the identity
    for a vertex-transitive family graph (``quotient_invariants``), the
    largest from a bit-parallel BFS from all roots otherwise (``_root_walk``)."""
    if graph.family is not None:
        return quotient_invariants(*_cayley_quotient(graph))[1]
    return max(_root_walk(graph, np.arange(graph.n))[1], default=0)


def _level_walk(sizes: np.ndarray, level_hits) -> tuple:
    """(girth, diameter, components) of a Cayley graph by one frontier BFS
    from class 0, the identity alone, over classes of sizes[k] vertices, in
    which level_hits(L)[j] is sizes[j] times the neighbours in L of a vertex
    of class j.  At level k the Itai-Rodeh test reads the girth: an edge
    inside the level closes a walk of length 2k + 1, an unseen class with two
    level-k neighbours one of length 2k + 2.  By transitivity girth and
    diameter are exact, math.inf for no cycle or a disconnected graph.  The
    components are the cosets of the subgroup S generates, all the size of
    the one the BFS reaches."""
    dist = np.full(len(sizes), -1, dtype=np.int64)
    dist[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    best, k = math.inf, 0
    while True:
        hits = level_hits(frontier)
        if best == math.inf:
            unseen = dist < 0
            if hits[dist == k].any():
                best = 2 * k + 1
            elif (hits[unseen] >= 2 * sizes[unseen]).any():
                best = 2 * k + 2
        frontier = np.flatnonzero((hits > 0) & (dist < 0))
        if not frontier.size:
            break
        k += 1
        dist[frontier] = k
    n, reached = int(sizes.sum()), int(sizes[dist >= 0].sum())
    if n % reached:
        raise AssertionError("class sizes and quotient are not those of a Cayley graph")
    return best, k if reached == n else math.inf, n // reached


def quotient_invariants(sizes: np.ndarray, nbr: np.ndarray) -> tuple:
    """(girth, diameter, components) of a Cayley graph Cay(G, S) from a
    quotient (sizes, nbr): sizes[k] vertices in class k, the neighbours of
    each in the classes nbr[k], and class 0 the identity alone.  A built
    family graph is its own quotient (``_cayley_quotient``).

    The walk is ``_level_walk``, whose hits[j] count the entries class j has
    in the rows of the level, row k counting sizes[k] times: since
    sizes[k]*T[k, j] = sizes[j]*T[j, k] for T[k, j] neighbours in class j of
    a vertex of class k, hits[j] is sizes[j] times the level's neighbours of
    a vertex of class j.  A level's rows are gathered in chunks of at most
    ``_BFS_WORD_BUDGET`` entries (one row at least), and all of them are
    counted before the next level is marked, so memory stays O(c) plus one
    chunk for c classes.
    """
    c, d = nbr.shape
    step = max(1, _BFS_WORD_BUDGET // max(1, d))
    weighted = sizes.max() > 1

    def level_hits(frontier):
        hits = np.zeros(c, dtype=np.int64)
        for lo in range(0, frontier.size, step):
            rows = frontier[lo:lo + step]
            if weighted:
                np.add.at(hits, nbr[rows].ravel(), np.repeat(sizes[rows], d))
            else:
                hits += np.bincount(nbr[rows].ravel(), minlength=c)
        return hits
    return _level_walk(sizes, level_hits)


def xor_cayley_invariants(n: int, conn: np.ndarray) -> tuple:
    """(girth, diameter, components) of Cay(GF(2)^m, S), n = 2^m, from S
    alone: ``_level_walk`` on the trivial quotient, whose level counts
    #{v in L : v ^ x in S} are the XOR convolution WHT(WHT(1_L) * WHT(1_S)) / n
    (``spectral.walsh_hadamard``), two transforms and one product per level,
    in O(n) memory and int64 arithmetic, which is exact since the result,
    n times a count of at most |S|, fits even where a partial sum wraps."""
    character = walsh_hadamard(np.bincount(conn, minlength=n))

    def level_hits(frontier):
        return walsh_hadamard(walsh_hadamard(np.bincount(frontier, minlength=n)) * character) // n
    return _level_walk(np.ones(n, dtype=np.int64), level_hits)


def quotient_triangles(sizes: np.ndarray, nbr: np.ndarray) -> int:
    """Triangles of Cay(G, S) from a quotient of ``quotient_invariants``:
    O(|S|^2) on a built graph, one row on a distance-class quotient, read at
    the identity.  The classes in row 0 make up S, class j standing for
    sizes[j] elements of S, and row j lists the neighbour classes of a
    vertex of class j, which so has as many neighbours in S as row j has
    entries in row 0's classes.  The sum of sizes[j] times that counts the
    adjacent pairs (s, t) in S x S, twice the triangles at the identity; n
    times the sum counts every triangle six times."""
    conn = np.unique(nbr[0])
    total = int(sizes.sum()) * int(sizes[conn] @ np.isin(nbr[conn], conn).sum(axis=1))
    if total % 6:
        raise AssertionError("Cayley triangle total not divisible by 6")
    return total // 6


def eccentricity_uniformity_check(graph) -> bool:
    """Up to 8 evenly spaced vertices share one eccentricity (transitivity spot check)."""
    if graph.n == 0:
        return True
    roots = np.unique(np.linspace(0, graph.n - 1, num=min(8, graph.n)).astype(np.int64))
    return len(set(_root_walk(graph, roots)[1])) == 1


# 64-bit words of neighbour rows that one chunk of edges gathers per end.
_TRIANGLE_CHUNK_WORDS = 1 << 16


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
    step = max(1, _TRIANGLE_CHUNK_WORDS // max(1, words))
    for lo in range(0, len(eu), step):
        chunk_u = eu[lo:lo + step]
        chunk_v = ev[lo:lo + step]
        total += int(np.bitwise_count(rows[chunk_u] & rows[chunk_v]).sum())
    if total % 3:
        raise AssertionError("edge-wise common-neighbor total not divisible by 3")
    return total // 3


def triangle_count(graph) -> int:
    """Exact triangle count: through the identity for family (Cayley) graphs
    (``quotient_triangles``), by packed-bitset neighbor intersections
    (size-capped) for ad-hoc graphs."""
    if graph.family is not None:
        return quotient_triangles(*_cayley_quotient(graph))
    return _triangles_bitset(graph)


def connected_components(graph):
    """(count, labels, sizes); components numbered by smallest vertex.

    One BFS per component over the CSR lists, with one queue that takes
    every vertex once: a level reads the neighbour lists of its own vertices
    only, in chunks whose working arrays stay within ``_BFS_WORD_BUDGET``
    words (one list at least), so the search is O(n + m) and its memory
    beyond the graph O(n) plus one chunk.
    """
    n, indptr = graph.n, graph.indptr
    labels = np.full(n, -1, dtype=np.int64)
    slot = np.empty(n, dtype=np.int64)  # picks one copy of each vertex a chunk reaches
    queue = np.empty(n, dtype=np.int64)
    tail, sizes = 0, []
    for start in range(n):
        if labels[start] >= 0:
            continue
        label = len(sizes)
        labels[start] = label
        if indptr[start] == indptr[start + 1]:  # isolated: no search to start
            sizes.append(1)
            continue
        queue[tail] = start
        begin, head, tail = tail, tail, tail + 1
        while head < tail:
            head, level = tail, queue[head:tail]
            starts = indptr[level]
            counts = indptr[level + 1] - starts
            step = max(1, _BFS_WORD_BUDGET // (3 * int(counts.max())))  # 3 arrays of a chunk at once
            for lo in range(0, len(level), step):
                first, count = starts[lo:lo + step], counts[lo:lo + step]
                ends = np.cumsum(count)
                nbrs = graph.indices[np.arange(ends[-1]) + np.repeat(first - ends + count, count)]
                new = nbrs[labels[nbrs] < 0]
                order = np.arange(len(new))
                slot[new] = order
                new = new[slot[new] == order]
                labels[new] = label
                queue[tail:tail + len(new)] = new
                tail += len(new)
        sizes.append(tail - begin)
    return len(sizes), labels, sizes


def _neighbor_masks(graph) -> list:
    masks = [0] * graph.n
    for u in range(graph.n):
        m = 0
        for v in graph.neighbors(u):
            m |= 1 << int(v)
        masks[u] = m
    return masks


def _component_counts(graph) -> np.ndarray:
    """c(G[T]) for every vertex set T, indexed by its bitmask (bit v for
    vertex v), as uint8.  O(2^n) memory: four arrays of 2^n 32-bit words at
    once, with numpy's temporaries about 20 bytes per set at peak.

    The neighbourhood union nb[X] of every set X comes by doubling, as the
    cut table does: the sets holding vertex v are those below 2^v plus v, so
    nb[2^v:2^(v+1)] = nb[:2^v] | N(v).  Every set T then grows the
    component X of its lowest vertex, X |= nb[X] & T, all sets at once, until
    no X changes: one pass per BFS level, at most n.  T minus X is a smaller
    set, so c(T) is the length of the chain T, T - X, ... down to the empty
    set, walked for all sets at once, one step per component.
    """
    n = graph.n
    word = np.uint32 if n <= 32 else np.uint64
    nb = np.empty(1 << n, dtype=word)
    nb[0] = 0
    for v, mask in enumerate(_neighbor_masks(graph)):
        np.bitwise_or(nb[:1 << v], word(mask), out=nb[1 << v:2 << v])
    sets = np.arange(1 << n, dtype=word)
    grown = sets & -sets
    while True:
        comp, grown = grown, nb[grown]
        grown &= sets
        grown |= comp
        if np.array_equal(grown, comp):
            break
    del nb, comp
    rest = grown ^ sets  # T minus the component of its lowest vertex
    del grown, sets
    counts = np.ones(1 << n, dtype=np.uint8)
    counts[0] = 0
    step = rest
    while step.any():
        counts += step != 0
        step = rest[step]
    return counts


def exact_toughness(graph) -> ToughnessResult:
    """min |S| / c(G - S) over vertex sets S with c(G - S) >= 2.

    A disconnected graph gives 0 with the empty witness, and a connected
    graph on fewer than 3 vertices math.inf, both from one component search
    before any table.  Otherwise the components after removing every set
    come from one table of 2^n entries (``_component_counts``), and the set
    chosen is the full enumeration's first strict improvement over sets by
    increasing size, lexicographic within a size: the least ratio, then the
    least |S|, then the first S.  Ratios compare exactly as the integers
    |S| * (L / c), L = lcm(1..n), with one Fraction built at the end.
    Complete graphs have no disconnecting set; the result is the math.inf
    sentinel, not an error.
    """
    n = graph.n
    limits.check("TOUGHNESS_CAP", n, f"exact toughness on {n} vertices")
    whole = connected_components(graph)[0]
    if whole > 1:
        return ToughnessResult(Fraction(0), (), whole)
    if n < 3:
        return ToughnessResult(math.inf, None, None)
    # G - S is G[full ^ S], and full ^ S = full - S reverses the table; G is
    # connected, so c >= 2 exactly on the sets with 1 <= |S| <= n - 2 that cut it
    after = _component_counts(graph)[::-1]
    cuts = np.flatnonzero(after >= 2)
    if not len(cuts):
        return ToughnessResult(math.inf, None, None)
    share = np.zeros(n + 1, dtype=np.int64)
    share[2:] = math.lcm(*range(1, n + 1)) // np.arange(2, n + 1)
    sizes = np.bitwise_count(cuts)
    key = sizes * share[after[cuts]]
    tied = key == key.min()
    cuts, sizes = cuts[tied], sizes[tied]
    cuts = cuts[sizes == sizes.min()]
    # of two sets of one size, the first in lexicographic order holds the
    # least vertex where they differ: the larger mask with its bits reversed
    flipped = sum(((cuts >> v) & 1) << (n - 1 - v) for v in range(n))
    best = int(cuts[flipped.argmax()])
    witness = tuple(v for v in range(n) if best >> v & 1)
    comps = int(after[best])
    return ToughnessResult(Fraction(len(witness), comps), witness, comps)


def exact_independence(graph) -> IndependenceResult:
    """Maximum independent set by branch and bound over vertex bitmasks.

    Branches on the highest-degree vertex of the open set (lowest index on
    ties), include branch first.  A node is pruned when a bound on alpha of
    its open set fits the room left, best minus the node's size:

    - on a graph with triangles, the number of cliques of a greedy clique
      cover (``_cover_exceeds``);
    - on a triangle-free graph (no edge's ends share a neighbour, read from
      the search's own masks), |open| minus a matching: the greedy one in
      vertex order, which pairs what the greedy cover pairs, grown by
      augmenting paths only until the prune is decided
      (``_matching_exceeds``).  D_7(1) takes 246 nodes where the cover took
      414, BCH_3 386 where it took 1,222.

    Graphs past limits.INDEPENDENCE_CAP are refused.  If the search visits
    more than limits.NODE_BUDGET nodes (read when the search starts) the best
    set found so far comes back flagged ``exact=False`` rather than raising.

    A valid bound prunes only subtrees that hold no set larger than the best
    one so far, so at every node visited the best set is the one the full
    depth-first order has found by then, whatever the bound: every bound
    finds the same first maximum set, and the size and witness are those of
    the plain dict-and-mask form with the greedy cover that the tests keep
    as the oracle.  The matching is never smaller than the greedy one, so a
    triangle-free search visits a subset of the oracle's nodes, in the same
    order: under any node budget ``exact`` and the size can only rise and
    the node count only fall.  A node does less work than that form:

    - the pick reads no neighbour list: every vertex's open degree sits in a
      fixed-width lane of one int, and a node that branches subtracts the
      precomputed lanes of just the vertices its parent's step closed, so
      the pick is one argmax over the lanes;
    - sets number vertices from the top bit, so the bounds read the lowest
      vertex of a set by ``bit_length`` and build no int to find it, and
      stop as soon as their answer is sure;
    - the search runs from an explicit stack, exclude child pushed under the
      include child, so its depth is not bounded by Python's recursion limit.

    On a family graph (``graph.family`` not None, a Cayley graph, so vertex
    transitive) the search takes only the include branch of the root's pick.
    Some maximum independent set holds any given vertex, so the exclude
    branch could never raise the best size; the witness, the first maximum
    set in depth-first order, lies in the include branch and stays the same;
    and the nodes visited first are the same, so under any node budget
    ``exact`` can only turn true and the node count only fall.

    A graph keeps its result per node budget: a later call on the same graph
    under the same limits.NODE_BUDGET returns the stored result, after the
    same cap check, without searching again.
    """
    n = graph.n
    limits.check("INDEPENDENCE_CAP", n, f"exact independence on {n} vertices")
    budget = limits.NODE_BUDGET
    stored = graph._independence.get(budget)
    if stored is None:
        stored = graph._independence[budget] = _search_independence(graph, budget)
    return stored


def _lane_bytes(n: int) -> int:
    """Bytes per lane of the pick's lane int: the least of 1, 2, 4, 8, ...
    that holds every lane value, all below 2n."""
    width = 1
    while 2 * n > 1 << (8 * width):
        width *= 2
    return width


def _triangle_free(masks: list) -> bool:
    """Whether no edge's two ends share a neighbour, read from the masks."""
    for v, mask in enumerate(masks):
        higher = mask >> (v + 1) << (v + 1)  # each edge once, from its lower end
        while higher:
            low = higher & -higher
            higher ^= low
            if masks[low.bit_length() - 1] & mask:
                return False
    return True


# The independence search numbers vertices from the top bit: the vertex at
# bit p of a set is vertex n - 1 - p, so the lowest-numbered vertex of a set is
# its top bit, read by bit_length without building a new int.  masks[p] and
# bits[p] are the neighbours and the bit of the vertex at bit p.


def _cover_exceeds(open_set: int, room: int, masks: list, bits: list) -> bool:
    """Whether a greedy clique cover of ``open_set`` takes more than ``room``
    cliques.  Each clique starts at the lowest uncovered vertex and takes, in
    vertex order, every uncovered vertex adjacent to all it holds.  Decided
    as soon as the vertices left fit the room one by one, or the room runs
    out with vertices left."""
    r = open_set.bit_count()
    while r > room:
        if not room:
            return True
        room -= 1
        p = open_set.bit_length() - 1
        open_set ^= bits[p]
        r -= 1
        cand = open_set & masks[p]
        while cand:
            p = cand.bit_length() - 1
            open_set ^= bits[p]
            r -= 1
            cand &= masks[p]
    return False


def _matching_exceeds(open_set: int, room: int, masks: list, bits: list, mate: list) -> bool:
    """Whether |open| - |M| exceeds ``room`` for a matching M of the open set
    grown only as far as the answer needs.  Each pair of M holds at most one
    vertex of an independent set, so a False answer proves alpha(G[open]) <=
    room on any graph.  ``mate`` is scratch space, one entry per bit.

    M starts as the greedy matching in vertex order (the lowest unmatched
    vertex takes its lowest unmatched neighbour), which on a triangle-free
    graph pairs what ``_cover_exceeds`` pairs, so this never branches where
    the greedy cover prunes.  It then grows by augmenting paths from the free
    vertices in vertex order, one alternating BFS per root; the BFS does not
    shrink blossoms, so it may miss a path through an odd cycle, which only
    weakens the bound.  The answer is False once M reaches need = |open| -
    room pairs, and True once the vertices M could still cover cannot supply
    the pairs missing."""
    r = open_set.bit_count()
    need = r - room
    if need <= 0:
        return False
    if 2 * need > r:
        return True
    spare = r - 2 * need  # open vertices that need pairs may leave uncovered
    free = lone = pairs = 0
    rem = open_set
    while rem:
        v = rem.bit_length() - 1
        rem ^= bits[v]
        cand = rem & masks[v]
        if cand:
            u = cand.bit_length() - 1
            rem ^= bits[u]
            mate[u] = v
            mate[v] = u
            pairs += 1
            if pairs >= need:
                return False
        elif open_set & masks[v]:
            free |= bits[v]
        else:
            # no open neighbour, so no matching covers it
            lone |= bits[v]
            spare -= 1
            if spare < 0:
                return True
    # M is maximal: a free vertex has only matched open neighbours, and each
    # augmenting path covers its root and one more free vertex
    matched = open_set ^ free ^ lone
    roots = free
    while roots:
        start = roots.bit_length() - 1
        root = bits[start]
        roots ^= root
        if not free & root:
            continue  # covered as the far end of an earlier path
        if 2 * (need - pairs) > free.bit_count():
            return True
        free ^= root
        # x an outer vertex, y an unseen matched neighbour, mate[y] the next
        # outer vertex (already out of unseen if x, y and mate[y] form a
        # triangle); a free neighbour of x ends the path
        unseen = matched | free
        pred = {}
        queue = [start]
        for x in queue:
            step = masks[x] & unseen
            ends = step & free
            if ends:
                break
            unseen ^= step
            while step:
                y = step.bit_length() - 1
                step ^= bits[y]
                pred[y] = x
                y = mate[y]
                queue.append(y)
                unseen &= ~bits[y]
        else:
            continue  # no path found: the root stays free
        y = ends.bit_length() - 1
        free ^= bits[y]
        matched |= root | bits[y]
        # flip the path: the end, x, mate[x], pred[mate[x]], ... the root
        while x != start:
            old = mate[x]
            mate[x] = y
            mate[y] = x
            y = old
            x = pred[y]
        mate[x] = y
        mate[y] = x
        pairs += 1
        if pairs >= need:
            return False
    return True


def _search_independence(graph, budget: int) -> IndependenceResult:
    """The branch and bound of ``exact_independence``, under ``budget`` nodes."""
    n = graph.n
    top = n - 1
    transitive = graph.family is not None
    bits = [1 << p for p in range(n)]
    masks = [0] * n
    for v in range(n):
        masks[top - v] = sum(bits[top - int(u)] for u in graph.neighbors(v))
    # on a triangle-free graph the greedy clique cover is a greedy matching,
    # which augmenting paths can only grow
    mate = [0] * n if _triangle_free(masks) else None
    # vertex v adds n to its own lane and 1 to each neighbour's, so a node's
    # lane int, the sum over its open set, holds n + open degree in an open
    # vertex's lane and the open degree alone, below n, in a closed one's
    width = _lane_bytes(n)
    lane = np.dtype(f"<u{width}")  # little-endian, as int.to_bytes writes
    rows = np.zeros((n, n), dtype=lane)
    rows[np.repeat(np.arange(n), np.diff(graph.indptr)), graph.indices] = 1
    rows[np.arange(n), np.arange(n)] = n
    contrib = [int.from_bytes(row.tobytes(), "little") for row in rows[::-1]]  # by bit
    del rows
    best = best_set = nodes = 0
    exceeded = False

    # a node on the stack: its open set, size and chosen set, its parent's
    # lane int and the vertices the step from the parent closed, whose
    # contributions come off only if the node branches
    stack = [((1 << n) - 1, 0, 0, sum(contrib), 0)]
    while stack:
        open_set, size, chosen, lanes, closed = stack.pop()
        nodes += 1
        if nodes > budget:
            exceeded = True
            break
        # every prefix of the include chain is independent, so record it even
        # when the budget cuts the search off before a leaf
        if size > best:
            best, best_set = size, chosen
        if not open_set:
            continue
        if mate is None:
            if not _cover_exceeds(open_set, best - size, masks, bits):
                continue
        elif not _matching_exceeds(open_set, best - size, masks, bits, mate):
            continue
        while closed:
            p = closed.bit_length() - 1
            closed ^= bits[p]
            lanes -= contrib[p]
        # the first largest lane: highest open degree, lowest index on ties;
        # pick is that vertex's bit
        pick = top - int(np.frombuffer(lanes.to_bytes(n * width, "little"), dtype=lane).argmax())
        bit = bits[pick]
        if chosen or not transitive:
            # only the root has chosen == 0 on a family graph: some maximum
            # set holds its pick, so the exclude branch cannot raise best
            stack.append((open_set ^ bit, size, chosen, lanes, bit))
        shut = open_set & (masks[pick] | bit)
        stack.append((open_set ^ shut, size + 1, chosen | bit, lanes, shut))

    witness = tuple(v for v in range(n) if best_set >> (top - v) & 1)
    for v in witness:
        if masks[top - v] & best_set:
            raise AssertionError("branch and bound returned a non-independent set")
    return IndependenceResult(best, witness, not exceeded, nodes)


def exact_max_cut_and_bisection(graph):
    """(max cut size, min balanced-bisection size) over all 2^(n-1)
    two-colorings with vertex n-1 pinned to side 0.

    The table of cut values is built vertex by vertex: vertex v doubles the
    table over the colorings of 0..v-1, bit u of an index being u's side.
    If ``across`` counts v's lower neighbours on side 1, v adds ``across``
    on side 0 and its lower degree minus ``across`` on side 1, so the new
    table is the old one plus each, concatenated.  O(2^n) word operations in
    all; the pinned vertex only adds ``across``.
    """
    n = graph.n
    limits.check("CUT_CAP", n, f"exact cut enumeration on {n} vertices")
    if n < 2:
        raise BadParameter("cuts need at least 2 vertices")
    masks = _neighbor_masks(graph)
    # the indices have n - 1 bits, so 32-bit words hold them up to n = 33
    index = np.uint32 if n - 1 <= 32 else np.uint64
    assigns = np.arange(1 << (n - 1), dtype=index)
    cut = np.zeros(1, dtype=np.int32)
    for v in range(n):
        lower = masks[v] & ((1 << v) - 1)
        across = np.bitwise_count(assigns[:len(cut)] & index(lower))
        if v == n - 1:
            cut += across
        else:
            cut = np.concatenate((cut + across, cut + (lower.bit_count() - across)))
    max_cut = int(cut.max())
    side1 = np.bitwise_count(assigns)
    balanced = (side1 == n // 2) | (side1 == n - n // 2)
    bisection = int(cut[balanced].min())
    return max_cut, bisection


def metrics_report(graph) -> MetricsReport:
    """Exact metrics; an ad-hoc graph takes one ``_root_walk`` from all
    roots, a family graph one walk of ``quotient_invariants`` and one
    ``quotient_triangles`` over its own quotient."""
    if graph.family is None:
        shortest, ecc = _root_walk(graph, np.arange(graph.n))
        walk = shortest, max(ecc, default=0), connected_components(graph)[0]
        triangles = triangle_count(graph)
    else:
        quotient = _cayley_quotient(graph)
        walk, triangles = quotient_invariants(*quotient), quotient_triangles(*quotient)
    return MetricsReport(
        n=graph.n, degree=graph.degree, girth=walk[0], diameter=walk[1], triangles=triangles,
        components=walk[2], is_vertex_transitive_assumed=graph.family is not None,
    )
