"""Independent numpy oracles for the adhoc workload.

They work from the generated edge list, never from the package's Graph, and
share no code with the routes they check:

* triangles      trace(A^3) / 6
* distances      boolean powers of A applied to indicator rows of the roots
* girth          3 from the triangle count, 4 from (A^2)_uv >= 2, else the
                 shortest u-v path with edge uv removed
* alpha          brute force over all subsets (n <= 20)
* max cut        x^T A (1 - x) over all 2^n sides, bisection over balanced x
* toughness      label propagation over all 2^n removed sets at once

Circulants are vertex-transitive by construction, so their distance-based
oracles use the single root 0; every other graph uses all roots.
"""
import math
from fractions import Fraction

import numpy as np


def adjacency(n, edges) -> np.ndarray:
    a = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        a[u, v] = a[v, u] = True
    return a


def triangles(a: np.ndarray) -> int:
    f = a.astype(np.float64)
    return int(round(float(((f @ f) * f).sum()))) // 6


def distances(a: np.ndarray, roots) -> np.ndarray:
    """Hop distances (-1 when unreachable) from each root, one row per root."""
    roots = np.asarray(roots, dtype=np.int64)
    f = a.astype(np.float32)
    reach = np.zeros((len(roots), len(a)), dtype=bool)
    reach[np.arange(len(roots)), roots] = True
    dist = np.where(reach, 0, -1)
    k = 0
    while True:
        k += 1
        new = ((reach.astype(np.float32) @ f) > 0) & ~reach
        if not new.any():
            return dist
        dist[new] = k
        reach |= new


def _roots(n, transitive):
    return [0] if transitive else list(range(n))


def diameter(a, transitive=False):
    dist = distances(a, _roots(len(a), transitive))
    return math.inf if (dist < 0).any() else int(dist.max())


def components(a, transitive=False) -> int:
    n = len(a)
    if transitive:
        return n // int((distances(a, [0])[0] >= 0).sum())
    reach = distances(a, range(n)) >= 0
    return len({row.tobytes() for row in reach})


def girth(a, transitive=False):
    if triangles(a):
        return 3
    roots = _roots(len(a), transitive)
    f = a.astype(np.float64)
    common = f[roots] @ f
    common[np.arange(len(roots)), roots] = 0
    if (common >= 2).any():
        return 4
    best = math.inf
    for u in roots:
        for v in np.flatnonzero(a[u]):
            if not transitive and v < u:
                continue
            cut = a.copy()
            cut[u, v] = cut[v, u] = False
            d = distances(cut, [u])[0, v]
            if d >= 0:
                best = min(best, int(d) + 1)
    return best


def regular_degree(a):
    deg = a.sum(axis=1)
    return int(deg[0]) if len(deg) and deg.min() == deg.max() else None


def is_independent(a, witness) -> bool:
    w = list(witness)
    return len(set(w)) == len(w) and not a[np.ix_(w, w)].any()


def _subset_bits(n, lo, hi) -> np.ndarray:
    masks = np.arange(lo, hi, dtype=np.int64)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(bool)


def _chunks(n, size=1 << 15):
    total = 1 << n
    for lo in range(0, total, size):
        yield lo, min(total, lo + size)


def alpha_bruteforce(a) -> int:
    n = len(a)
    if n > 20:
        raise ValueError("brute-force alpha is for n <= 20")
    best = 0
    for lo, hi in _chunks(n):
        bits = _subset_bits(n, lo, hi).astype(np.float32)
        inside = ((bits @ a.astype(np.float32)) * bits).sum(axis=1)
        sizes = bits.sum(axis=1)
        ok = sizes[inside == 0]
        if ok.size:
            best = max(best, int(ok.max()))
    return best


def max_cut_and_bisection(a):
    n = len(a)
    f = a.astype(np.float32)
    best_cut, best_bis = 0, math.inf
    for lo, hi in _chunks(n):
        x = _subset_bits(n, lo, hi).astype(np.float32)
        cut = ((x @ f) * (1.0 - x)).sum(axis=1)
        best_cut = max(best_cut, int(cut.max()))
        side = x.sum(axis=1)
        balanced = (side == n // 2) | (side == n - n // 2)
        if balanced.any():
            best_bis = min(best_bis, int(cut[balanced].min()))
    return best_cut, best_bis


def toughness(a):
    """min |S| / c(G - S) over S with c(G - S) >= 2; math.inf if no such S."""
    n = len(a)
    nbrs = [np.flatnonzero(a[v]) for v in range(n)]
    best = None
    for lo, hi in _chunks(n):
        removed = _subset_bits(n, lo, hi)
        big = n + 1
        labels = np.where(removed, big, np.arange(n))
        while True:
            new = labels.copy()
            for v in range(n):
                if len(nbrs[v]):
                    new[:, v] = np.minimum(new[:, v], labels[:, nbrs[v]].min(axis=1))
            new[removed] = big
            if (new == labels).all():
                break
            labels = new
        comps = (labels == np.arange(n)).sum(axis=1)
        sizes = removed.sum(axis=1)
        split = comps >= 2
        for size, c in set(zip(sizes[split].tolist(), comps[split].tolist())):
            value = Fraction(size, c)
            if best is None or value < best:
                best = value
    return math.inf if best is None else best
