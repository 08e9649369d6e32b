"""Adjacency spectra and the spectral bounds derived from them.

Eigenvalues come by four routes:

  * class quotient  a half-plane graph, a Cayley graph on Aff(1, q): one
                    real eigensolve of its q x q distance-class quotient
  * character sums  the abelian Cayley families on (Z_p)^m, p = q for
                    D_q^m(a) and p = 2 for the code graphs, and ad-hoc
                    circulants on Z_n: one DFT of the connection-set
                    indicator, an integer Walsh-Hadamard transform when
                    p = 2, else an FFT
  * least only      ``least_eigenvalue``, the one number of an ad-hoc
                    graph's spectrum its ratio bound reads: a circulant's
                    least character sum, else the dense route's, less a
                    margin of 1e-10 relative
  * dense           symmetric diagonalization of the n x n adjacency
                    matrix, capped at limits.DENSE_SPECTRUM_CAP vertices:
                    the test oracle of the other routes, and the route of
                    an ad-hoc graph that is not a circulant

Bound conventions, for a d-regular graph on n vertices with adjacency
eigenvalues d = lambda_1 >= ... >= lambda_n and Laplacian eigenvalues
theta_i = d - lambda_{n+1-i}:

  * toughness      t(G) > (1/3) * (d^2 / (lam*d + lam^2) - 1),
                   lam = max_{i>=2} |lambda_i|
  * independence   alpha(G) <= n * (theta_n - d) / theta_n  (trivial bound n
                   when the denominator route is vacuous, theta_n <= d)
  * bisection      bisection width >= n * theta_2 / 4
  * max bipartite subgraph size <= n * theta_n / 4
  * chromatic      chi(G) >= n / alpha_ub
"""
import math
from dataclasses import dataclass

import numpy as np

from . import limits
from .errors import BadParameter, NoConvergence, UnsupportedFamily


@dataclass(frozen=True)
class SpectralSummary:
    n: int
    d: int
    eigenvalues: np.ndarray  # descending
    method: str

    @property
    def lam(self) -> float:
        """Largest nontrivial eigenvalue modulus, max_{i >= 2} |lambda_i|."""
        return float(np.abs(self.eigenvalues[1:]).max())

    @property
    def theta2(self) -> float:
        return float(self.d - self.eigenvalues[1])

    @property
    def theta_n(self) -> float:
        return float(self.d - self.eigenvalues[-1])


def _require_regular(graph) -> int:
    if graph.degree is None:
        raise BadParameter("spectral summaries need a regular graph")
    return graph.degree


def dense_spectrum(graph) -> SpectralSummary:
    """Full spectrum via symmetric dense diagonalization."""
    d = _require_regular(graph)
    n = graph.n
    limits.check("DENSE_SPECTRUM_CAP", n, f"dense spectrum on {n} vertices")
    adj = np.zeros((n, n), dtype=np.float64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    adj[rows, graph.indices] = 1.0
    try:
        eig = np.linalg.eigvalsh(adj)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"dense eigensolver failed: {exc}") from exc
    return SpectralSummary(n=n, d=d, eigenvalues=eig[::-1].copy(), method="dense")


# least_eigenvalue returns theta - _SHIFT * max(1, |theta|) for lambda_min
# computed as theta: a margin above the rounding error of an n-point FFT or
# of a dense symmetric eigensolve (about n * eps * ||A||, 1e-11 at n = 2500,
# d = 16), and a bound that moves by about 1e-10 relative.
_SHIFT = 1e-10


def _circulant_connection_set(graph):
    """S = neighbours(0) if the regular graph is the circulant Cay(Z_n, S),
    whose vertex v has the neighbours (S + v) mod n, else None.

    A CSR row holds d distinct vertices, so it is (S + v) mod n exactly when
    every (u - v) mod n, u a neighbour of v, lies in S: one O(n*d) lookup."""
    n, d = graph.n, graph.degree
    conn = graph.neighbors(0)
    member = np.zeros(n, dtype=bool)
    member[conn] = True
    offsets = (graph.indices.reshape(n, d) - np.arange(n)[:, None]) % n
    return conn if member[offsets].all() else None


def _below(theta: float) -> float:
    """theta - _SHIFT * max(1, |theta|), the bound returned for a computed
    lambda_min theta."""
    return theta - _SHIFT * max(1.0, abs(theta))


def least_eigenvalue(graph) -> float:
    """A lower bound on the least adjacency eigenvalue of a regular graph,
    within about 1e-10 relative of it.

    A circulant Cay(Z_n, S) reads lambda_min as the least character sum, one
    n-point DFT of the indicator of S, with no n x n array and no cap; any
    other graph reads it from the dense spectrum, capped by
    limits.DENSE_SPECTRUM_CAP.  Either value theta is returned as
    theta - 1e-10 * max(1, |theta|), a margin far above the rounding of
    both routes.
    """
    _require_regular(graph)
    conn = _circulant_connection_set(graph)
    if conn is not None:
        return _below(float(_character_spectrum((graph.n,), conn).min()))
    return _below(float(dense_spectrum(graph).eigenvalues[-1]))


def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """The Walsh-Hadamard transform of an int64 array of length 2^m, the DFT
    on GF(2)^m (Fino & Algazi, IEEE Trans. Computers, 1976): m
    constant-geometry passes (Pease, J. ACM, 1968), each the butterfly
    (a, b) -> (a + b, a - b) from (x[2i], x[2i + 1]) to entries i and n/2 + i
    of a second buffer, every read and write 1-D of stride at most 2.
    ``values`` is overwritten; applied twice the transform multiplies by 2^m."""
    half, out = len(values) // 2, np.empty_like(values)
    for _ in range(len(values).bit_length() - 1):
        even, odd = values[0::2], values[1::2]
        np.add(even, odd, out=out[:half])
        np.subtract(even, odd, out=out[half:])
        values, out = out, values
    return values


def _character_spectrum(shape, conn: np.ndarray) -> np.ndarray:
    """Spectrum of the Cayley graph Cay(Z_p1 x ... x Z_pm, S), with
    ``shape`` = (p1, ..., pm): the DFT of the indicator of S.

    The families live on (Z_p)^m, shape (p,) * m, and their codecs number x
    as sum x_i * p^i, so the indicator reshapes to that shape; a circulant
    lives on Z_n, shape (n,).  S = -S makes the transform real.

    On GF(2)^m (the code graphs, every axis of length 2) the characters are
    +-1 and the DFT is the Walsh-Hadamard transform of the indicator
    (``walsh_hadamard``): the eigenvalues are exact integers, returned as
    float64.  Other shapes (D_q^m(a), circulants on Z_n, n > 2) take the
    FFT.
    """
    n = math.prod(shape)
    if set(shape) == {2}:
        return walsh_hadamard(np.bincount(conn, minlength=n)).astype(np.float64)
    indicator = np.zeros(n)
    indicator[conn] = 1.0
    return np.fft.fftn(indicator.reshape(shape)).real.ravel()


def cayley_spectrum_abelian(family, conn: np.ndarray) -> SpectralSummary:
    """Eigenvalues of a Euclidean or code family graph from the characters
    of its group (Z_p)^m, one DFT of the indicator of its sorted connection
    set (``graphs.connection_set``): exact integers for the code graphs,
    floats for D_q^m(a).  Half-plane graphs, on the non-abelian Aff(1, q),
    take ``quotient_spectrum``; they and ad-hoc graphs are rejected."""
    if family is None or family.kind == "noneuclidean":
        raise UnsupportedFamily("character spectra need a Euclidean or code family")
    p, m = (family.q, family.m) if family.kind == "euclidean" else (2, family.n.bit_length() - 1)
    eig = np.sort(_character_spectrum((p,) * m, conn))[::-1]
    return SpectralSummary(n=family.n, d=len(conn), eigenvalues=eig, method="character-sum")


# Quotient eigenvalues within _TIE * max(1, d) are one eigenvalue: over 5,667
# half-plane quotients (q <= 211) ties lay within 4e-14, distinct eigenvalues
# 4.5e-7 or more apart (V_67(2, 66)), and weights missed integers by <= 1.7e-6.
_TIE = 1e-11
_WEIGHT_SLACK = 1e-3


def quotient_spectrum(sizes: np.ndarray, nbr: np.ndarray) -> SpectralSummary:
    """Spectrum of a vertex-transitive graph from an equitable partition with
    vertex 0 alone in class 0, such as a half-plane graph's distance classes,
    the class quotient of a Gelfand pair (Terras, Fourier Analysis on Finite
    Groups and Applications, ch. 19-20).  sizes[k] counts class k, and row k
    of nbr (``graphs.distance_quotient``) holds the classes of the
    neighbours of one vertex of class k, B[k, j] of them in class j.

    sizes[k] * B[k, j] = sizes[j] * B[j, k] is checked (BadParameter).  The
    symmetric D^1/2 B D^-1/2, D = diag(sizes), has the distinct eigenvalues
    of the graph, and n * sum u[0]^2 over the unit eigenvectors u of one is
    its multiplicity (Bannai & Ito, Algebraic Combinatorics I, ch. 2):
    NoConvergence unless these are positive integers within _WEIGHT_SLACK
    that sum to n."""
    c, d = nbr.shape
    n = int(sizes.sum())
    b = np.bincount(np.arange(c).repeat(d) * c + nbr.ravel(), minlength=c * c).reshape(c, c)
    edges = sizes[:, None] * b
    if not np.array_equal(edges, edges.T):
        raise BadParameter("class quotient is not equitable: sizes[k]*B[k, j] != sizes[j]*B[j, k]")
    root = np.sqrt(sizes.astype(np.float64))
    try:
        eig, vec = np.linalg.eigh(b * root[:, None] / root)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"quotient eigensolver failed: {exc}") from exc
    starts = np.flatnonzero(np.diff(eig, prepend=-np.inf) > _TIE * max(1, d))
    weights = np.add.reduceat(n * vec[0] ** 2, starts)
    mult = np.rint(weights).astype(np.int64)
    if (np.abs(weights - mult) > _WEIGHT_SLACK).any() or (mult < 1).any() or mult.sum() != n:
        raise NoConvergence(f"quotient multiplicities {weights.tolist()} are not integers >= 1 summing to {n}")
    eig = np.repeat(eig[starts], mult)[::-1].copy()
    return SpectralSummary(n=n, d=d, eigenvalues=eig, method="class-quotient")


def alon_toughness_bound(d: float, lam: float) -> float:
    """Lower bound (1/3) * (d^2 / (lam*d + lam^2) - 1) on toughness."""
    if lam <= 0:
        raise BadParameter("the toughness bound needs lam > 0")
    return (d * d / (lam * d + lam * lam) - 1.0) / 3.0


def ratio_independence_bound(n: int, d: float, theta_n: float) -> float:
    """Hoffman-type bound n * (theta_n - d) / theta_n; trivial n if vacuous."""
    if theta_n <= d or theta_n <= 0:
        return float(n)
    return n * (theta_n - d) / theta_n


def bisection_and_bip_bounds(n: int, theta2: float, theta_n: float):
    """(bisection width lower bound, bipartite subgraph upper bound)."""
    return n * theta2 / 4.0, n * theta_n / 4.0


def chromatic_lower_bound(n: int, alpha_upper: float) -> float:
    if alpha_upper <= 0:
        raise BadParameter("alpha upper bound must be positive")
    return n / alpha_upper


def ramanujan_check(summary: SpectralSummary, q: int) -> bool:
    """lam <= 2*sqrt(q) up to a float slack of 1e-6."""
    return summary.lam <= 2.0 * math.sqrt(q) + 1e-6
