"""Adjacency spectra and the spectral bounds derived from them.

Eigenvalues come by four routes:

  * affine irreps   half-plane graphs are Cayley graphs on Aff(1, q); the
                    q - 1 linear characters and the one (q - 1)-dimensional
                    irrep give two (q - 1) x (q - 1) eigenproblems
  * character sums  the abelian Cayley families live on (Z_p)^m: p = q for
                    D_q^m(a), p = 2 for the code graphs.  One DFT of the
                    connection-set indicator gives every eigenvalue: for the
                    code graphs an integer Walsh-Hadamard transform, so exact
                    integers, and an FFT of floats for D_q^m(a).  An ad-hoc
                    circulant, Cay(Z_n, S), takes the FFT too
  * least only      ``least_eigenvalue``, behind the ratio bound of an ad-hoc
                    graph (the only number of its spectrum a certificate
                    reads): the least character sum of a circulant, else the
                    dense route's least eigenvalue, each less a margin of
                    1e-10 relative
  * dense           symmetric diagonalization of the n x n adjacency matrix;
                    used for ``spectrum --method dense``, as the test oracle
                    and for an ad-hoc graph that is not a circulant

The two group routes read only a connection set, so they need no built
graph.  Tests cross-check them against the dense one, and
``least_eigenvalue`` against closed forms.  The dense route holds an n x n
matrix and is capped at limits.DENSE_SPECTRUM_CAP vertices; a circulant is
not.

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
from .errors import (
    BadParameter,
    NoConvergence,
    UnsupportedFamily,
    ZeroVector,
)


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


def _character_spectrum(shape, conn: np.ndarray) -> np.ndarray:
    """Spectrum of the Cayley graph Cay(Z_p1 x ... x Z_pm, S), with
    ``shape`` = (p1, ..., pm): the DFT of the indicator of S.

    The families live on (Z_p)^m, shape (p,) * m, and their codecs number x
    as sum x_i * p^i, so the indicator reshapes to that shape; a circulant
    lives on Z_n, shape (n,).  S = -S makes the transform real.

    On GF(2)^m (the code graphs, every axis of length 2) the characters are
    +-1 and the DFT is the Walsh-Hadamard transform of the indicator (Fino &
    Algazi, IEEE Trans. Computers, 1976): m in-place integer passes, each the
    butterfly (a, b) -> (a + b, a - b), one subtract and one add over a
    (-1, 2, h) view.  The eigenvalues are exact integers, returned as
    float64.  Other shapes (D_q^m(a), circulants on Z_n, n > 2) take the
    FFT.
    """
    n = math.prod(shape)
    if set(shape) == {2}:
        spectrum = np.zeros(n, dtype=np.int64)
        spectrum[conn] = 1
        h = 1
        while h < n:
            pairs = spectrum.reshape(-1, 2, h)
            low, high = pairs[:, 0], pairs[:, 1]
            difference = low - high
            low += high
            high[...] = difference
            h *= 2
        return spectrum.astype(np.float64)
    indicator = np.zeros(n)
    indicator[conn] = 1.0
    return np.fft.fftn(indicator.reshape(shape)).real.ravel()


def _character_spectrum_affine(family, conn: np.ndarray) -> np.ndarray:
    """Spectrum of Cay(Aff(1, q), S) from the irreps of Aff(1, q).

    With S decoded as (t, v) by the half-plane codec, M_j[c, c*v] sums
    exp(2 pi i j c t / q) over S for c in F_q*.  M_0 carries the q - 1 linear
    characters (multiplicity 1 each); M_1 is the (q - 1)-dimensional irrep,
    whose eigenvalues each occur q - 1 times: (q - 1) + (q - 1)^2 = n.
    """
    q = family.q
    t, v = np.divmod(conn, q - 1)
    c = np.arange(1, q, dtype=np.int64)[:, None]
    rows = np.broadcast_to(c - 1, (q - 1, len(t)))
    cols = (c * (v + 1)) % q - 1
    m0 = np.zeros((q - 1, q - 1))
    np.add.at(m0, (rows, cols), 1.0)
    m1 = np.zeros((q - 1, q - 1), dtype=np.complex128)
    np.add.at(m1, (rows, cols), np.exp(2j * np.pi * ((c * t) % q) / q))
    try:
        linear, irrep = np.linalg.eigvalsh(m0), np.linalg.eigvalsh(m1)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"irrep eigensolver failed: {exc}") from exc
    return np.concatenate([linear, np.tile(irrep, q - 1)])


def cayley_spectrum_abelian(family, conn: np.ndarray) -> SpectralSummary:
    """Eigenvalues of a Cayley family graph from its group's irreps, read from
    the family (a FamilySpec) and its sorted connection set
    (``graphs.connection_set``, the neighbours of vertex 0); no graph is
    needed.

    Covers all four Cayley families.  The Euclidean and code families live on
    abelian groups (Z_p)^m, whose characters give the eigenvalues as one DFT:
    exact integers for the code graphs, floats for D_q^m(a).  Half-plane
    graphs use the Aff(1, q) irreps.  Ad-hoc graphs (family None) are
    rejected.
    """
    if family is None:
        raise UnsupportedFamily("group spectra need a known family")
    if family.kind == "noneuclidean":
        eig, method = _character_spectrum_affine(family, conn), "affine-irreps"
    else:
        p, m = (family.q, family.m) if family.kind == "euclidean" else (2, family.n.bit_length() - 1)
        eig, method = _character_spectrum((p,) * m, conn), "character-sum"
    eig = np.sort(eig)[::-1]
    return SpectralSummary(n=family.n, d=len(conn), eigenvalues=eig, method=method)


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


def rayleigh_quotient(graph, x) -> float:
    """Laplacian Rayleigh quotient of x projected against the constant vector.

    For a connected regular graph the value lies in [theta_2, theta_n].
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (graph.n,):
        raise BadParameter(f"vector length {x.shape} does not match n={graph.n}")
    y = x - x.mean()
    norm = float(np.linalg.norm(y))
    if norm < 1e-9 * max(1.0, float(np.linalg.norm(x))):
        raise ZeroVector("projection against the constant vector is numerically zero")
    us, vs = graph.edge_arrays()
    energy = float(((y[us] - y[vs]) ** 2).sum())
    return energy / (norm * norm)


def chromatic_lower_bound(n: int, alpha_upper: float) -> float:
    if alpha_upper <= 0:
        raise BadParameter("alpha upper bound must be positive")
    return n / alpha_upper


def ramanujan_check(summary: SpectralSummary, q: int) -> bool:
    """lam <= 2*sqrt(q) up to a float slack of 1e-6."""
    return summary.lam <= 2.0 * math.sqrt(q) + 1e-6
