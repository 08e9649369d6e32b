"""Adjacency spectra and the spectral bounds derived from them.

Eigenvalues come by four routes:

  * affine irreps   half-plane graphs are Cayley graphs on Aff(1, q); the
                    q - 1 linear characters and the one (q - 1)-dimensional
                    irrep give two (q - 1) x (q - 1) eigenproblems
  * character sums  the abelian Cayley families live on (Z_p)^m: p = q for
                    D_q^m(a), p = 2 for the code graphs.  One DFT of the
                    connection-set indicator gives every eigenvalue: exact
                    integers for the code graphs, floats for D_q^m(a).  An
                    ad-hoc circulant, Cay(Z_n, S), takes the same route
  * least only      ``least_eigenvalue``, behind the ratio bound of an ad-hoc
                    graph (the only number of its spectrum a certificate
                    reads): the least character sum of a circulant, else a
                    Lanczos estimate proven a lower bound by one Cholesky
                    factorisation of the shifted n x n adjacency matrix, with
                    the dense route as its fallback
  * dense           symmetric diagonalization of the n x n adjacency matrix;
                    used for ``spectrum --method dense``, as the test oracle
                    and as the fallback above

The two group routes read only a connection set, so they need no built
graph.  Tests cross-check them, and ``least_eigenvalue``, against the dense
one.  The Cholesky check and the dense route hold an n x n matrix and are
capped at limits.DENSE_SPECTRUM_CAP vertices; a circulant is not.

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


def _adjacency(graph) -> np.ndarray:
    """The n x n float64 adjacency matrix."""
    n = graph.n
    adj = np.zeros((n, n), dtype=np.float64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    adj[rows, graph.indices] = 1.0
    return adj


def dense_spectrum(graph) -> SpectralSummary:
    """Full spectrum via symmetric dense diagonalization."""
    d = _require_regular(graph)
    n = graph.n
    limits.check("DENSE_SPECTRUM_CAP", n, f"dense spectrum on {n} vertices")
    adj = _adjacency(graph)
    try:
        eig = np.linalg.eigvalsh(adj)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"dense eigensolver failed: {exc}") from exc
    return SpectralSummary(n=n, d=d, eigenvalues=eig[::-1].copy(), method="dense")


# Lanczos stops once the Ritz residual of its smallest Ritz value is below
# this, or after min(n, _LANCZOS_STEPS) steps.
_LANCZOS_TOL = 1e-11
_LANCZOS_STEPS = 300
# least_eigenvalue returns mu = theta - _SHIFT * max(1, |theta|) for a
# circulant's least character sum or a Lanczos estimate theta: a margin above
# the rounding error of an n-point FFT or of an n x n Cholesky factorisation,
# and a bound that moves by about 1e-10 relative.
_SHIFT = 1e-10
_CHOLESKY_BLOCK = 256


def _lanczos_least(graph):
    """Smallest Ritz value of the adjacency matrix, or None if its residual
    has not dropped below _LANCZOS_TOL within min(n, _LANCZOS_STEPS) steps.

    Lanczos with full reorthogonalisation from a fixed random start; the
    matvec is a bincount over the CSR.  A Ritz value is a Rayleigh quotient,
    so it never lies below lambda_min.
    """
    n = graph.n
    steps = min(n, _LANCZOS_STEPS)
    counts = np.diff(graph.indptr)
    basis = np.empty((steps, n))
    alpha, beta = np.zeros(steps), np.zeros(steps)
    start = np.random.default_rng(0).standard_normal(n)
    basis[0] = start / np.linalg.norm(start)
    for k in range(steps):
        w = np.bincount(graph.indices, weights=np.repeat(basis[k], counts), minlength=n)
        w = w.astype(np.float64, copy=False)  # bincount gives int64 when there are no edges
        alpha[k] = basis[k] @ w
        for _ in range(2):  # Gram-Schmidt twice keeps the basis orthogonal to rounding
            w -= basis[:k + 1].T @ (basis[:k + 1] @ w)
        beta[k] = np.linalg.norm(w)
        tridiagonal = np.diag(alpha[:k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
        ritz, vectors = np.linalg.eigh(tridiagonal)
        if beta[k] * abs(vectors[-1, 0]) < _LANCZOS_TOL:
            return float(ritz[0])
        if k + 1 < steps:
            basis[k + 1] = w / beta[k]
    return None


def _positive_definite(a: np.ndarray) -> bool:
    """Whether the symmetric matrix ``a`` is positive definite, by a blocked
    right-looking Cholesky factorisation that overwrites ``a``: LAPACK on each
    diagonal block, a solve for the panel below it, and the Schur update of
    the trailing matrix one column block at a time, so that no temporary
    exceeds n x _CHOLESKY_BLOCK entries."""
    n, b = len(a), _CHOLESKY_BLOCK
    for k in range(0, n, b):
        e = min(k + b, n)
        try:
            a[k:e, k:e] = np.linalg.cholesky(a[k:e, k:e])
        except np.linalg.LinAlgError:
            return False
        panel = np.linalg.solve(a[k:e, k:e], a[e:, k:e].T).T  # L21 = A21 L11^-T
        for j in range(e, n, b):
            f = min(j + b, n)
            a[j:, j:f] -= panel[j - e:] @ panel[j - e:f - e].T
    return True


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
    """theta - _SHIFT * max(1, |theta|), the bound returned for an estimate
    theta of lambda_min."""
    return theta - _SHIFT * max(1.0, abs(theta))


def least_eigenvalue(graph) -> float:
    """A proven lower bound on the least adjacency eigenvalue of a regular
    graph, within about 1e-10 relative of it.

    A circulant Cay(Z_n, S) reads lambda_min as the least character sum, one
    n-point DFT of the indicator of S, whose rounding (about 1e-13) is far
    below the margin: theta - 1e-10 * max(1, |theta|) is returned.  Any
    other graph takes Lanczos, which estimates lambda_min by a Ritz value
    theta >= lambda_min; one Cholesky factorisation of A - mu*I,
    mu = theta - 1e-10 * max(1, |theta|), then proves lambda_min > mu, and mu
    is returned.  If Lanczos does not converge or the factorisation fails,
    the dense spectrum's least eigenvalue is returned instead.  Both the
    check and the dense route hold an n x n matrix, so a graph that is not a
    circulant is capped by limits.DENSE_SPECTRUM_CAP.
    """
    _require_regular(graph)
    n = graph.n
    conn = _circulant_connection_set(graph)
    if conn is not None:
        return _below(float(_character_spectrum((n,), conn).min()))
    limits.check("DENSE_SPECTRUM_CAP", n, f"dense spectrum on {n} vertices")
    theta = _lanczos_least(graph)
    if theta is not None:
        mu = _below(theta)
        shifted = _adjacency(graph)
        shifted.flat[::n + 1] = -mu
        if _positive_definite(shifted):
            return mu
        del shifted  # free the n x n array before the dense route makes its own
    return float(dense_spectrum(graph).eigenvalues[-1])


def _character_spectrum(shape, conn: np.ndarray) -> np.ndarray:
    """Spectrum of the Cayley graph Cay(Z_p1 x ... x Z_pm, S), with
    ``shape`` = (p1, ..., pm): the DFT of the indicator of S.

    The families live on (Z_p)^m, shape (p,) * m, and their codecs number x
    as sum x_i * p^i, so the indicator reshapes to that shape; a circulant
    lives on Z_n, shape (n,).  S = -S makes the transform real; for p = 2
    every butterfly is an integer addition, so code-graph eigenvalues are
    exact.
    """
    indicator = np.zeros(math.prod(shape))
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
