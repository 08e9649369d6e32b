"""Brute-force oracles over F_q^2 and the finite upper half-plane, for tests.

Each one computes its answer from the definition by exhaustive scan or
direct arithmetic, with the standard library alone, so it shares no code
with the package routes the tests compare it against.  Field elements are
plain ints reduced mod q; points in F_q^m are int tuples; elements of
F_q(sqrt(sigma)) are pairs (x, y) meaning x + y*sqrt(sigma).
"""


def quadrance(x_pt, y_pt, q: int) -> int:
    """Sum of squared coordinate differences of two points in F_q^m."""
    if len(x_pt) != len(y_pt):
        raise ValueError(f"points of dimension {len(x_pt)} and {len(y_pt)}")
    return sum((xc - yc) ** 2 for xc, yc in zip(x_pt, y_pt)) % q


def circle_points(center, k: int, q: int):
    """All points of F_q^2 at quadrance k from center, as a set of tuples."""
    cx, cy = center
    return {
        (x, y)
        for x in range(q)
        for y in range(q)
        if ((x - cx) ** 2 + (y - cy) ** 2) % q == k % q
    }


def count_intersections_bruteforce(x_pt, y_pt, i: int, j: int, q: int) -> int:
    """|C_i(X) ∩ C_j(Y)| by exhaustive scan of F_q^2."""
    if len(x_pt) != 2 or len(y_pt) != 2:
        raise ValueError("circle intersection is a planar operation")
    count = 0
    for px in range(q):
        for py in range(q):
            p = (px, py)
            if quadrance(p, x_pt, q) == i % q and quadrance(p, y_pt, q) == j % q:
                count += 1
    return count


# --- quadratic extension F_q(sqrt(sigma)) -----------------------------------

def quad_sub(z, w, q):
    return ((z[0] - w[0]) % q, (z[1] - w[1]) % q)


def quad_norm(z, sigma, q) -> int:
    """N(x + y*sqrt(sigma)) = x^2 - sigma*y^2."""
    x, y = z
    return (x * x - sigma * y * y) % q


def poincare_distance(z, w, sigma: int, q: int) -> int:
    """d(z, w) = N(z - w) / (Im z * Im w) on the half-plane y != 0."""
    if z[1] % q == 0 or w[1] % q == 0:
        raise ValueError("both points need nonzero imaginary part")
    num = quad_norm(quad_sub(z, w, q), sigma, q)
    return (num * pow(z[1] * w[1], -1, q)) % q
