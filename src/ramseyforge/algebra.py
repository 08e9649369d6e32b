"""Arithmetic over F_q and GF(2^k).

Field elements are plain ints reduced mod q.  GF(2^k) elements are ints
whose bit i is the coefficient of x^i in the polynomial basis fixed by
GF2K_MODULI.
"""
from .errors import BadParameter, ZeroParameter

# Irreducible moduli for GF(2^k), bit i = coefficient of x^i.
GF2K_MODULI = {
    2: 0b111,          # x^2 + x + 1
    3: 0b1011,         # x^3 + x + 1
    4: 0b10011,        # x^4 + x + 1
    5: 0b100101,       # x^5 + x^2 + 1
    6: 0b1000011,      # x^6 + x + 1
    7: 0b10000011,     # x^7 + x + 1
    8: 0b100011011,    # x^8 + x^4 + x^3 + x + 1
}


# Miller-Rabin with the first 12 prime bases is exact below this bound
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MILLER_RABIN_BOUND = 3317044064679887385961981


def is_odd_prime(q: int) -> bool:
    """Deterministic Miller-Rabin; BadParameter at or above the bound where
    the 12 bases stop being exact."""
    if q >= _MILLER_RABIN_BOUND:
        raise BadParameter(f"q={q} is at or above {_MILLER_RABIN_BOUND}, past exact primality")
    if q < 3 or q % 2 == 0:
        return False
    if q in _MILLER_RABIN_BASES:
        return True
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def quadratic_character(a: int, q: int) -> int:
    """chi(a): +1 for a nonzero square, 0 at 0, -1 for a non-square.

    Euler's criterion: a^((q-1)/2) is 1 exactly on the nonzero squares.
    """
    a %= q
    if a == 0:
        return 0
    return 1 if pow(a, (q - 1) // 2, q) == 1 else -1


def find_nonsquare(q: int) -> int:
    """Smallest non-square >= 2 modulo the odd prime q."""
    for s in range(2, q):
        if quadratic_character(s, q) == -1:
            return s
    raise BadParameter(f"no non-square mod {q}; q must be an odd prime")


def is_generator(g: int, q: int) -> bool:
    """g generates F_q^* (q an odd prime): g^((q-1)/p) != 1 for every prime p | q-1."""
    if g % q == 0:
        return False
    order = q - 1
    factors = []
    rest, f = order, 2
    while f * f <= rest:
        if rest % f == 0:
            factors.append(f)
            while rest % f == 0:
                rest //= f
        f += 1
    if rest > 1:
        factors.append(rest)
    return all(pow(g, order // p, q) != 1 for p in factors)


def predicted_intersections(i: int, j: int, k: int, q: int) -> int:
    """Intersection count of two circles of radii i, j with centers at quadrance k.

    Evaluates f(i,j,k) = i*j - (k-i-j)^2/4 and maps its character to 0/1/2.
    """
    if i % q == 0 or j % q == 0 or k % q == 0:
        raise ZeroParameter("i, j, k must all be nonzero")
    f = (i * j - (k - i - j) ** 2 * pow(4, -1, q)) % q
    return quadratic_character(f, q) + 1


def predicted_intersections_null(i: int, j: int, q: int) -> int:
    """Intersection count when the centers are distinct but at quadrance 0."""
    if i % q == 0 or j % q == 0:
        raise ZeroParameter("i, j must be nonzero")
    return 0 if i % q == j % q else 1


# --- GF(2^k) -----------------------------------------------------------------

def gf2k_mul(a: int, b: int, k: int) -> int:
    """Carry-less product reduced mod the table polynomial for GF(2^k)."""
    if k not in GF2K_MODULI:
        raise BadParameter(f"no modulus table entry for k={k}")
    mod = GF2K_MODULI[k]
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> k) & 1:
            a ^= mod
    return r


def gf2k_pow(a: int, e: int, k: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = gf2k_mul(r, a, k)
        a = gf2k_mul(a, a, k)
        e >>= 1
    return r


def modular_sqrts(q: int):
    """roots[r] = sorted list of t in F_q with t^2 = r, by exhaustive search.

    Intended for moderate q (say q <= 10^4).
    """
    roots = [[] for _ in range(q)]
    for t in range(q):
        roots[(t * t) % q].append(t)
    return roots
