"""Tests for primality, characters, the circle predictors and GF(2^k), and
for the brute-force quadrance, circle and half-plane distance oracles."""

import pytest
from bruteforce import circle_points, count_intersections_bruteforce, poincare_distance, quadrance

from ramseyforge import certify
from ramseyforge.algebra import (
    find_nonsquare,
    gf2k_mul,
    gf2k_pow,
    is_generator,
    is_odd_prime,
    modular_sqrts,
    predicted_intersections,
    predicted_intersections_null,
    quadratic_character,
)
from ramseyforge.errors import BadParameter, ZeroParameter

SMALL_PRIMES = [3, 5, 7, 11, 13, 17]


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

def _odd_prime_by_trial_division(q):
    if q < 3 or q % 2 == 0:
        return False
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def test_is_odd_prime():
    assert [p for p in range(2, 32) if is_odd_prime(p)] == [
        3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
    ]
    assert not is_odd_prime(2)
    assert not is_odd_prime(1)
    assert not is_odd_prime(9)


def test_is_odd_prime_matches_trial_division():
    assert all(is_odd_prime(q) == _odd_prime_by_trial_division(q) for q in range(-2, 10**5))


def test_is_odd_prime_beyond_trial_division():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every base up to 23
    assert not is_odd_prime(3215031751)
    assert not is_odd_prime(3825123056546413051)
    assert is_odd_prime(2**61 - 1)
    assert is_odd_prime(10**16 + 61)


def test_is_odd_prime_refuses_past_exact_bound():
    bound = 3317044064679887385961981
    assert not is_odd_prime(bound - 1)  # below the bound: answered, not refused
    with pytest.raises(BadParameter, match=str(bound)):
        is_odd_prime(bound)


# ---------------------------------------------------------------------------
# quadratic character
# ---------------------------------------------------------------------------

def test_quadratic_character_frozen():
    assert quadratic_character(3, 7) == -1
    assert quadratic_character(3, 13) == 1
    assert quadratic_character(0, 7) == 0
    assert quadratic_character(14, 7) == 0
    assert quadratic_character(-1, 5) == 1
    assert quadratic_character(-1, 7) == -1


def test_quadratic_character_counts_squares():
    # exactly (q-1)/2 nonzero squares in each field
    for q in SMALL_PRIMES:
        squares = {(x * x) % q for x in range(1, q)}
        assert len(squares) == (q - 1) // 2
        for a in range(1, q):
            expected = 1 if a in squares else -1
            assert quadratic_character(a, q) == expected


def test_quadratic_character_multiplicative():
    for q in SMALL_PRIMES:
        for a in range(1, q):
            for b in range(1, q):
                lhs = quadratic_character(a * b, q)
                rhs = quadratic_character(a, q) * quadratic_character(b, q)
                assert lhs == rhs


def test_find_nonsquare():
    assert find_nonsquare(7) == 3
    assert find_nonsquare(17) == 3
    for q in SMALL_PRIMES:
        assert quadratic_character(find_nonsquare(q), q) == -1


def test_is_generator_matches_multiplicative_order():
    for q in [p for p in range(3, 60) if is_odd_prime(p)]:
        for g in range(2 * q):
            order, acc = 1, g % q
            while acc not in (0, 1):
                acc = acc * g % q
                order += 1
            brute = acc == 1 and order == q - 1
            assert is_generator(g, q) == brute, (g, q)


# ---------------------------------------------------------------------------
# quadrance and circles
# ---------------------------------------------------------------------------

def test_quadrance_frozen():
    assert quadrance((0, 0), (1, 2), 7) == 5
    assert quadrance((0, 0), (1, 2), 5) == 0
    assert quadrance((1, 1, 1), (0, 0, 0), 3) == 0


def test_quadrance_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension 2 and 3"):
        quadrance((0, 0), (1, 2, 3), 7)


def test_circle_points_frozen():
    pts = circle_points((0, 0), 1, 3)
    assert set(pts) == {(0, 1), (0, 2), (1, 0), (2, 0)}
    assert len(circle_points((0, 0), 1, 7)) == 8
    assert len(circle_points((0, 0), 1, 5)) == 4


def test_circle_points_translation_invariant():
    for q in [5, 7]:
        base = circle_points((0, 0), 2, q)
        shifted = circle_points((1, 3 % q), 2, q)
        expected = {((x + 1) % q, (y + 3) % q) for x, y in base}
        assert set(shifted) == expected


# ---------------------------------------------------------------------------
# circle intersection predictor
# ---------------------------------------------------------------------------

def test_predicted_intersections_frozen():
    assert predicted_intersections(1, 1, 1, 7) == 0
    assert predicted_intersections(1, 1, 4, 7) == 1
    assert predicted_intersections(1, 1, 4, 13) == 1
    assert predicted_intersections(1, 1, 1, 13) == 2


def test_predicted_intersections_zero_args():
    for i, j, k in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
        with pytest.raises(ZeroParameter):
            predicted_intersections(i, j, k, 7)


def test_predicted_intersections_null_frozen():
    assert predicted_intersections_null(1, 2, 13) == 1
    assert predicted_intersections_null(1, 1, 13) == 0
    assert predicted_intersections_null(3, 3, 5) == 0
    with pytest.raises(ZeroParameter):
        predicted_intersections_null(0, 1, 13)


def test_intersections_match_bruteforce_q7():
    """One concrete triple checked against the brute-force counter."""
    q = 7
    centers = circle_points((0, 0), 4, q)
    assert len(centers) == 8
    x = min(centers)
    n = count_intersections_bruteforce((0, 0), x, 1, 1, q)
    assert n == predicted_intersections(1, 1, 4, q)


@pytest.mark.parametrize("q", [5, 7, 13])
def test_bruteforce_counts_match_the_whole_predictor_table(q):
    # translations and O(2, q) carry any centre pair to (0, 0) and a centre
    # of the same quadrance k (Witt's theorem), so one centre per nonzero k,
    # and one null centre when q = 1 mod 4, covers every pair of centres
    pred, null = certify._circle_predictor_tables(q)
    centres = [(k, min(circle_points((0, 0), k, q))) for k in range(1, q)]
    nulls = sorted(circle_points((0, 0), 0, q) - {(0, 0)})
    assert bool(nulls) == (q % 4 == 1)
    centres += [(0, c) for c in nulls[:1]]
    for k, centre in centres:
        want = pred[k - 1] if k else null
        counts = [[count_intersections_bruteforce((0, 0), centre, i, j, q) for j in range(1, q)]
                  for i in range(1, q)]
        assert counts == want.tolist(), (k, centre)


# ---------------------------------------------------------------------------
# quadratic extension and half-plane distance
# ---------------------------------------------------------------------------

def test_poincare_distance_frozen():
    # q = 5, sigma = 2: d(1 + r, 2 + r) = 1 and d(r, 2r) = 4, r = sqrt(2)
    assert poincare_distance((1, 1), (2, 1), 2, 5) == 1
    assert poincare_distance((0, 1), (0, 2), 2, 5) == 4


def test_poincare_distance_off_plane():
    with pytest.raises(ValueError, match="nonzero imaginary part"):
        poincare_distance((1, 0), (2, 1), 2, 5)
    with pytest.raises(ValueError, match="nonzero imaginary part"):
        poincare_distance((1, 1), (2, 0), 2, 5)


def test_modular_sqrts():
    for q in SMALL_PRIMES:
        roots = modular_sqrts(q)
        assert len(roots) == q
        for r in range(q):
            assert roots[r] == sorted(t for t in range(q) if (t * t) % q == r)


# ---------------------------------------------------------------------------
# GF(2^k)
# ---------------------------------------------------------------------------

def test_gf2k_frozen_products():
    # k=2, modulus x^2 + x + 1: x * x = x + 1
    assert gf2k_mul(2, 2, 2) == 3
    # k=3, modulus x^3 + x + 1: x * x^2 = x + 1
    assert gf2k_mul(2, 4, 3) == 3


def test_gf2k_cubes_k2():
    # multiplicative group has order 3, so every nonzero cube is 1
    for z in range(1, 4):
        assert gf2k_pow(z, 3, 2) == 1


def test_gf2k_group_order():
    for k in [2, 3, 4]:
        order = (1 << k) - 1
        for z in range(1, 1 << k):
            assert gf2k_pow(z, order, k) == 1


def test_gf2k_field_axioms_small():
    for k in [2, 3, 4]:
        n = 1 << k
        for a in range(n):
            for b in range(n):
                assert gf2k_mul(a, b, k) == gf2k_mul(b, a, k)
                for c in range(0, n, 3):
                    lhs = gf2k_mul(a, b ^ c, k)
                    rhs = gf2k_mul(a, b, k) ^ gf2k_mul(a, c, k)
                    assert lhs == rhs


def test_gf2k_bad_k():
    with pytest.raises(BadParameter):
        gf2k_mul(1, 1, 1)
    with pytest.raises(BadParameter):
        gf2k_mul(1, 1, 9)
