"""Acceptance gate: twelve end-to-end criteria, one printed verdict line each.

Every criterion rebuilds its graphs from scratch and checks the library's
outputs against independently derived values at the stated tolerances and
within the stated time budgets.  Criterion 9 contains one clause that is
false on real numbers (the edge-count corollary for D_7(1)); it prints FAIL
with the measured values and is marked as an expected failure.  The decision
ledger kept alongside this repository documents the analysis.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from ramseyforge.algebra import find_nonsquare, quadratic_character
from ramseyforge.certify import (
    SweepConfig,
    run_sweep,
    verify_circle_lemma,
    verify_degree_formula,
)
from ramseyforge.exactmetrics import (
    _triangles_bitset,
    diameter,
    eccentricity_uniformity_check,
    exact_independence,
    exact_max_cut_and_bisection,
    exact_toughness,
    girth,
    triangle_count,
)
from ramseyforge.graphs import (
    FamilySpec, alon_connection_set, alon_split, build_family, connection_set, distance_classes,
    distance_quotient, graph_from_edges,
)
from ramseyforge.spectral import (
    alon_toughness_bound,
    bisection_and_bip_bounds,
    cayley_spectrum_abelian,
    dense_spectrum,
    quotient_spectrum,
    ramanujan_check,
    ratio_independence_bound,
)


def euclid(q, a=1, m=2):
    return build_family(FamilySpec(kind="euclidean", q=q, m=m, a=a))


def halfplane(q, sigma, a):
    return build_family(FamilySpec(kind="noneuclidean", q=q, sigma=sigma, a=a))


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def report(num, ok, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {verdict} - {detail} ({elapsed:.2f}s)", flush=True)
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"
    return ok


# ---------------------------------------------------------------------------

def test_criterion_01_circle_intersection_lemmas():
    t0 = time.perf_counter()
    mismatch_free = True
    for q in [3, 5, 7, 11, 13]:
        cert = verify_circle_lemma(q)
        claim = cert.claim("intersection_predictor")
        mismatch_free &= claim.status == "pass"
        mismatch_free &= claim.evidence["mismatches"]["value"] == 0
    for q in [5, 13]:
        cert = verify_circle_lemma(q)
        iso = cert.claim("isotropic_intersections")
        mismatch_free &= iso.status == "pass"
        mismatch_free &= iso.evidence["mismatches"]["value"] == 0
    ok = report(
        1, mismatch_free,
        "intersection counts equal chi(ij-(k-i-j)^2/4)+1 on q in {3,5,7,11,13}; "
        "isotropic lemma exact on q in {5,13}",
        t0, 30,
    )
    assert ok


def test_criterion_02_girth_theorem():
    t0 = time.perf_counter()
    ok = True
    for q, want in [(7, 4), (19, 4), (31, 4), (13, 3), (37, 3)]:
        rule = 3 if quadratic_character(3, q) >= 0 else 4
        got = girth(euclid(q))
        ok &= got == want == rule
    ok = report(
        2, ok,
        "girth(D_q(1)) = 4 for q in {7,19,31} and 3 for q in {13,37}, "
        "matching the quadratic character of 3",
        t0, 60,
    )
    assert ok


def test_criterion_03_diameter_theorem():
    t0 = time.perf_counter()
    ok = True
    for q in [7, 11, 19, 23, 31]:
        g = euclid(q)
        ok &= eccentricity_uniformity_check(g)
        ok &= diameter(g) == 3
    for q in [5, 13, 17, 29]:
        g = euclid(q)
        ok &= eccentricity_uniformity_check(g)
        ok &= diameter(g) in (3, 4)
    ok = report(
        3, ok,
        "diameter(D_q(1)) = 3 for q = 3 mod 4 in {7,11,19,23,31}; "
        "in {3,4} for q = 1 mod 4 in {5,13,17,29}; "
        "transitive shortcut guarded by eccentricity uniformity",
        t0, 120,
    )
    assert ok


def test_criterion_04_degree_formula():
    t0 = time.perf_counter()
    ok = True
    pairs = 0
    for q in [3, 5, 7, 11, 13]:
        for m in [2, 3, 4]:
            if q ** m > 30000:
                continue
            cert = verify_degree_formula(q, m)
            cases = cert.claim("sphere_size_formula").evidence["cases"]["value"]
            ok &= cert.overall == "pass"
            ok &= all(formula == counted for _, formula, counted in cases)
            ok &= len(cases) == q - 1
            pairs += 1
    ok = report(
        4, ok,
        f"sphere sizes match the character-sum degree formula on {pairs} "
        "(q, m) grids, every a != 0, exact",
        t0, 60,
    )
    assert ok


def test_criterion_05_ramanujan_bound():
    t0 = time.perf_counter()
    ok = True
    for q in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]:
        g = euclid(q)
        dense = dense_spectrum(g)
        char = cayley_spectrum_abelian(g.family, connection_set(g.family))
        ok &= float(np.max(np.abs(dense.eigenvalues - char.eigenvalues))) < 1e-6
        ok &= ramanujan_check(dense, q)
        ok &= ramanujan_check(char, q)
    graphs = 0
    for q in [3, 5, 7, 11, 13, 17]:
        sigma = find_nonsquare(q)
        for a in range(1, q):
            if a == (4 * sigma) % q:
                continue
            s = dense_spectrum(halfplane(q, sigma, a))
            ok &= ramanujan_check(s, q)
            graphs += 1
    # past the dense cap: the distance-class quotient route only
    for q in [53, 89, 101]:
        spec = FamilySpec(kind="noneuclidean", q=q, sigma=3, a=6)
        s = quotient_spectrum(*distance_quotient(spec, distance_classes(spec), spec.a)[1])
        ok &= s.method == "class-quotient" and s.n == q * (q - 1)
        ok &= ramanujan_check(s, q)
    ok = report(
        5, ok,
        "every nontrivial eigenvalue obeys |lambda| <= 2*sqrt(q) + 1e-6 for "
        f"D_q(1) q <= 31, {graphs} half-plane graphs q <= 17 and V_q(3,6) "
        "q in {53, 89, 101} (class quotient); dense and character-sum spectra agree within 1e-6",
        t0, 600,
    )
    assert ok


def test_criterion_06_triangle_freeness_at_scale():
    t0 = time.perf_counter()
    ok = True
    graphs = [euclid(q) for q in [7, 19, 31, 43, 67, 79, 103]]
    graphs += [halfplane(q, 3, 6) for q in [17, 29, 41, 53, 89, 101]]
    for g in graphs:
        ok &= triangle_count(g) == 0 and _triangles_bitset(g) == 0
    d13 = euclid(13)
    ok &= triangle_count(d13) == 676 and _triangles_bitset(d13) == 676
    ok = report(
        6, ok,
        "triangle count 0 for D_q(1) up to q=103 and V_q(3,6) up to q=101 "
        "(through-identity count and bitset route); 676 triangles in D_13(1)",
        t0, 300,
    )
    assert ok


def test_criterion_07_toughness_chain():
    t0 = time.perf_counter()
    bound = alon_toughness_bound(4, 2)
    tough = exact_toughness(euclid(3)).value
    ok = bound == pytest.approx(1 / 9)
    ok &= tough == Fraction(2)
    ok &= float(tough) > bound
    ok &= exact_toughness(graph_from_edges(3, [(0, 1), (1, 2)])).value == Fraction(1, 2)
    ok &= exact_toughness(cycle(5)).value == Fraction(1)
    ok = report(
        7, ok,
        "exact toughness of D_3(1) is 2 > 1/9 = (1/3)(16/12 - 1); "
        "P_3 gives 1/2 and C_5 gives 1",
        t0, 1,
    )
    assert ok


def test_criterion_08_independence_chain():
    t0 = time.perf_counter()
    r3 = exact_independence(euclid(3))
    ok = r3.size == 3 and r3.exact
    ok &= ratio_independence_bound(9, 4, 6) == pytest.approx(3.0)
    r7 = exact_independence(euclid(7))
    s7 = dense_spectrum(euclid(7))
    ratio7 = ratio_independence_bound(49, 8, s7.theta_n)
    ok &= r7.size == 14 and r7.exact
    ok &= r7.size <= 2 * 7 ** 1.5 + 1e-9
    ok &= 2 * 7 ** 1.5 == pytest.approx(37.04, abs=0.01)
    ok &= r7.size <= ratio7
    alphas = {}
    for k in [2, 3]:
        g = build_family(FamilySpec(kind="bch", k=k))
        res = exact_independence(g)
        alphas[k] = res.size
        ok &= res.exact
        ok &= res.size <= 2 * g.n ** 0.75
    ok &= alphas == {2: 8, 3: 22}
    ok = report(
        8, ok,
        "alpha(D_3(1)) = 3 = ratio bound; alpha(D_7(1)) = 14 <= 37.04 and <= "
        f"{ratio7:.3f}; alpha(BCH k=2,3) = {alphas[2]}, {alphas[3]} <= 2n^(3/4)",
        t0, 300,
    )
    assert ok


def test_criterion_09_cut_bounds():
    t0 = time.perf_counter()
    ok = True
    parts = []
    for g, tag in [(euclid(3), "D_3(1)"), (cycle(4), "C_4"), (cycle(5), "C_5")]:
        bip, bis = exact_max_cut_and_bisection(g)
        s = dense_spectrum(g)
        _, bip_upper = bisection_and_bip_bounds(g.n, s.theta2, s.theta_n)
        ok &= bip <= bip_upper + 1e-6
        parts.append(f"{tag} {bip}<={bip_upper:.2f}")
    assert ok, "spectral bip upper bound must hold exactly on small graphs"

    # the edge-count corollary clause: e/2 + e^(5/6)/2 with e = 196 against
    # the spectral bip bound of D_7(1); false on real numbers
    s7 = dense_spectrum(euclid(7))
    _, bip_upper_7 = bisection_and_bip_bounds(49, s7.theta2, s7.theta_n)
    e = 196
    cap = e / 2 + e ** (5 / 6) / 2
    assert e == 49 * 8 // 2
    assert cap == pytest.approx(138.66150013494592, abs=1e-9)
    assert bip_upper_7 == pytest.approx(153.05100029107794, abs=1e-9)
    assert cap < bip_upper_7  # the sense in which the clause fails
    report(
        9, False,
        "exact bip bounds hold (" + ", ".join(parts) + ") but the edge-count "
        f"corollary is false for D_7(1): cap {cap:.4f} < spectral bip bound "
        f"{bip_upper_7:.4f}; see the decision ledger",
        t0, 30,
    )
    pytest.xfail(
        "edge-count corollary cap e/2 + e^(5/6)/2 = 138.66 sits below the "
        "spectral bip bound 153.05 of D_7(1); recorded honestly, see ledger"
    )


def test_criterion_10_half_plane_diameter_special_case():
    t0 = time.perf_counter()
    ok = diameter(halfplane(5, 2, 4)) == 2  # a = 2*sigma, q = 5
    sigma = 2
    for a in range(1, 13):
        if a == (4 * sigma) % 13:
            continue
        got = diameter(halfplane(13, sigma, a))
        if a == (2 * sigma) % 13:
            want = 3
        elif quadratic_character(sigma - a, 13) >= 0:
            want = 3
        else:
            want = 4
        ok &= got == want
    ok = report(
        10, ok,
        "diameter(V_5(2,4)) = 2; diameter(V_13(2,a)) follows the "
        "sigma - a squareness rule for every valid a",
        t0, 60,
    )
    assert ok


def test_criterion_11_code_graphs():
    t0 = time.perf_counter()
    ok = True
    for k in [2, 3, 4]:
        g = build_family(FamilySpec(kind="bch", k=k))
        ok &= g.n == 1 << (2 * k)
        ok &= g.degree == (1 << k) - 1
        ok &= triangle_count(g) == 0
    notes = []
    for k in [2, 4]:
        g = build_family(FamilySpec(kind="alon", k=k))
        w0s, w1s = alon_split(k)
        ok &= len(w0s) == (1 << (k - 1)) - 1
        ok &= len(w1s) == 1 << (k - 1)
        ok &= g.degree == len(alon_connection_set(k))
        claimed = (1 << (k - 1)) * ((1 << (k - 1)) - 1)
        notes.append(
            f"k={k} degree {g.degree} vs claimed {claimed}"
            f"{'' if g.degree == claimed else ' (discrepancy recorded)'}"
        )
    ok = report(
        11, ok,
        "BCH k in {2,3,4} are (2^k-1)-regular triangle-free on 2^(2k) "
        "vertices; partition sizes and sum-set degrees check out: "
        + "; ".join(notes),
        t0, 60,
    )
    assert ok


def test_criterion_12_sweep_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg1 = SweepConfig(q_min=3, q_max=31, out_dir=str(tmp_path / "t1"), threads=1)
    cfg4 = SweepConfig(q_min=3, q_max=31, out_dir=str(tmp_path / "t4"), threads=4)
    res1, res4 = run_sweep(cfg1), run_sweep(cfg4)
    ok = len(res1["json_files"]) == len(res4["json_files"]) > 0
    for p1, p4 in zip(res1["json_files"] + [res1["csv"]],
                      res4["json_files"] + [res4["csv"]]):
        with open(p1, "rb") as fh:
            b1 = fh.read()
        with open(p4, "rb") as fh:
            b4 = fh.read()
        ok &= b1 == b4
    ok = report(
        12, ok,
        f"two sweeps over primes <= 31 ({res1['rows']} rows) with 1 and 4 "
        "threads produce byte-identical JSON and CSV",
        t0, 120,
    )
    assert ok
