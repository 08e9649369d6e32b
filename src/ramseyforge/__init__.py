"""Finite-geometry graph families, exact combinatorial oracles, spectral
bounds, and constructive Ramsey lower-bound certificates.

Four families: Euclidean quadrance graphs over F_q^m, finite upper-half-plane
graphs over F_q(sqrt(sigma)), and two binary-code Cayley graph families on
GF(2)^{2k} and GF(2)^{3k}.  Exact oracles (girth, diameter, triangles,
toughness, independence, cuts) cross-check spectral bounds, and the certify
layer packages the comparisons as pass/fail/recorded certificates, including
R(3, t) > n records from triangle-free graphs with certified independence
bounds.
"""
from . import errors, limits
from .algebra import (
    find_nonsquare,
    gf2k_mul,
    gf2k_pow,
    is_generator,
    predicted_intersections,
    predicted_intersections_null,
    quadratic_character,
)
from .certify import (
    Certificate,
    Claim,
    SweepConfig,
    certificate_to_json,
    primes_in,
    ramsey_certificate,
    run_sweep,
    verify_circle_lemma,
    verify_code_graphs,
    verify_degree_formula,
    verify_girth_diameter,
    verify_main_theorem,
    verify_mt1,
)
from .exactmetrics import (
    IndependenceResult,
    MetricsReport,
    ToughnessResult,
    connected_components,
    diameter,
    eccentricity_uniformity_check,
    exact_independence,
    exact_max_cut_and_bisection,
    exact_toughness,
    girth,
    metrics_report,
    triangle_count,
)
from .graphs import (
    FamilySpec,
    Graph,
    build_code_graph_alon,
    build_code_graph_bch,
    build_euclidean,
    build_family,
    build_non_euclidean,
    connection_set,
    euclidean_degree,
    export_graph,
    graph_from_edges,
)
from .spectral import (
    SpectralSummary,
    alon_toughness_bound,
    bisection_and_bip_bounds,
    cayley_spectrum_abelian,
    chromatic_lower_bound,
    dense_spectrum,
    least_eigenvalue,
    quotient_spectrum,
    ramanujan_check,
    ratio_independence_bound,
)

__version__ = "0.1.0"
