"""Size caps for builders and exact oracles.

Every cap is a constant here, read when the check runs, so setting one (say
``limits.DENSE_SPECTRUM_CAP``) moves the refusal and every caller that
consults it alike.  The exact oracles' refusals name their constant.
RAMSEY_FORGE_MAX_N also moves the vertex limit.  The independence node
budget is the one keyword argument, ``exact_independence(..., node_budget=)``.
"""
import os

from .errors import BadParameter

DEFAULT_MAX_VERTICES = 200_000
# Cayley builders refuse an (n, d) int64 neighbor matrix above this many
# entries (1 GiB) before allocating it.
MAX_NEIGHBOR_ENTRIES = 2**27

DENSE_SPECTRUM_CAP = 2500
TOUGHNESS_CAP = 16
INDEPENDENCE_CAP = 300
CUT_CAP = 20
CIRCLE_LEMMA_CAP = 31
NODE_BUDGET = 10**8

# Exact independence is attempted inside certificates only up to this many
# vertices; larger graphs get the spectral ratio bound instead of an
# open-ended search.  Code graphs have 4^k or 8^k vertices, so for them this
# is the same as a cap of 64.
VERIFY_ALPHA_CAP = 100


def max_vertices() -> int:
    """Vertex limit for graph construction, overridable via RAMSEY_FORGE_MAX_N;
    an override that is not a positive integer raises BadParameter."""
    raw = os.environ.get("RAMSEY_FORGE_MAX_N")
    if raw is None:
        return DEFAULT_MAX_VERTICES
    try:
        value = int(raw)
    except ValueError:
        raise BadParameter(f"RAMSEY_FORGE_MAX_N={raw!r} is not an integer") from None
    if value <= 0:
        raise BadParameter(f"RAMSEY_FORGE_MAX_N={raw!r} must be positive")
    return value

