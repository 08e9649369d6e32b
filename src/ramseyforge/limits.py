"""Size caps for builders and exact oracles.

Every cap is a constant here, and every refusal goes through ``check``, which
reads the cap when it runs and names it: setting one (say
``limits.DENSE_SPECTRUM_CAP``) moves the refusal and every caller that
consults it alike.  RAMSEY_FORGE_MAX_N moves the vertex limit.
"""
import os

from .errors import BadParameter, SizeLimitExceeded, TooLarge

DEFAULT_MAX_VERTICES = 200_000
# Cayley builders refuse an (n, d) int64 neighbor matrix above this many
# entries (1 GiB) before allocating it.
MAX_NEIGHBOR_ENTRIES = 2**27

DENSE_SPECTRUM_CAP = 2500
TOUGHNESS_CAP = 16
INDEPENDENCE_CAP = 300
CUT_CAP = 20
BITSET_TRIANGLE_CAP = 40_000
CIRCLE_LEMMA_CAP = 31
# exact_independence flags its best set exact=False past this many nodes.
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


def check(name: str, size: int, what: str) -> None:
    """Refuse ``what`` (which spells out its size) if ``size`` exceeds the limit
    ``name``, read now: SizeLimitExceeded for the two builder limits (the vertex
    limit is named RAMSEY_FORGE_MAX_N), TooLarge for the exact-oracle caps."""
    limit = max_vertices() if name == "RAMSEY_FORGE_MAX_N" else globals()[name]
    if size > limit:
        lever = name if name == "RAMSEY_FORGE_MAX_N" else f"limits.{name}"
        error = SizeLimitExceeded if name in ("RAMSEY_FORGE_MAX_N", "MAX_NEIGHBOR_ENTRIES") else TooLarge
        raise error(f"{what} exceeds {lever} = {limit}")
