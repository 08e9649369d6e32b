"""Exception types shared across the package.

Input-validation failures subclass ValueError; numerical/iteration failures
subclass RuntimeError.  Index errors and IO errors use the builtins.
"""


class ZeroParameter(ValueError):
    """A circle radius parameter that must be nonzero was zero."""


class BadParameter(ValueError):
    """A family or bound parameter is outside its valid range."""


class BadSigma(ValueError):
    """sigma must be a non-square modulo q."""


class DegenerateDistance(ValueError):
    """The distance parameter a is in {0, 4*sigma}, which degenerates the graph."""


class BadResidue(ValueError):
    """q does not lie in the residue class a theorem requires."""


class SizeLimitExceeded(ValueError):
    """The requested graph exceeds the vertex limit or the neighbor-matrix
    entry limit."""


class TooLarge(ValueError):
    """The instance exceeds the size cap of an exact algorithm."""


class UnsupportedFamily(ValueError):
    """The operation does not apply to this graph family."""


class NotTriangleFree(ValueError):
    """A Ramsey certificate was requested for a graph containing triangles."""


class NoConvergence(RuntimeError):
    """The eigensolver failed to converge."""
