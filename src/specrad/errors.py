"""Exception types shared across the package.

Validation failures name the violated rule so callers (and the CLI) can
report precisely what was wrong with an input.
"""


class SpecradError(Exception):
    """Base class for all package-specific errors."""


# --- shape-partition validation ---------------------------------------------

class NotAPartition(SpecradError):
    """Blocks do not partition the mode set (missing, repeated, or empty)."""


class NonContiguousBlocks(SpecradError):
    """A block is not a contiguous run of modes, or blocks are out of order."""


class UnequalDimsInBlock(SpecradError):
    """Modes grouped in one block have different dimensions."""


class NonMonotoneBlockSizes(SpecradError):
    """Block sizes decrease somewhere (they must be nondecreasing)."""


# --- tensor construction and conformance ------------------------------------

class NegativeValue(SpecradError):
    """A tensor entry is negative."""


class BadIndex(SpecradError):
    """A multi-index coordinate lies outside the declared dimensions."""


class DimensionMismatch(SpecradError):
    """An argument's length or shape disagrees with the tensor dimensions."""


class BadModeIndex(SpecradError):
    """A mode index lies outside ``0..order-1``."""


class ShapeMismatch(SpecradError):
    """A block vector does not conform to the partition's block dimensions."""


# --- analytic maps ------------------------------------------------------------

class NonPositiveInput(SpecradError):
    """A map requiring a strictly positive vector received one that is not."""


class ZeroNormBlock(SpecradError):
    """A block has zero norm where a normalization or retraction needs it."""


class OverflowGuard(SpecradError):
    """A log-domain argument would overflow ``exp`` (exponent too large)."""


# --- linear-algebra kernels ----------------------------------------------------

class SingularMatrix(SpecradError):
    """A linear solve met an exactly singular matrix or gave a non-finite
    solution."""


class KrylovStalled(SpecradError):
    """GMRES missed its residual tolerance within its iteration cap, or met a
    singular or non-finite system; no inexact solution is returned."""


# --- solvers -------------------------------------------------------------------

class SingularNewtonSystem(SingularMatrix):
    """The bordered Newton matrix was numerically singular."""


class LineSearchFailed(SpecradError):
    """Backtracking exhausted its budget without an acceptable step."""


# --- file formats ----------------------------------------------------------------

class BadHeader(SpecradError):
    """The tensor file header (order / dimensions) is malformed."""


class ParseError(SpecradError):
    """A tensor file line could not be parsed."""


class BadDensity(SpecradError):
    """A requested fill density lies outside ``(0, 1]``."""
