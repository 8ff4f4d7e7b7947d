"""Exception types raised by the library.

Everything derives from ValueError so callers that do not care about the
fine-grained category can catch the usual thing.
"""


class SchmidtLensError(ValueError):
    """Base class for all library errors."""


class NotSquareError(SchmidtLensError):
    """Matrix expected to be square."""


class NotHermitianError(SchmidtLensError):
    """Hermiticity violation beyond tolerance."""


class DimensionMismatchError(SchmidtLensError):
    """Operand dimensions are inconsistent with the declared subsystem split."""


class InvalidDimensionError(SchmidtLensError):
    """Subsystem dimension outside the supported range."""


class NotBipartiteError(SchmidtLensError):
    """Operation requires a bipartite state."""


class InvalidRankError(SchmidtLensError):
    """Schmidt rank / number parameter outside its valid range."""


class ParamOutOfRangeError(SchmidtLensError):
    """Channel or state parameter outside its admissible interval."""


class BudgetError(ParamOutOfRangeError):
    """A study or basis refused before it is built: a size below its minimum
    or above its budget."""


class NonSquareChannelError(SchmidtLensError):
    """Operation requires a channel with equal input and output dimension."""


class NotPSDError(SchmidtLensError):
    """Matrix expected to be positive semidefinite."""


class NotTracePreservingError(SchmidtLensError):
    """Kraus set or Choi matrix fails the trace-preservation condition."""


class UnknownFamilyError(SchmidtLensError):
    """Channel family name not recognized."""


class NoSignChangeError(SchmidtLensError):
    """Bisection bracket does not straddle a sign change."""
