"""Exception hierarchy for the fdc package.

Every raisable condition named in an operation contract gets its own class so
callers can catch precisely.  All inherit from FdcError.
"""


class FdcError(Exception):
    """Base class for all fdc errors."""


class NonSymmetric(FdcError):
    """Matrix failed the symmetry tolerance check."""


class NonConvergent(FdcError):
    """Iterative eigensolver exhausted its sweep budget."""


class NotPositiveDefinite(FdcError):
    """Eigenvalue below the required floor in a PSD inverse square root."""


class EmptyInput(FdcError):
    """Operation requires at least one (nonzero) point."""


class SingularTransform(FdcError):
    """Linear transform is not invertible at working precision."""


class ZeroPoint(FdcError):
    """A zero vector appeared where points must be nonzero.

    ``line`` is the 1-based source line for file ingestion, or None.
    """

    def __init__(self, msg="zero point", line=None):
        super().__init__(f"{msg}" + (f" (line {line})" if line is not None else ""))
        self.line = line


class ParseError(FdcError):
    """Malformed row/record during file ingestion."""

    def __init__(self, msg, line=None):
        super().__init__(f"{msg}" + (f" (line {line})" if line is not None else ""))
        self.line = line


class NonInteger(FdcError):
    """A coordinate did not parse as an integer."""

    def __init__(self, msg, line=None):
        super().__init__(f"{msg}" + (f" (line {line})" if line is not None else ""))
        self.line = line


class RankDeficient(FdcError):
    """Point set does not span the claimed subspace."""


class IterationBudgetExceeded(FdcError):
    """The reference LP's central-cut loop (``harness.central_cut``)
    exhausted its budget or lost definiteness before a sound verdict; signals
    numerical failure, not infeasibility."""


class InternalInvariantViolated(FdcError):
    """A condition guaranteed by construction failed; indicates numerical error
    upstream."""


class PrecisionLimit(FdcError):
    """Valid input past the precision of a float route: the message names the
    bound (for example, a direction coordinate binary64 cannot hold)."""


class Infeasible(FdcError):
    """Scaling SDP declared infeasible (a heavy subspace exists, or the solver
    failed numerically)."""


class DegenerateSecondMoment(FdcError):
    """Second-moment matrix not invertible on the span of the inputs."""


class CoverageFailure(FdcError):
    """Weak learner found no band meeting the coverage floor at the required
    conditional error; indicates a precondition violation."""


class IterationCapExceeded(FdcError):
    """Main learning loop hit its iteration cap without covering the space."""


class SizeLimit(FdcError):
    """Brute-force oracle invoked beyond its documented instance size."""
