"""Exception hierarchy shared by all jordanflow modules."""


class JordanFlowError(Exception):
    """Base class for all library errors."""


class InputError(JordanFlowError, ValueError):
    """Invalid or out-of-contract input (bad shape, non-finite, wrong trace/det)."""


class NonConvergence(JordanFlowError):
    """The eigenvalue iteration failed to converge."""


class _WithMargins(JordanFlowError):
    """A refusal that carries the measured residuals/margins, so the caller
    can report rather than guess."""

    def __init__(self, message, margins=None):
        super().__init__(message)
        self.margins = dict(margins or {})


class IllConditioned(_WithMargins):
    """Spectral clusters cannot be separated reliably at the requested tolerance."""


class Singular(JordanFlowError):
    """Matrix is singular (or numerically so) where an inverse is required."""


class BranchObstruction(JordanFlowError):
    """An eigenvalue lies on the closed negative real axis; no principal real log."""


class Overflow(JordanFlowError):
    """Requested evaluation exceeds the floating-point exponential budget."""


class NotNilpotent(JordanFlowError):
    """Matrix is not nilpotent within tolerance."""


class GridTooLarge(JordanFlowError):
    """Input exceeds a stated budget: a chain-oracle grid that is infeasible
    (dimension, resolution or pair budget), Floquet samples above
    ``floquet.SAMPLE_BUDGET``, or a simulation leg or trajectory longer than
    ``projective.SUBSTEP_BUDGET`` substeps or rows."""


class RankAmbiguous(_WithMargins):
    """A rank decision fell too close to its singular-value threshold.

    ``margins`` maps a description of each offending decision to the ratio
    sigma / threshold.
    """


class StiffnessSuspected(JordanFlowError):
    """Integrator error estimate exceeded its budget."""


class InvariantViolated(JordanFlowError):
    """An internal consistency check failed: a defect in jordanflow, not in
    its input."""


class NoRealLog(JordanFlowError):
    """No m in the search budget yields a real logarithm of the monodromy."""
