"""Shared exception types.

Everything raised on purpose by this package derives from KinlangError, so
callers (and the CLI) can catch one base class.  Numerical outcomes that are
legitimate data -- an infinite chi-square, an invalid certificate -- are NOT
exceptions; only contract violations are.
"""


class KinlangError(Exception):
    pass


class NotPositiveDefinite(KinlangError):
    """A matrix required to be (sufficiently) positive definite is not."""


class NotSymmetric(KinlangError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NonPositiveFrequency(KinlangError):
    """A potential was given a frequency v_i <= 0, or one whose square overflows."""


class ConvexityLost(KinlangError):
    """A perturbation is large enough to destroy strong convexity."""


class UnsupportedFriction(KinlangError):
    """The operation only supports specific friction kinds."""


class NumericalBlowup(KinlangError):
    """A simulated trajectory left the trusted numerical range.

    step_index is the step whose new state failed; particle, coordinate and
    block ("positions" or "momenta") name its first untrusted entry, in
    row-major order over the particles' (q, p) rows."""

    def __init__(self, message, step_index=None, particle=None,
                 coordinate=None, block=None):
        super().__init__(message)
        self.step_index = step_index
        self.particle = particle
        self.coordinate = coordinate
        self.block = block


class DegenerateS(KinlangError):
    """Weight-matrix coefficients with b*c - a^2 <= 0."""


class NonPositiveDenominator(KinlangError):
    """A rate-formula denominator that must be positive is not."""


class InvalidCoefficients(KinlangError):
    """Coefficients violate the constraint(s) required by the rate bound."""


class WitnessNotFound(KinlangError):
    """The witness search exhausted its cap without satisfying the conditions."""


class InsufficientData(KinlangError):
    """Too few samples for the requested fit."""


class NonPositiveValues(KinlangError):
    """Data that must be strictly positive (for a log fit) is not."""


class ConfigError(KinlangError):
    """Invalid experiment configuration; message names the offending field."""
