"""Exception types raised by the solver and its supporting modules."""


class PsletError(Exception):
    """Base class for all errors raised by this package."""


class SingularPadeSystem(PsletError):
    """The Pade denominator system is singular or too ill-conditioned to trust."""


class PoleProximity(PsletError):
    """A Pade denominator vanishes too close to the requested evaluation point."""


class NonPositiveRadius(PsletError):
    """A radial coordinate must be strictly positive."""


class NoRootInDomain(PsletError):
    """No expansion origin was found in the scanned radial interval."""

    def __init__(self, message: str, q_lo: float | None = None, q_hi: float | None = None):
        super().__init__(message)
        self.q_lo = q_lo
        self.q_hi = q_hi


class OmegaDomainError(PsletError):
    """The squared oscillator frequency 3 + q V''/V' is not positive."""


class ZeroPivot(PsletError):
    """An elimination pivot vanished while solving the correction hierarchy."""


class HierarchyResidual(PsletError):
    """A half-order of the correction hierarchy left a residual above rounding level."""


class OrderOverflow(PsletError):
    """A correction order beyond the supported cap was requested."""


class NonIntegralCluster(PsletError):
    """The strong-field clustering rule produced a non-integral radial index."""


class NotConverged(PsletError):
    """Grid refinement did not converge to the requested accuracy."""


class DomainTooSmall(PsletError):
    """The eigenvector still has significant amplitude at the outer boundary."""
