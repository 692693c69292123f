"""Exception types raised by the solver and its supporting modules, and the
integer check its entry points share."""

import operator


class PsletError(Exception):
    """Base class for all errors raised by this package."""


class SingularPadeSystem(PsletError):
    """The Pade denominator system is singular or too ill-conditioned to trust."""


class PoleProximity(PsletError):
    """A Pade denominator vanishes too close to the requested evaluation point."""


class NonPositiveRadius(PsletError):
    """A radial coordinate must be strictly positive."""


class NoRootInDomain(PsletError):
    """No expansion origin was found in the scanned radial interval, or the
    double-double Newton step on the frequency equation did not converge."""


class OmegaDomainError(PsletError):
    """The squared oscillator frequency 3 + q V''/V' is not positive."""


class ZeroPivot(PsletError):
    """An elimination pivot vanished while solving the correction hierarchy."""


class HierarchyResidual(PsletError):
    """A half-order of the correction hierarchy left a residual above rounding level."""


class OrderOverflow(PsletError):
    """A correction order beyond the supported cap was requested."""


class NonIntegralCluster(PsletError):
    """The strong-field clustering rule produced a negative radial index."""


class NotConverged(PsletError):
    """Grid refinement did not converge to the requested accuracy."""


class DomainTooSmall(PsletError):
    """The eigenvector still has significant amplitude at the outer boundary."""


class SeriesTableMismatch(PsletError):
    """The compiled correction table was built for another order or k range."""


class OutsideSeriesTable(PsletError):
    """A state needs double-double corrections at a node count k past the compiled table."""


def check_integers(**numbers) -> None:
    """A quantum number that is not an int or a numpy integer is a ValueError."""
    for name, value in numbers.items():
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
