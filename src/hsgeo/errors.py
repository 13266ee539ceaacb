"""Exception types raised by the numerical kernels."""


class HsError(Exception):
    """Base class for all package-specific failures."""


class NonZeroMean(HsError):
    """Input to an inverse-Laplacian style operation has nonzero mean."""


class Singular(HsError):
    """A closed-form denominator vanished at the requested time."""


class BlowupReached(HsError):
    """Requested time is at or past the first breakdown of the flow map."""


class FactorOverflow(HsError):
    """Branch factors of the closed-form flow overflow the float range."""


class NotInvertible(HsError):
    """Flow map is too degenerate to invert on the grid."""


class NotInU(HsError):
    """Point lies on the pseudosphere but outside the diffeomorphism chart."""


class NotAdmissible(HsError):
    """Initial data violates the hypotheses of the global weak flow."""


class DegeneratePlane(HsError):
    """Sectional curvature requested for a numerically degenerate 2-plane."""


class StepUnstable(HsError):
    """Time stepper produced values beyond the stability guard."""
