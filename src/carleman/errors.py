"""Exception types shared across the toolkit."""


class CarlemanError(Exception):
    """Base class for all toolkit errors."""


class GuardExceeded(CarlemanError):
    """An infimum over k <= K_max hit the boundary index K_max with terms
    still decreasing, so the reported value would not be the true
    infimum.  The argument r is too small for K_max."""


class ArityMismatch(CarlemanError):
    """Jet operands disagree in variable counts, base point, or budget."""


class BudgetExhausted(CarlemanError):
    """A jet operation needs more polynomial degree than the budget holds."""


class QuadratureTooCoarse(CarlemanError):
    """Disk-kernel normalization missed its certification tolerance."""


class FitFailed(CarlemanError):
    """No constant on the search grid satisfies the target inequality."""


class Undersampled(CarlemanError):
    """Grid spacing too coarse to resolve the requested FBI frequency."""


class NonFiniteSamples(CarlemanError):
    """Grid samples hold NaN or infinity, so no transform of them is
    meaningful."""


class NoCone(CarlemanError):
    """No sampled direction admits a phase-bound constant above the floor."""


class NoRegularDirection(CarlemanError):
    """Every direction of a two-dimensional scan failed, so no band stands
    out against regular directions and the scan has no verdict."""


class TrustBoxExceeded(CarlemanError):
    """Sample values leave the region where a jet is trusted."""


class SingularJacobian(CarlemanError):
    """Z_x is numerically singular at some sample (condition number too large)."""


class ConfigError(CarlemanError):
    """Malformed or inconsistent CLI configuration."""
