"""Exception types shared across the package."""


class TransientImpactError(Exception):
    """Base class for all domain errors raised by this package."""


class GridMismatch(TransientImpactError):
    """Inputs defined on different grids or trees were combined."""


class MonotonicityViolation(TransientImpactError):
    """Depth decay condition failed: the liquidity curve is not strictly decreasing."""


class TerminalNotZero(TransientImpactError):
    """An operation that requires full liquidation got a schedule with open terminal position."""


class NoSignChange(TransientImpactError):
    """A tree node has no pair of children with increments of opposite sign."""


class SuperReplicationViolated(TransientImpactError):
    """Claimed super-replicating pair (cash, schedule) falls short of the payoff."""


class InfeasibleCertificate(TransientImpactError):
    """Dual certificate is not one: its martingale drifts under its measure or leaves the price band."""


class NotApplicable(TransientImpactError):
    """Closed-form result invoked outside of its preconditions."""


class NonFiniteInput(TransientImpactError, ValueError):
    """A numeric input holds NaN or infinity."""


class WeakDualityViolated(TransientImpactError):
    """A dual value exceeds the primal value by more than rounding."""
