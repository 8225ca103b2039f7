"""Exception types shared across the package."""


class FidelityQError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FidelityQError, ValueError):
    """Invalid or unparseable configuration input."""


class InvalidRatesError(FidelityQError, ValueError):
    """Chain rates produce an invalid per-step transition row."""


class SupportTooSmallError(FidelityQError, ValueError):
    """Requested sojourn mean does not fit inside the configured support."""


class TailMassError(FidelityQError, ValueError):
    """Truncated PMF leaves more tail mass than the tolerance allows."""


class InadmissibleRestError(FidelityQError, ValueError):
    """Rest requested from a state at or below the resting target level."""


class GridTooLargeError(FidelityQError, ValueError):
    """Sweep grid has more points than the configured budget."""


class PolicyMismatchError(FidelityQError, ValueError):
    """Loaded policy does not cover the model's state space."""


class GuaranteeViolationError(FidelityQError, RuntimeError):
    """A property the checker proves from the model inputs failed numerically.

    Raised only when a guaranteed implication is violated, which indicates
    a bug in the implementation rather than an unlucky configuration.
    """
