"""Exception types shared across the package.

The CLI maps these to exit codes: ConfigError family -> 2,
CapError family -> 3, OSError -> 4.
"""


class ConfigError(ValueError):
    """Invalid argument, spec string, or out-of-range parameter."""


class InvalidRangeError(ConfigError):
    """Window bounds violate lo < hi or sign constraints."""


class NotCoprimeError(ConfigError):
    """d and t share a factor; the counting sums only range over coprime pairs."""


class AlphaParseError(ConfigError):
    """Alpha spec string failed to parse."""


class NotIrrationalError(AlphaParseError):
    """Alpha spec denotes a rational number."""


class NonPositiveAlphaError(AlphaParseError):
    """Alpha spec denotes a non-positive number."""


class CapError(RuntimeError):
    """A configured cap or budget was exceeded; caller should shrink the request."""


class WindowTooLargeError(CapError):
    """Requested sieve window exceeds the segment cap; split it."""


class RangeCapError(CapError):
    """Requested value exceeds the configured global maximum."""


class BudgetExceededError(CapError):
    """Aggregate work estimate exceeds the evaluation budget."""


class PrecisionExhaustedError(RuntimeError):
    """Interval refinement hit the hard bit cap.

    This signals a representation bug, never a genuine ambiguity: once
    poly_root's grid test passes, the isolating interval holds no rational
    root, and floors of irrational multiples are always decidable at finite
    precision.
    """
