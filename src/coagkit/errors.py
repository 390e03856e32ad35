"""Exception types shared across the package."""


class CoagKitError(Exception):
    """Base class for all package errors."""


class DomainError(CoagKitError):
    """Input outside the mathematical domain of an operation."""


class ArgumentError(DomainError):
    """An argument its function refuses: the message is the parameter's
    ``name`` followed by the ``reason``."""

    def __init__(self, name: str, reason: str):
        super().__init__(f"{name} {reason}")
        self.name, self.reason = name, reason


class UnsupportedFamilyError(CoagKitError):
    """Operation requested for a kernel family it does not support."""


class GridError(CoagKitError):
    """Invalid or incompatible size grid."""


class ConstructionError(CoagKitError):
    """Constructive failure of the convex-function builder.

    ``index`` is the first breakpoint index whose tail constraint could not
    be met.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class ConfigError(CoagKitError):
    """Invalid run configuration."""
