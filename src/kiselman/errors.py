"""Exception types shared across the package."""

__all__ = ["ValidationError", "DomainError", "ResourceLimitError", "InvariantError"]


class ValidationError(ValueError):
    """Malformed input: letters out of range, rank mismatches, bad word text."""


class DomainError(ValueError):
    """An operation was applied to a value outside its mathematical domain."""


class ResourceLimitError(RuntimeError):
    """An explicit search or enumeration budget was exhausted."""


class InvariantError(RuntimeError):
    """A structural fact the package relies on failed to hold at runtime."""
