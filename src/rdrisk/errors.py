"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the domain a function is defined on."""
