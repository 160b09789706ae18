"""Exception hierarchy shared by all l1conc modules."""


class ValidationError(ValueError):
    """An input violates a precondition: a shape, sign or sum, or the domain
    of a closed-form formula."""


class CapacityError(RuntimeError):
    """An exact computation was requested whose size exceeds its cap."""


class ConfigError(ValueError):
    """An experiment configuration is syntactically or semantically invalid."""
