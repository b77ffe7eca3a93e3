"""Exception types shared across the package."""


class TrigWdvvError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(TrigWdvvError, ValueError):
    """Invalid family parameters (bad dimensions, nonpositive m where required, ...)."""


class DimensionError(TrigWdvvError, ValueError):
    """Operands have incompatible dimensions."""


class DomainError(TrigWdvvError, ValueError):
    """Argument outside a function's domain (e.g. the prepotential needs z > 0)."""


class SingularityError(TrigWdvvError, ArithmeticError):
    """Evaluation point too close to a hyperplane (alpha, x) = 0 of the configuration."""


class ConfigFormatError(TrigWdvvError, ValueError):
    """Configuration document is malformed or missing required fields."""


class PreconditionError(TrigWdvvError, ValueError):
    """A run or operation precondition is violated."""


class SamplingError(TrigWdvvError, RuntimeError):
    """Rejection sampling found no admissible point within the attempt cap, or a
    run discarded more sample points than the cap allows."""
