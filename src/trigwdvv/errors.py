"""Exception types shared across the package."""


class TrigWdvvError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(TrigWdvvError, ValueError):
    """Invalid family parameters (bad dimensions, nonpositive m where required, ...)."""


class DimensionError(TrigWdvvError, ValueError):
    """Operands have incompatible dimensions."""


class DimensionCapError(TrigWdvvError, ValueError):
    """Requested fermionic space exceeds the supported size (n <= 5, dim = 2^(2n))."""


class DomainError(TrigWdvvError, ValueError):
    """Argument outside a function's domain (e.g. the prepotential needs z > 0)."""


class SingularityError(TrigWdvvError, ArithmeticError):
    """Evaluation point too close to a hyperplane (alpha, x) = 0 of the configuration."""


class SingularMatrixError(TrigWdvvError, ArithmeticError):
    """A metric or pivot matrix is numerically singular."""


class DegenerateHError(TrigWdvvError, ArithmeticError):
    """The scalar h(x) is too close to zero for the decomposition to be meaningful."""


class ConfigFormatError(TrigWdvvError, ValueError):
    """Configuration document is malformed or missing required fields."""


class PreconditionError(TrigWdvvError, ValueError):
    """A run or operation precondition is violated."""


class SamplingError(TrigWdvvError, RuntimeError):
    """Rejection sampling found no admissible point within the attempt cap, or a
    run discarded more sample points than the cap allows."""
