"""Exception hierarchy. Each class maps to one failure category so callers
(and the CLI exit-code table) can tell config, build, and solve problems apart."""


class LchsError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(LchsError):
    """Input matrix/vector has the wrong shape."""


class HermiticityError(LchsError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class RangeError(LchsError):
    """A parameter or result is outside the supported range."""


class QuadratureError(LchsError):
    """Adaptive quadrature failed to reach the requested accuracy."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class PropagationError(LchsError):
    """A unitary propagation step failed."""


class BuildError(LchsError):
    """A problem builder received inconsistent physical parameters."""


class PreconditionError(LchsError):
    """A documented precondition (e.g. the positivity gate) is violated."""


class FitError(LchsError):
    """Scaling-law fit received unusable data."""


class ConfigError(LchsError):
    """Run configuration failed schema validation."""

    def __init__(self, message, pointer=""):
        super().__init__(message)
        self.pointer = pointer
