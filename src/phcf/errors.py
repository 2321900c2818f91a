"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class UnsupportedOperationError(TypeError):
    """The operation is undefined for the given configuration,
    e.g. a spectral routine called with params whose potential is a
    CustomDerivative rather than the quadratic one."""


class NumericalBlowupError(RuntimeError):
    """The integrated state left the finite range.

    Carries the failing step index, the corresponding time, and the
    trajectory recorded up to the last valid sample (``partial``).
    """

    def __init__(self, message, step=None, time=None, partial=None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.partial = partial


class EigenSolverError(RuntimeError):
    """The dense eigenvalue iteration did not converge."""
