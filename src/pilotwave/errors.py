"""Exception taxonomy shared across the package.

Every error raised on purpose by this package derives from PilotwaveError,
so callers can catch one base class.  The command-line layer maps each
subclass to a distinct exit code; the table is in the cli module
docstring.
"""


class PilotwaveError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(PilotwaveError):
    """A physical parameter or argument is outside its admissible range."""


class ConfigError(ParameterError):
    """A run configuration file could not be parsed or validated."""


class NodeProximityError(PilotwaveError):
    """The probability density at the requested point is below rho_floor.

    Gradients of the phase and of log rho are not reliable there; callers
    that can tolerate a node should use the clipped observables instead.
    """


class AxisProximityError(PilotwaveError):
    """A point (or a trajectory) came too close to the polar axis.

    The azimuthal velocity carries a 1/sin(theta) factor, so the equations
    of motion degenerate on the axis.  Carries the last good state when
    raised from the integrator.

    Attributes
    ----------
    tau : float or None
        Scaled time at which the guard fired, when known.
    state : tuple or None
        Last accepted (xi, theta, phi), when known.
    """

    def __init__(self, message, tau=None, state=None):
        super().__init__(message)
        self.tau = tau
        self.state = state


class OffSheetError(PilotwaveError):
    """A point does not lie on the sheet of the invariant surface.

    The surface xi = 2/(A sin(theta) - 1) only exists where
    A sin(theta) > 1; residuals are undefined elsewhere.
    """


class IntegrationError(PilotwaveError):
    """The adaptive integrator could not continue (step-size underflow).

    Attributes
    ----------
    tau : float or None
        Scaled time of the last accepted step.
    state : tuple or None
        Last accepted (xi, theta, phi).
    """

    def __init__(self, message, tau=None, state=None):
        super().__init__(message)
        self.tau = tau
        self.state = state
