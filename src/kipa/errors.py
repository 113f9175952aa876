"""Exception types shared across the toolkit.

Every error raised by kipa derives from :class:`KipaError`, split into a
validation family (bad inputs, caught before any computation) and a
numerical family (the computation itself cannot proceed or converge).
The CLI maps these onto distinct exit codes.
"""


class KipaError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(KipaError, ValueError):
    """Invalid parameters or malformed input."""


class InvalidParameter(ValidationError):
    pass


class ConfigError(ValidationError):
    """Config document problem, carrying location info when available."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}" + (f", col {column}" if column is not None else "") + f": {message}"
        super().__init__(message)


class NumericalError(KipaError, ArithmeticError):
    """A computation hit a singular, divergent, or non-convergent state."""


class DegenerateInverter(NumericalError):
    """Zero modulation strength: no amplification inverter exists."""


class SingularNetwork(NumericalError):
    pass


class PoleAtOperatingPoint(NumericalError):
    """Effective-admittance denominator vanished: parametric oscillation threshold."""


class NoGain(NumericalError):
    """Re[Y_eff] >= 0: no negative resistance at this operating point."""


class SuperconductivityBreakdown(NumericalError):
    """Bias or total current at/beyond the breakdown scale of the film model."""


class SynthesisInfeasible(NumericalError):
    """No positive real element value satisfies the synthesis equations."""


class InsufficientData(NumericalError):
    pass


class UnphysicalEnvironment(NumericalError):
    """Environment impedance with non-positive real part in the requested band."""


class FitFailure(NumericalError):
    """Nonlinear fit did not converge; carries solver diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
