"""Exception types shared across the package."""


class GaussFlowError(Exception):
    """Base class for all package-specific errors."""


class AxisError(GaussFlowError):
    """Invalid axis pair for a sectional-curvature plane."""


class UnsupportedParam(GaussFlowError):
    """Parameter combination outside what this version implements."""


# binary64 overflows near exp(709); callers treat a raised guard as a
# position-blow-up signal, never as silent saturation
EXP_GUARD = 700.0


class OverflowGuard(GaussFlowError):
    """Conformal exponent exceeded the binary64 guard (position blow-up regime)."""

    def __init__(self, exponent: float):
        self.exponent = float(exponent)
        super().__init__(f"conformal exponent {exponent:.6g} exceeds guard {EXP_GUARD:g}")


def guard_exponent(exponent: float) -> float:
    """Return a conformal exponent, or raise OverflowGuard once it reaches EXP_GUARD."""
    if exponent >= EXP_GUARD:
        raise OverflowGuard(exponent)
    return exponent


class DegenerateMesh(GaussFlowError):
    """An edge length or face area underflowed the degeneracy tolerance."""


class TimestepUnderflow(GaussFlowError):
    """Stable explicit timestep fell below dt_min."""

    def __init__(self, dt: float, dt_min: float):
        self.dt = float(dt)
        self.dt_min = float(dt_min)
        super().__init__(f"stable dt {dt:.6g} below floor {dt_min:.6g}")


class InvalidConfig(GaussFlowError):
    """Malformed or out-of-range configuration."""


class DomainError(GaussFlowError):
    """Closed-form expression evaluated outside its domain of validity."""


class MismatchedTimes(GaussFlowError):
    """Two time series that must share sample times do not."""


class HypothesisViolated(GaussFlowError):
    """Preconditions of a barrier/comparison claim do not hold for the given data."""


class IoError(GaussFlowError):
    """File could not be read or written in the expected format."""
