"""Exception types shared across the package."""


class FquantError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(FquantError):
    """Array shape does not match the path space it is used with."""

    def __init__(self, expected, got, what="path"):
        self.expected = tuple(expected)
        self.got = tuple(got)
        super().__init__(f"{what} shape {self.got} does not match expected {self.expected}")


class SimulationError(FquantError):
    """Path sampler could not produce the requested sample."""


class OptimizeError(FquantError):
    """Codebook optimization failed."""


class DivergenceError(OptimizeError):
    """Stochastic search diverged; carries the trace collected so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class OracleError(FquantError):
    """Counterexample oracle got invalid inputs (bad probabilities, coarse grid, ...)."""


class ConfigError(FquantError):
    """Experiment config file could not be parsed or validated."""
