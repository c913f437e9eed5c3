"""Exception types shared across the package."""

__all__ = [
    "SpectrumGameError", "NoUsableSpectrumError", "OracleScaleError", "DegenerateGameError",
    "NoPureNashError", "EnsembleUnstableError", "ScenarioError",
]


class SpectrumGameError(Exception):
    """Base class for domain errors raised by this package."""


class NoUsableSpectrumError(SpectrumGameError):
    """Water-filling was asked to allocate power over all-zero channel gains."""


class OracleScaleError(SpectrumGameError):
    """A grid oracle or leader search was asked for more work than its size cap."""


class DegenerateGameError(SpectrumGameError):
    """The game has no interior mixed equilibrium to solve for."""


class NoPureNashError(SpectrumGameError):
    """Best-response dynamics cycled without reaching a pure Nash equilibrium."""


class EnsembleUnstableError(SpectrumGameError):
    """Too many channel realizations were rejected for non-convergence."""


class ScenarioError(SpectrumGameError):
    """A scenario document failed validation.

    Carries the path of the offending field so command-line users get a
    pinpointed diagnostic instead of a stack trace.
    """

    def __init__(self, path, message):
        self.path = path
        self.reason = message
        super().__init__(f"{path}: {message}" if path else message)
