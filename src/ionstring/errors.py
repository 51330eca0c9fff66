"""Exception types raised by the numerical routines."""


class IonstringError(Exception):
    """Base class for package-specific failures."""


class ConvergenceError(IonstringError):
    """An iterative solver failed to reach its tolerance."""


class ZigzagInstabilityError(IonstringError):
    """Radial confinement too weak for a linear chain (negative mode)."""


class ResonanceGuardError(IonstringError):
    """A mode detuning fell below the configured resonance guard."""


class DimensionCapError(IonstringError):
    """Requested Hilbert-space size exceeds the configured cap."""


class PropagationBudgetError(IonstringError):
    """A propagation would need more steps than its fixed budget."""


class FockCutoffError(IonstringError):
    """Population leaked into the truncation boundary of the Fock basis."""


class FitError(IonstringError):
    """A regression or nonlinear fit could not be performed."""
