"""Exception types shared across the package."""


class BohmlabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(BohmlabError):
    """A scenario or solver parameter is invalid or inconsistent."""


class DimensionError(BohmlabError):
    """Operands live on different grids or have incompatible shapes."""


class StepSizeError(BohmlabError):
    """Propagation detected norm drift beyond tolerance for the given dt."""


class NodeError(BohmlabError):
    """A local quantity was requested at (or too close to) a wavefunction node."""


class HorizonError(BohmlabError):
    """The time horizon does not cover the transit of the probability mass."""


class FrameAccessError(BohmlabError):
    """An evolution was asked for a record or a frame it does not keep, for
    a frame out of order, or for window rows it was not made with."""


class LagError(BohmlabError):
    """A correlation lag horizon exceeds the available record length."""


class GridRangeError(BohmlabError):
    """An outcome grid is too narrow (or too coarse) for the requested state."""


class BasisCoverageError(BohmlabError):
    """Truncated eigenbasis does not retain enough of the state's weight."""


class EmptyEnsembleError(BohmlabError):
    """An ensemble reduction was requested but no valid members remain."""


class InsufficientStatisticsError(BohmlabError):
    """Post-selection kept too few experiments for a meaningful estimate."""
