"""Exception types shared across the package."""


class LatticeError(Exception):
    """Base class for all lattice-homog errors."""


class UnknownNode(LatticeError):
    """A queried node is not part of the graph's fundamental cell."""


class DisconnectedGraph(LatticeError):
    """The infinite periodic graph is not connected.

    Carries `reason` ("quotient" or "sublattice") and supporting data:
    for "quotient" the node sets of two components, for "sublattice" the
    reduced basis of the proper translation subgroup.
    """

    def __init__(self, message, reason=None, detail=None):
        super().__init__(message)
        self.reason = reason
        self.detail = detail


class EmptyWindow(LatticeError):
    """A window instantiation was requested over an empty cell box."""


class InvalidDirection(LatticeError):
    """A direction vector has the wrong length or non-finite entries."""


class NoConvergence(LatticeError):
    """An iterative solve hit its iteration cap or broke down, or a reduced
    system is singular (a free component without a pinned neighbour).

    `residual` holds the norm achieved when an iterative solve stopped.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class TooLarge(LatticeError):
    """The dense brute-force oracle refuses cells above its size cap."""


class WindowTooSmall(LatticeError):
    """A finite-window problem is degenerate (window smaller than two periods)."""


class CellOutOfWindow(LatticeError):
    """A coarse-graining cell index lies outside the sampled window."""


class DatumUndefined(LatticeError):
    """A boundary datum could not be evaluated where a constraint needs it."""


class EmptyInterior(LatticeError):
    """A Dirichlet problem has no free vertex."""


class UnsupportedDimension(LatticeError):
    """The requested operation is only implemented for d in {1, 2}."""
