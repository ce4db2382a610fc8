"""Exception hierarchy shared across the package."""


class GraphflowError(Exception):
    """Base class for all library errors."""


class InvalidGraph(GraphflowError):
    """A decorated graph violates a structural invariant."""


class NotRegular(GraphflowError):
    """Edge endpoints are connected by more than one edge (or arc)."""


class NotContractible(GraphflowError):
    """The knot-flavor contraction rule forbids this edge."""


class ResourceLimit(GraphflowError):
    """A request exceeds a bound: enumeration's vertex/edge bounds or the sample count."""


class GradeMismatch(GraphflowError):
    """Terms of a graph sum do not share a single (order, degree)."""


class InvalidParams(GraphflowError):
    """Bad input: a curve's parameters or file, or a grid, sample or direction count."""


class CurveValidationError(GraphflowError):
    """A curve fails closedness, regularity or embeddedness.

    ``invariant`` names the violated check ("closed" / "regular" /
    "embedded").
    """

    def __init__(self, invariant: str, message: str):
        super().__init__(message)
        self.invariant = invariant


class DegenerateProjection(GraphflowError):
    """Projection direction produced tangencies or unstable crossings."""


class InconsistentDiagram(GraphflowError):
    """Gauss diagram fails internal consistency checks."""


class UnsupportedGraph(GraphflowError):
    """Graph is outside what the Monte Carlo evaluator supports."""


class CurvesIntersect(GraphflowError):
    """Two curves passed to the linking integral are not disjoint."""
