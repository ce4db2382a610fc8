"""Graph cohomology of decorated graphs and configuration-space
integrals for knots in flat 3-space."""

__version__ = "0.1.0"

from .graphs import (  # noqa: F401
    CanonicalResult,
    DecoratedGraph,
    Flavor,
    GraphSum,
    canonicalize,
    contract_edge,
    delta,
    enumerate_graphs,
    grade,
    knot_order2_cocycle,
    manifold_order2_cocycle,
)
