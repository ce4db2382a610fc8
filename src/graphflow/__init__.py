"""Graph cohomology of decorated graphs and configuration-space
integrals for knots in flat 3-space."""

__version__ = "0.1.0"

import importlib.util
import sys

# numpy loads on first use, so that --version, --help and the knot cache hits
# never pay for its import.  Modules take it from here: on Python 3.11 a plain
# ``import numpy`` reads the lazy module's __spec__, which loads it at once.
_numpy = sys.modules.get("numpy")
if _numpy is None:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _numpy = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_numpy)

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
