"""The flat-space propagator and the tripod's configuration integrand.

With a trivial framing on R^3 the propagator reduces to the Gauss
form: the unit-normalized area form of S^2 pulled back by the
direction map (x_j - x_i)/|x_j - x_i|.  The one graph integrated by
Monte Carlo is the tripod Y, whose edges join the knot points
gamma(t_1), gamma(t_2), gamma(t_3) to one spatial vertex x.  Contracted
with the knot tangent T_k, the form of edge k is the Biot-Savart field
B_k = (v_k x T_k) / (4 pi |v_k|^3), v_k = x - gamma(t_k), of a current
element at gamma(t_k) (Cantarella, DeTurck and Gluck, J. Math. Phys.
2001), and the top-degree wedge of the three forms is
det(B_1, B_2, B_3).  Its scalar reference, the wedge two-form by
two-form, is in ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import UnsupportedGraph
from .graphs import DecoratedGraph, knot_order2_graphs

FOUR_PI = 4.0 * np.pi


class CompiledIntegrand:
    """Vectorized integrand of the tripod's configuration integral.

    ``assignments`` lists the six terms of det(B_1, B_2, B_3) as
    (sign, sigma), for sign * B_1[sigma_0] * B_2[sigma_1] * B_3[sigma_2],
    sigma in lexicographic order.  The curve is not evaluated here:
    ``evaluate_batch`` takes the positions and tangents of the knot
    points, which the caller evaluates once per sample.
    """

    assignments = list(zip((1.0, -1.0, -1.0, 1.0, 1.0, -1.0), itertools.permutations(range(3))))

    def __init__(self, graph: DecoratedGraph):
        if graph != knot_order2_graphs()[1]:
            raise UnsupportedGraph("the Monte Carlo integrand exists for the tripod only")
        self.n = graph.n_ext
        self.t = graph.n_int

    def evaluate_batch(
        self, pos: np.ndarray, tan: np.ndarray, xvals: np.ndarray, eps_coll: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Integrand values for a batch of configurations.

        ``pos`` and ``tan``: (B, 3, 3) positions and tangents of the
        sorted knot points, evaluated once by the caller; ``xvals``:
        (B, 1, 3), the spatial vertex.  Returns (values, bad) where
        ``bad`` flags configurations inside the collision guard (their
        value is unreliable and the caller resamples them).
        """
        bad = np.zeros(pos.shape[0], dtype=bool)
        fields = []
        for k in range(self.n):
            v = xvals[:, 0] - pos[:, k]
            r2 = np.einsum("bi,bi->b", v, v)
            bad |= (near := r2 <= eps_coll**2)
            denom = FOUR_PI * np.where(near, 1.0, r2) ** 1.5  # flagged rows: no 0/0
            fields.append([c / denom for c in _cross(v, tan[:, k])])
        b1, b2, b3 = fields
        # products left to right, summed from the first term: V2_SHA256 pins it
        terms = (sign * (b1[p] * b2[q] * b3[r]) for sign, (p, q, r) in self.assignments)
        values = next(terms)
        for term in terms:
            values += term
        return values, bad


def _cross(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The components of a x b for (B, 3) arrays, each formed as one
    product minus another, as numpy's cross product forms them."""
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    b0, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
