"""The flat-space propagator and the tripod's configuration integrand.

With a trivial framing on R^3 the propagator reduces to the Gauss
form: the unit-normalized area form of S^2 pulled back by the
direction map (x_j - x_i)/|x_j - x_i|.  The one integrand here is the
tripod Y's, whose edges join the knot points gamma(t_1), gamma(t_2),
gamma(t_3) to one spatial vertex x.  Contracted with the knot
tangent T_k, the form of edge k is the Biot-Savart field
B_k = (v_k x T_k) / (4 pi |v_k|^3), v_k = x - gamma(t_k), of a current
element at gamma(t_k) (Cantarella, DeTurck and Gluck, J. Math. Phys.
2001), and the top-degree wedge of the three forms is
det(B_1, B_2, B_3).  Its scalar reference, the wedge two-form by
two-form, is in ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
import math

from . import _numpy as np

FOUR_PI = 4.0 * math.pi


class CompiledIntegrand:
    """Vectorized integrand of the tripod's configuration integral.

    ``assignments`` lists the six terms of det(B_1, B_2, B_3) as
    (sign, sigma), for sign * B_1[sigma_0] * B_2[sigma_1] * B_3[sigma_2],
    sigma in lexicographic order.  The curve is not evaluated here:
    ``evaluate_batch`` takes the positions and tangents of the knot
    points, which the caller evaluates once per sample.
    """

    assignments = list(zip((1.0, -1.0, -1.0, 1.0, 1.0, -1.0), itertools.permutations(range(3))))

    def __init__(self):
        self.n = 3  # knot points
        self.t = 1  # spatial vertices

    def evaluate_batch(
        self, pos: np.ndarray, tan: np.ndarray, xvals: np.ndarray, eps_coll: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Integrand values for a batch of configurations.

        ``pos`` and ``tan``: (B, 3, 3) positions and tangents of the
        sorted knot points, evaluated once by the caller; ``xvals``:
        (B, 1, 3), the spatial vertex.  Returns (values, bad) where
        ``bad`` flags configurations inside the collision guard (their
        value is unreliable and the caller resamples them).

        It reads (coordinate, knot, B) planes, the arguments' transposes,
        contiguous when the sampler passes views of its planes.  Each r^2
        is summed from 0.0 in the order (0, 2, 1), as ``einsum`` sums, each
        component of v x T_k is formed as ``np.cross`` forms it, and the six
        terms are summed from the first, a -1 sign as a subtraction:
        V2_SHA256 pins these bits.
        """
        p, d, x = (a.transpose(2, 1, 0) for a in (pos, tan, xvals))
        v = np.subtract(x, p, order="C")  # C order keeps the power's input contiguous
        r2 = v[0] * v[0]  # a square is never -0.0, so 0.0 + v0^2 is v0^2
        r2 += v[2] * v[2]
        r2 += v[1] * v[1]
        near = r2 <= eps_coll**2
        denom = FOUR_PI * np.where(near, 1.0, r2) ** 1.5  # flagged rows: no 0/0
        # b[c][k]: component c of B_k = (v_k x T_k) / (4 pi |v_k|^3)
        b = [(v[i] * d[j] - v[j] * d[i]) / denom for i, j in ((1, 2), (2, 0), (0, 1))]
        products = ((sign, b[i][0] * b[j][1] * b[k][2]) for sign, (i, j, k) in self.assignments)
        values = next(products)[1]  # the first sign is +1
        for sign, term in products:
            (np.add if sign > 0 else np.subtract)(values, term, out=values)
        return values, near.any(axis=0)
