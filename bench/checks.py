"""Output checks for every command the benchmark times.

Each check returns ``None`` when the output is right and a one-line
reason when it is not; a wrong output counts as a failed operation.
The checks test invariants (the paper's a2 values, M v = 0, rank-nullity,
byte identity) rather than pinned basis sizes, so that a smaller but
correct graph complex still passes them.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

#: a2 (the z^2 Conway coefficient) of the bundled knots.
A2 = {"circle": 0, "trefoil": 1, "figure_eight": -1, "torus_2_5": 3}
#: v2(K) - v2(circle) must lie within this many sigma_diff of a2(K).
#: Over 40 seeds at each of the benchmark's sample counts, 2.5e4 and
#: 2e5, the largest |z| was 3.5; with near-normal z the chance of a
#: false failure is about 1e-4 per comparison.
V2_SIGMAS = 4.0
#: Allowance for rounding in the linking-number quadrature sums, whose
#: reported error |fine - coarse| can be smaller than one ulp of the sum.
LK_ROUNDING = 1e-12
#: Two primes below 2**31, so that products of residues fit in int64.
PRIMES = (2147483647, 2147483629)


def parse(stdout: str, command: str):
    """The JSON document of a command, or a reason it is not one."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"
    if not isinstance(doc, dict) or doc.get("command") != command:
        return None, f"stdout is not a {command!r} result"
    return doc, None


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def check_v2(results: dict[str, dict]) -> dict[str, str]:
    """v2(K) - v2(circle) = a2(K) within V2_SIGMAS * sigma_diff.

    ``results`` maps knot names to the ``result`` objects of one seed;
    returns a reason for each knot that fails.
    """
    errors = {}
    for knot, res in results.items():
        if not (_finite(res.get("value"), res.get("std_error")) and res["std_error"] > 0):
            errors[knot] = f"v2 {knot}: value/std_error not finite and positive"
    base = results.get("circle")
    if base is None or "circle" in errors:
        return {k: errors.get(k, "v2 circle missing or invalid") for k in results}
    for knot, res in results.items():
        if knot == "circle" or knot in errors:
            continue
        diff = res["value"] - base["value"]
        sigma = math.hypot(res["std_error"], base["std_error"])
        if not abs(diff - A2[knot]) <= V2_SIGMAS * sigma:
            errors[knot] = (
                f"v2({knot}) - v2(circle) = {diff:.4f}, a2 = {A2[knot]}, "
                f"{V2_SIGMAS} sigma = {V2_SIGMAS * sigma:.4f}"
            )
    return errors


def check_a2(result: dict, knot: str) -> str | None:
    if result.get("a2") != A2[knot]:
        return f"a2({knot}) = {result.get('a2')!r}, expected {A2[knot]}"
    return None


def check_lk(result: dict) -> str | None:
    value, err = result.get("value"), result.get("std_error")
    if not _finite(value, err) or abs(abs(value) - 1.0) > err + LK_ROUNDING:
        return f"lk = {value!r} +- {err!r} is not 1 in absolute value"
    return None


def check_sln(result: dict) -> str | None:
    if not (_finite(result.get("value"), result.get("std_error")) and result["std_error"] >= 0):
        return "sln value/std_error not finite"
    return None


def check_same_output(first_stdout: str, stdout: str) -> str | None:
    """Commands with identical arguments must print identical bytes:
    a cache replay, a rerun with the same seed, a traced run."""
    if stdout != first_stdout:
        return "stdout differs from an earlier run with the same arguments"
    return None


# --- exact checks for the cocycle computation ---


def _mod(x: Fraction, p: int) -> int:
    if x.denominator == 1:
        return x.numerator % p
    return x.numerator * pow(x.denominator, p - 2, p) % p


def rank_mod_p(rows: list[dict[int, Fraction]], ncols: int, p: int) -> int:
    """Rank over GF(p) of sparse rows ({column: value}), by Gaussian
    elimination on int64 residues."""
    if not rows or not ncols:
        return 0
    a = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for c, x in row.items():
            a[i, c] = _mod(Fraction(x), p)
    r = 0
    for c in range(ncols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        a[[r, piv]] = a[[piv, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), p - 2, p) % p
        below = a[r + 1 :, c].copy()
        a[r + 1 :, c:] = (a[r + 1 :, c:] - below[:, None] * a[r, c:]) % p
        r += 1
        if r == a.shape[0]:
            break
    return r


def rank(rows: list[dict[int, Fraction]], ncols: int) -> int:
    """Rank over Q, computed modulo primes (never above the true rank)."""
    return max(rank_mod_p(rows, ncols, p) for p in PRIMES)


def _as_columns(sum_obj, index: dict) -> dict[int, Fraction] | None:
    """A serialized GraphSum as {basis column: coefficient}."""
    out = {}
    for term in sum_obj:
        col = index.get(json.dumps(term["graph"], sort_keys=True))
        if col is None:
            return None
        out[col] = Fraction(term["coeff"])
    return out


def check_cocycles(result: dict, basis0: list[dict], matrix, paper_cocycle=None) -> str | None:
    """The kernel reported by ``graphs cocycles`` against ``delta_matrix``.

    ``basis0`` holds the JSON objects of the matrix columns and
    ``matrix`` its rows (Fractions, from ``solver.delta_matrix``).
    Checks that the reported basis is the column basis, that M v = 0 for
    every kernel vector (a sparse integer product), that the vectors are
    independent and that their number is cols - rank(M) with the rank
    taken modulo primes, and that ``paper_cocycle`` (a serialized
    GraphSum) lies in their span.
    """
    if result.get("basis") != basis0:
        return "reported basis differs from the delta_matrix columns"
    ncols = len(basis0)
    index = {json.dumps(g, sort_keys=True): c for c, g in enumerate(basis0)}
    rows = [{c: Fraction(x) for c, x in enumerate(row) if x} for row in matrix]
    columns: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, x in row.items():
            if x.denominator != 1:
                return "delta_matrix has a non-integer entry"
            columns[c].append((r, int(x)))
    kernel = []
    for k, sum_obj in enumerate(result.get("kernel", [])):
        vec = _as_columns(sum_obj, index)
        if not vec:
            return f"kernel vector {k} is empty or uses a graph outside the basis"
        scale = math.lcm(*(x.denominator for x in vec.values()))
        acc: dict[int, int] = {}
        for c, x in vec.items():
            xi = int(x * scale)
            for r, a in columns[c]:
                acc[r] = acc.get(r, 0) + a * xi
        if any(acc.values()):
            return f"kernel vector {k} is not killed by delta (M v != 0)"
        kernel.append(vec)
    nullity = ncols - rank(rows, ncols)
    if len(kernel) != nullity:
        return f"{len(kernel)} kernel vectors, but cols - rank = {nullity}"
    if rank(kernel, ncols) != len(kernel):
        return "kernel vectors are linearly dependent"
    if paper_cocycle is not None:
        vec = _as_columns(paper_cocycle, index)
        if vec is None:
            return "the paper's cocycle uses a graph outside the basis"
        if rank(kernel + [vec], ncols) != len(kernel):
            return "the paper's cocycle is not in the span of the kernel"
    return None
