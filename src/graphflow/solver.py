"""Exact rational linear algebra for the coboundary matrix and its kernel:
sparse rows of Fractions, read straight from ``delta``, reduced exactly."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import DecoratedGraph, Flavor, GraphSum, delta, enumerate_graphs, graph_grade


@dataclass(frozen=True)
class RationalMatrix:
    """Sparse rational matrix: ``sparse_rows[r]`` maps row r's nonzero columns to entries."""

    cols: int
    sparse_rows: list[dict[int, Fraction]]

    @property
    def rows(self) -> int:
        return len(self.sparse_rows)

    @property
    def entries(self) -> list[list[Fraction]]:
        """Dense rows, built on each access, for the benchmark's kernel
        check and the dense test oracles only; it goes once that check
        reads ``sparse_rows`` (ROADMAP item 1)."""
        zero = Fraction(0)
        return [[row.get(c, zero) for c in range(self.cols)] for row in self.sparse_rows]


def delta_matrix(
    flavor: Flavor, order: int
) -> tuple[list[DecoratedGraph], list[DecoratedGraph], RationalMatrix]:
    """Matrix of the coboundary from degree 0 to degree 1 at fixed order.

    Column k expresses delta(basis0[k]) in basis1; columns are filled in
    ascending order, so every row's keys ascend.
    """
    basis0 = enumerate_graphs(flavor, order, 0, connected=True)
    basis1 = enumerate_graphs(flavor, order, 1, connected=True)
    index = {g: r for r, g in enumerate(basis1)}
    rows: list[dict[int, Fraction]] = [{} for _ in basis1]
    for c, g in enumerate(basis0):
        for term, coeff in delta(g).items():
            rows[index[term]][c] = coeff
    return basis0, basis1, RationalMatrix(len(basis0), rows)


def _rref(m: RationalMatrix) -> list[tuple[int, dict[int, Fraction]]]:
    """Reduced row echelon form as sparse (pivot column, {col: entry}) rows.

    Columns are eliminated left to right, each with the first remaining
    row that has an entry there; every pivot row is scaled to a leading 1
    and the pivot column is cleared from all other rows.  Works on copies
    of the rows of ``m``.
    """
    pending = [dict(row) for row in m.sparse_rows if row]
    pivots: list[tuple[int, dict[int, Fraction]]] = []
    for c in range(m.cols):
        k = next((k for k, row in enumerate(pending) if c in row), None)
        if k is None:
            continue
        top = pending.pop(k)
        lead = top[c]
        top = {j: x / lead for j, x in top.items()}
        for row in pending:
            _eliminate(row, top, c)
        for _, row in pivots:
            _eliminate(row, top, c)
        pending = [row for row in pending if row]
        pivots.append((c, top))
    return pivots


def _eliminate(row: dict[int, Fraction], top: dict[int, Fraction], c: int) -> None:
    """row -= row[c] * top, for a pivot row ``top`` with top[c] == 1."""
    f = row.get(c)
    if not f:
        return
    for j, x in top.items():
        y = row.get(j, 0) - f * x
        if y:
            row[j] = y
        else:
            del row[j]


def kernel_basis(m: RationalMatrix) -> list[list[Fraction]]:
    """Exact nullspace basis; each vector's first nonzero entry is 1.

    Vectors are ordered by the index of their free column, matching the
    deterministic basis order used to build the matrix.  The vector of
    free column fc is e_fc - sum over pivot rows r of R[r, fc] e_pc(r).
    """
    # the pivot-column entries of each free column's vector, by column
    entries: dict[int, list[tuple[int, Fraction]]] = {c: [] for c in range(m.cols)}
    for pc, row in _rref(m):
        del entries[pc]
        for fc, x in row.items():
            if fc != pc:
                entries[fc].append((pc, -x))
    basis = []
    zero = Fraction(0)
    for fc, column in entries.items():
        # normalize leading entry to 1; a reduced row has no entry left of
        # its pivot, so the smallest pivot column, listed first, leads
        lead = column[0][1] if column else Fraction(1)
        v = [zero] * m.cols
        v[fc] = 1 / lead
        for pc, x in column:
            v[pc] = x / lead
        basis.append(v)
    return basis


def verify_cocycle(s: GraphSum) -> bool:
    """True iff delta(s) vanishes.  All terms must share one grade."""
    if s.is_zero:
        return True
    graph_grade(s)  # raises GradeMismatch on inconsistent terms
    return delta(s).is_zero
