from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from graphflow.errors import GradeMismatch
from graphflow.graphs import (
    Flavor,
    GraphSum,
    canonicalize,
    delta,
    enumerate_graphs,
    knot_order2_cocycle,
    knot_order2_graphs,
    manifold_order2_cocycle,
    manifold_order2_graphs,
    theta_graph,
)
from graphflow.solver import RationalMatrix, delta_matrix, kernel_basis, verify_cocycle
from oracles import is_zero, matmul, matvec

M, K = Flavor.MANIFOLD, Flavor.KNOT


def _matrix(dense: list[list[Fraction]], cols: int | None = None) -> RationalMatrix:
    """The sparse production matrix of dense rows; ``cols`` when there are none."""
    cols = len(dense[0]) if dense else cols
    return RationalMatrix(cols, [{c: Fraction(x) for c, x in enumerate(row) if x} for row in dense])


def test_kernel_of_zero_matrix():
    assert kernel_basis(_matrix([[0, 0], [0, 0]])) == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]


def test_kernel_of_identity():
    eye = _matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert kernel_basis(eye) == []


def test_kernel_vectors_normalized_and_exact():
    dense = [[Fraction(1, 3), Fraction(2, 5), 1], [0, 0, 0]]
    m = _matrix(dense)
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        lead = next(x for x in v if x)
        assert lead == 1
        assert all(x == 0 for x in matvec(dense, v))
    assert m == _matrix(dense)  # the elimination works on copies of the rows


def test_delta_matrix_columns_match_paper():
    basis0, basis1, m = delta_matrix(M, 2)
    g1, g2 = manifold_order2_graphs()
    r1, r2 = canonicalize(g1), canonicalize(g2)
    c1, c2 = basis0.index(r1.graph), basis0.index(r2.graph)
    # express the coboundary of the drawn representatives
    col1 = [row[c1] * r1.sign for row in m.entries]
    col2 = [row[c2] * r2.sign for row in m.entries]
    nz1 = [(r, x) for r, x in enumerate(col1) if x]
    nz2 = [(r, x) for r, x in enumerate(col2) if x]
    assert len(nz1) == 1 and len(nz2) == 1
    assert nz1[0][0] == nz2[0][0]
    assert abs(nz1[0][1]) == 6 and abs(nz2[0][1]) == 2
    assert nz1[0][1] * nz2[0][1] > 0


def test_delta_matrix_theta_column_zero():
    basis0, _, m = delta_matrix(M, 1)
    c = basis0.index(theta_graph(M))
    assert all(row[c] == 0 for row in m.entries)


def test_knot_delta_matrix_columns():
    basis0, basis1, m = delta_matrix(K, 2)
    cols = {}
    for g in knot_order2_graphs():
        res = canonicalize(g)
        c = basis0.index(res.graph)
        cols[g.n_ext] = [row[c] * res.sign for row in m.entries]
    mags = {
        n_ext: sorted(abs(x) for x in col if x) for n_ext, col in cols.items()
    }
    assert mags[4] == [4]
    assert mags[3] == [3, 3]
    assert mags[2] == [2]


@pytest.mark.parametrize("flavor", [M, K])
def test_kernel_contains_paper_cocycle(flavor):
    basis0, _, m = delta_matrix(flavor, 2)
    cocycle = manifold_order2_cocycle() if flavor is M else knot_order2_cocycle()
    vec = [cocycle.coefficient(g) for g in basis0]
    assert any(vec)
    assert all(x == 0 for x in matvec(m.entries, vec))
    # the vector lies in the span of the kernel: residual after projecting
    # onto pivot-free coordinates must vanish; verify via rank argument
    basis = kernel_basis(m)
    aug = [list(v) for v in basis] + [vec]
    assert len(kernel_basis_transpose_rank(aug)) == len(basis)


def _integer_rows(m: list[list[Fraction]]) -> list[list[int]]:
    """Rows scaled to integers; row scaling leaves rank and kernel unchanged."""
    int_rows = []
    for row in m:
        mult = lcm(*(x.denominator for x in row)) if row else 1
        int_rows.append([int(x * mult) for x in row])
    return int_rows


def _row_echelon_fraction_free(m: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Bareiss fraction-free elimination; returns (echelon, pivot columns).

    Oracle for the solver's sparse reduced row echelon form: an
    independent elimination over the integers.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    piv_cols: list[int] = []
    prev_pivot = 1
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev_pivot
            m[i][c] = 0
        prev_pivot = m[r][c]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    return m, piv_cols


def kernel_basis_transpose_rank(m: list[list[Fraction]]):
    """Pivot columns of the row space of dense rows, from the Bareiss oracle."""
    _, piv = _row_echelon_fraction_free(_integer_rows(m))
    return piv


def _kernel_basis_oracle(m: list[list[Fraction]], cols: int) -> list[list[Fraction]]:
    """Kernel of dense rows by Bareiss elimination and per-free-column
    back-substitution."""
    echelon, piv_cols = _row_echelon_fraction_free(_integer_rows(m))
    piv_set = set(piv_cols)
    basis = []
    for fc in (c for c in range(cols) if c not in piv_set):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r in range(len(piv_cols) - 1, -1, -1):
            pc = piv_cols[r]
            s = sum(
                (Fraction(echelon[r][c]) * v[c] for c in range(pc + 1, cols) if v[c]),
                Fraction(0),
            )
            v[pc] = -s / echelon[r][pc]
        lead = next(x for x in v if x)
        basis.append([x / lead for x in v])
    return basis


@st.composite
def sparse_rational_matrices(draw):
    """Dense rows and a column count.  Mostly zero entries, as in
    coboundary matrices; some rows repeat an earlier row up to scale, so
    that the rank drops."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(1, 9))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    out = []
    for _ in range(rows):
        if out and draw(st.integers(0, 3)) == 0:
            earlier = out[draw(st.integers(0, len(out) - 1))]
            scale = draw(entry.filter(bool))
            out.append([scale * x for x in earlier])
        else:
            out.append([draw(entry) if draw(st.integers(0, 3)) == 0 else Fraction(0) for _ in range(cols)])
    return out, cols


@settings(max_examples=200, deadline=None)
@given(sparse_rational_matrices())
def test_kernel_basis_matches_bareiss_back_substitution(dense_cols):
    dense, cols = dense_cols
    assert kernel_basis(_matrix(dense, cols)) == _kernel_basis_oracle(dense, cols)


@pytest.mark.parametrize("flavor", [M, K])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_rank_nullity(flavor, order):
    _, _, m = delta_matrix(flavor, order)
    basis = kernel_basis(m)
    rank = len(kernel_basis_transpose_rank(m.entries))
    assert len(basis) + rank == m.cols


@pytest.mark.parametrize("flavor", [M, K])
@pytest.mark.parametrize("order", [2, 3])
def test_delta_matrices_compose_to_zero(flavor, order):
    """Matrix of the coboundary deg 1 -> 2 times deg 0 -> 1 is zero."""
    basis0, basis1, basis2 = (enumerate_graphs(flavor, order, d) for d in range(3))

    def dense(source, target):
        index = {g: r for r, g in enumerate(target)}
        out = [[Fraction(0)] * len(source) for _ in target]
        for c, g in enumerate(source):
            for term, coeff in delta(g).items():
                out[index[term]][c] = coeff
        return out

    assert is_zero(matmul(dense(basis1, basis2), dense(basis0, basis1)))


def test_matmul_matches_dense_triple_loop():
    a = [[1, 0, Fraction(1, 2)], [0, 0, 0], [0, -3, 2]]
    b = [[0, 2], [Fraction(1, 3), 0], [0, 0]]
    expect = [
        [sum((a[r][k] * b[k][c] for k in range(3)), Fraction(0)) for c in range(2)]
        for r in range(3)
    ]
    assert matmul(a, b) == expect


def test_verify_cocycle():
    assert verify_cocycle(GraphSum.of([(1, theta_graph(M))]))
    assert verify_cocycle(manifold_order2_cocycle())
    assert verify_cocycle(knot_order2_cocycle())
    g1, _ = manifold_order2_graphs()
    assert not verify_cocycle(GraphSum.of([(1, g1)]))


def test_verify_cocycle_grade_mismatch():
    mixed = GraphSum.of([(1, theta_graph(M)), (1, manifold_order2_graphs()[0])])
    with pytest.raises(GradeMismatch):
        verify_cocycle(mixed)
