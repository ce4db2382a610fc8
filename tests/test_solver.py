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

M, K = Flavor.MANIFOLD, Flavor.KNOT


def test_kernel_of_zero_matrix():
    assert kernel_basis(RationalMatrix.zeros(2, 2)) == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]


def test_kernel_of_identity():
    eye = RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert kernel_basis(eye) == []


def test_kernel_vectors_normalized_and_exact():
    m = RationalMatrix([[Fraction(1, 3), Fraction(2, 5), 1], [0, 0, 0]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        lead = next(x for x in v if x)
        assert lead == 1
        assert all(x == 0 for x in m.matvec(v))


def test_delta_matrix_columns_match_paper():
    basis0, basis1, m = delta_matrix(M, 2)
    g1, g2 = manifold_order2_graphs()
    r1, r2 = canonicalize(g1), canonicalize(g2)
    c1, c2 = basis0.index(r1.graph), basis0.index(r2.graph)
    # express the coboundary of the drawn representatives
    col1 = [m[r, c1] * r1.sign for r in range(m.rows)]
    col2 = [m[r, c2] * r2.sign for r in range(m.rows)]
    nz1 = [(r, x) for r, x in enumerate(col1) if x]
    nz2 = [(r, x) for r, x in enumerate(col2) if x]
    assert len(nz1) == 1 and len(nz2) == 1
    assert nz1[0][0] == nz2[0][0]
    assert abs(nz1[0][1]) == 6 and abs(nz2[0][1]) == 2
    assert nz1[0][1] * nz2[0][1] > 0


def test_delta_matrix_theta_column_zero():
    basis0, _, m = delta_matrix(M, 1)
    c = basis0.index(theta_graph(M))
    assert all(m[r, c] == 0 for r in range(m.rows))


def test_knot_delta_matrix_columns():
    basis0, basis1, m = delta_matrix(K, 2)
    cols = {}
    for g in knot_order2_graphs():
        res = canonicalize(g)
        c = basis0.index(res.graph)
        cols[g.n_ext] = [m[r, c] * res.sign for r in range(m.rows)]
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
    assert all(x == 0 for x in m.matvec(vec))
    # the vector lies in the span of the kernel: residual after projecting
    # onto pivot-free coordinates must vanish; verify via rank argument
    basis = kernel_basis(m)
    aug = RationalMatrix([list(v) for v in basis] + [vec])
    assert len(kernel_basis_transpose_rank(aug)) == len(basis)


def _integer_rows(m: RationalMatrix) -> list[list[int]]:
    """Rows scaled to integers; row scaling leaves rank and kernel unchanged."""
    int_rows = []
    for row in m.entries:
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


def kernel_basis_transpose_rank(m: RationalMatrix):
    """Pivot columns of the row space, from the Bareiss oracle."""
    _, piv = _row_echelon_fraction_free(_integer_rows(m))
    return piv


def _kernel_basis_oracle(m: RationalMatrix) -> list[list[Fraction]]:
    """Kernel by Bareiss elimination and per-free-column back-substitution."""
    if m.cols == 0:
        return []
    echelon, piv_cols = _row_echelon_fraction_free(_integer_rows(m))
    piv_set = set(piv_cols)
    basis = []
    for fc in (c for c in range(m.cols) if c not in piv_set):
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for r in range(len(piv_cols) - 1, -1, -1):
            pc = piv_cols[r]
            s = sum(
                (Fraction(echelon[r][c]) * v[c] for c in range(pc + 1, m.cols) if v[c]),
                Fraction(0),
            )
            v[pc] = -s / echelon[r][pc]
        lead = next(x for x in v if x)
        basis.append([x / lead for x in v])
    return basis


@st.composite
def sparse_rational_matrices(draw):
    """Mostly zero entries, as in coboundary matrices; some rows repeat an
    earlier row up to scale, so that the rank drops."""
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
    return RationalMatrix(out, cols=cols)


@settings(max_examples=200, deadline=None)
@given(sparse_rational_matrices())
def test_kernel_basis_matches_bareiss_back_substitution(m):
    assert kernel_basis(m) == _kernel_basis_oracle(m)


@pytest.mark.parametrize("flavor", [M, K])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_rank_nullity(flavor, order):
    _, _, m = delta_matrix(flavor, order)
    basis = kernel_basis(m)
    rank = len(kernel_basis_transpose_rank(m))
    assert len(basis) + rank == m.cols


@pytest.mark.parametrize("flavor", [M, K])
@pytest.mark.parametrize("order", [2, 3])
def test_delta_matrices_compose_to_zero(flavor, order):
    """Matrix of the coboundary deg 1 -> 2 times deg 0 -> 1 is zero."""
    basis0 = enumerate_graphs(flavor, order, 0)
    basis1 = enumerate_graphs(flavor, order, 1)
    basis2 = enumerate_graphs(flavor, order, 2)
    idx1 = {g: r for r, g in enumerate(basis1)}
    idx2 = {g: r for r, g in enumerate(basis2)}
    m01 = RationalMatrix.zeros(len(basis1), len(basis0))
    for c, g in enumerate(basis0):
        for term, coeff in delta(g).items():
            m01[idx1[term], c] = coeff
    m12 = RationalMatrix.zeros(len(basis2), len(basis1))
    for c, g in enumerate(basis1):
        for term, coeff in delta(g).items():
            m12[idx2[term], c] = coeff
    assert m12.matmul(m01).is_zero()


def test_matmul_matches_dense_triple_loop():
    a = RationalMatrix([[1, 0, Fraction(1, 2)], [0, 0, 0], [0, -3, 2]])
    b = RationalMatrix([[0, 2], [Fraction(1, 3), 0], [0, 0]])
    expect = [
        [sum((a[r, k] * b[k, c] for k in range(3)), Fraction(0)) for c in range(2)]
        for r in range(3)
    ]
    assert a.matmul(b).entries == expect


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
