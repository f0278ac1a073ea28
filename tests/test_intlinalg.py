import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab.intlinalg import (
    IntegerSolver,
    LatticeBasis,
    quotient_invariants,
    smith_form,
    snf,
    xgcd,
)


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_xgcd_bezout(a, b):
    g, u, v = xgcd(a, b)
    assert g >= 0
    assert u * a + v * b == g
    if a or b:
        assert a % g == 0 and b % g == 0


def _rows(dense):
    return [{j: v for j, v in enumerate(row) if v} for row in dense]


def _dense(result, rows, cols):
    d = [[0] * cols for _ in range(rows)]
    for i, v in enumerate(result.diagonal):
        d[i][i] = v
    return d


def _matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def test_snf_known():
    result = snf(_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]), 3)
    assert result.diagonal == (2, 2, 156)


def _det(matrix):
    """Exact determinant by elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _check_smith_form(rows, dim, dense_result):
    """``smith_form`` with images against dense ``snf``: the same diagonal and
    rank; each row a of A maps to a·Image, whose entry j is divisible by d_j
    and zero from the rank on; and the images, with the coordinates of the
    invariants 1 (which the peeled units leave out of them), span Z^dim."""
    result = smith_form(rows, dim, images=True)
    assert (result.diagonal, result.rank) == (dense_result.diagonal, dense_result.rank)
    assert len(result.images) == dim
    for row in rows:
        image = {}
        for t, a in row.items():
            LatticeBasis._axpy(image, a, result.images[t])
        assert all(j < result.rank and v % result.diagonal[j] == 0
                   for j, v in image.items()), (rows, image)
    span = [{j: 1} for j in range(result.diagonal.count(1))] + result.images
    assert quotient_invariants(dim, span) == ((), 0), rows


def test_snf_divisibility_and_transforms():
    """Q is unimodular and A·Q has the row lattice of diag(D): then P·A·Q = D
    for a unimodular P, which ``snf`` does not build.  The sparse elimination
    agrees with it (``_check_smith_form``)."""
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        dense = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        result = snf(_rows(dense), cols, want_transforms=True)
        for a, b in zip(result.diagonal, result.diagonal[1:]):
            assert b % a == 0
        assert all(d > 0 for d in result.diagonal)
        assert abs(_det(result.col_transform)) == 1
        aq = _rows(_matmul(dense, result.col_transform))
        diag = _rows(_dense(result, rows, cols))
        for spanning, spanned in ((aq, diag), (diag, aq)):
            basis = LatticeBasis(cols)
            for v in spanning:
                basis.add(v)
            assert all(basis.reduce(v) == {} for v in spanned), dense
        _check_smith_form(_rows(dense), cols, result)


def test_snf_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(11)
    for _ in range(20):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        dense = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        ours = snf(_rows(dense), cols).diagonal
        ref = smith_normal_form(sympy.Matrix(dense))
        ref_diag = tuple(
            abs(int(ref[i, i])) for i in range(min(rows, cols)) if ref[i, i] != 0
        )
        assert ours == ref_diag


def test_quotient_invariants_known():
    assert quotient_invariants(2, [{0: 2}, {1: 3}]) == ((6,), 0)
    assert quotient_invariants(3, [{0: 2}, {1: 4}]) == ((2, 4), 1)
    assert quotient_invariants(2, []) == ((), 2)
    assert quotient_invariants(2, [{0: 1}, {1: 1}]) == ((), 0)


def test_lattice_basis_membership():
    basis = LatticeBasis(3)
    basis.add({0: 2, 1: 4})
    basis.add({1: 3})
    assert basis.reduce({0: 2, 1: 7}) == {}
    assert basis.reduce({1: 3}) == {}
    assert basis.reduce({0: 1}) == {0: 1}
    assert basis.reduce({2: 1}) == {2: 1}
    assert basis.rank == 2


def test_lattice_basis_insertion_order_irrelevant():
    rng = random.Random(3)
    vectors = [{0: 6, 2: 3}, {1: 4}, {0: 2, 1: 2, 2: 2}, {2: 9}]
    reference = None
    for _ in range(10):
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        basis = LatticeBasis(3)
        for v in shuffled:
            basis.add(dict(v))
        inv = basis.quotient_invariants()
        if reference is None:
            reference = inv
        assert inv == reference


def test_integer_solver():
    solver = IntegerSolver(2, [{0: 2, 1: 1}, {1: 3}])
    x = solver.solve({0: 2, 1: 4})
    assert x == [1, 1]
    with pytest.raises(ValueError):
        solver.solve({0: 1})
    # dependent columns: the solution stops at the first bookkeeping coordinate
    assert IntegerSolver(1, [{0: 1}, {0: 1}]).solve({0: 3}) == [3, 0]


# a small integer matrix: its column count and its dense rows
small_matrices = st.integers(1, 5).flatmap(
    lambda ncols: st.tuples(
        st.just(ncols),
        st.lists(st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols), max_size=6),
    )
)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_quotient_invariants_agree_with_snf(matrix):
    dim, dense = matrix
    rows = _rows(dense)
    result = snf(rows, dim)
    torsion = tuple(d for d in result.diagonal if d > 1)
    assert quotient_invariants(dim, rows) == (torsion, dim - result.rank)
    _check_smith_form(rows, dim, result)


def _apply(columns, x, dim):
    out = [sum(c.get(i, 0) * xk for c, xk in zip(columns, x)) for i in range(dim)]
    return {i: v for i, v in enumerate(out) if v}


@settings(max_examples=60, deadline=None)
@given(small_matrices, st.data())
def test_integer_solver_property(matrix, data):
    dim, dense = matrix  # the rows of ``dense`` are the solver's columns
    columns = _rows(dense)
    x = data.draw(st.lists(st.integers(-4, 4), min_size=len(columns), max_size=len(columns)))
    target = _apply(columns, x, dim)
    y = IntegerSolver(dim, columns).solve(target)
    assert _apply(columns, y, dim) == target
    # every vector of the doubled lattice is even, so an odd entry is outside it
    doubled = [{i: 2 * v for i, v in c.items()} for c in columns]
    odd = _apply(doubled, x, dim)
    j = data.draw(st.integers(0, dim - 1))
    odd[j] = odd.get(j, 0) + 1
    with pytest.raises(ValueError):
        IntegerSolver(dim, doubled).solve(odd)


# sparse vectors in up to 12 coordinates with entries ±1 and ±2: unit pivots,
# chains of them and xgcd merges of a leading ±1 into a pivot 2 are all common
unit_heavy = st.integers(1, 12).flatmap(
    lambda dim: st.tuples(
        st.just(dim),
        st.lists(
            st.dictionaries(st.integers(0, dim - 1),
                            st.sampled_from((-2, -1, 1, 2)), max_size=4),
            max_size=14,
        ),
    )
)


@settings(max_examples=150, deadline=None)
@given(unit_heavy)
def test_lattice_basis_invariants_after_each_add(matrix):
    dim, vectors = matrix
    basis = LatticeBasis(dim)
    inserted = []
    for vec in vectors:
        before = dict(vec)
        basis.add(vec)
        assert vec == before
        inserted.append(vec)
        for i, b in basis.pivots.items():
            assert min(b) == i and b[i] > 0
        assert all(basis.reduce(v) == {} for v in inserted)
        result = snf(inserted, dim)
        torsion = tuple(d for d in result.diagonal if d > 1)
        assert basis.quotient_invariants() == (torsion, dim - result.rank)
    _check_smith_form(inserted, dim, snf(inserted, dim))  # chains of unit pivots
