import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quivertilt.linalg import (GF, QQ, FieldSpec, Matrix, _eliminate, _mul_entries,
                               independent_rows, intersect_subspaces, quotient_basis, rank,
                               rref_coordinates, row_space, row_times, solve_linear_system,
                               solve_right_kernel, sum_subspaces)
from quivertilt.errors import DimensionMismatch, InputError

from oracles import (_rref_with_transform, block_matrix, oracle_left_kernel, oracle_matmul,
                     oracle_rank, oracle_solve, reference_independent_rows,
                     reference_quotient_projection, rref, solve_null_space, transpose)


def M(field, rows):
    return Matrix.from_rows(field, rows)


def test_field_spec_validation():
    with pytest.raises(InputError):
        FieldSpec("prime-field", 6)
    with pytest.raises(InputError):
        FieldSpec("rationals", 5)
    assert GF(101).characteristic == 101
    assert GF(2).coerce(-1) == 1
    assert QQ.coerce("3/4") == Fraction(3, 4)
    assert GF(7).coerce(Fraction(1, 2)) == 4  # 2 * 4 = 1 mod 7


def test_rationals_are_ints_when_integral():
    assert type(QQ.coerce(Fraction(4, 2))) is int
    assert type(QQ.coerce("6/3")) is int
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.inv(2) == Fraction(1, 2)
    assert QQ.inv(Fraction(-1, 3)) == -3 and type(QQ.inv(Fraction(-1, 3))) is int
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(QQ.mul(2, Fraction(1, 2))) is int
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


@pytest.mark.parametrize("fld, value", [(QQ, 0.1), (GF(7), 2.5), (QQ, "abc"), (GF(7), "1/0")])
def test_coerce_rejects_inexact_and_malformed_values(fld, value):
    with pytest.raises(InputError):
        fld.coerce(value)


def test_kernel_identity_is_empty():
    assert solve_right_kernel(Matrix.identity(QQ, 2)).rows == 0


def test_kernel_zero_is_identity():
    k = solve_right_kernel(Matrix.zeros(QQ, 2, 2))
    assert k.rows == 2
    assert rank(k) == 2


def test_kernel_rank_one():
    k = solve_right_kernel(M(QQ, [[1, 1], [1, 1]]))
    assert k.rows == 1
    # spans (1, -1)
    v = k.entries[0]
    assert v[0] == -v[1] != 0


def test_solve_identity():
    b = M(QQ, [[3, 5], [7, 11]])
    x, ker = solve_linear_system(Matrix.identity(QQ, 2), b)
    assert x == b and ker.rows == 0


def test_solve_zero():
    a = Matrix.zeros(QQ, 2, 2)
    x, ker = solve_linear_system(a, Matrix.zeros(QQ, 1, 2))
    assert x is not None and x.is_zero()
    assert ker.rows == 2


def test_solve_scalar_division():
    x, _ = solve_linear_system(M(QQ, [[2]]), M(QQ, [[1]]))
    assert x.entries[0][0] == Fraction(1, 2)


def test_solve_unsolvable():
    a = M(QQ, [[1, 0]])
    b = M(QQ, [[0, 1]])
    x, _ = solve_linear_system(a, b)
    assert x is None


def test_solutions_are_exact():
    a = M(QQ, [[2, 3, 1], [1, 1, 4]])
    b = M(QQ, [[7, 9, 11]])
    x, ker = solve_linear_system(a, b)
    assert x is None or x.mul(a) == b
    for r in range(ker.rows):
        assert ker.take_rows([r]).mul(a).is_zero()


def test_quotient_of_plane_by_axis():
    sec, proj = quotient_basis(M(QQ, [[1, 0]]), 2)
    assert sec.rows == 1
    assert sec.mul(proj) == Matrix.identity(QQ, 1)
    # (x, y) maps to y
    assert M(QQ, [[5, 7]]).mul(proj).entries[0][0] == 7


def test_quotient_identities_random_subspace():
    sub = M(QQ, [[1, 2, 3], [0, 1, 1]])
    sec, proj = quotient_basis(sub, 3)
    assert sub.mul(proj).is_zero()
    assert sec.mul(proj) == Matrix.identity(QQ, sec.rows)
    assert sec.rows == 3 - rank(sub)


def test_intersect_transverse_lines():
    assert intersect_subspaces(M(QQ, [[1, 0]]), M(QQ, [[0, 1]])).rows == 0


def test_intersect_and_sum():
    a = M(QQ, [[1, 0, 0], [0, 1, 0]])
    b = M(QQ, [[0, 1, 0], [0, 0, 1]])
    cap = intersect_subspaces(a, b)
    assert cap.rows == 1
    assert sum_subspaces(a, b).rows == 3
    # dimension formula
    assert rank(a) + rank(b) == cap.rows + sum_subspaces(a, b).rows


def test_zero_by_n_matrices_are_legal():
    z = Matrix.zeros(QQ, 0, 3)
    assert transpose(z).rows == 3
    assert solve_right_kernel(z).rows == 0
    assert rank(z) == 0
    x, ker = solve_linear_system(z, Matrix.zeros(QQ, 2, 3))
    assert x is not None and x.cols == 0


entry = st.integers(min_value=-6, max_value=6)


@st.composite
def qq_matrix(draw):
    rows = draw(st.integers(min_value=0, max_value=5))
    cols = draw(st.integers(min_value=0, max_value=5))
    entries = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    return Matrix.from_rows(QQ, entries, cols)


@st.composite
def gf_matrix(draw):
    rows = draw(st.integers(min_value=0, max_value=5))
    cols = draw(st.integers(min_value=0, max_value=5))
    entries = [[draw(st.integers(min_value=0, max_value=100)) for _ in range(cols)]
               for _ in range(rows)]
    return Matrix.from_rows(GF(101), entries, cols)


@settings(max_examples=60, deadline=None)
@given(qq_matrix())
def test_rank_nullity_rationals(m):
    assert rank(m) + solve_right_kernel(m).rows == m.rows


@settings(max_examples=60, deadline=None)
@given(gf_matrix())
def test_rank_nullity_prime_field(m):
    assert rank(m) + solve_right_kernel(m).rows == m.rows


@settings(max_examples=40, deadline=None)
@given(qq_matrix())
def test_kernel_rows_annihilate(m):
    k = solve_right_kernel(m)
    if k.rows:
        assert k.mul(m).is_zero()
    assert rank(k) == k.rows


@settings(max_examples=40, deadline=None)
@given(qq_matrix())
def test_row_space_idempotent(m):
    r = row_space(m)
    assert row_space(r) == r
    assert rank(r) == r.rows == rank(m)


# -- the elimination kernel over every kind of field ----------------------------

FIELDS = (QQ, GF(2), GF(3), GF(101))
dims = st.integers(min_value=0, max_value=5)


def field_entries(fld):
    """Mostly small values with many zeros, so that ranks drop and rows are
    sparse; fractions over Q."""
    if fld == QQ:
        return st.one_of(st.just(0), st.integers(-4, 4),
                         st.fractions(min_value=-3, max_value=3, max_denominator=4))
    return st.one_of(st.just(0), st.integers(0, fld.characteristic - 1))


@st.composite
def field_matrix(draw, fld=None, rows=None, cols=None):
    fld = draw(st.sampled_from(FIELDS)) if fld is None else fld
    rows = draw(dims) if rows is None else rows
    cols = draw(dims) if cols is None else cols
    entries = [[draw(field_entries(fld)) for _ in range(cols)] for _ in range(rows)]
    return Matrix.from_rows(fld, entries, cols)


@st.composite
def matrix_pair(draw):
    """(a, b) over one field with a*b defined."""
    fld = draw(st.sampled_from(FIELDS))
    r, k, c = draw(dims), draw(dims), draw(dims)
    return draw(field_matrix(fld, r, k)), draw(field_matrix(fld, k, c))


@settings(max_examples=150, deadline=None)
@given(field_matrix())
@example(Matrix.zeros(GF(2), 0, 3))
@example(Matrix.zeros(GF(3), 3, 0))
@example(Matrix.zeros(QQ, 0, 0))
def test_rref_equals_transform_kernel_and_transform_reduces(m):
    R, pivots, T = _rref_with_transform(m)
    assert rref(m) == (R, pivots)
    assert T.rows == T.cols == m.rows
    assert T.mul(m) == R
    assert rank(T) == m.rows


@st.composite
def stacked_pair(draw):
    """(above, rows) over one field with the same number of columns."""
    fld = draw(st.sampled_from(FIELDS))
    cols = draw(dims)
    return draw(field_matrix(fld, cols=cols)), draw(field_matrix(fld, cols=cols))


@settings(max_examples=150, deadline=None)
@given(stacked_pair())
@example((Matrix.zeros(QQ, 2, 0), Matrix.zeros(QQ, 3, 0)))
def test_independent_rows_are_those_that_raise_the_rank(pair):
    """Row i is kept exactly when it raises the oracle rank of the rows of
    above and the rows of rows before it."""
    above, rows = pair
    char = above.field.characteristic
    kept = independent_rows(above, rows)
    before = [list(r) for r in above.entries]
    for i, row in enumerate(rows.entries):
        grows = oracle_rank(before + [list(row)], char) > oracle_rank(before, char)
        assert (i in kept) == grows
        before.append(list(row))
    assert list(kept) == sorted(kept)


@settings(max_examples=150, deadline=None)
@given(field_matrix())
@example(Matrix.zeros(GF(101), 0, 4))
@example(Matrix.zeros(QQ, 2, 0))
def test_quotient_basis_identities_and_reference_projection(sub):
    n = sub.cols
    section, proj = quotient_basis(sub, n)
    assert section.mul(proj) == Matrix.identity(sub.field, section.rows)
    assert sub.mul(proj).is_zero()
    assert section.rows == n - rank(sub)
    R, pivots = rref(sub)
    assert list(proj.entries) == reference_quotient_projection(sub.field, R, pivots, n)


@settings(max_examples=150, deadline=None)
@given(matrix_pair())
def test_product_equals_fraction_oracle(pair):
    a, b = pair
    fld = a.field
    expected = oracle_matmul(a.entries, b.entries, b.cols)
    if fld != QQ:
        expected = [[int(x) % fld.characteristic for x in r] for r in expected]
    assert [list(r) for r in a.mul(b).entries] == expected


@settings(max_examples=100, deadline=None)
@given(matrix_pair())
def test_solve_recovers_a_product_over_every_field(pair):
    x0, a = pair
    b = x0.mul(a)
    x, kernel = solve_linear_system(a, b)
    assert x is not None and x.mul(a) == b
    assert kernel.rows == a.rows - rank(a)
    assert kernel.mul(a).is_zero()


@st.composite
def row_and_matrix(draw):
    """(row, m) over one field with row*m defined."""
    fld = draw(st.sampled_from(FIELDS))
    m = draw(field_matrix(fld))
    return tuple(fld.coerce(draw(field_entries(fld))) for _ in range(m.rows)), m


@settings(max_examples=200, deadline=None)
@given(row_and_matrix())
@example(((0, 0), Matrix.zeros(GF(2), 2, 3)))
@example(((1, 2), Matrix.zeros(QQ, 2, 0)))
@example(((), Matrix.zeros(GF(101), 0, 4)))
@example(((2, 0, 1), Matrix.identity(GF(3), 3)))
def test_row_times_is_the_product_of_a_one_row_matrix(pair):
    row, m = pair
    assert row_times(row, m) == Matrix(m.field, 1, m.rows, (row,)).mul(m).entries[0]
    with pytest.raises(DimensionMismatch):
        row_times(row + (m.field.one(),), m)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_shared_identity_factor_gives_back_the_other_operand(data):
    fld = data.draw(st.sampled_from(FIELDS))
    n, k = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    ident = Matrix.identity(fld, n)
    assert ident is Matrix.identity(fld, n)
    b, c = data.draw(field_matrix(fld, n, k)), data.draw(field_matrix(fld, k, n))
    assert ident.mul(b) is b and c.mul(ident) is c
    with pytest.raises(DimensionMismatch):
        ident.mul(Matrix.zeros(fld, n + 1, 1))


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_an_identity_too_large_to_share_still_multiplies(fld):
    big = Matrix.identity(fld, 33)
    assert big is not Matrix.identity(fld, 33)
    b = Matrix.from_rows(fld, [[(i * j + i) % 7 - 3 for j in range(33)] for i in range(33)])
    assert big.mul(b) == b == b.mul(big) and big.mul(b) is not b
    assert row_times(b.entries[5], big) == b.entries[5]
    expected = oracle_matmul(b.entries, big.entries, 33)
    if fld != QQ:
        expected = [[int(x) % fld.characteristic for x in r] for r in expected]
    assert [list(r) for r in b.mul(big).entries] == expected


def assert_canonical(*matrices):
    """Every rational entry is an int, or a Fraction that is not integral."""
    for m in matrices:
        for r in m.entries:
            for x in r:
                assert type(x) is int or (type(x) is Fraction and x.denominator > 1), x


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rational_results_are_canonical(data):
    a = data.draw(field_matrix(QQ))
    b = data.draw(field_matrix(QQ, a.rows, a.cols))
    c = data.draw(field_matrix(QQ, a.cols))
    y = data.draw(field_matrix(QQ, cols=a.rows))
    s = data.draw(field_entries(QQ))
    assert_canonical(rref(a)[0], *_rref_with_transform(a)[::2])
    assert_canonical(a.mul(c), a.add(b), a.sub(b), a.neg(), a.scale(s))
    assert_canonical(solve_right_kernel(a), *quotient_basis(a, a.cols))
    x, kernel = solve_linear_system(a, y.mul(a))
    assert_canonical(x, kernel)


# -- the slot-based Matrix, shared constants and empty-shape fast paths ---------


def test_matrix_is_immutable_and_has_no_instance_dict():
    m = M(QQ, [[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.rows = 3
    with pytest.raises(AttributeError):
        m.extra = 1
    with pytest.raises(AttributeError):
        del m.entries
    assert not hasattr(m, "__dict__")
    assert m.rows == 2 and m.entries == ((1, 2), (3, 4))


def test_equal_matrices_have_equal_hashes_and_survive_copying():
    m = Matrix(GF(3), 2, 2, ((1, 2), (0, 1)))
    fresh = Matrix(GF(3), 2, 2, ((1, 2), (0, 1)))
    assert m == fresh and hash(m) == hash(fresh) and m is not fresh
    assert m != Matrix(GF(5), 2, 2, ((1, 2), (0, 1))) and m != m.entries
    assert {m: 1}[fresh] == 1
    assert copy.copy(m) == m and copy.deepcopy(m) == m and pickle.loads(pickle.dumps(m)) == m
    assert repr(m) == "Matrix(2x2 over GF(3))"


@pytest.mark.parametrize("fld", FIELDS)
@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (32, 32)])
def test_shared_zeros_and_identities_equal_fresh_ones(fld, rows, cols):
    zero = Matrix.zeros(fld, rows, cols)
    assert zero == Matrix(fld, rows, cols, tuple((0,) * cols for _ in range(rows)))
    assert Matrix.zeros(fld, rows, cols) is zero
    ident = Matrix.identity(fld, rows)
    assert ident == Matrix(fld, rows, rows, tuple(tuple(int(i == j) for j in range(rows))
                                                  for i in range(rows)))
    assert Matrix.identity(fld, rows) is ident


def test_large_constants_are_not_shared():
    assert Matrix.identity(QQ, 33) == Matrix.identity(QQ, 33)
    assert Matrix.identity(QQ, 33) is not Matrix.identity(QQ, 33)
    assert Matrix.zeros(GF(2), 40, 1) is not Matrix.zeros(GF(2), 40, 1)


def test_every_construction_checks_its_shape(monkeypatch):
    checked = []
    post_init = Matrix.__post_init__

    def recording_post_init(self):
        checked.append((self.rows, self.cols))
        post_init(self)

    monkeypatch.setattr(Matrix, "__post_init__", recording_post_init)
    a = Matrix(QQ, 1, 2, ((1, 2),))
    a.hstack(a).vstack(Matrix.from_rows(QQ, [[5, 6, 7, 8]])).take_cols([0, 3])
    # a, a|a, the parsed row, the stacked 2 x 4 and its two columns
    assert checked == [(1, 2), (1, 4), (1, 4), (2, 4), (2, 2)]


@pytest.mark.parametrize("build", [
    lambda: Matrix(QQ, 2, 2, ((1, 2), (3,))),
    lambda: Matrix(QQ, 1, 2, ()),
    lambda: Matrix(GF(2), 0, 2, ((1, 0),)),
    lambda: Matrix(GF(3), 2, 0, ((), (1,))),
    lambda: Matrix.from_rows(QQ, [[1, 2], [3]]),
    lambda: Matrix.from_rows(GF(101), [[1, 2]], 3),
    lambda: Matrix.zeros(QQ, 2, 1).hstack(Matrix.zeros(QQ, 1, 1)),
    lambda: Matrix.zeros(QQ, 1, 2).vstack(Matrix.zeros(QQ, 1, 3)),
])
def test_bad_shapes_raise_dimension_mismatch(build):
    """take_cols of a checked matrix cannot build a bad grid; that its
    output is checked too is shown by the test above."""
    with pytest.raises(DimensionMismatch):
        build()


@st.composite
def empty_shape_product(draw):
    """(a, b) over one field with a*b defined and some dimension zero:
    0 x n times n x m, k x n times n x 0, or k x 0 times 0 x m."""
    fld = draw(st.sampled_from(FIELDS))
    r, k, c = draw(dims), draw(dims), draw(dims)
    zero_at = draw(st.sampled_from(("r", "k", "c")))
    r, k, c = (0 if zero_at == "r" else r), (0 if zero_at == "k" else k), (0 if zero_at == "c" else c)
    return draw(field_matrix(fld, r, k)), draw(field_matrix(fld, k, c))


def empty_shaped(fld=None):
    """A matrix with no rows or no columns (or both)."""
    return st.one_of(field_matrix(fld, rows=0), field_matrix(fld, cols=0))


def as_lists(m):
    return [list(r) for r in m.entries]


@settings(max_examples=100, deadline=None)
@given(empty_shape_product())
@example((Matrix.zeros(GF(2), 3, 0), Matrix.zeros(GF(2), 0, 4)))
def test_empty_shape_product_equals_oracle(pair):
    a, b = pair
    product = a.mul(b)
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert as_lists(product) == oracle_matmul(a.entries, b.entries, b.cols)
    assert product == Matrix(a.field, a.rows, b.cols,
                             _mul_entries(a.field, a.entries, b.entries, b.cols))


@settings(max_examples=100, deadline=None)
@given(empty_shaped())
def test_empty_shape_elimination_equals_general_path(m):
    work, pivots, trans = _eliminate(m.field, m.entries, m.cols, True)
    R, fast_pivots, T = _rref_with_transform(m)
    assert fast_pivots == pivots == () and oracle_rank(as_lists(m)) == 0
    assert R == m == Matrix(m.field, m.rows, m.cols, tuple(map(tuple, work)))
    assert T == Matrix(m.field, m.rows, m.rows, tuple(map(tuple, trans)))
    assert rref(m) == (R, ()) and _rref_with_transform(m, False) == (R, (), None)
    assert rank(m) == 0 and row_space(m) == Matrix.zeros(m.field, 0, m.cols)
    kernel = solve_right_kernel(m)
    assert kernel == T and as_lists(kernel) == oracle_left_kernel(as_lists(m))
    assert m.take_rows([]) == Matrix(m.field, 0, m.cols) == m.take_rows(range(0))


@pytest.mark.parametrize("fld", [QQ, GF(2)])
def test_rank_of_an_empty_shape_takes_no_elimination(fld, monkeypatch):
    import quivertilt.linalg
    calls = []
    monkeypatch.setattr(quivertilt.linalg, "_eliminate", lambda *args: calls.append(args))
    for shape in ((0, 0), (0, 3), (3, 0)):
        assert rank(Matrix.zeros(fld, *shape)) == 0
    assert calls == []


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_empty_shape_solve_and_quotient_equal_oracles(data):
    a = data.draw(empty_shaped())
    fld = a.field
    b = data.draw(field_matrix(fld, cols=a.cols))
    x, kernel = solve_linear_system(a, b)
    assert as_lists(kernel) == oracle_left_kernel(as_lists(a))
    coeffs = [oracle_solve(as_lists(a), list(r)) for r in b.entries]
    if any(c is None for c in coeffs):
        assert x is None
    else:
        assert as_lists(x) == coeffs and (x.rows, x.cols) == (b.rows, a.rows)
    section, proj = quotient_basis(a, a.cols)
    assert section == Matrix.identity(fld, a.cols) == proj
    assert list(proj.entries) == reference_quotient_projection(fld, a, (), a.cols)


def test_block_matrix_matches_stacking_and_rejects_ragged_grids():
    a, b = M(QQ, [[1, 2], [3, 4]]), M(QQ, [[5], [6]])
    c, d = M(QQ, [[7, 8]]), M(QQ, [[9]])
    z = Matrix.zeros(QQ, 0, 2)
    assert block_matrix(QQ, [[a, b], [c, d]]) == a.hstack(b).vstack(c.hstack(d))
    assert block_matrix(QQ, [[a], [z], []]) == a
    assert block_matrix(QQ, [[Matrix.zeros(QQ, 2, 0), b]]) == b
    assert block_matrix(QQ, []) == Matrix.zeros(QQ, 0, 0)
    for ragged in ([[a, c]], [[a, b], [c]], [[a], [Matrix.zeros(QQ, 0, 3)]]):
        with pytest.raises(DimensionMismatch):
            block_matrix(QQ, ragged)


# -- kernels by free columns, selection by reduction, RREF coordinates ----------


@settings(max_examples=150, deadline=None)
@given(field_matrix())
@example(Matrix.zeros(GF(2), 0, 3))
@example(Matrix.zeros(GF(3), 3, 0))
@example(Matrix.zeros(QQ, 0, 0))
@example(Matrix.from_rows(GF(101), [[1, 2], [2, 4], [0, 0]]))
def test_kernels_are_independent_annihilators_spanning_the_oracle_kernel(m):
    """solve_right_kernel(m) and solve_null_space(m^T) give rows(m) - rank(m)
    independent rows v with v*m = 0 that span the oracle's left kernel."""
    char = m.field.characteristic
    oracle = oracle_left_kernel(as_lists(m), char)
    for kernel in (solve_right_kernel(m), solve_null_space(transpose(m))):
        assert (kernel.rows, kernel.cols) == (m.rows - oracle_rank(as_lists(m), char), m.rows)
        assert kernel.mul(m).is_zero()
        assert oracle_rank(as_lists(kernel), char) == kernel.rows == len(oracle)
        assert oracle_rank(as_lists(kernel) + oracle, char) == len(oracle)


@settings(max_examples=150, deadline=None)
@given(stacked_pair())
@example((Matrix.zeros(QQ, 2, 0), Matrix.zeros(QQ, 3, 0)))
@example((Matrix.zeros(GF(2), 0, 3), Matrix.zeros(GF(2), 0, 3)))
@example((Matrix.from_rows(GF(3), [[1, 1, 0], [0, 1, 1]]),
          Matrix.from_rows(GF(3), [[1, 2, 1], [1, 0, 2], [0, 0, 1], [1, 1, 1]])))
@example((Matrix.identity(QQ, 2), Matrix.from_rows(QQ, [[1, 1], [0, 3]])))
def test_independent_rows_equal_the_transpose_reference(pair):
    above, rows = pair
    assert independent_rows(above, rows) == reference_independent_rows(above, rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rref_coordinates_equal_solve_on_row_space_bases(data):
    """On a row_space basis, rref_coordinates gives solve_linear_system's x
    (unique, the basis rows being independent), and None for a b with a row
    off the span."""
    m = data.draw(field_matrix())
    fld, basis = m.field, row_space(m)
    b = data.draw(field_matrix(fld, cols=basis.rows)).mul(basis)
    x = rref_coordinates(basis, b)
    assert x is not None and x == solve_linear_system(basis, b)[0]
    assert x.mul(basis) == b
    extra = b.vstack(data.draw(field_matrix(fld, rows=1, cols=m.cols)))
    in_span = oracle_rank(as_lists(basis) + as_lists(extra), fld.characteristic) == basis.rows
    got = rref_coordinates(basis, extra)
    assert (got is not None) == in_span
    assert got == solve_linear_system(basis, extra)[0]


def test_rref_coordinates_reject_a_row_off_the_span():
    basis = row_space(M(GF(5), [[1, 2, 0], [2, 4, 1]]))
    assert rref_coordinates(basis, M(GF(5), [[0, 1, 0]])) is None
    assert rref_coordinates(basis, M(GF(5), [[3, 1, 4]])) == M(GF(5), [[3, 4]])
    assert rref_coordinates(Matrix.zeros(QQ, 0, 2), M(QQ, [[0, 1]])) is None
    assert rref_coordinates(Matrix.zeros(QQ, 0, 2), Matrix.zeros(QQ, 3, 2)) == Matrix.zeros(QQ, 3, 0)


HALF_Q = Matrix(QQ, 1, 2, ((Fraction(1, 2), 3),))
ROW_GF5 = Matrix(GF(5), 1, 2, ((4, 4),))
COL_GF5 = Matrix(GF(5), 2, 1, ((4,), (4,)))


@pytest.mark.parametrize("op", [
    lambda: HALF_Q.mul(COL_GF5),
    lambda: HALF_Q.add(ROW_GF5),
    lambda: HALF_Q.sub(ROW_GF5),
    lambda: HALF_Q.hstack(COL_GF5.take_rows([0])),
    lambda: HALF_Q.vstack(ROW_GF5),
    lambda: solve_linear_system(ROW_GF5, HALF_Q),
    lambda: independent_rows(HALF_Q, ROW_GF5),
    lambda: rref_coordinates(row_space(ROW_GF5), HALF_Q),
], ids=["mul", "add", "sub", "hstack", "vstack", "solve_linear_system", "independent_rows",
        "rref_coordinates"])
def test_mixed_field_operands_raise_input_error(op):
    with pytest.raises(InputError, match="GF\\(5\\)"):
        op()


# -- echelon input is not eliminated again ---------------------------------------


@st.composite
def echelon_variant(draw):
    """(kind, matrix): the RREF basis R of a drawn matrix, or R changed in
    one of the ways that keep or break the echelon forms rank and
    quotient_basis read without elimination."""
    m = draw(field_matrix())
    fld, R = m.field, row_space(m)
    rows = [list(r) for r in R.entries]
    kind = draw(st.sampled_from(["rref", "scaled", "above", "zero rows", "repeated",
                                 "swapped"]))
    if kind == "scaled":  # echelon, not reduced unless every scalar is one
        rows = [[fld.mul(c, x) for x in r]
                for c, r in zip(draw(st.lists(st.integers(1, 3), min_size=len(rows),
                                              max_size=len(rows))), rows)]
    elif kind == "above" and len(rows) > 1:  # echelon, nonzero above a pivot
        i = draw(st.integers(0, len(rows) - 2))
        rows[i] = [fld.add(a, b) for a, b in zip(rows[i], rows[-1])]
    elif kind == "zero rows":
        for _ in range(draw(st.integers(1, 2))):
            rows.insert(draw(st.integers(0, len(rows))), [fld.zero()] * R.cols)
    elif kind == "repeated" and rows:  # two equal leading columns
        i = draw(st.integers(0, len(rows) - 1))
        rows.insert(i, list(rows[i]))
    elif kind == "swapped" and len(rows) > 1:
        i = draw(st.integers(0, len(rows) - 2))
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
    return kind, Matrix(fld, len(rows), R.cols, tuple(map(tuple, rows)))


@settings(max_examples=300, deadline=None)
@given(echelon_variant())
@example(("rref", Matrix.zeros(GF(2), 0, 3)))
@example(("zero rows", Matrix.zeros(GF(3), 2, 3)))
@example(("rref", Matrix.zeros(QQ, 0, 0)))
@example(("repeated", Matrix.from_rows(GF(101), [[0, 1, 5], [0, 1, 5], [0, 0, 0]])))
@example(("above", Matrix.from_rows(QQ, [[1, 0, 2], [0, 1, 1]]).add(
    Matrix.from_rows(QQ, [[0, 1, 1], [0, 0, 0]]))))
@example(("scaled", Matrix.from_rows(GF(3), [[2, 0], [0, 1]])))
def test_rank_and_quotient_basis_of_echelon_input_equal_the_eliminating_path(case):
    """rank, row_space and quotient_basis on RREF bases, echelon forms and
    near misses equal the elimination of the same rows: the rank of rref,
    its nonzero rows, the unit vectors of its free columns and the
    reference projection."""
    _, sub = case
    fld, n = sub.field, sub.cols
    R, pivots = rref(sub)
    assert rank(sub) == len(pivots) == oracle_rank(as_lists(sub), fld.characteristic)
    assert row_space(sub).entries == R.entries[:len(pivots)]
    section, proj = quotient_basis(sub, n)
    free = [j for j in range(n) if j not in pivots]
    assert list(section.entries) == [tuple(1 if j == c else 0 for j in range(n)) for c in free]
    assert list(proj.entries) == reference_quotient_projection(fld, R, pivots, n)


def test_echelon_input_takes_no_elimination(monkeypatch):
    """An RREF basis goes through rank, row_space and quotient_basis with
    no call of _eliminate; a row echelon form through rank; any other
    matrix is eliminated once."""
    import quivertilt.linalg as linalg
    calls = []
    real = linalg._eliminate

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    basis = M(GF(5), [[1, 2, 0, 3], [0, 0, 1, 4]])
    assert rank(basis) == 2 and quotient_basis(basis, 4)[0].rows == 2 and calls == []
    assert row_space(basis) is basis and calls == []
    echelon = M(QQ, [[2, 1, 0], [0, 0, 0], [0, 3, 1]])
    assert rank(echelon) == 2 and calls == []
    assert quotient_basis(echelon, 3)[0].rows == 1 and len(calls) == 1
    assert rank(M(QQ, [[0, 1], [1, 0]])) == 2 and len(calls) == 2
