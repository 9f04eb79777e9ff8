"""Exact linear algebra over the rationals and prime fields.

Row-vector convention, used consistently by the whole package: vectors are
rows, linear maps act by right multiplication, and a subspace of K^n is a
matrix whose rows span it.  Consequently the kernel of a matrix ``m`` is
``{v : v*m = 0}`` and solving ``x*a = b`` treats the rows of ``b`` as
right-hand sides.

No floating point anywhere.  A rational has one canonical form: an ``int``
when it is integral and a ``fractions.Fraction`` with denominator > 1
otherwise, so integer matrices are eliminated in int arithmetic.  Since
``n == Fraction(n)``, ``hash(n) == hash(Fraction(n))`` and
``str(n) == str(Fraction(n))``, the form shows in no equality, hash or
text.  Prime field elements are ints in ``[0, p)``.  ``FieldSpec.coerce``
rejects floats, and the only division is ``FieldSpec.inv``, which builds
the inverse from numerator and denominator; no ``/`` operator is used, so
no arithmetic here can produce a float.

Row operations are specialised per field: the arithmetic is picked once
per field and shared by every elimination (one ``% p`` per entry over
GF(p); over Q, an integral Fraction result is turned back into an int,
and int arithmetic needs no check), and it touches only the nonzero
entries of the rows it combines, instead of dispatching every element
operation through ``FieldSpec``.  Operands over different fields raise
``InputError``.

Each routine eliminates once and computes only what it returns:

- ``solve_linear_system`` alone carries the transform T with T*m = R
  through the elimination, since it needs a particular solution.
- ``solve_right_kernel`` reads the kernel off the free columns of one
  RREF, with no transform; it eliminates the columns of m as row lists, so
  no transpose is built.
- ``rank``, ``row_space``, ``sum_subspaces`` and ``quotient_basis``
  reduce the matrix alone.  Input already in echelon
  form is not reduced again: ``rank`` counts the nonzero rows of a row
  echelon form, and ``quotient_basis`` reads the pivots of an RREF basis.
- ``independent_rows`` reduces each row against the echelon rows kept so
  far, with no stacked matrix, transpose or RREF.
- ``rref_coordinates`` reads coordinates in an RREF basis at its pivot
  columns and checks them with one product, with no elimination.

The elimination works on row lists, and each caller builds only the
matrices it returns.

Most matrices of a computation are tiny or empty (per-vertex blocks of
small modules), so they are made cheap without skipping any check:

- ``Matrix`` is a ``__slots__`` class, not a dataclass.  It is immutable:
  assigning or deleting an attribute raises ``FrozenInstanceError``.  Every
  construction runs the shape check in ``__post_init__``.
- ``Matrix.zeros`` and ``Matrix.identity`` return one shared object per
  field and shape, built and checked once, for shapes with both sides at
  most ``_SHARED_SIDE``; larger ones are built per call.
- Empty shapes take fast paths: a product with a zero dimension is the
  shared zero, a matrix with no rows or no columns is its own RREF with
  the identity as transform (so its kernel is everything and it solves
  only zero right-hand sides), and ``take_rows`` of no rows is the shared
  0 x c zero.
- The rank of a matrix with one row or one column is a nonzero test.
- A product with a shared identity is the other operand itself.  The
  shared identities are told apart by object identity (their ids are
  recorded when they are built), never by scanning entries.
- ``row_times(row, m)`` is the vector row*m as a tuple, summing only
  products of nonzero entries; no 1 x n matrix is built for it.
"""

from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

from .errors import DimensionMismatch, InputError


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _q(x):
    """Canonical form of a rational: the int when x is integral."""
    return x.numerator if x.__class__ is Fraction and x.denominator == 1 else x


@dataclass(frozen=True)
class FieldSpec:
    """Ground field: the rationals (characteristic 0) or F_p, p prime < 2**31.

    Elements are ints in [0, p) over F_p.  Over Q an element is an int when
    it is integral and a ``Fraction`` with denominator > 1 otherwise; every
    operation here takes and returns that canonical form."""

    kind: str = "rationals"
    characteristic: int = 0

    def __post_init__(self):
        if self.kind == "rationals":
            if self.characteristic != 0:
                raise InputError("rationals have characteristic 0")
        elif self.kind == "prime-field":
            p = self.characteristic
            if not (2 <= p < 2**31 and _is_prime(p)):
                raise InputError(f"characteristic must be a prime < 2**31, got {p}")
        else:
            raise InputError(f"unknown field kind {self.kind!r}")

    # -- element operations ------------------------------------------------

    @staticmethod
    def zero():
        return 0

    @staticmethod
    def one():
        return 1

    def coerce(self, x):
        """Coerce an int, Fraction or 'a/b' string into the field.  Floats
        are rejected: they are not exact."""
        if isinstance(x, str):
            try:
                x = Fraction(x)
            except (ValueError, ZeroDivisionError):
                raise InputError(f"malformed number {x!r}") from None
        elif isinstance(x, float):
            raise InputError(f"floating-point value {x!r} is not exact; "
                             "pass an int, a Fraction or an 'a/b' string")
        if self.kind == "prime-field":
            p = self.characteristic
            if isinstance(x, Fraction):
                if x.denominator % p == 0:
                    raise InputError(f"denominator of {x} not invertible mod {p}")
                return (x.numerator * pow(x.denominator, p - 2, p)) % p
            return int(x) % p
        if x.__class__ is int:
            return x
        return _q(x if x.__class__ is Fraction else Fraction(x))

    def add(self, a, b):
        if self.kind == "prime-field":
            return (a + b) % self.characteristic
        return _q(a + b)

    def sub(self, a, b):
        if self.kind == "prime-field":
            return (a - b) % self.characteristic
        return _q(a - b)

    def mul(self, a, b):
        if self.kind == "prime-field":
            return (a * b) % self.characteristic
        return _q(a * b)

    def neg(self, a):
        if self.kind == "prime-field":
            return (-a) % self.characteristic
        return -a

    def inv(self, a):
        if self.kind == "prime-field":
            if a % self.characteristic == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, self.characteristic - 2, self.characteristic)
        # 1/(n/d) = d/n, an int exactly when n = ±1
        n, d = a.numerator, a.denominator
        if n == 0:
            raise ZeroDivisionError("inverse of 0")
        if n < 0:
            n, d = -n, -d
        return d if n == 1 else Fraction(d, n)

    def __str__(self):
        return "Q" if self.kind == "rationals" else f"GF({self.characteristic})"


QQ = FieldSpec()


def GF(p: int) -> FieldSpec:
    return FieldSpec("prime-field", p)


class Matrix:
    """Immutable exact matrix.  A 0 x n or n x 0 matrix is a valid value and
    represents the zero map to or from the zero space.

    ``entries`` is a tuple of row tuples.  Every construction checks the
    grid against the declared shape in ``__post_init__``; assigning or
    deleting an attribute afterwards raises."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldSpec, rows: int, cols: int, entries: tuple = ()):
        _set_field(self, field)
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_entries(self, entries)
        self.__post_init__()

    def __post_init__(self):
        entries, cols = self.entries, self.cols
        if len(entries) != self.rows:
            raise DimensionMismatch("entry grid does not match declared shape")
        for r in entries:
            if len(r) != cols:
                raise DimensionMismatch("entry grid does not match declared shape")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(
            f"cannot assign {type(value).__name__} to field {name!r} of immutable {self!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r} of immutable {self!r}")

    def __reduce__(self):
        return Matrix, (self.field, self.rows, self.cols, self.entries)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_rows(fld: FieldSpec, rows, cols: int | None = None) -> "Matrix":
        rows = [tuple(fld.coerce(x) for x in r) for r in rows]
        if cols is None:
            if not rows:
                raise InputError("cannot infer column count of an empty matrix")
            cols = len(rows[0])
        return Matrix(fld, len(rows), cols, tuple(rows))

    @staticmethod
    def zeros(fld: FieldSpec, rows: int, cols: int) -> "Matrix":
        return _zeros(fld, rows, cols)

    @staticmethod
    def identity(fld: FieldSpec, n: int) -> "Matrix":
        return _identity(fld, n)

    # -- basic algebra -------------------------------------------------------

    def mul(self, other: "Matrix") -> "Matrix":
        _check_fields(self, other, "mul")
        if self.cols != other.rows:
            raise DimensionMismatch(f"({self.rows}x{self.cols}) * ({other.rows}x{other.cols})")
        if not (self.rows and self.cols and other.cols):
            return _zeros(self.field, self.rows, other.cols)
        if id(self) in _shared_identity_ids:
            return other
        if id(other) in _shared_identity_ids:
            return self
        return Matrix(self.field, self.rows, other.cols,
                      _mul_entries(self.field, self.entries, other.entries, other.cols))

    def add(self, other: "Matrix") -> "Matrix":
        _check_fields(self, other, "add")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        f = self.field.add
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple(f(a, b) for a, b in zip(r, s)) for r, s in zip(self.entries, other.entries)))

    def sub(self, other: "Matrix") -> "Matrix":
        _check_fields(self, other, "sub")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix subtraction shape mismatch")
        f = self.field.sub
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple(f(a, b) for a, b in zip(r, s)) for r, s in zip(self.entries, other.entries)))

    def neg(self) -> "Matrix":
        f = self.field.neg
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple(f(a) for a in r) for r in self.entries))

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        f = self.field.mul
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple(f(c, a) for a in r) for r in self.entries))

    def hstack(self, other: "Matrix") -> "Matrix":
        _check_fields(self, other, "hstack")
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return Matrix(self.field, self.rows, self.cols + other.cols,
                      tuple(r + s for r, s in zip(self.entries, other.entries)))

    def vstack(self, other: "Matrix") -> "Matrix":
        _check_fields(self, other, "vstack")
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        rows = self.rows + other.rows
        if not (rows and self.cols):
            return _zeros(self.field, rows, self.cols)
        return Matrix(self.field, rows, self.cols, self.entries + other.entries)

    def take_rows(self, idxs) -> "Matrix":
        if not idxs:
            return _zeros(self.field, 0, self.cols)
        return Matrix(self.field, len(idxs), self.cols, tuple(self.entries[i] for i in idxs))

    def take_cols(self, idxs) -> "Matrix":
        if not (self.rows and idxs):
            return _zeros(self.field, self.rows, len(idxs))
        return Matrix(self.field, self.rows, len(idxs),
                      tuple(tuple(r[j] for j in idxs) for r in self.entries))

    def is_zero(self) -> bool:
        return all(not x for r in self.entries for x in r)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field})"


def _check_fields(a: Matrix, b: Matrix, op: str):
    """Raise InputError unless a and b are over the same field (a field is
    determined by its characteristic)."""
    if a.field.characteristic != b.field.characteristic:
        raise InputError(f"{op}: a matrix over {a.field} with one over {b.field}")


# Slot setters: __init__ writes the slots past the raising __setattr__.
_set_field, _set_rows, _set_cols, _set_entries = (Matrix.__dict__[name].__set__
                                                  for name in Matrix.__slots__)

# Zeros and identities with both sides at most _SHARED_SIDE are built and
# checked once per field and shape, then shared: a Matrix is immutable.
# Larger ones are built per call, so a large module pins no large constant.
# A field is determined by its characteristic, which keys the caches.
_SHARED_SIDE = 32
_shared_zeros = {}
_shared_identities = {}
_shared_identity_ids = set()  # ids of the objects in _shared_identities


def _zeros(fld: FieldSpec, rows: int, cols: int) -> Matrix:
    key = (fld.characteristic, rows, cols)
    m = _shared_zeros.get(key)
    if m is None:
        m = Matrix(fld, rows, cols, ((fld.zero(),) * cols,) * rows)
        if rows <= _SHARED_SIDE and cols <= _SHARED_SIDE:
            _shared_zeros[key] = m
    return m


def _identity(fld: FieldSpec, n: int) -> Matrix:
    key = (fld.characteristic, n)
    m = _shared_identities.get(key)
    if m is None:
        z, o = fld.zero(), fld.one()
        m = Matrix(fld, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))
        if n <= _SHARED_SIDE:
            _shared_identities[key] = m
            _shared_identity_ids.add(id(m))
    return m


# -- row arithmetic and elimination ----------------------------------------


def _mul_entries(fld: FieldSpec, rows, other, cols: int) -> tuple:
    """Entries of rows*other, summing only products of nonzero entries; over
    GF(p) each entry is reduced once, after its sum."""
    zero = fld.zero()
    if not rows or not cols:
        return tuple((zero,) * cols for _ in rows)
    other_nz = [[(j, b) for j, b in enumerate(r) if b] for r in other]
    out = []
    for r in rows:
        acc = [zero] * cols
        for a, nz in zip(r, other_nz):
            if a:
                for j, b in nz:
                    acc[j] += a * b
        out.append(acc)
    if fld.kind == "prime-field":
        p = fld.characteristic
        return tuple(tuple([x % p for x in acc]) for acc in out)
    return tuple(tuple([x if x.__class__ is int else _q(x) for x in acc]) for acc in out)


def row_times(row, m: Matrix) -> tuple:
    """The vector row*m as a tuple, summing only products of nonzero
    entries; over GF(p) each entry is reduced once, after its sum."""
    if len(row) != m.rows:
        raise DimensionMismatch(f"(1x{len(row)}) * ({m.rows}x{m.cols})")
    if id(m) in _shared_identity_ids:
        return tuple(row)
    fld = m.field
    acc = [fld.zero()] * m.cols
    for a, r in zip(row, m.entries):
        if a:
            for j, b in enumerate(r):
                if b:
                    acc[j] += a * b
    if fld.kind == "prime-field":
        p = fld.characteristic
        return tuple([x % p for x in acc])
    return tuple([x if x.__class__ is int else _q(x) for x in acc])


_ROW_OPS = {}  # characteristic -> (scale, axpy)


def _row_ops(fld: FieldSpec):
    """Row operations of the field, built once per field and shared.

    scale(c, row) returns c*row; axpy(row, c, nz) subtracts c times a pivot
    row from row in place, where nz lists the pivot row's nonzero
    (column, value) pairs.  Skipping the zero columns changes no value,
    since a - c*0 == a in both fields.  Over Q a result is put back into
    canonical form only when a Fraction took part: int arithmetic gives
    ints."""
    ops = _ROW_OPS.get(fld.characteristic)
    if ops is not None:
        return ops
    if fld.kind == "prime-field":
        p = fld.characteristic

        def scale(c, row):
            return [c * x % p for x in row]

        def axpy(row, c, nz):
            for j, b in nz:
                row[j] = (row[j] - c * b) % p
    else:
        def scale(c, row):
            return [_q(c * x) for x in row]

        def axpy(row, c, nz):
            for j, b in nz:
                x = row[j] - c * b
                row[j] = x if x.__class__ is int else _q(x)
    ops = _ROW_OPS[fld.characteristic] = (scale, axpy)
    return ops


def _eliminate(fld: FieldSpec, rows, cols: int, with_transform: bool):
    """Gauss-Jordan elimination of the given rows (sequences of length
    cols, any iterable of them) on row lists.  Returns (work, pivots,
    trans): the rows of the reduced row echelon form R, its pivot columns,
    and, with ``with_transform``, the rows of an invertible T with T*m = R
    for m the matrix of the rows (otherwise None).  Callers build only the
    matrices they return."""
    scale, axpy = _row_ops(fld)
    one = fld.one()
    work = [list(r) for r in rows]
    n = len(work)
    trans = None
    if with_transform:
        zero = fld.zero()
        trans = [[zero] * n for _ in range(n)]
        for i in range(n):
            trans[i][i] = one
    pivots = []
    pr = 0
    for pc in range(cols):
        sel = None
        for i in range(pr, n):
            if work[i][pc]:
                sel = i
                break
        if sel is None:
            continue
        work[pr], work[sel] = work[sel], work[pr]
        piv = work[pr][pc]
        if piv != one:
            iv = fld.inv(piv)
            work[pr] = scale(iv, work[pr])
        # every row from pr on is zero before column pc
        row = work[pr]
        work_nz = [(j, row[j]) for j in range(pc, cols) if row[j]]
        if with_transform:
            trans[pr], trans[sel] = trans[sel], trans[pr]
            if piv != one:
                trans[pr] = scale(iv, trans[pr])
            trans_nz = [(j, x) for j, x in enumerate(trans[pr]) if x]
        for i in range(n):
            if i != pr and work[i][pc]:
                c = work[i][pc]
                axpy(work[i], c, work_nz)
                if with_transform:
                    axpy(trans[i], c, trans_nz)
        pivots.append(pc)
        pr += 1
        if pr == n:
            break
    return work, tuple(pivots), trans


def _rows_matrix(fld: FieldSpec, cols: int, rows) -> Matrix:
    """Matrix of the given row lists, each of length cols."""
    if not rows:
        return _zeros(fld, 0, cols)
    return Matrix(fld, len(rows), cols, tuple(map(tuple, rows)))


def independent_rows(above: Matrix, rows: Matrix) -> tuple:
    """Indices of the rows of ``rows`` independent modulo the span of
    ``above`` and of the rows before them.

    Each row of [above; rows], in order, is reduced against the normalized
    echelon rows kept so far, taken in the order they were kept (each is
    zero at the pivots of those before it, so one sweep clears every
    pivot); a nonzero residual is normalized and kept, and its index is
    returned when the row is one of ``rows``.  These are the pivot columns
    of the transpose of [above; rows] past above's rows; no matrix is
    built, and once the kept rows span K^n every later row is dependent."""
    _check_fields(above, rows, "independent_rows")
    if above.cols != rows.cols:
        raise DimensionMismatch("independent_rows column mismatch")
    fld = rows.field
    scale, axpy = _row_ops(fld)
    one, cols, first = fld.one(), rows.cols, above.rows
    echelon = []  # (pivot column, nonzero (column, value) pairs), pivot entry one
    kept = []
    for i, row in enumerate(above.entries + rows.entries):
        if len(echelon) == cols:
            break
        residual = list(row)
        for pc, nz in echelon:
            c = residual[pc]
            if c:
                axpy(residual, c, nz)
        pc = next((j for j, x in enumerate(residual) if x), None)
        if pc is None:
            continue
        if residual[pc] != one:
            residual = scale(fld.inv(residual[pc]), residual)
        echelon.append((pc, [(j, residual[j]) for j in range(pc, cols) if residual[j]]))
        if i >= first:
            kept.append(i - first)
    return tuple(kept)


def _leading_column(row):
    """Index of the first nonzero entry of row, or None for a zero row."""
    for j, x in enumerate(row):
        if x:
            return j
    return None


def _echelon_rank(rows):
    """The number of nonzero rows when their leading columns strictly
    increase (a row echelon form, zero rows anywhere), else None.  Such
    rows are independent, so the count is the rank."""
    last, count = -1, 0
    for r in rows:
        lead = _leading_column(r)
        if lead is None:
            continue
        if lead <= last:
            return None
        last, count = lead, count + 1
    return count


def _rref_pivots(rows, one):
    """The pivot columns of rows that are the nonzero rows of a reduced row
    echelon form (each row nonzero with leading entry one, leading columns
    strictly increasing, every other row zero at each leading column),
    else None.  Rows below a row lead past its leading column, so only the
    rows above are checked there."""
    pivots = []
    for r in rows:
        lead = _leading_column(r)
        if lead is None or r[lead] != one or (pivots and lead <= pivots[-1]):
            return None
        pivots.append(lead)
    for k, pc in enumerate(pivots):
        if any(rows[i][pc] for i in range(k)):
            return None
    return tuple(pivots)


def rank(m: Matrix) -> int:
    """Rank of m, with one elimination at most.  Two exact tests come
    first and need none: a matrix with one row or one column has rank 1
    exactly when it is nonzero, and a matrix in row echelon form (nonzero
    rows with strictly increasing leading columns, such as the RREF bases
    of ``row_space`` and ``submodule_from_rows``) has the count of its
    nonzero rows.  Any other matrix is eliminated."""
    if not (m.rows and m.cols):
        return 0
    if m.rows == 1 or m.cols == 1:
        return 0 if m.is_zero() else 1
    r = _echelon_rank(m.entries)
    if r is not None:
        return r
    return len(_eliminate(m.field, m.entries, m.cols, False)[1])


def row_space(m: Matrix) -> Matrix:
    """Canonical basis (rref rows) of the row span.  A matrix that already
    is the nonzero rows of an RREF (checked as in ``quotient_basis``) is
    that basis and is returned as it is; any other is eliminated once."""
    if not m.rows or _rref_pivots(m.entries, m.field.one()) is not None:
        return m
    work, pivots, _ = _eliminate(m.field, m.entries, m.cols, False)
    return _rows_matrix(m.field, m.cols, work[:len(pivots)])


def _null_space(fld: FieldSpec, eqs, n: int) -> Matrix:
    """Basis of {x in K^n : e . x = 0 for every equation row e of eqs},
    read off the free columns of R = rref(eqs) with no transform: for each
    free column f in increasing order, the row with 1 at f, -R[k][f] at the
    pivot column of each row k of R, and 0 elsewhere."""
    work, pivots, _ = _eliminate(fld, eqs, n, False)
    if not pivots:
        return _identity(fld, n)
    pivot_set = set(pivots)
    free = [f for f in range(n) if f not in pivot_set]
    if not free:
        return _zeros(fld, 0, n)
    neg, zero, one = fld.neg, fld.zero(), fld.one()
    basis = []
    for f in free:
        v = [zero] * n
        v[f] = one
        for k, pc in enumerate(pivots):
            if work[k][f]:
                v[pc] = neg(work[k][f])
        basis.append(tuple(v))
    return Matrix(fld, len(free), n, tuple(basis))


def solve_right_kernel(m: Matrix) -> Matrix:
    """Basis of {v : v*m = 0}, one basis vector per row.

    These are the solutions of the equations m^T, whose rows (the columns
    of m) are eliminated as row lists with no transform and no transposed
    Matrix; the basis is the free-column basis of rref(m^T)
    (``_null_space``).  Row count is rows(m) - rank(m); the rows are
    linearly independent.  The span is determined by m, the basis is not:
    every basis built from it (Hom bases, Ext cocycle representatives,
    resolution differentials) is basis-dependent, while dimensions and
    verdicts are not.
    """
    return _null_space(m.field, zip(*m.entries), m.rows)


def rref_coordinates(basis: Matrix, b: Matrix):
    """x with x*basis = b, or None when some row of b is not in the row
    span of basis.  ``basis`` must be the nonzero rows of a reduced row
    echelon form, as ``row_space`` returns them.

    Row k of such a basis is the only one nonzero at its pivot column,
    where it is 1, so x is b read at the pivot columns; x is accepted only
    if x*basis == b, one product and no elimination."""
    _check_fields(basis, b, "rref_coordinates")
    if basis.cols != b.cols:
        raise DimensionMismatch("rref_coordinates: cols(basis) != cols(b)")
    fld = basis.field
    pivots = [_leading_column(r) for r in basis.entries]
    x = tuple(tuple([r[j] for j in pivots]) for r in b.entries)
    if _mul_entries(fld, x, basis.entries, basis.cols) != b.entries:
        return None
    if not (b.rows and basis.rows):
        return _zeros(fld, b.rows, basis.rows)
    return Matrix(fld, b.rows, basis.rows, x)


def solve_linear_system(a: Matrix, b: Matrix):
    """Find x with x*a = b.  Returns (x, kernel) where x is one particular
    solution (or None when unsolvable) and kernel is a basis of
    {v : v*a = 0}.  Requires cols(a) = cols(b)."""
    _check_fields(a, b, "solve_linear_system")
    if a.cols != b.cols:
        raise DimensionMismatch("solve_linear_system: cols(a) != cols(b)")
    fld = a.field
    if not (a.rows and a.cols):
        # every v*a is zero: b must be zero, and x = 0 is a solution
        kernel = _identity(fld, a.rows)
        return (_zeros(fld, b.rows, a.rows) if b.is_zero() else None), kernel
    work, pivots, trans = _eliminate(fld, a.entries, a.cols, True)
    _, axpy = _row_ops(fld)
    pivot_nz = [[(j, x) for j, x in enumerate(work[k]) if x] for k in range(len(pivots))]
    kernel = _rows_matrix(fld, a.rows, trans[len(pivots):])
    zero = fld.zero()
    coeff_rows = []
    for brow in b.entries:
        # express brow in the reduced row basis of a
        residual = list(brow)
        coeffs = [zero] * a.rows
        for k, pc in enumerate(pivots):
            c = residual[pc]
            if c:
                coeffs[k] = c
                axpy(residual, c, pivot_nz[k])
        if any(residual):
            return None, kernel
        coeff_rows.append(coeffs)
    # y*R = brow with y supported on pivot rows; x = y*T
    return Matrix(fld, b.rows, a.rows, _mul_entries(fld, coeff_rows, trans, a.rows)), kernel


def quotient_basis(sub: Matrix, ambient_dim: int):
    """Quotient of K^n by the row span of `sub` (a matrix with n columns).

    Returns (section, projection): section is a q x n matrix whose rows are
    coset representatives forming a basis of the quotient, the unit vectors
    of the q coordinates that are not pivots of `sub`; projection is the
    n x q matrix of the quotient map in coordinates.  Identities:
    section*projection = I_q and sub*projection = 0.

    A ``sub`` that is already the nonzero rows of an RREF (checked: unit
    pivots, pivot columns otherwise zero), as ``row_space`` returns it, is
    not eliminated again: its pivots are read off.  Any other ``sub`` is
    eliminated once.  Both give the same RREF of the span, so the section
    and projection depend on the span of ``sub`` only.
    """
    fld = sub.field
    if sub.cols != ambient_dim:
        raise DimensionMismatch("quotient_basis: subspace ambient dimension mismatch")
    if not (sub.rows and sub.cols):
        ident = _identity(fld, ambient_dim)
        return ident, ident
    work, pivots = sub.entries, _rref_pivots(sub.entries, fld.one())
    if pivots is None:
        work, pivots, _ = _eliminate(fld, sub.entries, sub.cols, False)
    pivot_set = set(pivots)
    free = [j for j in range(ambient_dim) if j not in pivot_set]
    zero, one = fld.zero(), fld.one()
    section = Matrix(fld, len(free), ambient_dim,
                     tuple(tuple(one if j == c else zero for j in range(ambient_dim)) for c in free))
    # e_i reduced modulo R, read at the free coordinates: -R_k[free] when i
    # is the pivot column of row k (R_k is zero at every other pivot
    # column), and the unit vector of i when i is free
    proj_rows = [None] * ambient_dim
    for k, pc in enumerate(pivots):
        proj_rows[pc] = tuple(fld.neg(work[k][j]) for j in free)
    for q, c in enumerate(free):
        proj_rows[c] = tuple(one if t == q else zero for t in range(len(free)))
    projection = Matrix(fld, ambient_dim, len(free), tuple(proj_rows))
    return section, projection


def sum_subspaces(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.cols:
        raise DimensionMismatch("sum_subspaces ambient mismatch")
    return row_space(a.vstack(b))


def intersect_subspaces(a: Matrix, b: Matrix) -> Matrix:
    """Basis of (row span a) ∩ (row span b)."""
    if a.cols != b.cols:
        raise DimensionMismatch("intersect_subspaces ambient mismatch")
    if a.rows == 0 or b.rows == 0:
        return Matrix.zeros(a.field, 0, a.cols)
    stacked = a.vstack(b)
    ker = solve_right_kernel(stacked)  # rows (x | y) with x*a + y*b = 0
    xpart = ker.take_cols(range(a.rows))
    return row_space(xpart.mul(a))
