"""Right modules over a path algebra as quiver representations.

A representation assigns a vector space dimension to every vertex and a
matrix to every arrow; module elements are row vectors per vertex and an
arrow s -> t acts by right multiplication with a dims(s) x dims(t) matrix.

Hom out of a module built by ``proj_sum`` is read off its generators by
Yoneda (``hom_from_gens``, which propagates the generator images along
arrows, one arrow matrix per path); any other Hom space solves the
naturality system.

Membership in add(T) is decided by the minimal right add(T)-approximation
(``right_add_approximation``): x is in add(T) exactly when it is an
isomorphism, so x is never decomposed; the Krull-Schmidt decomposition
(``decompose``) is read off T alone.

The Krull-Schmidt split (``summand_factors``) is a list of indecomposable
factor modules and nothing else: a recorded ``direct_sum`` lists its parts'
factors, and a Fitting split lists those of ker(f^N) and im(f^N); no
inclusion or projection is built.  ``decompose`` groups the factors by
``_same_class``, an exact test for indecomposables, so it never reaches
``is_isomorphic``.

A quotient by a span of rows (``cokernel``, ``quotient``, and the pushout,
trace quotient and A/AeA elsewhere) takes one ``row_space`` per vertex and
reads the quotient off that RREF (``_quotient_by_rows``): no submodule,
inclusion or coordinates of the span are built, and the action-stability
check comes out of the same product per arrow that gives the quotient's
arrow matrix.  The minimal right approximation builds its radical rows
h·g one row of h at a time (``row_times``), composing no map.
"""

import itertools
from dataclasses import dataclass, field as _dc_field

from .algebra import Algebra, _memo
from .errors import ConsistencyError, DimensionMismatch, InputError
from .linalg import (Matrix, _mul_entries, _null_space, independent_rows,
                     intersect_subspaces, quotient_basis, rank, row_space, row_times,
                     rref_coordinates, solve_linear_system, solve_right_kernel,
                     sum_subspaces)


@dataclass(frozen=True)
class Representation:
    algebra: Algebra
    dims: dict  # vertex -> dimension
    arrow_mats: dict  # arrow name -> Matrix dims(s) x dims(t)
    _caches: dict = _dc_field(default_factory=dict, compare=False, repr=False)
    # set by proj_sum alone, for ⊕_j P_{gens[j]}, else None (the class
    # default, which _trusted leaves in place): the generator vertices, the
    # basis of proj_sum_layout (vertex -> tuple of (generator index,
    # algebra basis index)) and generator j -> (vertex, row index there)
    gens: tuple = _dc_field(default=None, init=False, compare=False, repr=False)
    layout: dict = _dc_field(default=None, init=False, compare=False, repr=False)
    gen_pos: tuple = _dc_field(default=None, init=False, compare=False, repr=False)
    # the summands direct_sum built this module from, in order, else () (the
    # class default, which _trusted leaves in place): a record, not a memo
    _parts: tuple = _dc_field(default=(), init=False, compare=False, repr=False)

    def __post_init__(self):
        alg = self.algebra
        if set(self.dims) != set(alg.vertices):
            raise DimensionMismatch("dims must cover exactly the vertices")
        for name, s, t in alg.quiver.arrows:
            m = self.arrow_mats.get(name)
            if m is None or (m.rows, m.cols) != (self.dims[s], self.dims[t]):
                raise DimensionMismatch(f"arrow {name}: matrix shape mismatch")
        self._check_relations()

    @classmethod
    def _trusted(cls, algebra, dims, arrow_mats) -> "Representation":
        """Build without the checks of __post_init__, for representations
        that are valid by construction from already-checked inputs."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "algebra", algebra)
        object.__setattr__(obj, "dims", dims)
        object.__setattr__(obj, "arrow_mats", arrow_mats)
        object.__setattr__(obj, "_caches", {})
        return obj

    def _check_relations(self):
        alg = self.algebra
        for rel in alg.relations:
            acc = None
            for coeff, word in rel.terms:
                m = self.path_matrix(word)
                m = m.scale(coeff)
                acc = m if acc is None else acc.add(m)
            if acc is not None and not acc.is_zero():
                raise ConsistencyError("representation violates an algebra relation")

    def path_matrix(self, word) -> Matrix:
        """Action matrix of an arrow word (length >= 1), left-to-right."""
        alg = self.algebra
        s = alg.arrow_endpoints(word[0])[0]
        m = Matrix.identity(alg.field, self.dims[s])
        for a in word:
            m = m.mul(self.arrow_mats[a])
        return m

    def basis_action(self, i: int) -> Matrix:
        """Action matrix of basis path i, from dims(source) to dims(target).
        A path a * p' of length >= 2 acts as arrow_mats[a] times the action
        of its suffix p', a basis path in a certified algebra."""
        def compute():
            alg = self.algebra
            src, word = alg.basis[i]
            if not word:
                return Matrix.identity(alg.field, self.dims[src])
            if len(word) == 1:
                return self.arrow_mats[word[0]]
            return self.arrow_mats[word[0]].mul(self.basis_action(alg.suffix_index(i)))
        return _memo(self, ("act", i), compute)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def dim_vector(self) -> tuple:
        return tuple(self.dims[v] for v in self.algebra.vertices)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    # offsets of each vertex block inside the flattened total space
    def offsets(self) -> dict:
        def compute():
            off, acc = {}, 0
            for v in self.algebra.vertices:
                off[v] = acc
                acc += self.dims[v]
            return off
        return _memo(self, "off", compute)

    def __repr__(self):
        return f"Representation(dims={self.dim_vector()})"


@dataclass(frozen=True)
class ModuleMap:
    source: Representation
    target: Representation
    mats: dict  # vertex -> Matrix dims_src(v) x dims_tgt(v)

    def __post_init__(self):
        if self.source.algebra is not self.target.algebra:
            raise InputError("module map between different algebras")
        alg = self.source.algebra
        for v in alg.vertices:
            m = self.mats.get(v)
            if m is None or (m.rows, m.cols) != (self.source.dims[v], self.target.dims[v]):
                raise DimensionMismatch(f"vertex {v}: map matrix shape mismatch")
        for name, s, t in alg.quiver.arrows:
            lhs = self.mats[s].mul(self.target.arrow_mats[name])
            rhs = self.source.arrow_mats[name].mul(self.mats[t])
            if lhs != rhs:
                raise ConsistencyError(f"map is not natural at arrow {name}")

    @classmethod
    def _trusted(cls, source, target, mats) -> "ModuleMap":
        """Build without the checks of __post_init__, for maps that are
        natural by construction from already-checked inputs."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "source", source)
        object.__setattr__(obj, "target", target)
        object.__setattr__(obj, "mats", mats)
        return obj

    # -- algebra of maps ----------------------------------------------------
    #
    # Sums, scalings and composites of natural maps between the same modules
    # are natural, so these constructors check only that the modules agree.

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self followed by other (diagrammatic order)."""
        if not _same_module(self.target, other.source):
            raise DimensionMismatch("composition target/source mismatch")
        return ModuleMap._trusted(self.source, other.target,
                                  {v: self.mats[v].mul(other.mats[v]) for v in self.mats})

    def _check_parallel(self, other: "ModuleMap"):
        if not (_same_module(self.source, other.source)
                and _same_module(self.target, other.target)):
            raise DimensionMismatch("maps have different sources or targets")

    def add(self, other: "ModuleMap") -> "ModuleMap":
        self._check_parallel(other)
        return ModuleMap._trusted(self.source, self.target,
                                  {v: self.mats[v].add(other.mats[v]) for v in self.mats})

    def sub(self, other: "ModuleMap") -> "ModuleMap":
        self._check_parallel(other)
        return ModuleMap._trusted(self.source, self.target,
                                  {v: self.mats[v].sub(other.mats[v]) for v in self.mats})

    def scale(self, c) -> "ModuleMap":
        return ModuleMap._trusted(self.source, self.target,
                                  {v: self.mats[v].scale(c) for v in self.mats})

    def neg(self) -> "ModuleMap":
        return self.scale(-1)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())

    def is_injective(self) -> bool:
        return all(rank(self.mats[v]) == self.source.dims[v] for v in self.mats)

    def is_surjective(self) -> bool:
        return all(rank(self.mats[v]) == self.target.dims[v] for v in self.mats)

    def is_isomorphism(self) -> bool:
        return (self.source.dims == self.target.dims and self.is_injective())

    def __repr__(self):
        return f"ModuleMap({self.source.dim_vector()} -> {self.target.dim_vector()})"


def _same_module(m: Representation, n: Representation) -> bool:
    """The same module, as an object or by its algebra, dims and arrow matrices."""
    return m is n or (m.algebra is n.algebra and m.dims == n.dims
                      and m.arrow_mats == n.arrow_mats)


def identity_map(m: Representation) -> ModuleMap:
    fld = m.algebra.field
    return ModuleMap._trusted(m, m, {v: Matrix.identity(fld, m.dims[v]) for v in m.algebra.vertices})


def zero_map(m: Representation, n: Representation) -> ModuleMap:
    if m.algebra is not n.algebra:
        raise InputError("module map between different algebras")
    fld = m.algebra.field
    return ModuleMap._trusted(m, n, {v: Matrix.zeros(fld, m.dims[v], n.dims[v])
                                     for v in m.algebra.vertices})


# -- hom spaces ----------------------------------------------------------------


@dataclass(frozen=True)
class HomSpace:
    source: Representation
    target: Representation
    basis: tuple  # of ModuleMap

    @property
    def dim(self) -> int:
        return len(self.basis)

    def combo(self, coeffs) -> ModuleMap:
        if len(coeffs) != self.dim:
            raise InputError(f"{len(coeffs)} coefficients for a Hom space of dimension {self.dim}")
        fld = self.source.algebra.field
        grids = {v: [[fld.zero()] * self.target.dims[v]
                     for _ in range(self.source.dims[v])]
                 for v in self.source.algebra.vertices}
        for c, b in zip(coeffs, self.basis):
            if not c:
                continue
            for v, grid in grids.items():
                ent = b.mats[v].entries
                for i in range(len(grid)):
                    row = grid[i]
                    bent = ent[i]
                    for j in range(len(row)):
                        if bent[j]:
                            row[j] = fld.add(row[j], fld.mul(c, bent[j]))
        mats = {v: Matrix(self.source.algebra.field, self.source.dims[v],
                          self.target.dims[v], tuple(tuple(r) for r in grid))
                for v, grid in grids.items()}
        return ModuleMap._trusted(self.source, self.target, mats)


def _entry_count(m: Representation, n: Representation) -> int:
    return sum(m.dims[v] * n.dims[v] for v in m.algebra.vertices)


def _flatten_map(f: ModuleMap) -> tuple:
    out = []
    for v in f.source.algebra.vertices:
        for r in f.mats[v].entries:
            out.extend(r)
    return tuple(out)


def _unflatten_map(m: Representation, n: Representation, flat) -> ModuleMap:
    fld = m.algebra.field
    mats = {}
    pos = 0
    for v in m.algebra.vertices:
        r, c = m.dims[v], n.dims[v]
        if not (r and c):
            mats[v] = Matrix.zeros(fld, r, c)
            continue
        mats[v] = Matrix(fld, r, c, tuple(tuple(flat[pos + i * c:pos + (i + 1) * c])
                                          for i in range(r)))
        pos += r * c
    return ModuleMap._trusted(m, n, mats)


def hom_space(m: Representation, n: Representation) -> HomSpace:
    """Exact basis of Hom(m, n).

    Out of a module built by ``proj_sum`` the basis is read off its own
    generator fields by Yoneda, Hom(⊕_j P_{v_j}, n) = ⊕_j n_{v_j}: one map
    per generator j and unit vector of n_{v_j}, in that order, each sending
    generator j to the unit vector and the others to 0 (``hom_from_gens``),
    with no elimination: Hom through a presentation with no relations
    (P_1 = 0).  Any other m solves the naturality system
    (``_solve_hom_space``).  The two routes
    span the same space but give different bases: every output read off
    individual basis maps depends on the route, while dim Hom does not.

    End(m), asked for with n the same object as m, is memoized in m's
    cache; a HomSpace is immutable, so every caller may share it.  Other
    targets are solved each time: they are rarely asked for twice as the
    same object, and a cached entry would keep its target alive."""
    if m.algebra is not n.algebra:
        raise InputError("hom_space across different algebras")
    if n is not m:
        return _hom_space(m, n)
    return _memo(m, "end", lambda: _hom_space(m, m))


def _hom_space(m: Representation, n: Representation) -> HomSpace:
    """Hom(m, n) by Yoneda when ``proj_sum`` built m, else by
    ``_solve_hom_space``."""
    if m.gens is None:
        return _solve_hom_space(m, n)
    fld = m.algebra.field
    zero, one = fld.zero(), fld.one()
    zeros = [(zero,) * n.dims[v] for v in m.gens]
    basis = []
    for j, v in enumerate(m.gens):
        for k in range(n.dims[v]):
            images = list(zeros)
            images[j] = tuple(one if c == k else zero for c in range(n.dims[v]))
            basis.append(hom_from_gens(m, n, images))
    return HomSpace(m, n, tuple(basis))


def _solve_hom_space(m: Representation, n: Representation) -> HomSpace:
    """Hom(m, n) as the solutions of the naturality system T_s·B = A·T_t,
    one equation per arrow a: s -> t and entry (i, j), with A and B the
    matrices of a on m and n and the unknowns the entries of the T_v laid
    out as ``_flatten_map``.  The nonzero equations, built as lists, go to
    the null-space routine as they are: one elimination with no transform,
    transpose or intermediate matrix solves them.  The basis returned is
    the free-column basis of the reduced system, ordered by the unknowns:
    every output read off individual basis maps depends on that choice,
    while dim Hom does not."""
    alg = m.algebra
    fld = alg.field
    nvars = _entry_count(m, n)
    if nvars == 0:
        return HomSpace(m, n, ())
    # variable layout mirrors _flatten_map
    var_off = {}
    pos = 0
    for v in alg.vertices:
        var_off[v] = pos
        pos += m.dims[v] * n.dims[v]

    rows = []
    zero = fld.zero()
    for name, s, t in alg.quiver.arrows:
        A = m.arrow_mats[name].entries      # dims_m(s) x dims_m(t)
        B = n.arrow_mats[name].entries      # dims_n(s) x dims_n(t)
        ns, nt = n.dims[s], n.dims[t]
        # constraint: T_s * B - A * T_t = 0, one equation per (i, j)
        for i in range(m.dims[s]):
            arow = A[i]
            for j in range(nt):
                row = [zero] * nvars
                # (T_s * B)[i][j] = sum_k T_s[i][k] B[k][j]
                base = var_off[s] + i * ns
                for k in range(ns):
                    if B[k][j]:
                        row[base + k] = B[k][j]
                # -(A * T_t)[i][j] = -sum_k A[i][k] T_t[k][j]
                for k, a in enumerate(arow):
                    if a:
                        idx = var_off[t] + k * nt + j
                        row[idx] = fld.sub(row[idx], a)
                if any(row):
                    rows.append(row)
    ker = _null_space(fld, rows, nvars)
    basis = tuple(_unflatten_map(m, n, r) for r in ker.entries)
    return HomSpace(m, n, basis)


# -- submodules and subquotients ------------------------------------------------


def submodule_from_rows(m: Representation, rows_per_vertex: dict):
    """Subrepresentation spanned by the given rows (must be action-stable).

    Returns (sub, inclusion).  Rows are echelonized per vertex first, so the
    basis at each vertex is the RREF of the span (``row_space``) and does
    not depend on the rows given, only on their span; each arrow matrix is
    read off that basis by ``rref_coordinates``, one product per arrow and
    no elimination.  Raises ConsistencyError when the span is not
    action-stable.
    """
    alg = m.algebra
    fld = alg.field
    basis = {v: row_space(rows_per_vertex.get(v, Matrix.zeros(fld, 0, m.dims[v])))
             for v in alg.vertices}
    dims = {v: basis[v].rows for v in alg.vertices}
    mats = {}
    for name, s, t in alg.quiver.arrows:
        img = basis[s].mul(m.arrow_mats[name])
        x = rref_coordinates(basis[t], img)
        if x is None:
            raise ConsistencyError("rows do not span an action-stable subspace")
        mats[name] = x
    # each arrow matrix solves basis[s] * A = x * basis[t] exactly, so the
    # subspace is a submodule and the inclusion is natural
    sub = Representation._trusted(alg, dims, mats)
    incl = ModuleMap._trusted(sub, m, {v: basis[v] for v in alg.vertices})
    return sub, incl


def kernel(f: ModuleMap):
    """(ker, inclusion) of a module map."""
    rows = {v: solve_right_kernel(f.mats[v]) for v in f.source.algebra.vertices}
    return submodule_from_rows(f.source, rows)


def image(f: ModuleMap):
    """(im, inclusion into target, projection source -> im)."""
    alg = f.source.algebra
    rows = {v: row_space(f.mats[v]) for v in alg.vertices}
    img, incl = submodule_from_rows(f.target, rows)
    proj_mats = {}
    for v in alg.vertices:
        # incl.mats[v] is the RREF basis that submodule_from_rows built
        x = rref_coordinates(incl.mats[v], f.mats[v])
        if x is None:
            raise ConsistencyError("image projection failed")
        proj_mats[v] = x
    # proj then the injective incl is the natural f, so proj is natural
    proj = ModuleMap._trusted(f.source, img, proj_mats)
    return img, incl, proj


def quotient(m: Representation, sub_incl: ModuleMap):
    """(m/sub, projection).  sub_incl must be an injective map into m.

    The quotient by the rows of sub_incl (``_quotient_by_rows``): an
    inclusion whose matrices are RREF bases, as ``submodule_from_rows``
    builds them, is eliminated nowhere here, since its injectivity check,
    ``row_space`` and ``quotient_basis`` read such a basis as it is."""
    if not _same_module(sub_incl.target, m):
        raise InputError("quotient: inclusion does not land in the module")
    if not sub_incl.is_injective():
        raise InputError("quotient by a non-injective map")
    q, proj, _ = _quotient_by_rows(m, sub_incl.mats)
    return q, proj


def _quotient_by_rows(m: Representation, rows_per_vertex: dict):
    """(m/sub, projection, sections) for the submodule sub of m spanned by
    rows_per_vertex[v] at each vertex v, in m's coordinates.  One
    ``row_space`` (RREF) per vertex is handed to ``quotient_basis``, which
    reads its pivots; sections[v] is quotient_basis's section, a right
    inverse of the projection.  No submodule, inclusion or coordinates of
    sub are built, and the quotient depends on the span of the rows only.

    Checked: the span is action-stable.  For each arrow a: s -> t one
    product [section_s; basis_s]·A·proj_t is formed.  Its top rows are the
    quotient's arrow matrix; its bottom rows vanish exactly when
    basis_s·A ⊆ span basis_t = ker proj_t, else ConsistencyError."""
    alg = m.algebra
    fld = alg.field
    bases, sections, projs = {}, {}, {}
    for v in alg.vertices:
        bases[v] = row_space(rows_per_vertex[v])
        sections[v], projs[v] = quotient_basis(bases[v], m.dims[v])
    dims = {v: sections[v].rows for v in alg.vertices}
    mats = {}
    for name, s, t in alg.quiver.arrows:
        a = m.arrow_mats[name]
        prod = _mul_entries(fld, _mul_entries(fld, sections[s].entries + bases[s].entries,
                                              a.entries, a.cols),
                            projs[t].entries, dims[t])
        if any(any(r) for r in prod[dims[s]:]):
            raise ConsistencyError("rows do not span an action-stable subspace")
        mats[name] = Matrix(fld, dims[s], dims[t], prod[:dims[s]])
    # the span is a submodule, so the action descends to the quotient and
    # the projection is natural
    q = Representation._trusted(alg, dims, mats)
    return q, ModuleMap._trusted(m, q, projs), sections


def cokernel(f: ModuleMap):
    """(coker, projection target -> coker): the quotient by the rows of f
    (``_quotient_by_rows``), so each vertex is eliminated once, in
    ``row_space``, and no image module is built."""
    q, proj, _ = _quotient_by_rows(f.target, f.mats)
    return q, proj


def direct_sum(summands):
    """Block-diagonal direct sum.  The summands are recorded, in order, as
    the sum's ``_parts``, so that its split pairs can be rebuilt
    (``_block_maps``) and its factors (``summand_factors``) read off the
    parts."""
    summands = tuple(summands)
    if not summands:
        raise InputError("direct_sum of nothing (pass a zero module explicitly)")
    alg = summands[0].algebra
    if any(s.algebra is not alg for s in summands):
        raise InputError("direct_sum across different algebras")
    fld = alg.field
    dims = {v: sum(s.dims[v] for s in summands) for v in alg.vertices}
    mats = {}
    for name, s, t in alg.quiver.arrows:
        if not (dims[s] and dims[t]):
            mats[name] = Matrix.zeros(fld, dims[s], dims[t])
            continue
        out = [[fld.zero()] * dims[t] for _ in range(dims[s])]
        r0 = c0 = 0
        for summand in summands:
            m = summand.arrow_mats[name]
            for i, row in enumerate(m.entries):
                out[r0 + i][c0:c0 + m.cols] = row
            r0, c0 = r0 + m.rows, c0 + m.cols
        mats[name] = Matrix(fld, dims[s], dims[t], tuple(tuple(r) for r in out))
    total = Representation._trusted(alg, dims, mats)
    object.__setattr__(total, "_parts", summands)
    return total


def _block_maps(total: Representation):
    """(inclusions, projections) of the recorded parts of a direct sum."""
    alg = total.algebra
    fld = alg.field
    start = {v: 0 for v in alg.vertices}
    incls, projs = [], []
    for part in total._parts:
        imats, pmats = {}, {}
        for v in alg.vertices:
            d, n = part.dims[v], total.dims[v]
            if not d:
                imats[v] = Matrix.zeros(fld, 0, n)
                pmats[v] = Matrix.zeros(fld, n, 0)
                continue
            inc = [[fld.zero()] * n for _ in range(d)]
            prj = [[fld.zero()] * d for _ in range(n)]
            for i in range(d):
                inc[i][start[v] + i] = fld.one()
                prj[start[v] + i][i] = fld.one()
            start[v] += d
            imats[v] = Matrix(fld, d, n, tuple(tuple(r) for r in inc))
            pmats[v] = Matrix(fld, n, d, tuple(tuple(r) for r in prj))
        incls.append(ModuleMap._trusted(part, total, imats))
        projs.append(ModuleMap._trusted(total, part, pmats))
    return incls, projs


def _assemble_block_map(src: Representation, tgt: Representation, blocks, src_reps,
                        tgt_reps) -> ModuleMap:
    """Map src -> tgt from a grid of blocks; blocks[i][j] maps the i-th
    source part to the j-th target part (None = zero).  Part basis layouts
    concatenate in order inside src/tgt, as direct_sum and proj_sum lay
    them out, so their arrow matrices are block diagonal and a grid of
    natural maps between the parts is natural.  Each vertex's rows are
    written directly: a block must have the shape of its two parts
    (DimensionMismatch), and the parts must add up to src and tgt
    (ConsistencyError)."""
    fld = src.algebra.field
    zero = fld.zero()
    mats = {}
    for v in src.algebra.vertices:
        rows = []
        for row, srep in zip(blocks, src_reps):
            d = srep.dims[v]
            cells = []
            for b, trep in zip(row, tgt_reps):
                if b is None:
                    cells.append(((zero,) * trep.dims[v],) * d)
                elif (b.mats[v].rows, b.mats[v].cols) != (d, trep.dims[v]):
                    raise DimensionMismatch(f"vertex {v}: block shape does not match its parts")
                else:
                    cells.append(b.mats[v].entries)
            rows += [tuple(itertools.chain.from_iterable(c[r] for c in cells)) for r in range(d)]
        if len(rows) != src.dims[v] or sum(t.dims[v] for t in tgt_reps) != tgt.dims[v]:
            raise ConsistencyError("block assembly shape mismatch")
        mats[v] = (Matrix(fld, src.dims[v], tgt.dims[v], tuple(rows)) if rows and tgt.dims[v]
                   else Matrix.zeros(fld, src.dims[v], tgt.dims[v]))
    return ModuleMap._trusted(src, tgt, mats)


# -- projective sums -------------------------------------------------------------


def proj_sum_layout(alg: Algebra, gens) -> dict:
    """Basis of ⊕_j P_{gens[j]} at each vertex w: the pairs (j, i) of a
    generator j and a basis path i from gens[j] to w, generator-major.  The
    regular module has the layout of gens = alg.vertices."""
    entries = {w: [] for w in alg.vertices}
    for j, v in enumerate(gens):
        for i in alg.paths_from(v):
            entries[alg.path_target(i)].append((j, i))
    return {w: tuple(e) for w, e in entries.items()}


def gen_offsets(p: Representation, n: Representation) -> tuple:
    """Where each generator's block starts in the Yoneda coordinates of
    Hom(p, n) = ⊕_j n_{v_j}, p built by ``proj_sum``, followed by their
    total, dim Hom(p, n)."""
    out = [0]
    for v in p.gens:
        out.append(out[-1] + n.dims[v])
    return tuple(out)


def proj_sum(alg: Algebra, gens) -> Representation:
    """⊕_j P_{gens[j]} with P_v = e_v A: an arrow a sends (j, p) to p·a in
    copy j.  Every projective module is built here, and only here are its
    generator fields (``gens``, ``layout``, ``gen_pos``) set: a map out of
    it is free data, any images of the generators define one."""
    gens = tuple(gens)
    fld = alg.field
    layout = proj_sum_layout(alg, gens)
    pos = {e: k for w in alg.vertices for k, e in enumerate(layout[w])}
    dims = {w: len(layout[w]) for w in alg.vertices}
    mats = {}
    for name, s, t in alg.quiver.arrows:
        ai = alg.basis_index_of_arrow(name)
        rows = []
        for (j, i) in layout[s]:
            row = [fld.zero()] * dims[t]
            for k, c in alg.mult[(i, ai)]:
                row[pos[(j, k)]] = c
            rows.append(tuple(row))
        mats[name] = Matrix(fld, dims[s], dims[t], tuple(rows))
    # right multiplication by arrows on paths: valid by the verified algebra
    rep = Representation._trusted(alg, dims, mats)
    object.__setattr__(rep, "gens", gens)
    object.__setattr__(rep, "layout", layout)
    object.__setattr__(rep, "gen_pos", tuple((v, pos[(j, alg.vertex_idempotent(v))])
                                             for j, v in enumerate(gens)))
    return rep


def hom_from_gens(psum: Representation, n: Representation, images) -> ModuleMap:
    """Module map ⊕P_{v_j} -> n with prescribed generator images (row
    vectors of length n.dims[v_j]), out of a module psum built by
    ``proj_sum``, whose generator fields it reads.  Any images define a
    module map, as ⊕P_{v_j} is free on its generators (Yoneda:
    Hom(P_v, n) = n_v).  The row of basis element (j, i) is images[j] times
    the action of the path i.  It is propagated along arrows: the row of a
    path p'·a is the row of p' times n's matrix of a, one ``row_times``
    each, where p' is the algebra's prefix index of the path; a path
    without one (a basis that is not prefix-closed) takes images[j] times
    ``basis_action``.  No 1 x n matrix is built."""
    alg = psum.algebra
    if n.algebra is not alg:
        raise InputError("module map between different algebras")
    fld = alg.field
    paths_from, prefix, basis, arrow_mats = alg._from, alg._prefix, alg.basis, n.arrow_mats
    rows = {}
    for j, v in enumerate(psum.gens):
        image = images[j]
        for i in paths_from[v]:
            word, p = basis[i][1], prefix[i]
            if not word:
                # images[j] times the identity, as basis_action of e_v reads
                rows[(j, i)] = row_times(image, Matrix.identity(fld, n.dims[v]))
            elif p is not None:
                rows[(j, i)] = row_times(rows[(j, p)], arrow_mats[word[-1]])
            else:
                rows[(j, i)] = row_times(image, n.basis_action(i))
    mats = {}
    for w in alg.vertices:
        mats[w] = Matrix(fld, len(psum.layout[w]), n.dims[w],
                         tuple(rows[e] for e in psum.layout[w]))
    return ModuleMap._trusted(psum, n, mats)


# -- trace, radical, socle, top -------------------------------------------------


def _trace_rows(hs: HomSpace) -> dict:
    """The rows of every basis map of hs at each vertex, stacked in one
    matrix: their span is the trace of hs.source in hs.target."""
    fld, dims = hs.target.algebra.field, hs.target.dims
    out = {}
    for v in hs.target.algebra.vertices:
        rows = tuple(r for f in hs.basis for r in f.mats[v].entries)
        out[v] = Matrix(fld, len(rows), dims[v], rows)
    return out


def radical(m: Representation):
    """(rad, inclusion): the sum of images of all arrow actions."""
    alg = m.algebra
    fld = alg.field
    rows = {v: Matrix.zeros(fld, 0, m.dims[v]) for v in alg.vertices}
    for name, s, t in alg.quiver.arrows:
        rows[t] = sum_subspaces(rows[t], row_space(m.arrow_mats[name]))
    return submodule_from_rows(m, rows)


def socle(m: Representation):
    """(soc, inclusion): the common kernel of all arrow actions."""
    alg = m.algebra
    fld = alg.field
    rows = {}
    for v in alg.vertices:
        k = Matrix.identity(fld, m.dims[v])
        for name, s, t in alg.quiver.arrows:
            if s == v:
                k = intersect_subspaces(k, solve_right_kernel(m.arrow_mats[name]))
        rows[v] = k
    return submodule_from_rows(m, rows)


def top(m: Representation):
    """(top, projection): m modulo its radical."""
    _, incl = radical(m)
    return quotient(m, incl)


# -- isomorphism and Krull-Schmidt decomposition ---------------------------------


def is_isomorphic(m: Representation, n: Representation) -> bool:
    """Decide exactly whether m and n are isomorphic.

    "Yes" comes with an invertible witness: an element of the Hom(m, n)
    basis, or the fixed combination sum (i+1)*b_i of it.  When neither is
    invertible:

    - m ≅ n forces dim Hom(m, n) = dim End(m) = dim End(n), so unequal
      dimensions mean "no";
    - an indecomposable m has a local End(m) (Fitting's lemma), so were
      m ≅ n through some phi, the non-isomorphisms m -> n would form the
      proper subspace phi∘rad End(m), which cannot hold a basis of
      Hom(m, n).  No basis element is invertible, so m and n are not
      isomorphic;
    - otherwise the Krull-Schmidt groupings of m and n are compared
      (``match_decomposition``).
    """
    if m.algebra is not n.algebra:
        raise InputError("is_isomorphic across different algebras")
    if m.dims != n.dims:
        return False
    if m.total_dim == 0:
        return True
    hs = hom_space(m, n)
    if hs.dim == 0:
        return False
    if _invertible_map(hs) is not None:
        return True
    if not hs.dim == hom_space(m, m).dim == hom_space(n, n).dim:
        return False
    if len(summand_factors(m)) == 1:
        return False
    return match_decomposition(decompose(m), decompose(n))


def _invertible_map(hs: HomSpace):
    """The first invertible map among the basis of hs and then the fixed
    combination sum (i+1)*b_i, or None when none of them is invertible."""
    dims = hs.source.dims
    fld = hs.source.algebra.field

    def candidates():
        yield from hs.basis
        yield hs.combo([fld.coerce(i + 1) for i in range(hs.dim)])

    return next((f for f in candidates()
                 if all(rank(f.mats[v]) == d for v, d in dims.items())), None)


def _same_class(x: Representation, y: Representation) -> bool:
    """Are the indecomposables x and y isomorphic?  Exactly when x is y or
    some element of the Hom(x, y) basis is an isomorphism, as End(x) is
    local (the argument of ``is_isomorphic``); no combination of the basis
    is tried."""
    return x is y or (x.dims == y.dims
                      and any(f.is_isomorphism() for f in hom_space(x, y).basis))


def match_decomposition(dec, other) -> bool:
    """Do two Krull-Schmidt groupings [(indecomposable, multiplicity)], each
    of pairwise non-isomorphic factors, list isomorphic factors with equal
    multiplicities, in any order?  Factors are compared by ``_same_class``."""
    if len(dec) != len(other):
        return False
    unmatched = list(other)
    for fac, mult in dec:
        for i, (fac2, mult2) in enumerate(unmatched):
            if mult == mult2 and _same_class(fac, fac2):
                del unmatched[i]
                break
        else:
            return False
    return True


def _fitting_split(m: Representation, f: ModuleMap):
    """Try to split m = ker(f^N) ⊕ im(f^N).  Returns (ker, im) or None."""
    n = m.total_dim
    power = f
    steps = 1
    while steps < n:
        power = power.compose(power)
        steps *= 2
    # a unit or a nilpotent f fails here, before any submodule is built
    rows = {v: solve_right_kernel(power.mats[v]) for v in m.algebra.vertices}
    ker_dim = sum(r.rows for r in rows.values())
    if ker_dim == 0 or ker_dim == n:
        return None
    ker_rep, ker_incl = submodule_from_rows(m, rows)
    img_rep, img_incl = submodule_from_rows(m, power.mats)
    if ker_rep.total_dim + img_rep.total_dim != m.total_dim:
        return None
    for v in m.algebra.vertices:
        stacked = ker_incl.mats[v].vstack(img_incl.mats[v])
        if rank(stacked) != m.dims[v]:
            return None
    return ker_rep, img_rep


def _trace_form_valid(m: Representation) -> bool:
    """Dickson's trace form computes rad End(m) when p = 0 or p > dim m."""
    fld = m.algebra.field
    return fld.kind != "prime-field" or fld.characteristic > m.total_dim


def _endo_radical(m: Representation) -> tuple:
    """Basis of rad End(m), memoized in m's cache: () for a brick, and
    otherwise the kernel of Dickson's trace form tr(ab) on End(m).

    The trace form is valid in characteristic 0 and over F_p with p > dim m;
    a non-brick over a smaller prime raises InputError.
    """
    def compute():
        fld = m.algebra.field
        hs = hom_space(m, m)
        if hs.dim == 1:
            return ()
        if not _trace_form_valid(m):
            raise InputError(
                f"endomorphism radical over GF({fld.characteristic}) with module dimension "
                f"{m.total_dim} is outside the supported range (need p > dim)")

        def trace(f: ModuleMap):
            tr = fld.zero()
            for v, d in m.dims.items():
                for i in range(d):
                    tr = fld.add(tr, f.mats[v].entries[i][i])
            return tr

        gram = tuple(tuple(trace(a.compose(b)) for b in hs.basis) for a in hs.basis)
        ker = solve_right_kernel(Matrix(fld, hs.dim, hs.dim, gram))
        return tuple(hs.combo(row) for row in ker.entries)
    return _memo(m, "radical", compute)


def _further_candidates(hs: HomSpace):
    """Endomorphisms to try as Fitting splitters after the Hom basis, built
    one at a time: sums and differences of pairs among the first eight
    basis elements."""
    for a, b in itertools.combinations(range(min(hs.dim, 8)), 2):
        yield hs.basis[a].add(hs.basis[b])
        yield hs.basis[a].sub(hs.basis[b])


def _first_split(m: Representation, candidates):
    for f in candidates:
        split = _fitting_split(m, f)
        if split is not None:
            return split
    return None


def summand_factors(m: Representation) -> list:
    """The indecomposable direct summands of m, in order, memoized in m's
    cache; each call returns a fresh list.  A module built by
    ``direct_sum`` lists the factors of its recorded parts, so no End(m) is
    solved; any other module is split by ``_split_summands``."""
    def compute():
        if m._parts:
            return tuple(fac for part in m._parts for fac in summand_factors(part))
        return tuple(_split_summands(m))
    return list(_memo(m, "factors", compute))


def _split_summands(m: Representation):
    """The factors of ``summand_factors`` for a module with no recorded
    parts.  The steps, in order:

    1. A module with dim End = 1 (a brick) has End = K, a local ring, so it
       is certified indecomposable in every characteristic before any
       search.
    2. Each Hom basis element is tried as a Fitting splitter; the first
       that splits m = ker(f^N) ⊕ im(f^N) wins, and m's factors are those
       of ker(f^N) and then those of im(f^N), taken as modules.
    3. When none does and the trace form applies (p = 0 or p > dim), a
       module with dim End/rad = 1 has a local End ring, whose elements are
       all units or nilpotent, so no further candidate could split: it is
       certified indecomposable here.
    4. Otherwise the sums and differences of pairs among the first eight
       basis elements are tried in order. When none splits, p > dim means
       End/rad is known to be larger than K and ConsistencyError is
       raised, also when End/rad is a field larger than K and m is in fact
       indecomposable; p <= dim raises InputError from the trace form.
    """
    if m.total_dim == 0:
        return []
    hs = hom_space(m, m)
    if hs.dim == 1:
        return [m]
    split = _first_split(m, hs.basis)
    if split is None and _trace_form_valid(m) and hs.dim - len(_endo_radical(m)) == 1:
        return [m]
    if split is None:
        split = _first_split(m, _further_candidates(hs))
    if split is None:
        if not _trace_form_valid(m):
            _endo_radical(m)  # p <= dim: the trace form raises InputError
        raise ConsistencyError(
            "could not certify indecomposability: End/rad has dimension > 1 "
            "but no Fitting split was found")
    return [fac for part in split for fac in summand_factors(part)]


def decompose(m: Representation):
    """Krull-Schmidt decomposition as a list of (indecomposable, multiplicity),
    grouped up to isomorphism, ordered by decreasing total dimension.

    The factors of ``summand_factors`` are grouped in order by
    ``_same_class``, each group keeping its first factor.  The grouping is
    memoized in the module's cache, as the factor list is; each call
    returns a fresh list."""
    def compute():
        groups = []
        for fac in summand_factors(m):
            for g in groups:
                if _same_class(g[0], fac):
                    g[1] += 1
                    break
            else:
                groups.append([fac, 1])
        groups.sort(key=lambda g: (-g[0].total_dim, g[0].dim_vector()))
        return tuple((g[0], g[1]) for g in groups)
    return list(_memo(m, "decompose", compute))


def _inverse_map(f: ModuleMap) -> ModuleMap:
    """The inverse of an isomorphism, one solve per vertex."""
    fld = f.source.algebra.field
    mats = {v: solve_linear_system(mat, Matrix.identity(fld, mat.rows))[0]
            for v, mat in f.mats.items()}
    if any(x is None for x in mats.values()):
        raise ConsistencyError("map is not invertible")
    # the inverse of a natural isomorphism is natural
    return ModuleMap._trusted(f.target, f.source, mats)


def right_add_approximation(x: Representation, t: Representation):
    """Minimal right add(t)-approximation g: ⊕_j T_j^{m_j} -> x
    (Auslander–Smalø), or None when Hom(t, x) = 0.

    The T_j are the factors of decompose(t): pairwise non-isomorphic, each
    with End(T_j)/rad = K (a brick, or certified local by the trace form).
    So the radical maps into x from T_j are Σ_{i≠j} Hom(T_j, T_i)·Hom(T_i, x)
    + rad End(T_j)·Hom(T_j, x), and g keeps the basis maps of Hom(T_j, x)
    independent modulo them and the maps kept before, one elimination per
    factor.  Hom(T_j, T_i) is solved only for factors with Hom(T_i, x) ≠ 0.
    The kept maps generate Hom(T_j, x) modulo the nilpotent radical of
    add t, so g is an approximation, and they are independent modulo it,
    so g is minimal.  The source of g is the direct_sum of the kept copies,
    which records the factor objects of decompose(t) as its parts."""
    factors = [fac for fac, _ in decompose(t)]
    return _right_approximation(x, factors, lambda j, i: hom_space(factors[j], factors[i]))


def _right_approximation(x: Representation, factors: list, between):
    """right_add_approximation of x by the factors of decompose(t), with
    between(j, i) giving Hom(T_j, T_i), asked for live factors i != j only."""
    fld, verts = x.algebra.field, x.algebra.vertices
    into = [hom_space(fac, x) for fac in factors]
    live = [j for j, hs in enumerate(into) if hs.dim]
    kept = []
    for j in live:
        fac, hs = factors[j], into[j]
        # the flattened radical map h then g, vertex by vertex, one row of
        # h_v times g_v at a time: no composite map is built
        rad = tuple(tuple(itertools.chain.from_iterable(
                        row_times(r, g.mats[v]) for v in verts for r in h.mats[v].entries))
                    for i in live
                    for h in (_endo_radical(fac) if i == j else between(j, i).basis)
                    for g in into[i].basis)
        width = _entry_count(fac, x)
        above = Matrix(fld, len(rad), width, rad)
        rows = Matrix(fld, hs.dim, width, tuple(map(_flatten_map, hs.basis)))
        kept += [hs.basis[k] for k in independent_rows(above, rows)]
    if not kept:
        return None
    src = direct_sum([g.source for g in kept])
    return _assemble_block_map(src, x, [[g] for g in kept], src._parts, [x])
