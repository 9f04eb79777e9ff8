"""Small self-contained oracles used by the tests.

The oracle_* functions are deliberately independent of quivertilt.linalg:
plain Fraction Gaussian elimination over row lists, so their results share
no code with the implementation they check.  Most others are routes the
package replaced, kept here as references, and the last group is package
code that only tests call:

- oracle_rank, oracle_solve, oracle_left_kernel, oracle_matmul and
  oracle_tensor_dim: naive Fraction elimination; oracle_rank and
  oracle_left_kernel also work over a prime field given its characteristic.
- euler_form and euler_characteristic: the Euler form of two modules read
  off the Cartan matrix with oracle_solve, and the alternating sum of Ext
  dimensions it must equal on an algebra of finite global dimension.
- corner_data, oracle_corner_tensor_dim, oracle_corner_ideal_dim and
  oracle_corner_tor1_dim: corner-ring data and numbers straight from the
  multiplication table.
- block_matrix: the grid assembly of a matrix from blocks, which writing
  each vertex's rows directly replaced.
- direct_sum_with_maps: a direct sum with the split pair of each summand,
  which left the package with the pushout over the whole target.
- reference_quotient_projection: the per-coordinate reduction loop that
  quotient_basis replaced with a closed form; it uses the field's element
  operations.
- reference_independent_rows: the pivot columns of one rref of the
  stacked transpose, which reducing each row against the echelon rows kept
  so far replaced.
- reference_verify_algebra: the sweep of a dense structure-constant table
  over all basis triples, which the generator-triple certificate of
  Algebra._verify replaced; it uses the field's element operations.
- reference_generator_certificate: the check of every generator triple,
  which the graded certificate of Algebra._verify replaced.
- reference_elimination, with _path_key, _Eliminator, _fresh_rules and
  _from_elimination: KQ/I by elimination rounds over every path, zero
  relations included, stopped after a fixed number of rounds, each
  product reduced afresh; building a mixed ideal in its monomial quotient
  replaced it.  It is the package code as it was, with its imports made
  local.
- reference_left_approximation: a direct greedy search built on the
  library's Hom solver.
- reference_triangle: the direct block assembly of a triangle, which
  triangle_from_map's shifted mapping cone replaced.
- reference_is_left_universal and reference_is_right_universal: the
  End-span universality of a stacked map, which the kill check of
  complexes.universal_triangle replaced.
- reference_summands: the Fitting search that runs every candidate before
  it asks the trace form whether End is local.
- reference_in_add_of: add(T) membership by decomposing x and matching its
  factors with those of T, which the minimal right add(T)-approximation
  replaced.
- reference_concentrated_h0 and reference_h0_match: H^0(q(R)) built as a
  module and matched with R_U by the library's exact isomorphism test,
  which the comparison map psi: q(R) -> R_U replaced.
- reference_is_isomorphic: the seeded random search for an invertible map,
  which exact isomorphism replaced.
- reference_ext_matrices: the per-coordinate construction of Ext's
  cocycle and coboundary matrices, which the closed-form matrix of
  precomposition replaced.
- reference_ring_presentation, with SCRing and ReferenceRing: End(R_U) as
  a structure-constant ring with lambda checked on all basis pairs and the
  two-sided ideal scan, which the split pair R_U ≅ X^n and the
  generator-pair check of lambda replaced; SCRing left the package with it.
- reference_lambda_system: lambda's linear system in the full coordinates
  of Hom(R, R_U), which reading maps out of R at its generators replaced.
- reference_corner_ring, reference_sc_tor_dims, reference_corner_tor_dims
  and reference_stratifying_verdict: Tor over a structure-constant ring
  from free resolutions built with the library's elimination, which the
  stratifying-ideal test used before it computed Tor over the algebra.
- _tensor_quotient: the raw tensor-space quotient, which left the package
  once the stratifying check read its multiplication check off Tor_2.
- reference_tor_dims: Tor over the algebra with each P_k ⊗_A Y taken as a
  quotient of the raw (dim P_k · dim Y)-space, which reading P_k ⊗_A Y as
  a sum of vertex components e_vY replaced.
- reference_min_resolution: the resolution that built each kernel as a
  module and covered it through its top, which covering each kernel inside
  the previous term replaced.
- reference_realize_extension: the pushout over the whole target, which
  pushing out only over the recorded parts the cocycle touches replaced;
  it factors the cocycle through the syzygy by left division through
  transposes, the route that taking one cokernel of (-c, d_1) replaced.
- reference_hom_space: the naturality solve, which reading Hom out of a
  projective sum off its generators replaced there.
- reference_hom_from_gens: the rows of a map out of a projective sum as
  each generator image times the action of the path, which propagating the
  rows along arrows replaced.
- reference_module_from_paths: the construction of P_v and I_v from basis
  paths, which proj_sum and the transpose of left multiplication replaced.
- reference_hom_cohomology_dim: the dimension of H^n of the Hom complex as
  the number of cocycle classes modulo coboundaries, built with the
  library's elimination, which reading the dimension off the ranks of the
  two differentials replaced.
- reference_quotient_by_rows: a quotient through the submodule its rows
  span, which reading it off one RREF per vertex replaced.
- unstable_rows: one entry of a span's rows changed so that it is no
  longer action-stable.
- reference_actions: the left actions of R_U as total matrices of combo
  maps, which writing them straight from lambda replaced.
- reference_radical_rows: the flattened composites h then g, which
  building each row of h times g replaced.

Each function below left ``src/`` because only tests call it.  It is the
package code as it was, with its imports made local:

- projective_cover: the cover of a whole module, a thin wrapper over
  homology._cover.
- tor_dim: one degree of tor_dims_range.
- left_regular_module: the algebra as a left module over itself, memoized
  in the algebra's cache.
- left_module_from_op_rep: a left module from a representation of the
  opposite algebra.
- _total_action: the total-space matrix of the right action of a basis
  element.
- connecting_class: the class coordinates of a short exact sequence's
  connecting cocycle.
- total_matrix: a module map as one block-diagonal matrix over the
  flattened spaces (formerly the method ModuleMap.total_matrix).
- coords: the coordinates of a map in the basis of a Hom space
  (formerly the method HomSpace.coords).
- trace_submodule: the inclusion of the trace of one module in another.
- in_add_of: add(t) membership read off the minimal right
  add(t)-approximation.
- perp_complex_membership: the derived perpendicular test, computed
  through derived Hom and through each cohomology module.
- triangle_from_map: the triangle T1 -> T -> T2 -> T1[1] of a map
  alpha: T2 -> T1[1], as the shifted mapping cone.
- cone_exceptionality: the paper's criterion for the cone of alpha to be
  exceptional, compared with a direct exceptionality check.
- criterion_map_surjective: the criterion, surjectivity of
  End(T2) ⊕ End(T1[1]) -> Hom(T2, T1[1]).
- _spans: whether the classes of some chain maps span a derived Hom space.
- transpose: the transpose of a matrix (formerly the method
  Matrix.transpose).
- rref and _rref_with_transform: the reduced row echelon form, without and
  with the transform.
- solve_null_space: the solutions of a homogeneous system given by its
  equation rows.
- ext_tor_agree: whether Ext and Tor of a homological-epimorphism report
  vanish in the same degrees (formerly the property HomEpiReport.agree).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from quivertilt.homology import DEFAULT_RESOLUTION_BOUND


def oracle_rank(rows, char=0):
    """Rank of a list-of-lists matrix over Q, or over F_char when a prime
    characteristic is given (entries are then integers), by naive elimination."""
    if char:
        m = [[int(x) % char for x in r] for r in rows]
    else:
        m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][c]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][c]
        if char:
            inv = pow(pv, -1, char)
            m[rank] = [x * inv % char for x in m[rank]]
        else:
            m[rank] = [x / pv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
                if char:
                    m[r] = [a % char for a in m[r]]
        rank += 1
    return rank


def oracle_matmul(a, b, cols):
    """Product of list-of-lists matrices a (r x k) and b (k x cols) over Q."""
    return [[sum((Fraction(x) * Fraction(row[j]) for x, row in zip(r, b)), Fraction(0))
             for j in range(cols)] for r in a]


def block_matrix(fld, grid):
    """Assemble a matrix from a 2d grid of blocks (each a Matrix), row by
    row of the result: the blocks of a grid row share their row count, and
    every grid row has the same total column count.  The library's
    grid assembly before _assemble_block_map wrote each vertex's rows
    directly; the references below build their block maps with it."""
    from quivertilt.errors import DimensionMismatch
    from quivertilt.linalg import Matrix

    grid = [brow for brow in grid if brow]
    if not grid:
        return Matrix.zeros(fld, 0, 0)
    cols = sum(b.cols for b in grid[0])
    if any(b.rows != brow[0].rows for brow in grid for b in brow) \
            or any(sum(b.cols for b in brow) != cols for brow in grid):
        raise DimensionMismatch("block grid shape mismatch")
    return Matrix(fld, sum(brow[0].rows for brow in grid), cols,
                  tuple(sum(parts, ()) for brow in grid for parts in zip(*(b.entries for b in brow))))


def direct_sum_with_maps(summands):
    """(sum, inclusions, projections): the direct sum and the split pair of
    each summand, in order.  The package's own copy went when the pushout,
    its last caller there, became one cokernel."""
    from quivertilt.modules import _block_maps, direct_sum

    total = direct_sum(summands)
    incls, projs = _block_maps(total)
    return total, incls, projs


def reference_quotient_projection(fld, R, pivots, n):
    """Matrix of K^n -> K^n / (row span of R), R in reduced row echelon form
    with the given pivot columns: each unit vector e_i is reduced modulo
    the pivot rows of R one pivot at a time and read at the free columns.
    Returns a list of n rows."""
    free = [j for j in range(n) if j not in pivots]
    zero, one = fld.zero(), fld.one()
    rows = []
    for i in range(n):
        residual = [one if j == i else zero for j in range(n)]
        for k, pc in enumerate(pivots):
            c = residual[pc]
            if c:
                residual = [fld.sub(r, fld.mul(c, v)) for r, v in zip(residual, R.entries[k])]
        rows.append(tuple(residual[c] for c in free))
    return rows


def oracle_solve(rows, target):
    """Coefficients expressing target in the row span, or None."""
    n = len(rows)
    width = len(rows[0]) if rows else len(target)
    work = [[Fraction(x) for x in r] for r in rows]
    combos = [[Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    pivots = []
    rank = 0
    for c in range(width):
        piv = None
        for r in range(rank, n):
            if work[r][c]:
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        combos[rank], combos[piv] = combos[piv], combos[rank]
        pv = work[rank][c]
        work[rank] = [x / pv for x in work[rank]]
        combos[rank] = [x / pv for x in combos[rank]]
        for r in range(n):
            if r != rank and work[r][c]:
                f = work[r][c]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
                combos[r] = [a - f * b for a, b in zip(combos[r], combos[rank])]
        pivots.append(c)
        rank += 1
    t = [Fraction(x) for x in target]
    coeff = [Fraction(0)] * n
    for k, c in enumerate(pivots):
        f = t[c]
        if f:
            t = [a - f * b for a, b in zip(t, work[k])]
            coeff = [a + f * b for a, b in zip(coeff, combos[k])]
    if any(t):
        return None
    return coeff


def oracle_left_kernel(rows, char=0):
    """Basis of {v : v @ rows = 0} by eliminating an augmented identity,
    over Q, or over F_char when a prime characteristic is given (entries
    are then integers)."""
    n = len(rows)
    if n == 0:
        return []
    width = len(rows[0])
    num = (lambda x: int(x) % char) if char else Fraction
    aug = [[num(x) for x in rows[i]] + [num(1 if j == i else 0) for j in range(n)]
           for i in range(n)]
    rank = 0
    for c in range(width):
        piv = None
        for r in range(rank, n):
            if aug[r][c]:
                piv = r
                break
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        pv = aug[rank][c]
        if char:
            inv = pow(pv, -1, char)
            aug[rank] = [x * inv % char for x in aug[rank]]
        else:
            aug[rank] = [x / pv for x in aug[rank]]
        for r in range(n):
            if r != rank and aug[r][c]:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[rank])]
                if char:
                    aug[r] = [a % char for a in aug[r]]
        rank += 1
    return [row[width:] for row in aug[rank:]]



def euler_form(m, n):
    """<dim m, dim n> read off the Cartan matrix: solve dim m = Σ_v a_v dim P_v
    by Fraction elimination (oracle_solve) and return Σ_v a_v (dim n)_v,
    which is Σ_v a_v dim Hom(P_v, n).  Shares no code with resolutions or
    Ext.  The Cartan matrix of an algebra of finite global dimension is
    invertible over the integers, so every a_v is asserted integral."""
    from quivertilt.algebra import projective

    alg = m.algebra
    cartan = [[projective(alg, v).dims[w] for w in alg.vertices] for v in alg.vertices]
    a = oracle_solve(cartan, [m.dims[w] for w in alg.vertices])
    assert a is not None and all(x.denominator == 1 for x in a), (alg.vertices, a)
    return sum(int(x) * n.dims[v] for x, v in zip(a, alg.vertices))


def euler_characteristic(ext_dims):
    """Σ_i (-1)^i ext_dims[i]: the alternating sum of dim Ext^i(m, n) over
    i = 0, 1, ..., which equals euler_form(m, n) when the list reaches the
    global dimension."""
    return sum(-d if i % 2 else d for i, d in enumerate(ext_dims))

def reference_independent_rows(above, rows):
    """independent_rows as the pivot columns of the transpose of
    [above; rows] past above's rows, in one rref of the stacked transpose:
    the definition that reducing each row against the echelon rows kept so
    far replaced."""
    first = above.rows
    return tuple(p - first for p in rref(transpose(above.vstack(rows)))[1] if p >= first)


def oracle_tensor_dim(dim_x, dim_y, right_acts, left_acts, char=0):
    """dim of (X ⊗ Y) / span{x·g ⊗ y - x ⊗ g·y} over the generators g,
    over Q or, when a prime characteristic is given, over F_char.

    right_acts[g][p][p2]: x_p · g = sum_p2 R[p][p2] x_p2;
    left_acts[g][q][q2]:  g · y_q = sum_q2 L[q][q2] y_q2.
    """
    rows = []
    for R, L in zip(right_acts, left_acts):
        for p in range(dim_x):
            for q in range(dim_y):
                row = [Fraction(0)] * (dim_x * dim_y)
                for p2 in range(dim_x):
                    if R[p][p2]:
                        row[p2 * dim_y + q] += Fraction(R[p][p2])
                for q2 in range(dim_y):
                    if L[q][q2]:
                        row[p * dim_y + q2] -= Fraction(L[q][q2])
                if any(row):
                    rows.append(row)
    return dim_x * dim_y - (oracle_rank(rows, char) if rows else 0)


def _dense_row(alg, i, j):
    """The coefficient list of basis[i] * basis[j], expanded from the
    algebra's sparse row."""
    row = [alg.field.zero()] * alg.dim
    for k, c in alg.mult[(i, j)]:
        row[k] = c
    return row


def reference_verify_algebra(alg):
    """Is the table of alg a unital associative algebra in which the
    relations vanish?  The full check that Algebra._verify replaced with its
    generator-triple certificate: on the dense table, the vertex idempotents
    are orthogonal idempotents summing to 1 (e_{s(p)} p = p = p e_{t(p)},
    every other e_v kills p), associativity holds on all dim^3 basis
    triples, and every relation evaluates to zero."""
    fld, dim = alg.field, alg.dim
    table = {(i, j): _dense_row(alg, i, j) for i in range(dim) for j in range(dim)}
    unit_vec = [[fld.one() if t == k else fld.zero() for t in range(dim)] for k in range(dim)]
    zero_vec = [fld.zero()] * dim
    amap = {name: (s, t) for name, s, t in alg.quiver.arrows}
    index = {p: i for i, p in enumerate(alg.basis)}

    def times(combo, k, right):
        out = [fld.zero()] * dim
        for m, c in enumerate(combo):
            if c:
                for t, d in enumerate(table[(m, k)] if right else table[(k, m)]):
                    if d:
                        out[t] = fld.add(out[t], fld.mul(c, d))
        return out

    for i, (src, word) in enumerate(alg.basis):
        tgt = amap[word[-1]][1] if word else src
        for v in alg.vertices:
            e = index[(v, ())]
            if table[(e, i)] != (unit_vec[i] if v == src else zero_vec):
                return False
            if table[(i, e)] != (unit_vec[i] if v == tgt else zero_vec):
                return False
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if times(table[(i, j)], k, True) != times(table[(j, k)], i, False):
                    return False
    for rel in alg.relations:
        acc = list(zero_vec)
        for coeff, word in rel.terms:
            vec = unit_vec[index[(amap[word[0]][0], ())]]
            for a in word:
                vec = times(vec, index[(amap[a][0], (a,))], True)
            acc = [fld.add(x, fld.mul(fld.coerce(coeff), y)) for x, y in zip(acc, vec)]
        if any(acc):
            return False
    return True


def reference_generator_certificate(alg) -> bool:
    """Does the table pass the generator-triple certificate that the graded
    certificate of Algebra._verify replaced?  The vertex idempotents are
    orthogonal idempotents summing to the unit, the basis is suffix-closed
    in the table, (g * b_j) * b_k = g * (b_j * b_k) for every vertex
    idempotent or arrow g and all j, k (a triple whose both sides are sums
    over empty rows is skipped), and the relations vanish.  A basis with an
    arrow the quiver lacks, or without some vertex idempotent, is rejected,
    as the accessors that certificate read raised on it."""
    fld, mult, basis, dim = alg.field, alg.mult, alg.basis, alg.dim
    one = fld.one()
    amap = {name: (s, t) for name, s, t in alg.quiver.arrows}
    index = {p: i for i, p in enumerate(basis)}
    if any(a not in amap for _, word in basis for a in word):
        return False
    if any((v, ()) not in index for v in alg.quiver.vertices):
        return False
    idems = {v: index[(v, ())] for v in alg.quiver.vertices}
    arrow_paths = {word[0]: i for i, (_, word) in enumerate(basis) if len(word) == 1}

    def times(row, k, right):
        acc = {}
        for m, c in row:
            for t, d in mult[(m, k) if right else (k, m)]:
                acc[t] = fld.add(acc.get(t, fld.zero()), fld.mul(c, d))
        return tuple(sorted((t, c) for t, c in acc.items() if c))

    for i, (src, word) in enumerate(basis):
        itself, tgt = ((i, one),), amap[word[-1]][1] if word else src
        for v, e in idems.items():
            if (mult[(e, i)] != (itself if v == src else ())
                    or mult[(i, e)] != (itself if v == tgt else ())):
                return False
    gens = list(idems.values())
    for i, (src, word) in enumerate(basis):
        if not word:
            continue
        a = index.get((src, word[:1]))
        rest = index.get((amap[word[0]][1], word[1:]))
        if a is None or rest is None or mult[(a, rest)] != ((i, one),):
            return False
        if len(word) == 1:
            gens.append(i)
    nonzero_after = [[k for k in range(dim) if mult[(j, k)]] for j in range(dim)]
    for g in gens:
        for j in range(dim):
            gj = mult[(g, j)]
            ks = set(nonzero_after[j])
            for m, _ in gj:
                ks.update(nonzero_after[m])
            for k in ks:
                if times(gj, k, True) != times(mult[(j, k)], g, False):
                    return False
    for rel in alg.relations:
        acc = {}
        for coeff, word in rel.terms:
            c = fld.coerce(coeff)
            row = ((idems[amap[word[0]][0]], one),)
            for a in word:
                if a not in arrow_paths:
                    return False
                row = times(row, arrow_paths[a], True)
            for k, x in row:
                acc[k] = fld.add(acc.get(k, fld.zero()), fld.mul(c, x))
        if any(acc.values()):
            return False
    return True


def corner_data(alg, vertices):
    """Raw corner data straight from the multiplication table:
    (corner basis indices, Ae indices, eA indices)."""
    vset = set(vertices)
    corner = [i for i in range(alg.dim)
              if alg.path_source(i) in vset and alg.path_target(i) in vset]
    ae = [i for i in range(alg.dim) if alg.path_target(i) in vset]
    ea = [i for i in range(alg.dim) if alg.path_source(i) in vset]
    return corner, ae, ea


def _corner_actions(alg, vertices):
    corner, ae, ea = corner_data(alg, vertices)
    ae_pos = {b: k for k, b in enumerate(ae)}
    ea_pos = {b: k for k, b in enumerate(ea)}
    right_acts, left_acts = [], []
    for g in corner:
        R = [[0] * len(ae) for _ in ae]
        for p, i in enumerate(ae):
            for k, c in alg.mult[(i, g)]:
                R[p][ae_pos[k]] = c
        L = [[0] * len(ea) for _ in ea]
        for q, i in enumerate(ea):
            for k, c in alg.mult[(g, i)]:
                L[q][ea_pos[k]] = c
        right_acts.append(R)
        left_acts.append(L)
    return corner, ae, ea, right_acts, left_acts


def oracle_corner_tensor_dim(alg, vertices):
    """dim Ae ⊗_{eAe} eA by the generic bilinear quotient."""
    _, ae, ea, right_acts, left_acts = _corner_actions(alg, vertices)
    return oracle_tensor_dim(len(ae), len(ea), right_acts, left_acts,
                             alg.field.characteristic)


def oracle_corner_ideal_dim(alg, vertices):
    """dim AeA as the span of all products of Ae and eA basis paths."""
    _, ae, ea = corner_data(alg, vertices)
    rows = [list(_dense_row(alg, p, q)) for p in ae for q in ea]
    return oracle_rank(rows, alg.field.characteristic) if rows else 0


def oracle_corner_tor1_dim(alg, vertices):
    """dim Tor_1^{eAe}(Ae, eA) from the one-free-generator-per-basis-vector
    presentation 0 -> K -> (eAe)^{dim Ae} -> Ae -> 0, tensored with eA.

    Tor_1 = dim(K ⊗ eA) - rank(K ⊗ eA -> F ⊗ eA), and since F is free,
    F ⊗ eA is identified with (eA)^{dim Ae}.
    """
    corner, ae, ea, _, left_acts = _corner_actions(alg, vertices)
    nc, na, ne = len(corner), len(ae), len(ea)
    corner_pos = {b: k for k, b in enumerate(corner)}
    # free cover F = (eAe)^na, basis (p, g): maps to ae_p * g
    cover = []
    for p, i in enumerate(ae):
        for g in corner:
            cover.append([_dense_row(alg, i, g)[j] for j in ae])
    kernel = oracle_left_kernel(cover)
    kdim = len(kernel)
    if kdim == 0:
        return 0
    # right action of corner basis on F, basis (p, g) -> (p, g*h)
    right_free = []
    for h in corner:
        mat = [[Fraction(0)] * (na * nc) for _ in range(na * nc)]
        for p in range(na):
            for gi, g in enumerate(corner):
                for k, c in alg.mult[(g, h)]:
                    assert k in corner_pos
                    mat[p * nc + gi][p * nc + corner_pos[k]] += Fraction(c)
        right_free.append(mat)
    # right action on K in kernel coordinates
    right_kernel = []
    for hi in range(nc):
        mat = []
        for row in kernel:
            moved = [sum(row[a] * right_free[hi][a][b] for a in range(na * nc))
                     for b in range(na * nc)]
            coords = oracle_solve(kernel, moved)
            assert coords is not None, "kernel is not action-stable"
            mat.append(coords)
        right_kernel.append(mat)
    k_tensor = oracle_tensor_dim(kdim, ne, right_kernel, left_acts)
    # induced map on the raw K ⊗ eA basis; relation vectors map to zero, so
    # the rank over the raw basis equals the rank of the induced map
    img_rows = []
    for krow in kernel:
        for q in range(ne):
            img = [Fraction(0)] * (na * ne)
            for p in range(na):
                for gi, g in enumerate(corner):
                    c = krow[p * nc + gi]
                    if c:
                        for q2, d in enumerate(left_acts[gi][q]):
                            if d:
                                img[p * ne + q2] += Fraction(c) * d
            img_rows.append(img)
    induced_rank = oracle_rank(img_rows) if img_rows else 0
    return k_tensor - induced_rank


def reference_left_approximation(x, t):
    """Minimal left add(t)-approximation of a projective x by the plain
    greedy loop: assemble the canonical map, then repeatedly drop the last
    copy whose removal still leaves a left approximation, re-assembling T0
    and re-solving Hom(T0, T_j) on every trial and restarting after each
    removal.  The candidate maps x -> T_j are the generator basis: through
    the inverse of x's projective cover ⊕_k P_{v_k} -> x, generator k goes
    to unit vector c of (T_j)_{v_k} and the other generators to 0, in the
    order (j, k, c).

    Unlike the functions above it uses the library's Hom solver and
    elimination; what it checks is the library's per-vertex selection and
    span test against this direct search.
    """
    from quivertilt.homology import hom_from_gens
    from quivertilt.linalg import Matrix, solve_linear_system
    from quivertilt.modules import ModuleMap, _flatten_map, decompose, hom_space, zero_map
    from quivertilt.algebra import zero_module

    factors = [fac for fac, _ in decompose(t)]
    hom_bases = [hom_space(x, fac) for fac in factors]
    fld = x.algebra.field
    p0, cover = projective_cover(x)
    inverse = {}
    for v in x.algebra.vertices:
        inv, _ = solve_linear_system(cover.mats[v], Matrix.identity(fld, x.dims[v]))
        inverse[v] = inv
    back = ModuleMap(x, p0, inverse)

    def unit_map(j, k, c):
        images = [[fld.zero()] * factors[j].dims[v] for v in p0.gens]
        images[k][c] = fld.one()
        return back.compose(hom_from_gens(p0, factors[j], images))

    def assemble(copies):
        if not copies:
            return zero_map(x, zero_module(x.algebra)), ()
        total, incls, _ = direct_sum_with_maps([factors[j] for j, _ in copies])
        f = zero_map(x, total)
        for (_, b), inc in zip(copies, incls):
            f = f.add(b.compose(inc))
        return f, tuple(j for j, _ in copies)

    def is_approximation(f):
        for j, hs in enumerate(hom_bases):
            if hs.dim == 0:
                continue
            rows = [_flatten_map(f.compose(h))
                    for h in hom_space(f.target, factors[j]).basis]
            width = len(_flatten_map(hs.basis[0]))
            rows_m = (Matrix(fld, len(rows), width, tuple(rows)) if rows
                      else Matrix.zeros(fld, 0, width))
            for g in hs.basis:
                sol, _ = solve_linear_system(rows_m, Matrix(fld, 1, width, (_flatten_map(g),)))
                if sol is None:
                    return False
        return True

    copies = [(j, unit_map(j, k, c)) for j in range(len(factors))
              for k, v in enumerate(p0.gens) for c in range(factors[j].dims[v])]
    f, tags = assemble(copies)
    assert is_approximation(f), "canonical map is not a left approximation"
    changed = True
    while changed:
        changed = False
        for idx in range(len(copies) - 1, -1, -1):
            trial = copies[:idx] + copies[idx + 1:]
            tf, ttags = assemble(trial)
            if is_approximation(tf):
                copies, f, tags, changed = trial, tf, ttags, True
                break
    return f, tags


def reference_triangle(alpha):
    """Triangle T1 -> T -> T2 -> T1[1] of alpha: T2 -> T1[1], assembled
    block by block: T^n = T2^n ⊕ T1^n with differential
    [[d_T2, -alpha], [0, d_T1]], incl = [0 | id] and proj = [id ; 0].

    It uses the library's complexes, maps and block matrices; what it
    checks is triangle_from_map's cone-and-shift construction against
    this direct one.  Returns (T, incl, proj)."""
    from quivertilt.complexes import ChainMap, PerfectComplex, shift
    from quivertilt.modules import proj_sum
    from quivertilt.linalg import Matrix
    from quivertilt.modules import ModuleMap, identity_map

    def assemble(src, tgt, blocks, src_reps, tgt_reps):
        fld = src.algebra.field
        mats = {}
        for v in src.algebra.vertices:
            mats[v] = block_matrix(fld, [[b.mats[v] if b is not None
                                          else Matrix.zeros(fld, s.dims[v], t.dims[v])
                                          for b, t in zip(row, tgt_reps)]
                                         for row, s in zip(blocks, src_reps)])
        return ModuleMap(src, tgt, mats)

    t2 = alpha.source
    t1 = shift(alpha.target, -1)
    alg = t2.algebra
    terms = {}
    for n in sorted(set(t2.terms) | set(t1.terms)):
        gens = (t2.terms[n].gens if n in t2.terms else ()) + \
               (t1.terms[n].gens if n in t1.terms else ())
        if gens:
            terms[n] = proj_sum(alg, gens)
    diffs = {}
    for n in terms:
        if (n + 1) not in terms:
            continue
        d = assemble(terms[n], terms[n + 1],
                     [[t2.diff(n), alpha.comp(n).neg()], [None, t1.diff(n)]],
                     [t2.term_rep(n), t1.term_rep(n)],
                     [t2.term_rep(n + 1), t1.term_rep(n + 1)])
        if not d.is_zero():
            diffs[n] = d
    T = PerfectComplex(alg, terms, diffs)
    incl = ChainMap(t1, T, {n: assemble(t1.term_rep(n), T.terms[n],
                                        [[None, identity_map(t1.term_rep(n))]],
                                        [t1.term_rep(n)], [t2.term_rep(n), t1.term_rep(n)])
                            for n in t1.terms if n in T.terms})
    proj = ChainMap(T, t2, {n: assemble(T.terms[n], t2.term_rep(n),
                                        [[identity_map(t2.term_rep(n))], [None]],
                                        [t2.term_rep(n), t1.term_rep(n)], [t2.term_rep(n)])
                            for n in T.terms if n in t2.terms})
    return T, incl, proj


def reference_is_left_universal(alpha) -> bool:
    """alpha: M -> N is left-universal when every map M -> N factors as
    (endomorphism of M) then alpha, i.e. End(M) -> Hom(M, N) induced by
    alpha is surjective in the homotopy category."""
    from quivertilt.complexes import derived_hom
    src = alpha.source
    return _spans(derived_hom(src, alpha.target, 0),
                  lambda: [f.compose(alpha) for f in derived_hom(src, src, 0).reps])


def reference_is_right_universal(beta) -> bool:
    """beta: M -> N is right-universal when every map M -> N factors as
    beta then (endomorphism of N)."""
    from quivertilt.complexes import derived_hom
    tgt = beta.target
    return _spans(derived_hom(beta.source, tgt, 0),
                  lambda: [beta.compose(g) for g in derived_hom(tgt, tgt, 0).reps])


def reference_summands(m, seed=0):
    """Indecomposable summands (factor modules, in order) by the plain
    Fitting search: the Hom basis, sums and differences of pairs among its
    first eight elements, then 48 combinations drawn from Random(seed),
    each splitting m = ker(f^N) ⊕ im(f^N) through the library's kernel and
    image; only when none splits is dim End/rad = 1 asked of the trace form.

    It uses the library's Hom solver, kernel, image and trace form; what it
    checks is that certifying a local End ring early, and rejecting units
    and nilpotents before any submodule is built, change no split.
    """
    import itertools
    import random
    from quivertilt.errors import ConsistencyError
    from quivertilt.linalg import rank
    from quivertilt.modules import _endo_radical, hom_space, image, kernel

    def fitting_split(f):
        n = m.total_dim
        power, steps = f, 1
        while steps < n:
            power, steps = power.compose(power), steps * 2
        ker_rep, ker_incl = kernel(power)
        if ker_rep.total_dim in (0, n):
            return None
        img_rep, img_incl, _ = image(power)
        if ker_rep.total_dim + img_rep.total_dim != n:
            return None
        for v in m.algebra.vertices:
            if rank(ker_incl.mats[v].vstack(img_incl.mats[v])) != m.dims[v]:
                return None
        return ker_rep, img_rep

    def candidates(hs):
        yield from hs.basis
        for a, b in itertools.combinations(range(min(hs.dim, 8)), 2):
            yield hs.basis[a].add(hs.basis[b])
            yield hs.basis[a].sub(hs.basis[b])
        rng = random.Random(seed)
        fld = m.algebra.field
        if fld.kind == "prime-field":
            sample = lambda: rng.randrange(fld.characteristic)
        else:
            sample = lambda: rng.randint(-3, 3)
        for _ in range(48):
            yield hs.combo([fld.coerce(sample()) for _ in range(hs.dim)])

    if m.total_dim == 0:
        return []
    hs = hom_space(m, m)
    if hs.dim == 1:
        return [m]
    for f in candidates(hs):
        split = fitting_split(f)
        if split is not None:
            return [fac for part in split for fac in reference_summands(part, seed)]
    if hs.dim - len(_endo_radical(m)) == 1:
        return [m]
    raise ConsistencyError("no Fitting split found and End/rad has dimension > 1")


def reference_in_add_of(x, t):
    """Is x in add(t)?  Krull-Schmidt matching: every factor of decompose(x)
    is isomorphic to a factor of decompose(t).

    It uses the library's decomposition and exact isomorphism test; what it
    checks is that deciding by the minimal right approximation changes no
    verdict."""
    from quivertilt.modules import decompose, is_isomorphic
    if x.total_dim == 0:
        return True
    t_factors = [f for f, _ in decompose(t)]
    return all(any(is_isomorphic(fac, tf) for tf in t_factors) for fac, _ in decompose(x))


def reference_concentrated_h0(q):
    """H^0(q) when q has no cohomology in any other degree, else None.
    The other degrees are read off ranks (_cohomology_dims); only H^0 is
    built as a module."""
    from quivertilt.complexes import _cohomology_dims, cohomology
    off = any(d for n, d in _cohomology_dims(q).items() if n != 0)
    return None if off else cohomology(q, 0)


def reference_h0_match(q, ru) -> bool:
    """Is q concentrated in degree 0 with H^0(q) ≅ ru?  H^0 is built as a
    module and matched by the library's exact isomorphism test, the route
    the comparison map replaced in universal_localization."""
    from quivertilt.modules import is_isomorphic
    h0 = reference_concentrated_h0(q)
    return h0 is not None and is_isomorphic(h0, ru)


def reference_is_isomorphic(m, n, seed=0):
    """Isomorphism by searching Hom(m, n) for an invertible map: 64
    combinations drawn from Random(seed), then, when dim Hom <= 6, every
    nonzero combination with coefficients in a small grid.  "No" means only
    that the search found none.  It uses the library's Hom solver and rank;
    what it checks is that the exact test changes no verdict."""
    import itertools
    import random
    from quivertilt.linalg import rank
    from quivertilt.modules import hom_space

    if m.dims != n.dims:
        return False
    if m.total_dim == 0:
        return True
    hs = hom_space(m, n)
    if hs.dim == 0:
        return False
    fld = m.algebra.field

    def invertible(f):
        return all(rank(f.mats[v]) == m.dims[v] for v in m.algebra.vertices)

    rng = random.Random(seed)
    if fld.kind == "prime-field":
        sample = lambda: rng.randrange(fld.characteristic)
    else:
        sample = lambda: rng.randint(-4, 4)
    for _ in range(64):
        if invertible(hs.combo([fld.coerce(sample()) for _ in range(hs.dim)])):
            return True
    grid = [0, 1, -1, 2, -2] if fld.kind == "rationals" else list(range(min(5, fld.characteristic)))
    if hs.dim <= 6:
        for combo in itertools.product(grid, repeat=hs.dim):
            if any(combo) and invertible(hs.combo([fld.coerce(c) for c in combo])):
                return True
    return False


def reference_ext_matrices(res, degree, n):
    """(cocycle matrix, coboundary rows) of Ext^degree(m, n) from a
    resolution of m, built one generator coordinate at a time: for each
    basis map f of Hom(P_degree, n), the generator coordinates of
    d_{degree+1} then f; for each basis map g of Hom(P_{degree-1}, n), those
    of d_degree then g.  Either is None where its differential does not
    exist.  It uses the library's map composition and generator
    coordinates; it checks the closed-form matrix of precomposition."""
    from quivertilt.homology import gen_coords, hom_from_gens
    from quivertilt.linalg import Matrix

    fld = n.algebra.field

    def basis_maps(psum):
        out = []
        for j, v in enumerate(psum.gens):
            for c in range(n.dims[v]):
                images = [tuple(fld.one() if (jj == j and cc == c) else fld.zero()
                                for cc in range(n.dims[vv]))
                          for jj, vv in enumerate(psum.gens)]
                out.append(hom_from_gens(psum, n, images))
        return out

    def rows_of(d, psrc, ptgt):
        rows = [gen_coords(psrc, d.compose(f)) for f in basis_maps(ptgt)]
        return Matrix(fld, len(rows), sum(n.dims[v] for v in psrc.gens), tuple(rows))

    pk = res.terms[degree]
    m_next = (rows_of(res.diffs[degree], res.terms[degree + 1], pk)
              if degree < res.length else None)
    b_rows = (rows_of(res.diffs[degree - 1], pk, res.terms[degree - 1])
              if degree >= 1 else None)
    return m_next, b_rows


@dataclass(frozen=True)
class SCRing:
    """Associative unital ring: basis b_0..b_{d-1}, products
    b_i * b_j = sum_k mult[(i, j)][k] b_k, unit coordinates.  Associativity
    and the unit law are checked on all basis triples; ``_trusted`` skips
    the check for rings that hold by construction."""

    field: object
    dim: int
    labels: tuple
    mult: dict
    unit: tuple

    def __post_init__(self):
        from quivertilt.errors import ConsistencyError, InputError

        if len(self.labels) != self.dim or len(self.unit) != self.dim:
            raise InputError("ring presentation sizes disagree")
        for i in range(self.dim):
            for j in range(self.dim):
                if (i, j) not in self.mult or len(self.mult[(i, j)]) != self.dim:
                    raise InputError("incomplete multiplication table")
        basis = [self.basis_vector(i) for i in range(self.dim)]
        for ei in basis:
            if self.product(self.unit, ei) != ei or self.product(ei, self.unit) != ei:
                raise ConsistencyError("unit law fails")
        for i, ei in enumerate(basis):
            for j in range(self.dim):
                for k, ek in enumerate(basis):
                    if self.product(self.mult[(i, j)], ek) != self.product(ei, self.mult[(j, k)]):
                        raise ConsistencyError("ring structure constants not associative")

    @classmethod
    def _trusted(cls, field, dim, labels, mult, unit) -> "SCRing":
        obj = object.__new__(cls)
        for name, value in (("field", field), ("dim", dim), ("labels", labels),
                            ("mult", mult), ("unit", unit)):
            object.__setattr__(obj, name, value)
        return obj

    def basis_vector(self, i: int) -> tuple:
        fld = self.field
        return tuple(fld.one() if k == i else fld.zero() for k in range(self.dim))

    def product(self, u: tuple, w: tuple) -> tuple:
        fld = self.field
        out = [fld.zero()] * self.dim
        for i, c in enumerate(u):
            if not c:
                continue
            for j, d in enumerate(w):
                if not d:
                    continue
                cd = fld.mul(c, d)
                for k, e in enumerate(self.mult[(i, j)]):
                    if e:
                        out[k] = fld.add(out[k], fld.mul(cd, e))
        return tuple(out)

    def two_sided_ideal_dim(self, seed_vecs) -> int:
        """Dimension of the two-sided ideal generated by the given vectors."""
        from quivertilt.linalg import Matrix, row_space

        fld = self.field
        span = row_space(Matrix(fld, len(seed_vecs), self.dim, tuple(tuple(v) for v in seed_vecs)))
        basis_vecs = [self.basis_vector(i) for i in range(self.dim)]
        while True:
            new_rows = []
            for r in span.entries:
                for b in basis_vecs:
                    new_rows.append(self.product(r, b))
                    new_rows.append(self.product(b, r))
            bigger = row_space(span.vstack(Matrix(fld, len(new_rows), self.dim, tuple(new_rows))))
            if bigger.rows == span.rows:
                return span.rows
            span = bigger


@dataclass(frozen=True)
class ReferenceRing:
    ring: SCRing            # End(m) by structure constants, product = composition as functions
    lam: tuple              # lambda on the algebra basis, End(m) coordinates
    ideal_scan_full: bool   # every basis element generates the whole ring as a two-sided ideal


def reference_ring_presentation(m, eta):
    """End(m) as a structure-constant ring with lambda: A -> End(m) solved
    from the reflection property of eta: R -> m, the route that the split
    pair m ≅ X^n and the generator-pair check of lambda replaced: the d²
    table of products f_j∘f_i of the hom_space(m, m) basis, lambda checked
    unital and multiplicative on all dim(A)² basis pairs through that table,
    and the scan that each basis element generates the whole ring as a
    two-sided ideal."""
    from quivertilt.errors import ConsistencyError
    from quivertilt.linalg import Matrix, solve_linear_system
    from quivertilt.modules import (ModuleMap, _flatten_map, hom_space, identity_map,
                                    proj_sum_layout)

    alg = m.algebra
    fld = alg.field

    def left_multiplication_map(r, coeffs):
        """Left multiplication by an algebra element on the regular module,
        as a checked right-module map."""
        mats = {}
        for w, layout in proj_sum_layout(alg, alg.vertices).items():
            rows_idx = [i for _, i in layout]
            pos = {b: k for k, b in enumerate(rows_idx)}
            out = [[fld.zero()] * len(rows_idx) for _ in rows_idx]
            for rpos, p in enumerate(rows_idx):
                for i, c in enumerate(coeffs):
                    for k, d in (alg.mult[(i, p)] if c else ()):
                        out[rpos][pos[k]] = fld.add(out[rpos][pos[k]], fld.mul(c, d))
            mats[w] = Matrix(fld, len(rows_idx), len(rows_idx), tuple(tuple(x) for x in out))
        return ModuleMap(r, r, mats)

    ends = hom_space(m, m)
    d = ends.dim
    mult, unit = {}, ()
    if d:
        width = len(_flatten_map(ends.basis[0]))
        basis_m = Matrix(fld, d, width, tuple(_flatten_map(b) for b in ends.basis))
        maps = [fj.compose(fi) for fi in ends.basis for fj in ends.basis] + [identity_map(m)]
        x, _ = solve_linear_system(
            basis_m, Matrix(fld, len(maps), width, tuple(_flatten_map(f) for f in maps)))
        assert x is not None
        mult = {(i, j): x.entries[i * d + j] for i in range(d) for j in range(d)}
        unit = x.entries[-1]
    ring = SCRing._trusted(fld, d, tuple(f"f{k}" for k in range(d)), mult, unit)
    rows = [_flatten_map(eta.compose(b)) for b in ends.basis]
    width = len(_flatten_map(eta))
    targets = [_flatten_map(left_multiplication_map(
        eta.source, tuple(fld.one() if k == i else fld.zero() for k in range(alg.dim))
    ).compose(eta)) for i in range(alg.dim)]
    x, _ = solve_linear_system(Matrix(fld, len(rows), width, tuple(rows)),
                               Matrix(fld, alg.dim, width, tuple(targets)))
    assert x is not None
    lam = x.entries
    one = [fld.zero()] * d
    for v in alg.vertices:
        one = [fld.add(a, b) for a, b in zip(one, lam[alg.vertex_idempotent(v)])]
    if tuple(one) != ring.unit:
        raise ConsistencyError("lambda does not preserve the unit")
    for i in range(alg.dim):
        for j in range(alg.dim):
            rhs = [fld.zero()] * d
            for k, c in alg.mult[(i, j)]:
                rhs = [fld.add(a, fld.mul(c, b)) for a, b in zip(rhs, lam[k])]
            if ring.product(lam[i], lam[j]) != tuple(rhs):
                raise ConsistencyError("lambda is not multiplicative")
    scan = all(ring.two_sided_ideal_dim([ring.basis_vector(k)]) == d for k in range(d))
    return ReferenceRing(ring, lam, scan)


def reference_lambda_system(eta):
    """(rows, targets) of lambda's linear system for eta: R -> m in the full
    coordinates of Hom(R, m), every map flattened over all of R
    (Σ_w dim R_w · dim m_w columns), the route that reading maps out of R
    at its generators e_v replaced: rows are eta then b over the basis b
    of End(m), targets the maps (left multiplication by b_i) then eta,
    each read off eta's rows and built as a checked module map."""
    from quivertilt.linalg import Matrix
    from quivertilt.modules import ModuleMap, _flatten_map, hom_space, proj_sum_layout

    m = eta.target
    alg = m.algebra
    fld = alg.field
    layout = proj_sum_layout(alg, alg.vertices)
    row_of = {k: eta.mats[w].entries[pos] for w in alg.vertices
              for pos, (_, k) in enumerate(layout[w])}

    def combination(sparse, w):
        out = (fld.zero(),) * m.dims[w]
        for k, c in sparse:
            out = tuple(fld.add(a, fld.mul(c, b)) for a, b in zip(out, row_of[k]))
        return out

    targets = [_flatten_map(ModuleMap(eta.source, m, {
        w: Matrix(fld, len(layout[w]), m.dims[w],
                  tuple(combination(alg.mult[(i, p)], w) for _, p in layout[w]))
        for w in alg.vertices})) for i in range(alg.dim)]
    rows = [_flatten_map(eta.compose(b)) for b in hom_space(m, m).basis]
    width = len(_flatten_map(eta))
    return (Matrix(fld, len(rows), width, tuple(rows)),
            Matrix(fld, alg.dim, width, tuple(targets)))


def reference_corner_ring(alg, vertices):
    """(eAe as a checked structure-constant ring, its algebra basis indices)
    for e the sum of the given vertex idempotents."""
    corner, _, _ = corner_data(alg, vertices)
    fld = alg.field
    pos = {b: k for k, b in enumerate(corner)}
    mult = {}
    for a, i in enumerate(corner):
        for b, j in enumerate(corner):
            row = [fld.zero()] * len(corner)
            for k, c in alg.mult[(i, j)]:
                row[pos[k]] = c
            mult[(a, b)] = tuple(row)
    unit = [fld.zero()] * len(corner)
    for v in vertices:
        unit[pos[alg.vertex_idempotent(v)]] = fld.one()
    labels = tuple(str(alg.basis[i]) for i in corner)
    return SCRing(fld, len(corner), labels, mult, tuple(unit)), corner


def _tensor_quotient(fld, dx, dy, pairs):
    """X ⊗ Y as a quotient of the raw tensor space K^{dx*dy}, basis ordered
    (p, q) -> p*dy + q.  Each (right action on X, left action on Y) pair of
    matrices of one ring element r contributes the relations
    x*r ⊗ y - x ⊗ r*y.  Returns (section, projection) as quotient_basis
    does; the RREF is canonical, so the result depends only on the span of
    the relations.  reference_sc_tor_dims and reference_tor_dims read
    P_k ⊗ Y off it."""
    from quivertilt.linalg import Matrix, quotient_basis, row_space

    n = dx * dy
    rows = []
    if n:
        for R, L in pairs:
            for p in range(dx):
                for q in range(dy):
                    row = [fld.zero()] * n
                    for p2 in range(dx):
                        if R.entries[p][p2]:
                            row[p2 * dy + q] = R.entries[p][p2]
                    for q2 in range(dy):
                        if L.entries[q][q2]:
                            row[p * dy + q2] = fld.sub(row[p * dy + q2], L.entries[q][q2])
                    if any(row):
                        rows.append(tuple(row))
    sub = row_space(Matrix(fld, len(rows), n, tuple(rows))) if rows else Matrix.zeros(fld, 0, n)
    return quotient_basis(sub, n)


def reference_sc_tor_dims(ring, x_dim, x_act, y_dim, y_act, max_degree):
    """(dims of Tor_1..Tor_max_degree, conclusive) over a structure-constant
    ring, from a free (not minimal) resolution of the right module x.

    x_act[i] is the matrix of x -> x * b_i and y_act[i] that of y -> b_i * y,
    both in row convention.  conclusive means the resolution terminated or
    reached a projective syzygy within max_degree + 1 steps, so every Tor
    beyond the window vanishes.  A reference for small cases only: its
    free covers and dense relation rows grow quickly, and for the corner
    ring of triple3 at vertices 1, 2 it takes about 1 GB at max_degree 1 and
    still ends inconclusive.
    """
    from quivertilt.linalg import (Matrix, rank, row_space, solve_linear_system,
                                   solve_right_kernel)

    fld = ring.field
    regs = [Matrix(fld, ring.dim, ring.dim, tuple(ring.mult[(p, i)] for p in range(ring.dim)))
            for i in range(ring.dim)]

    def free_module(rank_):
        act = []
        for i in range(ring.dim):
            blocks = [[regs[i] if r == c else Matrix.zeros(fld, ring.dim, ring.dim)
                       for c in range(rank_)] for r in range(rank_)]
            act.append(block_matrix(fld, blocks) if rank_ else Matrix.zeros(fld, 0, 0))
        return rank_ * ring.dim, tuple(act)

    def module_span(m, rows):
        dim, act = m
        span = row_space(rows)
        while True:
            new = [Matrix(fld, 1, dim, (r,)).mul(a).entries[0]
                   for r in span.entries for a in act]
            bigger = row_space(span.vstack(Matrix(fld, len(new), dim, tuple(new)))) \
                if new else span
            if bigger.rows == span.rows:
                return span
            span = bigger

    def cover_by_free(m):
        # greedy generating set; free basis (generator g, b_i) maps to g * b_i
        dim, act = m
        gens = []
        span = Matrix.zeros(fld, 0, dim)
        for i in range(dim):
            probe = Matrix(fld, 1, dim, (tuple(fld.one() if k == i else fld.zero()
                                               for k in range(dim)),))
            if span.rows and solve_linear_system(span, probe)[0] is not None:
                continue
            gens.append(probe)
            span = module_span(m, span.vstack(probe))
            if span.rows == dim:
                break
        free = free_module(len(gens))
        rows = tuple(g.mul(act[i]).entries[0] for g in gens for i in range(ring.dim))
        cover = Matrix(fld, free[0], dim, rows)
        assert rank(cover) == dim, "free cover is not surjective"
        return free, cover

    def kernel_module(m, f):
        ker = solve_right_kernel(f)
        act = []
        for a in m[1]:
            sol, _ = solve_linear_system(ker, ker.mul(a))
            assert sol is not None, "kernel is not action-stable"
            act.append(sol)
        return (ker.rows, tuple(act)), ker

    def is_projective(m):
        # does the free cover split?  Unknown section S (dim x free dim) with
        # S * cover = I and act_m[i] * S = S * act_free[i]
        dim, act = m
        if dim == 0:
            return True
        (fdim, fact), cover = cover_by_free(m)
        nvars = dim * fdim
        eq_cols, targets = [], []
        for r in range(dim):
            for c in range(dim):
                col = [fld.zero()] * nvars
                for k in range(fdim):
                    if cover.entries[k][c]:
                        col[r * fdim + k] = cover.entries[k][c]
                eq_cols.append(col)
                targets.append(fld.one() if r == c else fld.zero())
        for A, B in zip(act, fact):
            for r in range(dim):
                for c in range(fdim):
                    col = [fld.zero()] * nvars
                    for k in range(dim):
                        if A.entries[r][k]:
                            col[k * fdim + c] = A.entries[r][k]
                    for k in range(fdim):
                        if B.entries[k][c]:
                            col[r * fdim + k] = fld.sub(col[r * fdim + k], B.entries[k][c])
                    if any(col):
                        eq_cols.append(col)
                        targets.append(fld.zero())
        eqm = Matrix(fld, nvars, len(eq_cols), tuple(zip(*eq_cols)))
        sol, _ = solve_linear_system(eqm, Matrix(fld, 1, len(targets), (tuple(targets),)))
        return sol is not None

    terms, diffs = [], []
    current, incl_to_prev_free = (x_dim, tuple(x_act)), None
    conclusive = False
    for k in range(max_degree + 2):
        free, cover = cover_by_free(current)
        terms.append(free)
        if k:
            diffs.append(cover.mul(incl_to_prev_free))
        kmod, krows = kernel_module(free, cover)
        if kmod[0] == 0:
            conclusive = True
            break
        if not conclusive and is_projective(kmod):
            conclusive = True
        current, incl_to_prev_free = kmod, krows
    spaces = [_tensor_quotient(fld, dim, y_dim, zip(act, y_act)) for dim, act in terms]
    return _tensor_homology_dims(spaces, diffs, y_dim, max_degree)[1:], conclusive


def _tensor_induced(fmat, y_dim, src_section, tgt_proj):
    """Map induced by f ⊗ id_Y on tensor quotients: src_section * (f ⊗ I_y) *
    tgt_proj, where the raw tensor basis is ordered (p, q) -> p*y_dim + q."""
    from quivertilt.linalg import Matrix

    fld = fmat.field
    dx, dx2 = fmat.rows, fmat.cols
    raw = [[fld.zero()] * (dx2 * y_dim) for _ in range(dx * y_dim)]
    for p in range(dx):
        for p2 in range(dx2):
            c = fmat.entries[p][p2]
            if c:
                for q in range(y_dim):
                    raw[p * y_dim + q][p2 * y_dim + q] = c
    raw_m = Matrix(fld, dx * y_dim, dx2 * y_dim, tuple(tuple(r) for r in raw))
    return src_section.mul(raw_m).mul(tgt_proj)


def _tensor_homology_dims(spaces, fmats, y_dim, max_degree):
    """dim H_k of ... -> P_1 ⊗ Y -> P_0 ⊗ Y for k = 0..max_degree.

    spaces[k] is the (section, projection) of P_k ⊗ Y from _tensor_quotient
    and fmats[k-1] the matrix of the differential P_k -> P_{k-1}, for k up
    to len(spaces) - 1; degrees beyond the given terms have zero homology.
    dim H_k = dim(P_k ⊗ Y) - rank d_k - rank d_{k+1}."""
    from quivertilt.linalg import rank

    ranks = {k: rank(_tensor_induced(fmats[k - 1], y_dim, spaces[k][0], spaces[k - 1][1]))
             for k in range(1, len(spaces))}
    return tuple(spaces[k][0].rows - ranks.get(k, 0) - ranks.get(k + 1, 0)
                 if k < len(spaces) else 0
                 for k in range(max_degree + 1))


def reference_tor_dims(x, y, max_degree):
    """(dim Tor_0, ..., dim Tor_max_degree) of the right module x and the
    left module y over the algebra: a minimal resolution of x, each term
    tensored with y as the quotient of the raw (dim P_k · dim y)-space by
    the relations p*r ⊗ q - p ⊗ r*q of the vertex idempotents and arrows
    (they generate A), and d_k ⊗ id induced on those quotients."""
    from quivertilt.homology import min_resolution

    alg = x.algebra
    gens = [alg.vertex_idempotent(v) for v in alg.vertices]
    gens += [alg.basis_index_of_arrow(a[0]) for a in alg.quiver.arrows]
    res = min_resolution(x, max_degree + 1, require_finite=False)
    top = min(res.length, max_degree + 1)
    spaces = [_tensor_quotient(alg.field, t.total_dim, y.dim,
                               ((_total_action(t, g), y.act[g]) for g in gens))
              for t in res.terms[:top + 1]]
    fmats = [total_matrix(d) for d in res.diffs[:top]]
    return _tensor_homology_dims(spaces, fmats, y.dim, max_degree)


def reference_corner_tor_dims(alg, vertices, max_degree):
    """(dims of Tor^{eAe}_1..Tor^{eAe}_max_degree (Ae, eA), conclusive) by
    reference_sc_tor_dims over the corner ring."""
    from quivertilt.linalg import Matrix

    ring, _ = reference_corner_ring(alg, vertices)
    _, ae, ea, right_acts, left_acts = _corner_actions(alg, vertices)
    fld = alg.field
    x_act = [Matrix.from_rows(fld, r, len(ae)) for r in right_acts]
    y_act = [Matrix.from_rows(fld, l, len(ea)) for l in left_acts]
    return reference_sc_tor_dims(ring, len(ae), x_act, len(ea), y_act, max_degree)


def reference_stratifying_verdict(alg, vertices, max_degree):
    """Is AeA stratifying, by the corner-ring criterion: Ae ⊗_{eAe} eA ->
    AeA bijective (dimensions from the oracles above; the map is onto) and
    Tor^{eAe}_n(Ae, eA) = 0 for n >= 1.  Raises BoundExceeded when both
    hold within the window but the resolution was inconclusive."""
    from quivertilt.errors import BoundExceeded

    bijective = oracle_corner_tensor_dim(alg, vertices) == oracle_corner_ideal_dim(alg, vertices)
    tor, conclusive = reference_corner_tor_dims(alg, vertices, max_degree)
    if bijective and not any(tor) and not conclusive:
        raise BoundExceeded("corner-ring resolution inconclusive")
    return bijective and not any(tor)


def reference_min_resolution(m, max_len):
    """Minimal resolution of m up to the term P_max_len, by the route that
    builds each kernel as a submodule, takes its top (a quotient by the
    radical) and lifts a basis of the top back into it as the generator
    images.  Built on the library's modules, as the resolution it checks."""
    from quivertilt.errors import ConsistencyError
    from quivertilt.homology import Resolution, hom_from_gens
    from quivertilt.linalg import Matrix, solve_linear_system, solve_right_kernel
    from quivertilt.modules import proj_sum, submodule_from_rows, top, zero_map

    alg = m.algebra

    def cover(mod):
        t, proj = top(mod)
        gens, images = [], []
        for v in alg.vertices:
            if t.dims[v]:
                x, _ = solve_linear_system(proj.mats[v], Matrix.identity(alg.field, t.dims[v]))
                gens += [v] * t.dims[v]
                images += list(x.entries)
        psum = proj_sum(alg, gens)
        epi = hom_from_gens(psum, mod, images)
        if not epi.is_surjective():
            raise ConsistencyError("projective cover map is not surjective")
        return psum, epi

    if m.total_dim == 0:
        empty = proj_sum(alg, ())
        return Resolution(m, (empty,), (), zero_map(empty, m), True)
    p0, augment = cover(m)
    terms, diffs, epi = [p0], [], augment
    while True:
        ker_rows = {v: solve_right_kernel(epi.mats[v]) for v in alg.vertices}
        if all(r.rows == 0 for r in ker_rows.values()):
            return Resolution(m, tuple(terms), tuple(diffs), augment, True)
        if len(diffs) == max_len:
            return Resolution(m, tuple(terms), tuple(diffs), augment, False)
        ker, ker_incl = submodule_from_rows(epi.source, ker_rows)
        pk, epi = cover(ker)
        diffs.append(epi.compose(ker_incl))
        terms.append(pk)


def reference_realize_extension(c):
    """Middle term of a degree-one extension class as the pushout of the
    syzygy inclusion along the cocycle, over the whole target, whatever
    parts it records.  Returns (mid, incl, proj)."""
    from quivertilt.errors import ConsistencyError
    from quivertilt.linalg import Matrix, solve_linear_system
    from quivertilt.modules import ModuleMap, image, proj_sum, quotient, zero_map

    def _left_divide(a, b):
        # a * x = b, through the transposes
        x, _ = solve_linear_system(transpose(a), transpose(b))
        if x is None:
            raise ConsistencyError("left division failed")
        return transpose(x)

    res, n = c.resolution, c.target
    m, alg = res.module, n.algebra
    d1 = res.diffs[0] if res.length >= 1 else zero_map(proj_sum(alg, ()), res.terms[0])
    omega, om_incl, om_proj = image(d1)
    phi = ModuleMap(omega, n, {v: _left_divide(om_proj.mats[v], c.cocycle.mats[v])
                               for v in alg.vertices})
    total, incls, _ = direct_sum_with_maps([n, res.terms[0]])
    graph = ModuleMap(omega, total,
                      {v: phi.mats[v].neg().hstack(om_incl.mats[v]) for v in alg.vertices})
    _, gincl, _ = image(graph)
    e_rep, to_e = quotient(total, gincl)
    big = {v: Matrix.zeros(alg.field, n.dims[v], m.dims[v]).vstack(res.augment.mats[v])
           for v in alg.vertices}
    proj = ModuleMap(e_rep, m, {v: _left_divide(to_e.mats[v], big[v]) for v in alg.vertices})
    return e_rep, incls[0].compose(to_e), proj


def reference_hom_space(m, n):
    """Hom(m, n) as the solutions of the naturality system T_s·B = A·T_t,
    one dense equation per arrow a: s -> t and entry (i, j), solved in one
    equations Matrix: the solve that hom_space ran for every module before
    it read Hom out of a projective sum off the generators."""
    from quivertilt.linalg import Matrix
    from quivertilt.modules import HomSpace, _entry_count, _unflatten_map

    alg = m.algebra
    fld = alg.field
    nvars = _entry_count(m, n)
    if nvars == 0:
        return HomSpace(m, n, ())
    var_off, pos = {}, 0
    for v in alg.vertices:
        var_off[v] = pos
        pos += m.dims[v] * n.dims[v]
    rows = []
    for name, s, t in alg.quiver.arrows:
        A, B = m.arrow_mats[name], n.arrow_mats[name]
        for i in range(m.dims[s]):
            for j in range(n.dims[t]):
                row = [fld.zero()] * nvars
                for k in range(n.dims[s]):
                    if B.entries[k][j]:
                        row[var_off[s] + i * n.dims[s] + k] = B.entries[k][j]
                for k in range(m.dims[t]):
                    if A.entries[i][k]:
                        idx = var_off[t] + k * n.dims[t] + j
                        row[idx] = fld.sub(row[idx], A.entries[i][k])
                if any(row):
                    rows.append(tuple(row))
    ker = solve_null_space(Matrix(fld, len(rows), nvars, tuple(rows)))
    return HomSpace(m, n, tuple(_unflatten_map(m, n, r) for r in ker.entries))


def reference_hom_from_gens(psum, n, images):
    """The map out of the projective sum psum with the given generator
    images, each row images[j] times the action of its path i on n
    (``basis_action``): the formula hom_from_gens used before it propagated
    the rows along arrows."""
    from quivertilt.linalg import Matrix, row_times
    from quivertilt.modules import ModuleMap

    alg = psum.algebra
    mats = {}
    for w in alg.vertices:
        rows = tuple(row_times(images[j], n.basis_action(i)) for j, i in psum.layout[w])
        mats[w] = Matrix(alg.field, len(rows), n.dims[w], rows)
    return ModuleMap(psum, n, mats)


def reference_module_from_paths(alg, idxs, dual: bool):
    """Right module on the span of the given basis paths, the construction
    of P_v (the paths starting at v, dual=False) and I_v (the dual of the
    paths ending at v, dual=True) that proj_sum and the transpose of left
    multiplication replaced.  Built through the checked Representation
    constructor."""
    from quivertilt.errors import InputError
    from quivertilt.linalg import Matrix
    from quivertilt.modules import Representation

    fld = alg.field
    if not dual:
        by_vertex = {v: [i for i in idxs if alg.path_target(i) == v] for v in alg.vertices}
    else:
        by_vertex = {v: [i for i in idxs if alg.path_source(i) == v] for v in alg.vertices}
    pos = {v: {i: k for k, i in enumerate(by_vertex[v])} for v in alg.vertices}
    dims = {v: len(by_vertex[v]) for v in alg.vertices}
    mats = {}
    for name, s, t in alg.quiver.arrows:
        if not (dims[s] and dims[t]):
            mats[name] = Matrix.zeros(fld, dims[s], dims[t])
            continue
        try:
            ai = alg.basis_index_of_arrow(name)
        except InputError:
            ai = None
        if not dual:
            # right multiplication by the arrow: paths ending at s -> ending at t
            rows = []
            for i in by_vertex[s]:
                row = [fld.zero()] * dims[t]
                if ai is not None:
                    for k, c in alg.mult[(i, ai)]:
                        row[pos[t][k]] = c
                rows.append(tuple(row))
            mats[name] = Matrix(fld, dims[s], dims[t], tuple(rows))
        else:
            # the transpose of left multiplication a * (-) from the paths
            # starting at t to the paths starting at s
            rows = []
            for i in by_vertex[t]:
                row = [fld.zero()] * dims[s]
                if ai is not None:
                    for k, c in alg.mult[(ai, i)]:
                        row[pos[s][k]] = c
                rows.append(tuple(row))
            mats[name] = transpose(Matrix(fld, dims[t], dims[s], tuple(rows)))
    return Representation(alg, dims, mats)


def reference_hom_cohomology_dim(xt, xd, yt, yd, n) -> int:
    """dim H^n of the Hom complex of homology._hom_differential, counted as
    a basis of cocycles modulo coboundaries: the cocycles Z = ker δⁿ, the
    coboundaries im δⁿ⁻¹ solved in Z's coordinates, and the quotient there.
    It uses the library's elimination; it checks the rank route."""
    from quivertilt.homology import _hom_differential
    from quivertilt.linalg import quotient_basis, row_space, solve_linear_system, solve_right_kernel

    _, delta = _hom_differential(xt, xd, yt, yd, n)
    if not delta.rows:
        return 0
    _, prev = _hom_differential(xt, xd, yt, yd, n - 1)
    cocycles = solve_right_kernel(delta)
    coords, _ = solve_linear_system(cocycles, row_space(prev))
    assert coords is not None, "coboundaries escaped the cocycle space"
    section, _ = quotient_basis(coords, cocycles.rows)
    return section.rows


def reference_quotient_by_rows(m, rows):
    """(m/sub, projection, sections) through the submodule the rows span:
    ``submodule_from_rows`` (with its per-arrow ``rref_coordinates``
    check), then ``quotient_basis`` of the inclusion at each vertex and
    section·A·projection at each arrow, the two-step route that
    ``modules._quotient_by_rows`` replaced."""
    from quivertilt.linalg import quotient_basis
    from quivertilt.modules import ModuleMap, Representation, submodule_from_rows

    alg = m.algebra
    _, incl = submodule_from_rows(m, rows)
    sections, projs = {}, {}
    for v in alg.vertices:
        sections[v], projs[v] = quotient_basis(incl.mats[v], m.dims[v])
    q = Representation(alg, {v: sections[v].rows for v in alg.vertices},
                       {name: sections[s].mul(m.arrow_mats[name]).mul(projs[t])
                        for name, s, t in alg.quiver.arrows})
    return q, ModuleMap(m, q, projs), sections


def unstable_rows(m, rows):
    """rows (vertex -> Matrix in m's coordinates) with one entry raised by
    one, the first in vertex, row and column order whose change leaves a
    span that is not action-stable: some arrow a: s -> t moves a row at s
    out of the span at t, by oracle_rank.  None when no such entry exists
    (for instance when the rows span every vertex that an arrow reaches)."""
    from quivertilt.linalg import Matrix

    alg = m.algebra
    fld = alg.field
    char = fld.characteristic

    def stable(rs):
        for name, s, t in alg.quiver.arrows:
            img = oracle_matmul(rs[s].entries, m.arrow_mats[name].entries, m.dims[t])
            base = [list(r) for r in rs[t].entries]
            if oracle_rank(base + img, char) != oracle_rank(base, char):
                return False
        return True

    for v in alg.vertices:
        mat = rows[v]
        for i in range(mat.rows):
            for j in range(mat.cols):
                grid = [list(r) for r in mat.entries]
                grid[i][j] = fld.add(grid[i][j], fld.one())
                changed = dict(rows)
                changed[v] = Matrix(fld, mat.rows, mat.cols, tuple(map(tuple, grid)))
                if not stable(changed):
                    return changed
    return None


def reference_actions(ends, lam):
    """act[u] = lambda(b_u) as the total matrix of the combination of the
    End basis, one ``HomSpace.combo`` map per basis element: the route that
    ``recollement.ActionsOnRead`` writing the total matrix straight from
    lambda's coordinates replaced."""
    return [total_matrix(ends.combo(c)) for c in lam]


def reference_radical_rows(x, factors, between):
    """For each factor T_j with Hom(T_j, x) != 0, in order, the flattened
    composites h then g (``_flatten_map(h.compose(g))``) over the live
    factors i, h in rad End(T_j) for i = j and in between(j, i) otherwise,
    and g in Hom(T_i, x): the rows ``modules._right_approximation`` hands
    ``independent_rows`` as the span to be independent of, built there
    without composing maps."""
    from quivertilt.modules import _endo_radical, _flatten_map, hom_space

    into = [hom_space(fac, x) for fac in factors]
    live = [j for j, hs in enumerate(into) if hs.dim]
    return [tuple(_flatten_map(h.compose(g)) for i in live
                  for h in (_endo_radical(factors[j]) if i == j else between(j, i).basis)
                  for g in into[i].basis)
            for j in live]


# -- functions that left the package: only tests call them -------------------------


def projective_cover(m: Representation):
    """(P, epi) with P the projective cover of m; the kernel of the epi lies
    in rad P.  The cover of all of m, by _cover."""
    from quivertilt.errors import InputError
    from quivertilt.homology import _cover
    from quivertilt.linalg import Matrix

    if m.total_dim == 0:
        raise InputError("projective cover of the zero module")
    psum, epi, _ = _cover(m, {v: Matrix.identity(m.algebra.field, m.dims[v])
                              for v in m.algebra.vertices})
    return psum, epi


def tor_dim(degree: int, x: Representation, y: LeftModule,
            bound: int = DEFAULT_RESOLUTION_BOUND) -> int:
    """dim Tor_degree(x, y) via a minimal resolution of x tensored with y."""
    from quivertilt.errors import InputError
    from quivertilt.homology import tor_dims_range

    if degree < 0:
        raise InputError("tor degree must be >= 0")
    return tor_dims_range(x, y, degree, bound)[degree]


def left_regular_module(alg: Algebra) -> LeftModule:
    """The algebra as a left module over itself, memoized in the algebra's
    cache (a LeftModule is immutable)."""
    from quivertilt.algebra import _memo
    from quivertilt.homology import LeftModule
    from quivertilt.linalg import Matrix

    def compute():
        act = tuple(Matrix(alg.field, alg.dim, alg.dim,
                           tuple(alg.dense_row(alg.mult[(i, p)]) for p in range(alg.dim)))
                    for i in range(alg.dim))
        # left multiplication in the verified (associative, unital) algebra
        return LeftModule._trusted(alg, alg.dim, act)
    return _memo(alg, "left_regular", compute)


def left_module_from_op_rep(alg: Algebra, op_rep: Representation) -> LeftModule:
    """Left A-module from a representation of the opposite algebra built by
    opposite_algebra(alg); basis indices of A and A^op are aligned."""
    from quivertilt.errors import InputError
    from quivertilt.homology import LeftModule

    op_alg = op_rep.algebra
    if op_alg.dim != alg.dim:
        raise InputError("opposite representation has mismatched dimension")
    act = tuple(_total_action(op_rep, i) for i in range(alg.dim))
    # a representation of the verified A^op is a left A-module
    return LeftModule._trusted(alg, op_rep.total_dim, act)


def _total_action(rep: Representation, i: int) -> Matrix:
    """Total-space matrix of the right action of basis element i."""
    from quivertilt.linalg import Matrix

    alg = rep.algebra
    fld = alg.field
    off = rep.offsets()
    n = rep.total_dim
    src, tgt = alg.path_source(i), alg.path_target(i)
    act = rep.basis_action(i)
    out = [[fld.zero()] * n for _ in range(n)]
    for r in range(act.rows):
        for c in range(act.cols):
            out[off[src] + r][off[tgt] + c] = act.entries[r][c]
    return Matrix(fld, n, n, tuple(tuple(r) for r in out))


def connecting_class(ses: ShortExact, space: ExtSpace) -> tuple:
    """Class coordinates of the connecting cocycle of a short exact sequence
    0 -> n -> E -> m -> 0 against Ext^1(m, n) computed from `space`."""
    from quivertilt.homology import _lift

    res = space.resolution
    # sigma lifts the augmentation through E; d1 then sigma lands in n
    sigma = _lift(res.terms[0], res.augment, ses.proj)
    psi = _lift(res.terms[1], res.diffs[0].compose(sigma), ses.incl)
    return space.class_coords(psi)


def total_matrix(f: ModuleMap) -> Matrix:
    """Block-diagonal matrix over the flattened spaces, vertex order."""
    from quivertilt.linalg import Matrix

    fld = f.source.algebra.field
    src_off, tgt_off = f.source.offsets(), f.target.offsets()
    out = [[fld.zero()] * f.target.total_dim for _ in range(f.source.total_dim)]
    for v in f.source.algebra.vertices:
        m = f.mats[v]
        for i in range(m.rows):
            for j in range(m.cols):
                out[src_off[v] + i][tgt_off[v] + j] = m.entries[i][j]
    return Matrix(fld, f.source.total_dim, f.target.total_dim,
                  tuple(tuple(r) for r in out))


def coords(hs: HomSpace, f: ModuleMap) -> tuple:
    """Coordinates of a map in the basis of a Hom space (raises if not in
    the span; formerly the method HomSpace.coords)."""
    from quivertilt.errors import ConsistencyError
    from quivertilt.linalg import Matrix, solve_linear_system
    from quivertilt.modules import _entry_count, _flatten_map

    fld = hs.source.algebra.field
    rows = Matrix(fld, len(hs.basis), _entry_count(hs.source, hs.target),
                  tuple(_flatten_map(b) for b in hs.basis))
    v = Matrix(fld, 1, rows.cols, (_flatten_map(f),))
    x, _ = solve_linear_system(rows, v)
    if x is None:
        raise ConsistencyError("map does not lie in the hom space")
    return x.entries[0]


def trace_submodule(gen: Representation, target: Representation) -> ModuleMap:
    """Inclusion of the trace of gen in target: the sum of images of all
    morphisms gen -> target, spanned by the rows of a Hom basis
    (``_trace_rows``)."""
    from quivertilt.errors import InputError
    from quivertilt.modules import _trace_rows, hom_space, submodule_from_rows

    if gen.algebra is not target.algebra:
        raise InputError("trace across different algebras")
    _, incl = submodule_from_rows(target, _trace_rows(hom_space(gen, target)))
    return incl


def in_add_of(x: Representation, t: Representation) -> bool:
    """Is x isomorphic to a direct summand of a finite sum of copies of t?

    Exactly when x = 0 or its minimal right add(t)-approximation g is an
    isomorphism: for x in add t the identity of x is a minimal right
    approximation, minimal approximations are unique up to isomorphism,
    so g is one too; and an isomorphism g puts x in add t.  Checking g is
    one rank per vertex; x is never decomposed."""
    from quivertilt.modules import right_add_approximation

    if x.total_dim == 0:
        return True
    g = right_add_approximation(x, t)
    return g is not None and g.is_isomorphism()


def perp_complex_membership(m: Representation, y: PerfectComplex,
                            bound: int = DEFAULT_RESOLUTION_BOUND) -> bool:
    """Does y lie in the derived orthogonal of m?  Computed both ways — all
    derived Homs from resolve(m) vanish, and every cohomology of y lies in
    the module perpendicular category — and the two answers are asserted
    equal."""
    from quivertilt.complexes import cohomology, derived_hom, hom_window, resolve_to_complex
    from quivertilt.errors import ConsistencyError, InputError
    from quivertilt.homology import proj_dim
    from quivertilt.recollement import perp_membership

    pd = proj_dim(m, bound)
    if pd is None or pd > 1:
        raise InputError(f"perpendicular test needs pd <= 1, got {pd}")
    rm = resolve_to_complex(m, bound)
    derived_answer = all(derived_hom(rm, y, n).dim == 0 for n in hom_window(rm, y))
    module_answer = True
    if not y.is_zero_complex():
        for n in range(y.lo, y.hi + 1):
            h = cohomology(y, n)
            ok, _ = perp_membership([m], h, bound)
            if not ok:
                module_answer = False
                break
    if derived_answer != module_answer:
        raise ConsistencyError(
            "derived and cohomology-wise perpendicular verdicts disagree")
    return derived_answer


def triangle_from_map(alpha: ChainMap):
    """Given alpha: T2 -> T1[1], realize the triangle T1 -> T -> T2 -> T1[1]
    with T = cone(alpha)[-1].  Returns (T, incl: T1 -> T, proj: T -> T2).

    T^n = T2^n ⊕ T1^n with differential [[d_T2, -alpha], [0, d_T1]]: the
    cone's sign and the shift's sign cancel on the blocks of T2 and T1."""
    from quivertilt.complexes import ChainMap, mapping_cone, shift

    cone, incl, proj = mapping_cone(alpha)
    T = shift(cone, -1)
    t1 = shift(alpha.target, -1)
    return (T, ChainMap._trusted(t1, T, {n + 1: f for n, f in incl.comps.items()}),
            ChainMap._trusted(T, alpha.source, {n + 1: f for n, f in proj.comps.items()}))


def criterion_map_surjective(pair: ExceptionalPair, alpha: ChainMap) -> bool:
    """Is End(T2) ⊕ End(T1[1]) -> Hom(T2, T1[1]), (f, g) -> alpha∘f + g∘alpha,
    surjective?  (Composition written diagrammatically: alpha∘f = f then
    alpha.)"""
    from quivertilt.complexes import derived_hom, shift_chain_map

    return _spans(pair.ext_space, lambda: (
        [f.compose(alpha) for f in derived_hom(pair.t2, pair.t2, 0).reps]
        + [alpha.compose(shift_chain_map(g, 1)) for g in derived_hom(pair.t1, pair.t1, 0).reps]))


def cone_exceptionality(pair: ExceptionalPair, alpha: ChainMap):
    """Realize the triangle T1 -> T -> T2 -> T1[1] over alpha and decide
    exceptionality of T twice: directly, and through the surjectivity
    criterion.  The two verdicts must agree; disagreement aborts."""
    from quivertilt.complexes import is_exceptional
    from quivertilt.errors import ConsistencyError, InputError

    if alpha.source is not pair.t2 and alpha.source.terms != pair.t2.terms:
        raise InputError("alpha must start at t2")
    T, incl, proj = triangle_from_map(alpha)
    direct = is_exceptional(T)
    criterion = criterion_map_surjective(pair, alpha)
    if direct != criterion:
        raise ConsistencyError(
            f"cone exceptionality ({direct}) disagrees with the criterion map ({criterion})")
    return T, direct, criterion


def _spans(space: DerivedHomSpace, maps) -> bool:
    """Whether the classes of the chain maps maps() returns span space:
    True for a zero space, where maps is not called, and False for an
    empty list otherwise."""
    from quivertilt.linalg import Matrix, rank

    if space.dim == 0:
        return True
    rows = [space.class_coords(f) for f in maps()]
    return rank(Matrix(space.x.algebra.field, len(rows), space.dim, tuple(rows))) == space.dim


def transpose(m: Matrix) -> Matrix:
    """The transpose of m (formerly the method Matrix.transpose)."""
    from quivertilt.linalg import Matrix

    return Matrix(m.field, m.cols, m.rows, tuple(zip(*m.entries)) if m.rows and m.cols
                  else tuple(() for _ in range(m.cols)) if m.cols else ())


def _rref_with_transform(m: Matrix, with_transform: bool = True):
    """Reduced row echelon form.  Returns (R, pivots, T) with T*m = R and T
    invertible; rows of T below the pivot rows span the left kernel of m.
    Without ``with_transform`` T is not computed and is None.  A matrix
    with no rows or no columns is its own RREF, with T the identity."""
    from quivertilt.linalg import _eliminate, _identity, _rows_matrix

    fld = m.field
    if not (m.rows and m.cols):
        return m, (), _identity(fld, m.rows) if with_transform else None
    work, pivots, trans = _eliminate(fld, m.entries, m.cols, with_transform)
    R = _rows_matrix(fld, m.cols, work)
    T = _rows_matrix(fld, m.rows, trans) if with_transform else None
    return R, pivots, T


def rref(m: Matrix):
    """(R, pivots) without the transform."""
    R, pivots, _ = _rref_with_transform(m, with_transform=False)
    return R, pivots


def solve_null_space(eqs: Matrix) -> Matrix:
    """Basis of {x : eqs * x^T = 0}, one basis vector per row: the
    solutions of the homogeneous system whose equations are the rows of
    eqs, in one elimination of eqs with no transform.

    Row count is cols(eqs) - rank(eqs); the rows are linearly independent.
    The basis is the free-column basis of rref(eqs) (one row per non-pivot
    column f, with 1 at f and 0 at every other non-pivot column), so which
    basis comes out depends on the order of the unknowns, not only on the
    solution space."""
    from quivertilt.linalg import _null_space

    return _null_space(eqs.field, eqs.entries, eqs.cols)


def ext_tor_agree(report: HomEpiReport) -> bool:
    """Do Ext and Tor of a homological-epimorphism report vanish in the
    same degrees (formerly the property HomEpiReport.agree)?"""
    return all((e == 0) == (t == 0) for e, t in zip(report.ext_dims, report.tor_dims)) and \
        (all(e == 0 for e in report.ext_dims) == all(t == 0 for t in report.tor_dims))


# -- the elimination rounds for any ideal, as the package had them -----------------


def _path_key(arrow_index: dict, src_index: dict, path):
    src, word = path
    return (len(word), tuple(arrow_index[a] for a in word), src_index[src])


class _Eliminator:
    """Echelonized span of two-sided ideal instances in path coordinates.

    Vectors are dicts path -> coefficient.  The order is length-graded
    (longer paths are leading), then lexicographic on arrow indices.  Rules
    are normalized to leading coefficient one and indexed by leading path.
    """

    def __init__(self, fld: FieldSpec, keyfn):
        self.fld = fld
        self.key = keyfn
        self.rules = {}

    def reduce(self, vec: dict) -> dict:
        fld = self.fld
        out = {}
        work = dict(vec)
        while work:
            p = max(work, key=self.key)
            c = work.pop(p)
            if not c:
                continue
            rule = self.rules.get(p)
            if rule is None:
                out[p] = c
                continue
            for q, d in rule.items():
                if q == p:
                    continue
                nc = fld.sub(work.get(q, fld.zero()), fld.mul(c, d))
                if nc:
                    work[q] = nc
                elif q in work:
                    del work[q]
        return out

    def insert(self, vec: dict) -> bool:
        """Reduce and, if nonzero, add as a new rule.  Returns True if added."""
        red = self.reduce(vec)
        if not red:
            return False
        lead = max(red, key=self.key)
        inv = self.fld.inv(red[lead])
        self.rules[lead] = {p: self.fld.mul(inv, c) for p, c in red.items()}
        return True


def reference_elimination(quiver, relations, fld, vectors, max_path_len):
    """KQ/I for any ideal, from the nonzero relation vectors: enumerate
    paths by increasing length; close the span of relation instances under
    one-arrow extension on both sides, layer by layer; stop at the first
    length whose paths are all reducible.  The residue basis is the
    irreducible paths of shorter length, in enumeration order, and each
    product of two basis paths is the reduction of their concatenation."""
    from quivertilt.algebra import PATH_COUNT_CAP, _cap_error, _survive_error
    from quivertilt.errors import BoundExceeded

    amap = quiver.arrow_map()
    arrow_index = {a[0]: i for i, a in enumerate(quiver.arrows)}
    src_index = {v: i for i, v in enumerate(quiver.vertices)}
    keyfn = lambda p: _path_key(arrow_index, src_index, p)

    def path_target(path):
        src, word = path
        return amap[word[-1]][1] if word else src

    # paths_by_len[l] = list of paths of length l, in deterministic order
    paths_by_len = [[(v, ()) for v in quiver.vertices]]
    total_paths = len(quiver.vertices)

    def extend_layer():
        nonlocal total_paths
        prev = paths_by_len[-1]
        out = []
        for src, word in prev:
            end = path_target((src, word))
            for name, s, t in quiver.arrows:
                if s == end:
                    out.append((src, word + (name,)))
        total_paths += len(out)
        if total_paths > PATH_COUNT_CAP:
            raise _cap_error()
        paths_by_len.append(out)

    elim = _Eliminator(fld, keyfn)
    for vec in vectors:
        elim.insert(vec)
    elim._tagged = set()
    frontier = _fresh_rules(elim)

    def times_arrow(vec: dict, name: str, on_left: bool) -> dict:
        s, t = amap[name]
        out = {}
        for (src, word), c in vec.items():
            if on_left:
                # arrow * path: arrow must end where the path starts
                if t == src:
                    out[(s, (name,) + word)] = c
            else:
                if path_target((src, word)) == s:
                    out[(src, word + (name,))] = c
        return out

    death_len = None

    def layer_dead(length: int) -> bool:
        while len(paths_by_len) <= length:
            extend_layer()
        return all(p in elim.rules for p in paths_by_len[length])

    # Round k makes the rule span cover all instances u*r*w with |u|+|w| <= k.
    # Checking death at length l needs rounds >= l - 2 (relations have terms
    # of length >= 2); building the multiplication table of residues of
    # length < l needs coverage up to length 2(l-1), i.e. rounds 2l - 4.
    for rnd in range(1, 2 * max_path_len + 1):
        for vec in frontier:
            for name in amap:
                for on_left in (True, False):
                    cand = times_arrow(vec, name, on_left)
                    if cand:
                        elim.insert(cand)
        frontier = _fresh_rules(elim)
        if death_len is None:
            for length in range(2, min(rnd + 2, max_path_len) + 1):
                if layer_dead(length):
                    death_len = length
                    break
        if death_len is not None and rnd >= max(1, 2 * death_len - 4):
            break
        if death_len is None and rnd + 2 > max_path_len:
            raise _survive_error(max_path_len)

    if death_len is None:
        raise _survive_error(max_path_len)

    # residue basis: irreducible paths of length < death_len
    basis = []
    for length in range(death_len):
        while len(paths_by_len) <= length:
            extend_layer()
        for p in paths_by_len[length]:
            if p not in elim.rules:
                basis.append(p)
    # safety: no irreducible path may survive between death_len and the
    # window the multiplication table needs
    for length in range(death_len, min(2 * (death_len - 1), max_path_len) + 1):
        while len(paths_by_len) <= length:
            extend_layer()
        for p in paths_by_len[length]:
            if p not in elim.rules:
                raise BoundExceeded(
                    "residue basis did not stabilize at the detected layer; "
                    "relations are too wild for layer elimination")

    return _from_elimination(quiver, relations, fld, basis, elim, max_path_len)


def _fresh_rules(elim: _Eliminator):
    # rules inserted since the previous call are exactly those not yet tagged
    tagged = getattr(elim, "_tagged", set())
    fresh = [dict(vec) for lead, vec in elim.rules.items() if lead not in tagged]
    elim._tagged = set(elim.rules)
    return fresh


def _from_elimination(quiver, relations, fld, basis, elim, max_path_len):
    import itertools

    from quivertilt.algebra import Algebra
    from quivertilt.errors import BoundExceeded

    amap = quiver.arrow_map()
    index = {p: i for i, p in enumerate(basis)}
    dim = len(basis)
    starting = {v: [] for v in quiver.vertices}
    for j, (src, _) in enumerate(basis):
        starting[src].append(j)

    mult = dict.fromkeys(itertools.product(range(dim), repeat=2), ())
    for i, (src, word) in enumerate(basis):
        end = amap[word[-1]][1] if word else src
        for j in starting[end]:
            red = elim.reduce({(src, word + basis[j][1]): fld.one()})
            if any(r not in index for r in red):
                raise BoundExceeded(
                    "product reduction escaped the residue basis; "
                    "increase max_path_len")
            mult[(i, j)] = tuple(sorted((index[r], c) for r, c in red.items()))
    alg = Algebra(quiver, relations, fld, tuple(basis), mult, max_path_len)
    alg._verify()
    return alg
