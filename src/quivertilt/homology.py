"""Projective covers, minimal resolutions, Ext and Tor, extension
realization, universal extensions and left add-approximations.

The terms of a resolution are modules built by ``modules.proj_sum``: each
records the vertices its generators sit at in its own ``gens`` field, which
makes Hom out of it free data (a map from ⊕P_v is determined by arbitrary
images of the generators).  Each cover hands the kernels of its map to the
next step, so a resolution eliminates each vertex of each term once; a
direct sum of one recorded part is resolved by its part, whose terms it
shares.  The pushout that realizes an extension is one quotient by the
rows of a map (``modules._quotient_by_rows``), with no graph submodule.  A
resolution handed to Ext, Tor or ``resolve_to_complex`` must be one of the
module asked about.  Ext is computed from a resolution of the first
argument only, as H^n of a Hom complex whose dimension is read off the
ranks of its two differentials; cocycle classes are built only when a
caller first asks for them.  Tor tensors the same resolution with a left
module Y through e_vA ⊗_A Y ≅ e_vY, so each term P_k ⊗_A Y is a sum of
vertex components of Y.  The minimal left add(T)-approximation of
⊕_k P_{v_k} is chosen one vertex at a time: by Yoneda
Hom(P_v, T_j) = (T_j)_v, its radical is (U_j)_v with U_j the sum of the
images of the radical maps of add T into T_j, and the copies of T_j kept
at v_k are a basis of (T_j/U_j)_{v_k}.  One selection, the rows
independent modulo a span and the rows before them
(``linalg.independent_rows``), picks the generators of a projective cover,
these copies, and the maps kept by the minimal right approximation
(``modules.right_add_approximation``).
"""

from dataclasses import dataclass, field as _dc_field

from .algebra import Algebra, _memo, zero_module
from .errors import BoundExceeded, ConsistencyError, InputError
from .linalg import (Matrix, independent_rows, quotient_basis, rank, row_space, row_times,
                     solve_linear_system, solve_right_kernel)
from .modules import (HomSpace, ModuleMap, Representation, _assemble_block_map, _block_maps,
                      _endo_radical, _quotient_by_rows, _same_module, decompose, direct_sum,
                      gen_offsets, hom_from_gens, hom_space, identity_map, proj_sum, zero_map)

DEFAULT_RESOLUTION_BOUND = 32


# -- maps out of projective sums ------------------------------------------------


def gen_coords(psum: Representation, f: ModuleMap) -> tuple:
    """Generator-image coordinates of a map out of a projective sum; the
    inverse of hom_from_gens."""
    out = []
    for (v, row_idx) in psum.gen_pos:
        out.extend(f.mats[v].entries[row_idx])
    return tuple(out)


def _precompose_matrix(d: ModuleMap, psrc: Representation, ptgt: Representation,
                       n: Representation, out=None, r0: int = 0, c0: int = 0,
                       op=None) -> Matrix | None:
    """Matrix of Hom(d, n): coords(d then f) = coords(f) * M, where
    d: psrc -> ptgt and f in Hom(ptgt, n).  Given the row lists ``out``,
    M is combined into them at (r0, c0) through ``op`` instead and no
    matrix is built: _hom_differential writes its blocks so."""
    fld = psrc.algebra.field
    tgt_off, src_off = gen_offsets(ptgt, n), gen_offsets(psrc, n)
    build = out is None
    if build:
        out = [[fld.zero()] * src_off[-1] for _ in range(tgt_off[-1])]
        op = fld.add
    for jp, (u, row_idx) in enumerate(psrc.gen_pos):
        drow = d.mats[u].entries[row_idx]  # vector in ptgt at vertex u
        for pos, (j, i) in enumerate(ptgt.layout[u]):
            c = drow[pos]
            if not c:
                continue
            # n.basis_action(i) is n.dims[gens[j]] x n.dims[u]
            for r, arow in enumerate(n.basis_action(i).entries, r0 + tgt_off[j]):
                orow = out[r]
                for s, a in enumerate(arow, c0 + src_off[jp]):
                    if a:
                        orow[s] = op(orow[s], fld.mul(c, a))
    if build:
        return Matrix(fld, len(out), src_off[-1], tuple(map(tuple, out)))
    return None


# -- projective covers and minimal resolutions -----------------------------------


def _cover(m: Representation, rows: dict):
    """(P, d, ker) with d: P -> m the projective cover of the submodule K of
    m with basis rows[v] at each vertex v, in m's coordinates, and ker[v] =
    solve_right_kernel(d_v), the rows of the next step.  rad K at w is the
    sum of K_v * a over the arrows a: v -> w; the generators at w are the
    rows of K_w independent modulo it.

    Each d_v is eliminated once, for its kernel: the onto check reads
    dim P_v - dim ker d_v = dim K_v, which is rank d_v = dim K_v by
    rank-nullity.  The kernel basis is the free-column basis of that
    elimination, so the next term's generator images depend on it, while
    the terms' generator vertices do not."""
    alg = m.algebra
    gens, images = [], []
    for w in alg.vertices:
        if not rows[w].rows:
            continue
        # the rows of K_v * a over the arrows a: v -> w, as row tuples
        stack = tuple(row_times(r, m.arrow_mats[name])
                      for name, v, t in alg.quiver.arrows if t == w for r in rows[v].entries)
        for k in independent_rows(Matrix(alg.field, len(stack), m.dims[w], stack), rows[w]):
            gens.append(w)
            images.append(rows[w].entries[k])
    psum = proj_sum(alg, gens)
    d = hom_from_gens(psum, m, images)
    ker = {v: solve_right_kernel(d.mats[v]) for v in alg.vertices}
    if any(psum.dims[v] - ker[v].rows != rows[v].rows for v in alg.vertices):
        raise ConsistencyError("projective cover map is not onto its submodule")
    return psum, d, ker


def _gen_rows(psum: Representation, f: ModuleMap | None, g: ModuleMap | None) -> tuple | None:
    """Rows of f then g at the generators of psum, one row-times-matrix
    product each; None (zero) when f or g is absent.  A map out of a
    projective sum is zero exactly when it kills the generators."""
    if f is None or g is None:
        return None
    return tuple(row_times(f.mats[v].entries[r], g.mats[v]) for v, r in psum.gen_pos)


def _same_gen_rows(a: tuple | None, b: tuple | None) -> bool:
    """Whether two results of _gen_rows agree, None being zero rows."""
    if a is None or b is None:
        return not any(x for r in (a or b or ()) for x in r)
    return a == b


@dataclass(frozen=True)
class Resolution:
    """Minimal projective resolution ... -> P_1 -> P_0 -> m -> 0.

    diffs[k] is d_{k+1}: terms[k+1] -> terms[k]; complete means the kernel
    vanished at the last term, so length = len(terms) - 1 equals proj.dim m.
    """

    module: Representation
    terms: tuple    # of modules built by proj_sum
    diffs: tuple    # of ModuleMap
    augment: ModuleMap
    complete: bool

    @property
    def length(self) -> int:
        return len(self.terms) - 1


def min_resolution(m: Representation, max_len: int = DEFAULT_RESOLUTION_BOUND,
                   require_finite: bool = True) -> Resolution:
    """Minimal resolution of length at most max_len, complete when the
    kernel of its last map vanishes.  Beyond max_len, raises BoundExceeded
    when require_finite is set and returns the incomplete max_len-prefix
    otherwise.

    The longest resolution built for m is kept in m's cache.  A request it
    covers (it is complete or at least max_len long) is answered from it
    with exactly what a fresh resolution would give; a longer one resolves
    m again and replaces it.  A negative max_len raises InputError.

    A ``direct_sum`` of exactly one recorded part has the part's dims and
    arrow matrices, so it is resolved by its part: the terms and
    differentials are those of the part's memoized resolution, shared, and
    only the augmentation is re-targeted to the sum."""
    def compute():
        if len(m._parts) != 1:
            return _resolve(m, max_len)
        pres = min_resolution(m._parts[0], max_len, require_finite=False)
        return Resolution(m, pres.terms, pres.diffs,
                          ModuleMap._trusted(pres.augment.source, m, pres.augment.mats),
                          pres.complete)
    if max_len < 0:
        raise InputError(f"resolution bound must be >= 0, got {max_len}")
    res = _memo(m, "resolution", compute, keep=lambda res: res.complete or res.length >= max_len)
    if res.complete and res.length <= max_len:
        return res
    if require_finite:
        raise BoundExceeded(f"resolution exceeds bound {max_len}")
    if res.length > max_len:
        res = Resolution(m, res.terms[:max_len + 1], res.diffs[:max_len], res.augment, False)
    return res


def _resolve(m: Representation, max_len: int) -> Resolution:
    """Minimal resolution of m up to the term P_max_len.  Each kernel
    K = ker d_{k-1} is covered inside P_{k-1}, as row bases (_cover); no
    kernel module is built.  The kernels are those _cover computed for its
    onto check, so each vertex of each term is eliminated once.  Checked:
    K lies in rad P_{k-1}, d_k maps onto K, and d_k∘d_{k-1} = 0 on the
    generators of P_k: so the resolution is minimal and exact."""
    alg = m.algebra
    if m.total_dim == 0:
        empty = proj_sum(alg, ())
        return Resolution(m, (empty,), (), zero_map(empty, m), True)
    p0, augment, ker = _cover(m, {v: Matrix.identity(alg.field, m.dims[v])
                                  for v in alg.vertices})
    terms, diffs = [p0], []
    prev = augment
    while True:
        if all(r.rows == 0 for r in ker.values()):
            return Resolution(m, tuple(terms), tuple(diffs), augment, True)
        if len(diffs) == max_len:
            return Resolution(m, tuple(terms), tuple(diffs), augment, False)
        _assert_in_radical(terms[-1], ker)
        pk, d, ker = _cover(terms[-1], ker)
        if not _same_gen_rows(_gen_rows(pk, d, prev), None):
            raise ConsistencyError("resolution: d∘d != 0")
        diffs.append(d)
        terms.append(pk)
        prev = d


def _assert_in_radical(psum: Representation, ker: dict):
    # minimality: kernel vectors have no component on the generators
    for v, row_idx in psum.gen_pos:
        for r in ker[v].entries:
            if r[row_idx]:
                raise ConsistencyError("resolution is not minimal: kernel meets the generators")


def _check_resolution_of(res: Resolution | None, m: Representation):
    """InputError unless res is None or a resolution of m (``_same_module``):
    a resolution handed in by a caller answers for its own module."""
    if res is not None and not _same_module(res.module, m):
        raise InputError("the resolution given is not a resolution of the module")


def proj_dim(m: Representation, bound: int = DEFAULT_RESOLUTION_BOUND):
    """Length of the minimal resolution, or None when it exceeds the bound."""
    try:
        res = min_resolution(m, bound)
    except BoundExceeded:
        return None
    return res.length


def global_dimension(alg: Algebra, bound: int = DEFAULT_RESOLUTION_BOUND):
    """Max of proj.dim over the simple modules, or None beyond the bound."""
    from .algebra import simple
    worst = 0
    for v in alg.vertices:
        d = proj_dim(simple(alg, v), bound)
        if d is None:
            return None
        worst = max(worst, d)
    return worst


# -- the Hom complex ------------------------------------------------------------


def _hom_differential(xt: dict, xd: dict, yt: dict, yd: dict, n: int):
    """(layout, δ) for the differential δⁿ: Hom^n -> Hom^{n+1} of the total
    Hom complex, Hom^n = ⊕_i Hom(x^i, y^{i+n}) and
    δ(f) = f·d_y − (−1)ⁿ d_x·f, composites written diagrammatically
    (Weibel, *An Introduction to Homological Algebra*, §2.7).

    x is a complex of projective sums (xt: degree -> module built by
    proj_sum, xd: degree i -> map x^i -> x^{i+1}) and y one of modules (yt:
    degree -> Representation, yd likewise).  layout lists
    (i, dim Hom(x^i, y^{i+n})) (``modules.gen_offsets``) over the degrees i
    where both terms exist, in increasing i and zero widths included; f^i
    is its generator coordinates (gen_coords) there, and
    coords(δf) = coords(f) * δ.  The block of f^i then d_y is d_y's matrix
    at each generator's vertex down the diagonal; the block of d_x then f^i
    is _precompose_matrix, written in place."""
    fld = next(iter(yt.values())).algebra.field

    rows, roff, coff, nrows, ncols = [], {}, {}, 0, 0
    for i in sorted(xt):
        if i + n in yt:
            w = gen_offsets(xt[i], yt[i + n])[-1]
            rows.append((i, w))
            roff[i], nrows = nrows, nrows + w
        if i + n + 1 in yt:
            coff[i], ncols = ncols, ncols + gen_offsets(xt[i], yt[i + n + 1])[-1]
    out = [[fld.zero()] * ncols for _ in range(nrows)]
    op = fld.sub if n % 2 == 0 else fld.add
    for i, _ in rows:
        g = yd.get(i + n)
        if g is not None:
            r0, c0 = roff[i], coff[i]
            for v in xt[i].gens:
                for r, grow in enumerate(g.mats[v].entries, r0):
                    out[r][c0:c0 + len(grow)] = grow
                r0, c0 = r0 + g.mats[v].rows, c0 + g.mats[v].cols
        d = xd.get(i - 1)
        if d is not None:
            _precompose_matrix(d, xt[i - 1], xt[i], yt[i + n], out, roff[i], coff[i - 1], op)
    return rows, Matrix(fld, nrows, ncols, tuple(map(tuple, out)))


def _hom_cohomology(xt: dict, xd: dict, yt: dict, yd: dict, n: int) -> dict:
    """H^n = ker δⁿ / im δⁿ⁻¹ of the Hom complex of _hom_differential, by
    ranks: the layout of Hom^n, δⁿ, δⁿ⁻¹ and dim H^n (_hom_dim).  No basis
    is built here; _hom_basis builds one from these on first use."""
    layout, delta = _hom_differential(xt, xd, yt, yd, n)
    data = {"layout": layout, "delta": delta, "dim": 0}
    if delta.rows:
        _, data["prev"] = _hom_differential(xt, xd, yt, yd, n - 1)
        data["dim"] = _hom_dim(delta, data["prev"])
    return data


def _hom_dim(delta: Matrix, prev: Matrix) -> int:
    """dim Hom^n − rank δⁿ − rank δⁿ⁻¹, after checking δⁿ⁻¹δⁿ = 0: two
    eliminations without a transform and one product."""
    if not prev.mul(delta).is_zero():
        raise ConsistencyError("the Hom complex has δⁿ⁻¹δⁿ != 0")
    return delta.rows - rank(delta) - rank(prev)


def _hom_basis(data: dict) -> dict:
    """data of _hom_cohomology with a basis of H^n added on first use: the
    cocycle basis Z, the section of span(Z) / span(B), B the coboundaries
    solved in Z's coordinates, whose rows times Z are cocycles representing
    a basis of H^n, and the quotient map for _class_coords.  Checked: the
    section has data["dim"] rows."""
    if "section" not in data:
        Z = solve_right_kernel(data["delta"])
        Y, _ = solve_linear_system(Z, row_space(data["prev"]))
        if Y is None:
            raise ConsistencyError("coboundaries escaped the cocycle space")
        section, proj = quotient_basis(Y, Z.rows)
        if section.rows != data["dim"]:
            raise ConsistencyError(
                f"H^n has a basis of {section.rows}, but its ranks give dimension {data['dim']}")
        data.update(Z=Z, proj=proj, section=section)
    return data


def _class_coords(data: dict, flat) -> tuple:
    """Coordinates of the class of the cocycle with coordinates flat, in
    the quotient basis _hom_basis stores in data."""
    Z = _hom_basis(data)["Z"]
    y, _ = solve_linear_system(Z, Matrix(Z.field, 1, Z.cols, (flat,)))
    if y is None:
        raise ConsistencyError("not a cocycle")
    return y.mul(data["proj"]).entries[0]


# -- Ext -------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtClass:
    resolution: Resolution
    degree: int
    target: Representation
    cocycle: ModuleMap  # terms[degree] -> target, vanishing on im d_{degree+1}


@dataclass(frozen=True)
class ExtSpace:
    """Ext^k(m, n) with chosen cocycle representatives.

    Coordinates: a cocycle map f: P_k -> n is a generator-coordinate vector;
    class_coords projects it to the chosen basis of cocycles mod
    coboundaries.
    """

    resolution: Resolution
    degree: int
    target: Representation
    dim: int
    _data: dict = _dc_field(default_factory=dict, compare=False, repr=False)

    @property
    def classes(self) -> tuple:
        """One ExtClass per basis class, built on first use: most callers
        read only dim."""
        if self.dim == 0:
            return ()
        classes = self._data.get("classes")
        if classes is None:
            pk, n = self.resolution.terms[self.degree], self.target
            data = _hom_basis(self._data)
            classes = self._data["classes"] = tuple(
                ExtClass(self.resolution, self.degree, n,
                         hom_from_gens(pk, n, _split_gen_vector(pk, n, row)))
                for row in data["section"].mul(data["Z"]).entries)
        return classes

    def class_coords(self, f: ModuleMap) -> tuple:
        if self.dim == 0:
            return ()
        return _class_coords(self._data, gen_coords(self.resolution.terms[self.degree], f))


def ext(degree: int, m: Representation, n: Representation,
        bound: int = DEFAULT_RESOLUTION_BOUND, resolution: Resolution | None = None) -> ExtSpace:
    """Ext^degree(m, n) = H^degree of Hom(P, n), P the minimal resolution of
    m in degrees -length..0 and n in degree 0 (_hom_cohomology): the
    dimension from two ranks, the classes on first use."""
    if m.algebra is not n.algebra:
        raise InputError("ext across different algebras")
    if degree < 0:
        raise InputError("ext degree must be >= 0")
    if bound < 0:
        raise InputError(f"resolution bound must be >= 0, got {bound}")
    if degree + 1 > bound:
        raise BoundExceeded(f"ext degree {degree} beyond resolution bound {bound}")
    _check_resolution_of(resolution, m)
    if resolution is None or (resolution.length < degree + 1 and not resolution.complete):
        resolution = min_resolution(m, degree + 1, require_finite=False)
    res = resolution
    if degree > res.length or gen_offsets(res.terms[degree], n)[-1] == 0:
        return ExtSpace(res, degree, n, 0)  # Hom^degree = 0: no δ to build
    data = _hom_cohomology({-k: t for k, t in enumerate(res.terms)},
                           {-k - 1: d for k, d in enumerate(res.diffs)}, {0: n}, {}, degree)
    return ExtSpace(res, degree, n, data["dim"], _data=data)


def _split_gen_vector(psum: Representation, n: Representation, flat):
    out = []
    pos = 0
    for v in psum.gens:
        out.append(tuple(flat[pos:pos + n.dims[v]]))
        pos += n.dims[v]
    return out


def ext_dim(degree, m, n, bound=DEFAULT_RESOLUTION_BOUND, resolution=None) -> int:
    return ext(degree, m, n, bound, resolution).dim


# -- Tor -------------------------------------------------------------------------


@dataclass(frozen=True)
class LeftModule:
    """Left module over the algebra: total space with one action matrix per
    algebra basis element.  In row convention the action of basis element u
    on y is y * act[u]; compatibility therefore reads
    act[u * w] = act[w] * act[u]."""

    algebra: Algebra
    dim: int
    act: tuple  # Matrix per basis index

    def __post_init__(self):
        alg, dim, act = self.algebra, self.dim, self.act
        fld = alg.field
        if len(act) != alg.dim:
            raise InputError("one action matrix per algebra basis element required")
        for a in act:
            if (a.rows, a.cols) != (dim, dim):
                raise InputError("action matrices must be square of the module dimension")

        def combo(row) -> Matrix:
            out = Matrix.zeros(fld, dim, dim)
            for k, c in row:
                out = out.add(act[k].scale(c))
            return out

        if combo(alg.unit()) != Matrix.identity(fld, dim):
            raise ConsistencyError("unit does not act as identity")
        for i in range(alg.dim):
            for j in range(alg.dim):
                if combo(alg.mult[(i, j)]) != act[j].mul(act[i]):
                    raise ConsistencyError("action does not respect ring multiplication")

    @classmethod
    def _trusted(cls, algebra, dim, act) -> "LeftModule":
        """Build without the checks of __post_init__, for left modules that
        are valid by construction from an already-checked algebra, module or
        ring homomorphism."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "algebra", algebra)
        object.__setattr__(obj, "dim", dim)
        object.__setattr__(obj, "act", act)
        return obj


def tor_dims_range(x: Representation, y: LeftModule, max_degree: int,
                   bound: int = DEFAULT_RESOLUTION_BOUND,
                   resolution: Resolution | None = None):
    """(dim Tor_0, ..., dim Tor_max_degree) from a single resolution pass.

    e_vA ⊗_A y ≅ e_vy, so P_k ⊗_A y is ⊕_g e_{u_g}y over the generators g of
    P_k, each at its vertex u_g, with the basis B_v = row_space(y.act[e_v])
    of e_vy.  d_k ⊗ id then has one block per generator g of P_k and h of
    P_{k-1}: the sum of c * B_{u_g} * act[i] over the entries c of d_k(g) at
    (h, path i), in the columns of h's copy of y.  So dim Tor_k =
    Σ_g dim e_{u_g}y - rank(d_k ⊗ id) - rank(d_{k+1} ⊗ id)."""
    if x.algebra is not y.algebra:
        raise InputError("tor across different algebras")
    if max_degree < 0:
        raise InputError("tor degree must be >= 0")
    if bound < 0:
        raise InputError(f"resolution bound must be >= 0, got {bound}")
    if max_degree + 1 > bound:
        raise BoundExceeded(f"tor degree {max_degree} beyond resolution bound {bound}")
    _check_resolution_of(resolution, x)
    res = resolution
    if res is None or (not res.complete and res.length < max_degree + 1):
        res = min_resolution(x, max_degree + 1, require_finite=False)
    top = min(res.length, max_degree + 1)
    alg = x.algebra
    fld = alg.field
    bases = {v: row_space(y.act[alg.vertex_idempotent(v)]) for v in alg.vertices}
    moved = {}  # path i -> B_{target of i} * act[i]

    def tensored(k: int) -> Matrix:
        src, tgt = res.terms[k], res.terms[k - 1]
        cols = len(tgt.gens) * y.dim
        out = []
        for u, row_idx in src.gen_pos:
            block = [[fld.zero()] * cols for _ in range(bases[u].rows)]
            for c, (h, i) in zip(res.diffs[k - 1].mats[u].entries[row_idx], tgt.layout[u]):
                if not c:
                    continue
                if i not in moved:
                    moved[i] = bases[u].mul(y.act[i])
                for brow, mrow in zip(block, moved[i].entries):
                    for s, a in enumerate(mrow):
                        if a:
                            brow[h * y.dim + s] = fld.add(brow[h * y.dim + s], fld.mul(c, a))
            out.extend(block)
        return Matrix(fld, len(out), cols, tuple(tuple(r) for r in out))

    dims = [sum(bases[u].rows for u in res.terms[k].gens) for k in range(top + 1)]
    ranks = [0] + [rank(tensored(k)) for k in range(1, top + 1)] + [0]
    return tuple(dims[k] - ranks[k] - ranks[k + 1] if k <= top else 0
                 for k in range(max_degree + 1))


# -- short exact sequences and extension realization ------------------------------


@dataclass(frozen=True)
class ShortExact:
    """0 -> left -> mid -> right -> 0 with verified exactness."""

    left: Representation
    mid: Representation
    right: Representation
    incl: ModuleMap
    proj: ModuleMap

    def __post_init__(self):
        if not self.incl.is_injective():
            raise ConsistencyError("short exact sequence: inclusion not injective")
        if not self.proj.is_surjective():
            raise ConsistencyError("short exact sequence: projection not surjective")
        if not self.incl.compose(self.proj).is_zero():
            raise ConsistencyError("short exact sequence: composite not zero")
        for v in self.left.algebra.vertices:
            if self.left.dims[v] + self.right.dims[v] != self.mid.dims[v]:
                raise ConsistencyError("short exact sequence: dimensions do not add up")


def realize_extension(c: ExtClass) -> ShortExact:
    """Middle term of a degree-one extension class, as the pushout of the
    syzygy inclusion along the cocycle.

    A target n built by ``direct_sum`` is pushed out only over the recorded
    parts the cocycle touches, read off its generator images on each part's
    block.  A cocycle that vanishes on the part n_i (its composite with the
    projection onto n_i is zero) factors through the block inclusion of
    n' = ⊕_{j≠i} n_j, so its class lies in ⊕_{j≠i} Ext¹(m, n_j), and the
    pushout along the cocycle is the pushout E' along the factored cocycle
    followed by the pushout along n' -> n' ⊕ n_i, which is E' ⊕ n_i.  So
    mid = direct_sum([pushout over the touched parts, *untouched parts]),
    whose untouched parts are the very objects recorded in n."""
    if c.degree != 1:
        raise InputError("realize_extension needs a degree-1 class")
    res, n = c.resolution, c.target
    m, alg = res.module, n.algebra
    if m.algebra is not alg:
        raise InputError("extension class across different algebras")
    if res.length < 1 and not c.cocycle.is_zero():
        # projective source: only the split extension exists
        raise ConsistencyError("nonzero cocycle over a projective module")
    parts = n._parts or (n,)
    cols, off = [], dict.fromkeys(alg.vertices, 0)
    for part in parts:
        cols.append({v: range(off[v], off[v] + part.dims[v]) for v in alg.vertices})
        off = {v: off[v] + part.dims[v] for v in alg.vertices}
    gen_rows = [(v, c.cocycle.mats[v].entries[r]) for v, r in res.terms[1].gen_pos] \
        if res.length >= 1 else []
    touched = [k for k, kc in enumerate(cols) if any(row[j] for v, row in gen_rows for j in kc[v])]
    if len(touched) == len(parts):
        e, incl, proj = _pushout(res, c.cocycle)
        return ShortExact(n, e, m, incl, proj)
    rest = [k for k in range(len(parts)) if k not in touched]
    n_t = direct_sum([parts[k] for k in touched]) if touched else zero_module(alg)
    e_t, incl_t, proj_t = _pushout(res, ModuleMap._trusted(
        c.cocycle.source, n_t,
        {v: c.cocycle.mats[v].take_cols([j for k in touched for j in cols[k][v]])
         for v in alg.vertices}))
    mid_parts = [e_t] + [parts[k] for k in rest]
    into_t = iter(_block_maps(n_t)[0] if touched else ())
    # a touched part goes into E' through the pushout, an untouched one onto itself
    blocks = [[next(into_t).compose(incl_t)] + [None] * len(rest) if k in touched
              else [None] + [identity_map(parts[k]) if j == k else None for j in rest]
              for k in range(len(parts))]
    incl = _assemble_block_map(n, direct_sum(mid_parts), blocks, parts, mid_parts)
    proj = _assemble_block_map(incl.target, m, [[proj_t]] + [[None]] * len(rest), mid_parts, [m])
    return ShortExact(n, incl.target, m, incl, proj)


def _pushout(res: Resolution, cocycle: ModuleMap):
    """(E, n -> E, E -> m): the pushout of the syzygy inclusion Ω -> P_0 of
    m's resolution along a cocycle c: P_1 -> n, as one cokernel: E is
    (n ⊕ P_0) / im ψ with ψ = (-c, d_1): P_1 -> n ⊕ P_0, built from its
    generator images (``hom_from_gens``).

    P_1 maps onto Ω, so im ψ is the graph {(-φ(y), y) : y ∈ Ω} of the map
    φ: Ω -> n that c factors through.  Its RREF basis at each vertex is the
    one elimination of the pushout (``row_space`` in _quotient_by_rows,
    which builds no graph module); the quotient reads its pivots, and E's
    basis is the free coordinates of that RREF, so E depends on the span
    only.  E -> m descends from (0, augment): at each vertex it is
    section_v · (0; augment_v), the unique solution, since the projection
    onto E is onto.

    Checked: c∘d_2 = 0 on the generators of P_2, so that c vanishes on
    ker d_1 = im d_2 and φ exists; a resolution that neither reaches P_2
    nor is complete raises InputError.  E -> m is validated as a ModuleMap,
    and ShortExact (in realize_extension) checks exactness."""
    m, n = res.module, cocycle.target
    alg = m.algebra
    fld = alg.field
    if res.length >= 2:
        if not _same_gen_rows(_gen_rows(res.terms[2], res.diffs[1], cocycle), None):
            raise ConsistencyError("cocycle does not vanish on the image of d_2")
    elif not res.complete:
        raise InputError("the pushout needs the resolution through P_2")
    p1 = res.terms[1] if res.length >= 1 else proj_sum(alg, ())
    total = direct_sum([n, res.terms[0]])
    neg = fld.neg
    psi = hom_from_gens(p1, total, [tuple(neg(x) for x in cocycle.mats[v].entries[r])
                                    + res.diffs[0].mats[v].entries[r] for v, r in p1.gen_pos])
    e_rep, to_e, sections = _quotient_by_rows(total, psi.mats)
    # n -> n ⊕ P_0 -> E: the first dim n_v rows of the projection
    incl = ModuleMap._trusted(n, e_rep, {v: to_e.mats[v].take_rows(range(n.dims[v]))
                                         for v in alg.vertices})
    proj = ModuleMap(e_rep, m, {
        v: Matrix(fld, sections[v].rows, m.dims[v],
                  tuple(row_times(s[n.dims[v]:], res.augment.mats[v])
                        for s in sections[v].entries))
        for v in alg.vertices})
    return e_rep, incl, proj


def _lift(psum: Representation, f: ModuleMap, g: ModuleMap) -> ModuleMap:
    """h: psum -> g.source with h then g = f, for f out of the projective
    sum: each generator row of f solved against g at its vertex.  Any
    images define h, and h then g agrees with f on the generators, so
    everywhere."""
    fld = psum.algebra.field
    images = []
    for v, r in psum.gen_pos:
        row = Matrix(fld, 1, g.target.dims[v], (f.mats[v].entries[r],))
        x, _ = solve_linear_system(g.mats[v], row)
        if x is None:
            raise ConsistencyError("map out of a projective sum does not lift")
        images.append(x.entries[0])
    return hom_from_gens(psum, g.source, images)


# -- universal extensions ----------------------------------------------------------


def _resolution_power(res: Resolution, k: int) -> Resolution:
    """Direct sum of k copies of a resolution (resolving m^k).  proj_sum of
    the generators repeated k times lays each vertex out as k consecutive
    copies of the single term, as direct_sum does, so every map is block
    diagonal."""
    alg = res.module.algebra
    msum = direct_sum([res.module] * k)
    terms = [proj_sum(alg, t.gens * k) for t in res.terms]

    def power(d: ModuleMap, src: Representation, tgt: Representation) -> ModuleMap:
        blocks = [[d if a == b else None for b in range(k)] for a in range(k)]
        return _assemble_block_map(src, tgt, blocks, [d.source] * k, [d.target] * k)

    diffs = [power(d, terms[i + 1], terms[i]) for i, d in enumerate(res.diffs)]
    augment = power(res.augment, terms[0], msum)
    return Resolution(msum, tuple(terms), tuple(diffs), augment, res.complete)


def universal_extension(m: Representation, x: Representation,
                        bound: int = DEFAULT_RESOLUTION_BOUND):
    """Universal extension 0 -> x -> N -> m^k -> 0 killing Ext^1(m, x).

    k is dim_K Ext^1(m, x) when End(m) is one-dimensional; otherwise a
    greedy End(m)-generating set of Ext^1(m, x) is used.  For k = 1 the
    class is realized on m's own resolution, so the right term is m itself;
    for k > 1 it is the direct_sum of k copies of m.  The
    post-condition Ext^1(m, N) = 0 is asserted.  It needs Ext^1(m, m) = 0,
    as in Bongartz's construction: the sequence embeds Ext^1(m, N) in
    Ext^1(m, m)^k.  When it fails, a nonzero Ext^1(m, m) raises InputError.
    """
    space = ext(1, m, x, bound)
    if space.dim == 0:
        return x, ShortExact(x, x, zero_module(m.algebra), identity_map(x),
                             zero_map(x, zero_module(m.algebra)))
    end = hom_space(m, m)
    gens = list(space.classes) if end.dim == 1 else _end_generating_classes(m, space, end)
    if len(gens) == 1:
        cls = gens[0]
    else:
        res_k = _resolution_power(space.resolution, len(gens))
        # stacked cocycle on P1^k
        images = [g.cocycle.mats[v].entries[r] for g in gens
                  for v, r in space.resolution.terms[1].gen_pos]
        cls = ExtClass(res_k, 1, x, hom_from_gens(res_k.terms[1], x, images))
    ses = realize_extension(cls)
    n_mod = ses.mid
    if ext_dim(1, m, n_mod, bound, resolution=space.resolution):
        if ext_dim(1, m, m, bound, resolution=space.resolution):
            raise InputError("universal extension needs Ext^1(m, m) = 0")
        raise ConsistencyError("universal extension failed to kill Ext^1(m, -)")
    return n_mod, ses


def _end_generating_classes(m, space, end: HomSpace):
    """Greedy End(m)-generating set of Ext^1(m, x) (acting by precomposition)."""
    res = space.resolution
    fld = m.algebra.field
    # lift each End basis element phi to phi_0 on P_0, then to phi_1 on P_1
    lifted = []
    for phi in end.basis:
        phi0 = _lift(res.terms[0], res.augment.compose(phi), res.augment)
        lifted.append(_lift(res.terms[1], res.diffs[0].compose(phi0), res.diffs[0]))

    gens = []
    span = Matrix.zeros(fld, 0, space.dim)

    def in_span(row: Matrix) -> bool:
        return solve_linear_system(span, row)[0] is not None

    for cls in space.classes:
        coords = Matrix(fld, 1, space.dim, (space.class_coords(cls.cocycle),))
        if in_span(coords):
            continue
        gens.append(cls)
        span = row_space(span.vstack(coords))
        # close the span under the End action by precomposition
        frontier = [cls]
        while frontier:
            nxt = []
            for c in frontier:
                for phi1 in lifted:
                    moved = phi1.compose(c.cocycle)
                    coords2 = Matrix(fld, 1, space.dim, (space.class_coords(moved),))
                    if not in_span(coords2):
                        span = row_space(span.vstack(coords2))
                        nxt.append(ExtClass(space.resolution, 1, space.target, moved))
            frontier = nxt
    return gens


# -- left add-approximations --------------------------------------------------------


def left_add_approximation(x: Representation, t: Representation):
    """Minimal left add(t)-approximation of a projective x (Auslander–Smalø),
    one vertex at a time; a non-projective x raises InputError.

    Returns (f, summand_tags): f: x -> T0, T0 the direct sum of the tagged
    factors T_j of decompose(t), and every map x -> t' in add(t) factors
    through f.  x = ⊕_k P_{v_k} through the cover of its memoized minimal
    resolution, and by Yoneda a map P_v -> T_j is the image of e_v, a
    vector of (T_j)_v; composing it with h: T_i -> T_j multiplies by h.mats[v].

    - The T_j are pairwise non-isomorphic indecomposables, so the radical
      maps into T_j are Hom(T_i, T_j) for i != j and rad End(T_j).  With
      U_j the sum of their images, rad(P_v, T_j) = (U_j)_v.
    - Hom(x, T_j) and its radical split over the generators, so T0 has one
      copy of T_j per generator k and unit vector c of (T_j)_{v_k}
      independent modulo (U_j)_{v_k} and the earlier units: the copy's map
      sends generator k to c and the others to 0.
    - rad(add t) is nilpotent, so maps generating each Hom(P_v, T_j) modulo
      the radical generate it: f is an approximation.  The kept maps are
      independent modulo the radical: f is minimal.

    Checked: at each generator vertex v, the rows c of h.mats[v] over the
    kept units c of each T_i and h ∈ Hom(T_i, T_j) span (T_j)_v.
    """
    if x.algebra is not t.algebra:
        raise InputError("left add-approximation across different algebras")
    factors = [fac for fac, _ in decompose(t)]
    return _left_approximation(x, factors, [[hom_space(a, b) for b in factors] for a in factors])


def _left_approximation(x: Representation, factors: list, between: list):
    """left_add_approximation of x by the factors of decompose(t), given
    the table between[i][j] = Hom(T_i, T_j) of them."""
    alg, fld = x.algebra, x.algebra.field
    res = min_resolution(x, 0, require_finite=False)
    if not res.complete:
        raise InputError("left add-approximation needs a projective module")
    p0, cover = res.terms[0], res.augment
    rad = [[h for i, hs in enumerate(between) if i != j for h in hs[j].basis]
           + list(_endo_radical(fac) if between[j][j].dim > 1 else ())
           for j, fac in enumerate(factors)]
    keep = {}  # (j, v) -> the kept unit vectors of (T_j)_v
    for v in dict.fromkeys(p0.gens):
        for j, d in enumerate(fac.dims[v] for fac in factors):
            # the units independent modulo (U_j)_v
            rows = tuple(r for h in rad[j] for r in h.mats[v].entries)
            keep[j, v] = independent_rows(Matrix(fld, len(rows), d, rows),
                                          Matrix.identity(fld, d))
        for j, d in enumerate(fac.dims[v] for fac in factors):
            rows = tuple(h.mats[v].entries[c] for i, hs in enumerate(between)
                         for c in keep[i, v] for h in hs[j].basis)
            if d and rank(Matrix(fld, len(rows), d, rows)) != d:
                raise ConsistencyError("minimal map is not a left approximation")
    copies = [(j, k, c) for j in range(len(factors))
              for k, v in enumerate(p0.gens) for c in keep[j, v]]
    if not copies:
        return zero_map(x, zero_module(alg)), ()
    t0 = direct_sum([factors[j] for j, _, _ in copies])
    mats = {}
    for w in alg.vertices:
        act = {}  # T_j's action of path i, read once per (j, i)
        for k, i in p0.layout[w]:
            for j, kc, _ in copies:
                if kc == k and (j, i) not in act:
                    act[j, i] = factors[j].basis_action(i).entries
        zeros = [(fld.zero(),) * fac.dims[w] for fac in factors]
        # row (k, i): row c of T_j's action of path i in each copy (j, k, c)
        rows = tuple(tuple(e for j, kc, c in copies
                           for e in (act[j, i][c] if kc == k else zeros[j]))
                     for k, i in p0.layout[w])
        mats[w] = Matrix(fld, len(rows), t0.dims[w], rows)
        ident = Matrix.identity(fld, x.dims[w])
        if cover.mats[w] != ident:  # ⊕_k P_{v_k} in another basis: rebase by cover⁻¹
            inverse, _ = solve_linear_system(cover.mats[w], ident)
            mats[w] = inverse.mul(mats[w])
    return ModuleMap._trusted(x, t0, mats), tuple(j for j, _, _ in copies)
