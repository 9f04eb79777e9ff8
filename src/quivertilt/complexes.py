"""Perfect complexes: bounded cochain complexes of projectives, shifts,
mapping cones, chain maps modulo homotopy, derived Hom, universal
triangles.

Only complexes of projectives are values here; modules enter through
resolve_to_complex.  Hom in the homotopy category of projectives computes
derived Hom, so no calculus of fractions is needed.  Differentials raise
degree; the shift sign is d_{x[n]} = (-1)^n d_x, and the cone of f has
differential [[-d_src, f], [0, d_tgt]].  ``mapping_cone`` builds the
projection on top of ``_cone`` and ``_cone_inclusion``.

``universal_triangle`` alone stacks derived Hom bases into a map and cones
it: the left or right mutation at an exceptional object (Gorodentsev-
Rudakov; Bondal), checked by the degrees it kills.

Dimensions come from ranks: dim Hom_D(x, y[n]) from the two differentials
of the Hom complex at degree n, and dim H^n(x) from those of x.  Chain-map
representatives are built only when a caller first asks for them.  A
complex carries a cache, as a module does: Hom_D(x, x[n]) and x[n] are
memoized there (``algebra._memo``), and x[n] holds x as its shift by -n.
"""

from dataclasses import dataclass, field as _dc_field

from .algebra import Algebra, _memo, zero_module
from .errors import ConsistencyError, DimensionMismatch, InputError
from .linalg import rank, row_space, solve_linear_system, solve_right_kernel
from .modules import (ModuleMap, Representation, _assemble_block_map, _quotient_by_rows,
                      _same_module, hom_from_gens, identity_map, proj_sum, submodule_from_rows,
                      zero_map)
from .homology import (DEFAULT_RESOLUTION_BOUND, Resolution, _check_resolution_of,
                       _class_coords, _gen_rows, _hom_basis, _hom_cohomology, _same_gen_rows,
                       _split_gen_vector, gen_coords, min_resolution)


@dataclass(frozen=True)
class PerfectComplex:
    """Bounded complex of projective sums.  Checked on construction: every
    term is a nonzero module built by ``proj_sum`` over the complex's
    algebra (InputError otherwise), every differential runs between the
    modules of its terms (_same_module), and d∘d = 0 on the generator rows
    of each term, which decides it: a map out of a projective sum is zero
    exactly when it kills the generators."""

    algebra: Algebra
    terms: dict   # degree -> module built by proj_sum (only nonzero degrees present)
    diffs: dict   # degree n -> ModuleMap terms[n] -> terms[n+1]
    _caches: dict = _dc_field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        for n, t in self.terms.items():
            if not isinstance(t, Representation) or t.gens is None:
                raise InputError(f"term {n} is not a projective sum built by proj_sum")
            if t.algebra is not self.algebra:
                raise InputError(f"term {n} is over another algebra than the complex")
            if not t.gens:
                raise InputError("zero terms must be omitted from a complex")
        for n, d in self.diffs.items():
            if n not in self.terms or (n + 1) not in self.terms:
                raise InputError("differential between absent terms")
            if not (_same_module(d.source, self.terms[n])
                    and _same_module(d.target, self.terms[n + 1])):
                raise DimensionMismatch("differential shape mismatch")
        for n, d in self.diffs.items():
            if not _same_gen_rows(_gen_rows(self.terms[n], d, self.diffs.get(n + 1)), None):
                raise ConsistencyError("d∘d != 0")

    @property
    def lo(self):
        return min(self.terms) if self.terms else 0

    @property
    def hi(self):
        return max(self.terms) if self.terms else 0

    def is_zero_complex(self) -> bool:
        return not self.terms

    def term_rep(self, n: int) -> Representation:
        t = self.terms.get(n)
        if t is not None:
            return t
        return zero_module(self.algebra)

    def diff(self, n: int) -> ModuleMap:
        d = self.diffs.get(n)
        if d is not None:
            return d
        return zero_map(self.term_rep(n), self.term_rep(n + 1))

    def __repr__(self):
        if not self.terms:
            return "PerfectComplex(0)"
        parts = [f"{n}:{self.terms[n].gens}" for n in sorted(self.terms)]
        return "PerfectComplex(" + ", ".join(parts) + ")"


def zero_complex(alg: Algebra) -> PerfectComplex:
    return PerfectComplex(alg, {}, {})


def resolve_to_complex(m: Representation, bound: int = DEFAULT_RESOLUTION_BOUND,
                       resolution: Resolution | None = None) -> PerfectComplex:
    """Minimal resolution placed in degrees [-pd, 0]; cohomology is m in
    degree 0.  A resolution given must be one of m (InputError)."""
    _check_resolution_of(resolution, m)
    if m.total_dim == 0:
        return zero_complex(m.algebra)
    res = resolution if resolution is not None else min_resolution(m, bound)
    terms = {}
    diffs = {}
    for k, t in enumerate(res.terms):
        if t.gens:
            terms[-k] = t
    for k, d in enumerate(res.diffs):
        # d: terms[k+1] -> terms[k], i.e. degree -(k+1) -> -k
        if res.terms[k + 1].gens and res.terms[k].gens:
            diffs[-(k + 1)] = d
    return PerfectComplex(m.algebra, terms, diffs)


def shift(x: PerfectComplex, n: int) -> PerfectComplex:
    """x[n]^i = x^{i+n} with differential (-1)^n d, memoized in x's cache
    per n, so each differential is negated once per odd shift of x; x[n]
    holds x as its shift by -n, so shifting back returns x itself."""
    def compute():
        y = _shift(x, n)
        _memo(y, ("shift", -n), lambda: x)
        return y
    return x if n == 0 else _memo(x, ("shift", n), compute)


def _shift(x: PerfectComplex, n: int) -> PerfectComplex:
    terms = {i - n: t for i, t in x.terms.items()}
    sign = 1 if n % 2 == 0 else -1
    diffs = {}
    for i, d in x.diffs.items():
        diffs[i - n] = d if sign == 1 else d.neg()
    return PerfectComplex(x.algebra, terms, diffs)


def direct_sum_complexes(parts, algebra: Algebra | None = None) -> PerfectComplex:
    """Degreewise direct sum of complexes over one algebra (InputError
    otherwise); the algebra must be given when there are no parts."""
    alg = algebra if algebra is not None else (parts[0].algebra if parts else None)
    if alg is None:
        raise InputError("direct sum of zero complexes needs the algebra")
    if any(p.algebra is not alg for p in parts):
        raise InputError("direct sum of complexes over different algebras")
    live = [p for p in parts if not p.is_zero_complex()]
    if not live:
        return zero_complex(alg)
    degrees = sorted({n for p in live for n in p.terms})
    terms = {}
    for n in degrees:
        gens = tuple(v for p in live for v in (p.terms[n].gens if n in p.terms else ()))
        terms[n] = proj_sum(alg, gens)
    diffs = {}
    for n in degrees:
        if (n + 1) not in terms:
            continue
        blocks = [[live[i].diffs.get(n) if i == j else None for j in range(len(live))]
                  for i in range(len(live))]
        d = _assemble_block_map(terms[n], terms[n + 1], blocks,
                                [p.term_rep(n) for p in live],
                                [p.term_rep(n + 1) for p in live])
        if not d.is_zero():
            diffs[n] = d
    return PerfectComplex(alg, terms, diffs)


@dataclass(frozen=True)
class ChainMap:
    """Chain map, one module map per degree (absent: zero).  Checked on
    construction: every component runs between the modules of its terms,
    and f^n d_y = d_x f^{n+1} on the generator rows of x^n (_gen_rows)."""

    source: PerfectComplex
    target: PerfectComplex
    comps: dict  # degree -> ModuleMap source.term(n) -> target.term(n)

    def __post_init__(self):
        x, y = self.source, self.target
        for n, f in self.comps.items():
            if n not in x.terms or n not in y.terms:
                raise InputError("chain map component between absent terms")
            if not (_same_module(f.source, x.terms[n]) and _same_module(f.target, y.terms[n])):
                raise DimensionMismatch("chain map component shape mismatch")
        for n, t in x.terms.items():
            lhs = _gen_rows(t, self.comps.get(n), y.diffs.get(n))
            rhs = _gen_rows(t, x.diffs.get(n), self.comps.get(n + 1))
            if not _same_gen_rows(lhs, rhs):
                raise ConsistencyError(f"chain map does not commute at degree {n}")

    @classmethod
    def _trusted(cls, source, target, comps) -> "ChainMap":
        obj = object.__new__(cls)
        object.__setattr__(obj, "source", source)
        object.__setattr__(obj, "target", target)
        object.__setattr__(obj, "comps", comps)
        return obj

    def comp(self, n: int) -> ModuleMap:
        f = self.comps.get(n)
        if f is not None:
            return f
        return zero_map(self.source.term_rep(n), self.target.term_rep(n))

    def add(self, other: "ChainMap") -> "ChainMap":
        comps = {}
        for n in set(self.comps) | set(other.comps):
            comps[n] = self.comp(n).add(other.comp(n))
        return ChainMap._trusted(self.source, self.target, comps)

    def scale(self, c) -> "ChainMap":
        return ChainMap._trusted(self.source, self.target,
                                 {n: f.scale(c) for n, f in self.comps.items()})

    def neg(self) -> "ChainMap":
        return self.scale(-1)

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.comps.values())

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self then other (diagrammatic)."""
        comps = {}
        for n in self.source.terms:
            if n in self.target.terms and n in other.target.terms:
                comps[n] = self.comp(n).compose(other.comp(n))
        return ChainMap._trusted(self.source, other.target, comps)


def zero_chain_map(x: PerfectComplex, y: PerfectComplex) -> ChainMap:
    return ChainMap(x, y, {})


def identity_chain_map(x: PerfectComplex) -> ChainMap:
    return ChainMap(x, x, {n: identity_map(x.terms[n]) for n in x.terms})


def shift_chain_map(f: ChainMap, n: int) -> ChainMap:
    # commutation is preserved: the sign change applies to both differentials
    return ChainMap._trusted(shift(f.source, n), shift(f.target, n),
                             {i - n: g for i, g in f.comps.items()})


def mapping_cone(f: ChainMap):
    """(cone, incl: target -> cone, proj: cone -> source[1]).

    cone^n = src^{n+1} ⊕ tgt^n with differential [[-d_src, f], [0, d_tgt]],
    built by ``_cone`` and ``_cone_inclusion`` for callers that need less.
    """
    x = f.source
    cone = _cone(f)
    incl = _cone_inclusion(f, cone)
    sx = shift(x, 1)
    proj_comps = {}
    for n in cone.terms:
        if n in sx.terms:
            proj_comps[n] = _assemble_block_map(
                cone.terms[n], sx.terms[n],
                [[identity_map(x.term_rep(n + 1))], [None]],
                [x.term_rep(n + 1), f.target.term_rep(n)], [x.term_rep(n + 1)])
    proj = ChainMap(cone, sx, proj_comps)
    return cone, incl, proj


def _cone(f: ChainMap) -> PerfectComplex:
    """The cone of ``mapping_cone``, without its maps."""
    x, y = f.source, f.target
    alg = x.algebra
    degrees = sorted(set(i - 1 for i in x.terms) | set(y.terms))
    terms = {}
    for n in degrees:
        gens = (x.terms[n + 1].gens if (n + 1) in x.terms else ()) + \
               (y.terms[n].gens if n in y.terms else ())
        if gens:
            terms[n] = proj_sum(alg, gens)
    diffs = {}
    for n in terms:
        if (n + 1) not in terms:
            continue
        src_reps = [x.term_rep(n + 1), y.term_rep(n)]
        tgt_reps = [x.term_rep(n + 2), y.term_rep(n + 1)]
        blocks = [[x.diff(n + 1).neg(), f.comp(n + 1)],
                  [None, y.diff(n)]]
        d = _assemble_block_map(terms[n], terms[n + 1], blocks, src_reps, tgt_reps)
        if not d.is_zero():
            diffs[n] = d
    return PerfectComplex(alg, terms, diffs)


def _cone_inclusion(f: ChainMap, cone: PerfectComplex) -> ChainMap:
    """The inclusion f.target -> cone of ``mapping_cone``; cone = _cone(f)."""
    x, y = f.source, f.target
    incl_comps = {}
    for n in y.terms:
        if n in cone.terms:
            incl_comps[n] = _assemble_block_map(
                y.term_rep(n), cone.terms[n],
                [[None, identity_map(y.term_rep(n))]],
                [y.term_rep(n)], [x.term_rep(n + 1), y.term_rep(n)])
    return ChainMap(y, cone, incl_comps)


# -- derived Hom ---------------------------------------------------------------


def hom_window(x: PerfectComplex, y: PerfectComplex):
    """Degrees n where Hom(x, y[n]) can be nonzero: [lo(y)-hi(x), hi(y)-lo(x)].
    Empty when either complex is zero."""
    if x.is_zero_complex() or y.is_zero_complex():
        return range(0)
    return range(y.lo - x.hi, y.hi - x.lo + 1)


@dataclass(frozen=True)
class DerivedHomSpace:
    """Hom_D(x, y[n]): chain maps x -> y[n] modulo null-homotopic maps."""

    x: PerfectComplex
    y: PerfectComplex
    n: int
    dim: int
    _data: dict = _dc_field(default_factory=dict, compare=False, repr=False)

    @property
    def target(self) -> PerfectComplex:
        """shift(y, n), the target of every chain map in the space."""
        sy = self._data.get("sy")
        if sy is None:
            sy = self._data["sy"] = shift(self.y, self.n)
        return sy

    @property
    def reps(self) -> tuple:
        """One ChainMap x -> shift(y, n) per basis class, built (and checked)
        on first use: most callers read only dim."""
        if self.dim == 0:
            return ()
        reps = self._data.get("reps")
        if reps is None:
            x, sy = self.x, self.target
            data = _hom_basis(self._data)
            reps = []
            for row in data["section"].mul(data["Z"]).entries:
                comps = {}
                pos = 0
                for (i, vdim) in self._data["layout"]:
                    psum = x.terms[i]
                    images = _split_gen_vector(psum, sy.terms[i], row[pos:pos + vdim])
                    pos += vdim
                    comps[i] = hom_from_gens(psum, sy.terms[i], images)
                reps.append(ChainMap(x, sy, comps))
            reps = self._data["reps"] = tuple(reps)
        return reps

    def class_coords(self, f: ChainMap) -> tuple:
        """Coordinates of the homotopy class of f in the chosen basis."""
        if self.dim == 0:
            return ()
        return _class_coords(self._data, _flatten_chain(f, self._data["layout"]))

    def combo(self, coeffs) -> ChainMap:
        if len(coeffs) != self.dim:
            raise InputError(f"{len(coeffs)} coefficients for a derived Hom space of "
                             f"dimension {self.dim}")
        out = zero_chain_map(self.x, self.target)
        for c, r in zip(coeffs, self.reps):
            if c:
                out = out.add(r.scale(c))
        return out


def _flatten_chain(f: ChainMap, layout) -> tuple:
    out = []
    for (i, vdim) in layout:
        psum = f.source.terms[i]
        out.extend(gen_coords(psum, f.comp(i)))
    return tuple(out)


def derived_hom(x: PerfectComplex, y: PerfectComplex, n: int) -> DerivedHomSpace:
    """Exact dimension and representatives of Hom_D(x, y[n]): H^n of the
    Hom complex of x and y's term modules (homology._hom_cohomology), as x
    is a bounded complex of projectives.  A cocycle of degree n is a chain
    map x -> y[n]: its chain condition is δⁿ up to the sign (−1)ⁿ of
    y[n]'s differential.  The dimension comes from two ranks; neither the
    representatives nor the shifted complex they map into is built here
    (``DerivedHomSpace.reps`` builds both on first use).  Hom_D(x, x[n]) is
    memoized in x's cache, as End(m) is for modules."""
    def compute():
        if n not in hom_window(x, y):
            return DerivedHomSpace(x, y, n, 0)
        data = _hom_cohomology(x.terms, x.diffs, y.terms, y.diffs, n)
        return DerivedHomSpace(x, y, n, data["dim"], _data=data)
    if x.algebra is not y.algebra:
        raise InputError("derived Hom between complexes over different algebras")
    return _memo(x, ("derived_end", n), compute) if y is x else compute()


def cohomology(x: PerfectComplex, n: int) -> Representation:
    """H^n(x) = ker(d^n) / im(d^{n-1}) as a representation: one quotient of
    the kernel by the image's rows in its coordinates (_quotient_by_rows)."""
    alg = x.algebra
    if n not in x.terms:
        return zero_module(alg)
    dn = x.diff(n)
    ker_rows = {v: solve_right_kernel(dn.mats[v]) for v in alg.vertices}
    ker, ker_incl = submodule_from_rows(x.term_rep(n), ker_rows)
    dprev = x.diff(n - 1)
    # factor the image of d^{n-1} through the kernel
    img_rows = {}
    for v in alg.vertices:
        im = row_space(dprev.mats[v])
        xsol, _ = solve_linear_system(ker_incl.mats[v], im)
        if xsol is None:
            raise ConsistencyError("image not contained in kernel (d∘d != 0?)")
        img_rows[v] = xsol
    h, _, _ = _quotient_by_rows(ker, img_rows)
    return h


def _cohomology_dims(x: PerfectComplex) -> dict:
    """dim H^n(x) for every degree n of x: Σ_v dim x^n_v − rank d^n_v −
    rank d^{n-1}_v, one rank per differential and vertex and no module
    built (``cohomology`` builds H^n)."""
    ranks = {n: sum(rank(d.mats[v]) for v in x.algebra.vertices) for n, d in x.diffs.items()}
    return {n: t.total_dim - ranks.get(n, 0) - ranks.get(n - 1, 0)
            for n, t in x.terms.items()}


def is_exceptional(x: PerfectComplex) -> bool:
    """No self-maps in nonzero degrees, over the full finite window."""
    return not any(derived_hom(x, x, n).dim for n in hom_window(x, x) if n)


def stack_to_common_target(maps) -> ChainMap:
    """Maps g_k: x_k -> y with one common target: the map ⊕x_k -> y whose
    components are the vertical stacks of the g_k components."""
    if not maps:
        raise InputError("nothing to stack")
    y = maps[0].target
    parts = [g.source for g in maps]
    src = direct_sum_complexes(parts, parts[0].algebra)
    comps = {}
    for n in src.terms:
        if n in y.terms:
            comp = _assemble_block_map(src.term_rep(n), y.term_rep(n),
                                       [[g.comps.get(n)] for g in maps],
                                       [p.term_rep(n) for p in parts], [y.term_rep(n)])
            if not comp.is_zero():
                comps[n] = comp
    return ChainMap(src, y, comps)


def stack_to_common_source(maps) -> ChainMap:
    """Maps g_k: x -> y_k with one common source: the map x -> ⊕y_k whose
    components are the horizontal stacks of the g_k components."""
    if not maps:
        raise InputError("nothing to stack")
    x = maps[0].source
    parts = [g.target for g in maps]
    tgt = direct_sum_complexes(parts, parts[0].algebra)
    comps = {}
    for n in x.terms:
        if n in tgt.terms:
            comp = _assemble_block_map(x.term_rep(n), tgt.term_rep(n),
                                       [[g.comps.get(n) for g in maps]],
                                       [x.term_rep(n)], [p.term_rep(n) for p in parts])
            if not comp.is_zero():
                comps[n] = comp
    return ChainMap(x, tgt, comps)


# -- universal triangles ----------------------------------------------------------


def universal_triangle(spaces, side: str):
    """The universal triangle over the basis of each Hom_D(x, y[n]) in
    ``spaces`` (one x, one y), stacked space by space in the given order.
    "left", x exceptional: (L, incl: y -> L), L = cone(⊕_n x[-n]^{dim_n} -> y).
    "right", y exceptional: R = cone(x -> ⊕_n y[n]^{dim_n})[-1], no map.
    Anything else raises InputError; an empty stack gives y (with id), resp. x.

    Checked (ConsistencyError): Hom_D(x, L[n]) = 0, resp. Hom_D(R, y[n]) = 0,
    at each space's degree n.  By the triangle's long exact sequence, as
    Hom_D(x, x[k]) = 0 for k != 0, Hom_D(x, L[n]) is the cokernel of
    End_D(x)^{dim_n} -> Hom_D(x, y[n]) beside the kernel of
    End_D(x)^{dim_{n+1}} -> Hom_D(x, y[n+1]) (on the right dually, with
    End_D(y)): for one degree universality, the End-span; for several also
    End-independence, which a basis has over a brick."""
    if side not in ("left", "right"):
        raise InputError(f"universal triangle side {side!r} is neither 'left' nor 'right'")
    if not spaces:
        raise InputError("universal triangle of no spaces")
    x, y = spaces[0].x, spaces[0].y
    if any(s.x is not x or s.y is not y for s in spaces):
        raise InputError("universal triangle of spaces between different complexes")
    if x.algebra is not y.algebra:
        raise InputError("universal triangle between complexes over different algebras")
    if not is_exceptional(x if side == "left" else y):
        raise InputError(f"{side} universal triangle needs an exceptional "
                         f"{'source' if side == 'left' else 'target'}")
    stacked = [(s.n, f) for s in spaces for f in s.reps]
    if side == "right":
        out = shift(_cone(stack_to_common_source([f for _, f in stacked])), -1) if stacked else x
        left_over = [(s.n, derived_hom(out, y, s.n).dim) for s in spaces]
    else:
        if stacked:
            alpha = stack_to_common_target([shift_chain_map(f, -n) for n, f in stacked])
            cone = _cone(alpha)
            out = (cone, _cone_inclusion(alpha, cone))
        else:
            out = (y, identity_chain_map(y))
        left_over = [(s.n, derived_hom(x, out[0], s.n).dim) for s in spaces]
    for n, d in left_over:
        if d:
            raise ConsistencyError(f"{side} universal triangle leaves Hom in degree {n} "
                                   f"of dim {d}")
    return out
