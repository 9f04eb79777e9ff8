"""Perpendicular categories, reflections, universal localization with ring
structure, homological-epimorphism and stratifying-ideal checks, and the
recollement report assembled from a tilting module.

The ring of a universal localization is S = End(R_U), used through
lambda: R -> S as End(R_U) coordinates on the algebra basis, checked
through the reflection property of eta: R -> R_U.  lambda's linear system
is set up in the generator coordinates of R = ⊕_v e_vA: by Yoneda,
Hom(e_vA, X) = X_v, so a map out of R is fixed by its rows at the
generators e_v, and two maps out of R that agree there are equal.  The
system has Σ_v dim (R_U)_v columns, and its solution and its checks are
those of the whole maps.  S itself is certified a matrix ring M_n(K)
over the base field by a split pair R_U ≅ X^n for a brick X, read off the
minimal right add(X)-approximation X^n -> R_U; no matrix unit, no
structure-constant table and no Krull-Schmidt split pair is formed.

The reflection of a complex M at an exceptional object T1 is computed two
ways: a one-shot cone construction when End(T1) is one-dimensional (the
brick fast path), and an iterative degree-descending construction that
stops when every Hom(T1, M_n[i]) vanishes — a finite stabilization standing
in for the homotopy colimit.  Failure to stabilize within the step budget
is an explicit error, never a truncated answer.  R is reflected at one
copy of each isomorphism class of T1's summands, so T1 = X^n with X a brick
takes the brick path.  R is read in the layout of ⊕_v P_v
(``modules.proj_sum_layout``).  q(R) is computed once per T1 object and
memoized in its cache (``algebra._memo``), and lambda's linear system once
per eta; the localization and the recollement report share both.  T1 comes
from a tilting certificate as a recorded direct sum of factors of T, so its
isomorphism classes are read off its parts.
R_U is T0 divided by the stacked rows of a Hom(T1, T0_c) basis, one
``row_space`` per vertex and part and no trace submodule.  Both reflection
routes are left ``complexes.universal_triangle``s at T1: the brick route one
over the whole window, each iterative step one at its top degree.
The trace quotient R_U and the reflection mu: R -> q(R) are both
reflections of R into the perpendicular category of T1 (Geigle-Lenzing),
so they are compared by the one chain map psi: q(R) -> R_U with
mu then psi = eta, solved in the generator coordinates of q(R)^0 and
asserted unique modulo coboundaries (``comparison_map``).  q(R) matches
R_U when its cohomology sits in degree 0 and psi^0 maps ker d^0 onto R_U
at every vertex with dim H^0 = dim R_U, read off ranks: no H^0 module is
built and no isomorphism searched for.
The report certifies its module through ``tilting_module_check``, which
returns the stored certificate of an equal sum of the same parts (so after
``bongartz_complement(M)`` the report on ``direct_sum([N, M])`` reuses its
T0 and T1), reads the H^0 match off the localization, and reads the
orthogonality of T1 and q(R) off the sweep the memoized reflection made.
The left module R_U through lambda, for Tor, builds each action matrix
on first read, straight from lambda's coordinates and the End basis.

The stratifying-ideal check reads every number it reports, the corner
multiplication Ae ⊗_{eAe} eA -> AeA included, off one minimal resolution
of A/AeA over A; no corner ring and no opposite algebra is built.
"""

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from .algebra import Algebra, _memo, regular_module
from .complexes import (ChainMap, PerfectComplex, _cohomology_dims, derived_hom, hom_window,
                        identity_chain_map, is_exceptional, resolve_to_complex,
                        shift_chain_map, universal_triangle)
from .errors import BoundExceeded, ConsistencyError, InputError
from .homology import (DEFAULT_RESOLUTION_BOUND, LeftModule, ShortExact, _gen_rows,
                       _hom_differential, _precompose_matrix, _same_gen_rows,
                       _split_gen_vector, ext_dim, min_resolution, proj_dim,
                       tor_dims_range)
from .linalg import (Matrix, quotient_basis, rank, row_space, row_times,
                     solve_linear_system, solve_right_kernel)
from .modules import (ModuleMap, Representation, _assemble_block_map, _block_maps,
                      _inverse_map, _quotient_by_rows, _same_module, _trace_rows, cokernel,
                      decompose, direct_sum, gen_offsets, hom_from_gens, hom_space, identity_map,
                      match_decomposition, proj_sum, proj_sum_layout, right_add_approximation,
                      top)


# -- perpendicular categories -----------------------------------------------------


@dataclass(frozen=True)
class PerpWitness:
    index: int      # which member of the test family failed
    kind: str       # "hom" or "ext1"
    dim: int


def perp_membership(us, x: Representation, bound: int = DEFAULT_RESOLUTION_BOUND):
    """Is x in the right perpendicular category of the given modules
    (Hom(U, x) = Ext^1(U, x) = 0 for every U)?  Returns (bool, witness).

    Every U must have projective dimension at most one."""
    us = list(us)
    for k, u in enumerate(us):
        pd = proj_dim(u, bound)
        if pd is None or pd > 1:
            raise InputError(f"perpendicular test member {k} has pd {pd} (needs <= 1)")
    for k, u in enumerate(us):
        d = hom_space(u, x).dim
        if d:
            return False, PerpWitness(k, "hom", d)
        d = ext_dim(1, u, x, bound)
        if d:
            return False, PerpWitness(k, "ext1", d)
    return True, None


# -- reflections -------------------------------------------------------------------


def reflection_brick(t1: PerfectComplex, m: PerfectComplex):
    """Y-reflection of m at a brick t1: the left universal triangle over a
    basis of every Hom(t1, m[i]) of the window, i.e. the cone over the
    canonical map ⊕_i t1[-i]^{n_i} -> m.

    Requires End_D(t1) one-dimensional and t1 exceptional; post-verified:
    Hom(t1, q(m)[i]) = 0 for all i, the window's degrees by the triangle's
    own check and the rest of the cone's window here.  Returns (q(m),
    m -> q(m))."""
    if t1.is_zero_complex():
        return m, identity_chain_map(m)
    if derived_hom(t1, t1, 0).dim != 1:
        raise InputError("brick reflection needs a one-dimensional endomorphism ring")
    # a zero m has an empty window; its zero degree-0 space still names t1 and m
    window = hom_window(t1, m) or range(1)
    cone, incl = universal_triangle([derived_hom(t1, m, i) for i in window], "left")
    for i in hom_window(t1, cone):
        d = 0 if i in window else derived_hom(t1, cone, i).dim
        if d:
            raise ConsistencyError(f"reflection failed: Hom(T1, q(M)[{i}]) has dim {d}")
    return cone, incl


@dataclass(frozen=True)
class ReflectionStep:
    degree: int
    multiplicity: int


def reflection_iterative(t1: PerfectComplex, m: PerfectComplex, max_steps: int = 16):
    """Y-reflection by repeatedly killing the top nonvanishing degree of
    Hom(t1, M_n[·]) with a universal triangle, per the degree-descending
    construction; stops when every degree vanishes.

    Each step is the left universal triangle at the top degree, which
    checks that degree is gone; ``_verify_step`` checks the rest of the
    step's contract.  Raises BoundExceeded when the process does not
    stabilize within max_steps, and InputError when max_steps is negative."""
    if max_steps < 0:
        raise InputError(f"step budget must be >= 0, got {max_steps}")
    if not is_exceptional(t1):
        raise InputError("iterative reflection needs an exceptional object")
    current = m
    total_map = identity_chain_map(m)
    steps = []
    for step in range(max_steps + 1):
        live = [s for s in (derived_hom(t1, current, i) for i in hom_window(t1, current))
                if s.dim]
        if not live:
            return current, total_map, tuple(steps)
        if step == max_steps:
            break
        space = live[-1]  # the window ascends: the top degree
        top = space.n
        nxt, sigma = universal_triangle([space], "left")
        _verify_step(t1, current, nxt, sigma, top)
        steps.append(ReflectionStep(top, space.dim))
        total_map = total_map.compose(sigma)
        current = nxt
    raise BoundExceeded(f"reflection did not stabilize within {max_steps} steps")


def _verify_step(t1, before, after, sigma: ChainMap, top: int):
    """Degree-descending step contract: no degree above `top` appears (the
    step's universal triangle checked `top` itself is killed), degrees
    below top-1 are untouched, degree top-1 embeds."""
    for i in hom_window(t1, after):
        if i > top:
            if derived_hom(t1, after, i).dim:
                raise ConsistencyError(f"degree {i} survived the reflection step at {top}")
    window = set(hom_window(t1, before)) | set(hom_window(t1, after))
    for i in sorted(window):
        if i > top - 1:
            continue
        src = derived_hom(t1, before, i)
        tgt = derived_hom(t1, after, i)
        if src.dim == 0 and tgt.dim == 0:
            continue
        rows = []
        for f in src.reps:
            moved = f.compose(shift_chain_map(sigma, i))
            rows.append(tgt.class_coords(moved) if tgt.dim else ())
        fld = t1.algebra.field
        mat = Matrix(fld, len(rows), tgt.dim, tuple(rows))
        rk = row_space(mat).rows
        if i <= top - 2:
            if not (rk == src.dim == tgt.dim):
                raise ConsistencyError(
                    f"reflection step not an isomorphism on Hom(t1, -[{i}])")
        elif i == top - 1:
            if rk != src.dim:
                raise ConsistencyError(
                    f"reflection step not injective on Hom(t1, -[{top - 1}])")


def reflect(t1: PerfectComplex, m: PerfectComplex, max_steps: int = 16):
    """Reflection of m at t1, taking the brick fast path when t1 is zero or
    End_D(t1) is one-dimensional and the iterative construction otherwise.
    Returns (q(m), map, method) with method "brick" or "iterative".  A
    negative max_steps raises InputError on either path."""
    if max_steps < 0:
        raise InputError(f"step budget must be >= 0, got {max_steps}")
    if t1.is_zero_complex() or derived_hom(t1, t1, 0).dim == 1:
        q, mp = reflection_brick(t1, m)
        return q, mp, "brick"
    q, mp, _ = reflection_iterative(t1, m, max_steps)
    return q, mp, "iterative"


def reflect_regular(t1_module: Representation, max_steps: int = 16,
                    bound: int = DEFAULT_RESOLUTION_BOUND):
    """Reflection of the regular module of t1_module's algebra at
    resolve(t1_module), routed as in reflect.  Returns (q(R), map, method).
    The reflection depends only on add T1, so when an isomorphism class
    repeats in decompose(T1), R is reflected at one copy of each class;
    otherwise, or when decompose raises InputError (small primes), at T1
    itself.  The result is memoized in t1_module's cache per
    (max_steps, bound), so q(R) is computed once per T1 object and every
    caller shares the same complex."""
    def compute():
        try:
            classes = decompose(t1_module)
        except InputError:
            classes = ()
        t1 = direct_sum([fac for fac, _ in classes]) if any(
            mult > 1 for _, mult in classes) else t1_module
        rc = resolve_to_complex(regular_module(t1_module.algebra), bound)
        return reflect(resolve_to_complex(t1, bound), rc, max_steps)
    return _memo(t1_module, ("reflect_regular", max_steps, bound), compute)


# -- universal localization --------------------------------------------------------


def _rows_by_basis(f: ModuleMap) -> dict:
    """For f: R -> X on the regular module, its row at each algebra basis
    element b_k, read off the layout of ⊕_v P_v."""
    layout = proj_sum_layout(f.source.algebra, f.source.algebra.vertices)
    return {k: f.mats[w].entries[pos] for w, lay in layout.items()
            for pos, (_, k) in enumerate(lay)}


def left_multiples(f: ModuleMap) -> list:
    """For f: R -> X on the regular module, the maps (left multiplication
    by b_i) then f, one for each basis element b_i, as their rows at the
    generators e_v of R, concatenated in vertex order.  The row at e_v is
    f(b_i e_v), a combination of f's rows; no map is built."""
    alg = f.source.algebra
    fld = alg.field
    row_of = _rows_by_basis(f)
    gens = [(alg.vertex_idempotent(v), (fld.zero(),) * f.target.dims[v]) for v in alg.vertices]
    return [tuple(itertools.chain.from_iterable(
                _combination(fld, alg.mult[(i, e)], row_of, zero) for e, zero in gens))
            for i in range(alg.dim)]


def _combination(fld, row, vectors, zero: tuple) -> tuple:
    """Σ c · vectors[k] over a sparse row ((k, c), ...) of algebra
    coordinates; ``zero`` is the zero vector."""
    if not row:
        return zero
    if len(row) == 1 and row[0][1] == fld.one():
        return vectors[row[0][0]]
    out = zero
    for k, c in row:
        out = tuple(fld.add(a, fld.mul(c, b)) for a, b in zip(out, vectors[k]))
    return out


def _lambda_system(eta: ModuleMap) -> tuple:
    """(rows, targets) of lambda's linear system for eta: R -> m, in the
    generator coordinates of R = ⊕_v e_vA: the rows of eta then b at the
    generators e_v, row_times(eta(e_v), b_v), over the basis b of End(m),
    checked independent (f -> eta then f is injective, part of the
    reflection property; one elimination), and the generator rows of the
    left multiples of eta.  The system has Σ_v dim m_v columns.  By
    Yoneda, Hom(R, m) = ⊕_v m_v: a map out of R is fixed by the images of
    the e_v, so two maps out of R that agree on the generators are equal,
    and the injectivity and every equation hold in these coordinates
    exactly when they hold for the whole maps.  Memoized in m's cache for
    this very eta object."""
    def compute():
        m, alg = eta.target, eta.source.algebra
        row_of = _rows_by_basis(eta)
        at_gens = [(row_of[alg.vertex_idempotent(v)], v) for v in alg.vertices]
        rows = [tuple(itertools.chain.from_iterable(row_times(r, b.mats[v]) for r, v in at_gens))
                for b in hom_space(m, m).basis]
        rows_m = Matrix(alg.field, len(rows), m.total_dim, tuple(rows))
        if solve_right_kernel(rows_m).rows != 0:
            raise ConsistencyError("reflection property violated: Hom(eta, m) has a kernel")
        return eta, rows_m, tuple(left_multiples(eta))
    hit = _memo(eta.target, "lambda_system", compute, keep=lambda hit: hit[0] is eta)
    return hit[1], hit[2]


def end_ring_presentation(m: Representation, eta: ModuleMap) -> tuple:
    """The algebra homomorphism lambda: A -> End(m), solved from the
    reflection property of eta: R -> m, on the algebra basis.

    Returns one coordinate vector per algebra basis element, in the basis
    of hom_space(m, m).  lambda(a) is the unique endomorphism f with
    (left multiplication by a) then eta = eta then f; uniqueness is the
    injectivity of f -> eta then f, part of the reflection property and
    asserted.  Endomorphisms compose as functions (apply the right factor
    first), so lambda(ab) = lambda(a) lambda(b); ``lambda_left_module``
    checks it."""
    alg = m.algebra
    if m.total_dim and hom_space(m, m).dim == 0:
        raise ConsistencyError("endomorphism ring of a nonzero module is zero")
    rows_m, targets = _lambda_system(eta)
    # one elimination of rows_m for every basis element; the solution is
    # unique, as rows_m has no kernel
    x, _ = solve_linear_system(rows_m, Matrix(alg.field, alg.dim, rows_m.cols, targets))
    if x is None:
        raise ConsistencyError(
            "reflection property violated: left multiplication does not factor")
    return x.entries


def lambda_left_module(eta: ModuleMap, lam) -> LeftModule:
    """m = eta.target as a left module over the algebra through lambda,
    given on the algebra basis in the coordinates of hom_space(m, m), as
    ``end_ring_presentation`` solves it from eta: R -> m.

    Checked: f -> eta then f is injective on End(m), and
    (left multiplication by b) then eta = eta then lambda(b) for every
    basis element b, both on the system of _lambda_system, which
    ``end_ring_presentation`` built for the same eta.  The system reads
    both sides at the generators e_v of R only, which is exact: two maps
    out of the free module R that agree on its generators are equal.
    That makes lambda
    a unital ring homomorphism.  Write L_a for left multiplication by a
    and compose as functions; then
    eta∘L_ab = eta∘L_a∘L_b = lambda(a)∘eta∘L_b = lambda(a)lambda(b)∘eta,
    while eta∘L_ab = lambda(ab)∘eta, and eta∘L_1 = eta = lambda(1)∘eta.
    Injectivity gives lambda(ab) = lambda(a)lambda(b) and lambda(1) = id.
    In row convention lambda(u) acts as act[u], built on first read
    (``ActionsOnRead``)."""
    m = eta.target
    alg = m.algebra
    fld = alg.field
    ends = hom_space(m, m)
    if len(lam) != alg.dim or any(len(c) != ends.dim for c in lam):
        raise InputError("lambda must give End(m) coordinates for every algebra basis element")
    rows_m, targets = _lambda_system(eta)
    # eta then lambda(b) is linear in lambda(b): row b of lam * rows_m
    through = Matrix(fld, alg.dim, ends.dim, tuple(map(tuple, lam))).mul(rows_m)
    if through.entries != targets:
        raise ConsistencyError("lambda does not satisfy the reflection property")
    return LeftModule._trusted(alg, m.total_dim, ActionsOnRead(ends, lam))


class ActionsOnRead(Sequence):
    """act[u] = lambda(b_u) as a total matrix, for u = 0 .. len(lam) - 1,
    each built the first time it is read and kept in ``built``: Tor reads
    only the idempotents and the paths in its resolution's differentials."""

    def __init__(self, ends, lam):
        self._ends, self._lam, self.built = ends, lam, {}

    def __len__(self):
        return len(self._lam)

    def __getitem__(self, u):
        if u not in self.built:
            self.built[u] = self._total(self._lam[u])
        return self.built[u]

    def _total(self, coeffs) -> Matrix:
        """Σ_k coeffs[k] · basis[k] written straight into the block-diagonal
        total matrix, vertex blocks at m's offsets; no map is built."""
        m = self._ends.source
        fld = m.algebra.field
        add, mul = fld.add, fld.mul
        off, n = m.offsets(), m.total_dim
        out = [[fld.zero()] * n for _ in range(n)]
        for c, b in zip(coeffs, self._ends.basis):
            if not c:
                continue
            for v, mat in b.mats.items():
                o = off[v]
                for orow, brow in zip(out[o:o + mat.rows], mat.entries):
                    for j, x in enumerate(brow, o):
                        if x:
                            orow[j] = add(orow[j], mul(c, x))
        return Matrix(fld, n, n, tuple(map(tuple, out)))


@dataclass(frozen=True)
class HomEpiReport:
    ext_dims: tuple      # dim Ext^i(S, S) for i = 1..max_degree
    tor_dims: tuple      # dim Tor_i(S, S) for i = 1..max_degree
    is_homological_epi: bool


def homological_epi_check(eta: ModuleMap, lam, max_degree: int = 6,
                          bound: int = DEFAULT_RESOLUTION_BOUND) -> HomEpiReport:
    """Primary test Ext^i_R(S, S) = 0 for i >= 1, with S the target of
    eta: R -> S; secondary test Tor^R_i(S, S) = 0 with the left structure
    through lambda (End(S) coordinates on the algebra basis, as
    ``end_ring_presentation`` returns them).  Both are reported for
    1 <= i <= max_degree; the verdict follows the Ext side and reads every
    degree up to pd S, which the complete minimal resolution of S gives,
    also past max_degree."""
    ru = eta.target
    res = min_resolution(ru, bound)
    ext_all = tuple(ext_dim(i, ru, ru, bound, resolution=res)
                    for i in range(1, max(max_degree, res.length) + 1))
    left = lambda_left_module(eta, lam)
    tor_all = tor_dims_range(ru, left, max_degree, bound, resolution=res)
    tor_dims = tor_all[1:]
    return HomEpiReport(ext_all[:max_degree], tor_dims, not any(ext_all))


@dataclass(frozen=True)
class RingEvidence:
    """End(R_U) as a matrix ring M_n(K), or why it is not certified one.

    to_x[i]: R_U -> X and from_x[i]: X -> R_U split R_U as X^n for a brick
    X (``check_split_pair``), read off the right add(X)-approximation
    g: X^n -> R_U as g⁻¹ then proj_i and incl_i then g; the matrix unit
    e_ij is to_x[i] then from_x[j] in diagrammatic order (``a.compose(b)``,
    a first)."""
    dim: int             # dim End(R_U)
    to_x: tuple          # n maps R_U -> X; () when reason is set
    from_x: tuple        # n maps X -> R_U; () when reason is set
    reason: str | None   # why no pair: several isomorphism classes, or dim End X > 1


@dataclass(frozen=True)
class LocalizationReport:
    sequence: ShortExact
    ru_module: Representation
    ru_decomposition: tuple      # (factor, multiplicity)
    lam: tuple                   # lambda: A -> End(R_U), End(R_U) coordinates per basis element
    eta: ModuleMap               # R -> R_U, the reflection of R
    reflection_method: str
    comparison: ModuleMap        # psi^0: q(R)^0 -> R_U, mu then psi = eta (comparison_map)
    reflection_matches: bool     # q(R) concentrated in degree 0, psi^0 inducing H^0 ≅ R_U
    hom_epi: HomEpiReport
    evidence: RingEvidence


def universal_localization(seq: ShortExact, max_steps: int = 16,
                           bound: int = DEFAULT_RESOLUTION_BOUND) -> LocalizationReport:
    """Localization data from a (T3)-style sequence 0 -> R -> T0 -> T1 -> 0.

    R_U = T0 / trace of T1 in T0 (``_trace_quotient``), cross-checked against
    the reflection mu: R -> q(R) of R at T1 by the comparison map
    psi: q(R) -> R_U with mu then psi = eta (``comparison_map``), which the
    report carries as the witness.  When q(R) has cohomology in degree zero
    only, psi must induce H^0(q(R)) ≅ R_U (``_h0_matches``); a mismatch
    aborts loudly.  No H^0 module is built and no isomorphism is searched
    for.  The ring is S = End(R_U):
    lambda: R -> S is solved from the reflection property of eta: R -> R_U
    (``end_ring_presentation``) and checked against eta when R_U is
    made a left module for the Tor side of the homological-epimorphism test
    (``lambda_left_module``), and S is certified a matrix ring over the
    base field by a split pair R_U ≅ X^n, or given a reason why not
    (``ring_evidence``).  No structure constants of S are formed."""
    alg = seq.left.algebra
    r = regular_module(alg)
    if seq.left.dims != r.dims:
        raise InputError("sequence must start at the regular module")
    t0, t1 = seq.mid, seq.right
    ru, proj = _trace_quotient(t1, t0)
    eta = seq.incl.compose(proj)
    # reflection cross-check
    q, mu, method = reflect_regular(t1, max_steps, bound)
    psi = comparison_map(q, mu, eta)
    matches = _h0_matches(q, psi)
    lam = end_ring_presentation(ru, eta)
    dec = decompose(ru)
    evidence = ring_evidence(ru)
    epi = homological_epi_check(eta, lam, bound=bound)
    return LocalizationReport(seq, ru, tuple(dec), lam, eta, method, psi, matches,
                              epi, evidence)


def comparison_map(q: PerfectComplex, mu: ChainMap, eta: ModuleMap) -> ModuleMap:
    """psi^0: q^0 -> m, m = eta.target, the degree-0 part of the chain map
    psi: q -> m (m in degree 0) with mu then psi = eta, for the reflection
    mu: R -> q of the regular module R (``reflect_regular``) and eta a map
    out of R.

    When m lies in the perpendicular category of the object q(R) was
    reflected at, mu and eta are both reflections of R into it
    (Geigle-Lenzing), so psi exists and is unique up to homotopy.  A chain
    map q -> m is a psi^0 with d^{-1} then psi^0 = 0, the cocycle condition
    δ⁰ of the Hom complex of q and m (``_hom_differential``), and
    mu then psi = eta reads mu^0 then psi^0 = (cover of R) then eta
    (``_precompose_matrix``).  Both are one ``solve_linear_system`` in the
    generator coordinates of q^0.  Asserted, as the reflection property:
    a solution exists, and its kernel has rank δ⁻¹, so psi^0 is unique
    modulo coboundaries.  The solution is checked (``check_comparison``)."""
    alg = q.algebra
    fld = alg.field
    m = eta.target
    p0 = mu.source.terms[0]
    q0 = q.terms[0] if 0 in q.terms else proj_sum(alg, ())
    _, delta = _hom_differential(q.terms, q.diffs, {0: m}, {}, 0)
    mu0 = mu.comps.get(0)
    over_r = (_precompose_matrix(mu0, p0, q0, m) if mu0 is not None
              else Matrix.zeros(fld, gen_offsets(q0, m)[-1], gen_offsets(p0, m)[-1]))
    target = (fld.zero(),) * delta.cols + sum(_gen_rows(p0, _cover_of_r(alg), eta), ())
    x, kernel = solve_linear_system(delta.hstack(over_r), Matrix(fld, 1, len(target), (target,)))
    if x is None:
        raise ConsistencyError("reflection property violated: eta does not factor through q(R)")
    _, prev = _hom_differential(q.terms, q.diffs, {0: m}, {}, -1)
    if kernel.rows != rank(prev):
        raise ConsistencyError("reflection property violated: the comparison map is not unique")
    psi = hom_from_gens(q0, m, _split_gen_vector(q0, m, x.entries[0]))
    check_comparison(q, mu, eta, psi)
    return psi


def _cover_of_r(alg: Algebra) -> ModuleMap:
    """The cover P_0 -> R of the regular module, from its memoized
    resolution: the one q(R) was reflected from."""
    return min_resolution(regular_module(alg), 0).augment


def check_comparison(q: PerfectComplex, mu: ChainMap, eta: ModuleMap, psi: ModuleMap):
    """Raise ConsistencyError unless psi: q^0 -> eta.target is a cocycle,
    d^{-1} then psi = 0, with mu^0 then psi = (cover of R) then eta: the two
    conditions ``comparison_map`` solves, read at the generators of q^{-1}
    and of the cover (``_gen_rows``).  Maps out of projective sums that
    agree on the generators are equal."""
    p0 = mu.source.terms[0]
    if -1 in q.terms and not _same_gen_rows(_gen_rows(q.terms[-1], q.diffs.get(-1), psi), None):
        raise ConsistencyError("the comparison map is not a cocycle")
    if not _same_gen_rows(_gen_rows(p0, mu.comps.get(0), psi),
                          _gen_rows(p0, _cover_of_r(q.algebra), eta)):
        raise ConsistencyError("the comparison map does not carry the reflection to eta")


def _h0_matches(q: PerfectComplex, psi: ModuleMap) -> bool:
    """Whether q has cohomology in degree 0 only; then psi^0 must induce
    an isomorphism H^0(q) -> m = psi.target, and ConsistencyError says it
    does not.

    psi^0 kills im d^{-1}, being a cocycle, so it induces H^0(q) -> m, and
    that map is bijective exactly when dim H^0 = dim m and psi^0 maps
    ker d^0_v onto m_v at every vertex v: onto at each vertex with equal
    totals leaves no vertex with room for a kernel.  dim H^n comes from
    ranks (``_cohomology_dims``); no H^0 module is built."""
    dims = _cohomology_dims(q)
    if any(d for n, d in dims.items() if n != 0):
        return False
    m = psi.target
    d0 = q.diffs.get(0)
    if dims.get(0, 0) != m.total_dim or any(
            rank(psi.mats[v] if d0 is None else solve_right_kernel(d0.mats[v]).mul(psi.mats[v]))
            != m.dims[v] for v in q.algebra.vertices):
        raise ConsistencyError(
            "trace quotient and reflection of R disagree: internal inconsistency")
    return True


def _trace_quotient(t1: Representation, t0: Representation):
    """(T0 / τ(T1, T0), projection), split along T0's recorded parts.

    For T0 = ⊕_c T0_c built by ``direct_sum``, Hom(T1, T0) = ⊕_c Hom(T1, T0_c):
    every f: T1 -> T0 has image inside ⊕_c im(f_c), and each inclusion of an
    f_c into T0 is itself a map from T1, so τ(T1, T0) = ⊕_c τ(T1, T0_c).
    Hence T0/τ = ⊕_c T0_c/τ(T1, T0_c), and the projection is block diagonal.
    Each distinct part object is divided once (``_divide_by_trace``), so
    copies share one quotient object with its cached End and split, and a
    part with τ(T1, T0_c) = 0 is its own quotient, keeping the caches it
    already has.  The quotient is the direct_sum of the nonzero ones, and
    records them as its parts.  A T0 with no recorded parts, or whose parts
    all vanish, is divided as a whole."""
    parts = t0._parts
    divided = {}
    for part in parts:
        if id(part) not in divided:
            divided[id(part)] = _divide_by_trace(t1, part)
    pieces = [divided[id(part)] for part in parts]
    kept = [c for c, (q, _) in enumerate(pieces) if q.total_dim]
    if not kept:
        return _divide_by_trace(t1, t0)
    ru = direct_sum([pieces[c][0] for c in kept])
    blocks = [[pieces[c][1] if c == k else None for k in kept] for c in range(len(parts))]
    return ru, _assemble_block_map(t0, ru, blocks, parts, ru._parts)


def _divide_by_trace(t1: Representation, m: Representation):
    """(m / τ(t1, m), projection): the quotient by the stacked rows of a
    Hom(t1, m) basis (``_trace_rows``), one ``row_space`` per vertex and
    no trace submodule.  With Hom(t1, m) = 0 the trace is 0, and m is its
    own quotient."""
    hs = hom_space(t1, m)
    if not hs.dim:
        return m, identity_map(m)
    q, proj, _ = _quotient_by_rows(m, _trace_rows(hs))
    return q, proj


def ring_evidence(ru: Representation) -> RingEvidence:
    """A split pair R_U ≅ X^n showing End(R_U) ≅ M_n(K), or the reason
    there is none.

    End(R_U) is simple artinian exactly when R_U ≅ X^n for one
    indecomposable X whose End is a division ring, and then
    End(R_U) ≅ M_n(End X): M_n(K) for a brick X.  The pair is read off the
    minimal right add(X)-approximation g: X^n -> R_U
    (``right_add_approximation``), an isomorphism when R_U ∈ add X:
    from_x[i] = incl_i g and to_x[i] = g⁻¹ proj_i, with incl_i and proj_i
    the block maps of X^n, checked by ``check_split_pair``.  Otherwise the
    reason says which condition fails: more than one isomorphism class, or
    dim End X > 1 (End X is larger than K, so End(R_U) is not M_n(K))."""
    ends = hom_space(ru, ru)
    groups = decompose(ru)
    if len(groups) > 1:
        return RingEvidence(ends.dim, (), (), f"{len(groups)} isomorphism classes of summands")
    if not groups:  # R_U = 0 = X^0
        return RingEvidence(ends.dim, (), (), None)
    x = groups[0][0]
    if hom_space(x, x).dim > 1:
        return RingEvidence(ends.dim, (), (), f"dim End X = {hom_space(x, x).dim} > 1")
    g = right_add_approximation(ru, x)
    if g is None or not g.is_isomorphism():
        raise ConsistencyError("the add(X)-approximation of R_U is not an isomorphism")
    inv = _inverse_map(g)
    incls, projs = _block_maps(g.source)
    to_x = [inv.compose(p) for p in projs]
    from_x = [i.compose(g) for i in incls]
    check_split_pair(ru, to_x, from_x)
    return RingEvidence(ends.dim, tuple(to_x), tuple(from_x), None)


def check_split_pair(m: Representation, to_x, from_x):
    """Raise ConsistencyError unless to_x[i]: m -> X and from_x[i]: X -> m,
    n each (else InputError), are natural maps with dim m_v = n · dim X_v
    at every vertex v, Σ_i to_x[i] then from_x[i] = id_m (n products per
    vertex) and dim End(m) = n².  That is enough: the stacked map
    T: m -> X^n then has a right inverse and is square at every vertex, so
    it is an isomorphism and from_x[j] then to_x[k] = δ_jk id_X; and
    End(m) ≅ M_n(End X) of dimension n² forces End X = K."""
    n = len(to_x)
    if len(from_x) != n:
        raise InputError(f"{n} maps to X but {len(from_x)} maps from X")
    x = to_x[0].target if n else m  # with n = 0 the dimension check says m = 0
    for f, src, tgt in [(f, m, x) for f in to_x] + [(g, x, m) for g in from_x]:
        if not (_same_module(f.source, src) and _same_module(f.target, tgt)):
            raise ConsistencyError("split pair maps do not run between m and one X")
        ModuleMap(src, tgt, f.mats)  # naturality, checked again
    fld = m.algebra.field
    for v in m.algebra.vertices:
        if m.dims[v] != n * x.dims[v]:
            raise ConsistencyError(f"dim m_{v} = {m.dims[v]}, not {n} · dim X_{v}")
        total = Matrix.zeros(fld, m.dims[v], m.dims[v])
        for f, g in zip(to_x, from_x):
            total = total.add(f.mats[v].mul(g.mats[v]))
        if total != Matrix.identity(fld, m.dims[v]):
            raise ConsistencyError(f"the split pair does not sum to the identity at {v}")
    if hom_space(m, m).dim != n * n:
        raise ConsistencyError(f"dim End = {hom_space(m, m).dim}, not {n}² for {n} copies of X")


# -- stratifying ideals ------------------------------------------------------------


@dataclass(frozen=True)
class StratifyingReport:
    vertices: tuple
    corner_dim: int              # dim eAe: the basis paths from e to e
    tensor_dim: int              # dim Ae ⊗_{eAe} eA = dim AeA + dim Tor^A_2(A/AeA, A/AeA)
    ideal_dim: int               # dim AeA
    multiplication_bijective: bool  # Tor^A_2(A/AeA, A/AeA) = 0
    quotient_tor_dims: tuple     # dim Tor^A_n(A/AeA, A/AeA) for n = 1..max_degree
    quotient_ext_dims: tuple     # dim Ext^n_A(A/AeA, top A/AeA) for n = 1..max_degree
    resolution_complete: bool    # pd A/AeA <= max_degree + 1: no Tor beyond what the verdict read
    is_stratifying: bool


def stratifying_ideal_check(alg: Algebra, vertices, max_degree: int = 8) -> StratifyingReport:
    """Is the ideal J = AeA generated by the chosen vertex idempotents
    stratifying?

    J is stratifying exactly when the multiplication
    Ae ⊗_{eAe} eA -> J is bijective and A -> B = A/J is a homological
    epimorphism, Tor^A_n(B, B) = 0 for n >= 1 (Cline-Parshall-Scott;
    Geigle-Lenzing).  Both are read off one minimal resolution of B.

    The multiplication check is Tor_2.  Write M = Ae ⊗_{eAe} eA, μ: M -> J
    and K = ker μ.  μ is onto.  Ae is a projective left A-module, so
    J ⊗_A M ≅ M, and under that isomorphism id ⊗ μ: M -> J ⊗_A J is onto
    with kernel the image of J ⊗_A K, which is 0 because e·K = 0 (μ is the
    identity on eM = eA).  Hence K ≅ ker(J ⊗_A J -> J) = Tor^A_1(J, B) ≅
    Tor^A_2(B, B) (Auslander-Platzeck-Todorov): tensor_dim is
    dim J + dim Tor_2, and the multiplication is bijective iff Tor_2 = 0.

    The first n >= 1 with Tor^A_n(B, B) nonzero and the first with
    Ext^n_A(B, top B) nonzero are both the first term of the resolution
    with a summand P_v, v outside e, and are asserted equal.  The
    resolution is built to length max(max_degree, 2) + 1, so that Tor_2 is
    always read.  When it is complete within max_degree + 1, the verdict
    also reads Tor_{max_degree+1} and Ext^{max_degree+1}, and nothing lies
    beyond; the report lists degrees 1..max_degree either way.  When
    nothing nonzero was found and pd B exceeds max_degree + 1, the test is
    inconclusive and raises."""
    vertices = tuple(vertices)
    for v in vertices:
        alg.vertex_index(v)
    vset = set(vertices)
    corner_dim = sum(1 for i in range(alg.dim)
                     if alg.path_source(i) in vset and alg.path_target(i) in vset)
    fld = alg.field
    products = tuple(_vertex_ideal_products(alg, vertices))
    ideal = row_space(Matrix(fld, len(products), alg.dim,
                             tuple(alg.dense_row(row) for _, row in products)))
    b = _quotient_by_vertex_ideal(alg, products)
    section, proj = quotient_basis(ideal, alg.dim)
    # J is a two-sided ideal, so left multiplication L_i descends to A/J as
    # section · L_i · proj.  The section's rows are the unit vectors of the
    # free paths p, so section · L_i is the rows mult[(i, p)] of L_i.
    one = fld.one()
    free = [row.index(one) for row in section.entries]
    zero = (fld.zero(),) * section.rows
    b_left = LeftModule._trusted(alg, section.rows, tuple(
        Matrix(fld, len(free), section.rows,
               tuple(_combination(fld, alg.mult[(i, p)], proj.entries, zero) for p in free))
        for i in range(alg.dim)))
    res = min_resolution(b, max(max_degree, 2) + 1, require_finite=False)
    complete = res.complete and res.length <= max_degree + 1
    # d_{max_degree+2} is known, and zero, only when the resolution is complete
    reach = max_degree + 1 if complete else max_degree
    tor = tor_dims_range(b, b_left, max(reach, 2), resolution=res)[1:]
    tor2, tor = tor[1], tor[:reach]
    bijective = tor2 == 0
    top_b, _ = top(b)
    ext = tuple(ext_dim(n, b, top_b, resolution=res) for n in range(1, reach + 1))
    if _first_nonzero(tor) != _first_nonzero(ext):
        raise ConsistencyError(
            f"Tor^A(B, B) {tor} and Ext_A(B, top B) {ext} start in different degrees")
    tor_ok = not any(tor)
    if bijective and tor_ok and not complete:
        raise BoundExceeded(
            f"pd A/AeA exceeds {max_degree + 1} and Tor^A vanishes up to {max_degree}")
    return StratifyingReport(vertices, corner_dim, ideal.rows + tor2, ideal.rows, bijective,
                             tor[:max_degree], ext[:max_degree], complete,
                             bijective and tor_ok)


def _vertex_ideal_products(alg: Algebra, vertices):
    """(target vertex, sparse row) of every nonzero product b_p * b_q with p
    ending and q starting at a vertex of e.  They span AeA."""
    for v in vertices:
        for p in alg.paths_to(v):
            for q in alg.paths_from(v):
                row = alg.mult[(p, q)]
                if row:
                    yield alg.path_target(q), row


def _quotient_by_vertex_ideal(alg: Algebra, products) -> Representation:
    """A/AeA as a right module: the regular module modulo the span of the
    products that span AeA (``_vertex_ideal_products``), each at the vertex
    where it ends."""
    r = regular_module(alg)
    fld = alg.field
    pos = {w: {i: k for k, (_, i) in enumerate(layout)}
           for w, layout in proj_sum_layout(alg, alg.vertices).items()}
    rows = {w: [] for w in alg.vertices}
    for w, prod in products:
        row = [fld.zero()] * r.dims[w]
        for k, c in prod:
            row[pos[w][k]] = c
        rows[w].append(tuple(row))
    b, _, _ = _quotient_by_rows(
        r, {w: Matrix(fld, len(rows[w]), r.dims[w], tuple(rows[w])) for w in alg.vertices})
    return b


def _first_nonzero(dims):
    return next((n for n, d in enumerate(dims, 1) if d), None)


# -- the recollement report --------------------------------------------------------


@dataclass(frozen=True)
class RecollementReport:
    tilting: object                  # TiltingCertificate
    t1: Representation               # X-side generator (Add T summand)
    t2: PerfectComplex               # Y-side q(R)
    localization: LocalizationReport
    orthogonality_ok: bool           # Hom_D(T1[n], T2) = 0 for all n
    t2_exceptional: bool
    t2_matches_ru: bool | None       # H^0(T2) iso R_U when exceptional
    corollary_zero: bool             # Hom(T1, T0) = 0 pattern
    equivalent_to_ru_tilting: bool | None  # add T = add(R_U ⊕ R_U/R), when corollary_zero


def recollement_report(t: Representation, max_steps: int = 16,
                       bound: int = DEFAULT_RESOLUTION_BOUND) -> RecollementReport:
    """Assemble the recollement witness data of a tilting module of
    projective dimension at most one.  The certificate is the stored one
    of an equal sum of the same parts when there is one; T2 = q(R) is the
    localization's, so its H^0 match with R_U, decided by the comparison
    map, is the localization's.

    The orthogonality Hom_D(T1[n], T2) = Hom_D(T1, T2[-n]) = 0 for all n
    is the sweep the memoized reflection already made over the whole
    window of resolve(T1) and q(R): ``reflect_regular`` returns q(R) only
    after every Hom_D(T1', q(R)[k]) in it vanished (the post-condition of
    ``reflection_brick``, the stopping test of ``reflection_iterative``), with
    add T1' = add T1 and the same projective dimension, so the same window,
    and raises otherwise.  It is not swept again."""
    from .tilting import TiltingFailure, tilting_module_check
    cert = tilting_module_check(t, bound)
    if isinstance(cert, TiltingFailure):
        raise InputError(f"not a tilting module: {cert.reasons}")
    t0, t1 = cert.sequence.mid, cert.sequence.right
    loc = universal_localization(cert.sequence, max_steps, bound)
    q, _, _ = reflect_regular(t1, max_steps, bound)
    ortho = True  # reflect_regular swept it and would have raised
    t2_exc = is_exceptional(q)
    # q is the localization's q(R), whose H^0 it already matched with R_U
    t2_matches = loc.reflection_matches if t2_exc else None
    if t2_exc and not t2_matches:
        raise ConsistencyError("exceptional q(R) does not match R_U")
    cor_zero = hom_space(t1, t0).dim == 0
    equivalent = None
    if cor_zero:
        t_prime = direct_sum([loc.ru_module, cokernel(loc.eta)[0]])
        # add T = add T' exactly when both have the same isomorphism classes of summands
        equivalent = match_decomposition(*([(fac, 1) for fac, _ in decompose(m)]
                                           for m in (t, t_prime)))
    return RecollementReport(cert, t1, q, loc, ortho, t2_exc, t2_matches,
                             cor_zero, equivalent)
