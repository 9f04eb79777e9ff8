"""Tilting constructions from exceptional pairs, and tilting-module
certification.

The two-object input is a pair (T1, T2) of exceptional perfect complexes
with Hom(T1, T2[k]) = 0 for all k and Hom(T2, T1[k]) = 0 outside {0, 1}.
The tilting construction's two triangles, T1 -> C1 -> T2^m -> T1[1] and
T1^m -> C2 -> T2 -> T1[1]^m, are the left and right
``complexes.universal_triangle`` over the one space Hom(T2, T1[1]) that
``check_A1_A2`` solved.

A tilting-module verdict is a function of the module's recorded
``direct_sum`` parts, in order, and the resolution bound, so
``tilting_module_check`` memoizes it under ("tilting", part ids, bound) in
the first part's cache (``algebra._memo``); a module with no recorded parts
is its own single part.  No global table is kept: an entry lives exactly
as long as the first part, and the ids in its key stay valid because the
stored verdict's module holds the parts.  ``bongartz_complement(M)`` and a later
``recollement_report(direct_sum([N, M]))`` thus share one certificate.
A certificate's T1 is the source of the minimal right
add(T)-approximation of the cokernel, a recorded direct sum of factors of
T, so its summands are never searched for.  Within one certification the
table of Hom(T_i, T_j) between the factors of T is solved once, for the
left approximation of R, and read again by the right approximation of
the cokernel.
"""

from dataclasses import dataclass, replace

from .algebra import _memo, regular_module, simple
from .complexes import (DerivedHomSpace, PerfectComplex, derived_hom,
                        direct_sum_complexes, hom_window, is_exceptional,
                        resolve_to_complex, universal_triangle)
from .errors import ConsistencyError, InputError
from .homology import (DEFAULT_RESOLUTION_BOUND, ShortExact, _left_approximation, ext_dim,
                       proj_dim, universal_extension)
from .modules import (Representation, _inverse_map, _right_approximation, cokernel,
                      decompose, direct_sum, hom_space)


@dataclass(frozen=True)
class PairViolation:
    condition: str  # "exceptional-t1", "exceptional-t2", "A1", "A2"
    degree: int
    dim: int


@dataclass(frozen=True)
class ExceptionalPair:
    t1: PerfectComplex
    t2: PerfectComplex
    ext_space: DerivedHomSpace  # Hom(t2, t1[1])

    @property
    def ext_dim(self) -> int:
        return self.ext_space.dim


@dataclass(frozen=True)
class PairReport:
    ok: bool
    pair: ExceptionalPair | None
    violations: tuple


def check_A1_A2(t1: PerfectComplex, t2: PerfectComplex) -> PairReport:
    """Exhaustive check of exceptionality of both objects, of
    Hom(t1, t2[k]) = 0 for all k, and of Hom(t2, t1[k]) = 0 for k outside
    {0, 1}, over the finite support windows."""
    violations = []
    for name, t in (("exceptional-t1", t1), ("exceptional-t2", t2)):
        for k in hom_window(t, t):
            if k == 0:
                continue
            d = derived_hom(t, t, k).dim
            if d:
                violations.append(PairViolation(name, k, d))
    for k in hom_window(t1, t2):
        d = derived_hom(t1, t2, k).dim
        if d:
            violations.append(PairViolation("A1", k, d))
    for k in hom_window(t2, t1):
        if k in (0, 1):
            continue
        d = derived_hom(t2, t1, k).dim
        if d:
            violations.append(PairViolation("A2", k, d))
    if violations:
        return PairReport(False, None, tuple(violations))
    return PairReport(True, ExceptionalPair(t1, t2, derived_hom(t2, t1, 1)), ())


@dataclass(frozen=True)
class ConstructedTilting:
    """Output of the two-triangle tilting construction.

    first = C1 ⊕ T2 from the left universal triangle
    T1 -> C1 -> T2^{⊕m} -> T1[1]; second = T1 ⊕ C2 from the right universal
    triangle T1^{⊕m} -> C2 -> T2 -> T1[1]^{⊕m}.
    """

    pair: ExceptionalPair
    multiplicity: int
    first: PerfectComplex
    second: PerfectComplex
    first_exceptional: bool
    second_exceptional: bool
    generation_evidence: dict  # output name -> {vertex: (degree, dim)}


def construct_tilting(pair: ExceptionalPair) -> ConstructedTilting:
    """Both tilting objects of the finite-dimensional construction, with
    exceptionality certificates and the structural generation evidence (a
    nonzero derived Hom into every simple).  C1 and C2 are the left and
    right universal triangles over the pair's Hom(T2, T1[1]); for m = 0
    both outputs are the one complex T1 ⊕ T2."""
    t1, t2 = pair.t1, pair.t2
    alg = t1.algebra
    m = pair.ext_dim
    c1, _ = universal_triangle([pair.ext_space], "left")
    first = direct_sum_complexes([c1, t2], alg)
    second = first if m == 0 else direct_sum_complexes(
        [t1, universal_triangle([pair.ext_space], "right")], alg)
    first_ok = is_exceptional(first)
    second_ok = is_exceptional(second)
    evidence = {}
    # each simple is built and resolved once, for both outputs
    simples = {v: resolve_to_complex(simple(alg, v)) for v in alg.vertices}
    for name, out in (("first", first), ("second", second)):
        ev = {}
        for v, sv in simples.items():
            hit = None
            for n in hom_window(out, sv):
                d = derived_hom(out, sv, n).dim
                if d:
                    hit = (n, d)
                    break
            if hit is None:
                raise ConsistencyError(
                    f"constructed object misses the simple at vertex {v}: not a generator")
            ev[v] = hit
        evidence[name] = ev
    return ConstructedTilting(pair, m, first, second, first_ok, second_ok, evidence)


# -- tilting modules -----------------------------------------------------------


@dataclass(frozen=True)
class TiltingCertificate:
    module: Representation
    pd: int
    ext1_dim: int
    sequence: ShortExact          # 0 -> R -> T0 -> T1 -> 0, T1 a direct_sum of factors
    t0_tags: tuple                # indices into factors for T0's summands
    factors: tuple                # indecomposable factors of the module
    coker_ext_dim: int            # Ext^1(T, T1) (generation sanity)


@dataclass(frozen=True)
class TiltingFailure:
    module: Representation
    reasons: tuple  # of (code, detail)


def tilting_module_check(t: Representation, bound: int = DEFAULT_RESOLUTION_BOUND):
    """Certify the three classical tilting conditions for a module of
    projective dimension at most one.

    The coproduct-indexed self-orthogonality reduces to Ext^1(T, T) = 0
    because T is finitely generated over a finite-dimensional algebra, so
    Ext^1(T, -) commutes with direct sums.  The third condition is built
    constructively from the minimal left add(T)-approximation of the
    regular module and verified: injective with cokernel in add(T).  The
    cokernel is in add(T) exactly when its minimal right
    add(T)-approximation g is an isomorphism, and then T1 is g's source,
    the direct_sum of factors of decompose(T) that g records, with the
    sequence's projection followed by g⁻¹: T1 arrives split, and no
    summand of it is searched for.  For T1 = 0 the sequence ends at the
    zero cokernel.

    The verdict is memoized in the first part's cache under ("tilting",
    ids of t's recorded ``direct_sum`` parts in order, bound), with t its
    own single part when it has no recorded parts.  An equal sum of the
    same parts gets the stored verdict with ``module`` set to itself.  The
    entry lives as long as the first part, and its verdict's module holds
    every part, so no id in its key is reused while it lives.
    """
    parts = t._parts or (t,)
    verdict = _memo(parts[0], ("tilting", tuple(map(id, parts)), bound),
                    lambda: _certify(t, bound))
    return verdict if verdict.module is t else replace(verdict, module=t)


def _certify(t: Representation, bound: int):
    alg = t.algebra
    reasons = []
    pd = proj_dim(t, bound)
    if pd is None or pd > 1:
        reasons.append(("pd", f"projective dimension {pd} (needs <= 1)"))
    e1 = ext_dim(1, t, t, bound)
    if e1:
        reasons.append(("ext", f"dim Ext^1(T, T) = {e1}"))
    if reasons:
        return TiltingFailure(t, tuple(reasons))
    r = regular_module(alg)
    factors = [fac for fac, _ in decompose(t)]
    # Hom(T_i, T_j) between the factors, solved once for both approximations
    between = [[hom_space(a, b) for b in factors] for a in factors]
    f, tags = _left_approximation(r, factors, between)
    if not f.is_injective():
        return TiltingFailure(t, (("approx", "left add(T)-approximation of the regular "
                                             "module is not injective (T does not generate)"),))
    coker, cproj = cokernel(f)
    g = _right_approximation(coker, factors, lambda j, i: between[j][i])
    if g is not None and g.is_isomorphism():
        coker, cproj = g.source, cproj.compose(_inverse_map(g))
    elif coker.total_dim:
        return TiltingFailure(t, (("coker", "cokernel of the approximation is not in add(T)"),))
    seq = ShortExact(r, f.target, coker, f, cproj)
    coker_ext = ext_dim(1, t, coker, bound)
    if coker_ext:
        raise ConsistencyError("Ext^1(T, coker) nonzero for a certified tilting module")
    return TiltingCertificate(t, pd, e1, seq, tags, tuple(factors), coker_ext)


def bongartz_complement(m: Representation, bound: int = DEFAULT_RESOLUTION_BOUND):
    """Complement N from the universal extension 0 -> R -> N -> M^k -> 0,
    with certification that N ⊕ M is a tilting module.

    Preconditions pd(M) <= 1 and Ext^1(M, M) = 0 are checked and reported.
    """
    pd = proj_dim(m, bound)
    if pd is None or pd > 1:
        raise InputError(f"Bongartz complement needs pd <= 1, got {pd}")
    e1 = ext_dim(1, m, m, bound)
    if e1:
        raise InputError(f"Bongartz complement needs Ext^1(M, M) = 0, got dim {e1}")
    r = regular_module(m.algebra)
    n_mod, ses = universal_extension(m, r, bound)
    cert = tilting_module_check(direct_sum([n_mod, m]), bound)
    if isinstance(cert, TiltingFailure):
        raise ConsistencyError(f"N ⊕ M failed tilting certification: {cert.reasons}")
    return n_mod, ses, cert
