import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import quivertilt
from quivertilt import (GF, QQ, BoundExceeded, ConsistencyError, InputError, Matrix,
                        ModuleMap, Representation, bongartz_complement, injective,
                        modules, projective, regular_module, simple)
from quivertilt.complexes import (_cohomology_dims, cohomology, derived_hom, hom_window,
                                  resolve_to_complex, shift)
from quivertilt.homology import ShortExact, ext, ext_dim, left_add_approximation, proj_dim
from quivertilt.linalg import row_space, solve_linear_system
from quivertilt.modules import (cokernel, direct_sum, identity_map,
                                is_isomorphic, proj_sum_layout, quotient, socle)
from quivertilt.recollement import (_h0_matches, _lambda_system, _quotient_by_vertex_ideal,
                                    _vertex_ideal_products, check_comparison,
                                    check_split_pair, comparison_map,
                                    end_ring_presentation, homological_epi_check,
                                    lambda_left_module, perp_membership, recollement_report, reflect,
                                    reflect_regular, reflection_brick, reflection_iterative,
                                    ring_evidence, stratifying_ideal_check,
                                    universal_localization)
from quivertilt.formats import fixture_algebra
from quivertilt.tilting import TiltingCertificate, tilting_module_check
from conftest import (complex_hom_args, counting, linear_algebra, recording_shifts,
                      resolution_hom_args, shifted_back)
from oracles import (ext_tor_agree, oracle_corner_ideal_dim, oracle_corner_tensor_dim,
                     oracle_corner_tor1_dim, perp_complex_membership,
                     reference_concentrated_h0, reference_corner_tor_dims,
                     reference_h0_match, reference_hom_cohomology_dim,
                     reference_lambda_system, reference_ring_presentation,
                     reference_stratifying_verdict, tor_dim, total_matrix,
                     trace_submodule)


# -- perpendicular categories ---------------------------------------------------


def test_perp_membership_cycle2(cycle2):
    s2 = simple(cycle2, "2")
    ok, _ = perp_membership([s2], injective(cycle2, "1"))
    assert ok
    ok, wit = perp_membership([s2], projective(cycle2, "2"))
    assert not ok and wit.kind == "hom" and wit.dim == 1


def test_perp_membership_zero_module(cycle2):
    from quivertilt import zero_module
    ok, _ = perp_membership([projective(cycle2, "2")], zero_module(cycle2))
    assert ok


def test_perp_membership_rejects_pd2(cycle2):
    with pytest.raises(InputError):
        perp_membership([simple(cycle2, "1")], simple(cycle2, "2"))


def test_perp_complex_membership(cycle2):
    s2 = simple(cycle2, "2")
    ri1 = resolve_to_complex(injective(cycle2, "1"))
    for k in (-2, -1, 0, 1, 2):
        assert perp_complex_membership(s2, shift(ri1, k))
    from quivertilt import zero_complex
    assert perp_complex_membership(s2, zero_complex(cycle2))
    assert not perp_complex_membership(s2, resolve_to_complex(projective(cycle2, "2")))


# -- reflections ------------------------------------------------------------------


def test_brick_reflection_of_regular(cycle2):
    rs2 = resolve_to_complex(simple(cycle2, "2"))
    rr = resolve_to_complex(regular_module(cycle2))
    q, eta = reflection_brick(rs2, rr)
    i1 = injective(cycle2, "1")
    assert is_isomorphic(cohomology(q, 0), direct_sum([i1, i1]))
    for n in range(q.lo, q.hi + 1):
        if n != 0:
            assert cohomology(q, n).total_dim == 0
    for i in hom_window(rs2, q):
        assert derived_hom(rs2, q, i).dim == 0


def test_reflection_of_member_of_y_is_identity_like(cycle2):
    rs2 = resolve_to_complex(simple(cycle2, "2"))
    ri1 = resolve_to_complex(injective(cycle2, "1"))
    q, eta = reflection_brick(rs2, ri1)
    # already orthogonal: nothing to kill
    assert q is ri1


def test_iterative_agrees_with_brick(cycle2, a2):
    cases = [(cycle2, simple(cycle2, "2")), (a2, simple(a2, "1"))]
    for alg, t1m in cases:
        t1 = resolve_to_complex(t1m)
        rr = resolve_to_complex(regular_module(alg))
        qb, _ = reflection_brick(t1, rr)
        qi, _, steps = reflection_iterative(t1, rr)
        lo = min(qb.lo, qi.lo)
        hi = max(qb.hi, qi.hi)
        for n in range(lo, hi + 1):
            assert is_isomorphic(cohomology(qb, n), cohomology(qi, n))


def test_reflection_universal_property_dimensional(cycle2):
    """For every member of the orthogonal test family, Hom dimensions out of
    q(R) match Hom dimensions out of R."""
    rs2 = resolve_to_complex(simple(cycle2, "2"))
    rr = resolve_to_complex(regular_module(cycle2))
    q, _ = reflection_brick(rs2, rr)
    i1 = injective(cycle2, "1")
    family = [resolve_to_complex(i1),
              resolve_to_complex(direct_sum([i1, i1])),
              shift(resolve_to_complex(i1), 1),
              shift(resolve_to_complex(i1), -1),
              shift(resolve_to_complex(i1), 2),
              shift(resolve_to_complex(i1), -2)]
    for y in family:
        lo = min(list(hom_window(q, y)) + list(hom_window(rr, y)) + [0])
        hi = max(list(hom_window(q, y)) + list(hom_window(rr, y)) + [0])
        for n in range(lo, hi + 1):
            assert derived_hom(q, y, n).dim == derived_hom(rr, y, n).dim


def test_reflection_iterative_triple3(triple3):
    r = regular_module(triple3)
    tchar = direct_sum([projective(triple3, "1"), projective(triple3, "2"),
                        simple(triple3, "1")])
    f, _ = left_add_approximation(r, tchar)
    t1_mod, _ = cokernel(f)
    t1 = resolve_to_complex(t1_mod)
    q, _, steps = reflection_iterative(t1, resolve_to_complex(r))
    assert steps  # nontrivial process
    # trace formula: H^0(q(R)) is T0 / trace of T1
    tr = trace_submodule(t1_mod, f.target)
    ru, _ = quotient(f.target, tr)
    assert is_isomorphic(cohomology(q, 0), ru)


def test_brick_reflection_builds_no_cone_projection(cycle2, a2, monkeypatch):
    """reflection_brick returns the cone and inclusion of mapping_cone(alpha)
    for the canonical map alpha it collects, and builds no chain map out
    of that cone: the projection onto alpha's source is never formed."""
    import quivertilt.complexes as complexes
    from quivertilt.complexes import mapping_cone, shift_chain_map, stack_to_common_target
    built = []
    post_init = complexes.ChainMap.__post_init__

    def recording(self):
        built.append(self)
        post_init(self)

    for alg, t1m in [(cycle2, simple(cycle2, "2")), (a2, simple(a2, "1")),
                     (linear_algebra(4, True, GF(101)), None)]:
        if t1m is None:
            s = simple(alg, "3")
            n_mod, _, _ = bongartz_complement(s)
            t1m = tilting_module_check(direct_sum([n_mod, s])).sequence.right
        t1, rr = resolve_to_complex(t1m), resolve_to_complex(regular_module(alg))
        monkeypatch.setattr(complexes.ChainMap, "__post_init__", recording)
        built.clear()
        cone, incl = reflection_brick(t1, rr)
        monkeypatch.undo()
        assert cone is not rr and built
        assert not any(f.source is cone for f in built)
        alpha = stack_to_common_target([shift_chain_map(f, -i) for i in hom_window(t1, rr)
                                        for f in derived_hom(t1, rr, i).reps])
        ref_cone, ref_incl, _ = mapping_cone(alpha)
        assert (cone, incl) == (ref_cone, ref_incl)


def test_brick_reflection_checks_every_degree_of_the_cone_window_once(cycle2, a2, monkeypatch):
    """reflection_brick's post-condition Hom(T1, q(M)[i]) = 0 covers the
    cone's whole window: the universal triangle asks the degrees of M's
    window, and reflection_brick only the rest, so no degree is solved
    twice and none is left out."""
    import quivertilt.complexes as complexes
    import quivertilt.recollement as recollement
    for alg, t1m in [(cycle2, simple(cycle2, "2")), (a2, simple(a2, "1")),
                     (a2, projective(a2, "2"))]:
        t1, rr = resolve_to_complex(t1m), resolve_to_complex(regular_module(alg))
        by_triangle = counting(monkeypatch, complexes, "derived_hom")
        by_reflection = counting(monkeypatch, recollement, "derived_hom")
        cone, _ = reflection_brick(t1, rr)
        monkeypatch.undo()
        degrees = sorted(n for x, y, n in by_triangle + by_reflection if x is t1 and y is cone)
        assert degrees == list(hom_window(t1, cone))
        assert set(hom_window(t1, rr)) < set(degrees)


def test_a_negative_step_budget_is_rejected(cycle2):
    """reflect rejects a negative max_steps on the brick path too, and
    reflection_iterative before its first step."""
    rs2 = resolve_to_complex(simple(cycle2, "2"))
    rr = resolve_to_complex(regular_module(cycle2))
    for call in (lambda: reflect(rs2, rr, max_steps=-1),
                 lambda: reflection_iterative(rs2, rr, max_steps=-1),
                 lambda: reflect_regular(simple(cycle2, "2"), -1)):
        with pytest.raises(InputError, match="step budget must be >= 0"):
            call()


def test_brick_reflection_builds_no_copy_of_a_shifted_complex(cycle2, monkeypatch):
    """The classes of Hom(S2, R[n]) map into R[n], which holds R as its
    shift by -n: reflecting R at S2 shifts no complex back into a copy."""
    built = recording_shifts(monkeypatch)
    reflection_brick(resolve_to_complex(simple(cycle2, "2")),
                     resolve_to_complex(regular_module(cycle2)))
    assert built and not shifted_back(built)


def test_reflection_did_not_stabilize_error(cycle2):
    rs2 = resolve_to_complex(simple(cycle2, "2"))
    rr = resolve_to_complex(regular_module(cycle2))
    with pytest.raises(BoundExceeded):
        reflection_iterative(rs2, rr, max_steps=1)


def test_reflect_takes_the_iterative_route_at_a_non_brick(cycle2, monkeypatch):
    """T1 = P_2 over cycle2 is exceptional with dim End_D(T1) = 2, so reflect
    and reflect_regular take the iterative route; at max_steps = 2 it raises
    BoundExceeded, and no complex is returned or memoized."""
    import quivertilt.recollement as recollement
    p2 = projective(cycle2, "2")
    t1 = resolve_to_complex(p2)
    assert derived_hom(t1, t1, 0).dim == 2
    iterative = counting(monkeypatch, recollement, "reflection_iterative")
    with pytest.raises(BoundExceeded):
        reflect(t1, resolve_to_complex(regular_module(cycle2)), max_steps=2)
    for _ in range(2):
        with pytest.raises(BoundExceeded):
            reflect_regular(p2, 2)
    # the failed call memoized nothing: the second one reflects again
    assert len(iterative) == 3


# -- universal localization ---------------------------------------------------------


@pytest.fixture(scope="module")
def cycle2_localization(cycle2):
    p2, s2 = projective(cycle2, "2"), simple(cycle2, "2")
    cert = tilting_module_check(direct_sum([p2, s2]))
    assert isinstance(cert, TiltingCertificate)
    return universal_localization(cert.sequence)


def test_localization_module(cycle2, cycle2_localization):
    loc = cycle2_localization
    i1 = injective(cycle2, "1")
    assert loc.ru_module.dim_vector() == (2, 2)
    assert len(loc.ru_decomposition) == 1
    fac, mult = loc.ru_decomposition[0]
    assert mult == 2 and is_isomorphic(fac, i1)
    assert loc.reflection_matches


def test_localization_ring_structure(cycle2_localization):
    """End(R_U) ≅ M_2(K) for R_U ≅ I1²: a checked split pair R_U ≅ X².  As
    consequences, from_x[j] then to_x[k] is δ_jk id_X, and of the matrix
    units e_ij = to_x[i] then from_x[j], e_11 and e_22 are orthogonal
    idempotents summing to the identity."""
    loc = cycle2_localization
    ev = loc.evidence
    assert ev.dim == 4 and ev.reason is None and len(ev.to_x) == len(ev.from_x) == 2
    check_split_pair(loc.ru_module, ev.to_x, ev.from_x)
    x = ev.to_x[0].target
    for j, k in itertools.product(range(2), repeat=2):
        back = ev.from_x[j].compose(ev.to_x[k])
        assert back.mats == identity_map(x).mats if j == k else back.is_zero()
    (e11, e12), (e21, e22) = [[a.compose(b) for b in ev.from_x] for a in ev.to_x]
    assert e11.compose(e22).is_zero() and e22.compose(e11).is_zero()
    assert e12.compose(e21).mats == e11.mats and e21.compose(e12).mats == e22.mats
    assert e11.add(e22).mats == identity_map(loc.ru_module).mats


def test_localization_lambda_is_a_ring_epimorphism(cycle2, cycle2_localization):
    """lambda need not be K-surjective (here its image is a 3-dimensional
    triangular-type subalgebra of the 2x2 matrix ring), but it is a ring
    epimorphism: S ⊗_R S has the dimension of S."""
    loc = cycle2_localization
    rows = Matrix(cycle2.field, cycle2.dim, loc.evidence.dim, tuple(loc.lam))
    assert row_space(rows).rows == 3
    left = lambda_left_module(loc.eta, loc.lam)
    assert tor_dim(0, loc.ru_module, left) == loc.evidence.dim == 4


@pytest.fixture(scope="module")
def bongartz_sums():
    """(label, N ⊕ S_v) of every Bongartz-complement tilting module with
    pd S_v <= 1: cycle2, triple3 and a2 over Q and GF(101), hereditary and
    radical-square-zero A_3..A_5 over Q."""
    algebras = [(f"{name}/{field or 'Q'}", fixture_algebra(name, field))
                for name in ("cycle2", "triple3", "a2") for field in (None, GF(101))]
    algebras += [(f"A{n}{'-rad2' if rad2 else ''}", linear_algebra(n, rad2))
                 for n in (3, 4, 5) for rad2 in (False, True)]
    out = []
    for label, alg in algebras:
        for v in alg.vertices:
            s = simple(alg, v)
            if proj_dim(s) <= 1:
                n_mod, _, _ = bongartz_complement(s)
                out.append((f"{label}/S{v}", direct_sum([n_mod, s])))
    return out


@pytest.fixture(scope="module")
def bongartz_localizations(bongartz_sums):
    """(label, localization) of each of bongartz_sums."""
    out = []
    for label, t in bongartz_sums:
        cert = tilting_module_check(t)
        assert isinstance(cert, TiltingCertificate), label
        out.append((label, universal_localization(cert.sequence)))
    return out


def test_localization_ring_matches_structure_constant_reference(bongartz_localizations):
    """On every Bongartz-complement localization, lambda equals the one the
    structure-constant reference solves and checks on all basis pairs, and
    End(R_U) gets a split pair exactly when the reference's two-sided ideal
    scan finds every basis element generating the whole ring."""
    assert len(bongartz_localizations) == 24
    with_pair = 0
    for label, loc in bongartz_localizations:
        ref = reference_ring_presentation(loc.ru_module, loc.eta)
        ev = loc.evidence
        assert loc.lam == ref.lam, label
        assert ev.dim == ref.ring.dim, label
        assert (ev.reason is None) == ref.ideal_scan_full, label
        if ev.reason is None:
            assert len(ev.to_x) ** 2 == ev.dim, label
            with_pair += 1
    assert with_pair == 4


@pytest.fixture(scope="module")
def unrecorded_i1_squared(cycle2):
    """I1 ⊕ I1 over cycle2 conjugated by an invertible matrix at each
    vertex and built afresh, so it records no parts and decomposes into
    two distinct, isomorphic summand objects."""
    fld = cycle2.field
    s = direct_sum([injective(cycle2, "1")] * 2)
    assert s.dims == {"1": 2, "2": 2}
    g = {"1": Matrix.from_rows(fld, [[1, 1], [0, 1]]),
         "2": Matrix.from_rows(fld, [[2, 1], [1, 1]])}
    g_inv = {"1": Matrix.from_rows(fld, [[1, -1], [0, 1]]),
             "2": Matrix.from_rows(fld, [[1, -1], [-1, 2]])}
    # x -> x g is an isomorphism onto s from the module with arrows g A g⁻¹
    m = Representation(cycle2, dict(s.dims), {
        name: g[src].mul(s.arrow_mats[name]).mul(g_inv[tgt])
        for name, src, tgt in cycle2.quiver.arrows})
    ModuleMap(m, s, g)
    assert not m._parts
    return m


def test_split_pair_of_distinct_isomorphic_summands(unrecorded_i1_squared, monkeypatch):
    """With no recorded parts, R_U ≅ I1² splits into two distinct factor
    objects; the approximation I1² -> R_U by the first is inverted once,
    and the pair passes."""
    inverses = counting(monkeypatch, quivertilt.recollement, "_inverse_map")
    ev = ring_evidence(unrecorded_i1_squared)
    assert ev.reason is None and ev.dim == 4 and len(ev.to_x) == 2
    assert len(inverses) == 1
    check_split_pair(unrecorded_i1_squared, ev.to_x, ev.from_x)


def test_split_pair_of_p1_to_the_eighth():
    """R_U = P_1⁸ over hereditary A_8: End is M_8(K), dim 64."""
    m = direct_sum([projective(linear_algebra(8), "1")] * 8)
    ev = ring_evidence(m)
    assert ev.reason is None and ev.dim == 64 and len(ev.to_x) == len(ev.from_x) == 8
    check_split_pair(m, ev.to_x, ev.from_x)


def test_split_pair_is_read_off_the_right_approximation(cycle2_localization):
    """ring_evidence reads its pair off the minimal right
    add(X)-approximation g: X^n -> R_U: from_x[i] = incl_i then g and
    to_x[i] = g⁻¹ then proj_i.  The pair passes check_split_pair on
    cycle2's R_U ≅ I1² and on P_1^n over hereditary A_n for n = 4 and 8;
    adding 1 to one entry of from_x[0] makes it fail."""
    cases = [(cycle2_localization.ru_module, 2)]
    cases += [(direct_sum([projective(linear_algebra(n), "1")] * n), n) for n in (4, 8)]
    for m, n in cases:
        ev = ring_evidence(m)
        assert ev.reason is None and ev.dim == n * n and len(ev.from_x) == n
        check_split_pair(m, ev.to_x, ev.from_x)
        x = ev.to_x[0].target
        g = modules.right_add_approximation(m, x)
        incls, projs = modules._block_maps(g.source)
        assert [f.mats for f in ev.from_x] == [i.compose(g).mats for i in incls]
        assert [g.compose(f).mats for f in ev.to_x] == [p.mats for p in projs]
        f = ev.from_x[0]
        fld = m.algebra.field
        v = next(v for v in m.algebra.vertices if x.dims[v])
        entries = [list(row) for row in f.mats[v].entries]
        entries[0][0] = fld.add(entries[0][0], fld.one())
        changed = ModuleMap._trusted(f.source, f.target, {
            **f.mats, v: Matrix(fld, f.mats[v].rows, f.mats[v].cols,
                                tuple(tuple(row) for row in entries))})
        with pytest.raises(ConsistencyError):
            check_split_pair(m, ev.to_x, (changed,) + ev.from_x[1:])


def test_ring_evidence_rejects_an_approximation_that_is_not_an_isomorphism(
        cycle2_localization, monkeypatch):
    """An approximation X^n -> R_U that is missing, or is not an
    isomorphism (here one copy of X only), raises ConsistencyError."""
    ru = cycle2_localization.ru_module
    real = modules.right_add_approximation

    def one_copy(m, x):
        g = real(m, x)
        return modules._block_maps(g.source)[0][0].compose(g)

    for fake in (lambda m, x: None, one_copy):
        monkeypatch.setattr(quivertilt.recollement, "right_add_approximation", fake)
        with pytest.raises(ConsistencyError, match="approximation"):
            ring_evidence(ru)


def test_triple3_ring_evidence_names_two_classes(triple3):
    """triple3's R_U has two isomorphism classes of summands, so End(R_U)
    is not a matrix ring over K and no pair is built."""
    loc = universal_localization(tilting_module_check(triple3_tilting(triple3)).sequence)
    ev = loc.evidence
    assert ev.reason == "2 isomorphism classes of summands"
    assert ev.dim == 7 and ev.to_x == ev.from_x == ()


def test_changed_matrix_unit_entry_is_rejected(bongartz_localizations,
                                                unrecorded_i1_squared):
    """Changing any one entry of any one of the 2n maps of a split pair is
    rejected: on the pair-carrying Bongartz localizations and on a module
    with no recorded parts.  The matrix units are built from these maps.
    Doubling one map keeps it natural; the sum to the identity rejects it."""
    cases = [(loc.ru_module, loc.evidence) for _, loc in bongartz_localizations
             if loc.evidence.reason is None]
    cases.append((unrecorded_i1_squared, ring_evidence(unrecorded_i1_squared)))
    assert len(cases) == 5
    mutated = 0
    for m, ev in cases:
        pair = [list(ev.to_x), list(ev.from_x)]
        for side, i in itertools.product(range(2), range(len(ev.to_x))):
            e = pair[side][i]
            fld = e.source.algebra.field
            doubled = [list(pair[0]), list(pair[1])]
            doubled[side][i] = e.scale(fld.coerce(2))
            with pytest.raises(ConsistencyError, match="identity"):
                check_split_pair(m, *doubled)
            for v, mat in e.mats.items():
                for r, c in itertools.product(range(mat.rows), range(mat.cols)):
                    entries = [list(row) for row in mat.entries]
                    entries[r][c] = fld.add(entries[r][c], fld.one())
                    changed = ModuleMap._trusted(e.source, e.target, {
                        **e.mats, v: Matrix(fld, mat.rows, mat.cols,
                                            tuple(tuple(row) for row in entries))})
                    maps = [list(pair[0]), list(pair[1])]
                    maps[side][i] = changed
                    with pytest.raises(ConsistencyError):
                        check_split_pair(m, *maps)
                    mutated += 1
    assert mutated > 0


def test_split_pair_needs_n_copies_of_x_at_every_vertex(a2):
    """m = X = S_1 ⊕ S_1 with to_x = from_x = [id, 0]: the maps are
    natural, sum to id_m, and dim End(m) = 4 = 2², but m is not X², which
    only the dimension count at each vertex sees.  As one copy of itself,
    m passes every check but dim End(m) = 1².  A count of maps from X
    other than that of maps to X is malformed input."""
    x = direct_sum([simple(a2, "1")] * 2)
    ident, zero = identity_map(x), identity_map(x).scale(a2.field.zero())
    with pytest.raises(ConsistencyError, match="dim m_"):
        check_split_pair(x, [ident, zero], [ident, zero])
    with pytest.raises(ConsistencyError, match="dim End"):
        check_split_pair(x, [ident], [ident])
    with pytest.raises(InputError):
        check_split_pair(x, [ident, zero], [ident])


def test_split_pair_twisted_by_a_map_that_is_not_natural_is_rejected(cycle2_localization):
    """Doubling R_U at vertex 1 is invertible at every vertex but is not a
    module map, as an arrow of I1 between the vertices is nonzero.
    Twisting the pair by it keeps every dimension and the sum to the
    identity; only the naturality check rejects it."""
    ru, ev = cycle2_localization.ru_module, cycle2_localization.evidence
    fld = ru.algebra.field
    sigma = {v: Matrix.identity(fld, ru.dims[v]).scale(fld.coerce(2 if v == "1" else 1))
             for v in ru.algebra.vertices}
    sigma_inv = {v: Matrix.identity(fld, ru.dims[v]).scale(fld.coerce("1/2" if v == "1" else 1))
                 for v in ru.algebra.vertices}
    to_x = [ModuleMap._trusted(ru, f.target, {v: sigma[v].mul(f.mats[v]) for v in f.mats})
            for f in ev.to_x]
    from_x = [ModuleMap._trusted(g.source, ru, {v: g.mats[v].mul(sigma_inv[v]) for v in g.mats})
              for g in ev.from_x]
    with pytest.raises(ConsistencyError, match="not natural"):
        check_split_pair(ru, to_x, from_x)


def test_changed_lambda_entry_on_an_arrow_is_rejected(bongartz_localizations):
    """Changing any one End(R_U) coordinate of lambda on any arrow is
    rejected by the generator checks of lambda_left_module."""
    mutated = 0
    for _, loc in bongartz_localizations:
        alg = loc.ru_module.algebra
        fld = alg.field
        lambda_left_module(loc.eta, loc.lam)
        for name, _, _ in alg.quiver.arrows:
            a = alg.basis_index_of_arrow(name)
            for k in range(len(loc.lam[a])):
                lam = list(loc.lam)
                lam[a] = tuple(fld.add(x, fld.one()) if t == k else x
                               for t, x in enumerate(lam[a]))
                with pytest.raises(ConsistencyError):
                    lambda_left_module(loc.eta, tuple(lam))
                mutated += 1
    assert mutated > 0


def test_changed_lambda_entry_on_an_idempotent_or_a_longer_path_is_rejected(
        bongartz_localizations):
    """Changing any one End(R_U) coordinate of lambda on a vertex idempotent
    or on a path of length two or more is rejected as well: the reflection
    property is checked on every basis element."""
    mutated = {"idempotent": 0, "longer path": 0}
    for _, loc in bongartz_localizations:
        alg = loc.ru_module.algebra
        fld = alg.field
        arrows = {alg.basis_index_of_arrow(name) for name, _, _ in alg.quiver.arrows}
        idempotents = {alg.vertex_idempotent(v) for v in alg.vertices}
        for b in range(alg.dim):
            if b in arrows:
                continue
            for k in range(len(loc.lam[b])):
                lam = list(loc.lam)
                lam[b] = tuple(fld.add(x, fld.one()) if t == k else x
                               for t, x in enumerate(lam[b]))
                with pytest.raises(ConsistencyError):
                    lambda_left_module(loc.eta, tuple(lam))
                mutated["idempotent" if b in idempotents else "longer path"] += 1
    assert all(mutated.values()), mutated


def test_lambda_system_is_built_again_for_another_eta(cycle2_localization, monkeypatch):
    """eta' = eta then alpha, alpha a non-identity automorphism of R_U, is
    another reflection of R into the same R_U.  It gets its own linear
    system and its own lambda, and neither lambda passes against the other
    eta."""
    loc = cycle2_localization
    ru, eta = loc.ru_module, loc.eta
    to_x, from_x = loc.evidence.to_x, loc.evidence.from_x
    assert len(to_x) == 2
    alpha = identity_map(ru).add(to_x[0].compose(from_x[1]))  # unipotent, so invertible
    eta2 = eta.compose(alpha)
    builds = counting(monkeypatch, quivertilt.recollement, "left_multiples")
    lam2 = end_ring_presentation(ru, eta2)
    lambda_left_module(eta2, lam2)
    assert len(builds) == 1 and builds[0][0] is eta2
    assert lam2 != loc.lam
    with pytest.raises(ConsistencyError):
        lambda_left_module(eta2, loc.lam)
    with pytest.raises(ConsistencyError):
        lambda_left_module(eta, lam2)
    lambda_left_module(eta, loc.lam)
    assert len(builds) == 2 and builds[1][0] is eta


def test_eta_that_does_not_separate_endomorphisms_is_rejected(cycle2_localization):
    """The zero map R -> R_U, and eta followed by the idempotent e_11 of
    End(R_U) ≅ M_2(K), each send a nonzero endomorphism f to zero under
    f -> eta then f, so the injectivity check of lambda's system, read at
    the generators of R, rejects them."""
    loc = cycle2_localization
    ru, eta = loc.ru_module, loc.eta
    e11 = loc.evidence.to_x[0].compose(loc.evidence.from_x[0])
    for bad in (eta.scale(ru.algebra.field.zero()), eta.compose(e11)):
        with pytest.raises(ConsistencyError, match="kernel"):
            end_ring_presentation(ru, bad)


@pytest.fixture(scope="module")
def generator_coordinate_localizations():
    """(label, localization) of every Bongartz-complement tilting module
    N ⊕ S_v with pd S_v <= 1 over cycle2, triple3 and a2 over Q, GF(101)
    and GF(5), and of the recollement reports on N ⊕ S_v, v = n-1, n, over
    radical-square-zero A_3..A_6 over GF(101), the reports of the
    an-rad2-gf101 benchmark workload."""
    out = []
    for name in ("cycle2", "triple3", "a2"):
        for field in (None, GF(101), GF(5)):
            alg = fixture_algebra(name, field)
            for v in alg.vertices:
                s = simple(alg, v)
                if proj_dim(s) <= 1:
                    n_mod, _, _ = bongartz_complement(s)
                    cert = tilting_module_check(direct_sum([n_mod, s]))
                    out.append((f"{name}/{alg.field}/S{v}", universal_localization(cert.sequence)))
    for n in (3, 4, 5, 6):
        alg = linear_algebra(n, True, GF(101))
        for v in (str(n - 1), str(n)):
            n_mod, _, _ = bongartz_complement(simple(alg, v))
            rep = recollement_report(direct_sum([n_mod, simple(alg, v)]))
            out.append((f"rad2-A{n}/S{v}", rep.localization))
    return out


def _generator_columns(eta):
    """Columns of the rows at the generators e_v of R among the columns of
    a map R -> m flattened over all of R (modules._flatten_map)."""
    alg, m = eta.source.algebra, eta.target
    layout = proj_sum_layout(alg, alg.vertices)
    cols, off = [], 0
    for v in alg.vertices:
        pos = [i for _, i in layout[v]].index(alg.vertex_idempotent(v))
        cols += range(off + pos * m.dims[v], off + (pos + 1) * m.dims[v])
        off += len(layout[v]) * m.dims[v]
    return cols


def test_lambda_at_the_generators_is_the_full_coordinate_lambda(
        generator_coordinate_localizations):
    """lambda's system read at the generators e_v of R is the system in
    the full coordinates of Hom(R, R_U) (oracles.reference_lambda_system)
    restricted to the generator columns, the full rows are independent,
    and end_ring_presentation returns the lambda the full system solves
    to: maps out of R that agree on the generators are equal."""
    assert len(generator_coordinate_localizations) == 17
    for label, loc in generator_coordinate_localizations:
        ru, eta = loc.ru_module, loc.eta
        rows, targets = reference_lambda_system(eta)
        x, _ = solve_linear_system(rows, targets)
        assert x is not None and row_space(rows).rows == rows.rows, label
        assert end_ring_presentation(ru, eta) == x.entries == loc.lam, label
        cols = _generator_columns(eta)
        gen_rows, gen_targets = _lambda_system(eta)
        assert gen_rows == rows.take_cols(cols), label
        assert gen_targets == targets.take_cols(cols).entries, label
        assert gen_rows.cols == ru.total_dim, label


def test_localization_dimensions_from_ranks_match_the_reference(bongartz_localizations,
                                                                 triple3):
    """On every localization, and on triple3's q(R), which is not
    concentrated in degree 0: Ext(R_U, R_U) and the derived Homs the report
    sweeps have as many classes as their ranks say and as the cocycle count
    gives, and the ranks of _cohomology_dims agree with the cohomology
    modules of q(R)."""
    r = regular_module(triple3)
    f, _ = left_add_approximation(r, direct_sum([projective(triple3, "1"),
                                                 projective(triple3, "2"), simple(triple3, "1")]))
    t1_triple3, _ = cokernel(f)
    cases = [(loc.ru_module, loc.sequence.right) for _, loc in bongartz_localizations]
    cases.append((None, t1_triple3))
    non_concentrated = 0
    for ru, t1 in cases:
        if ru is not None:
            for i in range(3):
                space = ext(i, ru, ru)
                ref = reference_hom_cohomology_dim(*resolution_hom_args(space.resolution, ru), i)
                assert space.dim == len(space.classes) == ref
        q, _, _ = reflect_regular(t1)
        t1c = resolve_to_complex(t1)
        for x, y in ((t1c, q), (q, q)):
            for n in hom_window(x, y):
                space = derived_hom(x, y, n)
                ref = reference_hom_cohomology_dim(*complex_hom_args(x, y), n)
                assert space.dim == len(space.reps) == ref
        dims = _cohomology_dims(q)
        assert all(dims.get(n, 0) == cohomology(q, n).total_dim
                   for n in range(q.lo, q.hi + 1))
        h0 = reference_concentrated_h0(q)
        assert (h0 is None) == any(d for n, d in dims.items() if n != 0)
        assert h0 is None or is_isomorphic(h0, ru)
        non_concentrated += h0 is None
    assert non_concentrated >= 1 and reference_concentrated_h0(q) is None


def test_recollement_report_reflects_r_once_per_t1(cycle2, monkeypatch):
    """universal_localization and the report both ask for q(R) at T1; the
    second ask is answered from T1's cache, so one brick reflection runs,
    and the report's T2 is the complex the localization checked."""
    a3 = linear_algebra(3, rad2=True, field=GF(101))
    n_mod, _, _ = bongartz_complement(simple(a3, "2"))
    for t in (direct_sum([projective(cycle2, "2"), simple(cycle2, "2")]),
              direct_sum([n_mod, simple(a3, "2")])):
        asks = counting(monkeypatch, quivertilt.recollement, "reflect_regular")
        runs = counting(monkeypatch, quivertilt.recollement, "reflection_brick")
        rep = recollement_report(t)
        assert len(asks) == 2 and len(runs) == 1
        assert asks[0][0] is asks[1][0] is rep.t1
        assert reflect_regular(rep.t1)[0] is rep.t2
        monkeypatch.undo()


def test_report_reads_the_h0_match_off_the_localization(bongartz_sums):
    """T2 = q(R) is the localization's, so the report's H^0 match is the
    localization's; it equals H^0(q(R)) ≅ R_U decided again by building
    H^0 and testing isomorphism."""
    assert len(bongartz_sums) == 24
    for label, t in bongartz_sums:
        rep = recollement_report(t)
        again = (reference_h0_match(rep.t2, rep.localization.ru_module)
                 if rep.t2_exceptional else None)
        assert rep.t2_matches_ru == again, label
        if rep.t2_exceptional:
            assert rep.t2_matches_ru == rep.localization.reflection_matches, label


def test_recollement_report_decides_no_isomorphism(monkeypatch):
    """On rad² A_3, the localization and the report run no general
    isomorphism test: H^0(q(R)) ≅ R_U is decided by the comparison map,
    ``decompose`` groups factors by their own exact test, and the split
    pair of R_U comes from the right approximation.  is_isomorphic raises
    if asked; every module decomposed has recorded parts."""
    a3 = linear_algebra(3, rad2=True, field=GF(101))
    s = simple(a3, "2")
    n_mod, _, _ = bongartz_complement(s)
    assert not hasattr(quivertilt.recollement, "is_isomorphic")
    splits = counting(monkeypatch, quivertilt.recollement, "decompose")

    def is_isomorphic(m, n):
        raise AssertionError("is_isomorphic on the report path")

    monkeypatch.setattr(modules, "is_isomorphic", is_isomorphic)
    rep = recollement_report(direct_sum([n_mod, s]))
    assert rep.t2_matches_ru and rep.localization.reflection_matches
    assert splits and all(m._parts for (m,) in splits)


@pytest.fixture(scope="module")
def example_localizations():
    """(label, localization) of the worked examples' tilting modules over
    Q, GF(101) and GF(5): cycle2's P_2 ⊕ S_2, triple3's T0 ⊕ T1, whose
    q(R) is not concentrated in degree 0, and a2's Bongartz sum N ⊕ S_1."""
    out = []
    for field in (None, GF(101), GF(5)):
        cycle2, triple3, a2 = (fixture_algebra(name, field)
                               for name in ("cycle2", "triple3", "a2"))
        n_mod, _, _ = bongartz_complement(simple(a2, "1"))
        for name, t in (("cycle2", direct_sum([projective(cycle2, "2"), simple(cycle2, "2")])),
                        ("triple3", triple3_tilting(triple3)),
                        ("a2", direct_sum([n_mod, simple(a2, "1")]))):
            cert = tilting_module_check(t)
            assert isinstance(cert, TiltingCertificate), (name, field)
            out.append((f"{name}/{field or 'Q'}", universal_localization(cert.sequence)))
    return out


def test_comparison_verdict_matches_the_h0_reference(bongartz_localizations,
                                                     example_localizations):
    """The H^0 match decided by the comparison map psi: q(R) -> R_U equals
    the one decided by building H^0(q(R)) and testing isomorphism, on
    every Bongartz-complement localization and on the worked examples over
    three fields; both verdicts occur."""
    verdicts = []
    for label, loc in bongartz_localizations + example_localizations:
        q, _, _ = reflect_regular(loc.sequence.right)
        assert loc.comparison.source is q.terms[0], label
        assert loc.comparison.target is loc.ru_module, label
        assert loc.reflection_matches == reference_h0_match(q, loc.ru_module), label
        verdicts.append(loc.reflection_matches)
    assert len(verdicts) == 33 and True in verdicts and False in verdicts


def test_changed_comparison_entry_is_rejected(bongartz_localizations, example_localizations):
    """psi^0 is unique (q(R) has no term in degree 1, so there are no
    coboundaries), and changing any one of its generator coordinates
    breaks the cocycle condition or mu then psi = eta."""
    from quivertilt.homology import _split_gen_vector, gen_coords, hom_from_gens
    changed = 0
    for label, loc in bongartz_localizations + example_localizations:
        q, mu, _ = reflect_regular(loc.sequence.right)
        assert 1 not in q.terms, label
        check_comparison(q, mu, loc.eta, loc.comparison)
        q0, ru, fld = q.terms[0], loc.ru_module, loc.ru_module.algebra.field
        coords = gen_coords(q0, loc.comparison)
        for k in range(len(coords)):
            bent = list(coords)
            bent[k] = fld.add(bent[k], fld.one())
            psi = hom_from_gens(q0, ru, _split_gen_vector(q0, ru, bent))
            with pytest.raises(ConsistencyError):
                check_comparison(q, mu, loc.eta, psi)
            changed += 1
    assert changed >= 33


def test_comparison_with_a_wrong_target_never_matches(bongartz_localizations,
                                                      example_localizations):
    """Handed T0 in place of R_U, with eta composed to match (the inclusion
    R -> T0), the comparison raises or reports no match: T0 is not in the
    perpendicular category when it is larger than R_U."""
    wrong = 0
    for label, loc in bongartz_localizations + example_localizations:
        seq = loc.sequence
        if seq.mid.total_dim == loc.ru_module.total_dim:
            continue
        q, mu, _ = reflect_regular(seq.right)
        try:
            matched = _h0_matches(q, comparison_map(q, mu, seq.incl))
        except ConsistencyError:
            matched = False
        assert not matched, label
        wrong += 1
    assert wrong >= 10


def test_tor_reads_fewer_actions_than_the_algebra_has():
    """On the rad² A_4 report, Tor_i(R_U, R_U) through lambda reads the
    actions of the idempotents and of the paths in the resolution's
    differentials only, and gets the dimensions of the dense left module
    built and checked on every basis element."""
    from quivertilt.homology import LeftModule, tor_dims_range
    a4 = linear_algebra(4, rad2=True, field=GF(101))
    s = simple(a4, "3")
    n_mod, _, _ = bongartz_complement(s)
    loc = recollement_report(direct_sum([n_mod, s])).localization
    left = lambda_left_module(loc.eta, loc.lam)
    assert not left.act.built
    dims = tor_dims_range(loc.ru_module, left, 6)
    assert 0 < len(left.act.built) < a4.dim == len(left.act)
    ends = modules.hom_space(loc.ru_module, loc.ru_module)
    dense = LeftModule(a4, loc.ru_module.total_dim,
                       tuple(total_matrix(ends.combo(c)) for c in loc.lam))
    assert tuple(left.act) == dense.act
    assert dims == tor_dims_range(loc.ru_module, dense, 6)


def test_actions_on_read_equal_the_combo_total_matrices(bongartz_localizations,
                                                       cycle2_localization):
    """Every act[u] of the left module R_U through lambda, written straight
    from lambda's coordinates, equals the total matrix of the combination
    of the End basis (``oracles.reference_actions``); so do the actions of
    coefficient vectors with entries other than 0 and 1."""
    from quivertilt.recollement import ActionsOnRead
    from oracles import reference_actions
    for label, loc in bongartz_localizations + [("cycle2", cycle2_localization)]:
        left = lambda_left_module(loc.eta, loc.lam)
        ends = modules.hom_space(loc.ru_module, loc.ru_module)
        assert list(left.act) == reference_actions(ends, loc.lam), label
        fld = loc.ru_module.algebra.field
        others = [tuple(fld.coerce(i * k + 2) for i in range(ends.dim)) for k in range(3)]
        assert list(ActionsOnRead(ends, others)) == reference_actions(ends, others), label


def test_reflect_regular_is_memoized_per_t1_object(cycle2):
    t1 = simple(cycle2, "2")
    first = reflect_regular(t1)
    assert first[0].algebra is cycle2
    assert reflect_regular(t1) is first
    fresh = Representation(cycle2, dict(t1.dims), dict(t1.arrow_mats))
    assert fresh == t1 and fresh is not t1
    again = reflect_regular(fresh)
    assert again[0] is not first[0] and again[2] == first[2] == "brick"
    assert is_isomorphic(reference_concentrated_h0(again[0]),
                         reference_concentrated_h0(first[0]))
    # another step or resolution budget is another entry
    other = reflect_regular(t1, max_steps=4)
    assert other is not first and other[2] == first[2]


def test_localization_splits_r_u_along_t0_parts(triple3, monkeypatch):
    """R_U is the direct sum of the nonzero quotients T0_c / τ(T1, T0_c) of
    T0's recorded parts, one quotient object per distinct part object, so a
    whole localization tries fewer Fitting splits than one decomposition of
    an equal, fresh R_U."""
    r = regular_module(triple3)
    tchar = direct_sum([projective(triple3, "1"), projective(triple3, "2"),
                        simple(triple3, "1")])
    f, _ = left_add_approximation(r, tchar)
    t1_mod, _ = cokernel(f)
    seq = tilting_module_check(direct_sum([f.target, t1_mod])).sequence
    tried = []
    fitting_split = modules._fitting_split

    def counting_split(m, f):
        tried.append(m)
        return fitting_split(m, f)

    monkeypatch.setattr(modules, "_fitting_split", counting_split)
    ru = universal_localization(seq).ru_module
    in_localization = len(tried)
    t0_parts, ru_parts = seq.mid._parts, ru._parts
    kept = [q for q in (quotient(part, trace_submodule(seq.right, part))[0]
                        for part in t0_parts) if q.total_dim]
    assert [q.dims for q in ru_parts] == [q.dims for q in kept]
    assert len(ru_parts) == len(t0_parts) == 3
    assert all((a is b) == (c is d) for (a, c), (b, d)
               in itertools.combinations(zip(t0_parts, ru_parts), 2))
    assert any(a is b for a, b in itertools.combinations(ru_parts, 2))
    tried.clear()
    fresh = Representation(triple3, ru.dims, ru.arrow_mats)
    assert len(modules.summand_factors(fresh)) == 3
    assert in_localization < len(tried)


@pytest.mark.parametrize("name", ["cycle2", "a2"])
def test_trace_quotient_of_a_t0_with_no_parts(name, cycle2, a2):
    """A T0 with no recorded parts is divided as a whole.  Rebuilding the
    certificate's T0 as a plain Representation, for cycle2's P_2 ⊕ S_2 and
    a2's Bongartz sum N ⊕ S_1, gives an R_U isomorphic to the parts
    route's, with the same homological-epimorphism verdict."""
    if name == "cycle2":
        seq = tilting_module_check(direct_sum([projective(cycle2, "2"),
                                               simple(cycle2, "2")])).sequence
    else:
        seq = bongartz_complement(simple(a2, "1"))[2].sequence
    r, t0, t1 = seq.left, seq.mid, seq.right
    whole_t0 = Representation(t0.algebra, dict(t0.dims), dict(t0.arrow_mats))
    assert t0._parts and not whole_t0._parts
    whole = universal_localization(ShortExact(r, whole_t0, t1,
                                              ModuleMap(r, whole_t0, seq.incl.mats),
                                              ModuleMap(whole_t0, t1, seq.proj.mats)))
    by_parts = universal_localization(seq)
    assert not whole.ru_module._parts and by_parts.ru_module._parts
    assert is_isomorphic(whole.ru_module, by_parts.ru_module)
    assert whole.hom_epi == by_parts.hom_epi


def test_localization_regular_tilting_is_identity_like(cycle2):
    cert = tilting_module_check(regular_module(cycle2))
    loc = universal_localization(cert.sequence)
    assert loc.ru_module.total_dim == cycle2.dim
    assert is_isomorphic(loc.ru_module, regular_module(cycle2))
    assert loc.hom_epi.is_homological_epi
    assert loc.eta.is_injective() and loc.eta.is_surjective()


def test_hom_epi_cycle2(cycle2_localization):
    epi = cycle2_localization.hom_epi
    assert epi.is_homological_epi
    assert epi.ext_dims == (0,) * 6
    assert epi.tor_dims == (0,) * 6
    assert ext_tor_agree(epi)


def triple3_tilting(triple3):
    """The tilting module T0 ⊕ T1 of the triple3 example, T0 the left
    add(P_1 ⊕ P_2 ⊕ S_1)-approximation of R and T1 its cokernel."""
    r = regular_module(triple3)
    tchar = direct_sum([projective(triple3, "1"), projective(triple3, "2"),
                        simple(triple3, "1")])
    f, _ = left_add_approximation(r, tchar)
    return direct_sum([f.target, cokernel(f)[0]])


def test_hom_epi_triple3(triple3):
    cert = tilting_module_check(triple3_tilting(triple3))
    loc = universal_localization(cert.sequence)
    assert not loc.hom_epi.is_homological_epi
    assert loc.hom_epi.ext_dims[0] == 0     # degree 1 vanishes
    assert loc.hom_epi.ext_dims[1] == 6     # the self-extensions sit in degree 2
    assert loc.hom_epi.tor_dims[1] > 0
    assert ext_tor_agree(loc.hom_epi)
    # trace formula target
    s1 = simple(triple3, "1")
    p2 = projective(triple3, "2")
    x, _ = quotient(p2, socle(p2)[1])
    assert is_isomorphic(loc.ru_module, direct_sum([s1, x, x]))


def test_hom_epi_verdict_reads_past_the_reported_degrees(triple3):
    """At max_degree=1 only Ext^1(R_U, R_U) = 0 is reported, but the
    verdict reads the whole minimal resolution of R_U (pd 4), so
    Ext^2 = 6 still makes it NO."""
    loc = universal_localization(tilting_module_check(triple3_tilting(triple3)).sequence)
    assert proj_dim(loc.ru_module) == 4
    epi = homological_epi_check(loc.eta, loc.lam, 1)
    assert epi.ext_dims == (0,) and len(epi.tor_dims) == 1
    assert not epi.is_homological_epi


# -- stratifying ideals ---------------------------------------------------------------


def test_stratifying_a2(a2):
    assert stratifying_ideal_check(a2, ("2",)).is_stratifying
    assert stratifying_ideal_check(a2, ("1", "2")).is_stratifying


def test_stratifying_cycle2_corner_fails(cycle2):
    rep = stratifying_ideal_check(cycle2, ("2",))
    assert not rep.is_stratifying
    assert not rep.multiplication_bijective
    # B = A/AeA has Tor^A_2(B, B) of dimension 1, the kernel of the corner
    # multiplication; over the corner ring the same obstruction shows as
    # Tor^{eAe}_1(Ae, eA) of dimension 1
    assert rep.quotient_tor_dims[:2] == (0, 1)
    assert rep.quotient_ext_dims[:2] == (0, 1)
    assert rep.resolution_complete
    tor, _ = reference_corner_tor_dims(cycle2, ("2",), 4)
    assert tor[0] == oracle_corner_tor1_dim(cycle2, ("2",)) == 1


def test_stratifying_triple3_heredity(triple3):
    rep = stratifying_ideal_check(triple3, ("3",))
    assert rep.is_stratifying


def test_stratifying_matches_independent_oracle(kron2, a2, cycle2):
    for alg, vs in ((kron2, ("1",)), (kron2, ("2",)), (kron2, ("1", "2")),
                    (a2, ("2",)), (cycle2, ("2",))):
        rep = stratifying_ideal_check(alg, vs)
        assert rep.tensor_dim == oracle_corner_tensor_dim(alg, vs)
        assert rep.ideal_dim == oracle_corner_ideal_dim(alg, vs)
        tor, _ = reference_corner_tor_dims(alg, vs, 4)
        assert tor[0] == oracle_corner_tor1_dim(alg, vs)


def _proper_vertex_subsets(alg):
    return [vs for k in range(1, len(alg.vertices))
            for vs in itertools.combinations(alg.vertices, k)]


def test_stratifying_triple3_multiplication_failure_is_certified(triple3):
    """dim Ae ⊗_{eAe} eA = 9 > dim AeA = 8 decides NO even when one degree
    of Tor cannot decide it (the corner-ring route took about 1 GB here
    and raised BoundExceeded)."""
    rep = stratifying_ideal_check(triple3, ("1", "2"), max_degree=1)
    assert (rep.tensor_dim, rep.ideal_dim) == (9, 8)
    assert not rep.multiplication_bijective
    assert not rep.resolution_complete
    assert not rep.is_stratifying


def test_stratifying_inconclusive_window_raises(triple3):
    # multiplication is bijective and Tor_1 vanishes, but pd A/AeA = 4
    with pytest.raises(BoundExceeded):
        stratifying_ideal_check(triple3, ("1",), max_degree=1)
    rep = stratifying_ideal_check(triple3, ("1",), max_degree=4)
    assert rep.quotient_tor_dims == (0, 0, 1, 1)
    assert not rep.is_stratifying


def test_stratifying_decides_at_pd_one_past_the_window(triple3):
    """pd A/AeA = 2 for e at vertices 2, 3: the resolution built for
    Tor_1 is complete at length 2, and Tor_2 read off it decides YES."""
    rep = stratifying_ideal_check(triple3, ("2", "3"), max_degree=1)
    assert rep.is_stratifying and rep.resolution_complete
    assert rep.quotient_tor_dims == rep.quotient_ext_dims == (0,)
    assert stratifying_ideal_check(triple3, ("2", "3"), max_degree=2).is_stratifying


def test_stratifying_verdict_at_pd_minus_one_equals_verdict_at_pd(all_algebras):
    """On every proper vertex subset with pd A/AeA = p >= 2, the check at
    max_degree = p - 1 returns the verdict of the check at max_degree = p."""
    algebras = dict(all_algebras)
    for n in (3, 4):
        algebras[f"A{n}"] = linear_algebra(n)
        algebras[f"A{n}-rad2"] = linear_algebra(n, rad2=True)
    seen = 0
    for name, alg in algebras.items():
        for vs in _proper_vertex_subsets(alg):
            p = proj_dim(_quotient_by_vertex_ideal(alg, tuple(_vertex_ideal_products(alg, vs))))
            if p < 2:
                continue
            short = stratifying_ideal_check(alg, vs, max_degree=p - 1)
            full = stratifying_ideal_check(alg, vs, max_degree=p)
            assert short.resolution_complete and full.resolution_complete, (name, vs)
            assert short.is_stratifying == full.is_stratifying, (name, vs)
            assert short.quotient_tor_dims == full.quotient_tor_dims[:p - 1], (name, vs)
            assert short.quotient_ext_dims == full.quotient_ext_dims[:p - 1], (name, vs)
            seen += 1
    assert seen >= 10


def test_corner_kernel_is_tor2_of_the_quotient():
    """dim Ae ⊗_{eAe} eA, which the check reads as dim AeA plus
    dim Tor^A_2(A/AeA, A/AeA), and dim AeA agree with the bilinear-quotient
    and product-span oracles on every proper vertex subset of the fixtures
    and of hereditary and radical-square-zero A_3, A_4, over Q, GF(2),
    GF(3) and GF(101)."""
    for field in (QQ, GF(2), GF(3), GF(101)):
        algebras = {name: fixture_algebra(name, None if field == QQ else field)
                    for name in ("a2", "kron2", "cycle2", "triple3")}
        for n in (3, 4):
            algebras[f"A{n}"] = linear_algebra(n, field=field)
            algebras[f"A{n}-rad2"] = linear_algebra(n, rad2=True, field=field)
        for name, alg in algebras.items():
            for vs in _proper_vertex_subsets(alg):
                rep = stratifying_ideal_check(alg, vs)
                assert rep.tensor_dim == oracle_corner_tensor_dim(alg, vs), (field, name, vs)
                assert rep.ideal_dim == oracle_corner_ideal_dim(alg, vs), (field, name, vs)
                assert rep.resolution_complete


def test_stratifying_verdict_matches_corner_ring_route(a2, kron2, cycle2):
    for alg in (a2, kron2, cycle2):
        for vs in _proper_vertex_subsets(alg):
            assert (stratifying_ideal_check(alg, vs, max_degree=4).is_stratifying
                    == reference_stratifying_verdict(alg, vs, 4)), vs


def test_stratifying_suite_time_and_memory():
    """Every proper vertex subset of the four fixtures at the default
    max_degree, in a fresh interpreter: under 10 s and 100 MiB peak RSS.
    The peak is the child's own VmHWM (Linux ``/proc/self/status``): its
    ``ru_maxrss`` also keeps the resident set of the process it was forked
    from, before ``exec``, so it would bound the test runner's size."""
    script = textwrap.dedent("""
        import itertools, json, time
        from quivertilt.formats import fixture_algebra
        from quivertilt.recollement import stratifying_ideal_check
        start = time.perf_counter()
        verdicts = []
        for name in ("a2", "kron2", "cycle2", "triple3"):
            alg = fixture_algebra(name)
            for k in range(1, len(alg.vertices)):
                for vs in itertools.combinations(alg.vertices, k):
                    rep = stratifying_ideal_check(alg, vs)
                    verdicts.append(rep.is_stratifying)
        print(json.dumps({"seconds": time.perf_counter() - start,
                          "peak_kib": next(int(line.split()[1])
                                           for line in open("/proc/self/status")
                                           if line.startswith("VmHWM:")),
                          "verdicts": verdicts}))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(quivertilt.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    stats = json.loads(out.stdout)
    assert len(stats["verdicts"]) == 12
    assert stats["seconds"] < 10
    assert stats["peak_kib"] < 100 * 1024


# -- recollement reports -----------------------------------------------------------


def test_recollement_cycle2(cycle2):
    p2, s2 = projective(cycle2, "2"), simple(cycle2, "2")
    rep = recollement_report(direct_sum([p2, s2]))
    assert rep.orthogonality_ok
    assert rep.t2_exceptional and rep.t2_matches_ru
    assert rep.localization.hom_epi.is_homological_epi
    assert not rep.corollary_zero          # Hom(S2, P2) is nonzero
    assert rep.equivalent_to_ru_tilting is None


def test_recollement_regular_degenerate(cycle2):
    rep = recollement_report(regular_module(cycle2))
    assert rep.t1.total_dim == 0
    assert rep.t2_exceptional
    assert rep.corollary_zero
    assert rep.equivalent_to_ru_tilting


def test_recollement_triple3(triple3):
    r = regular_module(triple3)
    tchar = direct_sum([projective(triple3, "1"), projective(triple3, "2"),
                        simple(triple3, "1")])
    f, _ = left_add_approximation(r, tchar)
    t1_mod, _ = cokernel(f)
    rep = recollement_report(direct_sum([f.target, t1_mod]))
    assert not rep.localization.hom_epi.is_homological_epi
    assert not rep.t2_exceptional
    assert rep.orthogonality_ok


def test_recollement_rejects_non_tilting(cycle2):
    with pytest.raises(InputError):
        recollement_report(simple(cycle2, "2"))
