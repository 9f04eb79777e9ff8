import random
from fractions import Fraction

import pytest

from quivertilt import (GF, QQ, ConsistencyError, DimensionMismatch, InputError, Matrix,
                        ModuleMap, Representation, injective, projective, regular_module,
                        simple)
from quivertilt.formats import fixture_algebra
from quivertilt.modules import (_assemble_block_map, cokernel, decompose, direct_sum,
                                hom_from_gens, hom_space, identity_map, image, is_isomorphic,
                                kernel, proj_sum, quotient, radical, socle, summand_factors,
                                top, zero_map)
from conftest import linear_algebra, non_prefix_closed_algebra, reordered_algebra
from oracles import (block_matrix, coords, direct_sum_with_maps, in_add_of,
                     reference_hom_from_gens, trace_submodule)


def test_hom_s2_p2(cycle2):
    assert hom_space(simple(cycle2, "2"), projective(cycle2, "2")).dim == 1


def test_hom_p1_p2_kron(kron2):
    assert hom_space(projective(kron2, "1"), projective(kron2, "2")).dim == 0


def test_identity_lies_in_end(cycle2):
    for v in cycle2.vertices:
        m = projective(cycle2, v)
        hs = hom_space(m, m)
        idm = identity_map(m)
        assert hs.combo(coords(hs, idm)).mats == idm.mats


@pytest.mark.parametrize("coeffs", [[1], [1, 5, 7]])
def test_combo_rejects_a_wrong_number_of_coefficients(cycle2, coeffs):
    # End(P2) has dimension 2; zip would silently drop or ignore coefficients
    p2 = projective(cycle2, "2")
    hs = hom_space(p2, p2)
    assert hs.dim == 2
    with pytest.raises(InputError, match="coefficients"):
        hs.combo(coeffs)


def test_kernel_of_identity_is_zero(cycle2):
    m = projective(cycle2, "2")
    k, _ = kernel(identity_map(m))
    assert k.total_dim == 0


def test_image_of_zero_map(cycle2):
    m = projective(cycle2, "2")
    img, _, _ = image(zero_map(m, m))
    assert img.total_dim == 0


def test_cokernel_of_radical_inclusion(cycle2):
    p2 = projective(cycle2, "2")
    rad, incl = radical(p2)
    assert is_isomorphic(rad, projective(cycle2, "1"))
    cok, _ = cokernel(incl)
    assert is_isomorphic(cok, simple(cycle2, "2"))


def test_direct_sum_dims(cycle2):
    p2 = projective(cycle2, "2")
    assert direct_sum([p2, p2]).dim_vector() == (2, 4)


def test_direct_sum_maps_are_sections(cycle2):
    p2, s2 = projective(cycle2, "2"), simple(cycle2, "2")
    total, incls, projs = direct_sum_with_maps([p2, s2])
    for inc, prj, part in zip(incls, projs, (p2, s2)):
        assert inc.compose(prj).mats == identity_map(part).mats


def test_quotient_by_socle(cycle2):
    p2 = projective(cycle2, "2")
    soc, incl = socle(p2)
    q, _ = quotient(p2, incl)
    assert q.dim_vector() == (1, 1)
    assert is_isomorphic(q, injective(cycle2, "1"))


def test_quotient_by_identity_is_zero(cycle2):
    m = projective(cycle2, "1")
    q, _ = quotient(m, identity_map(m))
    assert m.total_dim == 0 or q.total_dim == 0


def test_quotient_requires_injective(cycle2):
    m = projective(cycle2, "2")
    with pytest.raises(InputError):
        quotient(m, zero_map(m, m))


def test_quotient_rejects_inclusion_into_another_module(a2):
    """S1 -> S1+S2 has the dimensions of a map into P1 but lands elsewhere."""
    _, (s1_incl, _), _ = direct_sum_with_maps([simple(a2, "1"), simple(a2, "2")])
    with pytest.raises(InputError):
        quotient(projective(a2, "1"), s1_incl)


def test_map_arithmetic_requires_matching_modules(a2):
    """S1+S2 and P1 have equal dimensions but are different modules, so
    their identities neither compose nor add; equal modules built twice do."""
    f = identity_map(direct_sum([simple(a2, "1"), simple(a2, "2")]))
    g = identity_map(projective(a2, "1"))
    with pytest.raises(DimensionMismatch):
        f.compose(g)
    with pytest.raises(DimensionMismatch):
        f.add(g)
    with pytest.raises(DimensionMismatch):
        f.sub(g)
    h = identity_map(projective(a2, "1"))
    assert g.compose(h).mats == g.add(h).sub(g).mats == g.mats


def test_trace_of_s2_in_p2_is_socle(cycle2):
    tr = trace_submodule(simple(cycle2, "2"), projective(cycle2, "2"))
    assert tr.source.dim_vector() == (0, 1)


def test_trace_of_self_is_everything(cycle2):
    m = projective(cycle2, "2")
    tr = trace_submodule(m, m)
    assert tr.source.total_dim == m.total_dim


def test_trace_kron(kron2):
    tr = trace_submodule(projective(kron2, "2"), projective(kron2, "1"))
    assert tr.source.dim_vector() == (0, 2)


def test_trace_minimality(cycle2, kron2):
    # every morphism gen -> tgt factors through the trace: composing with the
    # projection off the trace kills all of Hom(gen, tgt)
    for alg, gen, tgt in ((cycle2, simple(cycle2, "2"), projective(cycle2, "2")),
                          (kron2, projective(kron2, "2"), projective(kron2, "1"))):
        tr = trace_submodule(gen, tgt)
        _, qproj = quotient(tgt, tr)
        for f in hom_space(gen, tgt).basis:
            assert f.compose(qproj).is_zero()
        assert hom_space(gen, tgt).dim == hom_space(gen, tr.source).dim


def test_radical_of_simple_is_zero(cycle2):
    rad, _ = radical(simple(cycle2, "1"))
    assert rad.total_dim == 0


def test_top_of_p2(cycle2):
    t, _ = top(projective(cycle2, "2"))
    assert t.dim_vector() == (0, 1)


def test_exactness_dimensions(cycle2):
    p2 = projective(cycle2, "2")
    i1 = injective(cycle2, "1")
    for f in hom_space(p2, i1).basis:
        k, _ = kernel(f)
        img, _, _ = image(f)
        cok, _ = cokernel(f)
        for v in cycle2.vertices:
            assert k.dims[v] + img.dims[v] == p2.dims[v]
            assert img.dims[v] + cok.dims[v] == i1.dims[v]


def test_is_isomorphic_reflexive(all_algebras):
    for alg in all_algebras.values():
        for v in alg.vertices:
            assert is_isomorphic(projective(alg, v), projective(alg, v))


def test_is_isomorphic_negative(cycle2):
    assert not is_isomorphic(projective(cycle2, "1"), projective(cycle2, "2"))
    assert not is_isomorphic(simple(cycle2, "1"), simple(cycle2, "2"))


def test_zero_module_isomorphism(cycle2):
    from quivertilt import zero_module
    assert is_isomorphic(zero_module(cycle2), zero_module(cycle2))


def test_decompose_p2_socle_square(cycle2):
    p2 = projective(cycle2, "2")
    soc, incl = socle(p2)
    q, _ = quotient(p2, incl)
    dec = decompose(direct_sum([q, q]))
    assert len(dec) == 1
    fac, mult = dec[0]
    assert mult == 2 and is_isomorphic(fac, injective(cycle2, "1"))


def test_decompose_regular(triple3):
    dec = decompose(regular_module(triple3))
    assert sorted(m for _, m in dec) == [1, 1, 1]
    facs = [f for f, _ in dec]
    for v in triple3.vertices:
        assert any(is_isomorphic(f, projective(triple3, v)) for f in facs)


def test_decompose_roundtrip(all_algebras):
    # direct sum of the factors is isomorphic to the input
    for name, alg in all_algebras.items():
        m = direct_sum([projective(alg, alg.vertices[0]),
                        simple(alg, alg.vertices[-1]),
                        simple(alg, alg.vertices[-1])])
        dec = decompose(m)
        parts = []
        for fac, mult in dec:
            parts.extend([fac] * mult)
        assert is_isomorphic(direct_sum(parts), m)


def test_indecomposable_has_trivial_decomposition(cycle2):
    dec = decompose(projective(cycle2, "2"))
    assert len(dec) == 1 and dec[0][1] == 1


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("name, vertex", [("cycle2", "2"), ("triple3", "1"), ("triple3", "2")])
def test_local_module_is_certified_after_the_basis_candidates(monkeypatch, name, vertex, field):
    import quivertilt.modules as modules
    m = projective(fixture_algebra(name, None if field == QQ else field), vertex)
    end_dim = hom_space(m, m).dim
    assert end_dim == 2
    tried = []
    real = modules._fitting_split

    def counting(mod, f):
        tried.append(f)
        return real(mod, f)

    monkeypatch.setattr(modules, "_fitting_split", counting)
    [fac] = summand_factors(m)
    assert len(tried) <= end_dim
    assert fac is m


def test_local_module_over_a_small_prime_still_needs_the_trace_form():
    # p = 2 <= dim P2 = 3: the trace form cannot certify End local, and no
    # candidate splits a local module, so the search ends in InputError
    m = projective(fixture_algebra("cycle2", GF(2)), "2")
    assert hom_space(m, m).dim == 2
    with pytest.raises(InputError):
        summand_factors(m)


def _non_brick_factors():
    """Factors with dim End > 1 of the regular modules and D(A) of the
    fixtures and of hereditary and radical-square-zero A_3 and A_4, over Q
    and GF(101)."""
    from conftest import linear_algebra
    algebras = []
    for field in (QQ, GF(101)):
        algebras += [fixture_algebra(n, None if field == QQ else field)
                     for n in ("a2", "kron2", "cycle2", "triple3")]
        algebras += [linear_algebra(n, rad2, field) for n in (3, 4) for rad2 in (False, True)]
    out = []
    for alg in algebras:
        for m in (regular_module(alg), direct_sum([injective(alg, v) for v in alg.vertices])):
            out += [fac for fac, _ in decompose(m) if hom_space(fac, fac).dim > 1]
    return out


def test_endo_radical_is_nilpotent_with_a_one_dimensional_top():
    from quivertilt.modules import _endo_radical
    factors = _non_brick_factors()
    assert len(factors) >= 6  # cycle2 and triple3 have them, over both fields
    for m in factors:
        rad = _endo_radical(m)
        assert hom_space(m, m).dim - len(rad) == 1
        assert _endo_radical(m) is rad
        for r in rad:
            power = r
            for _ in range(m.total_dim - 1):
                power = power.compose(r)
            assert power.is_zero()
    assert _endo_radical(simple(fixture_algebra("a2"), "1")) == ()


def test_endo_radical_needs_a_prime_above_the_dimension():
    from quivertilt.modules import _endo_radical
    s1 = simple(fixture_algebra("a2", GF(3)), "1")
    m = direct_sum([s1, s1, s1])
    assert m.total_dim == 3 and hom_space(m, m).dim == 9
    with pytest.raises(InputError):
        _endo_radical(m)


def test_in_add_of(cycle2):
    p2, s2 = projective(cycle2, "2"), simple(cycle2, "2")
    t = direct_sum([p2, s2])
    assert in_add_of(direct_sum([p2, p2]), t)
    assert in_add_of(s2, t)
    assert not in_add_of(simple(cycle2, "1"), t)


def test_decompose_is_memoized_per_module(monkeypatch):
    import quivertilt.modules as modules
    from conftest import linear_algebra
    m = regular_module(linear_algebra(3))
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return hom_space(a, b)

    monkeypatch.setattr(modules, "hom_space", counting)
    first = decompose(m)
    assert calls
    calls.clear()
    second = decompose(m)
    assert calls == [] and second == first
    second.append("junk")
    second[0] = None
    assert decompose(m) == first and calls == []


def test_endomorphism_space_is_memoized_per_module(monkeypatch, cycle2):
    import quivertilt.modules as modules
    solves = []
    solve = modules._hom_space

    def counting(a, b):
        solves.append((a, b))
        return solve(a, b)

    monkeypatch.setattr(modules, "_hom_space", counting)
    p2, i1 = projective(cycle2, "2"), injective(cycle2, "1")
    end = hom_space(p2, p2)
    assert hom_space(p2, p2) is end and end.dim == 2 and len(solves) == 1
    # an equal but distinct module has its own cache, with the same space
    other = projective(cycle2, "2")
    assert hom_space(other, other).dim == end.dim and len(solves) == 2
    assert hom_space(other, other) is hom_space(other, other) and len(solves) == 2
    # other targets are solved on every call
    assert hom_space(p2, i1) == hom_space(p2, i1) and len(solves) == 4


def test_basis_action_is_the_path_matrix_of_every_basis_path():
    """basis_action builds a path a * p' as arrow_mats[a] times the action
    of the suffix p'; path_matrix multiplies the arrows from an identity.
    The opposite algebras, whose tables are not re-certified, have
    suffix-closed bases too."""
    from conftest import linear_algebra

    from quivertilt.algebra import opposite_algebra

    algebras = [fixture_algebra(n) for n in ("a2", "kron2", "cycle2", "triple3")]
    algebras += [opposite_algebra(a) for a in algebras]
    algebras += [linear_algebra(6, rad2=True), linear_algebra(4)]
    for alg in algebras:
        mods = [regular_module(alg)] + [injective(alg, v) for v in alg.vertices]
        for m in mods:
            for i, (_, word) in enumerate(alg.basis):
                if word:
                    assert m.basis_action(i) == m.path_matrix(word), (alg, word)


@pytest.mark.parametrize("field", [None, GF(3)], ids=["Q", "GF3"])
def test_block_assembly_writes_the_grid_and_checks_every_shape(field):
    """_assemble_block_map writes a grid of maps between recorded parts as
    the stacked blocks (oracles.block_matrix, zeros for None), and the map
    is natural.  A block whose shape is not that of its two parts raises
    DimensionMismatch; parts that do not add up to the source or to the
    target raise ConsistencyError."""
    alg = fixture_algebra("cycle2", field)
    fld = alg.field
    p1, p2, i1, s2 = (projective(alg, "1"), projective(alg, "2"), injective(alg, "1"),
                      simple(alg, "2"))
    src_reps, tgt_reps = [p1, s2, p2], [i1, p1, p2]
    src, tgt = direct_sum(src_reps), direct_sum(tgt_reps)
    blocks = [[hom_space(s, t).basis[-1] if hom_space(s, t).dim else None for t in tgt_reps]
              for s in src_reps]
    blocks[1][1] = None
    assert sum(b is not None for row in blocks for b in row) >= 4
    f = _assemble_block_map(src, tgt, blocks, src_reps, tgt_reps)
    ModuleMap(src, tgt, f.mats)
    for v in alg.vertices:
        assert f.mats[v] == block_matrix(fld, [
            [b.mats[v] if b is not None else Matrix.zeros(fld, s.dims[v], t.dims[v])
             for b, t in zip(row, tgt_reps)] for row, s in zip(blocks, src_reps)])
    misplaced = [row[:] for row in blocks]
    misplaced[0][0] = identity_map(s2)
    with pytest.raises(DimensionMismatch):
        _assemble_block_map(src, tgt, misplaced, src_reps, tgt_reps)
    with pytest.raises(ConsistencyError):
        _assemble_block_map(src, tgt, blocks[:2], src_reps[:2], tgt_reps)
    with pytest.raises(ConsistencyError):
        _assemble_block_map(src, tgt, [row[:2] for row in blocks], src_reps, tgt_reps[:2])


@pytest.mark.parametrize("name", ["cycle2", "triple3", "a2"])
def test_no_kernel_only_caller_carries_a_transform(monkeypatch, name):
    """hom_space, min_resolution, kernel and submodule_from_rows eliminate
    only without a transform: kernels come off the free columns of one RREF,
    generators from independent_rows, and coordinates in an RREF basis off
    its pivot columns."""
    import quivertilt.linalg
    from quivertilt.homology import min_resolution
    from quivertilt.modules import submodule_from_rows
    real = quivertilt.linalg._eliminate
    flags = []

    def recording(*args):
        flags.append(args[-1])
        return real(*args)

    monkeypatch.setattr(quivertilt.linalg, "_eliminate", recording)
    alg = fixture_algebra(name)
    mods = [make(alg, v) for make in (projective, simple, injective) for v in alg.vertices]
    for m in mods:
        min_resolution(m, 4, require_finite=False)
        for n in mods:
            for f in hom_space(m, n).basis:
                kernel(f)
                submodule_from_rows(n, f.mats)
    assert flags and not any(flags)


def _projective_sums(alg):
    """Every projective sum the library builds for the algebra's simples and
    injectives (their resolution terms), each P_v, and ⊕ P_v twice over."""
    from quivertilt.homology import min_resolution
    from quivertilt.modules import proj_sum
    sums = [proj_sum(alg, (v,)) for v in alg.vertices] + [proj_sum(alg, alg.vertices * 2)]
    for v in alg.vertices:
        for m in (simple(alg, v), injective(alg, v)):
            sums += min_resolution(m, 4, require_finite=False).terms
    return sums


@pytest.mark.parametrize("field", [None, GF(101), GF(5)], ids=["Q", "GF101", "GF5"])
@pytest.mark.parametrize("name", ["a2", "kron2", "cycle2", "triple3"])
def test_hom_out_of_a_projective_sum_spans_the_naturality_solution(name, field):
    """Hom(⊕P_{v_j}, n) read off the generators has the dimension and the
    span of the naturality solve (oracles.reference_hom_space), for every
    projective sum of the fixture and targets its simples, injectives,
    projectives, the regular module and the sum itself."""
    from quivertilt.modules import _flatten_map
    from oracles import oracle_rank, reference_hom_space

    alg = fixture_algebra(name, field)
    char = alg.field.characteristic
    targets = [build(alg, v) for v in alg.vertices for build in (simple, injective, projective)]
    targets.append(regular_module(alg))
    checked = 0
    for psum in _projective_sums(alg):
        for n in targets + [psum]:
            got, ref = hom_space(psum, n), reference_hom_space(psum, n)
            assert got.dim == ref.dim == sum(n.dims[v] for v in psum.gens)
            rows = [list(_flatten_map(f)) for f in got.basis]
            assert oracle_rank(rows, char) == got.dim
            rows += [list(_flatten_map(f)) for f in ref.basis]
            assert oracle_rank(rows, char) == ref.dim
            assert all(f.source is psum and f.target is n for f in got.basis)
            checked += ref.dim > 0
    assert checked > 20


def test_hom_out_of_a_projective_sum_solves_nothing(monkeypatch, triple3):
    """The Yoneda route calls neither the naturality solve nor _eliminate,
    and its maps are natural."""
    import quivertilt.linalg as linalg
    import quivertilt.modules as modules
    from conftest import counting
    from quivertilt.modules import proj_sum

    solves = counting(monkeypatch, modules, "_solve_hom_space")
    elims = counting(monkeypatch, linalg, "_eliminate")
    psum = proj_sum(triple3, ("1", "3", "1"))
    hs = hom_space(psum, injective(triple3, "3"))
    assert hs.dim == 2 * injective(triple3, "3").dims["1"] + injective(triple3, "3").dims["3"]
    assert solves == [] and elims == []
    for f in hs.basis:
        ModuleMap(f.source, f.target, f.mats)
    hom_space(simple(triple3, "1"), psum)  # not out of a projective sum: solved
    assert len(solves) == 1


def test_a_projective_sum_frees_its_module_without_the_collector():
    """The generator fields proj_sum sets on its module hold plain tuples
    and dicts, not the module, so the module is in no reference cycle: it
    is freed with the collector off, also after Hom out of it was read off
    its generators and dropped."""
    import gc
    import weakref

    from quivertilt.modules import proj_sum
    alg = fixture_algebra("cycle2")
    gc.disable()
    try:
        psum = proj_sum(alg, ("1", "2", "2"))
        assert psum.gens == ("1", "2", "2") and len(psum.gen_pos) == 3
        assert hom_space(psum, simple(alg, "2")).dim == 2
        ref = weakref.ref(psum)
        del psum
        assert ref() is None
    finally:
        gc.enable()


def _quotient_sites(field):
    """(label, run) for each caller of ``modules._quotient_by_rows``, on
    the fixtures over the given field: a cokernel, ``quotient``, the
    pushout of an extension, the trace quotient of a localization, A/AeA
    of the stratifying check and H^0 of the resolution of S_2.  The tilting sequence the trace
    quotient divides is certified here, so that run() reaches no other
    quotient first."""
    from quivertilt.complexes import cohomology, resolve_to_complex
    from quivertilt.homology import left_add_approximation, universal_extension
    from quivertilt.recollement import (_quotient_by_vertex_ideal, _trace_quotient,
                                        _vertex_ideal_products)
    from quivertilt.tilting import tilting_module_check
    cycle2 = fixture_algebra("cycle2", field)
    t = direct_sum([projective(cycle2, "2"), simple(cycle2, "2")])
    seq = tilting_module_check(t).sequence
    return [
        ("cokernel", lambda: cokernel(left_add_approximation(regular_module(cycle2), t)[0])),
        ("quotient", lambda: quotient(projective(cycle2, "2"),
                                      socle(projective(cycle2, "2"))[1])),
        ("pushout", lambda: universal_extension(simple(cycle2, "2"), regular_module(cycle2))),
        ("trace quotient", lambda: _trace_quotient(seq.right, seq.mid)),
        ("vertex ideal", lambda: _quotient_by_vertex_ideal(
            cycle2, list(_vertex_ideal_products(cycle2, ["1"])))),
        ("cohomology", lambda: cohomology(resolve_to_complex(simple(cycle2, "2")), 0)),
    ]


def _patch_quotient_by_rows(monkeypatch, wrapper):
    import quivertilt.complexes as complexes
    import quivertilt.homology as homology
    import quivertilt.modules as modules
    import quivertilt.recollement as recollement
    real = modules._quotient_by_rows
    for mod in (modules, homology, complexes, recollement):
        monkeypatch.setattr(mod, "_quotient_by_rows", lambda m, rows: wrapper(real, m, rows))


@pytest.mark.parametrize("field", [None, GF(101), GF(5)], ids=["Q", "GF101", "GF5"])
def test_quotient_by_rows_equals_the_submodule_route_at_every_site(monkeypatch, field):
    """Every quotient the package takes by rows (a cokernel, quotient, the
    pushout, the trace quotient, A/AeA, H^n of a complex) equals the quotient through the
    submodule the rows span (``oracles.reference_quotient_by_rows``): the
    same dims, arrow matrices, projection and sections."""
    from oracles import reference_quotient_by_rows
    seen = []

    def recording(real, m, rows):
        out = real(m, rows)
        seen.append((m, rows, out))
        return out

    sites = _quotient_sites(field)
    _patch_quotient_by_rows(monkeypatch, recording)
    for label, run in sites:
        seen.clear()
        run()
        assert seen, label
        for m, rows, (q, proj, sections) in seen:
            ref_q, ref_proj, ref_sections = reference_quotient_by_rows(m, rows)
            assert (q.dims, q.arrow_mats) == (ref_q.dims, ref_q.arrow_mats), label
            assert proj.mats == ref_proj.mats and sections == ref_sections, label


@pytest.mark.parametrize("field", [None, GF(101), GF(5)], ids=["Q", "GF101", "GF5"])
def test_every_quotient_by_rows_site_rejects_rows_that_are_not_a_submodule(
        monkeypatch, field):
    """With one entry of the rows changed so that their span is not
    action-stable (``oracles.unstable_rows``), at the first call of each
    site where one entry can do so, every site raises ConsistencyError:
    the check of [section_s; basis_s]·A·proj_t stays on each route."""
    from oracles import unstable_rows
    changed = []

    def changing(real, m, rows):
        bent = unstable_rows(m, rows)
        if bent is None:
            return real(m, rows)
        changed.append(m)
        return real(m, bent)

    sites = _quotient_sites(field)
    _patch_quotient_by_rows(monkeypatch, changing)
    for label, run in sites:
        changed.clear()
        with pytest.raises(ConsistencyError, match="action-stable"):
            run()
        assert len(changed) == 1, label


def test_quotient_by_rows_rejects_a_changed_arrow(cycle2):
    """The socle of P_2 over cycle2 is a submodule, but not of P_2 with one
    arrow entry raised by one where that moves the socle out of itself
    (by oracle_rank); every such change raises ConsistencyError."""
    from quivertilt.modules import Representation, _quotient_by_rows
    from oracles import oracle_matmul, oracle_rank
    p2 = projective(cycle2, "2")
    soc = socle(p2)[1].mats
    _quotient_by_rows(p2, soc)
    rejected = 0
    for name, s, t in cycle2.quiver.arrows:
        a = p2.arrow_mats[name]
        for i in range(a.rows):
            for j in range(a.cols):
                grid = [list(r) for r in a.entries]
                grid[i][j] += 1
                changed = dict(p2.arrow_mats)
                changed[name] = Matrix(a.field, a.rows, a.cols, tuple(map(tuple, grid)))
                base = [list(r) for r in soc[t].entries]
                img = oracle_matmul(soc[s].entries, grid, a.cols)
                if oracle_rank(base + img) > oracle_rank(base):
                    with pytest.raises(ConsistencyError, match="action-stable"):
                        _quotient_by_rows(Representation._trusted(cycle2, p2.dims, changed), soc)
                    rejected += 1
    assert rejected


def _typed(f):
    """The shape and entries of each vertex matrix of a map, each entry with
    its type."""
    return {v: (m.rows, m.cols, tuple((type(x), x) for r in m.entries for x in r))
            for v, m in f.mats.items()}


def _conjugated(rep, rng):
    """rep in a random basis: a product of elementary matrices E per vertex,
    each arrow s -> t acting as E_s * A * E_t^-1; checked by the validating
    constructor."""
    alg, fld = rep.algebra, rep.algebra.field
    change, inverse = {}, {}
    for v, d in rep.dims.items():
        e = e_inv = Matrix.identity(fld, d)
        for _ in range(2 * d if d > 1 else 0):
            r, c = rng.sample(range(d), 2)
            x = fld.coerce(rng.randint(1, 2))
            step = [list(row) for row in Matrix.identity(fld, d).entries]
            back = [list(row) for row in step]
            step[r][c], back[r][c] = x, fld.neg(x)
            e = e.mul(Matrix(fld, d, d, tuple(map(tuple, step))))
            e_inv = Matrix(fld, d, d, tuple(map(tuple, back))).mul(e_inv)
        change[v], inverse[v] = e, e_inv
    return Representation(alg, dict(rep.dims), {
        name: change[s].mul(rep.arrow_mats[name]).mul(inverse[t])
        for name, s, t in alg.quiver.arrows})


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_propagated_rows_equal_the_images_times_the_path_actions(field):
    """hom_from_gens, which reads each row off its prefix's row and one
    arrow matrix, equals images[j] times basis_action(i) entry for entry,
    for seeded random images, on every fixture's projective sums and on A_n,
    and on a suffix-closed basis that is not prefix-closed, where x*y*z has
    no prefix row to start from, and on a basis listed longest path first,
    where no path has its prefix before it."""
    rng = random.Random(f"propagated rows/{field}")
    algebras = [fixture_algebra(name, None if field == QQ else field)
                for name in ("a2", "kron2", "cycle2", "triple3")]
    algebras += [linear_algebra(n, rad2, field) for n in range(2, 6) for rad2 in (False, True)]
    triple3 = algebras[3]
    skewed = [non_prefix_closed_algebra(field),
              reordered_algebra(triple3, range(triple3.dim)[::-1])]
    for alg in skewed:
        alg._verify()
    algebras += skewed
    compared = 0
    for alg in algebras:
        regular = regular_module(alg)
        targets = [regular, _conjugated(regular, rng),
                   _conjugated(direct_sum([injective(alg, v) for v in alg.vertices]), rng)]
        gen_lists = [alg.vertices, alg.vertices[::-1] + alg.vertices[:1]]
        gen_lists += [(v,) for v in alg.vertices]
        for gens in gen_lists:
            psum = proj_sum(alg, gens)
            for n in targets:
                images = [tuple(field.coerce(Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
                                for _ in range(n.dims[v])) for v in gens]
                assert _typed(hom_from_gens(psum, n, images)) == _typed(
                    reference_hom_from_gens(psum, n, images)), (alg, gens)
                compared += 1
    assert compared == 3 * sum(2 + len(alg.vertices) for alg in algebras)
    # raw images, neither reduced nor in canonical form, are read as the
    # identity action reads them, also past the shared identities' size
    a2 = algebras[0]
    for copies in (2, 40):
        n = direct_sum([simple(a2, "1")] * copies)
        raw = [Fraction(4, 2), -1, 4, 0] * (copies // 2)
        images = [tuple(raw[:n.dims["1"]])]
        psum = proj_sum(a2, ("1",))
        assert _typed(hom_from_gens(psum, n, images)) == _typed(
            reference_hom_from_gens(psum, n, images))
    psum = proj_sum(skewed[1], skewed[1].vertices)
    n = regular_module(skewed[1])
    images = [(field.one(),) * (n.dims[v] + (v == psum.gens[-1])) for v in psum.gens]
    for compute in (hom_from_gens, reference_hom_from_gens):
        with pytest.raises(DimensionMismatch):
            compute(psum, n, images)
