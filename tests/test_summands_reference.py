"""indecomposable_summands splits a module built by ``direct_sum`` along its
recorded parts, and any other module by a Fitting search that certifies a
local End ring right after the Hom basis candidates and rejects units and
nilpotents before it builds any submodule.

On every module that ``decompose`` is asked about in the worked examples
and in the tilting and Bongartz verdicts on A_3, and on a module whose Hom
basis holds only units:

- a module without recorded parts splits exactly as the plain Fitting
  search in ``oracles.reference_summands``;
- a direct sum splits into the reference summands of each part in order,
  carried into the sum by the block maps of ``direct_sum_with_maps``;
- by either route, each factor's inclusion then projection is its
  identity, and the idempotents are orthogonal and sum to the identity."""

import sys

import pytest

import quivertilt.modules as modules
from quivertilt import (GF, QQ, ModuleMap, Representation, bongartz_complement,
                        direct_sum, injective, projective, regular_module,
                        run_example, simple, tilting_module_check)
from quivertilt.homology import left_add_approximation, universal_extension
from quivertilt.formats import fixture_algebra
from quivertilt.linalg import Matrix
from conftest import linear_algebra
from oracles import reference_split_along_parts, reference_summands


def _decomposed_modules(monkeypatch, run):
    """Each distinct module that decompose is asked about while ``run``
    runs, in order of first request."""
    seen = {}
    real = modules.decompose

    def recording(m):
        seen.setdefault(id(m), m)
        return real(m)

    for name, mod in list(sys.modules.items()):
        if name.startswith("quivertilt") and getattr(mod, "decompose", None) is real:
            monkeypatch.setattr(mod, "decompose", recording)
    run()
    monkeypatch.undo()
    return list(seen.values())


def _summary(parts):
    return [(fac.dims, fac.arrow_mats, incl.mats, proj.mats) for fac, incl, proj in parts]


def _expected_summands(m):
    """reference_summands(m) for a module without recorded parts; for a
    direct sum, the expected summands of each part in order, composed with
    the part's block maps from a fresh direct_sum_with_maps, re-pointed at m."""
    parts = m._caches.get("parts")
    if parts is None:
        return reference_summands(m)
    _, incls, projs = modules.direct_sum_with_maps(parts)
    out = []
    for part, incl, proj in zip(parts, incls, projs):
        incl, proj = ModuleMap(part, m, incl.mats), ModuleMap(m, part, proj.mats)
        for fac, sub_incl, sub_proj in _expected_summands(part):
            out.append((fac, sub_incl.compose(incl), proj.compose(sub_proj)))
    return out


def _assert_split_pairs(m, parts):
    """Structural check, independent of either route: incl_i then proj_i is
    id on factor i, the idempotents e_i = proj_i then incl_i of m are
    orthogonal, and they sum to id_m."""
    for fac, incl, proj in parts:
        assert incl.compose(proj).mats == modules.identity_map(fac).mats
    idems = [proj.compose(incl) for _, incl, proj in parts]
    total = modules.zero_map(m, m)
    for i, e in enumerate(idems):
        for j, f in enumerate(idems):
            assert e.compose(f).mats == (e.mats if i == j else modules.zero_map(m, m).mats)
        total = total.add(e)
    assert total.mats == modules.identity_map(m).mats


def _assert_matches_reference(mods):
    assert mods
    assert any("parts" in m._caches for m in mods)
    for m in mods:
        parts = modules.indecomposable_summands(m)
        assert _summary(parts) == _summary(_expected_summands(m))
        _assert_split_pairs(m, parts)


@pytest.mark.parametrize("field", [None, GF(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("name", ["cycle2", "triple3", "a2-bongartz"])
def test_worked_examples_split_as_the_reference(monkeypatch, name, field):
    mods = _decomposed_modules(monkeypatch, lambda: run_example(name, field=field))
    _assert_matches_reference(mods)


@pytest.mark.parametrize("rad2", [False, True], ids=["A3-Q", "rad2-A3-GF101"])
def test_tilting_and_bongartz_split_as_the_reference(monkeypatch, rad2):
    alg = linear_algebra(3, rad2, GF(101) if rad2 else QQ)

    def run():
        tilting_module_check(regular_module(alg))
        tilting_module_check(direct_sum([injective(alg, v) for v in alg.vertices]))
        # S_1 over rad² A_3 has pd 2 and no Bongartz complement
        for v in ("2", "3") if rad2 else alg.vertices:
            bongartz_complement(simple(alg, v))

    _assert_matches_reference(_decomposed_modules(monkeypatch, run))


def _kronecker_units_module(field):
    # Over the Kronecker quiver, X (a = 1, b = 0) ⊕ Y (a = 0, b = 1) in a basis
    # where both Hom basis elements are units: End/rad = K × K
    alg = fixture_algebra("kron2", field)
    fld = alg.field

    def mat(rows):
        return Matrix(fld, 2, 2, tuple(tuple(fld.coerce(x) for x in r) for r in rows))

    return Representation(alg, {"1": 2, "2": 2},
                          {"a": mat(((-2, 1), (-4, 2))), "b": mat(((0, 0), (1, 1)))})


@pytest.mark.parametrize("field", [None, GF(101)], ids=["Q", "GF101"])
def test_module_whose_hom_basis_holds_only_units_splits_as_the_reference(field):
    # the split must come from a candidate after the basis, not from an
    # early return
    m = _kronecker_units_module(field)
    assert all(modules._fitting_split(m, f) is None
               for f in modules.hom_space(m, m).basis)
    parts = modules.indecomposable_summands(m)
    assert [fac.dim_vector() for fac, _, _ in parts] == [(1, 1), (1, 1)]
    assert _summary(parts) == _summary(reference_summands(m))
    _assert_split_pairs(m, parts)


def _end_solves(monkeypatch):
    """Modules m for which _solve_hom_space(m, m) runs, recorded by id."""
    solved = set()
    real = modules._solve_hom_space

    def recording(m, n):
        if m is n:
            solved.add(id(m))
        return real(m, n)

    monkeypatch.setattr(modules, "_solve_hom_space", recording)
    return solved


@pytest.mark.parametrize("field", [None, GF(101)], ids=["Q", "GF101"])
def test_direct_sums_are_split_without_solving_their_end(monkeypatch, field):
    solved = _end_solves(monkeypatch)
    sums = []
    for name in ("a2", "kron2", "cycle2", "triple3"):
        alg = fixture_algebra(name, field)
        sums.append(regular_module(alg))
        sums.append(direct_sum([injective(alg, v) for v in alg.vertices]))
        sums.append(direct_sum([simple(alg, v) for v in alg.vertices] + [regular_module(alg)]))
    for m in sums:
        modules.decompose(m)
        assert id(m) not in solved
        _assert_split_pairs(m, modules.indecomposable_summands(m))


@pytest.mark.parametrize("field", [None, GF(101)], ids=["Q", "GF101"])
def test_nested_sum_splits_into_its_innermost_parts(monkeypatch, field):
    alg = fixture_algebra("a2", field)
    p1, s2, i1 = projective(alg, "1"), simple(alg, "2"), injective(alg, "1")
    inner = direct_sum([p1, s2])
    m = direct_sum([inner, i1])
    solved = _end_solves(monkeypatch)
    parts = modules.indecomposable_summands(m)
    assert [fac for fac, _, _ in parts] == [p1, s2, i1]
    assert all(fac is part for (fac, _, _), part in zip(parts, (p1, s2, i1)))
    assert id(m) not in solved and id(inner) not in solved
    assert _summary(parts) == _summary(_expected_summands(m))
    _assert_split_pairs(m, parts)
    assert [(fac.dim_vector(), k) for fac, k in modules.decompose(m)] == \
        [((1, 1), 1), ((0, 1), 1), ((1, 0), 1)]


@pytest.mark.parametrize("field", [None, GF(101)], ids=["Q", "GF101"])
def test_part_without_recorded_parts_takes_the_fitting_path(monkeypatch, field):
    x_y = _kronecker_units_module(field)
    s1 = simple(x_y.algebra, "1")
    m = direct_sum([x_y, s1])
    solved = _end_solves(monkeypatch)
    parts = modules.indecomposable_summands(m)
    assert id(x_y) in solved and id(m) not in solved
    assert [fac.dim_vector() for fac, _, _ in parts] == [(1, 1), (1, 1), (1, 0)]
    assert parts[2][0] is s1
    assert _summary(parts) == _summary(_expected_summands(m))
    _assert_split_pairs(m, parts)


@pytest.mark.parametrize("rad2", [False, True], ids=["hered-Q", "rad2-GF101"])
def test_part_that_is_its_own_summand_keeps_its_pair(rad2):
    """Keeping the pair of a part that is its own only summand changes no
    entry: on R, D(A) and Bongartz's N ⊕ S_v of A_3-A_5, and on a sum with
    a Fitting-split part, the summands equal the composing reference's."""
    mods = []
    for n in (3, 4, 5):
        alg = linear_algebra(n, rad2, GF(101) if rad2 else QQ)
        mods += [regular_module(alg), direct_sum([injective(alg, v) for v in alg.vertices])]
        for v in alg.vertices:
            n_mod, _ = universal_extension(simple(alg, v), regular_module(alg))
            mods.append(direct_sum([n_mod, simple(alg, v)]))
    x_y = _kronecker_units_module(GF(101) if rad2 else None)
    mods.append(direct_sum([x_y, simple(x_y.algebra, "1")]))
    for m in mods:
        parts = modules.indecomposable_summands(m)
        expected = reference_split_along_parts(m)
        assert [fac for fac, _, _ in parts] == [fac for fac, _, _ in expected]
        assert _summary(parts) == _summary(expected)


def _nested_sums(field):
    """Bongartz's N ⊕ S_3 over rad² A_4, with N the recorded sum of the
    universal extension's parts, and triple3's T0 ⊕ T1, with T0 the
    recorded sum of its left add(P1 ⊕ P2 ⊕ S1)-approximation and T1 a
    cokernel with no recorded parts."""
    alg = linear_algebra(4, True, field or QQ)
    s3 = simple(alg, "3")
    n_mod, _, _ = bongartz_complement(s3)
    triple3 = fixture_algebra("triple3", field)
    t = direct_sum([projective(triple3, "1"), projective(triple3, "2"), simple(triple3, "1")])
    f, _ = left_add_approximation(regular_module(triple3), t)
    t1, _ = modules.cokernel(f)
    assert "parts" in n_mod._caches and "parts" in f.target._caches and "parts" not in t1._caches
    return [direct_sum([n_mod, s3]), direct_sum([f.target, t1])]


@pytest.mark.parametrize("field", [None, GF(101)], ids=["Q", "GF101"])
def test_summand_factors_are_the_summands_factors_and_decompose_builds_no_pair(
        monkeypatch, field):
    """summand_factors gives the factor objects of indecomposable_summands,
    in order, on nested recorded sums and on a module with no recorded
    parts; decompose of a recorded sum builds no block map."""
    sums = _nested_sums(field)
    block_maps = []
    real = modules._block_maps
    monkeypatch.setattr(modules, "_block_maps", lambda m: block_maps.append(m) or real(m))
    for m in sums:
        groups = modules.decompose(m)
        assert block_maps == []
        factors = modules.summand_factors(m)
        summands = modules.indecomposable_summands(m)
        assert len(factors) == len(summands) == sum(k for _, k in groups)
        assert all(fac is s for fac, (s, _, _) in zip(factors, summands))
        block_maps.clear()
    x_y = _kronecker_units_module(field)
    factors = modules.summand_factors(x_y)
    assert [fac.dim_vector() for fac in factors] == [(1, 1), (1, 1)]
    assert all(fac is s for fac, (s, _, _) in zip(factors, modules.indecomposable_summands(x_y)))
