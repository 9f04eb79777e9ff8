"""summand_factors splits a module built by ``direct_sum`` along its
recorded parts, and any other module by a Fitting search that certifies a
local End ring right after the Hom basis candidates and rejects units and
nilpotents before it builds any submodule.

On every module that ``decompose`` is asked about in the worked examples
and in the tilting and Bongartz verdicts on A_3, and on a module whose Hom
basis holds only units, the factors (dimensions, arrow matrices and order)
are those of the plain Fitting search in ``oracles.reference_summands``:
for a module without recorded parts, its own; for a direct sum, those of
each part in order."""

import sys

import pytest

import quivertilt.modules as modules
from quivertilt import (GF, QQ, Representation, bongartz_complement,
                        direct_sum, injective, projective, regular_module,
                        run_example, simple, tilting_module_check)
from quivertilt.homology import left_add_approximation
from quivertilt.formats import fixture_algebra
from quivertilt.linalg import Matrix
from conftest import linear_algebra
from oracles import reference_summands


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


def _summary(factors):
    return [(fac.dims, fac.arrow_mats) for fac in factors]


def _expected_factors(m):
    """The factors of reference_summands(m) for a module without recorded
    parts; for a direct sum, the expected factors of each part in order."""
    parts = m._parts
    if not parts:
        return reference_summands(m)
    return [fac for part in parts for fac in _expected_factors(part)]


def _assert_matches_reference(mods):
    assert mods
    assert any(m._parts for m in mods)
    for m in mods:
        assert _summary(modules.summand_factors(m)) == _summary(_expected_factors(m))


@pytest.mark.parametrize("field", [None, GF(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("name", ["cycle2", "triple3", "a2-bongartz"])
def test_worked_examples_split_as_the_reference(monkeypatch, name, field):
    mods = _decomposed_modules(monkeypatch, lambda: run_example(name, field=field))
    _assert_matches_reference(mods)


@pytest.mark.parametrize("field", [None, GF(101)], ids=["Q", "GF101"])
def test_worked_examples_decompose_without_is_isomorphic(monkeypatch, field):
    """decompose groups factors by its own exact test: with is_isomorphic
    made to raise, the worked examples still pass, and every module they
    decompose is grouped."""
    def is_isomorphic(m, n):
        raise AssertionError("decompose reached is_isomorphic")

    monkeypatch.setattr(modules, "is_isomorphic", is_isomorphic)
    for name in ("cycle2", "triple3", "a2-bongartz"):
        reports = []
        mods = _decomposed_modules(monkeypatch,
                                   lambda: reports.append(run_example(name, field=field)))
        # _decomposed_modules undoes every patch when it returns
        monkeypatch.setattr(modules, "is_isomorphic", is_isomorphic)
        assert reports[0].passed and mods, name
        for m in mods:
            groups = modules.decompose(m)
            assert sum(k for _, k in groups) == len(modules.summand_factors(m))


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
    factors = modules.summand_factors(m)
    assert [fac.dim_vector() for fac in factors] == [(1, 1), (1, 1)]
    assert _summary(factors) == _summary(_expected_factors(m))


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
        assert _summary(modules.summand_factors(m)) == _summary(_expected_factors(m))


@pytest.mark.parametrize("field", [None, GF(101)], ids=["Q", "GF101"])
def test_nested_sum_splits_into_its_innermost_parts(monkeypatch, field):
    alg = fixture_algebra("a2", field)
    p1, s2, i1 = projective(alg, "1"), simple(alg, "2"), injective(alg, "1")
    inner = direct_sum([p1, s2])
    m = direct_sum([inner, i1])
    solved = _end_solves(monkeypatch)
    factors = modules.summand_factors(m)
    assert len(factors) == 3
    assert all(fac is part for fac, part in zip(factors, (p1, s2, i1)))
    assert id(m) not in solved and id(inner) not in solved
    assert [(fac.dim_vector(), k) for fac, k in modules.decompose(m)] == \
        [((1, 1), 1), ((0, 1), 1), ((1, 0), 1)]


@pytest.mark.parametrize("field", [None, GF(101)], ids=["Q", "GF101"])
def test_part_without_recorded_parts_takes_the_fitting_path(monkeypatch, field):
    x_y = _kronecker_units_module(field)
    s1 = simple(x_y.algebra, "1")
    m = direct_sum([x_y, s1])
    solved = _end_solves(monkeypatch)
    factors = modules.summand_factors(m)
    assert id(x_y) in solved and id(m) not in solved
    assert [fac.dim_vector() for fac in factors] == [(1, 1), (1, 1), (1, 0)]
    assert factors[2] is s1
    assert _summary(factors) == _summary(_expected_factors(m))


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
    assert n_mod._parts and f.target._parts and not t1._parts
    return [direct_sum([n_mod, s3]), direct_sum([f.target, t1])]


@pytest.mark.parametrize("field", [None, GF(101)], ids=["Q", "GF101"])
def test_summand_factors_are_the_summands_factors_and_decompose_builds_no_pair(
        monkeypatch, field):
    """summand_factors of a nested recorded sum are the factor objects of
    its parts' summands, in order, and decompose of it builds no block map;
    decompose's multiplicities count the factors.  A module with no
    recorded parts lists the factors of its Fitting split, memoized: each
    call returns a fresh list of the same objects."""
    sums = _nested_sums(field)
    block_maps = []
    real = modules._block_maps
    monkeypatch.setattr(modules, "_block_maps", lambda m: block_maps.append(m) or real(m))
    for m in sums:
        groups = modules.decompose(m)
        assert block_maps == []
        factors = modules.summand_factors(m)
        parts_factors = [fac for part in m._parts
                         for fac in modules.summand_factors(part)]
        assert len(factors) == len(parts_factors) == sum(k for _, k in groups)
        assert all(fac is s for fac, s in zip(factors, parts_factors))
    x_y = _kronecker_units_module(field)
    factors = modules.summand_factors(x_y)
    assert [fac.dim_vector() for fac in factors] == [(1, 1), (1, 1)]
    again = modules.summand_factors(x_y)
    assert again is not factors and all(fac is s for fac, s in zip(factors, again))
