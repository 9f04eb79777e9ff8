"""indecomposable_summands certifies a local End ring right after the Hom
basis candidates and rejects units and nilpotents before it builds any
submodule.  Neither may change a split: on every module that ``decompose``
is asked about in the worked examples and in the tilting and Bongartz
verdicts on A_3, and on a module whose Hom basis holds only units, the
summands, inclusions and projections must equal those of the plain Fitting
search in ``oracles.reference_summands``."""

import sys

import pytest

import quivertilt.modules as modules
from quivertilt import (GF, QQ, Representation, bongartz_complement, direct_sum,
                        injective, regular_module, run_example, simple,
                        tilting_module_check)
from quivertilt.formats import fixture_algebra
from quivertilt.linalg import Matrix
from conftest import linear_algebra
from oracles import reference_summands


def _decomposed_modules(monkeypatch, run):
    """Each distinct (module, seed) that decompose is asked about while
    ``run`` runs, in order of first request."""
    seen = {}
    real = modules.decompose

    def recording(m, seed=0):
        seen.setdefault((id(m), seed), (m, seed))
        return real(m, seed)

    for name, mod in list(sys.modules.items()):
        if name.startswith("quivertilt") and getattr(mod, "decompose", None) is real:
            monkeypatch.setattr(mod, "decompose", recording)
    run()
    monkeypatch.undo()
    return list(seen.values())


def _summary(parts):
    return [(fac.dims, fac.arrow_mats, incl.mats, proj.mats) for fac, incl, proj in parts]


def _assert_matches_reference(pairs):
    assert pairs
    for m, seed in pairs:
        assert _summary(modules.indecomposable_summands(m, seed)) == \
            _summary(reference_summands(m, seed))


@pytest.mark.parametrize("field", [None, GF(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("name", ["cycle2", "triple3", "a2-bongartz"])
def test_worked_examples_split_as_the_reference(monkeypatch, name, field):
    pairs = _decomposed_modules(monkeypatch, lambda: run_example(name, field=field))
    _assert_matches_reference(pairs)


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


@pytest.mark.parametrize("field", [None, GF(101)], ids=["Q", "GF101"])
def test_module_whose_hom_basis_holds_only_units_splits_as_the_reference(field):
    # Over the Kronecker quiver, X (a = 1, b = 0) ⊕ Y (a = 0, b = 1) in a basis
    # where both Hom basis elements are units: End/rad = K × K, so the split
    # must come from a candidate after the basis, not from an early return
    alg = fixture_algebra("kron2", field)
    fld = alg.field

    def mat(rows):
        return Matrix(fld, 2, 2, tuple(tuple(fld.coerce(x) for x in r) for r in rows))

    m = Representation(alg, {"1": 2, "2": 2},
                       {"a": mat(((-2, 1), (-4, 2))), "b": mat(((0, 0), (1, 1)))})
    assert all(modules._fitting_split(m, f) is None
               for f in modules.hom_space(m, m).basis)
    parts = modules.indecomposable_summands(m)
    assert [fac.dim_vector() for fac, _, _ in parts] == [(1, 1), (1, 1)]
    assert _summary(parts) == _summary(reference_summands(m))
